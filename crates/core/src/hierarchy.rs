//! The multi-core data-cache hierarchy: per-core L1 and L2, shared LLC.
//!
//! Write-back, write-allocate at every level. Dirty evictions cascade
//! downward (L1 → L2 → LLC); dirty LLC evictions surface as writebacks for
//! the memory controller (and, in secure designs, the secure write path).
//!
//! Every level is a plain LRU cache that is never invalidated, prefetched
//! or hinted, so its tags are a [`RecencyStore`] of `u32` words: each set
//! is `ways` words `line << 1 | dirty` in MRU order, 4 bytes per line (a
//! 16-way LLC set is one 64 B host line), evicting exactly the way the
//! generic [`cosmos_cache::Cache`] LRU does (DESIGN.md §13). Data lines
//! lie below [`LineAddr::DATA_LIMIT`], so they fit.

use crate::config::{CacheLevelConfig, SimConfig};
use cosmos_cache::{CacheConfig, PolicyKind, RecencyStore};
use cosmos_common::stats::HitMiss;
use cosmos_common::LineAddr;

/// Which level served a demand access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DataHit {
    /// Served by the core's L1.
    L1,
    /// Served by the core's L2.
    L2,
    /// Served by the shared LLC.
    Llc,
    /// Missed everywhere; DRAM access required.
    Dram,
}

impl DataHit {
    /// Whether the data was on-chip (anywhere above DRAM).
    pub const fn on_chip(self) -> bool {
        !matches!(self, DataHit::Dram)
    }
}

/// One data-cache level: a per-core L1 or L2, or the shared LLC. Its tags
/// are an exact-LRU [`RecencyStore`] of `u32` words; it counts demand hits
/// and misses (spill fills are not demand traffic).
struct Level {
    tags: RecencyStore<u32>,
    demand: HitMiss,
}

// Each level's MRU-ordered words and its demand hit/miss counts.
cosmos_common::state! { Level { words = tags, demand } }

impl Level {
    fn new(level: &CacheLevelConfig) -> Self {
        // `CacheConfig` validates the geometry exactly as it always has.
        let geometry = CacheConfig::new(level.size_bytes, level.ways);
        Self {
            tags: RecencyStore::new(geometry, PolicyKind::Lru, false),
            demand: HitMiss::new(),
        }
    }

    /// A demand access: counts a hit or a miss, then touches `line`.
    /// Returns whether it hit and the dirty line it evicted, if any.
    #[inline(always)]
    fn access(&mut self, line: LineAddr, write: bool) -> (bool, Option<LineAddr>) {
        let (hit, victim) = self.touch(line, write);
        self.demand.record(hit);
        (hit, victim)
    }

    /// Moves `line` to the front of its set, ORing `dirty` into its word,
    /// or inserts it there if it is not resident. Returns whether it was
    /// resident and the dirty line pushed off the tail, if any.
    #[inline(always)]
    fn touch(&mut self, line: LineAddr, dirty: bool) -> (bool, Option<LineAddr>) {
        let r = self.tags.access(line, dirty, None);
        let victim = r.evicted.filter(|ev| ev.dirty).map(|ev| ev.line);
        (r.hit, victim)
    }
}

/// Per-core L1/L2 caches plus the shared LLC.
pub struct CacheHierarchy {
    l1: Vec<Level>,
    l2: Vec<Level>,
    llc: Level,
}

impl CacheHierarchy {
    /// Builds the hierarchy described by `config`: one L1 and one L2 per
    /// core, and one shared LLC, all LRU.
    pub fn new(config: &SimConfig) -> Self {
        Self {
            l1: (0..config.cores).map(|_| Level::new(&config.l1)).collect(),
            l2: (0..config.cores).map(|_| Level::new(&config.l2)).collect(),
            llc: Level::new(&config.llc),
        }
    }

    /// Performs a demand access from `core`, filling caches on the way and
    /// cascading dirty evictions. Dirty lines pushed out of the LLC (each
    /// needing a DRAM writeback and, in secure designs, counter/MAC/tree
    /// updates) are appended to `writebacks`, which is cleared first — the
    /// caller owns the buffer so the hot path never allocates.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn access(
        &mut self,
        core: usize,
        line: LineAddr,
        write: bool,
        writebacks: &mut Vec<LineAddr>,
    ) -> DataHit {
        writebacks.clear();

        // L1.
        let (hit, victim) = self.l1[core].access(line, write);
        if hit {
            return DataHit::L1;
        }
        if let Some(spilled) = victim {
            if let (_, Some(spilled)) = self.l2[core].touch(spilled, true) {
                self.spill_to_llc(spilled, writebacks);
            }
        }

        // L2 (demand fill; a write allocates and dirties only L1).
        let (hit, victim) = self.l2[core].access(line, false);
        if let Some(spilled) = victim {
            self.spill_to_llc(spilled, writebacks);
        }
        if hit {
            return DataHit::L2;
        }

        // LLC.
        let (hit, victim) = self.llc.access(line, false);
        writebacks.extend(victim);
        if hit {
            DataHit::Llc
        } else {
            DataHit::Dram
        }
    }

    #[inline(always)]
    fn spill_to_llc(&mut self, line: LineAddr, writebacks: &mut Vec<LineAddr>) {
        let (_, victim) = self.llc.touch(line, true);
        writebacks.extend(victim);
    }

    /// Aggregated L1 hit/miss over all cores.
    pub fn l1_stats(&self) -> HitMiss {
        demand_sum(&self.l1)
    }

    /// Aggregated L2 hit/miss over all cores.
    pub fn l2_stats(&self) -> HitMiss {
        demand_sum(&self.l2)
    }

    /// LLC hit/miss.
    pub fn llc_stats(&self) -> HitMiss {
        self.llc.demand
    }
}

cosmos_common::state! { CacheHierarchy -> Value { l1, l2, llc } }

/// Sums the demand hit/miss counts of one level's per-core caches.
fn demand_sum(levels: &[Level]) -> HitMiss {
    let (hits, misses) = levels.iter().fold((0, 0), |(h, m), l| {
        (h + l.demand.hits(), m + l.demand.misses())
    });
    HitMiss::from_counts(hits, misses)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Design, SimConfig};
    use cosmos_cache::recency::EMPTY;
    use cosmos_common::json::{codec, Value};
    use proptest::prelude::*;

    /// The hierarchy this module used to be: three levels of the generic
    /// LRU [`cosmos_cache::Cache`]. The oracle the exact-LRU levels must
    /// match access for access. A dirty spill is a write access to the
    /// lower cache, which only demand accesses count in `demand`.
    mod reference {
        use crate::config::{CacheLevelConfig, SimConfig};
        use crate::hierarchy::DataHit;
        use cosmos_cache::{Cache, CacheConfig, PolicyKind};
        use cosmos_common::stats::HitMiss;
        use cosmos_common::LineAddr;

        pub struct CacheOracle {
            l1: Vec<Cache>,
            l2: Vec<Cache>,
            llc: Cache,
            /// L1, L2 and LLC demand hits and misses.
            pub demand: [HitMiss; 3],
        }

        impl CacheOracle {
            pub fn new(config: &SimConfig) -> Self {
                let mk = |lvl: &CacheLevelConfig| {
                    Cache::new(CacheConfig::new(lvl.size_bytes, lvl.ways), PolicyKind::Lru)
                };
                Self {
                    l1: (0..config.cores).map(|_| mk(&config.l1)).collect(),
                    l2: (0..config.cores).map(|_| mk(&config.l2)).collect(),
                    llc: mk(&config.llc),
                    demand: [HitMiss::new(); 3],
                }
            }

            pub fn access(
                &mut self,
                core: usize,
                line: LineAddr,
                write: bool,
                writebacks: &mut Vec<LineAddr>,
            ) -> DataHit {
                writebacks.clear();
                let r1 = self.l1[core].access(line, write, None);
                self.demand[0].record(r1.hit);
                if r1.hit {
                    return DataHit::L1;
                }
                if let Some(ev) = r1.evicted.filter(|ev| ev.dirty) {
                    let r = self.l2[core].access(ev.line, true, None);
                    if let Some(ev2) = r.evicted.filter(|e| e.dirty) {
                        self.spill_to_llc(ev2.line, writebacks);
                    }
                }
                let r2 = self.l2[core].access(line, false, None);
                self.demand[1].record(r2.hit);
                if let Some(ev) = r2.evicted.filter(|ev| ev.dirty) {
                    self.spill_to_llc(ev.line, writebacks);
                }
                if r2.hit {
                    return DataHit::L2;
                }
                let r3 = self.llc.access(line, false, None);
                self.demand[2].record(r3.hit);
                writebacks.extend(r3.evicted.filter(|ev| ev.dirty).map(|ev| ev.line));
                if r3.hit {
                    DataHit::Llc
                } else {
                    DataHit::Dram
                }
            }

            fn spill_to_llc(&mut self, line: LineAddr, writebacks: &mut Vec<LineAddr>) {
                let r = self.llc.access(line, true, None);
                writebacks.extend(r.evicted.filter(|ev| ev.dirty).map(|ev| ev.line));
            }
        }
    }

    const WAYS: [usize; 4] = [1, 2, 8, 16];

    /// A hierarchy config with `cores` cores and levels of
    /// `(ways index, log2 sets)`.
    fn geometry_config(cores: usize, levels: [(usize, u32); 3]) -> SimConfig {
        let mut cfg = SimConfig::paper_default(Design::Np);
        cfg.cores = cores;
        for (lvl, (w, sets_log2)) in [&mut cfg.l1, &mut cfg.l2, &mut cfg.llc]
            .into_iter()
            .zip(levels)
        {
            lvl.ways = WAYS[w];
            lvl.size_bytes = WAYS[w] << sets_log2 << 6;
        }
        cfg
    }

    /// Runs `ops` through the hierarchy and the `Cache`-based oracle,
    /// comparing every outcome, writeback list and level stat.
    fn check_against_oracle(cfg: &SimConfig, ops: &[(usize, u64, bool)]) -> Result<(), String> {
        let mut h = CacheHierarchy::new(cfg);
        let mut oracle = reference::CacheOracle::new(cfg);
        let (mut wb, mut wb_oracle) = (Vec::new(), Vec::new());
        for (i, &(core, line, write)) in ops.iter().enumerate() {
            let core = core % cfg.cores;
            let line = LineAddr::new(line);
            let got = h.access(core, line, write, &mut wb);
            let want = oracle.access(core, line, write, &mut wb_oracle);
            let stats = [h.l1_stats(), h.l2_stats(), h.llc_stats()];
            if got != want || wb != wb_oracle || stats != oracle.demand {
                return Err(format!(
                    "access {i} (core {core}, {line:?}, write {write}): \
                     {got:?} {wb:?} {stats:?} vs oracle {want:?} {wb_oracle:?} {:?}",
                    oracle.demand
                ));
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        fn matches_cache_oracle(
            cores in 1usize..5,
            levels in (
                (0usize..4, 0u32..3),
                (0usize..4, 0u32..3),
                (0usize..4, 0u32..4),
            ),
            ops in prop::collection::vec((0usize..4, 0u64..96, any::<bool>()), 1..400),
        ) {
            let cfg = geometry_config(cores, [levels.0, levels.1, levels.2]);
            let outcome = check_against_oracle(&cfg, &ops);
            prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
        }
    }

    #[test]
    fn every_way_count_matches_oracle_under_write_pressure() {
        // Deterministic sweep: every associativity at every level, with a
        // dirty-heavy stream that forces cascades out of the LLC.
        let ops: Vec<(usize, u64, bool)> = (0..3000u64)
            .map(|i| ((i % 3) as usize, (i * 37 + i / 7) % 211, i % 3 != 1))
            .collect();
        for w1 in 0..4 {
            for w2 in 0..4 {
                for w3 in 0..4 {
                    let cfg = geometry_config(3, [(w1, 1), (w2, 1), (w3, 2)]);
                    check_against_oracle(&cfg, &ops).unwrap();
                }
            }
        }
    }

    /// A small hierarchy with some history, and its saved state.
    fn saved_tiny() -> (CacheHierarchy, Value) {
        let mut h = tiny_hierarchy();
        for i in 0..40u64 {
            probe(&mut h, (i % 2) as usize, i * 3, i % 4 == 0);
        }
        let saved = h.save_state();
        (h, saved)
    }

    /// `saved` with the word array of its `llc` level edited by `f`.
    fn tamper_llc(saved: &Value, f: impl FnOnce(&mut Vec<u64>)) -> Value {
        let mut v = saved.clone();
        let Value::Object(top) = &mut v else {
            panic!("hierarchy state is an object")
        };
        let llc = top.get_mut("llc").unwrap();
        let mut words = codec::u64_array(llc, "words").unwrap();
        f(&mut words);
        let Value::Object(level) = llc else {
            panic!("level state is an object")
        };
        level.insert("words", codec::from_u64s(words));
        v
    }

    fn load_err(v: &Value) -> String {
        let mut h = tiny_hierarchy();
        h.load_state(v)
            .expect_err("tampered state must be rejected")
    }

    #[test]
    fn save_load_round_trip_continues_identically() {
        let (mut h, saved) = saved_tiny();
        let mut restored = tiny_hierarchy();
        restored.load_state(&saved).unwrap();
        assert_eq!(restored.save_state(), saved);
        let (mut wb_a, mut wb_b) = (Vec::new(), Vec::new());
        for i in 0..300u64 {
            let (core, line) = ((i % 2) as usize, LineAddr::new(i * 5 % 131));
            let a = h.access(core, line, i % 3 == 0, &mut wb_a);
            let b = restored.access(core, line, i % 3 == 0, &mut wb_b);
            assert_eq!((a, &wb_a), (b, &wb_b), "access {i}");
        }
        assert_eq!(h.l1_stats(), restored.l1_stats());
        assert_eq!(h.l2_stats(), restored.l2_stats());
        assert_eq!(h.llc_stats(), restored.llc_stats());
    }

    #[test]
    fn load_rejects_wrong_word_count() {
        let (_, saved) = saved_tiny();
        let err = load_err(&tamper_llc(&saved, |w| {
            w.pop();
        }));
        assert!(err.contains("llc.words") && err.contains("length"), "{err}");
    }

    #[test]
    fn load_rejects_line_in_wrong_set() {
        let (_, saved) = saved_tiny();
        // LLC: 4096 B / 16 ways = 4 sets. Line 1 belongs to set 1, not 0.
        let err = load_err(&tamper_llc(&saved, |w| w[0] = 1 << 1));
        assert!(
            err.contains("set 0") && err.contains("belongs to set 1"),
            "{err}"
        );
    }

    #[test]
    fn load_rejects_duplicate_line() {
        let (_, saved) = saved_tiny();
        let err = load_err(&tamper_llc(&saved, |w| {
            assert!(w[1] != EMPTY, "set 0 holds at least two lines");
            w[1] = w[0] ^ 1;
        }));
        assert!(err.contains("stored twice"), "{err}");
    }

    #[test]
    fn load_rejects_resident_line_after_empty_way() {
        let (_, saved) = saved_tiny();
        let err = load_err(&tamper_llc(&saved, |w| {
            let last = 16 * 4 - 1;
            assert_eq!(w[last], EMPTY, "set 3 is not full");
            w[last] = 3 << 3;
        }));
        assert!(err.contains("follows the empty way"), "{err}");
    }

    #[test]
    fn load_rejects_hint_bits() {
        let (_, saved) = saved_tiny();
        let err = load_err(&tamper_llc(&saved, |w| w[0] |= 1 << 63));
        assert!(err.contains("hint bits in an LRU store"), "{err}");
    }

    fn tiny_hierarchy() -> CacheHierarchy {
        let mut cfg = SimConfig::paper_default(Design::Np);
        cfg.cores = 2;
        cfg.l1.size_bytes = 512; // 4 sets x 2 ways
        cfg.l2.size_bytes = 2048;
        cfg.llc.size_bytes = 4096;
        CacheHierarchy::new(&cfg)
    }

    fn probe(h: &mut CacheHierarchy, core: usize, line: u64, write: bool) -> DataHit {
        let mut wb = Vec::new();
        h.access(core, LineAddr::new(line), write, &mut wb)
    }

    #[test]
    fn first_access_misses_everywhere() {
        let mut h = tiny_hierarchy();
        let mut wb = Vec::new();
        let hit = h.access(0, LineAddr::new(1), false, &mut wb);
        assert_eq!(hit, DataHit::Dram);
        assert!(wb.is_empty());
    }

    #[test]
    fn second_access_hits_l1() {
        let mut h = tiny_hierarchy();
        probe(&mut h, 0, 1, false);
        assert_eq!(probe(&mut h, 0, 1, false), DataHit::L1);
    }

    #[test]
    fn l1_eviction_falls_back_to_l2() {
        let mut h = tiny_hierarchy();
        // Fill L1 set 1 (lines 1, 5) then overflow it with line 9.
        probe(&mut h, 0, 1, false);
        probe(&mut h, 0, 5, false);
        probe(&mut h, 0, 9, false);
        // Line 1 was evicted from L1 but should hit in L2.
        assert_eq!(probe(&mut h, 0, 1, false), DataHit::L2);
    }

    #[test]
    fn llc_is_shared_between_cores() {
        let mut h = tiny_hierarchy();
        probe(&mut h, 0, 3, false);
        // Core 1 misses its own L1/L2 but hits the shared LLC.
        assert_eq!(probe(&mut h, 1, 3, false), DataHit::Llc);
    }

    #[test]
    fn dirty_data_eventually_writes_back() {
        let mut h = tiny_hierarchy();
        // Dirty many lines so the dirty data cascades out of the 4 KB LLC.
        let mut scratch = Vec::new();
        let mut wb = Vec::new();
        for i in 0..512u64 {
            h.access(0, LineAddr::new(i), true, &mut scratch);
            wb.extend_from_slice(&scratch);
        }
        assert!(!wb.is_empty(), "dirty evictions must surface as writebacks");
    }

    #[test]
    fn stats_accumulate() {
        let mut h = tiny_hierarchy();
        probe(&mut h, 0, 1, false);
        probe(&mut h, 0, 1, false);
        assert_eq!(h.l1_stats().total(), 2);
        assert_eq!(h.l1_stats().hits(), 1);
        assert_eq!(h.llc_stats().misses(), 1);
    }

    #[test]
    fn clean_evictions_do_not_write_back() {
        let mut h = tiny_hierarchy();
        let mut scratch = Vec::new();
        for i in 0..512u64 {
            h.access(0, LineAddr::new(i), false, &mut scratch); // reads only
            assert!(scratch.is_empty(), "clean lines must not be written back");
        }
    }

    #[test]
    fn scratch_buffer_is_cleared_per_access() {
        let mut h = tiny_hierarchy();
        let mut scratch = vec![LineAddr::new(999)];
        h.access(0, LineAddr::new(1), false, &mut scratch);
        assert!(scratch.is_empty(), "access must clear stale entries");
    }
}
