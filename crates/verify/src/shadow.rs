//! Trivially-correct shadow reference models.
//!
//! Each model here trades every optimization the production code makes for
//! obviousness: the shadow cache is a per-set MRU list instead of a policy
//! object over a flat entry array, and the shadow counter store is a dense
//! map with the overflow rule restated from the paper's tables rather than
//! the incremental format state machine. Running them in lockstep with the
//! real structures (via [`crate::observer`]) turns any divergence between
//! "obviously right" and "fast" into a reported [`Violation`].

use crate::invariants::Violation;
use cosmos_cache::{IndexKind, Victim};
use cosmos_common::hash::splitmix64;
use cosmos_common::LineAddr;
use cosmos_secure::CounterScheme;
use std::collections::BTreeMap;

/// How faithfully the shadow cache can predict the real cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShadowMode {
    /// The real cache uses true LRU: the shadow predicts every hit/miss
    /// *and* every victim itself and diffs both against the real outcome.
    Exact,
    /// The real cache uses a non-LRU policy (LCR, SHiP, …): victim choice
    /// is policy state we do not re-implement, so the shadow applies the
    /// real outcomes and checks structural consistency instead — hits must
    /// be resident, misses absent, victims resident with matching dirty
    /// bits, and no set may exceed its associativity.
    Mirror,
}

/// One resident line in a shadow set.
#[derive(Clone, Copy, Debug)]
struct ShadowLine {
    line: LineAddr,
    dirty: bool,
}

/// A naive set-associative cache: per-set `Vec`s ordered most-recent
/// first. No policy objects, no flat arrays, no stats — small enough to
/// audit by eye.
#[derive(Clone, Debug)]
pub struct ShadowCache {
    name: &'static str,
    mode: ShadowMode,
    ways: usize,
    set_mask: u64,
    /// Index function mirrored from the real cache (restated here via
    /// `cosmos_common::hash::splitmix64` rather than calling into
    /// `CacheConfig::set_of`, so an indexing bug in the production code
    /// still diverges from the shadow).
    index: IndexKind,
    sets: Vec<Vec<ShadowLine>>,
}

impl ShadowCache {
    /// Creates a shadow for a cache with `num_sets` sets (a power of two,
    /// matching [`cosmos_cache::CacheConfig::set_of`]'s mask mapping) and
    /// `ways` ways.
    pub fn new(name: &'static str, num_sets: usize, ways: usize, mode: ShadowMode) -> Self {
        assert!(
            num_sets.is_power_of_two(),
            "set count must be a power of two"
        );
        Self {
            name,
            mode,
            ways,
            set_mask: num_sets as u64 - 1,
            index: IndexKind::Modulo,
            sets: vec![Vec::new(); num_sets],
        }
    }

    /// Returns a copy mirroring a non-modulo index function. A
    /// [`IndexKind::Random`] shadow stays usable in [`ShadowMode::Exact`]
    /// (the keyed hash permutes lines across sets but each set is still a
    /// true LRU list); a skewed cache has per-*way* candidate sets that the
    /// per-set MRU model cannot express, so skewed shadows are built as one
    /// fully-associative pool (`num_sets == 1`, `ways` = total capacity) in
    /// [`ShadowMode::Mirror`] — see [`crate::observer::ShadowState`].
    #[must_use]
    pub fn with_index(mut self, index: IndexKind) -> Self {
        if matches!(index, IndexKind::Skewed { .. }) {
            assert_eq!(
                self.sets.len(),
                1,
                "skewed shadows model one fully-associative pool"
            );
        }
        self.index = index;
        self
    }

    fn set_of(&self, line: LineAddr) -> usize {
        match self.index {
            IndexKind::Modulo => (line.index() & self.set_mask) as usize,
            IndexKind::Random { key } => (splitmix64(line.index() ^ key) & self.set_mask) as usize,
            // Skewed shadows are a single fully-associative pool.
            IndexKind::Skewed { .. } => 0,
        }
    }

    /// Adopts a live cache's residency — priming for checked runs resumed
    /// from a snapshot. `lines_lru_to_mru` must be ordered least- to
    /// most-recently used within each set (see
    /// `cosmos_cache::RecencyStore::resident_entries_lru_to_mru`): each
    /// entry is installed at its set's MRU position, so the final per-set order
    /// matches the real cache's recency exactly — which
    /// [`ShadowMode::Exact`] victim prediction depends on.
    pub fn prime(&mut self, lines_lru_to_mru: &[(LineAddr, bool)]) {
        for set in &mut self.sets {
            set.clear();
        }
        for &(line, dirty) in lines_lru_to_mru {
            let set = self.set_of(line);
            self.sets[set].insert(0, ShadowLine { line, dirty });
        }
    }

    /// Mirrors a demand access the real cache reported as (`hit`,
    /// `evicted`), diffing predictions in [`ShadowMode::Exact`]. Appends
    /// any divergence to `out`.
    pub fn demand(
        &mut self,
        line: LineAddr,
        write: bool,
        hit: bool,
        evicted: Option<Victim>,
        out: &mut Vec<Violation>,
    ) {
        let set_idx = self.set_of(line);
        let ways = self.ways;
        let mode = self.mode;
        let name = self.name;
        let set = &mut self.sets[set_idx];
        let pos = set.iter().position(|e| e.line == line);

        if mode == ShadowMode::Exact {
            if pos.is_some() != hit {
                out.push(Violation::new(
                    "shadow-hit-miss",
                    format!(
                        "{name}: line {line:?} — shadow predicts {}, real cache reported {}",
                        if pos.is_some() { "hit" } else { "miss" },
                        if hit { "hit" } else { "miss" },
                    ),
                ));
            }
            if pos.is_none() && set.len() >= ways {
                // True LRU evicts the back of the MRU list.
                let victim = *set.last().expect("full set has a back");
                match evicted {
                    Some(ev) if ev.line == victim.line && ev.dirty == victim.dirty => {}
                    other => out.push(Violation::new(
                        "shadow-victim",
                        format!(
                            "{name}: fill of {line:?} — shadow LRU victim {:?} (dirty {}), real eviction {other:?}",
                            victim.line, victim.dirty,
                        ),
                    )),
                }
            }
        } else {
            // Mirror mode: structural consistency of the reported outcome.
            if hit && pos.is_none() {
                out.push(Violation::new(
                    "shadow-residency",
                    format!("{name}: real cache hit {line:?} but the shadow never saw it fill"),
                ));
            }
            if !hit && pos.is_some() {
                out.push(Violation::new(
                    "shadow-residency",
                    format!("{name}: real cache missed {line:?} while the shadow holds it"),
                ));
            }
            if !hit && evicted.is_none() && set.len() >= ways {
                out.push(Violation::new(
                    "shadow-capacity",
                    format!("{name}: fill of {line:?} into a full set evicted nothing"),
                ));
            }
        }

        // Apply the REAL outcome so one divergence does not cascade.
        if hit {
            match pos {
                Some(p) => {
                    let mut e = set.remove(p);
                    e.dirty |= write;
                    set.insert(0, e);
                }
                // Resync: trust the real cache and adopt the line.
                None => self.fill_front(set_idx, line, write, evicted, out),
            }
        } else {
            if let Some(p) = pos {
                set.remove(p); // diverged; drop our stale copy first
            }
            self.fill_front(set_idx, line, write, evicted, out);
        }
    }

    /// Mirrors a prefetch fill (the real cache verified the line absent
    /// before filling, so this is always a miss-fill, never dirty).
    pub fn prefetch(&mut self, line: LineAddr, evicted: Option<Victim>, out: &mut Vec<Violation>) {
        let set_idx = self.set_of(line);
        let set = &mut self.sets[set_idx];
        if let Some(p) = set.iter().position(|e| e.line == line) {
            out.push(Violation::new(
                "shadow-prefetch",
                format!(
                    "{}: prefetch filled {line:?} which the shadow already holds",
                    self.name
                ),
            ));
            set.remove(p);
        }
        if self.mode == ShadowMode::Exact {
            let set = &self.sets[set_idx];
            if set.len() >= self.ways {
                let victim = *set.last().expect("full set has a back");
                match evicted {
                    Some(ev) if ev.line == victim.line && ev.dirty == victim.dirty => {}
                    other => out.push(Violation::new(
                        "shadow-victim",
                        format!(
                            "{}: prefetch of {line:?} — shadow LRU victim {:?} (dirty {}), real eviction {other:?}",
                            self.name, victim.line, victim.dirty,
                        ),
                    )),
                }
            }
        }
        self.fill_front(set_idx, line, false, evicted, out);
    }

    /// Installs `line` at the MRU position, removing the real victim (or,
    /// if the real cache reported none and the set is somehow full, our
    /// own LRU, so capacity never drifts past the real geometry).
    fn fill_front(
        &mut self,
        set_idx: usize,
        line: LineAddr,
        dirty: bool,
        evicted: Option<Victim>,
        out: &mut Vec<Violation>,
    ) {
        let name = self.name;
        let set = &mut self.sets[set_idx];
        if let Some(ev) = evicted {
            match set.iter().position(|e| e.line == ev.line) {
                Some(p) => {
                    let ours = set.remove(p);
                    if ours.dirty != ev.dirty {
                        out.push(Violation::new(
                            "shadow-dirty",
                            format!(
                                "{name}: evicted {:?} reported dirty={} but the shadow tracked dirty={}",
                                ev.line, ev.dirty, ours.dirty,
                            ),
                        ));
                    }
                }
                None => out.push(Violation::new(
                    "shadow-residency",
                    format!(
                        "{name}: real cache evicted {:?} which the shadow never held",
                        ev.line
                    ),
                )),
            }
        }
        while set.len() >= self.ways {
            set.pop();
        }
        set.insert(0, ShadowLine { line, dirty });
    }

    /// All resident lines, unordered.
    pub fn resident(&self) -> Vec<LineAddr> {
        let mut v: Vec<LineAddr> = self
            .sets
            .iter()
            .flat_map(|s| s.iter().map(|e| e.line))
            .collect();
        v.sort_unstable_by_key(|l| l.index());
        v
    }

    /// Diffs the shadow residency set against the real cache's resident
    /// lines, appending one violation per direction (with a few example
    /// lines) on mismatch.
    pub fn diff_residency(
        &self,
        real: impl IntoIterator<Item = LineAddr>,
        out: &mut Vec<Violation>,
    ) {
        let mut real_lines: Vec<LineAddr> = real.into_iter().collect();
        real_lines.sort_unstable_by_key(|l| l.index());
        let shadow = self.resident();
        if real_lines != shadow {
            let only_real: Vec<_> = real_lines
                .iter()
                .filter(|l| !shadow.contains(l))
                .take(4)
                .collect();
            let only_shadow: Vec<_> = shadow
                .iter()
                .filter(|l| !real_lines.contains(l))
                .take(4)
                .collect();
            out.push(Violation::new(
                "shadow-residency-set",
                format!(
                    "{}: residency sets differ (real {} lines, shadow {}); only-real {only_real:?}, only-shadow {only_shadow:?}",
                    self.name,
                    real_lines.len(),
                    shadow.len(),
                ),
            ));
        }
    }
}

/// A naive dense counter store: per-line minors and per-block majors in
/// plain maps, with each scheme's overflow rule restated from first
/// principles (paper Table 1 / §2.2) instead of reusing
/// [`cosmos_secure::CounterStore`]'s incremental format tracking.
#[derive(Clone, Debug)]
pub struct DenseCounterStore {
    scheme: CounterScheme,
    /// Minor counter per data-line index.
    minors: BTreeMap<u64, u64>,
    /// Major counter per counter-block index.
    majors: BTreeMap<u64, u64>,
    /// Every data line ever incremented (diff targets).
    touched: Vec<LineAddr>,
    overflows: u64,
}

impl DenseCounterStore {
    /// Creates an empty store for `scheme`.
    pub fn new(scheme: CounterScheme) -> Self {
        Self {
            scheme,
            minors: BTreeMap::new(),
            majors: BTreeMap::new(),
            touched: Vec::new(),
            overflows: 0,
        }
    }

    /// Adopts the state of a live store — priming for checked runs resumed
    /// from a snapshot. Every line of every materialized block becomes a
    /// diff target (zero minors included: after an overflow they must stay
    /// zero in both stores).
    pub fn prime_from(&mut self, real: &cosmos_secure::CounterStore) {
        self.minors.clear();
        self.majors.clear();
        self.touched.clear();
        let coverage = self.scheme.coverage();
        for (idx, block) in real.materialized_blocks() {
            if block.major() != 0 {
                self.majors.insert(idx, block.major());
            }
            let first = idx * coverage;
            for (slot, minor) in block.minors().into_iter().enumerate() {
                let line_idx = first + slot as u64;
                self.touched.push(LineAddr::new(line_idx));
                if minor != 0 {
                    self.minors.insert(line_idx, minor as u64);
                }
            }
        }
        self.overflows = real.overflows();
    }

    /// Overflow events mirrored so far.
    pub fn overflows(&self) -> u64 {
        self.overflows
    }

    /// Data lines ever incremented, sorted and deduplicated.
    pub fn touched_lines(&self) -> Vec<LineAddr> {
        let mut v = self.touched.clone();
        v.sort_unstable_by_key(|l| l.index());
        v.dedup();
        v
    }

    /// The effective counter value of `line`, in the same `major << 20 |
    /// minor` encoding as [`cosmos_secure::CounterStore::value`].
    pub fn value(&self, line: LineAddr) -> u64 {
        let block = self.scheme.block_of(line);
        let major = self.majors.get(&block).copied().unwrap_or(0);
        let minor = self.minors.get(&line.index()).copied().unwrap_or(0);
        (major << 20) | minor
    }

    /// Mirrors one counter increment (a data writeback reaching the secure
    /// path). Returns whether the block overflowed.
    pub fn increment(&mut self, line: LineAddr) -> bool {
        self.touched.push(line);
        let block = self.scheme.block_of(line);
        let next = self.minors.get(&line.index()).copied().unwrap_or(0) + 1;
        let overflow = match self.scheme {
            // One 64-bit counter per line in hardware; the simulator caps
            // the OTP-seed minor field at 20 bits.
            CounterScheme::Monolithic => next > (1 << 20) - 1,
            // 7-bit minors.
            CounterScheme::Split => next > (1 << 7) - 1,
            // MorphCtr: the block overflows when no format represents its
            // minors — neither 128 uniform 3-bit counters nor any ZCC
            // format (128-bit zero bitmap + max_nonzero minors of `width`
            // bits, width capped at 20).
            CounterScheme::MorphCtr => {
                let minors = self.block_minors_with(block, line.index(), next);
                !Self::some_morph_format_fits(&minors)
            }
        };
        if overflow {
            self.overflows += 1;
            *self.majors.entry(block).or_insert(0) += 1;
            let first = block * self.scheme.coverage();
            for idx in first..first + self.scheme.coverage() {
                self.minors.remove(&idx);
            }
        } else {
            self.minors.insert(line.index(), next);
        }
        overflow
    }

    /// The dense minor vector of `block`, with `line_idx`'s slot replaced
    /// by `candidate`.
    fn block_minors_with(&self, block: u64, line_idx: u64, candidate: u64) -> Vec<u64> {
        let coverage = self.scheme.coverage();
        let first = block * coverage;
        (first..first + coverage)
            .map(|idx| {
                if idx == line_idx {
                    candidate
                } else {
                    self.minors.get(&idx).copied().unwrap_or(0)
                }
            })
            .collect()
    }

    /// MorphCtr representability, restated: `(max_nonzero, width)` ladder
    /// per the paper's 448 payload bits (`128 + max_nonzero * width <=
    /// 448`, width capped at 20 bits).
    fn some_morph_format_fits(minors: &[u64]) -> bool {
        if minors.iter().all(|&m| m <= 7) {
            return true; // uniform 3-bit
        }
        let nonzero = minors.iter().filter(|&&m| m != 0).count();
        let max = minors.iter().copied().max().unwrap_or(0);
        [(64u64, 5u32), (32, 10), (16, 20), (8, 20)]
            .iter()
            .any(|&(max_nonzero, width)| nonzero as u64 <= max_nonzero && max < (1u64 << width))
    }

    /// Diffs every touched line's value against the real store, appending
    /// at most `limit` violations.
    pub fn diff(&self, real: &cosmos_secure::CounterStore, limit: usize, out: &mut Vec<Violation>) {
        let mut reported = 0;
        for line in self.touched_lines() {
            let want = self.value(line);
            let got = real.value(line);
            if want != got {
                out.push(Violation::new(
                    "counter-value",
                    format!("line {line:?}: dense store value {want:#x}, CounterStore {got:#x}"),
                ));
                reported += 1;
                if reported >= limit {
                    out.push(Violation::new(
                        "counter-value",
                        format!("… further counter diffs suppressed after {limit}"),
                    ));
                    break;
                }
            }
        }
        if self.overflows != real.overflows() {
            out.push(Violation::new(
                "counter-overflows",
                format!(
                    "dense store saw {} overflows, CounterStore reports {}",
                    self.overflows,
                    real.overflows()
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosmos_cache::{Cache, CacheConfig, PolicyKind};
    use cosmos_secure::CounterStore;

    fn drive_pair(
        cache: &mut Cache,
        shadow: &mut ShadowCache,
        line: u64,
        write: bool,
    ) -> Vec<Violation> {
        let mut out = Vec::new();
        let r = cache.access(LineAddr::new(line), write, None);
        shadow.demand(
            LineAddr::new(line),
            write,
            r.hit,
            r.evicted.map(Victim::from),
            &mut out,
        );
        out
    }

    #[test]
    fn exact_shadow_tracks_lru_cache() {
        // 4 sets x 2 ways.
        let mut cache = Cache::new(CacheConfig::new(512, 2), PolicyKind::Lru);
        let mut shadow = ShadowCache::new("ctr", 4, 2, ShadowMode::Exact);
        let mut rng = cosmos_common::SplitMix64::new(7);
        for _ in 0..5_000 {
            let line = rng.next_below(32);
            let write = rng.chance(0.3);
            let v = drive_pair(&mut cache, &mut shadow, line, write);
            assert!(v.is_empty(), "{v:?}");
        }
        let mut out = Vec::new();
        shadow.diff_residency(cache.resident_lines(), &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn exact_shadow_catches_a_lied_hit() {
        let mut shadow = ShadowCache::new("ctr", 4, 2, ShadowMode::Exact);
        let mut out = Vec::new();
        // Tell the shadow a never-filled line "hit".
        shadow.demand(LineAddr::new(0), false, true, None, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].name, "shadow-hit-miss");
    }

    #[test]
    fn exact_shadow_catches_a_wrong_victim() {
        let mut shadow = ShadowCache::new("ctr", 4, 2, ShadowMode::Exact);
        let mut out = Vec::new();
        // Fill set 0 with lines 0 and 4 (0 is LRU after 4's fill).
        shadow.demand(LineAddr::new(0), false, false, None, &mut out);
        shadow.demand(LineAddr::new(4), false, false, None, &mut out);
        assert!(out.is_empty(), "{out:?}");
        // Real cache claims it evicted 4; true LRU evicts 0.
        shadow.demand(
            LineAddr::new(8),
            false,
            false,
            Some(Victim {
                line: LineAddr::new(4),
                dirty: false,
            }),
            &mut out,
        );
        assert!(out.iter().any(|v| v.name == "shadow-victim"), "{out:?}");
    }

    #[test]
    fn exact_shadow_tracks_random_indexed_lru_cache() {
        // Keyed-random indexing permutes lines across sets but each set is
        // still true LRU, so the Exact shadow must predict every hit/miss
        // and victim once it mirrors the same keyed hash.
        let index = IndexKind::Random { key: 0xDEAD_BEEF };
        let mut cache = Cache::new(CacheConfig::new(512, 2).with_index(index), PolicyKind::Lru);
        let mut shadow = ShadowCache::new("ctr", 4, 2, ShadowMode::Exact).with_index(index);
        let mut rng = cosmos_common::SplitMix64::new(17);
        for _ in 0..5_000 {
            let line = rng.next_below(48);
            let write = rng.chance(0.3);
            let v = drive_pair(&mut cache, &mut shadow, line, write);
            assert!(v.is_empty(), "{v:?}");
        }
        let mut out = Vec::new();
        shadow.diff_residency(cache.resident_lines(), &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn exact_shadow_with_wrong_key_diverges() {
        // Sanity: the shadow must actually be applying the key — a
        // mismatched key maps lines to different sets and the hit/miss
        // predictions fall apart.
        let mut cache = Cache::new(
            CacheConfig::new(512, 2).with_index(IndexKind::Random { key: 1 }),
            PolicyKind::Lru,
        );
        let mut shadow = ShadowCache::new("ctr", 4, 2, ShadowMode::Exact)
            .with_index(IndexKind::Random { key: 2 });
        let mut rng = cosmos_common::SplitMix64::new(19);
        let mut violations = 0;
        for _ in 0..2_000 {
            violations += drive_pair(&mut cache, &mut shadow, rng.next_below(48), false).len();
        }
        assert!(violations > 0, "wrong key should diverge somewhere");
    }

    #[test]
    fn mirror_pool_shadow_tracks_skewed_cache() {
        // Skewed associativity: the shadow collapses to one
        // fully-associative pool and checks residency/dirty/capacity.
        let index = IndexKind::Skewed { key: 0xFEED };
        let mut cache = Cache::new(CacheConfig::new(512, 2).with_index(index), PolicyKind::Lru);
        // 512 B / 64 B = 8 entries total.
        let mut shadow = ShadowCache::new("ctr", 1, 8, ShadowMode::Mirror).with_index(index);
        let mut rng = cosmos_common::SplitMix64::new(23);
        for _ in 0..5_000 {
            let line = rng.next_below(48);
            let write = rng.chance(0.3);
            let v = drive_pair(&mut cache, &mut shadow, line, write);
            assert!(v.is_empty(), "{v:?}");
        }
        let mut out = Vec::new();
        shadow.diff_residency(cache.resident_lines(), &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    #[should_panic(expected = "fully-associative pool")]
    fn skewed_shadow_rejects_multi_set_geometry() {
        let _ = ShadowCache::new("ctr", 4, 2, ShadowMode::Mirror)
            .with_index(IndexKind::Skewed { key: 1 });
    }

    #[test]
    fn mirror_shadow_accepts_any_policy_but_checks_dirty_bits() {
        // SHiP victims differ from LRU; mirror mode must stay silent.
        let mut cache = Cache::new(CacheConfig::new(512, 2), PolicyKind::Ship);
        let mut shadow = ShadowCache::new("ctr", 4, 2, ShadowMode::Mirror);
        let mut rng = cosmos_common::SplitMix64::new(11);
        for _ in 0..5_000 {
            let v = drive_pair(&mut cache, &mut shadow, rng.next_below(64), rng.chance(0.4));
            assert!(v.is_empty(), "{v:?}");
        }
        let mut out = Vec::new();
        shadow.diff_residency(cache.resident_lines(), &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn mirror_shadow_catches_wrong_dirty_bit() {
        let mut shadow = ShadowCache::new("ctr", 4, 2, ShadowMode::Mirror);
        let mut out = Vec::new();
        // Fill line 0 clean, then claim it was evicted dirty.
        shadow.demand(LineAddr::new(0), false, false, None, &mut out);
        shadow.demand(LineAddr::new(4), false, false, None, &mut out);
        shadow.demand(
            LineAddr::new(8),
            false,
            false,
            Some(Victim {
                line: LineAddr::new(0),
                dirty: true,
            }),
            &mut out,
        );
        assert!(out.iter().any(|v| v.name == "shadow-dirty"), "{out:?}");
    }

    #[test]
    fn mirror_shadow_catches_phantom_eviction() {
        let mut shadow = ShadowCache::new("mt", 4, 2, ShadowMode::Mirror);
        let mut out = Vec::new();
        shadow.demand(
            LineAddr::new(0),
            false,
            false,
            Some(Victim {
                line: LineAddr::new(12),
                dirty: false,
            }),
            &mut out,
        );
        assert!(out.iter().any(|v| v.name == "shadow-residency"), "{out:?}");
    }

    #[test]
    fn dense_store_matches_real_store_split_overflow() {
        let mut real = CounterStore::new(CounterScheme::Split);
        let mut dense = DenseCounterStore::new(CounterScheme::Split);
        let line = LineAddr::new(7);
        for _ in 0..300 {
            real.increment(line);
            dense.increment(line);
            assert_eq!(dense.value(line), real.value(line));
        }
        assert_eq!(dense.overflows(), real.overflows());
        assert!(
            dense.overflows() >= 2,
            "7-bit minors must overflow twice in 300"
        );
        let mut out = Vec::new();
        dense.diff(&real, 8, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn dense_store_matches_morphctr_zcc_overflow() {
        // 65 nonzero minors of value 8 fit no format: Uniform needs <= 7,
        // Zcc64x5 allows only 64 nonzero, wider formats even fewer.
        let mut real = CounterStore::new(CounterScheme::MorphCtr);
        let mut dense = DenseCounterStore::new(CounterScheme::MorphCtr);
        for slot in 0..65u64 {
            for _ in 0..8 {
                real.increment(LineAddr::new(slot));
                dense.increment(LineAddr::new(slot));
            }
        }
        assert_eq!(real.overflows(), 1);
        assert_eq!(dense.overflows(), 1);
        let mut out = Vec::new();
        dense.diff(&real, 8, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn dense_store_values_strictly_increase() {
        let mut dense = DenseCounterStore::new(CounterScheme::MorphCtr);
        let line = LineAddr::new(3);
        let mut last = dense.value(line);
        for _ in 0..500 {
            dense.increment(line);
            let v = dense.value(line);
            assert!(v > last);
            last = v;
        }
    }
}
