//! The multi-core data-cache hierarchy: per-core L1 and L2, shared LLC.
//!
//! Write-back, write-allocate at every level. Dirty evictions cascade
//! downward (L1 → L2 → LLC); dirty LLC evictions surface as writebacks for
//! the memory controller (and, in secure designs, the secure write path).

use crate::config::SimConfig;
use cosmos_cache::{Cache, CacheConfig, PolicyKind};
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

/// Per-core L1/L2 caches plus the shared LLC.
pub struct CacheHierarchy {
    l1: Vec<Cache>,
    l2: Vec<Cache>,
    llc: Cache,
}

impl CacheHierarchy {
    /// Builds the hierarchy described by `config`: one L1 and one L2 per
    /// core, and one shared LLC, all LRU.
    pub fn new(config: &SimConfig) -> Self {
        let mk = |lvl: &crate::config::CacheLevelConfig| {
            Cache::new(CacheConfig::new(lvl.size_bytes, lvl.ways), PolicyKind::Lru)
        };
        Self {
            l1: (0..config.cores).map(|_| mk(&config.l1)).collect(),
            l2: (0..config.cores).map(|_| mk(&config.l2)).collect(),
            llc: mk(&config.llc),
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
    // cosmos-lint: hot
    pub fn access(
        &mut self,
        core: usize,
        line: LineAddr,
        write: bool,
        writebacks: &mut Vec<LineAddr>,
    ) -> DataHit {
        writebacks.clear();

        // L1.
        let r1 = self.l1[core].access(line, write, None);
        if r1.hit {
            return DataHit::L1;
        }
        if let Some(ev) = r1.evicted {
            if ev.dirty {
                self.spill_to_l2(core, ev.line, writebacks);
            }
        }

        // L2 (demand fill; a write allocates and dirties only L1).
        let r2 = self.l2[core].access(line, false, None);
        if let Some(ev) = r2.evicted {
            if ev.dirty {
                self.spill_to_llc(ev.line, writebacks);
            }
        }
        if r2.hit {
            return DataHit::L2;
        }

        // LLC.
        let r3 = self.llc.access(line, false, None);
        if let Some(ev) = r3.evicted {
            if ev.dirty {
                writebacks.push(ev.line);
            }
        }
        if r3.hit {
            DataHit::Llc
        } else {
            DataHit::Dram
        }
    }

    fn spill_to_l2(&mut self, core: usize, line: LineAddr, writebacks: &mut Vec<LineAddr>) {
        if let Some(ev) = self.l2[core].fill(line, true) {
            if ev.dirty {
                self.spill_to_llc(ev.line, writebacks);
            }
        }
    }

    fn spill_to_llc(&mut self, line: LineAddr, writebacks: &mut Vec<LineAddr>) {
        if let Some(ev) = self.llc.fill(line, true) {
            if ev.dirty {
                writebacks.push(ev.line);
            }
        }
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
        self.llc.stats().demand
    }

    /// Serializes every cache level for snapshots.
    pub fn save_state(&self) -> Result<cosmos_common::json::Value, String> {
        let levels = |caches: &[Cache]| -> Result<cosmos_common::json::Value, String> {
            Ok(cosmos_common::json::Value::Array(
                caches
                    .iter()
                    .map(Cache::save_state)
                    .collect::<Result<_, _>>()?,
            ))
        };
        Ok(cosmos_common::json!({
            "l1": (levels(&self.l1)?),
            "l2": (levels(&self.l2)?),
            "llc": (self.llc.save_state()?),
        }))
    }

    /// Restores state produced by [`CacheHierarchy::save_state`] into a
    /// hierarchy built from the same config.
    pub fn load_state(&mut self, v: &cosmos_common::json::Value) -> Result<(), String> {
        use cosmos_common::json::codec;
        let level = |caches: &mut [Cache], key: &str| -> Result<(), String> {
            let arr = codec::field(v, key)?
                .as_array()
                .ok_or_else(|| format!("field `{key}`: expected an array"))?;
            codec::check_len(key, arr.len(), caches.len())?;
            for (cache, saved) in caches.iter_mut().zip(arr) {
                cache.load_state(saved)?;
            }
            Ok(())
        };
        level(&mut self.l1, "l1")?;
        level(&mut self.l2, "l2")?;
        self.llc.load_state(codec::field(v, "llc")?)?;
        Ok(())
    }
}

/// Sums the demand hit/miss counts of one level's per-core caches. Only
/// [`CacheHierarchy::access`] makes demand accesses (spills go through
/// [`Cache::fill`], which leaves demand stats alone), so this is the
/// level's demand traffic.
fn demand_sum(caches: &[Cache]) -> HitMiss {
    let (hits, misses) = caches.iter().fold((0, 0), |(h, m), c| {
        let d = c.stats().demand;
        (h + d.hits(), m + d.misses())
    });
    HitMiss::from_counts(hits, misses)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Design, SimConfig};

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
