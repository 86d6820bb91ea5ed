//! Per-cache statistics.

use cosmos_common::stats::HitMiss;

cosmos_common::counters! {
    /// Counters accumulated by a [`crate::Cache`].
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct CacheStats {
        /// Demand accesses (hits/misses).
        pub demand: HitMiss,
        /// Lines evicted to make room.
        pub evictions: u64,
        /// Dirty evictions (writebacks generated).
        pub writebacks: u64,
        /// Prefetch fills actually inserted.
        pub prefetch_issued: u64,
        /// Prefetched lines that later took a demand hit.
        pub prefetch_useful: u64,
        /// Prefetched lines evicted without any demand use.
        pub prefetch_unused: u64,
        /// Prefetches dropped because the line was already resident.
        pub prefetch_redundant: u64,
    }
}

impl CacheStats {
    /// Prefetch accuracy: useful / issued, or 0 when none issued.
    pub fn prefetch_accuracy(&self) -> f64 {
        cosmos_common::stats::ratio(self.prefetch_useful, self.prefetch_issued)
    }

    /// Demand miss rate.
    pub fn miss_rate(&self) -> f64 {
        self.demand.miss_rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosmos_common::stats::Counters;

    #[test]
    fn accuracy_handles_zero_issued() {
        let s = CacheStats::default();
        assert_eq!(s.prefetch_accuracy(), 0.0);
    }

    #[test]
    fn since_subtracts_baseline() {
        let mut warm = CacheStats::default();
        warm.demand.hit();
        warm.evictions = 2;
        let mut total = warm;
        total.demand.hit();
        total.demand.miss();
        total.evictions = 5;
        total.writebacks = 1;
        let window = total.since(&warm);
        assert_eq!(window.demand.total(), 2);
        assert_eq!(window.demand.misses(), 1);
        assert_eq!(window.evictions, 3);
        assert_eq!(window.writebacks, 1);
    }
}
