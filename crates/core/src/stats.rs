//! Simulation statistics: IPC, traffic breakdown, predictor quality, and
//! convergence timelines.

// Stat counters are u64: a narrowing cast here would silently truncate one.
#![deny(clippy::cast_possible_truncation)]

use cosmos_cache::CacheStats;
use cosmos_common::counters;
use cosmos_common::stats::{window_sub, HitMiss};
use cosmos_dram::DramStats;
use cosmos_rl::{CtrLocalityStats, DataLocationStats};

counters! {
    /// DRAM traffic in 64 B line transfers, split by purpose (paper Figure 2's
    /// categories).
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct TrafficBreakdown {
        /// Demand data reads from DRAM.
        pub data_reads: u64,
        /// Data writebacks to DRAM.
        pub data_writes: u64,
        /// Counter-block reads from DRAM (CTR cache misses).
        pub ctr_reads: u64,
        /// Dirty counter-block writebacks.
        pub ctr_writes: u64,
        /// Merkle-tree node reads (integrity verification).
        pub mt_reads: u64,
        /// Merkle-tree node writebacks.
        pub mt_writes: u64,
        /// MAC line reads (1 per 8 data reads).
        pub mac_reads: u64,
        /// MAC line writes (1 per 8 data writes).
        pub mac_writes: u64,
        /// Background re-encryption writes from counter overflows.
        pub reencrypt_writes: u64,
        /// Speculative DRAM data fetches killed by a wrong off-chip prediction.
        pub killed_speculative: u64,
    }
}

impl TrafficBreakdown {
    /// Total line transfers. Killed speculative fetches still move bus
    /// lines (the row was activated and the burst issued before the kill),
    /// so they count toward the total even though no useful data arrived.
    pub const fn total(&self) -> u64 {
        self.data_reads
            + self.data_writes
            + self.ctr_reads
            + self.ctr_writes
            + self.mt_reads
            + self.mt_writes
            + self.mac_reads
            + self.mac_writes
            + self.reencrypt_writes
            + self.killed_speculative
    }

    /// Security-metadata transfers only (everything beyond NP's traffic
    /// that isn't data movement — killed speculative fetches are wasted
    /// *data* transfers, not metadata).
    pub const fn metadata_total(&self) -> u64 {
        self.total() - self.data_reads - self.data_writes - self.killed_speculative
    }

    /// Wasted transfers: lines moved without delivering useful data
    /// (speculative DRAM fetches killed by a wrong off-chip prediction).
    pub const fn wasted_total(&self) -> u64 {
        self.killed_speculative
    }
}

/// Number of tenant buckets tracked by [`TenantCtrStats`] attribution.
/// Tenant ids are folded modulo this, so bucket 0 is the default/victim
/// tenant and any small id keeps its own bucket.
pub const MAX_TENANTS: usize = 4;

counters! {
    /// Per-tenant CTR-cache attribution: the slice of CTR lookups issued on
    /// behalf of one tenant's accesses (DESIGN.md §16). `miss_latency` sums
    /// the critical-path cycles of read misses only — the observable an
    /// occupancy-probing attacker times; writes are off the critical path.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct TenantCtrStats {
        /// CTR-cache hits attributed to the tenant (reads and writes).
        pub hits: u64,
        /// CTR-cache misses attributed to the tenant (reads and writes).
        pub misses: u64,
        /// Summed critical-path cycles of the tenant's read misses.
        pub miss_latency: u64,
    }
}

impl TenantCtrStats {
    /// Total CTR lookups attributed to the tenant.
    pub const fn total(&self) -> u64 {
        self.hits + self.misses
    }
}

/// A convergence sample (paper Figure 8).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TimelinePoint {
    /// Accesses processed when the sample was taken.
    pub accesses: u64,
    /// Data-location prediction accuracy over the accesses this
    /// [`SimStats`] covers — cumulative from access 0 in a full run, and
    /// rebased onto the measurement window by `SimStats::since` (so a
    /// warmup-excluded window is not contaminated by pre-baseline
    /// predictor history).
    pub dp_accuracy: f64,
    /// Correct data-location predictions when the sample was taken,
    /// cumulative from access 0 (kept raw so `since` can rebase
    /// `dp_accuracy` onto any baseline).
    pub dp_correct: u64,
    /// Resolved data-location predictions when the sample was taken,
    /// cumulative from access 0.
    pub dp_total: u64,
    /// CTR cache miss rate over the window since the previous sample.
    pub ctr_miss_rate_window: f64,
}

impl TimelinePoint {
    /// Serializes the sample for snapshots. The two rates are stored as
    /// IEEE-754 bit patterns so restore is bit-exact.
    pub fn to_json(&self) -> cosmos_common::json::Value {
        cosmos_common::json!({
            "accesses": (self.accesses),
            "dp_accuracy_bits": (self.dp_accuracy.to_bits()),
            "dp_correct": (self.dp_correct),
            "dp_total": (self.dp_total),
            "ctr_miss_rate_window_bits": (self.ctr_miss_rate_window.to_bits()),
        })
    }

    /// Rebuilds a sample serialized by [`TimelinePoint::to_json`].
    pub fn from_json(v: &cosmos_common::json::Value) -> Result<Self, String> {
        use cosmos_common::json::codec;
        Ok(Self {
            accesses: codec::u64_field(v, "accesses")?,
            dp_accuracy: f64::from_bits(codec::u64_field(v, "dp_accuracy_bits")?),
            dp_correct: codec::u64_field(v, "dp_correct")?,
            dp_total: codec::u64_field(v, "dp_total")?,
            ctr_miss_rate_window: f64::from_bits(codec::u64_field(v, "ctr_miss_rate_window_bits")?),
        })
    }
}

counters! {
    /// Everything a simulation run measures.
    #[derive(Clone, Debug, Default, PartialEq)]
    pub struct SimStats {
        /// Total instructions retired (memory accesses + `inst_gap` filler).
        pub instructions: u64,
        /// Total cycles (the slowest core's completion time).
        pub cycles: u64,
        /// Memory accesses processed.
        pub accesses: u64,
        /// Reads processed.
        pub reads: u64,
        /// Writes processed.
        pub writes: u64,
        /// Per-level demand hit/miss (aggregated over cores for L1/L2).
        pub l1: HitMiss,
        /// L2 hit/miss.
        pub l2: HitMiss,
        /// LLC hit/miss.
        pub llc: HitMiss,
        /// CTR cache statistics (demand = CTR lookups).
        pub ctr_cache: CacheStats,
        /// MT metadata cache statistics.
        pub mt_cache: CacheStats,
        /// DRAM statistics.
        pub dram: DramStats,
        /// Traffic breakdown.
        pub traffic: TrafficBreakdown,
        /// Data-location predictor quality (designs with the DP).
        pub data_pred: DataLocationStats,
        /// CTR-locality predictor quality (designs with the CP).
        pub ctr_pred: CtrLocalityStats,
        /// Counter overflow (re-encryption) events.
        pub ctr_overflows: u64,
        /// Sum of read latencies (cycles), for average-latency reporting.
        pub total_read_latency: u64,
        /// Reads that bypassed L2/LLC via a correct off-chip prediction.
        pub early_offchip_reads: u64,
        /// Per-tenant CTR-cache attribution (tenant id mod [`MAX_TENANTS`]).
        /// Single-tenant traces land entirely in bucket 0.
        pub tenant_ctr: [TenantCtrStats; MAX_TENANTS],
    }
    /// Convergence timeline (when sampling is enabled).
    pub timeline: Vec<TimelinePoint> => SimStats::rebase_timeline
}

impl SimStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// CTR cache miss rate.
    pub fn ctr_miss_rate(&self) -> f64 {
        self.ctr_cache.demand.miss_rate()
    }

    /// Average read latency in cycles.
    pub fn avg_read_latency(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            self.total_read_latency as f64 / self.reads as f64
        }
    }

    /// The timeline of the window since `baseline`: only points sampled
    /// after the baseline, each rebased onto the window origin with its
    /// `dp_accuracy` recomputed over the window (predictions resolved
    /// before the baseline no longer dilute it). This is the one part of
    /// [`Counters::since`](cosmos_common::stats::Counters::since) the field
    /// declaration cannot generate, because it needs the baseline's
    /// `data_pred`.
    fn rebase_timeline(&self, baseline: &SimStats) -> Vec<TimelinePoint> {
        let base_correct = baseline.data_pred.correct_onchip + baseline.data_pred.correct_offchip;
        let base_total = baseline.data_pred.total();
        self.timeline
            .iter()
            .filter(|p| p.accesses > baseline.accesses)
            .map(|p| {
                // Timeline points are cumulative snapshots from the same
                // monotone counters, and the filter keeps only points past
                // the baseline, so these windows are checked too.
                let correct = window_sub(p.dp_correct, base_correct);
                let total = window_sub(p.dp_total, base_total);
                TimelinePoint {
                    accesses: window_sub(p.accesses, baseline.accesses),
                    dp_accuracy: if total == 0 {
                        0.0
                    } else {
                        correct as f64 / total as f64
                    },
                    dp_correct: correct,
                    dp_total: total,
                    ctr_miss_rate_window: p.ctr_miss_rate_window,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosmos_common::stats::Counters;

    #[test]
    fn traffic_totals() {
        let t = TrafficBreakdown {
            data_reads: 10,
            data_writes: 5,
            ctr_reads: 3,
            ctr_writes: 1,
            mt_reads: 20,
            mt_writes: 2,
            mac_reads: 1,
            mac_writes: 1,
            reencrypt_writes: 4,
            killed_speculative: 7,
        };
        assert_eq!(t.total(), 54);
        assert_eq!(t.metadata_total(), 32);
        assert_eq!(t.wasted_total(), 7);
    }

    #[test]
    fn ipc_guards_zero() {
        let s = SimStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.avg_read_latency(), 0.0);
    }

    #[test]
    fn since_subtracts_and_filters_timeline() {
        let baseline = SimStats {
            instructions: 100,
            cycles: 50,
            accesses: 10,
            reads: 8,
            writes: 2,
            total_read_latency: 400,
            ..SimStats::default()
        };
        let total = SimStats {
            instructions: 1000,
            cycles: 600,
            accesses: 100,
            reads: 70,
            writes: 30,
            total_read_latency: 4000,
            timeline: vec![
                TimelinePoint {
                    accesses: 5,
                    ..TimelinePoint::default()
                },
                TimelinePoint {
                    accesses: 50,
                    ..TimelinePoint::default()
                },
            ],
            ..SimStats::default()
        };
        let window = total.since(&baseline);
        assert_eq!(window.instructions, 900);
        assert_eq!(window.cycles, 550);
        assert_eq!(window.accesses, 90);
        assert_eq!(window.reads, 62);
        assert_eq!(window.writes, 28);
        assert_eq!(window.total_read_latency, 3600);
        assert_eq!(window.timeline.len(), 1);
        assert_eq!(window.timeline[0].accesses, 40, "rebased onto window");
    }

    #[test]
    fn since_rebases_timeline_dp_accuracy() {
        // Before the baseline: 8/10 correct. After: 2/10 correct. The
        // cumulative point reads 10/20; the window must report 2/10.
        let mut baseline = SimStats {
            accesses: 100,
            ..SimStats::default()
        };
        baseline.data_pred.correct_onchip = 5;
        baseline.data_pred.correct_offchip = 3;
        baseline.data_pred.wrong_onchip = 2;
        let total = SimStats {
            accesses: 200,
            data_pred: DataLocationStats {
                correct_onchip: 6,
                correct_offchip: 4,
                wrong_onchip: 6,
                wrong_offchip: 4,
            },
            timeline: vec![TimelinePoint {
                accesses: 200,
                dp_accuracy: 0.5,
                dp_correct: 10,
                dp_total: 20,
                ctr_miss_rate_window: 0.25,
            }],
            ..SimStats::default()
        };
        let window = total.since(&baseline);
        assert_eq!(window.timeline.len(), 1);
        let p = window.timeline[0];
        assert_eq!(p.accesses, 100);
        assert_eq!(p.dp_correct, 2);
        assert_eq!(p.dp_total, 10);
        assert!((p.dp_accuracy - 0.2).abs() < 1e-12);
        assert_eq!(p.ctr_miss_rate_window, 0.25, "window rate is untouched");
    }

    #[test]
    fn tenant_ctr_roundtrips_and_windows() {
        let mut s = SimStats::default();
        s.tenant_ctr[1] = TenantCtrStats {
            hits: 10,
            misses: 4,
            miss_latency: 900,
        };
        let back = SimStats::from_json(&s.to_json()).expect("round trip");
        assert_eq!(back, s);
        let mut base = SimStats::default();
        base.tenant_ctr[1] = TenantCtrStats {
            hits: 3,
            misses: 1,
            miss_latency: 200,
        };
        let w = s.since(&base).tenant_ctr[1];
        assert_eq!((w.hits, w.misses, w.miss_latency), (7, 3, 700));
        assert_eq!(w.total(), 10);
    }

    #[test]
    fn ipc_basic() {
        let s = SimStats {
            instructions: 1000,
            cycles: 2000,
            ..SimStats::default()
        };
        assert_eq!(s.ipc(), 0.5);
    }
}
