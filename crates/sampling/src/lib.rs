//! Phase-aware representative-interval sampling for the COSMOS simulator.
//!
//! Full-trace simulation is the wall-clock bottleneck of every experiment
//! grid: each figure point replays millions of accesses even though most
//! of a workload's execution repeats a handful of behavioural *phases*.
//! This crate applies the SimPoint idea to a memory trace:
//!
//! 1. **Split** the trace into fixed-size contiguous intervals
//!    ([`plan::Interval`]).
//! 2. **Fingerprint** each interval with an access-pattern signature
//!    ([`signature::Signature`]) — region and set-index histograms plus the
//!    read/write and per-core mix, the memory-trace analogue of SimPoint's
//!    basic-block vectors.
//! 3. **Cluster** the signatures with a deterministic, seeded k-means
//!    ([`kmeans`]); every interval joins exactly one cluster.
//! 4. **Pick** one representative interval per cluster, weighted by the
//!    accesses its cluster covers ([`plan::SamplingPlan`]).
//! 5. **Replay** each representative behind a warmup prefix with statistics
//!    frozen, then merge the weighted measurement windows back into a
//!    full-trace [`cosmos_core::SimStats`] estimate ([`exec::run_sampled`]).
//!
//! Everything is deterministic: the same trace, configuration, and seed
//! produce byte-identical plans and estimates on any machine and with any
//! worker-pool size.
//!
//! # Examples
//!
//! ```
//! use cosmos_common::{MemAccess, PhysAddr, Trace};
//! use cosmos_core::{Design, SimConfig};
//! use cosmos_sampling::{run_sampled, SamplingConfig, SamplingPlan};
//!
//! let trace: Trace = (0..40_000u64)
//!     .map(|i| MemAccess::read((i % 4) as u8, PhysAddr::new((i * 97 % 80_000) * 64), 2))
//!     .collect();
//! // The default priming budget assumes a paper-scale trace; shrink it
//! // for this toy one so there is something left to skip.
//! let cfg = SamplingConfig {
//!     prime_len: 4_096,
//!     ..SamplingConfig::for_trace(trace.len())
//! };
//! let plan = SamplingPlan::build(&trace, &cfg);
//! assert!(plan.simulated_accesses() < trace.len() as u64);
//!
//! let run = run_sampled(&SimConfig::paper_default(Design::MorphCtr), &trace, &plan);
//! assert_eq!(run.stats.accesses, trace.len() as u64);
//! ```

pub mod exec;
pub mod kmeans;
pub mod plan;
pub mod signature;

pub use exec::{run_plan, run_sampled, SampledRun};
pub use kmeans::KMeans;
pub use plan::{Interval, Representative, SamplingPlan};
pub use signature::Signature;

/// Parameters of the sampling pipeline.
///
/// `Copy` so experiment harnesses can thread it through job grids by
/// value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SamplingConfig {
    /// Accesses per interval. The trace is split into
    /// `ceil(len / interval_len)` contiguous intervals.
    pub interval_len: usize,
    /// Target number of clusters (and hence representative intervals);
    /// clamped to the interval count.
    pub clusters: usize,
    /// Warmup prefix replayed (stats-frozen) before each representative,
    /// taken from the accesses immediately preceding it.
    pub warmup_len: usize,
    /// Minimum accesses simulated (warmup or measured) before any
    /// measurement window at trace position `p` — capped at `p` itself.
    /// Early representatives extend their warmups to meet it, so no
    /// window is measured against a large cache that is emptier than it
    /// would be in the real run. Sized like the LLC fill time; a one-time
    /// cost shared by all representatives (state persists between them).
    pub prime_len: usize,
    /// K-means iteration cap.
    pub kmeans_iters: usize,
    /// Seed for k-means++ initialization.
    pub seed: u64,
}

impl SamplingConfig {
    /// Intervals per trace targeted by [`SamplingConfig::for_trace`].
    pub const DEFAULT_INTERVALS: usize = 96;
    /// Default cluster count.
    pub const DEFAULT_CLUSTERS: usize = 6;
    /// Smallest interval worth fingerprinting.
    pub const MIN_INTERVAL_LEN: usize = 1_024;
    /// Floor of the priming budget: 1.5× the paper LLC's line count,
    /// enough for the windows to face a realistically full cache
    /// hierarchy.
    pub const DEFAULT_PRIME_LEN: usize = 196_608;
    /// Fraction of the trace primed (contiguous early simulation). The
    /// RL-based designs train online; priming gives their predictors a
    /// contiguous convergence run, without which sampled estimates carry
    /// a systematic "young policy" bias in the CTR miss rate.
    pub const PRIME_TRACE_DIVISOR: usize = 12;

    /// The default pipeline for a trace of `len` accesses: ~96 intervals,
    /// 6 clusters, a full-interval warmup, and a prime of `len / 12`
    /// (floored at [`Self::DEFAULT_PRIME_LEN`]) — a ≈5× reduction in
    /// simulated accesses on paper-scale budgets.
    pub fn for_trace(len: usize) -> Self {
        let interval_len = len
            .div_ceil(Self::DEFAULT_INTERVALS)
            .max(Self::MIN_INTERVAL_LEN);
        Self {
            interval_len,
            clusters: Self::DEFAULT_CLUSTERS,
            warmup_len: interval_len,
            prime_len: (len / Self::PRIME_TRACE_DIVISOR).max(Self::DEFAULT_PRIME_LEN),
            kmeans_iters: 64,
            seed: 0x05A3_F1E5,
        }
    }

    /// Panics on degenerate parameters.
    pub fn validate(&self) {
        assert!(self.interval_len > 0, "interval length must be positive");
        assert!(self.clusters > 0, "need at least one cluster");
        assert!(self.kmeans_iters > 0, "need at least one k-means iteration");
    }
}

impl Default for SamplingConfig {
    fn default() -> Self {
        // A 2 M-access figure budget under the default pipeline.
        Self::for_trace(2_000_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_trace_scales_interval_length() {
        let small = SamplingConfig::for_trace(10_000);
        assert_eq!(small.interval_len, SamplingConfig::MIN_INTERVAL_LEN);
        let big = SamplingConfig::for_trace(4_800_000);
        assert_eq!(big.interval_len, 50_000);
        assert_eq!(big.warmup_len, 50_000);
        assert_eq!(big.prime_len, 400_000);
        big.validate();
    }

    #[test]
    #[should_panic(expected = "interval length")]
    fn zero_interval_rejected() {
        SamplingConfig {
            interval_len: 0,
            ..SamplingConfig::default()
        }
        .validate();
    }
}
