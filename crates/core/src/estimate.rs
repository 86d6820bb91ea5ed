//! Weighted reconstruction of full-trace statistics from sampled interval
//! measurements.
//!
//! Interval sampling (the `cosmos-sampling` crate) simulates only a
//! representative subset of a trace. Each representative's measured
//! [`SimStats`] window stands in for every interval of its cluster, so the
//! full-trace estimate of an additive counter `C` is
//!
//! ```text
//! Ĉ = Σ_reps  C_rep × (cluster_accesses / rep_accesses)
//! ```
//!
//! [`StatsEstimate`] accumulates those weighted contributions in `f64`
//! (one rounding at reconstruction time, not one per sample) and
//! [`StatsEstimate::reconstruct`] rounds the result back into a plain
//! [`SimStats`], so every downstream consumer — tables, JSON emitters,
//! normalization against NP — works unchanged on sampled runs.
//!
//! Derived metrics (IPC, miss rates) are ratios of estimated counters,
//! which is exactly the weighted-rate reconstruction SimPoint-style
//! samplers use.

use crate::stats::SimStats;
use cosmos_common::stats::Counters;

fn round(x: f64) -> u64 {
    if x <= 0.0 {
        0
    } else {
        x.round() as u64
    }
}

/// Accumulates weighted per-interval [`SimStats`] windows into a
/// full-trace estimate: one `f64` slot per counter leaf, in the leaf walk
/// order of [`Counters::visit`], so every counter the stats declare is
/// estimated.
///
/// # Examples
///
/// ```
/// use cosmos_core::estimate::StatsEstimate;
/// use cosmos_core::SimStats;
///
/// let window = SimStats { instructions: 100, cycles: 50, accesses: 10, ..SimStats::default() };
/// let mut est = StatsEstimate::new();
/// // The window stands in for 3× its own length.
/// est.add_weighted(&window, 3.0);
/// let full = est.reconstruct();
/// assert_eq!(full.accesses, 30);
/// assert_eq!(full.instructions, 300);
/// assert!((full.ipc() - 2.0).abs() < 1e-12);
/// ```
#[derive(Clone, Debug)]
pub struct StatsEstimate {
    samples: usize,
    acc: Vec<f64>,
}

impl Default for StatsEstimate {
    fn default() -> Self {
        Self::new()
    }
}

impl StatsEstimate {
    /// An empty estimate.
    pub fn new() -> Self {
        Self {
            samples: 0,
            acc: vec![0.0; SimStats::LEAVES],
        }
    }

    /// Number of weighted windows accumulated so far.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Adds a measured window, scaled by `weight` (the number of accesses
    /// this window represents divided by the accesses it measured).
    pub fn add_weighted(&mut self, s: &SimStats, weight: f64) {
        assert!(
            weight.is_finite() && weight >= 0.0,
            "bad sample weight {weight}"
        );
        self.samples += 1;
        let mut slot = 0;
        s.visit(|_, leaf| {
            self.acc[slot] += leaf as f64 * weight;
            slot += 1;
        });
    }

    /// Rounds the accumulated estimate into a [`SimStats`]. The timeline is
    /// empty — point-in-time samples cannot be reconstructed from weighted
    /// windows.
    pub fn reconstruct(&self) -> SimStats {
        SimStats::from_leaves(&mut self.acc.iter().map(|&x| round(x)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TenantCtrStats;
    use cosmos_common::stats::HitMiss;

    fn window(scale: u64) -> SimStats {
        SimStats {
            instructions: 100 * scale,
            cycles: 50 * scale,
            accesses: 10 * scale,
            reads: 8 * scale,
            writes: 2 * scale,
            l1: HitMiss::from_counts(6 * scale, 4 * scale),
            total_read_latency: 70 * scale,
            ..SimStats::default()
        }
    }

    #[test]
    fn identity_weight_roundtrips() {
        let w = window(3);
        let mut est = StatsEstimate::new();
        est.add_weighted(&w, 1.0);
        let got = est.reconstruct();
        assert_eq!(got.instructions, w.instructions);
        assert_eq!(got.accesses, w.accesses);
        assert_eq!(got.l1, w.l1);
        assert_eq!(got.ipc(), w.ipc());
    }

    #[test]
    fn weights_scale_counters_and_preserve_rates() {
        let mut est = StatsEstimate::new();
        est.add_weighted(&window(1), 4.0);
        est.add_weighted(&window(2), 3.0);
        let got = est.reconstruct();
        // 4×10 + 3×20 accesses.
        assert_eq!(got.accesses, 100);
        assert_eq!(got.instructions, 1000);
        assert_eq!(got.cycles, 500);
        // Both windows have identical rates, so ratios must be exact.
        assert!((got.ipc() - 2.0).abs() < 1e-9);
        assert!((got.l1.miss_rate() - 0.4).abs() < 1e-9);
        assert!((got.avg_read_latency() - 8.75).abs() < 1e-9);
        assert_eq!(est.samples(), 2);
    }

    #[test]
    fn tenant_buckets_scale_with_weight() {
        let mut w = window(1);
        w.tenant_ctr[1] = TenantCtrStats {
            hits: 7,
            misses: 3,
            miss_latency: 90,
        };
        let mut est = StatsEstimate::new();
        est.add_weighted(&w, 4.0);
        let got = est.reconstruct();
        assert_eq!(got.tenant_ctr[0], TenantCtrStats::default());
        assert_eq!(
            got.tenant_ctr[1],
            TenantCtrStats {
                hits: 28,
                misses: 12,
                miss_latency: 360,
            }
        );
    }

    #[test]
    fn zero_weight_contributes_nothing() {
        let mut est = StatsEstimate::new();
        est.add_weighted(&window(5), 0.0);
        let got = est.reconstruct();
        assert_eq!(got.accesses, 0);
        assert_eq!(got.cycles, 0);
    }

    #[test]
    #[should_panic(expected = "bad sample weight")]
    fn negative_weight_panics() {
        StatsEstimate::new().add_weighted(&window(1), -1.0);
    }
}
