//! Interval splitting and representative selection: turning a trace into
//! a weighted [`SamplingPlan`].

use crate::kmeans;
use crate::signature::{Signature, TraceHistory};
use crate::SamplingConfig;
use cosmos_common::Trace;

/// One contiguous slice of the trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interval {
    /// Position in the interval sequence (0-based).
    pub index: usize,
    /// First access of the interval.
    pub start: usize,
    /// Number of accesses.
    pub len: usize,
}

impl Interval {
    /// The half-open access range `[start, start + len)`.
    pub fn range(&self) -> core::ops::Range<usize> {
        self.start..self.start + self.len
    }
}

/// A representative interval, standing in for its whole cluster.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Representative {
    /// The measured interval.
    pub interval: Interval,
    /// The cluster it represents.
    pub cluster: usize,
    /// First access of the warmup prefix (clamped at trace start).
    pub warmup_start: usize,
    /// Warmup accesses actually available before the interval.
    pub warmup_len: usize,
    /// Accesses across all intervals of the cluster — the weight this
    /// representative's measurement carries.
    pub weight_accesses: u64,
}

impl Representative {
    /// The factor the measured window is scaled by when merging:
    /// represented accesses over measured accesses.
    pub fn scale(&self) -> f64 {
        self.weight_accesses as f64 / self.interval.len as f64
    }

    /// This cluster's fraction of the full trace.
    pub fn weight_fraction(&self, total_accesses: u64) -> f64 {
        if total_accesses == 0 {
            0.0
        } else {
            self.weight_accesses as f64 / total_accesses as f64
        }
    }
}

/// The finished sampling plan: which intervals to simulate, behind which
/// warmups, at which weights.
#[derive(Clone, Debug, PartialEq)]
pub struct SamplingPlan {
    /// The configuration the plan was built under.
    pub config: SamplingConfig,
    /// Full-trace access count.
    pub total_accesses: u64,
    /// Number of intervals the trace was split into.
    pub intervals: usize,
    /// Interval index → cluster index (every interval is assigned).
    pub assignments: Vec<usize>,
    /// One representative per cluster, ordered by interval index.
    pub representatives: Vec<Representative>,
}

impl SamplingPlan {
    /// Builds the plan: split → fingerprint → cluster → select.
    ///
    /// Deterministic in (`trace`, `config`). An empty trace yields an
    /// empty plan; a trace shorter than one interval yields a single
    /// full-weight representative (i.e. a full run with no warmup).
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid.
    pub fn build(trace: &Trace, config: &SamplingConfig) -> Self {
        config.validate();
        let accesses = trace.as_slice();
        let intervals = split(accesses.len(), config.interval_len);
        if intervals.is_empty() {
            return Self {
                config: *config,
                total_accesses: 0,
                intervals: 0,
                assignments: Vec::new(),
                representatives: Vec::new(),
            };
        }

        // Fingerprint in trace order: a shared footprint history feeds the
        // first-touch features, separating cold-start intervals from warm
        // steady-state ones with identical access patterns.
        let mut history = TraceHistory::new();
        let signatures: Vec<Vec<f64>> = intervals
            .iter()
            .map(|iv| {
                Signature::of_with_history(&accesses[iv.range()], &mut history)
                    .features()
                    .to_vec()
            })
            .collect();
        let km = kmeans::cluster(
            &signatures,
            config.clusters,
            config.seed,
            config.kmeans_iters,
        );

        let mut representatives = Vec::with_capacity(km.k());
        for c in 0..km.k() {
            let members = km.members(c);
            if members.is_empty() {
                continue;
            }
            // Representative: the member nearest its centroid; ties break
            // toward the lowest interval index (iteration order).
            let rep_idx = members
                .iter()
                .copied()
                .min_by(|&a, &b| {
                    let da = crate::signature::distance2(&signatures[a], &km.centroids[c]);
                    let db = crate::signature::distance2(&signatures[b], &km.centroids[c]);
                    da.total_cmp(&db).then(a.cmp(&b))
                })
                .expect("non-empty cluster");
            let interval = intervals[rep_idx];
            let warmup_start = interval.start.saturating_sub(config.warmup_len);
            representatives.push(Representative {
                interval,
                cluster: c,
                warmup_start,
                warmup_len: interval.start - warmup_start,
                weight_accesses: members.iter().map(|&m| intervals[m].len as u64).sum(),
            });
        }
        representatives.sort_unstable_by_key(|r| r.interval.index);

        // Priming pass, in trace order: clamp warmups against accesses an
        // earlier representative already covers, and extend early warmups
        // until every window has at least `min(position, prime_len)`
        // simulated history — a window measured against a near-empty LLC
        // sees neither capacity evictions nor writeback traffic and runs
        // unrealistically fast.
        let mut cursor = 0usize; // end of the last covered access
        let mut covered = 0u64; // total accesses covered so far
        for rep in &mut representatives {
            let target = (rep.interval.start as u64).min(config.prime_len as u64);
            let deficit = target.saturating_sub(covered) as usize;
            let desired = rep.warmup_start.min(rep.interval.start - deficit);
            let warm_from = desired.max(cursor.min(rep.interval.start));
            rep.warmup_start = warm_from;
            rep.warmup_len = rep.interval.start - warm_from;
            covered += (rep.warmup_len + rep.interval.len) as u64;
            cursor = rep.interval.start + rep.interval.len;
        }

        Self {
            config: *config,
            total_accesses: accesses.len() as u64,
            intervals: intervals.len(),
            assignments: km.assignments,
            representatives,
        }
    }

    /// Accesses actually simulated under this plan (warmup + measured).
    pub fn simulated_accesses(&self) -> u64 {
        self.representatives
            .iter()
            .map(|r| (r.warmup_len + r.interval.len) as u64)
            .sum()
    }

    /// Full-trace accesses per simulated access — the speed lever. `1.0`
    /// for an empty plan.
    pub fn reduction_factor(&self) -> f64 {
        let sim = self.simulated_accesses();
        if sim == 0 {
            1.0
        } else {
            self.total_accesses as f64 / sim as f64
        }
    }
}

/// Splits `len` accesses into contiguous intervals of `interval_len` (the
/// last interval keeps the remainder).
fn split(len: usize, interval_len: usize) -> Vec<Interval> {
    let mut out = Vec::with_capacity(len.div_ceil(interval_len.max(1)));
    let mut start = 0;
    let mut index = 0;
    while start < len {
        let l = interval_len.min(len - start);
        out.push(Interval {
            index,
            start,
            len: l,
        });
        start += l;
        index += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosmos_common::{MemAccess, PhysAddr};

    fn phased_trace(n: u64) -> Trace {
        // Two alternating phases: sequential reads vs. scattered writes.
        (0..n)
            .map(|i| {
                if (i / 8_192) % 2 == 0 {
                    MemAccess::read((i % 4) as u8, PhysAddr::new(i * 64), 2)
                } else {
                    MemAccess::write((i % 4) as u8, PhysAddr::new((i * 7_919) % (1 << 26)), 2)
                }
            })
            .collect()
    }

    fn cfg() -> SamplingConfig {
        SamplingConfig {
            interval_len: 4_096,
            clusters: 4,
            warmup_len: 2_048,
            prime_len: 0,
            kmeans_iters: 50,
            seed: 11,
        }
    }

    #[test]
    fn split_covers_everything_without_overlap() {
        let ivs = split(10_000, 4_096);
        assert_eq!(ivs.len(), 3);
        assert_eq!(ivs[0].range(), 0..4_096);
        assert_eq!(ivs[1].range(), 4_096..8_192);
        assert_eq!(ivs[2].range(), 8_192..10_000);
    }

    #[test]
    fn weights_cover_the_whole_trace() {
        let t = phased_trace(80_000);
        let plan = SamplingPlan::build(&t, &cfg());
        let total: u64 = plan.representatives.iter().map(|r| r.weight_accesses).sum();
        assert_eq!(total, t.len() as u64);
        assert_eq!(plan.assignments.len(), plan.intervals);
        assert!(plan.reduction_factor() > 1.0);
    }

    #[test]
    fn warmup_is_clamped_at_trace_start() {
        let t = phased_trace(80_000);
        let plan = SamplingPlan::build(&t, &cfg());
        for r in &plan.representatives {
            assert!(r.warmup_start + r.warmup_len == r.interval.start);
            assert!(r.warmup_len <= cfg().warmup_len);
        }
        // A representative at interval 0 has no accesses before it.
        if let Some(first) = plan.representatives.iter().find(|r| r.interval.index == 0) {
            assert_eq!(first.warmup_len, 0);
        }
    }

    #[test]
    fn empty_and_tiny_traces_are_fine() {
        let empty = SamplingPlan::build(&Trace::new(), &cfg());
        assert_eq!(empty.representatives.len(), 0);
        assert_eq!(empty.reduction_factor(), 1.0);

        let tiny = phased_trace(100);
        let plan = SamplingPlan::build(&tiny, &cfg());
        assert_eq!(plan.intervals, 1);
        assert_eq!(plan.representatives.len(), 1);
        assert_eq!(plan.representatives[0].weight_accesses, 100);
        assert_eq!(plan.representatives[0].warmup_len, 0);
    }

    #[test]
    fn plans_are_deterministic() {
        let t = phased_trace(60_000);
        let a = SamplingPlan::build(&t, &cfg());
        let b = SamplingPlan::build(&t, &cfg());
        assert_eq!(a, b);
    }

    #[test]
    fn phases_separate_into_clusters() {
        let t = phased_trace(80_000);
        let plan = SamplingPlan::build(&t, &cfg());
        // Interval length 4096 and phase length 8192: intervals alternate
        // read-phase/write-phase pairwise, so at least two clusters exist.
        assert!(plan.representatives.len() >= 2);
        let read_phase = plan.assignments[0];
        let write_phase = plan.assignments[2];
        assert_ne!(read_phase, write_phase, "phases not separated");
    }
}
