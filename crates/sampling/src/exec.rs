//! Executing a [`SamplingPlan`]: warmup, measure, and weighted merge.

use crate::plan::SamplingPlan;
use cosmos_common::stats::Counters;
use cosmos_common::Trace;
use cosmos_core::{SimConfig, SimStats, Simulator, StatsEstimate};

/// The outcome of a sampled simulation.
#[derive(Clone, Debug, PartialEq)]
pub struct SampledRun {
    /// Reconstructed full-trace statistics estimate.
    pub stats: SimStats,
    /// Accesses actually simulated (warmups included) — compare against
    /// `stats.accesses` for the realized reduction.
    pub simulated_accesses: u64,
}

impl SampledRun {
    /// Full-trace accesses per simulated access actually realized.
    pub fn reduction_factor(&self) -> f64 {
        if self.simulated_accesses == 0 {
            1.0
        } else {
            self.stats.accesses as f64 / self.simulated_accesses as f64
        }
    }
}

/// Runs `plan` over `trace` on a fresh simulator under `config`:
/// [`run_plan`] with nothing watching the windows.
pub fn run_sampled(config: &SimConfig, trace: &Trace, plan: &SamplingPlan) -> SampledRun {
    run_plan(&mut Simulator::new(config.clone()), trace, plan, |_| {})
}

/// Runs `plan` over `trace` on `sim`: the one persistent simulator visits
/// the representative intervals in trace order, runs each
/// representative's warmup prefix with statistics frozen, then measures
/// the interval as a stats window; the windows merge, weighted by cluster
/// size, into a full-trace estimate. `on_window` sees the simulator after
/// every merged window — where `--check` runs its oracle boundary, on the
/// cumulative snapshot.
///
/// Cache, predictor, and DRAM state carry across windows (stale-state
/// warmup): the gaps between representatives are skipped, so large
/// structures like the LLC and CTR cache keep the near-correct contents
/// the earlier windows left behind, while each representative's own
/// warmup prefix refreshes the fast-turnover structures (L1/L2) right
/// before measurement. A fresh simulator per window would instead pay a
/// full cold-start on every interval — a bias no affordable warmup
/// removes. A representative at interval 0 starts genuinely cold, which
/// is exactly the state the real run has there.
///
/// Deterministic in (`sim`'s configuration, `trace`, `plan`) for a fresh
/// `sim`: representatives run in plan order on the calling thread, so
/// results are byte-identical regardless of how many worker threads the
/// surrounding grid uses.
pub fn run_plan(
    sim: &mut Simulator,
    trace: &Trace,
    plan: &SamplingPlan,
    mut on_window: impl FnMut(&Simulator),
) -> SampledRun {
    let accesses = trace.as_slice();
    let telemetry = sim.config().telemetry.clone();
    let mut estimate = StatsEstimate::new();
    let mut simulated = 0u64;
    // End of the last simulated access; warmups never replay accesses an
    // earlier window already ran.
    let mut cursor = 0usize;
    for rep in &plan.representatives {
        let warm_from = rep.warmup_start.max(cursor);
        {
            let _p = telemetry.phase("warmup");
            sim.warmup(accesses[warm_from..rep.interval.start].iter());
        }
        {
            let _p = telemetry.phase("sim");
            for a in &accesses[rep.interval.range()] {
                sim.step(a);
            }
        }
        {
            let _p = telemetry.phase("merge");
            let window = sim.snapshot().since(&sim.frozen_baseline());
            estimate.add_weighted(&window, rep.scale());
        }
        simulated += (rep.interval.start - warm_from + rep.interval.len) as u64;
        cursor = rep.interval.start + rep.interval.len;
        on_window(sim);
    }
    SampledRun {
        stats: estimate.reconstruct(),
        simulated_accesses: simulated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SamplingConfig;
    use cosmos_common::{MemAccess, PhysAddr, SplitMix64};
    use cosmos_core::Design;

    fn trace(n: usize, seed: u64) -> Trace {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|_| {
                let addr = PhysAddr::new(rng.next_below(200_000) * 64);
                let core = (rng.next_u32() % 4) as u8;
                if rng.chance(0.25) {
                    MemAccess::write(core, addr, 3)
                } else {
                    MemAccess::read(core, addr, 3)
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
            seed: 3,
        }
    }

    #[test]
    fn sampled_run_reconstructs_access_count_exactly() {
        let t = trace(50_000, 1);
        let plan = SamplingPlan::build(&t, &cfg());
        let run = run_sampled(&SimConfig::paper_default(Design::MorphCtr), &t, &plan);
        // Weights sum to the trace length, so the estimated access count
        // is exact up to rounding.
        let diff = run.stats.accesses.abs_diff(t.len() as u64);
        assert!(diff <= plan.representatives.len() as u64, "diff {diff}");
        assert!(run.simulated_accesses < t.len() as u64);
        assert!(run.reduction_factor() > 1.0);
    }

    #[test]
    fn sampled_run_is_deterministic() {
        let t = trace(30_000, 2);
        let plan = SamplingPlan::build(&t, &cfg());
        let config = SimConfig::paper_default(Design::Cosmos);
        let a = run_sampled(&config, &t, &plan);
        let b = run_sampled(&config, &t, &plan);
        assert_eq!(a, b);
    }

    #[test]
    fn single_interval_plan_equals_full_run() {
        let t = trace(2_000, 3);
        let cfg = SamplingConfig {
            interval_len: 1 << 20,
            ..cfg()
        };
        let plan = SamplingPlan::build(&t, &cfg);
        assert_eq!(plan.representatives.len(), 1);
        let config = SimConfig::paper_default(Design::MorphCtr);
        let sampled = run_sampled(&config, &t, &plan);
        let full = Simulator::new(config).run(&t);
        assert_eq!(sampled.stats, full);
        assert_eq!(sampled.simulated_accesses, t.len() as u64);
    }
}
