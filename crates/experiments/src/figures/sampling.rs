//! The sampled-vs-full validation figure (DESIGN.md §9).

use super::FigureOutput;
use crate::runner::{run_jobs, Job};
use crate::{f3, pct, table_string, Args};
use cosmos_common::json::{json, Map};
use cosmos_core::Design;
use cosmos_sampling::SamplingConfig;
use cosmos_workloads::graph::GraphKernel;

/// Error bounds and reduction target the sampled mode is held to.
const CTR_MISS_ABS_BOUND: f64 = 0.02;
const IPC_REL_BOUND: f64 = 0.05;
const REDUCTION_TARGET: f64 = 5.0;

const DESIGNS: [Design; 2] = [Design::MorphCtr, Design::Cosmos];

fn rel_err(sampled: f64, full: f64) -> f64 {
    if full == 0.0 {
        0.0
    } else {
        (sampled - full).abs() / full
    }
}

/// Sampled-vs-full validation: quantifies the estimation error of
/// representative-interval sampling (`--sample`) on the eight graph
/// kernels, for MorphCtr and full COSMOS.
///
/// For every kernel the harness runs the full trace and the sampled plan
/// under identical configurations and reports, per design:
///
/// - absolute CTR-cache miss-rate error,
/// - relative IPC error,
/// - relative total-traffic error,
/// - the realized reduction in simulated accesses.
///
/// Targets (DESIGN.md "Sampling"): ≥5× reduction with ≤2% absolute CTR
/// miss-rate error and ≤5% relative IPC error. Sampling amortizes its
/// fixed costs (priming, warmup) over the trace, so the default budget
/// here is paper-scale-large; at small `--accesses` the reduction target
/// is unreachable and the summary will say so.
///
/// Everything in the JSON document is deterministic in (`--accesses`,
/// `--seed`) — byte-identical for any `--jobs` value.
///
/// `--sample` does not apply: every kernel is run both ways.
pub(super) fn validation(args: &Args) -> FigureOutput {
    let sampling = SamplingConfig::for_trace(args.accesses);
    let set = args.graph_set();

    let mut rows = Vec::new();
    let mut kernels_json = Vec::new();
    // Per-design worst cases across kernels, parallel to `DESIGNS`.
    #[derive(Clone, Copy, Default)]
    struct Worst {
        ctr_abs: f64,
        ipc_rel: f64,
        traffic_rel: f64,
    }
    let mut worst = [Worst::default(); DESIGNS.len()];
    let mut min_reduction = f64::INFINITY;
    let mut ctr_within = 0usize;

    for kernel in GraphKernel::all() {
        let trace = set.trace(kernel);
        // Full and sampled runs of both designs; one grid per kernel so a
        // single multi-hundred-MB trace is alive at a time.
        let mut jobs = Vec::new();
        for design in DESIGNS {
            for (mode, sample) in [("full", None), ("sampled", Some(sampling))] {
                let label = format!("{}/{}/{mode}", kernel.name(), design.name());
                jobs.push(
                    Job::new(&label, design, &trace, args.seed)
                        .with_sample(sample)
                        .with_check(args.check)
                        .with_telemetry(args.telemetry.scope(&label)),
                );
            }
        }
        let mut outcomes = run_jobs(jobs, args.jobs).into_iter();

        let mut per_design = Map::new();
        for (di, design) in DESIGNS.into_iter().enumerate() {
            let full = outcomes.next().expect("full result");
            let sampled = outcomes.next().expect("sampled result");
            let ctr_abs = (sampled.stats.ctr_miss_rate() - full.stats.ctr_miss_rate()).abs();
            let ipc_rel = rel_err(sampled.stats.ipc(), full.stats.ipc());
            let traffic_rel = rel_err(
                sampled.stats.traffic.total() as f64,
                full.stats.traffic.total() as f64,
            );
            let reduction = full.stats.accesses as f64 / sampled.simulated_accesses as f64;
            min_reduction = min_reduction.min(reduction);
            if ctr_abs <= CTR_MISS_ABS_BOUND {
                ctr_within += 1;
            }
            let w = &mut worst[di];
            w.ctr_abs = w.ctr_abs.max(ctr_abs);
            w.ipc_rel = w.ipc_rel.max(ipc_rel);
            w.traffic_rel = w.traffic_rel.max(traffic_rel);

            rows.push(vec![
                kernel.name().to_string(),
                design.name().to_string(),
                f3(full.stats.ipc()),
                f3(sampled.stats.ipc()),
                pct(ipc_rel),
                pct(full.stats.ctr_miss_rate()),
                pct(sampled.stats.ctr_miss_rate()),
                pct(ctr_abs),
                pct(traffic_rel),
                format!("{reduction:.1}x"),
            ]);
            per_design.insert(
                design.name(),
                json!({
                    "full": {
                        "ipc": full.stats.ipc(),
                        "ctr_miss_rate": full.stats.ctr_miss_rate(),
                        "traffic": full.stats.traffic.total(),
                    },
                    "sampled": {
                        "ipc": sampled.stats.ipc(),
                        "ctr_miss_rate": sampled.stats.ctr_miss_rate(),
                        "traffic": sampled.stats.traffic.total(),
                        "simulated_accesses": sampled.simulated_accesses,
                    },
                    "error": {
                        "ipc_rel": ipc_rel,
                        "ctr_miss_abs": ctr_abs,
                        "traffic_rel": traffic_rel,
                    },
                    "reduction": reduction,
                }),
            );
        }
        kernels_json.push(json!({"kernel": kernel.name(), "designs": per_design}));
    }

    let reduction_met = min_reduction >= REDUCTION_TARGET;
    let ipc_met = worst.iter().all(|w| w.ipc_rel <= IPC_REL_BOUND);
    let ctr_met = worst.iter().all(|w| w.ctr_abs <= CTR_MISS_ABS_BOUND);
    let bounds_met = reduction_met && ipc_met && ctr_met;
    let worst_ctr = worst.iter().fold(0.0f64, |m, w| m.max(w.ctr_abs));
    let worst_ipc = worst.iter().fold(0.0f64, |m, w| m.max(w.ipc_rel));
    let report = format!(
        "## Sampled-vs-full validation ({} accesses/kernel, seed {})\n\n{}\n\
         min reduction {min_reduction:.1}x (target {REDUCTION_TARGET}x): {}\n\
         IPC relative error <= {:.0}%: {} (worst {})\n\
         CTR miss absolute error <= {:.0}%: {} ({ctr_within}/{} rows within; worst {})\n",
        args.accesses,
        args.seed,
        table_string(
            &[
                "kernel",
                "design",
                "IPC full",
                "IPC sampled",
                "IPC err",
                "CTR miss full",
                "CTR miss sampled",
                "CTR err (abs)",
                "traffic err",
                "reduction",
            ],
            &rows,
        ),
        if reduction_met { "MET" } else { "NOT met" },
        100.0 * IPC_REL_BOUND,
        if ipc_met { "MET" } else { "NOT met" },
        pct(worst_ipc),
        100.0 * CTR_MISS_ABS_BOUND,
        if ctr_met {
            "MET"
        } else {
            "NOT met — residual online-RL training bias, see DESIGN.md 'Sampling pipeline'"
        },
        rows.len(),
        pct(worst_ctr)
    );

    FigureOutput {
        report,
        json: json!({
            "accesses": args.accesses,
            "seed": args.seed,
            "sampling": {
                "interval_len": sampling.interval_len,
                "clusters": sampling.clusters,
                "warmup_len": sampling.warmup_len,
                "prime_len": sampling.prime_len,
            },
            "bounds": {
                "ctr_miss_abs": CTR_MISS_ABS_BOUND,
                "ipc_rel": IPC_REL_BOUND,
                "reduction": REDUCTION_TARGET,
            },
            "bounds_met": bounds_met,
            "min_reduction": min_reduction,
            "worst_error": DESIGNS
                .iter()
                .zip(&worst)
                .map(|(d, w)| {
                    (
                        d.name().to_string(),
                        json!({
                            "ctr_miss_abs": w.ctr_abs,
                            "ipc_rel": w.ipc_rel,
                            "traffic_rel": w.traffic_rel,
                        }),
                    )
                })
                .collect::<Map>(),
            "kernels": kernels_json,
        }),
    }
}
