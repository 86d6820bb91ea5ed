//! The `explain_ctr` pipeline: causal CTR-miss attribution as an
//! experiment harness.
//!
//! Figure 11 reports *that* COSMOS-CP's LCR-CTR cache misses less than
//! MorphCtr's LRU. This pipeline explains *why*: it reruns both designs
//! over the graph kernels with full telemetry (every eviction recorded,
//! dense events sampled), feeds each job's flight-recorder stream through
//! `cosmos-explain`, and emits per-decision evidence — which evictions
//! were policy-steered, what the RL agent's Q-values and reward were at
//! the decision, and how each kernel's miss-rate delta decomposes into
//! cold / capacity / conflict / policy-induced / spec-kill classes.
//!
//! Everything in the report and the JSON artifact is deterministic:
//! telemetry scopes are created sequentially at job construction, events
//! are ordered by the per-stream `seq` stamp, and wall-clock timestamps
//! never appear — so two runs (or `--jobs 1` vs `--jobs N`) produce
//! byte-identical output. `scripts/check.sh` `cmp`s exactly that.

use crate::figures::FigureOutput;
use crate::runner::{run_jobs, Job};
use crate::{pct, table_string, Args};
use cosmos_cache::CacheConfig;
use cosmos_common::json::{json, Value};
use cosmos_core::{Design, SimConfig};
use cosmos_explain::{attribute_stream, conservation_line, MissClass, StreamAttribution};
use cosmos_telemetry::{Telemetry, TelemetryConfig};
use cosmos_workloads::graph::GraphKernel;

/// Default access budget: small enough for the CI smoke, large enough
/// that the LCR policy visibly deviates from LRU.
pub const DEFAULT_ACCESSES: usize = 150_000;

/// The two designs whose fig11 delta the report explains.
const DESIGNS: [Design; 2] = [Design::MorphCtr, Design::CosmosCp];

/// Telemetry tuning for attribution runs: sample dense events at 1:16
/// (every eviction is kept, so the causal chain is complete), and give
/// each stream a ring deep enough that kernels at the default budget
/// don't wrap.
fn telemetry_config() -> TelemetryConfig {
    TelemetryConfig {
        sample_every: 16,
        recorder_capacity: 1 << 17,
    }
}

/// CTR-cache capacity in lines for `design` — the conflict/capacity
/// boundary used by the classifier.
fn ctr_cache_lines(design: Design) -> u64 {
    let cfg = SimConfig::paper_default(design);
    CacheConfig::new(cfg.ctr_cache.size_bytes, cfg.ctr_cache.ways).num_lines() as u64
}

/// The whole pipeline (the binary's body, callable from tests).
pub fn run(args: &Args) -> FigureOutput {
    let telemetry =
        Telemetry::with_config(None, telemetry_config()).expect("in-memory telemetry needs no I/O");
    let set = args.graph_set();
    let kernels = GraphKernel::all();
    let traces: Vec<_> = kernels.iter().map(|&k| (k, set.trace(k))).collect();

    // Scopes are created here, sequentially, so stream ids (and therefore
    // the report) are independent of worker scheduling.
    let mut jobs = Vec::new();
    for (kernel, trace) in &traces {
        for d in DESIGNS {
            let label = format!("{}/{}", kernel.name(), d.name());
            jobs.push(
                Job::new(label.clone(), d, trace, args.seed)
                    .with_check(args.check)
                    .with_telemetry(telemetry.scope(&label)),
            );
        }
    }
    let outcomes = run_jobs(jobs, args.jobs);
    let streams = telemetry.recorder_streams();

    // Attribute each job's stream, pairing it back to the job by label.
    let mut attributions: Vec<(Design, StreamAttribution, f64)> = Vec::new();
    let mut oi = outcomes.into_iter();
    for (kernel, _) in &traces {
        for d in DESIGNS {
            let outcome = oi.next().expect("one outcome per job");
            let label = format!("{}/{}", kernel.name(), d.name());
            let (_, events, stats) = streams
                .iter()
                .find(|(l, _, _)| *l == label)
                .expect("every job scoped a telemetry stream under its label");
            let a = attribute_stream(&label, events, *stats, ctr_cache_lines(d));
            attributions.push((d, a, outcome.stats.ctr_miss_rate()));
        }
    }

    let mut report = String::from(
        "## explain_ctr: causal CTR-miss attribution (MorphCtr LRU vs COSMOS-CP LCR)\n\n",
    );
    let mut rows = Vec::new();
    for (_, a, sim_miss) in &attributions {
        rows.push(vec![
            a.label.clone(),
            pct(*sim_miss),
            pct(a.sampled_miss_rate()),
            a.counts.cold.to_string(),
            a.counts.capacity.to_string(),
            a.counts.conflict.to_string(),
            a.counts.policy_induced.to_string(),
            a.counts.spec_kill.to_string(),
        ]);
    }
    report.push_str(&table_string(
        &[
            "job",
            "sim miss",
            "sampled miss",
            "cold",
            "capacity",
            "conflict",
            "policy",
            "spec-kill",
        ],
        &rows,
    ));

    // The conservation law, one grep-able line per stream.
    report.push('\n');
    for (_, a, _) in &attributions {
        report.push_str(&conservation_line(a));
        report.push('\n');
    }

    // Diff mode: decompose each kernel's fig11 delta into class deltas
    // and show the strongest policy-steered decisions as evidence.
    report.push_str("\n### Per-kernel delta (MorphCtr − COSMOS-CP), explained\n\n");
    let mut diff_json = Vec::new();
    for (i, (kernel, _)) in traces.iter().enumerate() {
        let (_, lru, lru_miss) = &attributions[2 * i];
        let (_, lcr, lcr_miss) = &attributions[2 * i + 1];
        report.push_str(&format!(
            "- **{}**: sim miss {} → {} (delta {}); sampled miss {} → {}; \
             LRU classes [capacity {}, conflict {}] vs LCR \
             [capacity {}, conflict {}, policy-induced {}]\n",
            kernel.name(),
            pct(*lru_miss),
            pct(*lcr_miss),
            pct(lru_miss - lcr_miss),
            pct(lru.sampled_miss_rate()),
            pct(lcr.sampled_miss_rate()),
            lru.counts.capacity,
            lru.counts.conflict,
            lcr.counts.capacity,
            lcr.counts.conflict,
            lcr.counts.policy_induced,
        ));
        for m in lcr
            .misses
            .iter()
            .filter(|m| m.class == MissClass::PolicyInduced)
            .take(3)
        {
            if let Some(c) = &m.cause {
                if let Some(rl) = &c.rl {
                    report.push_str(&format!(
                        "  - decision {} (q_good {:.3}, q_bad {:.3}, reward {:.1}) \
                         evicted line {:#x}; re-missed {} accesses later (seq {})\n",
                        rl.id, rl.q_good, rl.q_bad, rl.reward, m.line, c.reuse_gap, m.seq
                    ));
                }
            }
        }
        diff_json.push(json!({
            "kernel": (kernel.name()),
            "ctr_miss_lru": (*lru_miss),
            "ctr_miss_lcr": (*lcr_miss),
            "delta": (lru_miss - lcr_miss),
            "classes_lru": (lru.counts.to_json()),
            "classes_lcr": (lcr.counts.to_json()),
        }));
    }

    let conserved = attributions.iter().all(|(_, a, _)| a.conservation_holds());
    report.push_str(&format!(
        "\nconservation over all {} streams: {}\n",
        attributions.len(),
        if conserved { "ok" } else { "VIOLATED" }
    ));

    let stream_json: Vec<Value> = attributions.iter().map(|(_, a, _)| a.to_json(8)).collect();
    FigureOutput {
        report,
        json: json!({
            "accesses": (args.accesses),
            "conservation": (conserved),
            "streams": (Value::Array(stream_json)),
            "diff": (Value::Array(diff_json)),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tiny_args(jobs: usize) -> Args {
        Args {
            accesses: 4000,
            seed: 42,
            large: false,
            sample: false,
            check: false,
            json: None::<PathBuf>,
            jobs,
            telemetry: Telemetry::disabled(),
        }
    }

    #[test]
    fn conserves_is_jobs_invariant_and_reports_evidence() {
        let serial = run(&tiny_args(1));
        let parallel = run(&tiny_args(4));
        assert_eq!(
            serial.report, parallel.report,
            "report must not depend on --jobs"
        );
        assert_eq!(serial.json.pretty(), parallel.json.pretty());
        assert!(serial.report.contains("sampled misses (ok)"));
        assert!(!serial.report.contains("VIOLATED"), "{}", serial.report);
        // The COSMOS-CP streams must carry the class breakdown the diff
        // section is built from.
        assert!(serial.json.pretty().contains("\"policy_induced\""));
        assert!(serial.report.contains("COSMOS-CP"));
    }
}
