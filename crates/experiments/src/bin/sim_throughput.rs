//! Tracked simulator-throughput benchmark: accesses/second per design on
//! a fixed irregular (DFS) trace, timed with [`std::time::Instant`].
//!
//! Unlike the registry figures this measures the *simulator itself*, not
//! the modeled hardware — it is the number that bounds how large the
//! experiment grids can scale. Results go to `BENCH_sim.json` at the repo
//! root (current snapshot) and are appended to `BENCH_sim.history.jsonl`
//! (one line per run, carrying the full per-design `accesses_per_sec` map
//! plus the COSMOS-vs-NP gap ratio, so both the trajectory and the
//! RL-design overhead are preserved across changes).
//!
//! With `--json PATH` the snapshot is *redirected* to PATH and the history
//! file is left untouched — quick CI probes never clobber the tracked
//! artifacts.
//!
//! Run with `--release`; a debug build is an order of magnitude slower
//! and the output marks it as such.

use std::path::{Path, PathBuf};

use cosmos_common::json::{json, Map, Value};
use cosmos_experiments::throughput::{measure, measure_channel, measure_sampled, to_json, DESIGNS};
use cosmos_experiments::{f3, table_string, Args};
use cosmos_sampling::SamplingConfig;
use cosmos_workloads::graph::GraphKernel;
use cosmos_workloads::{TraceSpec, Workload};

const REPS: usize = 3;

fn repo_root() -> PathBuf {
    // crates/experiments -> repo root.
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn main() {
    let args = Args::parse(
        std::env::args().skip(1),
        200_000,
        "usage: sim_throughput [OPTIONS]",
    );
    let mut spec = TraceSpec::small_test(args.seed);
    spec.accesses = args.accesses;
    spec.graph_vertices = 1 << 17;
    let trace = Workload::Graph(GraphKernel::Dfs).generate(&spec);

    let results = measure(&trace, REPS);
    let per_design = to_json(&results);
    let mean_rate = results.iter().map(|r| r.accesses_per_sec).sum::<f64>() / results.len() as f64;

    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.design.name().to_string(),
                format!("{:.0}", r.accesses_per_sec / 1e3),
                format!("{:.1}", r.median_run_secs * 1e3),
                f3(r.sim_cycles_per_access),
            ]
        })
        .collect();
    println!(
        "## Simulator throughput ({} DFS accesses, {} reps, {} build)\n",
        trace.len(),
        REPS,
        if cfg!(debug_assertions) {
            "DEBUG"
        } else {
            "release"
        },
    );
    print!(
        "{}",
        table_string(&["design", "Kacc/s", "run ms", "model cyc/acc"], &rows)
    );
    println!("\nmean: {:.0} Kacc/s", mean_rate / 1e3);

    // The cost of the RL machinery, stated explicitly: how many times
    // faster the unprotected baseline simulates than full COSMOS.
    let np_rate = results
        .iter()
        .find(|r| r.design.name() == "NP")
        .map(|r| r.accesses_per_sec)
        .expect("NP design present");
    let cosmos_rate = results
        .iter()
        .find(|r| r.design.name() == "COSMOS")
        .map(|r| r.accesses_per_sec)
        .expect("COSMOS design present");
    let gap_ratio = np_rate / cosmos_rate;
    println!(
        "COSMOS-vs-NP gap: {gap_ratio:.2}x (NP {:.0} Kacc/s / COSMOS {:.0} Kacc/s)",
        np_rate / 1e3,
        cosmos_rate / 1e3,
    );

    // Sampled mode (`--sample`): how much faster a grid point progresses
    // when only representative intervals are simulated. Measured on a
    // 10×-larger trace (the figure-budget scale): below ~1 M accesses the
    // priming floor covers most of the trace and sampling deliberately
    // degenerates toward a full run.
    let mut sampled_spec = spec;
    sampled_spec.accesses = args.accesses * 10;
    let sampled_trace = Workload::Graph(GraphKernel::Dfs).generate(&sampled_spec);
    let sampling = SamplingConfig::for_trace(sampled_trace.len());
    let full_at_scale = measure(&sampled_trace, REPS);
    let sampled = measure_sampled(&sampled_trace, &sampling, REPS);
    let mut sampled_json = Map::new();
    let mut speedups = Vec::new();
    let mut sampled_rows = Vec::new();
    for (f, s) in full_at_scale.iter().zip(&sampled) {
        let speedup = s.effective_accesses_per_sec / f.accesses_per_sec;
        speedups.push(speedup);
        sampled_rows.push(vec![
            s.design.name().to_string(),
            format!("{:.0}", s.effective_accesses_per_sec / 1e3),
            format!("{:.1}", s.median_run_secs * 1e3),
            format!("{speedup:.2}x"),
        ]);
        sampled_json.insert(
            s.design.name(),
            json!({
                "effective_accesses_per_sec": s.effective_accesses_per_sec,
                "median_run_secs": s.median_run_secs,
                "speedup_vs_full": speedup,
            }),
        );
    }
    let mean_speedup = speedups.iter().sum::<f64>() / speedups.len() as f64;
    println!(
        "\n## Sampled mode ({} of {} accesses simulated)\n",
        sampled[0].simulated_accesses,
        sampled_trace.len(),
    );
    print!(
        "{}",
        table_string(
            &["design", "eff Kacc/s", "run ms", "speedup"],
            &sampled_rows
        )
    );
    println!("\nmean sampled speedup: {mean_speedup:.2}x");

    // The occupancy-channel harness: one sweep cell per rep, scaled so the
    // measured loop is dominated by stepped simulation, not setup.
    let channel = measure_channel(64, REPS);
    println!(
        "\n## Channel harness (one occupancy cell, {} accesses)\n",
        channel.accesses,
    );
    println!(
        "cell rate: {:.0} Kacc/s ({:.1} ms/cell, {} probe misses)",
        channel.accesses_per_sec / 1e3,
        channel.median_run_secs * 1e3,
        channel.probe_misses,
    );

    let snapshot = json!({
        "bench": "sim_throughput",
        "accesses": trace.len(),
        "seed": args.seed,
        "reps": REPS,
        "debug_build": cfg!(debug_assertions),
        "designs": per_design,
        "mean_accesses_per_sec": mean_rate,
        "cosmos_np_gap_ratio": gap_ratio,
        "sampled": {
            "accesses": sampled_trace.len(),
            "simulated_accesses": sampled[0].simulated_accesses,
            "designs": sampled_json,
            "mean_speedup_vs_full": mean_speedup,
        },
        "channel": {
            "accesses": channel.accesses,
            "channel_accesses_per_sec": channel.accesses_per_sec,
            "median_run_secs": channel.median_run_secs,
            "probe_misses": channel.probe_misses,
        },
    });
    // `--json PATH` redirects the snapshot and skips the history append:
    // quick probes (CI determinism checks, local experiments) must not
    // rewrite the tracked benchmark artifacts.
    if let Some(path) = &args.json {
        std::fs::write(path, format!("{}\n", snapshot.pretty())).expect("write json");
        println!("wrote {} (history untouched)", path.display());
        return;
    }
    let root = repo_root();
    let snap_path = root.join("BENCH_sim.json");
    std::fs::write(&snap_path, format!("{}\n", snapshot.pretty())).expect("write BENCH_sim.json");
    println!("wrote {}", snap_path.display());

    // Trajectory line: compact (one JSON object per line), stamped with
    // wall-clock seconds so successive runs order themselves.
    // cosmos-lint: allow(D2): provenance stamp on the bench-history artifact, not simulated state
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut line = Map::new();
    line.insert("unix_time", Value::from(stamp));
    line.insert("accesses", Value::from(trace.len()));
    line.insert("debug_build", Value::from(cfg!(debug_assertions)));
    line.insert("mean_accesses_per_sec", Value::from(mean_rate));
    line.insert("cosmos_np_gap_ratio", Value::from(gap_ratio));
    line.insert("sampled_mean_speedup", Value::from(mean_speedup));
    line.insert(
        "channel_accesses_per_sec",
        Value::from(channel.accesses_per_sec),
    );
    let mut design_rates = Map::new();
    for (design, r) in DESIGNS.iter().zip(&results) {
        design_rates.insert(design.name(), Value::from(r.accesses_per_sec));
    }
    line.insert("designs", Value::Object(design_rates));
    let hist_path = root.join("BENCH_sim.history.jsonl");
    let mut history = std::fs::read_to_string(&hist_path).unwrap_or_default();
    history.push_str(&format!("{}\n", Value::Object(line)));
    std::fs::write(&hist_path, history).expect("write BENCH_sim.history.jsonl");
    println!("appended {}", hist_path.display());
}
