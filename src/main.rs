//! `cosmos` — command-line driver for the secure-memory simulator.
//!
//! ```sh
//! cosmos --workload dfs --design cosmos --accesses 2000000
//! cosmos --workload mcf --design all
//! cosmos --list
//! ```

use cosmos::common::cli::{self, Flag};
use cosmos::core::{smat::smat, Design, SimConfig, Simulator};
use cosmos::workloads::{graph::GraphKernel, TraceSpec, Workload};

const USAGE: &str = "\
cosmos — COSMOS secure-memory simulator (MICRO 2025 reproduction)

usage: cosmos [OPTIONS]
";

const FLAGS: &[Flag] = &[
    Flag::text("--workload NAME", "a workload of --list [dfs]"),
    Flag::text("--design NAME", "a design of --list, or all [all]"),
    Flag::positive("--accesses N", "trace length [1000000]"),
    Flag::number("--seed N", "deterministic seed [42]"),
    Flag::range("--cores N", 1, 256, "cores/threads [4]"),
    Flag::switch("--paper-ctr-sizes", "shrink COSMOS CTR caches to 128 KB"),
    Flag::stop("--list", "list workloads and designs, then exit"),
];

fn main() {
    let help = format!("{USAGE}\n{}", cli::options(FLAGS));
    let parsed = cli::parse(FLAGS, std::env::args().skip(1), |p| {
        let designs = match p.get::<String>("--design")?.filter(|d| d != "all") {
            Some(name) => vec![name.parse()?],
            None => Design::ALL.to_vec(),
        };
        let spec = TraceSpec::paper_default(
            p.get("--accesses")?.unwrap_or(1_000_000),
            p.get("--seed")?.unwrap_or(42),
        )
        .with_cores(p.get("--cores")?.unwrap_or(4));
        spec.check_budget()?;
        Ok((
            p.get("--workload")?
                .unwrap_or(Workload::Graph(GraphKernel::Dfs)),
            designs,
            spec,
            p.on("--paper-ctr-sizes"),
            p.on("--list"),
        ))
    });
    let (workload, designs, spec, paper_sizes, list) = cli::finish(parsed, &help);
    if list {
        println!("workloads: dfs bfs gc pr tc cc sp dc mcf canneal omnetpp");
        println!("           mlp alexnet resnet vgg bert transformer dlrm");
        println!("designs:   np morphctr emcc rmcc cosmos-dp cosmos-cp cosmos all");
        return;
    }

    eprintln!(
        "generating {} trace ({} accesses, {} cores)...",
        workload.name(),
        spec.accesses,
        spec.cores
    );
    let trace = workload.generate(&spec);

    println!(
        "{:<10} {:>8} {:>8} {:>10} {:>10} {:>12} {:>8}",
        "design", "IPC", "vs NP", "CTR miss", "SMAT", "DRAM lines", "DP acc"
    );
    let mut np_ipc: Option<f64> = None;
    for &design in &designs {
        let mut config = SimConfig::paper_default(design);
        config.cores = spec.cores;
        config.seed = spec.seed;
        if paper_sizes {
            config = config.with_paper_ctr_sizes();
        }
        let stats = Simulator::new(config.clone()).run(&trace);
        let m = smat(&config, &stats);
        let ipc = stats.ipc();
        if design == Design::Np {
            np_ipc = Some(ipc);
        }
        let vs_np = np_ipc
            .map(|n| format!("{:.1}%", ipc / n * 100.0))
            .unwrap_or_else(|| "-".into());
        let dp = if stats.data_pred.total() > 0 {
            format!("{:.1}%", stats.data_pred.accuracy() * 100.0)
        } else {
            "-".into()
        };
        println!(
            "{:<10} {:>8.4} {:>8} {:>9.1}% {:>10.1} {:>12} {:>8}",
            design.name(),
            ipc,
            vs_np,
            stats.ctr_miss_rate() * 100.0,
            m.total,
            stats.traffic.total(),
            dp,
        );
    }
}
