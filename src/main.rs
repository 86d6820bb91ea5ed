//! `cosmos` — command-line driver for the secure-memory simulator.
//!
//! ```sh
//! cosmos --workload dfs --design cosmos --accesses 2000000
//! cosmos --workload mcf --design all
//! cosmos --list
//! ```

use cosmos::core::{smat::smat, Design, SimConfig, Simulator};
use cosmos::workloads::{graph::GraphKernel, TraceSpec, Workload};
use std::process::exit;

const USAGE: &str = "\
cosmos — COSMOS secure-memory simulator (MICRO 2025 reproduction)

USAGE:
    cosmos [--workload NAME] [--design NAME|all] [--accesses N] [--seed N]
           [--cores N] [--paper-ctr-sizes] [--list]

OPTIONS:
    --workload NAME     dfs|bfs|gc|pr|tc|cc|sp|dc|mcf|canneal|omnetpp|
                        mlp|alexnet|resnet|vgg|bert|transformer|dlrm  [dfs]
    --design NAME       np|morphctr|emcc|rmcc|cosmos-dp|cosmos-cp|cosmos|all  [all]
    --accesses N        trace length                                  [1000000]
    --seed N            deterministic seed                            [42]
    --cores N           cores/threads                                 [4]
    --paper-ctr-sizes   shrink COSMOS variants' CTR cache to 128 KB (paper §5)
    --list              list workloads and designs, then exit
";

/// Prints `msg` and the usage text, then exits 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}\n\n{USAGE}");
    exit(2);
}

/// Parses `flag`'s value as a number, or exits 2 naming the flag.
fn number<T: std::str::FromStr>(flag: &str, v: &str) -> T {
    v.parse()
        .unwrap_or_else(|_| usage_error(&format!("{flag} needs a number, got {v:?}")))
}

/// [`number`], which must also be positive.
fn positive(flag: &str, v: &str) -> usize {
    match number(flag, v) {
        0 => usage_error(&format!("{flag} must be positive")),
        n => n,
    }
}

fn main() {
    let mut workload = Workload::Graph(GraphKernel::Dfs);
    let mut designs = Design::ALL.to_vec();
    let mut accesses = 1_000_000usize;
    let mut seed = 42u64;
    let mut cores = 4usize;
    let mut paper_sizes = false;

    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .unwrap_or_else(|| usage_error(&format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload");
                workload = name.parse().unwrap_or_else(|e: String| usage_error(&e));
            }
            "--design" => {
                let name = value("--design");
                if name != "all" {
                    designs = vec![name.parse().unwrap_or_else(|e: String| usage_error(&e))];
                }
            }
            "--accesses" => accesses = positive("--accesses", &value("--accesses")),
            "--seed" => seed = number("--seed", &value("--seed")),
            "--cores" => {
                cores = positive("--cores", &value("--cores"));
                if cores > 256 {
                    usage_error("--cores must be at most 256");
                }
            }
            "--paper-ctr-sizes" => paper_sizes = true,
            "--list" => {
                println!("workloads: dfs bfs gc pr tc cc sp dc mcf canneal omnetpp");
                println!("           mlp alexnet resnet vgg bert transformer dlrm");
                println!("designs:   np morphctr emcc rmcc cosmos-dp cosmos-cp cosmos all");
                return;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => usage_error(&format!("unknown argument `{other}`")),
        }
    }

    let spec = TraceSpec::paper_default(accesses, seed).with_cores(cores);
    eprintln!(
        "generating {} trace ({accesses} accesses, {cores} cores)...",
        workload.name()
    );
    let trace = workload.generate(&spec);

    println!(
        "{:<10} {:>8} {:>8} {:>10} {:>10} {:>12} {:>8}",
        "design", "IPC", "vs NP", "CTR miss", "SMAT", "DRAM lines", "DP acc"
    );
    let mut np_ipc: Option<f64> = None;
    for &design in &designs {
        let mut config = SimConfig::paper_default(design);
        config.cores = cores;
        config.seed = seed;
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
