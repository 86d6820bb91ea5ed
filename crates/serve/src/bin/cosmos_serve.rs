//! The `cosmos_serve` binary: checkpointed single runs and the job
//! server.
//!
//! ```text
//! cosmos_serve ckpt --design COSMOS --workload bfs --accesses 200000 \
//!     --snapshot run.snap.json --json out.json [--seed S] \
//!     [--snapshot-every K] [--stop-after N] [--check]
//!
//! cosmos_serve serve [--state DIR] [--jobs N] [--socket PATH] [--resume DIR]
//! ```
//!
//! `ckpt` runs one design × workload with checkpointing: if the snapshot
//! file exists the run resumes from it; `--stop-after` stops with a
//! snapshot at that point (the "interrupted" leg of the identity smoke);
//! `--check` runs the simulated portion under the `cosmos-verify`
//! oracles, primed from the restored state, and fails on any violation.
//! SIGINT checkpoints and exits instead of dying mid-run; checked runs
//! checkpoint (`--snapshot-every`, SIGINT, `--stop-after`) exactly like
//! unchecked ones.
//!
//! `serve` speaks newline-delimited JSON on stdin/stdout (and optionally
//! a Unix socket); see `cosmos_serve::protocol`. stdin EOF drains the
//! queue and exits; `{"op":"shutdown"}` or SIGINT stops promptly,
//! checkpointing in-flight sim jobs. `--resume DIR` picks up a killed
//! server's state directory without re-running completed jobs.

use cosmos_common::cli::{self, Flag, Parsed};
use cosmos_serve::checkpoint::{
    build_trace, refuse_unsavable, run_checkpointed, CheckpointRun, CkptOutcome,
};
use cosmos_serve::server::{sim_result_doc, Server, ServerOpts, MAX_WORKERS};
use cosmos_serve::{interrupt, snapshot};
use std::path::PathBuf;
use std::process::ExitCode;

const CKPT: &[Flag] = &[
    Flag::text("--design D", "design to run (required)"),
    Flag::text("--workload W", "workload to run (required)"),
    Flag::positive("--accesses N", "trace length (required)"),
    Flag::text("--snapshot PATH", "snapshot to resume (required)"),
    Flag::text("--json OUT", "write the result document to OUT"),
    Flag::number("--seed S", "trace seed [42]"),
    Flag::number("--snapshot-every K", "snapshot period [0: never]"),
    Flag::number("--stop-after N", "snapshot and stop after N accesses"),
    Flag::switch("--check", "run under the cosmos-verify oracles"),
];

const SERVE: &[Flag] = &[
    Flag::text("--state DIR", "state directory [serve-state]"),
    Flag::range("--jobs N", 1, MAX_WORKERS as u64, "worker threads"),
    Flag::text("--socket PATH", "also serve on this Unix socket"),
    Flag::text("--resume DIR", "resume a killed server's state"),
];

type Run = fn(Parsed) -> Result<(), String>;

fn main() -> ExitCode {
    let help = format!(
        "usage: cosmos_serve ckpt [OPTIONS]\n\n{}\nusage: cosmos_serve serve [OPTIONS]\n\n{}",
        cli::options(CKPT),
        cli::options(SERVE)
    );
    let mut argv = std::env::args().skip(1);
    let subcommand = cli::lead(&mut argv, "subcommand", |word| match word {
        "ckpt" => Some((CKPT, run_ckpt as Run)),
        "serve" => Some((SERVE, run_serve as Run)),
        _ => None,
    });
    let (flags, run) = cli::finish(subcommand, &help);
    match run(cli::finish(cli::parse(flags, argv, Ok), &help)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn run_ckpt(p: Parsed) -> Result<(), String> {
    let design: cosmos_core::Design = p.get("--design")?.ok_or("--design is required")?;
    let workload: cosmos_workloads::Workload =
        p.get("--workload")?.ok_or("--workload is required")?;
    let accesses = p.get("--accesses")?.ok_or("--accesses is required")?;
    let snapshot_path: PathBuf = p.get("--snapshot")?.ok_or("--snapshot is required")?;
    let json_out: Option<PathBuf> = p.get("--json")?;
    let seed = p.get("--seed")?.unwrap_or(42);
    let snapshot_every = p.get("--snapshot-every")?.unwrap_or(0);
    let stop_after = p.get("--stop-after")?;
    let check = p.on("--check");

    let config = cosmos_core::SimConfig::paper_default(design);
    refuse_unsavable(&config, accesses, snapshot_every, stop_after)?;
    interrupt::install();
    let trace = build_trace(workload, accesses, seed);
    let run = CheckpointRun {
        config: &config,
        trace: &trace,
        snapshot_path: &snapshot_path,
        snapshot_every,
        stop_after,
        check,
    };
    match run_checkpointed(&run, interrupt::flag())? {
        CkptOutcome::Completed { stats, report } => {
            if let Some(path) = &json_out {
                let doc = sim_result_doc(&config, workload, accesses, seed, &stats);
                let mut text = doc.pretty();
                text.push('\n');
                snapshot::write_atomic(path, text.as_bytes())
                    .map_err(|e| format!("write {}: {e}", path.display()))?;
            }
            eprintln!(
                "completed {}/{} after {} accesses (ipc {:.3}){}",
                workload.name(),
                design.name(),
                stats.accesses,
                stats.ipc(),
                if report.is_some() {
                    ", oracles clean"
                } else {
                    ""
                }
            );
        }
        CkptOutcome::Preempted { accesses_done } => {
            eprintln!(
                "checkpointed {}/{} at {accesses_done}/{} accesses in {}; \
                 re-run the same command to resume",
                workload.name(),
                design.name(),
                trace.len(),
                snapshot_path.display(),
            );
        }
    }
    Ok(())
}

fn run_serve(p: Parsed) -> Result<(), String> {
    let state_dir = p.last(&["--state", "--resume"]).unwrap_or("serve-state");
    let jobs = p.get("--jobs")?;
    interrupt::install();
    let server = Server::new(ServerOpts {
        state_dir: PathBuf::from(state_dir),
        workers: jobs
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(2, |n| n.get())),
        socket: p.get("--socket")?,
        resume: p.on("--resume"),
    })?;
    server.run()
}
