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

use cosmos_serve::checkpoint::{
    build_trace, refuse_unsavable, run_checkpointed, CheckpointRun, CkptOutcome,
};
use cosmos_serve::server::{sim_result_doc, Server, ServerOpts};
use cosmos_serve::{interrupt, snapshot};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage:
  cosmos_serve ckpt --design D --workload W --accesses N --snapshot PATH
               [--json OUT] [--seed S] [--snapshot-every K]
               [--stop-after N] [--check]
  cosmos_serve serve [--state DIR] [--jobs N] [--socket PATH] [--resume DIR]
";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // `--help` asks for the usage, with or without a subcommand.
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let result = match argv.first().map(String::as_str) {
        Some("ckpt") => run_ckpt(&argv[1..]),
        Some("serve") => run_serve(&argv[1..]),
        _ => Err(format!("expected a subcommand\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// Pulls the value after a flag.
fn value(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<String, String> {
    it.next()
        .cloned()
        .ok_or_else(|| format!("{flag} needs a value"))
}

fn number(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<u64, String> {
    let v = value(it, flag)?;
    v.parse()
        .map_err(|_| format!("{flag} needs a number, got {v:?}"))
}

fn run_ckpt(args: &[String]) -> Result<(), String> {
    let mut design = None;
    let mut workload = None;
    let mut accesses = None;
    let mut seed: u64 = 42;
    let mut snapshot_path = None;
    let mut json_out: Option<PathBuf> = None;
    let mut snapshot_every: usize = 0;
    let mut stop_after: Option<u64> = None;
    let mut check = false;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--design" => design = Some(value(&mut it, "--design")?.parse()?),
            "--workload" => workload = Some(value(&mut it, "--workload")?.parse()?),
            "--accesses" => match number(&mut it, "--accesses")? {
                0 => return Err("--accesses must be positive".into()),
                n => accesses = Some(n as usize),
            },
            "--seed" => seed = number(&mut it, "--seed")?,
            "--snapshot" => snapshot_path = Some(PathBuf::from(value(&mut it, "--snapshot")?)),
            "--json" => json_out = Some(PathBuf::from(value(&mut it, "--json")?)),
            "--snapshot-every" => snapshot_every = number(&mut it, "--snapshot-every")? as usize,
            "--stop-after" => stop_after = Some(number(&mut it, "--stop-after")?),
            "--check" => check = true,
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    let design = design.ok_or("--design is required")?;
    let workload = workload.ok_or("--workload is required")?;
    let accesses = accesses.ok_or("--accesses is required")?;
    let snapshot_path = snapshot_path.ok_or("--snapshot is required")?;

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

fn run_serve(args: &[String]) -> Result<(), String> {
    let mut state_dir = PathBuf::from("serve-state");
    let mut jobs: usize = std::thread::available_parallelism().map_or(2, |n| n.get());
    let mut socket = None;
    let mut resume = false;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--state" => state_dir = PathBuf::from(value(&mut it, "--state")?),
            "--jobs" => {
                let n = number(&mut it, "--jobs")?;
                if n == 0 {
                    return Err("--jobs must be positive".into());
                }
                jobs = n as usize;
            }
            "--socket" => socket = Some(PathBuf::from(value(&mut it, "--socket")?)),
            "--resume" => {
                state_dir = PathBuf::from(value(&mut it, "--resume")?);
                resume = true;
            }
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }

    interrupt::install();
    let server = Server::new(ServerOpts {
        state_dir,
        workers: jobs,
        socket,
        resume,
    })?;
    server.run()
}
