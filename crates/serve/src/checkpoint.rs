//! Checkpointed execution of one simulation: run a trace with periodic
//! snapshots, resume from an existing snapshot, preempt on a cancel
//! flag, and optionally run under the `cosmos-verify` oracles.
//!
//! The loop is exactly [`Simulator::run`]'s step loop with snapshot
//! points (and, under `check`, oracle boundaries) spliced between
//! accesses, so a completed checkpointed run's statistics are
//! byte-identical to an uninterrupted one — the snapshot-identity smoke
//! in `scripts/check.sh` `cmp`s the artifacts. Checked and unchecked runs
//! share that one loop: both snapshot periodically, poll the cancel flag
//! and honour `stop_after`.

use crate::snapshot::SimSnapshot;
use cosmos_common::state::State;
use cosmos_common::Trace;
use cosmos_core::{SimConfig, SimStats, Simulator};
use cosmos_verify::{CheckReport, Checker, CHECK_INTERVAL};
use cosmos_workloads::{TraceSpec, Workload};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};

/// How often the run loop polls the cancel flag, in accesses.
const CANCEL_POLL: usize = 1024;

/// One checkpointed simulation request.
pub struct CheckpointRun<'a> {
    /// Simulation configuration (fingerprinted into every snapshot).
    pub config: &'a SimConfig,
    /// The full trace; a resumed run skips the first `accesses_done`.
    pub trace: &'a Trace,
    /// Snapshot file. If it exists, the run resumes from it; checkpoints
    /// and preemption snapshots are written back to it atomically.
    pub snapshot_path: &'a Path,
    /// Checkpoint every this many accesses (0 = only on preemption).
    pub snapshot_every: usize,
    /// Stop (with a snapshot) once this many total accesses have been
    /// simulated — the "interrupted" leg of the identity smoke.
    pub stop_after: Option<u64>,
    /// Run the simulated portion under the `cosmos-verify` oracles, with
    /// shadow models primed from the restored state on resume. Oracle
    /// violations fail the run, whether it completes or is preempted.
    pub check: bool,
}

/// How a checkpointed run ended.
pub enum CkptOutcome {
    /// Ran to the end of the trace.
    Completed {
        /// Final cumulative statistics (identical to an uninterrupted run).
        /// Boxed: `SimStats` is large and the other variant is two words.
        stats: Box<SimStats>,
        /// Oracle report, when [`CheckpointRun::check`] was set.
        report: Option<CheckReport>,
    },
    /// Stopped early (cancel flag or `stop_after`); a snapshot at the
    /// stop point is on disk.
    Preempted {
        /// Accesses simulated so far, across all sessions of this run.
        accesses_done: u64,
    },
}

/// Refuses, before any work, a run of `accesses` that will surely write
/// a snapshot of a configuration no snapshot can hold (a boxed CTR policy
/// such as RMCC's SHiP, or a CTR prefetcher): one that checkpoints every
/// `snapshot_every > 0` accesses or stops after fewer than `accesses`.
/// The error is the one its first snapshot would fail with.
pub fn refuse_unsavable(
    config: &SimConfig,
    accesses: usize,
    snapshot_every: usize,
    stop_after: Option<u64>,
) -> Result<(), String> {
    let snapshots = snapshot_every > 0 || stop_after.is_some_and(|n| n < accesses as u64);
    match snapshots {
        true => State::savable(&Simulator::new(config.clone())),
        false => Ok(()),
    }
}

/// Executes one checkpointed run. See [`CheckpointRun`] for the knobs.
pub fn run_checkpointed(
    run: &CheckpointRun<'_>,
    cancel: &AtomicBool,
) -> Result<CkptOutcome, String> {
    let mut sim = Simulator::new(run.config.clone());
    let mut done: u64 = 0;
    if run.snapshot_path.exists() {
        let snap = SimSnapshot::read(run.snapshot_path)?;
        snap.restore_into(&mut sim)?;
        done = snap.accesses_done;
    }
    let total = run.trace.len() as u64;
    if done > total {
        return Err(format!(
            "snapshot is {done} accesses in, but the trace has only {total}; \
             wrong trace for this snapshot?"
        ));
    }
    let target = run.stop_after.map_or(total, |n| n.clamp(done, total));
    let mut checker = run
        .check
        .then(|| Checker::attach(run.config, &mut sim))
        .transpose()?;

    let mut since_snapshot = 0usize;
    for (i, access) in run.trace.as_slice()[done as usize..target as usize]
        .iter()
        .enumerate()
    {
        sim.step(access);
        done += 1;
        since_snapshot += 1;
        if let Some(checker) = &mut checker {
            if (i + 1) % CHECK_INTERVAL == 0 {
                checker.boundary(&sim);
            }
        }
        if done < target && run.snapshot_every > 0 && since_snapshot >= run.snapshot_every {
            write_snapshot(&sim, done, run.snapshot_path)?;
            since_snapshot = 0;
        }
        if (i + 1) % CANCEL_POLL == 0 && cancel.load(Ordering::Relaxed) {
            break;
        }
    }
    let report = checker.map(|c| c.finish(&sim));
    if let Some(report) = report.as_ref().filter(|r| !r.is_clean()) {
        return Err(format!("oracle violations:\n{}", report.summary()));
    }
    if done < total {
        // Cancelled, or stop_after cut the run short: leave a snapshot at
        // the stop point.
        write_snapshot(&sim, done, run.snapshot_path)?;
        return Ok(CkptOutcome::Preempted {
            accesses_done: done,
        });
    }
    Ok(CkptOutcome::Completed {
        stats: Box::new(sim.finalize()),
        report,
    })
}

fn write_snapshot(sim: &Simulator, done: u64, path: &Path) -> Result<(), String> {
    SimSnapshot::capture(sim, done)?
        .write_atomic(path)
        .map_err(|e| format!("write snapshot: {e}"))
}

/// Builds the trace for a named sim job: `workload` at `accesses` under
/// the paper-default spec with `seed`.
pub fn build_trace(workload: Workload, accesses: usize, seed: u64) -> Trace {
    workload.generate(&TraceSpec::paper_default(accesses, seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosmos_common::stats::Counters;
    use cosmos_core::Design;

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("cosmos_ckpt_test_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn stats_doc(stats: &SimStats) -> String {
        stats.to_json().to_string()
    }

    #[test]
    fn unsavable_runs_are_refused_only_when_they_will_snapshot() {
        let rmcc = SimConfig::paper_default(Design::Rmcc);
        for (every, stop) in [(1000, None), (0, Some(500))] {
            let err = refuse_unsavable(&rmcc, 4000, every, stop).unwrap_err();
            assert_eq!(err, "cannot snapshot boxed policy `SHiP`");
        }
        // No periodic snapshot and no early stop: nothing to refuse.
        for stop in [None, Some(4000), Some(9000)] {
            refuse_unsavable(&rmcc, 4000, 0, stop).unwrap();
        }
        let mut prefetching = SimConfig::paper_default(Design::MorphCtr);
        prefetching.ctr_prefetcher = cosmos_cache::PrefetcherKind::NextLine;
        let err = refuse_unsavable(&prefetching, 4000, 1000, None).unwrap_err();
        assert!(err.contains("prefetcher"), "{err}");
        refuse_unsavable(&SimConfig::paper_default(Design::Cosmos), 4000, 1000, None).unwrap();
    }

    #[test]
    fn stop_and_resume_matches_uninterrupted() {
        let dir = tmpdir("stop_resume");
        let snap = dir.join("run.snap.json");
        let config = SimConfig::paper_default(Design::Cosmos);
        let trace = build_trace("bfs".parse().unwrap(), 8_000, 11);
        let cancel = AtomicBool::new(false);

        // Uninterrupted reference (no snapshot file → fresh run).
        let reference = {
            let other = dir.join("ref.snap.json");
            let run = CheckpointRun {
                config: &config,
                trace: &trace,
                snapshot_path: &other,
                snapshot_every: 0,
                stop_after: None,
                check: false,
            };
            match run_checkpointed(&run, &cancel).unwrap() {
                CkptOutcome::Completed { stats, .. } => stats,
                CkptOutcome::Preempted { .. } => panic!("reference preempted"),
            }
        };

        // Interrupted leg: stop at half, then resume to the end.
        let half = trace.len() as u64 / 2;
        let leg1 = CheckpointRun {
            config: &config,
            trace: &trace,
            snapshot_path: &snap,
            snapshot_every: 0,
            stop_after: Some(half),
            check: false,
        };
        match run_checkpointed(&leg1, &cancel).unwrap() {
            CkptOutcome::Preempted { accesses_done } => assert_eq!(accesses_done, half),
            CkptOutcome::Completed { .. } => panic!("leg1 should have stopped"),
        }
        let leg2 = CheckpointRun {
            stop_after: None,
            ..leg1
        };
        let resumed = match run_checkpointed(&leg2, &cancel).unwrap() {
            CkptOutcome::Completed { stats, .. } => stats,
            CkptOutcome::Preempted { .. } => panic!("leg2 should have finished"),
        };
        assert_eq!(stats_doc(&resumed), stats_doc(&reference));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checked_resume_is_clean_and_identical() {
        let dir = tmpdir("checked_resume");
        let snap = dir.join("run.snap.json");
        let config = SimConfig::paper_default(Design::MorphCtr);
        let trace = build_trace("pr".parse().unwrap(), 6_000, 3);
        let cancel = AtomicBool::new(false);

        let reference = {
            let other = dir.join("ref.snap.json");
            let run = CheckpointRun {
                config: &config,
                trace: &trace,
                snapshot_path: &other,
                snapshot_every: 0,
                stop_after: None,
                check: false,
            };
            match run_checkpointed(&run, &cancel).unwrap() {
                CkptOutcome::Completed { stats, .. } => stats,
                _ => panic!(),
            }
        };

        let half = trace.len() as u64 / 2;
        let leg1 = CheckpointRun {
            config: &config,
            trace: &trace,
            snapshot_path: &snap,
            snapshot_every: 0,
            stop_after: Some(half),
            check: false,
        };
        assert!(matches!(
            run_checkpointed(&leg1, &cancel).unwrap(),
            CkptOutcome::Preempted { .. }
        ));
        let leg2 = CheckpointRun {
            stop_after: None,
            check: true,
            ..leg1
        };
        let (stats, report) = match run_checkpointed(&leg2, &cancel).unwrap() {
            CkptOutcome::Completed { stats, report } => (stats, report.unwrap()),
            _ => panic!("checked leg should complete"),
        };
        assert!(report.is_clean(), "{}", report.summary());
        assert_eq!(stats_doc(&stats), stats_doc(&reference));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancel_flag_preempts_with_resumable_snapshot() {
        let dir = tmpdir("cancel");
        let snap = dir.join("run.snap.json");
        let config = SimConfig::paper_default(Design::MorphCtr);
        let trace = build_trace("dfs".parse().unwrap(), 9_000, 5);

        let reference = {
            let cancel = AtomicBool::new(false);
            let run = CheckpointRun {
                config: &config,
                trace: &trace,
                snapshot_path: &dir.join("ref.snap.json"),
                snapshot_every: 0,
                stop_after: None,
                check: false,
            };
            match run_checkpointed(&run, &cancel).unwrap() {
                CkptOutcome::Completed { stats, .. } => stats,
                _ => panic!(),
            }
        };

        // Cancel pre-set: the run preempts at the first poll point.
        let cancel = AtomicBool::new(true);
        let leg1 = CheckpointRun {
            config: &config,
            trace: &trace,
            snapshot_path: &snap,
            snapshot_every: 0,
            stop_after: None,
            check: false,
        };
        let at = match run_checkpointed(&leg1, &cancel).unwrap() {
            CkptOutcome::Preempted { accesses_done } => accesses_done,
            _ => panic!("should preempt"),
        };
        assert!(at > 0 && at < trace.len() as u64);

        let cancel = AtomicBool::new(false);
        let resumed = match run_checkpointed(&leg1, &cancel).unwrap() {
            CkptOutcome::Completed { stats, .. } => stats,
            _ => panic!("resume should complete"),
        };
        assert_eq!(stats_doc(&resumed), stats_doc(&reference));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn periodic_snapshots_leave_latest_resume_point() {
        let dir = tmpdir("periodic");
        let snap = dir.join("run.snap.json");
        let config = SimConfig::paper_default(Design::MorphCtr);
        let trace = build_trace("bfs".parse().unwrap(), 5_000, 9);
        let cancel = AtomicBool::new(false);
        let run = CheckpointRun {
            config: &config,
            trace: &trace,
            snapshot_path: &snap,
            snapshot_every: 1_000,
            stop_after: None,
            check: false,
        };
        match run_checkpointed(&run, &cancel).unwrap() {
            CkptOutcome::Completed { .. } => {}
            _ => panic!(),
        }
        // The last periodic checkpoint is on disk and resumable.
        let on_disk = SimSnapshot::read(&snap).unwrap();
        assert!(on_disk.accesses_done >= 1_000);
        assert!(on_disk.restore(&config).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The uninterrupted, unchecked statistics of `trace` under `config`.
    fn reference_stats(config: &SimConfig, trace: &Trace, dir: &Path) -> Box<SimStats> {
        let run = CheckpointRun {
            config,
            trace,
            snapshot_path: &dir.join("ref.snap.json"),
            snapshot_every: 0,
            stop_after: None,
            check: false,
        };
        match run_checkpointed(&run, &AtomicBool::new(false)).unwrap() {
            CkptOutcome::Completed { stats, .. } => stats,
            CkptOutcome::Preempted { .. } => panic!("reference preempted"),
        }
    }

    #[test]
    fn checked_run_writes_periodic_snapshots() {
        let dir = tmpdir("checked_periodic");
        let snap = dir.join("run.snap.json");
        let config = SimConfig::paper_default(Design::Cosmos);
        let trace = build_trace("bfs".parse().unwrap(), 5_000, 9);
        let run = CheckpointRun {
            config: &config,
            trace: &trace,
            snapshot_path: &snap,
            snapshot_every: 1_000,
            stop_after: None,
            check: true,
        };
        match run_checkpointed(&run, &AtomicBool::new(false)).unwrap() {
            CkptOutcome::Completed { report, .. } => assert!(report.unwrap().is_clean()),
            CkptOutcome::Preempted { .. } => panic!("should complete"),
        }
        let on_disk = SimSnapshot::read(&snap).expect("checked run left a snapshot");
        assert!(on_disk.accesses_done >= 1_000);
        assert!(on_disk.restore(&config).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancel_flag_preempts_a_checked_run() {
        let dir = tmpdir("checked_cancel");
        let snap = dir.join("run.snap.json");
        let config = SimConfig::paper_default(Design::MorphCtr);
        let trace = build_trace("dfs".parse().unwrap(), 9_000, 5);
        let run = CheckpointRun {
            config: &config,
            trace: &trace,
            snapshot_path: &snap,
            snapshot_every: 0,
            stop_after: None,
            check: true,
        };
        let at = match run_checkpointed(&run, &AtomicBool::new(true)).unwrap() {
            CkptOutcome::Preempted { accesses_done } => accesses_done,
            CkptOutcome::Completed { .. } => panic!("a set cancel flag must preempt"),
        };
        assert_eq!(at, CANCEL_POLL as u64, "preempts at the first poll point");
        assert_eq!(SimSnapshot::read(&snap).unwrap().accesses_done, at);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checked_resume_after_checked_preemption_matches_uninterrupted() {
        let dir = tmpdir("checked_preempt_resume");
        let snap = dir.join("run.snap.json");
        let config = SimConfig::paper_default(Design::Cosmos);
        let trace = build_trace("pr".parse().unwrap(), 12_000, 3);
        let reference = reference_stats(&config, &trace, &dir);

        let run = CheckpointRun {
            config: &config,
            trace: &trace,
            snapshot_path: &snap,
            snapshot_every: 0,
            stop_after: None,
            check: true,
        };
        assert!(matches!(
            run_checkpointed(&run, &AtomicBool::new(true)).unwrap(),
            CkptOutcome::Preempted { .. }
        ));
        let (stats, report) = match run_checkpointed(&run, &AtomicBool::new(false)).unwrap() {
            CkptOutcome::Completed { stats, report } => (stats, report.unwrap()),
            CkptOutcome::Preempted { .. } => panic!("resume should complete"),
        };
        assert!(report.is_clean(), "{}", report.summary());
        assert!(
            report.observer_events > 0,
            "the resumed oracles saw nothing"
        );
        assert_eq!(stats_doc(&stats), stats_doc(&reference));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
