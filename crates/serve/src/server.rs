//! The long-running experiment server.
//!
//! A bounded worker pool drains a FIFO [`WorkQueue`] of job ids; the job
//! table (and its on-disk `manifest.json`, rewritten atomically on every
//! transition) is the source of truth for lifecycle state. Requests
//! arrive as NDJSON lines on stdin and, optionally, on a Unix socket;
//! lifecycle events stream to stdout.
//!
//! Shutdown discipline: an explicit `shutdown` op (or SIGINT) closes the
//! queue, preempts in-flight sim jobs into their snapshots, lets
//! in-flight figure jobs finish (their pipelines are not preemptible),
//! and persists everything else as queued. A later `--resume DIR` server
//! re-enqueues exactly the unfinished jobs — completed jobs are never
//! re-run.

// Artifact identity is untouched by the threads below: each job runs the
// same single-threaded pipeline as its binary, only job *scheduling* is
// concurrent — gated byte-for-byte by the serve smokes in scripts/check.sh
// and the server unit tests.
#![expect(
    clippy::disallowed_methods,
    reason = "the serve daemon is inherently threaded (worker pool, stdin pump, socket listener)"
)]

use crate::checkpoint::{
    build_trace, refuse_unsavable, run_checkpointed, CheckpointRun, CkptOutcome,
};
use crate::protocol::{error_reply, parse_request, JobSpec, Request};
use crate::queue::WorkQueue;
use crate::snapshot::write_atomic;
use cosmos_common::json::{codec, json, Value};
use cosmos_common::stats::Counters;
use cosmos_core::{SimConfig, SimStats};
use cosmos_experiments::{emit_json, figures, Args};
use cosmos_telemetry::Telemetry;
use cosmos_workloads::Workload;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Manifest format version.
const MANIFEST_VERSION: u64 = 1;

/// How often the request loop polls the interrupt/stop latches while
/// stdin is quiet.
const POLL: Duration = Duration::from_millis(100);

/// The most worker threads a server starts (`cosmos --cores` has the same
/// bound): the pool is spawned all at once, so an unbounded count would
/// ask the OS for that many threads.
pub const MAX_WORKERS: usize = 256;

/// Server construction options.
pub struct ServerOpts {
    /// State directory: manifest, artifacts, snapshots.
    pub state_dir: PathBuf,
    /// Worker threads, at most [`MAX_WORKERS`] (0 means 1).
    pub workers: usize,
    /// Optional Unix socket to also accept requests on.
    pub socket: Option<PathBuf>,
    /// Load an existing manifest from the state directory and re-enqueue
    /// its unfinished jobs.
    pub resume: bool,
}

/// One job's lifecycle state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Waiting in the queue.
    Queued,
    /// Claimed by a worker.
    Running,
    /// Finished; artifact on disk.
    Done,
    /// Stopped early; snapshot on disk, resumable.
    Preempted,
    /// Errored; see the manifest's `error`.
    Failed,
}

impl JobState {
    fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Preempted => "preempted",
            JobState::Failed => "failed",
        }
    }

    fn from_str(s: &str) -> Result<Self, String> {
        Ok(match s {
            "queued" => JobState::Queued,
            "running" => JobState::Running,
            "done" => JobState::Done,
            "preempted" => JobState::Preempted,
            "failed" => JobState::Failed,
            other => return Err(format!("unknown job state {other:?}")),
        })
    }
}

/// One row of the job table.
#[derive(Clone, Debug)]
struct JobRecord {
    id: u64,
    spec: JobSpec,
    state: JobState,
    error: Option<String>,
}

/// The server. Shared across the request loop, the workers, and the
/// socket handlers via `Arc`.
pub struct Server {
    state_dir: PathBuf,
    workers: usize,
    socket: Option<PathBuf>,
    jobs: Mutex<Vec<JobRecord>>,
    idle: Condvar,
    queue: WorkQueue<u64>,
    next_id: AtomicU64,
    /// Set on shutdown/SIGINT: cancels in-flight sim jobs and unblocks
    /// `wait`ers.
    stop_work: AtomicBool,
    /// Set when any channel requested shutdown (the request loop exits on
    /// its next poll tick).
    stop_requested: AtomicBool,
    /// Event sink (stdout in production; a shared buffer in tests).
    events: Mutex<Box<dyn Write + Send>>,
}

impl Server {
    /// Creates the server, its state directory, and — with
    /// [`ServerOpts::resume`] — reloads the manifest, re-enqueuing every
    /// job that is not `done`/`failed`.
    pub fn new(opts: ServerOpts) -> Result<Arc<Self>, String> {
        Self::with_events(opts, Box::new(std::io::stdout()))
    }

    /// [`Server::new`] with an explicit event sink.
    ///
    /// Fails, before touching the state directory, if
    /// [`ServerOpts::workers`] exceeds [`MAX_WORKERS`].
    pub fn with_events(
        opts: ServerOpts,
        events: Box<dyn Write + Send>,
    ) -> Result<Arc<Self>, String> {
        if opts.workers > MAX_WORKERS {
            return Err(format!(
                "{} workers requested; at most {MAX_WORKERS} are allowed",
                opts.workers
            ));
        }
        std::fs::create_dir_all(&opts.state_dir)
            .map_err(|e| format!("create state dir {}: {e}", opts.state_dir.display()))?;
        let workers = opts.workers.max(1);
        let server = Arc::new(Self {
            state_dir: opts.state_dir,
            workers,
            socket: opts.socket,
            jobs: Mutex::new(Vec::new()),
            idle: Condvar::new(),
            queue: WorkQueue::default(),
            next_id: AtomicU64::new(1),
            stop_work: AtomicBool::new(false),
            stop_requested: AtomicBool::new(false),
            events: Mutex::new(events),
        });
        if opts.resume {
            server.load_manifest()?;
        }
        Ok(server)
    }

    fn manifest_path(&self) -> PathBuf {
        self.state_dir.join("manifest.json")
    }

    fn artifact_name(id: u64) -> String {
        format!("job-{id}.json")
    }

    fn snapshot_path(&self, id: u64) -> PathBuf {
        self.state_dir.join(format!("job-{id}.snap.json"))
    }

    // ---- manifest --------------------------------------------------------

    fn write_manifest_locked(&self, jobs: &[JobRecord]) {
        let rows: Vec<Value> = jobs
            .iter()
            .map(|j| {
                json!({
                    "id": j.id,
                    "spec": j.spec.to_json(),
                    "state": j.state.as_str(),
                    "artifact": match j.state {
                        JobState::Done => Value::from(Self::artifact_name(j.id)),
                        _ => Value::Null,
                    },
                    "error": match &j.error {
                        Some(e) => Value::from(e.as_str()),
                        None => Value::Null,
                    },
                })
            })
            .collect();
        let doc = json!({
            "format": "cosmos-serve-manifest",
            "version": MANIFEST_VERSION,
            "next_id": self.next_id.load(Ordering::SeqCst),
            "jobs": Value::Array(rows),
        });
        let mut text = doc.pretty();
        text.push('\n');
        if let Err(e) = write_atomic(&self.manifest_path(), text.as_bytes()) {
            eprintln!("warning: manifest write failed: {e}");
        }
    }

    fn load_manifest(&self) -> Result<(), String> {
        let path = self.manifest_path();
        if !path.exists() {
            return Ok(()); // fresh directory: nothing to resume
        }
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("read manifest {}: {e}", path.display()))?;
        let v = cosmos_common::json::parse(&text)
            .map_err(|e| format!("parse manifest {}: {e}", path.display()))?;
        if codec::str_field(&v, "format")? != "cosmos-serve-manifest" {
            return Err("not a cosmos-serve manifest".into());
        }
        let version = codec::u64_field(&v, "version")?;
        if version != MANIFEST_VERSION {
            return Err(format!(
                "manifest version {version} is not supported (this build reads {MANIFEST_VERSION})"
            ));
        }
        self.next_id
            .store(codec::u64_field(&v, "next_id")?, Ordering::SeqCst);
        let rows = codec::field(&v, "jobs")?
            .as_array()
            .ok_or("manifest `jobs` must be an array")?;
        let mut jobs = self.jobs.lock().expect("jobs poisoned");
        for row in rows {
            let id = codec::u64_field(row, "id")?;
            let spec = JobSpec::from_json(codec::field(row, "spec")?)?;
            let state = JobState::from_str(codec::str_field(row, "state")?)?;
            // Unfinished work goes back on the queue. A job that was
            // `running` when the old server died restarts from its last
            // snapshot (sim) or from scratch (figure — deterministic, so
            // the artifact is the same either way).
            let state = match state {
                JobState::Done | JobState::Failed => state,
                // Preempted jobs go back to queued here too: the snapshot
                // file (not the manifest state) is what drives the resume,
                // and `wait` must count them as pending work again.
                JobState::Preempted | JobState::Queued | JobState::Running => {
                    self.queue
                        .push(id)
                        .map_err(|_| "queue closed during resume")?;
                    JobState::Queued
                }
            };
            jobs.push(JobRecord {
                id,
                spec,
                state,
                error: None,
            });
        }
        self.write_manifest_locked(&jobs);
        Ok(())
    }

    // ---- request handling ------------------------------------------------

    /// Enqueues a validated job; returns its id. A sim job that
    /// checkpoints periodically is refused up front when its design cannot
    /// be snapshotted.
    pub fn submit(&self, spec: JobSpec) -> Result<u64, String> {
        if let JobSpec::Sim {
            design,
            accesses,
            snapshot_every,
            ..
        } = &spec
        {
            let config = SimConfig::paper_default(*design);
            refuse_unsavable(&config, *accesses, *snapshot_every, None)?;
        }
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        let mut jobs = self.jobs.lock().expect("jobs poisoned");
        jobs.push(JobRecord {
            id,
            spec,
            state: JobState::Queued,
            error: None,
        });
        self.write_manifest_locked(&jobs);
        drop(jobs);
        self.queue
            .push(id)
            .map_err(|_| "server is shutting down".to_string())?;
        Ok(id)
    }

    /// Blocks until no job is queued or running (or shutdown begins).
    pub fn wait_idle(&self) {
        let mut jobs = self.jobs.lock().expect("jobs poisoned");
        loop {
            let busy = jobs
                .iter()
                .any(|j| matches!(j.state, JobState::Queued | JobState::Running));
            if !busy || self.stop_work.load(Ordering::SeqCst) {
                return;
            }
            jobs = self.idle.wait(jobs).expect("jobs poisoned");
        }
    }

    fn status_value(&self) -> Value {
        let jobs = self.jobs.lock().expect("jobs poisoned");
        let rows: Vec<Value> = jobs
            .iter()
            .map(|j| {
                json!({
                    "id": j.id,
                    "label": j.spec.label(),
                    "state": j.state.as_str(),
                })
            })
            .collect();
        json!({ "ok": true, "jobs": Value::Array(rows) })
    }

    /// Handles one request line; the reply goes to `reply`. Returns
    /// `true` when the request was `shutdown`.
    pub fn handle_line(&self, line: &str, reply: &mut dyn Write) -> bool {
        let (response, stop) = match parse_request(line) {
            Err(e) => (error_reply(&e), false),
            Ok(Request::Submit(spec)) => match self.submit(spec) {
                Ok(id) => (json!({ "ok": true, "id": id }), false),
                Err(e) => (error_reply(&e), false),
            },
            Ok(Request::Status) => (self.status_value(), false),
            Ok(Request::Wait) => {
                self.wait_idle();
                let done = self
                    .jobs
                    .lock()
                    .expect("jobs poisoned")
                    .iter()
                    .filter(|j| j.state == JobState::Done)
                    .count();
                (json!({ "ok": true, "completed": done }), false)
            }
            Ok(Request::Shutdown) => (json!({ "ok": true, "stopping": true }), true),
        };
        let mut text = response.to_string();
        text.push('\n');
        let _ = reply.write_all(text.as_bytes());
        let _ = reply.flush();
        if stop {
            self.request_stop();
        }
        stop
    }

    /// Begins shutdown: closes the queue and cancels in-flight sim jobs.
    pub fn request_stop(&self) {
        self.stop_requested.store(true, Ordering::SeqCst);
        self.stop_work.store(true, Ordering::SeqCst);
        self.queue.close();
        self.idle.notify_all();
    }

    // ---- execution -------------------------------------------------------

    fn event(&self, v: Value) {
        let mut out = self.events.lock().expect("events poisoned");
        let mut text = v.to_string();
        text.push('\n');
        let _ = out.write_all(text.as_bytes());
        let _ = out.flush();
    }

    fn set_state(&self, id: u64, state: JobState, error: Option<String>) {
        let mut jobs = self.jobs.lock().expect("jobs poisoned");
        if let Some(j) = jobs.iter_mut().find(|j| j.id == id) {
            j.state = state;
            j.error = error;
        }
        self.write_manifest_locked(&jobs);
        drop(jobs);
        self.idle.notify_all();
    }

    fn spec_of(&self, id: u64) -> Option<JobSpec> {
        let jobs = self.jobs.lock().expect("jobs poisoned");
        jobs.iter().find(|j| j.id == id).map(|j| j.spec.clone())
    }

    fn execute(&self, id: u64) {
        let Some(spec) = self.spec_of(id) else {
            return; // manifest/queue mismatch; nothing to do
        };
        self.set_state(id, JobState::Running, None);
        self.event(json!({
            "event": "start",
            "id": id,
            "label": spec.label(),
            "job": spec.to_json(),
        }));
        let outcome = match &spec {
            JobSpec::Figure {
                figure,
                accesses,
                seed,
            } => self.run_figure(id, figure, *accesses, *seed),
            JobSpec::Sim {
                design,
                workload,
                accesses,
                seed,
                snapshot_every,
            } => self.run_sim(
                id,
                SimConfig::paper_default(*design),
                *workload,
                *accesses,
                *seed,
                *snapshot_every,
            ),
        };
        match outcome {
            Ok(Exec::Done { phases }) => {
                self.set_state(id, JobState::Done, None);
                self.event(json!({
                    "event": "done",
                    "id": id,
                    "label": spec.label(),
                    "artifact": Self::artifact_name(id),
                    "phases": phases,
                }));
            }
            Ok(Exec::Preempted { accesses_done }) => {
                self.set_state(id, JobState::Preempted, None);
                self.event(json!({
                    "event": "preempted",
                    "id": id,
                    "label": spec.label(),
                    "accesses_done": accesses_done,
                }));
            }
            Err(e) => {
                self.set_state(id, JobState::Failed, Some(e.clone()));
                self.event(json!({
                    "event": "failed",
                    "id": id,
                    "label": spec.label(),
                    "error": e,
                }));
            }
        }
    }

    fn run_figure(
        &self,
        id: u64,
        figure: &str,
        accesses: usize,
        seed: u64,
    ) -> Result<Exec, String> {
        let fig = figures::by_name(figure).ok_or_else(|| format!("unknown figure {figure:?}"))?;
        let artifact = self.state_dir.join(Self::artifact_name(id));
        let telemetry = Telemetry::in_memory();
        // `jobs: 1` — the server's worker pool is the unit of
        // parallelism; each figure runs its grid serially. Results are
        // order-deterministic regardless, so the artifact is
        // byte-identical to the standalone binary's.
        let args = Args {
            accesses,
            seed,
            large: false,
            sample: false,
            check: false,
            json: Some(artifact),
            jobs: 1,
            telemetry: telemetry.clone(),
        };
        let out = {
            let _run = telemetry.phase("figure");
            (fig.run)(&args)
        };
        emit_json(&args, fig.name, &out.json).map_err(|e| format!("write artifact: {e}"))?;
        let report = self.state_dir.join(format!("job-{id}.report.md"));
        std::fs::write(&report, &out.report).map_err(|e| format!("write report: {e}"))?;
        Ok(Exec::Done {
            phases: phase_summary_value(&telemetry),
        })
    }

    fn run_sim(
        &self,
        id: u64,
        config: SimConfig,
        workload: Workload,
        accesses: usize,
        seed: u64,
        snapshot_every: usize,
    ) -> Result<Exec, String> {
        let telemetry = Telemetry::in_memory();
        let trace = {
            let _t = telemetry.phase("trace_gen");
            build_trace(workload, accesses, seed)
        };
        let snapshot_path = self.snapshot_path(id);
        let run = CheckpointRun {
            config: &config,
            trace: &trace,
            snapshot_path: &snapshot_path,
            snapshot_every,
            stop_after: None,
            check: false,
        };
        let outcome = {
            let _s = telemetry.phase("sim");
            run_checkpointed(&run, &self.stop_work)?
        };
        match outcome {
            CkptOutcome::Completed { stats, .. } => {
                let doc = sim_result_doc(&config, workload, accesses, seed, &stats);
                let mut text = doc.pretty();
                text.push('\n');
                write_atomic(
                    &self.state_dir.join(Self::artifact_name(id)),
                    text.as_bytes(),
                )
                .map_err(|e| format!("write artifact: {e}"))?;
                Ok(Exec::Done {
                    phases: phase_summary_value(&telemetry),
                })
            }
            CkptOutcome::Preempted { accesses_done } => Ok(Exec::Preempted { accesses_done }),
        }
    }

    // ---- lifecycle -------------------------------------------------------

    /// Starts the worker pool.
    pub fn start_workers(self: &Arc<Self>) -> Vec<std::thread::JoinHandle<()>> {
        (0..self.workers)
            .map(|_| {
                let server = Arc::clone(self);
                std::thread::spawn(move || {
                    while let Some(id) = server.queue.pop() {
                        server.execute(id);
                    }
                })
            })
            .collect()
    }

    /// Runs the full request loop: stdin NDJSON plus the optional Unix
    /// socket, until `shutdown`, SIGINT, or stdin EOF (EOF drains the
    /// queue first — piping submissions with no explicit shutdown is the
    /// batch mode).
    pub fn run(self: &Arc<Self>) -> Result<(), String> {
        let workers = self.start_workers();
        if let Some(path) = self.socket.clone() {
            self.start_socket_listener(&path)?;
        }

        // Stdin arrives through a channel so the loop can poll the
        // interrupt latch while the pipe is quiet.
        let (tx, rx) = mpsc::channel::<String>();
        std::thread::spawn(move || {
            let stdin = std::io::stdin();
            for line in stdin.lock().lines() {
                let Ok(line) = line else { break };
                if tx.send(line).is_err() {
                    break;
                }
            }
        });

        let mut drain_first = false;
        loop {
            if crate::interrupt::interrupted() || self.stop_requested.load(Ordering::SeqCst) {
                break;
            }
            match rx.recv_timeout(POLL) {
                Ok(line) => {
                    if line.trim().is_empty() {
                        continue;
                    }
                    let mut stdout = std::io::stdout();
                    if self.handle_line(&line, &mut stdout) {
                        break;
                    }
                }
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => {
                    drain_first = true;
                    break;
                }
            }
        }
        if drain_first {
            self.wait_idle();
        }
        self.request_stop();
        for w in workers {
            let _ = w.join();
        }
        // Final manifest: whatever is still queued stays queued, ready
        // for `--resume`.
        let jobs = self.jobs.lock().expect("jobs poisoned");
        self.write_manifest_locked(&jobs);
        drop(jobs);
        if let Some(path) = &self.socket {
            let _ = std::fs::remove_file(path);
        }
        Ok(())
    }

    fn start_socket_listener(self: &Arc<Self>, path: &Path) -> Result<(), String> {
        use std::os::unix::net::UnixListener;
        let _ = std::fs::remove_file(path);
        let listener =
            UnixListener::bind(path).map_err(|e| format!("bind socket {}: {e}", path.display()))?;
        let server = Arc::clone(self);
        std::thread::spawn(move || {
            for conn in listener.incoming() {
                let Ok(conn) = conn else { break };
                let server = Arc::clone(&server);
                std::thread::spawn(move || {
                    let Ok(read_half) = conn.try_clone() else {
                        return;
                    };
                    let mut write_half = conn;
                    for line in BufReader::new(read_half).lines() {
                        let Ok(line) = line else { break };
                        if line.trim().is_empty() {
                            continue;
                        }
                        if server.handle_line(&line, &mut write_half) {
                            break;
                        }
                    }
                });
            }
        });
        Ok(())
    }
}

/// A finished job execution.
enum Exec {
    Done { phases: Value },
    Preempted { accesses_done: u64 },
}

/// The aggregated phase timers as a JSON array (the `done` event's
/// `phases` field).
fn phase_summary_value(telemetry: &Telemetry) -> Value {
    let rows: Vec<Value> = telemetry
        .phase_summary()
        .into_iter()
        .map(
            |(name, calls, total_us)| json!({ "name": name, "calls": calls, "total_us": total_us }),
        )
        .collect();
    Value::Array(rows)
}

/// The result document of one checkpointed simulation. Shared by the
/// `ckpt` subcommand and serve-mode sim jobs so their artifacts are
/// byte-identical for identical requests.
pub fn sim_result_doc(
    config: &SimConfig,
    workload: Workload,
    accesses: usize,
    seed: u64,
    stats: &SimStats,
) -> Value {
    json!({
        "design": config.design.name(),
        "workload": workload.name(),
        "accesses": accesses,
        "seed": seed,
        "stats": stats.to_json(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosmos_core::Design;

    /// A `Write` sink tests can read back.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl SharedBuf {
        fn text(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cosmos_serve_test_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn test_server(dir: &Path, workers: usize, resume: bool) -> (Arc<Server>, SharedBuf) {
        let buf = SharedBuf::default();
        let server = Server::with_events(
            ServerOpts {
                state_dir: dir.to_path_buf(),
                workers,
                socket: None,
                resume,
            },
            Box::new(buf.clone()),
        )
        .unwrap();
        (server, buf)
    }

    fn shutdown(server: &Arc<Server>, workers: Vec<std::thread::JoinHandle<()>>) {
        server.request_stop();
        for w in workers {
            w.join().unwrap();
        }
        let jobs = server.jobs.lock().unwrap();
        server.write_manifest_locked(&jobs);
    }

    #[test]
    fn figure_job_artifact_matches_direct_run() {
        let dir = tmpdir("figure_artifact");
        let (server, events) = test_server(&dir, 2, false);
        let workers = server.start_workers();
        let mut reply = Vec::new();
        assert!(!server.handle_line(
            r#"{"op":"submit","job":{"type":"figure","figure":"fig02","accesses":5000,"seed":42}}"#,
            &mut reply,
        ));
        assert!(String::from_utf8_lossy(&reply).contains(r#""ok":true"#));
        server.wait_idle();
        shutdown(&server, workers);

        // The artifact must equal the figure pipeline run directly with
        // the same budget/seed (what the standalone binary writes).
        let artifact = std::fs::read_to_string(dir.join("job-1.json")).unwrap();
        let fig = figures::by_name("fig02").unwrap();
        let direct = dir.join("direct.json");
        let args = Args {
            accesses: 5000,
            seed: 42,
            large: false,
            sample: false,
            check: false,
            json: Some(direct.clone()),
            jobs: 2,
            telemetry: Telemetry::disabled(),
        };
        let out = (fig.run)(&args);
        emit_json(&args, "fig02", &out.json).unwrap();
        assert_eq!(artifact, std::fs::read_to_string(&direct).unwrap());

        let log = events.text();
        assert!(log.contains(r#""event":"start""#), "{log}");
        assert!(log.contains(r#""event":"done""#), "{log}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn figure_job_with_an_unwritable_artifact_fails_with_the_error() {
        let dir = tmpdir("figure_unwritable");
        // A directory where the artifact file goes makes the write fail.
        std::fs::create_dir_all(dir.join("job-1.json")).unwrap();
        let (server, events) = test_server(&dir, 1, false);
        let workers = server.start_workers();
        let mut reply = Vec::new();
        assert!(!server.handle_line(
            r#"{"op":"submit","job":{"type":"figure","figure":"table1"}}"#,
            &mut reply,
        ));
        server.wait_idle();
        shutdown(&server, workers);
        let log = events.text();
        assert!(log.contains(r#""event":"failed""#), "{log}");
        assert!(log.contains("write artifact"), "{log}");
        assert!(log.contains("job-1.json"), "{log}");
        let manifest = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
        assert!(manifest.contains(r#""state": "failed""#), "{manifest}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unsavable_checkpointing_sim_job_is_refused_at_submission() {
        let dir = tmpdir("sim_unsavable");
        let (server, _events) = test_server(&dir, 1, false);
        let mut reply = Vec::new();
        assert!(!server.handle_line(
            r#"{"op":"submit","job":{"type":"sim","design":"RMCC","workload":"bfs","accesses":4000,"snapshot_every":1000}}"#,
            &mut reply,
        ));
        let reply = String::from_utf8(reply).unwrap();
        assert!(
            reply.contains("cannot snapshot boxed policy `SHiP`"),
            "{reply}"
        );
        let manifest = std::fs::read_to_string(dir.join("manifest.json")).unwrap_or_default();
        assert!(!manifest.contains("RMCC"), "{manifest}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sim_job_completes_and_manifest_tracks_it() {
        let dir = tmpdir("sim_done");
        let (server, _events) = test_server(&dir, 1, false);
        let workers = server.start_workers();
        let id = server
            .submit(JobSpec::Sim {
                design: Design::MorphCtr,
                workload: "bfs".parse().unwrap(),
                accesses: 4000,
                seed: 7,
                snapshot_every: 0,
            })
            .unwrap();
        server.wait_idle();
        shutdown(&server, workers);
        assert!(dir.join(format!("job-{id}.json")).exists());
        let manifest = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
        assert!(manifest.contains(r#""state": "done""#), "{manifest}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_skips_done_jobs_and_finishes_queued_ones() {
        let dir = tmpdir("resume");
        // Session 1: one worker, two jobs; shut down before the second
        // can start by never starting workers for it. Simplest
        // deterministic split: run job 1 to completion, then submit job 2
        // and stop immediately.
        let (server, _) = test_server(&dir, 1, false);
        let workers = server.start_workers();
        server
            .submit(JobSpec::Sim {
                design: Design::MorphCtr,
                workload: "bfs".parse().unwrap(),
                accesses: 3000,
                seed: 7,
                snapshot_every: 0,
            })
            .unwrap();
        server.wait_idle();
        shutdown(&server, workers); // workers stopped; job 2 submitted below never runs
        let (server, _) = test_server(&dir, 1, true);
        server
            .submit(JobSpec::Sim {
                design: Design::MorphCtr,
                workload: "dfs".parse().unwrap(),
                accesses: 3000,
                seed: 7,
                snapshot_every: 0,
            })
            .unwrap();
        // Stop before any worker starts: job 2 persists as queued.
        server.request_stop();
        {
            let jobs = server.jobs.lock().unwrap();
            server.write_manifest_locked(&jobs);
        }

        // Session 2: resume. Job 1 must stay done (not re-enqueued); job
        // 2 must run to completion.
        let done_artifact = dir.join("job-1.json");
        let before = std::fs::metadata(&done_artifact)
            .unwrap()
            .modified()
            .unwrap();
        let (server, events) = test_server(&dir, 1, true);
        assert_eq!(server.queue.len(), 1, "only the queued job is re-enqueued");
        let workers = server.start_workers();
        server.wait_idle();
        shutdown(&server, workers);
        let after = std::fs::metadata(&done_artifact)
            .unwrap()
            .modified()
            .unwrap();
        assert_eq!(before, after, "done artifact must not be rewritten");
        assert!(dir.join("job-2.json").exists());
        let log = events.text();
        assert!(!log.contains(r#""id":1,"#), "job 1 must not re-run: {log}");
        let manifest = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
        assert_eq!(
            manifest.matches(r#""state": "done""#).count(),
            2,
            "{manifest}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_preempts_sim_job_and_resume_completes_it() {
        let dir = tmpdir("preempt");
        let (server, events) = test_server(&dir, 1, false);
        // Pre-set the cancel latch: the sim job preempts at its first
        // poll point, deterministically.
        server.stop_work.store(true, Ordering::SeqCst);
        let id = server
            .submit(JobSpec::Sim {
                design: Design::MorphCtr,
                workload: "bfs".parse().unwrap(),
                accesses: 20_000,
                seed: 7,
                snapshot_every: 0,
            })
            .unwrap();
        let workers = server.start_workers();
        server.queue.close();
        for w in workers {
            w.join().unwrap();
        }
        {
            let jobs = server.jobs.lock().unwrap();
            server.write_manifest_locked(&jobs);
        }
        assert!(events.text().contains(r#""event":"preempted""#));
        assert!(server.snapshot_path(id).exists());

        // Resume: the preempted job is re-enqueued and completes from
        // its snapshot.
        let (server, events) = test_server(&dir, 1, true);
        assert_eq!(server.queue.len(), 1);
        let workers = server.start_workers();
        server.wait_idle();
        shutdown(&server, workers);
        assert!(events.text().contains(r#""event":"done""#));
        let artifact = dir.join(format!("job-{id}.json"));

        // And the resumed artifact equals a fresh uninterrupted run.
        let fresh_dir = tmpdir("preempt_fresh");
        let (fresh, _) = test_server(&fresh_dir, 1, false);
        let fid = fresh
            .submit(JobSpec::Sim {
                design: Design::MorphCtr,
                workload: "bfs".parse().unwrap(),
                accesses: 20_000,
                seed: 7,
                snapshot_every: 0,
            })
            .unwrap();
        let workers = fresh.start_workers();
        fresh.wait_idle();
        shutdown(&fresh, workers);
        assert_eq!(
            std::fs::read_to_string(&artifact).unwrap(),
            std::fs::read_to_string(fresh_dir.join(format!("job-{fid}.json"))).unwrap(),
            "preempt+resume must be byte-identical to uninterrupted"
        );
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&fresh_dir);
    }

    #[test]
    fn status_and_bad_requests_reply_on_same_channel() {
        let dir = tmpdir("status");
        let (server, _) = test_server(&dir, 1, false);
        let mut reply = Vec::new();
        server.handle_line(r#"{"op":"status"}"#, &mut reply);
        let text = String::from_utf8(reply).unwrap();
        assert!(text.contains(r#""ok":true"#), "{text}");
        let mut reply = Vec::new();
        server.handle_line(r#"{"op":"nope"}"#, &mut reply);
        let text = String::from_utf8(reply).unwrap();
        assert!(text.contains(r#""ok":false"#), "{text}");
        assert!(text.contains("unknown op"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
