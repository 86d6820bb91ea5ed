//! Observability for the COSMOS simulator.
//!
//! Telemetry has two halves:
//!
//! - the **pipeline** — a cheap, cloneable [`Telemetry`] handle threaded
//!   through `SimConfig` and the experiment runner. It holds what a whole
//!   run shares: the output directory, the epoch, wall-clock **phase
//!   timers** ([`phase`]) and the **stream table**, one entry per grid job
//!   ([`Telemetry::scope`]);
//! - the **probe** — one [`Probe`] per simulation ([`Telemetry::probe`]),
//!   shared by that simulation's components on the one thread that runs
//!   them. It owns the job's flight recorder ([`recorder`]) of sampled
//!   typed events, its per-set CTR-cache **heatmaps** ([`heatmap`]) and
//!   its Merkle-walk and DRAM-queue histograms ([`metrics`]) as plain
//!   fields, so a hook takes no lock and touches no atomic. The probe
//!   hands all of it to the stream table once, when the simulation drops
//!   it. Event counts reach the table once per job too, from the job's
//!   final statistics, as `<job label>/<stat leaf>` counters
//!   ([`Telemetry::publish_counters`]).
//!
//! The **exporters** ([`export`]) then read plain data: Chrome trace-event
//! JSON, heatmap JSON and a plain-text metrics dump, all serialized via
//! `cosmos_common::json`.
//!
//! A disabled handle (the default — [`Telemetry::disabled`]) carries a
//! `None`, and so does every probe made from it: each hook returns after
//! that single branch — no clock reads, no allocation, no output.
//! Simulation results must be byte-identical with telemetry on or off;
//! hooks observe, never steer.

pub mod export;
pub mod heatmap;
pub mod metrics;
pub mod phase;
mod probe;
pub mod recorder;

pub use probe::Probe;

use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
#[expect(
    clippy::disallowed_types,
    reason = "the pipeline's two locks guard phase spans and the stream table; no per-access \
              hook takes either"
)]
use std::sync::Mutex;
use std::sync::{Arc, MutexGuard};
#[expect(
    clippy::disallowed_types,
    reason = "wall-clock phase timers and event stamps are diagnostics only; they never reach \
              simulated state"
)]
use std::time::Instant;

use cosmos_common::json::Value;

use export::RecorderStats;
use heatmap::CtrHeatmap;
use metrics::Metric;
use phase::{PhaseGuard, PhaseGuardInner, PhaseSpan};
use recorder::{StreamRecorder, TimedEvent};

/// Tuning knobs for an enabled telemetry pipeline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TelemetryConfig {
    /// Record every Nth *dense* candidate event (accesses, DRAM, Merkle
    /// walks, RL actions) into the flight recorder. *Rare* events (CTR
    /// evictions, speculation issue/kill) are orders of magnitude less
    /// frequent; sampling them at the dense rate would all but erase them,
    /// so every one is kept.
    pub sample_every: u64,
    /// Per-stream flight-recorder capacity in events.
    pub recorder_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self {
            sample_every: 64,
            recorder_capacity: 1 << 16,
        }
    }
}

/// The metrics the built-in hooks feed, listed (as zeros) in every dump
/// even for runs that never reach them: distributions, and the one event
/// the simulation statistics cannot see.
const MERKLE_DEPTH: &str = "secure.merkle.depth";
const MERKLE_FETCHED: &str = "secure.merkle.fetched";
const DRAM_QUEUE_DELAY: &str = "dram.queue_delay_cycles";
const DRAM_QUEUE_CLAMPED: &str = "sim.dram.queue_clamped";

/// One grid job's published telemetry. Empty until the job's probe drops.
struct StreamEntry {
    label: String,
    recorder: Option<StreamRecorder>,
    heatmap: Option<CtrHeatmap>,
}

/// Every stream, and every metric by name.
struct Table {
    streams: Vec<StreamEntry>,
    metrics: BTreeMap<String, Metric>,
}

impl Table {
    /// Adds `metric` into the one named `name`.
    fn add(&mut self, name: &str, metric: Metric) {
        match self.metrics.get_mut(name) {
            Some(m) => m.merge(&metric),
            None => {
                self.metrics.insert(name.to_string(), metric);
            }
        }
    }

    /// Appends a stream labelled `label`; returns its id.
    fn push(&mut self, label: String) -> u16 {
        assert!(
            self.streams.len() <= usize::from(u16::MAX),
            "too many streams"
        );
        self.streams.push(StreamEntry {
            label,
            recorder: None,
            heatmap: None,
        });
        (self.streams.len() - 1) as u16
    }
}

#[expect(
    clippy::disallowed_types,
    reason = "the pipeline's two locks guard phase spans and the stream table, and its epoch is \
              a wall-clock diagnostic: none is reached per access"
)]
struct Shared {
    config: TelemetryConfig,
    dir: Option<PathBuf>,
    epoch: Instant,
    phases: Arc<Mutex<Vec<PhaseSpan>>>,
    table: Mutex<Table>,
}

impl Shared {
    fn table(&self) -> MutexGuard<'_, Table> {
        self.table.lock().expect("telemetry mutex poisoned")
    }

    fn phases(&self) -> Vec<PhaseSpan> {
        self.phases
            .lock()
            .expect("telemetry mutex poisoned")
            .clone()
    }
}

/// The telemetry pipeline handle threaded through `SimConfig` and the
/// runner.
///
/// Cloning is cheap (an `Option<Arc>` and a stream id). A handle is
/// either *disabled* — everything it does is one branch and a return — or
/// backed by shared state. [`Telemetry::scope`] derives per-grid-job
/// handles ("streams") so concurrent jobs tag their phases, events and
/// heatmaps distinctly, and [`Telemetry::probe`] makes the per-simulation
/// [`Probe`] the components record through.
#[derive(Clone, Default)]
pub struct Telemetry {
    shared: Option<Arc<Shared>>,
    stream: u16,
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .field("stream", &self.stream)
            .field("dir", &self.dir())
            .finish()
    }
}

impl PartialEq for Telemetry {
    /// Two handles are equal when they view the same shared pipeline (or
    /// are both disabled) under the same stream.
    fn eq(&self, other: &Self) -> bool {
        self.stream == other.stream
            && match (&self.shared, &other.shared) {
                (None, None) => true,
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                _ => false,
            }
    }
}

impl Telemetry {
    /// The default, do-nothing handle.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// An enabled pipeline that writes artifacts into `dir` at
    /// [`Telemetry::export`] time. Creates the directory and probes it
    /// for writability up front, so a bad `--telemetry` argument fails
    /// here with a clear error instead of panicking mid-run.
    pub fn to_dir(dir: impl Into<PathBuf>) -> io::Result<Self> {
        Self::with_config(Some(dir.into()), TelemetryConfig::default())
    }

    /// An enabled pipeline with no output directory — hooks and exporters
    /// run, artifacts are only available in memory. Used by tests and the
    /// serve layer's phase summaries.
    pub fn in_memory() -> Self {
        Self::with_config(None, TelemetryConfig::default()).expect("no I/O to fail")
    }

    /// The general constructor: optional output directory + knobs.
    #[expect(
        clippy::disallowed_types,
        reason = "builds the pipeline's two locks and reads its wall-clock epoch; neither is \
                  reached per access"
    )]
    pub fn with_config(dir: Option<PathBuf>, config: TelemetryConfig) -> io::Result<Self> {
        if let Some(dir) = &dir {
            std::fs::create_dir_all(dir)?;
            // `create_dir_all` succeeds on an existing read-only dir;
            // probe an actual write so failure is reported now.
            let probe = dir.join(".cosmos-telemetry-probe");
            std::fs::File::create(&probe)
                .and_then(|mut f| f.write_all(b"probe"))
                .map_err(|e| {
                    io::Error::new(e.kind(), format!("directory {dir:?} is not writable: {e}"))
                })?;
            let _ = std::fs::remove_file(&probe);
        }
        let mut table = Table {
            streams: Vec::new(),
            metrics: BTreeMap::new(),
        };
        table.push("main".to_string());
        for name in [MERKLE_DEPTH, MERKLE_FETCHED, DRAM_QUEUE_DELAY] {
            table.add(name, Metric::Histogram(Box::default()));
        }
        table.add(DRAM_QUEUE_CLAMPED, Metric::Counter(0));
        Ok(Self {
            shared: Some(Arc::new(Shared {
                config,
                dir,
                epoch: Instant::now(),
                phases: Arc::new(Mutex::new(Vec::new())),
                table: Mutex::new(table),
            })),
            stream: 0,
        })
    }

    /// Whether hooks do anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// The export directory, if any.
    pub fn dir(&self) -> Option<&Path> {
        self.shared.as_ref().and_then(|s| s.dir.as_deref())
    }

    /// A handle for one grid job (a "stream"): its phases, and the events
    /// and heatmaps of its probes, are tagged with a fresh stream id
    /// labelled `label`. Metrics still aggregate globally. On a disabled
    /// handle this is free and returns another disabled handle.
    ///
    /// # Panics
    ///
    /// If `label` was already issued on this pipeline: per-job counters
    /// are keyed by label, so a repeat would silently sum two jobs.
    pub fn scope(&self, label: &str) -> Telemetry {
        let Some(sh) = &self.shared else {
            return Telemetry::disabled();
        };
        let mut table = sh.table();
        assert!(
            table.streams.iter().all(|s| s.label != label),
            "telemetry stream label {label:?} issued twice"
        );
        let stream = table.push(label.to_string());
        Telemetry {
            shared: Some(Arc::clone(sh)),
            stream,
        }
    }

    /// Starts a wall-clock phase span; it ends when the guard drops.
    #[expect(
        clippy::disallowed_types,
        reason = "wall-clock phase timers are diagnostics only; they never reach simulated state"
    )]
    pub fn phase(&self, name: &'static str) -> PhaseGuard {
        let Some(sh) = &self.shared else {
            return PhaseGuard::inert();
        };
        PhaseGuard {
            inner: Some(PhaseGuardInner {
                sink: Arc::clone(&sh.phases),
                name,
                stream: self.stream,
                start_us: sh.epoch.elapsed().as_micros() as u64,
                t0: Instant::now(),
            }),
        }
    }

    /// Publishes one job's event counts to this stream, once, as
    /// `<stream label>/<leaf>` counters: `visit` is handed a sink and
    /// calls it with every `(leaf, value)`. No-op when disabled.
    pub fn publish_counters(&self, visit: impl FnOnce(&mut dyn FnMut(&str, u64))) {
        let Some(sh) = &self.shared else { return };
        let mut table = sh.table();
        let label = table.streams[usize::from(self.stream)].label.clone();
        visit(&mut |leaf, v| table.add(&format!("{label}/{leaf}"), Metric::Counter(v)));
    }

    // ---- export ----------------------------------------------------------

    /// The metric named `name`, summed over every job published so far.
    /// `None` when disabled or never published.
    pub fn metric(&self, name: &str) -> Option<Metric> {
        self.shared.as_ref()?.table().metrics.get(name).cloned()
    }

    /// Writes the Chrome trace-event document for everything published so
    /// far to `out`, one event at a time ([`export::write_chrome_trace`]).
    /// Writes nothing when disabled.
    pub fn write_chrome_trace(&self, out: &mut impl io::Write) -> io::Result<()> {
        let Some(sh) = &self.shared else {
            return Ok(());
        };
        let phases = sh.phases();
        let table = sh.table();
        let labels: Vec<&str> = table.streams.iter().map(|s| s.label.as_str()).collect();
        let events = table
            .streams
            .iter()
            .filter_map(|s| s.recorder.as_ref())
            .flat_map(StreamRecorder::iter_oldest_first);
        export::write_chrome_trace(out, &phases, events, &labels)
    }

    /// Every stream's published flight-recorder contents: `(label, events
    /// oldest-first, drop accounting)`, in stream-creation order. This is
    /// the input to analysis passes (e.g. `cosmos-explain`): within one
    /// stream, events are ordered by their deterministic `seq` stamp, so
    /// the result is identical run-to-run regardless of worker threading.
    /// Empty when disabled.
    pub fn recorder_streams(&self) -> Vec<(String, Vec<TimedEvent>, RecorderStats)> {
        let Some(sh) = &self.shared else {
            return Vec::new();
        };
        sh.table()
            .streams
            .iter()
            .map(|s| {
                let mut stats = RecorderStats {
                    sample_every: sh.config.sample_every,
                    ..RecorderStats::default()
                };
                let mut events = Vec::new();
                if let Some(rec) = &s.recorder {
                    rec.add_stats(&mut stats);
                    events.extend(rec.iter_oldest_first().copied());
                }
                (s.label.clone(), events, stats)
            })
            .collect()
    }

    /// The per-set CTR heatmap document. `Value::Null` when disabled.
    pub fn heatmap_value(&self) -> Value {
        let Some(sh) = &self.shared else {
            return Value::Null;
        };
        let table = sh.table();
        export::heatmap_json(
            table
                .streams
                .iter()
                .filter_map(|s| Some((s.label.as_str(), s.heatmap.as_ref()?))),
        )
    }

    /// Aggregated phase timers so far: `(name, calls, total_us)`,
    /// name-sorted. Empty when disabled. Serve-mode progress events are
    /// built from this — it reads live, without ending any open phase.
    pub fn phase_summary(&self) -> Vec<(&'static str, u64, u64)> {
        let Some(sh) = &self.shared else {
            return Vec::new();
        };
        export::aggregate_phases(&sh.phases())
    }

    /// The plain-text metrics dump (empty when disabled). Recorder drop
    /// accounting is aggregated over every stream's ring.
    pub fn metrics_text(&self) -> String {
        let Some(sh) = &self.shared else {
            return String::new();
        };
        let phases = sh.phases();
        let table = sh.table();
        let mut stats = RecorderStats {
            sample_every: sh.config.sample_every,
            ..RecorderStats::default()
        };
        for rec in table.streams.iter().filter_map(|s| s.recorder.as_ref()) {
            rec.add_stats(&mut stats);
        }
        export::metrics_text(&table.metrics, &phases, stats)
    }

    /// Writes `<name>.trace.json`, `<name>.heatmap.json`, and
    /// `<name>.metrics.txt` into the export directory. No-op (Ok) when
    /// disabled or when no directory was configured.
    pub fn export(&self, name: &str) -> io::Result<()> {
        let Some(dir) = self.dir().map(Path::to_path_buf) else {
            return Ok(());
        };
        let file = std::fs::File::create(dir.join(format!("{name}.trace.json")))?;
        let mut trace = io::BufWriter::new(file);
        self.write_chrome_trace(&mut trace)?;
        trace.write_all(b"\n")?;
        trace.flush()?;
        let mut heat = self.heatmap_value().pretty();
        heat.push('\n');
        std::fs::write(dir.join(format!("{name}.heatmap.json")), heat)?;
        std::fs::write(dir.join(format!("{name}.metrics.txt")), self.metrics_text())?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use export::is_valid_chrome_trace;
    use recorder::{AccessInfo, Event, EvictInfo};

    fn acc(set: u32, hit: bool, write: bool) -> AccessInfo {
        AccessInfo {
            set,
            line: u64::from(set) * 100,
            at: 1,
            hit,
            write,
            spec_kill: false,
            tenant: 0,
        }
    }

    fn evi(set: u32, dirty: bool) -> EvictInfo {
        EvictInfo {
            set,
            victim_line: 7,
            dirty,
            fill_at: 1,
            last_touch_at: 2,
            at: 3,
            lru_deviated: false,
            rl: None,
        }
    }

    fn in_memory_with(sample_every: u64, recorder_capacity: usize) -> Telemetry {
        Telemetry::with_config(
            None,
            TelemetryConfig {
                sample_every,
                recorder_capacity,
            },
        )
        .unwrap()
    }

    /// The trace [`Telemetry::write_chrome_trace`] writes, parsed back.
    fn chrome_trace(t: &Telemetry) -> Value {
        let mut out = Vec::new();
        t.write_chrome_trace(&mut out).unwrap();
        cosmos_common::json::parse(std::str::from_utf8(&out).unwrap()).unwrap()
    }

    fn histogram(t: &Telemetry, name: &str) -> metrics::Histogram {
        match t.metric(name) {
            Some(Metric::Histogram(h)) => *h,
            other => panic!("{name:?} is not a histogram: {other:?}"),
        }
    }

    #[test]
    fn disabled_handle_is_inert_and_cheap() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        let p = t.probe();
        assert!(!p.is_enabled());
        p.ctr_heatmap_init(64);
        p.ctr_access(acc(1, true, false), false);
        p.rl_ctr_action(0, true, 1.0, 0.5, -0.5);
        p.rl_data_action(false, true);
        p.spec_issue();
        p.spec_kill();
        p.merkle_walk(3, 1);
        p.dram_access(12, true, false);
        drop(p);
        let _g = t.phase("sim");
        t.publish_counters(|add| add("x", 1));
        assert!(t.metric(MERKLE_DEPTH).is_none());
        let mut trace = Vec::new();
        t.write_chrome_trace(&mut trace).unwrap();
        assert!(trace.is_empty());
        assert_eq!(t.heatmap_value(), Value::Null);
        assert_eq!(t.metrics_text(), "");
        assert!(t.recorder_streams().is_empty());
        t.export("x").unwrap();
        assert_eq!(t.scope("job"), Telemetry::disabled());
    }

    #[test]
    fn probe_publishes_histograms_recorder_and_heatmap_on_drop() {
        let root = in_memory_with(1, 128);
        let job = root.scope("fig/np/bfs");
        let p = job.probe();
        p.ctr_heatmap_init(4);
        p.ctr_access(acc(0, false, false), true);
        p.ctr_access(acc(0, true, true), false);
        p.ctr_evict(evi(0, true));
        p.rl_ctr_action(0, true, 2.0, 1.0, -1.0);
        p.rl_ctr_action(1, false, -1.0, 0.25, 0.75);
        p.rl_data_action(true, true);
        p.spec_issue();
        p.spec_kill();
        p.merkle_walk(5, 2);
        p.dram_access(100, false, true);
        {
            let _p = job.phase("sim");
        }
        // Nothing reaches the pipeline while a clone of the probe lives.
        let clone = p.clone();
        drop(p);
        assert_eq!(histogram(&root, MERKLE_DEPTH).count(), 0);
        assert!(root.recorder_streams()[1].1.is_empty());
        drop(clone);

        assert_eq!(histogram(&root, MERKLE_DEPTH).sum(), 5);
        assert_eq!(histogram(&root, MERKLE_FETCHED).sum(), 2);
        let delay = histogram(&root, DRAM_QUEUE_DELAY);
        assert_eq!((delay.count(), delay.sum()), (1, 100));

        // Every hook call was sampled in (`sample_every: 1`).
        let streams = root.recorder_streams();
        let names: Vec<&str> = streams[1].1.iter().map(|e| e.event.name()).collect();
        assert_eq!(
            names,
            [
                "ctr_access",
                "ctr_access",
                "ctr_evict",
                "rl_ctr_action",
                "rl_ctr_action",
                "rl_data_action",
                "spec_issue",
                "spec_kill",
                "merkle_walk",
                "dram_access",
            ]
        );

        let trace = chrome_trace(&root);
        assert!(is_valid_chrome_trace(&trace));
        let text = trace.to_string();
        assert!(text.contains("fig/np/bfs"));
        assert!(text.contains("ctr_access"));
        assert!(text.contains("\"name\":\"sim\""));

        let heat = root.heatmap_value();
        let streams = heat.get("streams").and_then(Value::as_array).unwrap();
        assert_eq!(streams.len(), 1);
        assert_eq!(streams[0].get("sets").and_then(Value::as_u64), Some(4));
        // Publishing closed the partial window.
        let windows = streams[0].get("windows").and_then(Value::as_array).unwrap();
        assert_eq!(windows.len(), 1);

        let dump = root.metrics_text();
        assert!(dump.contains("counter sim.dram.queue_clamped 0"));
        assert!(dump.contains("histogram secure.merkle.depth count 1"));
        assert!(dump.contains("phase sim calls 1"));
    }

    #[test]
    fn sampling_thins_the_recorder() {
        let t = in_memory_with(10, 1024);
        let p = t.probe();
        for _ in 0..100 {
            p.dram_access(5, true, false);
        }
        drop(p);
        assert_eq!(histogram(&t, DRAM_QUEUE_DELAY).count(), 100);
        let text = t.metrics_text();
        assert!(
            text.contains("recorder candidates 100 sampled 10 overwritten 0 sample_every 10"),
            "unexpected recorder line in:\n{text}"
        );
    }

    #[test]
    fn rare_events_survive_aggressive_dense_sampling() {
        let t = in_memory_with(64, 1024);
        let p = t.probe();
        // 64 dense candidates → 1 sampled; 10 rare candidates → all 10.
        for _ in 0..64 {
            p.dram_access(5, true, false);
        }
        for i in 0..10 {
            p.ctr_evict(evi(i, false));
        }
        drop(p);
        let streams = t.recorder_streams();
        assert_eq!(streams.len(), 1);
        let (label, events, stats) = &streams[0];
        assert_eq!(label, "main");
        assert_eq!(stats.candidates, 74);
        assert_eq!(stats.recorded, 11);
        let evicts = events
            .iter()
            .filter(|e| matches!(e.event, Event::CtrEvict { .. }))
            .count();
        assert_eq!(evicts, 10, "every rare event survives");
        // seq stamps are strictly increasing within the stream.
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn streams_record_independently_and_deterministically() {
        let root = in_memory_with(1, 64);
        let a = root.scope("a").probe();
        let b = root.scope("b").probe();
        a.dram_access(1, false, false);
        b.dram_access(2, false, false);
        a.dram_access(3, false, false);
        drop((a, b));
        let streams = root.recorder_streams();
        assert_eq!(streams.len(), 3);
        assert_eq!(streams[1].0, "a");
        assert_eq!(streams[1].1.len(), 2);
        // Per-stream seq is independent of interleaving with other streams.
        assert_eq!(streams[1].1[0].seq, 0);
        assert_eq!(streams[1].1[1].seq, 1);
        assert_eq!(streams[2].0, "b");
        assert_eq!(streams[2].1[0].seq, 0);
    }

    #[test]
    fn a_later_probe_continues_the_streams_recorder() {
        let root = in_memory_with(1, 64);
        let job = root.scope("job");
        job.probe().spec_issue();
        job.probe().spec_kill();
        let streams = root.recorder_streams();
        let seqs: Vec<u64> = streams[1].1.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [0, 1]);
        assert_eq!(streams[1].2.candidates, 2);
    }

    #[test]
    fn tenant_heatmap_lanes_split_by_tenant() {
        let root = Telemetry::in_memory();
        let job = root.scope("chan").probe();
        job.ctr_heatmap_init(4);
        job.ctr_tenant_heatmaps_init(4, 2);
        for i in 0..6u32 {
            let mut a = acc(i % 4, i % 2 == 0, false);
            a.tenant = (i % 2) as u8;
            job.ctr_access(a, false);
        }
        // Tenant 5 folds into lane 1 instead of panicking.
        let mut a = acc(0, true, false);
        a.tenant = 5;
        job.ctr_access(a, false);
        drop(job);

        let heat = root.heatmap_value();
        let streams = heat.get("streams").and_then(Value::as_array).unwrap();
        let totals: Vec<(&str, u64)> = streams
            .iter()
            .map(|s| {
                let label = s.get("stream").and_then(Value::as_str).unwrap();
                let total = s.get("total_ctr_accesses").and_then(Value::as_u64).unwrap();
                (label, total)
            })
            .collect();
        assert_eq!(
            totals,
            [("chan", 7), ("chan/tenant0", 3), ("chan/tenant1", 4)]
        );
        // Lanes are heatmap-only streams: they record no events.
        let lanes = root.recorder_streams();
        assert!(lanes[2].1.is_empty() && lanes[3].1.is_empty());
        // A run that never opts in gets no tenant lanes.
        let plain = Telemetry::in_memory();
        let p = plain.scope("solo").probe();
        p.ctr_heatmap_init(4);
        p.ctr_access(acc(0, true, false), false);
        drop(p);
        let labels2 = plain.heatmap_value().to_string();
        assert!(!labels2.contains("tenant"), "{labels2}");
    }

    #[test]
    fn zero_set_heatmap_init_is_skipped() {
        let t = Telemetry::in_memory();
        let p = t.probe();
        p.ctr_heatmap_init(0);
        // No heatmap was created: the access records nothing and the
        // heatmap document lists no streams.
        p.ctr_access(acc(0, false, false), true);
        drop(p);
        let heat = t.heatmap_value();
        let streams = heat.get("streams").and_then(Value::as_array).unwrap();
        assert!(streams.is_empty());
    }

    #[test]
    fn dram_queue_clamp_is_counted_not_silent() {
        let t = in_memory_with(1, 1 << 16);
        let p = t.probe();
        p.dram_access(7, true, false);
        p.dram_access(u64::from(u32::MAX) + 5, false, true);
        drop(p);
        assert_eq!(t.metric(DRAM_QUEUE_CLAMPED), Some(Metric::Counter(1)));
        // The histogram keeps the unclamped value; the event clamps to the
        // 32-bit wire format.
        assert_eq!(
            histogram(&t, DRAM_QUEUE_DELAY).sum(),
            7 + u64::from(u32::MAX) + 5
        );
        let streams = t.recorder_streams();
        let ev = streams[0]
            .1
            .iter()
            .find_map(|e| match e.event {
                Event::DramAccess { queued_cycles, .. } if queued_cycles > 7 => Some(queued_cycles),
                _ => None,
            })
            .unwrap();
        assert_eq!(ev, u32::MAX);
        let text = t.metrics_text();
        assert!(text.contains("counter sim.dram.queue_clamped 1"));
    }

    #[test]
    fn unclamped_dram_access_leaves_counter_zero() {
        let t = Telemetry::in_memory();
        t.probe().dram_access(u64::from(u32::MAX), true, false);
        assert_eq!(t.metric(DRAM_QUEUE_CLAMPED), Some(Metric::Counter(0)));
        assert!(t
            .metrics_text()
            .contains("counter sim.dram.queue_clamped 0"));
    }

    #[test]
    fn scopes_get_distinct_streams_but_shared_metrics() {
        let root = Telemetry::in_memory();
        let a = root.scope("a");
        let b = root.scope("b");
        assert_ne!(a, b);
        a.probe().dram_access(3, true, false);
        b.probe().dram_access(4, true, false);
        let delay = histogram(&root, DRAM_QUEUE_DELAY);
        assert_eq!((delay.count(), delay.sum()), (2, 7));
        let text = chrome_trace(&root).to_string();
        assert!(text.contains("\"name\":\"a\""));
        assert!(text.contains("\"name\":\"b\""));
    }

    #[test]
    fn job_counters_are_labelled_by_stream() {
        let root = Telemetry::in_memory();
        root.scope("BFS/COSMOS")
            .publish_counters(|add| ["hits", "misses"].iter().for_each(|leaf| add(leaf, 2)));
        assert_eq!(root.metric("BFS/COSMOS/hits"), Some(Metric::Counter(2)));
        let text = root.metrics_text();
        assert!(text.contains("counter BFS/COSMOS/misses 2\n"), "{text}");
    }

    #[test]
    #[should_panic(expected = "issued twice")]
    fn scope_rejects_a_repeated_label() {
        let root = Telemetry::in_memory();
        let _a = root.scope("BFS/COSMOS");
        let _b = root.scope("BFS/COSMOS");
    }

    #[test]
    fn export_writes_three_artifacts() {
        let dir = std::env::temp_dir().join(format!("cosmos-tele-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let t = Telemetry::to_dir(&dir).unwrap();
        t.probe().spec_issue();
        {
            let _p = t.phase("emit");
        }
        t.export("fig99").unwrap();
        for suffix in ["trace.json", "heatmap.json", "metrics.txt"] {
            let p = dir.join(format!("fig99.{suffix}"));
            let data = std::fs::read_to_string(&p).unwrap();
            assert!(!data.is_empty(), "{p:?} empty");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn exported_trace_parses_back_with_every_event() {
        let dir = std::env::temp_dir().join(format!("cosmos-tele-trace-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = TelemetryConfig {
            sample_every: 1,
            recorder_capacity: 64,
        };
        let t = Telemetry::with_config(Some(dir.clone()), config).unwrap();
        let job = t.scope("fig/np/bfs");
        {
            let _p = job.phase("sim");
            let p = job.probe();
            p.ctr_access(acc(2, false, true), false);
            p.ctr_evict(evi(2, true));
            p.dram_access(7, true, false);
        }
        t.export("small").unwrap();
        let text = std::fs::read_to_string(dir.join("small.trace.json")).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let trace = cosmos_common::json::parse(&text).unwrap();
        assert!(is_valid_chrome_trace(&trace));
        // 1 process_name + 2 thread_name (main, the job) + 1 phase + 3 events.
        assert_eq!(trace.as_array().unwrap().len(), 7);
        assert_eq!(text, format!("{trace}\n"));
    }

    #[test]
    fn unwritable_dir_fails_with_clear_error() {
        // A path whose parent is a regular file cannot be created.
        let file = std::env::temp_dir().join(format!("cosmos-tele-file-{}", std::process::id()));
        std::fs::write(&file, b"x").unwrap();
        let err = Telemetry::to_dir(file.join("sub")).unwrap_err();
        let msg = err.to_string();
        assert!(!msg.is_empty());
        std::fs::remove_file(&file).unwrap();
    }
}
