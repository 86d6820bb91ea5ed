//! Observability for the COSMOS simulator.
//!
//! Everything hangs off a cheap, cloneable [`Telemetry`] handle that is
//! threaded through `SimConfig` into every instrumented component:
//!
//! - a by-name **metrics registry** ([`metrics`]) of atomic counters,
//!   gauges, and log2-bucket histograms. The hooks feed only what the
//!   simulation's own statistics cannot show (histograms and the DRAM
//!   queue-clamp counter); event counts are published once per job from
//!   its final statistics, as `<job label>/<stat leaf>` counters;
//! - a bounded ring-buffer **flight recorder** ([`recorder`]) of typed
//!   simulation events, sampled at a configurable rate;
//! - per-set CTR-cache **heatmaps** ([`heatmap`]) with bounded memory;
//! - RAII **phase timers** ([`phase`]) for the experiment pipeline;
//! - **exporters** ([`export`]): Chrome trace-event JSON, heatmap JSON,
//!   and a plain-text metrics dump, all serialized via
//!   `cosmos_common::json`.
//!
//! A disabled handle (the default — [`Telemetry::disabled`]) carries a
//! `None` and every hook returns after that single branch: no clock
//! reads, no locks, no allocation, no output. Simulation results must be
//! byte-identical with telemetry on or off; hooks observe, never steer.

// cosmos-lint: allow-file(H3): every hook returns before touching a mutex unless a
// recorder/heatmap is attached; instrumented runs are diagnostics, and the
// benchmark measures the un-instrumented configuration.

pub mod export;
pub mod heatmap;
pub mod metrics;
pub mod phase;
pub mod recorder;

use std::fmt;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
#[expect(
    clippy::disallowed_types,
    reason = "wall-clock phase timers are diagnostics only; they never reach simulated state"
)]
use std::time::Instant;

use cosmos_common::json::Value;

use export::RecorderStats;
use heatmap::CtrHeatmap;
use metrics::{Counter, Histogram, Registry};
use phase::{PhaseGuard, PhaseGuardInner, PhaseSpan};
use recorder::{AccessInfo, Event, EvictInfo, StreamRecorder, TimedEvent};

/// Tuning knobs for an enabled telemetry pipeline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TelemetryConfig {
    /// Record every Nth *dense* candidate event (accesses, DRAM, Merkle
    /// walks, RL actions) into the flight recorder.
    pub sample_every: u64,
    /// Record every Nth *rare* candidate event (CTR evictions,
    /// speculation issue/kill). Rare events are orders of magnitude less
    /// frequent than dense ones; sampling them at the dense rate would
    /// all but erase them, so they get their own stratum (default: keep
    /// every one).
    pub rare_sample_every: u64,
    /// Per-stream flight-recorder capacity in events.
    pub recorder_capacity: usize,
    /// CTR accesses per heatmap window.
    pub heatmap_window: u64,
    /// Heatmap windows kept before pair-merging halves resolution.
    pub heatmap_max_windows: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self {
            sample_every: 64,
            rare_sample_every: 1,
            recorder_capacity: 1 << 16,
            heatmap_window: 8192,
            heatmap_max_windows: 256,
        }
    }
}

struct StreamEntry {
    label: String,
    heatmap: Option<Arc<Mutex<CtrHeatmap>>>,
    recorder: Arc<Mutex<StreamRecorder>>,
}

/// The metrics the built-in hooks feed: distributions and the one event
/// the simulation statistics cannot see. Resolved once at construction,
/// so the dump lists them (as zeros) even for runs that never reach them.
struct HotMetrics {
    merkle_depth: Histogram,
    merkle_fetched: Histogram,
    dram_queue_delay: Histogram,
    dram_queue_clamped: Counter,
}

impl HotMetrics {
    fn resolve(reg: &Registry) -> Self {
        Self {
            merkle_depth: reg.histogram("secure.merkle.depth"),
            merkle_fetched: reg.histogram("secure.merkle.fetched"),
            dram_queue_delay: reg.histogram("dram.queue_delay_cycles"),
            dram_queue_clamped: reg.counter("sim.dram.queue_clamped"),
        }
    }
}

struct Shared {
    config: TelemetryConfig,
    dir: Option<PathBuf>,
    #[expect(
        clippy::disallowed_types,
        reason = "wall-clock phase timers are diagnostics only; they never reach simulated state"
    )]
    epoch: Instant,
    registry: Registry,
    phases: Arc<Mutex<Vec<PhaseSpan>>>,
    streams: Mutex<Vec<StreamEntry>>,
    hot: HotMetrics,
}

/// The telemetry handle threaded through `SimConfig` and the runner.
///
/// Cloning is cheap (two `Option<Arc>`s and a stream id). A handle is
/// either *disabled* — every hook is one branch and a return — or backed
/// by shared state. [`Telemetry::scope`] derives per-grid-job handles
/// ("streams") so concurrent jobs tag their phases, events, and heatmaps
/// distinctly while aggregating into the same registry.
#[derive(Clone, Default)]
pub struct Telemetry {
    shared: Option<Arc<Shared>>,
    stream: u16,
    heatmap: Option<Arc<Mutex<CtrHeatmap>>>,
    // Per-tenant occupancy heatmap lanes (empty unless a multi-tenant
    // harness opted in via `ctr_tenant_heatmaps_init`). Each lane is also
    // registered as a heatmap-only stream so the standard heatmap export
    // carries it with a `<label>/tenant<i>` label.
    tenant_heatmaps: Vec<Arc<Mutex<CtrHeatmap>>>,
    recorder: Option<Arc<Mutex<StreamRecorder>>>,
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
    /// identity smoke.
    pub fn in_memory() -> Self {
        Self::with_config(None, TelemetryConfig::default()).expect("no I/O to fail")
    }

    /// [`Telemetry::in_memory`] with explicit tuning knobs.
    pub fn in_memory_with(config: TelemetryConfig) -> Self {
        Self::with_config(None, config).expect("no I/O to fail")
    }

    /// The general constructor: optional output directory + knobs.
    #[expect(
        clippy::disallowed_types,
        reason = "wall-clock phase timers are diagnostics only; they never reach simulated state"
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
        let registry = Registry::new();
        let hot = HotMetrics::resolve(&registry);
        let recorder = Arc::new(Mutex::new(StreamRecorder::new(config.recorder_capacity)));
        Ok(Self {
            shared: Some(Arc::new(Shared {
                config,
                dir,
                epoch: Instant::now(),
                registry,
                phases: Arc::new(Mutex::new(Vec::new())),
                streams: Mutex::new(vec![StreamEntry {
                    label: "main".to_string(),
                    heatmap: None,
                    recorder: Arc::clone(&recorder),
                }]),
                hot,
            })),
            stream: 0,
            heatmap: None,
            tenant_heatmaps: Vec::new(),
            recorder: Some(recorder),
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

    /// The metrics registry, for components that register their own
    /// names. `None` when disabled.
    pub fn registry(&self) -> Option<&Registry> {
        self.shared.as_ref().map(|s| &s.registry)
    }

    /// A handle for one grid job (a "stream"): phases, events, and
    /// heatmaps recorded through it are tagged with a fresh stream id
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
        let mut streams = sh.streams.lock().expect("telemetry mutex poisoned");
        assert!(streams.len() <= usize::from(u16::MAX), "too many streams");
        assert!(
            streams.iter().all(|s| s.label != label),
            "telemetry stream label {label:?} issued twice"
        );
        let id = streams.len() as u16;
        let recorder = Arc::new(Mutex::new(StreamRecorder::new(sh.config.recorder_capacity)));
        streams.push(StreamEntry {
            label: label.to_string(),
            heatmap: None,
            recorder: Arc::clone(&recorder),
        });
        Telemetry {
            shared: Some(Arc::clone(sh)),
            stream: id,
            heatmap: None,
            tenant_heatmaps: Vec::new(),
            recorder: Some(recorder),
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

    /// Applies the per-stratum sampling rate and, for survivors, stamps
    /// and records the event in this stream's ring. `make` runs only for
    /// sampled-in events. `rare` picks the stratum — callers pass it
    /// statically per hook so sampled-out dense events stay one branch, a
    /// lock of an uncontended per-stream mutex, and two counter bumps.
    #[inline]
    fn record_event(&self, rare: bool, make: impl FnOnce() -> Event) {
        let Some(sh) = &self.shared else { return };
        let Some(rec) = &self.recorder else { return };
        let every = if rare {
            sh.config.rare_sample_every
        } else {
            sh.config.sample_every
        };
        let mut rec = rec.lock().expect("telemetry mutex poisoned");
        if let Some(seq) = rec.admit(rare, every) {
            let ev = TimedEvent {
                seq,
                ts_us: sh.epoch.elapsed().as_micros() as u64,
                stream: self.stream,
                event: make(),
            };
            rec.push(ev);
        }
    }

    // ---- component hooks -------------------------------------------------

    /// Sizes this stream's per-set CTR heatmap. Called by the secure path
    /// once it knows its CTR-cache geometry; no-op when disabled or when
    /// the geometry is degenerate (`sets == 0` — e.g. a design with no
    /// CTR cache), so callers never trip the heatmap's positive-set
    /// invariant.
    pub fn ctr_heatmap_init(&mut self, sets: usize) {
        let Some(sh) = &self.shared else { return };
        if sets == 0 {
            return;
        }
        let map = Arc::new(Mutex::new(CtrHeatmap::new(
            sets,
            sh.config.heatmap_window,
            sh.config.heatmap_max_windows,
        )));
        sh.streams.lock().expect("telemetry mutex poisoned")[usize::from(self.stream)].heatmap =
            Some(Arc::clone(&map));
        self.heatmap = Some(map);
    }

    /// Adds per-tenant CTR occupancy heatmap lanes on top of the combined
    /// heatmap: each of the `tenants` lanes becomes a heatmap-only stream
    /// labelled `<label>/tenant<i>`, so the standard heatmap export
    /// carries one document per tenant. Accesses route to the lane named
    /// by their `AccessInfo::tenant` (folded mod `tenants`). No-op when
    /// disabled or on degenerate geometry, like
    /// [`Telemetry::ctr_heatmap_init`] — single-tenant runs that never
    /// call this keep their artifact shape exactly.
    pub fn ctr_tenant_heatmaps_init(&mut self, sets: usize, tenants: usize) {
        let Some(sh) = &self.shared else { return };
        if sets == 0 || tenants == 0 {
            return;
        }
        let mut maps = Vec::with_capacity(tenants);
        let mut streams = sh.streams.lock().expect("telemetry mutex poisoned");
        let base = streams[usize::from(self.stream)].label.clone();
        for i in 0..tenants {
            assert!(streams.len() <= usize::from(u16::MAX), "too many streams");
            let map = Arc::new(Mutex::new(CtrHeatmap::new(
                sets,
                sh.config.heatmap_window,
                sh.config.heatmap_max_windows,
            )));
            streams.push(StreamEntry {
                label: format!("{base}/tenant{i}"),
                heatmap: Some(Arc::clone(&map)),
                // Heatmap-only lane: no events are ever recorded here.
                recorder: Arc::new(Mutex::new(StreamRecorder::new(1))),
            });
            maps.push(map);
        }
        drop(streams);
        self.tenant_heatmaps = maps;
    }

    /// One demand CTR-cache access. `grew` flags a miss that filled a
    /// previously invalid way (per-set occupancy +1); it feeds the
    /// heatmap only, the rest of `info` feeds the flight recorder.
    #[inline]
    pub fn ctr_access(&self, info: AccessInfo, grew: bool) {
        if self.shared.is_none() {
            return;
        }
        if let Some(h) = &self.heatmap {
            h.lock()
                .expect("telemetry mutex poisoned")
                .record(info.set as usize, info.hit, grew);
        }
        if !self.tenant_heatmaps.is_empty() {
            let lane = usize::from(info.tenant) % self.tenant_heatmaps.len();
            self.tenant_heatmaps[lane]
                .lock()
                .expect("telemetry mutex poisoned")
                .record(info.set as usize, info.hit, grew);
        }
        self.record_event(false, || Event::CtrAccess(info));
    }

    /// One CTR-cache eviction: the full victim provenance — tag,
    /// fill/touch stamps, policy deviation, RL decision — rides in the
    /// rare-stratum event for the explain pass.
    #[inline]
    pub fn ctr_evict(&self, info: EvictInfo) {
        if self.shared.is_none() {
            return;
        }
        self.record_event(true, || Event::CtrEvict(info));
    }

    /// One CTR-locality RL decision: its id, chosen action, reward, and
    /// the Q-pair the choice was made from.
    #[inline]
    pub fn rl_ctr_action(&self, id: u64, good: bool, reward: f32, q_good: f32, q_bad: f32) {
        self.record_event(false, || Event::RlCtrAction {
            id,
            good,
            reward,
            q_good,
            q_bad,
        });
    }

    /// One resolved data-location RL prediction.
    #[inline]
    pub fn rl_data_action(&self, offchip: bool, correct: bool) {
        self.record_event(false, || Event::RlDataAction { offchip, correct });
    }

    /// A speculative early DRAM read was issued.
    #[inline]
    pub fn spec_issue(&self) {
        self.record_event(true, || Event::SpecIssue);
    }

    /// A speculative read was killed (data turned out on-chip).
    #[inline]
    pub fn spec_kill(&self) {
        self.record_event(true, || Event::SpecKill);
    }

    /// One Merkle-tree authentication walk: `depth` levels visited,
    /// `fetched` of them missed on-chip caches.
    #[inline]
    pub fn merkle_walk(&self, depth: u32, fetched: u32) {
        let Some(sh) = &self.shared else { return };
        sh.hot.merkle_depth.record(u64::from(depth));
        sh.hot.merkle_fetched.record(u64::from(fetched));
        self.record_event(false, || Event::MerkleWalk {
            depth: depth.min(255) as u8,
            fetched: fetched.min(255) as u8,
        });
    }

    /// One DRAM access: how long it queued and how the row buffer fared.
    /// A queue delay beyond `u32::MAX` cycles still clamps in the recorded
    /// event (the wire format is 32-bit) but is never silent: each clamp
    /// bumps the `sim.dram.queue_clamped` counter, which the metrics dump
    /// always lists, and the histogram keeps the unclamped value.
    #[inline]
    pub fn dram_access(&self, queued_cycles: u64, row_hit: bool, write: bool) {
        let Some(sh) = &self.shared else { return };
        sh.hot.dram_queue_delay.record(queued_cycles);
        if queued_cycles > u64::from(u32::MAX) {
            sh.hot.dram_queue_clamped.inc();
        }
        self.record_event(false, || Event::DramAccess {
            queued_cycles: queued_cycles.min(u64::from(u32::MAX)) as u32,
            row_hit,
            write,
        });
    }

    // ---- export ----------------------------------------------------------

    /// The Chrome trace-event document for everything recorded so far.
    /// `Value::Null` when disabled.
    pub fn chrome_trace_value(&self) -> Value {
        let Some(sh) = &self.shared else {
            return Value::Null;
        };
        let phases = sh.phases.lock().expect("telemetry mutex poisoned").clone();
        let streams = sh.streams.lock().expect("telemetry mutex poisoned");
        let mut events: Vec<TimedEvent> = Vec::new();
        let mut labels: Vec<String> = Vec::new();
        for s in streams.iter() {
            labels.push(s.label.clone());
            events.extend(
                s.recorder
                    .lock()
                    .expect("telemetry mutex poisoned")
                    .iter_oldest_first()
                    .copied(),
            );
        }
        drop(streams);
        export::chrome_trace(&phases, &events, &labels)
    }

    /// Every stream's retained flight-recorder contents: `(label, events
    /// oldest-first, drop accounting)`, in stream-creation order. This is
    /// the input to analysis passes (e.g. `cosmos-explain`): within one
    /// stream, events are ordered by their deterministic `seq` stamp, so
    /// the result is identical run-to-run regardless of worker threading.
    /// Empty when disabled.
    pub fn recorder_streams(&self) -> Vec<(String, Vec<TimedEvent>, RecorderStats)> {
        let Some(sh) = &self.shared else {
            return Vec::new();
        };
        let streams = sh.streams.lock().expect("telemetry mutex poisoned");
        streams
            .iter()
            .map(|s| {
                let rec = s.recorder.lock().expect("telemetry mutex poisoned");
                let stats = RecorderStats {
                    recorded: rec.recorded(),
                    overwritten: rec.overwritten(),
                    candidates: rec.candidates(),
                    sample_every: sh.config.sample_every,
                };
                (
                    s.label.clone(),
                    rec.iter_oldest_first().copied().collect(),
                    stats,
                )
            })
            .collect()
    }

    /// The per-set CTR heatmap document. `Value::Null` when disabled.
    pub fn heatmap_value(&self) -> Value {
        let Some(sh) = &self.shared else {
            return Value::Null;
        };
        let streams: Vec<(String, Option<CtrHeatmap>)> = sh
            .streams
            .lock()
            .expect("telemetry mutex poisoned")
            .iter()
            .map(|s| {
                let map = s.heatmap.as_ref().map(|m| {
                    let mut snap = m.lock().expect("telemetry mutex poisoned").clone();
                    snap.finish();
                    snap
                });
                (s.label.clone(), map)
            })
            .collect();
        export::heatmap_json(&streams)
    }

    /// Aggregated phase timers so far: `(name, calls, total_us)`,
    /// name-sorted. Empty when disabled. Serve-mode progress events are
    /// built from this — it reads live, without ending any open phase.
    pub fn phase_summary(&self) -> Vec<(&'static str, u64, u64)> {
        let Some(sh) = &self.shared else {
            return Vec::new();
        };
        let phases = sh.phases.lock().expect("telemetry mutex poisoned").clone();
        export::aggregate_phases(&phases)
    }

    /// The plain-text metrics dump (empty when disabled). Recorder drop
    /// accounting is aggregated over every stream's ring.
    pub fn metrics_text(&self) -> String {
        let Some(sh) = &self.shared else {
            return String::new();
        };
        let metrics = sh.registry.snapshot();
        let phases = sh.phases.lock().expect("telemetry mutex poisoned").clone();
        let mut stats = RecorderStats {
            sample_every: sh.config.sample_every,
            ..RecorderStats::default()
        };
        for s in sh.streams.lock().expect("telemetry mutex poisoned").iter() {
            let rec = s.recorder.lock().expect("telemetry mutex poisoned");
            stats.recorded += rec.recorded();
            stats.overwritten += rec.overwritten();
            stats.candidates += rec.candidates();
        }
        export::metrics_text(&metrics, &phases, stats)
    }

    /// Writes `<name>.trace.json`, `<name>.heatmap.json`, and
    /// `<name>.metrics.txt` into the export directory. No-op (Ok) when
    /// disabled or when no directory was configured.
    pub fn export(&self, name: &str) -> io::Result<()> {
        let Some(dir) = self.dir().map(Path::to_path_buf) else {
            return Ok(());
        };
        let mut trace = self.chrome_trace_value().to_string();
        trace.push('\n');
        std::fs::write(dir.join(format!("{name}.trace.json")), trace)?;
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

    #[test]
    fn disabled_handle_is_inert_and_cheap() {
        let mut t = Telemetry::disabled();
        assert!(!t.is_enabled());
        t.ctr_heatmap_init(64);
        t.ctr_access(acc(1, true, false), false);
        t.rl_ctr_action(0, true, 1.0, 0.5, -0.5);
        t.rl_data_action(false, true);
        t.spec_issue();
        t.spec_kill();
        t.merkle_walk(3, 1);
        t.dram_access(12, true, false);
        let _g = t.phase("sim");
        assert!(t.registry().is_none());
        assert_eq!(t.chrome_trace_value(), Value::Null);
        assert_eq!(t.heatmap_value(), Value::Null);
        assert_eq!(t.metrics_text(), "");
        assert!(t.recorder_streams().is_empty());
        t.export("x").unwrap();
        assert_eq!(t.scope("job"), Telemetry::disabled());
    }

    #[test]
    fn hooks_feed_registry_recorder_and_heatmap() {
        let root = Telemetry::in_memory_with(TelemetryConfig {
            sample_every: 1,
            recorder_capacity: 128,
            heatmap_window: 2,
            heatmap_max_windows: 8,
            ..TelemetryConfig::default()
        });
        let mut job = root.scope("fig/np/bfs");
        job.ctr_heatmap_init(4);
        job.ctr_access(acc(0, false, false), true);
        job.ctr_access(acc(0, true, true), false);
        job.ctr_evict(evi(0, true));
        job.rl_ctr_action(0, true, 2.0, 1.0, -1.0);
        job.rl_ctr_action(1, false, -1.0, 0.25, 0.75);
        job.rl_data_action(true, true);
        job.spec_issue();
        job.spec_kill();
        job.merkle_walk(5, 2);
        job.dram_access(100, false, true);
        {
            let _p = job.phase("sim");
        }

        let reg = root.registry().unwrap();
        assert_eq!(reg.histogram("secure.merkle.depth").sum(), 5);
        assert_eq!(reg.histogram("secure.merkle.fetched").sum(), 2);
        assert_eq!(reg.histogram("dram.queue_delay_cycles").count(), 1);
        assert_eq!(reg.histogram("dram.queue_delay_cycles").sum(), 100);

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

        let trace = root.chrome_trace_value();
        assert!(is_valid_chrome_trace(&trace));
        let text = trace.to_string();
        assert!(text.contains("fig/np/bfs"));
        assert!(text.contains("ctr_access"));
        assert!(text.contains("\"name\":\"sim\""));

        let heat = root.heatmap_value();
        let streams = heat.get("streams").and_then(Value::as_array).unwrap();
        assert_eq!(streams.len(), 1);
        assert_eq!(streams[0].get("sets").and_then(Value::as_u64), Some(4));

        let dump = root.metrics_text();
        assert!(dump.contains("counter sim.dram.queue_clamped 0"));
        assert!(dump.contains("histogram secure.merkle.depth count 1"));
        assert!(dump.contains("phase sim calls 1"));
    }

    #[test]
    fn sampling_thins_the_recorder() {
        let t = Telemetry::in_memory_with(TelemetryConfig {
            sample_every: 10,
            recorder_capacity: 1024,
            ..TelemetryConfig::default()
        });
        for _ in 0..100 {
            t.dram_access(5, true, false);
        }
        assert_eq!(
            t.registry()
                .unwrap()
                .histogram("dram.queue_delay_cycles")
                .count(),
            100
        );
        let text = t.metrics_text();
        assert!(
            text.contains("recorder candidates 100 sampled 10 overwritten 0 sample_every 10"),
            "unexpected recorder line in:\n{text}"
        );
    }

    #[test]
    fn rare_events_survive_aggressive_dense_sampling() {
        let t = Telemetry::in_memory_with(TelemetryConfig {
            sample_every: 64,
            rare_sample_every: 1,
            recorder_capacity: 1024,
            ..TelemetryConfig::default()
        });
        // 64 dense candidates → 1 sampled; 10 rare candidates → all 10.
        for _ in 0..64 {
            t.dram_access(5, true, false);
        }
        for i in 0..10 {
            t.ctr_evict(evi(i, false));
        }
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
        let root = Telemetry::in_memory_with(TelemetryConfig {
            sample_every: 1,
            recorder_capacity: 64,
            ..TelemetryConfig::default()
        });
        let a = root.scope("a");
        let b = root.scope("b");
        a.dram_access(1, false, false);
        b.dram_access(2, false, false);
        a.dram_access(3, false, false);
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
    fn tenant_heatmap_lanes_split_by_tenant() {
        let root = Telemetry::in_memory_with(TelemetryConfig {
            heatmap_window: 2,
            heatmap_max_windows: 8,
            ..TelemetryConfig::default()
        });
        let mut job = root.scope("chan");
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

        let heat = root.heatmap_value();
        let streams = heat.get("streams").and_then(Value::as_array).unwrap();
        let labels: Vec<&str> = streams
            .iter()
            .filter_map(|s| s.get("stream").and_then(Value::as_str))
            .collect();
        assert!(labels.contains(&"chan"), "combined map kept: {labels:?}");
        assert!(labels.contains(&"chan/tenant0"), "{labels:?}");
        assert!(labels.contains(&"chan/tenant1"), "{labels:?}");
        // A run that never opts in gets no tenant lanes.
        let plain = Telemetry::in_memory();
        let mut p = plain.scope("solo");
        p.ctr_heatmap_init(4);
        p.ctr_access(acc(0, true, false), false);
        let labels2 = plain.heatmap_value().to_string();
        assert!(!labels2.contains("tenant"), "{labels2}");
    }

    #[test]
    fn zero_set_heatmap_init_is_skipped() {
        let mut t = Telemetry::in_memory();
        t.ctr_heatmap_init(0);
        // No heatmap was created: the access records nothing and the
        // heatmap document lists no streams.
        t.ctr_access(acc(0, false, false), true);
        let heat = t.heatmap_value();
        let streams = heat.get("streams").and_then(Value::as_array).unwrap();
        assert!(streams.is_empty());
    }

    #[test]
    fn dram_queue_clamp_is_counted_not_silent() {
        let t = Telemetry::in_memory_with(TelemetryConfig {
            sample_every: 1,
            ..TelemetryConfig::default()
        });
        t.dram_access(7, true, false);
        t.dram_access(u64::from(u32::MAX) + 5, false, true);
        let reg = t.registry().unwrap();
        assert_eq!(reg.counter("sim.dram.queue_clamped").get(), 1);
        // The histogram keeps the unclamped value; the event clamps to the
        // 32-bit wire format.
        assert_eq!(
            reg.histogram("dram.queue_delay_cycles").sum(),
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
        t.dram_access(u64::from(u32::MAX), true, false);
        let reg = t.registry().unwrap();
        assert_eq!(reg.counter("sim.dram.queue_clamped").get(), 0);
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
        a.dram_access(3, true, false);
        b.dram_access(4, true, false);
        let delay = root
            .registry()
            .unwrap()
            .histogram("dram.queue_delay_cycles");
        assert_eq!((delay.count(), delay.sum()), (2, 7));
        let text = root.chrome_trace_value().to_string();
        assert!(text.contains("\"name\":\"a\""));
        assert!(text.contains("\"name\":\"b\""));
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
        t.spec_issue();
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
