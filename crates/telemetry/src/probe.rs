//! The per-simulation probe: one job's hooks over plain state.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

use crate::heatmap::{CtrHeatmap, MAX_WINDOWS, WINDOW_LEN};
use crate::metrics::{Histogram, Metric};
use crate::recorder::{AccessInfo, Event, EvictInfo, StreamRecorder, TimedEvent};
use crate::{
    Shared, Telemetry, DRAM_QUEUE_CLAMPED, DRAM_QUEUE_DELAY, MERKLE_DEPTH, MERKLE_FETCHED,
};

/// One simulation's telemetry: the hooks its components call.
///
/// A simulator, its secure path, its DRAM model and its RL predictors
/// share one probe on the one thread that runs them, so its state is a
/// plain `Rc<RefCell<…>>`: the job's flight recorder, CTR heatmap and
/// tenant lanes, and its histograms. When the last clone drops, that
/// state goes to the probe's stream in the [`Telemetry`] pipeline, once.
/// A probe made from a disabled handle is `None`, and every hook is then
/// one branch.
#[derive(Clone, Default)]
pub struct Probe(Option<Rc<RefCell<ProbeState>>>);

struct ProbeState {
    // The pipeline and the stream this probe publishes to.
    shared: Arc<Shared>,
    stream: u16,
    recorder: StreamRecorder,
    heatmap: Option<CtrHeatmap>,
    // Per-tenant lanes and the stream id of the first: lane `i` publishes
    // to stream `first_lane + i`.
    lanes: Vec<CtrHeatmap>,
    first_lane: u16,
    merkle_depth: Histogram,
    merkle_fetched: Histogram,
    dram_queue_delay: Histogram,
    dram_queue_clamped: u64,
}

impl Telemetry {
    /// The probe one simulation records through, publishing to this
    /// handle's stream when it drops. It continues the stream's flight
    /// recorder if an earlier probe published one. A disabled handle gives
    /// a disabled probe.
    pub fn probe(&self) -> Probe {
        let Some(sh) = &self.shared else {
            return Probe(None);
        };
        let recorder = sh.table().streams[usize::from(self.stream)]
            .recorder
            .take()
            .unwrap_or_else(|| StreamRecorder::new(sh.config.recorder_capacity));
        Probe(Some(Rc::new(RefCell::new(ProbeState {
            shared: Arc::clone(sh),
            stream: self.stream,
            recorder,
            heatmap: None,
            lanes: Vec::new(),
            first_lane: 0,
            merkle_depth: Histogram::default(),
            merkle_fetched: Histogram::default(),
            dram_queue_delay: Histogram::default(),
            dram_queue_clamped: 0,
        }))))
    }
}

impl fmt::Debug for Probe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Probe")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        if let Some(state) = self.0.take().and_then(|rc| Rc::try_unwrap(rc).ok()) {
            state.into_inner().publish();
        }
    }
}

impl ProbeState {
    /// Hands everything recorded to the stream table.
    fn publish(self) {
        let mut table = self.shared.table();
        let entry = &mut table.streams[usize::from(self.stream)];
        entry.recorder = Some(self.recorder);
        if let Some(mut map) = self.heatmap {
            map.finish();
            entry.heatmap = Some(map);
        }
        for (i, mut map) in self.lanes.into_iter().enumerate() {
            map.finish();
            table.streams[usize::from(self.first_lane) + i].heatmap = Some(map);
        }
        table.add(MERKLE_DEPTH, Metric::Histogram(Box::new(self.merkle_depth)));
        table.add(
            MERKLE_FETCHED,
            Metric::Histogram(Box::new(self.merkle_fetched)),
        );
        table.add(
            DRAM_QUEUE_DELAY,
            Metric::Histogram(Box::new(self.dram_queue_delay)),
        );
        table.add(DRAM_QUEUE_CLAMPED, Metric::Counter(self.dram_queue_clamped));
    }

    /// Applies the dense sampling rate and, for survivors, stamps and
    /// records the event. `make` runs only for sampled-in events. `rare`
    /// picks the stratum — callers pass it statically per hook, so a
    /// sampled-out dense event costs two counter bumps.
    #[inline]
    fn record(&mut self, rare: bool, make: impl FnOnce() -> Event) {
        if let Some(seq) = self.recorder.admit(rare, self.shared.config.sample_every) {
            let ev = TimedEvent {
                seq,
                ts_us: self.shared.epoch.elapsed().as_micros() as u64,
                stream: self.stream,
                event: make(),
            };
            self.recorder.push(ev);
        }
    }
}

impl Probe {
    /// Whether hooks do anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Runs `f` on the state of an enabled probe.
    #[inline]
    fn with(&self, f: impl FnOnce(&mut ProbeState)) {
        if let Some(state) = &self.0 {
            f(&mut state.borrow_mut());
        }
    }

    /// Sizes this simulation's per-set CTR heatmap. Called by the secure
    /// path once it knows its CTR-cache geometry; no-op when disabled or
    /// when the geometry is degenerate (`sets == 0` — e.g. a design with
    /// no CTR cache), so callers never trip the heatmap's positive-set
    /// invariant.
    pub fn ctr_heatmap_init(&self, sets: usize) {
        if sets == 0 {
            return;
        }
        self.with(|p| p.heatmap = Some(CtrHeatmap::new(sets, WINDOW_LEN, MAX_WINDOWS)));
    }

    /// Adds per-tenant CTR occupancy heatmap lanes on top of the combined
    /// heatmap: each of the `tenants` lanes becomes a heatmap-only stream
    /// labelled `<label>/tenant<i>`, so the standard heatmap export
    /// carries one document per tenant. Accesses route to the lane named
    /// by their `AccessInfo::tenant` (folded mod `tenants`). No-op when
    /// disabled or on degenerate geometry, like
    /// [`Probe::ctr_heatmap_init`] — single-tenant runs that never call
    /// this keep their artifact shape exactly.
    pub fn ctr_tenant_heatmaps_init(&self, sets: usize, tenants: usize) {
        if sets == 0 || tenants == 0 {
            return;
        }
        self.with(|p| {
            let mut table = p.shared.table();
            let base = table.streams[usize::from(p.stream)].label.clone();
            p.first_lane = table.push(format!("{base}/tenant0"));
            for i in 1..tenants {
                table.push(format!("{base}/tenant{i}"));
            }
            p.lanes = (0..tenants)
                .map(|_| CtrHeatmap::new(sets, WINDOW_LEN, MAX_WINDOWS))
                .collect();
        });
    }

    /// One demand CTR-cache access. `grew` flags a miss that filled a
    /// previously invalid way (per-set occupancy +1); it feeds the
    /// heatmaps only, the rest of `info` feeds the flight recorder.
    #[inline]
    pub fn ctr_access(&self, info: AccessInfo, grew: bool) {
        self.with(|p| {
            let set = info.set as usize;
            if let Some(h) = &mut p.heatmap {
                h.record(set, info.hit, grew);
            }
            if !p.lanes.is_empty() {
                let lane = usize::from(info.tenant) % p.lanes.len();
                p.lanes[lane].record(set, info.hit, grew);
            }
            p.record(false, || Event::CtrAccess(info));
        });
    }

    /// One CTR-cache eviction: the full victim provenance — tag,
    /// fill/touch stamps, policy deviation, RL decision — rides in the
    /// rare-stratum event for the explain pass.
    #[inline]
    pub fn ctr_evict(&self, info: EvictInfo) {
        self.with(|p| p.record(true, || Event::CtrEvict(info)));
    }

    /// One CTR-locality RL decision: its id, chosen action, reward, and
    /// the Q-pair the choice was made from.
    #[inline]
    pub fn rl_ctr_action(&self, id: u64, good: bool, reward: f32, q_good: f32, q_bad: f32) {
        self.with(|p| {
            p.record(false, || Event::RlCtrAction {
                id,
                good,
                reward,
                q_good,
                q_bad,
            });
        });
    }

    /// One resolved data-location RL prediction.
    #[inline]
    pub fn rl_data_action(&self, offchip: bool, correct: bool) {
        self.with(|p| p.record(false, || Event::RlDataAction { offchip, correct }));
    }

    /// A speculative early DRAM read was issued.
    #[inline]
    pub fn spec_issue(&self) {
        self.with(|p| p.record(true, || Event::SpecIssue));
    }

    /// A speculative read was killed (data turned out on-chip).
    #[inline]
    pub fn spec_kill(&self) {
        self.with(|p| p.record(true, || Event::SpecKill));
    }

    /// One Merkle-tree authentication walk: `depth` levels visited,
    /// `fetched` of them missed on-chip caches.
    #[inline]
    pub fn merkle_walk(&self, depth: u32, fetched: u32) {
        self.with(|p| {
            p.merkle_depth.record(u64::from(depth));
            p.merkle_fetched.record(u64::from(fetched));
            p.record(false, || Event::MerkleWalk {
                depth: depth.min(255) as u8,
                fetched: fetched.min(255) as u8,
            });
        });
    }

    /// One DRAM access: how long it queued and how the row buffer fared.
    /// A queue delay beyond `u32::MAX` cycles still clamps in the recorded
    /// event (the wire format is 32-bit) but is never silent: each clamp
    /// bumps the `sim.dram.queue_clamped` counter, which the metrics dump
    /// always lists, and the histogram keeps the unclamped value.
    #[inline]
    pub fn dram_access(&self, queued_cycles: u64, row_hit: bool, write: bool) {
        self.with(|p| {
            p.dram_queue_delay.record(queued_cycles);
            if queued_cycles > u64::from(u32::MAX) {
                p.dram_queue_clamped += 1;
            }
            p.record(false, || Event::DramAccess {
                queued_cycles: queued_cycles.min(u64::from(u32::MAX)) as u32,
                row_hit,
                write,
            });
        });
    }
}
