//! Layer replay: each simulator layer, driven through its public API on
//! the input stream it saw in a full run.
//!
//! The cache hierarchy does not depend on timing or on the design, so one
//! untimed hierarchy pass over the trace records every access's outcome and
//! LLC writebacks exactly. From that log (and, for the COSMOS data-location
//! designs, the predictor's own decisions) [`DesignStreams::derive`]
//! rebuilds, in the simulator's order, the streams the other layers see:
//! the L1-miss stream of the data-location predictor, the secure path's
//! CTR reads/writes and MAC reads, the CTR-line stream of the locality
//! predictor, and the data requests reaching DRAM. Each timed pass feeds
//! one stream to a fresh instance of its layer; [`check_hierarchy`] and
//! [`check_layers`] prove the replay against the full run's statistics.
//!
//! The replayed secure path and DRAM get synthetic, monotone request times:
//! their state (cache contents, counters, open rows) depends only on
//! request order, never on time.

use std::hint::black_box;
use std::time::{Duration, Instant};

use cosmos_common::rng::streams;
use cosmos_common::stats::HitMiss;
use cosmos_common::{Cycle, LineAddr, MemAccess, PhysAddr};
use cosmos_core::hierarchy::{CacheHierarchy, DataHit};
use cosmos_core::secure_path::SecurePath;
use cosmos_core::{Design, SimConfig, SimStats, TrafficBreakdown};
use cosmos_dram::{Dram, DramStats};
use cosmos_rl::{
    CtrLocalityPredictor, CtrLocalityStats, DataLocation, DataLocationPredictor, DataLocationStats,
};
use cosmos_secure::MetadataLayout;

/// Cycles between consecutive synthetic request times.
const REPLAY_CYCLE_STEP: u64 = 64;

/// What the hierarchy did with each access of a trace.
pub struct HierarchyLog {
    /// Level that served each access.
    pub hits: Vec<DataHit>,
    /// `wb_end[i]`: end of access `i`'s writebacks in `writebacks`.
    wb_end: Vec<usize>,
    writebacks: Vec<LineAddr>,
    pub l1: HitMiss,
    pub l2: HitMiss,
    pub llc: HitMiss,
}

impl HierarchyLog {
    /// Runs `trace` through a fresh hierarchy for `config`, recording.
    pub fn record(config: &SimConfig, trace: &[MemAccess]) -> Self {
        let mut h = CacheHierarchy::new(config);
        let mut scratch = Vec::new();
        let mut log = Self {
            hits: Vec::with_capacity(trace.len()),
            wb_end: Vec::with_capacity(trace.len()),
            writebacks: Vec::new(),
            l1: HitMiss::new(),
            l2: HitMiss::new(),
            llc: HitMiss::new(),
        };
        for a in trace {
            let core = a.core as usize % config.cores;
            log.hits
                .push(h.access(core, a.addr.line(), a.kind.is_write(), &mut scratch));
            log.writebacks.extend_from_slice(&scratch);
            log.wb_end.push(log.writebacks.len());
        }
        log.l1 = h.l1_stats();
        log.l2 = h.l2_stats();
        log.llc = h.llc_stats();
        log
    }

    fn writebacks_of(&self, i: usize) -> &[LineAddr] {
        let start = if i == 0 { 0 } else { self.wb_end[i - 1] };
        &self.writebacks[start..self.wb_end[i]]
    }

    /// Total LLC writebacks.
    pub fn writebacks(&self) -> usize {
        self.writebacks.len()
    }
}

/// One secure-path call, in simulator order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SecureOp {
    CtrRead(LineAddr),
    CtrReadAfterKill(LineAddr),
    CtrWrite(LineAddr),
    MacRead,
}

/// The input streams of one design's layers below the hierarchy.
pub struct DesignStreams {
    pub config: SimConfig,
    /// L1 misses with their actual location (data-location designs only).
    pub data_pred: Vec<(PhysAddr, DataLocation)>,
    /// Secure-path calls (secure designs only).
    pub secure: Vec<SecureOp>,
    /// Ends of the maximal runs of `secure` that are all writes or all
    /// reads (a MAC read rides with the CTR read before it), with the
    /// run's kind (`true` = writes).
    segments: Vec<(usize, bool)>,
    /// CTR lines classified by the locality predictor, in order
    /// (locality designs only).
    pub ctr_lines: Vec<LineAddr>,
    /// Data requests reaching DRAM: line and whether it is a write.
    pub dram: Vec<(LineAddr, bool)>,
}

fn data_predictor(config: &SimConfig) -> DataLocationPredictor {
    DataLocationPredictor::with_rewards(
        config.data_rl,
        config.rewards.data,
        streams::DATA_PREDICTOR.derive_seed(config.seed),
    )
}

fn locality_predictor(config: &SimConfig) -> CtrLocalityPredictor {
    CtrLocalityPredictor::with_rewards(
        config.ctr_rl,
        config.rewards.ctr,
        config.cet_entries,
        config.cet_radius,
        streams::CTR_PREDICTOR.derive_seed(config.seed),
    )
}

impl DesignStreams {
    /// Rebuilds the streams `config`'s design sees on `trace`, following
    /// `Simulator::step`'s call order.
    pub fn derive(config: &SimConfig, trace: &[MemAccess], log: &HierarchyLog) -> Self {
        use DataLocation::{OffChip, OnChip};
        let design = config.design;
        let secure = design.is_secure();
        let mut dp = design.has_data_predictor().then(|| data_predictor(config));
        let mut s = Self {
            config: config.clone(),
            data_pred: Vec::new(),
            secure: Vec::new(),
            segments: Vec::new(),
            ctr_lines: Vec::new(),
            dram: Vec::new(),
        };
        for (i, a) in trace.iter().enumerate() {
            let line = a.addr.line();
            let hit = log.hits[i];
            let writebacks = log.writebacks_of(i);
            if a.kind.is_write() {
                if hit == DataHit::Dram {
                    s.serialized_read(line, secure);
                }
                s.writebacks(writebacks, secure);
                continue;
            }
            s.writebacks(writebacks, secure);
            if hit == DataHit::L1 {
                continue;
            }
            if design == Design::Emcc {
                s.secure.push(SecureOp::CtrRead(line));
            }
            let actual = if hit.on_chip() { OnChip } else { OffChip };
            if let Some(dp) = dp.as_mut() {
                s.data_pred.push((a.addr, actual));
                let (predicted, state) = dp.predict_with_state(a.addr);
                dp.learn_at(state, predicted, actual);
                match (predicted, actual) {
                    (OffChip, OffChip) => s.serialized_read(line, true),
                    (OffChip, OnChip) => s.secure.push(SecureOp::CtrReadAfterKill(line)),
                    (OnChip, OnChip) => {}
                    (OnChip, OffChip) => s.serialized_read(line, true),
                }
            } else if actual == OffChip {
                s.dram.push((line, false));
                match design {
                    Design::Np => {}
                    Design::Emcc => s.secure.push(SecureOp::MacRead),
                    _ => s
                        .secure
                        .extend([SecureOp::CtrRead(line), SecureOp::MacRead]),
                }
            }
        }
        s.segments = segments(&s.secure);
        if design.has_locality_predictor() {
            let layout = MetadataLayout::new(config.protected_bytes, config.scheme);
            s.ctr_lines = s
                .secure
                .iter()
                .filter_map(|op| match *op {
                    SecureOp::CtrRead(l)
                    | SecureOp::CtrReadAfterKill(l)
                    | SecureOp::CtrWrite(l) => Some(layout.ctr_line_of(l)),
                    SecureOp::MacRead => None,
                })
                .collect();
        }
        s
    }

    /// A data read that reaches DRAM together with its CTR read and MAC
    /// read (secure designs).
    fn serialized_read(&mut self, line: LineAddr, secure: bool) {
        self.dram.push((line, false));
        if secure {
            self.secure
                .extend([SecureOp::CtrRead(line), SecureOp::MacRead]);
        }
    }

    fn writebacks(&mut self, writebacks: &[LineAddr], secure: bool) {
        for &wb in writebacks {
            self.dram.push((wb, true));
            if secure {
                self.secure.push(SecureOp::CtrWrite(wb));
            }
        }
    }

    /// CTR reads (including re-issues after a killed speculation).
    pub fn ctr_reads(&self) -> usize {
        self.secure
            .iter()
            .filter(|op| matches!(op, SecureOp::CtrRead(_) | SecureOp::CtrReadAfterKill(_)))
            .count()
    }

    /// CTR writes.
    pub fn ctr_writes(&self) -> usize {
        self.secure
            .iter()
            .filter(|op| matches!(op, SecureOp::CtrWrite(_)))
            .count()
    }
}

fn segments(ops: &[SecureOp]) -> Vec<(usize, bool)> {
    let mut out: Vec<(usize, bool)> = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        let write = matches!(op, SecureOp::CtrWrite(_));
        match out.last_mut() {
            Some((end, kind)) if *kind == write => *end = i + 1,
            _ => out.push((i + 1, write)),
        }
    }
    out
}

/// Timed hierarchy pass over the trace.
pub fn hierarchy_pass(config: &SimConfig, trace: &[MemAccess]) -> Duration {
    let mut h = CacheHierarchy::new(config);
    let mut scratch = Vec::new();
    let t0 = Instant::now();
    for a in trace {
        let core = a.core as usize % config.cores;
        black_box(h.access(core, a.addr.line(), a.kind.is_write(), &mut scratch));
    }
    t0.elapsed()
}

/// Timed data-location predictor pass: predict, then learn the actual
/// location, per L1 miss.
pub fn data_pred_pass(s: &DesignStreams) -> (Duration, DataLocationStats) {
    let mut dp = data_predictor(&s.config);
    let t0 = Instant::now();
    for &(addr, actual) in &s.data_pred {
        let (predicted, state) = dp.predict_with_state(addr);
        dp.learn_at(state, predicted, actual);
    }
    (t0.elapsed(), *dp.stats())
}

/// Timed locality predictor pass over the CTR-line stream.
pub fn ctr_pred_pass(s: &DesignStreams) -> (Duration, CtrLocalityStats) {
    let mut p = locality_predictor(&s.config);
    let t0 = Instant::now();
    for &line in &s.ctr_lines {
        black_box(p.classify(line));
    }
    (t0.elapsed(), *p.stats())
}

/// The outcome of a secure-path pass.
pub struct SecurePass {
    pub total: Duration,
    /// Time in runs of CTR reads (with their MAC reads) and in runs of CTR
    /// writes, each less one clock read per run.
    pub read_time: Duration,
    pub write_time: Duration,
    pub path: SecurePath,
    pub traffic: TrafficBreakdown,
}

/// Timed secure-path pass. Every run of same-kind calls is timed on its
/// own so reads and writes get separate costs; `clock` is the calibrated
/// cost of one timing, subtracted per run.
pub fn secure_pass(s: &DesignStreams, clock: Duration) -> SecurePass {
    let mut sp = SecurePath::new(&s.config);
    let mut dram = Dram::new(s.config.dram);
    let mut traffic = TrafficBreakdown::default();
    let (mut read_time, mut write_time) = (Duration::ZERO, Duration::ZERO);
    let mut start = 0;
    let t0 = Instant::now();
    for &(end, write) in &s.segments {
        let seg = Instant::now();
        for (i, op) in s.secure[start..end].iter().enumerate() {
            let now = Cycle::new((start + i) as u64 * REPLAY_CYCLE_STEP);
            match *op {
                SecureOp::CtrRead(l) => {
                    black_box(sp.ctr_read(l, now, &mut dram, &mut traffic));
                }
                SecureOp::CtrReadAfterKill(l) => {
                    black_box(sp.ctr_read_after_kill(l, now, &mut dram, &mut traffic));
                }
                SecureOp::CtrWrite(l) => sp.ctr_write(l, now, &mut dram, &mut traffic),
                SecureOp::MacRead => sp.mac_read(&mut traffic),
            }
        }
        let spent = seg.elapsed().saturating_sub(clock);
        if write {
            write_time += spent;
        } else {
            read_time += spent;
        }
        start = end;
    }
    SecurePass {
        total: t0.elapsed(),
        read_time,
        write_time,
        path: sp,
        traffic,
    }
}

/// Timed DRAM pass over the data requests.
pub fn dram_pass(s: &DesignStreams) -> (Duration, DramStats) {
    let mut dram = Dram::new(s.config.dram);
    let t0 = Instant::now();
    for (i, &(line, write)) in s.dram.iter().enumerate() {
        black_box(dram.access(line, Cycle::new(i as u64 * REPLAY_CYCLE_STEP), write));
    }
    (t0.elapsed(), *dram.stats())
}

/// The median cost of one `Instant::now()` plus `elapsed()` pair.
pub fn clock_cost() -> Duration {
    const PAIRS: u32 = 20_000;
    let mut batches: Vec<Duration> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..PAIRS {
                black_box(Instant::now().elapsed());
            }
            t0.elapsed() / PAIRS
        })
        .collect();
    batches.sort();
    batches[2]
}

fn mismatch<T: PartialEq + std::fmt::Debug>(out: &mut Vec<String>, what: &str, replay: T, full: T) {
    if replay != full {
        out.push(format!("{what}: replay {replay:?}, full run {full:?}"));
    }
}

/// Replay counts that differ from the full run `full` of the same design.
pub fn check_hierarchy(log: &HierarchyLog, full: &SimStats) -> Vec<String> {
    let mut out = Vec::new();
    mismatch(&mut out, "L1", log.l1, full.l1);
    mismatch(&mut out, "L2", log.l2, full.l2);
    mismatch(&mut out, "LLC", log.llc, full.llc);
    out
}

/// Replay counts of the layers below the hierarchy that differ from the
/// full run `full` of the same design.
pub fn check_layers(
    full: &SimStats,
    data: Option<&DataLocationStats>,
    ctr: Option<&CtrLocalityStats>,
    secure: Option<&SecurePass>,
    dram: &DramStats,
) -> Vec<String> {
    let mut out = Vec::new();
    if let Some(d) = data {
        mismatch(&mut out, "data-location predictor", *d, full.data_pred);
    }
    if let Some(c) = ctr {
        mismatch(&mut out, "locality predictor", *c, full.ctr_pred);
    }
    if let Some(p) = secure {
        mismatch(
            &mut out,
            "CTR cache",
            *p.path.ctr_cache().stats(),
            full.ctr_cache,
        );
        mismatch(
            &mut out,
            "MT cache",
            *p.path.mt_cache().stats(),
            full.mt_cache,
        );
        mismatch(
            &mut out,
            "overflows",
            p.path.overflows(),
            full.ctr_overflows,
        );
        let t = &p.traffic;
        let f = &full.traffic;
        mismatch(
            &mut out,
            "metadata traffic",
            [
                t.ctr_reads,
                t.ctr_writes,
                t.mt_reads,
                t.mt_writes,
                t.mac_reads,
                t.mac_writes,
                t.reencrypt_writes,
            ],
            [
                f.ctr_reads,
                f.ctr_writes,
                f.mt_reads,
                f.mt_writes,
                f.mac_reads,
                f.mac_writes,
                f.reencrypt_writes,
            ],
        );
    }
    mismatch(
        &mut out,
        "DRAM data requests",
        (dram.reads, dram.writes),
        (full.traffic.data_reads, full.traffic.data_writes),
    );
    out
}
