//! The epoch protocol: prime → victim burst → probe, repeated.
//!
//! One *cell* of the occupancy sweep is a single simulation in which an
//! attacker tenant and a victim tenant alternate phases:
//!
//! 1. **Prime**: the attacker reads `probe_lines` distinct counter blocks,
//!    filling the CTR cache with attacker-owned counter lines.
//! 2. **Victim burst**: the victim runs — either a synthetic occupancy
//!    generator touching a controlled number of counter blocks (the sweep
//!    variable) or a slice of a real workload trace.
//! 3. **Probe**: the attacker re-reads *the same counter blocks* it primed
//!    and observes how many now miss (and how many cycles those misses
//!    cost) — the per-epoch channel observation.
//!
//! Two addressing details make the instrument clean:
//!
//! - Prime and probe touch the same counter block through *different data
//!   lines* (slot 0 vs slot 1 of the block's `coverage`-line span), so the
//!   probe always misses the data caches and the measurement isolates the
//!   CTR cache.
//! - Each epoch uses a *fresh* range of counter blocks, so no phase ever
//!   hits leftover data-cache or CTR state from a previous epoch; the
//!   probe's hits and misses are determined purely by what survived this
//!   epoch's victim burst.
//!
//! Observations are read from the simulator's per-tenant CTR stat buckets
//! ([`cosmos_core::stats::TenantCtrStats`]) — the same attribution the
//! flight recorder and telemetry heatmaps use.

use crate::leakage::EpochObservation;
use cosmos_common::stats::Counters;
use cosmos_common::{MemAccess, PhysAddr, Trace};
use cosmos_core::{SimConfig, SimStats, Simulator};
use cosmos_verify::Checker;
use std::ops::Range;

/// Geometry and schedule of one channel cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChannelSpec {
    /// Counter blocks primed and probed per epoch. Set to the CTR cache's
    /// line capacity for a self-evicting full-occupancy probe.
    pub probe_lines: usize,
    /// Leading epochs discarded from the observation vector (cache and
    /// predictor warm-up).
    pub warmup_epochs: usize,
    /// Measured epochs.
    pub epochs: usize,
    /// Tenant id carried by attacker accesses (victim accesses carry 0).
    pub attacker_tenant: u8,
    /// First data-line index of the attacker's probe region.
    pub attacker_base_line: u64,
    /// First data-line index of the synthetic victim's region.
    pub victim_base_line: u64,
}

impl ChannelSpec {
    /// A spec probing `probe_lines` counter blocks with the default
    /// regions (attacker at data line 2^26, victim at 2^27 — far above the
    /// workload generators' footprints, far below the 32 GB line count).
    pub const fn new(probe_lines: usize, epochs: usize) -> Self {
        Self {
            probe_lines,
            warmup_epochs: 2,
            epochs,
            attacker_tenant: 1,
            attacker_base_line: 1 << 26,
            victim_base_line: 1 << 27,
        }
    }
}

/// What runs in the victim phase of every epoch.
#[derive(Clone, Copy, Debug)]
pub enum Victim<'a> {
    /// Synthetic occupancy: touch `lines` fresh counter blocks per epoch —
    /// the controlled sweep variable. `lines == 0` is the idle victim.
    Occupancy { lines: usize },
    /// A real workload: `burst` accesses per epoch, taken from `trace` in
    /// order and cycled when exhausted.
    Workload { trace: &'a Trace, burst: usize },
}

/// A fully materialized cell input: the tenant-tagged access sequence plus
/// the index ranges of every measured probe phase.
#[derive(Clone, Debug)]
pub struct EpochTrace {
    /// The composed access sequence.
    pub trace: Trace,
    /// Index ranges (into `trace`) of the measured epochs' probe phases,
    /// warmup excluded.
    pub probe_windows: Vec<Range<usize>>,
}

/// Builds the epoch-protocol trace for one cell. `coverage` is the counter
/// scheme's data-lines-per-counter-block (`config.scheme.coverage()`);
/// deterministic — the builder draws no randomness at all.
///
/// # Panics
///
/// Panics if `probe_lines` or `epochs` is zero, or if a workload victim's
/// trace is empty with a non-zero burst.
pub fn build_epoch_trace(spec: &ChannelSpec, victim: Victim<'_>, coverage: u64) -> EpochTrace {
    assert!(spec.probe_lines > 0, "probe must touch at least one block");
    assert!(spec.epochs > 0, "need at least one measured epoch");
    let total_epochs = spec.warmup_epochs + spec.epochs;
    let victim_len = match victim {
        Victim::Occupancy { lines } => lines,
        Victim::Workload { trace, burst } => {
            assert!(
                burst == 0 || !trace.is_empty(),
                "workload victim needs a non-empty trace"
            );
            burst
        }
    };
    let epoch_len = 2 * spec.probe_lines + victim_len;
    let mut out = Trace::with_capacity(epoch_len * total_epochs);
    let mut probe_windows = Vec::with_capacity(spec.epochs);
    let mut victim_cursor = 0usize; // block index or trace index
    for epoch in 0..total_epochs {
        // Fresh counter blocks for this epoch's prime+probe pair.
        let first_block = epoch as u64 * spec.probe_lines as u64;
        let prime_line = |i: u64| spec.attacker_base_line + (first_block + i) * coverage;
        for i in 0..spec.probe_lines as u64 {
            out.push(
                MemAccess::read(0, PhysAddr::new(prime_line(i) * 64), 1)
                    .with_tenant(spec.attacker_tenant),
            );
        }
        match victim {
            Victim::Occupancy { lines } => {
                for _ in 0..lines {
                    let line = spec.victim_base_line + victim_cursor as u64 * coverage;
                    out.push(MemAccess::read(1, PhysAddr::new(line * 64), 1));
                    victim_cursor += 1;
                }
            }
            Victim::Workload { trace, burst } => {
                let slice = trace.as_slice();
                for _ in 0..burst {
                    out.push(slice[victim_cursor % slice.len()].with_tenant(0));
                    victim_cursor += 1;
                }
            }
        }
        let probe_start = out.len();
        // Probe: same blocks, next data slot — a guaranteed data-cache
        // miss that still lands on the primed counter line.
        for i in 0..spec.probe_lines as u64 {
            out.push(
                MemAccess::read(0, PhysAddr::new((prime_line(i) + 1) * 64), 1)
                    .with_tenant(spec.attacker_tenant),
            );
        }
        if epoch >= spec.warmup_epochs {
            probe_windows.push(probe_start..out.len());
        }
    }
    EpochTrace {
        trace: out,
        probe_windows,
    }
}

/// Everything one cell run produces.
#[derive(Clone, Debug, PartialEq)]
pub struct CellResult {
    /// One observation per measured epoch.
    pub observations: Vec<EpochObservation>,
    /// The cell simulation's final statistics.
    pub stats: SimStats,
    /// Oracle violations found when `check` was set (0 otherwise).
    pub check_violations: u64,
}

/// Runs one cell: steps `et.trace` through a fresh simulator under
/// `config`, reading the attacker's per-tenant CTR stat bucket before and
/// after every measured probe window. With `check`, a `cosmos-verify`
/// [`Checker`] observes the run in lockstep, with a boundary at every
/// probe-window end; violations are counted in the result and written to
/// stderr as `verify[channel/<design>/<index>]:` lines. Observations are
/// byte-identical either way — the oracles observe, never perturb.
///
/// # Panics
///
/// Panics if `config.design` has no secure path (no CTR cache — nothing to
/// probe).
pub fn run_cell(config: &SimConfig, et: &EpochTrace, check: bool) -> CellResult {
    assert!(
        config.design.is_secure(),
        "occupancy channel needs a CTR cache; {} has none",
        config.design
    );
    let mut sim = Simulator::new(config.clone());
    let mut checker = check.then(|| {
        Checker::attach(config, &mut sim)
            .expect("a fresh simulator gets fresh shadows, which always build")
    });
    // The attacker's stat bucket: first non-zero tenant tag in the trace,
    // folded the same way SecurePath folds it.
    let att = usize::from(
        et.trace
            .iter()
            .map(|a| a.tenant)
            .find(|&t| t != 0)
            .unwrap_or(1),
    ) % cosmos_core::stats::MAX_TENANTS;

    let mut observations = Vec::with_capacity(et.probe_windows.len());
    let mut windows = et.probe_windows.iter();
    let mut current = windows.next();
    let mut before = cosmos_core::stats::TenantCtrStats::default();
    for (i, access) in et.trace.iter().enumerate() {
        if let Some(w) = current {
            if i == w.start {
                before = sim.secure().expect("secure design").tenant_stats()[att];
            }
        }
        sim.step(access);
        if let Some(w) = current {
            if i + 1 == w.end {
                let after = sim.secure().expect("secure design").tenant_stats()[att];
                let delta = after.since(&before);
                observations.push(EpochObservation {
                    probe_hits: delta.hits,
                    probe_misses: delta.misses,
                    probe_miss_latency: delta.miss_latency,
                });
                if let Some(checker) = &mut checker {
                    checker.boundary(&sim);
                }
                current = windows.next();
            }
        }
    }

    let check_violations = checker.map_or(0, |checker| {
        let report = checker.finish(&sim);
        report.eprint_findings(&format!(
            "channel/{}/{}",
            config.design,
            config.ctr_index.name()
        ));
        report.total_violations
    });
    CellResult {
        observations,
        stats: sim.finalize(),
        check_violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosmos_core::config::CtrIndex;
    use cosmos_core::Design;

    fn tiny_config(design: Design) -> SimConfig {
        let mut c = SimConfig::paper_default(design);
        c.ctr_cache.size_bytes = 8 * 1024; // 128 counter lines
        c.mt_cache.size_bytes = 8 * 1024;
        c
    }

    #[test]
    fn epoch_trace_has_expected_shape() {
        let spec = ChannelSpec::new(16, 3);
        let cov = 128;
        let et = build_epoch_trace(&spec, Victim::Occupancy { lines: 8 }, cov);
        // (2 warmup + 3 measured) epochs × (16 prime + 8 victim + 16 probe).
        assert_eq!(et.trace.len(), 5 * 40);
        assert_eq!(et.probe_windows.len(), 3);
        for w in &et.probe_windows {
            assert_eq!(w.len(), 16);
            for a in &et.trace.as_slice()[w.clone()] {
                assert_eq!(a.tenant, 1, "probe window holds attacker accesses");
            }
        }
        // Prime and probe of one epoch share counter blocks but not lines.
        let prime0 = et.trace.as_slice()[0].addr.value() / 64;
        let probe0 = et.trace.as_slice()[24].addr.value() / 64;
        assert_eq!(probe0, prime0 + 1, "probe uses the next data slot");
    }

    #[test]
    fn epochs_never_reuse_counter_blocks() {
        let spec = ChannelSpec::new(8, 4);
        let cov = 128;
        let et = build_epoch_trace(&spec, Victim::Occupancy { lines: 4 }, cov);
        let mut blocks: Vec<u64> = et
            .trace
            .iter()
            .filter(|a| a.tenant == 1)
            .map(|a| (a.addr.value() / 64) / cov)
            .collect();
        blocks.sort_unstable();
        blocks.dedup();
        // 6 epochs × 8 blocks, each appearing for prime and probe only.
        assert_eq!(blocks.len(), 6 * 8);
    }

    #[test]
    fn victim_occupancy_raises_probe_misses_under_lru() {
        let config = tiny_config(Design::MorphCtr);
        let cov = config.scheme.coverage();
        let spec = ChannelSpec::new(128, 12);
        let idle = build_epoch_trace(&spec, Victim::Occupancy { lines: 0 }, cov);
        let busy = build_epoch_trace(&spec, Victim::Occupancy { lines: 96 }, cov);
        let idle_r = run_cell(&config, &idle, false);
        let busy_r = run_cell(&config, &busy, false);
        let mean = |r: &CellResult| {
            r.observations.iter().map(|o| o.probe_misses).sum::<u64>() as f64
                / r.observations.len() as f64
        };
        assert!(
            mean(&busy_r) > mean(&idle_r) + 8.0,
            "victim occupancy invisible: idle {} vs busy {}",
            mean(&idle_r),
            mean(&busy_r)
        );
    }

    #[test]
    fn cell_is_deterministic_and_check_does_not_perturb() {
        let mut config = tiny_config(Design::MorphCtr);
        config.ctr_index = CtrIndex::Random;
        let cov = config.scheme.coverage();
        let spec = ChannelSpec::new(64, 6);
        let et = build_epoch_trace(&spec, Victim::Occupancy { lines: 32 }, cov);
        let a = run_cell(&config, &et, false);
        let b = run_cell(&config, &et, false);
        assert_eq!(a, b, "cell must be deterministic");
        let checked = run_cell(&config, &et, true);
        assert_eq!(
            checked.check_violations, 0,
            "oracles must pass on a randomized-index cell"
        );
        assert_eq!(checked.observations, a.observations);
        assert_eq!(checked.stats, a.stats);
    }

    #[test]
    fn workload_victim_cycles_and_tags_tenant_zero() {
        let victim: Trace = (0..10)
            .map(|i| MemAccess::read(2, PhysAddr::new(i * 64), 1))
            .collect();
        let spec = ChannelSpec::new(4, 2);
        let et = build_epoch_trace(
            &spec,
            Victim::Workload {
                trace: &victim,
                burst: 16,
            },
            128,
        );
        let bursts: Vec<_> = et.trace.iter().filter(|a| a.tenant == 0).collect();
        assert_eq!(bursts.len(), 4 * 16, "4 epochs × 16-access bursts");
        assert_eq!(bursts[0].addr, bursts[10].addr, "trace cycles past its end");
    }
}
