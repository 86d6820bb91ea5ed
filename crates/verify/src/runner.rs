//! Checked simulation: the real simulator plus every oracle in this crate.
//!
//! [`Checker`] is the one way to attach the oracles to a [`Simulator`]:
//! [`Checker::attach`] hooks a [`ShadowHook`] observer into the secure
//! path, so the shadow models mirror every secure-path event;
//! [`Checker::boundary`] runs the conservation-law catalogue on a
//! cumulative snapshot; [`Checker::finish`] runs the end-of-run shadow
//! diffs and returns the [`CheckReport`]. Each run loop that offers
//! `--check` attaches a `Checker` and calls `boundary` at its own
//! natural boundaries — [`run_checked`] here (the full trace, every
//! [`CHECK_INTERVAL`] accesses), `cosmos_sampling::run_plan` (every
//! measured window), `cosmos_serve`'s checkpointed loop and
//! `cosmos_channel::run_cell` (every probe window). The oracles observe,
//! they never perturb: checked statistics are byte-identical to
//! unchecked ones.

use crate::invariants::{check_monotonic, check_stats, Violation};
use crate::observer::{ShadowHook, ShadowState};
use cosmos_common::Trace;
use cosmos_core::{SimConfig, SimStats, Simulator};
use std::cell::RefCell;
use std::rc::Rc;

/// Step loops run a [`Checker::boundary`] every this many accesses.
pub const CHECK_INTERVAL: usize = 4_096;

/// Retained-violation cap for a whole checked run.
const REPORT_CAP: usize = 256;

/// Everything the oracles observed during a checked run.
#[derive(Debug, Default)]
pub struct CheckReport {
    /// Violations, in discovery order (capped; see `total_violations`).
    pub violations: Vec<Violation>,
    /// Total violations found, including any past the retention cap.
    pub total_violations: u64,
    /// Secure-path events the shadow models mirrored.
    pub observer_events: u64,
    /// Snapshot boundaries at which the invariant catalogue ran.
    pub boundary_checks: u64,
}

impl CheckReport {
    /// Whether every oracle passed.
    pub fn is_clean(&self) -> bool {
        self.total_violations == 0
    }

    /// One-line summary for logs.
    pub fn summary(&self) -> String {
        format!(
            "{} violations ({} retained) over {} observer events, {} boundary checks",
            self.total_violations,
            self.violations.len(),
            self.observer_events,
            self.boundary_checks,
        )
    }

    /// Writes a dirty report to stderr as `verify[<label>]: …` lines (the
    /// summary, then up to 16 violations); a clean report writes nothing.
    /// Stderr keeps the findings away from the result tables and JSON,
    /// which must not change under `--check`; `scripts/check.sh` fails a
    /// `--check` run on any line with this prefix.
    pub fn eprint_findings(&self, label: &str) {
        if self.is_clean() {
            return;
        }
        eprintln!("verify[{label}]: {}", self.summary());
        for v in self.violations.iter().take(16) {
            eprintln!("verify[{label}]:   {v}");
        }
    }
}

/// Every oracle, attached to one live [`Simulator`].
pub struct Checker {
    config: SimConfig,
    shadow: Option<Rc<RefCell<ShadowState>>>,
    prev: Option<SimStats>,
    prev_ready: Vec<u64>,
    report: CheckReport,
}

impl Checker {
    /// Builds the oracles for `sim` and attaches the shadow observer to
    /// its secure path. A simulator that has already simulated accesses
    /// (restored from a snapshot) gets shadow models primed from its
    /// secure path (see [`ShadowState::primed`]), so the oracles judge only
    /// what happens from here on; a fresh one gets fresh shadows, which
    /// cannot fail.
    ///
    /// # Errors
    ///
    /// When the restored secure path cannot expose priming state.
    pub fn attach(config: &SimConfig, sim: &mut Simulator) -> Result<Self, String> {
        let shadow = match sim.secure() {
            Some(sp) if sim.snapshot().accesses > 0 => Some(ShadowState::primed(config, sp)?),
            _ => ShadowState::new(config),
        }
        .map(|s| Rc::new(RefCell::new(s)));
        if let Some(state) = &shadow {
            let attached = sim.set_secure_observer(Box::new(ShadowHook::new(Rc::clone(state))));
            debug_assert!(attached, "secure design must accept an observer");
        }
        Ok(Self {
            config: config.clone(),
            shadow,
            prev: None,
            prev_ready: sim.core_ready().iter().map(|c| c.value()).collect(),
            report: CheckReport::default(),
        })
    }

    fn record(&mut self, batch: Vec<Violation>) {
        self.report.total_violations += batch.len() as u64;
        for v in batch {
            if self.report.violations.len() < REPORT_CAP {
                self.report.violations.push(v);
            }
        }
    }

    /// Runs the conservation-law catalogue on `sim`'s cumulative snapshot
    /// (where the laws are exact, even under warmup and sampling), plus the
    /// monotonicity checks against the previous boundary.
    pub fn boundary(&mut self, sim: &Simulator) {
        self.report.boundary_checks += 1;
        let snap = sim.snapshot();
        let mut batch = check_stats(&snap, &self.config);
        if let Some(prev) = &self.prev {
            batch.extend(check_monotonic(prev, &snap));
        }
        let ready: Vec<u64> = sim.core_ready().iter().map(|c| c.value()).collect();
        for (core, (before, after)) in self.prev_ready.iter().zip(&ready).enumerate() {
            if after < before {
                batch.push(Violation::new(
                    "core-cycle-regression",
                    format!("core {core} ready cycle went backwards: {before} -> {after}"),
                ));
            }
        }
        self.prev_ready = ready;
        self.prev = Some(snap);
        self.record(batch);
    }

    /// A last [`boundary`](Self::boundary), then the end-of-run shadow
    /// diffs (residency, counters, Merkle replay); folds the shadow's own
    /// violations into the report. Valid between any two accesses, so a
    /// preempted run finishes its checker too.
    pub fn finish(mut self, sim: &Simulator) -> CheckReport {
        self.boundary(sim);
        if let Some(state) = self.shadow.take() {
            {
                let mut s = state.borrow_mut();
                if let Some(sp) = sim.secure() {
                    s.final_checks(sp);
                }
            }
            let s = state.borrow();
            self.report.observer_events = s.events();
            self.report.total_violations += s.total_violations();
            for v in s.violations() {
                if self.report.violations.len() < REPORT_CAP {
                    self.report.violations.push(v.clone());
                }
            }
        }
        self.report
    }
}

/// Runs `trace` exactly as [`Simulator::run`] would, with every oracle
/// attached and a boundary every [`CHECK_INTERVAL`] accesses. The returned
/// statistics are byte-identical to the unchecked run's.
pub fn run_checked(config: &SimConfig, trace: &Trace) -> (SimStats, CheckReport) {
    let mut sim = Simulator::new(config.clone());
    let mut checker = Checker::attach(config, &mut sim)
        .expect("a fresh simulator gets fresh shadows, which always build");
    for (i, access) in trace.iter().enumerate() {
        sim.step(access);
        if (i + 1) % CHECK_INTERVAL == 0 {
            checker.boundary(&sim);
        }
    }
    let report = checker.finish(&sim);
    (sim.finalize(), report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosmos_common::{MemAccess, PhysAddr, SplitMix64};
    use cosmos_core::Design;
    use cosmos_sampling::{run_plan, SamplingConfig, SamplingPlan};

    fn small_config(design: Design) -> SimConfig {
        let mut c = SimConfig::paper_default(design);
        c.cores = 2;
        c.l1.size_bytes = 4096;
        c.l2.size_bytes = 16 * 1024;
        c.llc.size_bytes = 64 * 1024;
        c.ctr_cache.size_bytes = 8192;
        c.mt_cache.size_bytes = 8192;
        c.protected_bytes = 1 << 30;
        c
    }

    fn random_trace(n: usize, lines: u64, write_frac: f64, seed: u64) -> Trace {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|_| {
                let addr = PhysAddr::new(rng.next_below(lines) * 64);
                let core = (rng.next_u32() % 2) as u8;
                if rng.chance(write_frac) {
                    MemAccess::write(core, addr, 2)
                } else {
                    MemAccess::read(core, addr, 2)
                }
            })
            .collect()
    }

    /// Continues a simulator restored from a snapshot over `tail` with a
    /// [`Checker`] attached — the checked tail the checkpointed runner
    /// drives — so `attach` primes the shadows from the restored state.
    fn run_checked_tail(
        config: &SimConfig,
        mut sim: Simulator,
        tail: &[MemAccess],
    ) -> (SimStats, CheckReport) {
        let mut checker = Checker::attach(config, &mut sim).expect("prime from restored state");
        for (i, access) in tail.iter().enumerate() {
            sim.step(access);
            if (i + 1) % CHECK_INTERVAL == 0 {
                checker.boundary(&sim);
            }
        }
        let report = checker.finish(&sim);
        (sim.finalize(), report)
    }

    #[test]
    fn checked_run_is_clean_and_byte_identical_for_every_design() {
        let t = random_trace(12_000, 40_000, 0.3, 11);
        for d in Design::ALL {
            let config = small_config(d);
            let plain = Simulator::new(config.clone()).run(&t);
            let (checked, report) = run_checked(&config, &t);
            assert!(
                report.is_clean(),
                "{d}: {}\n{:#?}",
                report.summary(),
                report.violations
            );
            assert_eq!(checked, plain, "{d}: checked stats diverged from unchecked");
            if d.is_secure() {
                assert!(report.observer_events > 0, "{d}: observer saw nothing");
            }
        }
    }

    #[test]
    fn checked_run_exercises_overflow_reencryption() {
        // A write-heavy working set four times the LLC: dirty lines cycle
        // out constantly, so MorphCtr blocks accumulate >64 nonzero minors
        // past the uniform format and overflow — covering the dense
        // store's morph rule and the Merkle replay under re-encryption.
        let mut config = small_config(Design::MorphCtr);
        config.llc.size_bytes = 16 * 1024;
        let t = random_trace(60_000, 1024, 0.9, 12);
        let (stats, report) = run_checked(&config, &t);
        assert!(
            stats.ctr_overflows > 0,
            "trace failed to overflow a counter"
        );
        assert!(
            report.is_clean(),
            "{}\n{:#?}",
            report.summary(),
            report.violations
        );
    }

    #[test]
    fn checked_run_is_clean_under_index_variants() {
        // The shadow oracle must stay green when the CTR cache uses the
        // keyed-random or skewed index, on both the Exact (LRU) and Mirror
        // (LCR/boxed) code paths that each index permits.
        use cosmos_core::config::CtrIndex;
        let t = random_trace(12_000, 40_000, 0.3, 31);
        for (design, index) in [
            (Design::MorphCtr, CtrIndex::Random), // LRU + random → Exact
            (Design::Cosmos, CtrIndex::Random),   // LCR + random → Mirror
            (Design::MorphCtr, CtrIndex::Skewed), // LRU + skewed → pool
        ] {
            let mut config = small_config(design);
            config.ctr_index = index;
            let plain = Simulator::new(config.clone()).run(&t);
            let (checked, report) = run_checked(&config, &t);
            assert!(
                report.is_clean(),
                "{design}/{}: {}\n{:#?}",
                index.name(),
                report.summary(),
                report.violations
            );
            assert_eq!(
                checked,
                plain,
                "{design}/{}: checked stats diverged",
                index.name()
            );
            assert!(report.observer_events > 0);
        }
    }

    #[test]
    fn checked_run_with_prefetcher_is_clean() {
        let mut config = small_config(Design::MorphCtr);
        config.ctr_prefetcher = cosmos_cache::PrefetcherKind::NextLine;
        let t = random_trace(12_000, 40_000, 0.3, 13);
        let plain = Simulator::new(config.clone()).run(&t);
        let (checked, report) = run_checked(&config, &t);
        assert!(
            report.is_clean(),
            "{}\n{:#?}",
            report.summary(),
            report.violations
        );
        assert_eq!(checked, plain);
    }

    #[test]
    fn checked_sampled_run_is_clean_and_byte_identical() {
        let t = random_trace(40_000, 100_000, 0.25, 14);
        let scfg = SamplingConfig {
            interval_len: 4_096,
            clusters: 4,
            warmup_len: 2_048,
            prime_len: 0,
            kmeans_iters: 50,
            seed: 3,
        };
        let plan = SamplingPlan::build(&t, &scfg);
        assert!(plan.representatives.len() > 1);
        for d in [Design::MorphCtr, Design::Cosmos] {
            let config = small_config(d);
            let plain = cosmos_sampling::run_sampled(&config, &t, &plan);
            let mut sim = Simulator::new(config.clone());
            let mut checker = Checker::attach(&config, &mut sim).expect("fresh shadows");
            let checked = run_plan(&mut sim, &t, &plan, |sim| checker.boundary(sim));
            let report = checker.finish(&sim);
            assert!(
                report.is_clean(),
                "{d}: {}\n{:#?}",
                report.summary(),
                report.violations
            );
            assert_eq!(checked, plain, "{d}: checked sampled run diverged");
        }
    }

    #[test]
    fn resumed_checked_run_is_clean_and_matches_uninterrupted() {
        // Snapshot at N/2, restore into a fresh simulator, and run the
        // tail with primed oracles: the shadows must stay green and the
        // final stats must equal the uninterrupted run exactly. MorphCtr
        // exercises the Exact CTR shadow (LRU), Cosmos the Mirror shadow
        // (LCR) plus both predictors.
        let t = random_trace(16_000, 40_000, 0.3, 21);
        let half = t.len() / 2;
        for d in [Design::MorphCtr, Design::Cosmos] {
            let config = small_config(d);
            let full = Simulator::new(config.clone()).run(&t);

            let mut first = Simulator::new(config.clone());
            for a in &t.as_slice()[..half] {
                first.step(a);
            }
            let state = first.save_state().expect("save");
            let mut resumed = Simulator::new(config.clone());
            resumed.load_state(&state).expect("load");
            let (stats, report) = run_checked_tail(&config, resumed, &t.as_slice()[half..]);
            assert!(
                report.is_clean(),
                "{d}: {}\n{:#?}",
                report.summary(),
                report.violations
            );
            assert!(report.observer_events > 0, "{d}: observer saw nothing");
            assert_eq!(stats, full, "{d}: resumed checked run diverged");
        }
    }

    #[test]
    fn resumed_checked_run_survives_primed_overflow_state() {
        // Overflow counters *before* the snapshot so the primed dense
        // store and Merkle leaves start from non-trivial state, then keep
        // overflowing after the resume.
        let mut config = small_config(Design::MorphCtr);
        config.llc.size_bytes = 16 * 1024;
        let t = random_trace(60_000, 1024, 0.9, 22);
        let half = t.len() / 2;
        let full = Simulator::new(config.clone()).run(&t);
        assert!(full.ctr_overflows > 0, "trace failed to overflow a counter");

        let mut first = Simulator::new(config.clone());
        for a in &t.as_slice()[..half] {
            first.step(a);
        }
        assert!(
            first.snapshot().ctr_overflows > 0,
            "first half must already overflow for the priming to matter"
        );
        let state = first.save_state().expect("save");
        let mut resumed = Simulator::new(config.clone());
        resumed.load_state(&state).expect("load");
        let (stats, report) = run_checked_tail(&config, resumed, &t.as_slice()[half..]);
        assert!(
            report.is_clean(),
            "{}\n{:#?}",
            report.summary(),
            report.violations
        );
        assert_eq!(stats, full);
    }

    #[test]
    fn report_summary_mentions_counts() {
        let t = random_trace(5_000, 20_000, 0.3, 15);
        let (_, report) = run_checked(&small_config(Design::Cosmos), &t);
        let s = report.summary();
        assert!(s.contains("violations"), "{s}");
        assert!(s.contains("boundary"), "{s}");
    }
}
