//! Parallel job-grid executor for the experiment sweeps.
//!
//! Every figure harness runs a grid of *independent* simulations
//! (design × kernel × sweep point). This module turns that grid into a
//! [`Job`] list and fans it out over a worker pool:
//!
//! - workers are plain [`std::thread::scope`] threads (no external
//!   crates), sized by [`Args::jobs`](crate::Args) — i.e. `--jobs N`,
//!   `COSMOS_JOBS`, or the machine's available parallelism,
//! - traces are shared **by reference** into the scope: a multi-million
//!   access `Trace` is generated once and never cloned,
//! - results come back in **job order**, no matter which worker finished
//!   when, so serial and parallel runs produce byte-identical reports.
//!
//! Each simulation is itself single-threaded and deterministic (seeded
//! [`SplitMix64`](cosmos_common::SplitMix64) streams), so the only source
//! of nondeterminism a pool could introduce is result ordering — which the
//! index-tagged merge below removes.
//!
//! # Examples
//!
//! ```
//! use cosmos_experiments::runner::{run_jobs, Job};
//! use cosmos_core::Design;
//! use cosmos_workloads::{TraceSpec, Workload};
//!
//! let spec = TraceSpec::small_test(7).with_accesses(2000);
//! let trace = Workload::Spec(cosmos_workloads::spec::SpecKind::Mcf).generate(&spec);
//! let jobs = vec![
//!     Job::new("np", Design::Np, &trace, 1),
//!     Job::new("morph", Design::MorphCtr, &trace, 1)
//!         .with_tweak(|c| c.ctr_cache.size_bytes = 64 * 1024),
//! ];
//! let results = run_jobs(jobs, 2);
//! assert_eq!(results[0].label, "np");
//! assert_eq!(results[1].label, "morph");
//! ```

use cosmos_common::stats::Counters;
use cosmos_common::Trace;
use cosmos_core::{Design, SimConfig, SimStats, Simulator};
use cosmos_sampling::{run_plan, SamplingConfig, SamplingPlan};
use cosmos_telemetry::Telemetry;
use cosmos_verify::{run_checked, Checker};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A configuration tweak applied on top of [`SimConfig::paper_default`].
///
/// `Send + Sync` because workers apply tweaks from pool threads; the
/// lifetime lets closures capture locals of the harness (sweep values).
pub type Tweak<'a> = Box<dyn Fn(&mut SimConfig) + Send + Sync + 'a>;

/// One independent simulation point in a grid.
pub struct Job<'a> {
    /// Label carried through to the result (kernel name, sweep value, …).
    pub label: String,
    /// Design variant to simulate.
    pub design: Design,
    /// The input trace, shared by reference — never cloned.
    pub trace: &'a Trace,
    /// Predictor/exploration seed.
    pub seed: u64,
    /// Optional configuration tweak (sweep parameter overrides).
    pub tweak: Option<Tweak<'a>>,
    /// Sampled mode: simulate representative intervals under this
    /// configuration instead of the full trace.
    pub sample: Option<SamplingConfig>,
    /// Checked mode (`--check`): run the `cosmos-verify` oracles in
    /// lockstep. Statistics stay byte-identical; violations go to stderr
    /// as `verify[<label>]:` lines.
    pub check: bool,
    /// Telemetry handle threaded into the simulation (`--telemetry`);
    /// disabled by default. Observational only.
    pub telemetry: Telemetry,
}

impl<'a> Job<'a> {
    /// A job running `design` with the paper-default configuration.
    pub fn new(label: impl Into<String>, design: Design, trace: &'a Trace, seed: u64) -> Self {
        Self {
            label: label.into(),
            design,
            trace,
            seed,
            tweak: None,
            sample: None,
            check: false,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Adds a configuration tweak, applied after `seed` is set.
    #[must_use]
    pub fn with_tweak(mut self, tweak: impl Fn(&mut SimConfig) + Send + Sync + 'a) -> Self {
        self.tweak = Some(Box::new(tweak));
        self
    }

    /// Switches the job to sampled mode (`None` keeps the full run) —
    /// thread [`Args::sampling`](crate::Args::sampling) through here.
    #[must_use]
    pub fn with_sample(mut self, sample: Option<SamplingConfig>) -> Self {
        self.sample = sample;
        self
    }

    /// Switches the job to checked mode — thread
    /// [`Args::check`](crate::Args) through here. The oracles observe,
    /// never perturb: statistics (and therefore result artifacts) are
    /// byte-identical with and without checking.
    #[must_use]
    pub fn with_check(mut self, check: bool) -> Self {
        self.check = check;
        self
    }

    /// Attaches a telemetry handle — thread
    /// [`Args::telemetry`](crate::Args) (scoped per job) through here.
    /// Hooks observe only; results stay byte-identical.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    fn execute(&self) -> JobResult {
        let mut config = SimConfig::paper_default(self.design);
        config.seed = self.seed;
        if let Some(tweak) = &self.tweak {
            tweak(&mut config);
        }
        config.telemetry = self.telemetry.clone();
        let _sim_phase = self.telemetry.phase("sim");
        let (stats, simulated_accesses, report) = match &self.sample {
            Some(sampling) => {
                let plan = SamplingPlan::build(self.trace, sampling);
                let mut sim = Simulator::new(config.clone());
                let mut checker = self.check.then(|| {
                    Checker::attach(&config, &mut sim)
                        .expect("a fresh simulator gets fresh shadows, which always build")
                });
                let run = run_plan(&mut sim, self.trace, &plan, |sim| {
                    if let Some(checker) = &mut checker {
                        checker.boundary(sim);
                    }
                });
                let report = checker.map(|c| c.finish(&sim));
                (run.stats, run.simulated_accesses, report)
            }
            None => {
                let (stats, report) = if self.check {
                    let (stats, report) = run_checked(&config, self.trace);
                    (stats, Some(report))
                } else {
                    (Simulator::new(config).run(self.trace), None)
                };
                let simulated = stats.accesses;
                (stats, simulated, report)
            }
        };
        if let Some(report) = report {
            report.eprint_findings(&self.label);
        }
        // Event counts reach telemetry once, from the statistics the
        // artifact reports (in sampled mode, the reconstructed estimate).
        if let Some(reg) = self.telemetry.registry() {
            stats.visit(|leaf, v| reg.counter(&format!("{}/{leaf}", self.label)).add(v));
        }
        JobResult {
            label: self.label.clone(),
            design: self.design,
            stats,
            simulated_accesses,
        }
    }
}

/// The outcome of one [`Job`].
#[derive(Clone, Debug, PartialEq)]
pub struct JobResult {
    /// The job's label, verbatim.
    pub label: String,
    /// The design that ran.
    pub design: Design,
    /// Everything the simulation measured (in sampled mode: the
    /// reconstructed full-trace estimate).
    pub stats: SimStats,
    /// Accesses actually simulated — equals `stats.accesses` for full
    /// runs, fewer in sampled mode.
    pub simulated_accesses: u64,
}

/// Runs `jobs` on up to `workers` threads, returning results **in job
/// order** — [`run_tasks`] with one task per job.
///
/// # Panics
///
/// Propagates a panic from any job (the remaining jobs may or may not have
/// run).
pub fn run_jobs(jobs: Vec<Job<'_>>, workers: usize) -> Vec<JobResult> {
    let tasks = jobs
        .iter()
        .map(|job| Box::new(move || job.execute()) as Task<'_, JobResult>)
        .collect();
    run_tasks(tasks, workers)
}

/// An arbitrary independent unit of work for [`run_tasks`]. `Fn` (not
/// `FnOnce`) so workers can share the list by reference; capture inputs by
/// reference and return owned results.
pub type Task<'a, T> = Box<dyn Fn() -> T + Send + Sync + 'a>;

/// Runs independent closures on up to `workers` threads, returning results
/// **in task order** — the one worker pool: [`run_jobs`] maps its grid
/// onto it, and grids that aren't plain design×trace simulations (e.g.
/// the occupancy-channel sweep, whose cells build their own epoch traces)
/// call it directly.
///
/// `workers` is clamped to `1..=tasks.len()`; with one worker (or one
/// task) the pool is skipped entirely and everything runs inline on the
/// calling thread. Workers pull the next unstarted task from a shared
/// atomic cursor, so long tasks don't serialize behind short ones, and a
/// final index-tagged sort restores submission order.
///
/// # Panics
///
/// Propagates a panic from any task (the remaining tasks may or may not
/// have run).
#[expect(
    clippy::disallowed_methods,
    reason = "the one worker pool: results are reassembled in task order, so artifacts are \
              byte-identical for every worker count"
)]
pub fn run_tasks<T: Send>(tasks: Vec<Task<'_, T>>, workers: usize) -> Vec<T> {
    let workers = workers.clamp(1, tasks.len().max(1));
    if workers == 1 {
        return tasks.iter().map(|t| t()).collect();
    }

    let cursor = AtomicUsize::new(0);
    let tasks = &tasks;
    let mut tagged: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(task) = tasks.get(i) else { break };
                        out.push((i, task()));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker thread panicked"))
            .collect()
    });

    tagged.sort_unstable_by_key(|(i, _)| *i);
    debug_assert!(tagged.iter().enumerate().all(|(k, (i, _))| k == *i));
    tagged.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphSet;
    use cosmos_workloads::graph::GraphKernel;
    use cosmos_workloads::{TraceSpec, Workload};

    fn build_grid<'a>(traces: &'a [(String, Trace)]) -> Vec<Job<'a>> {
        let designs = [Design::Np, Design::MorphCtr, Design::Cosmos];
        let mut jobs = Vec::new();
        for (name, trace) in traces {
            for design in designs {
                jobs.push(Job::new(format!("{name}/{design}"), design, trace, 42));
            }
        }
        // A tweaked job, to cover the sweep-override path.
        jobs.push(
            Job::new("tweaked", Design::MorphCtr, &traces[0].1, 42)
                .with_tweak(|c| c.ctr_cache.size_bytes = 64 * 1024),
        );
        jobs
    }

    fn test_traces() -> Vec<(String, Trace)> {
        let set = GraphSet::new(TraceSpec::small_test(7).with_accesses(2500));
        vec![
            ("bfs".to_string(), set.trace(GraphKernel::Bfs)),
            (
                "chase".to_string(),
                Workload::Spec(cosmos_workloads::spec::SpecKind::Mcf)
                    .generate(&TraceSpec::small_test(9).with_accesses(2500)),
            ),
        ]
    }

    #[test]
    fn serial_and_parallel_agree_exactly() {
        let traces = test_traces();
        let serial = run_jobs(build_grid(&traces), 1);
        let parallel = run_jobs(build_grid(&traces), 4);
        assert_eq!(serial.len(), parallel.len());
        // Identical SimStats, not just identical summaries.
        assert_eq!(serial, parallel);
    }

    #[test]
    fn results_come_back_in_job_order() {
        let traces = test_traces();
        for workers in [1, 2, 8] {
            let results = run_jobs(build_grid(&traces), workers);
            let labels: Vec<_> = results.iter().map(|r| r.label.as_str()).collect();
            assert_eq!(
                labels,
                [
                    "bfs/NP",
                    "bfs/MorphCtr",
                    "bfs/COSMOS",
                    "chase/NP",
                    "chase/MorphCtr",
                    "chase/COSMOS",
                    "tweaked",
                ],
                "workers = {workers}"
            );
        }
    }

    #[test]
    fn oversized_pool_is_clamped() {
        let traces = test_traces();
        let jobs = vec![Job::new("only", Design::Np, &traces[0].1, 1)];
        let results = run_jobs(jobs, 64);
        assert_eq!(results.len(), 1);
        assert!(results[0].stats.accesses > 0);
    }

    #[test]
    fn empty_grid_is_fine() {
        assert!(run_jobs(Vec::new(), 8).is_empty());
    }

    #[test]
    fn tasks_come_back_in_order_for_any_pool_size() {
        let inputs: Vec<usize> = (0..23).collect();
        for workers in [1, 2, 8, 64] {
            let tasks: Vec<Task<'_, usize>> = inputs
                .iter()
                .map(|&i| Box::new(move || i * i) as Task<'_, usize>)
                .collect();
            let results = run_tasks(tasks, workers);
            let expected: Vec<usize> = inputs.iter().map(|&i| i * i).collect();
            assert_eq!(results, expected, "workers = {workers}");
        }
        assert!(run_tasks(Vec::<Task<'_, ()>>::new(), 4).is_empty());
    }

    #[test]
    fn sampled_jobs_simulate_less_and_stay_deterministic() {
        let set = GraphSet::new(TraceSpec::small_test(7).with_accesses(40_000));
        let trace = set.trace(GraphKernel::Bfs);
        let sampling = Some(SamplingConfig {
            interval_len: 4_096,
            clusters: 3,
            warmup_len: 1_024,
            prime_len: 0,
            kmeans_iters: 32,
            seed: 9,
        });
        let grid = |workers| {
            run_jobs(
                vec![
                    Job::new("full", Design::MorphCtr, &trace, 42),
                    Job::new("sampled", Design::MorphCtr, &trace, 42).with_sample(sampling),
                ],
                workers,
            )
        };
        let serial = grid(1);
        assert_eq!(serial[0].simulated_accesses, serial[0].stats.accesses);
        assert!(serial[1].simulated_accesses < serial[0].simulated_accesses);
        // The estimate still spans the whole trace (up to rounding).
        assert!(serial[1].stats.accesses.abs_diff(trace.len() as u64) <= 8);
        // Byte-identical for any worker count.
        assert_eq!(serial, grid(4));
    }

    #[test]
    fn checked_jobs_produce_byte_identical_results() {
        let traces = test_traces();
        let trace = &traces[0].1;
        for design in [Design::Np, Design::MorphCtr, Design::Cosmos] {
            let plain = run_jobs(vec![Job::new("x", design, trace, 42)], 1);
            let checked = run_jobs(vec![Job::new("x", design, trace, 42).with_check(true)], 1);
            assert_eq!(plain, checked, "{design}: --check perturbed the results");
        }
        // Sampled + checked as well.
        let sampling = Some(SamplingConfig {
            interval_len: 1_024,
            clusters: 2,
            warmup_len: 512,
            prime_len: 0,
            kmeans_iters: 16,
            seed: 9,
        });
        let plain = run_jobs(
            vec![Job::new("s", Design::MorphCtr, trace, 42).with_sample(sampling)],
            1,
        );
        let checked = run_jobs(
            vec![Job::new("s", Design::MorphCtr, trace, 42)
                .with_sample(sampling)
                .with_check(true)],
            1,
        );
        assert_eq!(plain, checked, "--check perturbed the sampled results");
    }

    /// The `counter <label>/<leaf> <value>` lines of a metrics dump, as
    /// `(leaf, value)` pairs in dump order.
    fn job_counters(text: &str, label: &str) -> Vec<(String, u64)> {
        let prefix = format!("counter {label}/");
        text.lines()
            .filter_map(|l| l.strip_prefix(&prefix))
            .map(|rest| {
                let (leaf, v) = rest.rsplit_once(' ').expect("counter line has a value");
                (leaf.to_string(), v.parse().expect("counter value"))
            })
            .collect()
    }

    fn stats_leaves(stats: &SimStats) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        stats.visit(|leaf, v| out.push((leaf.to_string(), v)));
        out.sort();
        out
    }

    #[test]
    fn telemetry_jobs_produce_byte_identical_results() {
        let traces = test_traces();
        let trace = &traces[0].1;
        let plain = run_jobs(vec![Job::new("x", Design::Cosmos, trace, 42)], 1);
        let tele = Telemetry::in_memory();
        let observed = run_jobs(
            vec![Job::new("x", Design::Cosmos, trace, 42).with_telemetry(tele.scope("x"))],
            1,
        );
        assert_eq!(plain, observed, "telemetry perturbed the results");
        let text = tele.metrics_text();
        assert!(text.contains("phase sim"), "sim phase missing:\n{text}");
        // One counter per stats leaf, carrying the reported value.
        let counters = job_counters(&text, "x");
        assert_eq!(counters.len(), SimStats::LEAVES);
        assert_eq!(counters, stats_leaves(&observed[0].stats));
    }

    #[test]
    fn sampled_job_counters_carry_the_reconstructed_stats() {
        let set = GraphSet::new(TraceSpec::small_test(7).with_accesses(20_000));
        let trace = set.trace(GraphKernel::Bfs);
        let sampling = Some(SamplingConfig {
            interval_len: 2_048,
            clusters: 3,
            warmup_len: 512,
            prime_len: 0,
            kmeans_iters: 16,
            seed: 9,
        });
        let tele = Telemetry::in_memory();
        let results = run_jobs(
            vec![Job::new("s", Design::MorphCtr, &trace, 42)
                .with_sample(sampling)
                .with_telemetry(tele.scope("s"))],
            1,
        );
        assert!(results[0].simulated_accesses < results[0].stats.accesses);
        let counters = job_counters(&tele.metrics_text(), "s");
        assert_eq!(counters, stats_leaves(&results[0].stats));
    }

    #[test]
    fn tweaks_actually_apply() {
        let traces = test_traces();
        let trace = &traces[0].1;
        let base = run_jobs(vec![Job::new("base", Design::MorphCtr, trace, 42)], 1);
        let slow = run_jobs(
            vec![Job::new("slow", Design::MorphCtr, trace, 42).with_tweak(|c| c.aes_latency = 400)],
            1,
        );
        // A 10× AES latency must cost cycles.
        assert!(
            slow[0].stats.cycles > base[0].stats.cycles,
            "slow {} vs base {}",
            slow[0].stats.cycles,
            base[0].stats.cycles
        );
    }
}
