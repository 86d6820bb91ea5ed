//! The untraced run: end-to-end metrics.
//!
//! Whole rounds repeat until the time budget is spent. A round first sets
//! up: it generates the trace and builds fresh simulators (caches start
//! empty) for the workload's designs. Then it runs every design over the
//! whole trace, slice-interleaved (see [`crate::interleave`]). Set-up is timed in
//! every round, so `setup_s` (the median) samples the host across the
//! whole run, as `accesses_per_sec` (simulated accesses over simulation
//! time, summed over rounds) does. The simulated metrics must repeat
//! exactly from round to round.

use std::time::Instant;

use cosmos_common::Trace;
use cosmos_core::{Design, SimStats, Simulator};

use crate::interleave::{check_run, step_all};
use crate::report::{median, peak_rss_mb, Report};
use crate::workloads::{self, BenchWorkload, Scale};

/// The simulated (host-independent) end-to-end metrics of one round.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ModelMetrics {
    /// Simulated IPC of COSMOS over simulated IPC of MorphCtr.
    pub cosmos_speedup: f64,
    /// Simulated CTR-cache miss rate under COSMOS.
    pub cosmos_ctr_miss_rate: f64,
}

impl ModelMetrics {
    /// # Panics
    ///
    /// Panics unless `designs` includes COSMOS and MorphCtr.
    pub fn of(designs: &[Design], stats: &[SimStats]) -> Self {
        let find = |d: Design| {
            let i = designs
                .iter()
                .position(|&x| x == d)
                .expect("every workload runs COSMOS and MorphCtr");
            &stats[i]
        };
        let cosmos = find(Design::Cosmos);
        Self {
            cosmos_speedup: cosmos.ipc() / find(Design::MorphCtr).ipc(),
            cosmos_ctr_miss_rate: cosmos.ctr_miss_rate(),
        }
    }
}

/// One round of full runs; returns each design's checked statistics.
fn full_round(
    designs: &[Design],
    mut sims: Vec<Simulator>,
    trace: &Trace,
    report: &mut Report,
) -> (f64, Vec<SimStats>) {
    let t0 = Instant::now();
    step_all(&mut sims, trace.as_slice(), |_, _| {});
    let secs = t0.elapsed().as_secs_f64();
    let stats = sims
        .into_iter()
        .zip(designs)
        .map(|(sim, d)| {
            let (stats, problems) = check_run(sim, trace.len());
            report.check(d.name(), &problems);
            stats
        })
        .collect();
    (secs, stats)
}

/// Runs `w` for about `seconds` and reports every end-to-end metric.
pub fn run(w: &BenchWorkload, seed: u64, seconds: f64, scale: Scale) -> Report {
    let designs = w.designs;
    let mut report = Report::default();
    let (mut rates, mut setups) = (Vec::new(), Vec::new());
    let (mut simulated, mut busy) = (0.0, 0.0);
    let mut model: Option<ModelMetrics> = None;
    let mut rss = None;
    let start = Instant::now();
    while rates.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let setup = workloads::setup(w, designs, seed, scale);
        setups.push(setup.setup_s);
        let trace = &setup.trace;
        let (secs, stats) = full_round(designs, setup.sims, trace, &mut report);
        // The high-water mark after one round: later rounds re-allocate the
        // same data, but how much freed memory the allocator reuses varies
        // with how many rounds fit in the run.
        rss.get_or_insert_with(peak_rss_mb);
        let accesses = (trace.len() * designs.len()) as f64;
        rates.push(accesses / secs);
        simulated += accesses;
        busy += secs;
        let round = ModelMetrics::of(designs, &stats);
        match model {
            None => model = Some(round),
            Some(first) => {
                let problems = if first == round {
                    Vec::new()
                } else {
                    vec![format!("round gave {round:?}, first round {first:?}")]
                };
                report.check("simulated metrics repeat", &problems);
            }
        }
    }
    let model = model.expect("at least one round runs");
    let shown: Vec<String> = rates.iter().map(|r| format!("{r:.0}")).collect();
    println!("round rates (1/s): {}", shown.join(" "));
    let shown: Vec<String> = setups.iter().map(|s| format!("{s:.4}")).collect();
    println!("round set-ups (s): {}", shown.join(" "));
    report.push("accesses_per_sec", simulated / busy, "1/s");
    report.push("setup_s", median(&setups), "s");
    report.push("peak_rss_mb", rss.expect("at least one round runs"), "MiB");
    report.push("cosmos_speedup", model.cosmos_speedup, "x");
    report.push("cosmos_ctr_miss_rate", model.cosmos_ctr_miss_rate, "frac");
    report
}
