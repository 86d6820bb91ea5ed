//! The traced run: per-layer metrics.
//!
//! Every round steps all seven designs slice-interleaved with a span per
//! slice, repeats the same stepping untraced (the difference is the
//! tracing overhead), then replays each layer on the input stream it saw
//! (see [`crate::replay`]) and checks the replay's counts against the full
//! run. After the rounds, the sampling layer is timed once on the same
//! trace under COSMOS. Spans stay in memory and are written out at the end.

use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use cosmos_core::{Design, SimStats};
use cosmos_sampling::{run_sampled, SamplingConfig, SamplingPlan};

use crate::interleave::{check_run, step_all};
use crate::replay::{self, DesignStreams, HierarchyLog};
use crate::report::{median, ratio, Report};
use crate::workloads::{self, BenchWorkload, Scale, ALL_DESIGNS};

/// Set-up repetitions behind `workloads.gen_s`.
const SETUP_REPS: usize = 3;

/// One timed interval of the run.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    /// Start and end, in nanoseconds since the run began.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Work items (accesses or layer calls) the span covers.
    pub count: u64,
}

/// The run's spans, sharing one run id.
pub struct Spans {
    pub run_id: String,
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    fn new(run_id: String) -> Self {
        Self {
            run_id,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span and returns its index.
    fn record(
        &mut self,
        name: impl Into<String>,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        count: u64,
    ) -> usize {
        let span = Span {
            name: name.into(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            count,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Total duration and count of the spans whose name starts with
    /// `prefix`.
    fn total(&self, prefix: &str) -> (Duration, u64) {
        self.spans
            .iter()
            .filter(|s| s.name.starts_with(prefix))
            .fold((Duration::ZERO, 0), |(d, c), s| {
                (d + Duration::from_nanos(s.end_ns - s.start_ns), c + s.count)
            })
    }

    /// The spans as JSON.
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"run_id\": \"{}\", \"spans\": [\n", self.run_id);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"count\": {}}}{}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                s.count,
                if i + 1 == self.spans.len() { "" } else { "," }
            ));
        }
        out.push_str("]}\n");
        out
    }
}

/// Per-design sums over all rounds of the replay passes the design's full
/// run contains.
#[derive(Default)]
struct LayerTotals {
    full: Duration,
    passes: Duration,
}

/// Secure-path sums over all rounds and secure designs.
#[derive(Default)]
struct SecureTotals {
    read_time: Duration,
    write_time: Duration,
    reads: u64,
    writes: u64,
    hits: u64,
    lookups: u64,
    mt_reads: u64,
    overflows: u64,
}

/// Runs `w` traced for about `seconds`; returns every per-layer metric and
/// the spans.
pub fn run(w: &BenchWorkload, seed: u64, seconds: f64, scale: Scale) -> (Report, Spans) {
    let run_id = format!(
        "{}-{seed}-{}",
        w.name,
        SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos())
    );
    let mut spans = Spans::new(run_id);
    let designs = &ALL_DESIGNS;
    // Set-up is timed a few times and its median reported; the last
    // repetition's trace is the one run.
    let mut gen = Vec::new();
    let mut setup = None;
    for _ in 0..SETUP_REPS {
        drop(setup.take());
        let t0 = Instant::now();
        let s = workloads::setup(w, designs, seed, scale);
        let t1 = t0 + Duration::from_secs_f64(s.gen_s);
        spans.record("setup.generate", t0, t1, None, s.trace.len() as u64);
        let t2 = t0 + Duration::from_secs_f64(s.setup_s);
        spans.record("setup.construct", t1, t2, None, designs.len() as u64);
        gen.push(s.gen_s);
        setup = Some(s);
    }
    let generated = setup.expect("set-up runs at least once").trace;
    let gen_s = median(&gen);
    let trace = generated.as_slice();
    let n = trace.len() as u64;

    let configs: Vec<_> = designs
        .iter()
        .map(|&d| workloads::config(d, seed))
        .collect();
    let log = HierarchyLog::record(&configs[0], trace);
    let clock = replay::clock_cost();

    let mut report = Report::default();
    let mut per_design: Vec<LayerTotals> = designs.iter().map(|_| LayerTotals::default()).collect();
    let mut secure = SecureTotals::default();
    let (mut traced_time, mut untraced_time) = (Duration::ZERO, Duration::ZERO);
    let (mut dp_stats, mut cp_stats, mut dram_stats) = (Vec::new(), Vec::new(), Vec::new());
    let mut cosmos_full: Option<SimStats> = None;
    let start = Instant::now();
    let mut rounds = 0u64;
    while rounds == 0 || start.elapsed().as_secs_f64() < seconds {
        rounds += 1;
        let round_start = Instant::now();
        let round = spans.record("round", round_start, round_start, None, n);

        // The full run twice: traced (a span per design slice) and
        // untraced, in alternating order so drift between the two cancels
        // over rounds.
        let mut full = Vec::new();
        let traced_first = rounds % 2 == 1;
        for traced in [traced_first, !traced_first] {
            let mut sims = workloads::simulators(designs, seed);
            let t0 = Instant::now();
            if traced {
                let mut last = t0;
                step_all(&mut sims, trace, |i, len| {
                    let now = Instant::now();
                    let name = format!("full.{}", designs[i].name());
                    spans.record(name, last, now, Some(round), len as u64);
                    per_design[i].full += now - last;
                    last = now;
                });
                traced_time += last - t0;
                full = sims
                    .into_iter()
                    .zip(designs)
                    .map(|(sim, d)| {
                        let (stats, problems) = check_run(sim, trace.len());
                        report.check(d.name(), &problems);
                        stats
                    })
                    .collect();
            } else {
                step_all(&mut sims, trace, |_, _| {});
                let t1 = Instant::now();
                untraced_time += t1 - t0;
                spans.record("untraced", t0, t1, Some(round), n * designs.len() as u64);
            }
        }

        // Layer replay.
        let t0 = Instant::now();
        let h = replay::hierarchy_pass(&configs[0], trace);
        spans.record("replay.hierarchy", t0, t0 + h, Some(round), n);
        for (i, config) in configs.iter().enumerate() {
            let name = designs[i].name();
            // Streams are rebuilt per design and dropped after its passes,
            // so only one design's streams are held at a time.
            let t0 = Instant::now();
            let s = &DesignStreams::derive(config, trace, &log);
            spans.record(format!("derive.{name}"), t0, Instant::now(), Some(round), n);
            report.check(
                &format!("{name} hierarchy replay"),
                &replay::check_hierarchy(&log, &full[i]),
            );
            let mut passes = h;
            let data = s.config.design.has_data_predictor().then(|| {
                let t0 = Instant::now();
                let (d, stats) = replay::data_pred_pass(s);
                spans.record(
                    format!("replay.rl.data.{name}"),
                    t0,
                    t0 + d,
                    Some(round),
                    s.data_pred.len() as u64,
                );
                passes += d;
                stats
            });
            let ctr = s.config.design.has_locality_predictor().then(|| {
                let t0 = Instant::now();
                let (d, stats) = replay::ctr_pred_pass(s);
                spans.record(
                    format!("replay.rl.ctr.{name}"),
                    t0,
                    t0 + d,
                    Some(round),
                    s.ctr_lines.len() as u64,
                );
                stats
            });
            let sec = s.config.design.is_secure().then(|| {
                let t0 = Instant::now();
                let p = replay::secure_pass(s, clock);
                spans.record(
                    format!("replay.secure.{name}"),
                    t0,
                    t0 + p.total,
                    Some(round),
                    s.secure.len() as u64,
                );
                // The secure pass contains the locality predictor's work.
                passes += p.total;
                p
            });
            let t0 = Instant::now();
            let (d, dram) = replay::dram_pass(s);
            spans.record(
                format!("replay.dram.{name}"),
                t0,
                t0 + d,
                Some(round),
                s.dram.len() as u64,
            );
            passes += d;
            per_design[i].passes += passes;

            report.check(
                &format!("{name} layer replay"),
                &replay::check_layers(&full[i], data.as_ref(), ctr.as_ref(), sec.as_ref(), &dram),
            );
            if let Some(p) = &sec {
                let c = p.path.ctr_cache().stats().demand;
                secure.read_time += p.read_time;
                secure.write_time += p.write_time;
                secure.reads += s.ctr_reads() as u64;
                secure.writes += s.ctr_writes() as u64;
                secure.hits += c.hits();
                secure.lookups += c.total();
                secure.mt_reads += p.traffic.mt_reads;
                secure.overflows += p.path.overflows();
            }
            if rounds == 1 {
                dp_stats.extend(data);
                cp_stats.extend(ctr);
                dram_stats.push(dram);
            }
        }
        if rounds == 1 {
            let i = designs
                .iter()
                .position(|&d| d == Design::Cosmos)
                .expect("traced runs step every design");
            cosmos_full = Some(full[i].clone());
        }
        let end = Instant::now();
        spans.spans[round].end_ns = spans.ns(end);
    }

    // Sampling layer under COSMOS, once; the error reference is the first
    // round's full COSMOS run.
    let cosmos = workloads::config(Design::Cosmos, seed);
    let t0 = Instant::now();
    let plan = SamplingPlan::build(&generated, &SamplingConfig::for_trace(generated.len()));
    let t1 = Instant::now();
    let sampled = run_sampled(&cosmos, &generated, &plan);
    let t2 = Instant::now();
    spans.record("sampling.plan", t0, t1, None, generated.len() as u64);
    spans.record("sampling.run", t1, t2, None, sampled.simulated_accesses);
    let reference = cosmos_full.expect("the first round ran COSMOS");

    // Metrics.
    let r = rounds as f64;
    let ns_per = |d: Duration, calls: u64| ratio(d.as_nanos() as f64, calls as f64);
    report.push("workloads.gen_s", gen_s, "s");
    report.push(
        "workloads.accesses_generated_per_sec",
        generated.len() as f64 / gen_s,
        "1/s",
    );

    let (h, h_calls) = spans.total("replay.hierarchy");
    report.push("hierarchy.calls", h_calls as f64 / r, "count");
    report.push("hierarchy.ns_per_call", ns_per(h, h_calls), "ns");
    report.push("hierarchy.l1_hit_rate", log.l1.hit_rate(), "frac");
    report.push(
        "hierarchy.llc_miss_frac",
        ratio(log.llc.misses() as f64, n as f64),
        "frac",
    );
    report.push(
        "hierarchy.writebacks_per_kacc",
        ratio(1000.0 * log.writebacks() as f64, n as f64),
        "count",
    );

    report.push(
        "secure_path.ctr_read.calls",
        secure.reads as f64 / r,
        "count",
    );
    report.push(
        "secure_path.ctr_read.ns_per_call",
        ns_per(secure.read_time, secure.reads),
        "ns",
    );
    report.push(
        "secure_path.ctr_write.calls",
        secure.writes as f64 / r,
        "count",
    );
    report.push(
        "secure_path.ctr_write.ns_per_call",
        ns_per(secure.write_time, secure.writes),
        "ns",
    );
    report.push(
        "secure_path.ctr_hit_rate",
        ratio(secure.hits as f64, secure.lookups as f64),
        "frac",
    );
    report.push(
        "secure_path.mt_fetches_per_miss",
        ratio(
            secure.mt_reads as f64,
            (secure.lookups - secure.hits) as f64,
        ),
        "count",
    );
    report.push(
        "secure_path.overflows",
        secure.overflows as f64 / r,
        "count",
    );

    let (d, calls) = spans.total("replay.rl.data.");
    let dp_total: u64 = dp_stats.iter().map(|s| s.total()).sum();
    let dp_correct: u64 = dp_stats
        .iter()
        .map(|s| s.correct_onchip + s.correct_offchip)
        .sum();
    let dp_killed: u64 = dp_stats.iter().map(|s| s.wrong_offchip).sum();
    report.push("rl.data.calls", calls as f64 / r, "count");
    report.push("rl.data.ns_per_call", ns_per(d, calls), "ns");
    report.push(
        "rl.data.accuracy",
        ratio(dp_correct as f64, dp_total as f64),
        "frac",
    );
    report.push(
        "rl.data.killed_spec_frac",
        ratio(dp_killed as f64, dp_total as f64),
        "frac",
    );
    let (d, calls) = spans.total("replay.rl.ctr.");
    let good: u64 = cp_stats.iter().map(|s| s.predicted_good).sum();
    let predictions: u64 = cp_stats.iter().map(|s| s.predictions).sum();
    report.push("rl.ctr.calls", calls as f64 / r, "count");
    report.push("rl.ctr.ns_per_call", ns_per(d, calls), "ns");
    report.push(
        "rl.ctr.good_frac",
        ratio(good as f64, predictions as f64),
        "frac",
    );

    let (d, calls) = spans.total("replay.dram.");
    let row_hits: u64 = dram_stats.iter().map(|s| s.row_hits).sum();
    let requests: u64 = dram_stats.iter().map(|s| s.requests()).sum();
    report.push("dram.calls", calls as f64 / r, "count");
    report.push("dram.ns_per_call", ns_per(d, calls), "ns");
    report.push(
        "dram.row_hit_rate",
        ratio(row_hits as f64, requests as f64),
        "frac",
    );

    let self_time: f64 = per_design
        .iter()
        .map(|t| t.full.as_nanos() as f64 - t.passes.as_nanos() as f64)
        .sum();
    let stepped = (n * designs.len() as u64) as f64 * r;
    report.push("simulator.self_ns_per_access", self_time / stepped, "ns");

    let design_ns: Vec<f64> = per_design
        .iter()
        .map(|t| ns_per(t.full, n * rounds))
        .collect();
    for (d, ns) in designs.iter().zip(&design_ns) {
        report.push(format!("design.{}.ns_per_access", d.name()), *ns, "ns");
    }
    let ns_of = |d: Design| design_ns[designs.iter().position(|&x| x == d).expect("all designs")];
    report.push(
        "design.cosmos_np_ratio",
        ns_of(Design::Cosmos) / ns_of(Design::Np),
        "x",
    );

    report.push("sampling.plan_s", (t1 - t0).as_secs_f64(), "s");
    report.push("sampling.run_s", (t2 - t1).as_secs_f64(), "s");
    report.push(
        "sampling.simulated_frac",
        ratio(sampled.simulated_accesses as f64, generated.len() as f64),
        "frac",
    );
    report.push(
        "sampling.ipc_error",
        ratio(
            (sampled.stats.ipc() - reference.ipc()).abs(),
            reference.ipc(),
        ),
        "frac",
    );

    report.push(
        "trace.overhead_frac",
        ratio(
            traced_time.as_secs_f64() - untraced_time.as_secs_f64(),
            untraced_time.as_secs_f64(),
        ),
        "frac",
    );
    report.push("trace.rounds", r, "count");
    (report, spans)
}
