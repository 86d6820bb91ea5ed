//! The paper's experiments, as one registry, plus the harness they share.
//!
//! Every paper figure/table is a [`figures::FIGURES`] entry (see DESIGN.md
//! §3 for the index), run through one binary: `cosmos_figure <name>`.
//! Entries share:
//!
//! - [`Args`]: the typed result of the shared flags ([`FLAGS`]: `--accesses
//!   N`, `--large`, `--seed N`, `--json PATH`, `--jobs N`, `--sample`,
//!   `--check`, `--telemetry DIR`),
//! - [`GraphSet`]: generates the synthetic graph **once** and produces
//!   per-kernel traces from it (graph generation dominates setup time),
//! - [`run_grid`] / [`design_grid`]: run a job grid under those flags,
//! - [`runner`]: the parallel job-grid executor the grids fan out over,
//! - table formatting and JSON result emission (results land in
//!   `results/` for EXPERIMENTS.md).

pub mod explain;
pub mod figures;
pub mod runner;

use cosmos_common::cli::{self, Flag};
use cosmos_common::json::Value;
use cosmos_common::{PhysAddr, Trace};
use cosmos_core::{Design, SimStats};
use cosmos_sampling::SamplingConfig;
use cosmos_telemetry::Telemetry;
use cosmos_workloads::graph::{Graph, GraphKernel, GraphLayout};
use cosmos_workloads::{TraceSpec, Workload};
use std::path::{Path, PathBuf};

/// The flags every figure takes.
pub const FLAGS: &[Flag] = &[
    Flag::positive("--accesses N", "access budget per trace [per figure]"),
    Flag::number("--seed N", "trace/predictor seed [42]"),
    Flag::switch("--large", "paper scale: 4x the access budget"),
    Flag::switch("--sample", "simulate representative intervals only"),
    Flag::switch("--check", "run the cosmos-verify oracles in lockstep"),
    Flag::positive("--jobs N", "grid worker threads [COSMOS_JOBS or all]").env("COSMOS_JOBS"),
    Flag::text("--json PATH", "result document [results/<name>.json]"),
    Flag::text("--telemetry DIR", "export run telemetry into DIR"),
];

/// Command-line arguments shared by every figure.
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    /// Access budget per trace.
    pub accesses: usize,
    /// Trace/predictor seed.
    pub seed: u64,
    /// Paper-scale run (`--large`): 4× the default budget.
    pub large: bool,
    /// Sampled mode (`--sample`): simulate representative intervals only.
    pub sample: bool,
    /// Checked mode (`--check`): run every simulation with the
    /// `cosmos-verify` oracles attached (see DESIGN.md "Verification").
    pub check: bool,
    /// Where to write the machine-readable results.
    pub json: Option<PathBuf>,
    /// Worker threads for grid sweeps (`--jobs N`, `COSMOS_JOBS`, or the
    /// machine's available parallelism, in that precedence order).
    pub jobs: usize,
    /// Telemetry handle (`--telemetry DIR`); disabled by default. Hooks
    /// observe only — results are byte-identical with and without it.
    pub telemetry: Telemetry,
}

impl Args {
    /// Parses `argv` (program name already stripped) against [`FLAGS`],
    /// with a figure-specific default budget. `Ok(None)` means `--help`
    /// was requested.
    ///
    /// # Errors
    ///
    /// A bad argument, a bad `COSMOS_JOBS`, or a `--telemetry` directory
    /// that cannot be made.
    pub fn try_parse(
        argv: impl IntoIterator<Item = String>,
        default_accesses: usize,
    ) -> Result<Option<Args>, String> {
        cli::parse(FLAGS, argv, |p| {
            let large = p.on("--large");
            let mut accesses = p.get("--accesses")?.unwrap_or(default_accesses);
            if large {
                accesses = accesses
                    .checked_mul(4)
                    .ok_or("--large: 4x the access budget overflows")?;
            }
            // A table takes no budget: its default 0 is the one not checked.
            if accesses > 0 {
                TraceSpec::paper_default(accesses, 0).check_budget()?;
            }
            let telemetry = match p.get::<String>("--telemetry")? {
                Some(dir) => {
                    Telemetry::to_dir(&dir).map_err(|e| format!("--telemetry {dir}: {e}"))?
                }
                None => Telemetry::disabled(),
            };
            Ok(Args {
                accesses,
                seed: p.get("--seed")?.unwrap_or(42),
                large,
                sample: p.on("--sample"),
                check: p.on("--check"),
                json: p.get("--json")?,
                jobs: match p.get("--jobs")? {
                    Some(jobs) => jobs,
                    None => std::thread::available_parallelism().map_or(1, |n| n.get()),
                },
                telemetry,
            })
        })
    }

    /// The trace spec for this run.
    pub fn spec(&self) -> TraceSpec {
        TraceSpec::paper_default(self.accesses, self.seed)
    }

    /// The sampling configuration for this run's budget — `Some` exactly
    /// when `--sample` was passed. Feed it to
    /// [`Job::with_sample`](runner::Job::with_sample).
    pub fn sampling(&self) -> Option<SamplingConfig> {
        self.sample
            .then(|| SamplingConfig::for_trace(self.accesses))
    }

    /// A [`GraphSet`] for this run's spec, with graph and trace generation
    /// timed under the `trace_gen` telemetry phase.
    pub fn graph_set(&self) -> GraphSet {
        GraphSet::with_telemetry(self.spec(), self.telemetry.clone())
    }
}

/// Runs a job grid under `args`: applies `--sample` and `--check` to every
/// job and fans out over `--jobs` workers. Figures call this instead of
/// [`runner::run_jobs`] directly so every grid honors both modes.
pub fn run_grid<'a>(jobs: Vec<runner::Job<'a>>, args: &Args) -> Vec<runner::JobResult> {
    let sampling = args.sampling();
    let jobs = jobs
        .into_iter()
        .map(|j| {
            let telemetry = args.telemetry.scope(&j.label);
            j.with_sample(sampling)
                .with_check(args.check)
                .with_telemetry(telemetry)
        })
        .collect();
    runner::run_jobs(jobs, args.jobs)
}

/// Runs every design over one trace per workload through [`run_grid`]
/// (workload-major, jobs labelled `{workload}/{design}`) and returns each
/// workload's stats in design order. Graph kernels share one generated
/// graph, which is built only if a kernel is asked for.
pub fn design_grid<const N: usize>(
    args: &Args,
    workloads: &[Workload],
    designs: [Design; N],
) -> Vec<(Workload, [SimStats; N])> {
    let set = workloads
        .iter()
        .any(|w| matches!(w, Workload::Graph(_)))
        .then(|| args.graph_set());
    let traces: Vec<Trace> = workloads
        .iter()
        .map(|w| match (w, &set) {
            (Workload::Graph(k), Some(set)) => set.trace(*k),
            _ => w.generate(&args.spec()),
        })
        .collect();
    let mut jobs = Vec::new();
    for (w, trace) in workloads.iter().zip(&traces) {
        for d in designs {
            let label = format!("{}/{d}", w.name());
            jobs.push(runner::Job::new(label, d, trace, args.seed));
        }
    }
    let mut stats = run_grid(jobs, args).into_iter().map(|r| r.stats);
    let mut row = || std::array::from_fn(|_| stats.next().expect("one outcome per job"));
    workloads.iter().map(|&w| (w, row())).collect()
}

/// A generated graph shared across kernels (graph generation is the
/// dominant setup cost, so figures that sweep kernels reuse one graph).
pub struct GraphSet {
    graph: Graph,
    layout: GraphLayout,
    spec: TraceSpec,
    telemetry: Telemetry,
}

impl GraphSet {
    /// Generates the graph described by `spec`.
    pub fn new(spec: TraceSpec) -> Self {
        Self::with_telemetry(spec, Telemetry::disabled())
    }

    /// Generates the graph described by `spec`, timing generation (and
    /// every later [`trace`](Self::trace) call) under the `trace_gen`
    /// telemetry phase. Prefer [`Args::graph_set`].
    pub fn with_telemetry(spec: TraceSpec, telemetry: Telemetry) -> Self {
        let _p = telemetry.phase("trace_gen");
        let graph = Graph::generate(
            spec.graph_kind,
            spec.graph_vertices,
            spec.graph_degree,
            spec.seed,
        );
        let layout = GraphLayout::new(
            spec.graph_layout,
            PhysAddr::new(1 << 22),
            graph.num_vertices() as u64,
            graph.num_edges() as u64,
            2,
        );
        drop(_p);
        Self {
            graph,
            layout,
            spec,
            telemetry,
        }
    }

    /// Generates one kernel's trace at the spec's budget.
    pub fn trace(&self, kernel: GraphKernel) -> Trace {
        self.trace_with_cores(kernel, self.spec.cores)
    }

    /// [`GraphSet::trace`] spread over `cores` cores instead of the
    /// spec's: graph generation never reads the core count, so one graph
    /// serves every core count.
    pub fn trace_with_cores(&self, kernel: GraphKernel, cores: usize) -> Trace {
        let _p = self.telemetry.phase("trace_gen");
        kernel.generate(
            &self.graph,
            &self.layout,
            cores,
            self.spec.accesses,
            self.spec.seed,
        )
    }

    /// The underlying spec.
    pub fn spec(&self) -> &TraceSpec {
        &self.spec
    }
}

/// Formats a markdown table as a string (one trailing newline).
pub fn table_string(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str(&format!("| {} |\n", headers.join(" | ")));
    out.push_str(&format!(
        "|{}|\n",
        headers.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    ));
    for r in rows {
        out.push_str(&format!("| {} |\n", r.join(" | ")));
    }
    out
}

/// Writes the JSON result document to `--json` when passed, otherwise to
/// `results/<name>.json` — an explicit path *redirects* the document, so
/// off-budget runs (CI smoke tests, scratch sweeps) don't clobber the
/// committed default-budget artifacts. Then exports `--telemetry` files.
///
/// # Errors
///
/// The document could not be written; the error names the path.
pub fn emit_json(args: &Args, name: &str, value: &Value) -> std::io::Result<()> {
    let emit = args.telemetry.phase("emit");
    let path = match &args.json {
        Some(path) => path.clone(),
        None => Path::new("results").join(format!("{name}.json")),
    };
    let named =
        |e: std::io::Error| std::io::Error::new(e.kind(), format!("{}: {e}", path.display()));
    if args.json.is_none() {
        std::fs::create_dir_all("results").map_err(named)?;
    }
    std::fs::write(&path, value.pretty()).map_err(named)?;
    // Close the emit span before exporting, so it appears in the trace.
    drop(emit);
    if let Err(err) = args.telemetry.export(name) {
        eprintln!("warning: telemetry export for {name} failed: {err}");
    }
    Ok(())
}

/// Convenience: `f64` with 3 decimals as a table cell.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Convenience: percentage with 1 decimal as a table cell.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graphset_produces_budgeted_traces() {
        let spec = TraceSpec::small_test(7).with_accesses(4000);
        let set = GraphSet::new(spec);
        let t = set.trace(GraphKernel::Bfs);
        assert!(t.len() >= 3900 && t.len() <= 4100);
    }

    #[test]
    fn design_grid_rows_follow_workload_and_design_order() {
        let args = parse(&["--accesses", "3000", "--jobs", "2"])
            .unwrap()
            .unwrap();
        let workloads = [
            Workload::Spec(cosmos_workloads::spec::SpecKind::Mcf),
            Workload::Ml(cosmos_workloads::ml::MlModel::Mlp),
        ];
        let rows = design_grid(&args, &workloads, [Design::Np, Design::MorphCtr]);
        assert_eq!(rows.len(), 2);
        for ((w, [np, mc]), want) in rows.iter().zip(workloads) {
            assert_eq!(*w, want);
            assert_eq!(np.accesses, mc.accesses);
            assert!(np.accesses > 0 && np.ipc() > 0.0);
            // Only the secure design reads counters.
            assert_eq!(np.ctr_cache.demand.total(), 0);
            assert!(mc.ctr_cache.demand.total() > 0);
        }
    }

    #[test]
    fn emit_json_reports_an_unwritable_path() {
        let mut args = parse(&[]).unwrap().unwrap();
        args.json = Some(PathBuf::from("/dev/null/figure.json"));
        let err = emit_json(&args, "figure", &Value::from(1u64)).unwrap_err();
        assert!(err.to_string().contains("/dev/null/figure.json"), "{err}");
    }

    #[test]
    fn table_formatting() {
        assert_eq!(
            table_string(&["h", "i"], &[vec!["a".into(), "b".into()]]),
            "| h | i |\n|---|---|\n| a | b |\n"
        );
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(pct(0.256), "25.6%");
    }

    fn parse(argv: &[&str]) -> Result<Option<Args>, String> {
        Args::try_parse(argv.iter().map(|s| s.to_string()), 1_000)
    }

    #[test]
    fn args_parse_all_flags() {
        let args = parse(&[
            "--accesses",
            "500",
            "--seed",
            "7",
            "--large",
            "--sample",
            "--check",
            "--jobs",
            "3",
            "--json",
            "out.json",
        ])
        .unwrap()
        .unwrap();
        assert_eq!(args.accesses, 2_000); // 500 × 4 (--large)
        assert_eq!(args.seed, 7);
        assert!(args.large);
        assert!(args.sample);
        assert!(args.check);
        assert_eq!(args.jobs, 3);
        assert_eq!(args.json.as_deref(), Some(std::path::Path::new("out.json")));
        assert_eq!(args.sampling(), Some(SamplingConfig::for_trace(2_000)));
    }

    #[test]
    fn args_defaults_without_flags() {
        let args = parse(&[]).unwrap().unwrap();
        assert_eq!(args.accesses, 1_000);
        assert_eq!(args.seed, 42);
        assert!(!args.sample);
        assert!(!args.check);
        assert_eq!(args.sampling(), None);
    }

    #[test]
    fn args_help_and_errors() {
        assert_eq!(parse(&["--help"]).unwrap(), None);
        assert_eq!(parse(&["-h"]).unwrap(), None);
        for bad in [
            &["--accesses", "0"][..],
            &["--accesses", "4611686018427387905", "--large"],
            &["--accesses"],
            &["--accesses", "lots"],
            &["--jobs", "0"],
            &["--seed", "-1"],
            &["--json"],
            &["--frobnicate"],
        ] {
            let err = parse(bad).unwrap_err();
            assert!(!err.is_empty(), "{bad:?}");
        }
        // Every flag the parser knows is documented in the help text.
        let help = cli::options(FLAGS);
        for flag in [
            "--accesses",
            "--seed",
            "--large",
            "--sample",
            "--check",
            "--jobs",
            "--json",
            "--telemetry",
            "--help",
        ] {
            assert!(help.contains(flag), "{flag} missing from the help");
        }
    }

    #[test]
    fn args_telemetry_flag_enables_telemetry() {
        /// Removes the directory when the test ends, pass or fail.
        struct Removed(PathBuf);
        impl Drop for Removed {
            fn drop(&mut self) {
                let _ = std::fs::remove_dir_all(&self.0);
            }
        }
        let name = format!("cosmos-args-telemetry-{}", std::process::id());
        let removed = Removed(std::env::temp_dir().join(name));
        let dir = &removed.0;
        let args = parse(&["--telemetry", dir.to_str().unwrap()])
            .unwrap()
            .unwrap();
        assert!(args.telemetry.is_enabled());
        assert_eq!(args.telemetry.dir(), Some(dir.as_path()));
        // Default stays off.
        assert!(!parse(&[]).unwrap().unwrap().telemetry.is_enabled());
    }

    #[test]
    fn args_telemetry_unwritable_dir_is_a_parse_error() {
        // /dev/null is a file, so it can't be a parent directory — the
        // flag must fail up front with a clear message, not panic mid-run.
        let err = parse(&["--telemetry", "/dev/null/nested"]).unwrap_err();
        assert!(err.contains("--telemetry"), "unhelpful error: {err}");
        assert!(parse(&["--telemetry"]).is_err(), "missing operand");
    }
}
