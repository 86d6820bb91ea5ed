//! The paper's experiments, as one registry, plus the harness they share.
//!
//! Every paper figure/table is a [`figures::FIGURES`] entry (see DESIGN.md
//! §3 for the index), run through one binary: `cosmos_figure <name>`.
//! Entries share:
//!
//! - [`Args`]: a tiny CLI (`--accesses N`, `--large`, `--seed N`,
//!   `--json PATH`, `--jobs N`, `--sample`, `--check`, `--telemetry DIR`),
//! - [`GraphSet`]: generates the synthetic graph **once** and produces
//!   per-kernel traces from it (graph generation dominates setup time),
//! - [`run_grid`] / [`design_grid`]: run a job grid under those flags,
//! - [`runner`]: the parallel job-grid executor the grids fan out over,
//! - table formatting and JSON result emission (results land in
//!   `results/` for EXPERIMENTS.md).

pub mod explain;
pub mod figures;
pub mod runner;

use cosmos_common::json::Value;
use cosmos_common::{PhysAddr, Trace};
use cosmos_core::{Design, SimStats};
use cosmos_sampling::SamplingConfig;
use cosmos_telemetry::Telemetry;
use cosmos_workloads::graph::{Graph, GraphKernel, GraphLayout};
use cosmos_workloads::{TraceSpec, Workload};
use std::path::{Path, PathBuf};

/// Flag reference printed by `--help` and on argument errors.
pub const USAGE: &str = "options:
  --accesses N   access budget per trace (positive; figure-specific default)
  --seed N       trace/predictor seed (default 42)
  --large        paper-scale run: 4x the access budget
  --sample       representative-interval sampling instead of full traces
                 (phase clustering + warmup; see DESIGN.md \"Sampling\")
  --check        run the cosmos-verify oracles in lockstep: shadow
                 reference models + conservation-law invariants. Results
                 are byte-identical; violations print to stderr
  --jobs N       worker threads for grid sweeps (default: COSMOS_JOBS or
                 the machine's available parallelism)
  --json PATH    write the JSON result document to PATH instead of
                 the default results/<name>.json
  --telemetry DIR
                 record run telemetry (metrics, flight-recorder events,
                 phase timers) and export a Chrome trace, a per-set CTR
                 cache heatmap, and a metrics dump into DIR. Purely
                 observational: results are byte-identical either way
  --help         print this help and exit";

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
    /// Parses `argv` (program name already stripped), with a
    /// figure-specific default budget.
    ///
    /// Prints `usage` and [`USAGE`] and exits on `--help` (status 0) or on
    /// an unknown or malformed argument (status 2).
    pub fn parse(
        argv: impl IntoIterator<Item = String>,
        default_accesses: usize,
        usage: &str,
    ) -> Args {
        match Self::try_parse(argv, default_accesses) {
            Ok(Some(args)) => args,
            Ok(None) => {
                println!("{usage}\n\n{USAGE}");
                std::process::exit(0);
            }
            Err(err) => {
                eprintln!("error: {err}\n\n{usage}\n\n{USAGE}");
                std::process::exit(2);
            }
        }
    }

    /// The testable parse core. `Ok(None)` means `--help` was requested.
    pub fn try_parse(
        argv: impl IntoIterator<Item = String>,
        default_accesses: usize,
    ) -> Result<Option<Args>, String> {
        let mut args = Args {
            accesses: default_accesses,
            seed: 42,
            large: false,
            sample: false,
            check: false,
            json: None,
            jobs: default_jobs(),
            telemetry: Telemetry::disabled(),
        };
        let mut it = argv.into_iter();
        while let Some(a) = it.next() {
            let mut number = |flag: &str| -> Result<u64, String> {
                let v = it.next().ok_or_else(|| format!("{flag} needs a number"))?;
                v.parse()
                    .map_err(|_| format!("{flag} needs a number, got {v:?}"))
            };
            match a.as_str() {
                "--help" | "-h" => return Ok(None),
                "--accesses" => {
                    let n = number("--accesses")?;
                    if n == 0 {
                        return Err("--accesses must be positive".into());
                    }
                    args.accesses = n as usize;
                }
                "--seed" => args.seed = number("--seed")?,
                "--large" => args.large = true,
                "--sample" => args.sample = true,
                "--check" => args.check = true,
                "--json" => {
                    let path = it.next().ok_or("--json needs a path")?;
                    args.json = Some(PathBuf::from(path));
                }
                "--jobs" => {
                    let n = number("--jobs")?;
                    if n == 0 {
                        return Err("--jobs must be positive".into());
                    }
                    args.jobs = n as usize;
                }
                "--telemetry" => {
                    let dir = it.next().ok_or("--telemetry needs a directory")?;
                    args.telemetry =
                        Telemetry::to_dir(&dir).map_err(|e| format!("--telemetry {dir}: {e}"))?;
                }
                other => return Err(format!("unknown argument: {other}")),
            }
        }
        if args.large {
            args.accesses = args
                .accesses
                .checked_mul(4)
                .ok_or("--large: 4x the access budget overflows")?;
        }
        Ok(Some(args))
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

/// The default worker count: `COSMOS_JOBS` when set and positive, otherwise
/// the machine's available parallelism.
pub fn default_jobs() -> usize {
    if let Some(n) = std::env::var("COSMOS_JOBS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        if n >= 1 {
            return n;
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
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
        let _p = self.telemetry.phase("trace_gen");
        kernel.generate(
            &self.graph,
            &self.layout,
            self.spec.cores,
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
        // Every flag the parser knows is documented in the usage text.
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
            assert!(USAGE.contains(flag), "{flag} missing from USAGE");
        }
    }

    #[test]
    fn args_telemetry_flag_enables_telemetry() {
        let dir = std::env::temp_dir().join("cosmos-args-telemetry-test");
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
