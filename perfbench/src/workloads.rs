//! The benchmark workloads: one generated trace each, run under the
//! paper-default configuration of a fixed set of designs.

use std::time::Instant;

use cosmos_common::Trace;
use cosmos_core::{Design, SimConfig, Simulator};
use cosmos_workloads::graph::GraphKernel;
use cosmos_workloads::spec::SpecKind;
use cosmos_workloads::{TraceSpec, Workload};

/// Every design the simulator models, in report order.
pub const ALL_DESIGNS: [Design; 7] = [
    Design::Np,
    Design::MorphCtr,
    Design::Emcc,
    Design::Rmcc,
    Design::CosmosDp,
    Design::CosmosCp,
    Design::Cosmos,
];

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct BenchWorkload {
    pub name: &'static str,
    /// Why the workload is in the benchmark (mirrored in BENCHMARK.json).
    pub why: &'static str,
    pub workload: Workload,
    /// Designs stepped in the untraced run (the traced run steps all
    /// seven, so every design's host cost is reported on every workload).
    pub designs: &'static [Design],
    /// Trace length at benchmark scale.
    pub accesses: usize,
}

pub const WORKLOADS: [BenchWorkload; 2] = [
    BenchWorkload {
        name: "graph_sweep",
        why: "DFS over an RMAT graph under all 7 designs: the shared cache hierarchy is \
              re-simulated 7 times and dominates host time; the secure path is nearly idle",
        workload: Workload::Graph(GraphKernel::Dfs),
        designs: &ALL_DESIGNS,
        accesses: 800_000,
    },
    BenchWorkload {
        name: "secure_mcf",
        why: "mcf pointer chase under NP, MorphCtr and COSMOS: the secure read path (CTR \
              read, Merkle walk, data-location predictor), with NP as the control that \
              bypasses it",
        workload: Workload::Spec(SpecKind::Mcf),
        designs: &[Design::Np, Design::MorphCtr, Design::Cosmos],
        accesses: 1_000_000,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static BenchWorkload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Input scale: the benchmark's own, or a miniature one for self-tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Bench,
    #[cfg(test)]
    Tiny,
}

impl BenchWorkload {
    /// The trace spec for `seed` at `scale`: paper-default except for a
    /// 2^18-vertex graph (graph generation at paper scale would dominate
    /// set-up) and the per-workload access budget.
    pub fn spec(&self, seed: u64, scale: Scale) -> TraceSpec {
        match scale {
            Scale::Bench => TraceSpec {
                graph_vertices: 1 << 18,
                ..TraceSpec::paper_default(self.accesses, seed)
            },
            #[cfg(test)]
            Scale::Tiny => TraceSpec::small_test(seed).with_accesses(6_000),
        }
    }
}

/// The paper-default configuration of `design`, with the run's seed
/// driving the predictors' exploration.
pub fn config(design: Design, seed: u64) -> SimConfig {
    let mut c = SimConfig::paper_default(design);
    c.seed = seed;
    c
}

/// Fresh simulators for `designs`.
pub fn simulators(designs: &[Design], seed: u64) -> Vec<Simulator> {
    designs
        .iter()
        .map(|&d| Simulator::new(config(d, seed)))
        .collect()
}

/// One timed set-up: the workload's trace and fresh simulators for its
/// designs.
pub struct Setup {
    pub trace: Trace,
    pub sims: Vec<Simulator>,
    /// Seconds of trace generation alone.
    pub gen_s: f64,
    /// Seconds of trace generation plus simulator construction.
    pub setup_s: f64,
}

/// Generates the trace of `w` for `seed` and builds simulators for
/// `designs`, timing both.
pub fn setup(w: &BenchWorkload, designs: &[Design], seed: u64, scale: Scale) -> Setup {
    let spec = w.spec(seed, scale);
    let t0 = Instant::now();
    let trace = w.workload.generate(&spec);
    let t1 = Instant::now();
    let sims = simulators(designs, seed);
    let t2 = Instant::now();
    Setup {
        trace,
        sims,
        gen_s: (t1 - t0).as_secs_f64(),
        setup_s: (t2 - t0).as_secs_f64(),
    }
}
