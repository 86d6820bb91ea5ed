//! The unified workload catalogue.

use crate::graph::{Graph, GraphKernel, GraphKind, GraphLayout, LayoutMode};
use crate::ml::MlModel;
use crate::spec::SpecKind;
use cosmos_common::{MemAccess, PhysAddr, Trace};

/// Where a graph workload's layout starts.
const GRAPH_BASE: PhysAddr = PhysAddr::new(1 << 22);

/// Any workload the COSMOS evaluation uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Workload {
    /// A GraphBIG kernel over a synthetic scale-free graph.
    Graph(GraphKernel),
    /// A SPEC-like irregular workload.
    Spec(SpecKind),
    /// An ML inference workload.
    Ml(MlModel),
}

impl Workload {
    /// The paper's irregular set: 8 graph kernels + 3 SPEC benchmarks
    /// (Figure 10's x-axis).
    pub fn irregular_suite() -> Vec<Workload> {
        GraphKernel::all()
            .into_iter()
            .map(Workload::Graph)
            .chain(SpecKind::all().into_iter().map(Workload::Spec))
            .collect()
    }

    /// The 8 graph kernels only (Figures 2, 4, 11–14).
    pub fn graph_suite() -> Vec<Workload> {
        GraphKernel::all()
            .into_iter()
            .map(Workload::Graph)
            .collect()
    }

    /// The Figure-17 ML set.
    pub fn ml_suite() -> Vec<Workload> {
        MlModel::figure17().into_iter().map(Workload::Ml).collect()
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Graph(k) => k.name(),
            Workload::Spec(s) => s.name(),
            Workload::Ml(m) => m.name(),
        }
    }

    /// Generates the trace described by `spec`.
    pub fn generate(&self, spec: &TraceSpec) -> Trace {
        match self {
            Workload::Graph(kernel) => {
                let graph = Graph::generate(
                    spec.graph_kind,
                    spec.graph_vertices,
                    spec.graph_degree,
                    spec.seed,
                );
                let layout = GraphLayout::new(
                    spec.graph_layout,
                    GRAPH_BASE,
                    graph.num_vertices() as u64,
                    graph.num_edges() as u64,
                    2,
                );
                let streams =
                    kernel.core_streams(&graph, &layout, spec.cores, spec.accesses, spec.seed);
                // The merged trace can take the graph's memory, so trace
                // generation peaks at the CSR build, not at interleaving.
                drop(graph);
                crate::interleave::interleave(streams, spec.seed)
            }
            Workload::Spec(kind) => {
                kind.generate(spec.spec_footprint, spec.cores, spec.accesses, spec.seed)
            }
            Workload::Ml(model) => model.generate(spec.cores, spec.accesses, spec.seed),
        }
    }
}

impl core::fmt::Display for Workload {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

impl core::str::FromStr for Workload {
    type Err = String;

    /// Parses a [`Workload::name`] of any graph kernel, SPEC-like
    /// benchmark or ML model, case-insensitively.
    fn from_str(name: &str) -> Result<Self, String> {
        let all = every_workload();
        all.iter()
            .copied()
            .find(|w| w.name().eq_ignore_ascii_case(name))
            .ok_or_else(|| {
                let known: Vec<_> = all.iter().map(|w| w.name()).collect();
                format!("unknown workload {name:?} (known: {})", known.join(", "))
            })
    }
}

/// Every variant: the graph kernels, the SPEC-like benchmarks, then every
/// ML model (the Figure-17 set plus the MLP).
fn every_workload() -> Vec<Workload> {
    GraphKernel::all()
        .into_iter()
        .map(Workload::Graph)
        .chain(SpecKind::all().into_iter().map(Workload::Spec))
        .chain(MlModel::all().into_iter().map(Workload::Ml))
        .collect()
}

/// Scale parameters for trace generation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceSpec {
    /// Number of cores (threads).
    pub cores: usize,
    /// Total access budget.
    pub accesses: usize,
    /// RNG seed (trace generation is deterministic given the spec).
    pub seed: u64,
    /// Graph family for graph workloads.
    pub graph_kind: GraphKind,
    /// Graph vertex count.
    pub graph_vertices: usize,
    /// Graph average out-degree.
    pub graph_degree: usize,
    /// SPEC-like working-set size in bytes.
    pub spec_footprint: u64,
    /// Graph memory layout (object layout reproduces GraphBIG's irregular
    /// placement; CSR is the cache-friendly ablation).
    pub graph_layout: LayoutMode,
}

impl TraceSpec {
    /// The paper-scale configuration: 4 cores, an RMAT graph whose CSR +
    /// property footprint (~200 MB) far exceeds the 8 MB LLC, and 64 MB
    /// SPEC working sets.
    pub fn paper_default(accesses: usize, seed: u64) -> Self {
        Self {
            cores: 4,
            accesses,
            seed,
            graph_kind: GraphKind::Rmat,
            graph_vertices: 1 << 22,
            graph_degree: 12,
            spec_footprint: 256 << 20,
            graph_layout: LayoutMode::Object,
        }
    }

    /// A miniature configuration for unit/integration tests: small graph,
    /// small budgets, fast to generate.
    pub fn small_test(seed: u64) -> Self {
        Self {
            cores: 4,
            accesses: 20_000,
            seed,
            graph_kind: GraphKind::Rmat,
            graph_vertices: 4096,
            graph_degree: 8,
            spec_footprint: 8 << 20,
            graph_layout: LayoutMode::Object,
        }
    }

    /// Returns a copy with a different access budget.
    pub fn with_accesses(mut self, accesses: usize) -> Self {
        self.accesses = accesses;
        self
    }

    /// Returns a copy with a different core count.
    pub fn with_cores(mut self, cores: usize) -> Self {
        self.cores = cores;
        self
    }

    /// Checks that the generators can serve this budget: each core gets
    /// `accesses / cores` accesses, so a budget below `cores` builds an
    /// empty trace, and the trace's records must fit the `isize::MAX`
    /// bytes one allocation can hold.
    ///
    /// # Errors
    ///
    /// The budget is below `cores` or above that size bound; the message
    /// names the bound.
    pub fn check_budget(&self) -> Result<(), String> {
        let record = size_of::<MemAccess>();
        let most = isize::MAX.unsigned_abs() / record;
        if self.accesses < self.cores {
            Err(format!(
                "access budget {} is below the core count {}: each core needs at least one access",
                self.accesses, self.cores
            ))
        } else if self.accesses > most {
            Err(format!(
                "access budget {} exceeds {most}, the most {record}-byte accesses one trace can hold",
                self.accesses
            ))
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosmos_common::LineAddr;

    #[test]
    fn suites_have_expected_members() {
        assert_eq!(Workload::irregular_suite().len(), 11);
        assert_eq!(Workload::graph_suite().len(), 8);
        assert_eq!(Workload::ml_suite().len(), 6);
    }

    #[test]
    fn every_workload_generates() {
        let spec = TraceSpec::small_test(1).with_accesses(5_000);
        for w in Workload::irregular_suite()
            .into_iter()
            .chain(Workload::ml_suite())
        {
            let t = w.generate(&spec);
            assert!(
                t.len() >= 4_900 && t.len() <= 5_100,
                "{w}: got {} accesses",
                t.len()
            );
        }
    }

    #[test]
    fn spec_builders() {
        let s = TraceSpec::small_test(0).with_accesses(99).with_cores(8);
        assert_eq!(s.accesses, 99);
        assert_eq!(s.cores, 8);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = every_workload().iter().map(|w| w.name()).collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn every_name_parses_back_in_any_case() {
        for w in every_workload() {
            for name in [
                w.name().to_string(),
                w.name().to_ascii_lowercase(),
                w.name().to_ascii_uppercase(),
            ] {
                assert_eq!(name.parse::<Workload>(), Ok(w), "{name}");
            }
        }
        assert_eq!("mlp".parse::<Workload>(), Ok(Workload::Ml(MlModel::Mlp)));
        let err = "nope".parse::<Workload>().unwrap_err();
        assert!(err.contains("known:") && err.contains("MLP"), "{err}");
    }

    /// Every data address of every workload at paper scale lies below the
    /// data-line bound the data caches' `u32` tag words and the counter
    /// table rely on. The bounds come from the layouts, not from traces:
    /// a graph's layout footprint (edges at most `vertices × degree`),
    /// the SPEC base plus the footprint (omnetpp's message pool starts
    /// 1 MiB past its heap), and the ML weight and activation regions.
    #[test]
    fn paper_scale_data_lies_below_the_data_line_bound() {
        let spec = TraceSpec::paper_default(1, 1);
        let bound = LineAddr::DATA_LIMIT * 64;
        for mode in [LayoutMode::Object, LayoutMode::Csr] {
            let edges = (spec.graph_vertices * spec.graph_degree) as u64;
            let layout = GraphLayout::new(mode, GRAPH_BASE, spec.graph_vertices as u64, edges, 2);
            let top = GRAPH_BASE.value() + layout.footprint();
            assert!(top < bound, "{mode:?} graph reaches {top:#x}");
        }
        let top = crate::spec::BASE + spec.spec_footprint + (2 << 20);
        assert!(top < bound, "SPEC reaches {top:#x}");
        for model in MlModel::all() {
            let layers = model.layers();
            let weights: u64 = layers
                .iter()
                .map(|l| l.weight_bytes.div_ceil(64) * 64)
                .sum();
            let act = layers
                .iter()
                .map(|l| l.in_bytes.max(l.out_bytes))
                .max()
                .unwrap_or(0);
            let top = (crate::ml::WEIGHT_BASE + weights).max(crate::ml::ACT_BASE + (1 << 24) + act);
            assert!(top < bound, "{model} reaches {top:#x}");
        }
    }
}
