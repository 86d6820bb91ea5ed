//! The eight GraphBIG kernels as address-trace generators.
//!
//! Each kernel *actually runs* its algorithm over the CSR graph (visited
//! sets, labels, distances, …) and emits the memory accesses the
//! corresponding array operations would perform: `row_ptr` reads, edge-list
//! (`col_idx`) reads, and per-vertex property reads/writes. The property
//! accesses are vertex-indexed through the adjacency structure, which is
//! exactly the irregular pattern the paper studies.
//!
//! Property array assignment (see [`GraphLayout::prop`]):
//! 0 = visited/label/rank/color/distance (kernel-primary), 1 = secondary
//! (parents, next-rank, …).

use super::layout::GraphLayout;
use super::Graph;
use crate::interleave::interleave;
use cosmos_common::{MemAccess, PhysAddr, SplitMix64, Trace};

/// The GraphBIG kernel set evaluated in the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GraphKernel {
    /// Breadth-First Search.
    Bfs,
    /// Depth-First Search.
    Dfs,
    /// PageRank (push-style iteration).
    Pr,
    /// Greedy Graph Coloring.
    Gc,
    /// Triangle Counting.
    Tc,
    /// Connected Components (label propagation).
    Cc,
    /// Single-source Shortest Path (Bellman–Ford frontier).
    Sp,
    /// Degree Centrality.
    Dc,
}

impl GraphKernel {
    /// All kernels in the paper's figure order.
    pub const fn all() -> [GraphKernel; 8] {
        [
            GraphKernel::Dfs,
            GraphKernel::Bfs,
            GraphKernel::Gc,
            GraphKernel::Pr,
            GraphKernel::Tc,
            GraphKernel::Cc,
            GraphKernel::Sp,
            GraphKernel::Dc,
        ]
    }

    /// Display name (paper abbreviation).
    pub const fn name(self) -> &'static str {
        match self {
            GraphKernel::Bfs => "BFS",
            GraphKernel::Dfs => "DFS",
            GraphKernel::Pr => "PR",
            GraphKernel::Gc => "GC",
            GraphKernel::Tc => "TC",
            GraphKernel::Cc => "CC",
            GraphKernel::Sp => "SP",
            GraphKernel::Dc => "DC",
        }
    }

    /// The most accesses a core's stream can run past its share of the
    /// budget.
    ///
    /// Every kernel checks the budget before each vertex or edge step, and
    /// a check passes at `budget - 1` at most. The longest run one passing
    /// check lets through is four accesses: a BFS/DFS edge step to an
    /// unvisited neighbour (edge and `visited[u]` reads, `visited[u]` and
    /// `parent[u]` writes), a PageRank vertex without edges, or an SSSP
    /// vertex without edges followed by the restart write. So a stream
    /// never exceeds `budget + 3`.
    pub const MAX_OVERSHOOT: usize = 3;

    /// Generates a multi-core trace of about `budget` accesses: each core
    /// emits at least `budget / cores` and at most
    /// `budget / cores +` [`GraphKernel::MAX_OVERSHOOT`] of them.
    pub fn generate(
        self,
        graph: &Graph,
        layout: &GraphLayout,
        cores: usize,
        budget: usize,
        seed: u64,
    ) -> Trace {
        interleave(self.core_streams(graph, layout, cores, budget, seed), seed)
    }

    /// The per-core streams [`GraphKernel::generate`] interleaves.
    pub(crate) fn core_streams(
        self,
        graph: &Graph,
        layout: &GraphLayout,
        cores: usize,
        budget: usize,
        seed: u64,
    ) -> Vec<std::vec::IntoIter<MemAccess>> {
        assert!(cores > 0 && cores <= 256, "unreasonable core count");
        let per_core = budget / cores;
        (0..cores)
            .map(|c| {
                let seed =
                    cosmos_common::rng::streams::WORKLOAD_GRAPH.derive_lane_seed(seed, c as u64);
                let mut em = Emitter::new(layout, c as u8, per_core, seed);
                match self {
                    GraphKernel::Bfs => run_traversal(graph, &mut em, false),
                    GraphKernel::Dfs => run_traversal(graph, &mut em, true),
                    GraphKernel::Pr => run_pagerank(graph, &mut em, c, cores),
                    GraphKernel::Gc => run_coloring(graph, &mut em, c, cores),
                    GraphKernel::Tc => run_triangles(graph, &mut em, c, cores),
                    GraphKernel::Cc => run_components(graph, &mut em, c, cores),
                    GraphKernel::Sp => run_shortest_path(graph, &mut em),
                    GraphKernel::Dc => run_degree_centrality(graph, &mut em, c, cores),
                }
                em.into_trace().into_iter()
            })
            .collect()
    }
}

impl core::fmt::Display for GraphKernel {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-core trace emitter with an access budget.
struct Emitter<'a> {
    layout: &'a GraphLayout,
    trace: Trace,
    rng: SplitMix64,
    core: u8,
    budget: usize,
}

impl<'a> Emitter<'a> {
    fn new(layout: &'a GraphLayout, core: u8, budget: usize, seed: u64) -> Self {
        Self {
            layout,
            trace: Trace::with_capacity(budget + GraphKernel::MAX_OVERSHOOT),
            rng: SplitMix64::new(seed),
            core,
            budget,
        }
    }

    #[inline]
    fn full(&self) -> bool {
        self.trace.len() >= self.budget
    }

    #[inline]
    fn gap(&mut self) -> u32 {
        2 + self.rng.next_below(6) as u32
    }

    #[inline]
    fn read(&mut self, addr: PhysAddr) {
        let gap = self.gap();
        self.trace.push(MemAccess::read(self.core, addr, gap));
    }

    #[inline]
    fn write(&mut self, addr: PhysAddr) {
        let gap = self.gap();
        self.trace.push(MemAccess::write(self.core, addr, gap));
    }

    #[inline]
    fn read_vertex_meta(&mut self, v: u32) {
        self.read(self.layout.vertex_meta(v as u64));
        if let Some(end) = self.layout.vertex_meta_end(v as u64) {
            self.read(end);
        }
    }

    #[inline]
    fn read_edge(&mut self, v: u32, j: usize, global_e: usize) {
        self.read(self.layout.edge(v as u64, j as u64, global_e as u64));
    }

    fn into_trace(self) -> Trace {
        self.trace
    }
}

/// BFS/DFS: worklist traversal with a visited array; restarts from a random
/// unvisited vertex when the component is exhausted (covers the graph until
/// the budget runs out).
fn run_traversal(graph: &Graph, em: &mut Emitter<'_>, depth_first: bool) {
    use std::collections::VecDeque;
    let n = graph.num_vertices();
    let mut visited = vec![false; n];
    let mut worklist: VecDeque<u32> = VecDeque::new();
    let mut restart = em.rng.next_index(n) as u32;
    'outer: loop {
        if worklist.is_empty() {
            // Find an unvisited restart vertex.
            let mut tries = 0;
            while visited[restart as usize] {
                restart = em.rng.next_index(n) as u32;
                tries += 1;
                if tries > 64 {
                    visited.iter_mut().for_each(|v| *v = false);
                }
            }
            visited[restart as usize] = true;
            em.write(em.layout.prop(0, restart as u64));
            worklist.push_back(restart);
        }
        while let Some(v) = if depth_first {
            worklist.pop_back()
        } else {
            worklist.pop_front()
        } {
            if em.full() {
                break 'outer;
            }
            em.read_vertex_meta(v);
            let (s, e) = (
                graph.row_ptr()[v as usize] as usize,
                graph.row_ptr()[v as usize + 1] as usize,
            );
            for eidx in s..e {
                if em.full() {
                    break 'outer;
                }
                em.read_edge(v, eidx - s, eidx);
                let u = graph.col_idx()[eidx];
                em.read(em.layout.prop(0, u as u64)); // visited[u]
                if !visited[u as usize] {
                    visited[u as usize] = true;
                    em.write(em.layout.prop(0, u as u64)); // mark visited
                    em.write(em.layout.prop(1, u as u64)); // parent[u]
                    worklist.push_back(u);
                }
            }
        }
    }
}

/// PageRank: repeated vertex-partition sweeps; each vertex pulls the rank
/// of each in-neighbour (modeled over out-edges, as GraphBIG's push
/// variant) and writes its next rank.
fn run_pagerank(graph: &Graph, em: &mut Emitter<'_>, core: usize, cores: usize) {
    let n = graph.num_vertices();
    'outer: loop {
        let mut v = core;
        while v < n {
            if em.full() {
                break 'outer;
            }
            em.read_vertex_meta(v as u32);
            let (s, e) = (graph.row_ptr()[v] as usize, graph.row_ptr()[v + 1] as usize);
            em.read(em.layout.prop(0, v as u64)); // rank[v]
            for eidx in s..e {
                if em.full() {
                    break 'outer;
                }
                em.read_edge(v as u32, eidx - s, eidx);
                let u = graph.col_idx()[eidx];
                em.read(em.layout.prop(0, u as u64)); // rank[u]
            }
            em.write(em.layout.prop(1, v as u64)); // next_rank[v]
            v += cores;
        }
    }
}

/// Greedy coloring: per vertex, read all neighbour colors, pick the lowest
/// free one, write it.
fn run_coloring(graph: &Graph, em: &mut Emitter<'_>, core: usize, cores: usize) {
    let n = graph.num_vertices();
    let mut colors = vec![u32::MAX; n];
    'outer: loop {
        let mut v = core;
        while v < n {
            if em.full() {
                break 'outer;
            }
            em.read_vertex_meta(v as u32);
            let (s, e) = (graph.row_ptr()[v] as usize, graph.row_ptr()[v + 1] as usize);
            let mut used = 0u64;
            for eidx in s..e {
                if em.full() {
                    break 'outer;
                }
                em.read_edge(v as u32, eidx - s, eidx);
                let u = graph.col_idx()[eidx];
                em.read(em.layout.prop(0, u as u64)); // color[u]
                let c = colors[u as usize];
                if c < 64 {
                    used |= 1 << c;
                }
            }
            colors[v] = (!used).trailing_zeros();
            em.write(em.layout.prop(0, v as u64)); // color[v]
            v += cores;
        }
    }
}

/// Triangle counting: for each vertex, walk each neighbour's adjacency list
/// (bounded) — the heaviest irregular edge-list chasing of the suite.
fn run_triangles(graph: &Graph, em: &mut Emitter<'_>, core: usize, cores: usize) {
    let n = graph.num_vertices();
    const NEIGHBOR_SCAN_CAP: usize = 16;
    'outer: loop {
        let mut v = core;
        while v < n {
            if em.full() {
                break 'outer;
            }
            em.read_vertex_meta(v as u32);
            let (s, e) = (graph.row_ptr()[v] as usize, graph.row_ptr()[v + 1] as usize);
            for eidx in s..e {
                if em.full() {
                    break 'outer;
                }
                em.read_edge(v as u32, eidx - s, eidx);
                let u = graph.col_idx()[eidx];
                // Walk u's adjacency for the intersection.
                em.read_vertex_meta(u);
                let (us, ue) = (
                    graph.row_ptr()[u as usize] as usize,
                    graph.row_ptr()[u as usize + 1] as usize,
                );
                for ueidx in us..ue.min(us + NEIGHBOR_SCAN_CAP) {
                    if em.full() {
                        break 'outer;
                    }
                    em.read_edge(u, ueidx - us, ueidx);
                }
            }
            v += cores;
        }
    }
}

/// Connected components by label propagation: converging sweeps that read
/// neighbour labels and write improvements.
fn run_components(graph: &Graph, em: &mut Emitter<'_>, core: usize, cores: usize) {
    let n = graph.num_vertices();
    let mut labels: Vec<u32> = (0..n as u32).collect();
    'outer: loop {
        let mut changed = false;
        let mut v = core;
        while v < n {
            if em.full() {
                break 'outer;
            }
            em.read_vertex_meta(v as u32);
            em.read(em.layout.prop(0, v as u64)); // label[v]
            let (s, e) = (graph.row_ptr()[v] as usize, graph.row_ptr()[v + 1] as usize);
            let mut best = labels[v];
            for eidx in s..e {
                if em.full() {
                    break 'outer;
                }
                em.read_edge(v as u32, eidx - s, eidx);
                let u = graph.col_idx()[eidx];
                em.read(em.layout.prop(0, u as u64)); // label[u]
                best = best.min(labels[u as usize]);
            }
            if best < labels[v] {
                labels[v] = best;
                em.write(em.layout.prop(0, v as u64));
                changed = true;
            }
            v += cores;
        }
        if !changed {
            // Converged: perturb to keep emitting until the budget is hit
            // (models the verification sweep GraphBIG performs).
            labels
                .iter_mut()
                .enumerate()
                .for_each(|(i, l)| *l = i as u32);
        }
    }
}

/// Bellman–Ford-style SSSP over a frontier, with pseudo-weights derived
/// from edge indices.
fn run_shortest_path(graph: &Graph, em: &mut Emitter<'_>) {
    let n = graph.num_vertices();
    let mut dist = vec![u64::MAX; n];
    let mut frontier: Vec<u32> = Vec::new();
    'outer: loop {
        if frontier.is_empty() {
            let src = em.rng.next_index(n) as u32;
            dist.iter_mut().for_each(|d| *d = u64::MAX);
            dist[src as usize] = 0;
            em.write(em.layout.prop(0, src as u64));
            frontier.push(src);
        }
        let mut next = Vec::new();
        for &v in &frontier {
            if em.full() {
                break 'outer;
            }
            em.read_vertex_meta(v);
            em.read(em.layout.prop(0, v as u64)); // dist[v]
            let (s, e) = (
                graph.row_ptr()[v as usize] as usize,
                graph.row_ptr()[v as usize + 1] as usize,
            );
            for eidx in s..e {
                if em.full() {
                    break 'outer;
                }
                em.read_edge(v, eidx - s, eidx);
                let u = graph.col_idx()[eidx];
                let w = 1 + (eidx as u64 % 16);
                em.read(em.layout.prop(0, u as u64)); // dist[u]
                let cand = dist[v as usize].saturating_add(w);
                if cand < dist[u as usize] {
                    dist[u as usize] = cand;
                    em.write(em.layout.prop(0, u as u64));
                    next.push(u);
                }
            }
        }
        frontier = next;
    }
}

/// Degree centrality: one regular sweep over `row_ptr` plus a write per
/// vertex; loops until the budget is consumed.
fn run_degree_centrality(graph: &Graph, em: &mut Emitter<'_>, core: usize, cores: usize) {
    let n = graph.num_vertices();
    'outer: loop {
        let mut v = core;
        while v < n {
            if em.full() {
                break 'outer;
            }
            em.read_vertex_meta(v as u32);
            em.write(em.layout.prop(0, v as u64)); // dc[v]
            v += cores;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphKind;
    use cosmos_common::PhysAddr;

    fn setup() -> (Graph, GraphLayout) {
        let g = Graph::generate(GraphKind::Rmat, 2048, 8, 11);
        let l = GraphLayout::object(
            PhysAddr::new(0x1000),
            g.num_vertices() as u64,
            g.num_edges() as u64,
            2,
        );
        (g, l)
    }

    #[test]
    fn every_kernel_fills_its_budget() {
        let (g, l) = setup();
        for k in GraphKernel::all() {
            let t = k.generate(&g, &l, 4, 10_000, 1);
            assert!(
                t.len() >= 9_900 && t.len() <= 10_100,
                "{k}: budget missed, got {}",
                t.len()
            );
        }
    }

    #[test]
    fn every_core_stays_within_the_overshoot_bound() {
        let (g, object) = setup();
        // The CSR layout reads two `row_ptr` entries per vertex.
        let csr = GraphLayout::csr(
            PhysAddr::new(0x1000),
            g.num_vertices() as u64,
            g.num_edges() as u64,
            2,
        );
        let mut worst = 0;
        for l in [&object, &csr] {
            for k in GraphKernel::all() {
                for (cores, budget) in [(1, 3_001), (2, 777), (3, 5_003), (4, 10_000)] {
                    for seed in 0..8 {
                        let per_core = (budget + seed) / cores;
                        let t = k.generate(&g, l, cores, budget + seed, seed as u64);
                        for c in 0..cores as u8 {
                            let n = t.iter().filter(|a| a.core == c).count();
                            assert!(
                                (per_core..=per_core + GraphKernel::MAX_OVERSHOOT).contains(&n),
                                "{k}: core {c} emitted {n} for a share of {per_core}"
                            );
                            worst = worst.max(n - per_core);
                        }
                    }
                }
            }
        }
        assert_eq!(worst, GraphKernel::MAX_OVERSHOOT, "the bound is tight");
    }

    #[test]
    fn addresses_stay_in_footprint() {
        let (g, l) = setup();
        for k in GraphKernel::all() {
            let t = k.generate(&g, &l, 2, 5_000, 2);
            for a in t.iter() {
                assert!(
                    a.addr.value() >= 0x1000 && a.addr.value() < l.footprint(),
                    "{k}: {:?} outside graph footprint",
                    a.addr
                );
            }
        }
    }

    #[test]
    fn all_cores_emit() {
        let (g, l) = setup();
        for k in GraphKernel::all() {
            let t = k.generate(&g, &l, 4, 8_000, 3);
            assert_eq!(t.core_count(), 4, "{k}: missing cores");
        }
    }

    #[test]
    fn traversals_include_writes() {
        let (g, l) = setup();
        for k in [GraphKernel::Bfs, GraphKernel::Dfs, GraphKernel::Sp] {
            let t = k.generate(&g, &l, 1, 20_000, 4);
            assert!(t.write_fraction() > 0.001, "{k}: no writes emitted");
            assert!(t.write_fraction() < 0.5, "{k}: implausibly write-heavy");
        }
    }

    #[test]
    fn dc_is_more_regular_than_tc() {
        // Degree centrality streams row_ptr; triangle counting chases edge
        // lists. Measure unique-line working sets per access as a proxy.
        // Uses the CSR layout, where array streaming is observable.
        let (g, _) = setup();
        let l = GraphLayout::csr(
            PhysAddr::new(0x1000),
            g.num_vertices() as u64,
            g.num_edges() as u64,
            2,
        );
        let measure = |k: GraphKernel| {
            let t = k.generate(&g, &l, 1, 20_000, 5);
            let mut lines: Vec<u64> = t.iter().map(|a| a.addr.line().index()).collect();
            lines.sort_unstable();
            lines.dedup();
            lines.len() as f64 / t.len() as f64
        };
        let dc = measure(GraphKernel::Dc);
        let tc = measure(GraphKernel::Tc);
        assert!(
            dc < tc,
            "DC should touch fewer unique lines per access (dc={dc:.3}, tc={tc:.3})"
        );
    }

    #[test]
    fn deterministic_generation() {
        let (g, l) = setup();
        let a = GraphKernel::Bfs.generate(&g, &l, 4, 5_000, 9);
        let b = GraphKernel::Bfs.generate(&g, &l, 4, 5_000, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn names_match_paper() {
        let names: Vec<_> = GraphKernel::all().iter().map(|k| k.name()).collect();
        assert_eq!(names, ["DFS", "BFS", "GC", "PR", "TC", "CC", "SP", "DC"]);
    }
}
