//! CSR graphs, synthetic generators, and the graph-kernel trace builders.

mod kernels;
mod layout;
mod rmat;

pub use kernels::GraphKernel;
pub use layout::{GraphLayout, LayoutMode};

use cosmos_common::SplitMix64;
use rmat::rmat_edges;

/// A directed graph in Compressed Sparse Row form.
///
/// # Examples
///
/// ```
/// use cosmos_workloads::graph::{Graph, GraphKind};
/// let g = Graph::generate(GraphKind::Rmat, 1024, 8, 42);
/// assert_eq!(g.num_vertices(), 1024);
/// assert!(g.num_edges() > 0);
/// ```
#[derive(Clone, Debug)]
pub struct Graph {
    row_ptr: Vec<u32>,
    col_idx: Vec<u32>,
}

/// Synthetic graph families.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GraphKind {
    /// RMAT (Chakrabarti et al.) with (a,b,c,d) = (0.57, 0.19, 0.19, 0.05)
    /// — a skewed, scale-free degree distribution like real social
    /// networks (the paper's GitHub dataset).
    Rmat,
    /// Barabási–Albert preferential attachment.
    BarabasiAlbert,
    /// Uniform random (Erdős–Rényi-style) edges.
    Uniform,
}

impl Graph {
    /// Builds a graph from an edge list (duplicates kept, self-loops kept;
    /// CSR is sorted by source, edges of one source in list order).
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is `>= num_vertices` or the list holds more
    /// than `u32::MAX` edges (the CSR offsets are `u32`).
    pub fn from_edges(num_vertices: usize, edges: &[(u32, u32)]) -> Self {
        assert!(
            edges.len() <= u32::MAX as usize,
            "{} edges overflow the u32 CSR offsets",
            edges.len()
        );
        // Stable counting sort by source with `row_ptr` as its own cursor:
        // count degree(v) into row_ptr[v + 1], prefix-sum so row_ptr[v] is
        // the start of row v, scatter (bumping row_ptr[src] to the end of
        // its row), then shift the row ends right by one.
        let mut row_ptr = vec![0u32; num_vertices + 1];
        for &(src, _) in edges {
            row_ptr[src as usize + 1] += 1;
        }
        for v in 1..=num_vertices {
            row_ptr[v] += row_ptr[v - 1];
        }
        let mut col_idx = vec![0u32; edges.len()];
        for &(src, dst) in edges {
            let c = &mut row_ptr[src as usize];
            col_idx[*c as usize] = dst;
            *c += 1;
        }
        row_ptr.copy_within(..num_vertices, 1);
        row_ptr[0] = 0;
        Self { row_ptr, col_idx }
    }

    /// Generates a synthetic graph with roughly `avg_degree` out-edges per
    /// vertex.
    ///
    /// Hub placement: RMAT and preferential attachment concentrate
    /// high-degree hubs at low vertex ids. We keep that by default — real
    /// frameworks routinely relabel vertices by degree for locality, and
    /// many real datasets (including the paper's GitHub network, whose ids
    /// follow account-creation order) correlate id with degree — so hot
    /// vertices share cache lines and counter blocks, which is the
    /// "hot CTR" structure COSMOS exploits. Pass `shuffle_ids = true` to
    /// [`Graph::generate_with`] for the uncorrelated ablation.
    ///
    /// # Panics
    ///
    /// Panics if `num_vertices == 0`, if `num_vertices > u32::MAX`, or if
    /// `num_vertices * avg_degree > u32::MAX` (vertex ids and CSR offsets
    /// are `u32`).
    pub fn generate(kind: GraphKind, num_vertices: usize, avg_degree: usize, seed: u64) -> Self {
        Self::generate_with(kind, num_vertices, avg_degree, seed, false)
    }

    /// [`Graph::generate`] with control over vertex-id shuffling.
    ///
    /// # Panics
    ///
    /// Panics if `num_vertices == 0`, if `num_vertices > u32::MAX`, or if
    /// `num_vertices * avg_degree > u32::MAX`, before allocating anything.
    pub fn generate_with(
        kind: GraphKind,
        num_vertices: usize,
        avg_degree: usize,
        seed: u64,
        shuffle_ids: bool,
    ) -> Self {
        assert!(num_vertices > 0, "graph must have vertices");
        assert!(
            num_vertices <= u32::MAX as usize,
            "{num_vertices} vertices overflow the u32 vertex ids"
        );
        assert!(
            num_vertices
                .checked_mul(avg_degree)
                .is_some_and(|e| e <= u32::MAX as usize),
            "{num_vertices} vertices x degree {avg_degree} overflow the u32 CSR offsets"
        );
        let mut rng = SplitMix64::new(seed);
        let num_edges = num_vertices * avg_degree;
        let mut edges = Vec::with_capacity(num_edges);
        match kind {
            GraphKind::Uniform => {
                for _ in 0..num_edges {
                    let s = rng.next_index(num_vertices) as u32;
                    let d = rng.next_index(num_vertices) as u32;
                    edges.push((s, d));
                }
            }
            GraphKind::Rmat => rmat_edges(&mut rng, num_vertices, num_edges, &mut edges),
            GraphKind::BarabasiAlbert => {
                // Repeated-endpoint list: new edges attach proportionally to
                // degree.
                let mut endpoints: Vec<u32> = Vec::with_capacity(num_edges * 2);
                endpoints.push(0);
                for v in 0..num_vertices as u32 {
                    for _ in 0..avg_degree {
                        let target = if endpoints.is_empty() || rng.chance(0.1) {
                            rng.next_index(num_vertices) as u32
                        } else {
                            endpoints[rng.next_index(endpoints.len())]
                        };
                        edges.push((v, target));
                        endpoints.push(v);
                        endpoints.push(target);
                    }
                }
            }
        }
        if shuffle_ids {
            // Fisher–Yates permutation of vertex ids (see doc comment).
            let mut perm: Vec<u32> = (0..num_vertices as u32).collect();
            for i in (1..num_vertices).rev() {
                let j = rng.next_index(i + 1);
                perm.swap(i, j);
            }
            for e in edges.iter_mut() {
                *e = (perm[e.0 as usize], perm[e.1 as usize]);
            }
        }
        Self::from_edges(num_vertices, &edges)
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.col_idx.len()
    }

    /// Out-degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn degree(&self, v: u32) -> u32 {
        self.row_ptr[v as usize + 1] - self.row_ptr[v as usize]
    }

    /// The CSR row-pointer array.
    pub fn row_ptr(&self) -> &[u32] {
        &self.row_ptr
    }

    /// The CSR adjacency array.
    pub fn col_idx(&self) -> &[u32] {
        &self.col_idx
    }

    /// Neighbours of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: u32) -> &[u32] {
        let s = self.row_ptr[v as usize] as usize;
        let e = self.row_ptr[v as usize + 1] as usize;
        &self.col_idx[s..e]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "overflow the u32 CSR offsets")]
    fn edge_count_past_u32_panics_before_allocating() {
        // 2^32 edges: one past u32::MAX.
        Graph::generate(GraphKind::Rmat, 1 << 20, 1 << 12, 1);
    }

    #[test]
    #[should_panic(expected = "overflow the u32 CSR offsets")]
    fn edge_count_past_usize_panics() {
        Graph::generate(GraphKind::Uniform, 1 << 31, usize::MAX / 2, 1);
    }

    #[test]
    #[should_panic(expected = "overflow the u32 vertex ids")]
    fn vertex_count_past_u32_panics() {
        Graph::generate(GraphKind::Uniform, u32::MAX as usize + 1, 0, 1);
    }

    #[test]
    fn csr_construction_from_edges() {
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (2, 3), (3, 0)]);
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[] as &[u32]);
        assert_eq!(g.neighbors(2), &[3]);
        assert_eq!(g.degree(3), 1);
    }

    #[test]
    fn generators_produce_requested_size() {
        for kind in [
            GraphKind::Rmat,
            GraphKind::Uniform,
            GraphKind::BarabasiAlbert,
        ] {
            let g = Graph::generate(kind, 500, 4, 1);
            assert_eq!(g.num_vertices(), 500, "{kind:?}");
            assert!(g.num_edges() >= 500 * 3, "{kind:?}: too few edges");
            for &c in g.col_idx() {
                assert!((c as usize) < 500, "{kind:?}: edge out of range");
            }
        }
    }

    #[test]
    fn rmat_degree_distribution_is_skewed() {
        let g = Graph::generate(GraphKind::Rmat, 4096, 8, 7);
        let mut degs: Vec<u32> = (0..4096u32).map(|v| g.degree(v)).collect();
        degs.sort_unstable_by(|a, b| b.cmp(a));
        let top = degs[..41].iter().map(|&d| d as u64).sum::<u64>();
        let total = degs.iter().map(|&d| d as u64).sum::<u64>();
        // Top 1% of vertices should hold far more than 1% of the edges.
        assert!(
            top as f64 / total as f64 > 0.05,
            "RMAT not skewed: top1% = {:.3}",
            top as f64 / total as f64
        );
    }

    #[test]
    fn uniform_degree_distribution_is_flat() {
        let g = Graph::generate(GraphKind::Uniform, 4096, 8, 7);
        let max = (0..4096u32).map(|v| g.degree(v)).max().unwrap();
        assert!(max < 40, "uniform degrees should concentrate, max={max}");
    }

    #[test]
    fn deterministic_generation() {
        let a = Graph::generate(GraphKind::Rmat, 256, 4, 9);
        let b = Graph::generate(GraphKind::Rmat, 256, 4, 9);
        assert_eq!(a.row_ptr(), b.row_ptr());
        assert_eq!(a.col_idx(), b.col_idx());
    }

    #[test]
    fn row_ptr_is_monotonic_and_complete() {
        let g = Graph::generate(GraphKind::BarabasiAlbert, 300, 5, 3);
        let rp = g.row_ptr();
        assert!(rp.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*rp.last().unwrap() as usize, g.num_edges());
    }
}
