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

/// How many edges ahead [`Graph::from_edges`]'s scatter prefetches.
const SCATTER_PREFETCH: usize = 32;

/// Hints the CPU to bring the cache line at `ptr` into its caches; a
/// no-op off x86-64. Any address is allowed: nothing is read.
#[inline(always)]
fn prefetch<T>(ptr: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` needs SSE, which every x86-64 CPU has, and a
    // prefetch neither faults nor changes memory, whatever the address.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(ptr.cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = ptr;
}

/// A generator's state along its edge stream, so that the stream can be
/// drawn in consecutive runs that together emit what one run would.
enum EdgeStream {
    /// Independent uniform endpoints.
    Uniform,
    /// [`rmat_edges`]: counter-based, its only state is the RNG.
    Rmat,
    /// Preferential attachment: edge `i` leaves vertex `i / avg_degree`
    /// and picks its target from the endpoints of every earlier edge.
    BarabasiAlbert {
        /// Repeated-endpoint list: new edges attach proportionally to
        /// degree.
        endpoints: Vec<u32>,
        /// Edges drawn so far.
        drawn: usize,
        /// Out-edges per vertex.
        avg_degree: usize,
    },
}

impl EdgeStream {
    fn new(kind: GraphKind, num_vertices: usize, avg_degree: usize) -> Self {
        match kind {
            GraphKind::Uniform => Self::Uniform,
            GraphKind::Rmat => Self::Rmat,
            GraphKind::BarabasiAlbert => {
                let mut endpoints = Vec::with_capacity(num_vertices * avg_degree * 2 + 1);
                endpoints.push(0);
                Self::BarabasiAlbert {
                    endpoints,
                    drawn: 0,
                    avg_degree,
                }
            }
        }
    }

    /// Appends the stream's next `count` edges to `edges`.
    fn draw(
        &mut self,
        rng: &mut SplitMix64,
        num_vertices: usize,
        count: usize,
        edges: &mut Vec<(u32, u32)>,
    ) {
        match self {
            Self::Uniform => {
                for _ in 0..count {
                    let s = rng.next_index(num_vertices) as u32;
                    let d = rng.next_index(num_vertices) as u32;
                    edges.push((s, d));
                }
            }
            Self::Rmat => rmat_edges(rng, num_vertices, count, edges),
            Self::BarabasiAlbert {
                endpoints,
                drawn,
                avg_degree,
            } => {
                for i in *drawn..*drawn + count {
                    let v = (i / *avg_degree) as u32;
                    let target = if endpoints.is_empty() || rng.chance(0.1) {
                        rng.next_index(num_vertices) as u32
                    } else {
                        endpoints[rng.next_index(endpoints.len())]
                    };
                    edges.push((v, target));
                    endpoints.push(v);
                    endpoints.push(target);
                }
                *drawn += count;
            }
        }
    }
}

/// A Fisher–Yates permutation of the vertex ids `0..num_vertices` (see
/// [`Graph::generate`] on hub placement).
fn shuffled_ids(rng: &mut SplitMix64, num_vertices: usize) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..num_vertices as u32).collect();
    for i in (1..num_vertices).rev() {
        let j = rng.next_index(i + 1);
        perm.swap(i, j);
    }
    perm
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
        for (i, &(src, dst)) in edges.iter().enumerate() {
            // The scatter's writes land at random and miss the cache, so
            // fetch the slot of the edge `SCATTER_PREFETCH` ahead now (if a
            // nearer edge shares its row, the slot is one early; a hint).
            if let Some(&(ahead, _)) = edges.get(i + SCATTER_PREFETCH) {
                prefetch(
                    col_idx
                        .as_ptr()
                        .wrapping_add(row_ptr[ahead as usize] as usize),
                );
            }
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
        // The edge stream is drawn in two halves, each counting-sorted on
        // its own, and the sorted halves are merged row by row: the whole
        // edge list (8 bytes an edge) never exists at once, and the build
        // peaks at 8E + 12V bytes (E edges, V vertices), not 12E + 4V.
        let mut rng = SplitMix64::new(seed);
        let num_edges = num_vertices * avg_degree;
        let first = num_edges / 2;
        let mut stream = EdgeStream::new(kind, num_vertices, avg_degree);
        let mut buf = Vec::with_capacity(num_edges - first);
        stream.draw(&mut rng, num_vertices, first, &mut buf);
        let half_a = Self::from_edges(num_vertices, &buf);
        buf.clear();
        stream.draw(&mut rng, num_vertices, num_edges - first, &mut buf);
        drop(stream); // Barabási–Albert's endpoint list, 8E bytes
        let half_b = Self::from_edges(num_vertices, &buf);
        drop(buf);
        if shuffle_ids {
            let perm = shuffled_ids(&mut rng, num_vertices);
            let mut old_id = vec![0u32; num_vertices];
            for (u, &v) in perm.iter().enumerate() {
                old_id[v as usize] = u as u32;
            }
            Self::merge(&half_a, &half_b, |v| old_id[v], |u| perm[u as usize])
        } else {
            Self::merge(&half_a, &half_b, |v| v as u32, |u| u)
        }
    }

    /// The CSR whose row `v` is `a`'s row `old_id(v)` followed by `b`'s,
    /// every endpoint `u` renamed `new_id(u)`, where `new_id` is a
    /// permutation of the vertex ids and `old_id` its inverse.
    ///
    /// If `a` and `b` are the stable CSRs of two consecutive runs of an
    /// edge stream, this is the stable CSR of the whole renamed stream:
    /// the edges with new source `v` are exactly those with old source
    /// `old_id(v)`, and every edge of `a` precedes every edge of `b`.
    fn merge(
        a: &Graph,
        b: &Graph,
        old_id: impl Fn(usize) -> u32,
        new_id: impl Fn(u32) -> u32,
    ) -> Self {
        let n = a.num_vertices();
        // `col_idx` (4E bytes) first, so that it can take the place of the
        // sampling buffer just freed (⌈E/2⌉ × 8 >= 4E bytes) when that came
        // from the heap: `row_ptr` taken first would split that space and
        // send `col_idx` to fresh pages, raising a repeated build's peak
        // RSS by 4E.
        let mut col_idx = Vec::with_capacity(a.num_edges() + b.num_edges());
        let mut row_ptr = Vec::with_capacity(n + 1);
        row_ptr.push(0);
        for v in 0..n {
            let u = old_id(v);
            col_idx.extend(a.neighbors(u).iter().map(|&d| new_id(d)));
            col_idx.extend(b.neighbors(u).iter().map(|&d| new_id(d)));
            row_ptr.push(col_idx.len() as u32);
        }
        Self { row_ptr, col_idx }
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

    /// `(row_ptr, col_idx)` of `edges` by a stable sort on source: the
    /// oracle for the counting sort in [`Graph::from_edges`] and for the
    /// two-half build of [`Graph::generate_with`].
    pub(super) fn csr_by_stable_sort(
        num_vertices: usize,
        mut edges: Vec<(u32, u32)>,
    ) -> (Vec<u32>, Vec<u32>) {
        edges.sort_by_key(|&(src, _)| src);
        let row_ptr = (0..=num_vertices)
            .map(|v| edges.partition_point(|&(src, _)| (src as usize) < v) as u32)
            .collect();
        let col_idx = edges.iter().map(|&(_, dst)| dst).collect();
        (row_ptr, col_idx)
    }

    /// The CSR of the single-list build: the whole edge stream in one draw,
    /// then the id permutation applied edge by edge, then a stable sort.
    fn one_list_csr(
        kind: GraphKind,
        n: usize,
        deg: usize,
        seed: u64,
        shuffle_ids: bool,
    ) -> (Vec<u32>, Vec<u32>) {
        let mut rng = SplitMix64::new(seed);
        let mut edges = Vec::new();
        EdgeStream::new(kind, n, deg).draw(&mut rng, n, n * deg, &mut edges);
        if shuffle_ids {
            let perm = shuffled_ids(&mut rng, n);
            for e in edges.iter_mut() {
                *e = (perm[e.0 as usize], perm[e.1 as usize]);
            }
        }
        csr_by_stable_sort(n, edges)
    }

    #[test]
    fn two_half_build_matches_the_single_list_build() {
        // (vertices, degree): E = 0, 1, 7, 8 and 9; one-vertex graphs;
        // E = 3003, whose first half (1501 edges) is not a multiple of the
        // RMAT kernel's 8 lanes; and a larger even E.
        let shapes = [
            (5, 0),
            (1, 1),
            (7, 1),
            (1, 7),
            (8, 1),
            (4, 2),
            (1, 8),
            (3, 3),
            (9, 1),
            (1, 9),
            (1001, 3),
            (4096, 12),
        ];
        for kind in [
            GraphKind::Rmat,
            GraphKind::Uniform,
            GraphKind::BarabasiAlbert,
        ] {
            for (n, deg) in shapes {
                for seed in [1, u64::MAX] {
                    for shuffle_ids in [false, true] {
                        let g = Graph::generate_with(kind, n, deg, seed, shuffle_ids);
                        let (row_ptr, col_idx) = one_list_csr(kind, n, deg, seed, shuffle_ids);
                        let ctx =
                            format!("{kind:?} n {n} deg {deg} seed {seed} shuffle {shuffle_ids}");
                        assert_eq!(g.row_ptr(), row_ptr, "{ctx}: row_ptr");
                        assert_eq!(g.col_idx(), col_idx, "{ctx}: col_idx");
                    }
                }
            }
        }
    }

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
