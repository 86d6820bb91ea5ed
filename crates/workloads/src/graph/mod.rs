//! CSR graphs, synthetic generators, and the graph-kernel trace builders.

mod kernels;
mod layout;

pub use kernels::GraphKernel;
pub use layout::{GraphLayout, LayoutMode};

use cosmos_common::SplitMix64;

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

/// `2^53`: [`SplitMix64::next_f64`] returns `(next_u64() >> 11) / 2^53`.
const F64_DRAW_SCALE: f64 = (1u64 << 53) as f64;

/// The integer form of the draw test `rng.next_f64() < p`: the least `t`
/// with `t / 2^53 >= p`, so that `(next_u64() >> 11) < t` decides exactly
/// what `next_f64() < p` decides.
///
/// Exactness: `next_f64()` is `m * 2^-53` for the integer
/// `m = next_u64() >> 11 < 2^53`. Converting `m` to `f64` is exact (it
/// has at most 53 significant bits) and so is scaling by a power of two,
/// so the float compare `m * 2^-53 < p` is the real-number compare
/// `m < p * 2^53`. `p * 2^53` is itself exact in `f64` (a power-of-two
/// scaling of a normal number in `(0, 1)`), and `ceil` is exact, so
/// `t = ceil(p * 2^53)` is an integer at most `2^53`, and for every
/// integer `m`, `m < p * 2^53` holds exactly when `m < t`. The two tests
/// agree on all `2^53` possible draws, so the generated graph is
/// bit-identical to the one the `f64` compare produces.
const fn draw_threshold(p: f64) -> u64 {
    (p * F64_DRAW_SCALE).ceil() as u64
}

/// RMAT cumulative quadrant thresholds `a`, `a + b`, `a + b + c` for
/// `(a, b, c, d) = (0.57, 0.19, 0.19, 0.05)`, in [`draw_threshold`] form.
const RMAT_THRESHOLDS: [u64; 3] = [
    draw_threshold(0.57),
    draw_threshold(0.76),
    draw_threshold(0.95),
];

/// Appends `num_edges` RMAT edges over `num_vertices` vertices, drawing one
/// `next_u64` per recursion level per edge.
///
/// Branch-free: with `m` the 53-bit draw, quadrant `(bs, bd)` is `(0, 0)`
/// below `a`, `(0, 1)` below `a + b`, `(1, 0)` below `a + b + c`, else
/// `(1, 1)`, so `bs = [m >= a+b]` and `bd` is the parity of the three
/// threshold tests.
fn rmat_edges(
    rng: &mut SplitMix64,
    num_vertices: usize,
    num_edges: usize,
    edges: &mut Vec<(u32, u32)>,
) {
    let scale = num_vertices.next_power_of_two().trailing_zeros();
    let n = num_vertices as u64;
    let [t_a, t_ab, t_abc] = RMAT_THRESHOLDS;
    // A sampled id is below `next_power_of_two(n) < 2n`, so `id % n` is at
    // most one subtraction.
    let fold = |id: u64| (if id >= n { id - n } else { id }) as u32;
    edges.extend((0..num_edges).map(|_| {
        let (mut s, mut d) = (0u64, 0u64);
        for _ in 0..scale {
            let m = rng.next_u64() >> 11;
            let (ge_a, ge_ab, ge_abc) = (
                u64::from(m >= t_a),
                u64::from(m >= t_ab),
                u64::from(m >= t_abc),
            );
            s = (s << 1) | ge_ab;
            d = (d << 1) | (ge_a ^ ge_ab ^ ge_abc);
        }
        (fold(s), fold(d))
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The original branchy `f64` RMAT sampler: the oracle [`rmat_edges`]
    /// must match draw for draw.
    fn rmat_edges_reference(
        rng: &mut SplitMix64,
        num_vertices: usize,
        num_edges: usize,
    ) -> Vec<(u32, u32)> {
        let scale = num_vertices.next_power_of_two().trailing_zeros();
        let mut edges = Vec::with_capacity(num_edges);
        for _ in 0..num_edges {
            let (mut s, mut d) = (0u64, 0u64);
            for _ in 0..scale {
                let r = rng.next_f64();
                let (bs, bd) = if r < 0.57 {
                    (0, 0)
                } else if r < 0.76 {
                    (0, 1)
                } else if r < 0.95 {
                    (1, 0)
                } else {
                    (1, 1)
                };
                s = (s << 1) | bs;
                d = (d << 1) | bd;
            }
            let s = (s as usize % num_vertices) as u32;
            let d = (d as usize % num_vertices) as u32;
            edges.push((s, d));
        }
        edges
    }

    /// `(row_ptr, col_idx)` of `edges` by a stable sort on source: the
    /// oracle for the counting sort in [`Graph::from_edges`].
    fn csr_by_stable_sort(num_vertices: usize, mut edges: Vec<(u32, u32)>) -> (Vec<u32>, Vec<u32>) {
        edges.sort_by_key(|&(src, _)| src);
        let row_ptr = (0..=num_vertices)
            .map(|v| edges.partition_point(|&(src, _)| (src as usize) < v) as u32)
            .collect();
        let col_idx = edges.iter().map(|&(_, dst)| dst).collect();
        (row_ptr, col_idx)
    }

    /// Checks the branch-free sampler against the reference: same edges,
    /// same RNG state afterwards (so the optional id shuffle sees the same
    /// stream), and `Graph::generate` equal to the oracle CSR.
    fn check_rmat_against_reference(n: usize, deg: usize, seed: u64) -> Result<(), String> {
        let (mut fast, mut reference) = (SplitMix64::new(seed), SplitMix64::new(seed));
        let mut edges = Vec::new();
        rmat_edges(&mut fast, n, n * deg, &mut edges);
        let expected = rmat_edges_reference(&mut reference, n, n * deg);
        let ctx = format!("n {n}, degree {deg}, seed {seed}");
        if edges != expected {
            return Err(format!("{ctx}: edge lists differ"));
        }
        if fast.state() != reference.state() {
            return Err(format!("{ctx}: RNG streams diverge"));
        }
        let g = Graph::generate(GraphKind::Rmat, n, deg, seed);
        let (row_ptr, col_idx) = csr_by_stable_sort(n, expected);
        if g.row_ptr() != row_ptr || g.col_idx() != col_idx {
            return Err(format!(
                "{ctx}: CSR arrays differ from the stable-sort oracle"
            ));
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        fn rmat_matches_reference_sampler(
            pick in 0usize..8,
            any_n in 1usize..6000,
            deg in 0usize..16,
            seed in any::<u64>(),
        ) {
            // Half the cases use the fixed sizes, where the `% n` fold of
            // non-powers-of-two (and n = 1, scale 0) is exercised.
            let n = [1, 3, 1000, 5000].get(pick).copied().unwrap_or(any_n);
            let outcome = check_rmat_against_reference(n, deg, seed);
            prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
        }
    }

    #[test]
    fn rmat_matches_reference_at_fold_sizes() {
        for n in [1, 2, 3, 1000, 1024, 5000] {
            for seed in [0, 1, u64::MAX] {
                check_rmat_against_reference(n, 5, seed).unwrap();
            }
        }
    }

    #[test]
    fn rmat_thresholds_are_exact() {
        let ulp = 1.0 / F64_DRAW_SCALE;
        for (p, t) in [0.57, 0.76, 0.95].into_iter().zip(RMAT_THRESHOLDS) {
            // Draw t - 1 is the last below p; draw t the first at or above.
            assert!(
                ((t - 1) as f64) * ulp < p,
                "p = {p}: threshold {t} too high"
            );
            assert!(p <= t as f64 * ulp, "p = {p}: threshold {t} too low");
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
