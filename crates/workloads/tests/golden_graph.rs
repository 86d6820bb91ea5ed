//! Golden digests of the RMAT generator and a DFS trace built on it.
//!
//! The `GOLDEN` constants were recorded from the original branchy `f64`
//! quadrant sampler, the `GOLDEN_SHAPES` ones from the serial branch-free
//! sampler that replaced it draw for draw. Any edit to graph generation
//! that changes a single CSR entry (and so every downstream trace,
//! `SimStats` and committed artifact) fails here.

mod digest;

use cosmos_common::hash::Fnv1a;
use cosmos_common::PhysAddr;
use cosmos_workloads::graph::{Graph, GraphKernel, GraphKind, GraphLayout, LayoutMode};
use digest::trace_digest;

const VERTICES: usize = 1 << 16;
const DEGREE: usize = 12;
const DFS_CORES: usize = 4;
const DFS_ACCESSES: usize = 50_000;

/// `(seed, CSR digest, DFS trace digest)`.
const GOLDEN: [(u64, u64, u64); 2] = [
    (1, 0x9af9_23ab_6776_75b1, 0x8dca_97dc_4a2d_43b3),
    (20_261_016, 0xaeb2_96c6_d3d9_b46f, 0x6ea3_58cd_f3c5_427c),
];

/// `(vertices, degree, seed, shuffle_ids, CSR digest, DFS trace digest)`
/// for graph shapes other than the 2^16 x 12 rows of [`GOLDEN`]:
/// `graph_sweep`'s 2^18 x 12 graph at both seeds; a vertex count that is
/// not a power of two (so the `% n` fold runs) with an edge count that is
/// not a multiple of 8; and a shuffled-id graph, whose permutation draws
/// from the RNG state the RMAT sampler hands back.
#[rustfmt::skip]
const GOLDEN_SHAPES: [(usize, usize, u64, bool, u64, u64); 4] = [
    (1 << 18, 12, 1, false, 0x8d3b_80fb_fe87_05eb, 0xcf73_9860_168c_dbe9),
    (1 << 18, 12, 20_261_016, false, 0x1407_859c_45b4_8237, 0xbc7b_43c3_f175_ac7b),
    (100_003, 7, 1, false, 0x62f6_42ff_6de4_41cf, 0xdce1_01bb_a532_4994),
    (70_001, 12, 20_261_016, true, 0xfcf7_f2a3_e783_a723, 0xd65e_85da_031d_f3e1),
];

/// Digest of `row_ptr` then `col_idx`, each as little-endian `u32`s.
fn csr_digest(g: &Graph) -> u64 {
    let mut h = Fnv1a::new();
    for &x in g.row_ptr().iter().chain(g.col_idx()) {
        h.write(&x.to_le_bytes());
    }
    h.finish()
}

/// Digest of every field of every access of a 4-core DFS trace over `g`,
/// laid out the way `Workload::generate` lays out graph workloads.
fn dfs_digest(g: &Graph, seed: u64) -> u64 {
    let layout = GraphLayout::new(
        LayoutMode::Object,
        PhysAddr::new(1 << 22),
        g.num_vertices() as u64,
        g.num_edges() as u64,
        2,
    );
    let trace = GraphKernel::Dfs.generate(g, &layout, DFS_CORES, DFS_ACCESSES, seed);
    assert!(
        trace.len() > DFS_ACCESSES / 2,
        "DFS trace unexpectedly short"
    );
    trace_digest(&trace)
}

#[test]
fn rmat_csr_and_dfs_trace_match_golden_digests() {
    for (seed, csr, dfs) in GOLDEN {
        let g = Graph::generate(GraphKind::Rmat, VERTICES, DEGREE, seed);
        assert_eq!(g.num_edges(), VERTICES * DEGREE);
        let got_csr = csr_digest(&g);
        let got_dfs = dfs_digest(&g, seed);
        assert_eq!(
            (got_csr, got_dfs),
            (csr, dfs),
            "seed {seed}: RMAT 2^16 x {DEGREE} digests moved \
             (csr {got_csr:#018x}, dfs {got_dfs:#018x})"
        );
    }
}

#[test]
fn rmat_shapes_match_golden_digests() {
    let mut failures = Vec::new();
    for (n, degree, seed, shuffle, csr, dfs) in GOLDEN_SHAPES {
        let g = Graph::generate_with(GraphKind::Rmat, n, degree, seed, shuffle);
        assert_eq!(g.num_edges(), n * degree);
        let (got_csr, got_dfs) = (csr_digest(&g), dfs_digest(&g, seed));
        if (got_csr, got_dfs) != (csr, dfs) {
            failures.push(format!(
                "({n}, {degree}, {seed}, {shuffle}, {got_csr:#018x}, {got_dfs:#018x}),"
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "RMAT digests moved:\n{}",
        failures.join("\n")
    );
}
