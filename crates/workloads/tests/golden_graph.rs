//! Golden digests of the RMAT generator and a DFS trace built on it.
//!
//! The constants were recorded from the original branchy `f64` quadrant
//! sampler. Any edit to graph generation that changes a single CSR entry
//! (and so every downstream trace, `SimStats` and committed artifact)
//! fails here.

use cosmos_common::{AccessKind, PhysAddr};
use cosmos_workloads::graph::{Graph, GraphKernel, GraphKind, GraphLayout, LayoutMode};

const VERTICES: usize = 1 << 16;
const DEGREE: usize = 12;
const DFS_CORES: usize = 4;
const DFS_ACCESSES: usize = 50_000;

/// `(seed, CSR digest, DFS trace digest)`.
const GOLDEN: [(u64, u64, u64); 2] = [
    (1, 0x9af9_23ab_6776_75b1, 0x8dca_97dc_4a2d_43b3),
    (20_261_016, 0xaeb2_96c6_d3d9_b46f, 0x6ea3_58cd_f3c5_427c),
];

/// 64-bit FNV-1a, fed incrementally.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Digest of `row_ptr` then `col_idx`, each as little-endian `u32`s.
fn csr_digest(g: &Graph) -> u64 {
    let mut h = Fnv1a::new();
    for &x in g.row_ptr().iter().chain(g.col_idx()) {
        h.write(&x.to_le_bytes());
    }
    h.0
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
    let mut h = Fnv1a::new();
    for a in trace.iter() {
        let kind = match a.kind {
            AccessKind::Read => 0u8,
            AccessKind::Write => 1u8,
        };
        h.write(&[a.core, a.tenant, kind]);
        h.write(&a.addr.value().to_le_bytes());
        h.write(&a.inst_gap.to_le_bytes());
    }
    h.0
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
