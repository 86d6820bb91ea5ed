//! Golden digests of the data-cache hierarchy's per-access behavior.
//!
//! The constants were recorded from the hierarchy built on three levels of
//! the generic `cosmos_cache::Cache` (LRU). Each digest covers every
//! access's `DataHit` and writeback list, in order, plus the final
//! L1/L2/LLC demand hit/miss counts. Any change to the hierarchy that
//! moves one hit level, one writeback or one stat (and so every
//! downstream `SimStats` and committed artifact) fails here.

use cosmos_common::hash::Fnv1a;
use cosmos_common::stats::HitMiss;
use cosmos_common::Trace;
use cosmos_core::hierarchy::{CacheHierarchy, DataHit};
use cosmos_core::{Design, SimConfig};
use cosmos_workloads::graph::GraphKernel;
use cosmos_workloads::spec::SpecKind;
use cosmos_workloads::{TraceSpec, Workload};

const ACCESSES: usize = 60_000;

/// `(workload, seed, digest at paper geometry, digest at small geometry)`.
#[rustfmt::skip]
const GOLDEN: [(&str, u64, u64, u64); 4] = [
    ("mcf", 1, 0x961e_1710_85ce_c8f4, 0x1491_9cf5_a41c_92d3),
    ("mcf", 20_261_016, 0xc037_a732_2e9e_a4eb, 0x5910_78d1_17e2_6c73),
    ("dfs", 1, 0x92b7_108d_f848_5014, 0xd487_502f_bfa7_dcb8),
    ("dfs", 20_261_016, 0xc173_db49_96d3_fd0d, 0x5f0f_d0e2_0bfd_a1cc),
];

fn write_hm(digest: &mut Fnv1a, hm: HitMiss) {
    digest.write(&hm.hits().to_le_bytes());
    digest.write(&hm.misses().to_le_bytes());
}

fn trace(workload: &str, seed: u64) -> Trace {
    let spec = TraceSpec {
        graph_vertices: 1 << 12,
        ..TraceSpec::paper_default(ACCESSES, seed)
    };
    let w = match workload {
        "mcf" => Workload::Spec(SpecKind::Mcf),
        "dfs" => Workload::Graph(GraphKernel::Dfs),
        other => panic!("unknown workload {other}"),
    };
    let t = w.generate(&spec);
    assert_eq!(t.core_count(), 4, "{workload} seed {seed}");
    t
}

/// Paper Table 3 geometry (32 KB 2-way L1, 1 MB 8-way L2, 8 MB 16-way LLC).
fn paper_config() -> SimConfig {
    SimConfig::paper_default(Design::Np)
}

/// A geometry small enough that the traces above cascade dirty lines all
/// the way out of the LLC.
fn small_config() -> SimConfig {
    let mut cfg = SimConfig::paper_default(Design::Np);
    cfg.l1.size_bytes = 4 * 1024;
    cfg.l2.size_bytes = 32 * 1024;
    cfg.llc.size_bytes = 128 * 1024;
    cfg
}

/// Digest of the hierarchy's behavior over `trace`, plus the number of
/// LLC writebacks it produced.
fn hierarchy_digest(config: &SimConfig, trace: &Trace) -> (u64, usize) {
    let mut h = CacheHierarchy::new(config);
    let mut wb = Vec::new();
    let mut digest = Fnv1a::new();
    let mut total_wb = 0;
    for a in trace.iter() {
        let core = a.core as usize % config.cores;
        let hit = h.access(core, a.addr.line(), a.kind.is_write(), &mut wb);
        let code = match hit {
            DataHit::L1 => 0u8,
            DataHit::L2 => 1,
            DataHit::Llc => 2,
            DataHit::Dram => 3,
        };
        digest.write(&[code]);
        digest.write(&(wb.len() as u32).to_le_bytes());
        for line in &wb {
            digest.write(&line.index().to_le_bytes());
        }
        total_wb += wb.len();
    }
    write_hm(&mut digest, h.l1_stats());
    write_hm(&mut digest, h.l2_stats());
    write_hm(&mut digest, h.llc_stats());
    (digest.finish(), total_wb)
}

#[test]
fn hierarchy_matches_golden_digests() {
    let mut failures = Vec::new();
    for (workload, seed, want_paper, want_small) in GOLDEN {
        let t = trace(workload, seed);
        let (paper, _) = hierarchy_digest(&paper_config(), &t);
        let (small, small_wb) = hierarchy_digest(&small_config(), &t);
        assert!(
            small_wb > 0,
            "{workload} seed {seed}: the small geometry must write back"
        );
        if paper != want_paper || small != want_small {
            failures.push(format!(
                "(\"{workload}\", {seed}, {paper:#018x}, {small:#018x})"
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "hierarchy digests moved:\n{}",
        failures.join("\n")
    );
}
