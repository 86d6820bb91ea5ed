//! Golden digests of the secure path's per-event behavior.
//!
//! The `GOLDEN` constants were recorded with the CTR and MT caches built
//! on the generic `cosmos_cache::Cache`, the `GOLDEN_LARGE_BFS` ones with
//! the recency store that replaced it event for event. A
//! [`SecureObserver`] feeds every event the secure path reports, in
//! order, into one FNV-1a digest: each CTR and MT access (line, write,
//! hit, and the victim's line and dirty bit), each CTR prefetch fill and
//! each counter increment. The final CTR and MT `CacheStats` close the
//! digest. Any change to the metadata caches that
//! moves one hit, one victim or one dirty bit fails here.

use cosmos_cache::Victim;
use cosmos_common::hash::Fnv1a;
use cosmos_common::stats::Counters;
use cosmos_common::{LineAddr, Trace};
use cosmos_core::{Design, SecureObserver, SimConfig, Simulator};
use cosmos_workloads::graph::GraphKernel;
use cosmos_workloads::spec::SpecKind;
use cosmos_workloads::{TraceSpec, Workload};
use std::cell::RefCell;
use std::rc::Rc;

const ACCESSES: usize = 40_000;
const SEED: u64 = 1;

/// `(design, workload, digest at paper geometry, digest at small geometry)`.
#[rustfmt::skip]
const GOLDEN: [(Design, &str, u64, u64); 12] = [
    (Design::MorphCtr, "mcf", 0x7608_3714_c173_aad8, 0x54f6_1b47_15f3_6ee7),
    (Design::MorphCtr, "bfs", 0x7702_1528_b89d_4dcb, 0x9c8a_30b6_4ab9_16f7),
    (Design::Emcc, "mcf", 0x0e73_1378_1329_1015, 0x2610_d047_2f2b_48ca),
    (Design::Emcc, "bfs", 0xe45b_179b_bb60_491e, 0x9af7_e688_ae74_3578),
    (Design::Rmcc, "mcf", 0xdbff_c4f5_0d26_3644, 0xf8b5_916f_27b6_dd15),
    (Design::Rmcc, "bfs", 0x7702_1528_b89d_4dcb, 0x6598_2de9_e7f9_938d),
    (Design::CosmosDp, "mcf", 0x0e73_1378_1329_1015, 0x2610_d047_2f2b_48ca),
    (Design::CosmosDp, "bfs", 0x2fa1_2659_a559_0e57, 0xa407_94c5_4281_ce3d),
    (Design::CosmosCp, "mcf", 0xe2e5_b439_b6f3_d43a, 0x4801_ea05_e385_b577),
    (Design::CosmosCp, "bfs", 0x7702_1528_b89d_4dcb, 0x1b75_6b1c_a56e_96fb),
    (Design::Cosmos, "mcf", 0xd6e8_10c8_1775_21ad, 0x6b2a_ae9c_a5d5_f6cd),
    (Design::Cosmos, "bfs", 0x2fa1_2659_a559_0e57, 0x94ec_3ce2_8212_5c36),
];

/// `(design, digest)` at paper geometry for bfs over a 2^20-vertex graph:
/// a footprint that overflows the 512 KB CTR cache, so each run's digest
/// pins the design's CTR replacement decisions (the 2^12-vertex bfs rows
/// above never evict a CTR line at paper geometry).
#[rustfmt::skip]
const GOLDEN_LARGE_BFS: [(Design, u64); 6] = [
    (Design::MorphCtr, 0xba33_93b4_feea_b301),
    (Design::Emcc, 0x41e0_796f_2eba_b671),
    (Design::Rmcc, 0x852c_53a5_8dfb_942d),
    (Design::CosmosDp, 0xf3b8_f047_063f_af3f),
    (Design::CosmosCp, 0xb557_9a72_6a9e_3408),
    (Design::Cosmos, 0x0ef2_75d2_5498_c536),
];

/// The running digest, plus how many lines (and how many dirty lines)
/// each cache evicted.
struct Digest {
    hash: Fnv1a,
    ctr_victims: u64,
    dirty_ctr_victims: u64,
    dirty_mt_victims: u64,
}

impl Digest {
    fn write(&mut self, bytes: &[u8]) {
        self.hash.write(bytes);
    }

    /// One cache event: a kind byte, the line, write and hit, then the
    /// victim (a presence byte, its line and its dirty bit).
    fn access(&mut self, kind: u8, line: LineAddr, write: bool, hit: bool, victim: Option<Victim>) {
        self.write(&[kind]);
        self.write(&line.index().to_le_bytes());
        self.write(&[u8::from(write), u8::from(hit)]);
        match victim {
            Some(v) => {
                self.write(&[1]);
                self.write(&v.line.index().to_le_bytes());
                self.write(&[u8::from(v.dirty)]);
            }
            None => self.write(&[0]),
        }
    }
}

/// The observer the simulator owns; the test keeps a second handle.
struct Recorder(Rc<RefCell<Digest>>);

impl SecureObserver for Recorder {
    fn ctr_access(&mut self, ctr_line: LineAddr, write: bool, hit: bool, evicted: Option<Victim>) {
        let mut d = self.0.borrow_mut();
        d.ctr_victims += u64::from(evicted.is_some());
        d.dirty_ctr_victims += u64::from(evicted.is_some_and(|v| v.dirty));
        d.access(0, ctr_line, write, hit, evicted);
    }

    fn ctr_prefetch(&mut self, ctr_line: LineAddr, evicted: Option<Victim>) {
        let mut d = self.0.borrow_mut();
        d.ctr_victims += u64::from(evicted.is_some());
        d.access(1, ctr_line, false, false, evicted);
    }

    fn ctr_increment(&mut self, data_line: LineAddr) {
        let mut d = self.0.borrow_mut();
        d.write(&[2]);
        d.write(&data_line.index().to_le_bytes());
    }

    fn mt_access(&mut self, node: LineAddr, write: bool, hit: bool, evicted: Option<Victim>) {
        let mut d = self.0.borrow_mut();
        d.dirty_mt_victims += u64::from(evicted.is_some_and(|v| v.dirty));
        d.access(3, node, write, hit, evicted);
    }
}

fn trace(workload: &str) -> Trace {
    trace_over(workload, 1 << 12)
}

/// `workload`'s trace, with a `graph_vertices`-vertex graph for bfs.
fn trace_over(workload: &str, graph_vertices: usize) -> Trace {
    let spec = TraceSpec {
        graph_vertices,
        ..TraceSpec::paper_default(ACCESSES, SEED)
    };
    let w = match workload {
        "mcf" => Workload::Spec(SpecKind::Mcf),
        "bfs" => Workload::Graph(GraphKernel::Bfs),
        other => panic!("unknown workload {other}"),
    };
    w.generate(&spec)
}

/// A geometry small enough that both metadata caches evict dirty lines:
/// the data caches write back often and the CTR and MT caches are tiny.
fn small_config(design: Design) -> SimConfig {
    let mut c = SimConfig::paper_default(design);
    c.l1.size_bytes = 2 * 1024;
    c.l2.size_bytes = 8 * 1024;
    c.llc.size_bytes = 32 * 1024;
    c.ctr_cache.size_bytes = 1024;
    c.mt_cache.size_bytes = 1024;
    c
}

/// The digest of one run, its CTR victim count, and its dirty CTR and MT
/// victim counts.
fn secure_digest(config: SimConfig, trace: &Trace) -> (u64, u64, u64, u64) {
    let digest = Rc::new(RefCell::new(Digest {
        hash: Fnv1a::new(),
        ctr_victims: 0,
        dirty_ctr_victims: 0,
        dirty_mt_victims: 0,
    }));
    let mut sim = Simulator::new(config);
    assert!(sim.set_secure_observer(Box::new(Recorder(Rc::clone(&digest)))));
    for a in trace.iter() {
        sim.step(a);
    }
    let sp = sim.secure().expect("secure design");
    let mut d = digest.borrow_mut();
    for stats in [sp.ctr_cache().stats(), sp.mt_cache().stats()] {
        d.write(stats.to_json().to_string().as_bytes());
    }
    (
        d.hash.finish(),
        d.ctr_victims,
        d.dirty_ctr_victims,
        d.dirty_mt_victims,
    )
}

#[test]
fn secure_path_matches_golden_digests() {
    let traces = [("mcf", trace("mcf")), ("bfs", trace("bfs"))];
    let mut failures = Vec::new();
    for (design, workload, want_paper, want_small) in GOLDEN {
        let t = &traces.iter().find(|(w, _)| *w == workload).unwrap().1;
        let (paper, ..) = secure_digest(SimConfig::paper_default(design), t);
        let (small, _, ctr_dirty, mt_dirty) = secure_digest(small_config(design), t);
        assert!(
            ctr_dirty > 0 && mt_dirty > 0,
            "{design} {workload}: the small geometry must evict dirty CTR and MT lines \
             ({ctr_dirty} and {mt_dirty})"
        );
        if paper != want_paper || small != want_small {
            failures.push(format!(
                "(Design::{design:?}, \"{workload}\", {paper:#018x}, {small:#018x}),"
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "secure-path digests moved:\n{}",
        failures.join("\n")
    );
}

#[test]
fn large_bfs_matches_golden_digests_at_paper_geometry() {
    let t = trace_over("bfs", 1 << 20);
    let mut failures = Vec::new();
    for (design, want) in GOLDEN_LARGE_BFS {
        let (got, ctr_victims, _, _) = secure_digest(SimConfig::paper_default(design), &t);
        assert!(
            ctr_victims > 0,
            "{design}: bfs over 2^20 vertices must evict CTR lines at paper geometry"
        );
        if got != want {
            failures.push(format!("(Design::{design:?}, {got:#018x}),"));
        }
    }
    assert!(
        failures.is_empty(),
        "large-bfs secure-path digests moved:\n{}",
        failures.join("\n")
    );
}
