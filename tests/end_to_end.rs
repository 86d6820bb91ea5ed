//! Cross-crate integration tests: the full simulator over real workload
//! traces, across every design.

use cosmos::common::Trace;
use cosmos::core::{Design, SimConfig, Simulator};
use cosmos::workloads::{graph::GraphKernel, spec::SpecKind, TraceSpec, Workload};

fn small_spec(seed: u64) -> TraceSpec {
    let mut s = TraceSpec::small_test(seed);
    s.accesses = 30_000;
    s
}

const ALL_DESIGNS: [Design; 6] = [
    Design::Np,
    Design::MorphCtr,
    Design::Emcc,
    Design::CosmosDp,
    Design::CosmosCp,
    Design::Cosmos,
];

#[test]
fn every_design_runs_every_workload_family() {
    let spec = small_spec(1);
    for w in [
        Workload::Graph(GraphKernel::Bfs),
        Workload::Spec(SpecKind::Mcf),
        Workload::Ml(cosmos::workloads::ml::MlModel::Mlp),
    ] {
        let trace = w.generate(&spec);
        for d in ALL_DESIGNS {
            let stats = Simulator::new(SimConfig::paper_default(d)).run(&trace);
            assert_eq!(stats.accesses, trace.len() as u64, "{w}/{d}");
            assert!(stats.cycles > 0, "{w}/{d}");
            assert!(
                stats.ipc() > 0.0 && stats.ipc() < 1.0,
                "{w}/{d}: ipc {}",
                stats.ipc()
            );
        }
    }
}

#[test]
fn secure_designs_generate_metadata_traffic_np_does_not() {
    let spec = small_spec(2);
    let trace = Workload::Spec(SpecKind::Canneal).generate(&spec);
    for d in ALL_DESIGNS {
        let stats = Simulator::new(SimConfig::paper_default(d)).run(&trace);
        if d.is_secure() {
            assert!(stats.traffic.ctr_reads > 0, "{d}: no counter traffic");
            assert!(stats.traffic.mt_reads > 0, "{d}: no tree traffic");
            assert!(
                stats.traffic.total() > stats.traffic.data_reads + stats.traffic.data_writes,
                "{d}: metadata traffic missing"
            );
        } else {
            assert_eq!(
                stats.traffic.metadata_total(),
                0,
                "NP must be metadata-free"
            );
        }
    }
}

#[test]
fn runs_are_deterministic_across_invocations() {
    let spec = small_spec(3);
    let trace = Workload::Graph(GraphKernel::Dfs).generate(&spec);
    for d in [Design::Cosmos, Design::MorphCtr] {
        let a = Simulator::new(SimConfig::paper_default(d)).run(&trace);
        let b = Simulator::new(SimConfig::paper_default(d)).run(&trace);
        assert_eq!(a.cycles, b.cycles, "{d}");
        assert_eq!(a.traffic, b.traffic, "{d}");
        assert_eq!(a.instructions, b.instructions, "{d}");
    }
}

#[test]
fn instruction_count_matches_trace() {
    let spec = small_spec(4);
    let trace = Workload::Graph(GraphKernel::Pr).generate(&spec);
    let expected: u64 = trace.iter().map(|a| a.inst_gap as u64 + 1).sum();
    let stats = Simulator::new(SimConfig::paper_default(Design::Cosmos)).run(&trace);
    assert_eq!(stats.instructions, expected);
}

#[test]
fn predictors_engage_on_cosmos_designs_only() {
    let spec = small_spec(5);
    let trace = Workload::Graph(GraphKernel::Gc).generate(&spec);
    let full = Simulator::new(SimConfig::paper_default(Design::Cosmos)).run(&trace);
    assert!(full.data_pred.total() > 0);
    assert!(full.ctr_pred.predictions > 0);
    let mc = Simulator::new(SimConfig::paper_default(Design::MorphCtr)).run(&trace);
    assert_eq!(mc.data_pred.total(), 0);
    assert_eq!(mc.ctr_pred.predictions, 0);
}

#[test]
fn smat_orders_np_below_secure() {
    use cosmos::core::smat::smat;
    let spec = small_spec(6);
    let trace = Workload::Spec(SpecKind::Omnetpp).generate(&spec);
    let np_cfg = SimConfig::paper_default(Design::Np);
    let mc_cfg = SimConfig::paper_default(Design::MorphCtr);
    let np = Simulator::new(np_cfg.clone()).run(&trace);
    let mc = Simulator::new(mc_cfg.clone()).run(&trace);
    assert!(
        smat(&mc_cfg, &mc).total > smat(&np_cfg, &np).total,
        "secure SMAT must exceed NP"
    );
}

#[test]
fn eight_core_config_runs() {
    let mut spec = small_spec(7).with_cores(8);
    spec.accesses = 30_000;
    let trace = Workload::Graph(GraphKernel::Cc).generate(&spec);
    assert_eq!(trace.core_count(), 8);
    let stats = Simulator::new(SimConfig::eight_core(Design::Cosmos)).run(&trace);
    assert_eq!(stats.accesses, trace.len() as u64);
}

#[test]
fn traffic_breakdown_is_consistent() {
    let spec = small_spec(8);
    let trace = Workload::Graph(GraphKernel::Sp).generate(&spec);
    let stats = Simulator::new(SimConfig::paper_default(Design::Cosmos)).run(&trace);
    let t = &stats.traffic;
    let sum = t.data_reads
        + t.data_writes
        + t.ctr_reads
        + t.ctr_writes
        + t.mt_reads
        + t.mt_writes
        + t.mac_reads
        + t.mac_writes
        + t.reencrypt_writes
        + t.killed_speculative;
    assert_eq!(t.total(), sum);
    // DRAM served at least the demand reads and metadata reads we charged.
    assert!(stats.dram.requests() >= t.data_reads + t.ctr_reads + t.mt_reads);
}

#[test]
fn an_mcf_trace_misses_the_ctr_cache() {
    let mut spec = TraceSpec::small_test(9).with_accesses(20_000);
    spec.spec_footprint = 16 << 20;
    let trace = Workload::Spec(SpecKind::Mcf).generate(&spec);
    let stats = Simulator::new(SimConfig::paper_default(Design::Cosmos)).run(&trace);
    assert_eq!(stats.accesses, 20_000);
    assert!(
        stats.ctr_miss_rate() > 0.1,
        "mcf should miss the CTR cache ({})",
        stats.ctr_miss_rate()
    );
}

#[test]
fn a_looped_trace_becomes_cache_resident() {
    let spec = small_spec(10).with_accesses(500);
    let base = Workload::Graph(GraphKernel::Dfs).generate(&spec);
    let looped: Trace = base.iter().copied().cycle().take(5_000).collect();
    let stats = Simulator::new(SimConfig::paper_default(Design::MorphCtr)).run(&looped);
    assert_eq!(stats.accesses, 5_000);
    // After the first pass the LLC absorbs everything, so the CTR path
    // sees only the cold start.
    assert!(
        stats.ctr_cache.demand.total() < 2_000,
        "CTR stream should collapse once the loop is resident ({} accesses)",
        stats.ctr_cache.demand.total()
    );
}
