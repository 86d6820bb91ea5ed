//! Self-tests of the benchmark: its stepping and replay reproduce the
//! simulator exactly, and what it prints matches BENCHMARK.json.

use std::collections::BTreeSet;

use cosmos_common::json::{self, Value};
use cosmos_common::{MemAccess, PhysAddr, SplitMix64, Trace};
use cosmos_core::{SimConfig, Simulator};

use crate::interleave::step_all;
use crate::replay::{self, DesignStreams, HierarchyLog};
use crate::report::{valid_name, Report};
use crate::workloads::{Scale, ALL_DESIGNS, WORKLOADS};
use crate::{e2e, traced};

/// Paper-default geometry shrunk so a few thousand random accesses
/// overflow every cache and produce writebacks.
fn tiny_config(design: cosmos_core::Design) -> SimConfig {
    let mut c = crate::workloads::config(design, 5);
    c.cores = 2;
    c.l1.size_bytes = 4096;
    c.l2.size_bytes = 16 * 1024;
    c.llc.size_bytes = 64 * 1024;
    c.ctr_cache.size_bytes = 8192;
    c.mt_cache.size_bytes = 8192;
    c.protected_bytes = 1 << 30;
    c
}

fn random_trace(n: usize, lines: u64, seed: u64) -> Trace {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            let addr = PhysAddr::new(rng.next_below(lines) * 64);
            let core = (rng.next_u32() % 2) as u8;
            if rng.chance(0.3) {
                MemAccess::write(core, addr, 3)
            } else {
                MemAccess::read(core, addr, 3)
            }
        })
        .collect()
}

#[test]
fn interleaved_stepping_matches_run() {
    let trace = random_trace(3 * crate::interleave::SLICE + 123, 50_000, 1);
    let mut sims: Vec<Simulator> = ALL_DESIGNS
        .iter()
        .map(|&d| Simulator::new(tiny_config(d)))
        .collect();
    step_all(&mut sims, trace.as_slice(), |_, _| {});
    for (sim, &d) in sims.into_iter().zip(&ALL_DESIGNS) {
        let alone = Simulator::new(tiny_config(d)).run(&trace);
        assert_eq!(sim.finalize(), alone, "{d}: interleaved stepping diverged");
    }
}

#[test]
fn replay_passes_reproduce_full_run_counts() {
    let trace = random_trace(20_000, 400_000, 2);
    let log = HierarchyLog::record(&tiny_config(ALL_DESIGNS[0]), trace.as_slice());
    assert!(
        log.writebacks() > 0,
        "the trace must exercise the write path"
    );
    let clock = replay::clock_cost();
    for &d in &ALL_DESIGNS {
        let config = tiny_config(d);
        let full = Simulator::new(config.clone()).run(&trace);
        assert!(replay::check_hierarchy(&log, &full).is_empty(), "{d}");
        let s = DesignStreams::derive(&config, trace.as_slice(), &log);
        let data = d.has_data_predictor().then(|| replay::data_pred_pass(&s).1);
        let ctr = d
            .has_locality_predictor()
            .then(|| replay::ctr_pred_pass(&s).1);
        let secure = d.is_secure().then(|| replay::secure_pass(&s, clock));
        let dram = replay::dram_pass(&s).1;
        let problems =
            replay::check_layers(&full, data.as_ref(), ctr.as_ref(), secure.as_ref(), &dram);
        assert!(problems.is_empty(), "{d}: {problems:?}");
        if d.is_secure() {
            assert!(s.ctr_reads() > 0 && s.ctr_writes() > 0, "{d}");
        }
    }
}

#[test]
fn replay_check_reports_a_mismatch() {
    let trace = random_trace(5_000, 100_000, 3);
    let config = tiny_config(cosmos_core::Design::MorphCtr);
    let log = HierarchyLog::record(&config, trace.as_slice());
    let mut full = Simulator::new(config).run(&trace);
    full.llc = cosmos_common::stats::HitMiss::from_counts(full.llc.hits() + 1, full.llc.misses());
    assert_eq!(replay::check_hierarchy(&log, &full).len(), 1);
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(v: &Value, key: &str) -> BTreeSet<String> {
    json::codec::field(v, key)
        .expect("key present")
        .as_array()
        .expect("an array")
        .iter()
        .map(|e| {
            json::codec::str_field(e, "name")
                .expect("a name")
                .to_string()
        })
        .collect()
}

fn printed(report: &Report) -> BTreeSet<String> {
    let names: BTreeSet<String> = report.metrics.iter().map(|m| m.name.clone()).collect();
    assert_eq!(
        names.len(),
        report.metrics.len(),
        "a metric is printed twice"
    );
    for n in &names {
        assert!(valid_name(n), "metric name {n:?} breaks [A-Za-z0-9_.-]+");
    }
    names
}

#[test]
fn workloads_match_benchmark_json() {
    let bench = benchmark_json();
    let listed = json::codec::field(&bench, "workloads")
        .unwrap()
        .as_array()
        .unwrap();
    assert_eq!(listed.len(), WORKLOADS.len());
    for (entry, w) in listed.iter().zip(&WORKLOADS) {
        assert_eq!(json::codec::str_field(entry, "name").unwrap(), w.name);
        assert_eq!(
            json::codec::str_field(entry, "why").unwrap(),
            w.why,
            "{}",
            w.name
        );
    }
}

#[test]
fn every_end_to_end_metric_is_printed_on_every_workload() {
    let expected = names(&benchmark_json(), "end_to_end");
    for w in &WORKLOADS {
        let report = e2e::run(w, 1, 1e-3, Scale::Tiny);
        assert!(report.correct(), "{}: output check failed", w.name);
        assert_eq!(printed(&report), expected, "{}", w.name);
    }
}

#[test]
fn every_per_layer_metric_is_printed_and_documented() {
    let expected = names(&benchmark_json(), "per_layer");
    let (report, spans) = traced::run(&WORKLOADS[1], 1, 1e-3, Scale::Tiny);
    assert!(report.correct(), "replay or output check failed");
    assert_eq!(printed(&report), expected);
    assert!(
        json::parse(&spans.to_json()).is_ok(),
        "spans are valid JSON"
    );
    let readme = include_str!("../README.md");
    for name in &expected {
        assert!(
            readme.contains(&format!("`{name}`")),
            "README.md does not document {name}"
        );
    }
}
