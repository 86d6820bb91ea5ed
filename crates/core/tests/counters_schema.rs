//! The contract every `Counters` type gets from its single field
//! declaration, checked at runtime over every leaf: snapshot round trip,
//! checked windowing, leaf walk ↔ rebuild, and (for `SimStats`) the
//! sampled estimator.

use cosmos_cache::CacheStats;
use cosmos_common::stats::{Counters, HitMiss};
use cosmos_core::estimate::StatsEstimate;
use cosmos_core::stats::{TenantCtrStats, MAX_TENANTS};
use cosmos_core::{SimStats, TimelinePoint, TrafficBreakdown};
use cosmos_dram::DramStats;
use cosmos_rl::{CtrLocalityStats, DataLocationStats};
use std::collections::BTreeSet;
use std::fmt::Debug;
use std::panic::{self, AssertUnwindSafe};

/// Leaf `i` (in walk order) of the distinct-leaf test value.
fn leaf(i: usize) -> u64 {
    1_000 + 7 * i as u64
}

fn distinct<T: Counters>() -> T {
    T::from_leaves(&mut (0..).map(leaf))
}

fn zero<T: Counters>() -> T {
    T::from_leaves(&mut std::iter::repeat(0))
}

fn leaves<T: Counters>(x: &T) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    x.visit(|name, v| out.push((name.to_string(), v)));
    out
}

fn window_panics<T: Counters>(x: &T, baseline: &T) -> bool {
    let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| x.since(baseline))) else {
        return false;
    };
    let msg = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or_default();
    msg.contains("stat-window baseline exceeds the current counter")
}

fn check<T: Counters + PartialEq + Debug>(what: &str) {
    let x: T = distinct();
    let z: T = zero();

    let walk = leaves(&x);
    assert_eq!(walk.len(), T::LEAVES, "{what}: walk visits LEAVES leaves");
    for (i, (name, v)) in walk.iter().enumerate() {
        assert_eq!(
            *v,
            leaf(i),
            "{what}: leaf {i} ({name}) rebuilt in walk order"
        );
    }
    let names: BTreeSet<&str> = walk.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names.len(), T::LEAVES, "{what}: leaf names are distinct");

    assert_eq!(
        T::from_json(&x.to_json()).as_ref(),
        Ok(&x),
        "{what}: JSON round trip"
    );
    assert_eq!(x.since(&z), x, "{what}: window over zero");
    assert_eq!(x.since(&x), z, "{what}: empty window");

    // Every leaf is windowed through the checked subtraction: a baseline
    // one ahead in any single leaf is a reset counter, and must panic.
    let hook = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let unchecked: Vec<&str> = (0..T::LEAVES)
        .filter(|&i| {
            let ahead = T::from_leaves(&mut (0..).map(|j| leaf(j) + u64::from(j == i)));
            !window_panics(&x, &ahead)
        })
        .map(|i| walk[i].0.as_str())
        .collect();
    panic::set_hook(hook);
    assert!(
        unchecked.is_empty(),
        "{what}: unchecked window leaves {unchecked:?}"
    );
}

#[test]
fn every_counters_type_keeps_the_contract() {
    check::<u64>("u64");
    check::<HitMiss>("HitMiss");
    check::<CacheStats>("CacheStats");
    check::<DramStats>("DramStats");
    check::<TrafficBreakdown>("TrafficBreakdown");
    check::<TenantCtrStats>("TenantCtrStats");
    check::<[TenantCtrStats; MAX_TENANTS]>("[TenantCtrStats; MAX_TENANTS]");
    check::<DataLocationStats>("DataLocationStats");
    check::<CtrLocalityStats>("CtrLocalityStats");
    check::<SimStats>("SimStats");
}

#[test]
fn weight_one_estimate_reconstructs_every_leaf() {
    let mut x: SimStats = distinct();
    x.timeline.push(TimelinePoint {
        accesses: 64,
        dp_accuracy: 0.5,
        dp_correct: 1,
        dp_total: 2,
        ctr_miss_rate_window: 0.25,
    });
    let mut est = StatsEstimate::new();
    est.add_weighted(&x, 1.0);
    x.timeline.clear();
    assert_eq!(est.reconstruct(), x);
}

#[test]
fn leaf_names_are_dotted_field_paths() {
    let names: Vec<String> = leaves(&SimStats::default())
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    for expected in [
        "instructions",
        "l1.hits",
        "ctr_cache.demand.misses",
        "dram.row_hits",
        "traffic.mt_reads",
        "ctr_pred.cet_evictions",
        "tenant_ctr.3.miss_latency",
        "early_offchip_reads",
    ] {
        assert!(
            names.iter().any(|n| n == expected),
            "{expected} in {names:?}"
        );
    }
    assert!(names.iter().all(|n| !n.starts_with("timeline")));
}
