//! Allocation on the per-access path, counted by running it.
//!
//! Each case builds a simulator from `SimConfig::paper_default` (seed 1,
//! no checker attached), steps the first half of a 400k-access trace, and
//! then counts the allocations (`alloc` and `alloc_zeroed`) made while it
//! steps the second half. Only the counter store may allocate there, and
//! only the heap blocks it adds in that half, as read from the store: a
//! page of counter blocks each, and each of its lists (page directory,
//! page list, spill arena, spill free list) when it first holds an entry.
//! NP makes none. That holds with telemetry on too: the CTR heatmap's
//! window buffers only grow, which reallocates. Reallocations are
//! reported, not gated.
//!
//! Counting is per thread: only allocations made by the thread that
//! steps the simulator are counted, so the tests may run in parallel and
//! share the traces.
//!
//! At the seed these bounds are tight: every secure design adds 492
//! pages on mcf and makes 492 allocations, none on bfs, and 9 on ResNet
//! (8 pages and the spill arena).

use cosmos_cache::{PolicyKind, PrefetcherKind};
use cosmos_common::Trace;
use cosmos_core::config::CtrIndex;
use cosmos_core::{Design, SimConfig, Simulator};
use cosmos_secure::CounterScheme;
use cosmos_telemetry::Telemetry;
use cosmos_workloads::graph::GraphKernel;
use cosmos_workloads::ml::MlModel;
use cosmos_workloads::spec::SpecKind;
use cosmos_workloads::{TraceSpec, Workload};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::OnceLock;

/// [`System`], counting the current thread's new allocations and
/// reallocations while [`counted`] runs on it.
struct Counting;

thread_local! {
    /// `(allocations, reallocations)` while counting, `None` otherwise.
    static COUNTS: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
}

fn note(realloc: bool) {
    // A thread being torn down has no counts to update.
    let _ = COUNTS.try_with(|c| {
        if let Some((allocs, reallocs)) = c.get() {
            c.set(Some(if realloc {
                (allocs, reallocs + 1)
            } else {
                (allocs + 1, reallocs)
            }));
        }
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; the counts
// are only bookkeeping, in a const-initialized thread local that never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(false);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // which is `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(false);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a block this allocator, hence
        // `System`, returned for `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(true);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract,
        // which is `System::realloc`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Runs `f` and returns the allocations and reallocations this thread
/// made meanwhile.
fn counted(f: impl FnOnce()) -> (usize, usize) {
    COUNTS.with(|c| c.set(Some((0, 0))));
    f();
    COUNTS
        .with(|c| c.take())
        .expect("counting was switched on above and only this call ends it")
}

const ACCESSES: usize = 400_000;
const SEED: u64 = 1;

const MCF: Workload = Workload::Spec(SpecKind::Mcf);
const BFS: Workload = Workload::Graph(GraphKernel::Bfs);
const RESNET: Workload = Workload::Ml(MlModel::ResNet);

/// The trace of `workload`, generated once per test binary; bfs runs over
/// a 2^18-vertex RMAT graph.
fn trace(workload: Workload) -> &'static Trace {
    static TRACES: [OnceLock<Trace>; 3] = [OnceLock::new(), OnceLock::new(), OnceLock::new()];
    let slot = [MCF, BFS, RESNET]
        .iter()
        .position(|w| *w == workload)
        .expect("a test asks only for mcf, bfs or ResNet");
    TRACES[slot].get_or_init(|| {
        let spec = TraceSpec {
            graph_vertices: 1 << 18,
            ..TraceSpec::paper_default(ACCESSES, SEED)
        };
        workload.generate(&spec)
    })
}

fn config(design: Design) -> SimConfig {
    SimConfig {
        seed: SEED,
        ..SimConfig::paper_default(design)
    }
}

/// The counter store's heap blocks (none without a store).
fn store_blocks(sim: &Simulator) -> usize {
    sim.secure().map_or(0, |sp| sp.counters().heap_blocks())
}

/// Steps `config` over the first half of `workload`'s trace, then counts
/// the allocations made over the second half. Returns a complaint if they
/// exceed the bound.
fn check(label: &str, config: SimConfig, workload: Workload) -> Option<String> {
    let trace = trace(workload).as_slice();
    let (first, second) = trace.split_at(trace.len() / 2);
    let mut sim = Simulator::new(config);
    for access in first {
        sim.step(access);
    }
    let blocks = store_blocks(&sim);

    let (allocs, reallocs) = counted(|| {
        for access in second {
            sim.step(access);
        }
    });

    let new_blocks = store_blocks(&sim) - blocks;
    let case = format!("{label} on {}", workload.name());
    println!(
        "{case}: {allocs} allocations, {reallocs} reallocations; {new_blocks} new store blocks"
    );
    (allocs > new_blocks).then(|| {
        format!("{case}: {allocs} allocations over the second half; bound {new_blocks} new store blocks")
    })
}

/// Fails with every complaint of `cases`, after running them all.
fn check_all(cases: impl IntoIterator<Item = (String, SimConfig, Workload)>) {
    let complaints: Vec<String> = cases
        .into_iter()
        .filter_map(|(label, config, workload)| check(&label, config, workload))
        .collect();
    assert!(complaints.is_empty(), "{}", complaints.join("\n"));
}

fn every_design_on(workload: Workload) {
    check_all(Design::ALL.map(|d| (d.name().to_string(), config(d), workload)));
}

#[test]
fn every_design_on_mcf() {
    every_design_on(MCF);
}

#[test]
fn every_design_on_bfs() {
    every_design_on(BFS);
}

#[test]
fn every_design_on_resnet() {
    every_design_on(RESNET);
}

/// The CTR policies and prefetchers that run the generic `Cache`.
#[test]
fn generic_ctr_cache() {
    let policies = [
        PolicyKind::Random { seed: SEED },
        PolicyKind::Rrip,
        PolicyKind::Drrip,
        PolicyKind::Ship,
        PolicyKind::Mockingjay,
    ]
    .map(|policy| {
        let c = SimConfig {
            ctr_policy: policy,
            ..config(Design::MorphCtr)
        };
        (format!("MorphCtr/{policy:?}"), c, MCF)
    });
    let prefetchers = [
        PrefetcherKind::NextLine,
        PrefetcherKind::Stride,
        PrefetcherKind::Berti,
    ]
    .map(|prefetcher| {
        let c = SimConfig {
            ctr_prefetcher: prefetcher,
            ..config(Design::MorphCtr)
        };
        (format!("MorphCtr/{prefetcher:?}"), c, MCF)
    });
    check_all(policies.into_iter().chain(prefetchers));
}

#[test]
fn keyed_ctr_index_and_counter_schemes() {
    let indexed = [Design::MorphCtr, Design::Cosmos].map(|design| {
        [CtrIndex::Random, CtrIndex::Skewed].map(|index| {
            let c = SimConfig {
                ctr_index: index,
                ..config(design)
            };
            (format!("{design}/{}", index.name()), c, MCF)
        })
    });
    let schemes = [CounterScheme::Monolithic, CounterScheme::Split].map(|scheme| {
        let c = SimConfig {
            scheme,
            ..config(Design::MorphCtr)
        };
        (format!("MorphCtr/{scheme:?}"), c, MCF)
    });
    check_all(indexed.into_iter().flatten().chain(schemes));
}

#[test]
fn telemetry_and_timeline_sampling() {
    let telemetry = [Design::Np, Design::Cosmos].map(|design| {
        let c = SimConfig {
            telemetry: Telemetry::in_memory(),
            ..config(design)
        };
        (format!("{design}/telemetry"), c, MCF)
    });
    let sampled = SimConfig {
        sample_interval: 10_000,
        ..config(Design::Cosmos)
    };
    check_all(
        telemetry
            .into_iter()
            .chain([("COSMOS/sampled".to_string(), sampled, MCF)]),
    );
}
