//! SPEC-like irregular workload generators.
//!
//! The paper evaluates mcf and canneal (SPEC CPU2006) and omnetpp (SPEC
//! CPU2017), chosen for "low locality and irregular memory access
//! patterns". The binaries and reference inputs are not redistributable, so
//! each generator reproduces the benchmark's dominant memory idiom (see
//! DESIGN.md substitution table):
//!
//! - **mcf** — network-simplex pointer chasing: a traversal hops between
//!   arc records scattered over a multi-hundred-MB arc array, touching a
//!   few fields per hop.
//! - **canneal** — simulated-annealing element swaps: pick two random
//!   netlist elements, read both and their adjacent nets, conditionally
//!   swap (writes).
//! - **omnetpp** — discrete-event simulation: a binary heap of events
//!   (sift-up/down walks) plus random message-pool allocations and frees.

use crate::interleave::{interleave, CoreStream};
use cosmos_common::{MemAccess, PhysAddr, SplitMix64, Trace};

/// The SPEC-like workload set.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SpecKind {
    /// mcf-like pointer chasing.
    Mcf,
    /// canneal-like random swaps.
    Canneal,
    /// omnetpp-like event-heap churn.
    Omnetpp,
}

impl SpecKind {
    /// All SPEC-like workloads.
    pub const fn all() -> [SpecKind; 3] {
        [SpecKind::Mcf, SpecKind::Canneal, SpecKind::Omnetpp]
    }

    /// Display name.
    pub const fn name(self) -> &'static str {
        match self {
            SpecKind::Mcf => "mcf",
            SpecKind::Canneal => "canneal",
            SpecKind::Omnetpp => "omnetpp",
        }
    }

    /// Generates a multi-core trace of `budget / cores` accesses per core
    /// over a working set of `footprint_bytes`.
    ///
    /// Each core's stream is generated lazily as the interleaver pulls it,
    /// so every access is written once, straight into the returned trace.
    pub fn generate(self, footprint_bytes: u64, cores: usize, budget: usize, seed: u64) -> Trace {
        assert!(cores > 0, "need at least one core");
        let per_core = budget / cores;
        let streams = (0..cores)
            .map(|c| {
                let rng = cosmos_common::rng::streams::WORKLOAD_SPEC.derive_lane(seed, c as u64);
                SpecStream::new(self, c as u8, per_core, footprint_bytes, rng)
            })
            .collect();
        interleave(streams, seed)
    }
}

impl core::fmt::Display for SpecKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

const ARC_BYTES: u64 = 64; // one arc record = one line
pub(crate) const BASE: u64 = 1 << 24;

/// Accesses one refill of a [`SpecStream`] aims for: whole steps are
/// generated until at least this many are pending or the core's share is
/// covered. Batching keeps the step loop tight. It cannot change the
/// trace: a step still starts exactly when fewer accesses have been
/// generated than the share.
const REFILL: usize = 64;

/// One core's SPEC-like access stream, generated lazily in whole steps (an
/// mcf arc visit, a canneal swap attempt, an omnetpp heap operation). The
/// steps wait in `pending` until the interleaver pulls them; the stream
/// ends after exactly `per_core` accesses, cutting its last step short.
struct SpecStream {
    walker: Walker,
    core: u8,
    rng: SplitMix64,
    /// Accesses still to hand out.
    remaining: usize,
    /// Generated accesses; those before `next` are handed out.
    pending: Vec<MemAccess>,
    next: usize,
}

impl SpecStream {
    fn new(kind: SpecKind, core: u8, per_core: usize, footprint: u64, mut rng: SplitMix64) -> Self {
        Self {
            walker: Walker::new(kind, footprint, &mut rng),
            core,
            rng,
            remaining: per_core,
            pending: Vec::new(),
            next: 0,
        }
    }
}

impl CoreStream for SpecStream {
    fn left(&self) -> usize {
        self.remaining
    }

    fn pull(&mut self, mut n: usize, out: &mut Trace) {
        while n > 0 {
            if self.next == self.pending.len() {
                self.pending.clear();
                self.next = 0;
                // `remaining > 0` here, so this emits at least one access
                // even across steps that emit none (omnetpp's heap reset).
                while self.pending.len() < self.remaining.min(REFILL) {
                    self.walker
                        .step(self.core, &mut self.rng, &mut self.pending);
                }
            }
            let take = n.min(self.pending.len() - self.next);
            out.extend(self.pending[self.next..self.next + take].iter().copied());
            self.next += take;
            self.remaining -= take;
            n -= take;
        }
    }
}

/// The long-lived state of one core's SPEC-like generator.
enum Walker {
    /// Pointer chase over `arcs` arc records, currently at arc `cur`.
    Mcf { arcs: u64, cur: u64 },
    /// Element swaps over `elements` 32 B netlist elements.
    Canneal { elements: u64 },
    /// An event heap of `heap_len` live entries (of `heap_slots`) plus a
    /// message pool of `pool_slots` 128 B records at `pool_base`.
    Omnetpp {
        heap_slots: u64,
        pool_slots: u64,
        pool_base: u64,
        heap_len: u64,
    },
}

impl Walker {
    fn new(kind: SpecKind, footprint: u64, rng: &mut SplitMix64) -> Self {
        match kind {
            SpecKind::Mcf => {
                let arcs = (footprint / ARC_BYTES).max(1);
                Walker::Mcf {
                    arcs,
                    cur: rng.next_below(arcs),
                }
            }
            SpecKind::Canneal => Walker::Canneal {
                elements: (footprint / 32).max(4), // 32 B per netlist element
            },
            SpecKind::Omnetpp => {
                let heap_slots = (footprint / 2 / 32).max(16);
                Walker::Omnetpp {
                    heap_slots,
                    pool_slots: (footprint / 2 / 128).max(16),
                    pool_base: BASE + heap_slots * 32 + (1 << 20),
                    heap_len: 1,
                }
            }
        }
    }

    /// Appends one step's accesses to `out`.
    fn step(&mut self, core: u8, rng: &mut SplitMix64, out: &mut Vec<MemAccess>) {
        match self {
            Walker::Mcf { arcs, cur } => {
                // Visit the arc record: head fields then cost field.
                let rec = BASE + *cur * ARC_BYTES;
                out.push(MemAccess::read(core, PhysAddr::new(rec), 3));
                out.push(MemAccess::read(core, PhysAddr::new(rec + 16), 2));
                if rng.chance(0.12) {
                    // Pivot update writes the arc flow.
                    out.push(MemAccess::write(core, PhysAddr::new(rec + 32), 2));
                }
                // Chase: mostly a long jump (tree parent / orientation
                // change), occasionally a nearby arc (basis neighbourhood).
                *cur = if rng.chance(0.8) {
                    rng.next_below(*arcs)
                } else {
                    (*cur + 1 + rng.next_below(8)) % *arcs
                };
            }
            Walker::Canneal { elements } => {
                let a = rng.next_below(*elements);
                let b = rng.next_below(*elements);
                let pa = BASE + a * 32;
                let pb = BASE + b * 32;
                // Read both elements and a couple of their net neighbours.
                out.push(MemAccess::read(core, PhysAddr::new(pa), 4));
                out.push(MemAccess::read(core, PhysAddr::new(pb), 3));
                for _ in 0..2 {
                    let n = rng.next_below(*elements);
                    out.push(MemAccess::read(core, PhysAddr::new(BASE + n * 32), 2));
                }
                // Accept the swap ~40% of the time.
                if rng.chance(0.4) {
                    out.push(MemAccess::write(core, PhysAddr::new(pa), 2));
                    out.push(MemAccess::write(core, PhysAddr::new(pb), 2));
                }
            }
            Walker::Omnetpp {
                heap_slots,
                pool_slots,
                pool_base,
                heap_len,
            } => {
                let heap_base = BASE;
                if rng.chance(0.5) && *heap_len < *heap_slots {
                    // Insert: sift-up from a leaf.
                    *heap_len += 1;
                    let mut i = *heap_len - 1;
                    out.push(MemAccess::write(core, PhysAddr::new(heap_base + i * 32), 4));
                    while i > 0 {
                        let parent = (i - 1) / 2;
                        let slot = PhysAddr::new(heap_base + parent * 32);
                        out.push(MemAccess::read(core, slot, 2));
                        if rng.chance(0.5) {
                            break;
                        }
                        out.push(MemAccess::write(core, slot, 2));
                        i = parent;
                    }
                    // Allocate a message from the pool (random slot ->
                    // irregular).
                    let m = rng.next_below(*pool_slots);
                    out.push(MemAccess::write(
                        core,
                        PhysAddr::new(*pool_base + m * 128),
                        3,
                    ));
                } else if *heap_len > 1 {
                    // Pop: read root, sift-down.
                    out.push(MemAccess::read(core, PhysAddr::new(heap_base), 3));
                    *heap_len -= 1;
                    let mut i: u64 = 0;
                    loop {
                        let child = 2 * i + 1 + rng.next_below(2);
                        if child >= *heap_len {
                            break;
                        }
                        let slot = PhysAddr::new(heap_base + child * 32);
                        out.push(MemAccess::read(core, slot, 2));
                        if rng.chance(0.4) {
                            break;
                        }
                        out.push(MemAccess::write(core, slot, 2));
                        i = child;
                    }
                    // Handle the message: touch its pool record.
                    let m = rng.next_below(*pool_slots);
                    let record = *pool_base + m * 128;
                    out.push(MemAccess::read(core, PhysAddr::new(record), 4));
                    out.push(MemAccess::write(core, PhysAddr::new(record + 64), 2));
                } else {
                    *heap_len = 1 + rng.next_below(*heap_slots / 2);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FOOTPRINT: u64 = 64 << 20; // 64 MB

    #[test]
    fn all_generators_fill_budget() {
        for k in SpecKind::all() {
            let t = k.generate(FOOTPRINT, 4, 10_000, 1);
            assert_eq!(t.len(), 10_000, "{k}");
            assert_eq!(t.core_count(), 4, "{k}");
        }
    }

    #[test]
    fn mixes_reads_and_writes() {
        for k in SpecKind::all() {
            let t = k.generate(FOOTPRINT, 2, 20_000, 2);
            let w = t.write_fraction();
            assert!(w > 0.02 && w < 0.6, "{k}: write fraction {w:.3}");
        }
    }

    #[test]
    fn footprint_respected() {
        for k in SpecKind::all() {
            let t = k.generate(FOOTPRINT, 1, 5_000, 3);
            for a in t.iter() {
                assert!(
                    a.addr.value() < BASE + 4 * FOOTPRINT,
                    "{k}: {:?} outside plausible footprint",
                    a.addr
                );
            }
        }
    }

    #[test]
    fn irregularity_working_set_is_large() {
        // mcf/canneal must touch many unique lines (low locality).
        for k in [SpecKind::Mcf, SpecKind::Canneal] {
            let t = k.generate(FOOTPRINT, 1, 20_000, 4);
            let mut lines: Vec<u64> = t.iter().map(|a| a.addr.line().index()).collect();
            lines.sort_unstable();
            lines.dedup();
            assert!(
                lines.len() > t.len() / 4,
                "{k}: only {} unique lines in {} accesses",
                lines.len(),
                t.len()
            );
        }
    }

    /// Lazy generation cuts each core's stream at its share: a smaller
    /// budget must give every core a prefix of its larger-budget stream,
    /// across refill boundaries and chunk sizes.
    #[test]
    fn smaller_budget_is_a_per_core_prefix() {
        let per_core = |t: &Trace, core: u8| -> Vec<MemAccess> {
            t.iter().copied().filter(|a| a.core == core).collect()
        };
        for k in SpecKind::all() {
            for cores in [1, 3] {
                let full = k.generate(FOOTPRINT, cores, 3_000, 6);
                for budget in [0, 1, 2, 5, 63, 64, 65, 200, 1_001] {
                    let t = k.generate(FOOTPRINT, cores, budget, 6);
                    assert_eq!(t.len(), budget / cores * cores, "{k}, budget {budget}");
                    for c in 0..cores as u8 {
                        let (short, long) = (per_core(&t, c), per_core(&full, c));
                        assert_eq!(short[..], long[..short.len()], "{k}, budget {budget}");
                    }
                }
            }
        }
    }

    #[test]
    fn deterministic() {
        let a = SpecKind::Omnetpp.generate(FOOTPRINT, 4, 5_000, 9);
        let b = SpecKind::Omnetpp.generate(FOOTPRINT, 4, 5_000, 9);
        assert_eq!(a, b);
    }
}
