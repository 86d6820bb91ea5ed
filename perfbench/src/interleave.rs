//! Slice-interleaved stepping: the designs of a workload advance in turn,
//! one fixed slice of the trace each, so a host slowdown lasting longer
//! than a slice hits every design alike.

use cosmos_common::MemAccess;
use cosmos_core::{SimStats, Simulator};

/// Accesses a design steps before the next design takes its turn: tens of
/// milliseconds, far shorter than the host's slow phases (seconds), yet
/// long enough that a design refills its host-cache working set only at
/// the start of a slice. With 4096-access slices, seven designs evicted
/// each other's state, and `graph_sweep` ran 20% slower and followed the
/// host's memory latency more closely.
pub const SLICE: usize = 65536;

/// Steps every simulator through `trace`, alternating designs every
/// [`SLICE`] accesses. `on_slice(design_index, accesses)` runs after each
/// slice (the traced run times slices through it; pass a no-op otherwise).
pub fn step_all(
    sims: &mut [Simulator],
    trace: &[MemAccess],
    mut on_slice: impl FnMut(usize, usize),
) {
    for chunk in trace.chunks(SLICE) {
        for (i, sim) in sims.iter_mut().enumerate() {
            for access in chunk {
                sim.step(access);
            }
            on_slice(i, chunk.len());
        }
    }
}

/// The output check on one finished design run: the conservation laws of
/// `cosmos_verify` hold and every trace access was simulated.
pub fn check_run(sim: Simulator, trace_len: usize) -> (SimStats, Vec<String>) {
    let config = sim.config().clone();
    let stats = sim.finalize();
    let mut problems: Vec<String> = cosmos_verify::check_stats(&stats, &config)
        .iter()
        .map(ToString::to_string)
        .collect();
    if stats.accesses != trace_len as u64 {
        problems.push(format!(
            "simulated {} accesses of a {trace_len}-access trace",
            stats.accesses
        ));
    }
    (stats, problems)
}
