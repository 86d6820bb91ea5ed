//! Golden digests of the SPEC-like traces (mcf, canneal, omnetpp).
//!
//! The constants were recorded from the buffered generators, which wrote
//! each core's stream into its own `Trace` and then interleaved copies.
//! Any edit to SPEC generation or to the interleaver that moves one field
//! of one access (and so every downstream `SimStats` and committed
//! artifact) fails here.

mod digest;

use cosmos_workloads::spec::SpecKind;
use cosmos_workloads::{TraceSpec, Workload};
use digest::trace_digest;

/// Not a multiple of the four cores, so the per-core split drops a
/// remainder.
const ACCESSES: usize = 50_003;

/// `(kind, seed, trace digest)`.
const GOLDEN: [(SpecKind, u64, u64); 6] = [
    (SpecKind::Mcf, 1, 0xe74f_f3f8_bbca_a1b8),
    (SpecKind::Mcf, 20_261_016, 0x87ae_51f5_ed68_fd7d),
    (SpecKind::Canneal, 1, 0x38e5_8489_895d_2d4c),
    (SpecKind::Canneal, 20_261_016, 0x8c55_239b_e67c_2495),
    (SpecKind::Omnetpp, 1, 0xbf3f_1087_6f4a_9c29),
    (SpecKind::Omnetpp, 20_261_016, 0x4809_e305_1b8c_2fe4),
];

#[test]
fn spec_traces_match_golden_digests() {
    for (kind, seed, want) in GOLDEN {
        let spec = TraceSpec::paper_default(ACCESSES, seed);
        assert_eq!(spec.cores, 4);
        let trace = Workload::Spec(kind).generate(&spec);
        assert_eq!(trace.len(), ACCESSES / 4 * 4, "{kind} seed {seed}");
        assert_eq!(trace.core_count(), 4, "{kind} seed {seed}");
        let got = trace_digest(&trace);
        assert_eq!(
            got, want,
            "{kind} seed {seed}: trace digest moved ({got:#018x})"
        );
    }
}
