//! FNV-1a digests shared by the golden-trace tests.

use cosmos_common::hash::Fnv1a;
use cosmos_common::{AccessKind, Trace};

/// Digest of every field of every access of `trace`, in trace order.
pub fn trace_digest(trace: &Trace) -> u64 {
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
    h.finish()
}
