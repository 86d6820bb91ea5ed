//! FNV-1a digests shared by the golden-trace tests.

use cosmos_common::{AccessKind, Trace};

/// 64-bit FNV-1a, fed incrementally.
pub struct Fnv1a(pub u64);

impl Fnv1a {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

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
    h.0
}
