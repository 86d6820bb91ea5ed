//! Memory-access trace types shared between workload generators and the
//! simulator.
//!
//! A *trace* is a sequence of [`MemAccess`] records. Each record carries the
//! issuing core, the byte address, read/write kind, and the number of
//! non-memory instructions the core executed since its previous memory
//! access (`inst_gap`) — enough for the simulator's timing model to compute
//! IPC without a full instruction trace.

use crate::addr::PhysAddr;

/// Whether an access reads or writes memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

impl AccessKind {
    /// Returns `true` for [`AccessKind::Write`].
    #[inline]
    pub const fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }
}

/// One memory access in a trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemAccess {
    /// Issuing core (0-based).
    pub core: u8,
    /// Issuing tenant (0-based). Single-tenant traces leave this at 0;
    /// multi-tenant compositions (`cosmos_workloads::tenant`) tag each
    /// stream so the simulator can attribute metadata-cache activity
    /// attacker-vs-victim. Tenant 0 is the default/victim tenant, so a
    /// tenant-oblivious trace behaves exactly as before.
    pub tenant: u8,
    /// Load or store.
    pub kind: AccessKind,
    /// Byte address accessed.
    pub addr: PhysAddr,
    /// Non-memory instructions executed on `core` since its previous access.
    pub inst_gap: u32,
}

impl MemAccess {
    /// Convenience constructor for a read (tenant 0).
    pub fn read(core: u8, addr: PhysAddr, inst_gap: u32) -> Self {
        Self {
            core,
            tenant: 0,
            kind: AccessKind::Read,
            addr,
            inst_gap,
        }
    }

    /// Convenience constructor for a write (tenant 0).
    pub fn write(core: u8, addr: PhysAddr, inst_gap: u32) -> Self {
        Self {
            core,
            tenant: 0,
            kind: AccessKind::Write,
            addr,
            inst_gap,
        }
    }

    /// Returns the access re-tagged with `tenant`.
    #[must_use]
    pub const fn with_tenant(mut self, tenant: u8) -> Self {
        self.tenant = tenant;
        self
    }
}

/// An owned, in-memory access trace.
///
/// # Examples
///
/// ```
/// use cosmos_common::{Trace, MemAccess, PhysAddr};
/// let mut t = Trace::new();
/// t.push(MemAccess::read(0, PhysAddr::new(0x100), 4));
/// assert_eq!(t.len(), 1);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    accesses: Vec<MemAccess>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty trace with reserved capacity.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            accesses: Vec::with_capacity(n),
        }
    }

    /// Appends an access.
    #[inline]
    pub fn push(&mut self, access: MemAccess) {
        self.accesses.push(access);
    }

    /// Number of accesses.
    pub fn len(&self) -> usize {
        self.accesses.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.accesses.is_empty()
    }

    /// The accesses as a slice.
    pub fn as_slice(&self) -> &[MemAccess] {
        &self.accesses
    }

    /// Iterates over the accesses.
    pub fn iter(&self) -> core::slice::Iter<'_, MemAccess> {
        self.accesses.iter()
    }

    /// Truncates the trace to at most `n` accesses.
    pub fn truncate(&mut self, n: usize) {
        self.accesses.truncate(n);
    }

    /// Fraction of accesses that are writes; `0.0` when empty.
    pub fn write_fraction(&self) -> f64 {
        if self.accesses.is_empty() {
            return 0.0;
        }
        let w = self.accesses.iter().filter(|a| a.kind.is_write()).count();
        w as f64 / self.accesses.len() as f64
    }

    /// Highest core id present plus one; 0 when empty.
    pub fn core_count(&self) -> usize {
        self.accesses
            .iter()
            .map(|a| a.core as usize + 1)
            .max()
            .unwrap_or(0)
    }
}

impl FromIterator<MemAccess> for Trace {
    fn from_iter<I: IntoIterator<Item = MemAccess>>(iter: I) -> Self {
        Self {
            accesses: iter.into_iter().collect(),
        }
    }
}

impl Extend<MemAccess> for Trace {
    fn extend<I: IntoIterator<Item = MemAccess>>(&mut self, iter: I) {
        self.accesses.extend(iter);
    }
}

impl IntoIterator for Trace {
    type Item = MemAccess;
    type IntoIter = std::vec::IntoIter<MemAccess>;
    fn into_iter(self) -> Self::IntoIter {
        self.accesses.into_iter()
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a MemAccess;
    type IntoIter = core::slice::Iter<'a, MemAccess>;
    fn into_iter(self) -> Self::IntoIter {
        self.accesses.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut t = Trace::new();
        t.push(MemAccess::read(0, PhysAddr::new(0x100), 1));
        t.push(MemAccess::write(1, PhysAddr::new(0x200), 2));
        t.push(MemAccess::read(0, PhysAddr::new(0x300), 3));
        t
    }

    #[test]
    fn push_and_len() {
        let t = sample();
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
    }

    #[test]
    fn write_fraction() {
        let t = sample();
        assert!((t.write_fraction() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(Trace::new().write_fraction(), 0.0);
    }

    #[test]
    fn core_count() {
        assert_eq!(sample().core_count(), 2);
        assert_eq!(Trace::new().core_count(), 0);
    }

    #[test]
    fn tenant_defaults_to_zero_and_retags() {
        let a = MemAccess::read(0, PhysAddr::new(0x100), 1);
        assert_eq!(a.tenant, 0);
        let b = a.with_tenant(3);
        assert_eq!(b.tenant, 3);
        // Everything else is untouched by the retag.
        assert_eq!(
            (b.core, b.kind, b.addr, b.inst_gap),
            (a.core, a.kind, a.addr, a.inst_gap)
        );
    }

    #[test]
    fn from_iterator_roundtrip() {
        let t = sample();
        let t2: Trace = t.iter().copied().collect();
        assert_eq!(t, t2);
    }
}
