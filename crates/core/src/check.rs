//! Observation hooks for external correctness checkers.
//!
//! The `cosmos-verify` crate runs trivially-correct shadow models (a naive
//! MRU-list cache, a dense counter store, a replayed Merkle tree) in
//! lockstep with the real simulator. To do that without perturbing the
//! simulation, [`SecurePath`](crate::secure_path::SecurePath) optionally
//! carries a [`SecureObserver`] that is *told* about every metadata-cache
//! access and counter increment as it happens. The observer is pure
//! output: it cannot influence timing, replacement, or statistics, so a
//! checked run produces byte-identical results to an unchecked one.
//!
//! When no observer is attached (the default), the hooks cost one
//! always-false branch per event.

use cosmos_cache::Victim;
use cosmos_common::LineAddr;

/// Receives secure-path events in simulation order.
///
/// All methods have empty default bodies so an observer only implements
/// the events it cares about.
pub trait SecureObserver {
    /// A demand access to the CTR cache (read or write path), with the
    /// real cache's outcome: `hit` and the line the fill evicted, if any.
    fn ctr_access(&mut self, ctr_line: LineAddr, write: bool, hit: bool, evicted: Option<Victim>) {
        let _ = (ctr_line, write, hit, evicted);
    }

    /// A prefetch fill into the CTR cache (never a demand access; the line
    /// was checked non-resident first).
    fn ctr_prefetch(&mut self, ctr_line: LineAddr, evicted: Option<Victim>) {
        let _ = (ctr_line, evicted);
    }

    /// The write counter of `data_line` was incremented (a data writeback
    /// reached the secure path).
    fn ctr_increment(&mut self, data_line: LineAddr) {
        let _ = data_line;
    }

    /// An access to the MT metadata cache, with the real cache's outcome:
    /// `hit` and the line the fill evicted, if any.
    fn mt_access(&mut self, node: LineAddr, write: bool, hit: bool, evicted: Option<Victim>) {
        let _ = (node, write, hit, evicted);
    }
}
