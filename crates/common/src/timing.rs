//! Ready-time ("event-driven") timing primitives.
//!
//! The simulator never iterates cycles. Every component is modeled as a
//! single-server queue that answers one question — *given a request issued
//! at `now`, when is it done?* — and the answer composes: serial stages add
//! latencies, parallel stages take the `max` of their completion times, and
//! idle gaps are skipped entirely because time only exists at request
//! boundaries. [`ServiceQueue`] is that primitive: a busy-until register
//! plus the `start = max(now, busy_until)` ready-time rule (exactly what a
//! DRAM bank, a fill buffer, or a MAC unit does in hardware).

use crate::cycle::Cycle;

/// The resolved timing of one request through a [`ServiceQueue`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Served {
    /// When service actually began (`max(now, busy_until)`).
    pub start: Cycle,
    /// When service completed (`start + service`).
    pub done: Cycle,
    /// Cycles the request waited behind earlier work (`start - now`).
    pub queued: u64,
}

/// A single-server latency queue: one request at a time, FIFO, with idle
/// time between requests skipped in O(1).
///
/// # Examples
///
/// ```
/// use cosmos_common::timing::ServiceQueue;
/// use cosmos_common::Cycle;
/// let mut q = ServiceQueue::new();
/// let a = q.serve(Cycle::new(100), 50); // idle queue: starts immediately
/// assert_eq!((a.start, a.done, a.queued), (Cycle::new(100), Cycle::new(150), 0));
/// let b = q.serve(Cycle::new(120), 50); // busy: waits for `a`
/// assert_eq!((b.start, b.done, b.queued), (Cycle::new(150), Cycle::new(200), 30));
/// let c = q.serve(Cycle::new(10_000), 50); // idle burst: skipped, no catch-up
/// assert_eq!((c.start, c.queued), (Cycle::new(10_000), 0));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceQueue {
    busy_until: Cycle,
}

impl ServiceQueue {
    /// An idle queue.
    pub const fn new() -> Self {
        Self {
            busy_until: Cycle::ZERO,
        }
    }

    /// When the server frees up (`ZERO` if it never served).
    pub const fn busy_until(&self) -> Cycle {
        self.busy_until
    }

    /// Rebuilds a queue from a saved busy-until time (snapshot restore).
    pub const fn resume(busy_until: Cycle) -> Self {
        Self { busy_until }
    }

    /// Serves a request issued at `now` taking `service` cycles; the queue
    /// becomes busy until the returned completion time.
    #[inline]
    pub fn serve(&mut self, now: Cycle, service: u64) -> Served {
        let start = now.max(self.busy_until);
        let done = start + service;
        self.busy_until = done;
        Served {
            start,
            done,
            queued: (start - now).value(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_queue_starts_immediately() {
        let mut q = ServiceQueue::new();
        let s = q.serve(Cycle::new(7), 3);
        assert_eq!(s.start, Cycle::new(7));
        assert_eq!(s.done, Cycle::new(10));
        assert_eq!(s.queued, 0);
    }

    #[test]
    fn back_to_back_requests_queue_fifo() {
        let mut q = ServiceQueue::new();
        q.serve(Cycle::new(0), 100);
        let s = q.serve(Cycle::new(1), 100);
        assert_eq!(s.start, Cycle::new(100));
        assert_eq!(s.queued, 99);
        assert_eq!(s.done, Cycle::new(200));
    }

    #[test]
    fn idle_bursts_are_skipped_without_breaking_monotonicity() {
        // Alternate dense requests with million-cycle idle gaps: completion
        // times must stay strictly monotone and each post-gap request must
        // start exactly at its issue time (the gap costs nothing to model).
        let mut q = ServiceQueue::new();
        let mut last_done = Cycle::ZERO;
        let mut now = Cycle::new(1);
        for burst in 0..50u64 {
            for _ in 0..4 {
                let s = q.serve(now, 10);
                assert!(s.done > last_done, "completion went backwards");
                assert!(s.start >= now, "service started before issue");
                last_done = s.done;
            }
            // The first request after an idle gap sees an empty queue.
            now = last_done + 1_000_000 * (burst + 1);
            let s = q.serve(now, 10);
            assert_eq!(s.start, now, "idle gap must not queue");
            assert_eq!(s.queued, 0);
            last_done = s.done;
            now += 1;
        }
    }
}
