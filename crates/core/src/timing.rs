//! The event-driven stepping core: per-core ready timelines.
//!
//! The simulator advances time only at access boundaries. Each core carries
//! a *ready cycle* — the time its next instruction may issue — and every
//! access maps to three O(1) timeline operations:
//!
//! 1. [`CoreTimeline::issue`] jumps the core past its instruction gap in a
//!    single addition (idle cycles between memory accesses are skipped, not
//!    stepped),
//! 2. the component chain (hierarchy → secure path → DRAM, each a
//!    completion-time function, the DRAM banks being
//!    [`cosmos_common::timing::ServiceQueue`]s) resolves the access to a
//!    completion cycle, with parallel legs joined by `max`,
//! 3. [`CoreTimeline::retire`] commits the completion, which may only move
//!    the core's clock forward.
//!
//! Independent accesses batch naturally: cores interleave without any
//! global ordering constraint beyond the shared component queues, so a
//! trace touching idle components costs O(accesses), never O(cycles).

use cosmos_common::Cycle;

/// Per-core ready cycles with O(1) idle-cycle skipping.
///
/// # Examples
///
/// ```
/// use cosmos_core::timing::CoreTimeline;
/// use cosmos_common::Cycle;
/// let mut t = CoreTimeline::new(2);
/// let issue = t.issue(0, 1_000_000); // million-cycle gap: one addition
/// assert_eq!(issue, Cycle::new(1_000_000));
/// t.retire(0, issue + 40);
/// assert_eq!(t.horizon(), 1_000_040);
/// ```
#[derive(Clone, Debug)]
pub struct CoreTimeline {
    ready: Vec<Cycle>,
}

impl CoreTimeline {
    /// All cores ready at cycle zero.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn new(cores: usize) -> Self {
        assert!(cores > 0, "timeline needs at least one core");
        Self {
            ready: vec![Cycle::ZERO; cores],
        }
    }

    /// Number of cores tracked.
    pub fn cores(&self) -> usize {
        self.ready.len()
    }

    /// When `core` issues its next access after `inst_gap` non-memory
    /// instructions (1 cycle each): the idle gap is skipped in one step.
    #[inline]
    pub fn issue(&self, core: usize, inst_gap: u64) -> Cycle {
        self.ready[core] + inst_gap
    }

    /// Commits an access completion: `core` is next ready at `done`.
    ///
    /// Ready cycles are monotone per core — a completion can never move a
    /// core's clock backwards (debug-asserted).
    #[inline]
    pub fn retire(&mut self, core: usize, done: Cycle) {
        debug_assert!(
            done >= self.ready[core],
            "core {core} retired backwards: {done:?} < {:?}",
            self.ready[core]
        );
        self.ready[core] = done;
    }

    /// The ready cycle of `core`.
    #[inline]
    pub fn now(&self, core: usize) -> Cycle {
        self.ready[core]
    }

    /// All per-core ready cycles.
    pub fn ready(&self) -> &[Cycle] {
        &self.ready
    }

    /// The latest ready cycle across cores — total elapsed time.
    pub fn horizon(&self) -> u64 {
        self.ready.iter().map(|c| c.value()).max().unwrap_or(0)
    }
}

cosmos_common::state! { CoreTimeline -> Value { ready } }

#[cfg(test)]
mod tests {
    use super::*;
    use cosmos_common::timing::ServiceQueue;

    #[test]
    fn issue_skips_idle_gaps_in_one_step() {
        let t = CoreTimeline::new(1);
        assert_eq!(t.issue(0, 0), Cycle::ZERO);
        assert_eq!(t.issue(0, u32::MAX as u64), Cycle::new(u32::MAX as u64));
    }

    #[test]
    fn cores_are_independent() {
        let mut t = CoreTimeline::new(3);
        t.retire(0, Cycle::new(500));
        t.retire(2, Cycle::new(90));
        assert_eq!(t.now(0), Cycle::new(500));
        assert_eq!(t.now(1), Cycle::ZERO);
        assert_eq!(t.now(2), Cycle::new(90));
        assert_eq!(t.horizon(), 500);
        assert_eq!(t.ready().len(), 3);
    }

    #[test]
    fn idle_bursts_preserve_ready_cycle_monotonicity() {
        // Drive a core through alternating dense phases and huge idle
        // bursts against a shared component queue: the per-core ready
        // cycle must be non-decreasing throughout, and a post-burst access
        // must issue exactly at ready + gap (idle cycles skipped, not
        // accumulated as queue backlog).
        let mut t = CoreTimeline::new(2);
        let mut component = ServiceQueue::new();
        let mut prev = [Cycle::ZERO; 2];
        for round in 0..100u64 {
            let core = (round % 2) as usize;
            let gap = if round % 5 == 0 { 10_000_000 } else { 3 };
            let issue = t.issue(core, gap);
            assert_eq!(issue, prev[core] + gap, "issue must be ready + gap");
            let served = component.serve(issue, 25);
            t.retire(core, served.done);
            assert!(t.now(core) >= prev[core], "ready cycle went backwards");
            if gap == 10_000_000 {
                // After a burst the shared queue has long drained: the
                // access starts at issue, paying zero queue delay.
                assert_eq!(served.start, issue, "idle burst leaked into queue");
            }
            prev[core] = t.now(core);
        }
        assert_eq!(t.horizon(), prev[0].value().max(prev[1].value()));
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        CoreTimeline::new(0);
    }
}
