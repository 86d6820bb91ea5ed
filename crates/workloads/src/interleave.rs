//! Interleaving of per-core access streams into one global trace.

use cosmos_common::{MemAccess, Trace};

/// One core's access stream, pulled by [`interleave`] a chunk at a time.
///
/// The SPEC-like generators implement it lazily, so each of their
/// accesses is written once, straight into the merged trace. Buffered
/// generators (graph kernels, ML models) pass `Trace::into_iter()`.
pub(crate) trait CoreStream {
    /// Accesses left in the stream.
    fn left(&self) -> usize;

    /// Appends the stream's next `n` accesses to `out`; `n <= self.left()`.
    fn pull(&mut self, n: usize, out: &mut Trace);
}

impl CoreStream for std::vec::IntoIter<MemAccess> {
    fn left(&self) -> usize {
        self.len()
    }

    fn pull(&mut self, n: usize, out: &mut Trace) {
        out.extend(self.by_ref().take(n));
    }
}

/// Merges per-core access streams into one global order by round-robin
/// chunks of 1–8 accesses — approximating the fine-grained interleaving of
/// threads that run concurrently on different cores. A stream leaves the
/// rotation the first time it has fewer accesses left than its chunk.
pub(crate) fn interleave<S: CoreStream>(mut streams: Vec<S>, seed: u64) -> Trace {
    let total: usize = streams.iter().map(CoreStream::left).sum();
    let mut out = Trace::with_capacity(total);
    let mut rng = cosmos_common::rng::streams::WORKLOAD_INTERLEAVE.derive(seed);
    let mut live: Vec<usize> = (0..streams.len()).collect();
    let mut idx = 0;
    while !live.is_empty() {
        if idx >= live.len() {
            idx = 0;
        }
        let stream = &mut streams[live[idx]];
        let chunk = 1 + rng.next_index(8);
        let n = chunk.min(stream.left());
        stream.pull(n, &mut out);
        if n < chunk {
            live.remove(idx);
        } else {
            idx += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosmos_common::PhysAddr;

    fn stream(core: u8, n: usize) -> std::vec::IntoIter<MemAccess> {
        (0..n)
            .map(|i| MemAccess::read(core, PhysAddr::new(i as u64 * 64), 1))
            .collect::<Vec<_>>()
            .into_iter()
    }

    #[test]
    fn preserves_all_accesses() {
        let merged = interleave(vec![stream(0, 100), stream(1, 37), stream(2, 250)], 1);
        assert_eq!(merged.len(), 387);
        for c in 0..3u8 {
            let count = merged.iter().filter(|a| a.core == c).count();
            let expect = [100, 37, 250][c as usize];
            assert_eq!(count, expect);
        }
    }

    #[test]
    fn preserves_per_core_order() {
        let merged = interleave(vec![stream(0, 50), stream(1, 50)], 2);
        for c in 0..2u8 {
            let addrs: Vec<u64> = merged
                .iter()
                .filter(|a| a.core == c)
                .map(|a| a.addr.value())
                .collect();
            assert!(addrs.windows(2).all(|w| w[0] < w[1]), "core {c} reordered");
        }
    }

    #[test]
    fn actually_interleaves() {
        let merged = interleave(vec![stream(0, 100), stream(1, 100)], 3);
        let first_core = merged.as_slice()[0].core;
        let first_block = merged.iter().take_while(|a| a.core == first_core).count();
        assert!(first_block <= 8, "chunks must be small, got {first_block}");
    }

    #[test]
    fn empty_input() {
        assert!(interleave(Vec::<std::vec::IntoIter<MemAccess>>::new(), 1).is_empty());
        assert!(interleave(vec![Trace::new().into_iter()], 1).is_empty());
    }
}
