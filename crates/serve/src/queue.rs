//! The FIFO work queue of the serve-mode worker pool: one deque behind one
//! mutex, with a condition variable for idle workers. Jobs start in the
//! order they were submitted.

use std::collections::VecDeque;
#[expect(
    clippy::disallowed_types,
    reason = "the serve layer's worker threads share its job table, queue and event sink; \
              each simulation runs on one worker and takes no lock"
)]
use std::sync::{Condvar, Mutex};

/// Queued items plus the closed flag, guarded by one mutex.
struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A multi-producer multi-consumer FIFO queue.
#[expect(
    clippy::disallowed_types,
    reason = "the serve layer's worker threads share its job table, queue and event sink; \
              each simulation runs on one worker and takes no lock"
)]
pub struct WorkQueue<T> {
    inner: Mutex<Inner<T>>,
    available: Condvar,
}

#[expect(
    clippy::disallowed_types,
    reason = "the serve layer's worker threads share its job table, queue and event sink; \
              each simulation runs on one worker and takes no lock"
)]
impl<T> Default for WorkQueue<T> {
    fn default() -> Self {
        Self {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
        }
    }
}

impl<T> WorkQueue<T> {
    /// Enqueues an item, or hands it back if the queue is closed.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        if inner.closed {
            return Err(item);
        }
        inner.items.push_back(item);
        drop(inner);
        self.available.notify_one();
        Ok(())
    }

    /// Blocks until an item is available or the queue closes. Returns
    /// `None` only after close, with every item taken.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self.available.wait(inner).expect("queue poisoned");
        }
    }

    /// Items currently queued (test observability).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().expect("queue poisoned").items.len()
    }

    /// Closes the queue: further pushes fail, blocked and future pops
    /// take what remains and then return `None`.
    pub fn close(&self) {
        self.inner.lock().expect("queue poisoned").closed = true;
        self.available.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn is_globally_fifo() {
        let q = WorkQueue::default();
        for i in 0..10 {
            q.push(i).unwrap();
        }
        let got: Vec<i32> = (0..10).map(|_| q.pop().unwrap()).collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn close_rejects_pushes_and_drains_pops() {
        let q = WorkQueue::default();
        q.push(1).unwrap();
        q.close();
        assert_eq!(q.push(2), Err(2));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn workers_drain_everything_exactly_once() {
        let q = Arc::new(WorkQueue::default());
        const N: usize = 400;
        for i in 0..N {
            q.push(i).unwrap();
        }
        q.close();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(item) = q.pop() {
                    got.push(item);
                }
                got
            }));
        }
        let mut all: Vec<usize> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..N).collect::<Vec<_>>());
    }

    #[test]
    fn blocked_pop_wakes_on_push() {
        let q = Arc::new(WorkQueue::default());
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || q2.pop());
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.push(42).unwrap();
        assert_eq!(h.join().unwrap(), Some(42));
    }
}
