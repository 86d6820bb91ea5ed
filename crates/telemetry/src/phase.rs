//! Wall-clock phase timers for the experiment pipeline.
//!
//! A phase is an RAII span: [`crate::Telemetry::phase`] returns a guard
//! that records `(name, stream, start, duration)` when dropped. Disabled
//! telemetry returns an inert guard — no clock read, no allocation.

#![expect(
    clippy::disallowed_types,
    reason = "the telemetry crate's phase timers are its one home for wall-clock reads; \
              spans are diagnostics and never reach simulated state"
)]

use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One completed wall-clock span.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PhaseSpan {
    /// Static phase name (`"trace_gen"`, `"warmup"`, `"sim"`, …).
    pub name: &'static str,
    /// The stream (grid-job scope) the phase ran under.
    pub stream: u16,
    /// Microseconds since the telemetry epoch when the phase began.
    pub start_us: u64,
    /// Phase duration in microseconds.
    pub dur_us: u64,
}

pub(crate) struct PhaseGuardInner {
    pub sink: Arc<Mutex<Vec<PhaseSpan>>>,
    pub name: &'static str,
    pub stream: u16,
    pub start_us: u64,
    pub t0: Instant,
}

/// RAII guard that records a [`PhaseSpan`] on drop (inert when telemetry
/// is disabled).
#[must_use = "a phase span is measured from creation to drop"]
pub struct PhaseGuard {
    pub(crate) inner: Option<PhaseGuardInner>,
}

impl PhaseGuard {
    /// An inert guard that records nothing.
    pub fn inert() -> Self {
        Self { inner: None }
    }
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            let span = PhaseSpan {
                name: inner.name,
                stream: inner.stream,
                start_us: inner.start_us,
                dur_us: inner.t0.elapsed().as_micros() as u64,
            };
            inner
                .sink
                .lock()
                .expect("telemetry mutex poisoned")
                .push(span);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_records_span_on_drop() {
        let sink = Arc::new(Mutex::new(Vec::new()));
        {
            let _g = PhaseGuard {
                inner: Some(PhaseGuardInner {
                    sink: Arc::clone(&sink),
                    name: "sim",
                    stream: 3,
                    start_us: 42,
                    t0: Instant::now(),
                }),
            };
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let spans = sink.lock().expect("telemetry mutex poisoned");
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "sim");
        assert_eq!(spans[0].stream, 3);
        assert_eq!(spans[0].start_us, 42);
        assert!(spans[0].dur_us >= 1000);
    }

    #[test]
    fn inert_guard_records_nothing() {
        let _g = PhaseGuard::inert();
    }
}
