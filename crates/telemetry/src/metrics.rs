//! The metrics registry: named counters, gauges, and log2-bucket
//! histograms backed by atomics.
//!
//! Registration (name lookup, allocation) happens once, when a component
//! attaches to the [`Registry`]; the handles it gets back are `Arc`-wrapped
//! atomics, so recording on the hot path is a single relaxed RMW with no
//! locks and no allocation.

// Stat counters are u64: a narrowing cast here would silently truncate one.
#![deny(clippy::cast_possible_truncation)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
#[expect(
    clippy::disallowed_types,
    reason = "telemetry locks are taken only through an enabled handle: instrumented runs are \
              diagnostics, and the benchmark measures telemetry off"
)]
use std::sync::Mutex;

/// A monotonically increasing `u64` metric.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins signed metric.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// A fresh gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overwrites the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds a (possibly negative) delta.
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: bucket `i` counts values whose bit length
/// is `i`, i.e. bucket 0 holds `0`, bucket `i ≥ 1` holds `[2^(i-1), 2^i)`.
/// 65 buckets cover the whole `u64` range.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// The log2 bucket a value falls into.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// The inclusive lower bound of bucket `i` (for display).
pub fn bucket_floor(i: usize) -> u64 {
    match i {
        0 => 0,
        _ => 1u64 << (i - 1),
    }
}

#[derive(Debug)]
struct HistogramData {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

/// A fixed log2-bucket histogram of `u64` samples.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramData>);

impl Default for Histogram {
    fn default() -> Self {
        Self(Arc::new(HistogramData {
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }))
    }
}

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.0.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Total number of samples.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Mean sample, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// A copy of the bucket counts.
    pub fn buckets(&self) -> [u64; HISTOGRAM_BUCKETS] {
        let mut out = [0u64; HISTOGRAM_BUCKETS];
        for (o, b) in out.iter_mut().zip(self.0.buckets.iter()) {
            *o = b.load(Ordering::Relaxed);
        }
        out
    }
}

/// A metric handle of any kind, as stored in the registry.
#[derive(Clone, Debug)]
pub enum Metric {
    /// A [`Counter`].
    Counter(Counter),
    /// A [`Gauge`].
    Gauge(Gauge),
    /// A [`Histogram`].
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A point-in-time copy of one metric's value, for exporters.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricSnapshot {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Histogram totals plus per-bucket counts.
    Histogram {
        /// Number of samples.
        count: u64,
        /// Sum of samples.
        sum: u64,
        /// Per-bucket counts (see [`bucket_floor`]).
        buckets: Vec<u64>,
    },
}

/// The by-name metric registry. Lookup takes a lock; the returned handles
/// do not.
#[derive(Debug, Default)]
#[expect(
    clippy::disallowed_types,
    reason = "telemetry locks are taken only through an enabled handle: instrumented runs are \
              diagnostics, and the benchmark measures telemetry off"
)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn get_or_insert(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        let mut metrics = self.metrics.lock().expect("telemetry mutex poisoned");
        if let Some(m) = metrics.get(name) {
            return m.clone();
        }
        metrics.entry(name.to_string()).or_insert_with(make).clone()
    }

    /// The counter registered under `name`, creating it on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different kind — metric names
    /// are a static contract between components and exporters.
    pub fn counter(&self, name: &str) -> Counter {
        match self.get_or_insert(name, || Metric::Counter(Counter::new())) {
            Metric::Counter(c) => c,
            #[expect(
                clippy::panic,
                reason = "documented contract: a name/kind clash is a startup-time programming error"
            )]
            other => panic!("metric {name:?} already registered as a {}", other.kind()),
        }
    }

    /// The gauge registered under `name`, creating it on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.get_or_insert(name, || Metric::Gauge(Gauge::new())) {
            Metric::Gauge(g) => g,
            #[expect(
                clippy::panic,
                reason = "documented contract: a name/kind clash is a startup-time programming error"
            )]
            other => panic!("metric {name:?} already registered as a {}", other.kind()),
        }
    }

    /// The histogram registered under `name`, creating it on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different kind.
    pub fn histogram(&self, name: &str) -> Histogram {
        match self.get_or_insert(name, || Metric::Histogram(Histogram::new())) {
            Metric::Histogram(h) => h,
            #[expect(
                clippy::panic,
                reason = "documented contract: a name/kind clash is a startup-time programming error"
            )]
            other => panic!("metric {name:?} already registered as a {}", other.kind()),
        }
    }

    /// A name-sorted copy of every registered metric's current value.
    pub fn snapshot(&self) -> Vec<(String, MetricSnapshot)> {
        let metrics = self.metrics.lock().expect("telemetry mutex poisoned");
        metrics
            .iter()
            .map(|(name, m)| {
                let snap = match m {
                    Metric::Counter(c) => MetricSnapshot::Counter(c.get()),
                    Metric::Gauge(g) => MetricSnapshot::Gauge(g.get()),
                    Metric::Histogram(h) => MetricSnapshot::Histogram {
                        count: h.count(),
                        sum: h.sum(),
                        buckets: h.buckets().to_vec(),
                    },
                };
                (name.clone(), snap)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(7);
        g.add(-10);
        assert_eq!(g.get(), -3);
    }

    #[test]
    fn histogram_bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_floor(0), 0);
        assert_eq!(bucket_floor(1), 1);
        assert_eq!(bucket_floor(5), 16);
        let h = Histogram::new();
        for v in [0, 1, 2, 3, 1024] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1030);
        let buckets = h.buckets();
        assert_eq!(buckets[0], 1);
        assert_eq!(buckets[1], 1);
        assert_eq!(buckets[2], 2);
        assert_eq!(buckets[11], 1);
        assert!((h.mean() - 206.0).abs() < 1e-9);
    }

    #[test]
    fn registry_returns_same_underlying_metric() {
        let reg = Registry::new();
        let a = reg.counter("x.hits");
        let b = reg.counter("x.hits");
        a.inc();
        b.inc();
        assert_eq!(reg.counter("x.hits").get(), 2);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn registry_rejects_kind_mismatch() {
        let reg = Registry::new();
        reg.counter("m");
        reg.gauge("m");
    }

    #[test]
    fn snapshot_is_name_sorted() {
        let reg = Registry::new();
        reg.counter("z.last");
        reg.gauge("a.first");
        reg.histogram("m.mid");
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.iter().map(|(n, _)| n.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }
}
