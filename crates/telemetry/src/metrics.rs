//! Plain metric values: counters and log2-bucket histograms.
//!
//! Each job's probe fills its own histograms with no sharing, and hands
//! them to the pipeline once, when the job ends; the pipeline sums what
//! every job handed in, by name (see [`Metric::merge`]).

// Stat counters are u64: a narrowing cast here would silently truncate one.
#![deny(clippy::cast_possible_truncation)]

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

/// A fixed log2-bucket histogram of `u64` samples.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl Histogram {
    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
    }

    /// Total number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean sample, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The bucket counts (see [`bucket_floor`]).
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }
}

/// One named metric's value.
#[derive(Clone, Debug, PartialEq)]
pub enum Metric {
    /// An event count.
    Counter(u64),
    /// A distribution.
    Histogram(Box<Histogram>),
}

impl Metric {
    /// Adds `other` into this metric.
    ///
    /// # Panics
    /// If the two are of different kinds — metric names are a static
    /// contract between components and exporters.
    pub fn merge(&mut self, other: &Metric) {
        match (self, other) {
            (Metric::Counter(a), Metric::Counter(b)) => *a += b,
            (Metric::Histogram(a), Metric::Histogram(b)) => a.merge(b),
            #[expect(
                clippy::panic,
                reason = "documented contract: a name/kind clash is a programming error"
            )]
            (a, b) => panic!("metric kinds differ: {a:?} vs {b:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut h = Histogram::default();
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
    fn metrics_merge_by_kind() {
        let mut c = Metric::Counter(2);
        c.merge(&Metric::Counter(3));
        assert_eq!(c, Metric::Counter(5));
        let mut a = Histogram::default();
        a.record(4);
        let mut b = Histogram::default();
        b.record(1);
        b.record(u64::MAX);
        a.merge(&b);
        assert_eq!((a.count(), a.sum()), (3, 4));
        assert_eq!(a.buckets()[64], 1);
    }

    #[test]
    #[should_panic(expected = "metric kinds differ")]
    fn merge_rejects_kind_mismatch() {
        Metric::Counter(1).merge(&Metric::Histogram(Box::default()));
    }
}
