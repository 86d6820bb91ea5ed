//! Access-pattern signatures: the fingerprint k-means clusters on.
//!
//! A [`Signature`] summarizes one interval of a memory trace as a fixed,
//! normalized feature vector — the memory-trace analogue of SimPoint's
//! basic-block vectors, built from what actually drives cache behaviour
//! in this simulator:
//!
//! - a **region histogram** (2 MB granules, hashed into buckets): which
//!   parts of the footprint the interval touches,
//! - a **set-index histogram** over both data-line and counter-line set
//!   bits: how the accesses spread across cache sets (conflict behaviour),
//! - the **read/write mix**,
//! - the **per-core mix**,
//! - two **locality rates**: consecutive same-page and same-counter-line
//!   accesses (spatial locality seen by the CTR cache),
//! - two **first-touch rates**: the fraction of accesses to data lines and
//!   counter lines never touched earlier in the trace. Compulsory misses
//!   are a property of *history*, not of the interval's own pattern — two
//!   intervals with identical access patterns behave completely
//!   differently if one runs against cold caches. Without this feature the
//!   cold-start phase clusters together with warm steady-state intervals
//!   and its misses are averaged away.
//!
//! Each group is normalized to sum (or lie in) `[0, 1]` and scaled by a
//! fixed group weight, so squared-Euclidean distance compares intervals on
//! every axis at a controlled relative importance.

use cosmos_common::hash::splitmix64;
use cosmos_common::MemAccess;
#[expect(
    clippy::disallowed_types,
    reason = "membership-and-count only (insert/len); never iterated, order cannot reach features"
)]
use std::collections::HashSet;

/// Buckets in the region histogram.
pub const REGION_BUCKETS: usize = 16;
/// Buckets in the set-index histogram (half data-line, half counter-line).
pub const SET_BUCKETS: usize = 32;
/// Buckets in the per-core histogram (core id modulo this).
pub const CORE_BUCKETS: usize = 8;
/// Total feature dimensions.
pub const DIMS: usize = REGION_BUCKETS + SET_BUCKETS + 2 + CORE_BUCKETS + 2 + 2 + 1;

/// Line-footprint reference for the occupancy feature: the paper's 8 MiB
/// LLC in 64 B lines. An interval that starts before this many distinct
/// lines were touched runs against a still-filling LLC — almost no
/// capacity evictions, almost no writebacks — and must not cluster with
/// steady-state intervals that share its access pattern.
pub const FOOTPRINT_CAP_LINES: usize = (8 << 20) / 64;

const W_REGION: f64 = 0.30;
const W_SET: f64 = 0.20;
const W_RW: f64 = 0.10;
const W_CORE: f64 = 0.10;
const W_LOCALITY: f64 = 0.10;
const W_FIRST_TOUCH: f64 = 0.10;
const W_FOOTPRINT: f64 = 0.20;

/// Bytes per region granule (2 MB).
const REGION_SHIFT: u32 = 21;
/// Data lines per counter line (one 64 B counter block covers 64 lines).
const CTR_LINE_SHIFT: u32 = 6;

/// Data-line and counter-line footprint seen so far — threaded through
/// interval fingerprinting in trace order so each [`Signature`] knows
/// which of its accesses are first touches.
#[derive(Clone, Debug, Default)]
pub struct TraceHistory {
    #[expect(
        clippy::disallowed_types,
        reason = "membership-and-count only (insert/len); never iterated, order cannot reach features"
    )]
    lines: HashSet<u64>,
    #[expect(
        clippy::disallowed_types,
        reason = "membership-and-count only (insert/len); never iterated, order cannot reach features"
    )]
    ctr_lines: HashSet<u64>,
}

impl TraceHistory {
    /// An empty footprint (the state before the first access).
    pub fn new() -> Self {
        Self::default()
    }
}

/// A normalized, weighted feature vector fingerprinting one interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Signature {
    features: [f64; DIMS],
}

impl Signature {
    /// Fingerprints `accesses` as a standalone trace (empty history).
    ///
    /// An empty slice yields the all-zero signature.
    pub fn of(accesses: &[MemAccess]) -> Self {
        Self::of_with_history(accesses, &mut TraceHistory::new())
    }

    /// Fingerprints one interval of a trace, updating `history` with its
    /// footprint. Call in interval order so the first-touch and occupancy
    /// features see everything that ran before the interval.
    pub fn of_with_history(accesses: &[MemAccess], history: &mut TraceHistory) -> Self {
        // Captured before this interval's accesses extend the footprint:
        // how full the LLC can possibly be when the interval starts.
        let occupancy =
            history.lines.len().min(FOOTPRINT_CAP_LINES) as f64 / FOOTPRINT_CAP_LINES as f64;
        let mut regions = [0u64; REGION_BUCKETS];
        let mut sets = [0u64; SET_BUCKETS];
        let mut writes = 0u64;
        let mut cores = [0u64; CORE_BUCKETS];
        let mut same_page = 0u64;
        let mut same_ctr_line = 0u64;
        let mut new_lines = 0u64;
        let mut new_ctr_lines = 0u64;

        let mut prev_page: Option<u64> = None;
        let mut prev_ctr: Option<u64> = None;
        for a in accesses {
            let line = a.addr.line().index();
            let region = a.addr.value() >> REGION_SHIFT;
            regions[(splitmix64(region) % REGION_BUCKETS as u64) as usize] += 1;
            // First half: data-line set bits; second half: counter-line
            // set bits (the CTR cache's view of the same stream).
            let ctr_line = line >> CTR_LINE_SHIFT;
            sets[(line % (SET_BUCKETS as u64 / 2)) as usize] += 1;
            sets[SET_BUCKETS / 2 + (ctr_line % (SET_BUCKETS as u64 / 2)) as usize] += 1;
            if a.kind.is_write() {
                writes += 1;
            }
            cores[a.core as usize % CORE_BUCKETS] += 1;
            let page = a.addr.page().index();
            if prev_page == Some(page) {
                same_page += 1;
            }
            if prev_ctr == Some(ctr_line) {
                same_ctr_line += 1;
            }
            prev_page = Some(page);
            prev_ctr = Some(ctr_line);
            if history.lines.insert(line) {
                new_lines += 1;
            }
            if history.ctr_lines.insert(ctr_line) {
                new_ctr_lines += 1;
            }
        }

        let n = accesses.len() as f64;
        let mut features = [0.0; DIMS];
        if accesses.is_empty() {
            return Self { features };
        }
        let mut i = 0;
        for &r in &regions {
            features[i] = W_REGION * r as f64 / n;
            i += 1;
        }
        // The set histogram counts each access twice (data + counter
        // views), so normalize by 2n to keep the group summing to W_SET.
        for &s in &sets {
            features[i] = W_SET * s as f64 / (2.0 * n);
            i += 1;
        }
        features[i] = W_RW * (n - writes as f64) / n;
        features[i + 1] = W_RW * writes as f64 / n;
        i += 2;
        for &c in &cores {
            features[i] = W_CORE * c as f64 / n;
            i += 1;
        }
        features[i] = W_LOCALITY * same_page as f64 / n;
        features[i + 1] = W_LOCALITY * same_ctr_line as f64 / n;
        i += 2;
        features[i] = W_FIRST_TOUCH * new_lines as f64 / n;
        features[i + 1] = W_FIRST_TOUCH * new_ctr_lines as f64 / n;
        features[i + 2] = W_FOOTPRINT * occupancy;
        Self { features }
    }

    /// The weighted feature vector.
    pub fn features(&self) -> &[f64] {
        &self.features
    }

    /// Squared Euclidean distance to another signature.
    pub fn distance2(&self, other: &Signature) -> f64 {
        distance2(&self.features, &other.features)
    }
}

/// Squared Euclidean distance between two equal-length vectors.
pub fn distance2(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosmos_common::PhysAddr;

    fn stream(n: u64, stride: u64, write_every: u64) -> Vec<MemAccess> {
        (0..n)
            .map(|i| {
                let addr = PhysAddr::new(i * stride);
                if write_every != 0 && i % write_every == 0 {
                    MemAccess::write((i % 4) as u8, addr, 1)
                } else {
                    MemAccess::read((i % 4) as u8, addr, 1)
                }
            })
            .collect()
    }

    #[test]
    fn empty_interval_is_all_zero() {
        let s = Signature::of(&[]);
        assert!(s.features().iter().all(|&f| f == 0.0));
    }

    #[test]
    fn groups_sum_to_their_weights() {
        let s = Signature::of(&stream(5_000, 64, 4));
        let f = s.features();
        let region: f64 = f[..REGION_BUCKETS].iter().sum();
        let sets: f64 = f[REGION_BUCKETS..REGION_BUCKETS + SET_BUCKETS].iter().sum();
        let rw: f64 = f[REGION_BUCKETS + SET_BUCKETS..REGION_BUCKETS + SET_BUCKETS + 2]
            .iter()
            .sum();
        assert!((region - W_REGION).abs() < 1e-9, "region sum {region}");
        assert!((sets - W_SET).abs() < 1e-9, "set sum {sets}");
        assert!((rw - W_RW).abs() < 1e-9, "rw sum {rw}");
    }

    #[test]
    fn identical_streams_have_zero_distance() {
        let a = Signature::of(&stream(2_000, 64, 3));
        let b = Signature::of(&stream(2_000, 64, 3));
        assert_eq!(a.distance2(&b), 0.0);
    }

    #[test]
    fn different_patterns_are_far_apart() {
        // Sequential read stream vs. a strided write-heavy stream.
        let seq = Signature::of(&stream(2_000, 64, 0));
        let strided = Signature::of(&stream(2_000, 64 * 1024 + 64, 2));
        let same = Signature::of(&stream(2_000, 64, 0));
        assert!(seq.distance2(&strided) > 10.0 * seq.distance2(&same).max(1e-12));
    }

    #[test]
    fn locality_feature_separates_streaming_from_random() {
        let sequential = Signature::of(&stream(4_000, 8, 0));
        let scattered = Signature::of(&stream(4_000, 7 * 4096 + 64, 0));
        let loc = DIMS - 5;
        assert!(sequential.features()[loc] > scattered.features()[loc]);
    }

    #[test]
    fn first_touch_features_distinguish_cold_from_warm() {
        let accesses = stream(4_000, 64, 0);
        let mut history = TraceHistory::new();
        let cold = Signature::of_with_history(&accesses, &mut history);
        // The same accesses again: every line is now a repeat.
        let warm = Signature::of_with_history(&accesses, &mut history);
        let ft = DIMS - 3;
        assert!((cold.features()[ft] - W_FIRST_TOUCH).abs() < 1e-9);
        assert_eq!(warm.features()[ft], 0.0);
        assert_eq!(warm.features()[ft + 1], 0.0);
        assert!(cold.distance2(&warm) > 0.01);
    }

    #[test]
    fn occupancy_feature_tracks_cumulative_footprint() {
        let mut history = TraceHistory::new();
        let first = Signature::of_with_history(&stream(4_000, 64, 0), &mut history);
        // 4000 distinct lines seen; the next interval starts at that
        // occupancy level.
        let next = Signature::of_with_history(&stream(100, 64, 0), &mut history);
        let occ = DIMS - 1;
        assert_eq!(first.features()[occ], 0.0);
        let expected = W_FOOTPRINT * 4_000.0 / FOOTPRINT_CAP_LINES as f64;
        assert!((next.features()[occ] - expected).abs() < 1e-12);
    }
}
