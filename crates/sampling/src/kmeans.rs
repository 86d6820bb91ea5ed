//! Deterministic, dependency-free k-means over interval signatures.
//!
//! Standard Lloyd iteration with k-means++ seeding, with every source of
//! nondeterminism pinned down:
//!
//! - the k-means++ draws come from a seeded
//!   [`SplitMix64`] stream,
//! - nearest-centroid ties break toward the **lowest centroid index**,
//! - an emptied cluster is re-seeded with the point farthest from its
//!   assigned centroid (ties toward the lowest point index),
//! - iteration stops when assignments stop changing or at the iteration
//!   cap.
//!
//! Identical inputs therefore produce identical clusterings on every run,
//! machine, and thread count — the property the sampled experiment grids
//! rely on for byte-identical output.

use crate::signature::distance2;
use cosmos_common::SplitMix64;

/// A finished clustering.
#[derive(Clone, Debug, PartialEq)]
pub struct KMeans {
    /// Point index → cluster index (`0..k`).
    pub assignments: Vec<usize>,
    /// Cluster centroids.
    pub centroids: Vec<Vec<f64>>,
    /// Lloyd iterations actually run.
    pub iterations: usize,
}

impl KMeans {
    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.centroids.len()
    }

    /// Members of cluster `c`, in point order.
    pub fn members(&self, c: usize) -> Vec<usize> {
        self.assignments
            .iter()
            .enumerate()
            .filter(|&(_, &a)| a == c)
            .map(|(i, _)| i)
            .collect()
    }
}

/// Clusters `points` into (at most) `k` groups.
///
/// `k` is clamped to the point count; with `k >= points.len()` every point
/// gets its own cluster. All points must share one dimensionality.
///
/// # Panics
///
/// Panics if `points` is empty, `k` is zero, or dimensions disagree.
pub fn cluster(points: &[Vec<f64>], k: usize, seed: u64, max_iters: usize) -> KMeans {
    assert!(!points.is_empty(), "k-means needs at least one point");
    assert!(k > 0, "k-means needs at least one cluster");
    let dims = points[0].len();
    assert!(
        points.iter().all(|p| p.len() == dims),
        "inconsistent point dimensions"
    );
    let k = k.min(points.len());

    let mut centroids = plus_plus_init(points, k, seed);
    let mut assignments = vec![0usize; points.len()];
    let mut iterations = 0;
    for _ in 0..max_iters.max(1) {
        iterations += 1;
        let mut changed = false;
        for (i, p) in points.iter().enumerate() {
            let c = nearest(p, &centroids);
            if assignments[i] != c {
                assignments[i] = c;
                changed = true;
            }
        }

        // Recompute means; re-seed any emptied cluster with the point
        // farthest from its current centroid.
        let mut sums = vec![vec![0.0; dims]; k];
        let mut counts = vec![0usize; k];
        for (p, &a) in points.iter().zip(&assignments) {
            counts[a] += 1;
            for (s, v) in sums[a].iter_mut().zip(p) {
                *s += v;
            }
        }
        for c in 0..k {
            if counts[c] == 0 {
                let far = farthest_point(points, &assignments, &centroids);
                assignments[far] = c;
                centroids[c] = points[far].clone();
                changed = true;
            } else {
                for s in sums[c].iter_mut() {
                    *s /= counts[c] as f64;
                }
                centroids[c] = std::mem::take(&mut sums[c]);
            }
        }
        if !changed {
            break;
        }
    }

    KMeans {
        assignments,
        centroids,
        iterations,
    }
}

/// Index of the centroid nearest to `p`; ties go to the lowest index.
fn nearest(p: &[f64], centroids: &[Vec<f64>]) -> usize {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (c, centroid) in centroids.iter().enumerate() {
        let d = distance2(p, centroid);
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    best
}

/// The point farthest from its assigned centroid; ties go to the lowest
/// point index.
fn farthest_point(points: &[Vec<f64>], assignments: &[usize], centroids: &[Vec<f64>]) -> usize {
    let mut best = 0;
    let mut best_d = -1.0;
    for (i, p) in points.iter().enumerate() {
        let d = distance2(p, &centroids[assignments[i]]);
        if d > best_d {
            best_d = d;
            best = i;
        }
    }
    best
}

/// k-means++ seeding: the first centroid is a seeded uniform draw, each
/// subsequent one is D²-sampled from the remaining points.
fn plus_plus_init(points: &[Vec<f64>], k: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = SplitMix64::new(seed);
    let mut chosen: Vec<usize> = vec![rng.next_index(points.len())];
    let mut min_d2: Vec<f64> = points
        .iter()
        .map(|p| distance2(p, &points[chosen[0]]))
        .collect();
    while chosen.len() < k {
        let total: f64 = min_d2.iter().sum();
        let next = if total <= 0.0 {
            // All remaining points coincide with a centroid; take the
            // lowest-index unchosen point for determinism.
            (0..points.len()).find(|i| !chosen.contains(i)).unwrap_or(0)
        } else {
            let mut target = rng.next_f64() * total;
            let mut pick = points.len() - 1;
            for (i, &d) in min_d2.iter().enumerate() {
                target -= d;
                if target <= 0.0 {
                    pick = i;
                    break;
                }
            }
            pick
        };
        chosen.push(next);
        for (d, p) in min_d2.iter_mut().zip(points) {
            let nd = distance2(p, &points[next]);
            if nd < *d {
                *d = nd;
            }
        }
    }
    chosen.into_iter().map(|i| points[i].clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs() -> Vec<Vec<f64>> {
        // Three well-separated 2-D blobs of four points each.
        let mut pts = Vec::new();
        for (cx, cy) in [(0.0, 0.0), (10.0, 10.0), (-10.0, 5.0)] {
            for (dx, dy) in [(0.0, 0.1), (0.1, 0.0), (-0.1, 0.0), (0.0, -0.1)] {
                pts.push(vec![cx + dx, cy + dy]);
            }
        }
        pts
    }

    #[test]
    fn separates_clean_blobs() {
        let km = cluster(&blobs(), 3, 42, 50);
        assert_eq!(km.k(), 3);
        // Each blob of four lands in one cluster.
        for blob in 0..3 {
            let base = km.assignments[blob * 4];
            assert!(
                km.assignments[blob * 4..blob * 4 + 4]
                    .iter()
                    .all(|&a| a == base),
                "blob {blob} split: {:?}",
                km.assignments
            );
        }
        // And the three blobs use three distinct clusters.
        let mut firsts = [km.assignments[0], km.assignments[4], km.assignments[8]];
        firsts.sort_unstable();
        assert_eq!(firsts, [0, 1, 2]);
    }

    #[test]
    fn deterministic_across_repeats() {
        let a = cluster(&blobs(), 3, 7, 50);
        let b = cluster(&blobs(), 3, 7, 50);
        assert_eq!(a, b);
    }

    #[test]
    fn k_clamps_to_point_count() {
        let pts = vec![vec![1.0], vec![2.0]];
        let km = cluster(&pts, 10, 1, 10);
        assert_eq!(km.k(), 2);
        let mut a = km.assignments.clone();
        a.sort_unstable();
        assert_eq!(a, [0, 1]);
    }

    #[test]
    fn identical_points_collapse() {
        let pts = vec![vec![3.0, 3.0]; 6];
        let km = cluster(&pts, 3, 9, 20);
        // Every point must still be assigned.
        assert_eq!(km.assignments.len(), 6);
        assert!(km.assignments.iter().all(|&a| a < km.k()));
    }

    #[test]
    fn single_point_single_cluster() {
        let km = cluster(&[vec![1.0, 2.0]], 4, 3, 10);
        assert_eq!(km.k(), 1);
        assert_eq!(km.assignments, [0]);
        assert_eq!(km.centroids[0], vec![1.0, 2.0]);
    }
}
