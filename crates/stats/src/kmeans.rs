//! K-means clustering with k-means++ seeding and BIC model selection.
//!
//! K-means complements the dendrogram: it yields compact clusters and a
//! natural representative (the member closest to the centroid), which is
//! exactly what the design-space evaluation metrics need.

use crate::distance::sq_euclidean;
use crate::{Matrix, SplitMix64, StatsError};

/// Result of a k-means run.
#[derive(Debug, Clone)]
pub struct KMeans {
    /// Cluster label per observation, in `0..k`.
    pub labels: Vec<usize>,
    /// Cluster centroids (k × dims).
    pub centroids: Matrix,
    /// Sum of squared distances from each observation to its centroid.
    pub inertia: f64,
    /// Number of Lloyd iterations performed.
    pub iterations: usize,
}

impl KMeans {
    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.centroids.rows()
    }

    /// Index of the observation closest to each centroid (cluster
    /// representatives). Empty clusters yield no entry.
    pub fn representatives(&self, data: &Matrix) -> Vec<usize> {
        let k = self.k();
        let mut best: Vec<Option<(usize, f64)>> = vec![None; k];
        for (i, row) in data.iter_rows().enumerate() {
            let c = self.labels[i];
            let d = sq_euclidean(row, self.centroids.row(c));
            if best[c].is_none_or(|(_, bd)| d < bd) {
                best[c] = Some((i, d));
            }
        }
        best.into_iter().flatten().map(|(i, _)| i).collect()
    }

    /// Bayesian Information Criterion of this clustering under a spherical
    /// Gaussian model (SimPoint-style). Larger is better.
    pub fn bic(&self, data: &Matrix) -> f64 {
        let n = data.rows() as f64;
        let d = data.cols() as f64;
        let k = self.k() as f64;
        if n <= k {
            return f64::NEG_INFINITY;
        }
        // Maximum-likelihood variance estimate.
        let variance = (self.inertia / (n - k) / d).max(1e-12);
        let mut counts = vec![0usize; self.k()];
        for &l in &self.labels {
            counts[l] += 1;
        }
        let mut log_likelihood = 0.0;
        for &c in &counts {
            if c == 0 {
                continue;
            }
            let cn = c as f64;
            log_likelihood += cn * cn.ln()
                - cn * n.ln()
                - cn * d / 2.0 * (2.0 * std::f64::consts::PI * variance).ln()
                - (cn - 1.0) * d / 2.0;
        }
        let free_params = k * (d + 1.0);
        log_likelihood - free_params / 2.0 * n.ln()
    }
}

/// Runs k-means with k-means++ seeding. Deterministic for a given seed.
///
/// # Errors
///
/// * [`StatsError::BadClusterCount`] if `k` is 0 or exceeds the row count.
/// * [`StatsError::NonFinite`] if `data` contains NaN/inf.
pub fn kmeans(data: &Matrix, k: usize, seed: u64) -> Result<KMeans, StatsError> {
    let n = data.rows();
    if k == 0 || k > n {
        return Err(StatsError::BadClusterCount { k, n });
    }
    data.check_finite()?;
    let dims = data.cols();
    let mut rng = SplitMix64::new(seed);

    // --- k-means++ seeding -------------------------------------------------
    let mut centroids = Matrix::zeros(k, dims);
    let first = rng.next_below(n);
    for c in 0..dims {
        centroids.set(0, c, data.get(first, c));
    }
    let mut min_d2: Vec<f64> = (0..n)
        .map(|i| sq_euclidean(data.row(i), centroids.row(0)))
        .collect();
    for ci in 1..k {
        let total: f64 = min_d2.iter().sum();
        let pick = if total > 0.0 {
            let mut target = rng.next_f64() * total;
            let mut chosen = n - 1;
            for (i, &d2) in min_d2.iter().enumerate() {
                target -= d2;
                if target <= 0.0 {
                    chosen = i;
                    break;
                }
            }
            chosen
        } else {
            rng.next_below(n)
        };
        for c in 0..dims {
            centroids.set(ci, c, data.get(pick, c));
        }
        for (i, slot) in min_d2.iter_mut().enumerate() {
            let d2 = sq_euclidean(data.row(i), centroids.row(ci));
            if d2 < *slot {
                *slot = d2;
            }
        }
    }

    // --- Lloyd iterations --------------------------------------------------
    let mut labels = vec![0usize; n];
    let mut iterations = 0;
    for iter in 0..200 {
        iterations = iter + 1;
        // Assign.
        let mut changed = false;
        for (i, label) in labels.iter_mut().enumerate() {
            let (mut best_c, mut best_d) = (0usize, f64::INFINITY);
            for c in 0..k {
                let d = sq_euclidean(data.row(i), centroids.row(c));
                if d < best_d {
                    best_d = d;
                    best_c = c;
                }
            }
            if *label != best_c {
                *label = best_c;
                changed = true;
            }
        }
        if !changed && iter > 0 {
            break;
        }
        // Update.
        let mut sums = Matrix::zeros(k, dims);
        let mut counts = vec![0usize; k];
        for i in 0..n {
            counts[labels[i]] += 1;
            for c in 0..dims {
                sums.set(labels[i], c, sums.get(labels[i], c) + data.get(i, c));
            }
        }
        for (ci, &count) in counts.iter().enumerate() {
            if count == 0 {
                // Re-seed an empty cluster at the point farthest from its centroid.
                let far = (0..n)
                    .max_by(|&a, &b| {
                        let da = sq_euclidean(data.row(a), centroids.row(labels[a]));
                        let db = sq_euclidean(data.row(b), centroids.row(labels[b]));
                        da.partial_cmp(&db).expect("finite distances")
                    })
                    .expect("n > 0");
                for c in 0..dims {
                    centroids.set(ci, c, data.get(far, c));
                }
            } else {
                for c in 0..dims {
                    centroids.set(ci, c, sums.get(ci, c) / count as f64);
                }
            }
        }
    }

    let inertia = (0..n)
        .map(|i| sq_euclidean(data.row(i), centroids.row(labels[i])))
        .sum();
    Ok(KMeans {
        labels,
        centroids,
        inertia,
        iterations,
    })
}

/// Runs k-means for each `k` in `1..=max_k` and returns the run with the
/// best BIC (SimPoint-style model selection).
///
/// # Errors
///
/// Propagates [`kmeans`] errors; `max_k` is clamped to the row count.
pub fn kmeans_best_bic(data: &Matrix, max_k: usize, seed: u64) -> Result<KMeans, StatsError> {
    let max_k = max_k.min(data.rows()).max(1);
    let mut best: Option<(f64, KMeans)> = None;
    for k in 1..=max_k {
        let run = kmeans(data, k, seed ^ (k as u64).wrapping_mul(0x9E37_79B9))?;
        let bic = run.bic(data);
        if best.as_ref().is_none_or(|(b, _)| bic > *b) {
            best = Some((bic, run));
        }
    }
    Ok(best.expect("at least one k evaluated").1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_blobs() -> Matrix {
        let mut rows = Vec::new();
        for (cx, cy) in [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)] {
            for i in 0..5 {
                let jitter = i as f64 * 0.05;
                rows.push(vec![cx + jitter, cy - jitter]);
            }
        }
        Matrix::from_rows(&rows).unwrap()
    }

    #[test]
    fn recovers_three_blobs() {
        let km = kmeans(&three_blobs(), 3, 42).unwrap();
        // All points in one blob share a label; labels differ across blobs.
        for blob in 0..3 {
            let base = km.labels[blob * 5];
            for i in 0..5 {
                assert_eq!(km.labels[blob * 5 + i], base);
            }
        }
        let mut distinct = km.labels.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 3);
    }

    #[test]
    fn random_labels_in_range_and_inertia_nonnegative() {
        let mut rng = SplitMix64::new(0x6b6d);
        for case in 0..128 {
            let m = rng.matrix(12, 4);
            let k = 1 + rng.next_below(4.min(m.rows()));
            let km = kmeans(&m, k, rng.next_u64() % 1000).unwrap();
            assert_eq!(km.labels.len(), m.rows(), "case {case}");
            assert!(km.labels.iter().all(|&l| l < k), "case {case}");
            assert!(km.inertia >= 0.0, "case {case}: inertia {}", km.inertia);
            // After convergence each observation sits with its nearest
            // centroid.
            for (i, &l) in km.labels.iter().enumerate() {
                let own = sq_euclidean(m.row(i), km.centroids.row(l));
                for c in 0..k {
                    assert!(
                        own <= sq_euclidean(m.row(i), km.centroids.row(c)) + 1e-9,
                        "case {case}: row {i} is closer to centroid {c} than {l}"
                    );
                }
            }
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let a = kmeans(&three_blobs(), 3, 7).unwrap();
        let b = kmeans(&three_blobs(), 3, 7).unwrap();
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.inertia, b.inertia);
    }

    #[test]
    fn inertia_decreases_with_k() {
        let data = three_blobs();
        let i1 = kmeans(&data, 1, 3).unwrap().inertia;
        let i3 = kmeans(&data, 3, 3).unwrap().inertia;
        let i15 = kmeans(&data, 15, 3).unwrap().inertia;
        assert!(i3 < i1);
        assert!(i15 <= i3);
        assert!(i15 < 1e-9, "k = n should have ~zero inertia, got {i15}");
    }

    #[test]
    fn representatives_are_members_of_their_cluster() {
        let data = three_blobs();
        let km = kmeans(&data, 3, 11).unwrap();
        let reps = km.representatives(&data);
        assert_eq!(reps.len(), 3);
        for (c, &r) in reps.iter().enumerate() {
            assert_eq!(km.labels[r], c);
        }
    }

    #[test]
    fn bic_prefers_true_k() {
        let data = three_blobs();
        let best = kmeans_best_bic(&data, 6, 5).unwrap();
        assert_eq!(best.k(), 3, "BIC should select the 3 blobs");
    }

    #[test]
    fn k_one_centroid_is_mean() {
        let data = three_blobs();
        let km = kmeans(&data, 1, 0).unwrap();
        for c in 0..2 {
            assert!((km.centroids.get(0, c) - data.col_mean(c)).abs() < 1e-9);
        }
    }

    #[test]
    fn rejects_bad_k() {
        let data = three_blobs();
        assert!(kmeans(&data, 0, 1).is_err());
        assert!(kmeans(&data, 16, 1).is_err());
    }

    #[test]
    fn rejects_nan() {
        let mut data = three_blobs();
        data.set(0, 0, f64::INFINITY);
        assert!(kmeans(&data, 2, 1).is_err());
    }
}
