//! Stage 3: clustering and representative selection in the reduced space.

use gwc_stats::hclust::{hierarchical, Dendrogram, Linkage};
use gwc_stats::kmeans::{kmeans_best_bic, KMeans};
use gwc_stats::{Matrix, StatsError};

/// The clustering artifacts for one (sub)space.
#[derive(Debug)]
pub struct ClusterAnalysis {
    dendrogram: Dendrogram,
    kmeans: KMeans,
    representatives: Vec<usize>,
}

impl ClusterAnalysis {
    /// Clusters PC-space scores: average-linkage dendrogram plus
    /// BIC-selected k-means, with per-cluster representatives (the member
    /// closest to its centroid).
    ///
    /// # Errors
    ///
    /// Propagates [`StatsError`] from the clustering primitives.
    pub fn fit(scores: &Matrix, max_k: usize, seed: u64) -> Result<Self, StatsError> {
        let dendrogram = hierarchical(scores, Linkage::Average)?;
        let kmeans = kmeans_best_bic(scores, max_k, seed)?;
        let representatives = kmeans.representatives(scores);
        Ok(Self {
            dendrogram,
            kmeans,
            representatives,
        })
    }

    /// The hierarchical-clustering dendrogram.
    pub fn dendrogram(&self) -> &Dendrogram {
        &self.dendrogram
    }

    /// The k-means result.
    pub fn kmeans(&self) -> &KMeans {
        &self.kmeans
    }

    /// Selected cluster count.
    pub fn k(&self) -> usize {
        self.kmeans.k()
    }

    /// Row indices of the cluster representatives.
    pub fn representatives(&self) -> &[usize] {
        &self.representatives
    }

    /// Cluster label per row.
    pub fn labels(&self) -> &[usize] {
        &self.kmeans.labels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs() -> Matrix {
        let mut rows = Vec::new();
        for (cx, cy) in [(0.0, 0.0), (8.0, 0.0), (0.0, 8.0)] {
            for i in 0..4 {
                rows.push(vec![cx + 0.1 * i as f64, cy - 0.1 * i as f64]);
            }
        }
        Matrix::from_rows(&rows).unwrap()
    }

    #[test]
    fn finds_the_three_blobs() {
        let a = ClusterAnalysis::fit(&blobs(), 6, 42).unwrap();
        assert_eq!(a.k(), 3);
        assert_eq!(a.representatives().len(), 3);
        // Dendrogram cut at 3 agrees with k-means up to relabeling.
        let cut = a.dendrogram().cut(3).unwrap();
        for blob in 0..3 {
            for i in 1..4 {
                assert_eq!(cut[blob * 4], cut[blob * 4 + i]);
                assert_eq!(a.labels()[blob * 4], a.labels()[blob * 4 + i]);
            }
        }
    }

    #[test]
    fn representatives_belong_to_their_cluster() {
        let a = ClusterAnalysis::fit(&blobs(), 6, 9).unwrap();
        for (c, &r) in a.representatives().iter().enumerate() {
            assert_eq!(a.labels()[r], c);
        }
    }
}
