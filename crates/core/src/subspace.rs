//! Stage 4: characteristic-subspace analysis and workload-variation
//! ranking.
//!
//! The paper repeats the clustering analysis in subspaces (branch
//! divergence, memory coalescing) and reports which *workloads* exhibit
//! the largest variation across their own kernels there — those are the
//! workloads that stress the corresponding functional block in multiple
//! distinct ways.

use gwc_characterize::schema;
use gwc_stats::distance::euclidean;
use gwc_stats::{Matrix, StatsError};

use crate::reduce::ReducedSpace;
use crate::study::Study;

/// A named characteristic subspace.
#[derive(Debug, Clone)]
pub struct Subspace {
    /// Display name.
    pub name: &'static str,
    /// Schema column indices the subspace selects.
    pub columns: Vec<usize>,
}

impl Subspace {
    /// The paper's branch-divergence subspace.
    pub fn divergence() -> Self {
        Self {
            name: "branch_divergence",
            columns: schema::divergence_subspace(),
        }
    }

    /// The paper's memory-coalescing subspace.
    pub fn coalescing() -> Self {
        Self {
            name: "memory_coalescing",
            columns: schema::coalescing_subspace(),
        }
    }
}

/// A fitted subspace analysis: the reduced space over the selected
/// columns plus per-workload variation scores.
#[derive(Debug)]
pub struct SubspaceAnalysis {
    /// The subspace definition.
    pub subspace: Subspace,
    /// Reduction fitted on the subspace columns.
    pub space: ReducedSpace,
    /// `(workload, variation)` sorted descending by variation.
    pub variation: Vec<(&'static str, f64)>,
}

impl SubspaceAnalysis {
    /// Fits the subspace reduction and ranks workloads by
    /// intra-workload variation (mean distance of the workload's kernels
    /// to their own centroid in the subspace's normalized PC space).
    /// Workloads with a single kernel score 0.
    ///
    /// # Errors
    ///
    /// Propagates [`StatsError`] from the reduction.
    pub fn fit(study: &Study, subspace: Subspace) -> Result<Self, StatsError> {
        let raw = study.matrix().select_cols(&subspace.columns);
        let space = ReducedSpace::fit(&raw, 0.95)?;
        let scores = space.scores();
        let mut variation: Vec<(&'static str, f64)> = study
            .workload_names()
            .into_iter()
            .map(|w| (w, workload_spread(scores, &study.rows_of_workload(w))))
            .collect();
        variation.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite spread"));
        Ok(Self {
            subspace,
            space,
            variation,
        })
    }

    /// The top `n` most-varying workloads.
    pub fn top(&self, n: usize) -> Vec<&'static str> {
        self.variation.iter().take(n).map(|(w, _)| *w).collect()
    }

    /// Rank (0 = most varying) of `workload`, if present.
    pub fn rank_of(&self, workload: &str) -> Option<usize> {
        self.variation.iter().position(|(w, _)| *w == workload)
    }
}

/// Mean distance of the given rows to their centroid.
fn workload_spread(scores: &Matrix, rows: &[usize]) -> f64 {
    if rows.len() < 2 {
        return 0.0;
    }
    let dims = scores.cols();
    let mut centroid = vec![0.0; dims];
    for &r in rows {
        for (c, v) in centroid.iter_mut().enumerate() {
            *v += scores.get(r, c);
        }
    }
    for v in &mut centroid {
        *v /= rows.len() as f64;
    }
    rows.iter()
        .map(|&r| euclidean(scores.row(r), &centroid))
        .sum::<f64>()
        / rows.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subspace_definitions_are_disjointish() {
        let d = Subspace::divergence();
        let c = Subspace::coalescing();
        assert!(!d.columns.is_empty());
        assert!(!c.columns.is_empty());
        // They share no columns: divergence uses ctrl mix, coalescing the
        // global-memory mix.
        for col in &d.columns {
            assert!(!c.columns.contains(col));
        }
    }

    #[test]
    fn spread_of_identical_rows_is_zero() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![1.0, 2.0], vec![5.0, 5.0]]).unwrap();
        assert_eq!(workload_spread(&m, &[0, 1]), 0.0);
        assert_eq!(workload_spread(&m, &[2]), 0.0, "singletons score zero");
    }

    #[test]
    fn spread_grows_with_scatter() {
        let tight = Matrix::from_rows(&[vec![0.0, 0.0], vec![0.1, 0.0]]).unwrap();
        let wide = Matrix::from_rows(&[vec![0.0, 0.0], vec![10.0, 0.0]]).unwrap();
        assert!(workload_spread(&wide, &[0, 1]) > workload_spread(&tight, &[0, 1]) * 10.0);
    }
}
