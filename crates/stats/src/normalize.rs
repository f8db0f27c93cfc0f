//! Column normalization used before PCA/clustering.
//!
//! The characterization methodology normalizes every characteristic to
//! zero mean and unit variance so dimensions with large magnitudes
//! (e.g. instruction counts) do not dominate dimensions in `[0, 1]`
//! (e.g. activity factors).

use crate::Matrix;

/// Per-column mean/std recorded by [`zscore`], so new observations can be
/// projected into the same normalized space.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Column means.
    pub mean: Vec<f64>,
    /// Column population standard deviations (zeros are kept as-is; the
    /// corresponding normalized column is all-zero).
    pub std: Vec<f64>,
}

impl ColumnStats {
    /// Applies the recorded transform to one observation vector.
    ///
    /// # Panics
    ///
    /// Panics if `row.len()` differs from the number of recorded columns.
    pub fn apply(&self, row: &[f64]) -> Vec<f64> {
        assert_eq!(row.len(), self.mean.len(), "column count mismatch");
        row.iter()
            .zip(self.mean.iter().zip(&self.std))
            .map(|(&v, (&m, &s))| if s > 0.0 { (v - m) / s } else { 0.0 })
            .collect()
    }
}

/// Z-score (standard-score) normalization of every column.
///
/// Columns with zero variance become all-zero rather than NaN, which keeps
/// degenerate characteristics harmless for downstream PCA.
pub fn zscore(m: &Matrix) -> (Matrix, ColumnStats) {
    let mean: Vec<f64> = (0..m.cols()).map(|c| m.col_mean(c)).collect();
    let std: Vec<f64> = (0..m.cols()).map(|c| m.col_std(c)).collect();
    let mut out = Matrix::zeros(m.rows(), m.cols());
    for r in 0..m.rows() {
        for c in 0..m.cols() {
            let v = if std[c] > 0.0 {
                (m.get(r, c) - mean[c]) / std[c]
            } else {
                0.0
            };
            out.set(r, c, v);
        }
    }
    (out, ColumnStats { mean, std })
}

/// Min-max normalization of every column into `[0, 1]`.
///
/// Constant columns become all-zero.
pub fn minmax(m: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(m.rows(), m.cols());
    for c in 0..m.cols() {
        let col = m.col(c);
        let lo = col.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = col.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let span = hi - lo;
        for r in 0..m.rows() {
            let v = if span > 0.0 {
                (m.get(r, c) - lo) / span
            } else {
                0.0
            };
            out.set(r, c, v);
        }
    }
    out
}

/// Indices of columns whose population standard deviation exceeds `eps`.
///
/// Used to drop characteristics that are constant across the whole study
/// (they carry no diversity information and only add noise to PCA).
pub fn varying_columns(m: &Matrix, eps: f64) -> Vec<usize> {
    (0..m.cols()).filter(|&c| m.col_std(c) > eps).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[
            vec![1.0, 10.0, 5.0],
            vec![2.0, 20.0, 5.0],
            vec![3.0, 30.0, 5.0],
        ])
        .unwrap()
    }

    #[test]
    fn zscore_centers_and_scales() {
        let (z, stats) = zscore(&sample());
        for c in 0..2 {
            assert!(z.col_mean(c).abs() < 1e-12);
            assert!((z.col_std(c) - 1.0).abs() < 1e-12);
        }
        assert_eq!(stats.mean[0], 2.0);
    }

    #[test]
    fn zscore_random_columns_have_zero_mean_and_unit_or_zero_std() {
        let mut rng = crate::SplitMix64::new(0x2c0e);
        for case in 0..256 {
            let mut m = rng.matrix(12, 6);
            if case % 4 == 0 {
                // A constant column must come out all-zero, not NaN.
                for r in 0..m.rows() {
                    m.set(r, 0, 3.0);
                }
            }
            let (z, _) = zscore(&m);
            for c in 0..z.cols() {
                assert!(z.col_mean(c).abs() < 1e-9, "case {case} col {c}");
                let s = z.col_std(c);
                assert!(
                    (s - 1.0).abs() < 1e-9 || s.abs() < 1e-9,
                    "case {case} col {c}: std {s}"
                );
            }
        }
    }

    #[test]
    fn zscore_zero_variance_column_is_zeroed() {
        let (z, _) = zscore(&sample());
        assert_eq!(z.col(2), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn apply_matches_fit() {
        let m = sample();
        let (z, stats) = zscore(&m);
        let projected = stats.apply(m.row(1));
        for (c, &p) in projected.iter().enumerate().take(3) {
            assert!((p - z.get(1, c)).abs() < 1e-12);
        }
    }

    #[test]
    fn minmax_bounds() {
        let mm = minmax(&sample());
        assert_eq!(mm.get(0, 0), 0.0);
        assert_eq!(mm.get(2, 0), 1.0);
        assert_eq!(mm.get(1, 1), 0.5);
        // Constant column maps to zero.
        assert_eq!(mm.col(2), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn varying_columns_drops_constant() {
        assert_eq!(varying_columns(&sample(), 1e-9), vec![0, 1]);
    }
}
