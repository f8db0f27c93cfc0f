//! Descriptive statistics helpers used across reports and evaluation metrics.

/// Arithmetic mean. Returns 0.0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Linear-interpolated percentile (`p` in `[0, 100]`). Returns 0.0 for an
/// empty slice.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 100]`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Median (50th percentile).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Relative absolute error of `estimate` with respect to `truth`.
/// Returns `|estimate|` when `truth` is zero.
pub fn relative_error(estimate: f64, truth: f64) -> f64 {
    if truth == 0.0 {
        estimate.abs()
    } else {
        (estimate - truth).abs() / truth.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_known_values() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs), 5.0);
    }

    #[test]
    fn empty_slices() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert_eq!(median(&xs), 2.5);
    }

    #[test]
    fn percentile_unsorted_input() {
        let xs = [9.0, 1.0, 5.0];
        assert_eq!(median(&xs), 5.0);
    }

    #[test]
    fn relative_error_cases() {
        assert_eq!(relative_error(11.0, 10.0), 0.1);
        assert_eq!(relative_error(9.0, 10.0), 0.1);
        assert_eq!(relative_error(0.5, 0.0), 0.5);
    }
}
