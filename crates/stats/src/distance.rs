//! Distance metrics over observation vectors.

/// Squared Euclidean distance between two equal-length vectors.
///
/// # Panics
///
/// Panics if the vectors have different lengths.
pub fn sq_euclidean(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "vector length mismatch");
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Euclidean distance between two equal-length vectors.
///
/// # Panics
///
/// Panics if the vectors have different lengths.
pub fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    sq_euclidean(a, b).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn euclidean_345() {
        assert_eq!(euclidean(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
    }

    #[test]
    fn distance_to_self_is_zero() {
        let v = [1.5, -2.0, 0.25];
        assert_eq!(euclidean(&v, &v), 0.0);
    }

    #[test]
    fn triangle_inequality_holds_on_samples() {
        let pts = [
            vec![0.0, 1.0, 2.0],
            vec![-1.0, 3.0, 0.5],
            vec![2.0, 2.0, 2.0],
        ];
        let ab = euclidean(&pts[0], &pts[1]);
        let bc = euclidean(&pts[1], &pts[2]);
        let ac = euclidean(&pts[0], &pts[2]);
        assert!(ac <= ab + bc + 1e-12);
    }
}
