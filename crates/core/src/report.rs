//! Stage 7: plain-text rendering of the experiment artifacts.

use gwc_stats::Matrix;

/// Renders a labeled table: one row per label, columns formatted to 4
/// decimals.
///
/// # Panics
///
/// Panics if `labels.len()` differs from the matrix row count.
pub fn render_matrix(labels: &[String], headers: &[&str], m: &Matrix) -> String {
    assert_eq!(labels.len(), m.rows(), "one label per row");
    let label_w = labels.iter().map(String::len).max().unwrap_or(8).max(8);
    let mut out = String::new();
    out.push_str(&format!("{:<label_w$}", "kernel"));
    for h in headers.iter().take(m.cols()) {
        out.push_str(&format!(" {h:>12}"));
    }
    out.push('\n');
    for (r, label) in labels.iter().enumerate() {
        out.push_str(&format!("{label:<label_w$}"));
        for c in 0..m.cols() {
            out.push_str(&format!(" {:>12.4}", m.get(r, c)));
        }
        out.push('\n');
    }
    out
}

/// Renders a 2-D ASCII scatter plot of (x, y) points labelled by index
/// markers, with a legend mapping markers back to labels. This is the
/// textual stand-in for the paper's PC scatter figures.
pub fn render_scatter(
    labels: &[String],
    xs: &[f64],
    ys: &[f64],
    width: usize,
    height: usize,
) -> String {
    assert_eq!(labels.len(), xs.len());
    assert_eq!(xs.len(), ys.len());
    if xs.is_empty() {
        return String::from("(no points)\n");
    }
    let (x_lo, x_hi) = bounds(xs);
    let (y_lo, y_hi) = bounds(ys);
    let mut grid = vec![vec![' '; width]; height];
    let marker = |i: usize| -> char {
        let alphabet: Vec<char> = ('a'..='z').chain('A'..='Z').chain('0'..='9').collect();
        alphabet[i % alphabet.len()]
    };
    for (i, (&x, &y)) in xs.iter().zip(ys).enumerate() {
        let cx = scale(x, x_lo, x_hi, width - 1);
        // Flip y so larger values print higher.
        let cy = height - 1 - scale(y, y_lo, y_hi, height - 1);
        grid[cy][cx] = marker(i);
    }
    let mut out = String::new();
    out.push_str(&format!(
        "y: [{y_lo:.2}, {y_hi:.2}]  x: [{x_lo:.2}, {x_hi:.2}]\n"
    ));
    for row in grid {
        out.push('|');
        out.extend(row);
        out.push('\n');
    }
    out.push_str(&format!("+{}\n", "-".repeat(width)));
    for (i, label) in labels.iter().enumerate() {
        out.push_str(&format!("  {} = {label}\n", marker(i)));
    }
    out
}

fn bounds(vals: &[f64]) -> (f64, f64) {
    let lo = vals.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if (hi - lo).abs() < 1e-12 {
        (lo - 0.5, hi + 0.5)
    } else {
        (lo, hi)
    }
}

fn scale(v: f64, lo: f64, hi: f64, max: usize) -> usize {
    (((v - lo) / (hi - lo)) * max as f64).round() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_table_contains_labels_and_values() {
        let m = Matrix::from_rows(&[vec![1.5, 2.0], vec![-0.25, 4.0]]).unwrap();
        let t = render_matrix(&["alpha".into(), "beta".into()], &["pc1", "pc2"], &m);
        assert!(t.contains("alpha"));
        assert!(t.contains("pc2"));
        assert!(t.contains("1.5000"));
        assert!(t.contains("-0.2500"));
    }

    #[test]
    fn scatter_plots_all_markers() {
        let labels: Vec<String> = (0..3).map(|i| format!("k{i}")).collect();
        let s = render_scatter(&labels, &[0.0, 1.0, 2.0], &[0.0, 2.0, 1.0], 20, 10);
        for m in ['a', 'b', 'c'] {
            assert!(s.matches(m).count() >= 1, "marker {m} missing:\n{s}");
        }
        assert!(s.contains("k2"));
    }

    #[test]
    fn scatter_handles_degenerate_range() {
        let labels = vec!["only".to_string()];
        let s = render_scatter(&labels, &[1.0], &[1.0], 10, 5);
        assert!(s.contains('a'));
    }

    #[test]
    #[should_panic(expected = "one label per row")]
    fn mismatched_labels_panic() {
        let m = Matrix::from_rows(&[vec![1.0]]).unwrap();
        render_matrix(&[], &["x"], &m);
    }
}
