//! Sample statistics, the regression rule, and the process counters read
//! from `/proc`.

use std::fs;

/// Samples a timing percentile must have beyond it before it is reported.
pub const TAIL_SAMPLES: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile, the sample at rank `ceil(p/100 · n)`, refused
/// (`None`) unless at least [`TAIL_SAMPLES`] samples lie beyond that rank,
/// so a p90 needs n ≥ 100.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let n = xs.len();
    let rank = ((p * n as f64 / 100.0).ceil() as usize).max(1);
    if n < rank + TAIL_SAMPLES {
        return None;
    }
    Some(sorted(xs)[rank - 1])
}

/// First and third quartiles exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method)
/// computes them. Needs at least two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(xs);
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Interquartile distance as a share of the median; 0 for fewer than two
/// samples (nothing to spread).
pub fn spread(xs: &[f64]) -> f64 {
    match (quartiles(xs), median(xs)) {
        (Some((q1, q3)), Some(m)) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, failures).
    Lower,
    /// Larger is better (throughput).
    Higher,
}

impl Better {
    /// Parses `BENCHMARK.json`'s `"better"` field.
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// Outcome of comparing one (workload, metric) pair across two run sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better than the base by more than the bound.
    Improved,
    /// Within the bound either way.
    Unchanged,
    /// Worse than the base by more than the bound.
    Regressed,
    /// Either side's run-to-run spread exceeds the bound, so no call.
    Unresolved,
}

impl Verdict {
    /// Lower-case label for printed rows.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `cand` is than `base`, as a share of `base` (negative
/// when better). A zero base makes any worsening infinite, so a bound of
/// 0 on a zero metric (failures) flags any rise.
pub fn worsening(base: f64, cand: f64, better: Better) -> f64 {
    let worse_by = match better {
        Better::Lower => cand - base,
        Better::Higher => base - cand,
    };
    if worse_by == 0.0 {
        0.0
    } else if base == 0.0 {
        worse_by.signum() * f64::INFINITY
    } else {
        worse_by / base.abs()
    }
}

/// Applies the regression rule: unresolved when either spread exceeds
/// `bound`, else regressed / improved when the change passes `bound` in
/// either direction, else unchanged.
pub fn verdict(base: f64, cand: f64, better: Better, bound: f64, spreads: (f64, f64)) -> Verdict {
    if spreads.0 > bound || spreads.1 > bound {
        return Verdict::Unresolved;
    }
    let w = worsening(base, cand, better);
    if w > bound {
        Verdict::Regressed
    } else if -w > bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// Linux reports process times in clock ticks of `USER_HZ`, which is 100
/// on every mainstream architecture.
const TICKS_PER_SECOND: f64 = 100.0;

/// User plus system CPU time of the whole process (every thread, live or
/// exited) from `/proc/self/stat`, in milliseconds.
///
/// # Panics
///
/// Off Linux, where `/proc/self/stat` does not exist.
pub fn cpu_ms() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // utime and stime are fields 14 and 15; count from after the
    // parenthesised command name, which may hold spaces.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let ticks: f64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .map(|f| f.parse::<f64>().expect("utime and stime are integers"))
        .sum();
    ticks * 1000.0 / TICKS_PER_SECOND
}

/// Resets the process's peak resident set size (VmHWM), so the next
/// [`peak_rss_kb`] reports the peak since now. Best effort: where the
/// reset is refused, the peak covers the whole process lifetime.
pub fn reset_peak_rss() {
    let _ = fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size (VmHWM) in kB, from `/proc/self/status`.
///
/// # Panics
///
/// Off Linux, where `/proc/self/status` does not exist.
pub fn peak_rss_kb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("status has VmHWM");
    line.split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmHWM is a number of kB")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        // n = 200: rank ceil(0.9 · 200) = 180, so the 180th smallest.
        assert_eq!(percentile(&one_to(200), 90.0), Some(180.0));
        // n = 101: rank ceil(90.9) = 91.
        assert_eq!(percentile(&one_to(101), 90.0), Some(91.0));
        // The median by nearest rank on 100 samples is the 50th.
        assert_eq!(percentile(&one_to(100), 50.0), Some(50.0));
        // A low percentile needs ten beyond it too: rank 1 of 10 leaves 9.
        assert_eq!(percentile(&one_to(11), 1.0), Some(1.0));
        assert_eq!(percentile(&one_to(10), 1.0), None);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        // n = 100 leaves exactly 10 samples above rank 90.
        assert_eq!(percentile(&one_to(100), 90.0), Some(90.0));
        // n = 99: rank ceil(89.1) = 90 leaves 9 beyond, so it is refused.
        assert_eq!(percentile(&one_to(99), 90.0), None);
        assert_eq!(percentile(&one_to(10), 90.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&one_to(10)), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), Some((7.5, 22.5)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&one_to(10)) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn bound_checks_lower_is_better() {
        let v = |base, cand| verdict(base, cand, Better::Lower, 0.10, (0.01, 0.01));
        assert_eq!(v(100.0, 111.0), Verdict::Regressed);
        assert_eq!(v(100.0, 109.0), Verdict::Unchanged);
        assert_eq!(v(100.0, 91.0), Verdict::Unchanged);
        assert_eq!(v(100.0, 89.0), Verdict::Improved);
    }

    #[test]
    fn bound_checks_higher_is_better() {
        let v = |base, cand| verdict(base, cand, Better::Higher, 0.10, (0.01, 0.01));
        assert_eq!(v(100.0, 89.0), Verdict::Regressed);
        assert_eq!(v(100.0, 91.0), Verdict::Unchanged);
        assert_eq!(v(100.0, 111.0), Verdict::Improved);
    }

    #[test]
    fn wide_spread_on_either_side_is_unresolved() {
        let v = |spreads| verdict(100.0, 150.0, Better::Lower, 0.10, spreads);
        assert_eq!(v((0.11, 0.01)), Verdict::Unresolved);
        assert_eq!(v((0.01, 0.11)), Verdict::Unresolved);
        assert_eq!(v((0.10, 0.10)), Verdict::Regressed);
    }

    #[test]
    fn zero_bound_on_a_zero_metric_flags_any_rise() {
        let v = |base, cand| verdict(base, cand, Better::Lower, 0.0, (0.0, 0.0));
        assert_eq!(v(0.0, 0.0), Verdict::Unchanged);
        assert_eq!(v(0.0, 0.01), Verdict::Regressed);
        assert_eq!(v(0.02, 0.0), Verdict::Improved);
    }

    #[test]
    fn proc_counters_read_on_linux() {
        assert!(cpu_ms() >= 0.0);
        reset_peak_rss();
        assert!(peak_rss_kb() > 0.0);
    }
}
