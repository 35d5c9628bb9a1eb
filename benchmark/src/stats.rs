//! Order statistics for latency samples and run-to-run spreads.

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `q` of the samples at or below it.  `q` in `(0, 1]`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median as the mean of the two middle samples for even counts (what
/// Python's `statistics.median` returns, so spreads computed here and by
/// the driver agree).
pub fn median(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "median of no samples");
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// Ascending copy.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The tail percentiles the harness reports, lowest first.
pub const TAILS: [f64; 4] = [0.90, 0.95, 0.99, 0.999];

/// Highest of [`TAILS`] that still has at least `beyond` samples strictly
/// above its rank among `n` samples; `None` when even p90 has too few.
pub fn highest_supported_tail(n: usize, beyond: usize) -> Option<f64> {
    TAILS
        .iter()
        .copied()
        .rfind(|&q| n - ((q * n as f64).ceil() as usize).min(n) >= beyond)
}

/// First and third quartile by the exclusive method — the default of
/// Python's `statistics.quantiles(values, n=4)`.
pub fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    assert!(n >= 2, "quartiles need two samples");
    let at = |k: usize| {
        // Position k·(n+1)/4 in 1-based ranks, linearly interpolated and
        // clamped to the sample range.
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lo as f64;
        sorted[lo - 1] + (sorted[lo] - sorted[lo - 1]) * frac
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median (0 for a zero median).
pub fn iqr_over_median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let m = median(&s);
    if s.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(&s);
    (q3 - q1) / m.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.9), 90.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
        // 5 samples: p50 is the 3rd, p90 the 5th.
        let t = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&t, 0.5), 3.0);
        assert_eq!(percentile(&t, 0.9), 5.0);
    }

    #[test]
    fn median_matches_python_for_even_and_odd_counts() {
        assert_eq!(median(&[1.0, 3.0]), 2.0);
        assert_eq!(median(&[1.0, 3.0, 10.0]), 3.0);
    }

    #[test]
    fn highest_tail_needs_ten_samples_beyond_it() {
        // 100 samples: exactly 10 above p90, only 5 above p95.
        assert_eq!(highest_supported_tail(100, 10), Some(0.90));
        assert_eq!(highest_supported_tail(99, 10), None);
        assert_eq!(highest_supported_tail(200, 10), Some(0.95));
        assert_eq!(highest_supported_tail(1_000, 10), Some(0.99));
        assert_eq!(highest_supported_tail(10_000, 10), Some(0.999));
        assert_eq!(highest_supported_tail(5, 10), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&s);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let (q1, q3) = quartiles(&[1.0, 2.0, 4.0]);
        assert_eq!((q1, q3), (1.0, 4.0));
        assert!((iqr_over_median(&[10.0, 9.0, 11.0, 10.0]) - 0.15).abs() < 1e-12);
    }
}
