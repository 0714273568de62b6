//! Order statistics used by the benchmark: nearest-rank percentiles, the
//! window-median estimator of the latency metrics, and the quartiles the
//! driver computes with Python's `statistics.quantiles(values, n=4)`.

/// Median of `values` (mean of the two middle values for an even count);
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` of the samples at or below it. `0` for an empty slice.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The latency estimator: the `p`-percentile of every window, then the
/// median over windows. A host stall spoils one window, not the metric.
/// Windows without samples are skipped.
pub fn windowed(windows: &mut [Vec<u64>], p: f64) -> f64 {
    let per_window: Vec<f64> = windows
        .iter_mut()
        .filter(|w| !w.is_empty())
        .map(|w| {
            w.sort_unstable();
            percentile_sorted(w, p) as f64
        })
        .collect();
    median(&per_window)
}

/// `(q1, median, q3)` exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// gives them, so `compare` sees the spread the driver sees. Needs at
/// least two values; a single value is returned three times.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Inter-quartile range as a share of the median (the driver's spread).
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 0.50), 50);
        assert_eq!(percentile_sorted(&v, 0.99), 99);
        assert_eq!(percentile_sorted(&v, 1.0), 100);
        assert_eq!(percentile_sorted(&[7], 0.99), 7);
        assert_eq!(percentile_sorted(&[], 0.5), 0);
    }

    #[test]
    fn one_stalled_window_does_not_move_the_windowed_estimate() {
        // Five windows of 100 samples at 10..=109; one window stalled by
        // 1 s. Pooled p99 would report the stall, the window median not.
        let clean: Vec<u64> = (10..110).collect();
        let mut windows = vec![clean.clone(); 5];
        windows[2] = clean.iter().map(|x| x + 1_000_000).collect();
        assert_eq!(windowed(&mut windows.clone(), 0.99), 108.0);
        assert_eq!(windowed(&mut windows, 0.50), 59.0);
        let mut with_empty = vec![clean, Vec::new()];
        assert_eq!(windowed(&mut with_empty, 0.50), 59.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), (10.0, 20.0, 40.0));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), (0.5, 2.0, 3.5));
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }
}
