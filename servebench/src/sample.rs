//! Statistics over exact samples: every latency the generator measures
//! is kept as its own value, so percentiles are order statistics, never
//! bucket bounds.

/// Linear-interpolation percentile (`q` in `[0, 1]`) of `sorted`, which
/// must be ascending: the value at rank `q * (n - 1)`, interpolated
/// between its two neighbours. `None` for an empty sample.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = q.clamp(0.0, 1.0) * (n - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = (lo + 1).min(n - 1);
    let frac = rank - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// Sorts a copy of `values` ascending (NaNs last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` (its default "exclusive" method)
/// computes them, so spreads printed here match the ones an outside
/// checker derives from the same values. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values);
    let n = data.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range as a share of the median, both from
/// [`quartiles`].
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    Some((q3 - q1) / q2)
}

/// Latency summary of one verb: sample count, median and p99, all in
/// microseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct LatencySummary {
    /// Number of exact samples.
    pub count: usize,
    /// Median.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

/// Summarizes nanosecond samples as microseconds.
pub fn summarize_ns(samples_ns: &[u64]) -> LatencySummary {
    if samples_ns.is_empty() {
        return LatencySummary::default();
    }
    let us: Vec<f64> = samples_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    let s = sorted(&us);
    LatencySummary {
        count: s.len(),
        p50: percentile(&s, 0.50).unwrap_or(0.0),
        p99: percentile(&s, 0.99).unwrap_or(0.0),
        mean: s.iter().sum::<f64>() / s.len() as f64,
    }
}

/// Median of `values` (linear interpolation); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 0.5).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_of_known_inputs() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&v, 0.5), Some(50.5));
        // rank 0.99 * 99 = 98.01 → between 99 and 100.
        let p99 = percentile(&v, 0.99).unwrap();
        assert!((p99 - 99.01).abs() < 1e-9, "{p99}");
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
        assert_eq!(
            quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]),
            Some([15.0, 30.0, 45.0])
        );
        assert_eq!(quartiles(&[1.0]), None);
        let share = iqr_share(&v).unwrap();
        assert!((share - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }

    #[test]
    fn summaries_are_exact_order_statistics() {
        let ns: Vec<u64> = (1..=1000).map(|i| i * 1000).collect();
        let s = summarize_ns(&ns);
        assert_eq!(s.count, 1000);
        assert!((s.p50 - 500.5).abs() < 1e-9, "{}", s.p50);
        assert!((s.p99 - 990.01).abs() < 1e-9, "{}", s.p99);
        assert!((s.mean - 500.5).abs() < 1e-9);
        assert_eq!(summarize_ns(&[]).count, 0);
    }
}
