//! Percentiles by nearest rank, and the rule for which tail percentile a
//! run may report.

/// The percentiles a report may name, lowest first.
pub const PERCENTILES: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// Samples a named percentile must leave above it to be reported.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` among `n` samples.
pub fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps 99.9 % of 10 000 at rank 9 990 despite rounding.
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// How many of `n` samples lie above the `p`-th percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The `p`-th percentile of `values` by nearest rank (`NaN` when empty).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), p) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Every percentile of [`PERCENTILES`] that leaves at least
/// [`MIN_BEYOND`] samples beyond it among `n`: the median and the highest
/// tail the sample count supports.
pub fn reportable(n: usize) -> Vec<f64> {
    PERCENTILES
        .iter()
        .copied()
        .filter(|&p| beyond(n, p) >= MIN_BEYOND)
        .collect()
}

/// Render a percentile as a metric suffix: 50 → `p50`, 99.9 → `p99.9`.
pub fn suffix(p: f64) -> String {
    format!("p{p}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn reports_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(reportable(19), Vec::<f64>::new());
        assert_eq!(reportable(20), vec![50.0]);
        assert_eq!(beyond(20, 50.0), 10);
        assert_eq!(reportable(99), vec![50.0]);
        assert_eq!(reportable(100), vec![50.0, 90.0]);
        assert_eq!(reportable(999), vec![50.0, 90.0]);
        assert_eq!(reportable(1000), vec![50.0, 90.0, 99.0]);
        assert_eq!(reportable(10_000), vec![50.0, 90.0, 99.0, 99.9]);
        assert_eq!(suffix(99.9), "p99.9");
        assert_eq!(suffix(50.0), "p50");
    }
}
