//! Order statistics and aggregates every workload reports through.
//!
//! All functions are total over finite, non-empty input and are unit
//! tested on synthetic series with known answers (`cargo test` in this
//! directory).

/// A tail percentile needs at least this many samples beyond it, or one
/// slow sample moves it.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Sorts a series ascending. Timings are finite, so `total_cmp` order is
/// numeric order.
pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

/// Median of an ascending series (mean of the two middle values when the
/// length is even). `NaN` on an empty series.
pub fn median_sorted(sorted: &[f64]) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Median of an unordered series.
pub fn median(xs: &[f64]) -> f64 {
    median_sorted(&sorted(xs.to_vec()))
}

/// Nearest-rank percentile `p` (in `(0, 100]`) of an ascending, non-empty
/// series: the value at rank `ceil(p/100 · n)`, and how many samples lie
/// beyond that rank.
pub fn nearest_rank(sorted: &[f64], p: f64) -> (f64, usize) {
    let n = sorted.len();
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    (sorted[rank - 1], n - rank)
}

/// [`nearest_rank`], refused (`None`) when fewer than
/// [`MIN_SAMPLES_BEYOND`] samples lie beyond the rank, on an empty
/// series, or for `p` outside `(0, 100]`.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    let (value, beyond) = nearest_rank(sorted, p);
    (beyond >= MIN_SAMPLES_BEYOND).then_some(value)
}

/// Geometric mean of positive values. `NaN` on an empty series.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Throughput under the median-round rule: `ops_per_round` divided by
/// the median round's wall time. A stalled round (preemption, a page
/// cache flush) shifts the whole-run mean but not the median round.
pub fn median_round_throughput(ops_per_round: usize, round_secs: &[f64]) -> f64 {
    ops_per_round as f64 / median(round_secs)
}

/// How much worse `b` is than `a`, as a share of `a`: positive means
/// worse. `higher_is_better` flips the sign for throughput-like metrics.
pub fn relative_worsening(a: f64, b: f64, higher_is_better: bool) -> f64 {
    if a == b {
        return 0.0;
    }
    let diff = if higher_is_better { a - b } else { b - a };
    diff / a.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_series() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn nearest_rank_percentile_on_1_to_1000() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        // rank = ceil(0.99 * 1000) = 990, ten samples beyond it.
        assert_eq!(percentile_sorted(&xs, 99.0), Some(990.0));
        assert_eq!(percentile_sorted(&xs, 50.0), Some(500.0));
        assert_eq!(percentile_sorted(&xs, 90.0), Some(900.0));
    }

    #[test]
    fn percentile_refuses_thin_tails() {
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        // rank 990 of 999 leaves nine samples beyond: refused.
        assert_eq!(percentile_sorted(&xs, 99.0), None);
        assert_eq!(percentile_sorted(&xs, 100.0), None);
        assert_eq!(percentile_sorted(&[], 50.0), None);
        assert_eq!(percentile_sorted(&xs, 0.0), None);
        // Sixteen samples support no tail, twenty support the median.
        let few: Vec<f64> = (1..=16).map(f64::from).collect();
        assert_eq!(percentile_sorted(&few, 50.0), None);
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile_sorted(&twenty, 50.0), Some(10.0));
    }

    #[test]
    fn geomean_of_powers_of_two() {
        assert!((geomean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[8.0]) - 8.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
    }

    #[test]
    fn median_round_ignores_one_stalled_round() {
        // Nine rounds of 0.5 s and one that stalled for 5 s: the mean
        // rate would read 1053 ops/s, the median round reads 2000.
        let mut rounds = vec![0.5; 9];
        rounds.push(5.0);
        assert_eq!(median_round_throughput(1000, &rounds), 2000.0);
        let mean_rate = 10_000.0 / rounds.iter().sum::<f64>();
        assert!(mean_rate < 1100.0);
    }

    #[test]
    fn relative_worsening_respects_direction() {
        // Latency 100 -> 110 is 10% worse; throughput 100 -> 110 is 10% better.
        assert!((relative_worsening(100.0, 110.0, false) - 0.10).abs() < 1e-12);
        assert!((relative_worsening(100.0, 110.0, true) + 0.10).abs() < 1e-12);
        assert!((relative_worsening(100.0, 90.0, true) - 0.10).abs() < 1e-12);
        assert_eq!(relative_worsening(0.0, 0.0, false), 0.0);
    }
}
