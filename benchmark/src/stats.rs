//! Order statistics for the benchmark's samples.
//!
//! Every reported timing is a median plus the quartiles, the sample count
//! and the highest percentile the sample can support (at least ten samples
//! beyond it), so a reader can tell a resolved difference from noise.

/// Percentiles the picker may report, ascending, in hundredths of a percent
/// (integers, so "ten samples beyond" is exact arithmetic).
const PERCENTILE_LADDER: [usize; 7] = [5000, 7500, 9000, 9500, 9900, 9990, 9999];

/// Returns `v` sorted ascending (total order, so NaNs cannot panic).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Nearest-rank percentile `p` (0..=100) of an ascending slice; 0 when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (sorted.len() as f64 * p / 100.0).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an ascending slice (mean of the middle pair for even counts).
pub fn median(sorted: &[f64]) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// First and third quartile of an ascending slice, by the exclusive method
/// Python's `statistics.quantiles(values, n=4)` uses — the driver computes
/// its spreads with that function, so `compare` must agree with it.
pub fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    if n < 2 {
        let v = sorted.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The highest ladder percentile with at least ten samples beyond it, or
/// `None` when even the median has fewer (n < 20).
pub fn top_percentile(n: usize) -> Option<f64> {
    PERCENTILE_LADDER
        .iter()
        .rev()
        .find(|&&p| n * (10_000 - p) / 10_000 >= 10)
        .map(|&p| p as f64 / 100.0)
}

/// What is recorded for every timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Highest supported percentile and its value (see [`top_percentile`]).
    pub top: Option<(f64, f64)>,
}

impl Summary {
    /// Summarises `samples` (any order).
    pub fn of(samples: &[f64]) -> Self {
        let s = sorted(samples.to_vec());
        let (q1, q3) = quartiles(&s);
        Summary {
            n: s.len(),
            median: median(&s),
            q1,
            q3,
            top: top_percentile(s.len()).map(|p| (p, percentile(&s, p))),
        }
    }
}

/// Median of `samples` in any order.
pub fn median_of(samples: &[f64]) -> f64 {
    median(&sorted(samples.to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picker_returns_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(top_percentile(19), None);
        assert_eq!(top_percentile(20), Some(50.0));
        assert_eq!(top_percentile(40), Some(75.0));
        assert_eq!(top_percentile(100), Some(90.0));
        assert_eq!(top_percentile(999), Some(95.0));
        assert_eq!(top_percentile(1000), Some(99.0));
        assert_eq!(top_percentile(10_000), Some(99.9));
        assert_eq!(top_percentile(100_000), Some(99.99));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]), (1.5, 12.0));
        assert_eq!(median(&[1.0, 2.0, 4.0, 8.0]), 3.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}
