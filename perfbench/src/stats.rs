//! The benchmark's statistics: median, quartiles, fixed percentiles and
//! the highest percentile a sample supports, each with its sample count.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so the spread a run reports is the same
//! figure an outside script computes from the same values.

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_SAMPLES: usize = 10;

/// Median and quartiles of one sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Quartile distance as a share of the median (0 when the median is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("statistics over finite values"));
    v
}

fn median_of_sorted(v: &[f64]) -> f64 {
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median of a sample; `None` when it is empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    (!xs.is_empty()).then(|| median_of_sorted(&sorted(xs)))
}

/// Median and quartiles; `None` when the sample is empty. A single value
/// is its own quartiles.
pub fn summarize(xs: &[f64]) -> Option<Summary> {
    let v = sorted(xs);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let (q1, q3) = if n == 1 {
        (v[0], v[0])
    } else {
        // statistics.quantiles(method="exclusive"), n=4.
        let m = n + 1;
        let cut = |i: usize| {
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        (cut(1), cut(3))
    };
    Some(Summary {
        n,
        q1,
        median: median_of_sorted(&v),
        q3,
    })
}

/// The `p`-quantile (`0 < p < 1`, linear interpolation between order
/// statistics), or `None` unless at least [`TAIL_SAMPLES`] samples lie
/// beyond it — a p99 needs 1000 samples.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 1.0, "percentile must be inside (0, 1)");
    let n = xs.len();
    if (n as f64) * (1.0 - p) < TAIL_SAMPLES as f64 {
        return None;
    }
    let v = sorted(xs);
    let pos = p * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// The highest percentile of the ladder 99.9 / 99 / 95 / 90 / 75 / 50 that
/// has at least [`TAIL_SAMPLES`] samples beyond it, as `(p, value)`.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    [0.999, 0.99, 0.95, 0.9, 0.75, 0.5]
        .into_iter()
        .find_map(|p| percentile(xs, p).map(|v| (p, v)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&xs).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!(s.n, 10);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s = summarize(&[5.0, 1.0, 4.0, 2.0, 3.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let s = summarize(&[10.0, 20.0]).unwrap();
        assert_eq!((s.q1, s.q3), (7.5, 22.5));
        assert!((s.spread() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_value_is_its_own_quartiles() {
        let s = summarize(&[7.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.n), (7.0, 7.0, 7.0, 1));
        assert_eq!(s.spread(), 0.0);
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        let p99 = percentile(&xs, 0.99).unwrap();
        assert!((p99 - 989.01).abs() < 1e-9, "{p99}");
        assert!(percentile(&xs[..999], 0.99).is_none());
        assert!(percentile(&xs[..20], 0.5).is_some());
        assert!(percentile(&xs[..19], 0.5).is_none());
    }

    #[test]
    fn tail_picks_the_highest_supported_percentile() {
        let xs: Vec<f64> = (0..10_000).map(f64::from).collect();
        assert_eq!(tail(&xs).unwrap().0, 0.999);
        assert_eq!(tail(&xs[..1000]).unwrap().0, 0.99);
        assert_eq!(tail(&xs[..200]).unwrap().0, 0.95);
        assert_eq!(tail(&xs[..40]).unwrap().0, 0.75);
        assert!(tail(&xs[..19]).is_none());
    }
}
