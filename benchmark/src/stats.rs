//! Order statistics of repetition timings.

/// Median, quartile spread and the tail percentile of one sample set.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub samples: usize,
    pub median: f64,
    /// (Q3 − Q1) ÷ median, quartiles as Python's
    /// `statistics.quantiles(values, n=4)` gives them.
    pub iqr_frac: f64,
    /// The highest percentile that still has at least ten samples beyond
    /// it, never below the median.
    pub hi_pct: f64,
    /// The sample at [`Summary::hi_pct`].
    pub hi: f64,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of no samples");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile by the "exclusive" method (position
/// `q·(n+1)`, clamped, linear interpolation). One sample is its own
/// quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    assert!(!v.is_empty(), "quartiles of no samples");
    let n = v.len();
    if n == 1 {
        return (v[0], v[0]);
    }
    let at = |q: usize| {
        let j = (q * (n + 1) / 4).clamp(1, n - 1);
        let delta = (q * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// `(percentile, value)` of the highest order statistic with at least ten
/// samples beyond it; with 20 samples or fewer that would fall below the
/// median, so the median is reported as the 50th percentile instead.
pub fn hi_percentile(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n <= 20 {
        return (50.0, median(values));
    }
    (100.0 * (n - 10) as f64 / n as f64, v[n - 11])
}

pub fn summarize(values: &[f64]) -> Summary {
    let med = median(values);
    let (q1, q3) = quartiles(values);
    let (hi_pct, hi) = hi_percentile(values);
    Summary {
        samples: values.len(),
        median: med,
        iqr_frac: if med != 0.0 { (q3 - q1) / med } else { 0.0 },
        hi_pct,
        hi,
    }
}

/// The fastest half of the samples (rounded up), fastest first.
pub fn fastest_half(values: &[f64]) -> Vec<f64> {
    let mut v = sorted(values);
    assert!(!v.is_empty(), "fastest half of no samples");
    v.truncate(v.len().div_ceil(2));
    v
}

/// `(on − off) ÷ off` of two sample sets' fastest samples: the relative
/// cost of whatever `on` had switched on. Noise on this box only ever adds
/// time, so with a handful of samples a side the minima differ by the
/// systematic cost where the medians differ by whichever side caught a
/// disturbance.
pub fn overhead_frac(on: &[f64], off: &[f64]) -> f64 {
    let (on, off) = (fastest_half(on)[0], fastest_half(off)[0]);
    (on - off) / off
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), (10.0, 40.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        let s = summarize(&v);
        assert_eq!(s.samples, 10);
        assert!((s.iqr_frac - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hi_percentile_keeps_ten_samples_beyond() {
        // 40 samples 0..39: index 29 has exactly ten samples (30..39) beyond.
        let v: Vec<f64> = (0..40).rev().map(f64::from).collect();
        assert_eq!(hi_percentile(&v), (75.0, 29.0));
        // 1000 samples: the 99th percentile.
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(hi_percentile(&v), (99.0, 989.0));
        // 21 samples: the first size at which the rule clears the median.
        let v: Vec<f64> = (0..21).map(f64::from).collect();
        let (pct, val) = hi_percentile(&v);
        assert_eq!(val, 10.0);
        assert!(pct > 50.0);
    }

    #[test]
    fn hi_percentile_falls_back_to_median_when_too_few_samples() {
        let v: Vec<f64> = (0..12).map(f64::from).collect();
        assert_eq!(hi_percentile(&v), (50.0, 5.5));
        assert_eq!(hi_percentile(&[2.0]), (50.0, 2.0));
    }

    #[test]
    fn fastest_half_rounds_up_and_sorts() {
        assert_eq!(fastest_half(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.0, 2.0, 3.0]);
        assert_eq!(fastest_half(&[2.0, 1.0]), [1.0]);
        assert_eq!(fastest_half(&[7.0]), [7.0]);
    }

    #[test]
    fn overhead_compares_the_fastest_samples() {
        assert!((overhead_frac(&[1.1, 5.0], &[3.0, 1.0]) - 0.1).abs() < 1e-12);
        assert!(overhead_frac(&[0.9], &[1.0]) < 0.0);
    }
}
