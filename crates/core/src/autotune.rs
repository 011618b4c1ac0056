//! Empirical N_DUP auto-tuning.
//!
//! §III-A: "the best N_DUP value could be different for different
//! operations, and the best value should be chosen according to the size of
//! the communicated data". The [`AutoTuner`] measures an effective-bandwidth
//! curve once (user-supplied probe — typically a micro-benchmark run in the
//! simulator or on the real machine) and answers per-message-size N_DUP
//! queries with the paper's two rules: the threshold rule `n/N_DUP ≥ n_t`
//! and the curve condition `N_DUP·f_BW(n/N_DUP) ≥ f_BW(n)`.

use crate::tuning::{best_n_dup_by_condition, n_dup_by_threshold, BandwidthCurve};

/// A piecewise-log-linear effective-bandwidth curve built from measured
/// (message size, bandwidth) samples.
#[derive(Debug, Clone)]
pub struct MeasuredCurve {
    /// (bytes, bytes/sec) samples, sorted by size.
    samples: Vec<(usize, f64)>,
}

impl MeasuredCurve {
    /// Build from samples (any order; must be non-empty, sizes unique).
    pub fn new(mut samples: Vec<(usize, f64)>) -> MeasuredCurve {
        assert!(!samples.is_empty(), "need at least one sample");
        samples.sort_by_key(|&(n, _)| n);
        samples.dedup_by_key(|&mut (n, _)| n);
        for &(n, bw) in &samples {
            assert!(
                n > 0 && bw.is_finite() && bw > 0.0,
                "bad sample ({n}, {bw})"
            );
        }
        MeasuredCurve { samples }
    }

    /// The message size above which the curve stays within `frac` of its
    /// maximum — the paper's threshold `n_t` ("where f_BW(n_t) is close to
    /// the achievable network bandwidth").
    // `samples` is non-empty by construction (asserted in `new`).
    #[allow(clippy::unwrap_used)]
    pub fn threshold(&self, frac: f64) -> usize {
        let peak = self
            .samples
            .iter()
            .map(|&(_, bw)| bw)
            .fold(0.0f64, f64::max);
        for &(n, bw) in &self.samples {
            if bw >= frac * peak {
                return n;
            }
        }
        self.samples.last().unwrap().0
    }
}

impl BandwidthCurve for MeasuredCurve {
    // `samples` is non-empty by construction (asserted in `new`).
    #[allow(clippy::unwrap_used)]
    fn bw(&self, n: usize) -> f64 {
        let n = n.max(1);
        // Below/above the sampled range: clamp.
        if n <= self.samples[0].0 {
            return self.samples[0].1;
        }
        if n >= self.samples.last().unwrap().0 {
            return self.samples.last().unwrap().1;
        }
        // Log-linear interpolation between neighbouring samples.
        let idx = self.samples.partition_point(|&(m, _)| m < n);
        let (n0, b0) = self.samples[idx - 1];
        let (n1, b1) = self.samples[idx];
        let t = ((n as f64).ln() - (n0 as f64).ln()) / ((n1 as f64).ln() - (n0 as f64).ln());
        b0 + t * (b1 - b0)
    }
}

/// Chooses N_DUP per message size from a measured curve.
///
/// ```
/// use ovcomm_core::{AutoTuner, MeasuredCurve};
///
/// // A Fig-3-shaped bandwidth curve (bytes → bytes/sec).
/// let curve = MeasuredCurve::new(vec![
///     (16 * 1024, 0.7e9),
///     (256 * 1024, 4.0e9),
///     (1 << 20, 9.6e9),
///     (16 << 20, 11.9e9),
/// ]);
/// let tuner = AutoTuner::new(curve, 8);
/// assert!(tuner.n_dup_for(28 << 20) >= 4); // big blocks: chunk aggressively
/// assert_eq!(tuner.n_dup_for(4 * 1024), 1); // tiny messages: leave alone
/// ```
#[derive(Debug, Clone)]
pub struct AutoTuner {
    curve: MeasuredCurve,
    n_t: usize,
    max_n_dup: usize,
}

impl AutoTuner {
    /// Build from a measured curve; `max_n_dup` bounds resource use (the
    /// paper warns that very large N_DUP "would heavily consume system
    /// resources"). The threshold `n_t` is where the curve reaches half of
    /// peak — a deliberately loose reading of "close to the achievable
    /// bandwidth", because the paper notes that chunking below n_t "is
    /// still possible and likely to accelerate communications".
    pub fn new(curve: MeasuredCurve, max_n_dup: usize) -> AutoTuner {
        assert!(max_n_dup >= 1);
        let n_t = curve.threshold(0.5);
        AutoTuner {
            curve,
            n_t,
            max_n_dup,
        }
    }

    /// The derived threshold n_t.
    pub fn threshold(&self) -> usize {
        self.n_t
    }

    /// Recommended N_DUP for an `n`-byte operation: the largest value that
    /// keeps chunks at/above n_t *and* satisfies the curve condition; at
    /// least 1.
    pub fn n_dup_for(&self, n: usize) -> usize {
        let by_threshold = n_dup_by_threshold(n, self.n_t.max(1), self.max_n_dup);
        best_n_dup_by_condition(&self.curve, n, by_threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn skylake_like() -> MeasuredCurve {
        // Shape of the paper's Fig. 3 PPN=1 curve.
        MeasuredCurve::new(vec![
            (64, 4e6),
            (1024, 80e6),
            (16 * 1024, 700e6),
            (128 * 1024, 3.8e9),
            (1 << 20, 9.6e9),
            (4 << 20, 11.4e9),
            (16 << 20, 11.9e9),
        ])
    }

    #[test]
    fn interpolation_is_monotone_here() {
        let c = skylake_like();
        let mut prev = 0.0;
        for n in [64usize, 500, 4096, 60_000, 300_000, 2 << 20, 10 << 20] {
            let b = c.bw(n);
            assert!(b >= prev, "curve must be non-decreasing at {n}");
            prev = b;
        }
    }

    #[test]
    fn threshold_lands_in_the_paper_band() {
        // The paper: "usually 16 KB ≤ n_t ≤ 1 MB".
        let c = skylake_like();
        let nt = c.threshold(0.5);
        assert!(
            (16 * 1024..=(1 << 20)).contains(&nt),
            "n_t = {nt} out of band"
        );
    }

    #[test]
    fn big_messages_get_big_ndup_small_get_one() {
        let tuner = AutoTuner::new(skylake_like(), 16);
        let big = tuner.n_dup_for(28 << 20); // the kernel's 28 MB blocks
        let small = tuner.n_dup_for(8 * 1024);
        assert!(big >= 4, "28MB should chunk at least 4 ways, got {big}");
        assert_eq!(small, 1, "8KB messages must not be chunked");
        assert!(tuner.n_dup_for(0) == 1);
    }

    #[test]
    fn max_n_dup_is_respected() {
        let tuner = AutoTuner::new(skylake_like(), 3);
        assert!(tuner.n_dup_for(64 << 20) <= 3);
    }

    #[test]
    #[should_panic(expected = "need at least one sample")]
    fn empty_curve_rejected() {
        MeasuredCurve::new(vec![]);
    }
}
