//! The statistical bootstrap (Section 5.2.5).
//!
//! For aggregates that are not sample means (`median`, percentiles) the
//! paper bounds estimates empirically: repeatedly subsample *with
//! replacement*, apply the statistic, and read confidence bounds off the
//! empirical distribution. SVC+CORR uses the variant that bootstraps the
//! *difference* `c` between the clean-sample and dirty-sample statistics.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::clt::ConfidenceInterval;
use crate::quantile::quantile_in_place;

/// Bootstrap the sampling distribution of `statistic` over `data`:
/// `iterations` resamples with replacement, each of `data.len()` elements.
/// Deterministic for a given `seed`.
pub fn bootstrap_distribution<F>(
    data: &[f64],
    statistic: F,
    iterations: usize,
    seed: u64,
) -> Vec<f64>
where
    F: Fn(&[f64]) -> f64,
{
    let mut rng = StdRng::seed_from_u64(seed);
    let n = data.len();
    let mut resample = vec![0.0; n];
    let mut out = Vec::with_capacity(iterations);
    for _ in 0..iterations {
        for slot in resample.iter_mut() {
            *slot = data[rng.random_range(0..n)];
        }
        out.push(statistic(&resample));
    }
    out
}

/// Percentile-method bootstrap confidence interval: the (α/2, 1−α/2)
/// percentiles of the bootstrap distribution — two selections on it, no
/// sort — around the point estimate on the full sample.
pub fn bootstrap_ci<F>(
    data: &[f64],
    statistic: F,
    iterations: usize,
    confidence: f64,
    seed: u64,
) -> ConfidenceInterval
where
    F: Fn(&[f64]) -> f64,
{
    assert!(!data.is_empty(), "bootstrap of an empty sample");
    let point = statistic(data);
    let mut dist = bootstrap_distribution(data, &statistic, iterations, seed);
    let alpha = 1.0 - confidence;
    let lo = quantile_in_place(&mut dist, alpha / 2.0);
    let hi = quantile_in_place(&mut dist, 1.0 - alpha / 2.0);
    // Report symmetrized half-width around the point estimate; the paper's
    // procedure returns the raw percentiles (step 5 of Section 5.2.5), which
    // we preserve through lo/hi by centering on their midpoint.
    let estimate = point;
    let half_width = ((hi - lo) / 2.0).max((estimate - lo).abs().max((hi - estimate).abs()));
    ConfidenceInterval { estimate, half_width, confidence }
}

/// Bootstrap for paired data: the distribution of
/// `statistic(clean) − statistic(dirty)` over simultaneous resamples, used
/// by SVC+CORR to bound the correction `c` (Section 5.2.5).
pub fn bootstrap_paired_diff<F>(
    clean: &[f64],
    dirty: &[f64],
    statistic: F,
    iterations: usize,
    seed: u64,
) -> Vec<f64>
where
    F: Fn(&[f64]) -> f64,
{
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(iterations);
    let mut c_buf = vec![0.0; clean.len()];
    let mut d_buf = vec![0.0; dirty.len()];
    for _ in 0..iterations {
        for slot in c_buf.iter_mut() {
            *slot = clean[rng.random_range(0..clean.len())];
        }
        for slot in d_buf.iter_mut() {
            *slot = dirty[rng.random_range(0..dirty.len())];
        }
        out.push(statistic(&c_buf) - statistic(&d_buf));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantile::quantile;

    fn median(xs: &[f64]) -> f64 {
        quantile(xs, 0.5)
    }

    fn data() -> Vec<f64> {
        (0..500).map(|i| ((i * 37) % 101) as f64).collect()
    }

    #[test]
    fn deterministic_per_seed() {
        let d = data();
        let a = bootstrap_distribution(&d, median, 50, 7);
        let b = bootstrap_distribution(&d, median, 50, 7);
        assert_eq!(a, b);
        let c = bootstrap_distribution(&d, median, 50, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn median_ci_covers_sample_median() {
        let d = data();
        let ci = bootstrap_ci(&d, median, 300, 0.95, 11);
        assert!(ci.contains(median(&d)));
        assert!(ci.half_width > 0.0);
        assert!(ci.half_width < 20.0, "median CI suspiciously wide: {}", ci.half_width);
    }

    #[test]
    fn tighter_with_more_data() {
        let small: Vec<f64> = data().into_iter().take(50).collect();
        let big = data();
        let ci_small = bootstrap_ci(&small, median, 300, 0.95, 3);
        let ci_big = bootstrap_ci(&big, median, 300, 0.95, 3);
        assert!(ci_big.half_width <= ci_small.half_width * 1.5);
    }

    #[test]
    fn paired_diff_centers_near_true_difference() {
        let clean: Vec<f64> = (0..400).map(|i| (i % 100) as f64 + 10.0).collect();
        let dirty: Vec<f64> = (0..400).map(|i| (i % 100) as f64).collect();
        let dist = bootstrap_paired_diff(&clean, &dirty, median, 200, 5);
        let m = crate::moments::Moments::of(&dist);
        assert!((m.mean() - 10.0).abs() < 2.0, "diff mean {}", m.mean());
    }
}
