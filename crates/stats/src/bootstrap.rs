//! The statistical bootstrap (Section 5.2.5).
//!
//! For aggregates that are not sample means (`median`, percentiles) the
//! paper bounds estimates empirically: repeatedly subsample *with
//! replacement*, apply the statistic, and read confidence bounds off the
//! empirical distribution. SVC+CORR uses the variant that bootstraps the
//! *difference* `c` between the clean-sample and dirty-sample statistics.
//!
//! The statistic is always a type-7 quantile ([`mod@crate::quantile`]), so a
//! resample is read off counts instead of being materialized and selected
//! on: the sample is sorted once and each position mapped to its rank; per
//! resample the drawn positions — the same `random_range` draws, in the
//! same order, as materializing the resample would take — are counted by
//! rank, and a prefix walk over the counts finds the two order statistics.
//! The result is the selection's bit for bit: values equal under
//! `f64::total_cmp` are the same bits, so the value at a rank does not
//! depend on which of its equals was drawn.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::clt::ConfidenceInterval;
use crate::quantile::{quantile, quantile_in_place, Type7};

/// A sample sorted once for bootstrapping one of its quantiles.
struct Ranked {
    /// The sample in `total_cmp` order.
    sorted: Vec<f64>,
    /// `rank[i]`: the position of the sample's `i`-th value in `sorted`.
    rank: Vec<u32>,
    /// Per rank, how often the current resample drew it.
    counts: Vec<u32>,
}

impl Ranked {
    fn new(data: &[f64]) -> Ranked {
        assert!(!data.is_empty(), "bootstrap of an empty sample");
        assert!(u32::try_from(data.len()).is_ok(), "bootstrap sample beyond u32 positions");
        let mut order: Vec<u32> = (0..data.len() as u32).collect();
        order.sort_by(|&a, &b| data[a as usize].total_cmp(&data[b as usize]));
        let mut rank = vec![0; data.len()];
        for (r, &i) in order.iter().enumerate() {
            rank[i as usize] = r as u32;
        }
        let sorted = order.iter().map(|&i| data[i as usize]).collect();
        Ranked { sorted, rank, counts: vec![0; data.len()] }
    }

    /// The `q`-quantile of one resample of `n` draws with replacement.
    fn resample_quantile(&mut self, rng: &mut StdRng, q: f64) -> f64 {
        let n = self.rank.len();
        self.counts.fill(0);
        for _ in 0..n {
            self.counts[self.rank[rng.random_range(0..n)] as usize] += 1;
        }
        if n == 1 {
            return self.sorted[0];
        }
        let at = Type7::new(n, q);
        // The resample's order statistic at position k lives at the first
        // rank whose running count exceeds k.
        let mut seen = 0;
        let mut at_lo = None;
        for (r, &c) in self.counts.iter().enumerate() {
            seen += c as usize;
            if at_lo.is_none() && seen > at.lo {
                at_lo = Some(self.sorted[r]);
            }
            if seen > at.hi {
                return at.interpolate(at_lo.expect("lo ≤ hi"), self.sorted[r]);
            }
        }
        unreachable!("a resample of n draws has an order statistic at every position below n")
    }
}

/// The bootstrap distribution of the `q`-quantile of `data`: `iterations`
/// resamples with replacement, each of `data.len()` elements.
/// Deterministic for a given `seed`.
pub fn bootstrap_quantile_distribution(
    data: &[f64],
    q: f64,
    iterations: usize,
    seed: u64,
) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sample = Ranked::new(data);
    (0..iterations).map(|_| sample.resample_quantile(&mut rng, q)).collect()
}

/// Percentile-method bootstrap confidence interval of the `q`-quantile of
/// `data`: the (α/2, 1−α/2) percentiles of the bootstrap distribution —
/// two selections on it, no sort — around the point estimate on the full
/// sample.
pub fn bootstrap_quantile_ci(
    data: &[f64],
    q: f64,
    iterations: usize,
    confidence: f64,
    seed: u64,
) -> ConfidenceInterval {
    let estimate = quantile(data, q);
    let mut dist = bootstrap_quantile_distribution(data, q, iterations, seed);
    let alpha = 1.0 - confidence;
    let lo = quantile_in_place(&mut dist, alpha / 2.0);
    let hi = quantile_in_place(&mut dist, 1.0 - alpha / 2.0);
    // Report symmetrized half-width around the point estimate; the paper's
    // procedure returns the raw percentiles (step 5 of Section 5.2.5), which
    // we preserve through lo/hi by centering on their midpoint.
    let half_width = ((hi - lo) / 2.0).max((estimate - lo).abs().max((hi - estimate).abs()));
    ConfidenceInterval { estimate, half_width, confidence }
}

/// Bootstrap for paired data: the distribution of the `q`-quantile of
/// `clean` minus that of `dirty` over simultaneous resamples (each
/// resample draws `clean`'s rows, then `dirty`'s), used by SVC+CORR to
/// bound the correction `c` (Section 5.2.5).
pub fn bootstrap_quantile_paired_diff(
    clean: &[f64],
    dirty: &[f64],
    q: f64,
    iterations: usize,
    seed: u64,
) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut clean, mut dirty) = (Ranked::new(clean), Ranked::new(dirty));
    (0..iterations)
        .map(|_| {
            let c = clean.resample_quantile(&mut rng, q);
            c - dirty.resample_quantile(&mut rng, q)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The selection path the rank counts replace: materialize each
    /// resample, select its quantile.
    mod selection {
        use super::*;

        pub(super) fn distribution(data: &[f64], q: f64, iterations: usize, seed: u64) -> Vec<f64> {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut resample = vec![0.0; data.len()];
            (0..iterations)
                .map(|_| {
                    for slot in resample.iter_mut() {
                        *slot = data[rng.random_range(0..data.len())];
                    }
                    quantile(&resample, q)
                })
                .collect()
        }

        pub(super) fn ci(
            data: &[f64],
            q: f64,
            iterations: usize,
            conf: f64,
            seed: u64,
        ) -> [f64; 2] {
            let point = quantile(data, q);
            let mut dist = distribution(data, q, iterations, seed);
            let alpha = 1.0 - conf;
            let lo = quantile_in_place(&mut dist, alpha / 2.0);
            let hi = quantile_in_place(&mut dist, 1.0 - alpha / 2.0);
            [point, ((hi - lo) / 2.0).max((point - lo).abs().max((hi - point).abs()))]
        }

        pub(super) fn paired(c: &[f64], d: &[f64], q: f64, iters: usize, seed: u64) -> Vec<f64> {
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut cb, mut db) = (vec![0.0; c.len()], vec![0.0; d.len()]);
            (0..iters)
                .map(|_| {
                    for slot in cb.iter_mut() {
                        *slot = c[rng.random_range(0..c.len())];
                    }
                    for slot in db.iter_mut() {
                        *slot = d[rng.random_range(0..d.len())];
                    }
                    quantile(&cb, q) - quantile(&db, q)
                })
                .collect()
        }
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    fn data() -> Vec<f64> {
        (0..500).map(|i| ((i * 37) % 101) as f64).collect()
    }

    /// Samples with duplicates, NaN of both signs, ±0 and ±∞ among finite
    /// values, at sizes 1, 2, 3, 7, 50 and 301.
    fn generated() -> Vec<Vec<f64>> {
        let mut s = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let specials = [f64::NAN, -f64::NAN, 0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, 1.5];
        let mut out = vec![data()];
        for n in [1usize, 2, 3, 7, 50, 301] {
            for _ in 0..6 {
                out.push(
                    (0..n)
                        .map(|_| match next() % 4 {
                            0 => specials[(next() % specials.len() as u64) as usize],
                            1 => (next() % 5) as f64,
                            _ => (next() % 1000) as f64 / 7.0 - 70.0,
                        })
                        .collect(),
                );
            }
        }
        out
    }

    #[test]
    fn rank_counts_equal_the_selection_bit_for_bit() {
        let samples = generated();
        for (i, d) in samples.iter().enumerate() {
            for q in [0.5, 0.0, 1.0, 0.1, 0.9, 0.37] {
                let seed = 17 + i as u64;
                let want = selection::distribution(d, q, 60, seed);
                assert_eq!(bits(&bootstrap_quantile_distribution(d, q, 60, seed)), bits(&want));
                let ci = bootstrap_quantile_ci(d, q, 60, 0.95, seed);
                assert_eq!(
                    bits(&[ci.estimate, ci.half_width]),
                    bits(&selection::ci(d, q, 60, 0.95, seed)),
                    "sample {i} q {q}"
                );
                let other = &samples[(i + 3) % samples.len()];
                let want = selection::paired(d, other, q, 60, seed);
                assert_eq!(
                    bits(&bootstrap_quantile_paired_diff(d, other, q, 60, seed)),
                    bits(&want)
                );
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let d = data();
        let a = bootstrap_quantile_distribution(&d, 0.5, 50, 7);
        let b = bootstrap_quantile_distribution(&d, 0.5, 50, 7);
        assert_eq!(a, b);
        let c = bootstrap_quantile_distribution(&d, 0.5, 50, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn median_ci_covers_sample_median() {
        let d = data();
        let ci = bootstrap_quantile_ci(&d, 0.5, 300, 0.95, 11);
        assert!(ci.contains(quantile(&d, 0.5)));
        assert!(ci.half_width > 0.0);
        assert!(ci.half_width < 20.0, "median CI suspiciously wide: {}", ci.half_width);
    }

    #[test]
    fn tighter_with_more_data() {
        let small: Vec<f64> = data().into_iter().take(50).collect();
        let big = data();
        let ci_small = bootstrap_quantile_ci(&small, 0.5, 300, 0.95, 3);
        let ci_big = bootstrap_quantile_ci(&big, 0.5, 300, 0.95, 3);
        assert!(ci_big.half_width <= ci_small.half_width * 1.5);
    }

    #[test]
    fn paired_diff_centers_near_true_difference() {
        let clean: Vec<f64> = (0..400).map(|i| (i % 100) as f64 + 10.0).collect();
        let dirty: Vec<f64> = (0..400).map(|i| (i % 100) as f64).collect();
        let dist = bootstrap_quantile_paired_diff(&clean, &dirty, 0.5, 200, 5);
        let m = crate::moments::Moments::of(&dist);
        assert!((m.mean() - 10.0).abs() < 2.0, "diff mean {}", m.mean());
    }
}
