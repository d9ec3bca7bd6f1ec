//! The statistical bootstrap (Section 5.2.5), kept as a reference.
//!
//! For aggregates that are not sample means (`median`, percentiles) the
//! paper bounds estimates empirically: repeatedly subsample *with
//! replacement*, apply the statistic, and read confidence bounds off the
//! empirical distribution. SVC+CORR uses the variant that bootstraps the
//! *difference* `c` between the clean-sample and dirty-sample statistics.
//!
//! No estimator draws from here any more: the quantile intervals need no
//! resample ([`mod@crate::quantile`]: distribution-free binomial ranks for
//! a sample quantile, Woodruff's inversion for a corrected CDF). What
//! remains is the reference the tests hold those intervals against, and
//! is itself held bit for bit to materializing every resample.
//!
//! That difference is bootstrapped **by key**. Theorem 1's correspondence
//! pairs each key's stale value with its clean value, and the correction's
//! variance is var(Ŝ′) + var(Ŝ) − 2 cov(Ŝ, Ŝ′): most keys are unchanged,
//! so the covariance is large, and two independent resamples — one per
//! sample — would throw it away and report an interval several times too
//! wide. A resample here draws keys, each with both of its values; a key
//! with a value on one side only adds it to that side alone, and a
//! resample that leaves a side with no value has no difference: it is
//! skipped and counted ([`PairedDiff::skipped`]).
//!
//! The statistic is always a type-7 quantile ([`mod@crate::quantile`]), so a
//! resample is read off counts instead of being materialized and selected
//! on: each side is sorted once and each position mapped to its rank; per
//! resample the drawn positions — the same `random_range` draws, in the
//! same order, as materializing the resample would take — are counted by
//! rank, and a prefix walk over the counts, a block of ranks at a time,
//! finds the two order statistics. The result is the selection's bit for
//! bit: values equal under `f64::total_cmp` are the same bits, so the value
//! at a rank does not depend on which of its equals was drawn.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::clt::ConfidenceInterval;
use crate::quantile::{quantile, quantile_in_place, Type7};

/// Ranks the prefix walk sums at once before it looks inside a block.
const WALK_BLOCK: usize = 16;

/// One side of a sample sorted once for bootstrapping its quantiles: a
/// value, or none, per position of the sample.
struct Ranked {
    /// The side's values in `total_cmp` order.
    sorted: Vec<f64>,
    /// `rank[i]`: the position of the `i`-th value in `sorted`; a position
    /// with no value ranks one past the end (`sorted.len()`).
    rank: Vec<u32>,
    /// Per rank, how often the current resample drew it; the last slot
    /// counts the drawn positions with no value.
    counts: Vec<u32>,
}

impl Ranked {
    fn new(values: &[Option<f64>]) -> Ranked {
        assert!(u32::try_from(values.len()).is_ok(), "bootstrap sample beyond u32 positions");
        let mut order: Vec<u32> =
            (0..values.len() as u32).filter(|&i| values[i as usize].is_some()).collect();
        let value = |i: u32| values[i as usize].expect("a position with a value");
        order.sort_by(|&a, &b| value(a).total_cmp(&value(b)));
        let mut rank = vec![order.len() as u32; values.len()];
        for (r, &i) in order.iter().enumerate() {
            rank[i as usize] = r as u32;
        }
        let sorted = order.iter().map(|&i| value(i)).collect();
        Ranked { sorted, rank, counts: vec![0; order.len() + 1] }
    }

    /// Count one more draw of position `i`.
    #[inline(always)]
    fn draw(&mut self, i: usize) {
        self.counts[self.rank[i] as usize] += 1;
    }

    /// The `q`-quantile of the values the current resample drew (`draws`
    /// positions in all), `None` if it drew none; the counts are cleared
    /// for the next resample.
    fn take_quantile(&mut self, draws: usize, q: f64) -> Option<f64> {
        let (present, missing) = self.counts.split_at(self.sorted.len());
        let n = draws - missing[0] as usize;
        let value = (n > 0).then(|| {
            let at = Type7::new(n, q);
            let (lo, seen) = first_past(present, at.lo);
            if n == 1 {
                return self.sorted[lo];
            }
            // The next order statistic is at the same rank while that
            // rank's draws reach past it, else at the next rank drawn.
            let hi = if seen > at.hi {
                lo
            } else {
                lo + 1 + present[lo + 1..].iter().position(|&c| c > 0).expect("hi < n")
            };
            at.interpolate(self.sorted[lo], self.sorted[hi])
        });
        self.counts.fill(0);
        value
    }
}

/// The first rank whose running count exceeds `k`, and that running count:
/// whole blocks of ranks are summed and stepped over while the count stays
/// at or below `k`, so the walk looks at single ranks in one block only.
#[inline]
fn first_past(counts: &[u32], k: usize) -> (usize, usize) {
    let (mut r, mut seen) = (0, 0usize);
    for block in counts.chunks_exact(WALK_BLOCK) {
        let sum = block.iter().sum::<u32>() as usize;
        if seen + sum > k {
            break;
        }
        seen += sum;
        r += WALK_BLOCK;
    }
    loop {
        seen += counts[r] as usize;
        if seen > k {
            return (r, seen);
        }
        r += 1;
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
    assert!(!data.is_empty(), "bootstrap of an empty sample");
    let mut rng = StdRng::seed_from_u64(seed);
    let n = data.len();
    let mut sample = Ranked::new(&data.iter().copied().map(Some).collect::<Vec<_>>());
    (0..iterations)
        .map(|_| {
            for _ in 0..n {
                sample.draw(rng.random_range(0..n));
            }
            sample.take_quantile(n, q).expect("a resample of a non-empty sample has a value")
        })
        .collect()
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

/// The key-paired bootstrap of a quantile difference
/// ([`bootstrap_quantile_paired_diff`]).
#[derive(Debug, Clone, PartialEq)]
pub struct PairedDiff {
    /// Per resample that drew a value on both sides, in draw order: the
    /// clean side's quantile minus the stale side's.
    pub diffs: Vec<f64>,
    /// Resamples that drew no value on a side, and so have no difference.
    pub skipped: usize,
}

/// Key-paired bootstrap for SVC+CORR's correction (Section 5.2.5): the
/// distribution of the `q`-quantile of the clean values minus that of the
/// stale values over resamples of `pairs`, one `(stale, clean)` value pair
/// per key (`None`: the key has no value on that side). Each resample
/// draws `pairs.len()` keys with replacement and takes each side's
/// quantile over the values its keys have; one with no value on a side is
/// skipped and counted. Deterministic for a given `seed`.
pub fn bootstrap_quantile_paired_diff(
    pairs: &[(Option<f64>, Option<f64>)],
    q: f64,
    iterations: usize,
    seed: u64,
) -> PairedDiff {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = pairs.len();
    let (stale, clean): (Vec<_>, Vec<_>) = pairs.iter().copied().unzip();
    let (mut stale, mut clean) = (Ranked::new(&stale), Ranked::new(&clean));
    let mut out = PairedDiff { diffs: Vec::with_capacity(iterations), skipped: 0 };
    for _ in 0..iterations {
        for _ in 0..n {
            let i = rng.random_range(0..n);
            stale.draw(i);
            clean.draw(i);
        }
        match (clean.take_quantile(n, q), stale.take_quantile(n, q)) {
            (Some(c), Some(s)) => out.diffs.push(c - s),
            _ => out.skipped += 1,
        }
    }
    out
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

        /// Key-paired: materialize each resample's pairs, then select each
        /// side's quantile over the values present; a resample with no value
        /// on a side is skipped and counted.
        pub(super) fn paired(
            pairs: &[(Option<f64>, Option<f64>)],
            q: f64,
            iters: usize,
            seed: u64,
        ) -> PairedDiff {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut out = PairedDiff { diffs: Vec::new(), skipped: 0 };
            for _ in 0..iters {
                let drawn: Vec<_> =
                    (0..pairs.len()).map(|_| pairs[rng.random_range(0..pairs.len())]).collect();
                let stale: Vec<f64> = drawn.iter().filter_map(|p| p.0).collect();
                let clean: Vec<f64> = drawn.iter().filter_map(|p| p.1).collect();
                if stale.is_empty() || clean.is_empty() {
                    out.skipped += 1;
                } else {
                    out.diffs.push(quantile(&clean, q) - quantile(&stale, q));
                }
            }
            out
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

    /// Key pairs over two samples: `d` against `other` position by
    /// position (keys past the shorter one have one side only), every
    /// third key missing its stale value and every fifth its clean one,
    /// and all-one-sided pairs of each kind.
    fn paired_cases(d: &[f64], other: &[f64]) -> Vec<Vec<(Option<f64>, Option<f64>)>> {
        let n = d.len().max(other.len());
        let zipped: Vec<_> = (0..n).map(|i| (other.get(i).copied(), d.get(i).copied())).collect();
        let holed = zipped
            .iter()
            .enumerate()
            .map(|(i, &(s, c))| (s.filter(|_| i % 3 != 1), c.filter(|_| i % 5 != 2 || s.is_none())))
            .filter(|&(s, c)| s.is_some() || c.is_some())
            .collect();
        let stale_only = d.iter().map(|&x| (Some(x), None)).collect();
        let clean_only = d.iter().map(|&x| (None, Some(x))).collect();
        vec![zipped, holed, stale_only, clean_only]
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
                for pairs in paired_cases(d, other) {
                    let want = selection::paired(&pairs, q, 60, seed);
                    let got = bootstrap_quantile_paired_diff(&pairs, q, 60, seed);
                    assert_eq!(
                        (bits(&got.diffs), got.skipped),
                        (bits(&want.diffs), want.skipped),
                        "sample {i} q {q}, paired"
                    );
                }
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
        let pairs: Vec<_> =
            (0..400).map(|i| (Some((i % 100) as f64), Some((i % 100) as f64 + 10.0))).collect();
        let boot = bootstrap_quantile_paired_diff(&pairs, 0.5, 200, 5);
        let m = crate::moments::Moments::of(&boot.diffs);
        assert!((m.mean() - 10.0).abs() < 2.0, "diff mean {}", m.mean());
        // Every key moved by exactly 10: each resample's difference is 10.
        assert!(boot.diffs.iter().all(|&d| d == 10.0) && boot.skipped == 0);
    }

    /// Pairing keeps the covariance: where most keys are unchanged, the
    /// key-paired differences spread far less than two independent
    /// resamples' would.
    #[test]
    fn paired_diff_is_narrow_when_most_keys_are_unchanged() {
        let pairs: Vec<_> = (0..400)
            .map(|i| {
                let x = ((i * 37) % 101) as f64;
                (Some(x), Some(if i % 20 == 0 { x + 5.0 } else { x }))
            })
            .collect();
        let spread = |xs: &[f64]| crate::moments::Moments::of(xs).variance().sqrt();
        let paired = bootstrap_quantile_paired_diff(&pairs, 0.5, 200, 9).diffs;
        let (stale, clean): (Vec<f64>, Vec<f64>) =
            pairs.iter().map(|&(s, c)| (s.unwrap(), c.unwrap())).unzip();
        let independent: Vec<f64> = bootstrap_quantile_distribution(&clean, 0.5, 200, 9)
            .iter()
            .zip(bootstrap_quantile_distribution(&stale, 0.5, 200, 10))
            .map(|(c, s)| c - s)
            .collect();
        assert!(
            spread(&paired) * 3.0 < spread(&independent),
            "paired sd {} against independent sd {}",
            spread(&paired),
            spread(&independent)
        );
    }

    /// A resample with no value on a side is skipped and counted; when
    /// every one is, there is no difference at all (and no panic).
    #[test]
    fn one_sided_resamples_are_skipped_and_counted() {
        let one_sided = [(Some(1.0), None), (None, Some(2.0))];
        let boot = bootstrap_quantile_paired_diff(&one_sided, 0.5, 400, 3);
        assert_eq!(boot.diffs.len() + boot.skipped, 400);
        assert!(boot.skipped > 0 && !boot.diffs.is_empty(), "{boot:?}");
        assert!(boot.diffs.iter().all(|&d| d == 1.0));
        let stale_only = [(Some(1.0), None), (Some(3.0), None)];
        let boot = bootstrap_quantile_paired_diff(&stale_only, 0.5, 50, 3);
        assert_eq!((boot.diffs.len(), boot.skipped), (0, 50));
        let boot = bootstrap_quantile_paired_diff(&[], 0.5, 7, 3);
        assert_eq!((boot.diffs.len(), boot.skipped), (0, 7));
    }
}
