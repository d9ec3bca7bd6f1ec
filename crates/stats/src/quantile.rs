//! Exact quantiles of in-memory samples (linear interpolation between order
//! statistics, the common "type 7" definition), and the two draw-free
//! intervals of a quantile estimate.
//!
//! A quantile reads one or two order statistics, so it finds them by
//! selection — `select_nth_unstable_by(f64::total_cmp)` for the lower one,
//! the minimum of the part above it for the upper one — rather than by a
//! full sort. Under the total order both are the values a sort would put at
//! those positions, bit for bit. [`quantile_of`] reads them through any
//! inverse CDF instead, over a count that may be an estimate.
//!
//! The intervals need no resample. A sample quantile's is distribution-free
//! ([`binomial_ranks`]): the number of sample values below a population
//! quantile is binomial. A quantile read off an estimated CDF takes the
//! interval of the count at the estimate and maps both ends through the
//! same inverse ([`woodruff_interval`]; Woodruff 1952).

use crate::clt::gaussian_gamma;

/// The `q`-quantile (`q ∈ [0,1]`) of a slice in any order; the input is
/// copied. Panics on an empty slice or a level outside `[0, 1]`.
pub fn quantile(data: &[f64], q: f64) -> f64 {
    assert!(!data.is_empty(), "quantile of empty data");
    assert!((0.0..=1.0).contains(&q), "quantile level {q} outside [0,1]");
    quantile_in_place(&mut data.to_vec(), q)
}

/// The `q`-quantile of `data`, reordering it instead of copying it. Same
/// value as [`quantile`]; the caller vouches for a non-empty slice and a
/// level in `[0, 1]`.
pub fn quantile_in_place(data: &mut [f64], q: f64) -> f64 {
    let n = data.len();
    if n == 1 {
        return data[0];
    }
    let at = Type7::new(n, q);
    let (_, &mut at_lo, above) = data.select_nth_unstable_by(at.lo, f64::total_cmp);
    let at_hi = if at.hi == at.lo {
        at_lo
    } else {
        above.iter().copied().min_by(f64::total_cmp).expect("hi < n leaves an upper part")
    };
    at.interpolate(at_lo, at_hi)
}

/// The type-7 `q`-quantile of `n` values read through `order_statistic`,
/// which gives the value at a 0-based rank. `n` may be an estimated count,
/// not a whole number; with `n = 1` the one value is returned as it is, as
/// [`quantile_in_place`] does. For a whole `n` and the sorted values this
/// is [`quantile`]'s answer bit for bit.
pub fn quantile_of(n: f64, q: f64, mut order_statistic: impl FnMut(usize) -> f64) -> f64 {
    if n == 1.0 {
        return order_statistic(0);
    }
    quantile_at(q * (n - 1.0), order_statistic)
}

/// The value at 0-based position `pos` (a negative one reads as 0) among
/// values read through `order_statistic`: the rank below it moved the
/// fraction of the way to the rank above, read only when it differs.
fn quantile_at(pos: f64, mut order_statistic: impl FnMut(usize) -> f64) -> f64 {
    let at = Type7::at(pos);
    let lo = order_statistic(at.lo);
    let hi = if at.hi == at.lo { lo } else { order_statistic(at.hi) };
    at.interpolate(lo, hi)
}

/// Woodruff's interval of a quantile read at 0-based position `pos` off an
/// estimated CDF whose count there is known to within `± count_half_width`:
/// both ends of the count's interval, mapped through the same inverse
/// (`order_statistic`, read as in [`quantile_of`]). `lo ≤ hi` for a
/// monotone inverse.
pub fn woodruff_interval(
    pos: f64,
    count_half_width: f64,
    mut order_statistic: impl FnMut(usize) -> f64,
) -> (f64, f64) {
    let lo = quantile_at(pos - count_half_width, &mut order_statistic);
    (lo, quantile_at(pos + count_half_width, order_statistic))
}

/// The distribution-free interval of the `q`-quantile of `n ≥ 1` sampled
/// values, at `confidence`: the order statistics at the 1-based ranks
/// `⌊np − z·√(np(1−p))⌋` and `⌈np + z·√(np(1−p))⌉`, clamped to the sample,
/// returned as 0-based ranks.
pub fn binomial_ranks(n: usize, q: f64, confidence: f64) -> (usize, usize) {
    let center = n as f64 * q;
    let spread = gaussian_gamma(confidence) * (center * (1.0 - q)).sqrt();
    let rank = |r: f64| (r.clamp(1.0, n as f64) as usize) - 1;
    (rank((center - spread).floor()), rank((center + spread).ceil()))
}

/// Where the type-7 `q`-quantile of `n > 1` values sits: between the order
/// statistics at `lo` and `hi` (0-based, `hi ≤ lo + 1`), `frac` of the way.
#[derive(Debug, Clone, Copy)]
struct Type7 {
    lo: usize,
    hi: usize,
    frac: f64,
}

impl Type7 {
    fn new(n: usize, q: f64) -> Type7 {
        Type7::at(q * (n - 1) as f64)
    }

    /// At 0-based position `pos`; a negative one reads as 0.
    fn at(pos: f64) -> Type7 {
        let pos = if pos < 0.0 { 0.0 } else { pos };
        let lo = pos.floor() as usize;
        Type7 { lo, hi: pos.ceil() as usize, frac: pos - lo as f64 }
    }

    /// The quantile given the order statistics at `lo` and `hi` — the one
    /// formula every quantile in this crate ends in.
    fn interpolate(self, at_lo: f64, at_hi: f64) -> f64 {
        at_lo + (at_hi - at_lo) * self.frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn median(data: &[f64]) -> f64 {
        quantile(data, 0.5)
    }

    /// The sort-based definition the selection must reproduce.
    fn sorted_quantile(data: &[f64], q: f64) -> f64 {
        let mut v = data.to_vec();
        v.sort_by(f64::total_cmp);
        if v.len() == 1 {
            return v[0];
        }
        let pos = q * (v.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn quantile_endpoints() {
        let d = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&d, 0.0), 1.0);
        assert_eq!(quantile(&d, 1.0), 4.0);
    }

    #[test]
    fn interpolation() {
        let d = [0.0, 10.0];
        assert!((quantile(&d, 0.75) - 7.5).abs() < 1e-12);
    }

    #[test]
    fn p75_of_uniform() {
        let d: Vec<f64> = (0..101).map(|i| i as f64).collect();
        assert!((quantile(&d, 0.75) - 75.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn empty_panics() {
        median(&[]);
    }

    /// At a whole count, [`quantile_of`] over the sorted values is the
    /// selection's answer bit for bit — one value, ±∞ and NaN included.
    #[test]
    fn reading_through_ranks_equals_the_selection() {
        let specials = [f64::NAN, 0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, 1.5, 1.5, 7.0];
        for n in 1..=specials.len() {
            let mut sorted = specials[..n].to_vec();
            sorted.sort_by(f64::total_cmp);
            for q in [0.0, 0.25, 0.37, 0.5, 0.9, 1.0] {
                let got = quantile_of(n as f64, q, |k| sorted[k]);
                assert_eq!(got.to_bits(), quantile(&specials[..n], q).to_bits(), "n {n} q {q}");
            }
        }
    }

    #[test]
    fn binomial_ranks_bracket_the_quantile() {
        // n = 100, p = 0.5: 50 ± 1.96·5 → ranks 40 and 60 (1-based).
        assert_eq!(binomial_ranks(100, 0.5, 0.95), (39, 59));
        // Clamped to the sample at the ends and for tiny samples.
        assert_eq!(binomial_ranks(1, 0.5, 0.95), (0, 0));
        assert_eq!(binomial_ranks(10, 0.0, 0.95), (0, 0));
        assert_eq!(binomial_ranks(10, 1.0, 0.95), (9, 9));
        let (lo, hi) = binomial_ranks(1000, 0.9, 0.99);
        assert!(lo < 899 && hi > 899 && hi < 1000, "{lo} {hi}");
    }

    #[test]
    fn woodruff_maps_the_count_interval_through_the_inverse() {
        let sorted: Vec<f64> = (0..11).map(|i| f64::from(i) * 10.0).collect();
        let at = |k: usize| sorted[k.min(10)];
        assert_eq!(woodruff_interval(5.0, 2.5, at), (25.0, 75.0));
        assert_eq!(woodruff_interval(1.0, 3.0, at), (0.0, 40.0));
        assert_eq!(woodruff_interval(5.0, 0.0, at), (50.0, 50.0));
    }

    #[test]
    fn selection_equals_the_sort_on_nan_signed_zeros_and_duplicates() {
        let mut s = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let specials = [f64::NAN, -f64::NAN, 0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, 1.5];
        for n in [1usize, 2, 3, 7, 50, 301] {
            for _ in 0..20 {
                let data: Vec<f64> = (0..n)
                    .map(|_| match next() % 4 {
                        0 => specials[(next() % specials.len() as u64) as usize],
                        1 => (next() % 5) as f64,
                        _ => (next() % 1000) as f64 / 7.0 - 70.0,
                    })
                    .collect();
                let random = (next() % 10_001) as f64 / 10_000.0;
                for q in [0.0, 0.5, 1.0, 0.025, 0.975, random] {
                    let want = sorted_quantile(&data, q);
                    assert_eq!(quantile(&data, q).to_bits(), want.to_bits(), "n {n} q {q}");
                    let mut copy = data.clone();
                    assert_eq!(quantile_in_place(&mut copy, q).to_bits(), want.to_bits());
                }
            }
        }
    }
}
