//! Exact quantiles of in-memory samples (linear interpolation between order
//! statistics, the common "type 7" definition).
//!
//! A quantile reads one or two order statistics, so it finds them by
//! selection — `select_nth_unstable_by(f64::total_cmp)` for the lower one,
//! the minimum of the part above it for the upper one — rather than by a
//! full sort. Under the total order both are the values a sort would put at
//! those positions, bit for bit.

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

/// Where the type-7 `q`-quantile of `n > 1` values sits: between the order
/// statistics at `lo` and `hi` (0-based, `hi ≤ lo + 1`), `frac` of the way.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Type7 {
    pub(crate) lo: usize,
    pub(crate) hi: usize,
    frac: f64,
}

impl Type7 {
    pub(crate) fn new(n: usize, q: f64) -> Type7 {
        let pos = q * (n - 1) as f64;
        let lo = pos.floor() as usize;
        Type7 { lo, hi: pos.ceil() as usize, frac: pos - lo as f64 }
    }

    /// The quantile given the order statistics at `lo` and `hi` — the one
    /// formula every quantile in this crate ends in.
    pub(crate) fn interpolate(self, at_lo: f64, at_hi: f64) -> f64 {
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
