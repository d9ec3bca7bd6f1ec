//! Cantelli (one-sided Chebyshev) bounds for `min`/`max` queries
//! (Appendix 12.1.1).
//!
//! `min`/`max` cannot be bootstrap-bounded; instead the paper reports the
//! probability that an element *larger* (resp. *smaller*) than the
//! corrected extreme exists in the unsampled portion:
//!
//! `P(X ≥ µ + ε) ≤ var(X) / (var(X) + ε²)`.

/// Cantelli upper-tail bound: probability that a random element exceeds the
/// mean by at least `epsilon`. Returns 1 when `epsilon ≤ 0`.
pub fn cantelli_exceedance(variance: f64, epsilon: f64) -> f64 {
    assert!(variance >= 0.0, "variance must be non-negative");
    if epsilon <= 0.0 {
        return 1.0;
    }
    variance / (variance + epsilon * epsilon)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_decreases_with_epsilon() {
        let v = 4.0;
        let p1 = cantelli_exceedance(v, 1.0);
        let p2 = cantelli_exceedance(v, 2.0);
        let p4 = cantelli_exceedance(v, 4.0);
        assert!(p1 > p2 && p2 > p4);
        assert!((p2 - 0.5).abs() < 1e-12); // var=4, ε=2 → 4/(4+4)
    }

    #[test]
    fn degenerate_epsilon() {
        assert_eq!(cantelli_exceedance(1.0, 0.0), 1.0);
        assert_eq!(cantelli_exceedance(1.0, -1.0), 1.0);
    }

    #[test]
    fn zero_variance_is_certain() {
        assert_eq!(cantelli_exceedance(0.0, 0.5), 0.0);
    }

    #[test]
    fn bound_is_valid_probability() {
        for &v in &[0.0, 0.5, 10.0, 1e6] {
            for &e in &[0.1, 1.0, 100.0] {
                let p = cantelli_exceedance(v, e);
                assert!((0.0..=1.0).contains(&p));
            }
        }
    }
}
