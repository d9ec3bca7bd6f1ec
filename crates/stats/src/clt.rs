//! Central Limit Theorem confidence intervals (Section 5.2.1).
//!
//! For aggregates expressible as sample means, the error `(µ − µ̄)` is
//! asymptotically `N(0, σ²/k)`, so the interval is `µ̄ ± γ·√(σ²/k)` where γ
//! is the Gaussian tail value (1.96 for 95%, 2.57 for 99% — the constants
//! quoted in the paper). Totals read off a Bernoulli sample (`sum`, `count`)
//! take the Horvitz–Thompson variance instead, which also counts the
//! randomness of the sample size.

/// A symmetric confidence interval around an estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Point estimate.
    pub estimate: f64,
    /// Half-width of the interval (`γ·se`).
    pub half_width: f64,
    /// Confidence level in (0, 1), e.g. 0.95.
    pub confidence: f64,
}

impl ConfidenceInterval {
    /// Lower bound.
    pub fn lo(&self) -> f64 {
        self.estimate - self.half_width
    }

    /// Upper bound.
    pub fn hi(&self) -> f64 {
        self.estimate + self.half_width
    }

    /// True iff `x` falls inside the interval.
    pub fn contains(&self, x: f64) -> bool {
        x >= self.lo() && x <= self.hi()
    }
}

/// Two-sided Gaussian tail value γ for a confidence level: the z with
/// `P(|Z| ≤ z) = confidence`. Computed with the Acklam rational
/// approximation of the inverse normal CDF (|relative error| < 1.15e-9),
/// so arbitrary levels work, not just the tabulated ones.
pub fn gaussian_gamma(confidence: f64) -> f64 {
    assert!((0.0..1.0).contains(&confidence), "confidence must be in (0,1), got {confidence}");
    let p = 0.5 + confidence / 2.0;
    inverse_normal_cdf(p)
}

/// Inverse standard-normal CDF (Acklam's algorithm).
fn inverse_normal_cdf(p: f64) -> f64 {
    assert!((0.0..1.0).contains(&p) && p > 0.0);
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        -inverse_normal_cdf(1.0 - p)
    }
}

/// CI for a *sample mean* from its moments: `mean ± γ·σ/√k`.
pub fn mean_interval(mean: f64, variance: f64, k: u64, confidence: f64) -> ConfidenceInterval {
    let se = if k == 0 { 0.0 } else { (variance / k as f64).sqrt() };
    ConfidenceInterval { estimate: mean, half_width: gaussian_gamma(confidence) * se, confidence }
}

/// CI for a Horvitz–Thompson total over a Bernoulli sample: each population
/// row entered the sample independently with probability `m` and
/// contributes `dᵢ = yᵢ/m`, so `sum = Σ dᵢ` estimates `Σ yᵢ` and
/// `(1−m)·Σ dᵢ²` estimates its variance without bias. The interval is
/// `sum ± γ·√((1−m)·Σ dᵢ²)`; unlike a fixed-size `σ·√k` it counts the
/// randomness of the sample size, so a constant term (`count(*)`) still
/// gets a width.
pub fn horvitz_thompson_interval(
    sum: f64,
    sum_of_squares: f64,
    m: f64,
    confidence: f64,
) -> ConfidenceInterval {
    let se = ((1.0 - m) * sum_of_squares).sqrt();
    ConfidenceInterval { estimate: sum, half_width: gaussian_gamma(confidence) * se, confidence }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_gamma_constants() {
        // "1.96 for 95%, 2.57 for 99%" (Section 5.2.1).
        assert!((gaussian_gamma(0.95) - 1.959964).abs() < 1e-4);
        assert!((gaussian_gamma(0.99) - 2.575829).abs() < 1e-4);
        assert!((gaussian_gamma(0.5) - 0.674490).abs() < 1e-4);
    }

    #[test]
    fn interval_geometry() {
        let ci = mean_interval(10.0, 4.0, 100, 0.95);
        assert!((ci.half_width - 1.96 * 0.2).abs() < 1e-3);
        assert!(ci.contains(10.0));
        assert!(ci.contains(ci.lo()) && ci.contains(ci.hi()));
        assert!(!ci.contains(ci.hi() + 1e-6));
    }

    #[test]
    fn coverage_simulation() {
        // Empirical check: ~95% of CLT intervals over repeated samples cover
        // the true mean. Deterministic LCG sampling keeps the test stable.
        let mut state = 88172645463325252u64;
        let mut uniform = || {
            // xorshift64
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let true_mean = 0.5;
        let trials = 400;
        let k = 200;
        let mut covered = 0;
        for _ in 0..trials {
            let xs: Vec<f64> = (0..k).map(|_| uniform()).collect();
            let m = crate::moments::Moments::of(&xs);
            let ci = mean_interval(m.mean(), m.variance(), k as u64, 0.95);
            if ci.contains(true_mean) {
                covered += 1;
            }
        }
        let rate = covered as f64 / trials as f64;
        assert!((0.90..=0.99).contains(&rate), "coverage {rate}");
    }

    #[test]
    fn horvitz_thompson_interval_geometry() {
        // Four times the squared mass doubles the width; a full sample
        // (m = 1) has no sampling error at all.
        let a = horvitz_thompson_interval(100.0, 100.0, 0.1, 0.95);
        let b = horvitz_thompson_interval(100.0, 400.0, 0.1, 0.95);
        assert!((b.half_width / a.half_width - 2.0).abs() < 1e-9);
        assert!((a.half_width - gaussian_gamma(0.95) * 90f64.sqrt()).abs() < 1e-9);
        assert_eq!(horvitz_thompson_interval(100.0, 100.0, 1.0, 0.95).half_width, 0.0);
    }

    #[test]
    fn horvitz_thompson_count_covers_a_bernoulli_sample_size() {
        // count(*) over Bernoulli(m) draws of n rows: every term is 1/m, so a
        // fixed-size variance is 0, while the sample size itself varies.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut uniform = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let (n, m, trials) = (2000, 0.1, 400);
        let mut covered = 0;
        for _ in 0..trials {
            let k = (0..n).filter(|_| uniform() < m).count() as f64;
            let ci = horvitz_thompson_interval(k / m, k / (m * m), m, 0.95);
            covered += usize::from(ci.contains(n as f64));
        }
        let rate = covered as f64 / trials as f64;
        assert!((0.90..=0.99).contains(&rate), "coverage {rate}");
    }

    #[test]
    #[should_panic]
    fn invalid_confidence_panics() {
        gaussian_gamma(1.0);
    }
}
