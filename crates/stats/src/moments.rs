//! Streaming first and second moments (Welford's algorithm).

/// Running count, mean, and variance of a stream of numbers, numerically
/// stable under long streams.
#[derive(Debug, Clone, Copy, Default)]
pub struct Moments {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Moments {
    /// An empty accumulator.
    pub fn new() -> Moments {
        Moments::default()
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 for an empty stream).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (n−1 denominator; 0 when n < 2).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }
}

/// What the tests take beside the estimator's surface: a whole slice at
/// once, the sum, and the parallel merge.
#[cfg(test)]
impl Moments {
    /// Accumulate all values of a slice.
    pub(crate) fn of(values: &[f64]) -> Moments {
        let mut m = Moments::new();
        for &v in values {
            m.push(v);
        }
        m
    }

    /// Sum of observations.
    pub(crate) fn sum(&self) -> f64 {
        self.mean * self.n as f64
    }

    /// Merge two accumulators (parallel Welford).
    pub(crate) fn merge(&self, other: &Moments) -> Moments {
        if self.n == 0 {
            return *other;
        }
        if other.n == 0 {
            return *self;
        }
        let n = self.n + other.n;
        let d = other.mean - self.mean;
        let mean = self.mean + d * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + d * d * (self.n as f64 * other.n as f64) / n as f64;
        Moments { n, mean, m2 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_direct_computation() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let m = Moments::of(&xs);
        assert_eq!(m.count(), 8);
        assert!((m.mean() - 5.0).abs() < 1e-12);
        assert!((m.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert!((m.sum() - 40.0).abs() < 1e-12);
    }

    #[test]
    fn merge_equals_single_pass() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let whole = Moments::of(&xs);
        let merged = Moments::of(&xs[..37]).merge(&Moments::of(&xs[37..]));
        assert!((whole.mean() - merged.mean()).abs() < 1e-10);
        assert!((whole.variance() - merged.variance()).abs() < 1e-10);
    }

    #[test]
    fn degenerate_cases() {
        let empty = Moments::new();
        assert_eq!(empty.mean(), 0.0);
        assert_eq!(empty.variance(), 0.0);
        let one = Moments::of(&[42.0]);
        assert_eq!(one.variance(), 0.0);
        assert_eq!(one.mean(), 42.0);
    }
}
