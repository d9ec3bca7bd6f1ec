//! Zipfian sampling: the skew knob of TPCD-Skew \[8\].
//!
//! `P(k) ∝ 1/k^z` over the domain `1..=n`. `z = 1` corresponds to the basic
//! TPCD benchmark in the paper's setup and `z ∈ {1,2,3,4}` is swept in the
//! outlier-index experiments (Figure 8a). Sampling uses a precomputed CDF
//! with binary search — exact, O(log n) per draw.

use rand::Rng;

/// A Zipf(α=z) distribution over `1..=n`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build the sampler. Panics if `n == 0` or `z < 0`.
    pub fn new(n: usize, z: f64) -> Zipf {
        assert!(n > 0, "Zipf domain must be non-empty");
        assert!(z >= 0.0, "Zipf exponent must be non-negative");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(z);
            cdf.push(acc);
        }
        let total = acc;
        for c in cdf.iter_mut() {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Domain size.
    pub fn n(&self) -> usize {
        self.cdf.len()
    }

    /// Draw a value in `1..=n`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.random();
        match self.cdf.binary_search_by(|c| c.total_cmp(&u)) {
            Ok(i) | Err(i) => (i + 1).min(self.cdf.len()),
        }
    }

    /// Probability mass of value `k` (1-based).
    pub fn pmf(&self, k: usize) -> f64 {
        assert!((1..=self.cdf.len()).contains(&k));
        if k == 1 {
            self.cdf[0]
        } else {
            self.cdf[k - 1] - self.cdf[k - 2]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn z_zero_is_uniform() {
        let z = Zipf::new(10, 0.0);
        for k in 1..=10 {
            assert!((z.pmf(k) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn higher_z_concentrates_mass_on_head() {
        let z1 = Zipf::new(100, 1.0);
        let z4 = Zipf::new(100, 4.0);
        assert!(z4.pmf(1) > z1.pmf(1));
        assert!(z4.pmf(100) < z1.pmf(100));
        assert!(z4.pmf(1) > 0.9, "z=4 head mass {}", z4.pmf(1));
    }

    #[test]
    fn empirical_matches_pmf() {
        let z = Zipf::new(50, 2.0);
        let mut rng = StdRng::seed_from_u64(7);
        let n = 50_000;
        let mut counts = vec![0usize; 51];
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        for k in [1usize, 2, 5] {
            let emp = counts[k] as f64 / n as f64;
            assert!((emp - z.pmf(k)).abs() < 0.01, "k={k}: empirical {emp} vs pmf {}", z.pmf(k));
        }
    }

    #[test]
    fn samples_stay_in_domain() {
        let z = Zipf::new(7, 3.0);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let k = z.sample(&mut rng);
            assert!((1..=7).contains(&k));
        }
    }
}
