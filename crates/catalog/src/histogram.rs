//! Equi-width histograms over numeric columns.
//!
//! Bucket boundaries are fixed when the histogram is built (from the
//! column's min/max at that moment) and never move afterwards — that is
//! what makes incremental maintenance *exact*: an insertion increments the
//! cell its value falls in, a deletion decrements the same cell, and
//! values outside the original range land in dedicated underflow/overflow
//! cells. An incrementally-maintained histogram therefore equals one
//! rebuilt from scratch over the post-delta rows with the same boundaries,
//! cell for cell.

/// An equi-width histogram with underflow/overflow cells.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    buckets: Vec<u64>,
    below: u64,
    above: u64,
}

impl Histogram {
    /// An empty histogram over `[lo, hi]` with `buckets` cells. Collapsed
    /// ranges (`lo == hi`) get a single-cell histogram.
    pub fn new(lo: f64, hi: f64, buckets: usize) -> Histogram {
        assert!(buckets > 0, "histogram needs at least one bucket");
        assert!(lo.is_finite() && hi.is_finite() && lo <= hi, "invalid histogram range");
        let buckets = if lo == hi { 1 } else { buckets };
        Histogram { lo, hi, buckets: vec![0; buckets], below: 0, above: 0 }
    }

    /// The bucket range.
    pub fn range(&self) -> (f64, f64) {
        (self.lo, self.hi)
    }

    fn width(&self) -> f64 {
        (self.hi - self.lo) / self.buckets.len() as f64
    }

    fn bucket_of(&self, v: f64) -> Option<usize> {
        if v < self.lo || v > self.hi {
            return None;
        }
        if self.lo == self.hi {
            return Some(0);
        }
        Some((((v - self.lo) / self.width()) as usize).min(self.buckets.len() - 1))
    }

    /// Record a value.
    pub fn add(&mut self, v: f64) {
        match self.bucket_of(v) {
            Some(b) => self.buckets[b] += 1,
            None if v < self.lo => self.below += 1,
            None => self.above += 1,
        }
    }

    /// Remove a previously-recorded value (saturating: a stray remove can
    /// never underflow a cell).
    pub fn remove(&mut self, v: f64) {
        match self.bucket_of(v) {
            Some(b) => self.buckets[b] = self.buckets[b].saturating_sub(1),
            None if v < self.lo => self.below = self.below.saturating_sub(1),
            None => self.above = self.above.saturating_sub(1),
        }
    }

    /// Total recorded values.
    pub fn total(&self) -> u64 {
        self.below + self.above + self.buckets.iter().sum::<u64>()
    }

    /// Estimated fraction of recorded values `≤ x`, with linear
    /// interpolation inside the bucket containing `x`.
    pub fn fraction_le(&self, x: f64) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        if x < self.lo {
            return 0.0;
        }
        if x >= self.hi {
            return (total - self.above) as f64 / total as f64;
        }
        let mut acc = self.below;
        let b = self.bucket_of(x).expect("x within range");
        for &c in &self.buckets[..b] {
            acc += c;
        }
        let within = if self.lo == self.hi {
            self.buckets[0] as f64
        } else {
            let start = self.lo + b as f64 * self.width();
            self.buckets[b] as f64 * ((x - start) / self.width()).clamp(0.0, 1.0)
        };
        (acc as f64 + within) / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform() -> Histogram {
        let mut h = Histogram::new(0.0, 100.0, 20);
        for i in 0..10_000 {
            h.add((i % 100) as f64 + 0.5);
        }
        h
    }

    #[test]
    fn fraction_le_tracks_uniform_cdf() {
        let h = uniform();
        for &x in &[5.0, 25.0, 50.0, 77.0, 99.0] {
            let est = h.fraction_le(x);
            let truth = x / 100.0;
            assert!((est - truth).abs() < 0.03, "x={x}: {est} vs {truth}");
        }
    }

    #[test]
    fn add_remove_round_trips() {
        let mut h = uniform();
        let before = h.clone();
        for v in [3.0, 55.5, 99.9, -4.0, 200.0] {
            h.add(v);
        }
        for v in [3.0, 55.5, 99.9, -4.0, 200.0] {
            h.remove(v);
        }
        assert_eq!(h, before);
    }

    #[test]
    fn out_of_range_values_hit_overflow_cells() {
        let mut h = Histogram::new(0.0, 10.0, 4);
        h.add(-5.0);
        h.add(15.0);
        h.add(5.0);
        assert_eq!(h.total(), 3);
        assert_eq!(h.fraction_le(-10.0), 0.0);
        assert!((h.fraction_le(10.0) - 2.0 / 3.0).abs() < 1e-12, "overflow excluded from ≤hi");
        assert!((h.fraction_le(1e12) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn collapsed_range_counts_point_mass() {
        let mut h = Histogram::new(7.0, 7.0, 16);
        for _ in 0..5 {
            h.add(7.0);
        }
        assert_eq!(h.total(), 5);
        assert_eq!(h.fraction_le(7.0), 1.0);
        assert_eq!(h.fraction_le(6.9), 0.0);
    }
}
