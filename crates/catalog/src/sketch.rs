//! Distinct-value estimation with a register sketch (the HyperLogLog
//! family): `2^p` one-byte registers, each holding the maximum
//! leading-zero rank of the hashes routed to it.
//!
//! The sketch reuses the deterministic [`HashSpec`] machinery of
//! `svc-storage` (the same canonical value bytes the η operator hashes), so
//! two sketches built over the same multiset of values are *identical*
//! register-for-register — which is what lets the incremental-maintenance
//! tests compare an incrementally-updated sketch against one rebuilt from
//! scratch, and what makes [`DistinctSketch::merge`] exact for unions.
//!
//! Registers only grow: insertions are exact (insert-then-estimate equals
//! rebuild-then-estimate), deletions cannot be subtracted. The owning
//! [`ColumnStats`](crate::stats::ColumnStats) treats the estimate as an
//! upper bound once deletions have been applied and schedules a rebuild
//! when the deleted fraction grows past its threshold.

use svc_storage::{HashSpec, Value};

/// Register-count exponent: `2^10 = 1024` registers, standard error
/// `1.04/√1024 ≈ 3.3%`.
const BITS: u32 = 10;

/// A fixed seed distinct from the η sampling default: stats hashing must
/// not correlate with sample selection.
const SPEC: HashSpec = HashSpec::with_seed(0xCA7A_1061);

/// A HyperLogLog-style register sketch over column values. Every sketch has
/// the same registers and hash, so any two merge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistinctSketch {
    registers: Vec<u8>,
}

impl Default for DistinctSketch {
    fn default() -> Self {
        DistinctSketch { registers: vec![0; 1 << BITS] }
    }
}

impl DistinctSketch {
    /// The raw registers (for exactness comparisons in tests).
    pub fn registers(&self) -> &[u8] {
        &self.registers
    }

    /// Record one value.
    pub fn insert(&mut self, v: &Value) {
        let h = SPEC.hash_key(std::slice::from_ref(v));
        let idx = (h & ((1u64 << BITS) - 1)) as usize;
        let rest = h >> BITS;
        // Rank of the first set bit of the remaining 64-p bits, 1-based;
        // an all-zero remainder gets the maximum rank.
        let rank = (rest.trailing_zeros().min(63 - BITS) + 1) as u8;
        if rank > self.registers[idx] {
            self.registers[idx] = rank;
        }
    }

    /// Merge another sketch (register-wise max).
    pub fn merge(&mut self, other: &DistinctSketch) {
        for (r, o) in self.registers.iter_mut().zip(&other.registers) {
            *r = (*r).max(*o);
        }
    }

    /// Estimated number of distinct values inserted.
    pub fn estimate(&self) -> f64 {
        let m = self.registers.len() as f64;
        let alpha = match self.registers.len() {
            16 => 0.673,
            32 => 0.697,
            64 => 0.709,
            _ => 0.7213 / (1.0 + 1.079 / m),
        };
        let sum: f64 = self.registers.iter().map(|&r| 2f64.powi(-(r as i32))).sum();
        let raw = alpha * m * m / sum;
        let zeros = self.registers.iter().filter(|&&r| r == 0).count();
        if raw <= 2.5 * m && zeros > 0 {
            // Small-range correction: linear counting on empty registers.
            m * (m / zeros as f64).ln()
        } else {
            raw
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sketch_of(values: impl Iterator<Item = Value>) -> DistinctSketch {
        let mut s = DistinctSketch::default();
        for v in values {
            s.insert(&v);
        }
        s
    }

    #[test]
    fn estimates_within_standard_error() {
        for &n in &[100i64, 1_000, 20_000] {
            let s = sketch_of((0..n).map(Value::Int));
            let est = s.estimate();
            let rel = (est - n as f64).abs() / n as f64;
            assert!(rel < 0.12, "n={n}: estimate {est} off by {rel}");
        }
    }

    #[test]
    fn duplicates_do_not_move_the_estimate() {
        let once = sketch_of((0..500i64).map(Value::Int));
        let many = sketch_of((0..5_000i64).map(|i| Value::Int(i % 500)));
        assert_eq!(once, many, "identical value sets must build identical sketches");
    }

    #[test]
    fn merge_equals_union_build() {
        let mut a = sketch_of((0..800i64).map(Value::Int));
        let b = sketch_of((400..1_200i64).map(Value::Int));
        a.merge(&b);
        let union = sketch_of((0..1_200i64).map(Value::Int));
        assert_eq!(a, union);
    }

    #[test]
    fn mixed_types_count_separately() {
        let s = sketch_of((0..300i64).flat_map(|i| [Value::Int(i), Value::str(i.to_string())]));
        let est = s.estimate();
        assert!((est - 600.0).abs() / 600.0 < 0.12, "estimate {est}");
    }
}
