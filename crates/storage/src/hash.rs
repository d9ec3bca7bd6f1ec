//! The deterministic uniform hash behind the `η` operator.
//!
//! Section 4.4 of the paper samples a relation by hashing its primary key to
//! `[0, 1]` and keeping rows with `h(a) ≤ m`. Appendix 12.3 discusses the
//! Simple Uniform Hashing Assumption (SUHA): a cheap "linear" hash leaves
//! the normalized values in a lattice, far from uniform. So the key's
//! canonical bytes are accumulated with FNV-1a and the result goes through
//! a SplitMix64 finalizer, which is fast and empirically very uniform.
//!
//! The hash is a deterministic function of `(seed, key bytes)`, which is
//! what makes the stale sample `Ŝ` and the cleaned sample `Ŝ′` *correspond*
//! (Proposition 2): the same keys are selected on both sides.

use crate::value::Value;

/// A concrete, seeded hash function over key tuples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HashSpec {
    /// Seed mixed into the hash; different seeds give independent samples.
    pub seed: u64,
}

impl Default for HashSpec {
    fn default() -> Self {
        HashSpec::with_seed(0x5bd1_e995)
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Incremental accumulation state for one key hash: obtained from
/// [`HashSpec::begin`], fed canonical value bytes with [`HashState::write`],
/// finalized with [`HashState::finish`]. `HashSpec::hash_values` is
/// defined in terms of this state, so a caller streaming the same canonical
/// bytes — e.g. the vectorized η kernel reading typed column slices without
/// materializing `Value`s — produces *identical* hashes to the row-based
/// [`HashSpec::hash_row`].
#[derive(Debug, Clone, Copy)]
pub struct HashState {
    h: u64,
}

impl HashState {
    /// Absorb a byte slice (FNV-1a).
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.h = (self.h ^ b as u64).wrapping_mul(FNV_PRIME);
        }
    }

    /// Finalize to the hash value (SplitMix64).
    #[inline]
    pub fn finish(self) -> u64 {
        splitmix64(self.h)
    }
}

impl HashSpec {
    /// The hash with the given seed.
    pub const fn with_seed(seed: u64) -> HashSpec {
        HashSpec { seed }
    }

    /// Start incremental accumulation (see [`HashState`]).
    #[inline]
    pub fn begin(&self) -> HashState {
        HashState { h: FNV_OFFSET ^ self.seed }
    }

    /// Hash a sequence of values to a `u64`. Shared by [`HashSpec::hash_key`]
    /// (contiguous key tuples) and [`HashSpec::hash_row`] (key columns read
    /// in place from a wider row), so both produce identical hashes.
    fn hash_values<'a>(&self, values: impl Iterator<Item = &'a Value>) -> u64 {
        let mut state = self.begin();
        for v in values {
            v.canonical_bytes(&mut |bytes| state.write(bytes));
        }
        state.finish()
    }

    /// Hash a key tuple to a `u64`.
    pub fn hash_key(&self, key: &[Value]) -> u64 {
        self.hash_values(key.iter())
    }

    /// Hash the `key_cols` of a row in place — same result as extracting the
    /// key tuple and calling [`HashSpec::hash_key`], without cloning the key
    /// values into a temporary `Vec`. This is the η hot path.
    pub fn hash_row(&self, row: &[Value], key_cols: &[usize]) -> u64 {
        self.hash_values(key_cols.iter().map(|&i| &row[i]))
    }

    /// Hash a key tuple to `[0, 1)` with 53 bits of precision, exactly as
    /// the paper normalizes a hash by `MAXINT`.
    pub fn hash01(&self, key: &[Value]) -> f64 {
        normalize01(self.hash_key(key))
    }

    /// The sampling predicate `h(key) ≤ m` of the η operator.
    pub fn selects(&self, key: &[Value], ratio: f64) -> bool {
        self.hash01(key) <= ratio
    }

    /// The sampling predicate applied to `key_cols` of a row in place.
    pub fn selects_row(&self, row: &[Value], key_cols: &[usize], ratio: f64) -> bool {
        normalize01(self.hash_row(row, key_cols)) <= ratio
    }
}

/// Map a raw hash to `[0, 1)` using its top 53 bits. One definition shared
/// by [`HashSpec::hash01`], [`HashSpec::selects_row`], and the vectorized
/// η kernel: the tuple-based, in-place, and columnar sampling predicates
/// must never diverge, or pushed and unpushed plans would materialize
/// different samples.
#[inline]
pub fn normalize01(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Chi-square statistic of hash values bucketed into `buckets` equal-width
    /// cells of `[0,1)`. Under uniformity its expectation is `buckets - 1`.
    fn chi_square_uniformity(hashes01: &[f64], buckets: usize) -> f64 {
        assert!(buckets >= 2, "need at least 2 buckets");
        let mut counts = vec![0usize; buckets];
        for &h in hashes01 {
            let b = ((h * buckets as f64) as usize).min(buckets - 1);
            counts[b] += 1;
        }
        let expected = hashes01.len() as f64 / buckets as f64;
        counts
            .iter()
            .map(|&c| {
                let d = c as f64 - expected;
                d * d / expected
            })
            .sum()
    }

    fn hashes(spec: HashSpec, n: i64) -> Vec<f64> {
        (0..n).map(|i| spec.hash01(&[Value::Int(i)])).collect()
    }

    #[test]
    fn deterministic_per_seed() {
        let spec = HashSpec::with_seed(7);
        let key = vec![Value::Int(42), Value::str("k")];
        assert_eq!(spec.hash_key(&key), spec.hash_key(&key));
        let other = HashSpec::with_seed(8);
        assert_ne!(spec.hash_key(&key), other.hash_key(&key));
    }

    #[test]
    fn hash01_in_unit_interval() {
        let spec = HashSpec::default();
        for i in 0..1000 {
            let h = spec.hash01(&[Value::Int(i)]);
            assert!((0.0..1.0).contains(&h));
        }
    }

    #[test]
    fn sampling_ratio_approximates_m() {
        // Fraction of keys with h ≤ m should be close to m (SUHA).
        let spec = HashSpec::default();
        let n = 20_000;
        for &m in &[0.05, 0.1, 0.5] {
            let hits = (0..n).filter(|&i| spec.selects(&[Value::Int(i)], m)).count();
            let frac = hits as f64 / n as f64;
            assert!((frac - m).abs() < 0.01, "ratio {m}: observed {frac}");
        }
    }

    #[test]
    fn sequential_keys_pass_the_suha_chi_square() {
        // Under SUHA, chi-square with b-1 = 63 degrees of freedom has mean 63
        // and std ≈ sqrt(2·63) ≈ 11.2: sequential integers must land in a
        // normal band, not in the lattice of a "linear" hash (Appendix 12.3).
        let n = 50_000;
        let dof = 63.0_f64;
        let sigma = (2.0 * dof).sqrt();
        let chi = chi_square_uniformity(&hashes(HashSpec::default(), n), 64);
        assert!((chi - dof).abs() < 4.0 * sigma, "chi-square {chi} too far from expectation {dof}");
    }

    #[test]
    fn composite_keys_hash_like_single_keys() {
        let spec = HashSpec::default();
        let n = 20_000;
        let hs: Vec<f64> =
            (0..n).map(|i| spec.hash01(&[Value::Int(i % 200), Value::Int(i / 200)])).collect();
        let chi = chi_square_uniformity(&hs, 32);
        assert!(chi < 120.0, "composite-key chi-square too high: {chi}");
    }

    /// The hash pinned bit for bit: `hash_key` and its `normalize01` on
    /// two seeds and every kind of key cell. `0.0` and `-0.0` hash alike.
    #[test]
    fn hashes_are_pinned() {
        let keys = [
            vec![Value::Int(42)],
            vec![Value::str("orders")],
            vec![Value::Int(7), Value::str("k")],
            vec![Value::Null],
            vec![Value::Float(0.0)],
            vec![Value::Float(-0.0)],
            vec![Value::Float(f64::NAN)],
        ];
        let golden: [(HashSpec, [(u64, u64); 7]); 2] = [
            (
                HashSpec::default(),
                [
                    (0x088f_b700_cf1d_df36, 0x3fa1_1f6e_019e_3bb0),
                    (0xa12b_716d_e973_9c22, 0x3fe4_256e_2dbd_2e73),
                    (0x6d75_f2cc_17f0_7d49, 0x3fdb_5d7c_b305_fc1e),
                    (0xdb46_682a_657c_a9ba, 0x3feb_68cd_054c_af95),
                    (0x49f2_e4df_015c_0cb4, 0x3fd2_7cb9_37c0_5702),
                    (0x49f2_e4df_015c_0cb4, 0x3fd2_7cb9_37c0_5702),
                    (0xae0f_a796_fcf2_405c, 0x3fe5_c1f4_f2df_9e48),
                ],
            ),
            (
                HashSpec::with_seed(7),
                [
                    (0x4af2_84a3_8bd2_eb8d, 0x3fd2_bca1_28e2_f4ba),
                    (0xa920_d8e6_462f_9c08, 0x3fe5_241b_1cc8_c5f3),
                    (0x9f77_8239_6d7d_8ef9, 0x3fe3_eef0_472d_afb1),
                    (0x72f7_b75d_5981_4224, 0x3fdc_bded_d756_6050),
                    (0xe75f_9f03_cc0a_562a, 0x3fec_ebf3_e079_814a),
                    (0xe75f_9f03_cc0a_562a, 0x3fec_ebf3_e079_814a),
                    (0x6f1d_dd4c_b74a_e284, 0x3fdb_c777_532d_d2b8),
                ],
            ),
        ];
        for (spec, want) in golden {
            for (key, (hash, unit)) in keys.iter().zip(want) {
                let h = spec.hash_key(key);
                assert_eq!((h, normalize01(h).to_bits()), (hash, unit), "{spec:?} {key:?}");
            }
        }
    }
}
