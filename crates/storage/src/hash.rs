//! Deterministic uniform hash families: the heart of the `η` operator.
//!
//! Section 4.4 of the paper samples a relation by hashing its primary key to
//! `[0, 1]` and keeping rows with `h(a) ≤ m`. Appendix 12.3 discusses the
//! Simple Uniform Hashing Assumption (SUHA) and the trade-off between fast
//! but less uniform hashes (a "linear" multiplicative hash) and slower,
//! highly uniform ones (MD5/SHA1 in MySQL). We reproduce that spectrum with
//! three in-repo families:
//!
//! * [`HashFamily::SplitMix`] — FNV-1a accumulation with a SplitMix64
//!   finalizer; fast and empirically very uniform (the default).
//! * [`HashFamily::Fnv1a`] — plain FNV-1a; fast, decent uniformity.
//! * [`HashFamily::Multiplicative`] — a weak LCG-style "linear hash" kept to
//!   mirror the paper's discussion of non-uniform but cheap hashing.
//!
//! All families are deterministic functions of `(seed, key bytes)`, which is
//! what makes the stale sample `Ŝ` and the cleaned sample `Ŝ′` *correspond*
//! (Proposition 2): the same keys are selected on both sides.

use crate::value::Value;

/// The available hash function families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HashFamily {
    /// FNV-1a accumulation + SplitMix64 finalizer (default; near-uniform).
    SplitMix,
    /// Plain FNV-1a.
    Fnv1a,
    /// Weak multiplicative ("linear") hash, as discussed in Appendix 12.3.
    Multiplicative,
}

/// A concrete, seeded hash function over key tuples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HashSpec {
    /// Which family to use.
    pub family: HashFamily,
    /// Seed mixed into the hash; different seeds give independent samples.
    pub seed: u64,
}

impl Default for HashSpec {
    fn default() -> Self {
        HashSpec { family: HashFamily::SplitMix, seed: 0x5bd1_e995 }
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
    family: HashFamily,
    h: u64,
}

impl HashState {
    /// Absorb a byte slice.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        match self.family {
            HashFamily::SplitMix | HashFamily::Fnv1a => {
                for &b in bytes {
                    self.h = (self.h ^ b as u64).wrapping_mul(FNV_PRIME);
                }
            }
            HashFamily::Multiplicative => {
                // Deliberately weak: an LCG step per byte, no finalizer.
                for &b in bytes {
                    self.h = self.h.wrapping_mul(6364136223846793005).wrapping_add(b as u64 | 1);
                }
            }
        }
    }

    /// Finalize to the hash value.
    #[inline]
    pub fn finish(self) -> u64 {
        match self.family {
            HashFamily::SplitMix => splitmix64(self.h),
            HashFamily::Fnv1a | HashFamily::Multiplicative => self.h,
        }
    }
}

impl HashSpec {
    /// Construct with the default family.
    pub fn with_seed(seed: u64) -> HashSpec {
        HashSpec { family: HashFamily::SplitMix, seed }
    }

    /// Start incremental accumulation (see [`HashState`]).
    #[inline]
    pub fn begin(&self) -> HashState {
        let h = match self.family {
            HashFamily::SplitMix | HashFamily::Fnv1a => FNV_OFFSET ^ self.seed,
            HashFamily::Multiplicative => {
                self.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1)
            }
        };
        HashState { family: self.family, h }
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

/// Chi-square statistic of hash values bucketed into `buckets` equal-width
/// cells of `[0,1)`. Under uniformity its expectation is `buckets - 1`.
/// Used by tests and by the uniformity micro-benchmarks.
pub fn chi_square_uniformity(hashes01: &[f64], buckets: usize) -> f64 {
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

#[cfg(test)]
mod tests {
    use super::*;

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
            assert!((frac - m).abs() < 0.01, "family SplitMix ratio {m}: observed {frac}");
        }
    }

    #[test]
    fn splitmix_behaves_like_random_but_multiplicative_does_not() {
        // Under SUHA, chi-square with b-1 = 63 degrees of freedom has mean 63
        // and std ≈ sqrt(2·63) ≈ 11.2. SplitMix should land in a normal band.
        // The LCG "linear" hash on sequential integers produces a lattice:
        // its bucket counts are *abnormally even* (chi-square many sigmas
        // below the mean), which is exactly the kind of SUHA violation the
        // paper's Appendix 12.3 warns about.
        let n = 50_000;
        let dof = 63.0_f64;
        let sigma = (2.0 * dof).sqrt();
        let good = chi_square_uniformity(&hashes(HashSpec::default(), n), 64);
        let weak = chi_square_uniformity(
            &hashes(HashSpec { family: HashFamily::Multiplicative, seed: 1 }, n),
            64,
        );
        assert!(
            (good - dof).abs() < 4.0 * sigma,
            "SplitMix chi-square {good} too far from expectation {dof}"
        );
        assert!(
            (weak - dof).abs() > 4.0 * sigma,
            "expected multiplicative hash ({weak}) to deviate from SUHA expectation {dof}"
        );
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

    #[test]
    fn fnv_family_works() {
        let spec = HashSpec { family: HashFamily::Fnv1a, seed: 3 };
        let n = 20_000;
        let hits = (0..n).filter(|&i| spec.selects(&[Value::Int(i)], 0.1)).count();
        let frac = hits as f64 / n as f64;
        assert!((frac - 0.1).abs() < 0.02, "fnv observed {frac}");
    }
}
