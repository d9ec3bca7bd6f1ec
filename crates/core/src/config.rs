//! SVC configuration.

use svc_storage::HashSpec;

/// Tuning knobs for a [`crate::SvcView`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SvcConfig {
    /// Sampling ratio `m ∈ (0, 1]` — the accuracy/cost dial of the paper.
    pub ratio: f64,
    /// Hash seed; different seeds give independent samples.
    pub seed: u64,
    /// Confidence level for intervals, in `(0, 1)` (e.g. 0.95).
    pub confidence: f64,
}

impl Default for SvcConfig {
    fn default() -> Self {
        SvcConfig { ratio: 0.1, seed: 0x51a1e_u64, confidence: 0.95 }
    }
}

impl SvcConfig {
    /// Default configuration at a given sampling ratio.
    pub fn with_ratio(ratio: f64) -> SvcConfig {
        SvcConfig { ratio, ..SvcConfig::default() }
    }

    /// Same configuration with a different seed.
    pub fn reseeded(self, seed: u64) -> SvcConfig {
        SvcConfig { seed, ..self }
    }

    /// The concrete hash function for η.
    pub fn hash_spec(&self) -> HashSpec {
        HashSpec::with_seed(self.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = SvcConfig::default();
        assert!(c.ratio > 0.0 && c.ratio < 1.0);
        assert!(c.confidence > 0.5 && c.confidence < 1.0);
    }

    #[test]
    fn with_ratio_overrides_only_ratio() {
        let c = SvcConfig::with_ratio(0.33);
        assert_eq!(c.ratio, 0.33);
        assert_eq!(c.confidence, SvcConfig::default().confidence);
        assert_ne!(c.hash_spec(), SvcConfig::default().reseeded(1).hash_spec());
    }
}
