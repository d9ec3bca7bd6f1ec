//! Property 1 — *corresponding samples*.
//!
//! SVC+CORR's variance advantage (Section 5.2.2) rests on the stale sample
//! `Ŝ` and the cleaned sample `Ŝ′` being **correlated**: because the hash is
//! a deterministic function of the primary key, the same keys are selected
//! on both sides (Proposition 2). This module verifies the four conditions
//! of Property 1 against concrete tables. The key pairing the
//! correspondence-subtract operator of Definition 4 walks is
//! `svc_storage::pairing::Pairing`.

use std::collections::HashSet;

use svc_storage::{HashSpec, KeyTuple, Table};

/// Check Property 1 for a `(Ŝ, Ŝ′)` pair sampled from `(S, S′)` with
/// `spec`/`ratio`. Returns the list of violations; an empty list means the
/// samples correspond.
pub fn check_correspondence(
    stale_sample: &Table,
    clean_sample: &Table,
    stale_view: &Table,
    fresh_view: &Table,
    ratio: f64,
    spec: HashSpec,
) -> Vec<String> {
    let mut violations = Vec::new();

    // Condition 1 (uniformity): each sample must equal η applied to its
    // population — the sample contains exactly the hash-selected keys.
    let check_eta = |sample: &Table, pop: &Table, label: &str, out: &mut Vec<String>| {
        let mut expected: HashSet<KeyTuple> = HashSet::new();
        for (k, _) in pop.iter_keyed() {
            if spec.selects(&k.0, ratio) {
                expected.insert(k);
            }
        }
        if sample.len() != expected.len() {
            out.push(format!(
                "{label}: sample has {} rows but η selects {}",
                sample.len(),
                expected.len()
            ));
        }
        for (k, _) in sample.iter_keyed() {
            if !expected.contains(&k) {
                out.push(format!("{label}: key {k} is not η-selected from the population"));
            }
        }
    };
    check_eta(stale_sample, stale_view, "Ŝ vs S", &mut violations);
    check_eta(clean_sample, fresh_view, "Ŝ′ vs S′", &mut violations);

    // Condition 2 (removal of superfluous rows): keys sampled from S that no
    // longer exist in S′ must not appear in Ŝ′.
    for (k, _) in stale_sample.iter_keyed() {
        if !fresh_view.contains_key(&k) && clean_sample.contains_key(&k) {
            violations.push(format!("superfluous key {k} survived cleaning"));
        }
    }

    // Condition 3 (sampling of missing rows): keys of Ŝ′ that are absent
    // from S must be exactly the η-selected missing keys.
    for (k, _) in clean_sample.iter_keyed() {
        if !stale_view.contains_key(&k) && !spec.selects(&k.0, ratio) {
            violations.push(format!("missing-row key {k} is in Ŝ′ but not η-selected"));
        }
    }

    // Condition 4 (key preservation for updated rows): keys in Ŝ that still
    // exist in S′ must appear in Ŝ′.
    for (k, _) in stale_sample.iter_keyed() {
        if fresh_view.contains_key(&k) && !clean_sample.contains_key(&k) {
            violations.push(format!("key {k} from Ŝ was lost by cleaning"));
        }
    }

    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::sample_by_key;
    use svc_storage::{DataType, Schema, Value};

    fn view(ids: &[i64], bump: i64) -> Table {
        let schema = Schema::from_pairs(&[("id", DataType::Int), ("v", DataType::Int)]).unwrap();
        let mut t = Table::new(schema, &["id"]).unwrap();
        for &i in ids {
            t.insert(vec![Value::Int(i), Value::Int(i * 10 + bump)]).unwrap();
        }
        t
    }

    #[test]
    fn hashed_samples_correspond() {
        // S = ids 0..400; S′ = ids 50..450 with updated values: incorporates
        // missing rows (400..450), superfluous rows (0..50), and updates.
        let stale: Vec<i64> = (0..400).collect();
        let fresh: Vec<i64> = (50..450).collect();
        let s = view(&stale, 0);
        let s2 = view(&fresh, 1);
        let spec = HashSpec::with_seed(21);
        let m = 0.2;
        let s_hat = sample_by_key(&s, m, spec);
        let s2_hat = sample_by_key(&s2, m, spec);
        let violations = check_correspondence(&s_hat, &s2_hat, &s, &s2, m, spec);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn detects_lost_keys() {
        let s = view(&(0..100).collect::<Vec<_>>(), 0);
        let s2 = view(&(0..100).collect::<Vec<_>>(), 1);
        let spec = HashSpec::with_seed(4);
        let s_hat = sample_by_key(&s, 0.3, spec);
        let mut s2_hat = sample_by_key(&s2, 0.3, spec);
        // Corrupt the clean sample by dropping one row.
        let victim = s_hat.rows()[0].clone();
        s2_hat.delete(&s2_hat.key_of(&victim));
        let violations = check_correspondence(&s_hat, &s2_hat, &s, &s2, 0.3, spec);
        assert!(!violations.is_empty());
    }

    #[test]
    fn detects_non_eta_sample() {
        // A random (non-hash) sample of the same size fails condition 1
        // with overwhelming probability.
        let s = view(&(0..200).collect::<Vec<_>>(), 0);
        let spec = HashSpec::with_seed(10);
        let s_hat = sample_by_key(&s, 0.25, spec);
        // "Sample" made of the first k rows instead.
        let schema = s.schema().clone();
        let mut fake = Table::new(schema, &["id"]).unwrap();
        for row in s.rows().iter().take(s_hat.len()) {
            fake.insert(row.clone()).unwrap();
        }
        let violations = check_correspondence(&fake, &s_hat, &s, &s, 0.25, spec);
        assert!(!violations.is_empty());
    }
}
