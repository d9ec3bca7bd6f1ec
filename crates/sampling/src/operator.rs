//! Direct application of the η hashing operator to materialized tables.
//!
//! The selection predicate hashes each row's key columns *in place*
//! ([`HashSpec::selects_row`]), so no key is copied for a row that does not
//! survive. A survivor is copied into an allocation of its own rather than
//! shared with the sampled table: a sample is read far more often than it
//! is drawn — every clean folds into it, every estimate pairs it and builds
//! its columns — and a sample sharing every tenth row of a view would have
//! each of those readers stride through the whole view's memory. The copy
//! is of the sample only, built with [`Table::from_unique_rows`] (a subset
//! of a keyed table needs no duplicate-key checking). Sampling an *owned*
//! intermediate shares its rows instead — that path lives in the
//! evaluator's η case (`svc_relalg::eval`), which retains over
//! `Table::into_rows`.

use svc_storage::{HashSpec, Result, SharedRow, Table};

/// The rows of `t` whose `key_idx` columns hash to at most `ratio`, each
/// in an allocation of its own (see the module docs).
fn survivors(t: &Table, key_idx: &[usize], ratio: f64, spec: HashSpec) -> Vec<SharedRow> {
    let kept = t.rows().iter().filter(|r| spec.selects_row(r, key_idx, ratio));
    kept.map(|r| SharedRow::from(&r[..])).collect()
}

/// `η_{key,m}(t)`: keep the rows whose hashed key is ≤ `ratio`.
pub fn sample_table(t: &Table, key_names: &[&str], ratio: f64, spec: HashSpec) -> Result<Table> {
    let key_idx = t.schema().resolve_all(key_names)?;
    let rows = survivors(t, &key_idx, ratio, spec);
    Table::from_unique_rows(t.schema().clone(), t.key().to_vec(), rows)
}

/// `η` keyed by the table's own primary key — the common case of sampling a
/// view uniformly by its row identity.
pub fn sample_by_key(t: &Table, ratio: f64, spec: HashSpec) -> Table {
    let rows = survivors(t, t.key(), ratio, spec);
    Table::from_unique_rows(t.schema().clone(), t.key().to_vec(), rows)
        .expect("sampling preserves key uniqueness")
}

#[cfg(test)]
mod tests {
    use super::*;
    use svc_storage::{DataType, Schema, Value};

    fn table(n: i64) -> Table {
        let schema = Schema::from_pairs(&[("id", DataType::Int), ("x", DataType::Float)]).unwrap();
        let mut t = Table::new(schema, &["id"]).unwrap();
        for i in 0..n {
            t.insert(vec![Value::Int(i), Value::Float(i as f64)]).unwrap();
        }
        t
    }

    #[test]
    fn ratio_zero_and_one() {
        let t = table(100);
        let spec = HashSpec::default();
        assert_eq!(sample_by_key(&t, 1.0, spec).len(), 100);
        assert_eq!(sample_by_key(&t, 0.0, spec).len(), 0);
    }

    #[test]
    fn sample_size_tracks_ratio() {
        let t = table(10_000);
        let s = sample_by_key(&t, 0.1, HashSpec::with_seed(5));
        let frac = s.len() as f64 / t.len() as f64;
        assert!((frac - 0.1).abs() < 0.02, "observed {frac}");
    }

    #[test]
    fn sample_is_subset_and_deterministic() {
        let t = table(500);
        let spec = HashSpec::with_seed(9);
        let s1 = sample_by_key(&t, 0.3, spec);
        let s2 = sample_by_key(&t, 0.3, spec);
        assert!(s1.same_contents(&s2));
        for (k, _) in s1.iter_keyed() {
            assert!(t.contains_key(&k));
        }
    }

    #[test]
    fn nested_samples_via_smaller_ratio() {
        // η_{m1}(η_{m2}(R)) = η_{min(m1,m2)}(R) for the same spec.
        let t = table(2000);
        let spec = HashSpec::with_seed(2);
        let outer = sample_by_key(&sample_by_key(&t, 0.5, spec), 0.2, spec);
        let direct = sample_by_key(&t, 0.2, spec);
        assert!(outer.same_contents(&direct));
    }

    #[test]
    fn explicit_key_names() {
        let t = table(100);
        let s = sample_table(&t, &["id"], 0.5, HashSpec::default()).unwrap();
        assert!(s.len() < 100 && s.len() > 20);
        assert!(sample_table(&t, &["nope"], 0.5, HashSpec::default()).is_err());
    }
}
