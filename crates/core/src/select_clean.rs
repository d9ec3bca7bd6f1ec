//! Select-query cleaning (Appendix 12.1.2).
//!
//! `SELECT * FROM View WHERE cond(*)` on a stale view returns rows that may
//! be missing, falsely included, or incorrect. Using the corresponding
//! samples and row lineage (primary keys), SVC patches the stale result:
//! sampled updates overwrite stale rows, sampled missing rows are added,
//! sampled superfluous rows are removed — and the magnitude of each error
//! class is estimated by rewriting the select as `count` queries (three
//! "confidence" intervals).

use svc_catalog::TableStats;
use svc_relalg::eval::Bindings;
use svc_relalg::plan::Plan;
use svc_relalg::scalar::Expr;
use svc_storage::{Result, Table};

/// Leaf name the stale view binds to inside the select-cleaning pipeline.
const VIEW_LEAF: &str = "__select_view";

use crate::config::SvcConfig;
use crate::estimate::{Correspondence, Estimate};
use crate::query::QueryAgg;

/// The outcome of cleaning a select query.
#[derive(Debug, Clone)]
pub struct CleanSelectResult {
    /// The patched result rows.
    pub rows: Table,
    /// Estimated number of updated rows in the true result (scaled `1/m`).
    pub updated: Estimate,
    /// Estimated number of rows missing from the stale result.
    pub added: Estimate,
    /// Estimated number of superfluous rows in the stale result.
    pub removed: Estimate,
    /// Catalog-estimated number of stale rows the predicate selects (only
    /// when view statistics were supplied) — lets callers sanity-check the
    /// patched cardinality against the cost model.
    pub estimated_stale_matches: Option<f64>,
}

fn count_estimate(hits: usize, sample_size: usize, m: f64, cfg: &SvcConfig) -> Estimate {
    // A `count` correction of the empty relation, as for `count` queries:
    // `hits` indicator rows among `sample_size`, scaled `1/m`, CLT bound.
    let pairs = (0..sample_size).map(|i| (None, (i < hits).then_some(1.0))).collect();
    Correspondence { pairs, clean_rows: sample_size }
        .finish(QueryAgg::Count, Some(0.0), m, cfg)
        .expect("a count is defined on any sample")
}

/// Clean a select query against the stale view using the corresponding
/// samples. All tables are in the view's public schema and share its key.
pub fn clean_select(
    stale_view: &Table,
    stale_sample: &Table,
    clean_sample: &Table,
    predicate: &Expr,
    m: f64,
    cfg: &SvcConfig,
) -> Result<CleanSelectResult> {
    clean_select_with(stale_view, stale_sample, clean_sample, predicate, m, cfg, None)
}

/// [`clean_select`] with optional catalog statistics of the (stale) view:
/// when the stats *prove* the predicate selects nothing — a numeric
/// comparison entirely outside the column's conservative [min, max]
/// envelope — the O(|view|) stale scan is skipped outright, and the
/// result carries the estimated stale match count either way.
pub fn clean_select_with(
    stale_view: &Table,
    stale_sample: &Table,
    clean_sample: &Table,
    predicate: &Expr,
    m: f64,
    cfg: &SvcConfig,
    stats: Option<&TableStats>,
) -> Result<CleanSelectResult> {
    let pred = predicate.bind(stale_view.schema())?;
    let estimated_stale_matches = stats.map(|s| s.estimate_filter_rows(predicate));
    let provably_empty = stats.is_some_and(|s| s.prove_empty_filter(predicate));

    // The stale answer: a compiled fused `Scan→σ` pipeline over the bound
    // view — one streaming pass that borrows every row and copies only the
    // matches (a σ over a single leaf has no structure for the optimizer,
    // so the plan runs as written). When the stats prove emptiness, even
    // that pass is unnecessary.
    let mut result = if provably_empty {
        stale_view.empty_like()
    } else {
        let plan = Plan::scan(VIEW_LEAF).select(predicate.clone());
        let mut bindings = Bindings::new();
        bindings.bind(VIEW_LEAF, stale_view);
        svc_relalg::exec::compile(&plan, &bindings)?.run(&bindings)?
    };

    let mut updated = 0usize;
    let mut added = 0usize;
    let mut removed = 0usize;

    // Pass 1: clean-sample rows patch the result.
    for (key, row) in clean_sample.iter_keyed() {
        let in_stale_view = stale_view.get(&key);
        let satisfies = pred.matches(row);
        match in_stale_view {
            Some(old) => {
                if row != old {
                    // Updated row: overwrite (or drop if it no longer
                    // satisfies the predicate).
                    updated += 1;
                    if satisfies {
                        result.upsert(row.clone())?;
                    } else if result.contains_key(&key) {
                        result.delete(&key);
                    }
                }
            }
            None => {
                // Missing row now sampled.
                if satisfies {
                    added += 1;
                    result.insert(row.clone())?;
                }
            }
        }
    }

    // Pass 2: sampled superfluous rows (in Ŝ but gone from Ŝ′) are removed.
    for (key, row) in stale_sample.iter_keyed() {
        if !clean_sample.contains_key(&key) && pred.matches(row) {
            removed += 1;
            if result.contains_key(&key) {
                result.delete(&key);
            }
        }
    }

    let k = clean_sample.len().max(stale_sample.len());
    Ok(CleanSelectResult {
        rows: result,
        updated: count_estimate(updated, k, m, cfg),
        added: count_estimate(added, k, m, cfg),
        removed: count_estimate(removed, k, m, cfg),
        estimated_stale_matches,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use svc_relalg::scalar::{col, lit};
    use svc_sampling::operator::sample_by_key;
    use svc_storage::{DataType, HashSpec, KeyTuple, Schema, Value};

    fn views() -> (Table, Table) {
        let schema = Schema::from_pairs(&[("id", DataType::Int), ("v", DataType::Int)]).unwrap();
        let mut stale = Table::new(schema.clone(), &["id"]).unwrap();
        let mut fresh = Table::new(schema, &["id"]).unwrap();
        for i in 0..600i64 {
            stale.insert(vec![Value::Int(i), Value::Int(i % 100)]).unwrap();
        }
        // Fresh: ids 0..50 deleted; 50..600 kept with 100 updated rows;
        // 600..700 added.
        for i in 50..600i64 {
            let v = if i < 150 { (i % 100) + 1000 } else { i % 100 };
            fresh.insert(vec![Value::Int(i), Value::Int(v)]).unwrap();
        }
        for i in 600..700i64 {
            fresh.insert(vec![Value::Int(i), Value::Int(i % 100 + 1000)]).unwrap();
        }
        (stale, fresh)
    }

    #[test]
    fn patched_select_moves_toward_truth() {
        let (stale, fresh) = views();
        let m = 0.3;
        let spec = HashSpec::with_seed(17);
        let s_hat = sample_by_key(&stale, m, spec);
        let f_hat = sample_by_key(&fresh, m, spec);
        let predicate = col("v").ge(lit(1000i64));
        let cfg = SvcConfig::with_ratio(m);
        let out = clean_select(&stale, &s_hat, &f_hat, &predicate, m, &cfg).unwrap();

        // Truth: rows of fresh satisfying predicate.
        let truth: HashSet<KeyTuple> = fresh
            .iter_keyed()
            .filter(|(_, r)| r[1].as_i64().unwrap() >= 1000)
            .map(|(k, _)| k)
            .collect();
        // Stale result had ZERO matching rows; the patched result should
        // recover roughly m of the true ones.
        assert!(!out.rows.is_empty());
        for (k, _) in out.rows.iter_keyed() {
            assert!(truth.contains(&k), "patched row {k} is not in the true result");
        }
        let recall = out.rows.len() as f64 / truth.len() as f64;
        assert!((recall - m).abs() < 0.12, "recall {recall} vs m {m}");

        // Error-class estimates: 100 rows were updated in the fresh view;
        // none of the *deleted* rows (v = i%100 < 1000) satisfied this
        // predicate, so `removed` is exactly 0 here.
        assert!((out.updated.value - 100.0).abs() < 60.0, "updated {}", out.updated.value);
        assert_eq!(out.removed.value, 0.0);
        assert!(out.added.value > 0.0);
    }

    #[test]
    fn removed_rows_are_detected_and_estimated() {
        let (stale, fresh) = views();
        let m = 0.4;
        let spec = HashSpec::with_seed(23);
        let s_hat = sample_by_key(&stale, m, spec);
        let f_hat = sample_by_key(&fresh, m, spec);
        // Deleted ids 0..50 have v = i % 100 < 50; target them directly.
        let predicate = col("v").lt(lit(10i64)).and(col("id").lt(lit(50i64)));
        let cfg = SvcConfig::with_ratio(m);
        let out = clean_select(&stale, &s_hat, &f_hat, &predicate, m, &cfg).unwrap();
        // Truth: 10 stale rows matched (ids 0..10) and ALL are deleted.
        assert!(out.removed.value > 0.0, "expected removed > 0");
        assert!((out.removed.value - 10.0).abs() < 10.0, "removed {}", out.removed.value);
        // The patched result must drop every sampled deleted row.
        for (k, _) in out.rows.iter_keyed() {
            assert!(
                !f_hat.contains_key(&k) || fresh.contains_key(&k),
                "row {k} should have been removed"
            );
        }
    }

    #[test]
    fn stats_prove_empty_selects_and_estimate_matches() {
        use svc_catalog::{StatsConfig, TableStats};
        let (stale, fresh) = views();
        let m = 0.3;
        let spec = HashSpec::with_seed(29);
        let s_hat = sample_by_key(&stale, m, spec);
        let f_hat = sample_by_key(&fresh, m, spec);
        let stats = TableStats::build(&stale, &StatsConfig::default());
        let cfg = SvcConfig::with_ratio(m);

        // v ranges over 0..100 in the stale view: a predicate beyond the
        // max is provably empty — no stale scan, but sampled *added* rows
        // (v ≥ 1000 in fresh) still patch in.
        let impossible = col("v").gt(lit(5_000i64));
        let out =
            clean_select_with(&stale, &s_hat, &f_hat, &impossible, m, &cfg, Some(&stats)).unwrap();
        assert!(
            out.estimated_stale_matches.unwrap() < 1.0,
            "estimate is clamped near zero, got {:?}",
            out.estimated_stale_matches
        );
        assert!(out.rows.is_empty());

        // An ordinary predicate: the estimate tracks the true match count.
        let predicate = col("v").lt(lit(50i64));
        let out =
            clean_select_with(&stale, &s_hat, &f_hat, &predicate, m, &cfg, Some(&stats)).unwrap();
        let truth = stale.rows().iter().filter(|r| r[1].as_i64().unwrap() < 50).count() as f64;
        let est = out.estimated_stale_matches.unwrap();
        assert!((est - truth).abs() / truth < 0.15, "estimate {est} vs true {truth}");
        // And the patched result is unchanged relative to the no-stats path.
        let plain = clean_select(&stale, &s_hat, &f_hat, &predicate, m, &cfg).unwrap();
        assert!(out.rows.same_contents(&plain.rows));
    }

    #[test]
    fn noop_when_samples_agree() {
        let (stale, _) = views();
        let m = 0.5;
        let spec = HashSpec::with_seed(3);
        let s_hat = sample_by_key(&stale, m, spec);
        let predicate = col("v").lt(lit(10i64));
        let cfg = SvcConfig::with_ratio(m);
        let out = clean_select(&stale, &s_hat, &s_hat, &predicate, m, &cfg).unwrap();
        assert_eq!(out.updated.value, 0.0);
        assert_eq!(out.added.value, 0.0);
        assert_eq!(out.removed.value, 0.0);
        // Result equals the plain stale select.
        let expected: usize = stale.rows().iter().filter(|r| r[1].as_i64().unwrap() < 10).count();
        assert_eq!(out.rows.len(), expected);
    }
}
