//! Staleness-error timelines (Figure 15): drive the real SVC machinery
//! through a periodic-maintenance schedule and record the *maximum* query
//! error within maintenance periods.
//!
//! The paper's setup: at a fixed cluster throughput, IVM alone can refresh
//! the view every `B` records, while IVM sharing the cluster with an SVC
//! thread refreshes less often (larger effective batch) but gets cheap
//! sample cleanings in between. Larger sampling ratios clean less often
//! (same budget), so the max error is minimized at an intermediate ratio —
//! the optimum the paper finds at 3% (V2) and 6% (V5).

use svc_core::query::{relative_error, AggQuery};
use svc_core::{SvcConfig, SvcView};
use svc_relalg::plan::Plan;
use svc_storage::{Database, Deltas, Result, StorageError};

use crate::minibatch::BatchPipeline;

/// Schedule parameters for one timeline run.
#[derive(Debug, Clone, Copy)]
pub struct TimelineConfig {
    /// Number of update chunks streamed.
    pub total_chunks: usize,
    /// Chunks between full IVM refreshes.
    pub ivm_period: usize,
    /// Chunks between SVC sample cleanings (`None` = SVC disabled).
    pub svc_period: Option<usize>,
    /// Sampling ratio for the SVC thread.
    pub ratio: f64,
    /// Seed for the SVC hash.
    pub seed: u64,
}

/// Maximum (and mean) relative error observed over the timeline.
#[derive(Debug, Clone, Copy)]
pub struct TimelineResult {
    /// Maximum per-chunk median query error.
    pub max_error: f64,
    /// Mean per-chunk median query error.
    pub mean_error: f64,
}

/// Run the schedule: stream chunks produced by `make_chunk`, refresh with
/// IVM every `ivm_period` chunks, clean the sample every `svc_period`
/// chunks (answering queries by SVC+CORR in between), and report the error
/// profile. `make_chunk(db, t)` must generate non-conflicting keys per `t`.
///
/// Every IVM refresh drains the pending deltas through a plan-driven
/// [`BatchPipeline`] on two workers (a real change-table plan run per
/// delta chunk on the worker pool), then redraws the SVC sample.
pub fn timeline_max_error(
    base: &Database,
    view_def: Plan,
    make_chunk: &mut dyn FnMut(&Database, usize) -> Result<Deltas>,
    queries: &[AggQuery],
    cfg: &TimelineConfig,
) -> Result<TimelineResult> {
    if cfg.ivm_period == 0 {
        return Err(StorageError::Invalid(
            "timeline config: ivm_period must be at least 1 chunk".into(),
        ));
    }
    if cfg.svc_period == Some(0) {
        return Err(StorageError::Invalid(
            "timeline config: svc_period must be at least 1 chunk when enabled".into(),
        ));
    }
    if queries.is_empty() {
        return Err(StorageError::Invalid(
            "timeline config: at least one query is required to measure error".into(),
        ));
    }

    let pipeline = BatchPipeline::new(2);
    let mut db = base.clone();
    let svc_cfg = SvcConfig::with_ratio(cfg.ratio).reseeded(cfg.seed);
    let mut svc = SvcView::create("timeline", view_def, &db, svc_cfg)?;
    let mut pending = Deltas::new();
    // One stats build up front; afterwards the catalog rides along with
    // every delta commit, so the cleaning plans between refreshes get
    // cost-based join order without ever rescanning the base tables.
    let mut catalog = svc_catalog::Catalog::build(&db);

    // Current answers per query (refreshed by IVM or SVC cleanings).
    let mut answers: Vec<f64> =
        queries.iter().map(|q| svc.query_stale(q)).collect::<Result<_>>()?;

    let mut max_error = 0.0f64;
    let mut err_sum = 0.0f64;
    let mut err_n = 0usize;

    for t in 1..=cfg.total_chunks {
        let chunk = make_chunk(&db, t)?;
        pending.merge(chunk)?;

        if t % cfg.ivm_period == 0 {
            // Full refresh through the mini-batch pipeline: the view becomes
            // exact, the sample is redrawn, and the deltas commit — stats
            // first, so the catalog stays aligned with the base tables.
            let batch = pending.len().max(1);
            pipeline.maintain(&db, &mut svc.view, &pending, batch)?;
            svc.resample();
            catalog.commit_deltas(&mut db, &mut pending)?;
            for (a, q) in answers.iter_mut().zip(queries) {
                *a = svc.query_stale(q)?;
            }
        } else if let Some(p) = cfg.svc_period {
            if t % p == 0 {
                let cleaned = svc.clean_sample_with(&db, &pending, Some(&catalog))?;
                for (a, q) in answers.iter_mut().zip(queries) {
                    *a = svc.estimate_corr(&cleaned, q)?.value;
                }
            }
        }

        // Error of the current answers against the live truth: one fresh
        // recompute per chunk, every query answered on it.
        let fresh = svc.view.public_of(&svc.view.recompute_fresh(&db, &pending)?)?;
        let mut errs: Vec<f64> = Vec::with_capacity(queries.len());
        for (a, q) in answers.iter().zip(queries) {
            errs.push(relative_error(*a, q.exact(&fresh)?));
        }
        errs.sort_by(f64::total_cmp);
        let median = errs[errs.len() / 2];
        max_error = max_error.max(median);
        err_sum += median;
        err_n += 1;
    }

    Ok(TimelineResult { max_error, mean_error: err_sum / err_n.max(1) as f64 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use svc_relalg::aggregate::AggSpec;
    use svc_relalg::scalar::{col, lit};
    use svc_storage::{DataType, Schema, Table, Value};

    fn base_db() -> Database {
        let mut db = Database::new();
        let mut t = Table::new(
            Schema::from_pairs(&[
                ("id", DataType::Int),
                ("grp", DataType::Int),
                ("x", DataType::Float),
            ])
            .unwrap(),
            &["id"],
        )
        .unwrap();
        // Enough groups that a hash sample of the view is statistically
        // meaningful (the paper excludes small-cardinality views).
        for i in 0..4000i64 {
            t.insert(vec![Value::Int(i), Value::Int(i % 400), Value::Float((i % 97) as f64)])
                .unwrap();
        }
        db.create_table("events", t);
        db
    }

    fn view_def() -> Plan {
        Plan::scan("events").aggregate(
            &["grp"],
            vec![
                AggSpec::count_all("n"),
                AggSpec::new("total", svc_relalg::aggregate::AggFunc::Sum, col("x")),
            ],
        )
    }

    fn chunk(db: &Database, t: usize) -> Result<Deltas> {
        let mut deltas = Deltas::new();
        let base = 1_000_000 + (t as i64) * 1000;
        for i in 0..200i64 {
            deltas.insert(
                db,
                "events",
                vec![
                    Value::Int(base + i),
                    Value::Int(i % 100), // skew toward low groups
                    Value::Float(60.0),
                ],
            )?;
        }
        Ok(deltas)
    }

    fn queries() -> Vec<AggQuery> {
        vec![
            AggQuery::sum(col("total")).filter(col("grp").lt(lit(100i64))),
            AggQuery::sum(col("n")),
        ]
    }

    #[test]
    fn svc_between_refreshes_reduces_max_error() {
        let db = base_db();
        let ivm_only = timeline_max_error(
            &db,
            view_def(),
            &mut chunk,
            &queries(),
            &TimelineConfig {
                total_chunks: 12,
                ivm_period: 6,
                svc_period: None,
                ratio: 0.1,
                seed: 5,
            },
        )
        .unwrap();
        // SVC shares throughput: IVM period doubles, but the sample is
        // cleaned every 2 chunks.
        let with_svc = timeline_max_error(
            &db,
            view_def(),
            &mut chunk,
            &queries(),
            &TimelineConfig {
                total_chunks: 12,
                ivm_period: 12,
                svc_period: Some(2),
                ratio: 0.2,
                seed: 5,
            },
        )
        .unwrap();
        assert!(
            with_svc.max_error < ivm_only.max_error,
            "SVC should cap staleness error: {} vs {}",
            with_svc.max_error,
            ivm_only.max_error
        );
    }

    #[test]
    fn zero_ivm_period_is_an_error_not_a_panic() {
        // Regression: this used to divide by zero at `t % cfg.ivm_period`.
        let db = base_db();
        let err = timeline_max_error(
            &db,
            view_def(),
            &mut chunk,
            &queries(),
            &TimelineConfig {
                total_chunks: 3,
                ivm_period: 0,
                svc_period: None,
                ratio: 0.1,
                seed: 1,
            },
        );
        assert!(matches!(err, Err(svc_storage::StorageError::Invalid(_))), "{err:?}");
    }

    #[test]
    fn zero_svc_period_is_an_error_not_a_panic() {
        let db = base_db();
        let err = timeline_max_error(
            &db,
            view_def(),
            &mut chunk,
            &queries(),
            &TimelineConfig {
                total_chunks: 3,
                ivm_period: 2,
                svc_period: Some(0),
                ratio: 0.1,
                seed: 1,
            },
        );
        assert!(matches!(err, Err(svc_storage::StorageError::Invalid(_))), "{err:?}");
    }

    #[test]
    fn empty_queries_are_an_error_not_a_panic() {
        // Regression: this used to index `errs[0]` on an empty error vector.
        let db = base_db();
        let err = timeline_max_error(
            &db,
            view_def(),
            &mut chunk,
            &[],
            &TimelineConfig {
                total_chunks: 3,
                ivm_period: 2,
                svc_period: None,
                ratio: 0.1,
                seed: 1,
            },
        );
        assert!(matches!(err, Err(svc_storage::StorageError::Invalid(_))), "{err:?}");
    }

    #[test]
    fn errors_are_finite_and_bounded() {
        let db = base_db();
        let r = timeline_max_error(
            &db,
            view_def(),
            &mut chunk,
            &queries(),
            &TimelineConfig {
                total_chunks: 6,
                ivm_period: 3,
                svc_period: Some(1),
                ratio: 0.3,
                seed: 1,
            },
        )
        .unwrap();
        assert!(r.max_error.is_finite());
        assert!(r.mean_error <= r.max_error);
    }
}
