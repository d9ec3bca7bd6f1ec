//! Hash push-down: the Definition 3 rewrite — a thin wrapper over the
//! filter pass of the `svc-relalg` optimizer.
//!
//! [`push_down`] runs that pass alone — σ, leaf key sets and η sink
//! together; no join reordering, no pruning — and returns its
//! [`PushdownReport`] (descent depth, blockers, sampled leaves).
//!
//! Theorem 1 — the rewritten plan materializes the *identical* sample — is
//! exercised by the tests in this module and by property tests at the
//! workspace level.

use svc_storage::Result;

use svc_relalg::derive::LeafProvider;
use svc_relalg::optimizer::{eta, predicate, EtaReport};
use svc_relalg::plan::Plan;

/// What the rewriter did: how far hashes moved and where they stopped —
/// the optimizer's own η report, named for this crate's callers.
pub type PushdownReport = EtaReport;

/// Rewrite `plan`, pushing every η node as deep as Definition 3 allows.
/// Returns the rewritten plan (which materializes the identical sample,
/// Theorem 1) and a report of what happened.
pub fn push_down(plan: &Plan, leaves: &impl LeafProvider) -> Result<(Plan, PushdownReport)> {
    let mut report = PushdownReport::default();
    let out = predicate::pushdown(plan.clone(), leaves, &mut 0, &mut report.descended)?;
    eta::describe(&out, &mut report);
    Ok((out, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use svc_relalg::aggregate::AggSpec;
    use svc_relalg::eval::{evaluate, Bindings};
    use svc_relalg::plan::JoinKind;
    use svc_relalg::scalar::{col, lit, Expr, Func};
    use svc_storage::{DataType, Database, HashSpec, Schema, Table, Value};

    /// Log / Video database of the running example, sized so samples are
    /// non-trivial.
    fn video_db() -> Database {
        let mut db = Database::new();
        let mut video = Table::new(
            Schema::from_pairs(&[
                ("videoId", DataType::Int),
                ("ownerId", DataType::Int),
                ("duration", DataType::Float),
            ])
            .unwrap(),
            &["videoId"],
        )
        .unwrap();
        for v in 0..300i64 {
            video
                .insert(vec![
                    Value::Int(v),
                    Value::Int(v % 17),
                    Value::Float(0.25 + (v % 40) as f64 * 0.05),
                ])
                .unwrap();
        }
        let mut log = Table::new(
            Schema::from_pairs(&[("sessionId", DataType::Int), ("videoId", DataType::Int)])
                .unwrap(),
            &["sessionId"],
        )
        .unwrap();
        for s in 0..5000i64 {
            log.insert(vec![Value::Int(s), Value::Int((s * 7 + s % 13) % 300)]).unwrap();
        }
        db.create_table("video", video);
        db.create_table("log", log);
        db
    }

    fn visit_view() -> Plan {
        Plan::scan("log")
            .join(Plan::scan("video"), JoinKind::Inner, &[("videoId", "videoId")])
            .aggregate(&["videoId"], vec![AggSpec::count_all("visitCount")])
    }

    /// Assert Theorem 1 on a plan: η applied at the top and the pushed-down
    /// rewrite materialize identical samples.
    fn assert_theorem1(plan: Plan, key: &[&str], db: &Database) -> PushdownReport {
        let hashed = plan.hash(key, 0.35, HashSpec::with_seed(77));
        let b = Bindings::from_database(db);
        let unpushed = evaluate(&hashed, &b).unwrap();
        let (optimized, report) = push_down(&hashed, db).unwrap();
        let pushed = evaluate(&optimized, &b).unwrap();
        assert!(
            pushed.same_contents(&unpushed),
            "Theorem 1 violated: pushed {} rows vs unpushed {} rows",
            pushed.len(),
            unpushed.len()
        );
        report
    }

    #[test]
    fn figure3_visit_view_pushes_to_both_leaves() {
        let db = video_db();
        let report = assert_theorem1(visit_view(), &["videoId"], &db);
        assert!(report.fully_pushed(), "blockers: {:?}", report.blockers);
        let mut sampled = report.sampled_leaves;
        sampled.sort();
        assert_eq!(sampled, vec!["log", "video"]);
    }

    #[test]
    fn select_and_project_pass_hash_through() {
        let db = video_db();
        let plan = Plan::scan("video")
            .select(col("duration").gt(lit(0.5)))
            .project(vec![("videoId", col("videoId")), ("mins", col("duration").mul(lit(60.0)))]);
        let report = assert_theorem1(plan, &["videoId"], &db);
        assert!(report.fully_pushed());
        assert_eq!(report.sampled_leaves, vec!["video"]);
    }

    #[test]
    fn fk_join_pushes_to_fact_side_only() {
        // Sample the join on the log's key: video is joined on its whole
        // primary key, so the hash commutes to log alone.
        let db = video_db();
        let plan =
            Plan::scan("log").join(Plan::scan("video"), JoinKind::Inner, &[("videoId", "videoId")]);
        let report = assert_theorem1(plan, &["sessionId"], &db);
        assert!(report.fully_pushed(), "blockers: {:?}", report.blockers);
        assert_eq!(report.sampled_leaves, vec!["log"]);
    }

    #[test]
    fn nested_aggregate_blocks_pushdown() {
        // Example 4's blocked query: SELECT c, count(1) FROM (SELECT
        // videoId, count(1) c FROM log GROUP BY videoId) GROUP BY c.
        let db = video_db();
        let inner = Plan::scan("log").aggregate(&["videoId"], vec![AggSpec::count_all("c")]);
        let outer = inner.aggregate(&["c"], vec![AggSpec::count_all("n")]);
        let report = assert_theorem1(outer, &["c"], &db);
        assert!(!report.fully_pushed());
        assert!(report.sampled_leaves.is_empty());
        assert!(report.blockers[0].contains("group-by"));
    }

    #[test]
    fn key_transforming_projection_blocks_pushdown() {
        // V22-style string transformation of the key blocks the push.
        let db = video_db();
        let plan = Plan::scan("video").project(vec![
            ("videoId", col("videoId")),
            ("vkey", Expr::Call { func: Func::Concat, args: vec![lit("v-"), col("videoId")] }),
            ("duration", col("duration")),
        ]);
        // Hashing on the *transformed* column cannot be pushed below Π: the
        // base relation must be scanned in full, exactly the paper's V22
        // observation.
        let hashed = plan.hash(&["vkey"], 0.4, HashSpec::with_seed(3));
        let b = Bindings::from_database(&db);
        let unpushed = evaluate(&hashed, &b).unwrap();
        let (optimized, report) = push_down(&hashed, &db).unwrap();
        assert!(!report.fully_pushed());
        assert!(report.sampled_leaves.is_empty());
        let pushed = evaluate(&optimized, &b).unwrap();
        assert!(pushed.same_contents(&unpushed));
    }

    #[test]
    fn pushing_down_a_pushed_plan_changes_nothing() {
        let db = video_db();
        let hashed = visit_view().hash(&["videoId"], 0.3, HashSpec::with_seed(2)).hash(
            &["videoId"],
            0.6,
            HashSpec::with_seed(2),
        );
        let (once, first) = push_down(&hashed, &db).unwrap();
        let (twice, second) = push_down(&once, &db).unwrap();
        assert_eq!(twice, once);
        assert_eq!(second.descended, 0);
        assert_eq!(second.sampled_leaves, first.sampled_leaves);
        let mut sampled = first.sampled_leaves;
        sampled.sort();
        assert_eq!(sampled, vec!["log", "video"], "each leaf sampled once");
    }

    #[test]
    fn union_pushes_to_both_branches() {
        let db = video_db();
        let recent = Plan::scan("video").select(col("videoId").ge(lit(150i64)));
        let long = Plan::scan("video").select(col("duration").gt(lit(1.5)));
        let plan = recent.union(long);
        let report = assert_theorem1(plan, &["videoId"], &db);
        assert!(report.fully_pushed());
        assert_eq!(report.sampled_leaves, vec!["video", "video"]);
    }

    #[test]
    fn difference_and_intersect_push() {
        let db = video_db();
        let a = Plan::scan("video").select(col("ownerId").lt(lit(9i64)));
        let b_ = Plan::scan("video").select(col("duration").lt(lit(1.0)));
        let report = assert_theorem1(a.clone().difference(b_.clone()), &["videoId"], &db);
        assert!(report.fully_pushed());
        let report = assert_theorem1(a.intersect(b_), &["videoId"], &db);
        assert!(report.fully_pushed());
    }

    #[test]
    fn full_view_equivalence_at_ratio_one() {
        // ratio 1.0: both plans materialize the whole view.
        let db = video_db();
        let hashed = visit_view().hash(&["videoId"], 1.0, HashSpec::default());
        let b = Bindings::from_database(&db);
        let (optimized, _) = push_down(&hashed, &db).unwrap();
        let full = evaluate(&visit_view(), &b).unwrap();
        let sampled = evaluate(&optimized, &b).unwrap();
        assert!(sampled.same_contents(&full));
    }

    #[test]
    fn pushdown_reduces_intermediate_work() {
        // The optimized plan feeds far fewer rows into the join: verify by
        // comparing leaf sample sizes against the full tables.
        let db = video_db();
        let hashed = visit_view().hash(&["videoId"], 0.1, HashSpec::with_seed(5));
        let (optimized, report) = push_down(&hashed, &db).unwrap();
        assert!(report.fully_pushed());
        // Extract the hash directly above the log scan and evaluate it.
        fn find_leaf_hash(plan: &Plan, table: &str) -> Option<Plan> {
            match plan {
                Plan::Hash { input, .. } if matches!(&**input, Plan::Scan { table: t } if t == table) => {
                    Some(plan.clone())
                }
                _ => plan.children().find_map(|child| find_leaf_hash(child, table)),
            }
        }
        let log_sample = find_leaf_hash(&optimized, "log").expect("log is sampled");
        let b = Bindings::from_database(&db);
        let sampled_log = evaluate(&log_sample, &b).unwrap();
        let full_log = db.table("log").unwrap().len() as f64;
        let frac = sampled_log.len() as f64 / full_log;
        assert!(frac < 0.2, "expected ~10% of log, got {frac}");
    }
}
