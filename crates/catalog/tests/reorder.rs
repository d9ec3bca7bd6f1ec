//! End-to-end tests of cost-based join reordering: the catalog's
//! estimator drives `optimize_with`, the rewritten plan must compute the
//! identical relation, and on a star schema with a selective dimension
//! filter the chosen order must actually shrink the intermediates.

use svc_catalog::Catalog;
use svc_relalg::eval::{evaluate, Bindings};
use svc_relalg::optimizer::{optimize, optimize_with};
use svc_relalg::plan::{JoinKind, Plan};
use svc_relalg::scalar::{col, lit};
use svc_storage::{DataType, Database, Schema, Table, Value};

/// A little star schema: a big fact table, a mid dimension, a tiny one.
fn star_db() -> Database {
    let mut db = Database::new();
    let mut tiny = Table::new(
        Schema::from_pairs(&[("tinyId", DataType::Int), ("label", DataType::Str)]).unwrap(),
        &["tinyId"],
    )
    .unwrap();
    for t in 0..8i64 {
        tiny.insert(vec![Value::Int(t), Value::str(format!("t{t}"))]).unwrap();
    }
    let mut mid = Table::new(
        Schema::from_pairs(&[
            ("midId", DataType::Int),
            ("tinyId", DataType::Int),
            ("w", DataType::Float),
        ])
        .unwrap(),
        &["midId"],
    )
    .unwrap();
    for m in 0..200i64 {
        mid.insert(vec![Value::Int(m), Value::Int(m % 8), Value::Float((m % 13) as f64)]).unwrap();
    }
    let mut fact = Table::new(
        Schema::from_pairs(&[
            ("factId", DataType::Int),
            ("midId", DataType::Int),
            ("x", DataType::Float),
        ])
        .unwrap(),
        &["factId"],
    )
    .unwrap();
    for f in 0..6_000i64 {
        fact.insert(vec![Value::Int(f), Value::Int(f % 200), Value::Float((f % 31) as f64)])
            .unwrap();
    }
    db.create_table("tiny", tiny);
    db.create_table("mid", mid);
    db.create_table("fact", fact);
    db
}

/// Builder order: fact first, the selective tiny filter joined last.
fn bad_order_plan() -> Plan {
    Plan::scan("fact")
        .join(Plan::scan("mid"), JoinKind::Inner, &[("midId", "midId")])
        .join(Plan::scan("tiny"), JoinKind::Inner, &[("tinyId", "tinyId")])
        .select(col("label").eq(lit("t3")))
}

/// `C_out` on the real data: the summed sizes of every join's
/// materialized output — exactly the quantity the cost model minimizes.
fn join_work(plan: &Plan, b: &Bindings<'_>) -> usize {
    let own = match plan {
        Plan::Join { .. } => evaluate(plan, b).unwrap().len(),
        _ => 0,
    };
    own + plan.children().map(|child| join_work(child, b)).sum::<usize>()
}

#[test]
fn reordered_star_join_is_equivalent_and_cheaper() {
    let db = star_db();
    let cat = Catalog::build(&db);
    let bindings = Bindings::from_database(&db);
    let plan = bad_order_plan();

    let expected = {
        let (baseline, _) = optimize(&plan, &db).unwrap();
        evaluate(&baseline, &bindings).unwrap()
    };
    let (reordered, report) = optimize_with(&plan, &db, &cat.estimator()).unwrap();
    let got = evaluate(&reordered, &bindings).unwrap();
    assert!(
        got.same_contents(&expected),
        "reordering changed the result: {} vs {} rows\n{reordered:?}",
        got.len(),
        expected.len()
    );
    assert!(report.joins_reordered > 0, "the bad builder order must be rebuilt: {report:?}");

    let (baseline, _) = optimize(&plan, &db).unwrap();
    let work_before = join_work(&baseline, &bindings);
    let work_after = join_work(&reordered, &bindings);
    assert!(
        work_after * 2 < work_before,
        "cost-based order should at least halve the join work: {work_after} vs {work_before}"
    );
}

#[test]
fn reordering_is_a_fixed_point() {
    let db = star_db();
    let cat = Catalog::build(&db);
    let plan = bad_order_plan();
    let (once, _) = optimize_with(&plan, &db, &cat.estimator()).unwrap();
    let (twice, report) = optimize_with(&once, &db, &cat.estimator()).unwrap();
    assert_eq!(once, twice, "re-optimizing the reordered plan must be a no-op");
    assert_eq!(report.joins_reordered, 0, "{report:?}");
}

/// An η the region blocks (its key spans fact and tiny, joined on no key
/// column) rests on the region's root and stays there when the region is
/// reordered: the restoring projection goes above it, so re-optimizing
/// finds nothing to move.
#[test]
fn eta_blocked_on_a_reordered_region_stays_on_its_root() {
    use svc_storage::HashSpec;
    let db = star_db();
    let cat = Catalog::build(&db);
    let plan = bad_order_plan().hash(&["factId", "label"], 0.3, HashSpec::with_seed(12));
    let bindings = Bindings::from_database(&db);
    let expected = evaluate(&plan, &bindings).unwrap();
    let (once, report) = optimize_with(&plan, &db, &cat.estimator()).unwrap();
    assert!(evaluate(&once, &bindings).unwrap().same_contents(&expected));
    assert!(report.joins_reordered > 0, "{report:?}");
    let Plan::Project { input, .. } = &once else { panic!("restoring Π on top: {once}") };
    let Plan::Hash { input, .. } = &**input else { panic!("η under the Π: {once}") };
    assert!(matches!(**input, Plan::Join { .. }), "η on the new root: {once}");
    assert!(report.eta.blockers[0].starts_with("join blocks η"), "{report:?}");
    let (twice, again) = optimize_with(&once, &db, &cat.estimator()).unwrap();
    assert_eq!(once, twice, "re-optimizing moved the η");
    assert_eq!((again.eta.descended, again.eta.blockers), (0, report.eta.blockers));
}

#[test]
fn eta_still_pushes_through_reordered_joins() {
    use svc_storage::HashSpec;
    let db = star_db();
    let cat = Catalog::build(&db);
    // Sample the view on the fact key; η must reach the fact leaf through
    // the restoring projection and whatever join order was chosen.
    let plan = Plan::scan("fact")
        .join(Plan::scan("mid"), JoinKind::Inner, &[("midId", "midId")])
        .join(Plan::scan("tiny"), JoinKind::Inner, &[("tinyId", "tinyId")])
        .select(col("w").lt(lit(9.0)))
        .hash(&["factId"], 0.3, HashSpec::with_seed(11));
    let bindings = Bindings::from_database(&db);
    let expected = evaluate(&plan, &bindings).unwrap();
    let (optimized, report) = optimize_with(&plan, &db, &cat.estimator()).unwrap();
    let got = evaluate(&optimized, &bindings).unwrap();
    assert!(got.same_contents(&expected), "η over a reordered region diverged");
    assert!(
        report.eta.sampled_leaves.iter().any(|l| l == "fact"),
        "η must still reach the fact leaf: {report:?}"
    );
}

#[test]
fn estimator_ranks_filtered_scans_below_full_scans() {
    let db = star_db();
    let cat = Catalog::build(&db);
    use svc_relalg::optimizer::cost::CardEstimator;
    let est = cat.estimator();
    let full = est.estimate_rows(&Plan::scan("fact"), &db).unwrap();
    assert!((full - 6_000.0).abs() < 1.0, "scan estimate is the exact row count: {full}");
    let filtered =
        est.estimate_rows(&Plan::scan("fact").select(col("x").lt(lit(3.0))), &db).unwrap();
    let truth = 6_000.0 * 3.0 / 31.0;
    assert!(
        (filtered - truth).abs() / truth < 0.35,
        "histogram range estimate off: {filtered} vs {truth}"
    );
    let eq =
        est.estimate_rows(&Plan::scan("tiny").select(col("label").eq(lit("t3"))), &db).unwrap();
    assert!((eq - 1.0).abs() < 0.7, "ndv equality estimate off: {eq}");
}
