//! Metrics-correctness tests for the observability layer.
//!
//! The executor's metric contract: per-node **row counts** (rows in/out,
//! join build/probe split, γ group counts) are functions of the plan and
//! its inputs only — identical under vectorized and rowwise execution.
//! Wall times and chunk/zone counters are allowed to vary; the row-shaped
//! fields are not. Plus the zero-cost gate: running a
//! compiled plan *without* a sink must allocate zero metric state.

use stale_view_cleaning::catalog::Catalog;
use stale_view_cleaning::core::{SvcConfig, SvcView};
use stale_view_cleaning::ivm::delta::{del_leaf, ins_leaf};
use stale_view_cleaning::ivm::strategy::STALE_LEAF;
use stale_view_cleaning::ivm::view::maintenance_bindings;
use stale_view_cleaning::relalg::aggregate::{AggFunc, AggSpec};
use stale_view_cleaning::relalg::eval::Bindings;
use stale_view_cleaning::relalg::exec::{compile, explain_analyze, ExecMode};
use stale_view_cleaning::relalg::plan::{JoinKind, Plan};
use stale_view_cleaning::relalg::scalar::{col, lit};
use stale_view_cleaning::storage::{DataType, Database, Deltas, Schema, Table, Value};
use stale_view_cleaning::telemetry::metric_allocs;

/// A star schema with three dimension tables, so the view definition
/// carries three joins and its cleaning plan replicates them in the delta
/// branch.
fn star_db() -> Database {
    let mut db = Database::new();
    let mut fact = Table::new(
        Schema::from_pairs(&[
            ("fid", DataType::Int),
            ("d1", DataType::Int),
            ("d2", DataType::Int),
            ("d3", DataType::Int),
            ("x", DataType::Float),
        ])
        .unwrap(),
        &["fid"],
    )
    .unwrap();
    for i in 0..900i64 {
        fact.insert(vec![
            Value::Int(i),
            Value::Int(i % 17),
            Value::Int(i % 11),
            Value::Int(i % 7),
            Value::Float(0.25 + (i % 13) as f64),
        ])
        .unwrap();
    }
    db.create_table("fact", fact);
    for (name, card) in [("dim1", 17i64), ("dim2", 11), ("dim3", 7)] {
        let key = &name[3..]; // "1" | "2" | "3"
        let kcol = format!("d{key}");
        let vcol = format!("v{key}");
        let mut t = Table::new(
            Schema::from_pairs(&[(kcol.as_str(), DataType::Int), (vcol.as_str(), DataType::Int)])
                .unwrap(),
            &[kcol.as_str()],
        )
        .unwrap();
        for k in 0..card {
            t.insert(vec![Value::Int(k), Value::Int(k * 3 + 1)]).unwrap();
        }
        db.create_table(name, t);
    }
    db
}

fn star_view() -> Plan {
    Plan::scan("fact")
        .join(Plan::scan("dim1"), JoinKind::Inner, &[("d1", "d1")])
        .join(Plan::scan("dim2"), JoinKind::Inner, &[("d2", "d2")])
        .join(Plan::scan("dim3"), JoinKind::Inner, &[("d3", "d3")])
        .aggregate(
            &["d1"],
            vec![AggSpec::count_all("n"), AggSpec::new("sx", AggFunc::Sum, col("x"))],
        )
}

fn fact_inserts(db: &Database, n: i64) -> Deltas {
    let mut deltas = Deltas::new();
    for i in 0..n {
        let s = 10_000 + i;
        deltas
            .insert(
                db,
                "fact",
                vec![
                    Value::Int(s),
                    Value::Int(s % 17),
                    Value::Int(s % 11),
                    Value::Int(s % 7),
                    Value::Float(1.5),
                ],
            )
            .unwrap();
    }
    deltas
}

/// The mode-invariant metric fields of every node, in slot order.
fn row_fields(
    ex: &stale_view_cleaning::relalg::exec::Explain,
) -> Vec<(String, u64, u64, u64, u64, u64)> {
    ex.nodes
        .iter()
        .map(|n| {
            let m = &n.metrics;
            (n.label.clone(), m.rows_in, m.rows_out, m.build_rows, m.probe_rows, m.groups)
        })
        .collect()
}

/// The acceptance scenario: `explain_analyze` on a ≥3-join cleaning plan
/// shows per-node actual rows, wall time, and catalog-estimated rows, and
/// the actual row counts are identical under vectorized and rowwise
/// execution.
#[test]
fn explain_analyze_cleaning_plan_is_mode_invariant() {
    let db = star_db();
    let svc = SvcView::create("v", star_view(), &db, SvcConfig::with_ratio(0.3)).unwrap();
    let deltas = fact_inserts(&db, 300);
    let catalog = Catalog::build(&db);

    let (plan, report, _kind) = svc.cleaning_plan_with(&db, &deltas, Some(&catalog)).unwrap();
    let stale_binding = if report.fully_pushed() { svc.stale_sample() } else { svc.view.table() };
    let mb = maintenance_bindings(&db, &deltas, stale_binding);

    // The same leaf overlay the optimizer used, rebuilt for the explain's
    // estimated-rows column.
    let mut scoped = catalog.scoped();
    scoped.bind_table(STALE_LEAF, stale_binding);
    for (name, set) in deltas.iter() {
        scoped.bind_table(ins_leaf(name), &set.insertions);
        scoped.bind_table(del_leaf(name), &set.deletions);
    }
    let est = scoped.estimator();

    let baseline = explain_analyze(&plan, &mb, Some(&est), ExecMode::sequential()).unwrap();

    let joins = baseline.nodes.iter().filter(|n| n.label.starts_with("join:")).count();
    assert!(joins >= 3, "cleaning plan must carry ≥3 joins, found {joins}:\n{baseline}");
    assert_eq!(
        baseline.root().metrics.rows_out as usize,
        baseline.table.len(),
        "root rows_out must equal the result length"
    );
    assert!(baseline.root().metrics.wall_ns > 0, "root wall time must be recorded");
    assert!(
        baseline.nodes.iter().any(|n| n.est_rows.is_some()),
        "catalog estimates must annotate at least one node:\n{baseline}"
    );
    let rendered = baseline.render();
    assert!(rendered.contains("rows=") && rendered.contains("(est "), "{rendered}");

    let rowwise =
        explain_analyze(&plan, &mb, Some(&est), ExecMode::sequential().rowwise()).unwrap();
    assert_eq!(
        row_fields(&rowwise),
        row_fields(&baseline),
        "rowwise: per-node row counts diverged from vectorized"
    );
    assert_eq!(rowwise.table.len(), baseline.table.len(), "rowwise: result length diverged");
}

/// Exact catalog stats make leaf estimates exact: a bare scan's estimated
/// rows must equal its actual rows, and the estimate column must degrade
/// to `None` (never to a wrong number) when no estimator is supplied.
#[test]
fn estimates_are_consistent_with_actuals_on_exact_stats() {
    let db = star_db();
    let catalog = Catalog::build(&db);
    let est = catalog.estimator();
    let bindings = Bindings::from_database(&db);

    let scan = Plan::scan("fact");
    let ex = explain_analyze(&scan, &bindings, Some(&est), ExecMode::sequential()).unwrap();
    let root = ex.root();
    assert_eq!(root.metrics.rows_out as usize, ex.table.len());
    let e = root.est_rows.expect("scan estimate present");
    assert!(
        (e - root.metrics.rows_out as f64).abs() < 1e-6,
        "exact stats must estimate a bare scan exactly: est {e} vs actual {}",
        root.metrics.rows_out
    );

    // A filtered scan: the estimate exists and stays within the input
    // cardinality; the actual survivor count is exact by construction.
    let filtered = Plan::scan("fact").select(col("d1").lt(lit(5i64)));
    let ex = explain_analyze(&filtered, &bindings, Some(&est), ExecMode::sequential()).unwrap();
    let root = ex.root();
    assert_eq!(root.metrics.rows_out as usize, ex.table.len());
    assert!(root.metrics.rows_out < root.metrics.rows_in);
    let e = root.est_rows.expect("filter estimate present");
    assert!(e > 0.0 && e <= root.metrics.rows_in as f64, "filter estimate {e} out of range");

    // No estimator: actuals intact, estimates absent.
    let ex = explain_analyze(&filtered, &bindings, None, ExecMode::sequential()).unwrap();
    assert!(ex.nodes.iter().all(|n| n.est_rows.is_none()));
    assert_eq!(ex.root().metrics.rows_out as usize, ex.table.len());
}

/// The zero-cost gate: running a compiled plan without a sink must perform
/// no metric-state allocation (counter-verified, same design as
/// `Table::clone_count`), while building a sink registers exactly one.
#[test]
fn uninstrumented_runs_allocate_no_metric_state() {
    let db = star_db();
    let bindings = Bindings::from_database(&db);
    let plan = star_view();
    let compiled = compile(&plan, &bindings).unwrap();

    let before = metric_allocs();
    compiled.run(&bindings).unwrap();
    compiled.run_with(&bindings, ExecMode::sequential().rowwise()).unwrap();
    assert_eq!(
        metric_allocs(),
        before,
        "uninstrumented executor paths must allocate zero metric state"
    );

    let sink = compiled.metrics_sink();
    assert_eq!(metric_allocs(), before + 1, "a sink is one audited allocation");
    let out = compiled.run_with_metrics(&bindings, ExecMode::sequential(), &sink).unwrap();
    assert_eq!(metric_allocs(), before + 1, "the metered run itself allocates nothing further");
    assert_eq!(sink.snapshot(0).rows_out as usize, out.len());
}
