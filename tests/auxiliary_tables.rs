//! Auxiliary tables: a nested aggregate view (V21, Conviva V4 and V5, a γ
//! over `log ⋈ video` keyed by a collided column) stores its inner γ beside
//! itself and maintains both from the deltas. On every commit path —
//! `maintain`, the mini-batch pipeline's fallback, recovery by
//! recomputation — and under insert-only, update-only and mixed deltas, the
//! auxiliary table equals the inner γ over the post-delta base tables, the
//! view equals its recomputation, and the next clean is the hash sample of
//! the recomputed view (Theorem 1).

use stale_view_cleaning::cluster::minibatch::BatchPipeline;
use stale_view_cleaning::core::{SvcConfig, SvcView};
use stale_view_cleaning::ivm::strategy::PlanKind;
use stale_view_cleaning::ivm::view::MaterializedView;
use stale_view_cleaning::relalg::aggregate::{AggFunc, AggSpec};
use stale_view_cleaning::relalg::plan::{JoinKind, Plan};
use stale_view_cleaning::relalg::scalar::col;
use stale_view_cleaning::sampling::operator::sample_by_key;
use stale_view_cleaning::storage::{DataType, Database, Deltas, Schema, Table, Value};
use stale_view_cleaning::workloads::conviva::{self, ConvivaConfig};
use stale_view_cleaning::workloads::tpcd::{TpcdConfig, TpcdData};
use stale_view_cleaning::workloads::tpcd_views::complex_views;

/// `video(videoId, owner, duration)` and `log(sessionId, videoId, owner)`:
/// `log ⋈ video` names video's owner `video.owner`.
fn collided_db() -> Database {
    let mut db = Database::new();
    let schema = |cols: &[(&str, DataType)]| Schema::from_pairs(cols).unwrap();
    let video_schema = schema(&[
        ("videoId", DataType::Int),
        ("owner", DataType::Int),
        ("duration", DataType::Float),
    ]);
    let mut video = Table::new(video_schema, &["videoId"]).unwrap();
    for v in 0..40i64 {
        video.insert(vec![Value::Int(v), Value::Int(v % 6), Value::Float((v % 9) as f64)]).unwrap();
    }
    let log_schema = schema(&[
        ("sessionId", DataType::Int),
        ("videoId", DataType::Int),
        ("owner", DataType::Int),
    ]);
    let mut log = Table::new(log_schema, &["sessionId"]).unwrap();
    for s in 0..300i64 {
        log.insert(vec![Value::Int(s), Value::Int(s * 7 % 40), Value::Int(s % 4)]).unwrap();
    }
    db.create_table("video", video);
    db.create_table("log", log);
    db
}

/// Visits per (owner, video), summed per owner.
fn collided_nested_view() -> Plan {
    Plan::scan("log")
        .join(Plan::scan("video"), JoinKind::Inner, &[("videoId", "videoId")])
        .aggregate(&["video.owner", "videoId"], vec![AggSpec::count_all("c")])
        .aggregate(&["video.owner"], vec![AggSpec::new("visits", AggFunc::Sum, col("c"))])
}

/// Every nested view with the base table its deltas change and the `Int`
/// column an update moves (to the next value), over its own database.
fn nested_views() -> Vec<(&'static str, Plan, Database, &'static str, &'static str)> {
    let tpcd = TpcdData::generate(TpcdConfig { scale: 0.01, skew: 2.0, seed: 42 }).unwrap().db;
    let v21 = complex_views().into_iter().find(|v| v.id == "V21").unwrap().plan;
    let cfg = ConvivaConfig { base_events: 3_000, ..ConvivaConfig::default() };
    let activity = conviva::generate(cfg).unwrap();
    let conviva = |id: &str| conviva::views().into_iter().find(|v| v.id == id).unwrap().plan;
    vec![
        ("V21", v21, tpcd, "lineitem", "l_suppkey"),
        ("conviva V4", conviva("V4"), activity.clone(), "activity", "userId"),
        ("conviva V5", conviva("V5"), activity, "activity", "userId"),
        ("collided", collided_nested_view(), collided_db(), "log", "videoId"),
    ]
}

/// Insert-only, update-only and mixed deltas over `table`: copies of every
/// 7th row under fresh keys (`salt` keeps rounds apart), every 5th row with
/// `column` moved to the next value, and both plus every 11th other row
/// deleted.
fn mixes(db: &Database, table: &str, column: &str, salt: i64) -> [(&'static str, Deltas); 3] {
    let base = db.table(table).unwrap();
    let (key, moved) = (base.key()[0], base.schema().resolve(column).unwrap());
    let shifted = |row: &[Value], at: usize, by: i64| {
        let mut row = row.to_vec();
        let Value::Int(v) = row[at] else { panic!("`{table}` column {at} is not an Int") };
        row[at] = Value::Int(v + by);
        row
    };
    let (mut inserts, mut updates, mut mixed) = (Deltas::new(), Deltas::new(), Deltas::new());
    for (i, row) in base.rows().iter().enumerate() {
        if i % 7 == 0 {
            let copy = shifted(row, key, salt * 10_000_000);
            inserts.insert(db, table, copy.clone()).unwrap();
            mixed.insert(db, table, copy).unwrap();
        }
        if i % 5 == 0 {
            updates.update(db, table, shifted(row, moved, 1)).unwrap();
            mixed.update(db, table, shifted(row, moved, 1)).unwrap();
        } else if i % 11 == 0 {
            mixed.delete(db, table, row).unwrap();
        }
    }
    [("insert-only", inserts), ("update-only", updates), ("mixed", mixed)]
}

fn applied(db: &Database, deltas: &Deltas) -> Database {
    let mut next = db.clone();
    deltas.clone().apply_to(&mut next).unwrap();
    next
}

#[test]
fn auxiliary_tables_equal_the_inner_aggregate_on_every_commit_path() {
    for (id, plan, db, table, column) in nested_views() {
        let svc = SvcView::create(id, plan, &db, SvcConfig::with_ratio(0.3)).unwrap();
        let inner = svc.view.auxiliary().expect("a nested view has an auxiliary table");
        let inner = inner.definition.clone();
        for (mix, deltas) in mixes(&db, table, column, 1) {
            let fresh = svc.view.recompute_fresh(&db, &deltas).unwrap();
            let db1 = applied(&db, &deltas);
            let expected_aux = MaterializedView::create("inner", inner.clone(), &db1).unwrap();
            for path in ["maintain", "pipeline", "recover"] {
                let label = format!("{id} {mix} {path}");
                let mut view = svc.view.clone();
                match path {
                    "maintain" => {
                        assert_eq!(view.maintain(&db, &deltas).unwrap(), PlanKind::ChangeTable);
                    }
                    "pipeline" => {
                        let run = BatchPipeline::new(2).maintain(&db, &mut view, &deltas, 64);
                        assert_eq!(run.unwrap().fallback_batches, 1, "{label}");
                    }
                    _ => BatchPipeline::new(1)
                        .recover_via_recompute(&db, &mut view, &deltas)
                        .unwrap(),
                }
                let aux = view.auxiliary().unwrap();
                assert_eq!((view.epoch(), aux.epoch()), (1, 1), "{label}: one commit of both");
                assert!(
                    aux.table().same_contents(expected_aux.table()),
                    "{label}: auxiliary table"
                );
                assert!(view.table().approx_same_contents(&fresh, 1e-9), "{label}: view");

                // The next period cleans against the committed state.
                let mut next = svc.clone();
                next.view = view;
                next.resample();
                let [.., (_, later)] = mixes(&db1, table, column, 2);
                let cleaned = next.clean_sample(&db1, &later).unwrap();
                assert_eq!(cleaned.plan_kind, PlanKind::ChangeTable, "{label}");
                let fresh = next.view.recompute_fresh(&db1, &later).unwrap();
                let expected = sample_by_key(&fresh, next.config.ratio, next.config.hash_spec());
                assert!(
                    cleaned.canonical.approx_same_contents(&expected, 1e-9),
                    "{label}: the next clean is not the fresh view's hash sample"
                );
            }
        }
    }
}

/// Scope of the auxiliary-table class: min, max or median at either level,
/// a global inner γ and a deeper nesting keep no auxiliary table and
/// recompute.
#[test]
fn nested_views_outside_the_class_recompute() {
    let db = collided_db();
    let per_video = |agg: AggSpec| Plan::scan("log").aggregate(&["videoId"], vec![agg]);
    let count = || AggSpec::count_all("c");
    let max_c = || AggSpec::new("c", AggFunc::Max, col("owner"));
    let deeper = per_video(count())
        .aggregate(&["c"], vec![AggSpec::count_all("n")])
        .aggregate(&["n"], vec![AggSpec::count_all("m")]);
    let outside = [
        per_video(max_c()).aggregate(&["c"], vec![AggSpec::count_all("n")]),
        per_video(count()).aggregate(&["c"], vec![AggSpec::new("n", AggFunc::Median, col("c"))]),
        Plan::scan("log")
            .aggregate(&[], vec![count()])
            .aggregate(&["c"], vec![AggSpec::count_all("n")]),
        deeper,
    ];
    let [.., (_, deltas)] = mixes(&db, "log", "videoId", 1);
    for plan in outside {
        let mut view = MaterializedView::create("v", plan, &db).unwrap();
        assert!(view.auxiliary().is_none(), "{}", view.definition);
        let fresh = view.recompute_fresh(&db, &deltas).unwrap();
        assert_eq!(view.maintain(&db, &deltas).unwrap(), PlanKind::Recompute);
        assert!(view.table().approx_same_contents(&fresh, 1e-9));
    }
}
