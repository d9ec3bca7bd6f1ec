//! One plan cache per view. Cost shape: once a delta signature is planned,
//! a clean or a maintain — on the view or any clone of it — runs no
//! optimizer and compiles nothing, only runs and folds. Key soundness: every
//! hit lands what a plan built anew would — each by-hash clone its own hash
//! sample, a min/max view the strategy its deltas allow, a base-schema
//! change a recompiled plan — and a failed build stores nothing.

use stale_view_cleaning::catalog::Catalog;
use stale_view_cleaning::core::{SvcConfig, SvcView};
use stale_view_cleaning::ivm::plans::PlanMetrics;
use stale_view_cleaning::ivm::strategy::PlanKind;
use stale_view_cleaning::ivm::view::MaterializedView;
use stale_view_cleaning::ivm::DeltaInfo;
use stale_view_cleaning::relalg::aggregate::{AggFunc, AggSpec};
use stale_view_cleaning::relalg::optimizer::optimize_count;
use stale_view_cleaning::relalg::plan::{JoinKind, Plan};
use stale_view_cleaning::relalg::scalar::col;
use stale_view_cleaning::relalg::verify;
use stale_view_cleaning::sampling::operator::sample_by_key;
use stale_view_cleaning::storage::{DataType, Database, Deltas, HashSpec, Schema, Table, Value};
use stale_view_cleaning::workloads::tpcd::{TpcdConfig, TpcdData};
use stale_view_cleaning::workloads::tpcd_views::complex_views;

fn video_schema(extra: bool) -> Schema {
    let mut cols =
        vec![("videoId", DataType::Int), ("ownerId", DataType::Int), ("duration", DataType::Float)];
    if extra {
        cols.push(("extra", DataType::Int));
    }
    Schema::from_pairs(&cols).unwrap()
}

/// `video` (200 rows) and `log` (3 000 sessions over them); with `extra`,
/// `video` carries one more trailing column — same rows, new shape.
fn db_shaped(extra: bool) -> Database {
    let mut db = Database::new();
    let mut video = Table::new(video_schema(extra), &["videoId"]).unwrap();
    for v in 0..200i64 {
        let mut row = vec![Value::Int(v), Value::Int(v % 13), Value::Float(0.25 * (v % 11) as f64)];
        if extra {
            row.push(Value::Int(7));
        }
        video.insert(row).unwrap();
    }
    let mut log = Table::new(
        Schema::from_pairs(&[("sessionId", DataType::Int), ("videoId", DataType::Int)]).unwrap(),
        &["sessionId"],
    )
    .unwrap();
    for s in 0..3_000i64 {
        log.insert(vec![Value::Int(s), Value::Int((s * 31 + 11) % 200)]).unwrap();
    }
    db.create_table("video", video);
    db.create_table("log", log);
    db
}

fn db() -> Database {
    db_shaped(false)
}

fn visit_view() -> Plan {
    Plan::scan("log")
        .join(Plan::scan("video"), JoinKind::Inner, &[("videoId", "videoId")])
        .aggregate(
            &["videoId"],
            vec![
                AggSpec::count_all("visits"),
                AggSpec::new("avgDur", AggFunc::Avg, col("duration")),
            ],
        )
}

/// `n` new sessions from `first` on, and every `step`-th old one deleted:
/// the signature (inserts and deletes on `log`) is the same for every
/// argument, the rows are not.
fn log_churn(db: &Database, first: i64, n: i64, step: i64) -> Deltas {
    let mut deltas = Deltas::new();
    for s in first..first + n {
        deltas.insert(db, "log", vec![Value::Int(s), Value::Int((s * 7) % 230)]).unwrap();
    }
    for s in (0..3_000i64).step_by(step as usize) {
        deltas.delete(db, "log", &[Value::Int(s), Value::Null]).unwrap();
    }
    deltas
}

/// Theorem 1 for a cleaned sample: the hash sample of the fresh view.
fn assert_corresponds(svc: &SvcView, db: &Database, deltas: &Deltas, cleaned: &Table) {
    let fresh = svc.view.recompute_fresh(db, deltas).unwrap();
    let expected = sample_by_key(&fresh, svc.config.ratio, svc.config.hash_spec());
    assert!(
        cleaned.approx_same_contents(&expected, 1e-9),
        "cleaned sample ({} rows) is not the fresh view's hash sample ({} rows)",
        cleaned.len(),
        expected.len()
    );
}

/// The verifier rebuilds every hit to prove it, so optimizer counts hold
/// only without it.
fn assert_no_optimizer_run_since(before: u64) {
    if !verify::ENABLED {
        assert_eq!(optimize_count(), before, "a planned signature runs no optimizer");
    }
}

#[test]
fn a_second_clean_of_a_planned_signature_runs_no_optimizer_and_no_compile() {
    let db = db();
    let catalog = Catalog::build(&db);
    let svc = SvcView::create("v", visit_view(), &db, SvcConfig::with_ratio(0.2)).unwrap();
    let (d1, d2) = (log_churn(&db, 3_000, 300, 17), log_churn(&db, 5_000, 450, 11));
    assert_eq!(DeltaInfo::of(&d1), DeltaInfo::of(&d2), "setup: one signature, two delta sets");

    let first = svc.clean_sample_with(&db, &d1, Some(&catalog)).unwrap();
    assert_corresponds(&svc, &db, &d1, &first.canonical);
    let (optimizes, before) = (optimize_count(), svc.metrics());
    assert_eq!(before.plans_built, 1);

    let second = svc.clean_sample_with(&db, &d2, Some(&catalog)).unwrap();
    assert_no_optimizer_run_since(optimizes);
    let after = svc.metrics();
    assert_eq!(after.plans_built, before.plans_built, "nothing compiled");
    assert_eq!(after.plan_hits, before.plan_hits + 1);
    assert_eq!(second.plan_kind, PlanKind::ChangeTable);
    assert_corresponds(&svc, &db, &d2, &second.canonical);
    assert_eq!(second.report.blockers, first.report.blockers, "the hit carries its η report");

    // A new statistics generation is a new key: the plan is re-priced.
    let mut recataloged = catalog.clone();
    recataloged.refresh_table("log", db.table("log").unwrap());
    svc.clean_sample_with(&db, &d2, Some(&recataloged)).unwrap();
    assert_eq!(svc.metrics().plans_built, before.plans_built + 1);
    // A clone of the catalog holds the same stats: still a hit.
    let cloned = catalog.clone();
    svc.clean_sample_with(&db, &d1, Some(&cloned)).unwrap();
    assert_eq!(svc.metrics().plans_built, before.plans_built + 1);
    assert_eq!(cloned.generation(), catalog.generation());
}

/// Two catalogs built over one database are two statistics generations:
/// each plans the signature once, and cleans alternating between them replay
/// their own entries instead of evicting each other's.
#[test]
fn alternating_catalogs_replay_their_own_plans() {
    let db = db();
    let catalogs = [Catalog::build(&db), Catalog::build(&db)];
    let svc = SvcView::create("v", visit_view(), &db, SvcConfig::with_ratio(0.2)).unwrap();
    let deltas = log_churn(&db, 3_000, 300, 17);
    for _ in 0..4 {
        for catalog in &catalogs {
            let cleaned = svc.clean_sample_with(&db, &deltas, Some(catalog)).unwrap();
            assert_corresponds(&svc, &db, &deltas, &cleaned.canonical);
        }
    }
    let m = svc.metrics();
    assert_eq!((m.plans_built, m.plan_hits), (2, 6), "one plan per generation, then hits only");
}

#[test]
fn maintaining_a_clone_after_one_maintain_runs_no_optimizer() {
    let db = db();
    let view = MaterializedView::create("v", visit_view(), &db).unwrap();
    let (d1, d2) = (log_churn(&db, 3_000, 200, 13), log_churn(&db, 4_000, 120, 29));
    let mut first = view.clone();
    assert_eq!(first.maintain(&db, &d1).unwrap(), PlanKind::ChangeTable);

    let (optimizes, built) = (optimize_count(), view.plan_metrics().built);
    let mut second = view.clone();
    assert_eq!(second.maintain(&db, &d2).unwrap(), PlanKind::ChangeTable);
    assert_no_optimizer_run_since(optimizes);
    assert_eq!(view.plan_metrics().built, built, "the clone shares the view's plans");
    let expected = view.recompute_fresh(&db, &d2).unwrap();
    assert!(second.table().approx_same_contents(&expected, 1e-9));
    // A commit keeps the cache: the maintained view itself replays it.
    first.maintain(&db, &d2).unwrap();
    assert_eq!(view.plan_metrics().built, built);
}

#[test]
fn by_hash_clones_share_one_cache_and_each_cleans_to_its_own_sample() {
    let db = db();
    let catalog = Catalog::build(&db);
    let svc = SvcView::create("v", visit_view(), &db, SvcConfig::with_ratio(0.25)).unwrap();
    let clones: Vec<SvcView> = (0..3u64)
        .map(|h| {
            let mut v = svc.clone();
            v.config = v.config.reseeded(1_000 + h);
            v.resample();
            v
        })
        .collect();
    for deltas in [log_churn(&db, 3_000, 250, 19), log_churn(&db, 6_000, 100, 7)] {
        let mut samples: Vec<Table> = Vec::new();
        for c in &clones {
            let cleaned = c.clean_sample_with(&db, &deltas, Some(&catalog)).unwrap();
            assert_corresponds(c, &db, &deltas, &cleaned.canonical);
            samples.push(cleaned.canonical);
        }
        assert!(
            !samples[0].same_contents(&samples[1]) && !samples[1].same_contents(&samples[2]),
            "three hash seeds, three samples"
        );
    }
    let m = svc.view.plan_metrics();
    assert_eq!((m.built, m.hits), (3, 3), "the seed is in the key; each replays its own plan");
}

/// Min/max merge under insertions only: the same view takes a change table
/// for one signature and a recompute for the other, and each hit keeps its
/// own strategy.
#[test]
fn a_min_max_view_keys_its_strategy_by_signature() {
    let db = db();
    let def = Plan::scan("video")
        .aggregate(&["ownerId"], vec![AggSpec::new("maxDur", AggFunc::Max, col("duration"))]);
    let svc = SvcView::create("m", def, &db, SvcConfig::with_ratio(0.5)).unwrap();
    let mut inserts = Deltas::new();
    for v in 200..230i64 {
        inserts
            .insert(&db, "video", vec![Value::Int(v), Value::Int(v % 17), Value::Float(9.5)])
            .unwrap();
    }
    let mut churn = inserts.clone();
    for v in (0..200i64).step_by(9) {
        churn.delete(&db, "video", &[Value::Int(v), Value::Null, Value::Null]).unwrap();
    }
    for _ in 0..2 {
        for (deltas, kind) in [(&inserts, PlanKind::ChangeTable), (&churn, PlanKind::Recompute)] {
            let cleaned = svc.clean_sample(&db, deltas).unwrap();
            assert_eq!(cleaned.plan_kind, kind);
            assert_corresponds(&svc, &db, deltas, &cleaned.canonical);
            let mut ivm = svc.view.clone();
            assert_eq!(ivm.maintain(&db, deltas).unwrap(), kind);
            let expected = svc.view.recompute_fresh(&db, deltas).unwrap();
            assert!(ivm.table().approx_same_contents(&expected, 1e-9), "{kind:?}");
        }
    }
    let m = svc.view.plan_metrics();
    assert_eq!((m.built, m.hits), (4, 4), "two signatures × (clean, maintain), then replays");
}

/// A base table that changes shape between calls keys to a fresh entry:
/// the clean and the maintain recompile against the new shape instead of
/// failing leaf validation on the cached plans, and the old shape's entry
/// still serves the old database.
#[test]
fn a_base_schema_change_recompiles_the_clean_and_the_maintain() {
    let (db, db2) = (db(), db_shaped(true));
    let svc = SvcView::create("v", visit_view(), &db, SvcConfig::with_ratio(0.3)).unwrap();
    let (deltas, deltas2) = (log_churn(&db, 3_000, 200, 23), log_churn(&db2, 3_000, 200, 23));
    for (db, deltas) in [(&db, &deltas), (&db2, &deltas2), (&db, &deltas)] {
        let cleaned = svc
            .clean_sample(db, deltas)
            .expect("a schema change must recompile, not fail leaf validation");
        assert_corresponds(&svc, db, deltas, &cleaned.canonical);
        let mut ivm = svc.view.clone();
        ivm.maintain(db, deltas).expect("a schema change must recompile the maintain too");
        let expected = svc.view.recompute_fresh(db, deltas).unwrap();
        assert!(ivm.table().approx_same_contents(&expected, 1e-9));
    }
    let m = svc.view.plan_metrics();
    assert_eq!((m.built, m.hits), (4, 2), "one entry per shape and target; the old shape hits");
}

/// An error is returned, never stored: η over a view without a key fails
/// in the build, leaves the cache empty, and fails again the next time.
#[test]
fn a_failed_build_stores_nothing() {
    let db = db();
    let def = Plan::scan("log").aggregate(&[], vec![AggSpec::count_all("n")]);
    let view = MaterializedView::create("g", def, &db).unwrap();
    let deltas = log_churn(&db, 3_000, 50, 31);
    let eta = Some((0.5, HashSpec::default()));
    for _ in 0..2 {
        let run = view.maintained(&db, &deltas, view.table(), eta, None);
        assert!(run.is_err(), "η needs a key");
        assert_eq!(view.plan_metrics(), PlanMetrics { built: 0, hits: 0, entries: 0 });
    }
    // The same signature without η plans, stores and maintains.
    view.clone().maintain(&db, &deltas).unwrap();
    assert_eq!(view.plan_metrics(), PlanMetrics { built: 1, hits: 0, entries: 1 });
}

/// A nested aggregate view's delta plans read its auxiliary table: a second
/// clean and a second maintain of a planned signature are hits — under the
/// `verify` feature each hit is rebuilt and run again with the auxiliary
/// leaf bound — and a rebuild under a new statistics generation cleans to
/// the same rows as the hit.
#[test]
fn a_nested_view_replays_its_plans_and_a_rebuild_lands_the_same_rows() {
    let data = TpcdData::generate(TpcdConfig { scale: 0.01, skew: 2.0, seed: 42 }).unwrap();
    let db = &data.db;
    let v21 = complex_views().into_iter().find(|v| v.id == "V21").unwrap().plan;
    let svc = SvcView::create("V21", v21, db, SvcConfig::with_ratio(0.5)).unwrap();
    let (d1, d2) = (data.updates(0.1, 7).unwrap(), data.updates(0.05, 9).unwrap());
    assert_eq!(DeltaInfo::of(&d1), DeltaInfo::of(&d2), "setup: one signature, two delta sets");
    let catalog = Catalog::build(db);

    let first = svc.clean_sample_with(db, &d1, Some(&catalog)).unwrap();
    assert_corresponds(&svc, db, &d1, &first.canonical);
    let (optimizes, before) = (optimize_count(), svc.metrics());
    let hit = svc.clean_sample_with(db, &d2, Some(&catalog)).unwrap();
    assert_no_optimizer_run_since(optimizes);
    assert_eq!(
        (hit.plan_kind, svc.metrics().plan_hits),
        (PlanKind::ChangeTable, before.plan_hits + 1)
    );
    assert_corresponds(&svc, db, &d2, &hit.canonical);

    let mut recataloged = catalog;
    recataloged.refresh_table("lineitem", db.table("lineitem").unwrap());
    let rebuilt = svc.clean_sample_with(db, &d2, Some(&recataloged)).unwrap();
    assert_eq!(svc.metrics().plans_built, before.plans_built + 1, "a new generation rebuilds");
    assert!(rebuilt.canonical.same_contents(&hit.canonical), "the rebuild lands the hit's rows");

    for deltas in [&d1, &d2] {
        let mut ivm = svc.view.clone();
        assert_eq!(ivm.maintain(db, deltas).unwrap(), PlanKind::ChangeTable);
        let expected = svc.view.recompute_fresh(db, deltas).unwrap();
        assert!(ivm.table().same_contents(&expected));
    }
    let m = svc.view.plan_metrics();
    assert_eq!((m.built, m.hits), (before.plans_built + 2, before.plan_hits + 2));
}
