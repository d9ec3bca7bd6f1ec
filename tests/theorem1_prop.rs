//! Property tests for Theorem 1: the hash push-down rewrite materializes the
//! *identical* sample, for randomized data and randomized plan shapes — and
//! so does cleaning by fold: a view's stale sample, with the η-sampled keyed
//! pair of its strategy folded in (γ(∆), γ(∇) of a change-table view, ∆V, ∇V
//! of an SPJ view), is the sample its cleaning plan materializes (on
//! randomized deltas and on every workload view), at the cost of evaluating
//! each side once and never reading the stale view.

use std::collections::BTreeMap;

use proptest::prelude::*;

use stale_view_cleaning::catalog::Catalog;
use stale_view_cleaning::core::svc::CleanedSample;
use stale_view_cleaning::core::{maintenance_stats, SvcConfig, SvcView};
use stale_view_cleaning::ivm::strategy::{view_delta, PlanKind, ViewDelta};
use stale_view_cleaning::ivm::view::maintenance_bindings;
use stale_view_cleaning::ivm::DeltaInfo;
use stale_view_cleaning::relalg::aggregate::{AggFunc, AggSpec};
use stale_view_cleaning::relalg::eval::{evaluate, Bindings};
use stale_view_cleaning::relalg::exec::{compile, explain_analyze, leaf_scan_counts, ExecMode};
use stale_view_cleaning::relalg::plan::{JoinKind, Plan};
use stale_view_cleaning::relalg::scalar::{col, lit};
use stale_view_cleaning::sampling::operator::sample_by_key;
use stale_view_cleaning::sampling::{check_correspondence, push_down};
use stale_view_cleaning::storage::{DataType, Database, Deltas, HashSpec, Schema, Table, Value};
use stale_view_cleaning::workloads::conviva::{self, ConvivaConfig};
use stale_view_cleaning::workloads::cube::base_cube;
use stale_view_cleaning::workloads::tpcd::{TpcdConfig, TpcdData};
use stale_view_cleaning::workloads::tpcd_views::{complex_views, join_view};

fn build_db(facts: &[(i64, i64, f64)], dims: &[(i64, f64)]) -> Database {
    let mut db = Database::new();
    let mut dim = Table::new(
        Schema::from_pairs(&[("dimId", DataType::Int), ("weight", DataType::Float)]).unwrap(),
        &["dimId"],
    )
    .unwrap();
    for &(id, w) in dims {
        dim.insert(vec![Value::Int(id), Value::Float(w)]).unwrap();
    }
    let mut fact = Table::new(
        Schema::from_pairs(&[
            ("factId", DataType::Int),
            ("dimId", DataType::Int),
            ("x", DataType::Float),
        ])
        .unwrap(),
        &["factId"],
    )
    .unwrap();
    for &(id, d, x) in facts {
        fact.insert(vec![Value::Int(id), Value::Int(d), Value::Float(x)]).unwrap();
    }
    db.create_table("dim", dim);
    db.create_table("fact", fact);
    db
}

/// Deterministic pseudo-random stream from `seed`.
fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    }
}

fn random_db(n_facts: usize, n_dims: usize, next: &mut impl FnMut() -> u64) -> Database {
    let dims: Vec<(i64, f64)> =
        (0..n_dims).map(|i| (i as i64, (next() % 100) as f64 / 100.0)).collect();
    let facts: Vec<(i64, i64, f64)> = (0..n_facts)
        .map(|i| (i as i64, (next() % n_dims as u64) as i64, (next() % 1000) as f64 / 1000.0))
        .collect();
    build_db(&facts, &dims)
}

/// The plan shapes exercised: σ, Π, FK join, equality join + γ, ∪, −.
fn plan_variant(variant: u8) -> (Plan, Vec<&'static str>) {
    match variant % 6 {
        0 => (Plan::scan("fact").select(col("x").gt(lit(0.3))), vec!["factId"]),
        1 => (
            Plan::scan("fact")
                .project(vec![("factId", col("factId")), ("x2", col("x").mul(lit(2.0)))]),
            vec!["factId"],
        ),
        2 => (
            Plan::scan("fact").join(Plan::scan("dim"), JoinKind::Inner, &[("dimId", "dimId")]),
            vec!["factId"],
        ),
        3 => (
            Plan::scan("fact")
                .join(Plan::scan("dim"), JoinKind::Inner, &[("dimId", "dimId")])
                .aggregate(
                    &["dimId"],
                    vec![AggSpec::count_all("n"), AggSpec::new("sx", AggFunc::Sum, col("x"))],
                ),
            vec!["dimId"],
        ),
        4 => (
            Plan::scan("fact")
                .select(col("x").lt(lit(0.5)))
                .union(Plan::scan("fact").select(col("x").ge(lit(0.4)))),
            vec!["factId"],
        ),
        _ => (
            Plan::scan("fact")
                .select(col("dimId").lt(lit(8i64)))
                .difference(Plan::scan("fact").select(col("x").gt(lit(0.8)))),
            vec!["factId"],
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pushdown_materializes_identical_samples(
        n_facts in 20usize..120,
        n_dims in 3usize..15,
        variant in 0u8..6,
        ratio in 0.05f64..0.9,
        seed in 0u64..1000,
        data_seed in 0u64..100,
    ) {
        let db = random_db(n_facts, n_dims, &mut xorshift(data_seed));

        let (plan, key) = plan_variant(variant);
        let hashed = plan.hash(&key, ratio, HashSpec::with_seed(seed));

        let b = Bindings::from_database(&db);
        let unpushed = evaluate(&hashed, &b).unwrap();
        let (optimized, _report) = push_down(&hashed, &db).unwrap();
        let pushed = evaluate(&optimized, &b).unwrap();

        prop_assert!(
            pushed.same_contents(&unpushed),
            "variant {} ratio {} seed {}: {} vs {} rows",
            variant, ratio, seed, pushed.len(), unpushed.len()
        );
    }
}

/// `Ŝ′` of `svc` under `deltas` against its two references: the staged run
/// of `cleaning_plan_with`'s plan — exactly — and Property 1 against the
/// recomputed view. Returns the cleaned sample.
fn assert_cleans_like_its_plan(
    svc: &SvcView,
    db: &Database,
    deltas: &Deltas,
    fresh: &Table,
    catalog: Option<&Catalog>,
    label: &str,
) -> CleanedSample {
    let cleaned = svc.clean_sample_with(db, deltas, catalog).unwrap();
    let (plan, _, kind) = svc.cleaning_plan_with(db, deltas, catalog).unwrap();
    assert_eq!(cleaned.plan_kind, kind, "{label}");
    // Binding the whole view is right wherever η ended up: on a `__stale`
    // leaf it selects exactly the stale sample, above one it samples later.
    let bindings = maintenance_bindings(db, deltas, svc.view.table());
    let reference = compile(&plan, &bindings).unwrap().run(&bindings).unwrap();
    assert!(
        cleaned.canonical.same_contents(&reference),
        "{label}: cleaned sample ({} rows) differs from its cleaning plan's ({} rows)",
        cleaned.canonical.len(),
        reference.len()
    );
    let (m, spec) = (svc.config.ratio, svc.config.hash_spec());
    let violations = check_correspondence(
        svc.stale_sample(),
        &cleaned.canonical,
        svc.view.table(),
        fresh,
        m,
        spec,
    );
    assert!(violations.is_empty(), "{label}: {violations:?}");
    assert!(
        cleaned.canonical.approx_same_contents(&sample_by_key(fresh, m, spec), 1e-9),
        "{label}: cleaned sample is not the hash sample of the fresh view"
    );
    cleaned
}

/// `deltas` split by sign: its insertions of new keys only, its deletions
/// only, and all of it.
fn by_sign(db: &Database, deltas: &Deltas) -> [(&'static str, Deltas); 3] {
    let (mut ins, mut del) = (Deltas::new(), Deltas::new());
    for (name, set) in deltas.iter() {
        let base = db.table(name).unwrap();
        for row in set.insertions.rows().iter().filter(|r| !base.contains_key(&base.key_of(r))) {
            ins.insert(db, name, row.clone()).unwrap();
        }
        for row in set.deletions.rows() {
            del.delete(db, name, row).unwrap();
        }
    }
    [("insert-only", ins), ("delete-only", del), ("mixed", deltas.clone())]
}

/// Every `(view, delta sign, config, catalog on/off)` cell through
/// [`assert_cleans_like_its_plan`]; returns how many cleaned by fold. The
/// configs are three hash seeds at m = 0.2 and m = 1, where cleaning is
/// maintenance: the cleaned sample is the view `maintain` commits — exactly
/// without a catalog, within float-summation rounding with one (η changes
/// the estimates joins are reordered by).
fn assert_views_clean_like_their_plans(
    db: &Database,
    views: Vec<(&str, Plan)>,
    mixed: &Deltas,
) -> usize {
    let catalog = Catalog::build(db);
    let configs = [0x51a1e, 7, 99].map(|seed| SvcConfig::with_ratio(0.2).reseeded(seed));
    let mut folded = 0;
    for (id, plan) in views {
        let mut svc = SvcView::create(id, plan, db, configs[0]).unwrap();
        for (sign, deltas) in by_sign(db, mixed) {
            let fresh = svc.view.recompute_fresh(db, &deltas).unwrap();
            let mut maintained = svc.view.clone();
            maintained.maintain(db, &deltas).unwrap();
            for config in configs.into_iter().chain([SvcConfig::with_ratio(1.0)]) {
                svc.config = config;
                svc.resample();
                for catalog in [None, Some(&catalog)] {
                    let label = format!(
                        "{id} {sign} m {} seed {} catalog {}",
                        config.ratio,
                        config.seed,
                        catalog.is_some()
                    );
                    let cleaned =
                        assert_cleans_like_its_plan(&svc, db, &deltas, &fresh, catalog, &label);
                    folded += usize::from(cleaned.plan_kind == PlanKind::ChangeTable);
                    if config.ratio < 1.0 {
                        continue;
                    }
                    let maintained = maintained.table();
                    let same = match catalog {
                        None => cleaned.canonical.same_contents(maintained),
                        Some(_) => cleaned.canonical.approx_same_contents(maintained, 1e-9),
                    };
                    assert!(same, "{label}: cleaning at m = 1 is not maintenance");
                }
            }
        }
    }
    folded
}

#[test]
fn fold_cleaning_equals_the_cleaning_plan_on_the_tpcd_views() {
    let data = TpcdData::generate(TpcdConfig { scale: 0.01, skew: 2.0, seed: 42 }).unwrap();
    // Insertions into `orders` and `lineitem`, re-priced lineitems — and
    // whole orders deleted, so groups die and `__del.orders` is exercised.
    let mut mixed = data.updates(0.1, 7).unwrap();
    for row in data.db.table("orders").unwrap().rows().iter().step_by(40) {
        mixed.delete(&data.db, "orders", row).unwrap();
    }
    let mut views = vec![("joinView", join_view()), ("cube", base_cube())];
    views.extend(complex_views().into_iter().map(|v| (v.id, v.plan)));
    let folded = assert_views_clean_like_their_plans(&data.db, views, &mixed);
    assert!(folded >= 8 * 18, "most cells must take the fold path: {folded}");
}

#[test]
fn fold_cleaning_equals_the_cleaning_plan_on_the_conviva_views() {
    let cfg = ConvivaConfig { base_events: 4_000, ..ConvivaConfig::default() };
    let db = conviva::generate(cfg).unwrap();
    let mut mixed = conviva::appended_updates(&db, cfg, 600, 3).unwrap();
    for row in db.table("activity").unwrap().rows().iter().step_by(17) {
        mixed.delete(&db, "activity", row).unwrap();
    }
    let views = conviva::views().into_iter().map(|v| (v.id, v.plan)).collect();
    let folded = assert_views_clean_like_their_plans(&db, views, &mixed);
    assert!(folded >= 4 * 18, "the single-aggregate views must take the fold path: {folded}");
}

/// Recomputed views that name a collided right-side column: `log ⋈ video`
/// grouped by `video.owner`, with a median and as a nested γ. Recomputation
/// joins `video`'s new state `(video ▷ ∇video) ∪ ∆video`, which must name
/// the column `video.owner` as `video` itself does. Both maintain and clean
/// to the recomputed view, with and without `video` deletions.
#[test]
fn recomputed_views_resolve_collided_right_columns() {
    let mut db = Database::new();
    let schema = |cols: &[(&str, DataType)]| Schema::from_pairs(cols).unwrap();
    let mut video = Table::new(
        schema(&[
            ("videoId", DataType::Int),
            ("owner", DataType::Int),
            ("duration", DataType::Float),
        ]),
        &["videoId"],
    )
    .unwrap();
    for v in 0..40i64 {
        video.insert(vec![Value::Int(v), Value::Int(v % 6), Value::Float((v % 9) as f64)]).unwrap();
    }
    let mut log = Table::new(
        schema(&[
            ("sessionId", DataType::Int),
            ("videoId", DataType::Int),
            ("owner", DataType::Int),
        ]),
        &["sessionId"],
    )
    .unwrap();
    for s in 0..300i64 {
        log.insert(vec![Value::Int(s), Value::Int(s * 7 % 40), Value::Int(s % 4)]).unwrap();
    }
    db.create_table("video", video);
    db.create_table("log", log);

    let log_video =
        || Plan::scan("log").join(Plan::scan("video"), JoinKind::Inner, &[("videoId", "videoId")]);
    let median = log_video().aggregate(
        &["video.owner"],
        vec![AggSpec::new("medDur", AggFunc::Median, col("duration"))],
    );
    let nested = log_video()
        .aggregate(&["video.owner", "videoId"], vec![AggSpec::count_all("c")])
        .aggregate(&["video.owner"], vec![AggSpec::new("visits", AggFunc::Sum, col("c"))]);

    let mut without = Deltas::new();
    for s in 300..340i64 {
        without.insert(&db, "log", vec![Value::Int(s), Value::Int(s % 45), Value::Int(1)]).unwrap();
    }
    for v in 40..45i64 {
        without
            .insert(&db, "video", vec![Value::Int(v), Value::Int(2), Value::Float(3.5)])
            .unwrap();
    }
    for s in (0..300i64).step_by(23) {
        without.delete(&db, "log", &vec![Value::Int(s), Value::Null, Value::Null]).unwrap();
    }
    let mut with = without.clone();
    with.delete(&db, "video", &vec![Value::Int(7), Value::Null, Value::Null]).unwrap();
    with.update(&db, "video", vec![Value::Int(12), Value::Int(5), Value::Float(8.5)]).unwrap();

    for deltas in [without, with] {
        for (id, plan) in [("median", median.clone()), ("nested", nested.clone())] {
            let mut view = SvcView::create(id, plan, &db, SvcConfig::with_ratio(0.5)).unwrap().view;
            let fresh = view.recompute_fresh(&db, &deltas).unwrap();
            assert_eq!(view.maintain(&db, &deltas).unwrap(), PlanKind::Recompute, "{id}");
            assert!(view.table().approx_same_contents(&fresh, 1e-9), "{id}: maintained");
        }
        let views = vec![("median", median.clone()), ("nested", nested.clone())];
        assert_eq!(assert_views_clean_like_their_plans(&db, views, &deltas), 0, "all recompute");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Cleaning the γ-over-join view under random insertions, deletions and
    /// updates — always including a sampled group whose rows are all deleted
    /// (it dies in the sample) and a brand-new group whose key hashes into
    /// the sample (it appears there).
    #[test]
    fn fold_cleaning_materializes_the_corresponding_sample(
        n_facts in 20usize..120,
        n_dims in 3usize..15,
        ratio in 0.2f64..0.9,
        seed in 0u64..1000,
        data_seed in 0u64..100,
    ) {
        let mut next = xorshift(data_seed);
        let db = random_db(n_facts, n_dims, &mut next);
        let (view, _) = plan_variant(3);
        let config = SvcConfig::with_ratio(ratio).reseeded(seed);
        let svc = SvcView::create("v", view, &db, config).unwrap();
        let spec = config.hash_spec();
        let sampled = |id: i64| spec.selects(&[Value::Int(id)], ratio);

        let fact = db.table("fact").unwrap();
        let mut deltas = Deltas::new();
        // A group of the stale sample loses every row and gains none.
        let dying = svc.stale_sample().rows().first().map(|r| r[0].clone());
        let mut surviving_dim = || loop {
            let dim = Value::Int((next() % n_dims as u64) as i64);
            if Some(&dim) != dying.as_ref() {
                return dim;
            }
        };
        for (i, row) in fact.rows().iter().enumerate() {
            if Some(&row[1]) == dying.as_ref() || i % 5 == 0 {
                deltas.delete(&db, "fact", row).unwrap();
            } else if i % 7 == 0 {
                let moved = vec![row[0].clone(), surviving_dim(), row[2].clone()];
                deltas.update(&db, "fact", moved).unwrap();
            }
        }
        // A dimension the view has never seen, chosen so η selects it.
        let born = (n_dims as i64..).find(|&id| sampled(id)).unwrap();
        deltas.insert(&db, "dim", vec![Value::Int(born), Value::Float(0.5)]).unwrap();
        for i in 0..5 + (n_facts / 8) as i64 {
            let dim = if i < 2 { Value::Int(born) } else { surviving_dim() };
            let x = Value::Float((i * 37 % 1000) as f64 / 1000.0);
            deltas.insert(&db, "fact", vec![Value::Int(n_facts as i64 + i), dim, x]).unwrap();
        }

        let fresh = svc.view.recompute_fresh(&db, &deltas).unwrap();
        let cleaned = assert_cleans_like_its_plan(&svc, &db, &deltas, &fresh, None, "proptest");
        prop_assert_eq!(cleaned.plan_kind, PlanKind::ChangeTable);
        let cleaned = cleaned.canonical;
        let key = |id: &Value| cleaned.key_of(&vec![id.clone(), Value::Null, Value::Null]);
        prop_assert!(cleaned.contains_key(&key(&Value::Int(born))), "the new group is sampled");
        if let Some(dying) = dying {
            prop_assert!(!cleaned.contains_key(&key(&dying)), "the emptied group left the sample");
        }
    }
}

/// Leaf reads made on this thread since `before`.
fn scans_since(before: &BTreeMap<String, u64>) -> BTreeMap<String, u64> {
    let mut now = leaf_scan_counts();
    now.retain(|leaf, n| {
        *n -= before.get(leaf).copied().unwrap_or(0);
        *n > 0
    });
    now
}

/// Table clones `CleanedSample::public` costs: a view without a public
/// projection (SPJ) shows its canonical sample, copied.
fn display_copies(svc: &SvcView) -> usize {
    usize::from(svc.view.canonical().public.is_none())
}

/// Cost shape, no wall clock: cleaning a view under mixed `lineitem` +
/// `orders` deltas reads every leaf — each `__ins.*` / `__del.*` relation and
/// each base table — exactly as often as the two sides of its keyed pair name
/// it (γ(∆) plus γ(∇) for V5, ∆V plus ∇V for the join view), never reads
/// `__stale`, and clones one table (the stale sample). The same bound holds
/// for full maintenance. (The merge plan read each delta join nine times to
/// clean and three times to maintain; the SPJ plan scanned the stale view.)
/// A recomputed view (V21) clones nothing and never reads `__stale` either.
#[test]
fn cleaning_and_maintaining_evaluate_each_change_table_once() {
    let data = TpcdData::generate(TpcdConfig { scale: 0.01, skew: 2.0, seed: 42 }).unwrap();
    let db = &data.db;
    let deltas = data.updates(0.1, 7).unwrap();
    let info = DeltaInfo::of(&deltas);
    assert!(info.ins.contains("orders") && info.ins.contains("lineitem"));
    assert!(info.del.contains("lineitem"), "setup: a mixed delta set");
    let catalog = Catalog::build(db);
    let complex = |id: &str| complex_views().into_iter().find(|v| v.id == id).unwrap().plan;

    for (id, plan) in [("V5", complex("V5")), ("joinView", join_view()), ("V21", complex("V21"))] {
        let svc = SvcView::create(id, plan, db, SvcConfig::with_ratio(0.2)).unwrap();
        // What one evaluation of each side reads, and the one clone a fold
        // makes; a recompute is only held to never reading `__stale`.
        let once = match view_delta(svc.view.canonical(), &svc.view.maint_catalog(db), &info) {
            Ok(ViewDelta::Keyed { change, .. }) => {
                let mut once: BTreeMap<String, u64> = BTreeMap::new();
                for side in [change.ins.expect("∆ side"), change.del.expect("∇ side")] {
                    for leaf in side.leaf_tables() {
                        *once.entry(leaf.to_string()).or_default() += 1;
                    }
                }
                assert!(once.keys().any(|leaf| leaf.starts_with("__ins.")), "{id}: {once:?}");
                assert!(once.keys().any(|leaf| leaf.starts_with("__del.")), "{id}: {once:?}");
                Some(once)
            }
            Ok(ViewDelta::Recompute(_)) => None,
            other => panic!("{id}: the deltas reach the view, got {other:?}"),
        };
        assert_eq!(once.is_none(), id == "V21", "{id}");
        let check = |what: &str, scans: BTreeMap<String, u64>, clones: usize| {
            assert!(!scans.contains_key("__stale"), "{id} {what}: {scans:?}");
            if let Some(once) = &once {
                assert_eq!(&scans, once, "{id} {what}");
            }
            assert_eq!(clones, usize::from(once.is_some()), "{id} {what}: the one folded copy");
        };
        let display_copy = display_copies(&svc);

        for catalog in [None, Some(&catalog)] {
            let (scans, clones) = (leaf_scan_counts(), Table::clone_count());
            svc.clean_sample_with(db, &deltas, catalog).unwrap();
            let what = format!("clean, catalog {}", catalog.is_some());
            check(&what, scans_since(&scans), Table::clone_count() - clones - display_copy);
        }

        let (scans, clones) = (leaf_scan_counts(), Table::clone_count());
        let mode = ExecMode::sequential();
        let maintained = svc.view.maintained(db, &deltas, svc.view.table(), None, None, mode);
        maintained.unwrap().expect("pending");
        check("maintain", scans_since(&scans), Table::clone_count() - clones);
    }
}

/// Cost shape, no wall clock: a delta probes, it never builds. Under mixed
/// `lineitem` + `orders` deltas, EXPLAIN ANALYZE of each side of the join
/// view's and V5's keyed pair — η-wrapped and optimized with the catalog, as
/// a clean runs it, and bare, as `maintain` runs it — shows no ∪ taking in
/// and no hash build holding more rows than the deltas have: `orders` is
/// only ever probed by key (V5's pruned to the columns it reads), never
/// scanned into a new state `orders ∪ ∆orders` to hash-build over.
#[test]
fn delta_sides_probe_base_tables_by_key() {
    let data = TpcdData::generate(TpcdConfig { scale: 0.01, skew: 2.0, seed: 42 }).unwrap();
    let db = &data.db;
    let deltas = data.updates(0.1, 7).unwrap();
    let delta_rows: u64 =
        deltas.iter().map(|(_, set)| (set.insertions.len() + set.deletions.len()) as u64).sum();
    let catalog = Catalog::build(db);
    let scoped = maintenance_stats(&catalog, None, &deltas);
    let est = scoped.estimator();
    let v5 = complex_views().into_iter().find(|v| v.id == "V5").unwrap().plan;
    for (id, plan, probe) in
        [("joinView", join_view(), "pk-probe(orders)"), ("V5", v5, "pk-probe(orders)[π]")]
    {
        let svc = SvcView::create(id, plan, db, SvcConfig::with_ratio(0.1)).unwrap();
        let cat = svc.view.maint_catalog(db);
        let bindings = maintenance_bindings(db, &deltas, svc.stale_sample());
        let Ok(ViewDelta::Keyed { change, .. }) =
            view_delta(svc.view.canonical(), &cat, &DeltaInfo::of(&deltas))
        else {
            panic!("{id}: a keyed pair");
        };
        for side in [change.ins, change.del].into_iter().flatten() {
            let eta = (svc.config.ratio, svc.config.hash_spec());
            let hashed = svc.view.hashed(side.clone(), eta).unwrap();
            let cleaning = cat.optimize(&hashed, Some(&est)).unwrap().0;
            let maintaining = cat.optimize(&side, None).unwrap().0;
            for plan in [cleaning, maintaining] {
                let ex = explain_analyze(&plan, &bindings, None, ExecMode::sequential()).unwrap();
                let mut probes = 0;
                for n in &ex.nodes {
                    let (label, m) = (&n.label, &n.metrics);
                    assert!(label != "Union" || m.rows_in <= delta_rows, "{id}: {label}\n{ex}");
                    let build = label.ends_with(" build");
                    assert!(!build || m.build_rows <= delta_rows, "{id}: {label}\n{ex}");
                    if label.contains("(orders)") {
                        assert!(label.ends_with(probe), "{id}: `orders` read as {label}\n{ex}");
                        probes += 1;
                    }
                }
                assert!(probes > 0, "{id}: each side reads `orders`\n{ex}");
            }
        }
    }
}

/// Deltas that cannot reach a view — they touch only tables it never reads —
/// are a no-op for an aggregate and an SPJ view alike: maintenance copies
/// nothing, commits no epoch and reports `NoOp`; cleaning hands back the
/// stale sample (its one clone) without running a plan, and the cleaning
/// plan, `Scan __stale`, reports `NoOp` too.
#[test]
fn unreachable_deltas_are_a_noop() {
    let data = TpcdData::generate(TpcdConfig { scale: 0.01, skew: 2.0, seed: 42 }).unwrap();
    let db = &data.db;
    let mut deltas = Deltas::new();
    deltas.delete(db, "supplier", &db.table("supplier").unwrap().rows()[0]).unwrap();
    let v3 = complex_views().into_iter().find(|v| v.id == "V3").unwrap().plan;
    for (id, plan) in [("V3", v3), ("joinView", join_view())] {
        assert!(!plan.leaf_tables().contains(&"supplier"), "{id}: setup");
        let mut svc = SvcView::create(id, plan, db, SvcConfig::with_ratio(0.2)).unwrap();
        let fresh = svc.view.recompute_fresh(db, &deltas).unwrap();

        let kind = assert_cleans_like_its_plan(&svc, db, &deltas, &fresh, None, id).plan_kind;
        assert_eq!(kind, PlanKind::NoOp, "{id}");
        let (scans, clones) = (leaf_scan_counts(), Table::clone_count());
        let cleaned = svc.clean_sample(db, &deltas).unwrap();
        assert!(cleaned.canonical.same_contents(svc.stale_sample()), "{id}");
        assert_eq!(scans_since(&scans), BTreeMap::new(), "{id}: cleaning ran a plan");
        let clones = Table::clone_count() - clones - display_copies(&svc);
        assert_eq!(clones, 1, "{id}: one clone, the stale sample");

        let (epoch, clones) = (svc.view.epoch(), Table::clone_count());
        assert_eq!(svc.view.maintain(db, &deltas).unwrap(), PlanKind::NoOp, "{id}");
        assert_eq!(svc.view.epoch(), epoch, "{id}: no commit");
        assert_eq!(Table::clone_count(), clones, "{id}: no copy of the view");
    }
}
