//! Property tests for the compile-once streaming executor: for randomized
//! databases, plan shapes, and delta workloads, `compile(plan).run(b)`
//! produces a table equal to the legacy materializing evaluator — on query
//! plans, on optimized plans, and on the maintenance-strategy plans that
//! `svc-ivm` compiles (evaluated under full maintenance bindings). Plus
//! regression tests that `BatchPipeline`'s compiled-plan cache replays
//! across repartitions and invalidates on schema changes without changing
//! results. Last, the query answer path, which reads the same kernels over
//! a table's column slices: every aggregate equals the row-at-a-time
//! reference bit for bit. And joins the executor answers empty from zone
//! maps, under every execution mode.

use proptest::prelude::*;

mod generators;
use generators::{
    adversarial_plan_variant, build_db, build_db_adversarial, build_db_mixed, build_db_zones,
    mixed_plan_variant, plan_reference, plan_variant, random_deltas, row_reference, zone_plan,
    MIXED_PLAN_VARIANTS, PLAN_VARIANTS,
};

use stale_view_cleaning::catalog::Catalog;
use stale_view_cleaning::cluster::minibatch::BatchPipeline;
use stale_view_cleaning::core::query::{AggQuery, QueryAgg};
use stale_view_cleaning::core::{maintenance_stats, SvcConfig, SvcView};
use stale_view_cleaning::ivm::delta::{del_leaf, ins_leaf};
use stale_view_cleaning::ivm::view::{maintenance_bindings, MaterializedView};
use stale_view_cleaning::ivm::{derive_delta, DeltaInfo};
use stale_view_cleaning::relalg::aggregate::{AggFunc, AggSpec};
use stale_view_cleaning::relalg::derive::derive;
use stale_view_cleaning::relalg::eval::{evaluate_materializing, Bindings};
use stale_view_cleaning::relalg::exec::{compile, ExecMode, PhysicalPlan};
use stale_view_cleaning::relalg::optimizer::cost::CardEstimator;
use stale_view_cleaning::relalg::optimizer::optimize;
use stale_view_cleaning::relalg::plan::{JoinKind, Plan};
use stale_view_cleaning::relalg::scalar::{col, lit, Expr, Func};
use stale_view_cleaning::storage::{
    DataType, Database, HashSpec, Schema, StagedEdits, Table, Value,
};
use stale_view_cleaning::workloads::tpcd::{TpcdConfig, TpcdData};
use stale_view_cleaning::workloads::tpcd_views::{complex_views, join_view};

/// The row-shaped per-node metrics of one metered run — rows in and out,
/// join build and probe rows, γ groups — in slot order. Wall times and
/// chunk / batch counts are excluded: they differ between kernel paths.
fn node_rows(compiled: &PhysicalPlan, b: &Bindings<'_>, mode: ExecMode) -> Vec<[u64; 5]> {
    let sink = compiled.metrics_sink();
    compiled.run_with_metrics(b, mode, &sink).unwrap();
    sink.snapshots()
        .iter()
        .map(|m| [m.rows_in, m.rows_out, m.build_rows, m.probe_rows, m.groups])
        .collect()
}

/// Attributes for the query-path harness over the `mixed` table: plain
/// Int / Float / Mixed columns, arithmetic trees with `÷0`, `%0` and int
/// narrowing, a node with no kernel, and `count`'s literal.
fn query_attr(i: u8) -> Expr {
    match i % 9 {
        0 => col("a"),
        1 => col("x"),
        2 => col("m"),
        3 => col("a").add(col("x")),
        4 => col("a").mul(col("a")).sub(lit(7i64)),
        5 => col("x").div(col("a")),
        6 => col("a").rem(lit(3i64)).add(col("m").rem(lit(0i64))),
        7 => Expr::Call { func: Func::Abs, args: vec![col("x").sub(lit(5.0))] },
        _ => lit(1i64),
    }
}

/// Predicates for the query-path harness: typed and Mixed literal
/// compares, trees against literals in both orientations, a tree against
/// a column, Or / Not / IsNull composition and a function call.
fn query_predicate(i: u8) -> Option<Expr> {
    Some(match i % 11 {
        0 => return None,
        1 => col("a").gt(lit(10i64)),
        2 => col("x").div(col("a")).ge(lit(0.25)).and(col("x").div(col("a")).le(lit(2.0))),
        3 => lit(30i64).le(col("a").mul(lit(2i64))),
        4 => col("a").rem(lit(3i64)).eq(lit(1i64)).or(col("m").is_null()),
        5 => col("a").add(col("x")).gt(col("m")),
        6 => col("m").eq(lit("s3")).or(col("m").lt(lit(4.5))),
        7 => col("a").gt(lit(20i64)).not(),
        8 => col("a").coalesce(lit(0i64)).lt(lit(5i64)),
        9 => col("flag").eq(lit(true)).and(col("x").sub(col("a")).lt(lit(0.0))),
        _ => col("x").mul(lit(0.0)).eq(lit(0.0)).and(col("a").is_null().not()),
    })
}

/// Regression: `BatchPipeline` compiles one change plan per delta
/// signature, replays it across batches, maintenance calls and
/// repartitions, and stays exact throughout — on a mixed
/// insert/delete/update stream whose chunk signatures vary across batches.
#[test]
fn batch_pipeline_cache_survives_repartitions_exactly() {
    let db = build_db(400, 12, 3);
    let view_def = Plan::scan("fact")
        .join(Plan::scan("dim"), JoinKind::Inner, &[("dimId", "dimId")])
        .aggregate(
            &["dimId"],
            vec![AggSpec::count_all("n"), AggSpec::new("avgx", AggFunc::Avg, col("x"))],
        );
    let view = MaterializedView::create("v", view_def, &db).unwrap();
    let ops: Vec<(u8, u64)> = (0..240u64).map(|i| ((i % 3) as u8, i * 131 + 7)).collect();
    let deltas = random_deltas(&db, &ops);
    let expected = view.recompute_fresh(&db, &deltas).unwrap();

    let mut pipeline = BatchPipeline::new(2);
    let mut v = view.clone();
    let run = pipeline.maintain(&db, &mut v, &deltas, 30).unwrap();
    assert!(run.batches > 3, "enough batches to exercise the cache");
    let first_epoch_compiles = pipeline.metrics().compiles;
    assert!(
        first_epoch_compiles < run.batches as u64,
        "cache must amortize: {first_epoch_compiles} compiles over {} batches",
        run.batches
    );
    assert!(v.table().approx_same_contents(&expected, 1e-9), "first epoch diverged");

    // Same stream again: every signature is already compiled.
    let mut v2 = view.clone();
    pipeline.maintain(&db, &mut v2, &deltas, 30).unwrap();
    assert_eq!(pipeline.metrics().compiles, first_epoch_compiles, "replay must not recompile");
    assert!(v2.table().approx_same_contents(&expected, 1e-9));

    // Repartition: chunks bind their deltas under the same leaf names, so
    // the cached plans replay and results stay exact.
    pipeline.partitions = 5;
    let mut v3 = view;
    pipeline.maintain(&db, &mut v3, &deltas, 30).unwrap();
    assert_eq!(
        pipeline.metrics().compiles,
        first_epoch_compiles,
        "a repartition must not recompile: the cache key has no chunking component"
    );
    assert!(v3.table().approx_same_contents(&expected, 1e-9), "post-repartition diverged");
}

/// Regression (ROADMAP item): a base-schema change between maintenance
/// calls must *invalidate* the compiled-plan cache — recompiling against
/// the new shapes — instead of the cached plans failing leaf validation
/// forever. Combined with a repartition, which must replay the new entry.
#[test]
fn batch_pipeline_recompiles_on_base_schema_change() {
    let db = build_db(300, 10, 5);
    let view_def = Plan::scan("fact")
        .join(Plan::scan("dim"), JoinKind::Inner, &[("dimId", "dimId")])
        .aggregate(
            &["dimId"],
            vec![AggSpec::count_all("n"), AggSpec::new("sx", AggFunc::Sum, col("x"))],
        );
    let view = MaterializedView::create("v", view_def, &db).unwrap();
    let ops: Vec<(u8, u64)> = (0..120u64).map(|i| (0u8, i * 37 + 5)).collect();
    let deltas = random_deltas(&db, &ops);

    let mut pipeline = BatchPipeline::new(2);
    let mut v = view.clone();
    pipeline.maintain(&db, &mut v, &deltas, 40).unwrap();
    let warm_compiles = pipeline.metrics().compiles;
    assert!(warm_compiles >= 1);
    assert!(v.table().approx_same_contents(&view.recompute_fresh(&db, &deltas).unwrap(), 1e-9));

    // The `dim` base table gains a trailing column: same name, new schema.
    // The view definition still derives (columns are resolved by name), but
    // every cached compiled plan's `dim` leaf is now shape-invalid.
    let mut db2 = Database::new();
    db2.create_table("fact", db.table("fact").unwrap().clone());
    let old_dim = db.table("dim").unwrap();
    let mut dim2 = Table::new(
        Schema::from_pairs(&[
            ("dimId", DataType::Int),
            ("weight", DataType::Float),
            ("tag", DataType::Int),
            ("extra", DataType::Int),
        ])
        .unwrap(),
        &["dimId"],
    )
    .unwrap();
    for row in old_dim.rows() {
        let mut r = row.to_vec();
        r.push(Value::Int(7));
        dim2.insert(r).unwrap();
    }
    db2.create_table("dim", dim2);

    let deltas2 = random_deltas(&db2, &ops);
    let expected2 = view.recompute_fresh(&db2, &deltas2).unwrap();
    let mut v2 = view.clone();
    pipeline
        .maintain(&db2, &mut v2, &deltas2, 40)
        .expect("schema change must recompile, not fail leaf validation");
    assert!(
        pipeline.metrics().compiles > warm_compiles,
        "the schema change must key to a fresh compiled-plan entry"
    );
    assert!(v2.table().approx_same_contents(&expected2, 1e-9), "post-schema-change diverged");

    // Repartition on top of the schema change: still exact, served by the
    // plan just compiled for the new shapes.
    let fresh_compiles = pipeline.metrics().compiles;
    pipeline.partitions = 5;
    let mut v3 = view.clone();
    pipeline.maintain(&db2, &mut v3, &deltas2, 40).unwrap();
    assert_eq!(pipeline.metrics().compiles, fresh_compiles, "repartition must not recompile");
    assert!(v3.table().approx_same_contents(&expected2, 1e-9), "post-repartition diverged");

    // And flipping back to the original database keys back to (cached or
    // fresh) plans for the old shapes — no cross-contamination.
    pipeline.partitions = 4;
    let mut v4 = view.clone();
    pipeline.maintain(&db, &mut v4, &deltas, 40).unwrap();
    assert!(v4.table().approx_same_contents(&view.recompute_fresh(&db, &deltas).unwrap(), 1e-9));
}

/// Row conservation on the plans the workloads run: the cached clean
/// plans (η, catalog-ordered) and maintain plans of the ten complex views
/// and the join view under mixed TPCD deltas, under both kernel paths.
/// Their PK-probe joins stream into their consumers, so a streamed node
/// that miscounts breaks an edge here. Every fused scan reaches its
/// consumer through one driver: the scan feeding a streamed probe runs
/// inside the pass (wall 0) on either kernel path, and a bare scan counts
/// neither a row batch nor a vector chunk wherever it sits.
#[test]
fn cached_delta_plans_conserve_rows_on_every_edge() {
    let data = TpcdData::generate(TpcdConfig { scale: 0.01, skew: 2.0, seed: 42 }).unwrap();
    let db = &data.db;
    let deltas = data.updates(0.1, 7).unwrap();
    let catalog = Catalog::build(db);
    let scoped = maintenance_stats(&catalog, None, &deltas);
    let est = scoped.estimator();
    let info = DeltaInfo::of(&deltas);
    let views = complex_views().into_iter().map(|v| (v.id, v.plan));
    let mut streamed = 0;
    let mut vectorized_streamed_scans = 0;
    for (id, plan) in views.chain([("joinView", join_view())]) {
        let svc = SvcView::create(id, plan, db, SvcConfig::with_ratio(0.1)).unwrap();
        let eta = (svc.config.ratio, svc.config.hash_spec());
        let clean: (_, Option<&dyn CardEstimator>, _) = (Some(eta), Some(&est), svc.stale_sample());
        for (eta, est, target) in [clean, (None, None, svc.view.table())] {
            let lookup = svc.view.delta_plan(db, &info, eta, est).unwrap();
            let bindings = svc.view.delta_bindings(db, &deltas, target);
            let check = |plan: &PhysicalPlan| {
                let modes =
                    [(true, ExecMode::sequential()), (false, ExecMode::sequential().rowwise())];
                for (vectorized, mode) in modes {
                    let ex = plan.explain(&bindings, mode)?;
                    let broken = ex.unconserved();
                    assert!(broken.is_empty(), "{id} (η {}): {broken:?}\n{ex}", eta.is_some());
                    let labels: Vec<&str> = ex.nodes.iter().map(|n| n.label.as_str()).collect();
                    streamed += labels
                        .windows(2)
                        .filter(|w| {
                            (w[0].starts_with("fused[") || w[0].starts_with("γ("))
                                && w[1].contains(" pk-probe(")
                        })
                        .count();
                    for w in ex.nodes.windows(3) {
                        let under_stream = (w[0].label.starts_with("fused[")
                            || w[0].label.starts_with("γ("))
                            && w[1].label.contains(" pk-probe(");
                        if under_stream && w[2].label.starts_with("fused-scan(") {
                            let m = &w[2].metrics;
                            assert_eq!(
                                m.wall_ns, 0,
                                "{id}: a streamed left scan runs in the pass\n{ex}"
                            );
                            if vectorized && m.vec_chunks == 1 {
                                vectorized_streamed_scans += 1;
                            }
                        }
                    }
                    for n in ex.nodes.iter().filter(|n| n.label.starts_with("fused-scan(")) {
                        if !n.label.contains('[') {
                            let m = &n.metrics;
                            assert_eq!(
                                (m.row_batches, m.vec_chunks),
                                (0, 0),
                                "{id}: bare scan #{} is neither a row batch nor a chunk\n{ex}",
                                n.id
                            );
                        }
                    }
                }
                Ok(())
            };
            lookup.plan.delta.as_ref().try_map(check).unwrap();
        }
    }
    assert!(streamed > 20, "the workload plans stream their probes: {streamed}");
    eprintln!("vectorized fused scans streamed into a probe: {vectorized_streamed_scans}");
    assert!(vectorized_streamed_scans >= 1, "a vectorized scan feeds a streamed probe");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Query-shaped plans (optionally η-wrapped, optionally optimized):
    /// the streaming executor must produce exactly the legacy evaluator's
    /// relation.
    #[test]
    fn compiled_execution_matches_legacy_on_query_plans(
        n_facts in 30usize..150,
        n_dims in 4usize..16,
        variant in 0u8..PLAN_VARIANTS,
        hashed in 0u8..2,
        optimized in 0u8..2,
        ratio in 0.1f64..0.9,
        seed in 0u64..500,
        data_seed in 0u64..200,
    ) {
        let db = build_db(n_facts, n_dims, data_seed);
        let shaped = |mut plan: Plan| {
            if hashed == 1 {
                let derived = stale_view_cleaning::relalg::derive::derive(&plan, &db).unwrap();
                let key: Vec<String> =
                    derived.key_names().iter().map(|s| s.to_string()).collect();
                if !key.is_empty() {
                    let key_refs: Vec<&str> = key.iter().map(|s| s.as_str()).collect();
                    plan = plan.hash(&key_refs, ratio, HashSpec::with_seed(seed));
                }
            }
            if optimized == 1 {
                plan = optimize(&plan, &db).unwrap().0;
            }
            plan
        };
        let plan = shaped(plan_variant(variant));
        let b = Bindings::from_database(&db);
        let expected = evaluate_materializing(&shaped(plan_reference(variant)), &b).unwrap();
        let compiled = compile(&plan, &b).unwrap();
        let got = compiled.run(&b).unwrap();
        prop_assert!(
            got.same_contents(&expected),
            "variant {} (hashed {}, optimized {}): executor diverged, {} vs {} rows",
            variant, hashed, optimized, got.len(), expected.len()
        );
        // The vectorized kernels (default) and the row-at-a-time reference
        // path must agree bit for bit, row for row, in order.
        let rowwise = compiled.run_with(&b, ExecMode::sequential().rowwise()).unwrap();
        prop_assert!(
            got.rows() == rowwise.rows(),
            "variant {} (hashed {}, optimized {}): vectorized and rowwise paths diverged",
            variant, hashed, optimized
        );
        // Metered runs agree with unmetered ones, the root slot's rows_out
        // equals the result length, and both exec modes record identical
        // per-node row counts.
        let sink = compiled.metrics_sink();
        let metered = compiled
            .run_with_metrics(&b, ExecMode::sequential(), &sink)
            .unwrap();
        prop_assert!(metered.rows() == got.rows(), "metering changed the result");
        prop_assert_eq!(sink.snapshot(0).rows_out as usize, got.len());
        let vec_rows: Vec<(u64, u64)> =
            sink.snapshots().iter().map(|m| (m.rows_in, m.rows_out)).collect();
        let row_sink = compiled.metrics_sink();
        compiled
            .run_with_metrics(
                &b,
                ExecMode::sequential().rowwise(),
                &row_sink,
            )
            .unwrap();
        let row_rows: Vec<(u64, u64)> =
            row_sink.snapshots().iter().map(|m| (m.rows_in, m.rows_out)).collect();
        prop_assert_eq!(
            vec_rows, row_rows,
            "variant {} (hashed {}, optimized {}): per-node metric row counts differ \
             between vectorized and rowwise modes",
            variant, hashed, optimized
        );
        // Every row-shaped metric, join and γ fields included, is a
        // function of the plan and its inputs, not of the kernel path.
        prop_assert_eq!(
            node_rows(&compiled, &b, ExecMode::sequential()),
            node_rows(&compiled, &b, ExecMode::sequential().rowwise()),
            "variant {} (hashed {}, optimized {}): row-shaped per-node metrics differ \
             between vectorized and rowwise modes",
            variant, hashed, optimized
        );
        // Every node takes in exactly what its children report putting out.
        for mode in [ExecMode::sequential(), ExecMode::sequential().rowwise()] {
            let ex = compiled.explain(&b, mode).unwrap();
            prop_assert!(
                ex.unconserved().is_empty(),
                "variant {} (hashed {}, optimized {}): rows not conserved: {:?}\n{}",
                variant, hashed, optimized, ex.unconserved(), ex
            );
        }
    }

    /// Maintenance-strategy plans from svc-ivm, evaluated under maintenance
    /// bindings (stale view + base tables + delta relations): compiled
    /// execution must agree there too — this is the path `BatchPipeline`
    /// and `MaterializedView::maintain` now run through.
    #[test]
    fn compiled_execution_matches_legacy_on_maintenance_plans(
        n_facts in 40usize..120,
        n_dims in 4usize..12,
        view_kind in 0u8..4,
        ops in proptest::collection::vec((0u8..6, 0u64..1_000_000), 1..50),
        data_seed in 0u64..200,
    ) {
        let db = build_db(n_facts, n_dims, data_seed);
        let view_def = match view_kind % 4 {
            // Change-table strategy (additive aggregate).
            0 => Plan::scan("fact")
                .join(Plan::scan("dim"), JoinKind::Inner, &[("dimId", "dimId")])
                .aggregate(
                    &["dimId"],
                    vec![
                        AggSpec::count_all("n"),
                        AggSpec::new("avgx", AggFunc::Avg, col("x")),
                    ],
                ),
            // Delta-apply strategy (SPJ view).
            1 => Plan::scan("fact")
                .join(Plan::scan("dim"), JoinKind::Inner, &[("dimId", "dimId")])
                .select(col("weight").gt(lit(0.2))),
            // Change-table strategy through an auxiliary table (nested
            // aggregate; the reference form inlines the table's definition).
            2 => Plan::scan("fact")
                .aggregate(&["dimId"], vec![AggSpec::count_all("c")])
                .aggregate(&["c"], vec![AggSpec::count_all("n")]),
            // Recompute strategy (median).
            _ => Plan::scan("fact")
                .aggregate(&["dimId"], vec![AggSpec::new("medx", AggFunc::Median, col("x"))]),
        };
        let view = MaterializedView::create("v", view_def, &db).unwrap();
        let deltas = random_deltas(&db, &ops);
        let (plan, _kind) = view.build_maintenance_plan(&db, &deltas).unwrap();
        let (plan, _) = optimize(&plan, &maintenance_bindings(&db, &deltas, view.table())).unwrap();

        let bindings = maintenance_bindings(&db, &deltas, view.table());
        let expected = evaluate_materializing(&plan, &bindings).unwrap();
        let compiled = compile(&plan, &bindings).unwrap();
        let got = compiled.run(&bindings).unwrap();
        prop_assert!(
            got.same_contents(&expected),
            "view kind {}: maintenance execution diverged, {} vs {} rows",
            view_kind, got.len(), expected.len()
        );
        let rowwise = compiled.run_with(&bindings, ExecMode::sequential().rowwise()).unwrap();
        prop_assert!(
            got.rows() == rowwise.rows(),
            "view kind {view_kind}: vectorized and rowwise maintenance paths diverged"
        );
        prop_assert_eq!(
            node_rows(&compiled, &bindings, ExecMode::sequential()),
            node_rows(&compiled, &bindings, ExecMode::sequential().rowwise()),
            "view kind {}: row-shaped per-node metrics differ between vectorized and \
             rowwise modes",
            view_kind
        );
        for mode in [ExecMode::sequential(), ExecMode::sequential().rowwise()] {
            let ex = compiled.explain(&bindings, mode).unwrap();
            prop_assert!(
                ex.unconserved().is_empty(),
                "view kind {}: rows not conserved: {:?}\n{}",
                view_kind, ex.unconserved(), ex
            );
        }
    }

    /// The ∆ side of a `fact ⋈ dim` view on dim's key, as the delta rule
    /// writes it — `((fact ⋈ ∆dim) ▷ ∇fact) ∪ (∆fact ⋈ dim′)`, dim′ read
    /// through one layered probe — holds the rows of the three-branch form
    /// `((fact ⋈ ∆dim) ▷ ∇fact) ∪ ((∆fact ⋈ dim) ▷ ∇dim) ∪ (∆fact ⋈ ∆dim)`
    /// on every delta mix over both tables, with and without η on the view
    /// key and a σ on dim, under both execution modes and the materializing
    /// evaluator.
    #[test]
    fn new_state_probe_matches_the_three_branch_form(
        n_facts in 40usize..120,
        n_dims in 4usize..12,
        ops in proptest::collection::vec((0u8..6, 0u64..1_000_000), 1..50),
        data_seed in 0u64..200,
        filtered in 0u8..2,
        hashed in 0u8..2,
    ) {
        let db = build_db(n_facts, n_dims, data_seed);
        let deltas = random_deltas(&db, &ops);
        let empty: Vec<Table> = ["fact", "dim"]
            .iter()
            .map(|t| {
                let base = db.table(t).unwrap();
                let key: Vec<&str> =
                    base.key().iter().map(|&k| base.schema().field(k).name.as_str()).collect();
                Table::new(base.schema().clone(), &key).unwrap()
            })
            .collect();
        let mut b = Bindings::from_database(&db);
        for (t, empty) in ["fact", "dim"].iter().zip(&empty) {
            b.bind(ins_leaf(t), deltas.get(t).map_or(empty, |set| &set.insertions));
            b.bind(del_leaf(t), deltas.get(t).map_or(empty, |set| &set.deletions));
        }
        let dim = |leaf: String| match filtered {
            0 => Plan::scan(leaf),
            _ => Plan::scan(leaf).select(col("tag").ne(lit(2i64))),
        };
        let join = |l: Plan, r: Plan| l.join(r, JoinKind::Inner, &[("dimId", "dimId")]);
        let view = join(Plan::scan("fact"), dim("dim".into()));
        let names = derive(&view, &b).unwrap().schema;
        let anti = |p: Plan, del: &str, on: (&str, &str)| Plan::Join {
            left: Box::new(p),
            right: Box::new(Plan::scan(del)),
            kind: JoinKind::Anti,
            on: vec![(on.0.to_string(), on.1.to_string())],
        };
        let named = |p: Plan| {
            let have = derive(&p, &b).unwrap().schema;
            let columns = names
                .fields()
                .iter()
                .zip(have.fields())
                .map(|(want, is)| (want.name.clone(), col(is.name.clone())))
                .collect();
            Plan::Project { input: Box::new(p), columns }
        };
        let (fact, ins_fact) = (|| Plan::scan("fact"), || Plan::scan(ins_leaf("fact")));
        let by_fact = anti(join(fact(), dim(ins_leaf("dim"))), &del_leaf("fact"), ("factId", "factId"));
        let by_dim = anti(join(ins_fact(), dim("dim".into())), &del_leaf("dim"), ("dim.dimId", "dimId"));
        let both = join(ins_fact(), dim(ins_leaf("dim")));
        let three = named(by_fact).union(named(by_dim)).union(named(both));
        let ins = derive_delta(&view, &DeltaInfo::of(&deltas), &b, None).unwrap().ins;
        let ins = ins.unwrap_or_else(|| three.clone().difference(three.clone()));
        let eta = |p: Plan| match hashed {
            0 => p,
            _ => optimize(&p.hash(&["factId"], 0.5, HashSpec::with_seed(11)), &b).unwrap().0,
        };
        let (ins, three) = (eta(ins), eta(three));
        let expected = evaluate_materializing(&three, &b).unwrap();
        prop_assert!(evaluate_materializing(&ins, &b).unwrap().same_contents(&expected));
        let compiled = compile(&ins, &b).unwrap();
        for mode in [ExecMode::sequential(), ExecMode::sequential().rowwise()] {
            let got = compiled.run_with(&b, mode).unwrap();
            prop_assert!(
                got.same_contents(&expected),
                "{}: {} rows, the three-branch form {}",
                compiled.describe(), got.len(), expected.len()
            );
        }
    }

    /// Null-heavy, type-mixed tables: typed kernels with validity masks,
    /// the `Mixed` column fallback, cross-type-rank literals, IsNull
    /// composition, and η/γ over nullable keys — vectorized execution must
    /// match the legacy evaluator (as a set) and the rowwise reference
    /// path bit for bit, row for row, in order.
    #[test]
    fn vectorized_matches_rowwise_on_null_heavy_mixed_tables(
        n_rows in 40usize..300,
        variant in 0u8..MIXED_PLAN_VARIANTS,
        hashed in 0u8..2,
        ratio in 0.1f64..0.9,
        seed in 0u64..500,
        data_seed in 0u64..200,
    ) {
        let db = build_db_mixed(n_rows, data_seed);
        let mut plan = mixed_plan_variant(variant);
        if hashed == 1 {
            let derived = stale_view_cleaning::relalg::derive::derive(&plan, &db).unwrap();
            let key: Vec<String> =
                derived.key_names().iter().map(|s| s.to_string()).collect();
            if !key.is_empty() {
                let key_refs: Vec<&str> = key.iter().map(|s| s.as_str()).collect();
                plan = plan.hash(&key_refs, ratio, HashSpec::with_seed(seed));
            }
        }
        let b = Bindings::from_database(&db);
        let expected = evaluate_materializing(&plan, &b).unwrap();
        let compiled = compile(&plan, &b).unwrap();
        let got = compiled.run(&b).unwrap();
        prop_assert!(
            got.same_contents(&expected),
            "mixed variant {} (hashed {}): executor diverged, {} vs {} rows",
            variant, hashed, got.len(), expected.len()
        );
        let rowwise = compiled.run_with(&b, ExecMode::sequential().rowwise()).unwrap();
        prop_assert!(
            got.rows() == rowwise.rows(),
            "mixed variant {variant} (hashed {hashed}): vectorized and rowwise paths diverged"
        );
    }

    /// Adversarial join-key distributions (Zipf skew, all-rows-one-key,
    /// null-heavy keys, hash-collision-prone values) through the hash-build
    /// join and set-op paths: the streaming executor must match the legacy
    /// evaluator as a set and the rowwise reference path bit for bit.
    #[test]
    fn compiled_execution_matches_legacy_on_adversarial_join_keys(
        n_facts in 30usize..200,
        skew in 0u8..4,
        variant in 0u8..8,
        optimized in 0u8..2,
        data_seed in 0u64..200,
    ) {
        let db = build_db_adversarial(n_facts, skew, data_seed);
        let mut plan = adversarial_plan_variant(variant);
        if optimized == 1 {
            plan = optimize(&plan, &db).unwrap().0;
        }
        let b = Bindings::from_database(&db);
        let expected = evaluate_materializing(&plan, &b).unwrap();
        let compiled = compile(&plan, &b).unwrap();
        let got = compiled.run(&b).unwrap();
        prop_assert!(
            got.same_contents(&expected),
            "adversarial skew {} variant {}: executor diverged, {} vs {} rows",
            skew, variant, got.len(), expected.len()
        );
        let rowwise = compiled.run_with(&b, ExecMode::sequential().rowwise()).unwrap();
        prop_assert!(
            got.rows() == rowwise.rows(),
            "adversarial skew {skew} variant {variant}: vectorized and rowwise paths diverged"
        );
    }

    /// The query answer path reads column slices (named columns only,
    /// selection kernels, the batch evaluator): every aggregate, and the
    /// matching values themselves, equal the row-at-a-time reference bit for
    /// bit on null-heavy, type-mixed tables — read cold, read from the answer
    /// memo, and read again after an edit and a delete in place.
    #[test]
    fn query_answers_read_columns_exactly_like_rows(
        n_rows in 1usize..300,
        attr in 0u8..9,
        predicate in 0u8..11,
        p in 0.0f64..1.0,
        data_seed in 0u64..200,
    ) {
        let db = build_db_mixed(n_rows, data_seed);
        let t = db.table("mixed").unwrap();
        let q = AggQuery { agg: QueryAgg::Sum, attr: query_attr(attr), predicate: query_predicate(predicate) };
        let want: Vec<u64> = {
            let bound = q.attr.bind(t.schema()).unwrap();
            let pred = q.predicate.as_ref().map(|e| e.bind(t.schema()).unwrap());
            t.rows()
                .iter()
                .filter(|r| pred.as_ref().is_none_or(|e| e.matches(r)))
                .filter_map(|r| bound.eval(r).as_f64())
                .map(f64::to_bits)
                .collect()
        };
        let got: Vec<u64> =
            q.bind(t).unwrap().matching_values(t).into_iter().map(f64::to_bits).collect();
        prop_assert_eq!(got, want, "matching values, attr {} predicate {}", attr, predicate);
        let queries: Vec<AggQuery> = [
            QueryAgg::Sum,
            QueryAgg::Count,
            QueryAgg::Avg,
            QueryAgg::Median,
            QueryAgg::Percentile(p),
            QueryAgg::Min,
            QueryAgg::Max,
        ]
        .into_iter()
        .map(|agg| AggQuery { agg, ..q.clone() })
        .collect();
        // `exact` reads through the table's answer memo: on a private copy,
        // the second read of each query is a hit and keeps the reference's
        // bits; each mutation in place drops the memo, so the next read
        // answers the new rows.
        let mut copy = t.clone();
        let answers_like_rows = |t: &Table, when: &str| {
            for q in &queries {
                prop_assert_eq!(
                    q.exact(t).unwrap().to_bits(),
                    row_reference(q, t).to_bits(),
                    "{:?} {}, attr {} predicate {}", q.agg, when, attr, predicate
                );
            }
        };
        answers_like_rows(&copy, "cold");
        answers_like_rows(&copy, "memoized");
        let mut edited = copy.rows()[data_seed as usize % copy.len()].to_vec();
        edited[1] = Value::Int(data_seed as i64 % 60);
        edited[2] = Value::Float(data_seed as f64 / 16.0);
        let mut edits = StagedEdits::default();
        edits.put(&copy, edited);
        copy.apply_edits(edits);
        answers_like_rows(&copy, "after an edit");
        let last = copy.key_of(&copy.rows()[copy.len() - 1]);
        copy.delete(&last);
        answers_like_rows(&copy, "after a delete");
        answers_like_rows(t, "on the original");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A join of disjoint key ranges is answered empty from zone maps, and
    /// that is invisible in results: over disjoint, touching, overlapping
    /// and equal `Int` key windows — small, past ±2^53 and at the ends of
    /// `i64`, with NULL keys and empty leaves — and over Float keys with
    /// signed zeros and NaN, every join kind with a PK-probed or hash-built
    /// right side, bare or under a chain, and a π-renamed or computed left
    /// key equals the legacy evaluator under every mode, with per-node row
    /// counts identical across modes. The join is pruned exactly when it is
    /// an inner or semi join of two traceable `Int` keys whose leaves'
    /// widened zones are disjoint (or one leaf holds no non-NULL key).
    #[test]
    fn zone_pruned_joins_match_legacy_under_every_mode(
        n in 1usize..40,
        anchor in 0u8..6,
        layout in 0u8..5,
        nulls in 0u8..3,
        empty in 0u8..6,
        kind in 0u8..4,
        left in 0u8..4,
        right in 0u8..4,
        data_seed in 0u64..500,
    ) {
        let db = build_db_zones(n, anchor, layout, nulls, empty, data_seed);
        let kind = [JoinKind::Inner, JoinKind::Semi, JoinKind::Anti, JoinKind::Left][kind as usize];
        let (plan, leaf_col) = zone_plan(kind, left, right);
        let b = Bindings::from_database(&db);
        let expected = evaluate_materializing(&plan, &b).unwrap();
        let compiled = compile(&plan, &b).unwrap();
        let modes = [ExecMode::sequential(), ExecMode::sequential().rowwise()];
        let mut first = None;
        for mode in modes {
            let sink = compiled.metrics_sink();
            let got = compiled.run_with_metrics(&b, mode, &sink).unwrap();
            prop_assert!(
                got.same_contents(&expected),
                "{:?} {:?}: {} vs {} rows", mode, plan, got.len(), expected.len()
            );
            let counts: Vec<(u64, u64)> =
                sink.snapshots().iter().map(|m| (m.rows_in, m.rows_out)).collect();
            let run = (counts, sink.snapshot(0).zone_skips);
            match &first {
                None => first = Some(run),
                Some(first) => prop_assert_eq!(first, &run, "{:?} {:?}", mode, plan),
            }
        }
        let ints = |table: &str, c: &str| -> Vec<i64> {
            let t = db.table(table).unwrap();
            let i = t.schema().resolve(c).unwrap();
            t.rows().iter().filter_map(|r| if let Value::Int(v) = r[i] { Some(v) } else { None }).collect()
        };
        let zone = |v: Vec<i64>| Some((*v.iter().min()? as f64, *v.iter().max()? as f64));
        let disjoint = match (zone(ints("zl", "k")), zone(ints("zr", leaf_col))) {
            (Some((llo, lhi)), Some((rlo, rhi))) => lhi < rlo || rhi < llo,
            _ => true,
        };
        let prunable = matches!(kind, JoinKind::Inner | JoinKind::Semi) && left % 4 < 2;
        let skips = first.unwrap().1;
        prop_assert_eq!(skips, u64::from(prunable && disjoint), "{:?}", plan);
    }
}
