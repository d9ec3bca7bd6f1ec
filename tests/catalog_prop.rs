//! Property tests for the statistics catalog and cost-based join
//! reordering:
//!
//! * reordered plans (queries *and* maintenance/change-table plans over
//!   randomized TPC-D-style snowflake schemas) evaluate to the same
//!   relation as the builder order;
//! * incrementally-maintained statistics match statistics rebuilt from
//!   scratch over the post-delta table (exactly for counts/histograms and
//!   for insert-only sketches/bounds; conservatively under deletions);
//! * the distinct-count register sketch and histogram selectivities stay
//!   accurate on Zipf-distributed data (`svc_workloads::zipf`);
//! * one optimizer pass is a fixed point: σ pushed below a blocked η, and
//!   every delta plan of every workload view, re-optimize to themselves;
//! * the cost shape of join ordering, in estimator calls: none for regions
//!   of two relations, one per relation for a searched region.

use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use stale_view_cleaning::catalog::{
    Catalog, CatalogEstimator, ScopedStats, StatsProvider, TableStats,
};
use stale_view_cleaning::core::{maintenance_stats, SvcConfig, SvcView};
use stale_view_cleaning::ivm::strategy::{view_delta, ViewDelta};
use stale_view_cleaning::ivm::view::{maintenance_bindings, MaterializedView};
use stale_view_cleaning::ivm::DeltaInfo;
use stale_view_cleaning::relalg::aggregate::{AggFunc, AggSpec};
use stale_view_cleaning::relalg::derive::LeafProvider;
use stale_view_cleaning::relalg::eval::{evaluate, Bindings};
use stale_view_cleaning::relalg::optimizer::cost::RelCard;
use stale_view_cleaning::relalg::optimizer::{optimize, optimize_with, CardEstimator};
use stale_view_cleaning::relalg::plan::{JoinKind, Plan};
use stale_view_cleaning::relalg::scalar::{col, lit};
use stale_view_cleaning::storage::{DataType, Database, Deltas, HashSpec, Schema, Table, Value};
use stale_view_cleaning::workloads::conviva::{self, ConvivaConfig};
use stale_view_cleaning::workloads::cube::base_cube;
use stale_view_cleaning::workloads::tpcd::{TpcdConfig, TpcdData};
use stale_view_cleaning::workloads::tpcd_views::{complex_views, join_view};
use stale_view_cleaning::workloads::zipf::Zipf;

/// A snowflake: fact → dim1, fact → dim2 → dim3 (TPC-D's
/// lineitem → orders → customer → nation chain in miniature).
fn snowflake_db(n_fact: usize, n_d1: usize, n_d2: usize, n_d3: usize, seed: u64) -> Database {
    let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let mut db = Database::new();
    let mut dim3 = Table::new(
        Schema::from_pairs(&[("d3", DataType::Int), ("w3", DataType::Float)]).unwrap(),
        &["d3"],
    )
    .unwrap();
    for i in 0..n_d3 as i64 {
        dim3.insert(vec![Value::Int(i), Value::Float((next() % 50) as f64)]).unwrap();
    }
    let mut dim2 = Table::new(
        Schema::from_pairs(&[
            ("d2", DataType::Int),
            ("d3", DataType::Int),
            ("w2", DataType::Float),
        ])
        .unwrap(),
        &["d2"],
    )
    .unwrap();
    for i in 0..n_d2 as i64 {
        dim2.insert(vec![
            Value::Int(i),
            Value::Int((next() % n_d3 as u64) as i64),
            Value::Float((next() % 40) as f64),
        ])
        .unwrap();
    }
    let mut dim1 = Table::new(
        Schema::from_pairs(&[("d1", DataType::Int), ("w1", DataType::Float)]).unwrap(),
        &["d1"],
    )
    .unwrap();
    for i in 0..n_d1 as i64 {
        dim1.insert(vec![Value::Int(i), Value::Float((next() % 30) as f64)]).unwrap();
    }
    let mut fact = Table::new(
        Schema::from_pairs(&[
            ("fid", DataType::Int),
            ("d1", DataType::Int),
            ("d2", DataType::Int),
            ("x", DataType::Float),
        ])
        .unwrap(),
        &["fid"],
    )
    .unwrap();
    for i in 0..n_fact as i64 {
        fact.insert(vec![
            Value::Int(i),
            Value::Int((next() % n_d1 as u64) as i64),
            Value::Int((next() % n_d2 as u64) as i64),
            Value::Float((next() % 100) as f64),
        ])
        .unwrap();
    }
    db.create_table("dim3", dim3);
    db.create_table("dim2", dim2);
    db.create_table("dim1", dim1);
    db.create_table("fact", fact);
    db
}

/// The three-join region written in several builder orders (all compute
/// the same relation), with a selective filter whose best position depends
/// on the order.
fn snowflake_plan(order: u8, w3_cut: i64, x_cut: i64) -> Plan {
    let filter = col("w3").lt(lit(w3_cut as f64)).and(col("x").ge(lit(x_cut as f64)));
    let plan = match order % 4 {
        0 => Plan::scan("fact")
            .join(Plan::scan("dim1"), JoinKind::Inner, &[("d1", "d1")])
            .join(Plan::scan("dim2"), JoinKind::Inner, &[("d2", "d2")])
            .join(Plan::scan("dim3"), JoinKind::Inner, &[("d3", "d3")]),
        1 => Plan::scan("fact")
            .join(Plan::scan("dim2"), JoinKind::Inner, &[("d2", "d2")])
            .join(Plan::scan("dim3"), JoinKind::Inner, &[("d3", "d3")])
            .join(Plan::scan("dim1"), JoinKind::Inner, &[("d1", "d1")]),
        2 => Plan::scan("dim2")
            .join(Plan::scan("dim3"), JoinKind::Inner, &[("d3", "d3")])
            .join(Plan::scan("fact"), JoinKind::Inner, &[("d2", "d2")])
            .join(Plan::scan("dim1"), JoinKind::Inner, &[("d1", "d1")]),
        _ => Plan::scan("dim1")
            .join(
                Plan::scan("fact").join(Plan::scan("dim2"), JoinKind::Inner, &[("d2", "d2")]),
                JoinKind::Inner,
                &[("d1", "d1")],
            )
            .join(Plan::scan("dim3"), JoinKind::Inner, &[("d3", "d3")]),
    };
    plan.select(filter)
}

/// Same relation: same schema and same row multiset. Deliberately ignores
/// the derived primary key — Definition 2's foreign-key reduction depends
/// on join orientation, so a reordered (but equal) relation may carry a
/// different, equally valid key.
fn same_relation(a: &Table, b: &Table) -> bool {
    if a.schema() != b.schema() || a.len() != b.len() {
        return false;
    }
    let mut ra = a.rows().to_vec();
    let mut rb = b.rows().to_vec();
    ra.sort();
    rb.sort();
    ra == rb
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Reordering preserves the computed relation exactly on randomized
    /// snowflake join plans, whatever order the builder emitted.
    #[test]
    fn reordered_query_plans_evaluate_identically(
        n_fact in 200usize..600,
        n_d1 in 4usize..20,
        n_d2 in 8usize..40,
        n_d3 in 3usize..10,
        order in 0u8..4,
        w3_cut in 5i64..45,
        x_cut in 0i64..60,
        seed in 0u64..1_000,
        agg in 0u8..2,
    ) {
        let db = snowflake_db(n_fact, n_d1, n_d2, n_d3, seed);
        let mut plan = snowflake_plan(order, w3_cut, x_cut);
        if agg == 1 {
            plan = plan.aggregate(
                &["d1"],
                vec![AggSpec::count_all("n"), AggSpec::new("sx", AggFunc::Sum, col("x"))],
            );
        }
        let cat = Catalog::build(&db);
        let b = Bindings::from_database(&db);
        let (baseline, _) = optimize(&plan, &db).unwrap();
        let expected = evaluate(&baseline, &b).unwrap();
        let (reordered, _) = optimize_with(&plan, &db, &cat.estimator()).unwrap();
        let got = evaluate(&reordered, &b).unwrap();
        // Aggregated sums may differ in float accumulation order only;
        // non-aggregated outputs carry identical rows (possibly under a
        // different — equally valid — derived key).
        let equal = if agg == 1 {
            got.approx_same_contents(&expected, 1e-9)
        } else {
            same_relation(&got, &expected)
        };
        prop_assert!(
            equal,
            "order {order}, agg {agg}: reordering changed the result ({} vs {} rows)",
            got.len(),
            expected.len()
        );
    }

    /// Maintenance plans (change-table / delta-apply / recompute) evaluate
    /// identically under reordering, with the maintenance bindings.
    #[test]
    fn reordered_maintenance_plans_evaluate_identically(
        n_fact in 200usize..500,
        order in 0u8..4,
        ops in proptest::collection::vec((0u8..3, 0u64..1_000_000), 5..40),
        seed in 0u64..1_000,
    ) {
        let db = snowflake_db(n_fact, 8, 16, 5, seed);
        let def = snowflake_plan(order, 40, 5).aggregate(
            &["d1"],
            vec![AggSpec::count_all("n"), AggSpec::new("avgx", AggFunc::Avg, col("x"))],
        );
        let view = MaterializedView::create("v", def, &db).unwrap();
        let mut deltas = Deltas::new();
        let mut next_fid = 10_000_000i64;
        for &(op, r) in &ops {
            match op % 3 {
                0 => {
                    deltas.insert(&db, "fact", vec![
                        Value::Int(next_fid),
                        Value::Int((r % 8) as i64),
                        Value::Int((r % 16) as i64),
                        Value::Float((r % 90) as f64),
                    ]).unwrap();
                    next_fid += 1;
                }
                1 => {
                    let _ = deltas.delete(&db, "fact", &[
                        Value::Int((r % n_fact as u64) as i64),
                        Value::Null, Value::Null, Value::Null,
                    ]);
                }
                _ => {
                    let _ = deltas.update(&db, "fact", vec![
                        Value::Int((r % n_fact as u64) as i64),
                        Value::Int(((r / 3) % 8) as i64),
                        Value::Int(((r / 7) % 16) as i64),
                        Value::Float((r % 71) as f64),
                    ]);
                }
            }
        }
        let (plan, _kind) = view.build_maintenance_plan(&db, &deltas).unwrap();
        let bindings = maintenance_bindings(&db, &deltas, view.table());
        let expected = evaluate(&plan, &bindings).unwrap();
        // The catalog covers base tables; `__stale` / `__ins.*` leaves fall
        // back to estimator defaults — reordering must stay sound anyway.
        let cat = Catalog::build(&db);
        let (reordered, _) = optimize_with(&plan, &bindings, &cat.estimator()).unwrap();
        let got = evaluate(&reordered, &bindings).unwrap();
        prop_assert!(
            got.approx_same_contents(&expected, 1e-9),
            "order {order}: reordered maintenance plan diverged ({} vs {} rows)",
            got.len(),
            expected.len()
        );
    }

    /// Incremental stats match a same-shape rebuild over the post-delta
    /// table: exactly for counts and histograms; exactly for sketches and
    /// min/max under insert-only deltas; conservatively otherwise.
    #[test]
    fn incremental_stats_match_rebuild(
        n in 100usize..400,
        inserts in 0usize..150,
        deletes in 0usize..80,
        seed in 0u64..1_000,
    ) {
        let db = snowflake_db(n, 6, 12, 4, seed);
        let mut cat = Catalog::build(&db);
        let mut deltas = Deltas::new();
        for i in 0..inserts as i64 {
            deltas.insert(&db, "fact", vec![
                Value::Int(1_000_000 + i),
                Value::Int(i % 6),
                Value::Int(i % 12),
                Value::Float(((i * 13) % 120) as f64),
            ]).unwrap();
        }
        for i in 0..deletes as i64 {
            let _ = deltas.delete(&db, "fact", &[
                Value::Int((i * 7) % n as i64),
                Value::Null, Value::Null, Value::Null,
            ]);
        }
        let mut db2 = db.clone();
        let had_deletes = deltas.get("fact").is_some_and(|s| !s.deletions.is_empty());
        // `apply_deltas` never rebuilds: the incremental path stays under test.
        cat.apply_deltas(&deltas);
        deltas.apply_to(&mut db2).unwrap();

        let incr = cat.stats("fact").unwrap();
        let rebuilt = incr.rebuilt_like(db2.table("fact").unwrap());
        prop_assert_eq!(incr.rows, rebuilt.rows, "row counts are exact");
        for (a, b) in incr.cols.iter().zip(&rebuilt.cols) {
            prop_assert_eq!(a.nulls, b.nulls);
            prop_assert_eq!(a.histogram.clone(), b.histogram.clone(), "histogram cells are exact");
            if had_deletes {
                for (ra, rb) in a.sketch.registers().iter().zip(b.sketch.registers()) {
                    prop_assert!(ra >= rb, "sketch registers are an upper bound");
                }
                match (a.min, b.min) {
                    (Some(am), Some(bm)) => prop_assert!(am <= bm),
                    (None, Some(_)) => prop_assert!(false, "lost a min bound"),
                    _ => {}
                }
                match (a.max, b.max) {
                    (Some(am), Some(bm)) => prop_assert!(am >= bm),
                    (None, Some(_)) => prop_assert!(false, "lost a max bound"),
                    _ => {}
                }
            } else {
                prop_assert_eq!(&a.sketch, &b.sketch, "insert-only sketches are exact");
                prop_assert_eq!(a.min, b.min);
                prop_assert_eq!(a.max, b.max);
            }
        }
    }

    /// σ above/below a blocked η: one optimize() reaches the canonical
    /// fixed point — running it again changes nothing, η report included,
    /// and results agree.
    #[test]
    fn sigma_eta_canonical_form_is_a_fixed_point(
        n_fact in 100usize..300,
        order in 0u8..4,
        ratio in 0.1f64..0.9,
        hash_seed in 0u64..500,
        seed in 0u64..500,
        below in 0u8..2,
    ) {
        let db = snowflake_db(n_fact, 6, 12, 4, seed);
        let joins = snowflake_plan(order, 40, 0);
        // η on the fact key above the join region, with the σ written
        // above or below it.
        let sigma = col("x").lt(lit(55.0));
        let plan = if below == 1 {
            joins.select(sigma).hash(&["fid"], ratio, HashSpec::with_seed(hash_seed))
        } else {
            joins.hash(&["fid"], ratio, HashSpec::with_seed(hash_seed)).select(sigma)
        };
        let b = Bindings::from_database(&db);
        let expected = evaluate(&plan, &b).unwrap();
        let (once, r1) = optimize(&plan, &db).unwrap();
        let got = evaluate(&once, &b).unwrap();
        prop_assert!(got.same_contents(&expected), "canonicalization changed the sample");
        let (twice, r2) = optimize(&once, &db).unwrap();
        prop_assert_eq!(&once, &twice, "re-optimizing must be a no-op");
        prop_assert_eq!(&r1.eta.blockers, &r2.eta.blockers);
        prop_assert_eq!(&r1.eta.sampled_leaves, &r2.eta.sampled_leaves);
    }
}

/// Register-sketch accuracy on Zipf-distributed values: heavy duplication
/// must not bias the distinct estimate.
#[test]
fn sketch_accuracy_on_zipf_data() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(99);
    for &(domain, z) in &[(500usize, 1.0f64), (1_000, 2.0), (2_000, 1.5)] {
        let zipf = Zipf::new(domain, z);
        let mut sketch = stale_view_cleaning::catalog::DistinctSketch::default();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..30_000 {
            let v = zipf.sample(&mut rng) as i64;
            sketch.insert(&Value::Int(v));
            seen.insert(v);
        }
        let est = sketch.estimate();
        let truth = seen.len() as f64;
        let rel = (est - truth).abs() / truth;
        assert!(rel < 0.12, "domain {domain} z {z}: estimate {est} vs true {truth} ({rel:.3})");
    }
}

/// Histogram range selectivity on Zipf data: the estimated CDF must track
/// the true one within the resolution of the (equi-width) buckets.
#[test]
fn histogram_selectivity_on_zipf_data() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(7);
    for &z in &[0.5f64, 1.0, 2.0] {
        let zipf = Zipf::new(1_000, z);
        let values: Vec<f64> = (0..20_000).map(|_| zipf.sample(&mut rng) as f64).collect();
        let mut t = Table::new(
            Schema::from_pairs(&[("id", DataType::Int), ("v", DataType::Float)]).unwrap(),
            &["id"],
        )
        .unwrap();
        for (i, &v) in values.iter().enumerate() {
            t.insert(vec![Value::Int(i as i64), Value::Float(v)]).unwrap();
        }
        let stats = TableStats::build(&t);
        let hist = stats.cols[1].histogram.as_ref().expect("numeric column gets a histogram");
        // Worst-case interpolation error within one bucket is that
        // bucket's mass; Zipf concentrates mass in the head bucket.
        let (lo, hi) = hist.range();
        let width = (hi - lo) / 64.0;
        for &q in &[0.1f64, 0.25, 0.5, 0.75, 0.9] {
            let x = lo + q * (hi - lo);
            let est = hist.fraction_le(x);
            let truth = values.iter().filter(|&&v| v <= x).count() as f64 / values.len() as f64;
            let head_mass =
                values.iter().filter(|&&v| v < lo + width).count() as f64 / values.len() as f64;
            let tol = (head_mass + 0.02).min(0.25);
            assert!(
                (est - truth).abs() <= tol,
                "z {z}, q {q}: estimated {est:.3} vs true {truth:.3} (tol {tol:.3})"
            );
        }
        // And the selectivity the estimator derives from it matches on a
        // concrete predicate.
        let x = lo + 0.5 * (hi - lo);
        let est_rows = stats.estimate_filter_rows(&col("v").le(lit(x)));
        let truth = values.iter().filter(|&&v| v <= x).count() as f64;
        assert!(
            (est_rows - truth).abs() / values.len() as f64 <= 0.25,
            "z {z}: estimated {est_rows:.0} rows vs true {truth:.0}"
        );
    }
}

/// Counts the estimator walks the optimizer asks for.
struct Counting<E>(E, AtomicUsize);

impl<E: CardEstimator> Counting<E> {
    fn calls(&self) -> usize {
        self.1.load(Ordering::Relaxed)
    }
}

impl<E: CardEstimator> CardEstimator for Counting<E> {
    fn estimate(
        &self,
        plan: &Plan,
        leaves: &dyn LeafProvider,
    ) -> stale_view_cleaning::storage::Result<RelCard> {
        self.1.fetch_add(1, Ordering::Relaxed);
        self.0.estimate(plan, leaves)
    }
}

/// Counts the leaf statistics an estimator reads from the overlay.
struct StatsReads<'a>(&'a ScopedStats<'a>, AtomicUsize);

impl StatsProvider for StatsReads<'_> {
    fn stats(&self, name: &str) -> Option<&TableStats> {
        self.1.fetch_add(1, Ordering::Relaxed);
        self.0.stats(name)
    }
}

fn inner_joins(plan: &Plan) -> usize {
    usize::from(matches!(plan, Plan::Join { kind: JoinKind::Inner, .. }))
        + plan.children().map(inner_joins).sum::<usize>()
}

/// Cost shape, not wall clock: a join region of two relations has one
/// order up to mirroring, so ordering it must not consult the estimator at
/// all — the TPC-D join view's cleaning plan, all of whose regions are
/// `lineitem ⋈ orders` in some delta variant, optimizes with zero calls,
/// to the very plan `cleaning_plan_with` returns.
#[test]
fn two_relation_regions_cost_no_estimator_calls() {
    use stale_view_cleaning::core::{maintenance_stats, SvcConfig, SvcView};
    use stale_view_cleaning::workloads::tpcd::{TpcdConfig, TpcdData};
    use stale_view_cleaning::workloads::tpcd_views::join_view;

    let data = TpcdData::generate(TpcdConfig { scale: 0.02, skew: 2.0, seed: 42 }).unwrap();
    let deltas = data.updates(0.1, 7).unwrap();
    let catalog = Catalog::build(&data.db);
    let svc =
        SvcView::create("joinView", join_view(), &data.db, SvcConfig::with_ratio(0.1)).unwrap();

    // `cleaning_plan_with`, spelled out so the estimator can be wrapped.
    let (mplan, _) = svc.view.build_maintenance_plan(&data.db, &deltas).unwrap();
    let keys = svc.view.key_names();
    let keys: Vec<&str> = keys.iter().map(String::as_str).collect();
    let hashed = mplan.hash(&keys, svc.config.ratio, svc.config.hash_spec());
    let scoped = maintenance_stats(&catalog, Some(svc.stale_sample()), &deltas);
    let reads = StatsReads(&scoped, Default::default());
    let est = Counting(CatalogEstimator::new(&reads), Default::default());
    let (optimized, _) = optimize_with(&hashed, &svc.view.maint_catalog(&data.db), &est).unwrap();

    assert!(inner_joins(&optimized) >= 2, "the plan must actually hold join regions");
    assert_eq!(est.calls(), 0, "two-relation regions must never reach the estimator");
    // Overlay stats are built inside `stats`, on first read: no read, no
    // build scan of the stale sample or of any delta table.
    assert_eq!(reads.1.load(Ordering::Relaxed), 0, "the overlay is dropped unread");
    let (expected, _, _) = svc.cleaning_plan_with(&data.db, &deltas, Some(&catalog)).unwrap();
    assert_eq!(optimized, expected);
}

/// A region of three or more relations is searched, and the search is
/// arithmetic: the pass estimates every relation exactly once — not once
/// per candidate, and not again for the baseline.
#[test]
fn a_searched_region_costs_one_estimator_call_per_relation() {
    let db = snowflake_db(400, 8, 16, 5, 7);
    let cat = Catalog::build(&db);
    let plan = snowflake_plan(0, 40, 5);
    let est = Counting(cat.estimator(), Default::default());
    let (reordered, report) = optimize_with(&plan, &db, &est).unwrap();
    assert!(report.joins_reordered > 0, "the builder order must be beaten: {report:?}");
    assert_eq!(inner_joins(&reordered), 3, "one region of four relations");
    assert_eq!(est.calls(), 4, "{report:?}");
}

/// Reordering is an optimization, never an obligation: when the cheaper
/// order re-derives a key an ancestor cannot accept, the whole plan stays
/// as written. Here `dim2 ⋈ dim2` on the non-key `d3` first is cheaper, but
/// makes the first `dim2`'s key part of the region key — which the
/// projection above (keeping only the incoming key) drops.
#[test]
fn a_reorder_an_ancestor_rejects_keeps_the_plan_as_written() {
    let db = snowflake_db(400, 8, 16, 5, 7);
    let cat = Catalog::build(&db);
    let region = Plan::scan("fact")
        .join(Plan::scan("dim2"), JoinKind::Inner, &[("d2", "d2")])
        .join(Plan::scan("dim2"), JoinKind::Inner, &[("d3", "d3")]);
    let (_, report) = optimize_with(&region, &db, &cat.estimator()).unwrap();
    assert_eq!(report.joins_reordered, 1, "setup: the bare region is reordered");

    let narrow =
        region.project(vec![("fid", col("fid")), ("other", col("dim2.d2#2")), ("x", col("x"))]);
    let (kept, report) = optimize_with(&narrow, &db, &cat.estimator()).unwrap();
    assert_eq!(report.joins_reordered, 0, "{kept}");
    assert_eq!(kept, optimize(&narrow, &db).unwrap().0);
}

/// Cost shape on real data, not wall clock: on the TPCD join-order queries
/// (builder order joins the two biggest tables first), the catalog's order
/// never makes the joins produce more rows in total (`C_out`, the quantity
/// the cost model minimizes) than the order as written, and answers the
/// same up to float summation order.
#[test]
fn cost_based_order_never_grows_the_join_output_on_tpcd() {
    use stale_view_cleaning::workloads::tpcd_views::join_order_queries;

    fn join_output_rows(plan: &Plan, b: &Bindings<'_>) -> usize {
        let own =
            if matches!(plan, Plan::Join { .. }) { evaluate(plan, b).unwrap().len() } else { 0 };
        own + plan.children().map(|child| join_output_rows(child, b)).sum::<usize>()
    }
    let data = TpcdData::generate(TpcdConfig { scale: 0.04, skew: 2.0, seed: 42 }).unwrap();
    let (db, b) = (&data.db, Bindings::from_database(&data.db));
    let catalog = Catalog::build(db);
    for (id, plan) in join_order_queries() {
        let (builder, _) = optimize(&plan, db).unwrap();
        let (by_cost, _) = optimize_with(&plan, db, &catalog.estimator()).unwrap();
        let (written, reordered) = (join_output_rows(&builder, &b), join_output_rows(&by_cost, &b));
        assert!(reordered <= written, "{id}: C_out {reordered} against {written} as written");
        let (a, z) = (evaluate(&builder, &b).unwrap(), evaluate(&by_cost, &b).unwrap());
        assert!(a.approx_same_contents(&z, 1e-9), "{id}: the reordered plan changed the result");
    }
}

/// `deltas` without its deletions, and without the insertions that replace
/// an existing row (the insert half of an update).
fn insertions_only(db: &Database, deltas: &Deltas) -> Deltas {
    let mut out = Deltas::new();
    for (name, set) in deltas.iter() {
        let base = db.table(name).unwrap();
        for row in set.insertions.rows() {
            if !base.contains_key(&base.key_of(row)) {
                out.insert(db, name, row.clone()).unwrap();
            }
        }
    }
    out
}

/// Idempotence of the one optimizer pass on every plan a clean or a
/// maintain optimizes: each `view_delta` side (keyed or recompute) of every
/// view, η-wrapped as a clean runs it and bare as `maintain` does, with and
/// without the catalog's estimator, re-optimizes to itself with an equal η
/// report. A rewrite that needs a second pass to finish fails here.
fn assert_delta_plans_are_fixed_points(db: &Database, views: Vec<(&str, Plan)>, mixed: &Deltas) {
    let catalog = Catalog::build(db);
    let delta_sets = [("insert-only", insertions_only(db, mixed)), ("mixed", mixed.clone())];
    for (id, plan) in views {
        let svc = SvcView::create(id, plan, db, SvcConfig::with_ratio(0.1)).unwrap();
        let cat = svc.view.maint_catalog(db);
        let eta = (svc.config.ratio, svc.config.hash_spec());
        for (label, deltas) in &delta_sets {
            let sides = match view_delta(svc.view.canonical(), &cat, &DeltaInfo::of(deltas)) {
                Ok(ViewDelta::Keyed { change, .. }) => vec![change.ins, change.del],
                Ok(ViewDelta::Recompute(plan)) => vec![Some(plan)],
                other => panic!("{id} {label}: the deltas reach the view, got {other:?}"),
            };
            let scoped = maintenance_stats(&catalog, None, deltas);
            let est = scoped.estimator();
            for side in sides.into_iter().flatten() {
                let hashed = svc.view.hashed(side.clone(), eta).unwrap();
                for (form, plan) in [("η-wrapped", &hashed), ("bare", &side)] {
                    for est in [None, Some(&est as &dyn CardEstimator)] {
                        let what = format!("{id} {label} {form} catalog {}", est.is_some());
                        let (once, r1) = cat.optimize(plan, est).unwrap();
                        let (twice, r2) = cat.optimize(&once, est).unwrap();
                        assert_eq!(once, twice, "{what}: a second pass changed the plan");
                        assert_eq!(r1.eta.blockers, r2.eta.blockers, "{what}");
                        assert_eq!(r1.eta.sampled_leaves, r2.eta.sampled_leaves, "{what}");
                    }
                }
            }
        }
    }
}

#[test]
fn optimized_delta_plans_of_every_workload_view_are_fixed_points() {
    let data = TpcdData::generate(TpcdConfig { scale: 0.01, skew: 2.0, seed: 42 }).unwrap();
    let mut mixed = data.updates(0.1, 7).unwrap();
    for row in data.db.table("orders").unwrap().rows().iter().step_by(40) {
        mixed.delete(&data.db, "orders", row).unwrap();
    }
    let mut views = vec![("joinView", join_view()), ("cube", base_cube())];
    views.extend(complex_views().into_iter().map(|v| (v.id, v.plan)));
    assert_delta_plans_are_fixed_points(&data.db, views, &mixed);

    let cfg = ConvivaConfig { base_events: 4_000, ..ConvivaConfig::default() };
    let db = conviva::generate(cfg).unwrap();
    let mut mixed = conviva::appended_updates(&db, cfg, 600, 3).unwrap();
    for row in db.table("activity").unwrap().rows().iter().step_by(17) {
        mixed.delete(&db, "activity", row).unwrap();
    }
    let views = conviva::views().into_iter().map(|v| (v.id, v.plan)).collect();
    assert_delta_plans_are_fixed_points(&db, views, &mixed);
}
