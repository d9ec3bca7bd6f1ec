//! Property tests for the rule-driven optimizer: for randomized databases,
//! plan shapes, and delta workloads, `evaluate(optimize(plan))` produces a
//! table equal to `evaluate(plan)` — including the maintenance-strategy
//! plans that `svc-ivm` compiles, evaluated under full maintenance
//! bindings (stale view + base tables + delta relations).

use proptest::prelude::*;

use stale_view_cleaning::ivm::view::{maintenance_bindings, MaterializedView};
use stale_view_cleaning::relalg::aggregate::{AggFunc, AggSpec};
use stale_view_cleaning::relalg::eval::{evaluate, Bindings};
use stale_view_cleaning::relalg::optimizer::optimize;
use stale_view_cleaning::relalg::plan::{JoinKind, Plan};
use stale_view_cleaning::relalg::scalar::{col, lit};
use stale_view_cleaning::storage::{DataType, Database, Deltas, HashSpec, Schema, Table, Value};

fn build_db(n_facts: usize, n_dims: usize, data_seed: u64) -> Database {
    let mut s = data_seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let mut db = Database::new();
    let mut dim = Table::new(
        Schema::from_pairs(&[
            ("dimId", DataType::Int),
            ("weight", DataType::Float),
            ("tag", DataType::Int),
        ])
        .unwrap(),
        &["dimId"],
    )
    .unwrap();
    for i in 0..n_dims as i64 {
        dim.insert(vec![
            Value::Int(i),
            Value::Float((next() % 100) as f64 / 100.0),
            Value::Int((next() % 5) as i64),
        ])
        .unwrap();
    }
    let mut fact = Table::new(
        Schema::from_pairs(&[
            ("factId", DataType::Int),
            ("dimId", DataType::Int),
            ("x", DataType::Float),
            ("y", DataType::Float),
        ])
        .unwrap(),
        &["factId"],
    )
    .unwrap();
    for i in 0..n_facts as i64 {
        fact.insert(vec![
            Value::Int(i),
            Value::Int((next() % n_dims as u64) as i64),
            Value::Float((next() % 1000) as f64 / 1000.0),
            Value::Float((next() % 500) as f64 / 100.0),
        ])
        .unwrap();
    }
    db.create_table("dim", dim);
    db.create_table("fact", fact);
    db
}

/// Plan shapes exercising every operator the rules rewrite: σ over ⋈, σ
/// over γ (group filter + HAVING), Π substitution, set operations, outer
/// joins (which block predicate pushdown per side), and η on top.
fn plan_variant(variant: u8) -> Plan {
    match variant % 8 {
        0 => Plan::scan("fact")
            .join(Plan::scan("dim"), JoinKind::Inner, &[("dimId", "dimId")])
            .select(col("x").gt(lit(0.3)).and(col("weight").lt(lit(0.8)))),
        1 => Plan::scan("fact")
            .join(Plan::scan("dim"), JoinKind::Inner, &[("dimId", "dimId")])
            .aggregate(
                &["dimId"],
                vec![AggSpec::count_all("n"), AggSpec::new("sx", AggFunc::Sum, col("x"))],
            )
            .select(col("n").gt(lit(1i64)).and(col("dimId").lt(lit(10i64)))),
        2 => Plan::scan("fact")
            .project(vec![
                ("factId", col("factId")),
                ("dimId", col("dimId")),
                ("x2", col("x").mul(lit(2.0))),
            ])
            .select(col("x2").gt(lit(0.5))),
        3 => Plan::scan("fact")
            .select(col("x").lt(lit(0.7)))
            .union(Plan::scan("fact").select(col("x").ge(lit(0.4))))
            .select(col("dimId").lt(lit(6i64))),
        4 => Plan::scan("fact")
            .join(Plan::scan("dim"), JoinKind::Left, &[("dimId", "dimId")])
            .select(col("y").gt(lit(1.0)).and(col("weight").gt(lit(0.1)))),
        5 => Plan::scan("fact")
            .select(col("dimId").lt(lit(8i64)))
            .difference(Plan::scan("fact").select(col("x").gt(lit(0.8))))
            .select(col("y").lt(lit(4.0))),
        6 => Plan::scan("fact")
            .join(Plan::scan("dim"), JoinKind::Inner, &[("dimId", "dimId")])
            .aggregate(&["dimId", "tag"], vec![AggSpec::new("sy", AggFunc::Sum, col("y"))])
            .project(vec![("dimId", col("dimId")), ("tag", col("tag")), ("sy", col("sy"))]),
        _ => Plan::scan("fact")
            .join(Plan::scan("dim"), JoinKind::Full, &[("dimId", "dimId")])
            .select(col("x").gt(lit(0.2)).or(col("weight").gt(lit(0.5)))),
    }
}

fn random_deltas(db: &Database, ops: &[(u8, u64)]) -> Deltas {
    let mut deltas = Deltas::new();
    let n_facts = db.table("fact").unwrap().len() as i64;
    let n_dims = db.table("dim").unwrap().len() as i64;
    let mut next_fact = 1_000_000i64;
    for &(op, r) in ops {
        match op % 3 {
            0 => {
                deltas
                    .insert(
                        db,
                        "fact",
                        vec![
                            Value::Int(next_fact),
                            Value::Int((r % n_dims as u64) as i64),
                            Value::Float((r % 100) as f64 / 100.0),
                            Value::Float((r % 77) as f64 / 10.0),
                        ],
                    )
                    .unwrap();
                next_fact += 1;
            }
            1 => {
                let id = (r % n_facts as u64) as i64;
                let _ = deltas.delete(
                    db,
                    "fact",
                    &vec![Value::Int(id), Value::Null, Value::Null, Value::Null],
                );
            }
            _ => {
                let id = (r % n_facts as u64) as i64;
                let _ = deltas.update(
                    db,
                    "fact",
                    vec![
                        Value::Int(id),
                        Value::Int(((r / 7) % n_dims as u64) as i64),
                        Value::Float((r % 91) as f64 / 91.0),
                        Value::Float((r % 13) as f64),
                    ],
                );
            }
        }
    }
    deltas
}

/// Acceptance guard: on every maintenance strategy the full rule set pushes
/// η at least as deep as the legacy standalone pass (`sampling::push_down`,
/// now a thin wrapper over the η rule alone) — no blocker appears and no
/// sampled leaf disappears when the other rules run alongside.
#[test]
fn eta_depth_no_regression_on_maintenance_strategies() {
    use stale_view_cleaning::sampling::push_down;

    let db = build_db(120, 10, 7);
    let view_defs = [
        // Change-table strategy.
        Plan::scan("fact")
            .join(Plan::scan("dim"), JoinKind::Inner, &[("dimId", "dimId")])
            .aggregate(
                &["dimId"],
                vec![AggSpec::count_all("n"), AggSpec::new("avgx", AggFunc::Avg, col("x"))],
            ),
        // Delta-apply strategy.
        Plan::scan("fact")
            .join(Plan::scan("dim"), JoinKind::Inner, &[("dimId", "dimId")])
            .select(col("weight").gt(lit(0.2))),
        // Recompute strategy (nested aggregate, the V21 blocker shape).
        Plan::scan("fact")
            .aggregate(&["dimId"], vec![AggSpec::count_all("c")])
            .aggregate(&["c"], vec![AggSpec::count_all("n")]),
    ];
    let ops: Vec<(u8, u64)> = (0..40u64).map(|i| ((i % 3) as u8, i * 131 + 7)).collect();

    for (i, def) in view_defs.into_iter().enumerate() {
        let view = MaterializedView::create("v", def, &db).unwrap();
        let deltas = random_deltas(&db, &ops);
        let (mplan, kind) = view.build_maintenance_plan(&db, &deltas).unwrap();
        let key_names = view.key_names();
        let key_refs: Vec<&str> = key_names.iter().map(|s| s.as_str()).collect();
        let hashed = mplan.hash(&key_refs, 0.25, HashSpec::with_seed(11));

        let bindings = maintenance_bindings(&db, &deltas, view.table());
        let (_, legacy) = push_down(&hashed, &bindings).unwrap();
        let (optimized, full) = optimize(&hashed, &bindings).unwrap();

        assert!(
            full.eta.blockers.len() <= legacy.blockers.len(),
            "strategy {i} ({kind:?}): full optimizer added η blockers: {:?} vs {:?}",
            full.eta.blockers,
            legacy.blockers
        );
        assert!(
            full.eta.sampled_leaves.len() >= legacy.sampled_leaves.len(),
            "strategy {i} ({kind:?}): full optimizer lost sampled leaves: {:?} vs {:?}",
            full.eta.sampled_leaves,
            legacy.sampled_leaves
        );

        // And the combined rewrite still evaluates to the identical sample.
        let expected = evaluate(&hashed, &bindings).unwrap();
        let got = evaluate(&optimized, &bindings).unwrap();
        assert!(got.same_contents(&expected), "strategy {i} ({kind:?}) diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// η∘η with one shared (key, spec) composes to η_min — equivalence of
    /// the composed rewrite for arbitrary ratio pairs, plan shapes, and
    /// stacking orders.
    #[test]
    fn stacked_hashes_compose_equivalently(
        n_facts in 30usize..120,
        n_dims in 4usize..12,
        variant in 0u8..8,
        r1 in 0.05f64..0.95,
        r2 in 0.05f64..0.95,
        seed in 0u64..500,
        data_seed in 0u64..200,
    ) {
        let db = build_db(n_facts, n_dims, data_seed);
        let base = plan_variant(variant);
        let derived = stale_view_cleaning::relalg::derive::derive(&base, &db).unwrap();
        let key: Vec<String> = derived.key_names().iter().map(|s| s.to_string()).collect();
        prop_assert!(!key.is_empty(), "every plan variant derives a non-empty key");
        let key_refs: Vec<&str> = key.iter().map(|s| s.as_str()).collect();
        let spec = HashSpec::with_seed(seed);
        let plan = base.hash(&key_refs, r1, spec).hash(&key_refs, r2, spec);

        let b = Bindings::from_database(&db);
        let expected = evaluate(&plan, &b).unwrap();
        let (optimized, _) = optimize(&plan, &db).unwrap();
        let got = evaluate(&optimized, &b).unwrap();
        prop_assert!(
            got.same_contents(&expected),
            "variant {variant}: η∘η (m1={r1:.3}, m2={r2:.3}) composition diverged, {} vs {} rows",
            got.len(),
            expected.len()
        );
        // The composed sample is exactly the tighter single hash.
        let single = plan_variant(variant).hash(&key_refs, r1.min(r2), spec);
        let single_eval = evaluate(&single, &b).unwrap();
        prop_assert!(
            got.same_contents(&single_eval),
            "variant {variant}: composed sample differs from η_min"
        );
    }

    /// Definition-shaped plans (optionally η-wrapped): the full rule set
    /// must preserve the evaluated relation exactly.
    #[test]
    fn optimized_plans_evaluate_identically(
        n_facts in 30usize..150,
        n_dims in 4usize..16,
        variant in 0u8..8,
        hashed in 0u8..2,
        ratio in 0.1f64..0.9,
        seed in 0u64..500,
        data_seed in 0u64..200,
    ) {
        let db = build_db(n_facts, n_dims, data_seed);
        let mut plan = plan_variant(variant);
        if hashed == 1 {
            // Hash on the plan's own derived key so η is always legal.
            let derived = stale_view_cleaning::relalg::derive::derive(&plan, &db).unwrap();
            let key: Vec<String> =
                derived.key_names().iter().map(|s| s.to_string()).collect();
            if !key.is_empty() {
                let key_refs: Vec<&str> = key.iter().map(|s| s.as_str()).collect();
                plan = plan.hash(&key_refs, ratio, HashSpec::with_seed(seed));
            }
        }
        let b = Bindings::from_database(&db);
        let expected = evaluate(&plan, &b).unwrap();
        let (optimized, report) = optimize(&plan, &db).unwrap();
        let got = evaluate(&optimized, &b).unwrap();
        prop_assert!(
            got.same_contents(&expected),
            "variant {} (hashed {}): optimizer changed the result, {} vs {} rows after {} passes",
            variant, hashed, got.len(), expected.len(), report.passes
        );
    }

    /// Maintenance-strategy plans from svc-ivm, evaluated under maintenance
    /// bindings (stale view + deltas): optimization must commute with
    /// evaluation there too.
    #[test]
    fn optimized_maintenance_plans_evaluate_identically(
        n_facts in 40usize..120,
        n_dims in 4usize..12,
        view_kind in 0u8..3,
        ops in proptest::collection::vec((0u8..3, 0u64..1_000_000), 1..50),
        data_seed in 0u64..200,
    ) {
        let db = build_db(n_facts, n_dims, data_seed);
        let view_def = match view_kind % 3 {
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
            // Recompute strategy (nested aggregate).
            _ => Plan::scan("fact")
                .aggregate(&["dimId"], vec![AggSpec::count_all("c")])
                .aggregate(&["c"], vec![AggSpec::count_all("n")]),
        };
        let view = MaterializedView::create("v", view_def, &db).unwrap();
        let deltas = random_deltas(&db, &ops);
        let (plan, _kind) = view.build_maintenance_plan(&db, &deltas).unwrap();

        let bindings = maintenance_bindings(&db, &deltas, view.table());
        let expected = evaluate(&plan, &bindings).unwrap();

        // The optimizer needs the maintenance catalog (stale + delta leaves)
        // to derive schemas; the bindings provide exactly that.
        let (optimized, report) = optimize(&plan, &bindings).unwrap();
        let got = evaluate(&optimized, &bindings).unwrap();
        prop_assert!(
            got.same_contents(&expected),
            "view kind {}: optimizer changed maintenance result, {} vs {} rows after {} passes",
            view_kind, got.len(), expected.len(), report.passes
        );
        // The structural primitives every pass walks with agree with the tree.
        for p in [&plan, &optimized] {
            prop_assert!(
                p.node_count() == 1 + p.children().map(Plan::node_count).sum::<usize>()
                    && p.clone().map_children(&mut Ok::<Plan, ()>).as_ref() == Ok(p),
                "children() / map_children(identity) disagree with the plan:\n{}", p
            );
        }
    }
}
