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
                    &[Value::Int(id), Value::Null, Value::Null, Value::Null],
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
        // Change-table strategy through an auxiliary table (nested
        // aggregate, the V21 blocker shape; the reference form inlines it).
        Plan::scan("fact")
            .aggregate(&["dimId"], vec![AggSpec::count_all("c")])
            .aggregate(&["c"], vec![AggSpec::count_all("n")]),
        // Recompute strategy (median).
        Plan::scan("fact")
            .aggregate(&["dimId"], vec![AggSpec::new("medx", AggFunc::Median, col("x"))]),
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
        view_kind in 0u8..4,
        ops in proptest::collection::vec((0u8..3, 0u64..1_000_000), 1..50),
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

/// A semi-join against the bare leaf `keys` — the key restriction the
/// outlier push-up places over a whole-view recompute.
fn keys_on(plan: Plan, column: &str) -> Plan {
    plan.join(Plan::scan("keys"), JoinKind::Semi, &[(column, "k")])
}

/// Leaf semi-joins above Π (renaming and computing), σ, γ (on a group and
/// on an aggregate column), ∪, ∩, −, ▷, an inner ⋈ (on either side's
/// column) and a ⟕ (on the preserved and on the padded side's column).
fn semi_variant(variant: u8) -> Plan {
    let fact_dim = |kind| Plan::scan("fact").join(Plan::scan("dim"), kind, &[("dimId", "dimId")]);
    match variant % 13 {
        0 => keys_on(
            Plan::scan("fact").project(vec![
                ("d", col("dimId")),
                ("factId", col("factId")),
                ("x2", col("x").mul(lit(2.0))),
            ]),
            "d",
        ),
        1 => keys_on(
            Plan::scan("fact")
                .project(vec![("d", col("dimId").add(lit(1i64))), ("factId", col("factId"))]),
            "d",
        ),
        2 => keys_on(Plan::scan("fact").select(col("x").gt(lit(0.3))), "dimId")
            .select(col("y").lt(lit(3.0))),
        3 => keys_on(
            fact_dim(JoinKind::Inner).aggregate(
                &["dimId", "tag"],
                vec![AggSpec::count_all("n"), AggSpec::new("sx", AggFunc::Sum, col("x"))],
            ),
            "dimId",
        ),
        4 => keys_on(Plan::scan("fact").aggregate(&["dimId"], vec![AggSpec::count_all("n")]), "n"),
        5 => keys_on(
            Plan::scan("fact")
                .select(col("x").lt(lit(0.7)))
                .union(Plan::scan("fact").select(col("x").ge(lit(0.4)))),
            "dimId",
        ),
        6 => keys_on(
            Plan::scan("fact")
                .select(col("x").lt(lit(0.7)))
                .intersect(Plan::scan("fact").select(col("y").ge(lit(1.0)))),
            "dimId",
        ),
        7 => keys_on(
            Plan::scan("fact").difference(Plan::scan("fact").select(col("x").gt(lit(0.5)))),
            "dimId",
        ),
        8 => keys_on(
            Plan::scan("fact").join(
                Plan::scan("dim").select(col("tag").lt(lit(2i64))),
                JoinKind::Anti,
                &[("dimId", "dimId")],
            ),
            "dimId",
        ),
        9 => keys_on(fact_dim(JoinKind::Inner), "dimId"),
        10 => keys_on(fact_dim(JoinKind::Inner), "tag").select(col("x").gt(lit(0.2))),
        11 => keys_on(fact_dim(JoinKind::Left), "dimId"),
        _ => keys_on(fact_dim(JoinKind::Left), "dim.dimId"),
    }
}

/// A semi-join `⋉ Scan keys` that landed where it may not: inside the
/// NULL-padded side of a ⟕, or below a γ on a column the γ does not group
/// by. `None` when every one is in place.
fn misplaced_key_set(plan: &Plan) -> Option<String> {
    fn key_sets(plan: &Plan, out: &mut Vec<String>) {
        if let Plan::Join { right, kind: JoinKind::Semi, on, .. } = plan {
            if **right == Plan::scan("keys") {
                out.extend(on.iter().map(|(a, _)| a.clone()));
            }
        }
        plan.children().for_each(|c| key_sets(c, out));
    }
    let unqualified = |n: &str| n.rsplit('.').next().unwrap_or(n).to_string();
    let mut found = Vec::new();
    match plan {
        Plan::Join { right, kind: JoinKind::Left, .. } => key_sets(right, &mut found),
        Plan::Aggregate { input, group_by, .. } => {
            key_sets(input, &mut found);
            found.retain(|a| !group_by.iter().any(|g| unqualified(g) == unqualified(a)));
        }
        _ => {}
    }
    match found.first() {
        Some(a) => Some(format!("⋉ keys on `{a}` below\n{plan}")),
        None => plan.children().find_map(misplaced_key_set),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Leaf semi-joins sink like conjuncts: the optimized plan evaluates to
    /// the same rows, is a fixed point, and leaves no key set in a padded
    /// join side or below a γ on an aggregate column.
    #[test]
    fn leaf_semi_joins_sink_equivalently(
        n_facts in 30usize..150,
        n_dims in 4usize..16,
        variant in 0u8..13,
        keys in proptest::collection::vec(0i64..20, 0..8),
        data_seed in 0u64..200,
    ) {
        let mut db = build_db(n_facts, n_dims, data_seed);
        let mut table =
            Table::new(Schema::from_pairs(&[("k", DataType::Int)]).unwrap(), &["k"]).unwrap();
        for &k in keys.iter().collect::<std::collections::BTreeSet<_>>() {
            table.insert(vec![Value::Int(k)]).unwrap();
        }
        db.create_table("keys", table);
        let plan = semi_variant(variant);

        let b = Bindings::from_database(&db);
        let expected = evaluate(&plan, &b).unwrap();
        let (optimized, _) = optimize(&plan, &db).unwrap();
        let got = evaluate(&optimized, &b).unwrap();
        prop_assert!(
            got.same_contents(&expected),
            "variant {variant}: {} vs {} rows\n{plan}\noptimized:\n{optimized}",
            got.len(),
            expected.len()
        );
        let (again, _) = optimize(&optimized, &db).unwrap();
        prop_assert_eq!(&again, &optimized, "variant {}: a second pass moved the plan", variant);
        if let Some(wrong) = misplaced_key_set(&optimized) {
            prop_assert!(false, "variant {variant}: {wrong}");
        }
    }
}
