//! Plan optimization: one pass of three rewrites, in order.
//!
//! Every plan this system evaluates — view definitions, maintenance
//! strategies from `svc-ivm`, and the η-wrapped cleaning expressions of
//! `svc-core` — passes through [`optimize`] or [`optimize_with`], which
//! call each rewrite once:
//!
//! 1. [`predicate`] — **filter pushdown**: σ nodes, semi-joins against a
//!    bare leaf (`X ⋉ Scan K`, a key-set restriction) and η hash samplers
//!    dissolve into conjunct sets that sink through Π, joins, γ and set
//!    operations by each filter's legality rules, recombining where they
//!    land. η follows the paper's Definition 3 (Section 4.3/4.4 legality
//!    conditions), so cleaning a sample touches only hash-selected rows; a
//!    key set under an inner join crosses the join equalities into both
//!    sides, so a whole-view recompute restricted to a few keys reads only
//!    their rows past the leaves. [`eta`] reports where each η rests;
//! 2. [`joinorder`] — **cost-based join reordering**: inner-join regions are
//!    rebuilt in the cheapest order a [`cost::CardEstimator`] can find (DP up
//!    to 8 relations, greedy beyond). Only [`optimize_with`] runs it; the
//!    `svc-catalog` crate implements the estimator on top of table
//!    statistics;
//! 3. [`projection`] — **projection pruning**: drops columns that no
//!    ancestor needs below joins, aggregates, and set operations, always
//!    preserving the primary-key columns that Definition 2 key derivation
//!    ([`mod@crate::derive`]) requires; a leaf semi-join is pruned like a
//!    σ, so its leaf stays bare for the next pass.
//!
//! Each rewrite finishes its own job in one pass, so optimizing an optimized
//! plan returns it unchanged; the idempotence tests in
//! `tests/catalog_prop.rs` hold every workload view's delta plans to that.
//! (Pruning can split a join region that a second reordering would order
//! differently; only a merge-form reference plan is known to hit this, and
//! join order never changes rows.) `svc_sampling::push_down` calls the
//! filter pass alone.

pub mod cost;
pub mod eta;
pub mod joinorder;
pub mod predicate;
pub mod projection;

use svc_storage::{Result, StorageError};

use crate::derive::LeafProvider;
use crate::plan::Plan;
use crate::verify::logical::{verify_plan, verify_rewrite};

pub use cost::CardEstimator;
pub use eta::EtaReport;

/// What an optimization run did.
#[derive(Debug, Clone, Default)]
pub struct OptimizeReport {
    /// Passes over the plan: always 1.
    pub passes: usize,
    /// Number of σ conjuncts and leaf key sets that crossed an operator.
    pub predicates_pushed: usize,
    /// Number of pruning projections inserted or narrowed.
    pub projections_pruned: usize,
    /// Number of join regions whose tree the cost-based pass rebuilt.
    pub joins_reordered: usize,
    /// What the η push-down achieved (depth, blockers, sampled leaves).
    pub eta: EtaReport,
}

/// The one optimizer pass: the three rewrites, once each, join reordering
/// only when `est` is given. Under the `verify` feature the input plan is
/// verified up front and every rewrite's output is re-verified at its
/// boundary — a rewrite that breaks well-formedness or changes the output
/// schema fails here, blamed by name, instead of surfacing as a wrong
/// answer downstream. Only join reordering may change the key claim.
fn run(
    plan: &Plan,
    leaves: &dyn LeafProvider,
    est: Option<&dyn CardEstimator>,
) -> Result<(Plan, OptimizeReport)> {
    OPTIMIZES.bump();
    let mut report = OptimizeReport { passes: 1, ..OptimizeReport::default() };
    let mut current =
        crate::verify::ENABLED.then(|| verify_plan(plan, leaves)).transpose().map_err(|e| {
            StorageError::Invalid(format!(
                "rewrite verifier: input plan is ill-formed before any rule ran: {e}"
            ))
        })?;
    let mut verified = |rule: &str, plan: Plan, preserves_key: bool| -> Result<Plan> {
        if let Some(cur) = &mut current {
            *cur = verify_rewrite(rule, cur, &plan, leaves, preserves_key)?;
        }
        Ok(plan)
    };
    let (moved, descended) = (&mut report.predicates_pushed, &mut report.eta.descended);
    let plan = predicate::pushdown(plan.clone(), leaves, moved, descended)?;
    let mut plan = verified("predicate-pushdown", plan, true)?;
    if let Some(est) = est {
        let reordered = joinorder::reorder(plan, leaves, est, &mut report.joins_reordered)?;
        plan = verified("join-reorder", reordered, false)?;
    }
    let (pruned, descended) = (&mut report.projections_pruned, &mut report.eta.descended);
    let plan = projection::prune(plan, leaves, pruned, descended)?;
    let plan = verified("projection-pruning", plan, true)?;
    eta::describe(&plan, &mut report.eta);
    Ok((plan, report))
}

thread_local! {
    static OPTIMIZES_CELL: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}
static OPTIMIZES: svc_telemetry::LocalCounter = svc_telemetry::LocalCounter::new(&OPTIMIZES_CELL);

/// [`optimize`] / [`optimize_with`] calls made **on this thread** — the
/// cost-shape hook beside `ivm::view::projection_count`: a view delta served
/// from its plan cache must leave it unchanged.
pub fn optimize_count() -> u64 {
    OPTIMIZES.get()
}

/// Optimize without join reordering. This is the single entry point the
/// evaluation layers (`svc-ivm`, `svc-core`, `svc-cluster`) call, so that
/// every evaluated plan is optimized exactly once.
pub fn optimize(plan: &Plan, leaves: &impl LeafProvider) -> Result<(Plan, OptimizeReport)> {
    run(plan, leaves, None)
}

/// [`optimize`] plus cost-based join reordering driven by `est` — the
/// entry point the evaluation layers use when a statistics catalog is
/// available.
pub fn optimize_with(
    plan: &Plan,
    leaves: &impl LeafProvider,
    est: &dyn CardEstimator,
) -> Result<(Plan, OptimizeReport)> {
    run(plan, leaves, Some(est))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggSpec;
    use crate::eval::{evaluate, Bindings};
    use crate::plan::JoinKind;
    use crate::scalar::{col, lit};
    use svc_storage::{DataType, Database, HashSpec, Schema, Table, Value};

    fn db() -> Database {
        let mut db = Database::new();
        let mut dim = Table::new(
            Schema::from_pairs(&[
                ("dimId", DataType::Int),
                ("weight", DataType::Float),
                ("label", DataType::Str),
            ])
            .unwrap(),
            &["dimId"],
        )
        .unwrap();
        for d in 0..40i64 {
            dim.insert(vec![
                Value::Int(d),
                Value::Float((d % 7) as f64),
                Value::str(format!("d{d}")),
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
        for f in 0..900i64 {
            fact.insert(vec![
                Value::Int(f),
                Value::Int(f % 40),
                Value::Float((f % 13) as f64),
                Value::Float((f % 29) as f64),
            ])
            .unwrap();
        }
        db.create_table("dim", dim);
        db.create_table("fact", fact);
        db
    }

    fn check_equivalent(plan: &Plan) -> OptimizeReport {
        let db = db();
        let b = Bindings::from_database(&db);
        let expected = evaluate(plan, &b).unwrap();
        let (optimized, report) = optimize(plan, &db).unwrap();
        let got = evaluate(&optimized, &b).unwrap();
        assert!(
            got.same_contents(&expected),
            "optimizer changed results: {} vs {} rows\nplan: {plan:?}\noptimized: {optimized:?}",
            got.len(),
            expected.len()
        );
        // One pass is a fixed point: optimizing again changes nothing.
        let (again, second) = optimize(&optimized, &db).unwrap();
        assert_eq!(again, optimized, "a second pass changed the plan");
        assert_eq!(second.eta.blockers, report.eta.blockers);
        assert_eq!(second.eta.sampled_leaves, report.eta.sampled_leaves);
        report
    }

    #[test]
    fn fixed_point_terminates_and_preserves_results() {
        let plan = Plan::scan("fact")
            .join(Plan::scan("dim"), JoinKind::Inner, &[("dimId", "dimId")])
            .aggregate(
                &["dimId"],
                vec![
                    AggSpec::count_all("n"),
                    AggSpec::new("sx", crate::aggregate::AggFunc::Sum, col("x")),
                ],
            )
            .select(col("n").gt(lit(5i64)))
            .select(col("dimId").lt(lit(30i64)));
        let report = check_equivalent(&plan);
        assert_eq!(report.passes, 1);
        assert!(report.predicates_pushed > 0);
    }

    #[test]
    fn combined_rules_compose_with_eta() {
        let plan = Plan::scan("fact")
            .join(Plan::scan("dim"), JoinKind::Inner, &[("dimId", "dimId")])
            .aggregate(&["dimId"], vec![AggSpec::count_all("n")])
            .select(col("dimId").ge(lit(4i64)))
            .hash(&["dimId"], 0.4, HashSpec::with_seed(3));
        let report = check_equivalent(&plan);
        assert!(report.eta.fully_pushed(), "blockers: {:?}", report.eta.blockers);
        let mut leaves = report.eta.sampled_leaves;
        leaves.sort();
        assert_eq!(leaves, vec!["dim", "fact"]);
    }

    #[test]
    fn stacked_hashes_reach_fixed_point() {
        // Two adjacent η nodes with different specs must not swap places:
        // a second pass would swap them back (`check_equivalent` runs it).
        let plan = Plan::scan("fact")
            .select(col("x").gt(lit(1.0)))
            .hash(&["factId"], 0.5, HashSpec::with_seed(1))
            .hash(&["factId"], 0.7, HashSpec::with_seed(2));
        let report = check_equivalent(&plan);
        assert_eq!(report.eta.sampled_leaves, vec!["fact"], "only the inner η rests on the leaf");
    }

    /// Count the `Hash` nodes of a plan and return the minimum ratio seen.
    fn hash_nodes(plan: &Plan) -> (usize, f64) {
        let own = match plan {
            Plan::Hash { ratio, .. } => (1, *ratio),
            _ => (0, f64::INFINITY),
        };
        plan.children().map(hash_nodes).fold(own, |(n, r), (cn, cr)| (n + cn, r.min(cr)))
    }

    #[test]
    fn adjacent_hashes_with_shared_spec_compose_to_min_ratio() {
        // η_{0.7} ∘ η_{0.4} with one (key, spec) ≡ η_{0.4}: the optimizer
        // must collapse the pair into a single hash and keep the result
        // identical (this subsumes the old "leave them unswapped" behavior).
        let spec = HashSpec::with_seed(9);
        let plan = Plan::scan("fact")
            .select(col("x").gt(lit(2.0)))
            .hash(&["factId"], 0.4, spec)
            .hash(&["factId"], 0.7, spec);
        let db = db();
        let b = Bindings::from_database(&db);
        let expected = evaluate(&plan, &b).unwrap();
        let (optimized, _) = optimize(&plan, &db).unwrap();
        let got = evaluate(&optimized, &b).unwrap();
        assert!(got.same_contents(&expected), "η∘η composition changed the sample");
        let (n, min_ratio) = hash_nodes(&optimized);
        assert_eq!(n, 1, "adjacent hashes should compose into one: {optimized:?}");
        assert!((min_ratio - 0.4).abs() < 1e-12, "composed ratio must be min: {min_ratio}");
    }

    /// The η report describes the output plan: a composed η∘η is one η
    /// over one leaf, reported once.
    #[test]
    fn composed_eta_reports_its_leaf_once() {
        let spec = HashSpec::with_seed(9);
        let plan = Plan::scan("fact")
            .select(col("x").gt(lit(2.0)))
            .hash(&["factId"], 0.4, spec)
            .hash(&["factId"], 0.7, spec);
        let report = check_equivalent(&plan);
        assert_eq!(report.eta.sampled_leaves, vec!["fact"]);
        assert!(report.eta.fully_pushed(), "{:?}", report.eta.blockers);
    }

    /// Both η of a composed pair stop at the same γ (the count is no group
    /// column); the one η left over it is one blocker.
    #[test]
    fn composed_eta_over_a_blocking_aggregate_reports_one_blocker() {
        let spec = HashSpec::with_seed(4);
        let plan = Plan::scan("fact")
            .aggregate(&["dimId"], vec![AggSpec::count_all("n")])
            .hash(&["n"], 0.4, spec)
            .hash(&["n"], 0.7, spec);
        let report = check_equivalent(&plan);
        assert_eq!(report.eta.blockers.len(), 1, "{:?}", report.eta.blockers);
        assert!(report.eta.blockers[0].contains("group-by clause (dimId)"));
        assert!(report.eta.sampled_leaves.is_empty());
    }

    /// A composed η∘η stopped by a key-transforming Π is one blocker.
    #[test]
    fn composed_eta_over_a_blocking_projection_reports_one_blocker() {
        let spec = HashSpec::with_seed(5);
        let plan = Plan::scan("fact")
            .project(vec![("factId", col("factId")), ("x2", col("x").mul(lit(2.0)))])
            .hash(&["x2"], 0.4, spec)
            .hash(&["x2"], 0.7, spec);
        let report = check_equivalent(&plan);
        assert_eq!(report.eta.blockers.len(), 1, "{:?}", report.eta.blockers);
        assert!(report.eta.blockers[0].contains("η stays above Π"));
        assert!(report.eta.sampled_leaves.is_empty());
    }

    /// η on the dimension's `weight` cannot pass the join (the column is no
    /// join key); composed with a second η it is still one blocker.
    #[test]
    fn composed_eta_over_a_blocking_join_reports_one_blocker() {
        let spec = HashSpec::with_seed(6);
        let plan = Plan::scan("fact")
            .join(Plan::scan("dim"), JoinKind::Inner, &[("dimId", "dimId")])
            .hash(&["factId", "weight"], 0.4, spec)
            .hash(&["factId", "weight"], 0.7, spec);
        let report = check_equivalent(&plan);
        assert_eq!(report.eta.blockers.len(), 1, "{:?}", report.eta.blockers);
        assert!(report.eta.blockers[0].starts_with("join blocks η"));
    }

    /// η on the dimension key sinks only into a join side that is never
    /// NULL-padded: the right side of a right join, not of a left join.
    #[test]
    fn eta_sinks_only_into_unpadded_join_sides() {
        let eta = |kind| {
            Plan::scan("fact").join(Plan::scan("dim"), kind, &[("dimId", "dimId")]).hash(
                &["dim.dimId"],
                0.5,
                HashSpec::with_seed(8),
            )
        };
        let right = check_equivalent(&eta(JoinKind::Right));
        assert_eq!(right.eta.sampled_leaves, vec!["dim"]);
        let left = check_equivalent(&eta(JoinKind::Left));
        assert!(left.eta.sampled_leaves.is_empty());
        assert_eq!(left.eta.blockers.len(), 1, "{:?}", left.eta.blockers);
    }

    #[test]
    fn every_optimize_call_counts_one_pass() {
        struct Flat;
        impl CardEstimator for Flat {
            fn estimate(&self, plan: &Plan, leaves: &dyn LeafProvider) -> Result<cost::RelCard> {
                let arity = crate::derive::derive(plan, leaves)?.schema.len();
                Ok(cost::RelCard { rows: 100.0, distinct: vec![10.0; arity] })
            }
        }
        let db = db();
        let plan =
            Plan::scan("fact").join(Plan::scan("dim"), JoinKind::Inner, &[("dimId", "dimId")]);
        let before = optimize_count();
        let (_, plain) = optimize(&plan, &db).unwrap();
        let (_, costed) = optimize_with(&plan, &db, &Flat).unwrap();
        assert_eq!(optimize_count() - before, 2);
        assert_eq!((plain.passes, costed.passes), (1, 1));
    }

    #[test]
    fn adjacent_hashes_with_different_specs_stay_stacked() {
        let plan = Plan::scan("fact").hash(&["factId"], 0.4, HashSpec::with_seed(1)).hash(
            &["factId"],
            0.7,
            HashSpec::with_seed(2),
        );
        let db = db();
        let b = Bindings::from_database(&db);
        let expected = evaluate(&plan, &b).unwrap();
        let (optimized, _) = optimize(&plan, &db).unwrap();
        let got = evaluate(&optimized, &b).unwrap();
        assert!(got.same_contents(&expected));
        let (n, _) = hash_nodes(&optimized);
        assert_eq!(n, 2, "independent samples must not merge: {optimized:?}");
    }

    #[test]
    fn report_counts_projection_pruning() {
        // The aggregate needs only dimId and x; the join carries label/weight
        // and y for nothing — pruning should trim them below the join.
        let plan = Plan::scan("fact")
            .join(Plan::scan("dim"), JoinKind::Inner, &[("dimId", "dimId")])
            .aggregate(
                &["dimId"],
                vec![AggSpec::new("sx", crate::aggregate::AggFunc::Sum, col("x"))],
            );
        let report = check_equivalent(&plan);
        assert!(report.projections_pruned > 0, "report: {report:?}");
    }
}
