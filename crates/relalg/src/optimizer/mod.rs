//! Rule-driven plan optimization.
//!
//! Every plan this system evaluates — view definitions, maintenance
//! strategies from `svc-ivm`, and the η-wrapped cleaning expressions of
//! `svc-core` — passes through one rewrite engine. The engine applies a
//! fixed set of [`rules::Rule`]s repeatedly until a full sweep changes
//! nothing (or [`Optimizer::max_passes`] is hit), in the style of Polars'
//! `PredicatePushDown` / projection-pushdown optimizers and noir's
//! `OptimizationRule`:
//!
//! * [`predicate`] — **predicate pushdown**: σ nodes dissolve into conjunct
//!   sets that sink through Π (by substitution), joins (per side), γ (group
//!   columns only), and set operations, recombining with `AND` where they
//!   land;
//! * [`projection`] — **projection pruning**: drops columns that no
//!   ancestor needs below joins, aggregates, and set operations, always
//!   preserving the primary-key columns that Definition 2 key derivation
//!   ([`mod@crate::derive`]) requires;
//! * [`eta`] — **η hash-sampling pushdown**: the paper's Definition 3
//!   rewrite (Section 4.3/4.4 legality conditions) expressed as a rule, so
//!   that cleaning a sample touches only hash-selected rows;
//! * [`constfold`] — **constant folding**: column-free subexpressions
//!   evaluate at plan time; `σ(true)` vanishes;
//! * [`joinorder`] — **cost-based join reordering**: inner-join regions are
//!   rebuilt in the cheapest order a [`cost::CardEstimator`] can find (DP up
//!   to 8 relations, greedy beyond). This rule only runs when the caller
//!   supplies an estimator — see [`optimize_with`] and the `svc-catalog`
//!   crate, which implements the estimator on top of table statistics.
//!
//! The legacy entry point `svc_sampling::push_down` is now a thin wrapper
//! over the η rule of this engine.

pub mod constfold;
pub mod cost;
pub mod eta;
pub mod joinorder;
pub mod predicate;
pub mod projection;
pub mod rules;

use svc_storage::Result;

use crate::derive::LeafProvider;
use crate::plan::Plan;

pub use cost::CardEstimator;
pub use eta::EtaReport;
pub use rules::{
    ConstantFolding, EtaPushdown, JoinReorder, PredicatePushdown, ProjectionPruning, Rule,
};

/// What a full optimization run did.
#[derive(Debug, Clone, Default)]
pub struct OptimizeReport {
    /// Number of full rule sweeps executed (including the final no-change
    /// sweep that confirms the fixed point).
    pub passes: usize,
    /// Number of predicate conjuncts that crossed at least one operator.
    pub predicates_pushed: usize,
    /// Number of pruning projections inserted or narrowed.
    pub projections_pruned: usize,
    /// Number of constant subexpressions folded (and `σ(true)` removed).
    pub constants_folded: usize,
    /// Number of join regions whose tree the cost-based rule rebuilt.
    pub joins_reordered: usize,
    /// What the η push-down rule achieved (depth, blockers, sampled leaves).
    pub eta: EtaReport,
}

/// A fixed-point rewrite engine over [`Plan`]s. The lifetime bounds rules
/// that borrow a caller-owned cardinality estimator ([`JoinReorder`]).
pub struct Optimizer<'e> {
    rules: Vec<Box<dyn Rule + 'e>>,
    /// Safety cap on rule sweeps; the standard rule set reaches its fixed
    /// point in two or three.
    pub max_passes: usize,
    /// Run the rewrite-boundary verifier
    /// ([`crate::verify::logical::verify_rewrite`]) around every rule
    /// application: the input plan must verify, and after each rule that
    /// reports a change the plan must still verify with an unchanged output
    /// schema (and key, for key-preserving rules). Defaults to the `verify`
    /// cargo feature; [`Optimizer::with_verification`] overrides per
    /// instance, which is how witness tests arm it in any build.
    pub verify_rewrites: bool,
}

impl<'e> Optimizer<'e> {
    /// Engine with an explicit rule list.
    pub fn with_rules(rules: Vec<Box<dyn Rule + 'e>>) -> Optimizer<'e> {
        Optimizer { rules, max_passes: 8, verify_rewrites: crate::verify::ENABLED }
    }

    /// Explicitly arm or disarm rewrite verification for this engine,
    /// overriding the `verify` feature default.
    pub fn with_verification(mut self, on: bool) -> Optimizer<'e> {
        self.verify_rewrites = on;
        self
    }

    /// The standard rule set: constant folding, predicate pushdown,
    /// projection pruning, and η pushdown, in that order.
    pub fn standard() -> Optimizer<'static> {
        Optimizer::with_rules(vec![
            Box::new(ConstantFolding),
            Box::new(PredicatePushdown),
            Box::new(ProjectionPruning),
            Box::new(EtaPushdown),
        ])
    }

    /// The standard rule set plus cost-based join reordering, which slots
    /// in after predicate pushdown (so filtered leaves carry their σ when
    /// estimated) and before projection pruning.
    pub fn standard_with_cost(est: &'e dyn CardEstimator) -> Optimizer<'e> {
        Optimizer::with_rules(vec![
            Box::new(ConstantFolding),
            Box::new(PredicatePushdown),
            Box::new(JoinReorder { est }),
            Box::new(ProjectionPruning),
            Box::new(EtaPushdown),
        ])
    }

    /// Engine running only the η rule — the exact Definition 3 rewrite,
    /// used by the `svc_sampling::push_down` compatibility wrapper.
    pub fn eta_only() -> Optimizer<'static> {
        Optimizer::with_rules(vec![Box::new(EtaPushdown)])
    }

    /// Rewrite `plan` to a fixed point of the rule set. With
    /// [`Optimizer::verify_rewrites`] on, the input plan is verified once
    /// up front and re-verified at every rewrite boundary — a rule that
    /// breaks well-formedness or changes the output schema fails here,
    /// blamed by name, instead of surfacing as a wrong answer downstream.
    pub fn run(&self, plan: &Plan, leaves: &impl LeafProvider) -> Result<(Plan, OptimizeReport)> {
        OPTIMIZES.bump();
        let leaves: &dyn LeafProvider = leaves;
        let mut plan = plan.clone();
        let mut report = OptimizeReport::default();
        let mut current = if self.verify_rewrites {
            Some(crate::verify::logical::verify_plan(&plan, &leaves).map_err(|e| {
                svc_storage::StorageError::Invalid(format!(
                    "rewrite verifier: input plan is ill-formed before any rule ran: {e}"
                ))
            })?)
        } else {
            None
        };
        for _ in 0..self.max_passes {
            report.passes += 1;
            let mut changed = false;
            for rule in &self.rules {
                let (next, rule_changed) = rule.apply(plan, leaves, &mut report)?;
                plan = next;
                if rule_changed {
                    if let Some(cur) = &mut current {
                        *cur = crate::verify::logical::verify_rewrite(
                            rule.name(),
                            cur,
                            &plan,
                            &leaves,
                            rule.preserves_key(),
                        )?;
                    }
                }
                changed |= rule_changed;
            }
            if !changed {
                break;
            }
        }
        Ok((plan, report))
    }
}

thread_local! {
    static OPTIMIZES_CELL: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}
static OPTIMIZES: svc_telemetry::LocalCounter = svc_telemetry::LocalCounter::new(&OPTIMIZES_CELL);

/// [`Optimizer::run`] calls made **on this thread** — the cost-shape hook
/// beside `ivm::view::projection_count`: a view delta served from its plan
/// cache must leave it unchanged.
pub fn optimize_count() -> u64 {
    OPTIMIZES.get()
}

/// Optimize with the standard rule set. This is the single entry point the
/// evaluation layers (`svc-ivm`, `svc-core`, `svc-cluster`) call, so that
/// every evaluated plan is optimized exactly once.
pub fn optimize(plan: &Plan, leaves: &impl LeafProvider) -> Result<(Plan, OptimizeReport)> {
    Optimizer::standard().run(plan, leaves)
}

/// [`optimize`] plus cost-based join reordering driven by `est` — the
/// entry point the evaluation layers use when a statistics catalog is
/// available.
pub fn optimize_with(
    plan: &Plan,
    leaves: &impl LeafProvider,
    est: &dyn CardEstimator,
) -> Result<(Plan, OptimizeReport)> {
    Optimizer::standard_with_cost(est).run(plan, leaves)
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
        assert!(report.passes <= 4, "expected a quick fixed point, took {}", report.passes);
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
        // Two adjacent η nodes must not ping-pong (swap positions every
        // sweep until max_passes); the engine has to converge quickly.
        let plan = Plan::scan("fact")
            .select(col("x").gt(lit(1.0)))
            .hash(&["factId"], 0.5, HashSpec::with_seed(1))
            .hash(&["factId"], 0.7, HashSpec::with_seed(2));
        let report = check_equivalent(&plan);
        assert!(
            report.passes <= 3,
            "stacked η should reach a fixed point, took {} passes",
            report.passes
        );
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
