//! Predicate pushdown, à la Polars' `PredicatePushDown`.
//!
//! σ nodes dissolve into sets of conjuncts that descend the tree and
//! recombine with `AND` wherever they come to rest:
//!
//! * **Π** — always transparent: the conjunct is rewritten by substituting
//!   each referenced output column with its defining expression (all scalar
//!   expressions in this system are deterministic and row-local, so the
//!   substitution is exact, NULL semantics included);
//! * **⋈** — a conjunct referencing only one input moves to that input,
//!   provided the join kind never NULL-pads that side
//!   (`JoinKind::left_unpadded` / `right_unpadded`);
//!   `Full` joins and conjuncts spanning both inputs stay above;
//! * **γ** — a conjunct referencing only group-by columns filters whole
//!   groups and commutes below the aggregate; anything touching an
//!   aggregate output is a HAVING clause and stays above;
//! * **∪ / ∩ / −** — conjuncts are replicated into both inputs with the
//!   positional column renaming of the set operation applied;
//! * **η** — a stopping point by convention: η is itself a deterministic
//!   filter, and adjacent filters are canonicalized with σ *above* η so this
//!   rule and the η push-down rule cannot ping-pong a σ/η pair forever.
//!
//! Filtering earlier never changes the result set (filters are row-local
//! and commute with each other), and only ever shrinks the keyed
//! intermediates the evaluator materializes, so Definition 2 key
//! uniqueness is preserved everywhere.

use svc_storage::Result;

use crate::derive::{derive_tree, DerivedTree, LeafProvider};
use crate::plan::{Plan, SetOpKind};
use crate::scalar::{col, BinOp, Expr};

/// Push every selection in `plan` as deep as legality allows. `moved`
/// counts conjuncts that crossed at least one operator boundary.
///
/// Schemas come from one bottom-up [`derive_tree`] pass over the input plan;
/// the recursion descends the plan and the tree in lockstep, so no node's
/// subtree is ever re-derived.
pub fn pushdown(plan: Plan, leaves: &dyn LeafProvider, moved: &mut usize) -> Result<Plan> {
    let tree = derive_tree(&plan, leaves)?;
    push(plan, &tree, Vec::new(), moved)
}

/// Split a predicate into its top-level conjuncts. SQL `WHERE` keeps a row
/// iff the predicate is exactly true, and `a AND b` is exactly true iff
/// both conjuncts are, so σ_{a∧b} ≡ σ_a ∘ σ_b even under three-valued
/// logic.
fn split_conjuncts(e: Expr, out: &mut Vec<Expr>) {
    match e {
        Expr::Binary { op: BinOp::And, left, right } => {
            split_conjuncts(*left, out);
            split_conjuncts(*right, out);
        }
        other => out.push(other),
    }
}

/// Split the σ chain at the top of `plan` off into its conjuncts (in the
/// same order [`wrap`] emits them, so strip ∘ wrap is the identity).
fn strip_top_selects(plan: Plan) -> (Plan, Vec<Expr>) {
    match plan {
        Plan::Select { input, predicate } => {
            let (core, mut below) = strip_top_selects(*input);
            let mut preds = Vec::new();
            split_conjuncts(predicate, &mut preds);
            below.extend(preds);
            (core, below)
        }
        other => (other, Vec::new()),
    }
}

/// Recombine conjuncts (in collection order, so repeated passes rebuild an
/// identical tree) and wrap `plan` in a single σ; identity when empty.
fn wrap(plan: Plan, preds: Vec<Expr>) -> Plan {
    match preds.into_iter().reduce(|a, b| a.and(b)) {
        None => plan,
        Some(predicate) => Plan::Select { input: Box::new(plan), predicate },
    }
}

/// Core recursion: `preds` are conjuncts filtering this node's output,
/// with names resolvable against this node's output schema. `dt` is the
/// derived tree of `plan` (pre-rewrite; predicate movement never changes
/// any node's schema, so the annotation stays exact throughout).
fn push(plan: Plan, dt: &DerivedTree, mut preds: Vec<Expr>, moved: &mut usize) -> Result<Plan> {
    match plan {
        Plan::Select { input, predicate } => {
            split_conjuncts(predicate, &mut preds);
            push(*input, dt.input(), preds, moved)
        }
        Plan::Scan { .. } => Ok(wrap(plan, preds)),
        Plan::Hash { input, key, ratio, spec } => {
            // σ commutes with η (both are row-local filters), so conjuncts
            // continue *through* a blocked η toward the operators below it.
            // The shared canonical form with the η rule is σ-above-η: any
            // conjunct that would come to rest directly beneath the η is
            // lifted back above it, so this rule and the η push-down (which
            // sinks η below σ) can never ping-pong a σ/η pair. Conjuncts
            // that make real progress deeper — into a join side, below a
            // γ — stay down there, which is new ground the old rule (a hard
            // stop at every η) never reached.
            // Crossing the η itself is not counted as movement (a lifted
            // conjunct ends where it started); conjuncts that settle deeper
            // are counted by the join/γ/Π arms they cross.
            let inner = push(*input, dt.input(), preds, moved)?;
            let (core, rest) = strip_top_selects(inner);
            Ok(wrap(Plan::Hash { input: Box::new(core), key, ratio, spec }, rest))
        }
        Plan::Project { input, columns } => {
            if preds.is_empty() {
                let inner = push(*input, dt.input(), Vec::new(), moved)?;
                return Ok(Plan::Project { input: Box::new(inner), columns });
            }
            let out_schema = &dt.derived.schema;
            let lowered = preds
                .into_iter()
                .map(|p| p.map_cols(&mut |n| Ok(columns[out_schema.resolve(n)?].1.clone())))
                .collect::<Result<Vec<_>>>()?;
            *moved += lowered.len();
            let inner = push(*input, dt.input(), lowered, moved)?;
            Ok(Plan::Project { input: Box::new(inner), columns })
        }
        Plan::Aggregate { input, group_by, aggregates } => {
            let out_schema = &dt.derived.schema;
            let mut below = Vec::new();
            let mut above = Vec::new();
            for p in preds {
                let group_only = p
                    .referenced_columns()
                    .iter()
                    .all(|n| matches!(out_schema.resolve(n), Ok(i) if i < group_by.len()));
                if group_only && !p.referenced_columns().is_empty() {
                    // A group-column filter removes whole groups; rows of the
                    // surviving groups are untouched, so it commutes below γ.
                    below.push(p.map_cols(&mut |n| Ok(col(&group_by[out_schema.resolve(n)?])))?);
                } else {
                    above.push(p);
                }
            }
            *moved += below.len();
            let inner = push(*input, dt.input(), below, moved)?;
            Ok(wrap(Plan::Aggregate { input: Box::new(inner), group_by, aggregates }, above))
        }
        Plan::Join { left, right, kind, on } => {
            let (l_t, r_t) = dt.pair();
            let (l_d, r_d) = (&l_t.derived, &r_t.derived);
            let out_schema = &dt.derived.schema;
            let l_arity = l_d.schema.len();

            let mut l_preds = Vec::new();
            let mut r_preds = Vec::new();
            let mut above = Vec::new();
            for p in preds {
                let mut positions = Vec::new();
                let mut resolvable = true;
                for name in p.referenced_columns() {
                    match out_schema.resolve(name) {
                        Ok(i) => positions.push(i),
                        Err(_) => {
                            resolvable = false;
                            break;
                        }
                    }
                }
                if !resolvable || positions.is_empty() {
                    above.push(p);
                    continue;
                }
                if positions.iter().all(|&i| i < l_arity) && kind.left_unpadded() {
                    // Left output columns keep their input names verbatim.
                    l_preds.push(p.map_cols(&mut |n| {
                        Ok(col(&out_schema.field(out_schema.resolve(n)?).name))
                    })?);
                } else if positions.iter().all(|&i| i >= l_arity) && kind.right_unpadded() {
                    // Right output columns may carry a disambiguation prefix;
                    // map positions back to the right input's names.
                    r_preds.push(p.map_cols(&mut |n| {
                        let i = out_schema.resolve(n)?;
                        Ok(col(&r_d.schema.field(i - l_arity).name))
                    })?);
                } else {
                    above.push(p);
                }
            }
            *moved += l_preds.len() + r_preds.len();
            let l = push(*left, l_t, l_preds, moved)?;
            let r = push(*right, r_t, r_preds, moved)?;
            Ok(wrap(Plan::Join { left: Box::new(l), right: Box::new(r), kind, on }, above))
        }
        Plan::SetOp { kind, left, right } => push_setop(*left, *right, dt, kind, &preds, moved),
    }
}

/// Filters replicate into both inputs of a set operation: a row survives
/// the operation iff it survives on matching rows of both sides, and the
/// filter keeps exactly the same rows on each side (columns correspond
/// positionally).
fn push_setop(
    left: Plan,
    right: Plan,
    dt: &DerivedTree,
    op: SetOpKind,
    preds: &[Expr],
    moved: &mut usize,
) -> Result<Plan> {
    let (l_t, r_t) = dt.pair();
    let l_schema = &l_t.derived.schema;
    let r_schema = &r_t.derived.schema;
    let mut l_preds = Vec::with_capacity(preds.len());
    let mut r_preds = Vec::with_capacity(preds.len());
    for p in preds {
        l_preds.push(p.map_cols(&mut |n| Ok(col(&l_schema.field(l_schema.resolve(n)?).name)))?);
        r_preds.push(p.map_cols(&mut |n| Ok(col(&r_schema.field(l_schema.resolve(n)?).name)))?);
    }
    *moved += preds.len();
    let l = push(left, l_t, l_preds, moved)?;
    let r = push(right, r_t, r_preds, moved)?;
    Ok(Plan::SetOp { kind: op, left: Box::new(l), right: Box::new(r) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggSpec;
    use crate::eval::{evaluate, Bindings};
    use crate::plan::JoinKind;
    use crate::scalar::{col, lit};
    use svc_storage::{DataType, Database, Schema as St, Table, Value};

    fn db() -> Database {
        let mut db = Database::new();
        let mut dim = Table::new(
            St::from_pairs(&[("dimId", DataType::Int), ("w", DataType::Float)]).unwrap(),
            &["dimId"],
        )
        .unwrap();
        for d in 0..30i64 {
            dim.insert(vec![Value::Int(d), Value::Float((d % 5) as f64)]).unwrap();
        }
        let mut fact = Table::new(
            St::from_pairs(&[
                ("factId", DataType::Int),
                ("dimId", DataType::Int),
                ("x", DataType::Float),
            ])
            .unwrap(),
            &["factId"],
        )
        .unwrap();
        for f in 0..500i64 {
            fact.insert(vec![Value::Int(f), Value::Int(f % 30), Value::Float((f % 11) as f64)])
                .unwrap();
        }
        db.create_table("dim", dim);
        db.create_table("fact", fact);
        db
    }

    fn run(plan: Plan) -> (Plan, usize) {
        let db = db();
        let b = Bindings::from_database(&db);
        let expected = evaluate(&plan, &b).unwrap();
        let mut moved = 0;
        let out = pushdown(plan, &db, &mut moved).unwrap();
        let got = evaluate(&out, &b).unwrap();
        assert!(got.same_contents(&expected), "pushdown changed the result");
        (out, moved)
    }

    /// The topmost σ chain above a node, as conjunct count.
    fn top_selects(plan: &Plan) -> usize {
        match plan {
            Plan::Select { input, .. } => 1 + top_selects(input),
            _ => 0,
        }
    }

    #[test]
    fn join_splits_conjuncts_per_side() {
        let plan = Plan::scan("fact")
            .join(Plan::scan("dim"), JoinKind::Inner, &[("dimId", "dimId")])
            .select(col("x").gt(lit(3.0)).and(col("w").lt(lit(4.0))));
        let (out, moved) = run(plan);
        assert_eq!(moved, 2);
        assert_eq!(top_selects(&out), 0, "both conjuncts sank into the join: {out:?}");
    }

    #[test]
    fn having_stays_above_aggregate_group_filter_sinks() {
        let plan = Plan::scan("fact")
            .aggregate(&["dimId"], vec![AggSpec::count_all("n")])
            .select(col("n").gt(lit(2i64)).and(col("dimId").lt(lit(20i64))));
        let (out, moved) = run(plan);
        assert_eq!(moved, 1, "only the group filter moves");
        assert_eq!(top_selects(&out), 1, "HAVING conjunct stays above: {out:?}");
    }

    #[test]
    fn projection_substitutes_computed_columns() {
        let plan = Plan::scan("fact")
            .project(vec![("factId", col("factId")), ("x2", col("x").mul(lit(2.0)))])
            .select(col("x2").gt(lit(10.0)));
        let (out, moved) = run(plan);
        assert_eq!(moved, 1);
        // The σ now lives below the Π with the doubled expression inlined.
        let Plan::Project { input, .. } = &out else {
            panic!("expected projection on top, got {out:?}");
        };
        assert!(matches!(**input, Plan::Select { .. }));
    }

    #[test]
    fn full_join_blocks_pushdown() {
        let plan = Plan::scan("fact")
            .join(Plan::scan("dim"), JoinKind::Full, &[("dimId", "dimId")])
            .select(col("x").gt(lit(3.0)));
        let (out, moved) = run(plan);
        assert_eq!(moved, 0);
        assert_eq!(top_selects(&out), 1);
    }

    #[test]
    fn left_join_pushes_left_only() {
        let plan = Plan::scan("fact")
            .join(Plan::scan("dim"), JoinKind::Left, &[("dimId", "dimId")])
            .select(col("x").gt(lit(3.0)).and(col("w").lt(lit(2.0))));
        let (out, moved) = run(plan);
        assert_eq!(moved, 1, "only the fact-side conjunct may sink");
        assert_eq!(top_selects(&out), 1, "the dim-side conjunct guards the padding");
    }

    #[test]
    fn right_join_pushes_right_only() {
        let plan = Plan::scan("fact")
            .join(Plan::scan("dim"), JoinKind::Right, &[("dimId", "dimId")])
            .select(col("x").gt(lit(3.0)).and(col("w").lt(lit(2.0))));
        let (out, moved) = run(plan);
        assert_eq!(moved, 1, "only the dim-side conjunct may sink");
        assert_eq!(top_selects(&out), 1, "the fact-side conjunct guards the padding");
        let Plan::Select { input, .. } = &out else { panic!("σ stays on top: {out:?}") };
        let Plan::Join { right, .. } = &**input else { panic!("join below σ: {out:?}") };
        assert!(matches!(**right, Plan::Select { .. }), "the w conjunct sank right: {out:?}");
    }

    #[test]
    fn setops_replicate_filters() {
        let a = Plan::scan("fact").select(col("dimId").lt(lit(20i64)));
        let b = Plan::scan("fact").select(col("dimId").ge(lit(10i64)));
        let plan = a.union(b).select(col("x").gt(lit(5.0)));
        let (out, moved) = run(plan);
        assert!(moved >= 1);
        assert_eq!(top_selects(&out), 0);
    }

    #[test]
    fn conjuncts_continue_below_a_blocked_eta() {
        use svc_storage::HashSpec;
        // η rests above the join; the σ conjuncts must pass through it and
        // sink into the join sides instead of stopping at the η.
        let plan = Plan::scan("fact")
            .join(Plan::scan("dim"), JoinKind::Inner, &[("dimId", "dimId")])
            .hash(&["factId", "dimId"], 0.5, HashSpec::with_seed(5))
            .select(col("x").gt(lit(3.0)).and(col("w").lt(lit(2.0))));
        let (out, moved) = run(plan);
        assert_eq!(moved, 2, "both conjuncts cross the η into the join: {out:?}");
        assert_eq!(top_selects(&out), 0);
        let Plan::Hash { input, .. } = &out else { panic!("η stays on top: {out:?}") };
        assert!(matches!(**input, Plan::Join { .. }), "no σ may rest under the η: {input:?}");
    }

    #[test]
    fn resting_conjuncts_are_lifted_back_above_eta() {
        use svc_storage::HashSpec;
        // Nothing below the η to cross: the conjunct is lifted back above
        // it (canonical σ-above-η), and a σ written below the η is
        // canonicalized up as well. Neither counts as movement.
        let spec = HashSpec::with_seed(6);
        let above = Plan::scan("fact").hash(&["factId"], 0.5, spec).select(col("x").gt(lit(3.0)));
        let (out, moved) = run(above.clone());
        assert_eq!(moved, 0);
        assert_eq!(out, above, "canonical input passes through unchanged");

        let below = Plan::scan("fact").select(col("x").gt(lit(3.0))).hash(&["factId"], 0.5, spec);
        let (out, moved) = run(below);
        assert_eq!(moved, 0);
        assert_eq!(out, above, "σ below η canonicalizes to σ above η");
    }

    #[test]
    fn eta_and_sigma_pair_reaches_fixed_point() {
        use svc_storage::HashSpec;
        let db = db();
        let plan = Plan::scan("fact")
            .join(Plan::scan("dim"), JoinKind::Inner, &[("dimId", "dimId")])
            .hash(&["factId", "dimId"], 0.4, HashSpec::with_seed(7))
            .select(col("x").gt(lit(1.0)));
        let mut moved = 0;
        let once = pushdown(plan, &db, &mut moved).unwrap();
        let mut again = 0;
        let twice = pushdown(once.clone(), &db, &mut again).unwrap();
        assert_eq!(again, 0, "second pass must be a no-op");
        assert_eq!(once, twice);
    }

    #[test]
    fn fixed_point_is_stable() {
        let db = db();
        let plan = Plan::scan("fact")
            .join(Plan::scan("dim"), JoinKind::Inner, &[("dimId", "dimId")])
            .select(col("x").gt(lit(3.0)));
        let mut moved = 0;
        let once = pushdown(plan, &db, &mut moved).unwrap();
        assert!(moved > 0);
        let mut again = 0;
        let twice = pushdown(once.clone(), &db, &mut again).unwrap();
        assert_eq!(again, 0, "second pass must be a no-op");
        assert_eq!(once, twice);
    }
}
