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
//! A semi-join whose right input is a bare leaf, `X ⋉[a = k] Scan K`, is a
//! row filter too — keep the rows whose `a` values occur in `K` — and sinks
//! as one more conjunct, the move that restricts a whole-view recompute to
//! a key set at its leaves. It crosses Π only where every `a` passes
//! through as a bare column, γ only on group columns, ∪ and ∩ into both
//! inputs, −, ▷ and ⋉ into the left input only, and outer joins into the
//! preserved side only. Under an inner ⋈ it also takes the join equalities
//! across: `a = r` on every matched row, and `Value` equality is an
//! equivalence, so `⋉[r = k] K` restricts the other side to the same
//! matches. It stops above η. Where filters come to rest, the σ sits
//! directly on the node and the semi-joins above it, the first one
//! outermost, so a second pass rebuilds the identical tree.
//!
//! Filtering earlier never changes the result set (filters are row-local
//! and commute with each other), and only ever shrinks the keyed
//! intermediates the evaluator materializes, so Definition 2 key
//! uniqueness is preserved everywhere.

use svc_storage::Result;

use crate::derive::{derive_tree, DerivedTree, LeafProvider};
use crate::plan::{JoinKind, Plan, SetOpKind};
use crate::scalar::{col, BinOp, Expr};

/// One row filter on its way down: a σ conjunct, or a semi-join against a
/// bare leaf, `⋉[a = k] Scan leaf`, by its `(a, k)` pairs.
#[derive(Debug, Clone)]
enum Conjunct {
    Pred(Expr),
    Keys { on: Vec<(String, String)>, leaf: String },
}

impl Conjunct {
    /// The columns of the filtered relation this filter reads.
    fn columns(&self) -> Vec<&str> {
        match self {
            Conjunct::Pred(p) => p.referenced_columns(),
            Conjunct::Keys { on, .. } => on.iter().map(|(a, _)| a.as_str()).collect(),
        }
    }

    /// The same filter over a relation where each read column is named `f`.
    fn renamed(&self, f: &mut impl FnMut(&str) -> Result<String>) -> Result<Conjunct> {
        Ok(match self {
            Conjunct::Pred(p) => Conjunct::Pred(p.map_cols(&mut |n| Ok(col(f(n)?)))?),
            Conjunct::Keys { on, leaf } => Conjunct::Keys {
                on: on.iter().map(|(a, k)| Ok((f(a)?, k.clone()))).collect::<Result<_>>()?,
                leaf: leaf.clone(),
            },
        })
    }
}

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
fn split_conjuncts(e: Expr, out: &mut Vec<Conjunct>) {
    match e {
        Expr::Binary { op: BinOp::And, left, right } => {
            split_conjuncts(*left, out);
            split_conjuncts(*right, out);
        }
        other => out.push(Conjunct::Pred(other)),
    }
}

/// Split the σ chain at the top of `plan` off into its conjuncts (in the
/// same order [`wrap`] emits them, so strip ∘ wrap is the identity).
fn strip_top_selects(plan: Plan) -> (Plan, Vec<Conjunct>) {
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

/// Recombine filters where they come to rest: the σ conjuncts (in
/// collection order, so repeated passes rebuild an identical tree) as one σ
/// on `plan`, the leaf semi-joins above it with the first one outermost, as
/// a second pass collects them; identity when empty.
fn wrap(plan: Plan, conjuncts: Vec<Conjunct>) -> Plan {
    let mut preds = Vec::new();
    let mut keys = Vec::new();
    for c in conjuncts {
        match c {
            Conjunct::Pred(p) => preds.push(p),
            Conjunct::Keys { on, leaf } => keys.push((on, leaf)),
        }
    }
    let mut plan = match preds.into_iter().reduce(|a, b| a.and(b)) {
        None => plan,
        Some(predicate) => Plan::Select { input: Box::new(plan), predicate },
    };
    for (on, leaf) in keys.into_iter().rev() {
        plan = Plan::Join {
            left: Box::new(plan),
            right: Box::new(Plan::scan(leaf)),
            kind: JoinKind::Semi,
            on,
        };
    }
    plan
}

/// Core recursion: `preds` are conjuncts filtering this node's output,
/// with names resolvable against this node's output schema. `dt` is the
/// derived tree of `plan` (pre-rewrite; filter movement never changes
/// any node's schema, so the annotation stays exact throughout).
fn push(plan: Plan, dt: &DerivedTree, mut preds: Vec<Conjunct>, moved: &mut usize) -> Result<Plan> {
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
            // stop at every η) never reached. Leaf semi-joins stop above
            // the η.
            // Crossing the η itself is not counted as movement (a lifted
            // conjunct ends where it started); conjuncts that settle deeper
            // are counted by the join/γ/Π arms they cross.
            let (through, keys): (Vec<_>, Vec<_>) =
                preds.into_iter().partition(|c| matches!(c, Conjunct::Pred(_)));
            let inner = push(*input, dt.input(), through, moved)?;
            let (core, mut rest) = strip_top_selects(inner);
            rest.extend(keys);
            Ok(wrap(Plan::Hash { input: Box::new(core), key, ratio, spec }, rest))
        }
        Plan::Project { input, columns } => {
            if preds.is_empty() {
                let inner = push(*input, dt.input(), Vec::new(), moved)?;
                return Ok(Plan::Project { input: Box::new(inner), columns });
            }
            let out_schema = &dt.derived.schema;
            let source = |n: &str| Ok(&columns[out_schema.resolve(n)?].1);
            let mut below = Vec::new();
            let mut above = Vec::new();
            for c in preds {
                match c {
                    Conjunct::Pred(p) => {
                        below.push(Conjunct::Pred(p.map_cols(&mut |n| Ok(source(n)?.clone()))?));
                    }
                    // A key set crosses only columns that pass through as
                    // they are (at most renamed); a computed column stops it.
                    Conjunct::Keys { on, leaf } => {
                        let mut lowered = Vec::with_capacity(on.len());
                        for (a, k) in &on {
                            if let Expr::Col(src) = source(a)? {
                                lowered.push((src.clone(), k.clone()));
                            }
                        }
                        if lowered.len() == on.len() {
                            below.push(Conjunct::Keys { on: lowered, leaf });
                        } else {
                            above.push(Conjunct::Keys { on, leaf });
                        }
                    }
                }
            }
            *moved += below.len();
            let inner = push(*input, dt.input(), below, moved)?;
            Ok(wrap(Plan::Project { input: Box::new(inner), columns }, above))
        }
        Plan::Aggregate { input, group_by, aggregates } => {
            let out_schema = &dt.derived.schema;
            let mut below = Vec::new();
            let mut above = Vec::new();
            for c in preds {
                let columns = c.columns();
                let group_only = columns
                    .iter()
                    .all(|n| matches!(out_schema.resolve(n), Ok(i) if i < group_by.len()));
                if group_only && !columns.is_empty() {
                    // A group-column filter removes whole groups; rows of the
                    // surviving groups are untouched, so it commutes below γ.
                    below.push(c.renamed(&mut |n| Ok(group_by[out_schema.resolve(n)?].clone()))?);
                } else {
                    above.push(c);
                }
            }
            *moved += below.len();
            let inner = push(*input, dt.input(), below, moved)?;
            Ok(wrap(Plan::Aggregate { input: Box::new(inner), group_by, aggregates }, above))
        }
        Plan::Join { left, right, kind: JoinKind::Semi, on }
            if matches!(*right, Plan::Scan { .. }) =>
        {
            // A leaf semi-join dissolves into a conjunct on its left input.
            let Plan::Scan { table } = *right else { unreachable!("guarded by the match arm") };
            preds.push(Conjunct::Keys { on, leaf: table });
            push(*left, dt.pair().0, preds, moved)
        }
        Plan::Join { left, right, kind, on } => {
            let (l_t, r_t) = dt.pair();
            let (l_d, r_d) = (&l_t.derived, &r_t.derived);
            let out_schema = &dt.derived.schema;
            let l_arity = l_d.schema.len();
            // Output position → that column's name in its input; right
            // output columns may carry a disambiguation prefix.
            let name_of = |i: usize| match i.checked_sub(l_arity) {
                None => l_d.schema.field(i).name.clone(),
                Some(r) => r_d.schema.field(r).name.clone(),
            };
            // An inner join's equalities pair output positions across sides.
            let mut equal = Vec::new();
            if kind == JoinKind::Inner {
                for (l, r) in &on {
                    let (l, r) = (l_d.schema.resolve(l)?, l_arity + r_d.schema.resolve(r)?);
                    equal.extend([(l, r), (r, l)]);
                }
            }
            let partner = |i: usize| equal.iter().find_map(|&(a, b)| (a == i).then_some(b));

            let mut l_preds = Vec::new();
            let mut r_preds = Vec::new();
            let mut above = Vec::new();
            for c in preds {
                let Ok(positions) =
                    c.columns().iter().map(|n| out_schema.resolve(n)).collect::<Result<Vec<_>>>()
                else {
                    above.push(c);
                    continue;
                };
                let (own, other) = if positions.is_empty() {
                    above.push(c);
                    continue;
                } else if positions.iter().all(|&i| i < l_arity) && kind.left_unpadded() {
                    (&mut l_preds, &mut r_preds)
                } else if positions.iter().all(|&i| i >= l_arity) && kind.right_unpadded() {
                    (&mut r_preds, &mut l_preds)
                } else {
                    above.push(c);
                    continue;
                };
                // A key set also crosses the equalities into the other side:
                // on every joined row its columns equal their partners.
                if matches!(c, Conjunct::Keys { .. })
                    && positions.iter().all(|&i| partner(i).is_some())
                {
                    other.push(c.renamed(&mut |n| {
                        Ok(name_of(partner(out_schema.resolve(n)?).expect("checked above")))
                    })?);
                }
                own.push(c.renamed(&mut |n| Ok(name_of(out_schema.resolve(n)?)))?);
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
/// positionally). A key set enters only the left input of −: restricting
/// the left side alone already restricts the output.
fn push_setop(
    left: Plan,
    right: Plan,
    dt: &DerivedTree,
    op: SetOpKind,
    preds: &[Conjunct],
    moved: &mut usize,
) -> Result<Plan> {
    let (l_t, r_t) = dt.pair();
    let l_schema = &l_t.derived.schema;
    let r_schema = &r_t.derived.schema;
    let mut l_preds = Vec::with_capacity(preds.len());
    let mut r_preds = Vec::with_capacity(preds.len());
    for c in preds {
        l_preds.push(c.renamed(&mut |n| Ok(l_schema.field(l_schema.resolve(n)?).name.clone()))?);
        if op != SetOpKind::Difference || matches!(c, Conjunct::Pred(_)) {
            r_preds
                .push(c.renamed(&mut |n| Ok(r_schema.field(l_schema.resolve(n)?).name.clone()))?);
        }
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
        let mut keys =
            Table::new(St::from_pairs(&[("k", DataType::Int)]).unwrap(), &["k"]).unwrap();
        for k in [2i64, 3, 5, 7, 11, 13] {
            keys.insert(vec![Value::Int(k)]).unwrap();
        }
        db.create_table("dim", dim);
        db.create_table("fact", fact);
        db.create_table("keys", keys);
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

    fn keys_on(plan: Plan, column: &str) -> Plan {
        plan.join(Plan::scan("keys"), JoinKind::Semi, &[(column, "k")])
    }

    /// The left inputs of every `⋉ Scan keys` in `plan`, outermost first.
    fn restricted(plan: &Plan) -> Vec<&Plan> {
        let mut out = Vec::new();
        if let Plan::Join { left, right, kind: JoinKind::Semi, .. } = plan {
            if **right == Plan::scan("keys") {
                out.push(&**left);
            }
        }
        out.extend(plan.children().flat_map(restricted));
        out
    }

    fn twice_is_once(plan: &Plan) {
        let mut again = 0;
        let twice = pushdown(plan.clone(), &db(), &mut again).unwrap();
        assert_eq!((&twice, again), (plan, 0), "a second pass moved a filter");
    }

    #[test]
    fn a_key_set_sinks_through_gamma_into_both_inner_join_sides() {
        let agg = Plan::scan("fact")
            .join(Plan::scan("dim"), JoinKind::Inner, &[("dimId", "dimId")])
            .aggregate(&["dimId"], vec![AggSpec::count_all("n")]);
        let (out, moved) = run(keys_on(agg, "dimId").select(col("dimId").lt(lit(12i64))));
        // One copy per join side; the σ is not carried across the equality.
        let fact = Plan::scan("fact").select(col("dimId").lt(lit(12i64)));
        assert_eq!(restricted(&out), vec![&fact, &Plan::scan("dim")], "{out}");
        assert!(matches!(out, Plan::Aggregate { .. }), "nothing stays above γ: {out}");
        assert_eq!(moved, 5, "σ and ⋉ cross γ, σ enters one side and ⋉ both");
        twice_is_once(&out);
    }

    #[test]
    fn a_key_set_on_an_aggregate_column_stays_above_gamma() {
        let agg = Plan::scan("fact").aggregate(&["dimId"], vec![AggSpec::count_all("n")]);
        let plan = keys_on(agg, "n");
        let (out, moved) = run(plan.clone());
        assert_eq!((&out, moved), (&plan, 0));
    }

    #[test]
    fn a_key_set_enters_only_the_preserved_side_of_an_outer_join() {
        let left =
            Plan::scan("fact").join(Plan::scan("dim"), JoinKind::Left, &[("dimId", "dimId")]);
        let (out, _) = run(keys_on(left.clone(), "dimId"));
        let at = restricted(&out);
        assert_eq!(at, vec![&Plan::scan("fact")], "left side only, no copy across: {out}");
        // The padded side's key stays above the join.
        let plan = keys_on(left, "dim.dimId");
        let (out, moved) = run(plan.clone());
        assert_eq!((&out, moved), (&plan, 0));
    }

    #[test]
    fn a_key_set_crosses_renames_but_not_computed_columns() {
        let renamed = Plan::scan("fact").project(vec![("d", col("dimId")), ("f", col("factId"))]);
        let (out, moved) = run(keys_on(renamed, "d"));
        assert_eq!(moved, 1);
        let Plan::Project { input, .. } = &out else { panic!("Π stays on top: {out}") };
        assert_eq!(**input, keys_on(Plan::scan("fact"), "dimId"));

        let computed = Plan::scan("fact")
            .project(vec![("d", col("dimId").add(lit(0i64))), ("f", col("factId"))]);
        let plan = keys_on(computed, "d");
        let (out, moved) = run(plan.clone());
        assert_eq!((&out, moved), (&plan, 0));
    }

    #[test]
    fn a_key_set_enters_the_left_input_of_difference_and_anti_join() {
        let diff = Plan::scan("fact").difference(Plan::scan("fact").select(col("x").gt(lit(5.0))));
        let (out, _) = run(keys_on(diff, "dimId"));
        let Plan::SetOp { left, right, .. } = &out else { panic!("− on top: {out}") };
        assert_eq!(**left, keys_on(Plan::scan("fact"), "dimId"));
        assert!(restricted(right).is_empty(), "{out}");

        let anti =
            Plan::scan("fact").join(Plan::scan("dim"), JoinKind::Anti, &[("dimId", "dimId")]);
        let (out, _) = run(keys_on(anti, "dimId"));
        assert_eq!(restricted(&out), vec![&Plan::scan("fact")]);
        twice_is_once(&out);
    }

    #[test]
    fn a_key_set_stops_above_eta() {
        use svc_storage::HashSpec;
        let hashed = Plan::scan("fact").hash(&["factId"], 0.5, HashSpec::with_seed(3));
        let plan = keys_on(hashed, "dimId").select(col("x").gt(lit(2.0)));
        let (out, _) = run(plan);
        let Plan::Join { left, .. } = &out else { panic!("⋉ on top: {out}") };
        assert!(
            matches!(&**left, Plan::Select { input, .. } if matches!(**input, Plan::Hash { .. }))
        );
        twice_is_once(&out);
    }

    /// A semi-join whose right input is no bare leaf is a join as before.
    #[test]
    fn a_semi_join_over_a_subplan_does_not_move() {
        let keys = Plan::scan("keys").select(col("k").gt(lit(2i64)));
        let agg = Plan::scan("fact").aggregate(&["dimId"], vec![AggSpec::count_all("n")]);
        let plan = agg.join(keys, JoinKind::Semi, &[("dimId", "k")]);
        let (out, moved) = run(plan.clone());
        assert_eq!((&out, moved), (&plan, 0));
    }
}
