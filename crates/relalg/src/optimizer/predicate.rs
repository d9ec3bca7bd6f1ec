//! Filter pushdown, à la Polars' `PredicatePushDown`: σ, leaf key sets and
//! η sink in one pass.
//!
//! Three kinds of row filter dissolve into a set of conjuncts that descends
//! the tree and recombines wherever it comes to rest:
//!
//! * a σ, split into its `AND` conjuncts;
//! * a semi-join whose right input is a bare leaf, `X ⋉[a = k] Scan K` — keep
//!   the rows whose `a` values occur in `K`, the move that restricts a
//!   whole-view recompute to a key set at its leaves;
//! * the hash operator `η_{a,m}`, a selection on a deterministic predicate
//!   of its key (the paper's Definition 3), so that cleaning a sample
//!   touches only hash-selected rows.
//!
//! Each operator lets a conjunct through by the same few rules:
//!
//! * **Π** — a σ conjunct always crosses, rewritten by substituting each
//!   referenced output column with its defining expression (all scalar
//!   expressions here are deterministic and row-local, so the substitution
//!   is exact, NULL semantics included); a key set or η crosses only where
//!   every column it reads passes through bare (at most renamed) — a
//!   key-transforming projection (the paper's V21/V22) stops it;
//! * **γ** — a conjunct reading only group-by columns filters whole groups
//!   and commutes below the aggregate; anything touching an aggregate
//!   output is a HAVING clause and stays above (an η on a non-group column
//!   is the nested-aggregate blocker of Appendix 12.4);
//! * **⋈ / ⋉ / ▷** — a conjunct reading only one input moves to that input,
//!   provided the join kind never NULL-pads that side
//!   (`JoinKind::left_unpadded` / `right_unpadded`); a ⋉ or ▷ outputs its
//!   left input only. Join equalities pair a column with its partner on
//!   every matched row, and `Value` equality is an equivalence, so a filter
//!   on matched columns holds on both sides alike: an η whose every key
//!   column is matched by an equality of ⋈, ⋉ or ▷ enters both inputs
//!   (Section 4.4's equality-join case; the foreign-key case is the
//!   one-sided move), and a key set on one side of an inner ⋈ is copied
//!   across its equalities too. Anything else stays above;
//! * **∪ / ∩ / −** — conjuncts are replicated into both inputs with the
//!   positional column renaming of the set operation applied, except that
//!   a key set enters only the left input of −: restricting the left side
//!   alone already restricts the output.
//!
//! Two η over the same key and hash spec test the identical hash value, so
//! when the second dissolves into a set already holding the first they
//! compose to the smaller ratio, `η_{a,m1} ∘ η_{a,m2} = η_{a,min(m1,m2)}`.
//! Where filters come to rest, the η sit directly on the node, the σ above
//! them and the semi-joins above that — the first η and the first semi-join
//! outermost — so a second pass rebuilds the identical tree.
//!
//! Filtering earlier never changes the result set (filters are row-local
//! and commute with each other), and only ever shrinks the keyed
//! intermediates the evaluator materializes, so Definition 2 key
//! uniqueness is preserved everywhere — and a sample drawn below is the
//! sample drawn above (Theorem 1).

use svc_storage::{HashSpec, Result};

use crate::derive::{derive_tree, DerivedTree, LeafProvider};
use crate::plan::{JoinKind, Plan, SetOpKind};
use crate::scalar::{col, BinOp, Expr};

/// One row filter on its way down: a σ conjunct, a semi-join against a bare
/// leaf, `⋉[a = k] Scan leaf`, by its `(a, k)` pairs, or an η.
#[derive(Debug, Clone)]
enum Conjunct {
    Pred(Expr),
    Keys { on: Vec<(String, String)>, leaf: String },
    Hash { key: Vec<String>, ratio: f64, spec: HashSpec },
}

impl Conjunct {
    /// The columns of the filtered relation this filter reads.
    fn columns(&self) -> Vec<&str> {
        match self {
            Conjunct::Pred(p) => p.referenced_columns(),
            Conjunct::Keys { on, .. } => on.iter().map(|(a, _)| a.as_str()).collect(),
            Conjunct::Hash { key, .. } => key.iter().map(String::as_str).collect(),
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
            Conjunct::Hash { key, ratio, spec } => Conjunct::Hash {
                key: key.iter().map(|k| f(k)).collect::<Result<_>>()?,
                ratio: *ratio,
                spec: *spec,
            },
        })
    }
}

/// What the pass moved: `moved` counts σ conjuncts and key sets that
/// crossed an operator (once per copy), `descended` the operators an η
/// crossed (once per η, into one input or both) and η∘η compositions.
struct Moves<'a> {
    moved: &'a mut usize,
    descended: &'a mut usize,
}

impl Moves<'_> {
    /// Count `c` crossing one operator into one input.
    fn count(&mut self, c: &Conjunct) {
        match c {
            Conjunct::Hash { .. } => *self.descended += 1,
            _ => *self.moved += 1,
        }
    }
}

/// Push every σ, leaf semi-join and η in `plan` as deep as legality allows.
/// `moved` counts σ conjuncts and key sets that crossed an operator,
/// `descended` the operators each η crossed (see [`EtaReport`]).
///
/// Schemas come from one bottom-up [`derive_tree`] pass over the input plan;
/// the recursion descends the plan and the tree in lockstep, so no node's
/// subtree is ever re-derived.
///
/// [`EtaReport`]: crate::optimizer::EtaReport
pub fn pushdown(
    plan: Plan,
    leaves: &dyn LeafProvider,
    moved: &mut usize,
    descended: &mut usize,
) -> Result<Plan> {
    let tree = derive_tree(&plan, leaves)?;
    push(plan, &tree, Vec::new(), &mut Moves { moved, descended })
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

/// Recombine filters where they come to rest: the η directly on `plan`, the
/// σ conjuncts (in collection order, so repeated passes rebuild an identical
/// tree) as one σ above them, the leaf semi-joins above that — the first η
/// and the first semi-join outermost, as a second pass collects them;
/// identity when empty.
fn wrap(mut plan: Plan, conjuncts: Vec<Conjunct>) -> Plan {
    let mut preds = Vec::new();
    let mut keys = Vec::new();
    let mut hashes = Vec::new();
    for c in conjuncts {
        match c {
            Conjunct::Pred(p) => preds.push(p),
            Conjunct::Keys { on, leaf } => keys.push((on, leaf)),
            Conjunct::Hash { key, ratio, spec } => hashes.push((key, ratio, spec)),
        }
    }
    for (key, ratio, spec) in hashes.into_iter().rev() {
        plan = Plan::Hash { input: Box::new(plan), key, ratio, spec };
    }
    if let Some(predicate) = preds.into_iter().reduce(|a, b| a.and(b)) {
        plan = Plan::Select { input: Box::new(plan), predicate };
    }
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
fn push(plan: Plan, dt: &DerivedTree, mut preds: Vec<Conjunct>, moves: &mut Moves) -> Result<Plan> {
    match plan {
        Plan::Select { input, predicate } => {
            split_conjuncts(predicate, &mut preds);
            push(*input, dt.input(), preds, moves)
        }
        Plan::Scan { .. } => Ok(wrap(plan, preds)),
        Plan::Hash { input, key, ratio, spec } => {
            let same = preds.iter_mut().find_map(|c| match c {
                Conjunct::Hash { key: k, ratio: r, spec: s } if *k == key && *s == spec => Some(r),
                _ => None,
            });
            if let Some(r) = same {
                // η∘η over one (key, spec): the node is eliminated.
                *r = r.min(ratio);
                *moves.descended += 1;
            } else {
                preds.push(Conjunct::Hash { key, ratio, spec });
            }
            push(*input, dt.input(), preds, moves)
        }
        Plan::Project { input, columns } => {
            if preds.is_empty() {
                let inner = push(*input, dt.input(), Vec::new(), moves)?;
                return Ok(Plan::Project { input: Box::new(inner), columns });
            }
            let out_schema = &dt.derived.schema;
            let source = |n: &str| Ok(&columns[out_schema.resolve(n)?].1);
            let mut below = Vec::new();
            let mut above = Vec::new();
            for c in preds {
                let lowered = match &c {
                    Conjunct::Pred(p) => {
                        Some(Conjunct::Pred(p.map_cols(&mut |n| Ok(source(n)?.clone()))?))
                    }
                    // A key set or η crosses only columns that pass through
                    // as they are (at most renamed); a computed column
                    // stops it.
                    _ => {
                        let bare =
                            c.columns().iter().all(|n| matches!(source(n), Ok(Expr::Col(_))));
                        if bare {
                            Some(c.renamed(&mut |n| match source(n)? {
                                Expr::Col(src) => Ok(src.clone()),
                                _ => unreachable!("checked bare above"),
                            })?)
                        } else {
                            None
                        }
                    }
                };
                match lowered {
                    Some(lowered) => {
                        moves.count(&lowered);
                        below.push(lowered);
                    }
                    None => above.push(c),
                }
            }
            let inner = push(*input, dt.input(), below, moves)?;
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
                    moves.count(&c);
                    below.push(c.renamed(&mut |n| Ok(group_by[out_schema.resolve(n)?].clone()))?);
                } else {
                    above.push(c);
                }
            }
            let inner = push(*input, dt.input(), below, moves)?;
            Ok(wrap(Plan::Aggregate { input: Box::new(inner), group_by, aggregates }, above))
        }
        Plan::Join { left, right, kind: JoinKind::Semi, on }
            if matches!(*right, Plan::Scan { .. }) =>
        {
            // A leaf semi-join dissolves into a conjunct on its left input.
            let Plan::Scan { table } = *right else { unreachable!("guarded by the match arm") };
            preds.push(Conjunct::Keys { on, leaf: table });
            push(*left, dt.pair().0, preds, moves)
        }
        Plan::Join { left, right, kind, on } => {
            let (l_t, r_t) = dt.pair();
            let (l_d, r_d) = (&l_t.derived, &r_t.derived);
            let out_schema = &dt.derived.schema;
            let l_arity = l_d.schema.len();
            // Output position → that column's name in its input; right
            // output columns may carry a disambiguation prefix. A ⋉ or ▷
            // outputs its left input only, but its right positions name
            // the partners of its equalities.
            let name_of = |i: usize| match i.checked_sub(l_arity) {
                None => l_d.schema.field(i).name.clone(),
                Some(r) => r_d.schema.field(r).name.clone(),
            };
            // Equalities pair positions across sides on every matched row.
            let mut equal = Vec::new();
            if matches!(kind, JoinKind::Inner | JoinKind::Semi | JoinKind::Anti) {
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
                let left_only = !positions.is_empty()
                    && positions.iter().all(|&i| i < l_arity)
                    && kind.left_unpadded();
                let right_only = !positions.is_empty()
                    && positions.iter().all(|&i| i >= l_arity)
                    && kind.right_unpadded();
                // An η crosses the equalities of ⋈, ⋉ and ▷; a key set those
                // of an inner ⋈, from the one side that holds it.
                let crosses = match &c {
                    Conjunct::Pred(_) => false,
                    Conjunct::Keys { .. } => kind == JoinKind::Inner && (left_only || right_only),
                    Conjunct::Hash { .. } => !positions.is_empty(),
                } && positions.iter().all(|&i| partner(i).is_some());
                let at = |n: &str, left: bool| {
                    let i = out_schema.resolve(n)?;
                    let own = (i < l_arity) == left;
                    Ok(name_of(if own { i } else { partner(i).expect("checked above") }))
                };
                if crosses {
                    l_preds.push(c.renamed(&mut |n| at(n, true))?);
                    r_preds.push(c.renamed(&mut |n| at(n, false))?);
                } else if left_only {
                    l_preds.push(c.renamed(&mut |n| at(n, true))?);
                } else if right_only {
                    r_preds.push(c.renamed(&mut |n| at(n, false))?);
                } else {
                    above.push(c);
                    continue;
                }
                moves.count(&c);
                if crosses && !matches!(c, Conjunct::Hash { .. }) {
                    moves.count(&c);
                }
            }
            let l = push(*left, l_t, l_preds, moves)?;
            let r = push(*right, r_t, r_preds, moves)?;
            Ok(wrap(Plan::Join { left: Box::new(l), right: Box::new(r), kind, on }, above))
        }
        Plan::SetOp { kind, left, right } => push_setop(*left, *right, dt, kind, &preds, moves),
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
    moves: &mut Moves,
) -> Result<Plan> {
    let (l_t, r_t) = dt.pair();
    let l_schema = &l_t.derived.schema;
    let r_schema = &r_t.derived.schema;
    let mut l_preds = Vec::with_capacity(preds.len());
    let mut r_preds = Vec::with_capacity(preds.len());
    for c in preds {
        moves.count(c);
        l_preds.push(c.renamed(&mut |n| Ok(l_schema.field(l_schema.resolve(n)?).name.clone()))?);
        if op != SetOpKind::Difference || !matches!(c, Conjunct::Keys { .. }) {
            r_preds
                .push(c.renamed(&mut |n| Ok(r_schema.field(l_schema.resolve(n)?).name.clone()))?);
        }
    }
    let l = push(left, l_t, l_preds, moves)?;
    let r = push(right, r_t, r_preds, moves)?;
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

    /// One pass, checked against the plan as written: the output plan, the
    /// σ conjuncts and key sets moved, and the η descents.
    fn pass(plan: Plan) -> (Plan, usize, usize) {
        let db = db();
        let b = Bindings::from_database(&db);
        let expected = evaluate(&plan, &b).unwrap();
        let (mut moved, mut descended) = (0, 0);
        let out = pushdown(plan, &db, &mut moved, &mut descended).unwrap();
        let got = evaluate(&out, &b).unwrap();
        assert!(got.same_contents(&expected), "pushdown changed the result");
        (out, moved, descended)
    }

    fn run(plan: Plan) -> (Plan, usize) {
        let (out, moved, _) = pass(plan);
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
        // η on a key spanning both join inputs, not covered by the join
        // equality, rests above the join; the σ conjuncts pass it and sink
        // into the join sides instead of stopping at the η.
        let plan = Plan::scan("fact")
            .join(Plan::scan("dim"), JoinKind::Inner, &[("dimId", "dimId")])
            .hash(&["factId", "w"], 0.5, HashSpec::with_seed(5))
            .select(col("x").gt(lit(3.0)).and(col("w").lt(lit(2.0))));
        let (out, moved, descended) = pass(plan);
        assert_eq!((moved, descended), (2, 0), "both conjuncts cross the η into the join: {out}");
        assert_eq!(top_selects(&out), 0);
        let Plan::Hash { input, .. } = &out else { panic!("η stays on top: {out}") };
        assert!(matches!(**input, Plan::Join { .. }), "no σ may rest under the η: {input}");
    }

    #[test]
    fn resting_conjuncts_are_lifted_back_above_eta() {
        use svc_storage::HashSpec;
        // Nothing below the η to cross: the σ and the η rest together, the
        // σ above, whichever way they were written. Neither counts as
        // movement.
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
        let plan = Plan::scan("fact")
            .join(Plan::scan("dim"), JoinKind::Inner, &[("dimId", "dimId")])
            .hash(&["factId", "dimId"], 0.4, HashSpec::with_seed(7))
            .select(col("x").gt(lit(1.0)));
        let (once, moved, descended) = pass(plan);
        assert_eq!((moved, descended), (1, 1), "σ and η both sink into fact: {once}");
        twice_is_once(&once);
    }

    #[test]
    fn fixed_point_is_stable() {
        let plan = Plan::scan("fact")
            .join(Plan::scan("dim"), JoinKind::Inner, &[("dimId", "dimId")])
            .select(col("x").gt(lit(3.0)));
        let (once, moved) = run(plan);
        assert!(moved > 0);
        twice_is_once(&once);
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
        let (mut again, mut descended) = (0, 0);
        let twice = pushdown(plan.clone(), &db(), &mut again, &mut descended).unwrap();
        assert_eq!((&twice, again, descended), (plan, 0, 0), "a second pass moved a filter");
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

    /// η, σ and a leaf ⋉ that come to rest together rest as node → η → σ →
    /// ⋉, whatever order they were written in: over a scan, and over a γ
    /// that blocks all three (the η and the ⋉ read an aggregate output).
    #[test]
    fn filters_rest_as_eta_then_sigma_then_key_set() {
        use svc_storage::HashSpec;
        let spec = HashSpec::with_seed(3);
        let fact = || Plan::scan("fact");
        let plan =
            keys_on(fact().hash(&["factId"], 0.5, spec), "dimId").select(col("x").gt(lit(2.0)));
        let (out, moved, descended) = pass(plan);
        let rested =
            keys_on(fact().hash(&["factId"], 0.5, spec).select(col("x").gt(lit(2.0))), "dimId");
        assert_eq!((&out, moved, descended), (&rested, 0, 0));
        twice_is_once(&out);

        let agg = || fact().aggregate(&["dimId"], vec![AggSpec::count_all("n")]);
        let n_big = || col("n").gt(lit(10i64));
        let plan = keys_on(agg(), "n").select(n_big()).hash(&["n"], 0.5, spec);
        let (out, moved, descended) = pass(plan);
        let rested = keys_on(agg().hash(&["n"], 0.5, spec).select(n_big()), "n");
        assert_eq!((&out, moved, descended), (&rested, 0, 0));
        twice_is_once(&out);
    }

    /// η on the key of a ▷ or ⋉ enters both inputs, and η enters both
    /// inputs of −; a key set over the same plans enters the left input
    /// only.
    #[test]
    fn eta_enters_both_inputs_of_anti_join_and_difference_a_key_set_the_left() {
        use svc_storage::HashSpec;
        let spec = HashSpec::with_seed(4);
        let eta = |plan: Plan, key| plan.hash(&[key], 0.5, spec);
        let on = [("dimId", "dimId")];
        let anti = Plan::scan("fact").join(Plan::scan("dim"), JoinKind::Anti, &on);
        let (out, moved, descended) = pass(eta(keys_on(anti, "dimId"), "dimId"));
        let sunk = keys_on(eta(Plan::scan("fact"), "dimId"), "dimId").join(
            eta(Plan::scan("dim"), "dimId"),
            JoinKind::Anti,
            &on,
        );
        assert_eq!((&out, moved, descended), (&sunk, 1, 1), "{out}");
        twice_is_once(&out);

        let big = || col("x").gt(lit(5.0));
        let diff = Plan::scan("fact").difference(Plan::scan("fact").select(big()));
        let (out, moved, descended) = pass(eta(keys_on(diff, "dimId"), "factId"));
        let left = keys_on(eta(Plan::scan("fact"), "factId"), "dimId");
        let sunk = left.difference(eta(Plan::scan("fact"), "factId").select(big()));
        assert_eq!((&out, moved, descended), (&sunk, 1, 1), "{out}");
        twice_is_once(&out);
    }

    /// Two η over one (key, spec) compose to the smaller ratio, counted as
    /// one descent; the composed η moves on as one.
    #[test]
    fn stacked_eta_with_one_key_and_spec_compose_to_the_smaller_ratio() {
        use svc_storage::HashSpec;
        let spec = HashSpec::with_seed(9);
        let stacked = Plan::scan("fact").hash(&["factId"], 0.7, spec).hash(&["factId"], 0.4, spec);
        let (out, _, descended) = pass(stacked);
        assert_eq!((out, descended), (Plan::scan("fact").hash(&["factId"], 0.4, spec), 1));

        let agg = |plan: Plan| plan.aggregate(&["dimId"], vec![AggSpec::count_all("n")]);
        let plan = agg(Plan::scan("fact").hash(&["dimId"], 0.4, spec)).hash(&["dimId"], 0.7, spec);
        let (out, _, descended) = pass(plan);
        let composed = agg(Plan::scan("fact").hash(&["dimId"], 0.4, spec));
        assert_eq!((&out, descended), (&composed, 2), "γ crossed, then one composition");
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
