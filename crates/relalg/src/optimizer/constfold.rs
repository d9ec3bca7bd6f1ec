//! Constant folding: evaluate constant scalar subexpressions at plan time
//! and simplify trivial selections.
//!
//! * Any subexpression referencing no columns is evaluated once (through
//!   the same [`BoundExpr`](crate::scalar::BoundExpr) machinery the row
//!   evaluator uses, so semantics — NULL propagation, coercion, division
//!   by zero — are identical by construction) and replaced by its literal
//!   value. A fold is applied only when the literal's type equals the
//!   expression's inferred type: `least(2, 1.5)` infers `Int` but evaluates
//!   to `Float`, and a NULL literal would infer `Float` regardless, so such
//!   folds are skipped rather than risk changing a projection's output
//!   schema.
//! * Kleene-sound boolean identities: `x AND true ≡ x`, `x AND false ≡
//!   false`, `x OR true ≡ true`, `x OR false ≡ x` (all hold under
//!   three-valued logic even when `x` is NULL).
//! * `σ(true)` is removed entirely. `σ(false)` is kept — an always-empty
//!   relation still needs a node to carry its schema — but its predicate
//!   is now a bare literal the evaluator rejects rows with at zero cost
//!   per row.

use svc_storage::{Result, Schema, Value};

use crate::derive::{derive_tree, DerivedTree, LeafProvider};
use crate::plan::Plan;
use crate::scalar::{BinOp, Expr};

/// Fold constants throughout `plan`; `folded` counts replaced
/// subexpressions and removed `σ(true)` nodes.
pub fn fold(plan: Plan, leaves: &dyn LeafProvider, folded: &mut usize) -> Result<Plan> {
    let tree = derive_tree(&plan, leaves)?;
    fold_plan(plan, &tree, folded)
}

fn fold_plan(plan: Plan, dt: &DerivedTree, folded: &mut usize) -> Result<Plan> {
    // Inputs first (folding never changes a schema, so `dt` stays exact),
    // then the expressions this node itself carries.
    let mut child_dts = dt.children.iter();
    let plan = plan.map_children(&mut |child| {
        fold_plan(child, child_dts.next().expect("derived tree mirrors the plan"), folded)
    })?;
    Ok(match plan {
        Plan::Select { input, predicate } => {
            let predicate = fold_expr(predicate, &dt.input().derived.schema, folded)?;
            if predicate == Expr::Lit(Value::Bool(true)) {
                *folded += 1;
                *input
            } else {
                Plan::Select { input, predicate }
            }
        }
        Plan::Project { input, columns } => {
            let in_schema = &dt.input().derived.schema;
            let columns = columns
                .into_iter()
                .map(|(n, e)| Ok((n, fold_expr(e, in_schema, folded)?)))
                .collect::<Result<Vec<_>>>()?;
            Plan::Project { input, columns }
        }
        Plan::Aggregate { input, group_by, aggregates } => {
            let in_schema = &dt.input().derived.schema;
            let aggregates = aggregates
                .into_iter()
                .map(|mut spec| {
                    spec.arg = fold_expr(spec.arg, in_schema, folded)?;
                    Ok(spec)
                })
                .collect::<Result<Vec<_>>>()?;
            Plan::Aggregate { input, group_by, aggregates }
        }
        other => other,
    })
}

/// Fold one expression bottom-up against its input schema.
fn fold_expr(e: Expr, schema: &Schema, folded: &mut usize) -> Result<Expr> {
    // Fold children first so constant subtrees surface.
    let e = match e {
        Expr::Binary { op, left, right } => {
            let left = fold_expr(*left, schema, folded)?;
            let right = fold_expr(*right, schema, folded)?;
            match (op, &left, &right) {
                // Kleene identities (sound even for NULL operands).
                (BinOp::And, Expr::Lit(Value::Bool(true)), _) => {
                    *folded += 1;
                    return Ok(right);
                }
                (BinOp::And, _, Expr::Lit(Value::Bool(true))) => {
                    *folded += 1;
                    return Ok(left);
                }
                (BinOp::And, Expr::Lit(Value::Bool(false)), _)
                | (BinOp::And, _, Expr::Lit(Value::Bool(false))) => {
                    *folded += 1;
                    return Ok(Expr::Lit(Value::Bool(false)));
                }
                (BinOp::Or, Expr::Lit(Value::Bool(false)), _) => {
                    *folded += 1;
                    return Ok(right);
                }
                (BinOp::Or, _, Expr::Lit(Value::Bool(false))) => {
                    *folded += 1;
                    return Ok(left);
                }
                (BinOp::Or, Expr::Lit(Value::Bool(true)), _)
                | (BinOp::Or, _, Expr::Lit(Value::Bool(true))) => {
                    *folded += 1;
                    return Ok(Expr::Lit(Value::Bool(true)));
                }
                _ => Expr::Binary { op, left: Box::new(left), right: Box::new(right) },
            }
        }
        Expr::Not(x) => Expr::Not(Box::new(fold_expr(*x, schema, folded)?)),
        Expr::IsNull(x) => Expr::IsNull(Box::new(fold_expr(*x, schema, folded)?)),
        Expr::Call { func, args } => Expr::Call {
            func,
            args: args.into_iter().map(|a| fold_expr(a, schema, folded)).collect::<Result<_>>()?,
        },
        leaf => return Ok(leaf),
    };
    // A column-free non-literal expression evaluates to one value; replace
    // it when the literal keeps the inferred type (schema stability).
    if !e.referenced_columns().is_empty() {
        return Ok(e);
    }
    let value = e.bind(schema)?.eval(&Vec::new());
    let keeps_type = value.dtype() == Some(e.infer_type(schema)?);
    if keeps_type {
        *folded += 1;
        Ok(Expr::Lit(value))
    } else {
        Ok(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{evaluate, Bindings};
    use crate::scalar::{col, lit, Func};
    use svc_storage::{DataType, Database, Table, Value};

    fn db() -> Database {
        let mut db = Database::new();
        let mut t = Table::new(
            Schema::from_pairs(&[("id", DataType::Int), ("x", DataType::Float)]).unwrap(),
            &["id"],
        )
        .unwrap();
        for i in 0..50i64 {
            t.insert(vec![Value::Int(i), Value::Float((i % 7) as f64)]).unwrap();
        }
        db.create_table("t", t);
        db
    }

    fn run(plan: Plan) -> (Plan, usize) {
        let db = db();
        let b = Bindings::from_database(&db);
        let expected = evaluate(&plan, &b).unwrap();
        let mut folded = 0;
        let out = fold(plan, &db, &mut folded).unwrap();
        let got = evaluate(&out, &b).unwrap();
        assert!(got.same_contents(&expected), "folding changed the result: {out:?}");
        (out, folded)
    }

    #[test]
    fn arithmetic_constants_fold_to_literals() {
        let plan = Plan::scan("t").select(col("x").gt(lit(1.0).add(lit(2.0))));
        let (out, folded) = run(plan);
        assert_eq!(folded, 1);
        let Plan::Select { predicate, .. } = &out else { panic!("expected σ: {out:?}") };
        assert_eq!(*predicate, col("x").gt(lit(3.0)));
    }

    #[test]
    fn select_true_is_removed() {
        let plan = Plan::scan("t").select(lit(1i64).lt(lit(2i64)));
        let (out, folded) = run(plan);
        assert!(matches!(out, Plan::Scan { .. }), "σ(true) must vanish: {out:?}");
        assert!(folded >= 2, "comparison folds, then the σ drops: {folded}");
    }

    #[test]
    fn select_false_keeps_node_and_empty_result() {
        let plan = Plan::scan("t").select(lit(5i64).lt(lit(2i64)));
        let (out, _) = run(plan);
        let Plan::Select { predicate, .. } = &out else { panic!("σ(false) must stay: {out:?}") };
        assert_eq!(*predicate, Expr::Lit(Value::Bool(false)));
        let db = db();
        let got = evaluate(&out, &Bindings::from_database(&db)).unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn kleene_identities_simplify_around_columns() {
        // (x > 1.0 AND true) OR false ≡ x > 1.0, even where x is NULL.
        let plan = Plan::scan("t").select(col("x").gt(lit(1.0)).and(lit(true)).or(lit(false)));
        let (out, folded) = run(plan);
        assert_eq!(folded, 2);
        let Plan::Select { predicate, .. } = &out else { panic!("expected σ") };
        assert_eq!(*predicate, col("x").gt(lit(1.0)));
    }

    #[test]
    fn type_changing_folds_are_skipped() {
        // greatest(2, 1.5) infers Int (first argument) but evaluates to
        // Float(1.5) under the cross-type value order: folding would change
        // a projection's schema.
        let e = Expr::Call { func: Func::Greatest, args: vec![lit(2i64), lit(1.5)] };
        let plan = Plan::scan("t").project(vec![("id", col("id")), ("m", e.clone())]);
        let db = db();
        let mut folded = 0;
        let out = fold(plan, &db, &mut folded).unwrap();
        let Plan::Project { columns, .. } = &out else { panic!("expected Π") };
        assert_eq!(columns[1].1, e, "type-changing fold must be skipped");
    }

    #[test]
    fn null_producing_folds_are_skipped() {
        // 1/0 evaluates to NULL; a NULL literal has no dtype, so the fold
        // is rejected and the expression kept.
        let plan = Plan::scan("t").select(col("x").gt(lit(1i64).div(lit(0i64))));
        let (out, folded) = run(plan);
        assert_eq!(folded, 0);
        let Plan::Select { predicate, .. } = &out else { panic!("expected σ") };
        assert_eq!(*predicate, col("x").gt(lit(1i64).div(lit(0i64))));
    }

    #[test]
    fn folds_inside_projections_and_aggregates() {
        use crate::aggregate::{AggFunc, AggSpec};
        let plan = Plan::scan("t")
            .project(vec![("id", col("id")), ("y", col("x").mul(lit(2.0).mul(lit(3.0))))])
            .aggregate(
                &[],
                vec![AggSpec::new("s", AggFunc::Sum, col("y").add(lit(1.0).sub(lit(1.0))))],
            );
        let (_, folded) = run(plan);
        assert!(folded >= 2, "projection and aggregate arguments fold: {folded}");
    }

    #[test]
    fn idempotent_second_pass_folds_nothing() {
        let db = db();
        let plan = Plan::scan("t").select(col("x").gt(lit(1.0).add(lit(2.0))).and(lit(true)));
        let mut first = 0;
        let once = fold(plan, &db, &mut first).unwrap();
        assert!(first > 0);
        let mut second = 0;
        let twice = fold(once.clone(), &db, &mut second).unwrap();
        assert_eq!(second, 0, "fold must reach a fixed point in one pass");
        assert_eq!(once, twice);
    }
}
