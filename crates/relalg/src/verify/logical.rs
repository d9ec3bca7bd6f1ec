//! Logical plan well-formedness and rewrite-soundness checking.
//!
//! [`verify_plan`] re-derives a plan bottom-up with the same Definition 2
//! rules as [`mod@crate::derive`], layering on checks derivation alone does not
//! make — predicate expressions must be *type-consistent* (σ predicates
//! Bool-typed, logic over Bool operands, arithmetic over numerics) — and
//! wrapping any failure with the offending subtree so the error points at
//! its node, not at the plan root.
//!
//! [`verify_rewrite`] is the optimizer's rewrite-boundary check: after a
//! rule reports a change, the rewritten plan must still verify *and* must
//! present the same output schema (and, for key-preserving rules, the same
//! primary-key claim) as before the rule ran. A broken rewrite therefore
//! fails at the rule that made it, with the rule's name in the error —
//! never as a wrong answer downstream.

use svc_storage::{DataType, Result, Schema, StorageError};

use crate::derive::{
    derive_aggregate, derive_hash, derive_join, derive_project, derive_select, derive_setop,
    Derived, LeafProvider,
};
use crate::plan::Plan;
use crate::scalar::{BinOp, Expr, Func};

fn numeric(t: DataType) -> bool {
    matches!(t, DataType::Int | DataType::Float)
}

/// Type-check an expression against `schema`, stricter than
/// [`Expr::infer_type`]: arithmetic demands numeric operands and the Kleene
/// connectives demand Bool operands. Comparisons stay total across types
/// (the engine deliberately orders cross-type pairs by type rank — the
/// Mixed-column workloads rely on it), so only their *result* is checked.
pub fn check_expr(e: &Expr, schema: &Schema) -> Result<DataType> {
    let fail = |msg: String| Err(StorageError::Invalid(format!("type check: {msg}")));
    Ok(match e {
        Expr::Col(name) => schema.field(schema.resolve(name)?).dtype,
        Expr::Lit(v) => v.dtype().unwrap_or(DataType::Float),
        Expr::Binary { op, left, right } => {
            let l = check_expr(left, schema)?;
            let r = check_expr(right, schema)?;
            match op {
                BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
                    if !numeric(l) || !numeric(r) {
                        return fail(format!(
                            "arithmetic `{e}` over non-numeric operand types {l:?}/{r:?}"
                        ));
                    }
                    match op {
                        BinOp::Div => DataType::Float,
                        BinOp::Mod => DataType::Int,
                        _ if l == DataType::Float || r == DataType::Float => DataType::Float,
                        _ => DataType::Int,
                    }
                }
                BinOp::And | BinOp::Or => {
                    if l != DataType::Bool || r != DataType::Bool {
                        return fail(format!(
                            "logical connective `{e}` over non-Bool operand types {l:?}/{r:?}"
                        ));
                    }
                    DataType::Bool
                }
                // Comparisons: total over all value types by design.
                _ => DataType::Bool,
            }
        }
        Expr::Not(inner) => {
            if check_expr(inner, schema)? != DataType::Bool {
                return fail(format!("NOT over non-Bool operand in `{e}`"));
            }
            DataType::Bool
        }
        Expr::IsNull(inner) => {
            check_expr(inner, schema)?;
            DataType::Bool
        }
        Expr::Call { func, args } => {
            let ts: Vec<DataType> =
                args.iter().map(|a| check_expr(a, schema)).collect::<Result<_>>()?;
            let Some(&first) = ts.first() else {
                return fail(format!("{func:?} requires at least one argument"));
            };
            match func {
                // Concat stringifies any argument type.
                Func::Concat => DataType::Str,
                Func::Abs => {
                    if !numeric(first) || ts.len() != 1 {
                        return fail(format!("abs expects one numeric argument in `{e}`"));
                    }
                    first
                }
                Func::Coalesce | Func::Least | Func::Greatest => {
                    let ok = ts.iter().all(|&t| numeric(t)) || ts.iter().all(|&t| t == first);
                    if !ok {
                        return fail(format!(
                            "{func:?} arguments mix incompatible types {ts:?} in `{e}`"
                        ));
                    }
                    first
                }
            }
        }
    })
}

/// Wrap a node-local failure with the subtree it happened in. Child errors
/// pass through untouched, so the subtree in the message is the innermost
/// offending node.
fn located(e: &StorageError, plan: &Plan) -> StorageError {
    StorageError::Invalid(format!("{e}\n  in subtree:\n{plan}"))
}

/// Verify a whole plan bottom-up, returning its derived type. Every column
/// reference must resolve against the derived child schema, join and set-op
/// schemas must be compatible, Π must preserve the input key, η specs must
/// be legal (keys resolve, ratio in `[0, 1]`) and pass the claimed key
/// through, and predicates must be type-consistent per [`check_expr`].
pub fn verify_plan(plan: &Plan, leaves: &(impl LeafProvider + ?Sized)) -> Result<Derived> {
    let leaves: &dyn LeafProvider = &leaves;
    verify_inner(plan, leaves)
}

fn verify_inner(plan: &Plan, leaves: &dyn LeafProvider) -> Result<Derived> {
    match plan {
        Plan::Scan { table } => leaves
            .leaf(table)
            .ok_or_else(|| StorageError::UnknownTable(table.clone()))
            .map_err(|e| located(&e, plan)),
        Plan::Select { input, predicate } => {
            let d = verify_inner(input, leaves)?;
            (|| -> Result<Derived> {
                let t = check_expr(predicate, &d.schema)?;
                if t != DataType::Bool {
                    return Err(StorageError::Invalid(format!(
                        "σ predicate `{predicate}` has type {t:?}, expected Bool"
                    )));
                }
                derive_select(&d, predicate)
            })()
            .map_err(|e| located(&e, plan))
        }
        Plan::Project { input, columns } => {
            let d = verify_inner(input, leaves)?;
            (|| -> Result<Derived> {
                for (_, e) in columns {
                    check_expr(e, &d.schema)?;
                }
                derive_project(&d, columns)
            })()
            .map_err(|e| located(&e, plan))
        }
        Plan::Join { left, right, kind, on } => {
            let l = verify_inner(left, leaves)?;
            let r = verify_inner(right, leaves)?;
            derive_join(&l, &r, *kind, on, right.name_hint())
                .map(|(d, _)| d)
                .map_err(|e| located(&e, plan))
        }
        Plan::Aggregate { input, group_by, aggregates } => {
            let d = verify_inner(input, leaves)?;
            (|| -> Result<Derived> {
                for spec in aggregates {
                    check_expr(&spec.arg, &d.schema)?;
                }
                derive_aggregate(&d, group_by, aggregates)
            })()
            .map_err(|e| located(&e, plan))
        }
        Plan::SetOp { kind, left, right } => {
            let l = verify_inner(left, leaves)?;
            let r = verify_inner(right, leaves)?;
            derive_setop(&l, &r, *kind).map_err(|e| located(&e, plan))
        }
        Plan::Hash { input, key, ratio, .. } => {
            let d = verify_inner(input, leaves)?;
            derive_hash(&d, key, *ratio).map_err(|e| located(&e, plan))
        }
    }
}

/// The rewrite-boundary check: after `rule` reported a change, the
/// rewritten plan must verify, keep the output schema it had before the
/// rule ran, and — when the rule claims key preservation — keep the
/// Definition 2 key too. Returns the (re-derived) output type so the
/// engine can thread it to the next rule. Errors carry the rule's name and
/// the rewritten plan.
pub fn verify_rewrite(
    rule: &str,
    before: &Derived,
    after: &Plan,
    leaves: &(impl LeafProvider + ?Sized),
    preserves_key: bool,
) -> Result<Derived> {
    let d = verify_plan(after, leaves).map_err(|e| {
        StorageError::Invalid(format!(
            "rewrite verifier: rule `{rule}` produced an ill-formed plan: {e}"
        ))
    })?;
    if d.schema != before.schema {
        return Err(StorageError::Invalid(format!(
            "rewrite verifier: rule `{rule}` changed the output schema from [{}] to [{}]\n  \
             rewritten plan:\n{after}",
            before.schema, d.schema
        )));
    }
    if preserves_key && d.key != before.key {
        return Err(StorageError::Invalid(format!(
            "rewrite verifier: rule `{rule}` changed the primary-key claim from {:?} to {:?}\n  \
             rewritten plan:\n{after}",
            before.key, d.key
        )));
    }
    Ok(d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::{col, lit};
    use std::collections::HashMap;
    use svc_storage::Schema;

    struct Leaves(HashMap<String, Derived>);

    impl LeafProvider for Leaves {
        fn leaf(&self, name: &str) -> Option<Derived> {
            self.0.get(name).cloned()
        }
    }

    fn leaves() -> Leaves {
        let mut m = HashMap::new();
        m.insert(
            "t".to_string(),
            Derived {
                schema: Schema::from_pairs(&[
                    ("id", DataType::Int),
                    ("x", DataType::Float),
                    ("s", DataType::Str),
                ])
                .unwrap(),
                key: vec![0],
            },
        );
        Leaves(m)
    }

    #[test]
    fn well_formed_plan_verifies() {
        let plan = Plan::scan("t")
            .select(col("x").gt(lit(1.0)).and(col("s").eq(lit("a"))))
            .project(vec![("id", col("id")), ("x2", col("x").mul(lit(2.0)))])
            .hash(&["id"], 0.5, Default::default());
        let d = verify_plan(&plan, &leaves()).unwrap();
        assert_eq!(d.key, vec![0]);
    }

    #[test]
    fn non_bool_predicate_rejected_with_subtree() {
        let plan = Plan::scan("t").select(col("x").add(lit(1.0)));
        let err = verify_plan(&plan, &leaves()).unwrap_err().to_string();
        assert!(err.contains("expected Bool"), "{err}");
        assert!(err.contains("in subtree"), "{err}");
        assert!(err.contains("Select"), "{err}");
    }

    #[test]
    fn arithmetic_over_strings_rejected() {
        let plan = Plan::scan("t").project(vec![("bad", col("s").add(lit(1i64)))]);
        let err = verify_plan(&plan, &leaves()).unwrap_err().to_string();
        assert!(err.contains("non-numeric"), "{err}");
    }

    #[test]
    fn logic_over_non_bool_rejected() {
        let plan = Plan::scan("t").select(col("id").and(col("x").gt(lit(0.0))));
        assert!(verify_plan(&plan, &leaves()).is_err());
    }

    #[test]
    fn cross_type_comparison_is_legal() {
        // The Mixed-column workloads compare Str columns against Int
        // literals through the type-rank total order — not an error.
        let plan = Plan::scan("t").select(col("s").gt(lit(5i64)));
        assert!(verify_plan(&plan, &leaves()).is_ok());
    }

    #[test]
    fn rewrite_schema_change_blames_the_rule() {
        let before = verify_plan(&Plan::scan("t"), &leaves()).unwrap();
        let after = Plan::scan("t").project(vec![("id", col("id"))]);
        let err =
            verify_rewrite("bogus-rule", &before, &after, &leaves(), true).unwrap_err().to_string();
        assert!(err.contains("bogus-rule"), "{err}");
        assert!(err.contains("changed the output schema"), "{err}");
    }
}
