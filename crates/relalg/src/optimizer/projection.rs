//! Projection pruning: drop columns no ancestor needs.
//!
//! A required-column set flows top-down. Projections and aggregates narrow
//! it (they name exactly what they read); selections, joins, set operations
//! and η widen it with the columns they consume themselves (predicates,
//! join conditions, hash keys). Where a child of a join or set operation
//! produces more columns than required, a bare-column Π is inserted above
//! it so the evaluator materializes (and the join copies) only what is
//! needed.
//!
//! Two invariants keep the rewrite exact:
//!
//! * **keys survive** — every inserted or narrowed projection retains the
//!   primary-key columns of its input, so Definition 2 key derivation
//!   ([`mod@crate::derive`]) produces the same keys everywhere and every
//!   intermediate stays a valid keyed table;
//! * **names survive** — join outputs rename right-side columns that
//!   collide with left-side names (`Schema::concat`); pruning simulates the
//!   renaming on the pruned inputs and backs off to an unpruned join
//!   whenever a required output column would change its name.

use std::collections::BTreeSet;

use svc_storage::{Result, Schema};

use crate::derive::{
    derive_aggregate, derive_hash, derive_join, derive_project, derive_select, derive_setop,
    derive_tree, Derived, DerivedTree, LeafProvider,
};
use crate::plan::{JoinKind, Plan, SetOpKind};
use crate::scalar::{col, Expr};

/// Prune unused columns below joins, aggregates, and set operations.
/// `pruned` counts inserted or narrowed projections.
///
/// Schemas of the *input* plan come from one bottom-up [`derive_tree`]
/// pass; the recursion returns each *rewritten* node's [`Derived`] so
/// parents compose their own types in O(1) — no node is ever re-derived.
pub fn prune(plan: Plan, leaves: &dyn LeafProvider, pruned: &mut usize) -> Result<Plan> {
    let tree = derive_tree(&plan, leaves)?;
    Ok(prune_node(plan, &tree, None, pruned)?.0)
}

/// Resolve `names` against `schema`, returning the exact field names.
fn exact<'a>(
    schema: &Schema,
    names: impl IntoIterator<Item = &'a str>,
    out: &mut BTreeSet<String>,
) -> Result<()> {
    for n in names {
        out.insert(schema.field(schema.resolve(n)?).name.clone());
    }
    Ok(())
}

/// Wrap `child` (whose derived type is `child_d`) in a bare-column
/// projection keeping exactly the `keep` columns (in child schema order);
/// identity when nothing would be dropped.
fn wrap_keep(
    child: Plan,
    child_d: Derived,
    keep: &BTreeSet<String>,
    pruned: &mut usize,
) -> Result<(Plan, Derived)> {
    if child_d.schema.names().iter().all(|n| keep.contains(*n)) {
        return Ok((child, child_d));
    }
    let columns: Vec<(String, Expr)> = child_d
        .schema
        .names()
        .iter()
        .filter(|n| keep.contains(**n))
        .map(|n| (n.to_string(), col(*n)))
        .collect();
    *pruned += 1;
    let out = derive_project(&child_d, &columns)?;
    Ok((Plan::Project { input: Box::new(child), columns }, out))
}

/// Simulate [`Schema::concat`]'s collision renaming for a pruned join and
/// check that every required output name still maps to the same column.
fn join_names_stable(
    l_keep: &[&str],
    r_keep: &[&str],
    right_hint: &str,
    required_out: &BTreeSet<String>,
    out_schema: &Schema,
    l_arity: usize,
    r_positions_kept: &[usize],
) -> bool {
    let mut names: Vec<String> = l_keep.iter().map(|s| s.to_string()).collect();
    for (idx, rname) in r_keep.iter().enumerate() {
        let mut name = rname.to_string();
        if names.iter().any(|g| g == &name) {
            name = format!("{right_hint}.{rname}");
        }
        let mut k = 2;
        while names.iter().any(|g| g == &name) {
            name = format!("{right_hint}.{rname}#{k}");
            k += 1;
        }
        // The original output name of this right column:
        let orig = out_schema.field(l_arity + r_positions_kept[idx]).name.as_str();
        if required_out.contains(orig) && name != orig {
            return false;
        }
        names.push(name);
    }
    true
}

/// Core recursion. `required` holds exact output-schema column names the
/// parent needs; `None` means all columns are needed (the root, and any
/// context that must preserve the full schema). `dt` is the derived tree of
/// the *original* `plan`; the returned [`Derived`] describes the rewritten
/// (possibly narrowed) node.
fn prune_node(
    plan: Plan,
    dt: &DerivedTree,
    required: Option<BTreeSet<String>>,
    pruned: &mut usize,
) -> Result<(Plan, Derived)> {
    match plan {
        Plan::Scan { .. } => Ok((plan, dt.derived.clone())),
        Plan::Select { input, predicate } => {
            // Same schema below; the predicate's columns become required.
            let required = match required {
                None => None,
                Some(mut r) => {
                    let schema = &dt.input().derived.schema;
                    exact(schema, predicate.referenced_columns(), &mut r)?;
                    Some(r)
                }
            };
            let (inner, inner_d) = prune_node(*input, dt.input(), required, pruned)?;
            let out = derive_select(&inner_d, &predicate)?;
            Ok((Plan::Select { input: Box::new(inner), predicate }, out))
        }
        Plan::Hash { input, key, ratio, spec } => {
            let required = match required {
                None => None,
                Some(mut r) => {
                    let schema = &dt.input().derived.schema;
                    exact(schema, key.iter().map(String::as_str), &mut r)?;
                    Some(r)
                }
            };
            let (inner, inner_d) = prune_node(*input, dt.input(), required, pruned)?;
            let out = derive_hash(&inner_d, &key, ratio)?;
            Ok((Plan::Hash { input: Box::new(inner), key, ratio, spec }, out))
        }
        Plan::Project { input, columns } => {
            let in_d = &dt.input().derived;
            // Narrow the projection itself to required ∪ its output key.
            let columns = match &required {
                None => columns,
                Some(r) => {
                    let key_names: BTreeSet<&str> = dt.derived.key_names().into_iter().collect();
                    let kept: Vec<(String, Expr)> = columns
                        .iter()
                        .filter(|(alias, _)| {
                            r.contains(alias) || key_names.contains(alias.as_str())
                        })
                        .cloned()
                        .collect();
                    if kept.len() < columns.len() {
                        *pruned += 1;
                        kept
                    } else {
                        columns
                    }
                }
            };
            // Everything the kept expressions read, plus the input key.
            let mut input_required = BTreeSet::new();
            for (_, e) in &columns {
                exact(&in_d.schema, e.referenced_columns(), &mut input_required)?;
            }
            exact(&in_d.schema, in_d.key_names(), &mut input_required)?;
            let (inner, inner_d) = prune_node(*input, dt.input(), Some(input_required), pruned)?;
            let out = derive_project(&inner_d, &columns)?;
            Ok((Plan::Project { input: Box::new(inner), columns }, out))
        }
        Plan::Aggregate { input, group_by, aggregates } => {
            let in_d = &dt.input().derived;
            let aggregates = match &required {
                None => aggregates,
                Some(r) => {
                    let kept: Vec<_> =
                        aggregates.iter().filter(|spec| r.contains(&spec.alias)).cloned().collect();
                    if kept.len() < aggregates.len() {
                        *pruned += 1;
                        kept
                    } else {
                        aggregates
                    }
                }
            };
            let mut input_required = BTreeSet::new();
            exact(&in_d.schema, group_by.iter().map(String::as_str), &mut input_required)?;
            for spec in &aggregates {
                exact(&in_d.schema, spec.arg.referenced_columns(), &mut input_required)?;
            }
            exact(&in_d.schema, in_d.key_names(), &mut input_required)?;
            let (inner, inner_d) = prune_node(*input, dt.input(), Some(input_required), pruned)?;
            let out = derive_aggregate(&inner_d, &group_by, &aggregates)?;
            Ok((Plan::Aggregate { input: Box::new(inner), group_by, aggregates }, out))
        }
        Plan::Join { left, right, kind, on } => {
            let (l_t, r_t) = dt.pair();
            let (l_d, r_d) = (&l_t.derived, &r_t.derived);
            let out_schema = &dt.derived.schema;
            let l_arity = l_d.schema.len();
            let semi_like = matches!(kind, JoinKind::Semi | JoinKind::Anti);

            // Required output positions → per-side required names.
            let mut l_keep: BTreeSet<String> = BTreeSet::new();
            let mut r_keep: BTreeSet<String> = BTreeSet::new();
            let required_out: BTreeSet<String> = match &required {
                None => out_schema.names().iter().map(|s| s.to_string()).collect(),
                Some(r) => {
                    let mut exact_out = BTreeSet::new();
                    exact(out_schema, r.iter().map(String::as_str), &mut exact_out)?;
                    exact_out
                }
            };
            for name in &required_out {
                let p = out_schema.resolve(name)?;
                if p < l_arity {
                    l_keep.insert(l_d.schema.field(p).name.clone());
                } else {
                    r_keep.insert(r_d.schema.field(p - l_arity).name.clone());
                }
            }
            // Join condition columns and both input keys must survive.
            for (l, r) in &on {
                exact(&l_d.schema, [l.as_str()], &mut l_keep)?;
                exact(&r_d.schema, [r.as_str()], &mut r_keep)?;
            }
            exact(&l_d.schema, l_d.key_names(), &mut l_keep)?;
            exact(&r_d.schema, r_d.key_names(), &mut r_keep)?;
            // Keep left columns whose names kept right columns collide with,
            // so `Schema::concat` renames them exactly as before.
            for rname in r_keep.clone() {
                if l_d.schema.names().contains(&rname.as_str()) {
                    l_keep.insert(rname);
                }
            }
            if !semi_like {
                // Verify the renaming really is stable; back off otherwise.
                let l_names: Vec<&str> =
                    l_d.schema.names().into_iter().filter(|n| l_keep.contains(*n)).collect();
                let mut r_names: Vec<&str> = Vec::new();
                let mut r_positions: Vec<usize> = Vec::new();
                for (i, n) in r_d.schema.names().into_iter().enumerate() {
                    if r_keep.contains(n) {
                        r_names.push(n);
                        r_positions.push(i);
                    }
                }
                if !join_names_stable(
                    &l_names,
                    &r_names,
                    right.name_hint(),
                    &required_out,
                    out_schema,
                    l_arity,
                    &r_positions,
                ) {
                    l_keep = l_d.schema.names().iter().map(|s| s.to_string()).collect();
                    r_keep = r_d.schema.names().iter().map(|s| s.to_string()).collect();
                }
            }

            let right_hint = right.name_hint().to_string();
            let (l, l_d2) = prune_node(*left, l_t, Some(l_keep.clone()), pruned)?;
            let (r, r_d2) = prune_node(*right, r_t, Some(r_keep.clone()), pruned)?;
            let (l, l_d2) = wrap_keep(l, l_d2, &l_keep, pruned)?;
            let (r, r_d2) = wrap_keep(r, r_d2, &r_keep, pruned)?;
            let out = derive_join(&l_d2, &r_d2, kind, &on, &right_hint)?.0;
            Ok((Plan::Join { left: Box::new(l), right: Box::new(r), kind, on }, out))
        }
        Plan::SetOp { kind, left, right } => {
            prune_setop(*left, *right, dt, kind, required.as_ref(), pruned)
        }
    }
}

/// Set operations are positional: prune the same positions on both sides
/// (keeping both sides' key positions), so the inputs keep agreeing.
fn prune_setop(
    left: Plan,
    right: Plan,
    dt: &DerivedTree,
    shape: SetOpKind,
    required: Option<&BTreeSet<String>>,
    pruned: &mut usize,
) -> Result<(Plan, Derived)> {
    let (l_t, r_t) = dt.pair();
    let (l_d, r_d) = (&l_t.derived, &r_t.derived);
    let keep_pos: BTreeSet<usize> = match required {
        None => (0..l_d.schema.len()).collect(),
        Some(r) => {
            let mut pos: BTreeSet<usize> = BTreeSet::new();
            for name in r {
                pos.insert(l_d.schema.resolve(name)?);
            }
            pos.extend(l_d.key.iter().copied());
            pos.extend(r_d.key.iter().copied());
            pos
        }
    };
    let l_keep: BTreeSet<String> =
        keep_pos.iter().map(|&i| l_d.schema.field(i).name.clone()).collect();
    let r_keep: BTreeSet<String> =
        keep_pos.iter().map(|&i| r_d.schema.field(i).name.clone()).collect();
    let (l, l_d2) = prune_node(left, l_t, Some(l_keep.clone()), pruned)?;
    let (r, r_d2) = prune_node(right, r_t, Some(r_keep.clone()), pruned)?;
    let (l, l_d2) = wrap_keep(l, l_d2, &l_keep, pruned)?;
    let (r, r_d2) = wrap_keep(r, r_d2, &r_keep, pruned)?;
    let out = derive_setop(&l_d2, &r_d2, shape)?;
    Ok((Plan::SetOp { kind: shape, left: Box::new(l), right: Box::new(r) }, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{AggFunc, AggSpec};
    use crate::derive::derive;
    use crate::eval::{evaluate, Bindings};
    use crate::scalar::lit;
    use svc_storage::{DataType, Database, Table, Value};

    fn db() -> Database {
        let mut db = Database::new();
        let mut dim = Table::new(
            Schema::from_pairs(&[
                ("dimId", DataType::Int),
                ("w", DataType::Float),
                ("label", DataType::Str),
            ])
            .unwrap(),
            &["dimId"],
        )
        .unwrap();
        for d in 0..25i64 {
            dim.insert(vec![Value::Int(d), Value::Float(d as f64), Value::str(format!("d{d}"))])
                .unwrap();
        }
        let mut fact = Table::new(
            Schema::from_pairs(&[
                ("factId", DataType::Int),
                ("dimId", DataType::Int),
                ("x", DataType::Float),
                ("unused", DataType::Float),
            ])
            .unwrap(),
            &["factId"],
        )
        .unwrap();
        for f in 0..400i64 {
            fact.insert(vec![
                Value::Int(f),
                Value::Int(f % 25),
                Value::Float((f % 7) as f64),
                Value::Float(99.0),
            ])
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
        let mut count = 0;
        let out = prune(plan, &db, &mut count).unwrap();
        let got = evaluate(&out, &b).unwrap();
        assert!(
            got.same_contents(&expected),
            "pruning changed results: {} vs {} rows\n{out:?}",
            got.len(),
            expected.len()
        );
        (out, count)
    }

    fn join_input_widths(plan: &Plan, leaves: &impl LeafProvider) -> Option<(usize, usize)> {
        match plan {
            Plan::Join { left, right, .. } => Some((
                derive(left, leaves).unwrap().schema.len(),
                derive(right, leaves).unwrap().schema.len(),
            )),
            Plan::Select { input, .. }
            | Plan::Project { input, .. }
            | Plan::Aggregate { input, .. }
            | Plan::Hash { input, .. } => join_input_widths(input, leaves),
            _ => None,
        }
    }

    #[test]
    fn aggregate_over_join_prunes_unused_columns() {
        let plan = Plan::scan("fact")
            .join(Plan::scan("dim"), JoinKind::Inner, &[("dimId", "dimId")])
            .aggregate(&["dimId"], vec![AggSpec::new("sx", AggFunc::Sum, col("x"))]);
        let (out, count) = run(plan);
        assert!(count > 0);
        let (lw, rw) = join_input_widths(&out, &db()).unwrap();
        // fact loses `unused`; dim shrinks to its key.
        assert!(lw <= 3, "fact side kept {lw} columns");
        assert_eq!(rw, 1, "dim side should shrink to its key");
    }

    #[test]
    fn projection_over_join_prunes_below() {
        let plan = Plan::scan("fact")
            .join(Plan::scan("dim"), JoinKind::Inner, &[("dimId", "dimId")])
            .project(vec![("factId", col("factId")), ("x", col("x"))]);
        let (out, count) = run(plan);
        assert!(count > 0, "expected pruning below the projection: {out:?}");
    }

    #[test]
    fn collision_renames_are_preserved() {
        // Both sides expose `dimId`; the projection needs the right one,
        // which is renamed `dim.dimId` in the join output. Pruning must not
        // drop the left `dimId` that forces the rename.
        let plan = Plan::scan("fact")
            .join(Plan::scan("dim"), JoinKind::Inner, &[("dimId", "dimId")])
            .project(vec![("factId", col("factId")), ("d", col("dim.dimId"))]);
        run(plan);
    }

    #[test]
    fn full_schema_requirements_do_not_prune() {
        let plan =
            Plan::scan("fact").join(Plan::scan("dim"), JoinKind::Inner, &[("dimId", "dimId")]);
        let (_, count) = run(plan);
        assert_eq!(count, 0, "no projection above means every column is required");
    }

    #[test]
    fn setop_sides_prune_consistently() {
        let a = Plan::scan("fact").select(col("x").lt(lit(3.0)));
        let b = Plan::scan("fact").select(col("x").ge(lit(5.0)));
        let plan = a.union(b).project(vec![("factId", col("factId"))]);
        let (out, count) = run(plan);
        // `dimId`/`x`/`unused` disappear below the union (key survives).
        assert!(count > 0, "union inputs should shrink: {out:?}");
    }

    #[test]
    fn second_pass_is_stable() {
        let db = db();
        let plan = Plan::scan("fact")
            .join(Plan::scan("dim"), JoinKind::Inner, &[("dimId", "dimId")])
            .aggregate(&["dimId"], vec![AggSpec::new("sx", AggFunc::Sum, col("x"))]);
        let mut c1 = 0;
        let once = prune(plan, &db, &mut c1).unwrap();
        assert!(c1 > 0);
        let mut c2 = 0;
        let twice = prune(once.clone(), &db, &mut c2).unwrap();
        assert_eq!(c2, 0, "pruning must reach a fixed point: {twice:?}");
        assert_eq!(once, twice);
    }
}
