//! Physical plan verification: bound indices in range, FusedOp/VecOp twins
//! in agreement, breakers producing their declared arity, set ops hashing
//! columns that cover both inputs' keys.
//!
//! The compiled [`Node`] tree carries raw positional references everywhere
//! — `BoundExpr::Col(usize)`, join `on_idx` pairs, γ group positions,
//! declared pad widths — and the vectorized twin of every fused-scan chain
//! must mirror the row-at-a-time ops position for position. [`verify_node`]
//! walks the tree tracking arity and derived key (Definition 2) through
//! every operator and checks each of those claims; [`verify_physical`] additionally ties the root's arity to
//! the plan's declared output type. [`crate::exec::compile_with`] runs it
//! on every compile under the `verify` feature.

use std::collections::HashSet;

use svc_storage::{DataType, KeyTuple, Result, Row, StorageError};

use crate::derive::{join_key, setop_key, Derived};
use crate::exec::column::kernels::ColExpr;
use crate::exec::pipeline::FusedOp;
use crate::exec::{ColPred, JoinRight, Layers, LeafRef, MapPlan, Node, VecOp};
use crate::plan::JoinKind;
use crate::scalar::BoundExpr;

fn fail<T>(mut msg: String) -> Result<T> {
    msg.insert_str(0, "physical verifier: ");
    Err(StorageError::Invalid(msg))
}

/// Every positional column reference of a bound expression is `< arity`.
fn check_bound(e: &BoundExpr, arity: usize) -> Result<()> {
    match e {
        BoundExpr::Col(i) => {
            if *i >= arity {
                return fail(format!("bound column index {i} out of range (arity {arity})"));
            }
            Ok(())
        }
        BoundExpr::Lit(_) => Ok(()),
        BoundExpr::Binary { left, right, .. } => {
            check_bound(left, arity)?;
            check_bound(right, arity)
        }
        BoundExpr::Not(x) | BoundExpr::IsNull(x) => check_bound(x, arity),
        BoundExpr::Call { args, .. } => args.iter().try_for_each(|a| check_bound(a, arity)),
    }
}

/// Every column position of a columnar predicate kernel is `< arity`.
fn check_pred(p: &ColPred, arity: usize) -> Result<()> {
    let col = |i: usize| {
        if i >= arity {
            fail(format!("kernel column index {i} out of range (arity {arity})"))
        } else {
            Ok(())
        }
    };
    match p {
        ColPred::CmpColLit { col: c, .. } | ColPred::IsNull { col: c, .. } => col(*c),
        ColPred::CmpColCol { left, right, .. } => {
            col(*left)?;
            col(*right)
        }
        ColPred::CmpExpr { left, right, .. } => {
            check_colexpr(left, arity)?;
            check_colexpr(right, arity)
        }
        ColPred::Interval { expr, .. } => check_colexpr(expr, arity),
        ColPred::And(ps) => ps.iter().try_for_each(|p| check_pred(p, arity)),
        ColPred::Or(a, b) => {
            check_pred(a, arity)?;
            check_pred(b, arity)
        }
        ColPred::Row(e) => check_bound(e, arity),
    }
}

/// Every column position of an evaluator tree, at any depth, is `< arity`.
fn check_colexpr(ce: &ColExpr, arity: usize) -> Result<()> {
    match ce {
        ColExpr::Take(i) if *i >= arity => {
            fail(format!("expression kernel column index {i} out of range (arity {arity})"))
        }
        ColExpr::Take(_) | ColExpr::Lit(_) => Ok(()),
        ColExpr::Bin { left, right, .. } => {
            check_colexpr(left, arity)?;
            check_colexpr(right, arity)
        }
        ColExpr::Row(e) => check_bound(e, arity),
    }
}

fn check_map_plan(plan: &MapPlan, arity: usize) -> Result<()> {
    plan.outs.iter().try_for_each(|(_, ce)| check_colexpr(ce, arity))
}

/// A leaf's compiled key positions all fall inside its compiled schema.
fn check_leaf(leaf: &LeafRef) -> Result<()> {
    for &k in &leaf.key {
        if k >= leaf.schema.len() {
            return fail(format!(
                "leaf `{}` key position {k} out of range (schema width {})",
                leaf.name,
                leaf.schema.len()
            ));
        }
    }
    Ok(())
}

/// A layered probe's delta leaves are typed as its base leaf, and only an
/// inner join reads a new state through one.
fn check_layers(base: &LeafRef, layers: &Layers, kind: JoinKind) -> Result<()> {
    if kind != JoinKind::Inner {
        return fail(format!("a {kind:?} join probes the new state of `{}`", base.name));
    }
    for layer in [&layers.ins, &layers.del] {
        if layer.schema != base.schema || layer.key != base.key {
            return fail(format!(
                "delta leaf `{}` is not typed as its base leaf `{}`",
                layer.name, base.name
            ));
        }
    }
    Ok(())
}

/// A ∪ input's batch handed on as it is, unhashed, because it is keyed
/// (`key` non-empty) and the other input ran empty, holds no duplicate key.
pub fn check_set_batch(rows: &[Row], key: &[usize]) -> Result<()> {
    let mut seen = HashSet::with_capacity(rows.len());
    for row in rows {
        let k = KeyTuple(key.iter().map(|&i| row[i].clone()).collect());
        if seen.contains(&k) {
            return Err(StorageError::DuplicateKey(k.to_string()));
        }
        seen.insert(k);
    }
    Ok(())
}

/// A join's zone pairs, which let the executor answer it empty unread,
/// sit on an inner or semi join of two leaf-rooted inputs and name a
/// declared-`Int` column of each leaf.
fn check_zone_cols(
    left: &Node,
    right: &JoinRight,
    kind: JoinKind,
    zone_cols: &[(usize, usize)],
) -> Result<()> {
    if zone_cols.is_empty() {
        return Ok(());
    }
    if !matches!(kind, JoinKind::Inner | JoinKind::Semi) {
        return fail(format!("zone pairs on a {kind:?} join, which disjoint keys do not empty"));
    }
    let (Some((ll, _)), Some((rl, _))) = (left.leaf_chain(), right.leaf_chain()) else {
        return fail("zone pairs on a join whose inputs are not both leaf-rooted".into());
    };
    let int = |leaf: &LeafRef, i: usize| {
        if i < leaf.schema.len() && leaf.schema.field(i).dtype == DataType::Int {
            Ok(())
        } else {
            fail(format!("zone pair column {i} is not an Int column of leaf `{}`", leaf.name))
        }
    };
    zone_cols.iter().try_for_each(|&(l, r)| int(ll, l).and_then(|()| int(rl, r)))
}

/// Check one row-path fused op against the incoming arity; returns the
/// outgoing arity.
fn check_fused(op: &FusedOp, arity: usize) -> Result<usize> {
    match op {
        FusedOp::Filter(e) => {
            check_bound(e, arity)?;
            Ok(arity)
        }
        FusedOp::Map(exprs) => {
            exprs.iter().try_for_each(|e| check_bound(e, arity))?;
            Ok(exprs.len())
        }
        FusedOp::Hash { key_idx, ratio, .. } => {
            for &k in key_idx {
                if k >= arity {
                    return fail(format!("η key index {k} out of range (arity {arity})"));
                }
            }
            if !(0.0..=1.0).contains(ratio) {
                return fail(format!("η ratio {ratio} outside [0, 1]"));
            }
            Ok(arity)
        }
    }
}

/// Check a row op and its vectorized twin agree — same operator kind, same
/// output arity, same η parameters — and that the twin's own indices are in
/// range. Returns the outgoing arity.
fn check_twin(op: &FusedOp, vop: &VecOp, arity: usize) -> Result<usize> {
    let out = check_fused(op, arity)?;
    match (op, vop) {
        (FusedOp::Filter(_), VecOp::Filter(p)) => check_pred(p, arity)?,
        (FusedOp::Map(exprs), VecOp::Map(plan)) => {
            if plan.outs.len() != exprs.len() {
                return fail(format!(
                    "Π twin arity mismatch: row path produces {} columns, vector path {}",
                    exprs.len(),
                    plan.outs.len()
                ));
            }
            check_map_plan(plan, arity)?;
        }
        (
            FusedOp::Hash { key_idx, ratio, spec },
            VecOp::Hash { key_idx: vk, ratio: vr, spec: vs },
        ) => {
            if key_idx != vk || ratio.to_bits() != vr.to_bits() || spec != vs {
                return fail(format!(
                    "η twin disagreement: row path ({key_idx:?}, {ratio}, {spec:?}) vs vector \
                     path ({vk:?}, {vr}, {vs:?})"
                ));
            }
        }
        (op, vop) => {
            return fail(format!("twin kind mismatch: row op {op:?} paired with vector op {vop:?}"))
        }
    }
    Ok(out)
}

/// What a verified node produces: its arity and its derived key, traced
/// through the tree by the rules of Definition 2.
struct Shape {
    arity: usize,
    key: Vec<usize>,
}

/// A Π's output key: each input key column at its first bare-column
/// output position. Definition 2 requires the key to survive a Π.
fn map_key(key: &[usize], exprs: &[BoundExpr]) -> Result<Vec<usize>> {
    key.iter()
        .map(|&k| match exprs.iter().position(|e| matches!(e, BoundExpr::Col(i) if *i == k)) {
            Some(p) => Ok(p),
            None => fail(format!("Π drops key column {k}")),
        })
        .collect()
}

/// Check a row-path fused chain over an input of `shape`; returns the
/// chain's output shape.
fn check_chain(ops: &[FusedOp], mut shape: Shape) -> Result<Shape> {
    for op in ops {
        shape.arity = check_fused(op, shape.arity)?;
        if let FusedOp::Map(exprs) = op {
            shape.key = map_key(&shape.key, exprs)?;
        }
    }
    Ok(shape)
}

/// Verify a physical node tree and return its output arity.
pub fn verify_node(node: &Node) -> Result<usize> {
    check_node(node).map(|shape| shape.arity)
}

/// Verify a physical node tree and return its output shape.
fn check_node(node: &Node) -> Result<Shape> {
    match node {
        Node::FusedScan { leaf, ops, vops } => {
            check_leaf(leaf)?;
            if ops.len() != vops.len() {
                return fail(format!(
                    "fused scan of `{}` carries {} row ops but {} vector ops",
                    leaf.name,
                    ops.len(),
                    vops.len()
                ));
            }
            let mut arity = leaf.schema.len();
            for (i, (op, vop)) in ops.iter().zip(vops).enumerate() {
                arity = check_twin(op, vop, arity).map_err(|e| {
                    StorageError::Invalid(format!("{e} (fused op {i} over `{}`)", leaf.name))
                })?;
            }
            check_chain(ops, Shape { arity: leaf.schema.len(), key: leaf.key.clone() })
        }
        Node::Fused { input, ops } => check_chain(ops, check_node(input)?),
        Node::Join { left, right, kind, on_idx, pad_left, pad_right, zone_cols } => {
            check_zone_cols(left, right, *kind, zone_cols)?;
            let ls = check_node(left)?;
            let la = ls.arity;
            if la != *pad_left {
                return fail(format!(
                    "join left input produces arity {la} but pad_left declares {pad_left}"
                ));
            }
            let rs = match right {
                JoinRight::PkProbeLeaf { leaf, ops, layers } => {
                    check_leaf(leaf)?;
                    if let Some(layers) = layers {
                        check_layers(leaf, layers, *kind)?;
                    }
                    check_chain(ops, Shape { arity: leaf.schema.len(), key: leaf.key.clone() })?
                }
                JoinRight::Build(n) => check_node(n)?,
            };
            let ra = rs.arity;
            if ra != *pad_right {
                return fail(format!(
                    "join right input produces arity {ra} but pad_right declares {pad_right}"
                ));
            }
            for &(l, r) in on_idx {
                if l >= la || r >= ra {
                    return fail(format!(
                        "join condition ({l}, {r}) out of range for arities ({la}, {ra})"
                    ));
                }
            }
            Ok(Shape {
                arity: match kind {
                    JoinKind::Semi | JoinKind::Anti => la,
                    _ => la + ra,
                },
                key: join_key(&ls.key, &rs.key, *kind, on_idx, la),
            })
        }
        Node::Aggregate { input, group_idx, aggs, .. } => {
            let arity = check_node(input)?.arity;
            for &g in group_idx {
                if g >= arity {
                    return fail(format!("γ group index {g} out of range (arity {arity})"));
                }
            }
            for (_, _, e) in aggs {
                check_bound(e, arity)?;
            }
            Ok(Shape { arity: group_idx.len() + aggs.len(), key: (0..group_idx.len()).collect() })
        }
        Node::SetOp { left, right, kind, hash_cols, keys } => {
            let (ls, rs) = (check_node(left)?, check_node(right)?);
            let (la, ra) = (ls.arity, rs.arity);
            if la != ra {
                return fail(format!("{kind:?} inputs disagree on arity: {la} vs {ra}"));
            }
            if [&ls.key, &rs.key] != [&keys[0], &keys[1]] {
                return fail(format!(
                    "{kind:?} records input keys {keys:?}, but its inputs derive {:?} and {:?}",
                    ls.key, rs.key
                ));
            }
            if let Some(c) = hash_cols.iter().find(|&&c| c >= la) {
                return fail(format!("{kind:?} hashes column {c} out of range (arity {la})"));
            }
            if let Some(k) = ls.key.iter().chain(&rs.key).find(|k| !hash_cols.contains(k)) {
                return fail(format!(
                    "{kind:?} hashes {hash_cols:?}, which misses key column {k} of its inputs \
                     (keys {:?} and {:?})",
                    ls.key, rs.key
                ));
            }
            Ok(Shape { arity: la, key: setop_key(&ls.key, &rs.key, *kind) })
        }
    }
}

/// Verify a compiled plan end to end: the node tree checks out and the root
/// produces exactly the declared output type's arity, with the claimed key
/// positions in range. [`crate::exec::PhysicalPlan::verify`] is the method
/// form over a compiled plan's (private) parts.
pub fn verify_physical(root: &Node, out: &Derived) -> Result<()> {
    let arity = check_node(root)?.arity;
    if arity != out.schema.len() {
        return fail(format!(
            "root produces arity {arity} but the declared output schema [{}] has {} columns",
            out.schema,
            out.schema.len()
        ));
    }
    for &k in &out.key {
        if k >= arity {
            return fail(format!("declared key position {k} out of range (arity {arity})"));
        }
    }
    Ok(())
}
