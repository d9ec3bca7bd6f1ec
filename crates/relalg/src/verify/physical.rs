//! Physical plan verification: bound indices in range, FusedOp/VecOp twins
//! in agreement, breakers producing their declared arity.
//!
//! The compiled [`Node`] tree carries raw positional references everywhere
//! — `BoundExpr::Col(usize)`, join `on_idx` pairs, γ group positions,
//! declared pad widths — and the vectorized twin of every fused-scan chain
//! must mirror the row-at-a-time ops position for position. [`verify_node`]
//! walks the tree tracking arity through every operator and checks each of
//! those claims; [`verify_physical`] additionally ties the root's arity to
//! the plan's declared output type. [`crate::exec::compile_with`] runs it
//! on every compile under the `verify` feature.

use svc_storage::{Result, StorageError};

use crate::derive::Derived;
use crate::exec::column::kernels::ColExpr;
use crate::exec::pipeline::FusedOp;
use crate::exec::{ColPred, JoinRight, LeafRef, MapPlan, Node, VecOp};
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

/// Verify a physical node tree and return its output arity.
pub fn verify_node(node: &Node) -> Result<usize> {
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
            Ok(arity)
        }
        Node::Fused { input, ops } => {
            let mut arity = verify_node(input)?;
            for op in ops {
                arity = check_fused(op, arity)?;
            }
            Ok(arity)
        }
        Node::Join { left, right, kind, on_idx, pad_left, pad_right } => {
            let la = verify_node(left)?;
            if la != *pad_left {
                return fail(format!(
                    "join left input produces arity {la} but pad_left declares {pad_left}"
                ));
            }
            let ra = match right {
                JoinRight::PkProbeLeaf { leaf, ops } => {
                    check_leaf(leaf)?;
                    ops.iter().try_fold(leaf.schema.len(), |arity, op| check_fused(op, arity))?
                }
                JoinRight::Build(n) => verify_node(n)?,
            };
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
            Ok(match kind {
                JoinKind::Semi | JoinKind::Anti => la,
                _ => la + ra,
            })
        }
        Node::Aggregate { input, group_idx, aggs, .. } => {
            let arity = verify_node(input)?;
            for &g in group_idx {
                if g >= arity {
                    return fail(format!("γ group index {g} out of range (arity {arity})"));
                }
            }
            for (_, _, e) in aggs {
                check_bound(e, arity)?;
            }
            Ok(group_idx.len() + aggs.len())
        }
        Node::SetOp { left, right, kind } => {
            let la = verify_node(left)?;
            let ra = verify_node(right)?;
            if la != ra {
                return fail(format!("{kind:?} inputs disagree on arity: {la} vs {ra}"));
            }
            Ok(la)
        }
    }
}

/// Verify a compiled plan end to end: the node tree checks out and the root
/// produces exactly the declared output type's arity, with the claimed key
/// positions in range. [`crate::exec::PhysicalPlan::verify`] is the method
/// form over a compiled plan's (private) parts.
pub fn verify_physical(root: &Node, out: &Derived) -> Result<()> {
    let arity = verify_node(root)?;
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
