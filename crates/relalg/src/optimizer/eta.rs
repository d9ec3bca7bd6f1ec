//! η hash-sampling pushdown as an optimizer pass — the Definition 3
//! rewrite of the paper, with the Section 4.3/4.4 legality conditions.
//!
//! `η_{a,m}` is semantically a selection on a deterministic predicate of the
//! key columns `a`, so it commutes with σ, ∪, ∩, −, with Π when the key
//! survives as bare columns, and with γ when the key is part of the group-by
//! clause. Joins block push-down in general; the two special cases of
//! Section 4.4 are implemented:
//!
//! * **Equality join**: if every hash-key column is part of the equality
//!   condition, matched rows carry equal values on both sides, so the same
//!   hash decision can be enforced on both inputs (`Inner` joins; also the
//!   internal `Semi`/`Anti` joins used by maintenance plans).
//! * **Foreign-key join**: if the hash key lives entirely on one side, the
//!   filter commutes to that side when the join never NULL-pads it
//!   (`JoinKind::left_unpadded` / `right_unpadded`, the same test predicate
//!   pushdown sinks a σ by). The classic FK pattern — fact
//!   table sampled on its key while the dimension is joined on its whole
//!   primary key — is an instance of this rule.
//!
//! Adjacent η nodes over the *same* key and hash spec compose:
//! `η_{a,m1} ∘ η_{a,m2} = η_{a,min(m1,m2)}` because both filters test the
//! identical hash value against their ratio. Stacked hashes with different
//! keys or specs rest on top of each other (swapping them gains nothing).
//! The rewrite is bottom-up, so one pass pushes every η as deep as it can
//! go: running it again on its own output changes nothing.
//!
//! The [`EtaReport`] describes the *rewritten* plan, read off in one walk
//! after the rewrite: an η directly over a scan samples that leaf, and an η
//! resting over Π, γ or ⋈ records the node that stopped it as a *blocker* —
//! nested group-by aggregates (NP-hard in general, Appendix 12.4) and
//! key-transforming projections (the paper's V21/V22) surface here.
//!
//! Schema/key information comes from one bottom-up [`derive_tree`] pass;
//! the rewrite carries each subtree's [`DerivedTree`] alongside the plan
//! (η moves never change any node's schema or key, only the tree shape), so
//! no subtree is ever re-derived — optimizing deep plans is O(nodes) derive
//! work instead of O(nodes²).
//!
//! Theorem 1 — the rewritten plan materializes the *identical* sample — is
//! exercised by this module's callers: `svc_sampling::pushdown` (a thin
//! wrapper kept for the legacy API) and the workspace-level property tests.

use svc_storage::{HashSpec, Result, StorageError};

use crate::derive::{derive_tree, DerivedTree, LeafProvider};
use crate::plan::{JoinKind, Plan, SetOpKind};

/// What the η pass did: how far hashes moved and where they rest.
#[derive(Debug, Clone, Default)]
pub struct EtaReport {
    /// Number of operators the hash was pushed through (η∘η compositions
    /// count once — a node was eliminated).
    pub descended: usize,
    /// Human-readable reasons the push stopped somewhere above a leaf, one
    /// per η of the rewritten plan resting over Π, γ or ⋈.
    pub blockers: Vec<String>,
    /// Leaf relations with a hash directly above them in the rewritten plan;
    /// only these are eligible carriers for outlier indexes (Section 6.2).
    pub sampled_leaves: Vec<String>,
}

impl EtaReport {
    /// True iff every hash reached the leaves unimpeded.
    pub fn fully_pushed(&self) -> bool {
        self.blockers.is_empty()
    }
}

/// Rewrite `plan`, pushing every η node as deep as Definition 3 allows.
/// `report` counts the descents and describes where each η of the output
/// rests.
pub fn pushdown(plan: Plan, leaves: &dyn LeafProvider, report: &mut EtaReport) -> Result<Plan> {
    let tree = derive_tree(&plan, leaves)?;
    let out = rewrite(plan, tree, &mut report.descended)?.0;
    describe(&out, report);
    Ok(out)
}

/// Record where each η of `plan` rests, children first: over a scan it
/// samples that leaf; over Π, γ or ⋈ that node blocked it; over another η
/// (different key or spec) it is neither. After the rewrite no η rests over
/// σ or a set operation.
fn describe(plan: &Plan, report: &mut EtaReport) {
    for child in plan.children() {
        describe(child, report);
    }
    let Plan::Hash { input, key, .. } = plan else { return };
    let key = key.join(",");
    let blocker = match &**input {
        Plan::Scan { table } => {
            report.sampled_leaves.push(table.clone());
            return;
        }
        Plan::Project { .. } => format!("projection transforms hash key ({key}); η stays above Π"),
        Plan::Aggregate { group_by, .. } => format!(
            "hash key ({key}) is not contained in the group-by clause ({}); η stays above γ \
             (nested-aggregate blocker, Appendix 12.4)",
            group_by.join(",")
        ),
        Plan::Join { .. } => format!(
            "join blocks η on key ({key}): key spans both inputs and is not covered by the \
             equality condition"
        ),
        _ => return,
    };
    report.blockers.push(blocker);
}

/// Split a unary node's tree into its own derived type and its child's tree.
fn take_unary(dt: DerivedTree) -> (crate::derive::Derived, DerivedTree) {
    let DerivedTree { derived, mut children } = dt;
    (derived, children.pop().expect("unary node has one child"))
}

/// Split a binary node's tree into its own derived type and both children.
fn take_binary(dt: DerivedTree) -> (crate::derive::Derived, DerivedTree, DerivedTree) {
    let DerivedTree { derived, mut children } = dt;
    let right = children.pop().expect("binary node has two children");
    let left = children.pop().expect("binary node has two children");
    (derived, left, right)
}

fn rewrite(plan: Plan, dt: DerivedTree, descended: &mut usize) -> Result<(Plan, DerivedTree)> {
    let DerivedTree { derived, children } = dt;
    let mut old = children.into_iter();
    let mut next_old = move || old.next().expect("derived tree mirrors the plan");
    if let Plan::Hash { input, key, ratio, spec } = plan {
        let (inner, inner_dt) = rewrite(*input, next_old(), descended)?;
        return push(key, ratio, spec, inner, inner_dt, descended);
    }
    // Every other node keeps its type: η below it filters rows, not columns.
    let mut children = Vec::new();
    let plan = plan.map_children(&mut |child| {
        let (child, child_dt) = rewrite(child, next_old(), descended)?;
        children.push(child_dt);
        Ok::<_, StorageError>(child)
    })?;
    Ok((plan, DerivedTree { derived, children }))
}

/// Push one hash (with `key`/`ratio`/`spec`) into `input`, which has already
/// been rewritten; `input_dt` is its derived tree. `descended` counts the
/// operators crossed.
fn push(
    key: Vec<String>,
    ratio: f64,
    spec: HashSpec,
    input: Plan,
    input_dt: DerivedTree,
    descended: &mut usize,
) -> Result<(Plan, DerivedTree)> {
    match input {
        Plan::Join { left, right, kind, on } => {
            push_join(key, ratio, spec, *left, *right, kind, on, input_dt, descended)
        }
        Plan::SetOp { kind, left, right } => {
            push_setop(key, ratio, spec, *left, *right, kind, input_dt, descended)
        }
        // η∘η with one shared (key, spec): both filters test the same hash
        // value, so they compose to the tighter ratio. The eliminated node
        // counts as a descent.
        Plan::Hash { input: inner, key: inner_key, ratio: inner_ratio, spec: inner_spec }
            if inner_key == key && inner_spec == spec =>
        {
            *descended += 1;
            let (_, inner_dt) = take_unary(input_dt);
            push(key, ratio.min(inner_ratio), spec, *inner, inner_dt, descended)
        }
        unary => push_unary(key, ratio, spec, unary, input_dt, descended),
    }
}

/// Push the hash through σ, through a Π that keeps every key column bare,
/// or through a γ grouping on every key column; otherwise it rests above
/// `input`. That covers a scan, a blocking Π or γ, and an η with a
/// different key or spec: swapping two filters would gain nothing, and the
/// inner one already sits as deep as it can (the rewrite is bottom-up).
fn push_unary(
    key: Vec<String>,
    ratio: f64,
    spec: HashSpec,
    input: Plan,
    input_dt: DerivedTree,
    descended: &mut usize,
) -> Result<(Plan, DerivedTree)> {
    let out_schema = &input_dt.derived.schema;
    // The key's names in the input of the node crossed.
    let below: Option<Vec<String>> = match &input {
        Plan::Select { .. } => Some(key.clone()),
        Plan::Project { columns, .. } => key
            .iter()
            .map(|k| Some(columns[out_schema.resolve(k).ok()?].1.as_col()?.to_string()))
            .collect(),
        Plan::Aggregate { group_by, .. } => {
            key.iter().map(|k| group_by.get(out_schema.resolve(k).ok()?).cloned()).collect()
        }
        _ => None,
    };
    let Some(below) = below else { return Ok(rest(key, ratio, spec, input, input_dt)) };
    *descended += 1;
    let (d, inner_dt) = take_unary(input_dt);
    let mut inner = Some((below, inner_dt));
    let mut pushed_dt = None;
    let plan = input.map_children(&mut |child| {
        let (below, inner_dt) = inner.take().expect("unary node has one child");
        let (pushed, dt) = push(below, ratio, spec, child, inner_dt, descended)?;
        pushed_dt = Some(dt);
        Ok::<_, StorageError>(pushed)
    })?;
    Ok((plan, DerivedTree::unary(d, pushed_dt.expect("unary node has one child"))))
}

/// The hash resting directly above `input`.
fn rest(
    key: Vec<String>,
    ratio: f64,
    spec: HashSpec,
    input: Plan,
    input_dt: DerivedTree,
) -> (Plan, DerivedTree) {
    let d = input_dt.derived.clone();
    (Plan::Hash { input: Box::new(input), key, ratio, spec }, DerivedTree::unary(d, input_dt))
}

/// ∪/∩/− are positional: map key names through the left schema's positions
/// onto the right schema's names and push into both branches.
#[allow(clippy::too_many_arguments)]
fn push_setop(
    key: Vec<String>,
    ratio: f64,
    spec: HashSpec,
    left: Plan,
    right: Plan,
    op: SetOpKind,
    dt: DerivedTree,
    descended: &mut usize,
) -> Result<(Plan, DerivedTree)> {
    let (d, l_dt, r_dt) = take_binary(dt);
    let l_schema = &l_dt.derived.schema;
    let r_schema = &r_dt.derived.schema;
    let mut right_key = Vec::with_capacity(key.len());
    for k in &key {
        let p = l_schema.resolve(k)?;
        right_key.push(r_schema.field(p).name.clone());
    }
    *descended += 1;
    let (l, l_dt) = push(key, ratio, spec, left, l_dt, descended)?;
    let (r, r_dt) = push(right_key, ratio, spec, right, r_dt, descended)?;
    let plan = Plan::SetOp { kind: op, left: Box::new(l), right: Box::new(r) };
    Ok((plan, DerivedTree::binary(d, l_dt, r_dt)))
}

#[allow(clippy::too_many_arguments)]
fn push_join(
    key: Vec<String>,
    ratio: f64,
    spec: HashSpec,
    left: Plan,
    right: Plan,
    kind: JoinKind,
    on: Vec<(String, String)>,
    dt: DerivedTree,
    descended: &mut usize,
) -> Result<(Plan, DerivedTree)> {
    let (d, l_dt, r_dt) = take_binary(dt);
    let l_d = &l_dt.derived;
    let r_d = &r_dt.derived;
    let out_schema = &d.schema;

    let l_arity = l_d.schema.len();
    // Classify each key column: Some(Left(name)) / Some(Right(name)) by the
    // side it lives on in the join output.
    enum Side {
        Left(String),
        Right(String),
    }
    let mut sides = Vec::with_capacity(key.len());
    for k in &key {
        let p = out_schema.resolve(k)?;
        // Semi/Anti joins expose only the left schema, so p is a left position.
        if p < l_arity {
            sides.push(Side::Left(l_d.schema.field(p).name.clone()));
        } else {
            sides.push(Side::Right(r_d.schema.field(p - l_arity).name.clone()));
        }
    }

    let partner_right = |lname: &str| -> Option<String> {
        let li = l_d.schema.resolve(lname).ok()?;
        on.iter().find(|(l, _)| l_d.schema.resolve(l).ok() == Some(li)).map(|(_, r)| r.clone())
    };
    let partner_left = |rname: &str| -> Option<String> {
        let ri = r_d.schema.resolve(rname).ok()?;
        on.iter().find(|(_, r)| r_d.schema.resolve(r).ok() == Some(ri)).map(|(l, _)| l.clone())
    };

    // Case 1 — equality join: every key column participates in the join
    // condition, so the hash can be enforced on both inputs.
    if matches!(kind, JoinKind::Inner | JoinKind::Semi | JoinKind::Anti) {
        let pairs: Option<(Vec<String>, Vec<String>)> = sides
            .iter()
            .map(|side| match side {
                Side::Left(name) => Some((name.clone(), partner_right(name)?)),
                Side::Right(name) => Some((partner_left(name)?, name.clone())),
            })
            .collect();
        if let Some((lk, rk)) = pairs {
            *descended += 1;
            let (l, l_dt) = push(lk, ratio, spec, left, l_dt, descended)?;
            let (r, r_dt) = push(rk, ratio, spec, right, r_dt, descended)?;
            return Ok((
                Plan::Join { left: Box::new(l), right: Box::new(r), kind, on },
                DerivedTree::binary(d, l_dt, r_dt),
            ));
        }
    }

    // Case 2 — one-sided push (the FK-join case and its generalization):
    // the filter commutes to the side holding all key columns, provided the
    // join kind never NULL-pads that side.
    let left_key: Option<Vec<String>> = sides
        .iter()
        .map(|s| match s {
            Side::Left(name) => Some(name.clone()),
            Side::Right(_) => None,
        })
        .collect();
    let right_key: Option<Vec<String>> = sides
        .iter()
        .map(|s| match s {
            Side::Right(name) => Some(name.clone()),
            Side::Left(_) => None,
        })
        .collect();
    match (left_key, right_key) {
        (Some(lk), _) if kind.left_unpadded() => {
            *descended += 1;
            let (l, l_dt) = push(lk, ratio, spec, left, l_dt, descended)?;
            Ok((
                Plan::Join { left: Box::new(l), right: Box::new(right), kind, on },
                DerivedTree::binary(d, l_dt, r_dt),
            ))
        }
        (_, Some(rk)) if kind.right_unpadded() => {
            *descended += 1;
            let (r, r_dt) = push(rk, ratio, spec, right, r_dt, descended)?;
            Ok((
                Plan::Join { left: Box::new(left), right: Box::new(r), kind, on },
                DerivedTree::binary(d, l_dt, r_dt),
            ))
        }
        _ => {
            let join = Plan::Join { left: Box::new(left), right: Box::new(right), kind, on };
            Ok(rest(key, ratio, spec, join, DerivedTree::binary(d, l_dt, r_dt)))
        }
    }
}
