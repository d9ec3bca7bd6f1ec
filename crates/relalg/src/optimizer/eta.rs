//! η hash-sampling pushdown as an optimizer rule — the Definition 3
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
//!   filter commutes to that side (`Inner`/`Left` for the left side,
//!   `Inner`/`Right` for the right side). The classic FK pattern — fact
//!   table sampled on its key while the dimension is joined on its whole
//!   primary key — is an instance of this rule.
//!
//! Adjacent η nodes over the *same* key and hash spec compose:
//! `η_{a,m1} ∘ η_{a,m2} = η_{a,min(m1,m2)}` because both filters test the
//! identical hash value against their ratio. Stacked hashes with different
//! keys or specs rest on top of each other (swapping them would ping-pong).
//!
//! Every spot where the rewrite must stop is recorded as a *blocker*; nested
//! group-by aggregates (NP-hard in general, Appendix 12.4) and
//! key-transforming projections (the paper's V21/V22) surface here.
//!
//! Schema/key information comes from one bottom-up [`derive_tree`] pass per
//! sweep; the rewrite carries each subtree's [`DerivedTree`] alongside the
//! plan (η moves never change any node's schema or key, only the tree
//! shape), so no subtree is ever re-derived — optimizing deep plans is
//! O(nodes) derive work per sweep instead of O(nodes²).
//!
//! Theorem 1 — the rewritten plan materializes the *identical* sample — is
//! exercised by this module's callers: `svc_sampling::pushdown` (a thin
//! wrapper kept for the legacy API) and the workspace-level property tests.

use svc_storage::{HashSpec, Result, StorageError};

use crate::derive::{derive_tree, DerivedTree, LeafProvider};
use crate::plan::{JoinKind, Plan, SetOpKind};

/// What the η rule did: how far hashes moved and where they stopped.
#[derive(Debug, Clone, Default)]
pub struct EtaReport {
    /// Number of operators the hash was pushed through (η∘η compositions
    /// count once — a node was eliminated).
    pub descended: usize,
    /// Human-readable reasons the push stopped somewhere above a leaf.
    pub blockers: Vec<String>,
    /// Leaf relations that ended up with a hash directly above them; only
    /// these are eligible carriers for outlier indexes (Section 6.2).
    pub sampled_leaves: Vec<String>,
}

impl EtaReport {
    /// True iff every hash reached the leaves unimpeded.
    pub fn fully_pushed(&self) -> bool {
        self.blockers.is_empty()
    }
}

/// Rewrite `plan`, pushing every η node as deep as Definition 3 allows.
pub fn pushdown(plan: Plan, leaves: &dyn LeafProvider, report: &mut EtaReport) -> Result<Plan> {
    let tree = derive_tree(&plan, leaves)?;
    Ok(rewrite(plan, tree, report)?.0)
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

fn rewrite(plan: Plan, dt: DerivedTree, report: &mut EtaReport) -> Result<(Plan, DerivedTree)> {
    let DerivedTree { derived, children } = dt;
    let mut old = children.into_iter();
    let mut next_old = move || old.next().expect("derived tree mirrors the plan");
    if let Plan::Hash { input, key, ratio, spec } = plan {
        let (inner, inner_dt) = rewrite(*input, next_old(), report)?;
        return push(key, ratio, spec, inner, inner_dt, report);
    }
    // Every other node keeps its type: η below it filters rows, not columns.
    let mut children = Vec::new();
    let plan = plan.map_children(&mut |child| {
        let (child, child_dt) = rewrite(child, next_old(), report)?;
        children.push(child_dt);
        Ok::<_, StorageError>(child)
    })?;
    Ok((plan, DerivedTree { derived, children }))
}

/// Push one hash (with `key`/`ratio`/`spec`) into `input`, which has already
/// been rewritten; `input_dt` is its derived tree.
fn push(
    key: Vec<String>,
    ratio: f64,
    spec: HashSpec,
    input: Plan,
    input_dt: DerivedTree,
    report: &mut EtaReport,
) -> Result<(Plan, DerivedTree)> {
    match input {
        Plan::Scan { ref table } => {
            report.sampled_leaves.push(table.clone());
            let d = input_dt.derived.clone();
            Ok((
                Plan::Hash { input: Box::new(input), key, ratio, spec },
                DerivedTree::unary(d, input_dt),
            ))
        }
        Plan::Select { input: inner, predicate } => {
            report.descended += 1;
            let (d, inner_dt) = take_unary(input_dt);
            let (pushed, pushed_dt) = push(key, ratio, spec, *inner, inner_dt, report)?;
            Ok((
                Plan::Select { input: Box::new(pushed), predicate },
                DerivedTree::unary(d, pushed_dt),
            ))
        }
        Plan::Hash { input: inner, key: inner_key, ratio: inner_ratio, spec: inner_spec } => {
            if inner_key == key && inner_spec == spec {
                // η∘η with one shared (key, spec): both filters test the same
                // hash value, so they compose to the tighter ratio. Count the
                // eliminated node as a descent so the engine sees a change.
                report.descended += 1;
                let (_, inner_dt) = take_unary(input_dt);
                push(key, ratio.min(inner_ratio), spec, *inner, inner_dt, report)
            } else {
                // Different key or spec: "pushing through" would only swap
                // the two filters — and swap them back on the next sweep, so
                // the engine would never reach a fixed point. The inner hash
                // has already been pushed as deep as legality allows (this
                // function rewrites bottom-up), so the outer one rests
                // directly above it.
                let d = input_dt.derived.clone();
                let rebuilt = Plan::Hash {
                    input: inner,
                    key: inner_key,
                    ratio: inner_ratio,
                    spec: inner_spec,
                };
                Ok((
                    Plan::Hash { input: Box::new(rebuilt), key, ratio, spec },
                    DerivedTree::unary(d, input_dt),
                ))
            }
        }
        Plan::Project { input: inner, columns } => {
            // Each key column must be a bare column reference in the
            // projection; map output names back to input names.
            let out_schema = &input_dt.derived.schema;
            let mut mapped = Vec::with_capacity(key.len());
            let mut ok = true;
            for k in &key {
                match out_schema.resolve(k).ok().and_then(|p| columns[p].1.as_col()) {
                    Some(src) => mapped.push(src.to_string()),
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                report.descended += 1;
                let (d, inner_dt) = take_unary(input_dt);
                let (pushed, pushed_dt) = push(mapped, ratio, spec, *inner, inner_dt, report)?;
                Ok((
                    Plan::Project { input: Box::new(pushed), columns },
                    DerivedTree::unary(d, pushed_dt),
                ))
            } else {
                report.blockers.push(format!(
                    "projection transforms hash key ({}); η stays above Π",
                    key.join(",")
                ));
                let d = input_dt.derived.clone();
                Ok((
                    Plan::Hash {
                        input: Box::new(Plan::Project { input: inner, columns }),
                        key,
                        ratio,
                        spec,
                    },
                    DerivedTree::unary(d, input_dt),
                ))
            }
        }
        Plan::Aggregate { input: inner, group_by, aggregates } => {
            let out_schema = &input_dt.derived.schema;
            let mut mapped = Vec::with_capacity(key.len());
            let mut ok = true;
            for k in &key {
                match out_schema.resolve(k).ok().filter(|&p| p < group_by.len()) {
                    Some(p) => mapped.push(group_by[p].clone()),
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                report.descended += 1;
                let (d, inner_dt) = take_unary(input_dt);
                let (pushed, pushed_dt) = push(mapped, ratio, spec, *inner, inner_dt, report)?;
                Ok((
                    Plan::Aggregate { input: Box::new(pushed), group_by, aggregates },
                    DerivedTree::unary(d, pushed_dt),
                ))
            } else {
                report.blockers.push(format!(
                    "hash key ({}) is not contained in the group-by clause ({}); η stays \
                     above γ (nested-aggregate blocker, Appendix 12.4)",
                    key.join(","),
                    group_by.join(",")
                ));
                let d = input_dt.derived.clone();
                Ok((
                    Plan::Hash {
                        input: Box::new(Plan::Aggregate { input: inner, group_by, aggregates }),
                        key,
                        ratio,
                        spec,
                    },
                    DerivedTree::unary(d, input_dt),
                ))
            }
        }
        Plan::Join { left, right, kind, on } => {
            push_join(key, ratio, spec, *left, *right, kind, on, input_dt, report)
        }
        Plan::SetOp { kind, left, right } => {
            push_setop(key, ratio, spec, *left, *right, kind, input_dt, report)
        }
    }
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
    report: &mut EtaReport,
) -> Result<(Plan, DerivedTree)> {
    let (d, l_dt, r_dt) = take_binary(dt);
    let l_schema = &l_dt.derived.schema;
    let r_schema = &r_dt.derived.schema;
    let mut right_key = Vec::with_capacity(key.len());
    for k in &key {
        let p = l_schema.resolve(k)?;
        right_key.push(r_schema.field(p).name.clone());
    }
    report.descended += 1;
    let (l, l_dt) = push(key, ratio, spec, left, l_dt, report)?;
    let (r, r_dt) = push(right_key, ratio, spec, right, r_dt, report)?;
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
    report: &mut EtaReport,
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
    let equality_eligible = matches!(kind, JoinKind::Inner | JoinKind::Semi | JoinKind::Anti);
    if equality_eligible {
        let mut lk = Vec::with_capacity(key.len());
        let mut rk = Vec::with_capacity(key.len());
        let mut all = true;
        for side in &sides {
            match side {
                Side::Left(name) => match partner_right(name) {
                    Some(r) => {
                        lk.push(name.clone());
                        rk.push(r);
                    }
                    None => {
                        all = false;
                        break;
                    }
                },
                Side::Right(name) => match partner_left(name) {
                    Some(l) => {
                        lk.push(l);
                        rk.push(name.clone());
                    }
                    None => {
                        all = false;
                        break;
                    }
                },
            }
        }
        if all {
            report.descended += 1;
            let (l, l_dt) = push(lk, ratio, spec, left, l_dt, report)?;
            let (r, r_dt) = push(rk, ratio, spec, right, r_dt, report)?;
            return Ok((
                Plan::Join { left: Box::new(l), right: Box::new(r), kind, on },
                DerivedTree::binary(d, l_dt, r_dt),
            ));
        }
    }

    // Case 2 — one-sided push (the FK-join case and its generalization):
    // the filter commutes to the side holding all key columns, provided the
    // join kind cannot fabricate NULLs for that side.
    let all_left = sides.iter().all(|s| matches!(s, Side::Left(_)));
    let all_right = sides.iter().all(|s| matches!(s, Side::Right(_)));
    if all_left
        && matches!(kind, JoinKind::Inner | JoinKind::Left | JoinKind::Semi | JoinKind::Anti)
    {
        let lk: Vec<String> = sides
            .iter()
            .map(|s| match s {
                Side::Left(n) => n.clone(),
                Side::Right(_) => unreachable!(),
            })
            .collect();
        report.descended += 1;
        let (l, l_dt) = push(lk, ratio, spec, left, l_dt, report)?;
        return Ok((
            Plan::Join { left: Box::new(l), right: Box::new(right), kind, on },
            DerivedTree::binary(d, l_dt, r_dt),
        ));
    }
    if all_right && matches!(kind, JoinKind::Inner | JoinKind::Right) {
        let rk: Vec<String> = sides
            .iter()
            .map(|s| match s {
                Side::Right(n) => n.clone(),
                Side::Left(_) => unreachable!(),
            })
            .collect();
        report.descended += 1;
        let (r, r_dt) = push(rk, ratio, spec, right, r_dt, report)?;
        return Ok((
            Plan::Join { left: Box::new(left), right: Box::new(r), kind, on },
            DerivedTree::binary(d, l_dt, r_dt),
        ));
    }

    report.blockers.push(format!(
        "join blocks η on key ({}): key spans both inputs and is not covered by the \
         equality condition",
        key.join(",")
    ));
    let join = Plan::Join { left: Box::new(left), right: Box::new(right), kind, on };
    let join_dt = DerivedTree::binary(d.clone(), l_dt, r_dt);
    Ok((Plan::Hash { input: Box::new(join), key, ratio, spec }, DerivedTree::unary(d, join_dt)))
}
