//! Maintenance strategies: one gate, two ways to land.
//!
//! [`view_delta`] is the one place that decides how a (canonicalized) view
//! takes the pending deltas, and every path that maintains a view or cleans
//! a sample of it asks it once:
//!
//! * **Keyed pair** — the view changes by a signed pair of keyed relations
//!   over `{base tables, __ins.T, __del.T}`, each evaluated once and applied
//!   by key ([`crate::fold`]) to the view, or, under η, to the stale sample.
//!   For a top-level aggregate (the change-table method of the paper's
//!   experiments \[22,23,27\]) the pair is γ(∆) and γ(∇), the view's own
//!   aggregate over the derived insertions and deletions of its input, and a
//!   group merges by its columns' merge rules; for an SPJ view it is the bare
//!   `derive_delta` pair ∆V and ∇V, and a key is dropped or replaced — such a
//!   view is maintainable from (view, ∇V, ∆V) alone.
//!   A nested aggregate in the auxiliary-table class (V21: a γ over one inner
//!   γ, additive at both levels) is a change-table view too: its inner γ is
//!   stored as the view's auxiliary table, bound as the leaf [`AUX_LEAF`],
//!   and `derive_delta` reads the touched inner groups off it, so neither
//!   side re-aggregates the inner input.
//! * **Recompute** (anything else — other nested aggregates, outer joins,
//!   median, min/max under deletions): the definition with every base scan
//!   replaced by its new state `(T ▷ ∇T) ∪ ∆T`. Still a plan, so sampling
//!   still pushes into it where Definition 3 allows.
//!
//! [`maintenance_plan`] spells the same decision as *one* plan `M` over
//! `{__stale, base tables, __ins.T, __del.T}` — the paper's Example 1 merge
//! for a change table (as `matched ∪ left-only ∪ right-only` over keyed
//! inner/anti joins, so every node keeps a Definition 2 key), `(S ▷ ∇V) ∪ ∆V`
//! for an SPJ view; an auxiliary leaf is inlined as its definition over the
//! old base tables. It is built from the gate's answer, so plan form and run
//! path cannot disagree on the class, and it is the inspectable expression
//! and the tested reference only: the merge evaluates every delta join nine
//! times and the SPJ form reads the whole stale view to move a few keyed
//! rows, so nothing that maintains or cleans runs either.

use svc_storage::{Database, Result, Schema, StorageError};

use svc_relalg::derive::{derive, Derived, LeafProvider};
use svc_relalg::optimizer::{optimize, optimize_with, CardEstimator, OptimizeReport};
use svc_relalg::plan::{JoinKind, Plan};
use svc_relalg::scalar::{col, lit, Expr, Func};

use crate::canon::{AggShape, AuxShape, Canonical, MergeRule, SVC_CNT};
use crate::delta::{delta_base, derive_delta, new_state, DeltaInfo, Signed};

/// Leaf name bound to the stale view inside maintenance plans.
pub const STALE_LEAF: &str = "__stale";

/// Leaf name bound to a nested aggregate view's auxiliary table (its inner
/// γ in canonical form) inside its delta plans.
pub const AUX_LEAF: &str = "__aux";

/// Which maintenance strategy a view takes for a delta set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanKind {
    /// Nothing to apply: no deltas pending, or none that reaches the view.
    /// As a plan, `Scan __stale`.
    NoOp,
    /// Signed change table of an aggregate view, merged by group key.
    ChangeTable,
    /// ∆V / ∇V of an SPJ view, applied by primary key.
    DeltaApply,
    /// Full re-evaluation against the new base state.
    Recompute,
}

/// How a view takes a delta set — the answer of [`view_delta`], as logical
/// plans; the view's plan cache holds it compiled
/// (`ViewDelta<svc_relalg::exec::PhysicalPlan>`).
#[derive(Debug, Clone)]
pub enum ViewDelta<P = Plan> {
    /// Nothing pending, or every delta branch pruned: the view stands.
    NoOp,
    /// The view changes by a signed pair of relations keyed like the view,
    /// applied by key ([`crate::fold::KeyedFold`]): γ(∆) / γ(∇) of a
    /// change-table view, ∆V / ∇V of an SPJ view. At least one side is
    /// present; a side the deltas cannot reach is `None`.
    Keyed {
        /// The two sides, as plans over `{base tables, __ins.T, __del.T}`.
        change: Signed<P>,
        /// [`PlanKind::ChangeTable`] or [`PlanKind::DeltaApply`].
        kind: PlanKind,
    },
    /// The view is re-evaluated: [`recompute_plan`] of its definition.
    Recompute(P),
}

impl<P> ViewDelta<P> {
    /// The strategy this answer takes.
    pub fn kind(&self) -> PlanKind {
        match self {
            ViewDelta::NoOp => PlanKind::NoOp,
            ViewDelta::Keyed { kind, .. } => *kind,
            ViewDelta::Recompute(_) => PlanKind::Recompute,
        }
    }

    /// Every plan by reference.
    pub fn as_ref(&self) -> ViewDelta<&P> {
        match self {
            ViewDelta::NoOp => ViewDelta::NoOp,
            ViewDelta::Keyed { change, kind } => {
                ViewDelta::Keyed { change: change.as_ref(), kind: *kind }
            }
            ViewDelta::Recompute(plan) => ViewDelta::Recompute(plan),
        }
    }

    /// Every plan through `f` (a keyed pair's inserted side first).
    pub fn try_map<Q>(self, mut f: impl FnMut(P) -> Result<Q>) -> Result<ViewDelta<Q>> {
        Ok(match self {
            ViewDelta::NoOp => ViewDelta::NoOp,
            ViewDelta::Keyed { change, kind } => {
                ViewDelta::Keyed { change: change.try_map(f)?, kind }
            }
            ViewDelta::Recompute(plan) => ViewDelta::Recompute(f(plan)?),
        })
    }
}

/// Leaf resolver for maintenance plans: knows the stale view and maps
/// `__ins.T` / `__del.T` to the schema of `T`.
pub struct MaintCatalog<'a> {
    /// The base database (old state).
    pub db: &'a Database,
    /// Derived type of the stale (canonical) view.
    pub stale: Derived,
}

impl LeafProvider for MaintCatalog<'_> {
    fn leaf(&self, name: &str) -> Option<Derived> {
        if name == STALE_LEAF {
            return Some(self.stale.clone());
        }
        self.db.leaf(delta_base(name).unwrap_or(name))
    }
}

/// Leaf resolver for a view's delta plans: every leaf of [`MaintCatalog`],
/// plus, for a nested aggregate view, its auxiliary table under
/// [`AUX_LEAF`]. The reference form inlines that leaf, so it resolves
/// against a bare `MaintCatalog` as well.
pub struct DeltaCatalog<'a> {
    /// The base tables, their delta relations and the stale view.
    pub maint: MaintCatalog<'a>,
    /// The auxiliary table's schema and key, for a view that has one.
    pub aux: Option<Derived>,
}

impl DeltaCatalog<'_> {
    /// Optimize a maintenance or delta plan against this catalog — the one
    /// spelling of "cost-based when there is an estimator, rule-based
    /// otherwise" every maintenance and cleaning path shares.
    pub fn optimize(
        &self,
        plan: &Plan,
        est: Option<&dyn CardEstimator>,
    ) -> Result<(Plan, OptimizeReport)> {
        match est {
            Some(est) => optimize_with(plan, self, est),
            None => optimize(plan, self),
        }
    }
}

impl LeafProvider for DeltaCatalog<'_> {
    fn leaf(&self, name: &str) -> Option<Derived> {
        match &self.aux {
            Some(aux) if name == AUX_LEAF => Some(aux.clone()),
            _ => self.maint.leaf(name),
        }
    }
}

fn least(a: Expr, b: Expr) -> Expr {
    Expr::Call { func: Func::Least, args: vec![a, b] }
}

fn greatest(a: Expr, b: Expr) -> Expr {
    Expr::Call { func: Func::Greatest, args: vec![a, b] }
}

fn coalesce0(e: Expr) -> Expr {
    e.coalesce(lit(0i64))
}

/// Rename every column of `plan` (whose schema is `names`) to
/// `{prefix}{name}` via a bare-column projection, keeping keys intact.
pub(crate) fn rename_all(plan: Plan, names: &[String], prefix: &str) -> Plan {
    Plan::Project {
        input: Box::new(plan),
        columns: names.iter().map(|n| (format!("{prefix}{n}"), col(n.clone()))).collect(),
    }
}

/// The strategy's one gate: how `canonical` takes the deltas `info` names.
///
/// A top-level aggregate whose merge rules admit the deltas and whose input
/// has a delta derivation — through its auxiliary leaf for a nested
/// aggregate in that class — changes by its signed change table; an SPJ view
/// with a delta derivation by ∆V / ∇V; everything else — median, min/max
/// under deletions, other nested aggregates, outer joins — recomputes. A
/// keyed pair with both sides pruned means the deltas cannot reach the view.
pub fn view_delta(
    canonical: &Canonical,
    cat: &DeltaCatalog<'_>,
    info: &DeltaInfo,
) -> Result<ViewDelta> {
    if info.is_empty() {
        return Ok(ViewDelta::NoOp);
    }
    let (change, kind) = match &canonical.agg {
        Some(shape) => (change_table_expr(canonical, shape, cat, info), PlanKind::ChangeTable),
        None => (derive_delta(&canonical.plan, info, cat, None), PlanKind::DeltaApply),
    };
    Ok(match change {
        Ok(change) if change.is_empty() => ViewDelta::NoOp,
        Ok(change) => ViewDelta::Keyed { change, kind },
        Err(_) => ViewDelta::Recompute(recompute_plan(&canonical.plan, cat, info)?),
    })
}

/// [`view_delta`] as one maintenance plan `M` over `{__stale, base tables,
/// __ins.T, __del.T}` whose evaluation returns the up-to-date view. The
/// inspectable expression (`SvcView::cleaning_plan`) and the reference the
/// keyed fold is tested against; no maintenance or cleaning path runs it.
/// An auxiliary leaf reads as its definition over the old base tables, so
/// the plan binds like any other view's, and η stays blocked above the inner
/// γ, as the paper finds for V21.
pub fn maintenance_plan(
    canonical: &Canonical,
    cat: &DeltaCatalog<'_>,
    info: &DeltaInfo,
) -> Result<(Plan, PlanKind)> {
    let (plan, kind) = match view_delta(canonical, cat, info)? {
        ViewDelta::NoOp => (Plan::scan(STALE_LEAF), PlanKind::NoOp),
        ViewDelta::Keyed { change, kind } => (keyed_plan(canonical, cat, change)?, kind),
        ViewDelta::Recompute(plan) => (plan, PlanKind::Recompute),
    };
    let Some(aux) = &canonical.aux else { return Ok((plan, kind)) };
    let inlined = plan.substitute_leaves(&mut |table| {
        Ok::<_, StorageError>(match table.as_str() {
            AUX_LEAF => aux.canonical.plan.clone(),
            _ => Plan::Scan { table },
        })
    })?;
    Ok((inlined, kind))
}

/// `input`, a relation of `aux`'s canonical rows, as the view definition
/// writes its inner γ: the public projection under the definition's own
/// column names (a qualified group column keeps its qualifier).
pub(crate) fn as_written(aux: &AuxShape, input: Plan, leaves: &impl LeafProvider) -> Result<Plan> {
    let public = aux.canonical.public.as_deref().unwrap_or_default();
    let written = derive(&aux.definition, leaves)?.schema;
    let columns =
        written.names().into_iter().zip(public).map(|(n, (_, e))| (n.to_string(), e.clone()));
    Ok(Plan::Project { input: Box::new(input), columns: columns.collect() })
}

/// A keyed pair applied to `Scan __stale`, as a plan: the signed change table
/// merged by group key for an aggregate view, `(S ▷ ∇V) ∪ ∆V` by primary key
/// for an SPJ view.
pub(crate) fn keyed_plan(
    canonical: &Canonical,
    cat: &impl LeafProvider,
    change: Signed<Plan>,
) -> Result<Plan> {
    if canonical.agg.is_some() {
        return match signed_change_plan(&canon_names(canonical, cat)?, change) {
            Some(change) => merge_with_stale(canonical, cat, change),
            None => Ok(Plan::scan(STALE_LEAF)),
        };
    }
    let mut out = Plan::scan(STALE_LEAF);
    if let Some(del) = change.del {
        let on: Vec<(String, String)> = derive(&canonical.plan, cat)?
            .key_names()
            .iter()
            .map(|k| (k.to_string(), k.to_string()))
            .collect();
        out = Plan::Join { left: Box::new(out), right: Box::new(del), kind: JoinKind::Anti, on };
    }
    if let Some(ins) = change.ins {
        out = out.union(ins);
    }
    Ok(out)
}

/// Canonical output column names of an aggregate view: group fields
/// followed by aggregate aliases.
pub(crate) struct CanonNames {
    pub(crate) all: Vec<String>,
    pub(crate) group: Vec<String>,
    pub(crate) agg: Vec<String>,
}

impl CanonNames {
    /// Split the canonical `schema` after its `groups` leading group columns.
    pub(crate) fn new(schema: &Schema, groups: usize) -> Result<CanonNames> {
        let all: Vec<String> = schema.names().iter().map(|s| s.to_string()).collect();
        if groups > all.len() {
            return Err(StorageError::Invalid("canonical schema is narrower than its key".into()));
        }
        let (group, agg) = (all[..groups].to_vec(), all[groups..].to_vec());
        Ok(CanonNames { all, group, agg })
    }
}

fn canon_names(canonical: &Canonical, cat: &impl LeafProvider) -> Result<CanonNames> {
    let Plan::Aggregate { group_by, .. } = &canonical.plan else {
        return Err(StorageError::Invalid("canonical plan is not an aggregate".into()));
    };
    CanonNames::new(&derive(&canonical.plan, cat)?.schema, group_by.len())
}

/// Prefix of a change row's columns wherever it sits beside the stale row of
/// its group: the join output of [`merge_with_stale`] and the concatenated
/// row of the keyed fold ([`crate::fold`]).
pub(crate) const CHANGE_PREFIX: &str = "__c_";

/// The canonical columns of a stale row merged with its group's change row,
/// over the schema `[names…, __c_names…]`: group columns pass through and
/// every aggregate combines by its merge rule. The one definition of the
/// merge arithmetic (`coalesce0`, NULL handling, `eval_arith` typing), shared
/// by the maintenance plan and the keyed fold.
pub(crate) fn merged_columns(shape: &AggShape, names: &CanonNames) -> Result<Vec<(String, Expr)>> {
    let mut merged: Vec<(String, Expr)> =
        names.group.iter().map(|g| (g.clone(), col(g.clone()))).collect();
    for (a, rule) in names.agg.iter().zip(shape.cols.iter().map(|c| &c.rule)) {
        let s = col(a.clone());
        let c = col(format!("{CHANGE_PREFIX}{a}"));
        let expr = match rule {
            MergeRule::Additive => coalesce0(s).add(coalesce0(c)),
            MergeRule::TakeMin => least(s, c),
            MergeRule::TakeMax => greatest(s, c),
            MergeRule::Recompute => {
                return Err(StorageError::Invalid(
                    "non-mergeable aggregate in change-table plan".into(),
                ))
            }
        };
        merged.push((a.clone(), expr));
    }
    Ok(merged)
}

/// Group liveness over a canonical row: groups whose rows were all deleted
/// (superfluous rows) are dropped from the maintained view.
pub(crate) fn group_is_live() -> Expr {
    col(SVC_CNT).gt(lit(0i64))
}

/// Prefix of a group's γ(∇) row wherever it sits beside its γ(∆) row: the
/// join output of [`signed_change_plan`] and the concatenated row of the keyed
/// fold ([`crate::fold`]).
pub(crate) const DEL_PREFIX: &str = "__d_";

/// The change row of a group with both insertions and deletions, over the
/// schema `[names…, __d_names…]`: every aggregate is `γ(∆) − γ(∇)` with
/// NULL as 0. Shared, like [`merged_columns`], by the plan form and the fold.
pub(crate) fn net_columns(names: &CanonNames) -> Vec<(String, Expr)> {
    let mut cols: Vec<(String, Expr)> =
        names.group.iter().map(|g| (g.clone(), col(g.clone()))).collect();
    for a in &names.agg {
        let deleted = col(format!("{DEL_PREFIX}{a}"));
        cols.push((a.clone(), coalesce0(col(a.clone())).sub(coalesce0(deleted))));
    }
    cols
}

/// The change row of a group with deletions only, over `[__d_names…]`: its
/// γ(∇) row with every aggregate negated.
pub(crate) fn negated_columns(names: &CanonNames) -> Vec<(String, Expr)> {
    let mut cols: Vec<(String, Expr)> =
        names.group.iter().map(|g| (g.clone(), col(format!("{DEL_PREFIX}{g}")))).collect();
    for a in &names.agg {
        cols.push((a.clone(), lit(0i64).sub(col(format!("{DEL_PREFIX}{a}")))));
    }
    cols
}

/// The *signed change table* of a canonical aggregate view for the given
/// deltas — the aggregate arm of [`view_delta`] — as one keyed plan per sign
/// over `{base tables, __ins.T, __del.T}`: γ(∆) and γ(∇), the view's own
/// aggregate over the derived insertions and deletions of its input. A
/// group's change row is γ(∆) − γ(∇) (`net_columns` / `negated_columns`).
///
/// Errors when a merge rule rules the deltas out (min/max under deletions,
/// median) and when the aggregate's input has no delta derivation (nested
/// aggregates without an auxiliary table, outer joins); the gate recomputes
/// on any error.
fn change_table_expr(
    canonical: &Canonical,
    shape: &AggShape,
    cat: &DeltaCatalog<'_>,
    info: &DeltaInfo,
) -> Result<Signed<Plan>> {
    let Plan::Aggregate { aggregates, group_by, .. } = &canonical.plan else {
        return Err(StorageError::Invalid("canonical plan is not an aggregate".into()));
    };
    if !canonical.change_table_eligible(info.has_deletions()) {
        return Err(StorageError::Invalid(
            "a merge rule of the view rules out change-table maintenance for these deltas".into(),
        ));
    }

    let d = derive_delta(&shape.input, info, cat, canonical.aux.as_ref())?;
    let gamma = |input: Plan| Plan::Aggregate {
        input: Box::new(input),
        group_by: group_by.clone(),
        aggregates: aggregates.clone(),
    };
    Ok(Signed { ins: d.ins.map(gamma), del: d.del.map(gamma) })
}

/// The signed pair as *one* change-table plan: the full outer join of γ(∆)
/// and γ(∇) on the group key, spelled `matched ∪ ∆-only ∪ ∇-only` over keyed
/// inner/anti joins so every node keeps a Definition 2 key. Only the plan
/// form of the strategy ([`maintenance_plan`]) needs it — it embeds each
/// side three times; the keyed fold combines the pair row by row instead.
fn signed_change_plan(names: &CanonNames, change: Signed<Plan>) -> Option<Plan> {
    let deleted = |gd: Plan| rename_all(gd, &names.all, DEL_PREFIX);
    match (change.ins, change.del) {
        (ins, None) => ins,
        (None, Some(gd)) => {
            Some(Plan::Project { input: Box::new(deleted(gd)), columns: negated_columns(names) })
        }
        (Some(gi), Some(gd)) => {
            let gd = deleted(gd);
            let on: Vec<(String, String)> =
                names.group.iter().map(|g| (g.clone(), format!("{DEL_PREFIX}{g}"))).collect();
            let on_rev: Vec<(String, String)> =
                on.iter().map(|(l, r)| (r.clone(), l.clone())).collect();
            let matched = Plan::Project {
                input: Box::new(Plan::Join {
                    left: Box::new(gi.clone()),
                    right: Box::new(gd.clone()),
                    kind: JoinKind::Inner,
                    on: on.clone(),
                }),
                columns: net_columns(names),
            };
            let ins_only = Plan::Join {
                left: Box::new(gi.clone()),
                right: Box::new(gd.clone()),
                kind: JoinKind::Anti,
                on,
            };
            let del_only = Plan::Project {
                input: Box::new(Plan::Join {
                    left: Box::new(gd),
                    right: Box::new(gi),
                    kind: JoinKind::Anti,
                    on: on_rev,
                }),
                columns: negated_columns(names),
            };
            Some(matched.union(ins_only.union(del_only)))
        }
    }
}

/// Merge an arbitrary change-table-shaped plan with `Scan __stale` using the
/// canonical merge rules — the second half of the change-table strategy.
fn merge_with_stale(canonical: &Canonical, cat: &impl LeafProvider, change: Plan) -> Result<Plan> {
    let shape = canonical
        .agg
        .as_ref()
        .ok_or_else(|| StorageError::Invalid("change table requires an aggregate view".into()))?;
    let names = canon_names(canonical, cat)?;

    let change_renamed = rename_all(change, &names.all, CHANGE_PREFIX);
    let stale = Plan::scan(STALE_LEAF);
    let on: Vec<(String, String)> =
        names.group.iter().map(|g| (g.clone(), format!("{CHANGE_PREFIX}{g}"))).collect();
    let on_rev: Vec<(String, String)> = on.iter().map(|(l, r)| (r.clone(), l.clone())).collect();

    let merged_cols = merged_columns(shape, &names)?;
    let matched_v = Plan::Project {
        input: Box::new(Plan::Join {
            left: Box::new(stale.clone()),
            right: Box::new(change_renamed.clone()),
            kind: JoinKind::Inner,
            on: on.clone(),
        }),
        columns: merged_cols,
    };
    let stale_only = Plan::Join {
        left: Box::new(stale.clone()),
        right: Box::new(change_renamed.clone()),
        kind: JoinKind::Anti,
        on,
    };
    let change_only = Plan::Project {
        input: Box::new(Plan::Join {
            left: Box::new(change_renamed),
            right: Box::new(stale),
            kind: JoinKind::Anti,
            on: on_rev,
        }),
        columns: names
            .all
            .iter()
            .map(|n| (n.clone(), col(format!("{CHANGE_PREFIX}{n}"))))
            .collect(),
    };

    let merged = matched_v.union(stale_only.union(change_only));
    Ok(merged.select(group_is_live()))
}

/// Recomputation expressed as a plan: every base scan becomes its new state
/// `(T ▷ ∇T) ∪ ∆T`.
pub fn recompute_plan(def: &Plan, cat: &impl LeafProvider, info: &DeltaInfo) -> Result<Plan> {
    fn has_eta(plan: &Plan) -> bool {
        matches!(plan, Plan::Hash { .. }) || plan.children().any(has_eta)
    }
    if has_eta(def) {
        return Err(StorageError::Invalid("unexpected η node inside a view definition".into()));
    }
    def.clone().substitute_leaves(&mut |table| new_state(&Plan::Scan { table }, info, cat))
}

#[cfg(test)]
mod tests {
    use super::*;
    use svc_storage::{DataType, Database, Schema, Table, Value};

    #[test]
    fn maint_catalog_resolves_delta_leaves() {
        let mut db = Database::new();
        let mut t = Table::new(
            Schema::from_pairs(&[("id", DataType::Int), ("x", DataType::Float)]).unwrap(),
            &["id"],
        )
        .unwrap();
        t.insert(vec![Value::Int(1), Value::Float(1.0)]).unwrap();
        db.create_table("log", t);
        let stale = db.leaf("log").unwrap();
        let cat = MaintCatalog { db: &db, stale };

        for name in ["log", "__ins.log", "__del.log"] {
            let d = cat.leaf(name).unwrap_or_else(|| panic!("`{name}` must resolve"));
            assert_eq!(d.schema.names(), vec!["id", "x"], "schema of `{name}`");
        }
        assert!(cat.leaf(STALE_LEAF).is_some());
        // A delta leaf is named after its table and nothing else.
        assert!(cat.leaf("__ins.log@0").is_none());
        assert!(cat.leaf("__ins.missing").is_none());
    }
}
