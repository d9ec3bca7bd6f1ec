//! Maintenance strategies as relational plans.
//!
//! `maintenance_plan` compiles a (canonicalized) view definition plus the
//! current delta info into a plan `M` over the leaves
//! `{__stale, base tables, __ins.T, __del.T}` whose evaluation returns the
//! up-to-date view. Three shapes are produced:
//!
//! * **Change-table** (top-level aggregates, the method of the paper's
//!   experiments \[22,23,27\]): aggregate the insertion/deletion deltas into a
//!   signed *change table* — γ(∆) and γ(∇), [`change_table_expr`] — then
//!   merge it with the stale view. The paper's Example 1 writes both steps
//!   as a full outer join followed by a generalized projection with
//!   NULL-as-0; as a plan we emit the equivalent three-way form —
//!   `matched ∪ left-only ∪ right-only` over keyed inner/anti joins —
//!   because it preserves Definition 2 keys on every node. That plan is the
//!   inspectable expression and the tested reference only: it evaluates the
//!   change table three times (and each sign three times more), so every
//!   path that *applies* a change table runs γ(∆) and γ(∇) once each and
//!   folds them by group key ([`crate::fold`]) — into the view, or, under
//!   η, into the stale sample.
//! * **Delta-apply** (SPJ views): `(S ▷ ∇V) ∪ ∆V` by primary key.
//! * **Recompute** (anything else — nested aggregates, outer joins, median):
//!   the definition with every base scan replaced by its new state
//!   `(T ▷ ∇T) ∪ ∆T`. Still a plan, so sampling still pushes into it where
//!   Definition 3 allows — mirroring the paper's observation that V21/V22
//!   benefit less but still work.

use svc_storage::{Database, Result, Schema, StorageError};

use svc_relalg::derive::{derive, Derived, LeafProvider};
use svc_relalg::optimizer::{optimize, optimize_with, CardEstimator, OptimizeReport};
use svc_relalg::plan::{JoinKind, Plan};
use svc_relalg::scalar::{col, lit, Expr, Func};

use crate::canon::{AggShape, Canonical, MergeRule, SVC_CNT};
use crate::delta::{derive_delta, new_state, DeltaInfo, Signed};

/// Leaf name bound to the stale view inside maintenance plans.
pub const STALE_LEAF: &str = "__stale";

/// Which maintenance strategy a plan implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanKind {
    /// No deltas pending: the plan is just `Scan __stale`.
    NoOp,
    /// Signed change-table merge for aggregate views.
    ChangeTable,
    /// Keyed delta application for SPJ views.
    DeltaApply,
    /// Full re-evaluation against the new base state.
    Recompute,
}

/// Leaf resolver for maintenance plans: knows the stale view and maps
/// `__ins.T` / `__del.T` to the schema of `T`.
pub struct MaintCatalog<'a> {
    /// The base database (old state).
    pub db: &'a Database,
    /// Derived type of the stale (canonical) view.
    pub stale: Derived,
}

impl MaintCatalog<'_> {
    /// Optimize a maintenance plan against this catalog — the one spelling
    /// of "cost-based when there is an estimator, rule-based otherwise"
    /// every maintenance and cleaning path shares.
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

impl LeafProvider for MaintCatalog<'_> {
    fn leaf(&self, name: &str) -> Option<Derived> {
        if name == STALE_LEAF {
            return Some(self.stale.clone());
        }
        let base =
            name.strip_prefix("__ins.").or_else(|| name.strip_prefix("__del.")).unwrap_or(name);
        self.db.leaf(base)
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
fn rename_all(plan: Plan, names: &[String], prefix: &str) -> Plan {
    Plan::Project {
        input: Box::new(plan),
        columns: names.iter().map(|n| (format!("{prefix}{n}"), col(n.clone()))).collect(),
    }
}

/// Build the maintenance plan for a canonicalized view.
pub fn maintenance_plan(
    canonical: &Canonical,
    cat: &MaintCatalog<'_>,
    info: &DeltaInfo,
) -> Result<(Plan, PlanKind)> {
    if info.is_empty() {
        return Ok((Plan::scan(STALE_LEAF), PlanKind::NoOp));
    }

    if canonical.agg.is_some() {
        // `change_table_expr` (inside `change_table_plan`) is the strategy's
        // one gate: merge rules the deltas rule out and inputs without a
        // delta derivation (nested aggregates) error there and recompute.
        return match change_table_plan(canonical, cat, info) {
            Ok(plan) => Ok((plan, PlanKind::ChangeTable)),
            Err(_) => Ok((recompute_plan(&canonical.plan, cat, info)?, PlanKind::Recompute)),
        };
    }

    // SPJ view: keyed delta application against the stale view.
    match derive_delta(&canonical.plan, info, cat) {
        Ok(d) => {
            let mut out = Plan::scan(STALE_LEAF);
            if let Some(del) = d.del {
                let on: Vec<(String, String)> = derive(&canonical.plan, cat)?
                    .key_names()
                    .iter()
                    .map(|k| (k.to_string(), k.to_string()))
                    .collect();
                out = Plan::Join {
                    left: Box::new(out),
                    right: Box::new(del),
                    kind: JoinKind::Anti,
                    on,
                };
            }
            if let Some(ins) = d.ins {
                out = out.union(ins);
            }
            Ok((out, PlanKind::DeltaApply))
        }
        Err(_) => Ok((recompute_plan(&canonical.plan, cat, info)?, PlanKind::Recompute)),
    }
}

/// Canonical output column names of an aggregate view: group fields
/// followed by aggregate aliases.
pub(crate) struct CanonNames {
    all: Vec<String>,
    group: Vec<String>,
    agg: Vec<String>,
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

fn canon_names(canonical: &Canonical, cat: &MaintCatalog<'_>) -> Result<CanonNames> {
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
/// deltas — the γ half of the change-table strategy, without the stale-view
/// merge — as one keyed plan per sign over `{base tables, __ins.T,
/// __del.T}`: γ(∆) and γ(∇), the view's own aggregate over the derived
/// insertions and deletions of its input. Both sides `None` when the deltas
/// cannot touch the view (every branch pruned). A group's change row is
/// γ(∆) − γ(∇) (`net_columns` / `negated_columns`); whoever applies the
/// pair evaluates each side once and combines by group key
/// ([`crate::fold::KeyedFold::stage`]).
///
/// This is also the strategy's eligibility gate, shared by every
/// maintenance path (`maintenance_plan`, `MaterializedView::maintained`,
/// `SvcView::clean_sample`, the mini-batch pipeline): it errors when the
/// view is not a top-level aggregate, when a merge rule rules the deltas out
/// (min/max under deletions, median), and when the aggregate's input has no
/// delta derivation (nested aggregates, outer joins) — callers fall back to
/// their full maintenance plan on any error.
pub fn change_table_expr(
    canonical: &Canonical,
    cat: &MaintCatalog<'_>,
    info: &DeltaInfo,
) -> Result<Signed<Plan>> {
    let shape = canonical
        .agg
        .as_ref()
        .ok_or_else(|| StorageError::Invalid("change table requires an aggregate view".into()))?;
    let Plan::Aggregate { aggregates, group_by, .. } = &canonical.plan else {
        return Err(StorageError::Invalid("canonical plan is not an aggregate".into()));
    };
    if !canonical.change_table_eligible(info.has_deletions()) {
        return Err(StorageError::Invalid(
            "a merge rule of the view rules out change-table maintenance for these deltas".into(),
        ));
    }

    let d = derive_delta(&shape.input, info, cat)?;
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
pub(crate) fn signed_change_plan(names: &CanonNames, change: Signed<Plan>) -> Option<Plan> {
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
pub(crate) fn merge_with_stale(
    canonical: &Canonical,
    cat: &MaintCatalog<'_>,
    change: Plan,
) -> Result<Plan> {
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

/// The change-table strategy for a canonical top-level aggregate *as a
/// plan*: the signed change table merged with `Scan __stale`. This is the
/// inspectable expression (`SvcView::cleaning_plan`) and the reference the
/// fold is tested against; no maintenance or cleaning path runs it — each
/// evaluates the two sides of [`change_table_expr`] once and folds them by
/// key, into the view or into the stale sample.
fn change_table_plan(
    canonical: &Canonical,
    cat: &MaintCatalog<'_>,
    info: &DeltaInfo,
) -> Result<Plan> {
    let change = change_table_expr(canonical, cat, info)?;
    match signed_change_plan(&canon_names(canonical, cat)?, change) {
        None => Ok(Plan::scan(STALE_LEAF)),
        Some(change) => merge_with_stale(canonical, cat, change),
    }
}

/// Recomputation expressed as a plan: every base scan becomes its new state
/// `(T ▷ ∇T) ∪ ∆T`.
pub fn recompute_plan(def: &Plan, cat: &MaintCatalog<'_>, info: &DeltaInfo) -> Result<Plan> {
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
