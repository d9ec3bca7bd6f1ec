//! Delta-plan derivation: given an SPJ(U) expression over base relations,
//! produce plans computing the rows *inserted into* and *deleted from* its
//! result when the base relations change.
//!
//! For a join `L ⋈ R`, with `L_new = (L ▷ ∇L) ∪ ∆L` (`▷` an anti-join on
//! the primary key), the join distributes over the new-state union and each
//! anti-join runs after the join, on the key of the input it filters:
//!
//! ```text
//! ∆(L ⋈ R) = ((L ⋈ ∆R) ▷_keyL ∇L)  ∪  ((∆L ⋈ R) ▷_keyR ∇R)  ∪  (∆L ⋈ ∆R)
//! ∇(L ⋈ R) = (∇L ⋈ R)              ∪  ((L ⋈ ∇R) ▷_keyL ∇L)
//! ```
//!
//! These are the classic `((L ▷ ∇L) ⋈ ∆R) ∪ (∆L ⋈ R_new)` rules: ⋈
//! distributes over ∪, and an anti-join on one input's key commutes with an
//! inner join. The point is the plan shape. A delta-sized input meets a
//! base relation `R` as that relation itself, which the executor probes by
//! primary key, instead of meeting a materialized new state
//! `(R ▷ ∇R) ∪ ∆R` it would have to hash-build over. The new state remains
//! for recomputation ([`new_state`]) and for the ∪ rule.
//!
//! Every derived plan names its columns as the expression it derives does.
//! A join whose right input is a delta plan would name a collided column
//! after the delta leaf (`__ins.video.x`, where the view has `video.x`), so
//! such a branch is renamed back. σ/Π/γ above a delta, the keyed
//! anti-joins, the keyed fold and η on the view key all resolve the view's
//! own names.
//!
//! Leaves follow the naming convention `__ins.<table>` / `__del.<table>`;
//! `svc-ivm`'s bindings attach the matching delta relations at evaluation
//! time. Branches whose deltas are provably empty (the table was not
//! touched) are pruned to `None`.

use std::collections::BTreeSet;

use svc_storage::{Deltas, Result, Schema, StorageError};

use svc_relalg::derive::{derive, Derived, LeafProvider};
use svc_relalg::plan::{JoinKind, Plan, SetOpKind};
use svc_relalg::scalar::col;

/// Leaf name of the insertion delta for `table`.
pub fn ins_leaf(table: &str) -> String {
    format!("__ins.{table}")
}

/// Leaf name of the deletion delta for `table`.
pub fn del_leaf(table: &str) -> String {
    format!("__del.{table}")
}

/// The table a delta leaf (`__ins.T` / `__del.T`) changes, `None` for any
/// other leaf name.
pub fn delta_base(leaf: &str) -> Option<&str> {
    leaf.strip_prefix("__ins.").or_else(|| leaf.strip_prefix("__del."))
}

/// Which base tables have pending insertions / deletions. Used to prune
/// provably-empty delta branches.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaInfo {
    /// Tables with at least one pending insertion.
    pub ins: BTreeSet<String>,
    /// Tables with at least one pending deletion.
    pub del: BTreeSet<String>,
}

impl DeltaInfo {
    /// Extract from a concrete delta set.
    pub fn of(deltas: &Deltas) -> DeltaInfo {
        let mut info = DeltaInfo::default();
        for (name, set) in deltas.iter() {
            if !set.insertions.is_empty() {
                info.ins.insert(name.to_string());
            }
            if !set.deletions.is_empty() {
                info.del.insert(name.to_string());
            }
        }
        info
    }

    /// True iff any touched table has deletions.
    pub fn has_deletions(&self) -> bool {
        !self.del.is_empty()
    }

    /// True iff nothing changed at all.
    pub fn is_empty(&self) -> bool {
        self.ins.is_empty() && self.del.is_empty()
    }
}

/// One value per sign of a change: the insertion (∆) side and the deletion
/// (∇) side. `None` means provably empty.
#[derive(Debug, Clone)]
pub struct Signed<T> {
    /// The inserted side.
    pub ins: Option<T>,
    /// The deleted side.
    pub del: Option<T>,
}

/// The insertion and deletion plans for a derived relation.
pub type DeltaPlan = Signed<Plan>;

impl<T> Signed<T> {
    const EMPTY: Signed<T> = Signed { ins: None, del: None };

    /// True iff both sides are provably empty.
    pub fn is_empty(&self) -> bool {
        self.ins.is_none() && self.del.is_none()
    }

    /// Both sides by reference.
    pub fn as_ref(&self) -> Signed<&T> {
        Signed { ins: self.ins.as_ref(), del: self.del.as_ref() }
    }

    /// Both sides through `f`, the inserted one first.
    pub fn try_map<U>(self, mut f: impl FnMut(T) -> Result<U>) -> Result<Signed<U>> {
        Ok(Signed {
            ins: self.ins.map(&mut f).transpose()?,
            del: self.del.map(&mut f).transpose()?,
        })
    }
}

/// Leaves of a delta plan typed as the tables they change, as
/// [`crate::strategy::MaintCatalog`] types them: a bare `Database` also
/// derives plans over `__ins.T` / `__del.T` this way.
struct DeltaLeaves<'a>(&'a dyn LeafProvider);

impl LeafProvider for DeltaLeaves<'_> {
    fn leaf(&self, name: &str) -> Option<Derived> {
        self.0.leaf(name).or_else(|| self.0.leaf(delta_base(name)?))
    }
}

/// The *new state* of a derived relation as a plan: `(R ▷ ∇R) ∪ ∆R`.
pub fn new_state(plan: &Plan, info: &DeltaInfo, cat: &impl LeafProvider) -> Result<Plan> {
    Deriver { info, leaves: DeltaLeaves(cat) }.new_state(plan)
}

/// Derive the delta plans of `plan`. Errors on constructs outside the
/// supported SPJ(U) class (nested aggregates, outer joins, η nodes); callers
/// fall back to the recomputation strategy in that case.
pub fn derive_delta(plan: &Plan, info: &DeltaInfo, cat: &impl LeafProvider) -> Result<DeltaPlan> {
    Deriver { info, leaves: DeltaLeaves(cat) }.delta(plan)
}

/// The ∪ of every present part, `None` when none is.
fn union_all(parts: impl IntoIterator<Item = Option<Plan>>) -> Option<Plan> {
    parts.into_iter().flatten().reduce(Plan::union)
}

/// `plan ▷ del` on one input's primary key, the identity without `del`.
/// `input` is that input's type: its key sits at `offset + k` in `plan`'s
/// output, named as in `out`, and at `k` in `del`, a delta plan of the input
/// and so named as the input is.
fn anti_on_key(
    plan: Plan,
    del: Option<&Plan>,
    out: &Schema,
    input: &Derived,
    offset: usize,
) -> Plan {
    let Some(del) = del else { return plan };
    let on = input
        .key
        .iter()
        .map(|&k| (out.field(offset + k).name.clone(), input.schema.field(k).name.clone()))
        .collect();
    Plan::Join { left: Box::new(plan), right: Box::new(del.clone()), kind: JoinKind::Anti, on }
}

/// One derivation: the pending deltas and the leaves to type plans by.
struct Deriver<'a> {
    info: &'a DeltaInfo,
    leaves: DeltaLeaves<'a>,
}

impl Deriver<'_> {
    fn new_state(&self, plan: &Plan) -> Result<Plan> {
        let d = self.delta(plan)?;
        let kept = match d.del.as_ref() {
            None => plan.clone(),
            del => {
                let typed = derive(plan, &self.leaves)?;
                anti_on_key(plan.clone(), del, &typed.schema, &typed, 0)
            }
        };
        Ok(union_all([Some(kept), d.ins]).expect("the kept rows are always present"))
    }

    /// `plan`, its columns renamed position for position to `names` where
    /// they differ (a bare-column Π, which keeps the key).
    fn named_like(&self, plan: Plan, names: &Schema) -> Result<Plan> {
        let have = derive(&plan, &self.leaves)?.schema;
        if have.names() == names.names() {
            return Ok(plan);
        }
        let columns = names
            .fields()
            .iter()
            .zip(have.fields())
            .map(|(want, is)| (want.name.clone(), col(is.name.clone())))
            .collect();
        Ok(Plan::Project { input: Box::new(plan), columns })
    }

    fn delta(&self, plan: &Plan) -> Result<DeltaPlan> {
        let info = self.info;
        Ok(match plan {
            Plan::Scan { table } => DeltaPlan {
                ins: info.ins.contains(table).then(|| Plan::scan(ins_leaf(table))),
                del: info.del.contains(table).then(|| Plan::scan(del_leaf(table))),
            },
            Plan::Select { input, predicate } => {
                let d = self.delta(input)?;
                DeltaPlan {
                    ins: d.ins.map(|p| p.select(predicate.clone())),
                    del: d.del.map(|p| p.select(predicate.clone())),
                }
            }
            Plan::Project { input, columns } => {
                let d = self.delta(input)?;
                let proj = |p: Plan| Plan::Project { input: Box::new(p), columns: columns.clone() };
                DeltaPlan { ins: d.ins.map(proj), del: d.del.map(proj) }
            }
            Plan::Join { left, right, kind: JoinKind::Inner, on } => {
                let (dl, dr) = (self.delta(left)?, self.delta(right)?);
                if dl.is_empty() && dr.is_empty() {
                    return Ok(DeltaPlan::EMPTY);
                }
                let out = derive(plan, &self.leaves)?.schema;
                let (lt, rt) = (derive(left, &self.leaves)?, derive(right, &self.leaves)?);
                let join = |l: &Plan, r: &Plan| {
                    let (l, r) = (Box::new(l.clone()), Box::new(r.clone()));
                    let joined =
                        Plan::Join { left: l, right: r, kind: JoinKind::Inner, on: on.clone() };
                    self.named_like(joined, &out)
                };
                let but_del_l = |p: Plan| anti_on_key(p, dl.del.as_ref(), &out, &lt, 0);
                let but_del_r =
                    |p: Plan| anti_on_key(p, dr.del.as_ref(), &out, &rt, lt.schema.len());
                let both_ins = dl.ins.as_ref().zip(dr.ins.as_ref());
                DeltaPlan {
                    ins: union_all([
                        dr.ins.as_ref().map(|ir| join(left, ir)).transpose()?.map(but_del_l),
                        dl.ins.as_ref().map(|il| join(il, right)).transpose()?.map(but_del_r),
                        both_ins.map(|(il, ir)| join(il, ir)).transpose()?,
                    ]),
                    del: union_all([
                        dl.del.as_ref().map(|dl| join(dl, right)).transpose()?,
                        dr.del.as_ref().map(|dr| join(left, dr)).transpose()?.map(but_del_l),
                    ]),
                }
            }
            Plan::SetOp { kind: SetOpKind::Union, left, right } => {
                // Set-semantics union: a row enters the result iff it is new
                // to *both* old sides, and leaves iff it is gone from *both*
                // new sides.
                let (dl, dr) = (self.delta(left)?, self.delta(right)?);
                if dl.is_empty() && dr.is_empty() {
                    return Ok(DeltaPlan::EMPTY);
                }
                let out = derive(plan, &self.leaves)?.schema;
                let named = |p: Option<Plan>| p.map(|p| self.named_like(p, &out)).transpose();
                let ins = named(union_all([dl.ins, dr.ins]))?;
                let del = match named(union_all([dl.del, dr.del]))? {
                    None => None,
                    Some(p) => {
                        Some(p.difference(self.new_state(left)?).difference(self.new_state(right)?))
                    }
                };
                DeltaPlan {
                    ins: ins.map(|p| p.difference((**left).clone()).difference((**right).clone())),
                    del,
                }
            }
            Plan::Join { .. } => {
                return Err(StorageError::Invalid(
                    "delta derivation supports only inner joins; outer joins fall back to \
                     recomputation"
                        .into(),
                ))
            }
            Plan::Aggregate { .. } => {
                return Err(StorageError::Invalid(
                    "nested aggregate blocks delta derivation (Appendix 12.4); falling back to \
                     recomputation"
                        .into(),
                ))
            }
            Plan::SetOp { kind: SetOpKind::Intersect | SetOpKind::Difference, .. } => {
                return Err(StorageError::Invalid(
                    "delta derivation for ∩/− is not implemented; falling back to recomputation"
                        .into(),
                ))
            }
            Plan::Hash { .. } => {
                return Err(StorageError::Invalid(
                    "unexpected η node inside a view definition".into(),
                ))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::PlanKind;
    use crate::view::MaterializedView;
    use svc_relalg::aggregate::{AggFunc, AggSpec};
    use svc_relalg::eval::{evaluate, Bindings};
    use svc_relalg::scalar::{col, lit};
    use svc_storage::{DataType, Database, Schema, Table, Value};

    /// `video(videoId, owner, duration)` and `log(sessionId, videoId,
    /// owner)`: a join on `videoId` collides on `videoId` and `owner`.
    fn db() -> Database {
        let mut db = Database::new();
        let mut video = Table::new(
            Schema::from_pairs(&[
                ("videoId", DataType::Int),
                ("owner", DataType::Int),
                ("duration", DataType::Float),
            ])
            .unwrap(),
            &["videoId"],
        )
        .unwrap();
        for v in 0..50i64 {
            let row = vec![Value::Int(v), Value::Int(v % 5), Value::Float(1.0 + (v % 7) as f64)];
            video.insert(row).unwrap();
        }
        let mut log = Table::new(
            Schema::from_pairs(&[
                ("sessionId", DataType::Int),
                ("videoId", DataType::Int),
                ("owner", DataType::Int),
            ])
            .unwrap(),
            &["sessionId"],
        )
        .unwrap();
        for s in 0..400i64 {
            log.insert(vec![Value::Int(s), Value::Int(s % 50), Value::Int(s % 7)]).unwrap();
        }
        db.create_table("video", video);
        db.create_table("log", log);
        db
    }

    /// Insertions, deletions and updates on both join inputs: new sessions
    /// (some to brand-new videos), new videos, a deleted and an updated
    /// session, a deleted video and two updated ones.
    fn make_deltas(db: &Database) -> Deltas {
        let mut deltas = Deltas::new();
        for s in 400..450i64 {
            deltas
                .insert(db, "log", vec![Value::Int(s), Value::Int(s % 55), Value::Int(1)])
                .unwrap();
        }
        for v in 50..55i64 {
            deltas
                .insert(db, "video", vec![Value::Int(v), Value::Int(2), Value::Float(9.0)])
                .unwrap();
        }
        deltas.delete(db, "log", &vec![Value::Int(3), Value::Null, Value::Null]).unwrap();
        deltas.update(db, "log", vec![Value::Int(5), Value::Int(49), Value::Int(6)]).unwrap();
        deltas.delete(db, "video", &vec![Value::Int(7), Value::Null, Value::Null]).unwrap();
        for v in [11i64, 49] {
            deltas
                .update(db, "video", vec![Value::Int(v), Value::Int(4), Value::Float(0.5)])
                .unwrap();
        }
        deltas
    }

    /// Evaluate a maintenance-shaped plan with base + delta bindings.
    fn eval_with_deltas(plan: &Plan, db: &Database, deltas: &Deltas) -> Table {
        let mut b = Bindings::from_database(db);
        for (name, set) in deltas.iter() {
            b.bind(ins_leaf(name), &set.insertions);
            b.bind(del_leaf(name), &set.deletions);
        }
        evaluate(plan, &b).unwrap()
    }

    // By-value keeps the inline plan-building call sites clean.
    #[allow(clippy::needless_pass_by_value)]
    fn check_new_state_matches_recompute(view: Plan) {
        let db = db();
        let deltas = make_deltas(&db);
        let info = DeltaInfo::of(&deltas);
        let ns = new_state(&view, &info, &db).unwrap();
        let incremental = eval_with_deltas(&ns, &db, &deltas);

        // Ground truth: apply deltas then evaluate the definition.
        let mut db2 = db;
        let mut d2 = deltas;
        d2.apply_to(&mut db2).unwrap();
        let b2 = Bindings::from_database(&db2);
        let expected = evaluate(&view, &b2).unwrap();

        assert!(
            incremental.same_contents(&expected),
            "delta-maintained state diverged: {} vs {} rows",
            incremental.len(),
            expected.len()
        );
    }

    #[test]
    fn scan_delta_matches_recompute() {
        check_new_state_matches_recompute(Plan::scan("log"));
    }

    #[test]
    fn select_delta_matches_recompute() {
        check_new_state_matches_recompute(Plan::scan("log").select(col("videoId").lt(lit(30i64))));
    }

    #[test]
    fn project_delta_matches_recompute() {
        check_new_state_matches_recompute(
            Plan::scan("video").project(vec![
                ("videoId", col("videoId")),
                ("mins", col("duration").mul(lit(60.0))),
            ]),
        );
    }

    #[test]
    fn join_delta_matches_recompute() {
        check_new_state_matches_recompute(Plan::scan("log").join(
            Plan::scan("video"),
            JoinKind::Inner,
            &[("videoId", "videoId")],
        ));
    }

    #[test]
    fn join_then_select_delta_matches_recompute() {
        check_new_state_matches_recompute(
            Plan::scan("log")
                .join(Plan::scan("video"), JoinKind::Inner, &[("videoId", "videoId")])
                .select(col("duration").gt(lit(2.0))),
        );
    }

    #[test]
    fn union_delta_matches_recompute() {
        let a = Plan::scan("log").select(col("videoId").lt(lit(10i64)));
        let b = Plan::scan("log").select(col("videoId").ge(lit(40i64)));
        check_new_state_matches_recompute(a.union(b));
    }

    /// `join` as an SPJ view and under an aggregate grouped by `group`: its
    /// new state equals recomputation, and both views maintain to
    /// `recompute_fresh`, by ∆V / ∇V and by change table.
    #[allow(clippy::needless_pass_by_value)]
    fn check_join_shape(join: Plan, group: &str, measure: &str) {
        check_new_state_matches_recompute(join.clone());
        let agg = join.clone().aggregate(
            &[group],
            vec![AggSpec::count_all("n"), AggSpec::new("total", AggFunc::Sum, col(measure))],
        );
        let db = db();
        let deltas = make_deltas(&db);
        for (def, kind) in [(join, PlanKind::DeltaApply), (agg, PlanKind::ChangeTable)] {
            let mut view = MaterializedView::create("v", def, &db).unwrap();
            let fresh = view.recompute_fresh(&db, &deltas).unwrap();
            assert_eq!(view.maintain(&db, &deltas).unwrap(), kind);
            assert!(
                view.table().approx_same_contents(&fresh, 1e-9),
                "{kind:?}: maintained {} rows, recomputed {}",
                view.len(),
                fresh.len()
            );
        }
    }

    fn log_video() -> Plan {
        Plan::scan("log").join(Plan::scan("video"), JoinKind::Inner, &[("videoId", "videoId")])
    }

    #[test]
    fn right_input_deletions_and_updates_maintain() {
        check_join_shape(log_video(), "videoId", "duration");
    }

    /// The view names video's `owner` `video.owner`; a branch joining a
    /// delta of `video` would name it `__ins.video.owner` unless renamed.
    #[test]
    fn collided_columns_keep_the_views_names() {
        let d = derive(&log_video(), &db()).unwrap();
        assert_eq!(
            d.schema.names(),
            ["sessionId", "videoId", "owner", "video.videoId", "video.owner", "duration"]
        );
        let info = DeltaInfo::of(&make_deltas(&db()));
        let change = derive_delta(&log_video(), &info, &db()).unwrap();
        for side in [change.ins.unwrap(), change.del.unwrap()] {
            assert_eq!(derive(&side, &DeltaLeaves(&db())).unwrap().schema, d.schema);
        }
        check_join_shape(
            log_video().select(col("video.owner").lt(lit(3i64))),
            "video.owner",
            "duration",
        );
    }

    /// `log ⋈ log` on a non-key column: many partners per row, and a key of
    /// both sides' keys, one of them renamed `log.sessionId`.
    #[test]
    fn self_join_maintains() {
        let self_join =
            Plan::scan("log").join(Plan::scan("log"), JoinKind::Inner, &[("videoId", "videoId")]);
        check_join_shape(self_join, "log.owner", "owner");
    }

    /// `log ⋈ (log ⋈ video)`: the right input's deltas are themselves
    /// unions of join branches.
    #[test]
    fn three_way_nest_maintains() {
        let nest = Plan::scan("log").join(log_video(), JoinKind::Inner, &[("videoId", "videoId")]);
        check_join_shape(nest, "video.owner", "duration");
    }

    #[test]
    fn untouched_tables_prune_to_empty() {
        let db = db();
        let mut deltas = Deltas::new();
        deltas
            .insert(&db, "video", vec![Value::Int(99), Value::Int(0), Value::Float(1.0)])
            .unwrap();
        let info = DeltaInfo::of(&deltas);
        let d = derive_delta(&Plan::scan("log"), &info, &db).unwrap();
        assert!(d.ins.is_none() && d.del.is_none());
        // A join still produces a delta through the video side only.
        let join =
            Plan::scan("log").join(Plan::scan("video"), JoinKind::Inner, &[("videoId", "videoId")]);
        let d = derive_delta(&join, &info, &db).unwrap();
        assert!(d.ins.is_some());
        assert!(d.del.is_none());
    }

    #[test]
    fn aggregates_and_outer_joins_are_rejected() {
        let db = db();
        let info = DeltaInfo::default();
        let agg = Plan::scan("log")
            .aggregate(&["videoId"], vec![svc_relalg::aggregate::AggSpec::count_all("n")]);
        assert!(derive_delta(&agg, &info, &db).is_err());
        let outer =
            Plan::scan("log").join(Plan::scan("video"), JoinKind::Left, &[("videoId", "videoId")]);
        assert!(derive_delta(&outer, &info, &db).is_err());
    }
}
