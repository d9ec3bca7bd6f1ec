//! Delta-plan derivation: given an SPJ(U) expression over base relations,
//! produce plans computing the rows *inserted into* and *deleted from* its
//! result when the base relations change.
//!
//! For a join `L ⋈ R` with `L_new = (L − ∇L) ∪ ∆L` the classic rules apply:
//!
//! ```text
//! ∆(L ⋈ R) = ((L − ∇L) ⋈ ∆R)  ∪  (∆L ⋈ R_new)
//! ∇(L ⋈ R) = (∇L ⋈ R)         ∪  ((L − ∇L) ⋈ ∇R)
//! ```
//!
//! Keyed set subtraction (`−` by primary key) is expressed with the internal
//! `Anti` join kind, which keeps every intermediate a plain plan so that the
//! hashing operator can still be pushed through it.
//!
//! Leaves follow the naming convention `__ins.<table>` / `__del.<table>`;
//! `svc-ivm`'s bindings attach the matching delta relations at evaluation
//! time. Branches whose deltas are provably empty (the table was not
//! touched) are pruned to `None`.

use std::collections::BTreeSet;

use svc_storage::{Deltas, Result, StorageError};

use svc_relalg::derive::{derive, LeafProvider};
use svc_relalg::plan::{JoinKind, Plan, SetOpKind};

/// Leaf name of the insertion delta for `table`.
pub fn ins_leaf(table: &str) -> String {
    format!("__ins.{table}")
}

/// Leaf name of the deletion delta for `table`.
pub fn del_leaf(table: &str) -> String {
    format!("__del.{table}")
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

/// Key-equality pairs `(k, k)` for a plan's derived primary key, used for
/// keyed anti-joins.
fn key_pairs(plan: &Plan, cat: &impl LeafProvider) -> Result<Vec<(String, String)>> {
    let d = derive(plan, cat)?;
    Ok(d.key_names().iter().map(|k| (k.to_string(), k.to_string())).collect())
}

/// `plan − del` by primary key (anti-join); identity when `del` is `None`.
fn minus(plan: Plan, del: &Option<Plan>, cat: &impl LeafProvider) -> Result<Plan> {
    match del {
        None => Ok(plan),
        Some(d) => {
            let on = key_pairs(&plan, cat)?;
            Ok(Plan::Join {
                left: Box::new(plan),
                right: Box::new(d.clone()),
                kind: JoinKind::Anti,
                on,
            })
        }
    }
}

/// The *new state* of a derived relation as a plan: `(R − ∇R) ∪ ∆R`.
pub fn new_state(plan: &Plan, info: &DeltaInfo, cat: &impl LeafProvider) -> Result<Plan> {
    let d = derive_delta(plan, info, cat)?;
    let mut out = minus(plan.clone(), &d.del, cat)?;
    if let Some(ins) = d.ins {
        out = out.union(ins);
    }
    Ok(out)
}

fn union_opt(a: Option<Plan>, b: Option<Plan>) -> Option<Plan> {
    match (a, b) {
        (None, x) | (x, None) => x,
        (Some(a), Some(b)) => Some(a.union(b)),
    }
}

/// Derive the delta plans of `plan`. Errors on constructs outside the
/// supported SPJ(U) class (nested aggregates, outer joins, η nodes); callers
/// fall back to the recomputation strategy in that case.
pub fn derive_delta(plan: &Plan, info: &DeltaInfo, cat: &impl LeafProvider) -> Result<DeltaPlan> {
    Ok(match plan {
        Plan::Scan { table } => DeltaPlan {
            ins: info.ins.contains(table).then(|| Plan::scan(ins_leaf(table))),
            del: info.del.contains(table).then(|| Plan::scan(del_leaf(table))),
        },
        Plan::Select { input, predicate } => {
            let d = derive_delta(input, info, cat)?;
            DeltaPlan {
                ins: d.ins.map(|p| p.select(predicate.clone())),
                del: d.del.map(|p| p.select(predicate.clone())),
            }
        }
        Plan::Project { input, columns } => {
            let d = derive_delta(input, info, cat)?;
            let proj = |p: Plan| Plan::Project { input: Box::new(p), columns: columns.clone() };
            DeltaPlan { ins: d.ins.map(proj), del: d.del.map(proj) }
        }
        Plan::Join { left, right, kind: JoinKind::Inner, on } => {
            let dl = derive_delta(left, info, cat)?;
            let dr = derive_delta(right, info, cat)?;
            if dl.ins.is_none() && dl.del.is_none() && dr.ins.is_none() && dr.del.is_none() {
                return Ok(DeltaPlan::EMPTY);
            }
            let join = |l: Plan, r: Plan| Plan::Join {
                left: Box::new(l),
                right: Box::new(r),
                kind: JoinKind::Inner,
                on: on.clone(),
            };
            let l_minus = minus((**left).clone(), &dl.del, cat)?;

            // Insertions: (L − ∇L) ⋈ ∆R  ∪  ∆L ⋈ R_new
            let ins_a = dr.ins.clone().map(|ir| join(l_minus.clone(), ir));
            let ins_b = match &dl.ins {
                Some(il) => Some(join(il.clone(), new_state(right, info, cat)?)),
                None => None,
            };
            // Deletions: ∇L ⋈ R  ∪  (L − ∇L) ⋈ ∇R
            let del_a = dl.del.map(|dl_| join(dl_, (**right).clone()));
            let del_b = dr.del.map(|dr_| join(l_minus.clone(), dr_));

            DeltaPlan { ins: union_opt(ins_a, ins_b), del: union_opt(del_a, del_b) }
        }
        Plan::SetOp { kind: SetOpKind::Union, left, right } => {
            // Set-semantics union: a row enters the result iff it is new to
            // *both* old sides, and leaves iff it is gone from *both* new
            // sides.
            let dl = derive_delta(left, info, cat)?;
            let dr = derive_delta(right, info, cat)?;
            if dl.ins.is_none() && dl.del.is_none() && dr.ins.is_none() && dr.del.is_none() {
                return Ok(DeltaPlan::EMPTY);
            }
            let raw_ins = union_opt(dl.ins, dr.ins);
            let raw_del = union_opt(dl.del, dr.del);
            let ins = raw_ins.map(|p| p.difference((**left).clone()).difference((**right).clone()));
            let del = match raw_del {
                None => None,
                Some(p) => {
                    let nl = new_state(left, info, cat)?;
                    let nr = new_state(right, info, cat)?;
                    Some(p.difference(nl).difference(nr))
                }
            };
            DeltaPlan { ins, del }
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
                "delta derivation for ∩/− is not implemented; falling back to recomputation".into(),
            ))
        }
        Plan::Hash { .. } => {
            return Err(StorageError::Invalid("unexpected η node inside a view definition".into()))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use svc_relalg::eval::{evaluate, Bindings};
    use svc_relalg::scalar::{col, lit};
    use svc_storage::{DataType, Database, Schema, Table, Value};

    fn db() -> Database {
        let mut db = Database::new();
        let mut video = Table::new(
            Schema::from_pairs(&[("videoId", DataType::Int), ("duration", DataType::Float)])
                .unwrap(),
            &["videoId"],
        )
        .unwrap();
        for v in 0..50i64 {
            video.insert(vec![Value::Int(v), Value::Float(1.0 + (v % 7) as f64)]).unwrap();
        }
        let mut log = Table::new(
            Schema::from_pairs(&[("sessionId", DataType::Int), ("videoId", DataType::Int)])
                .unwrap(),
            &["sessionId"],
        )
        .unwrap();
        for s in 0..400i64 {
            log.insert(vec![Value::Int(s), Value::Int(s % 50)]).unwrap();
        }
        db.create_table("video", video);
        db.create_table("log", log);
        db
    }

    fn make_deltas(db: &Database) -> Deltas {
        let mut deltas = Deltas::new();
        // New sessions (including to a brand-new video), one deleted session,
        // one updated session.
        for s in 400..450i64 {
            deltas.insert(db, "log", vec![Value::Int(s), Value::Int(s % 55)]).unwrap();
        }
        for v in 50..55i64 {
            deltas.insert(db, "video", vec![Value::Int(v), Value::Float(9.0)]).unwrap();
        }
        deltas.delete(db, "log", &vec![Value::Int(3), Value::Null]).unwrap();
        deltas.update(db, "log", vec![Value::Int(5), Value::Int(49)]).unwrap();
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

    #[test]
    fn untouched_tables_prune_to_empty() {
        let db = db();
        let mut deltas = Deltas::new();
        deltas.insert(&db, "video", vec![Value::Int(99), Value::Float(1.0)]).unwrap();
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
