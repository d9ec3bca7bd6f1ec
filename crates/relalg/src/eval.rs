//! Plan evaluation: turns a [`Plan`] plus [`Bindings`] into a materialized
//! [`Table`].
//!
//! Bindings map leaf names to concrete relations. The same view-definition
//! plan evaluates against base tables, while a *maintenance strategy* plan
//! evaluates against bindings that also include the stale view and the delta
//! relations (`svc-ivm` constructs those).

use std::collections::HashMap;

use svc_storage::{Database, Result, SharedRow, StorageError, Table};

use crate::aggregate::bind_aggs;
use crate::aggregate::run_aggregate;
use crate::derive::{
    derive_aggregate, derive_hash, derive_join, derive_project, derive_select, derive_setop,
    Derived, LeafProvider,
};
use crate::join::run_join;
use crate::plan::{del_leaf, ins_leaf, new_state_base, JoinKind, Plan};
use crate::setops::run_setop;

/// Leaf-name → table bindings for evaluation.
#[derive(Debug, Clone, Default)]
pub struct Bindings<'a> {
    tables: HashMap<String, &'a Table>,
}

impl<'a> Bindings<'a> {
    /// Empty bindings.
    pub fn new() -> Bindings<'a> {
        Bindings::default()
    }

    /// Bind every table of a database under its own name.
    pub fn from_database(db: &'a Database) -> Bindings<'a> {
        let mut b = Bindings::new();
        for (name, table) in db.iter() {
            b.bind(name, table);
        }
        b
    }

    /// Bind (or rebind) a leaf name to a table.
    pub fn bind(&mut self, name: impl Into<String>, table: &'a Table) -> &mut Self {
        self.tables.insert(name.into(), table);
        self
    }

    /// Look up a leaf.
    pub fn table(&self, name: &str) -> Result<&'a Table> {
        self.tables.get(name).copied().ok_or_else(|| StorageError::UnknownTable(name.to_string()))
    }
}

impl LeafProvider for Bindings<'_> {
    /// A bound leaf's type; a new-state leaf (`__new.T`) is typed as `T`.
    fn leaf(&self, name: &str) -> Option<Derived> {
        let t = self.tables.get(name).or_else(|| self.tables.get(new_state_base(name)?))?;
        Some(derived_of(t))
    }
}

fn derived_of(t: &Table) -> Derived {
    Derived { schema: t.schema().clone(), key: t.key().to_vec() }
}

/// Evaluate a plan against bindings, producing a keyed table.
///
/// This is a thin wrapper over the streaming executor: the plan is
/// compiled ([`crate::exec::compile()`]) and run once. Callers that evaluate
/// the same plan repeatedly should compile once themselves and reuse the
/// [`crate::exec::PhysicalPlan`]. Callers that want the plan optimized
/// should run it through [`crate::optimizer::optimize`] first — evaluation
/// itself never rewrites, so the higher layers control that each plan is
/// optimized exactly once.
pub fn evaluate(plan: &Plan, bindings: &Bindings<'_>) -> Result<Table> {
    crate::exec::compile(plan, bindings)?.run(bindings)
}

/// `table`'s new state as the plain union `(T ▷ __del.T) ∪ __ins.T`, the
/// anti-join on the key of `T` as bound.
fn new_state_union(table: &str, bindings: &Bindings<'_>) -> Result<Plan> {
    let t = bindings.table(table)?;
    let key = t.key().iter().map(|&k| t.schema().field(k).name.clone());
    let kept = Plan::Join {
        left: Box::new(Plan::scan(table)),
        right: Box::new(Plan::scan(del_leaf(table))),
        kind: JoinKind::Anti,
        on: key.map(|k| (k.clone(), k)).collect(),
    };
    Ok(kept.union(Plan::scan(ins_leaf(table))))
}

/// The legacy recursive evaluator: materializes a keyed [`Table`] (index
/// included) at *every* node and clones the entire bound relation at every
/// `Scan`, reading a new-state leaf as its plain union. Kept as the
/// baseline the streaming executor is property-tested against
/// (`tests/exec_prop.rs`) and benchmarked against (`fig_exec`); new code
/// should call [`evaluate`].
pub fn evaluate_materializing(plan: &Plan, bindings: &Bindings<'_>) -> Result<Table> {
    match plan {
        Plan::Scan { table } => match new_state_base(table) {
            Some(base) => evaluate_materializing(&new_state_union(base, bindings)?, bindings),
            None => Ok(bindings.table(table)?.clone()),
        },
        Plan::Select { input, predicate } => {
            let child = evaluate_materializing(input, bindings)?;
            let out = derive_select(&derived_of(&child), predicate)?;
            let pred = predicate.bind(child.schema())?;
            // Filtering a keyed table keeps keys unique; the surviving rows
            // are shared, not copied.
            let mut rows = child.into_rows();
            rows.retain(|r| pred.matches(r));
            Table::from_unique_rows(out.schema, out.key, rows)
        }
        Plan::Project { input, columns } => {
            let child = evaluate_materializing(input, bindings)?;
            let out = derive_project(&derived_of(&child), columns)?;
            let bound: Vec<_> =
                columns.iter().map(|(_, e)| e.bind(child.schema())).collect::<Result<_>>()?;
            let rows = child.rows().iter().map(|r| bound.iter().map(|e| e.eval(r)).collect());
            Table::from_rows(out.schema, out.key, rows.collect::<Vec<SharedRow>>())
        }
        Plan::Join { left, right, kind, on } => {
            let l = evaluate_materializing(left, bindings)?;
            let r = evaluate_materializing(right, bindings)?;
            let (out, on_idx) =
                derive_join(&derived_of(&l), &derived_of(&r), *kind, on, right.name_hint())?;
            run_join(&l, &r, *kind, &on_idx, &out)
        }
        Plan::Aggregate { input, group_by, aggregates } => {
            let child = evaluate_materializing(input, bindings)?;
            let out = derive_aggregate(&derived_of(&child), group_by, aggregates)?;
            let group_idx = child.schema().resolve_all(group_by)?;
            let aggs = bind_aggs(aggregates, child.schema())?;
            run_aggregate(&child, &group_idx, &aggs, &out, None)
        }
        Plan::SetOp { kind, left, right } => {
            let l = evaluate_materializing(left, bindings)?;
            let r = evaluate_materializing(right, bindings)?;
            let out = derive_setop(&derived_of(&l), &derived_of(&r), *kind)?;
            run_setop(*kind, &l, &r, &out)
        }
        Plan::Hash { input, key, ratio, spec } => {
            let child = evaluate_materializing(input, bindings)?;
            let out = derive_hash(&derived_of(&child), key, *ratio)?;
            let key_idx = child.schema().resolve_all(key)?;
            // Hash the key columns in place (no KeyTuple allocation) and
            // share the selected rows.
            let mut rows = child.into_rows();
            rows.retain(|r| spec.selects_row(r, &key_idx, *ratio));
            Table::from_unique_rows(out.schema, out.key, rows)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{AggFunc, AggSpec};
    use crate::plan::JoinKind;
    use crate::scalar::{col, lit};
    use svc_storage::{DataType, HashSpec, Schema, Value};

    /// The paper's running example: Log(sessionId, videoId),
    /// Video(videoId, ownerId, duration).
    fn video_db() -> Database {
        let mut db = Database::new();
        let mut video = Table::new(
            Schema::from_pairs(&[
                ("videoId", DataType::Int),
                ("ownerId", DataType::Int),
                ("duration", DataType::Float),
            ])
            .unwrap(),
            &["videoId"],
        )
        .unwrap();
        for v in 0..20i64 {
            video
                .insert(vec![Value::Int(v), Value::Int(v % 5), Value::Float(0.5 + v as f64 * 0.1)])
                .unwrap();
        }
        let mut log = Table::new(
            Schema::from_pairs(&[("sessionId", DataType::Int), ("videoId", DataType::Int)])
                .unwrap(),
            &["sessionId"],
        )
        .unwrap();
        for s in 0..200i64 {
            log.insert(vec![Value::Int(s), Value::Int(s % 20)]).unwrap();
        }
        db.create_table("video", video);
        db.create_table("log", log);
        db
    }

    fn visit_view() -> Plan {
        Plan::scan("log")
            .join(Plan::scan("video"), JoinKind::Inner, &[("videoId", "videoId")])
            .aggregate(
                &["videoId"],
                vec![
                    AggSpec::count_all("visitCount"),
                    AggSpec::new("maxDuration", AggFunc::Max, col("duration")),
                ],
            )
    }

    #[test]
    fn visit_view_counts_visits() {
        let db = video_db();
        let b = Bindings::from_database(&db);
        let t = evaluate(&visit_view(), &b).unwrap();
        assert_eq!(t.len(), 20);
        for row in t.rows() {
            assert_eq!(row[1], Value::Int(10)); // 200 sessions over 20 videos
        }
    }

    #[test]
    fn select_over_view() {
        let db = video_db();
        let b = Bindings::from_database(&db);
        let plan = visit_view().select(col("videoId").lt(lit(5i64)));
        let t = evaluate(&plan, &b).unwrap();
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn generalized_projection_adds_columns() {
        let db = video_db();
        let b = Bindings::from_database(&db);
        let plan = visit_view().project(vec![
            ("videoId", col("videoId")),
            ("visitsPerMin", col("visitCount").div(col("maxDuration"))),
        ]);
        let t = evaluate(&plan, &b).unwrap();
        assert_eq!(t.schema().names(), vec!["videoId", "visitsPerMin"]);
        assert_eq!(t.len(), 20);
    }

    #[test]
    fn hash_node_samples_by_key() {
        let db = video_db();
        let b = Bindings::from_database(&db);
        let spec = HashSpec::with_seed(11);
        let plan = visit_view().hash(&["videoId"], 0.5, spec);
        let t = evaluate(&plan, &b).unwrap();
        assert!(t.len() < 20 && !t.is_empty(), "sampled {} of 20", t.len());
        // Idempotence: hashing the sample again with the same spec keeps it.
        let again =
            Plan::Hash { input: Box::new(plan), key: vec!["videoId".into()], ratio: 0.5, spec };
        let t2 = evaluate(&again, &b).unwrap();
        assert!(t2.same_contents(&t));
    }

    #[test]
    fn global_aggregate_single_row() {
        let db = video_db();
        let b = Bindings::from_database(&db);
        let plan = Plan::scan("log").aggregate(&[], vec![AggSpec::count_all("n")]);
        let t = evaluate(&plan, &b).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.rows()[0][0], Value::Int(200));
    }

    #[test]
    fn missing_binding_errors() {
        let b = Bindings::new();
        assert!(evaluate(&Plan::scan("nope"), &b).is_err());
    }
}
