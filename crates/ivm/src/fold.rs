//! The keyed change-table fold: apply one signed change table to a keyed
//! aggregate relation — the materialized view, or a hash sample of it — by
//! group key.
//!
//! A change table is evaluated once and folded. The strategy hands it over
//! as two keyed tables, γ(∆) and γ(∇) (`strategy::change_table_expr`); the
//! fold walks them once, nets a group that appears on both sides, looks the
//! group up in the target, merges a matched group, inserts an unmatched one
//! and drops a group whose `__svc_cnt` falls to zero — O(|change|) per fold,
//! whatever the size of the target. The arithmetic is the plan form's own
//! (`net_columns`, `negated_columns`, `merged_columns`, `group_is_live`), so
//! the fold equals evaluating `strategy::maintenance_plan`'s merge — which
//! embeds the change table three times and each of its sides three times
//! more, and which nothing runs — exactly.
//!
//! The target only has to be keyed by the group columns: `MaterializedView`
//! folds into a copy of the view, the mini-batch pipeline into its shadow,
//! and `SvcView::clean_sample` folds η(γ(∆)), η(γ(∇)) into a copy of the
//! stale sample — the sample *is* η(S), and matched / new / dead groups are
//! the fold's three cases.
//!
//! Edits are *staged* ([`StagedEdits`]) before they are applied, so a caller
//! can fold several change tables, fail or retry anywhere in between, and
//! only then commit: staging reads the target, applying is infallible.

use std::collections::HashMap;

use svc_relalg::scalar::{BoundExpr, Expr};
use svc_storage::{Field, KeyTuple, Result, Row, Schema, StorageError, Table};

use crate::canon::Canonical;
use crate::delta::Signed;
use crate::strategy::{
    group_is_live, merged_columns, negated_columns, net_columns, CanonNames, CHANGE_PREFIX,
    DEL_PREFIX,
};

/// The fold of one view, bound once: the plan form's column expressions over
/// rows laid side by side, and the liveness predicate over a canonical row.
#[derive(Debug)]
pub struct KeyedFold {
    key: Vec<usize>,
    /// `net_columns` over a group's γ(∆) row followed by its γ(∇) row.
    net: Vec<BoundExpr>,
    /// `negated_columns` over a γ(∇) row.
    negated: Vec<BoundExpr>,
    /// `merged_columns` over a stale row followed by its group's change row.
    merge: Vec<BoundExpr>,
    live: BoundExpr,
}

/// Keyed edits staged against a target table and not yet applied: the new
/// row of every touched group, or `None` for a group that died. Kept in
/// first-touch order so applying them is deterministic.
#[derive(Debug, Default)]
pub struct StagedEdits {
    edits: Vec<(KeyTuple, Option<Row>)>,
    index: HashMap<KeyTuple, usize>,
}

impl StagedEdits {
    /// Commit the staged edits to `target` — the table they were staged
    /// against. Cannot fail part-way: every row was validated while staging.
    pub fn apply(self, target: &mut Table) {
        target.apply_edits(self.edits);
    }
}

/// `schema` with every column renamed to `{prefix}{name}`.
fn prefixed(schema: &Schema, prefix: &str) -> Vec<Field> {
    schema.fields().iter().map(|f| Field::new(format!("{prefix}{}", f.name), f.dtype)).collect()
}

fn bind_all(columns: &[(String, Expr)], fields: Vec<Field>) -> Result<Vec<BoundExpr>> {
    let schema = Schema::new(fields)?;
    columns.iter().map(|(_, e)| e.bind(&schema)).collect()
}

/// `exprs` over `left` followed by `right`, laid out in `scratch`.
fn beside(scratch: &mut Row, left: &Row, right: &Row, exprs: &[BoundExpr]) -> Row {
    scratch.clear();
    scratch.extend_from_slice(left);
    scratch.extend_from_slice(right);
    exprs.iter().map(|e| e.eval(scratch)).collect()
}

impl KeyedFold {
    /// Bind the fold of `canonical` against the schema and key of its
    /// materialized `view` table (or of a sample of it). Errors for views
    /// outside the change-table class (non-aggregates, median).
    pub fn new(canonical: &Canonical, view: &Table) -> Result<KeyedFold> {
        let schema = view.schema();
        let shape = canonical.agg.as_ref().ok_or_else(|| {
            StorageError::Invalid("change-table fold requires an aggregate view".into())
        })?;
        let names = CanonNames::new(schema, shape.group_by.len())?;
        // Two rows side by side, as the joins of the plan form lay them out.
        let side_by_side = |prefix: &str| {
            let mut fields = schema.fields().to_vec();
            fields.extend(prefixed(schema, prefix));
            fields
        };
        Ok(KeyedFold {
            key: view.key().to_vec(),
            net: bind_all(&net_columns(&names), side_by_side(DEL_PREFIX))?,
            negated: bind_all(&negated_columns(&names), prefixed(schema, DEL_PREFIX))?,
            merge: bind_all(&merged_columns(shape, &names)?, side_by_side(CHANGE_PREFIX))?,
            live: group_is_live().bind(schema)?,
        })
    }

    /// Stage the fold of the signed `change` (γ(∆), γ(∇)) into `target` on
    /// top of the edits already in `staged` (a group touched twice merges
    /// with its staged row). Reads `target`, writes only `staged`.
    pub fn stage(
        &self,
        target: &Table,
        staged: &mut StagedEdits,
        change: &Signed<Table>,
    ) -> Result<()> {
        let width = self.merge.len();
        let sides = || change.ins.iter().chain(&change.del);
        if target.schema().len() != width || sides().any(|c| c.schema().len() != width) {
            return Err(StorageError::Invalid(format!(
                "change-table fold over {width} columns got a {}-column view and change tables \
                 of {:?} columns",
                target.schema().len(),
                sides().map(|c| c.schema().len()).collect::<Vec<_>>()
            )));
        }
        if target.key() != self.key || sides().any(|c| c.key() != self.key) {
            return Err(StorageError::Invalid(
                "change-table fold: view and change table must be keyed by the group columns"
                    .into(),
            ));
        }
        // The signed change table row by row, in the plan form's three cases:
        // groups of γ(∆), netted when γ(∇) has them too, then γ(∇)-only ones.
        let mut scratch: Row = Vec::with_capacity(2 * width);
        let key_of = |row: &Row| KeyTuple::of(row, &self.key);
        for row in change.ins.iter().flat_map(|ins| ins.rows()) {
            match change.del.as_ref().and_then(|del| del.get(&key_of(row))) {
                Some(deleted) => {
                    let net = beside(&mut scratch, row, deleted, &self.net);
                    self.stage_row(target, staged, &net, &mut scratch);
                }
                None => self.stage_row(target, staged, row, &mut scratch),
            }
        }
        for row in change.del.iter().flat_map(|del| del.rows()) {
            if change.ins.as_ref().is_some_and(|ins| ins.contains_key(&key_of(row))) {
                continue;
            }
            let negated = self.negated.iter().map(|e| e.eval(row)).collect();
            self.stage_row(target, staged, &negated, &mut scratch);
        }
        Ok(())
    }

    /// Stage one change row: merge it with its group's current row (staged
    /// edits overlay the target), or insert it, or drop the group.
    fn stage_row(&self, target: &Table, staged: &mut StagedEdits, delta: &Row, scratch: &mut Row) {
        let key = KeyTuple::of(delta, &self.key);
        let slot = staged.index.get(&key).copied();
        let current = match slot {
            Some(i) => staged.edits[i].1.as_ref(),
            None => target.get(&key),
        };
        let next = match current {
            Some(current) => beside(scratch, current, delta, &self.merge),
            None => delta.clone(),
        };
        let next = self.live.matches(&next).then_some(next);
        match slot {
            Some(i) => staged.edits[i].1 = next,
            // A dead group the target never held needs no edit.
            None if next.is_none() && current.is_none() => {}
            None => {
                staged.index.insert(key.clone(), staged.edits.len());
                staged.edits.push((key, next));
            }
        }
    }

    /// Fold the signed `change` into `target` in place.
    pub fn fold(&self, target: &mut Table, change: &Signed<Table>) -> Result<()> {
        let mut staged = StagedEdits::default();
        self.stage(target, &mut staged, change)?;
        staged.apply(target);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use svc_relalg::aggregate::{AggFunc, AggSpec};
    use svc_relalg::derive::{derive, Derived};
    use svc_relalg::eval::{evaluate, Bindings};
    use svc_relalg::plan::Plan;
    use svc_relalg::scalar::col;
    use svc_storage::{DataType, Database, Value};

    use super::*;
    use crate::canon::canonicalize;
    use crate::strategy::{merge_with_stale, signed_change_plan, MaintCatalog, STALE_LEAF};

    struct Rng(svc_fault::SplitMix64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0.below(n)
        }

        /// NULL one time in `null_in`, else a value in `[-range, range]`
        /// (quarter steps for floats).
        fn measure(&mut self, dtype: DataType, range: i64, null_in: u64) -> Value {
            if self.below(null_in) == 0 {
                return Value::Null;
            }
            let v = self.below(2 * range as u64 + 1) as i64 - range;
            match dtype {
                DataType::Float => Value::Float(v as f64 * 0.25),
                _ => Value::Int(v),
            }
        }
    }

    /// A base table whose only job is to type the view: `t(id, g, h, x, y)`.
    fn base_db() -> Database {
        let mut db = Database::new();
        let schema = Schema::from_pairs(&[
            ("id", DataType::Int),
            ("g", DataType::Int),
            ("h", DataType::Int),
            ("x", DataType::Int),
            ("y", DataType::Float),
        ])
        .unwrap();
        db.create_table("t", Table::new(schema, &["id"]).unwrap());
        db
    }

    /// Additive rules only (count, Int and Float sums, avg) — or, for the
    /// insert-only case, with min/max on top.
    fn view(with_min_max: bool) -> Plan {
        let mut aggs = vec![
            AggSpec::new("nx", AggFunc::Count, col("x")),
            AggSpec::new("sx", AggFunc::Sum, col("x")),
            AggSpec::new("sy", AggFunc::Sum, col("y")),
            AggSpec::new("ay", AggFunc::Avg, col("y")),
        ];
        if with_min_max {
            aggs.push(AggSpec::new("lo", AggFunc::Min, col("y")));
            aggs.push(AggSpec::new("hi", AggFunc::Max, col("x")));
        }
        Plan::scan("t").aggregate(&["g", "h"], aggs)
    }

    /// A random canonical-shaped table over groups `(g, h)` drawn from
    /// `groups`. `signed` draws `__svc_cnt` (column 2) from `[-3, 3]`
    /// instead of `[1, 4]`.
    fn random_table(
        rng: &mut Rng,
        like: &Derived,
        groups: u64,
        rows: usize,
        signed: bool,
    ) -> Table {
        let mut t = Table::with_key_indices(like.schema.clone(), like.key.clone()).unwrap();
        for _ in 0..rows {
            let g = rng.below(groups) as i64;
            let mut row = vec![Value::Int(g / 4), Value::Int(g % 4)];
            let cnt = if signed { rng.below(7) as i64 - 3 } else { 1 + rng.below(4) as i64 };
            row.push(Value::Int(cnt));
            for f in &like.schema.fields()[3..] {
                row.push(rng.measure(f.dtype, 40, 4));
            }
            // Duplicate groups are simply skipped.
            let _ = t.insert(row);
        }
        t
    }

    /// The exact negation of `row`'s aggregates: folding it kills the group.
    fn negated(row: &Row) -> Row {
        let mut out = row[..2].to_vec();
        out.extend(row[2..].iter().map(|v| match v {
            Value::Int(i) => Value::Int(-i),
            Value::Float(x) => Value::Float(-x),
            other => other.clone(),
        }));
        out
    }

    /// Fold `changes` one at a time with the merge *plan* — the reference:
    /// `signed_change_plan` over the two sides, merged by `merge_with_stale`.
    fn plan_fold(
        db: &mut Database,
        canonical: &Canonical,
        stale: &Table,
        changes: &[Signed<Table>],
    ) -> Table {
        let like = Derived { schema: stale.schema().clone(), key: stale.key().to_vec() };
        let names = CanonNames::new(stale.schema(), stale.key().len()).unwrap();
        let mut current = stale.clone();
        for change in changes {
            // The reference plan reads each side it has under its own name.
            let mut bound = |name: &str, side: &Option<Table>| {
                side.as_ref().map(|table| {
                    db.create_table(name, table.clone());
                    Plan::scan(name)
                })
            };
            let scans =
                Signed { ins: bound("chg_ins", &change.ins), del: bound("chg_del", &change.del) };
            let cat = MaintCatalog { db, stale: like.clone() };
            let change = signed_change_plan(&names, scans).expect("one side is present");
            let plan = merge_with_stale(canonical, &cat, change).unwrap();
            let mut b = Bindings::from_database(db);
            b.bind(STALE_LEAF, &current);
            current = evaluate(&plan, &b).unwrap();
        }
        current
    }

    /// A single signed table, as a change with no γ(∇) side.
    fn ins_only(change: Table) -> Signed<Table> {
        Signed { ins: Some(change), del: None }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Keyed fold ≡ the merge plan on the same `(stale, γ(∆), γ(∇)…)`
        /// input, exactly (`same_contents`): every mix of sides (∆ only, ∇
        /// only, both — groups on one side, on both, netting to zero), new
        /// groups, groups deleted to zero and re-inserted, dead groups the
        /// view never held, NULL aggregates, Int and Float additive columns
        /// and insert-only min/max — both applied per change table and
        /// staged across all of them.
        #[test]
        fn keyed_fold_equals_the_merge_plan(
            seed in 1u64..u64::MAX,
            groups in 4u64..40,
            stale_rows in 0usize..40,
            change_rows in 1usize..30,
            n_changes in 1usize..4,
            with_min_max in 0u8..2,
        ) {
            let with_min_max = with_min_max == 1;
            let mut rng = Rng(svc_fault::SplitMix64::new(seed));
            let mut db = base_db();
            let canonical = canonicalize(&view(with_min_max));
            let like = derive(&canonical.plan, &db).unwrap();
            let stale = random_table(&mut rng, &like, groups, stale_rows, false);
            let changes: Vec<Signed<Table>> = (0..n_changes)
                .map(|_| {
                    // Min/max merge only under insert-only deltas.
                    let mut c = random_table(&mut rng, &like, groups, change_rows, !with_min_max);
                    if with_min_max {
                        return ins_only(c);
                    }
                    for row in stale.rows().iter().filter(|_| rng.below(5) == 0) {
                        c.upsert(negated(row)).unwrap();
                    }
                    // γ(∇): absent, or its own groups — some of γ(∆)'s among
                    // them, one in four of those cancelling it exactly.
                    let mut del = random_table(&mut rng, &like, groups, change_rows, false);
                    for row in c.rows().iter().filter(|_| rng.below(4) == 0) {
                        del.upsert(row.clone()).unwrap();
                    }
                    match rng.below(3) {
                        0 => ins_only(c),
                        1 => Signed { ins: None, del: Some(del) },
                        _ => Signed { ins: Some(c), del: Some(del) },
                    }
                })
                .collect();
            let expected = plan_fold(&mut db, &canonical, &stale, &changes);

            let fold = KeyedFold::new(&canonical, &stale).unwrap();
            let mut one_by_one = stale.clone();
            for c in &changes {
                fold.fold(&mut one_by_one, c).unwrap();
            }
            prop_assert!(
                one_by_one.same_contents(&expected),
                "per-table fold diverged from the merge plan (seed {seed})"
            );

            let mut staged = StagedEdits::default();
            for c in &changes {
                fold.stage(&stale, &mut staged, c).unwrap();
            }
            let mut at_once = stale.clone();
            staged.apply(&mut at_once);
            prop_assert!(
                at_once.same_contents(&expected),
                "staged fold diverged from the merge plan (seed {seed})"
            );
        }
    }

    #[test]
    fn staging_reads_the_target_and_writes_only_the_staged_edits() {
        let db = base_db();
        let canonical = canonicalize(&view(false));
        let like = derive(&canonical.plan, &db).unwrap();
        let mut rng = Rng(svc_fault::SplitMix64::new(7));
        let stale = random_table(&mut rng, &like, 12, 12, false);
        let change = ins_only(random_table(&mut rng, &like, 12, 12, true));
        let before = stale.clone();
        let fold = KeyedFold::new(&canonical, &stale).unwrap();
        let mut staged = StagedEdits::default();
        fold.stage(&stale, &mut staged, &change).unwrap();
        assert!(stale.same_contents(&before));
        let mut folded = stale.clone();
        staged.apply(&mut folded);
        assert!(!folded.same_contents(&before), "the staged edits carry the change");
    }

    #[test]
    fn views_outside_the_change_table_class_do_not_bind() {
        let db = base_db();
        let median = canonicalize(
            &Plan::scan("t").aggregate(&["g"], vec![AggSpec::new("m", AggFunc::Median, col("y"))]),
        );
        let like = derive(&median.plan, &db).unwrap();
        let empty = Table::with_key_indices(like.schema, like.key).unwrap();
        assert!(KeyedFold::new(&median, &empty).is_err());
        let spj = canonicalize(&Plan::scan("t"));
        assert!(KeyedFold::new(&spj, db.table("t").unwrap()).is_err());
    }

    #[test]
    fn mismatched_change_tables_are_rejected() {
        let db = base_db();
        let canonical = canonicalize(&view(false));
        let like = derive(&canonical.plan, &db).unwrap();
        let stale = Table::with_key_indices(like.schema.clone(), like.key.clone()).unwrap();
        let fold = KeyedFold::new(&canonical, &stale).unwrap();
        let narrow = db.table("t").unwrap().clone();
        let rekeyed = Table::with_key_indices(like.schema, vec![0]).unwrap();
        for bad in [narrow, rekeyed] {
            let as_del = Signed { ins: None, del: Some(bad.clone()) };
            assert!(fold.stage(&stale, &mut StagedEdits::default(), &as_del).is_err());
            assert!(fold.stage(&stale, &mut StagedEdits::default(), &ins_only(bad)).is_err());
        }
    }
}
