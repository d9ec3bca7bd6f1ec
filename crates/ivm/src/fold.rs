//! The keyed fold: apply one signed pair of keyed relations — the answer of
//! `strategy::view_delta`, each side evaluated once — to a relation keyed
//! like the view: the materialized view, or a hash sample of it.
//!
//! Two rules, one mechanism. For a **change-table** view the pair is γ(∆) and
//! γ(∇): the fold walks them once, nets a group that appears on both sides,
//! looks the group up in the target, merges a matched group, inserts an
//! unmatched one and drops a group whose `__svc_cnt` falls to zero. The
//! arithmetic is the plan form's own (`net_columns`, `negated_columns`,
//! `merged_columns`, `group_is_live`). For an **SPJ** view the pair is ∆V and
//! ∇V: every ∇V key is dropped, then every ∆V row is put — `(S ▷ ∇V) ∪ ∆V`
//! without reading `S`, with the same refusal to store two different rows
//! under one key. Either way the fold costs O(|pair|), whatever the size of
//! the target, and equals evaluating `strategy::maintenance_plan` — which
//! nothing runs — exactly.
//!
//! The target only has to be keyed like the view: the delta runner
//! (`MaterializedView::maintained`) folds into a copy of the view, or, under
//! η, of the stale sample (which *is* η(S): matched / new / dead keys are the
//! fold's three cases); the mini-batch pipeline folds into its shadow.
//!
//! Edits are *staged* ([`StagedEdits`]) before they are applied, so a caller
//! can fold several pairs, fail or retry anywhere in between, and only then
//! commit: staging reads the target, applying is infallible.

use std::collections::HashMap;

use svc_relalg::scalar::{BoundExpr, Expr};
use svc_storage::{Field, KeyTuple, Result, Row, Schema, StorageError, Table};

use crate::canon::{AggShape, Canonical};
use crate::delta::Signed;
use crate::strategy::{
    group_is_live, merged_columns, negated_columns, net_columns, CanonNames, CHANGE_PREFIX,
    DEL_PREFIX,
};

/// The fold of one view, bound once against the view's schema and key.
#[derive(Debug)]
pub struct KeyedFold {
    key: Vec<usize>,
    width: usize,
    /// The merge arithmetic of a change-table view; `None` for an SPJ view,
    /// whose keys are dropped and replaced.
    merge: Option<GroupMerge>,
}

/// The plan form's column expressions over rows laid side by side, and the
/// liveness predicate over a canonical row.
#[derive(Debug)]
struct GroupMerge {
    /// `net_columns` over a group's γ(∆) row followed by its γ(∇) row.
    net: Vec<BoundExpr>,
    /// `negated_columns` over a γ(∇) row.
    negated: Vec<BoundExpr>,
    /// `merged_columns` over a stale row followed by its group's change row.
    merged: Vec<BoundExpr>,
    live: BoundExpr,
}

/// Keyed edits staged against a target table and not yet applied: the new
/// row of every touched key, or `None` for a key that left. Kept in
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

    /// The row under `key` as staged so far — staged edits overlay the target
    /// — and the key's edit slot, if it was touched before.
    fn lookup<'a>(&'a self, target: &'a Table, key: &KeyTuple) -> (Option<usize>, Option<&'a Row>) {
        match self.index.get(key) {
            Some(&slot) => (Some(slot), self.edits[slot].1.as_ref()),
            None => (None, target.get(key)),
        }
    }

    /// Stage `next` as the row under `key`, given what [`Self::lookup`] found
    /// there: its slot and whether it `held` a row.
    fn set(&mut self, slot: Option<usize>, key: KeyTuple, next: Option<Row>, held: bool) {
        match slot {
            Some(slot) => self.edits[slot].1 = next,
            // A dead key the target never held needs no edit.
            None if next.is_none() && !held => {}
            None => {
                self.index.insert(key.clone(), self.edits.len());
                self.edits.push((key, next));
            }
        }
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

/// The rows of one side of a pair, each under its key.
fn keyed_rows<'a>(
    side: &'a Option<Table>,
    key: &'a [usize],
) -> impl Iterator<Item = (KeyTuple, &'a Row)> {
    side.iter().flat_map(|t| t.rows()).map(move |row| (KeyTuple::of(row, key), row))
}

/// `exprs` over `left` followed by `right`, laid out in `scratch`.
fn beside(scratch: &mut Row, left: &Row, right: &Row, exprs: &[BoundExpr]) -> Row {
    scratch.clear();
    scratch.extend_from_slice(left);
    scratch.extend_from_slice(right);
    exprs.iter().map(|e| e.eval(scratch)).collect()
}

impl GroupMerge {
    fn new(shape: &AggShape, schema: &Schema) -> Result<GroupMerge> {
        let names = CanonNames::new(schema, shape.group_by.len())?;
        // Two rows side by side, as the joins of the plan form lay them out.
        let side_by_side = |prefix: &str| {
            let mut fields = schema.fields().to_vec();
            fields.extend(prefixed(schema, prefix));
            fields
        };
        Ok(GroupMerge {
            net: bind_all(&net_columns(&names), side_by_side(DEL_PREFIX))?,
            negated: bind_all(&negated_columns(&names), prefixed(schema, DEL_PREFIX))?,
            merged: bind_all(&merged_columns(shape, &names)?, side_by_side(CHANGE_PREFIX))?,
            live: group_is_live().bind(schema)?,
        })
    }
}

impl KeyedFold {
    /// Bind the fold of `canonical` against the schema and key of its
    /// materialized `view` table (or of a sample of it). Errors for an
    /// aggregate view outside the change-table class (median).
    pub fn new(canonical: &Canonical, view: &Table) -> Result<KeyedFold> {
        let schema = view.schema();
        let merge =
            canonical.agg.as_ref().map(|shape| GroupMerge::new(shape, schema)).transpose()?;
        Ok(KeyedFold { key: view.key().to_vec(), width: schema.len(), merge })
    }

    /// Stage the fold of the signed `change` — γ(∆), γ(∇) or ∆V, ∇V — into
    /// `target` on top of the edits already in `staged` (a key touched twice
    /// continues from its staged row). Reads `target`, writes only `staged`,
    /// and writes nothing when it errors.
    pub fn stage(
        &self,
        target: &Table,
        staged: &mut StagedEdits,
        change: &Signed<Table>,
    ) -> Result<()> {
        let width = self.width;
        let sides = || change.ins.iter().chain(&change.del);
        if target.schema().len() != width || sides().any(|c| c.schema().len() != width) {
            return Err(StorageError::Invalid(format!(
                "keyed fold over {width} columns got a {}-column view and change tables of {:?} \
                 columns",
                target.schema().len(),
                sides().map(|c| c.schema().len()).collect::<Vec<_>>()
            )));
        }
        if target.key() != self.key || sides().any(|c| c.key() != self.key) {
            return Err(StorageError::Invalid(
                "keyed fold: view and change tables must be keyed by the view's key".into(),
            ));
        }
        match &self.merge {
            Some(merge) => self.stage_merge(merge, target, staged, change),
            None => self.stage_replace(target, staged, change)?,
        }
        Ok(())
    }

    /// The change-table rule: the signed change table row by row, in the plan
    /// form's three cases — groups of γ(∆), netted when γ(∇) has them too,
    /// then γ(∇)-only ones — each merged with its group's current row, or
    /// inserted, or the group dropped.
    fn stage_merge(
        &self,
        rule: &GroupMerge,
        target: &Table,
        staged: &mut StagedEdits,
        change: &Signed<Table>,
    ) {
        let mut scratch: Row = Vec::with_capacity(2 * self.width);
        let keyed = |side| keyed_rows(side, &self.key);
        // A change row carries its group's key through unchanged.
        let mut stage_row = |key: KeyTuple, delta: &Row, scratch: &mut Row| {
            let (slot, current) = staged.lookup(target, &key);
            let next = match current {
                Some(current) => beside(scratch, current, delta, &rule.merged),
                None => delta.clone(),
            };
            let held = current.is_some();
            staged.set(slot, key, rule.live.matches(&next).then_some(next), held);
        };
        for (key, row) in keyed(&change.ins) {
            match change.del.as_ref().and_then(|del| del.get(&key)) {
                Some(deleted) => {
                    let net = beside(&mut scratch, row, deleted, &rule.net);
                    stage_row(key, &net, &mut scratch);
                }
                None => stage_row(key, row, &mut scratch),
            }
        }
        for (key, row) in keyed(&change.del) {
            if change.ins.as_ref().is_some_and(|ins| ins.contains_key(&key)) {
                continue;
            }
            let negated = rule.negated.iter().map(|e| e.eval(row)).collect();
            stage_row(key, &negated, &mut scratch);
        }
    }

    /// The SPJ rule — drop every ∇V key, then put every ∆V row: `(S ▷ ∇V) ∪
    /// ∆V` by key.
    fn stage_replace(
        &self,
        target: &Table,
        staged: &mut StagedEdits,
        change: &Signed<Table>,
    ) -> Result<()> {
        let keyed = |side| keyed_rows(side, &self.key);
        // The union holds one row per key: a ∆V row whose key survives ∇V
        // must be the row already there (the plan form's `DuplicateKey`).
        // Checked before anything is staged.
        let survives = |key: &KeyTuple| !change.del.as_ref().is_some_and(|d| d.contains_key(key));
        let clash = |(key, row): &(KeyTuple, &Row)| {
            survives(key) && staged.lookup(target, key).1.is_some_and(|held| held != *row)
        };
        if let Some((key, _)) = keyed(&change.ins).find(clash) {
            return Err(StorageError::DuplicateKey(key.to_string()));
        }
        for (key, _) in keyed(&change.del) {
            let (slot, current) = staged.lookup(target, &key);
            staged.set(slot, key, None, current.is_some());
        }
        for (key, row) in keyed(&change.ins) {
            let (slot, current) = staged.lookup(target, &key);
            // Putting the row a key already holds is no edit.
            if current != Some(row) {
                staged.set(slot, key, Some(row.clone()), current.is_some());
            }
        }
        Ok(())
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
    use crate::strategy::{keyed_plan, MaintCatalog, STALE_LEAF};

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

    /// Fold `changes` one at a time with the *plan* form — the reference:
    /// `keyed_plan` over the two sides, each bound as a scan.
    fn plan_fold(
        db: &mut Database,
        canonical: &Canonical,
        stale: &Table,
        changes: &[Signed<Table>],
    ) -> Result<Table> {
        let like = Derived { schema: stale.schema().clone(), key: stale.key().to_vec() };
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
            let plan = keyed_plan(canonical, &cat, scans).unwrap();
            let mut b = Bindings::from_database(db);
            b.bind(STALE_LEAF, &current);
            current = evaluate(&plan, &b)?;
        }
        Ok(current)
    }

    /// Random signed change tables for the aggregate `view(with_min_max)`
    /// over `stale`.
    fn group_changes(
        rng: &mut Rng,
        stale: &Table,
        like: &Derived,
        (groups, change_rows, n_changes): (u64, usize, usize),
        with_min_max: bool,
    ) -> Vec<Signed<Table>> {
        (0..n_changes)
            .map(|_| {
                // Min/max merge only under insert-only deltas.
                let mut c = random_table(rng, like, groups, change_rows, !with_min_max);
                if with_min_max {
                    return ins_only(c);
                }
                for row in stale.rows().iter().filter(|_| rng.below(5) == 0) {
                    c.upsert(negated(row)).unwrap();
                }
                // γ(∇): absent, or its own groups — some of γ(∆)'s among
                // them, one in four of those cancelling it exactly.
                let mut del = random_table(rng, like, groups, change_rows, false);
                for row in c.rows().iter().filter(|_| rng.below(4) == 0) {
                    del.upsert(row.clone()).unwrap();
                }
                match rng.below(3) {
                    0 => ins_only(c),
                    1 => Signed { ins: None, del: Some(del) },
                    _ => Signed { ins: Some(c), del: Some(del) },
                }
            })
            .collect()
    }

    /// A random row of `t` under `id`.
    fn t_row(rng: &mut Rng, like: &Derived, id: i64) -> Row {
        let mut row = vec![Value::Int(id)];
        row.extend(like.schema.fields()[1..].iter().map(|f| rng.measure(f.dtype, 40, 4)));
        row
    }

    /// Random ∆V / ∇V pairs for the SPJ view `Scan t` over `stale`, each
    /// valid against the state the ones before it leave: ∇V names rows the
    /// view holds and keys it does not (or no longer does); ∆V holds updates
    /// of ∇V's keys, keys the view does not hold (deleted ones among them)
    /// and the odd row the view already holds, unchanged. One pair in three
    /// has only ∆V, one only ∇V.
    fn key_changes(
        rng: &mut Rng,
        stale: &Table,
        like: &Derived,
        (ids, change_rows, n_changes): (u64, usize, usize),
    ) -> Vec<Signed<Table>> {
        let empty = || Table::with_key_indices(like.schema.clone(), like.key.clone()).unwrap();
        let put = |side: &mut Table, row: Row| drop(side.upsert(row).unwrap());
        let mut held = stale.clone();
        (0..n_changes)
            .map(|_| {
                let (mut ins, mut del) = (empty(), empty());
                let sides = rng.below(3);
                for _ in 0..change_rows {
                    let id = rng.below(ids) as i64;
                    let current = held.get(&KeyTuple(vec![Value::Int(id)])).cloned();
                    let fresh = t_row(rng, like, id);
                    match (current, sides, rng.below(3)) {
                        // ∆V alone: a new key, or the row the view holds.
                        (None, 0, _) | (None, 2, 1..) => put(&mut ins, fresh),
                        (Some(row), 0, _) | (Some(row), 2, 1) => put(&mut ins, row),
                        // ∇V: a held row, or a key the view does not hold.
                        (None, ..) => put(&mut del, fresh),
                        (Some(row), 1, _) | (Some(row), 2, 0) => put(&mut del, row),
                        // An update: the key on both sides.
                        (Some(row), ..) => {
                            put(&mut del, row);
                            put(&mut ins, fresh);
                        }
                    }
                }
                for row in del.rows() {
                    held.delete(&del.key_of(row));
                }
                for row in ins.rows() {
                    put(&mut held, row.clone());
                }
                Signed { ins: (sides != 1).then_some(ins), del: (sides != 0).then_some(del) }
            })
            .collect()
    }

    /// A single signed table, as a change with no γ(∇) side.
    fn ins_only(change: Table) -> Signed<Table> {
        Signed { ins: Some(change), del: None }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Keyed fold ≡ the plan form on the same `(stale, pair…)` input,
        /// exactly (`same_contents`), both applied per pair and staged across
        /// all of them. Change tables: every mix of sides (∆ only, ∇ only,
        /// both — groups on one side, on both, netting to zero), new groups,
        /// groups deleted to zero and re-inserted, dead groups the view never
        /// held, NULL aggregates, Int and Float additive columns and
        /// insert-only min/max. SPJ pairs (replace-fold ≡ `(S ▷ ∇V) ∪ ∆V`):
        /// updates (a key on both sides), deletes of absent keys, re-inserted
        /// keys, unchanged rows.
        #[test]
        fn keyed_fold_equals_the_merge_plan(
            seed in 1u64..u64::MAX,
            groups in 4u64..40,
            stale_rows in 0usize..40,
            change_rows in 1usize..30,
            n_changes in 1usize..4,
            shape in 0u8..3,
        ) {
            let mut rng = Rng(svc_fault::SplitMix64::new(seed));
            let mut db = base_db();
            let size = (groups, change_rows, n_changes);
            let (canonical, stale, changes) = if shape == 2 {
                let canonical = canonicalize(&Plan::scan("t"));
                let like = derive(&canonical.plan, &db).unwrap();
                let mut stale = Table::with_key_indices(like.schema.clone(), like.key.clone()).unwrap();
                for _ in 0..stale_rows {
                    let id = rng.below(groups) as i64;
                    let _ = stale.insert(t_row(&mut rng, &like, id));
                }
                let changes = key_changes(&mut rng, &stale, &like, size);
                (canonical, stale, changes)
            } else {
                let canonical = canonicalize(&view(shape == 1));
                let like = derive(&canonical.plan, &db).unwrap();
                let stale = random_table(&mut rng, &like, groups, stale_rows, false);
                let changes = group_changes(&mut rng, &stale, &like, size, shape == 1);
                (canonical, stale, changes)
            };
            let expected = plan_fold(&mut db, &canonical, &stale, &changes).unwrap();

            let fold = KeyedFold::new(&canonical, &stale).unwrap();
            let mut one_by_one = stale.clone();
            for c in &changes {
                fold.fold(&mut one_by_one, c).unwrap();
            }
            prop_assert!(
                one_by_one.same_contents(&expected),
                "per-table fold diverged from the plan form (shape {shape}, seed {seed})"
            );

            let mut staged = StagedEdits::default();
            for c in &changes {
                fold.stage(&stale, &mut staged, c).unwrap();
            }
            let mut at_once = stale.clone();
            staged.apply(&mut at_once);
            prop_assert!(
                at_once.same_contents(&expected),
                "staged fold diverged from the plan form (shape {shape}, seed {seed})"
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
        // An SPJ view binds: its keys are dropped and replaced.
        let spj = canonicalize(&Plan::scan("t"));
        assert!(KeyedFold::new(&spj, db.table("t").unwrap()).is_ok());
    }

    #[test]
    fn mismatched_change_tables_are_rejected() {
        let db = base_db();
        let narrow_schema = Schema::from_pairs(&[("id", DataType::Int), ("g", DataType::Int)]);
        let narrow = Table::new(narrow_schema.unwrap(), &["id"]).unwrap();
        for def in [view(false), Plan::scan("t")] {
            let canonical = canonicalize(&def);
            let like = derive(&canonical.plan, &db).unwrap();
            let stale = Table::with_key_indices(like.schema.clone(), like.key.clone()).unwrap();
            let fold = KeyedFold::new(&canonical, &stale).unwrap();
            let rekeyed = Table::with_key_indices(like.schema, vec![1]).unwrap();
            for bad in [narrow.clone(), rekeyed] {
                let as_del = Signed { ins: None, del: Some(bad.clone()) };
                assert!(fold.stage(&stale, &mut StagedEdits::default(), &as_del).is_err());
                assert!(fold.stage(&stale, &mut StagedEdits::default(), &ins_only(bad)).is_err());
            }
        }
    }

    /// The plan form stores one row per key: a ∆V row whose key survives ∇V
    /// under a different row is its `DuplicateKey`. The fold raises the same
    /// error before it stages anything; the row a key already holds is no
    /// edit, and with the key in ∇V the put replaces.
    #[test]
    fn a_put_over_a_different_row_is_rejected_and_stages_nothing() {
        let mut db = base_db();
        let canonical = canonicalize(&Plan::scan("t"));
        let like = derive(&canonical.plan, &db).unwrap();
        let table = |rows: &[&Row]| {
            let rows = rows.iter().map(|row| (*row).clone()).collect();
            Table::from_rows(like.schema.clone(), like.key.clone(), rows).unwrap()
        };
        let mut rng = Rng(svc_fault::SplitMix64::new(11));
        let (held, new) = (t_row(&mut rng, &like, 1), t_row(&mut rng, &like, 2));
        let mut other = held.clone();
        other[1] = Value::Int(99);
        let stale = table(&[&held]);
        let fold = KeyedFold::new(&canonical, &stale).unwrap();

        // A new key ahead of the conflicting one: neither may be staged.
        let conflict = ins_only(table(&[&new, &other]));
        let mut staged = StagedEdits::default();
        let err = fold.stage(&stale, &mut staged, &conflict).unwrap_err();
        assert!(matches!(err, StorageError::DuplicateKey(_)), "{err}");
        assert!(staged.edits.is_empty(), "a rejected pair stages nothing");
        assert_eq!(plan_fold(&mut db, &canonical, &stale, &[conflict]).unwrap_err(), err);

        fold.stage(&stale, &mut staged, &ins_only(table(&[&held]))).unwrap();
        assert!(staged.edits.is_empty(), "the row the key holds is no edit");
        let update = Signed { ins: Some(table(&[&other])), del: Some(table(&[&held])) };
        let mut updated = stale.clone();
        fold.fold(&mut updated, &update).unwrap();
        assert!(updated.same_contents(&table(&[&other])));
    }
}
