//! Delta relations: the paper's `∂D = {∆R₁..∆Rₖ} ∪ {∇R₁..∇Rₖ}`.
//!
//! Every base relation `R` has an insertion relation `∆R` and a deletion
//! relation `∇R` with the same schema and key. An *update* to an existing
//! record is modeled as a deletion followed by an insertion (Section 3.1).
//! A view is *stale* as soon as any delta relation is non-empty.

use std::collections::BTreeMap;

use crate::database::Database;
use crate::error::{Result, StorageError};
use crate::table::Table;
use crate::value::Value;
use crate::SharedRow;

/// Pending insertions and deletions for one base relation.
#[derive(Debug, Clone)]
pub struct DeltaSet {
    /// `∆R`: rows to insert (full rows).
    pub insertions: Table,
    /// `∇R`: rows to delete (full old rows, so delta plans can join them).
    pub deletions: Table,
}

impl DeltaSet {
    /// Empty deltas shaped like `base`.
    pub fn empty_like(base: &Table) -> DeltaSet {
        DeltaSet { insertions: base.empty_like(), deletions: base.empty_like() }
    }

    /// True iff there are neither insertions nor deletions.
    pub fn is_empty(&self) -> bool {
        self.insertions.is_empty() && self.deletions.is_empty()
    }

    /// Total number of delta records.
    pub fn len(&self) -> usize {
        self.insertions.len() + self.deletions.len()
    }
}

/// All pending deltas, by table name. This is the `∂D` handed to a
/// maintenance strategy `M(S, D, ∂D)`.
#[derive(Debug, Clone, Default)]
pub struct Deltas {
    sets: BTreeMap<String, DeltaSet>,
}

impl Deltas {
    /// No pending changes.
    pub fn new() -> Deltas {
        Deltas::default()
    }

    /// The delta set for `table`, if any changes are pending.
    pub fn get(&self, table: &str) -> Option<&DeltaSet> {
        self.sets.get(table)
    }

    /// Iterate `(table, delta_set)` pairs, sorted by table name.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &DeltaSet)> {
        self.sets.iter().map(|(n, d)| (n.as_str(), d))
    }

    /// True iff no table has pending changes — i.e. no view is stale.
    pub fn is_empty(&self) -> bool {
        self.sets.values().all(DeltaSet::is_empty)
    }

    /// Total number of pending delta records across all tables.
    pub fn len(&self) -> usize {
        self.sets.values().map(DeltaSet::len).sum()
    }

    /// Names of tables with pending changes.
    pub fn touched_tables(&self) -> Vec<&str> {
        self.sets.iter().filter(|(_, d)| !d.is_empty()).map(|(n, _)| n.as_str()).collect()
    }

    fn set_for<'a>(&'a mut self, db: &Database, table: &str) -> Result<&'a mut DeltaSet> {
        if !self.sets.contains_key(table) {
            let base = db.table(table)?;
            self.sets.insert(table.to_string(), DeltaSet::empty_like(base));
        }
        Ok(self.sets.get_mut(table).expect("just inserted"))
    }

    /// Record an insertion of a brand-new row into `table`.
    pub fn insert(&mut self, db: &Database, table: &str, row: impl Into<SharedRow>) -> Result<()> {
        let set = self.set_for(db, table)?;
        set.insertions.insert(row)
    }

    /// Record a deletion of an existing row of `table` (looked up by key in
    /// the *base* table so the deletion relation carries the full old row).
    pub fn delete(&mut self, db: &Database, table: &str, key_row: &[Value]) -> Result<()> {
        let base = db.table(table)?;
        let key = base.key_of(key_row);
        let old = base
            .get(&key)
            .ok_or_else(|| StorageError::Invalid(format!("no row with key {key} in `{table}`")))?
            .clone();
        let set = self.set_for(db, table)?;
        set.deletions.insert(old)
    }

    /// Record an update: delete the current row with `new_row`'s key, then
    /// insert `new_row` (the paper's update = deletion + insertion).
    pub fn update(
        &mut self,
        db: &Database,
        table: &str,
        new_row: impl Into<SharedRow>,
    ) -> Result<()> {
        let new_row = new_row.into();
        self.delete(db, table, &new_row)?;
        let set = self.set_for(db, table)?;
        set.insertions.insert(new_row)
    }

    /// Merge another delta set into this one (e.g. accumulate streamed
    /// update chunks between maintenance periods). Keys must not conflict.
    pub fn merge(&mut self, other: Deltas) -> Result<()> {
        for (name, set) in other.sets {
            match self.sets.get_mut(&name) {
                None => {
                    self.sets.insert(name, set);
                }
                Some(mine) => {
                    for row in set.insertions.rows() {
                        mine.insertions.insert(row.clone())?;
                    }
                    for row in set.deletions.rows() {
                        mine.deletions.insert(row.clone())?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Apply all pending deltas to the base tables (deletions first, then
    /// insertions), clearing this delta set. This is the "commit" that ends
    /// a maintenance period.
    pub fn apply_to(&mut self, db: &mut Database) -> Result<()> {
        for (name, set) in std::mem::take(&mut self.sets) {
            let base = db.table_mut(&name)?;
            for row in set.deletions.rows() {
                let key = base.key_of(row);
                if base.delete(&key).is_none() {
                    return Err(StorageError::Invalid(format!(
                        "deletion of missing key {key} from `{name}`"
                    )));
                }
            }
            for row in set.insertions.rows() {
                base.insert(row.clone())?;
            }
        }
        Ok(())
    }

    /// The subset of this delta set touching only the named tables. Used to
    /// scope a maintenance pass to the tables a view actually reads; delta
    /// sets of other tables are dropped (they stay pending in `self`).
    pub fn restricted_to(&self, tables: &[&str]) -> Deltas {
        Deltas {
            sets: self
                .sets
                .iter()
                .filter(|(name, set)| !set.is_empty() && tables.contains(&name.as_str()))
                .map(|(name, set)| (name.clone(), set.clone()))
                .collect(),
        }
    }

    /// Split the pending deltas row-wise into at most `parts` chunks of
    /// near-equal size (insertions and deletions of every table are dealt
    /// round-robin). Keys stay unique within each chunk because they were
    /// unique in `self`; merging the chunks back reproduces `self` exactly.
    /// Chunks that would be empty are omitted, so short tails never produce
    /// zero-record partitions.
    ///
    /// Consumes the delta set: every row is *moved* into its chunk — the
    /// mini-batch path partitions the full pending stream per batch, and
    /// cloning each row (with its boxed values) dominated that hot path.
    /// Callers that still need the original clone it explicitly.
    pub fn partition(self, parts: usize) -> Vec<Deltas> {
        let parts = parts.max(1);
        let mut out: Vec<Deltas> = (0..parts).map(|_| Deltas::new()).collect();
        for (name, set) in self.sets {
            if set.is_empty() {
                continue;
            }
            for chunk in out.iter_mut() {
                chunk
                    .sets
                    .entry(name.clone())
                    .or_insert_with(|| DeltaSet::empty_like(&set.insertions));
            }
            let deletions = set.deletions.into_rows();
            for (i, row) in set.insertions.into_rows().into_iter().enumerate() {
                let target = out[i % parts].sets.get_mut(&name).expect("chunk set");
                target.insertions.insert(row).expect("unique keys split uniquely");
            }
            for (i, row) in deletions.into_iter().enumerate() {
                let target = out[i % parts].sets.get_mut(&name).expect("chunk set");
                target.deletions.insert(row).expect("unique keys split uniquely");
            }
        }
        out.retain(|d| !d.is_empty());
        out
    }

    /// Build the *new state* of one base table without touching the
    /// database: `(R − ∇R) ∪ ∆R`. Used by recomputation maintenance and as
    /// ground truth in tests.
    pub fn applied_state(&self, db: &Database, table: &str) -> Result<Table> {
        let base = db.table(table)?;
        let mut out = base.clone();
        if let Some(set) = self.sets.get(table) {
            for row in set.deletions.rows() {
                let key = out.key_of(row);
                out.delete(&key);
            }
            for row in set.insertions.rows() {
                out.insert(row.clone())?;
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::table::KeyTuple;
    use crate::value::{DataType, Value};

    fn db() -> Database {
        let mut db = Database::new();
        let mut t = Table::new(
            Schema::from_pairs(&[("id", DataType::Int), ("v", DataType::Int)]).unwrap(),
            &["id"],
        )
        .unwrap();
        for i in 0..5 {
            t.insert(vec![Value::Int(i), Value::Int(i * 10)]).unwrap();
        }
        db.create_table("t", t);
        db
    }

    #[test]
    fn insert_delete_update_roundtrip() {
        let mut db = db();
        let mut deltas = Deltas::new();
        deltas.insert(&db, "t", vec![Value::Int(100), Value::Int(1)]).unwrap();
        deltas.delete(&db, "t", &[Value::Int(0), Value::Null]).unwrap();
        deltas.update(&db, "t", vec![Value::Int(3), Value::Int(999)]).unwrap();

        assert!(!deltas.is_empty());
        assert_eq!(deltas.len(), 4); // 2 ins + 2 del
        assert_eq!(deltas.touched_tables(), vec!["t"]);

        let applied = deltas.applied_state(&db, "t").unwrap();
        assert_eq!(applied.len(), 5); // 5 - 2 + 2
        assert_eq!(applied.get(&KeyTuple(vec![Value::Int(3)])).unwrap()[1], Value::Int(999));
        assert!(applied.get(&KeyTuple(vec![Value::Int(0)])).is_none());

        deltas.apply_to(&mut db).unwrap();
        assert!(deltas.is_empty());
        assert!(db.table("t").unwrap().same_contents(&applied));
    }

    #[test]
    fn partition_round_trips_and_skips_empty_chunks() {
        let mut db = db();
        let mut deltas = Deltas::new();
        for i in 100..107i64 {
            deltas.insert(&db, "t", vec![Value::Int(i), Value::Int(1)]).unwrap();
        }
        deltas.delete(&db, "t", &[Value::Int(0), Value::Null]).unwrap();
        deltas.delete(&db, "t", &[Value::Int(1), Value::Null]).unwrap();

        let chunks = deltas.clone().partition(4);
        assert!(chunks.len() <= 4 && !chunks.is_empty());
        assert!(chunks.iter().all(|c| !c.is_empty()), "no empty chunks");
        assert_eq!(chunks.iter().map(Deltas::len).sum::<usize>(), deltas.len());

        // Merging the chunks back reproduces the original delta set.
        let mut merged = Deltas::new();
        for c in &chunks {
            merged.merge(c.clone()).unwrap();
        }
        let direct = deltas.applied_state(&db, "t").unwrap();
        let via_chunks = merged.applied_state(&db, "t").unwrap();
        assert!(direct.same_contents(&via_chunks));

        // Far more parts than records: every chunk still carries work.
        let wide = deltas.clone().partition(64);
        assert!(wide.len() <= deltas.len());
        assert!(wide.iter().all(|c| !c.is_empty()));

        deltas.apply_to(&mut db).unwrap();
    }

    #[test]
    fn delete_of_missing_row_is_rejected() {
        let db = db();
        let mut deltas = Deltas::new();
        let err = deltas.delete(&db, "t", &[Value::Int(42), Value::Null]);
        assert!(err.is_err());
    }

    #[test]
    fn update_preserves_key() {
        let db = db();
        let mut deltas = Deltas::new();
        deltas.update(&db, "t", vec![Value::Int(2), Value::Int(-1)]).unwrap();
        let set = deltas.get("t").unwrap();
        assert_eq!(set.insertions.len(), 1);
        assert_eq!(set.deletions.len(), 1);
        // The deletion carries the full OLD row.
        assert_eq!(*set.deletions.rows()[0], [Value::Int(2), Value::Int(20)]);
    }
}
