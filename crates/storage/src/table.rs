//! Keyed tables: the physical representation of base relations, derived
//! relations, and materialized views.
//!
//! Every table carries a *primary key* (a subset of columns) as required by
//! Section 3.1 of the paper: "we assume that each of the base relations has
//! a primary key; if this is not the case, we can always add an extra column
//! that assigns an increasing sequence of integers to each record". Derived
//! relations receive keys via the Definition 2 rules in `svc-relalg`.
//!
//! Rows are the write form. Readers get two things per table state, both
//! built on first read and dropped by the next mutation:
//! * typed columns ([`Table::column`]), one cache slot per column, never
//!   built for a reader that does not name it — what plan execution and
//!   every query answer read;
//! * exact query answers ([`Table::memoized`]), one `f64` per query key, so
//!   a burst of the same query over an unchanged state reads it once.
//!
//! [`Table::release_columns`] drops the columns of a superseded state but
//! keeps its answers: they are a number each, not a copy of the rows.

use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::columns::{self, Column, ColumnSet};
use crate::error::{Result, StorageError};
use crate::schema::Schema;
use crate::value::Value;
use crate::Row;

/// The value tuple of a row's primary key; hashable and comparable.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KeyTuple(pub Vec<Value>);

impl KeyTuple {
    /// Extract the key tuple of `row` given key column positions.
    pub fn of(row: &Row, key_cols: &[usize]) -> KeyTuple {
        KeyTuple(key_cols.iter().map(|&i| row[i].clone()).collect())
    }

    /// Hash the `key_cols` of `row` in place — the borrow-based companion
    /// of [`KeyTuple::of`] for probe paths that only need a hash code: no
    /// `Vec` is allocated and no `Value` is cloned. Two rows whose key
    /// columns are equal (`Value::eq`) always hash equally; callers verify
    /// candidate matches by comparing the columns themselves.
    #[inline]
    pub fn hash_of(row: &[Value], key_cols: &[usize]) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for &i in key_cols {
            row[i].hash(&mut h);
        }
        h.finish()
    }

    /// Column-wise equality of two rows' key projections, without
    /// extracting either tuple. Pairs with [`KeyTuple::hash_of`] to verify
    /// hash-map candidates on join/group probe paths.
    #[inline]
    pub fn cols_eq(a: &[Value], a_cols: &[usize], b: &[Value], b_cols: &[usize]) -> bool {
        a_cols.len() == b_cols.len() && a_cols.iter().zip(b_cols).all(|(&i, &j)| a[i] == b[j])
    }
}

impl fmt::Display for KeyTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

/// An in-memory relation: a schema, a primary key, and rows with a key
/// index for point lookups, updates, and deletes.
#[derive(Debug)]
pub struct Table {
    schema: Schema,
    key: Vec<usize>,
    rows: Vec<Row>,
    index: HashMap<KeyTuple, usize>,
    /// The per-column projection of `rows` ([`Table::column`]): slot `i`
    /// holds field `i` once a reader touched it; every row-changing method
    /// empties it. Interior mutability because columns are built on shared
    /// read paths (plan execution, query answering).
    colcache: Mutex<Vec<Option<Arc<Column>>>>,
    /// Exact answers read off this state ([`Table::memoized`]): query key →
    /// (row count when computed, answer). Emptied with `colcache` by every
    /// row-changing method, but not by [`Table::release_columns`]; flushed
    /// whole at `ANSWER_MEMO_CAP` answers.
    answers: Mutex<HashMap<String, (usize, f64)>>,
}

/// Answers one table state memoizes before the memo is flushed whole: far
/// above any query burst's distinct queries, small next to a column.
const ANSWER_MEMO_CAP: usize = 1024;

thread_local! {
    static TABLE_CLONES_CELL: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    static COLUMN_BUILDS_CELL: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Per-thread count of columns built into a table's cache (see
/// [`Table::column_build_count`]); thread-local for the same reason as
/// [`TABLE_CLONES`].
static COLUMN_BUILDS: svc_telemetry::LocalCounter =
    svc_telemetry::LocalCounter::new(&COLUMN_BUILDS_CELL);

/// Per-thread count of full-table clones (see [`Table::clone_count`]).
/// A telemetry [`svc_telemetry::LocalCounter`] — thread-local on purpose:
/// plan execution is synchronous on the calling thread, so a test can read
/// the counter, run a plan, and compare without clones from
/// concurrently-running tests (cargo runs test binaries multi-threaded)
/// polluting the reading.
static TABLE_CLONES: svc_telemetry::LocalCounter =
    svc_telemetry::LocalCounter::new(&TABLE_CLONES_CELL);

impl Clone for Table {
    fn clone(&self) -> Table {
        // Cloning a table copies every row *and* rebuilds nothing — the key
        // index is cloned too. It is exactly the cost the streaming
        // executor exists to avoid on scan paths, so each clone is counted:
        // tests assert that fused pipelines never take this path.
        TABLE_CLONES.bump();
        Table {
            schema: self.schema.clone(),
            key: self.key.clone(),
            rows: self.rows.clone(),
            index: self.index.clone(),
            colcache: Mutex::default(),
            answers: Mutex::default(),
        }
    }
}

impl Table {
    /// Create an empty table with the given schema and key column names.
    pub fn new(schema: Schema, key_names: &[impl AsRef<str>]) -> Result<Table> {
        let key = schema.resolve_all(key_names)?;
        Table::with_key_indices(schema, key)
    }

    /// Create an empty table keyed by column positions.
    pub fn with_key_indices(schema: Schema, key: Vec<usize>) -> Result<Table> {
        for &i in &key {
            if i >= schema.len() {
                return Err(StorageError::Invalid(format!(
                    "key column index {i} out of range for schema [{schema}]"
                )));
            }
        }
        Ok(Table {
            schema,
            key,
            rows: Vec::new(),
            index: HashMap::new(),
            colcache: Mutex::default(),
            answers: Mutex::default(),
        })
    }

    /// Bulk-build a table from rows, validating arity and key uniqueness.
    pub fn from_rows(schema: Schema, key: Vec<usize>, rows: Vec<Row>) -> Result<Table> {
        let mut t = Table::with_key_indices(schema, key)?;
        t.rows.reserve(rows.len());
        t.index.reserve(rows.len());
        for row in rows {
            t.insert(row)?;
        }
        Ok(t)
    }

    /// Number of full-table clones performed **on this thread** since it
    /// started. Observability hook for the zero-scan-clone guarantee of
    /// the streaming executor: take a reading, run a plan (execution is
    /// synchronous on the calling thread), compare. Thin shim over the
    /// shared telemetry counter mechanism ([`svc_telemetry::LocalCounter`]).
    pub fn clone_count() -> usize {
        TABLE_CLONES.get() as usize
    }

    /// Bulk-build from rows already known to be key-unique and of the right
    /// arity — e.g. a filtered subset of an existing keyed table. Skips the
    /// per-row duplicate-key error path of [`Table::from_rows`] (uniqueness
    /// is debug-asserted), which matters on evaluator hot paths.
    pub fn from_unique_rows(schema: Schema, key: Vec<usize>, rows: Vec<Row>) -> Result<Table> {
        let mut t = Table::with_key_indices(schema, key)?;
        let mut index = HashMap::with_capacity(rows.len());
        for (i, row) in rows.iter().enumerate() {
            debug_assert_eq!(row.len(), t.schema.len(), "row arity mismatch");
            let prev = index.insert(KeyTuple::of(row, &t.key), i);
            debug_assert!(prev.is_none(), "duplicate key in from_unique_rows");
        }
        t.rows = rows;
        t.index = index;
        Ok(t)
    }

    /// Consume the table, returning its rows (insertion order). The key
    /// index is dropped; used by the evaluator to move rows through
    /// filters instead of cloning them.
    pub fn into_rows(self) -> Vec<Row> {
        self.rows
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Primary key column positions.
    pub fn key(&self) -> &[usize] {
        &self.key
    }

    /// Primary key column names.
    pub fn key_names(&self) -> Vec<&str> {
        self.key.iter().map(|&i| self.schema.field(i).name.as_str()).collect()
    }

    /// All rows, in insertion order (with holes from deletion compacted).
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True iff the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The key tuple of a row of this table.
    pub fn key_of(&self, row: &Row) -> KeyTuple {
        KeyTuple::of(row, &self.key)
    }

    /// Record a row mutation: the cached columns and answers are stale, so
    /// drop them now rather than hold them until the next read.
    #[inline]
    fn touch(&mut self) {
        let cache = self.colcache.get_mut().expect("column cache poisoned");
        if !cache.is_empty() {
            *cache = Vec::new();
        }
        let answers = self.answers.get_mut().expect("answer memo poisoned");
        if !answers.is_empty() {
            *answers = HashMap::new();
        }
    }

    /// Drop every cached column; the next reader rebuilds what it names.
    /// For a table that has been superseded but lives on behind shared
    /// readers (an old view epoch): its rows stay readable, its columns
    /// stop holding memory. Its memoized answers survive — the state did
    /// not change, and an answer is one number, not a column.
    pub fn release_columns(&self) {
        *self.colcache.lock().expect("column cache poisoned") = Vec::new();
    }

    /// The answer stored under `key` for this table state, or `f()`'s,
    /// stored on success (an error is returned, never stored). `key` must
    /// name everything the answer depends on besides the rows — for a
    /// query, the query itself. `f` runs outside the memo's lock, so it may
    /// read columns. The memo is emptied by every mutation and flushed whole
    /// once it holds 1024 answers.
    pub fn memoized(&self, key: String, f: impl FnOnce() -> Result<f64>) -> Result<f64> {
        let hit = self.answers.lock().expect("answer memo poisoned").get(&key).copied();
        if let Some((rows, answer)) = hit {
            // With the verifier on, prove the memo is honest, as `filled`
            // does for a column: an answer computed at another row count
            // means some mutator skipped `Table::touch`.
            #[cfg(feature = "verify")]
            assert_eq!(
                rows,
                self.rows.len(),
                "memoized answer {key} was computed at {rows} rows but the table has {} — a \
                 mutator skipped Table::touch",
                self.rows.len()
            );
            let _ = rows;
            return Ok(answer);
        }
        let answer = f()?;
        let mut answers = self.answers.lock().expect("answer memo poisoned");
        if answers.len() >= ANSWER_MEMO_CAP {
            answers.clear();
        }
        answers.insert(key, (self.rows.len(), answer));
        Ok(answer)
    }

    /// Number of columns built into a table's cache **on this thread** since
    /// it started — the cost-shape hook for "a reader builds only the
    /// columns it names, once per mutation". Same mechanism as
    /// [`Table::clone_count`].
    pub fn column_build_count() -> usize {
        COLUMN_BUILDS.get() as usize
    }

    /// The column cache with every slot in `want` filled, the missing ones
    /// built in one pass over the rows.
    fn filled(&self, want: &[usize]) -> MutexGuard<'_, Vec<Option<Arc<Column>>>> {
        let mut cache = self.colcache.lock().expect("column cache poisoned");
        if cache.is_empty() {
            cache.resize(self.schema.len(), None);
        }
        let mut missing = Vec::new();
        for &i in want {
            match &cache[i] {
                None => missing.push(i),
                // With the verifier on, prove the cache is honest: a hit
                // whose length disagrees with the table means some mutator
                // skipped `Table::touch`.
                #[cfg(feature = "verify")]
                Some(c) => assert_eq!(
                    c.len(),
                    self.rows.len(),
                    "cached column {i} holds {} rows but the table has {} — a mutator skipped \
                     Table::touch",
                    c.len(),
                    self.rows.len()
                ),
                #[cfg(not(feature = "verify"))]
                Some(_) => {}
            }
        }
        if missing.is_empty() {
            return cache;
        }
        for (i, col) in missing.iter().zip(columns::extract(&self.schema, &self.rows, &missing)) {
            #[cfg(feature = "verify")]
            col.check(self.rows.len()).expect("freshly extracted column failed integrity check");
            COLUMN_BUILDS.bump();
            cache[*i] = Some(Arc::new(col));
        }
        cache
    }

    /// Column `i` of this table, typed ([`Column`]): built on first touch
    /// and shared until the next mutation, so a query reads only the columns
    /// it names and a burst of queries between two mutations builds each
    /// once. Cheap when warm (one lock, one `Arc` clone).
    pub fn column(&self, i: usize) -> Arc<Column> {
        let cache = self.filled(&[i]);
        Arc::clone(cache[i].as_ref().expect("filled slot"))
    }

    /// Every column of this table ([`ColumnSet`]), assembled from the same
    /// per-column cache as [`Table::column`]: only the columns no reader has
    /// touched since the last mutation are built. Re-running a compiled
    /// vectorized plan against unchanged bindings therefore extracts each
    /// leaf once per mutation.
    pub fn columns(&self) -> ColumnSet {
        let all: Vec<usize> = (0..self.schema.len()).collect();
        let cache = self.filled(&all);
        let cols = cache.iter().map(|c| Arc::clone(c.as_ref().expect("filled slot")));
        ColumnSet { cols: cols.collect(), len: self.rows.len() }
    }

    /// Insert a row; errors on arity mismatch or duplicate key.
    pub fn insert(&mut self, row: Row) -> Result<()> {
        svc_fault::fail_point!(svc_fault::site::TABLE_MUTATE, StorageError::Invalid);
        if row.len() != self.schema.len() {
            return Err(StorageError::ArityMismatch {
                expected: self.schema.len(),
                found: row.len(),
            });
        }
        let key = self.key_of(&row);
        if self.index.contains_key(&key) {
            return Err(StorageError::DuplicateKey(key.to_string()));
        }
        self.touch();
        self.index.insert(key, self.rows.len());
        self.rows.push(row);
        Ok(())
    }

    /// Insert or replace by primary key; returns the replaced row, if any.
    pub fn upsert(&mut self, row: Row) -> Result<Option<Row>> {
        svc_fault::fail_point!(svc_fault::site::TABLE_MUTATE, StorageError::Invalid);
        if row.len() != self.schema.len() {
            return Err(StorageError::ArityMismatch {
                expected: self.schema.len(),
                found: row.len(),
            });
        }
        let key = self.key_of(&row);
        Ok(self.put(key, row))
    }

    /// Store `row` under `key` (its own key), returning the row it replaced.
    fn put(&mut self, key: KeyTuple, row: Row) -> Option<Row> {
        self.touch();
        if let Some(&pos) = self.index.get(&key) {
            Some(std::mem::replace(&mut self.rows[pos], row))
        } else {
            self.index.insert(key, self.rows.len());
            self.rows.push(row);
            None
        }
    }

    /// Look up a row by key.
    pub fn get(&self, key: &KeyTuple) -> Option<&Row> {
        self.index.get(key).map(|&i| &self.rows[i])
    }

    /// The position of the row stored under `key` — an index into
    /// [`Table::rows`] and into every [`Table::column`] until the next
    /// mutation.
    pub fn position(&self, key: &KeyTuple) -> Option<usize> {
        self.index.get(key).copied()
    }

    /// True iff a row with this key exists.
    pub fn contains_key(&self, key: &KeyTuple) -> bool {
        self.index.contains_key(key)
    }

    /// Delete a row by key, returning it. Uses swap-remove; row order is not
    /// stable across deletions.
    pub fn delete(&mut self, key: &KeyTuple) -> Option<Row> {
        let pos = self.index.remove(key)?;
        self.touch();
        let row = self.rows.swap_remove(pos);
        if pos < self.rows.len() {
            let moved_key = self.key_of(&self.rows[pos]);
            self.index.insert(moved_key, pos);
        }
        Some(row)
    }

    /// Apply keyed edits in order: `Some(row)` replaces or inserts the row
    /// stored under the key, `None` deletes it. The commit step of a staged
    /// fold: it must not stop part-way, so unlike [`Table::upsert`] it hosts
    /// no failpoint and a row of the wrong arity or key is a caller bug.
    pub fn apply_edits(&mut self, edits: impl IntoIterator<Item = (KeyTuple, Option<Row>)>) {
        for (key, row) in edits {
            let Some(row) = row else {
                self.delete(&key);
                continue;
            };
            assert_eq!(row.len(), self.schema.len(), "edit row arity");
            debug_assert_eq!(self.key_of(&row), key, "edit row stored under a foreign key");
            self.put(key, row);
        }
    }

    /// An empty table with the same schema and key.
    pub fn empty_like(&self) -> Table {
        Table {
            schema: self.schema.clone(),
            key: self.key.clone(),
            rows: Vec::new(),
            index: HashMap::new(),
            colcache: Mutex::default(),
            answers: Mutex::default(),
        }
    }

    /// Iterate over `(key, row)` pairs.
    pub fn iter_keyed(&self) -> impl Iterator<Item = (KeyTuple, &Row)> + '_ {
        self.rows.iter().map(move |r| (self.key_of(r), r))
    }

    /// Two tables are *equivalent* if they have the same schema, key, and
    /// the same set of rows (order-insensitive, keyed comparison).
    pub fn same_contents(&self, other: &Table) -> bool {
        if self.schema != other.schema || self.key != other.key || self.len() != other.len() {
            return false;
        }
        self.iter_keyed().all(|(k, row)| other.get(&k) == Some(row))
    }

    /// Like [`Table::same_contents`] but floats are compared with relative
    /// tolerance `eps`. Incremental maintenance accumulates sums in a
    /// different order than recomputation, so derived float columns can
    /// differ in the last few ulps while being semantically equal.
    pub fn approx_same_contents(&self, other: &Table, eps: f64) -> bool {
        fn value_close(a: &Value, b: &Value, eps: f64) -> bool {
            match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => {
                    let scale = x.abs().max(y.abs()).max(1.0);
                    (x - y).abs() <= eps * scale
                }
                _ => a == b,
            }
        }
        if self.schema != other.schema || self.key != other.key || self.len() != other.len() {
            return false;
        }
        self.iter_keyed().all(|(k, row)| match other.get(&k) {
            Some(o) => row.iter().zip(o).all(|(a, b)| value_close(a, b, eps)),
            None => false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::DataType;

    fn table() -> Table {
        let schema = Schema::from_pairs(&[("id", DataType::Int), ("name", DataType::Str)]).unwrap();
        Table::new(schema, &["id"]).unwrap()
    }

    #[test]
    fn insert_and_lookup() {
        let mut t = table();
        t.insert(vec![Value::Int(1), Value::str("a")]).unwrap();
        t.insert(vec![Value::Int(2), Value::str("b")]).unwrap();
        assert_eq!(t.len(), 2);
        let key = KeyTuple(vec![Value::Int(2)]);
        assert_eq!(t.get(&key).unwrap()[1], Value::str("b"));
    }

    #[test]
    fn duplicate_key_rejected() {
        let mut t = table();
        t.insert(vec![Value::Int(1), Value::str("a")]).unwrap();
        let err = t.insert(vec![Value::Int(1), Value::str("b")]).unwrap_err();
        assert!(matches!(err, StorageError::DuplicateKey(_)));
    }

    #[test]
    fn arity_checked() {
        let mut t = table();
        assert!(matches!(t.insert(vec![Value::Int(1)]), Err(StorageError::ArityMismatch { .. })));
    }

    #[test]
    fn upsert_replaces() {
        let mut t = table();
        t.insert(vec![Value::Int(1), Value::str("a")]).unwrap();
        let old = t.upsert(vec![Value::Int(1), Value::str("z")]).unwrap();
        assert_eq!(old.unwrap()[1], Value::str("a"));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&KeyTuple(vec![Value::Int(1)])).unwrap()[1], Value::str("z"));
    }

    #[test]
    fn delete_keeps_index_consistent() {
        let mut t = table();
        for i in 0..10 {
            t.insert(vec![Value::Int(i), Value::str(format!("r{i}"))]).unwrap();
        }
        let removed = t.delete(&KeyTuple(vec![Value::Int(3)])).unwrap();
        assert_eq!(removed[0], Value::Int(3));
        assert_eq!(t.len(), 9);
        for i in (0..10).filter(|&i| i != 3) {
            let k = KeyTuple(vec![Value::Int(i)]);
            assert_eq!(t.get(&k).unwrap()[0], Value::Int(i));
        }
        assert!(t.get(&KeyTuple(vec![Value::Int(3)])).is_none());
    }

    #[test]
    fn same_contents_is_order_insensitive() {
        let mut a = table();
        let mut b = table();
        a.insert(vec![Value::Int(1), Value::str("x")]).unwrap();
        a.insert(vec![Value::Int(2), Value::str("y")]).unwrap();
        b.insert(vec![Value::Int(2), Value::str("y")]).unwrap();
        b.insert(vec![Value::Int(1), Value::str("x")]).unwrap();
        assert!(a.same_contents(&b));
        b.upsert(vec![Value::Int(1), Value::str("z")]).unwrap();
        assert!(!a.same_contents(&b));
    }

    #[test]
    fn hash_of_agrees_with_tuple_hash_semantics() {
        // hash_of must be a function of the key *values* only: equal key
        // projections hash equally regardless of where the columns sit.
        let a = vec![Value::Int(7), Value::str("x"), Value::Float(1.5)];
        let b = vec![Value::str("x"), Value::Int(7)];
        assert_eq!(KeyTuple::hash_of(&a, &[0, 1]), KeyTuple::hash_of(&b, &[1, 0]));
        assert!(KeyTuple::cols_eq(&a, &[0, 1], &b, &[1, 0]));
        assert!(!KeyTuple::cols_eq(&a, &[0], &b, &[0]));
        // Distinct values should (overwhelmingly) hash differently.
        assert_ne!(KeyTuple::hash_of(&a, &[0]), KeyTuple::hash_of(&a, &[2]));
    }

    #[test]
    fn clone_counter_observes_full_clones() {
        let mut t = table();
        t.insert(vec![Value::Int(1), Value::str("a")]).unwrap();
        let before = Table::clone_count();
        let _copy = t.clone();
        assert!(Table::clone_count() > before, "clone must be counted");
    }

    #[test]
    fn composite_key() {
        let schema = Schema::from_pairs(&[
            ("a", DataType::Int),
            ("b", DataType::Int),
            ("v", DataType::Float),
        ])
        .unwrap();
        let mut t = Table::new(schema, &["a", "b"]).unwrap();
        t.insert(vec![Value::Int(1), Value::Int(1), Value::Float(0.5)]).unwrap();
        t.insert(vec![Value::Int(1), Value::Int(2), Value::Float(0.7)]).unwrap();
        assert!(t.insert(vec![Value::Int(1), Value::Int(2), Value::Float(0.9)]).is_err());
        assert_eq!(t.len(), 2);
    }
}
