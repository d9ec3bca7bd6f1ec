//! Keyed tables: the physical representation of base relations, derived
//! relations, and materialized views.
//!
//! Every table carries a *primary key* (a subset of columns) as required by
//! Section 3.1 of the paper: "we assume that each of the base relations has
//! a primary key; if this is not the case, we can always add an extra column
//! that assigns an increasing sequence of integers to each record". Derived
//! relations receive keys via the Definition 2 rules in `svc-relalg`.
//!
//! Each row is stored once, as an immutable shared row ([`SharedRow`]).
//! Mutators replace whole rows, so no table sees another's edit, and a
//! clone copies row pointers and the key index's integers, never a value.
//! The key index maps a 64-bit hash of the key columns to a row position
//! and confirms each candidate against the row's own key columns, so it
//! holds no copy of any key and distinct keys whose hashes collide stay
//! apart. Lookups take a [`KeyTuple`] or, borrowed, a row and its key
//! columns ([`Table::position_of`]).
//!
//! Readers get three things per table state, all built on first read and
//! dropped by the next mutation:
//! * typed columns ([`Table::column`]), one cache slot per column, never
//!   built for a reader that does not name it — what plan execution and
//!   every query answer read;
//! * exact query answers ([`Table::memoized`]), one `f64` per query key, so
//!   a burst of the same query over an unchanged state reads it once — and,
//!   in the same memo, shared value vectors ([`Table::memoized_values`]),
//!   such as a query's matching values sorted for its order statistics;
//! * the state's pairing with another table's state by primary key
//!   ([`Table::paired_with`]), so a burst of estimates over one cleaned
//!   sample joins it to the stale sample once.
//!
//! A clone is its source's state until either mutates: it shares the
//! source's columns and pairing (its answers start empty). A state reached
//! by [`Table::apply_edits`] — a fold's commit step — remembers the state
//! the edits started from and what they changed, so its first reader pairs
//! it with that state by position and derives each column from that
//! state's by reading only the edited rows. A fold's output (the cleaned
//! sample) therefore joins its target (the stale sample) without hashing a
//! key, and a maintained view's state derives the columns its predecessor
//! had built even after that predecessor was dropped: the new state keeps
//! those columns alive until it derives each one, then lets go of it.
//! [`Table::edited_since`] names the edited positions to readers outside
//! the table (a sample redrawn from its view's new state).
//!
//! Keyed edits ([`StagedEdits`]) carry each key's hash by the table's own
//! hasher ([`Table::key_hash`]) from staging into the commit, so a fold
//! hashes each change row's key once.

use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::columns::{self, Column, ColumnSet};
use crate::error::{Result, StorageError};
use crate::key_index::KeyIndex;
use crate::pairing::Pairing;
use crate::schema::Schema;
use crate::staged::StagedEdits;
use crate::value::Value;
use crate::SharedRow;

/// The value tuple of a row's primary key; hashable and comparable.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KeyTuple(pub Vec<Value>);

impl KeyTuple {
    /// Extract the key tuple of `row` given key column positions.
    pub fn of(row: &[Value], key_cols: &[usize]) -> KeyTuple {
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

/// An in-memory relation: a schema, a primary key, and shared rows with a
/// key index for point lookups, updates, and deletes.
#[derive(Debug)]
pub struct Table {
    schema: Schema,
    key: Vec<usize>,
    rows: Vec<SharedRow>,
    /// Position of every row under the hash of its key columns.
    index: KeyIndex,
    /// The per-column projection of `rows` ([`Table::column`]): slot `i`
    /// holds field `i` once a reader touched it; every row-changing method
    /// empties it. Interior mutability because columns are built on shared
    /// read paths (plan execution, query answering).
    colcache: Mutex<Vec<Option<Arc<Column>>>>,
    /// Answers read off this state ([`Table::memoized`],
    /// [`Table::memoized_values`]): key → (row count when computed, answer).
    /// Emptied with `colcache` by every row-changing method; flushed whole
    /// at `ANSWER_MEMO_CAP` answers.
    answers: Mutex<HashMap<String, (usize, Memo)>>,
    /// This state's identity (`state_id`): 0 until a reader (or a clone)
    /// asks for it, then drawn from `NEXT_STATE`, so no two different
    /// states — of one table or of two — share one; a clone, the same rows
    /// in the same order, takes its source's. Every row-changing method
    /// resets it.
    state: AtomicU64,
    /// This state paired with another table's ([`Table::paired_with`]):
    /// that state's identity and the pairing. Emptied by every row-changing
    /// method.
    pairing: Mutex<Option<(u64, Arc<Pairing>)>>,
    /// How bulk edits reached this state from an earlier one ([`Lineage`]):
    /// set by [`Table::apply_edits`], dropped by every other mutator.
    lineage: Option<Box<Lineage>>,
}

/// What [`Table::apply_edits`] changed since the state its first call
/// started from, the *origin*: enough to pair this state with the origin by
/// position and to derive its columns from the origin's, in memory
/// proportional to the edits.
#[derive(Debug)]
struct Lineage {
    /// The origin's state identity.
    origin: u64,
    /// The origin's cached columns when the first edit landed, held until
    /// this state derives each one: the derivation takes its slot, so a
    /// state never holds both a column and the origin column it came from,
    /// and the origin itself may be dropped meanwhile (a committed view's
    /// predecessor).
    columns: Mutex<Vec<Option<Arc<Column>>>>,
    /// Every position whose row is not the origin's row at that position,
    /// with the origin position of the row under the same key (`None`: a key
    /// the origin did not hold). Every position past the origin's end is
    /// here; any other position holds the origin's row.
    moved: HashMap<usize, Option<usize>>,
    /// Rows of origin keys an edit deleted, by index hash, with their
    /// origin position: a later edit that puts the key back pairs it again.
    vacated: HashMap<u64, Vec<(usize, SharedRow)>>,
}

impl Lineage {
    /// A lineage with `table`'s current state as its origin.
    fn of(table: &Table) -> Box<Lineage> {
        let cache = table.colcache.lock().expect("column cache poisoned");
        Box::new(Lineage {
            origin: table.state_id(),
            columns: Mutex::new(cache.clone()),
            moved: HashMap::new(),
            vacated: HashMap::new(),
        })
    }

    /// The origin position of the key at `pos`.
    fn key_origin(&self, pos: usize) -> Option<usize> {
        self.moved.get(&pos).copied().unwrap_or(Some(pos))
    }

    /// The row at `pos` was replaced under its own key.
    fn replaced(&mut self, pos: usize) {
        let origin = self.key_origin(pos);
        self.moved.insert(pos, origin);
    }

    /// `row`, under a key the table did not hold and index hash `h`, was
    /// appended at `pos`.
    fn appended(&mut self, pos: usize, h: u64, row: &[Value], key: &[usize]) {
        let origin = self.vacated.get_mut(&h).and_then(|rows| {
            let i = rows.iter().position(|(_, r)| KeyTuple::cols_eq(r, key, row, key))?;
            Some(rows.swap_remove(i).0)
        });
        self.moved.insert(pos, origin);
    }

    /// `row`, under index hash `h`, was removed from `pos` and the row at
    /// `last` (the new row count) swapped into its place.
    fn removed(&mut self, pos: usize, last: usize, h: u64, row: SharedRow) {
        if let Some(origin) = self.key_origin(pos) {
            self.vacated.entry(h).or_default().push((origin, row));
        }
        if pos < last {
            let origin = self.key_origin(last);
            self.moved.insert(pos, origin);
        }
        self.moved.remove(&last);
    }
}

/// One memoized answer: a number, or a shared vector of them.
#[derive(Debug, Clone)]
enum Memo {
    Number(f64),
    Values(Arc<[f64]>),
}

/// Answers one table state memoizes before the memo is flushed whole: far
/// above any query burst's distinct queries, small next to a column.
const ANSWER_MEMO_CAP: usize = 1024;

/// The next table-state identity to hand out; 0 means "none drawn yet".
static NEXT_STATE: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TABLE_CLONES_CELL: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    static COLUMN_BUILDS_CELL: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    static COLUMN_EXTRACTS_CELL: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    static PAIRING_BUILDS_CELL: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    static ANSWERS_CELL: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    static KEY_HASHES_CELL: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Per-thread count of key hashes computed for keyed edits (see
/// [`Table::key_hash_count`]).
static KEY_HASHES: svc_telemetry::LocalCounter = svc_telemetry::LocalCounter::new(&KEY_HASHES_CELL);

/// Per-thread count of columns built into a table's cache (see
/// [`Table::column_build_count`]); thread-local for the same reason as
/// [`TABLE_CLONES`].
static COLUMN_BUILDS: svc_telemetry::LocalCounter =
    svc_telemetry::LocalCounter::new(&COLUMN_BUILDS_CELL);

/// Per-thread count of columns built by extraction from the rows, the
/// share of [`COLUMN_BUILDS`] not derived from a lineage's origin (see
/// [`Table::column_extract_count`]).
static COLUMN_EXTRACTS: svc_telemetry::LocalCounter =
    svc_telemetry::LocalCounter::new(&COLUMN_EXTRACTS_CELL);

/// Per-thread count of answers computed into a table's memo (see
/// [`Table::answer_count`]).
static ANSWERS: svc_telemetry::LocalCounter = svc_telemetry::LocalCounter::new(&ANSWERS_CELL);

/// Per-thread count of pairings built (see [`Table::pairing_build_count`]).
static PAIRING_BUILDS: svc_telemetry::LocalCounter =
    svc_telemetry::LocalCounter::new(&PAIRING_BUILDS_CELL);

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
        // Cloning a table copies row pointers and the key index's integers:
        // no value is copied and nothing is rehashed. The clone is the same
        // state as its source until either mutates: it takes the source's
        // identity and shares its cached columns and its pairing; its answer
        // memo starts empty. Each clone is still counted: tests assert that
        // fused pipelines and answer paths never take it.
        TABLE_CLONES.bump();
        let copy = Table {
            schema: self.schema.clone(),
            key: self.key.clone(),
            rows: self.rows.clone(),
            index: self.index.clone(),
            colcache: Mutex::new(self.colcache.lock().expect("column cache poisoned").clone()),
            answers: Mutex::default(),
            state: AtomicU64::new(self.state_id()),
            pairing: Mutex::new(self.pairing.lock().expect("pairing memo poisoned").clone()),
            lineage: None,
        };
        copy.verify_index();
        copy
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
            index: KeyIndex::default(),
            colcache: Mutex::default(),
            answers: Mutex::default(),
            state: AtomicU64::new(0),
            pairing: Mutex::default(),
            lineage: None,
        })
    }

    /// Bulk-build a table from rows, validating arity and key uniqueness.
    pub fn from_rows<R: Into<SharedRow>>(
        schema: Schema,
        key: Vec<usize>,
        rows: Vec<R>,
    ) -> Result<Table> {
        let mut t = Table::with_key_indices(schema, key)?;
        t.rows.reserve(rows.len());
        t.index = KeyIndex::with_capacity(rows.len());
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
    pub fn from_unique_rows<R: Into<SharedRow>>(
        schema: Schema,
        key: Vec<usize>,
        rows: Vec<R>,
    ) -> Result<Table> {
        let mut t = Table::with_key_indices(schema, key)?;
        t.rows = rows.into_iter().map(Into::into).collect();
        t.index = KeyIndex::with_capacity(t.rows.len());
        for (i, row) in t.rows.iter().enumerate() {
            debug_assert_eq!(row.len(), t.schema.len(), "row arity mismatch");
            let h = t.row_hash(row);
            debug_assert!(
                t.index.find(h, |p| t.key_matches(p, row, &t.key)).is_none(),
                "duplicate key in from_unique_rows"
            );
            t.index.insert(h, i);
        }
        t.verify_index();
        Ok(t)
    }

    /// Consume the table, returning its rows (insertion order). The key
    /// index is dropped; used by the evaluator to pass rows through filters
    /// without copying them.
    pub fn into_rows(self) -> Vec<SharedRow> {
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
    /// Each derefs to `[Value]`; cloning one shares it.
    pub fn rows(&self) -> &[SharedRow] {
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
    pub fn key_of(&self, row: &[Value]) -> KeyTuple {
        KeyTuple::of(row, &self.key)
    }

    /// The index hash of a row of this table.
    #[inline]
    fn row_hash(&self, row: &[Value]) -> u64 {
        self.index.hash(self.key.iter().map(|&i| &row[i]))
    }

    /// True iff the row at `pos` has the key that `row` holds in `cols`.
    #[inline]
    fn key_matches(&self, pos: usize, row: &[Value], cols: &[usize]) -> bool {
        KeyTuple::cols_eq(&self.rows[pos], &self.key, row, cols)
    }

    /// The position of the row stored under the key `row` holds in `cols` —
    /// the borrowed form of [`Table::position`]: no key is copied. `cols`
    /// name the key's columns of `row` in this table's key order.
    #[inline]
    pub fn position_of(&self, row: &[Value], cols: &[usize]) -> Option<usize> {
        let h = self.index.hash(cols.iter().map(|&i| &row[i]));
        self.find_hashed(h, row, cols)
    }

    /// [`Table::position_of`] for a key already hashed to `h` by this
    /// table's hasher ([`Table::key_hash`]).
    #[inline]
    pub(crate) fn find_hashed(&self, h: u64, row: &[Value], cols: &[usize]) -> Option<usize> {
        self.index.find(h, |p| self.key_matches(p, row, cols))
    }

    /// The hash this table's key index files the key `row` holds in `cols`
    /// under (`cols` in this table's key order). Valid for this table and
    /// its clones only: a keyed edit carries it from staging into the
    /// commit ([`StagedEdits`]), which files the key under it unhashed.
    #[inline]
    pub fn key_hash(&self, row: &[Value], cols: &[usize]) -> u64 {
        KEY_HASHES.bump();
        self.index.hash(cols.iter().map(|&i| &row[i]))
    }

    /// The key index, for edits staged against this table.
    pub(crate) fn index(&self) -> &KeyIndex {
        &self.index
    }

    /// Number of key hashes computed for keyed edits **on this thread**
    /// since it started: by [`Table::key_hash`] (one per change row a fold
    /// stages), by a swap-remove re-filing the row it moved, and by
    /// [`Table::apply_edits`] rehashing edits staged under another hasher —
    /// the cost-shape hook for "a fold hashes each change row's key once".
    /// Same mechanism as [`Table::clone_count`].
    pub fn key_hash_count() -> usize {
        KEY_HASHES.get() as usize
    }

    /// With the verifier on, prove the key index honest: one entry per row,
    /// and every row's key finds that row's own position. A no-op otherwise.
    #[inline]
    pub(crate) fn verify_index(&self) {
        #[cfg(feature = "verify")]
        {
            assert_eq!(
                self.index.len(),
                self.rows.len(),
                "the key index holds {} entries for {} rows",
                self.index.len(),
                self.rows.len()
            );
            for (i, row) in self.rows.iter().enumerate() {
                assert_eq!(
                    self.position_of(row, &self.key),
                    Some(i),
                    "the key index does not find row {i} (key {}) at its own position",
                    self.key_of(row)
                );
            }
        }
    }

    /// Record a row mutation: the cached columns, answers, pairing and
    /// lineage are stale, so drop them now rather than hold them until the
    /// next read, and retire the state's identity.
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
        *self.state.get_mut() = 0;
        *self.pairing.get_mut().expect("pairing memo poisoned") = None;
        self.lineage = None;
    }

    /// The answer stored under `key` for this table state, or `f()`'s,
    /// stored on success (an error is returned, never stored). `key` must
    /// name everything the answer depends on besides the rows — for a
    /// query, the query itself. `f` runs outside the memo's lock, so it may
    /// read columns. The memo is emptied by every mutation and flushed whole
    /// once it holds 1024 answers.
    pub fn memoized(&self, key: String, f: impl FnOnce() -> Result<f64>) -> Result<f64> {
        let number = |m: &Memo| match m {
            Memo::Number(x) => Some(*x),
            Memo::Values(_) => None,
        };
        self.memo(key, f, number, Memo::Number)
    }

    /// The answer [`Table::memoized`] holds under `key` for this table
    /// state, if any: a read that computes and stores nothing.
    pub fn memoized_answer(&self, key: &str) -> Option<f64> {
        let answers = self.answers.lock().expect("answer memo poisoned");
        match answers.get(key)? {
            (_, Memo::Number(x)) => Some(*x),
            (_, Memo::Values(_)) => None,
        }
    }

    /// [`Table::memoized`] for an answer that is a vector of numbers: the
    /// same memo, keys, invalidation and counting. A key holding a number
    /// is a miss here, and the vector replaces it.
    pub fn memoized_values(
        &self,
        key: String,
        f: impl FnOnce() -> Result<Vec<f64>>,
    ) -> Result<Arc<[f64]>> {
        let values = |m: &Memo| match m {
            Memo::Values(v) => Some(Arc::clone(v)),
            Memo::Number(_) => None,
        };
        self.memo(key, || f().map(Arc::from), values, Memo::Values)
    }

    /// The memo's one read: the answer `read` finds under `key`, else
    /// `f()`'s, stored as `wrap` makes it.
    fn memo<T: Clone>(
        &self,
        key: String,
        f: impl FnOnce() -> Result<T>,
        read: impl FnOnce(&Memo) -> Option<T>,
        wrap: fn(T) -> Memo,
    ) -> Result<T> {
        let answers = self.answers.lock().expect("answer memo poisoned");
        let hit = answers.get(&key).and_then(|(rows, memo)| Some((*rows, read(memo)?)));
        drop(answers);
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
        ANSWERS.bump();
        let answer = f()?;
        let mut answers = self.answers.lock().expect("answer memo poisoned");
        if answers.len() >= ANSWER_MEMO_CAP {
            answers.clear();
        }
        answers.insert(key, (self.rows.len(), wrap(answer.clone())));
        Ok(answer)
    }

    /// This state's identity: the same number until the next mutation, and
    /// never one a different state — of this table or of any other — was
    /// given. A clone takes its source's.
    /// `Relaxed` suffices: the number publishes no data, it is only
    /// compared.
    pub fn state_id(&self) -> u64 {
        let id = self.state.load(Ordering::Relaxed);
        if id != 0 {
            return id;
        }
        let drawn = NEXT_STATE.fetch_add(1, Ordering::Relaxed);
        match self.state.compare_exchange(0, drawn, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => drawn,
            Err(other) => other,
        }
    }

    /// This state joined to `other`'s on the primary key ([`Pairing`]):
    /// built on the first call for `other`'s current state and kept until
    /// either table changes, so a burst of estimates over one cleaned
    /// sample and its stale sample hashes their keys once. The memo holds
    /// one pairing; asking for another table's replaces it. When `other`
    /// is this very state (a clone) or the state this one's edits started
    /// from (a fold's output and its target), the pairing is read off
    /// positions and no key is hashed at all.
    pub fn paired_with(&self, other: &Table) -> Arc<Pairing> {
        let id = other.state_id();
        let mut memo = self.pairing.lock().expect("pairing memo poisoned");
        if let Some((held, pairing)) = memo.as_ref() {
            if *held == id {
                // With the verifier on, prove the memo is honest, as
                // `memoized` does for an answer.
                #[cfg(feature = "verify")]
                assert!(
                    pairing.partners().len() == self.rows.len()
                        && pairing.right_len() == other.len(),
                    "a memoized pairing covers {} and {} rows but the tables hold {} and {} — \
                     a mutator skipped Table::touch",
                    pairing.partners().len(),
                    pairing.right_len(),
                    self.rows.len(),
                    other.len()
                );
                return Arc::clone(pairing);
            }
        }
        let pairing = match self.paired_by_position(id, other.len()) {
            Some(pairing) => {
                // With the verifier on, prove the positions honest, and
                // every row they call unchanged the other state's own row.
                #[cfg(feature = "verify")]
                {
                    assert_eq!(
                        pairing,
                        Pairing::of(self, other),
                        "a pairing read off positions differs from the pairing by key"
                    );
                    let changed = pairing.changed().expect("a pairing read off positions");
                    for (i, row) in self.rows.iter().enumerate() {
                        assert!(
                            changed.binary_search(&i).is_ok()
                                || other.rows.get(i).is_some_and(|r| Arc::ptr_eq(r, row)),
                            "row {i} is not the other state's row at its position, yet the \
                             pairing calls it unchanged"
                        );
                    }
                }
                pairing
            }
            None => {
                PAIRING_BUILDS.bump();
                Pairing::of(self, other)
            }
        };
        let pairing = Arc::new(pairing);
        *memo = Some((id, Arc::clone(&pairing)));
        pairing
    }

    /// This state paired with state `id` of `len` rows by position, if `id`
    /// is this state or its lineage's origin.
    fn paired_by_position(&self, id: u64, len: usize) -> Option<Pairing> {
        Some(Pairing::by_position(self.rows.len(), len, self.moved_since(id)?))
    }

    /// The positions, ascending, whose row is not the row state `state`
    /// held at that position, if this state is `state` (no position) or
    /// its lineage's origin ([`Table::apply_edits`]); `None` for any other
    /// state. Every position below [`Table::len`] that is not named holds
    /// `state`'s row there, the same shared row; every position past
    /// `state`'s end is named. O(edits): no row is read.
    pub fn edited_since(&self, state: u64) -> Option<Vec<usize>> {
        Some(self.moved_since(state)?.into_iter().map(|(i, _)| i).collect())
    }

    /// [`Table::edited_since`]'s positions, each with the position of
    /// `state`'s row under the same key (`None`: a key `state` did not
    /// hold) — the one rule both it and [`Table::paired_with`] read.
    fn moved_since(&self, state: u64) -> Option<Vec<(usize, Option<usize>)>> {
        if self.state.load(Ordering::Relaxed) == state {
            return Some(Vec::new());
        }
        let lineage = self.lineage.as_deref().filter(|l| l.origin == state)?;
        let mut moved: Vec<_> = lineage.moved.iter().map(|(&i, &j)| (i, j)).collect();
        moved.sort_unstable_by_key(|&(i, _)| i);
        Some(moved)
    }

    /// Number of pairings built by key lookup ([`Table::paired_with`]
    /// misses that could not be read off positions) **on this thread**
    /// since it started — the cost-shape hook for "a burst of estimates
    /// joins the samples by key at most once". Same mechanism as
    /// [`Table::clone_count`].
    pub fn pairing_build_count() -> usize {
        PAIRING_BUILDS.get() as usize
    }

    /// Number of answers computed into a table's answer memo
    /// ([`Table::memoized`] misses) **on this thread** since it started — the
    /// cost-shape hook for "a burst of the same query over one state answers
    /// it once". Same mechanism as [`Table::clone_count`].
    pub fn answer_count() -> usize {
        ANSWERS.get() as usize
    }

    /// Number of columns built into a table's cache **on this thread** since
    /// it started — the cost-shape hook for "a reader builds only the
    /// columns it names, once per mutation". Same mechanism as
    /// [`Table::clone_count`].
    pub fn column_build_count() -> usize {
        COLUMN_BUILDS.get() as usize
    }

    /// The share of [`Table::column_build_count`] built by extraction, a
    /// pass over every row, rather than derived from a lineage's origin
    /// column by reading only the edited rows — the cost-shape hook for "a
    /// maintained state derives the columns its predecessor had". Same
    /// mechanism as [`Table::clone_count`].
    pub fn column_extract_count() -> usize {
        COLUMN_EXTRACTS.get() as usize
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
        missing.retain(|&i| match self.derived(i) {
            Some(col) => {
                COLUMN_BUILDS.bump();
                cache[i] = Some(Arc::new(col));
                false
            }
            None => true,
        });
        for (i, col) in missing.iter().zip(columns::extract(&self.schema, &self.rows, &missing)) {
            #[cfg(feature = "verify")]
            col.check(self.rows.len()).expect("freshly extracted column failed integrity check");
            COLUMN_BUILDS.bump();
            COLUMN_EXTRACTS.bump();
            cache[*i] = Some(Arc::new(col));
        }
        cache
    }

    /// Column `i` derived from the lineage's origin column, if the origin
    /// had built it: a typed copy with the moved positions' cells read off
    /// their rows ([`columns::derive`]). The origin column is let go of
    /// either way, so this state never holds it beside its own.
    fn derived(&self, i: usize) -> Option<Column> {
        let lineage = self.lineage.as_deref()?;
        let mut held = lineage.columns.lock().expect("lineage columns poisoned");
        let origin = held.get_mut(i)?.take()?;
        drop(held);
        let col = columns::derive(&origin, &self.rows, i, lineage.moved.keys().copied())?;
        // With the verifier on, prove the derivation honest.
        #[cfg(feature = "verify")]
        {
            let extracted = columns::extract(&self.schema, &self.rows, &[i]);
            assert!(col.same_bits(&extracted[0]), "derived column {i} differs from extraction");
            col.check(self.rows.len()).expect("derived column failed integrity check");
        }
        Some(col)
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
    pub fn insert(&mut self, row: impl Into<SharedRow>) -> Result<()> {
        svc_fault::fail_point!(svc_fault::site::TABLE_MUTATE, StorageError::Invalid);
        let row = self.checked(row.into())?;
        let h = self.row_hash(&row);
        if self.index.find(h, |p| self.key_matches(p, &row, &self.key)).is_some() {
            return Err(StorageError::DuplicateKey(self.key_of(&row).to_string()));
        }
        self.touch();
        self.index.insert(h, self.rows.len());
        self.rows.push(row);
        Ok(())
    }

    /// `row` if its arity fits the schema.
    fn checked(&self, row: SharedRow) -> Result<SharedRow> {
        if row.len() != self.schema.len() {
            return Err(StorageError::ArityMismatch {
                expected: self.schema.len(),
                found: row.len(),
            });
        }
        Ok(row)
    }

    /// Insert or replace by primary key; returns the replaced row, if any.
    pub fn upsert(&mut self, row: impl Into<SharedRow>) -> Result<Option<SharedRow>> {
        svc_fault::fail_point!(svc_fault::site::TABLE_MUTATE, StorageError::Invalid);
        let row = self.checked(row.into())?;
        self.touch();
        let h = self.row_hash(&row);
        Ok(self.put_hashed(h, row).1)
    }

    /// Store `row`, whose key hashes to `h`, under its key: its position and
    /// the row it replaced.
    fn put_hashed(&mut self, h: u64, row: SharedRow) -> (usize, Option<SharedRow>) {
        if let Some(pos) = self.index.find(h, |p| self.key_matches(p, &row, &self.key)) {
            (pos, Some(std::mem::replace(&mut self.rows[pos], row)))
        } else {
            self.index.insert(h, self.rows.len());
            self.rows.push(row);
            (self.rows.len() - 1, None)
        }
    }

    /// Look up a row by key.
    pub fn get(&self, key: &KeyTuple) -> Option<&SharedRow> {
        self.position(key).map(|i| &self.rows[i])
    }

    /// The position of the row stored under `key` — an index into
    /// [`Table::rows`] and into every [`Table::column`] until the next
    /// mutation.
    pub fn position(&self, key: &KeyTuple) -> Option<usize> {
        self.hashed_position(key).map(|(_, pos)| pos)
    }

    /// `key`'s index hash and the position of its row.
    fn hashed_position(&self, key: &KeyTuple) -> Option<(u64, usize)> {
        if key.0.len() != self.key.len() {
            return None;
        }
        let h = self.index.hash(key.0.iter());
        let pos = self
            .index
            .find(h, |p| self.key.iter().zip(&key.0).all(|(&i, v)| self.rows[p][i] == *v))?;
        Some((h, pos))
    }

    /// True iff a row with this key exists.
    pub fn contains_key(&self, key: &KeyTuple) -> bool {
        self.position(key).is_some()
    }

    /// Delete a row by key, returning it. Uses swap-remove; row order is not
    /// stable across deletions.
    pub fn delete(&mut self, key: &KeyTuple) -> Option<SharedRow> {
        let (h, pos) = self.hashed_position(key)?;
        self.touch();
        Some(self.remove(h, pos))
    }

    /// Remove the row at `pos`, whose key hashes to `h`, by swap-remove.
    fn remove(&mut self, h: u64, pos: usize) -> SharedRow {
        self.index.remove(h, pos);
        let row = self.rows.swap_remove(pos);
        if pos < self.rows.len() {
            KEY_HASHES.bump();
            let moved = self.row_hash(&self.rows[pos]);
            self.index.relocate(moved, self.rows.len(), pos);
        }
        row
    }

    /// Commit staged keyed edits ([`StagedEdits`]) in first-touch order:
    /// `Some(row)` replaces or inserts the row stored under the key, `None`
    /// deletes it. Each key is found, stored and removed under the hash it
    /// was staged with, so no key is hashed again — unless the edits were
    /// staged against a table of another hasher, when each is rehashed with
    /// this table's first (a clone shares its source's hasher). Only a
    /// swap-remove hashes: the key of the row it moves. The commit step of
    /// a staged fold: it must not stop part-way, so unlike
    /// [`Table::upsert`] it hosts no failpoint and a row of the wrong arity
    /// or key is a caller bug.
    ///
    /// The new state remembers the state the first of a run of calls
    /// started from (its lineage): the positions the edits moved or
    /// rewrote ([`Table::edited_since`]), and that state's cached columns,
    /// each held until this state derives its own from it. A reader of the
    /// new state pairs it with that state by position
    /// ([`Table::paired_with`]) and derives a column from that state's by
    /// reading only the edited rows ([`Table::column`]), even once that
    /// state is gone. Any other mutator forgets the lineage and the columns
    /// it holds.
    pub fn apply_edits(&mut self, edits: StagedEdits) {
        let edits = edits.into_edits(self);
        if edits.is_empty() {
            return;
        }
        let mut lineage = self.lineage.take().unwrap_or_else(|| Lineage::of(self));
        self.touch();
        for (h, key_row, row) in edits {
            let Some(row) = row else {
                if let Some(pos) = self.find_hashed(h, &key_row, &self.key) {
                    let row = self.remove(h, pos);
                    lineage.removed(pos, self.rows.len(), h, row);
                }
                continue;
            };
            assert_eq!(row.len(), self.schema.len(), "edit row arity");
            debug_assert!(
                KeyTuple::cols_eq(&row, &self.key, &key_row, &self.key),
                "edit row stored under a foreign key"
            );
            match self.put_hashed(h, row) {
                (pos, Some(_)) => lineage.replaced(pos),
                (pos, None) => lineage.appended(pos, h, &self.rows[pos], &self.key),
            }
        }
        self.lineage = Some(lineage);
        self.verify_index();
    }

    /// An empty table with the same schema and key.
    pub fn empty_like(&self) -> Table {
        Table {
            schema: self.schema.clone(),
            key: self.key.clone(),
            rows: Vec::new(),
            index: KeyIndex::default(),
            colcache: Mutex::default(),
            answers: Mutex::default(),
            state: AtomicU64::new(0),
            pairing: Mutex::default(),
            lineage: None,
        }
    }

    /// Iterate over `(key, row)` pairs.
    pub fn iter_keyed(&self) -> impl Iterator<Item = (KeyTuple, &SharedRow)> + '_ {
        self.rows.iter().map(move |r| (self.key_of(r), r))
    }

    /// `other`'s row under the key of `row`, a row of this table.
    fn partner<'a>(&self, other: &'a Table, row: &[Value]) -> Option<&'a SharedRow> {
        other.position_of(row, &self.key).map(|p| &other.rows[p])
    }

    /// Two tables are *equivalent* if they have the same schema, key, and
    /// the same set of rows (order-insensitive, keyed comparison).
    pub fn same_contents(&self, other: &Table) -> bool {
        if self.schema != other.schema || self.key != other.key || self.len() != other.len() {
            return false;
        }
        self.rows.iter().all(|row| self.partner(other, row) == Some(row))
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
        self.rows.iter().all(|row| match self.partner(other, row) {
            Some(o) => row.iter().zip(o.iter()).all(|(a, b)| value_close(a, b, eps)),
            None => false,
        })
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::key_index::narrow_hashes;
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

    /// Numbers and vectors share one memo: a vector is read back as the
    /// same allocation, a key holding the other kind is a miss that
    /// replaces it, each miss is counted, and a mutation or a clone starts
    /// empty.
    #[test]
    fn the_memo_holds_numbers_and_vectors_per_state() {
        let mut t = table();
        t.insert(vec![Value::Int(1), Value::str("a")]).unwrap();
        let answers = Table::answer_count();
        let sorted = t.memoized_values("v".into(), || Ok(vec![1.0, 2.0])).unwrap();
        let again = t.memoized_values("v".into(), || panic!("recomputed")).unwrap();
        assert!(Arc::ptr_eq(&sorted, &again));
        assert_eq!(Table::answer_count(), answers + 1);
        assert_eq!(t.memoized("v".into(), || Ok(3.0)).unwrap(), 3.0);
        assert_eq!(t.memoized("v".into(), || panic!("recomputed")).unwrap(), 3.0);
        assert_eq!(*t.memoized_values("v".into(), || Ok(vec![4.0])).unwrap(), [4.0]);
        assert_eq!(Table::answer_count(), answers + 3);
        assert!(t.memoized_values("e".into(), || Err(StorageError::Invalid("no".into()))).is_err());
        assert_eq!(*t.clone().memoized_values("v".into(), || Ok(vec![5.0])).unwrap(), [5.0]);
        t.insert(vec![Value::Int(2), Value::str("b")]).unwrap();
        assert_eq!(*t.memoized_values("v".into(), || Ok(vec![6.0])).unwrap(), [6.0]);
    }

    /// `memoized_answer` reads a stored number and nothing else: it
    /// computes, stores and counts nothing, and a mutation empties it.
    #[test]
    fn memoized_answers_are_read_without_computing() {
        let mut t = table();
        assert_eq!(t.memoized_answer("n"), None);
        t.memoized("n".into(), || Ok(7.0)).unwrap();
        t.memoized_values("v".into(), || Ok(vec![1.0])).unwrap();
        let answers = Table::answer_count();
        assert_eq!((t.memoized_answer("n"), t.memoized_answer("v")), (Some(7.0), None));
        assert_eq!(Table::answer_count(), answers);
        t.insert(vec![Value::Int(1), Value::str("a")]).unwrap();
        assert_eq!(t.memoized_answer("n"), None);
    }

    #[test]
    fn a_clone_shares_every_row() {
        let mut t = table();
        for i in 0..50 {
            t.insert(vec![Value::Int(i), Value::str(format!("r{i}"))]).unwrap();
        }
        let copy = t.clone();
        assert_eq!(copy.len(), t.len());
        assert!(copy.rows().iter().zip(t.rows()).all(|(a, b)| Arc::ptr_eq(a, b)));
    }

    /// With the key hash narrowed to two bits, 40 keys share four hashes:
    /// lookups, delete's swap-remove fix-up, upsert and keyed edits must
    /// still find each key's own row.
    #[test]
    fn colliding_key_hashes_keep_lookups_deletes_and_upserts_exact() {
        narrow_hashes(2);
        let key = |i: i64| KeyTuple(vec![Value::Int(i)]);
        let mut t = table();
        let mut model = BTreeMap::new();
        for i in 0..40 {
            t.insert(vec![Value::Int(i), Value::str(format!("r{i}"))]).unwrap();
            model.insert(i, format!("r{i}"));
        }
        assert!(t.insert(vec![Value::Int(7), Value::str("dup")]).is_err(), "a collided duplicate");
        for i in [0, 39, 17, 4, 23] {
            assert_eq!(t.delete(&key(i)).unwrap()[0], Value::Int(i));
            model.remove(&i);
        }
        assert!(t.delete(&key(17)).is_none());
        for i in [5, 40, 41] {
            t.upsert(vec![Value::Int(i), Value::str("up")]).unwrap();
            model.insert(i, "up".into());
        }
        let mut edits = StagedEdits::default();
        edits.delete(&t, vec![Value::Int(6), Value::Null]);
        edits.put(&t, vec![Value::Int(42), Value::str("e")]);
        t.apply_edits(edits);
        model.remove(&6);
        model.insert(42, "e".into());
        assert_eq!(t.len(), model.len());
        for (i, row) in t.rows().iter().enumerate() {
            assert_eq!(t.position_of(row, t.key()), Some(i), "row {i} at its own position");
        }
        for i in 0..45 {
            let got = t.get(&key(i)).map(|r| r[1].as_str().unwrap().to_string());
            assert_eq!(got.as_ref(), model.get(&i), "key {i}");
        }
        narrow_hashes(64);
    }

    /// Keys the sharing property draws from: few enough that inserts,
    /// upserts and deletes keep meeting each other.
    const KEYS: i64 = 24;

    fn int_table() -> Table {
        let schema = Schema::from_pairs(&[("id", DataType::Int), ("v", DataType::Int)]).unwrap();
        Table::new(schema, &["id"]).unwrap()
    }

    /// The stored form of the sharing property's value `v`: NULL for every
    /// fifth, so columns carry validity masks.
    fn cell(v: i64) -> Value {
        if v % 5 == 0 {
            Value::Null
        } else {
            Value::Int(v)
        }
    }

    /// `t` holds exactly `model`'s rows and finds each at its own position.
    fn assert_holds(t: &Table, model: &BTreeMap<i64, i64>) {
        assert_eq!(t.len(), model.len());
        for (i, row) in t.rows().iter().enumerate() {
            assert_eq!(t.position_of(row, t.key()), Some(i), "row {i} at its own position");
        }
        for k in 0..KEYS {
            let got = t.get(&KeyTuple(vec![Value::Int(k)])).map(|r| r[1].clone());
            assert_eq!(got, model.get(&k).copied().map(cell), "key {k}");
        }
    }

    /// One step of the sharing property on `t` and its model: insert,
    /// upsert, delete, or four keyed edits of three keys from `k` on (the
    /// last edits `k` again: its slot stays, its last row wins).
    fn step(t: &mut Table, model: &mut BTreeMap<i64, i64>, kind: u8, k: i64, v: i64) {
        let key = |k: i64| KeyTuple(vec![Value::Int(k)]);
        let old = |r: Option<SharedRow>| r.map(|r| r[1].clone());
        match kind {
            0 => {
                let fresh = !model.contains_key(&k);
                assert_eq!(t.insert(vec![Value::Int(k), cell(v)]).is_ok(), fresh);
                model.entry(k).or_insert(v);
            }
            1 => assert_eq!(
                old(t.upsert(vec![Value::Int(k), cell(v)]).unwrap()),
                model.insert(k, v).map(cell)
            ),
            2 => assert_eq!(old(t.delete(&key(k))), model.remove(&k).map(cell)),
            _ => {
                let mut edits = StagedEdits::default();
                for j in 0..4 {
                    let k = (k + j % 3) % KEYS;
                    if v >> j & 1 == 0 {
                        edits.put(t, vec![Value::Int(k), cell(v + j)]);
                        model.insert(k, v + j);
                    } else {
                        edits.delete(t, vec![Value::Int(k), Value::Null]);
                        model.remove(&k);
                    }
                }
                t.apply_edits(edits);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Random insert / upsert / delete / keyed-edit sequences on a table
        /// and its clones (step kind 4 clones one), with the key hash at
        /// full width or narrowed to three bits: after every step every
        /// table equals its own `BTreeMap` model, and an edit of one table
        /// leaves every other table's lookups, columns, memoized answers and
        /// pairing as they were. After keyed edits on a clone whose source
        /// is unchanged, the clone's column equals one extracted from its
        /// rows and its pairing with the source equals the pairing by key —
        /// read off positions, with no key lookup, while keyed edits are
        /// the only mutations the clone has seen.
        #[test]
        fn clones_share_rows_and_never_see_each_others_edits(
            narrow in 0u8..2,
            steps in proptest::collection::vec((0u8..5, 0i64..KEYS, 0i64..64, 0usize..4), 1..48),
        ) {
            narrow_hashes(if narrow == 1 { 3 } else { 64 });
            let mut partner = int_table();
            for k in (0..KEYS).step_by(3) {
                partner.insert(vec![Value::Int(k), Value::Int(-k)]).unwrap();
            }
            let mut tables = vec![(int_table(), BTreeMap::new())];
            // Mutations per table; per clone, its source, the source's
            // mutation count when cloned, and whether every mutation of the
            // clone since was a keyed edit.
            let mut versions = vec![0u64];
            let mut sources: Vec<Option<(usize, u64, bool)>> = vec![None];
            for &(kind, k, v, who) in &steps {
                let who = who % tables.len();
                if kind == 4 {
                    let copy = tables[who].0.clone();
                    let shared = copy.rows().iter().zip(tables[who].0.rows());
                    assert!(shared.clone().all(|(a, b)| Arc::ptr_eq(a, b)));
                    assert_eq!(shared.count(), copy.len());
                    let model = tables[who].1.clone();
                    tables.push((copy, model));
                    versions.push(0);
                    sources.push(Some((who, versions[who], true)));
                    continue;
                }
                // What every other table reads now, and must read after.
                let sum = |t: &Table| t.rows().iter().map(|r| r[1].as_i64().unwrap_or(0) as f64).sum();
                let before: Vec<_> = tables
                    .iter()
                    .map(|(t, _)| {
                        let answer = t.memoized("sum".into(), || Ok(sum(t))).unwrap();
                        (t.rows().to_vec(), t.column(1), answer, t.paired_with(&partner))
                    })
                    .collect();
                let (t, model) = &mut tables[who];
                step(t, model, kind, k, v);
                versions[who] += 1;
                if let Some((_, _, only_edits)) = &mut sources[who] {
                    *only_edits &= kind == 3;
                }
                match sources[who] {
                    Some((source, version, only_edits)) if kind == 3 && versions[source] == version => {
                        let (t, source) = (&tables[who].0, &tables[source].0);
                        let extracted = ColumnSet::from_rows(t.schema(), t.rows());
                        assert!(t.column(1).same_bits(&extracted.cols[1]));
                        let builds = Table::pairing_build_count();
                        assert_eq!(*t.paired_with(source), Pairing::of(t, source));
                        if only_edits {
                            assert_eq!(Table::pairing_build_count(), builds, "paired by key");
                            let edited = t.edited_since(source.state_id());
                            assert_eq!(edited.as_deref(), t.paired_with(source).changed());
                        }
                    }
                    _ => {}
                }
                for (i, ((t, model), (rows, column, answer, pairing))) in
                    tables.iter().zip(before).enumerate()
                {
                    assert_holds(t, model);
                    if i == who {
                        continue;
                    }
                    assert!(t.rows().len() == rows.len());
                    assert!(t.rows().iter().zip(&rows).all(|(a, b)| Arc::ptr_eq(a, b)));
                    assert!(Arc::ptr_eq(&t.column(1), &column));
                    let memo = t.memoized("sum".into(), || panic!("the answer was dropped"));
                    assert_eq!(memo.unwrap().to_bits(), answer.to_bits());
                    let builds = Table::pairing_build_count();
                    assert!(Arc::ptr_eq(&t.paired_with(&partner), &pairing));
                    assert_eq!(Table::pairing_build_count(), builds);
                }
            }
            narrow_hashes(64);
        }
    }

    /// A state reached by keyed edits derives the columns its origin had
    /// built even after the origin is dropped, reading only the edited
    /// rows, and lets go of each origin column once it has derived its own;
    /// a column the origin never built is extracted.
    #[test]
    fn a_lineage_keeps_its_origins_columns_until_it_derives_them() {
        let mut t = int_table();
        for k in 0..KEYS {
            t.insert(vec![Value::Int(k), cell(k)]).unwrap();
        }
        let origin = t.column(1);
        let mut next = t.clone();
        let mut edits = StagedEdits::default();
        edits.delete(&next, vec![Value::Int(3), Value::Null]);
        edits.put(&next, vec![Value::Int(99), Value::Int(7)]);
        next.apply_edits(edits);
        assert_eq!(next.edited_since(t.state_id()), Some(vec![3, KEYS as usize - 1]));
        assert_eq!(t.edited_since(t.state_id()), Some(Vec::new()));
        assert_eq!(t.edited_since(next.state_id()), None);
        drop(t);
        assert_eq!(Arc::strong_count(&origin), 2, "the lineage holds the origin's column");
        let (builds, extracts) = (Table::column_build_count(), Table::column_extract_count());
        let derived = next.column(1);
        assert_eq!(Table::column_build_count() - builds, 1);
        assert_eq!(Table::column_extract_count(), extracts, "derived, not extracted");
        assert_eq!(Arc::strong_count(&origin), 1, "derived: the origin's column is let go of");
        let extracted = ColumnSet::from_rows(next.schema(), next.rows());
        assert!(derived.same_bits(&extracted.cols[1]));
        next.column(0);
        assert_eq!(Table::column_extract_count() - extracts, 1, "the origin never built column 0");
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
