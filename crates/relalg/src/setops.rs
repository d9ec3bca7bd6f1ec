//! Set operations ∪, ∩, − with set (duplicate-eliminating) semantics over
//! whole rows.
//!
//! The row-based cores ([`union_rows_into`], [`intersect_rows_into`],
//! [`difference_rows_into`]) are shared by the streaming executor
//! (`crate::exec`), which works on plain `Vec<Row>` batches; [`run_setop`]
//! keeps the legacy table-in/table-out shape for the materializing
//! evaluator.
//!
//! The cores hash only the columns the caller names — a compiled set op
//! passes the union of its inputs' derived keys, on which each input is
//! unique, so a hash chain holds at most one row per input — and compare
//! candidates as whole rows, so exactly the rows a `HashSet<Row>` would
//! equate count as duplicates. No hashed columns means the whole row. The
//! output dedups through `Kept`, a hash → row-position chain over the
//! output buffer itself: a distinct row is moved into the output once and
//! never cloned into a set. The right side of ∩ and − is chained the same
//! way over its own rows.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use svc_storage::{Result, Row, Table, Value};

use crate::derive::Derived;
use crate::plan::SetOpKind;

/// End of a hash chain.
const END: u32 = u32::MAX;

/// The hash of a row's `cols` (of every column when `cols` is empty):
/// equal rows hash equal.
fn row_hash(row: &[Value], cols: &[usize]) -> u64 {
    let mut h = DefaultHasher::new();
    if cols.is_empty() {
        row.iter().for_each(|v| v.hash(&mut h));
    } else {
        cols.iter().for_each(|&i| row[i].hash(&mut h));
    }
    h.finish()
}

/// Row positions `0, 1, …` chained by hash.
struct Chains {
    /// The latest position per hash.
    heads: HashMap<u64, u32>,
    /// `next[i]`: the position before `i` with the same hash.
    next: Vec<u32>,
}

impl Chains {
    fn with_capacity(capacity: usize) -> Chains {
        Chains { heads: HashMap::with_capacity(capacity), next: Vec::with_capacity(capacity) }
    }

    /// Chain the next position under `h` unless a position already
    /// chained under `h` satisfies `eq`; true when it was chained.
    fn insert_unless(&mut self, h: u64, eq: impl Fn(usize) -> bool) -> bool {
        let head = self.heads.entry(h).or_insert(END);
        let mut at = *head;
        while at != END {
            if eq(at as usize) {
                return false;
            }
            at = self.next[at as usize];
        }
        self.next.push(*head);
        *head = (self.next.len() - 1) as u32;
        true
    }

    /// True when a position chained under `h` satisfies `eq`.
    fn any(&self, h: u64, eq: impl Fn(usize) -> bool) -> bool {
        let mut at = self.heads.get(&h).copied().unwrap_or(END);
        while at != END {
            if eq(at as usize) {
                return true;
            }
            at = self.next[at as usize];
        }
        false
    }
}

/// The distinct rows an output buffer has received so far, chained by the
/// hash of their `cols` through their positions in that buffer, so a
/// candidate is compared in place, as a whole row.
struct Kept<'c> {
    cols: &'c [usize],
    /// Length of the output buffer before the first kept row.
    base: usize,
    chains: Chains,
}

impl<'c> Kept<'c> {
    fn new(out: &[Row], cols: &'c [usize], capacity: usize) -> Kept<'c> {
        Kept { cols, base: out.len(), chains: Chains::with_capacity(capacity) }
    }

    /// Move `row` onto `out` unless an equal row is already there.
    fn push_new(&mut self, out: &mut Vec<Row>, row: Row) {
        let h = row_hash(&row, self.cols);
        self.push_hashed(out, row, h);
    }

    /// [`Kept::push_new`] with the row's hash already taken.
    fn push_hashed(&mut self, out: &mut Vec<Row>, row: Row, h: u64) {
        let base = self.base;
        if self.chains.insert_unless(h, |at| out[base + at] == row) {
            out.push(row);
        }
    }
}

/// Union core: all distinct rows from both inputs, drained into a
/// caller-provided output buffer (so the streaming executor can recycle all
/// three batch buffers), first occurrences in input order. `cols` are the
/// hashed columns.
pub fn union_rows_into(
    left: &mut Vec<Row>,
    right: &mut Vec<Row>,
    cols: &[usize],
    rows: &mut Vec<Row>,
) {
    let cap = left.len() + right.len();
    rows.reserve(cap);
    let mut kept = Kept::new(rows, cols, cap);
    for row in left.drain(..).chain(right.drain(..)) {
        kept.push_new(rows, row);
    }
}

/// Intersection core: distinct left rows present in the right input,
/// drained into a caller-provided buffer. `cols` are the hashed columns.
pub fn intersect_rows_into<R: AsRef<[Value]>>(
    left: &mut Vec<Row>,
    right: &[R],
    cols: &[usize],
    rows: &mut Vec<Row>,
) {
    filter_rows_into(true, left, right, cols, rows);
}

/// Difference core: distinct left rows not present in the right input,
/// drained into a caller-provided buffer. `cols` are the hashed columns.
pub fn difference_rows_into<R: AsRef<[Value]>>(
    left: &mut Vec<Row>,
    right: &[R],
    cols: &[usize],
    rows: &mut Vec<Row>,
) {
    filter_rows_into(false, left, right, cols, rows);
}

/// Distinct left rows whose membership in `right` equals `member`.
fn filter_rows_into<R: AsRef<[Value]>>(
    member: bool,
    left: &mut Vec<Row>,
    right: &[R],
    cols: &[usize],
    rows: &mut Vec<Row>,
) {
    let mut right_set = Chains::with_capacity(right.len());
    for r in right {
        right_set.insert_unless(row_hash(r.as_ref(), cols), |_| false);
    }
    let mut kept = Kept::new(rows, cols, 0);
    for row in left.drain(..) {
        let h = row_hash(&row, cols);
        if right_set.any(h, |at| right[at].as_ref() == row.as_slice()) == member {
            kept.push_hashed(rows, row, h);
        }
    }
}

/// One set operation between materialized tables: ∪ keeps all distinct
/// rows of both inputs, ∩ the distinct left rows also in the right input,
/// − the distinct left rows that are not. Hashes whole rows: the
/// reference the keyed cores are held to.
pub fn run_setop(kind: SetOpKind, left: &Table, right: &Table, out: &Derived) -> Result<Table> {
    let owned = |t: &Table| -> Vec<Row> { t.rows().iter().map(|r| r.to_vec()).collect() };
    let mut left = owned(left);
    let mut rows = Vec::new();
    match kind {
        SetOpKind::Union => union_rows_into(&mut left, &mut owned(right), &[], &mut rows),
        SetOpKind::Intersect => intersect_rows_into(&mut left, right.rows(), &[], &mut rows),
        SetOpKind::Difference => difference_rows_into(&mut left, right.rows(), &[], &mut rows),
    }
    Table::from_rows(out.schema.clone(), out.key.clone(), rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use svc_storage::{DataType, Schema, Value};

    fn t(ids: &[i64]) -> Table {
        let schema = Schema::from_pairs(&[("id", DataType::Int)]).unwrap();
        let mut t = Table::new(schema, &["id"]).unwrap();
        for &i in ids {
            t.insert(vec![Value::Int(i)]).unwrap();
        }
        t
    }

    fn d() -> Derived {
        let schema = Schema::from_pairs(&[("id", DataType::Int)]).unwrap();
        Derived { schema, key: vec![0] }
    }

    fn ids(t: &Table) -> Vec<i64> {
        let mut v: Vec<i64> = t.rows().iter().map(|r| r[0].as_i64().unwrap()).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn union_dedupes() {
        let out = run_setop(SetOpKind::Union, &t(&[1, 2, 3]), &t(&[2, 3, 4]), &d()).unwrap();
        assert_eq!(ids(&out), vec![1, 2, 3, 4]);
    }

    #[test]
    fn intersect_keeps_common() {
        let out = run_setop(SetOpKind::Intersect, &t(&[1, 2, 3]), &t(&[2, 3, 4]), &d()).unwrap();
        assert_eq!(ids(&out), vec![2, 3]);
    }

    #[test]
    fn difference_removes_right() {
        let out = run_setop(SetOpKind::Difference, &t(&[1, 2, 3]), &t(&[2, 3, 4]), &d()).unwrap();
        assert_eq!(ids(&out), vec![1]);
    }

    /// The cores as they were, deduping through a `HashSet<Row>` of clones:
    /// the reference the chain dedup must match row for row.
    fn set_reference(kind: SetOpKind, left: &[Row], right: &[Row]) -> Vec<Row> {
        let right_set: HashSet<&Row> = right.iter().collect();
        let mut seen: HashSet<Row> = HashSet::new();
        let mut out = Vec::new();
        let keep = |row: &Row| match kind {
            SetOpKind::Union => true,
            SetOpKind::Intersect => right_set.contains(row),
            SetOpKind::Difference => !right_set.contains(row),
        };
        let tail = if kind == SetOpKind::Union { right } else { &[] };
        for row in left.iter().chain(tail) {
            if keep(row) && seen.insert(row.clone()) {
                out.push(row.clone());
            }
        }
        out
    }

    /// Duplicates within a side and across sides, NULLs, `-0.0` beside
    /// `0.0`, strings and mixed types: every core keeps exactly the rows,
    /// in exactly the order, a `HashSet<Row>` dedup kept — including into an
    /// output buffer that already holds rows — whichever columns it hashes.
    /// Rows share values in either column while differing in the other, so
    /// a keyed hash puts unequal rows on one chain.
    #[test]
    fn chain_dedup_matches_a_hash_set_dedup_row_for_row() {
        let f = Value::Float;
        let rows =
            |cells: &[[Value; 2]]| -> Vec<Row> { cells.iter().map(|c| c.to_vec()).collect() };
        let left = rows(&[
            [Value::Int(1), f(0.0)],
            [Value::Int(1), f(-0.0)],
            [Value::Null, Value::Null],
            [Value::Int(1), f(0.0)],
            [Value::str("a"), Value::Int(2)],
            [Value::Null, Value::Null],
            [Value::Int(2), f(f64::NAN)],
            [Value::Int(2), f(f64::NAN)],
            [Value::Int(3), Value::Null],
        ]);
        let right = rows(&[
            [Value::Int(3), Value::Null],
            [Value::str("a"), Value::Int(2)],
            [Value::Int(9), f(1.5)],
            [Value::Int(9), f(1.5)],
            [Value::Int(1), f(-0.0)],
            [Value::Float(1.0), f(0.0)],
        ]);
        let prefix = vec![vec![Value::Int(1), f(0.0)]];
        for cols in [&[][..], &[0], &[1], &[0, 1]] {
            for kind in [SetOpKind::Union, SetOpKind::Intersect, SetOpKind::Difference] {
                let mut got = prefix.clone();
                let (mut l, mut r) = (left.clone(), right.clone());
                match kind {
                    SetOpKind::Union => union_rows_into(&mut l, &mut r, cols, &mut got),
                    SetOpKind::Intersect => intersect_rows_into(&mut l, &r, cols, &mut got),
                    SetOpKind::Difference => difference_rows_into(&mut l, &r, cols, &mut got),
                }
                let mut want = prefix.clone();
                want.extend(set_reference(kind, &left, &right));
                assert_eq!(got, want, "{kind:?} hashing {cols:?}");
                assert!(l.is_empty(), "{kind:?} drains its left input");
            }
        }
        // The reference itself collapses what `Value` equates.
        assert_eq!(set_reference(SetOpKind::Union, &left, &right).len(), 7);
    }

    #[test]
    fn empty_inputs() {
        let len = |kind, l: &[i64], r: &[i64]| run_setop(kind, &t(l), &t(r), &d()).unwrap().len();
        assert_eq!(len(SetOpKind::Union, &[], &[1]), 1);
        assert_eq!(len(SetOpKind::Intersect, &[], &[1]), 0);
        assert_eq!(len(SetOpKind::Difference, &[1], &[]), 1);
    }
}
