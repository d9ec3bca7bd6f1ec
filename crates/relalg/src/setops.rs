//! Set operations ∪, ∩, − with set (duplicate-eliminating) semantics over
//! whole rows.
//!
//! The row-based cores ([`union_rows_into`], [`intersect_rows_into`],
//! [`difference_rows_into`]) are shared by the streaming executor
//! (`crate::exec`), which works on plain `Vec<Row>` batches; [`run_setop`]
//! keeps the legacy table-in/table-out shape for the materializing
//! evaluator.
//!
//! The cores dedup through `Kept`, a hash → row-position chain over the
//! output buffer itself: a distinct row is moved into the output once and
//! never cloned into a set.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, BuildHasherDefault};

use svc_storage::{Result, Row, Table};

use crate::derive::Derived;
use crate::plan::SetOpKind;

/// End of a [`Kept`] chain.
const END: u32 = u32::MAX;

/// The distinct rows an output buffer has received so far, found by row
/// hash through a chain of their positions in that buffer, so a candidate
/// is compared in place. Hashes (`Row: Hash`) and compares (`Row: Eq`) as a
/// `HashSet<Row>` does: the same rows count as duplicates.
struct Kept {
    hasher: BuildHasherDefault<DefaultHasher>,
    /// Length of the output buffer before the first kept row.
    base: usize,
    /// The latest kept position per row hash.
    heads: HashMap<u64, u32>,
    /// `chain[i]`: the kept position before `i` with the same hash.
    chain: Vec<u32>,
}

impl Kept {
    fn new(out: &[Row], capacity: usize) -> Kept {
        Kept {
            hasher: BuildHasherDefault::default(),
            base: out.len(),
            heads: HashMap::with_capacity(capacity),
            chain: Vec::with_capacity(capacity),
        }
    }

    /// Move `row` onto `out` unless an equal row is already there.
    fn push_new(&mut self, out: &mut Vec<Row>, row: Row) {
        let h = self.hasher.hash_one(&row);
        let head = self.heads.entry(h).or_insert(END);
        let mut at = *head;
        while at != END {
            if out[self.base + at as usize] == row {
                return;
            }
            at = self.chain[at as usize];
        }
        self.chain.push(*head);
        *head = (self.chain.len() - 1) as u32;
        out.push(row);
    }
}

/// Union core: all distinct rows from both inputs, drained into a
/// caller-provided output buffer (so the streaming executor can recycle all
/// three batch buffers), first occurrences in input order.
pub fn union_rows_into(left: &mut Vec<Row>, right: &mut Vec<Row>, rows: &mut Vec<Row>) {
    let cap = left.len() + right.len();
    rows.reserve(cap);
    let mut kept = Kept::new(rows, cap);
    for row in left.drain(..).chain(right.drain(..)) {
        kept.push_new(rows, row);
    }
}

/// Intersection core: distinct left rows present in the right input,
/// drained into a caller-provided buffer.
pub fn intersect_rows_into(left: &mut Vec<Row>, right: &[Row], rows: &mut Vec<Row>) {
    filter_rows_into(true, left, right, rows);
}

/// Difference core: distinct left rows not present in the right input,
/// drained into a caller-provided buffer.
pub fn difference_rows_into(left: &mut Vec<Row>, right: &[Row], rows: &mut Vec<Row>) {
    filter_rows_into(false, left, right, rows);
}

/// Distinct left rows whose membership in `right` equals `member`.
fn filter_rows_into(member: bool, left: &mut Vec<Row>, right: &[Row], rows: &mut Vec<Row>) {
    let right_set: HashSet<&Row> = right.iter().collect();
    let mut kept = Kept::new(rows, 0);
    for row in left.drain(..) {
        if right_set.contains(&row) == member {
            kept.push_new(rows, row);
        }
    }
}

/// One set operation between materialized tables: ∪ keeps all distinct
/// rows of both inputs, ∩ the distinct left rows also in the right input,
/// − the distinct left rows that are not.
pub fn run_setop(kind: SetOpKind, left: Table, right: Table, out: &Derived) -> Result<Table> {
    let (mut left, mut right) = (left.into_rows(), right.into_rows());
    let mut rows = Vec::new();
    match kind {
        SetOpKind::Union => union_rows_into(&mut left, &mut right, &mut rows),
        SetOpKind::Intersect => intersect_rows_into(&mut left, &right, &mut rows),
        SetOpKind::Difference => difference_rows_into(&mut left, &right, &mut rows),
    }
    Table::from_rows(out.schema.clone(), out.key.clone(), rows)
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let out = run_setop(SetOpKind::Union, t(&[1, 2, 3]), t(&[2, 3, 4]), &d()).unwrap();
        assert_eq!(ids(&out), vec![1, 2, 3, 4]);
    }

    #[test]
    fn intersect_keeps_common() {
        let out = run_setop(SetOpKind::Intersect, t(&[1, 2, 3]), t(&[2, 3, 4]), &d()).unwrap();
        assert_eq!(ids(&out), vec![2, 3]);
    }

    #[test]
    fn difference_removes_right() {
        let out = run_setop(SetOpKind::Difference, t(&[1, 2, 3]), t(&[2, 3, 4]), &d()).unwrap();
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
    /// output buffer that already holds rows.
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
        for kind in [SetOpKind::Union, SetOpKind::Intersect, SetOpKind::Difference] {
            let mut got = prefix.clone();
            let (mut l, mut r) = (left.clone(), right.clone());
            match kind {
                SetOpKind::Union => union_rows_into(&mut l, &mut r, &mut got),
                SetOpKind::Intersect => intersect_rows_into(&mut l, &r, &mut got),
                SetOpKind::Difference => difference_rows_into(&mut l, &r, &mut got),
            }
            let mut want = prefix.clone();
            want.extend(set_reference(kind, &left, &right));
            assert_eq!(got, want, "{kind:?}");
            assert!(l.is_empty(), "{kind:?} drains its left input");
        }
        // The reference itself collapses what `Value` equates.
        assert_eq!(set_reference(SetOpKind::Union, &left, &right).len(), 7);
    }

    #[test]
    fn empty_inputs() {
        let len = |kind, l: &[i64], r: &[i64]| run_setop(kind, t(l), t(r), &d()).unwrap().len();
        assert_eq!(len(SetOpKind::Union, &[], &[1]), 1);
        assert_eq!(len(SetOpKind::Intersect, &[], &[1]), 0);
        assert_eq!(len(SetOpKind::Difference, &[1], &[]), 1);
    }
}
