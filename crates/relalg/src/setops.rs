//! Set operations ∪, ∩, − with set (duplicate-eliminating) semantics over
//! whole rows.
//!
//! The row-based cores ([`union_rows_into`], [`intersect_rows_into`],
//! [`difference_rows_into`]) are shared by the streaming executor
//! (`crate::exec`), which works on plain `Vec<Row>` batches; [`run_setop`]
//! keeps the legacy table-in/table-out shape for the materializing
//! evaluator.

use std::collections::HashSet;

use svc_storage::{Result, Row, Table};

use crate::derive::Derived;
use crate::plan::SetOpKind;

/// Union core: all distinct rows from both inputs, drained into a
/// caller-provided output buffer (so the streaming executor can recycle all
/// three batch buffers); only the dedup set pays a clone per distinct row.
pub fn union_rows_into(left: &mut Vec<Row>, right: &mut Vec<Row>, rows: &mut Vec<Row>) {
    let cap = left.len() + right.len();
    let mut seen: HashSet<Row> = HashSet::with_capacity(cap);
    rows.reserve(cap);
    for row in left.drain(..).chain(right.drain(..)) {
        if !seen.contains(&row) {
            seen.insert(row.clone());
            rows.push(row);
        }
    }
}

/// Intersection core: distinct left rows present in the right input,
/// drained into a caller-provided buffer.
pub fn intersect_rows_into(left: &mut Vec<Row>, right: &[Row], rows: &mut Vec<Row>) {
    let right_set: HashSet<&Row> = right.iter().collect();
    let mut seen: HashSet<Row> = HashSet::new();
    for row in left.drain(..) {
        if right_set.contains(&row) && !seen.contains(&row) {
            seen.insert(row.clone());
            rows.push(row);
        }
    }
}

/// Difference core: distinct left rows not present in the right input,
/// drained into a caller-provided buffer.
pub fn difference_rows_into(left: &mut Vec<Row>, right: &[Row], rows: &mut Vec<Row>) {
    let right_set: HashSet<&Row> = right.iter().collect();
    let mut seen: HashSet<Row> = HashSet::new();
    for row in left.drain(..) {
        if !right_set.contains(&row) && !seen.contains(&row) {
            seen.insert(row.clone());
            rows.push(row);
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

    #[test]
    fn empty_inputs() {
        let len = |kind, l: &[i64], r: &[i64]| run_setop(kind, t(l), t(r), &d()).unwrap().len();
        assert_eq!(len(SetOpKind::Union, &[], &[1]), 1);
        assert_eq!(len(SetOpKind::Intersect, &[], &[1]), 0);
        assert_eq!(len(SetOpKind::Difference, &[1], &[]), 1);
    }
}
