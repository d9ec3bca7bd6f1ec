//! Fused row pipelines: maximal `Scan→σ→Π→η` chains execute as one pass.
//!
//! A [`FusedOp`] sequence is compiled once (predicates bound, projection
//! expressions bound, η key columns resolved) and then applied row by row.
//! Rows enter *borrowed* — straight out of a bound base table or an
//! upstream batch — and stay borrowed through every filter; a row is only
//! cloned (or built, for projections) once it has survived the whole chain
//! and reaches the sink. That is the "clone only survivors" contract: a
//! selective filter over a large base relation touches every row but
//! copies almost none.

use svc_storage::{HashSpec, Row, Value};

use crate::aggregate::GroupMap;
use crate::scalar::BoundExpr;

/// One fused operator. Filters and η never change the row shape; a
/// projection rebuilds the row, after which the remaining ops see the
/// projected shape (their indices were compiled against it).
#[derive(Debug, Clone)]
pub enum FusedOp {
    /// σ: keep rows matching the bound predicate.
    Filter(BoundExpr),
    /// Π: rebuild the row from bound output expressions.
    Map(Vec<BoundExpr>),
    /// η: keep rows whose key columns hash under the ratio.
    Hash {
        /// Key column positions in the incoming row shape.
        key_idx: Vec<usize>,
        /// Sampling ratio `m`.
        ratio: f64,
        /// Seeded hash function.
        spec: HashSpec,
    },
}

impl FusedOp {
    /// One-character operator tag for plan descriptions.
    pub fn tag(&self) -> char {
        match self {
            FusedOp::Filter(_) => 'σ',
            FusedOp::Map(_) => 'π',
            FusedOp::Hash { .. } => 'η',
        }
    }
}

/// Where surviving rows land. `Vec<Row>` collects materialized batches
/// (cloning borrowed survivors); [`GroupMap`] accumulates γ groups without
/// materializing the input at all.
pub trait RowSink {
    /// Accept a row the pipeline already owns.
    fn owned(&mut self, row: Row);
    /// Accept a row still borrowed from its source; implementations clone
    /// only if they need to keep it.
    fn borrowed(&mut self, row: &[Value]) {
        self.owned(row.to_vec());
    }
}

impl RowSink for Vec<Row> {
    fn owned(&mut self, row: Row) {
        self.push(row);
    }
}

impl RowSink for GroupMap<'_> {
    fn owned(&mut self, row: Row) {
        self.push(&row);
    }

    /// Group accumulation reads the row in place — no survivor clone.
    fn borrowed(&mut self, row: &[Value]) {
        self.push(row);
    }
}

/// Stream one borrowed row through `ops` into `sink`. Filters run on the
/// borrowed row; the first projection takes over ownership.
pub fn feed_borrowed(row: &[Value], ops: &[FusedOp], sink: &mut impl RowSink) {
    for (i, op) in ops.iter().enumerate() {
        match op {
            FusedOp::Filter(pred) => {
                if !pred.matches(row) {
                    return;
                }
            }
            FusedOp::Hash { key_idx, ratio, spec } => {
                if !spec.selects_row(row, key_idx, *ratio) {
                    return;
                }
            }
            FusedOp::Map(exprs) => {
                let mapped: Row = exprs.iter().map(|e| e.eval(row)).collect();
                return feed_owned(mapped, &ops[i + 1..], sink);
            }
        }
    }
    sink.borrowed(row);
}

/// True iff `row` passes every op of a chain that only filters (σ and η).
pub(crate) fn keeps(row: &[Value], ops: &[FusedOp]) -> bool {
    ops.iter().all(|op| match op {
        FusedOp::Filter(pred) => pred.matches(row),
        FusedOp::Hash { key_idx, ratio, spec } => spec.selects_row(row, key_idx, *ratio),
        FusedOp::Map(_) => unreachable!("a filtering chain has no projection"),
    })
}

/// Stream one owned row through `ops` into `sink`; the row moves all the
/// way (projections rebuild it in place of the old one).
pub fn feed_owned(mut row: Row, ops: &[FusedOp], sink: &mut impl RowSink) {
    for op in ops {
        match op {
            FusedOp::Filter(pred) => {
                if !pred.matches(&row) {
                    return;
                }
            }
            FusedOp::Hash { key_idx, ratio, spec } => {
                if !spec.selects_row(&row, key_idx, *ratio) {
                    return;
                }
            }
            FusedOp::Map(exprs) => {
                row = exprs.iter().map(|e| e.eval(&row)).collect();
            }
        }
    }
    sink.owned(row);
}
