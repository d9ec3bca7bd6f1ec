//! Fused row pipelines: maximal `Scan→σ→Π→η` chains execute as one pass.
//!
//! A [`FusedOp`] sequence is compiled once (predicates bound, projection
//! expressions bound, η key columns resolved) and then applied row by row
//! by one interpreter, `run_chain`. Rows enter *borrowed* — straight out
//! of a bound base table, an upstream batch or a join's scratch row — and
//! stay borrowed through every filter; a projection writes into one of two
//! reused buffers (`ChainBufs`). The reader decides whether to copy: a
//! `Vec<Row>` batch copies a survivor once, at its final width
//! (`feed_borrowed`, `feed_owned`), and a γ group map or a probe reads it
//! in place. That is the "copy only survivors" contract: a selective
//! filter over a large base relation touches every row but copies almost
//! none. Over a leaf, the executor's one fused-scan driver runs this
//! interpreter or the vectorized kernels and hands survivors on the same
//! way.

use svc_storage::{HashSpec, Row, Value};

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

/// The two row buffers a chain projects into, reused from row to row: a
/// Π writes into the buffer its input is not in, so no survivor is built
/// in a fresh `Vec`.
#[derive(Debug, Default)]
pub(crate) struct ChainBufs {
    a: Row,
    b: Row,
}

/// Where a chain left a row that survived it.
pub(crate) enum Through<'b> {
    /// The input row itself: the chain only filtered.
    Input,
    /// A projection of it, in one of the chain's buffers.
    Built(&'b [Value]),
}

/// The chain interpreter: run `ops` over a borrowed row. `None` when a σ
/// or η drops it; otherwise where the survivor is. Every projection is
/// written into `bufs`, so a chain allocates nothing once its buffers
/// have grown to the widest row.
pub(crate) fn run_chain<'b>(
    row: &[Value],
    ops: &[FusedOp],
    bufs: &'b mut ChainBufs,
) -> Option<Through<'b>> {
    let ChainBufs { a, b } = bufs;
    // Which row the next op reads: the input, `a` or `b`.
    let mut at = 0u8;
    for op in ops {
        let cur: &[Value] = match at {
            0 => row,
            1 => a,
            _ => b,
        };
        match op {
            FusedOp::Filter(pred) => {
                if !pred.matches(cur) {
                    return None;
                }
            }
            FusedOp::Hash { key_idx, ratio, spec } => {
                if !spec.selects_row(cur, key_idx, *ratio) {
                    return None;
                }
            }
            FusedOp::Map(exprs) => {
                let (src, dst, next): (&[Value], &mut Row, u8) = match at {
                    0 => (row, a, 1),
                    1 => (a, b, 2),
                    _ => (b, a, 1),
                };
                dst.clear();
                dst.extend(exprs.iter().map(|e| e.eval(src)));
                at = next;
            }
        }
    }
    Some(match at {
        0 => Through::Input,
        1 => Through::Built(a),
        _ => Through::Built(b),
    })
}

/// Stream one borrowed row through `ops` into `out`, copying a survivor
/// once, at its final width.
pub(crate) fn feed_borrowed(
    row: &[Value],
    ops: &[FusedOp],
    bufs: &mut ChainBufs,
    out: &mut Vec<Row>,
) {
    match run_chain(row, ops, bufs) {
        Some(Through::Input) => out.push(row.to_vec()),
        Some(Through::Built(built)) => out.push(built.to_vec()),
        None => {}
    }
}

/// Stream one owned row through `ops` into `out`: a row the chain only
/// filtered moves, a projection is copied out of its buffer.
pub(crate) fn feed_owned(row: Row, ops: &[FusedOp], bufs: &mut ChainBufs, out: &mut Vec<Row>) {
    match run_chain(&row, ops, bufs) {
        Some(Through::Input) => out.push(row),
        Some(Through::Built(built)) => out.push(built.to_vec()),
        None => {}
    }
}
