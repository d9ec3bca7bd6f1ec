//! Columnar chunks and vectorized kernels for the streaming executor and
//! the query answer path.
//!
//! Conversion happens at exactly two boundaries: a leaf reads the bound
//! [`svc_storage::Table`]'s typed columns (built once per mutation by
//! the table's per-column cache, shared by every chunk, every morsel and
//! every query), and the survivors of a fused pipeline are gathered back
//! into rows only where a pipeline breaker (join, γ, set op, the keyed
//! root) needs them. In between, operators touch per-column typed slices
//! through a selection vector — no `Value` boxing, no row allocation for
//! non-survivors.

pub mod chunk;
pub mod kernels;
pub mod selection;

pub use chunk::{ChunkCols, ColumnChunk};
pub(crate) use kernels::hash_key_at;
pub use kernels::{
    apply_hash, compile_expr, compile_map, compile_pred, ColExpr, ColPred, MapPlan, VecOp,
};
pub use selection::SelVec;

use svc_storage::Row;

/// True when driving this compiled op chain columnar beats the row path:
/// the leading op must be vectorizable ([`VecOp::profitable`]). Once a
/// real kernel has refined the selection, later row-fallback ops gather
/// survivors only, so only the head of the chain decides.
pub fn profitable(ops: &[VecOp]) -> bool {
    ops.first().is_some_and(VecOp::profitable)
}

/// Run a vectorized operator chain over a chunk, in order. `scratch` is
/// the shared row buffer for kernels that fall back to row evaluation.
/// Returns the number of predicate×slice decisions settled by a zone map
/// without scanning (the `zone_skips` metric; free to ignore).
/// Under the `verify` feature, the chunk's integrity (column lengths,
/// validity masks, selection-vector ordering — see
/// [`crate::verify::columnar`]) is checked on entry and after every
/// kernel; the hooks compile to nothing otherwise.
pub fn run_ops(chunk: &mut ColumnChunk<'_>, ops: &[VecOp], scratch: &mut Row) -> u32 {
    crate::verify::columnar::debug_check_chunk(chunk);
    let mut zone_skips = 0;
    for op in ops {
        if chunk.is_empty() {
            return zone_skips;
        }
        match op {
            VecOp::Filter(pred) => {
                let ColumnChunk { cols, sel } = chunk;
                let cs = match cols {
                    ChunkCols::Shared(c) => *c,
                    ChunkCols::Owned(c) => &*c,
                };
                zone_skips += pred.apply(cs, sel, scratch);
            }
            VecOp::Map(plan) => {
                let mapped = plan.apply(chunk.columns(), &chunk.sel, scratch);
                chunk.replace(mapped);
            }
            VecOp::Hash { key_idx, ratio, spec } => {
                let ColumnChunk { cols, sel } = chunk;
                let cs = match cols {
                    ChunkCols::Shared(c) => *c,
                    ChunkCols::Owned(c) => &*c,
                };
                apply_hash(cs, sel, key_idx, *ratio, *spec);
            }
        }
        crate::verify::columnar::debug_check_chunk(chunk);
    }
    zone_skips
}
