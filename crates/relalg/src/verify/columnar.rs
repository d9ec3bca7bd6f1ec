//! Columnar integrity checks: selection vectors and column chunks.
//!
//! The vectorized kernels refine a [`SelVec`] over a [`svc_storage::ColumnSet`] whose
//! columns must stay mutually consistent — equal lengths, validity masks
//! matching, `SelVec::Idx` strictly increasing and in bounds. The checks
//! are always compiled; [`debug_check_chunk`] is the `debug_assert`-style
//! hook `run_ops` calls at every chunk boundary when the `verify` feature
//! is on (and compiles to nothing otherwise).
//!
//! Zone-map soundness (min/max actually bounding the data, an O(rows)
//! scan) is checked once per extraction in `Table::columns` and on owned
//! sets a projection kernel just built — not per shared chunk, where the
//! same table-wide set would be rescanned per morsel.

use svc_storage::{Result, StorageError};

use crate::exec::column::chunk::ChunkCols;
use crate::exec::{ColumnChunk, SelVec};

/// A selection vector is well-formed over `len` rows: a `Range(lo, hi)` has
/// `lo <= hi <= len`; an `Idx` list is strictly increasing with every index
/// `< len`.
pub fn check_selvec(sel: &SelVec, len: usize) -> Result<()> {
    let fail = |msg: String| Err(StorageError::Invalid(format!("selection vector: {msg}")));
    match sel {
        SelVec::Range(lo, hi) => {
            if lo > hi || *hi as usize > len {
                return fail(format!("range [{lo}, {hi}) invalid over {len} rows"));
            }
        }
        SelVec::Idx(v) => {
            for w in v.windows(2) {
                if w[0] >= w[1] {
                    return fail(format!(
                        "indices not strictly increasing: {} then {}",
                        w[0], w[1]
                    ));
                }
            }
            if let Some(&last) = v.last() {
                if last as usize >= len {
                    return fail(format!("index {last} out of range over {len} rows"));
                }
            }
        }
    }
    Ok(())
}

/// A chunk is internally consistent: its columns agree on length (shared
/// sets get the cheap shape check — they were zone-verified at extraction;
/// owned sets, fresh from a projection kernel, get the full check) and its
/// selection vector is well-formed over that length.
pub fn check_chunk(chunk: &ColumnChunk<'_>) -> Result<()> {
    match &chunk.cols {
        ChunkCols::Shared(c) => c.check_shape()?,
        ChunkCols::Owned(c) => c.check()?,
    }
    check_selvec(&chunk.sel, chunk.columns().len)
}

/// Hot-path hook: panics on a corrupt chunk when the `verify` feature is
/// on, compiles to nothing otherwise.
#[inline]
pub fn debug_check_chunk(chunk: &ColumnChunk<'_>) {
    #[cfg(feature = "verify")]
    if let Err(e) = check_chunk(chunk) {
        panic!("chunk integrity: {e}");
    }
    #[cfg(not(feature = "verify"))]
    let _ = chunk;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_and_idx_selvecs_check() {
        assert!(check_selvec(&SelVec::range(0, 10), 10).is_ok());
        assert!(check_selvec(&SelVec::Idx(vec![0, 3, 7]), 8).is_ok());
        assert!(check_selvec(&SelVec::Range(4, 2), 10).is_err(), "lo > hi");
        assert!(check_selvec(&SelVec::Range(0, 11), 10).is_err(), "hi > len");
        assert!(check_selvec(&SelVec::Idx(vec![0, 3, 3]), 8).is_err(), "not strict");
        assert!(check_selvec(&SelVec::Idx(vec![5, 2]), 8).is_err(), "descending");
        assert!(check_selvec(&SelVec::Idx(vec![0, 8]), 8).is_err(), "out of range");
    }
}
