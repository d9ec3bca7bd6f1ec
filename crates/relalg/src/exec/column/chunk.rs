//! Column chunks: the unit of vectorized execution.
//!
//! A [`ColumnChunk`] pairs a set of typed columns with a [`SelVec`] naming
//! the rows still alive. Chunks over a base table *share* the table's
//! cached columns (`Table::columns`, built once per mutation) — a leaf
//! scan is one chunk whose initial selection is the table's whole row
//! range. A projection produces an *owned* column set sized to the
//! survivors, after which the selection resets to dense.
//!
//! Rows leave a chunk at one place, the executor's fused-scan driver.
//! While a chunk still shares the leaf's columns (the chain only
//! filtered), its selection names the leaf's own rows, which are handed
//! over as they are. An owned chunk's survivors are gathered one at a
//! time into a reused row.

use svc_storage::ColumnSet;

use super::selection::SelVec;

/// The column storage behind a chunk: borrowed from a table's cached
/// columnar projection, or owned (built by a projection kernel).
pub enum ChunkCols<'a> {
    /// Columns shared with the source table (zero-copy leaf conversion).
    Shared(&'a ColumnSet),
    /// Columns materialized by a projection over the survivors.
    Owned(ColumnSet),
}

/// A batch of rows in columnar form with a selection vector.
pub struct ColumnChunk<'a> {
    /// Column storage.
    pub cols: ChunkCols<'a>,
    /// Live rows, in increasing source order.
    pub sel: SelVec,
}

impl<'a> ColumnChunk<'a> {
    /// A chunk over the row range `[lo, hi)` of shared columns — how a
    /// leaf scan enters the vectorized pipeline.
    pub fn over(cols: &'a ColumnSet, lo: usize, hi: usize) -> ColumnChunk<'a> {
        debug_assert!(hi <= cols.len);
        ColumnChunk { cols: ChunkCols::Shared(cols), sel: SelVec::range(lo, hi) }
    }

    /// The column set currently backing this chunk.
    #[inline]
    pub fn columns(&self) -> &ColumnSet {
        match &self.cols {
            ChunkCols::Shared(c) => c,
            ChunkCols::Owned(c) => c,
        }
    }

    /// Number of selected rows.
    pub fn len(&self) -> usize {
        self.sel.len()
    }

    /// True iff no rows are selected.
    pub fn is_empty(&self) -> bool {
        self.sel.is_empty()
    }

    /// Replace the backing columns with an owned set over exactly the
    /// current survivors; the selection resets to dense.
    pub fn replace(&mut self, cols: ColumnSet) {
        let n = cols.len;
        self.cols = ChunkCols::Owned(cols);
        self.sel = SelVec::range(0, n);
    }
}
