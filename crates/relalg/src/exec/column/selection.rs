//! Selection vectors: which rows of a column chunk are still alive.
//!
//! A fresh chunk starts as a dense [`SelVec::Range`]; the first filter that
//! drops a row switches to an explicit, strictly increasing index list
//! ([`SelVec::Idx`]). Kernels *refine* the selection — they never reorder
//! it — so surviving rows keep their source order, which is what makes the
//! vectorized executor's output bitwise identical to the row-at-a-time
//! reference path.

/// The live rows of a chunk, in increasing row order.
#[derive(Debug, Clone)]
pub enum SelVec {
    /// All rows in `[lo, hi)` are selected.
    Range(u32, u32),
    /// Exactly these rows (strictly increasing) are selected.
    Idx(Vec<u32>),
}

impl SelVec {
    /// A dense selection over `[lo, hi)`.
    pub fn range(lo: usize, hi: usize) -> SelVec {
        debug_assert!(lo <= hi);
        SelVec::Range(lo as u32, hi as u32)
    }

    /// Number of selected rows.
    pub fn len(&self) -> usize {
        match self {
            SelVec::Range(lo, hi) => (hi - lo) as usize,
            SelVec::Idx(v) => v.len(),
        }
    }

    /// True iff nothing is selected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate the selected row indices in increasing order.
    pub fn iter(&self) -> SelIter<'_> {
        match self {
            SelVec::Range(lo, hi) => SelIter::Range(*lo..*hi),
            SelVec::Idx(v) => SelIter::Idx(v.iter()),
        }
    }

    /// Replace the selection with the rows for which `keep` holds —
    /// evaluated once per currently selected row, in order.
    pub fn retain(&mut self, mut keep: impl FnMut(usize) -> bool) {
        match self {
            SelVec::Range(lo, hi) => {
                let mut idx = Vec::with_capacity((*hi - *lo) as usize);
                for i in *lo..*hi {
                    if keep(i as usize) {
                        idx.push(i);
                    }
                }
                // Staying dense keeps later kernels on the cheap path.
                if idx.len() == (*hi - *lo) as usize {
                    return;
                }
                *self = SelVec::Idx(idx);
            }
            SelVec::Idx(v) => v.retain(|&i| keep(i as usize)),
        }
    }

    /// Call `f` with the selected row indices, in increasing order, at most
    /// `n` at a time.
    pub(crate) fn for_each_chunk(&self, n: usize, mut f: impl FnMut(&[u32])) {
        match self {
            SelVec::Range(lo, hi) => {
                let mut buf = Vec::with_capacity(n);
                let mut start = *lo;
                while start < *hi {
                    let end = (*hi).min(start.saturating_add(n as u32));
                    buf.clear();
                    buf.extend(start..end);
                    f(&buf);
                    start = end;
                }
            }
            SelVec::Idx(v) => v.chunks(n).for_each(f),
        }
    }

    /// Drop every selected row.
    pub fn clear(&mut self) {
        *self = SelVec::Idx(Vec::new());
    }
}

/// Iterator over selected row indices.
pub enum SelIter<'a> {
    /// Dense range.
    Range(std::ops::Range<u32>),
    /// Explicit indices.
    Idx(std::slice::Iter<'a, u32>),
}

impl Iterator for SelIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        match self {
            SelIter::Range(r) => r.next().map(|i| i as usize),
            SelIter::Idx(it) => it.next().map(|&i| i as usize),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            SelIter::Range(r) => r.size_hint(),
            SelIter::Idx(it) => it.size_hint(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_refines_to_indices() {
        let mut sel = SelVec::range(2, 8);
        assert_eq!(sel.len(), 6);
        sel.retain(|i| i % 2 == 0);
        assert_eq!(sel.iter().collect::<Vec<_>>(), vec![2, 4, 6]);
        sel.retain(|i| i > 2);
        assert_eq!(sel.iter().collect::<Vec<_>>(), vec![4, 6]);
        sel.clear();
        assert!(sel.is_empty());
    }

    #[test]
    fn full_retain_stays_dense() {
        let mut sel = SelVec::range(0, 5);
        sel.retain(|_| true);
        assert!(matches!(sel, SelVec::Range(0, 5)));
    }
}
