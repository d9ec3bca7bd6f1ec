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
    /// evaluated once per currently selected row, in order. Branch-free:
    /// every row is written and only a kept one advances the end, so the
    /// cost is the same at any selectivity (a data-dependent branch per row
    /// mispredicts most often near one half).
    pub fn retain(&mut self, mut keep: impl FnMut(usize) -> bool) {
        match self {
            SelVec::Range(lo, hi) => {
                let mut idx = vec![0; (*hi - *lo) as usize];
                let mut n = 0;
                for i in *lo..*hi {
                    idx[n] = i;
                    n += usize::from(keep(i as usize));
                }
                // Staying dense keeps later kernels on the cheap path.
                if n == idx.len() {
                    return;
                }
                idx.truncate(n);
                *self = SelVec::Idx(idx);
            }
            SelVec::Idx(v) => {
                let mut n = 0;
                for k in 0..v.len() {
                    let i = v[k];
                    v[n] = i;
                    n += usize::from(keep(i as usize));
                }
                v.truncate(n);
            }
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

    /// Refine the selection a batch at a time: `keep` gets the selected
    /// rows, in increasing order, at most `n` at a time, and pushes the ones
    /// that stay onto its output, in order.
    pub(crate) fn retain_batches(&mut self, n: usize, mut keep: impl FnMut(&[u32], &mut Vec<u32>)) {
        let mut kept = Vec::with_capacity(self.len());
        self.for_each_chunk(n, |rows| keep(rows, &mut kept));
        // Keeping every row leaves the selection as it was (a range stays
        // dense).
        if kept.len() != self.len() {
            *self = SelVec::Idx(kept);
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
    fn retain_keeps_exactly_the_rows_a_filter_keeps() {
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let mut bits = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        // Two passes per pattern: the dense arm, then the index arm.
        for _ in 0..50 {
            let (lo, hi) = (bits() % 40, 40 + bits() % 300);
            let (a, b) = (bits(), bits());
            let first = |i: usize| (a >> (i % 64)) & 1 == 1;
            let second = |i: usize| (b >> (i % 61)) & 1 == 1;
            let mut sel = SelVec::range(lo as usize, hi as usize);
            sel.retain(first);
            let want: Vec<usize> = (lo as usize..hi as usize).filter(|&i| first(i)).collect();
            assert_eq!(sel.iter().collect::<Vec<_>>(), want);
            sel.retain(second);
            let want: Vec<usize> = want.into_iter().filter(|&i| second(i)).collect();
            assert_eq!(sel.iter().collect::<Vec<_>>(), want);
        }
    }

    #[test]
    fn full_retain_stays_dense() {
        let mut sel = SelVec::range(0, 5);
        sel.retain(|_| true);
        assert!(matches!(sel, SelVec::Range(0, 5)));
    }
}
