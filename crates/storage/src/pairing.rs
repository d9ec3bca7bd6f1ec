//! Two keyed tables joined on their primary keys, by row position.
//!
//! A [`Pairing`] is the full outer join by key of a table `L` with a table
//! `R` of the same key, stored as positions: for each row of `L` the row of
//! `R` under the same key, if any, plus the rows of `R` no row of `L`
//! matches. It depends only on the two table states, so a reader that pairs
//! the same two states many times — one estimate per query over one cleaned
//! sample and its stale counterpart — reads it from
//! [`Table::paired_with`]'s memo and hashes no key after the first call.
//! When `L` is `R` folded by keyed edits (the cleaned sample is the stale
//! sample folded), even the first call hashes none: the pairing is read
//! off the positions the edits moved. Such a pairing also knows which rows
//! of `L` the edits touched ([`Pairing::changed`]); every other row of `L`
//! *is* `R`'s row at the same position, so a reader that evaluates
//! something per row of both tables can copy `R`'s results there and
//! evaluate `L` at the touched rows only.

use crate::table::Table;

/// `L ⟗ R` on the primary key, as row positions (see the module docs).
#[derive(Debug)]
pub struct Pairing {
    /// Per row of `L`, in table order: the position of `R`'s row under the
    /// same key.
    partners: Vec<Option<usize>>,
    /// Positions of the rows of `R` no row of `L` matches, in table order.
    unmatched: Vec<usize>,
    /// [`Pairing::changed`].
    changed: Option<Vec<usize>>,
}

/// Two pairings are equal when they join the same rows: what one of them
/// also knows about unchanged rows is not part of the join.
impl PartialEq for Pairing {
    fn eq(&self, other: &Pairing) -> bool {
        self.partners == other.partners && self.unmatched == other.unmatched
    }
}

impl Eq for Pairing {}

impl Pairing {
    /// Pair `left` with `right`: one borrowed key lookup into `right` per
    /// row of `left` ([`Table::position_of`]), so no key value is copied;
    /// `right`'s unmatched rows are the positions no lookup hit, so no key
    /// of `right` is hashed.
    pub(crate) fn of(left: &Table, right: &Table) -> Pairing {
        let mut matched = vec![false; right.len()];
        let partners = left
            .rows()
            .iter()
            .map(|row| {
                let j = right.position_of(row, left.key())?;
                matched[j] = true;
                Some(j)
            })
            .collect();
        let unmatched = (0..right.len()).filter(|&j| !matched[j]).collect();
        Pairing { partners, unmatched, changed: None }
    }

    /// Pair a table of `len` rows with `R`, an earlier state of it of
    /// `right_len` rows, by position alone: row `i` of `L` *is* `R`'s row
    /// `i`, except at the positions `moved` names, ascending — every
    /// position from `right_len` on among them — each with the position of
    /// `R`'s row under its key. No key is read.
    pub(crate) fn by_position(
        len: usize,
        right_len: usize,
        moved: Vec<(usize, Option<usize>)>,
    ) -> Pairing {
        let mut partners: Vec<_> = (0..len).map(|i| (i < right_len).then_some(i)).collect();
        let mut changed = Vec::with_capacity(moved.len());
        for (i, j) in moved {
            partners[i] = j;
            changed.push(i);
        }
        debug_assert!(changed.windows(2).all(|w| w[0] < w[1]), "moved positions out of order");
        debug_assert!(changed.len() >= len.saturating_sub(right_len), "an appended row unnamed");
        let mut matched = vec![false; right_len];
        for &j in partners.iter().flatten() {
            matched[j] = true;
        }
        let unmatched = (0..right_len).filter(|&j| !matched[j]).collect();
        Pairing { partners, unmatched, changed: Some(changed) }
    }

    /// Per row of `L`, in table order: the position of `R`'s row under the
    /// same key, `None` where `R` has no such row.
    pub fn partners(&self) -> &[Option<usize>] {
        &self.partners
    }

    /// Positions of the rows of `R` that no row of `L` matches, in table
    /// order.
    pub fn unmatched(&self) -> &[usize] {
        &self.unmatched
    }

    /// For a pairing read off positions, the rows of `L` whose contents may
    /// differ from `R`'s row at the same position, in increasing order:
    /// every other row of `L` is `R`'s row at its own position (the same
    /// shared row), and every row past `R`'s end is named. `None` for a
    /// pairing by key lookup, which knows no such thing.
    pub fn changed(&self) -> Option<&[usize]> {
        self.changed.as_deref()
    }

    /// Rows of `R` the pairing covers: the matched ones and the rest.
    #[cfg(feature = "verify")]
    pub(crate) fn right_len(&self) -> usize {
        self.partners.iter().flatten().count() + self.unmatched.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::staged::StagedEdits;
    use crate::table::KeyTuple;
    use crate::value::{DataType, Value};

    fn keyed(ids: &[i64]) -> Table {
        let schema = Schema::from_pairs(&[("id", DataType::Int), ("x", DataType::Float)]).unwrap();
        let rows = ids.iter().map(|&id| vec![Value::Int(id), Value::Float(id as f64)]).collect();
        Table::from_rows(schema, vec![0], rows).unwrap()
    }

    #[test]
    fn pairs_rows_by_key_in_table_order() {
        let (left, right) = (keyed(&[3, 1, 2]), keyed(&[8, 2, 7, 3]));
        let p = Pairing::of(&left, &right);
        assert_eq!(p.partners(), &[Some(3), None, Some(1)]);
        assert_eq!(p.unmatched(), &[0, 2]);
        let p = Pairing::of(&left, &left.empty_like());
        assert_eq!((p.partners(), p.unmatched()), (&[None, None, None][..], &[][..]));
    }

    #[test]
    fn paired_with_is_memoized_per_pair_of_states() {
        let builds = Table::pairing_build_count;
        let (mut left, mut right) = (keyed(&[3, 1, 2]), keyed(&[8, 2, 7, 3]));
        let before = builds();
        let first = left.paired_with(&right);
        assert_eq!(*left.paired_with(&right), *first);
        assert_eq!(builds() - before, 1, "a second read hashes no key");
        // An edit on either side is a new state: the next read pairs again.
        right.delete(&KeyTuple(vec![Value::Int(3)]));
        assert_eq!(left.paired_with(&right).partners(), &[None, None, Some(1)]);
        left.insert(vec![Value::Int(7), Value::Float(7.0)]).unwrap();
        assert_eq!(left.paired_with(&right).partners(), &[None, None, Some(1), Some(2)]);
        assert_eq!(builds() - before, 3);
        // A clone is its source's state until either mutates, so it pairs
        // like its source.
        let copy = right.clone();
        left.paired_with(&copy);
        left.paired_with(&right);
        assert_eq!(builds() - before, 3);
    }

    /// A state reached by bulk edits pairs with the state they started from
    /// by position, with no key lookup, and equals the pairing by key —
    /// through swap-remove moves, appends and a key deleted and put back;
    /// so does a clone with its source.
    #[test]
    fn edits_pair_with_their_origin_by_position() {
        let builds = Table::pairing_build_count;
        let origin = keyed(&[1, 2, 3, 4, 5]);
        let mut next = origin.clone();
        // Staged and applied in order: a positive id puts its row, a
        // negative one deletes the key.
        let edit = |next: &mut Table, ids: [i64; 3]| {
            let mut edits = StagedEdits::default();
            for id in ids {
                let row = vec![Value::Int(id.abs()), Value::Float(-(id.abs() as f64))];
                if id > 0 {
                    edits.put(next, row);
                } else {
                    edits.delete(next, row);
                }
            }
            next.apply_edits(edits);
        };
        edit(&mut next, [-2, 9, 4]);
        edit(&mut next, [-1, 2, -7]);
        let before = builds();
        let pairing = next.paired_with(&origin);
        assert_eq!(builds(), before, "no key is hashed");
        let same = origin.clone().paired_with(&origin);
        assert_eq!(
            (same.partners(), builds()),
            (&[Some(0), Some(1), Some(2), Some(3), Some(4)][..], before)
        );
        assert_eq!(*pairing, Pairing::of(&next, &origin));
        assert_eq!(pairing.unmatched(), &[0]);
        // Every row the edits did not touch is the origin's row at its own
        // position; a clone touched none, and a key lookup knows nothing.
        let changed = pairing.changed().unwrap();
        for i in (0..next.len()).filter(|i| !changed.contains(i)) {
            assert!(std::sync::Arc::ptr_eq(&next.rows()[i], &origin.rows()[i]), "row {i}");
        }
        assert!(changed.windows(2).all(|w| w[0] < w[1]));
        assert!(changed.len() < next.len(), "{changed:?}");
        assert_eq!(same.changed(), Some(&[][..]));
        assert_eq!(Pairing::of(&next, &origin).changed(), None);
        // Another mutator forgets the lineage: the next pairing is by key.
        next.upsert(vec![Value::Int(3), Value::Float(0.0)]).unwrap();
        assert_eq!(*next.paired_with(&origin), Pairing::of(&next, &origin));
        assert_eq!(builds(), before + 1);
    }
}
