//! Keyed edits staged against a table and committed later in one call
//! ([`Table::apply_edits`]): the form a keyed fold stages into and its
//! commit step reads.
//!
//! Each key is hashed once. A stager computes a change row's hash with the
//! target's own key hasher ([`Table::key_hash`]) and hands it to every
//! lookup and edit of that row; the edit carries it into the commit, which
//! finds, stores and removes the row under it without hashing the key
//! again. The staged index files edit slots under those same hashes and
//! confirms each candidate against the key-bearing row it holds, so no key
//! is copied and distinct keys whose hashes collide stay apart.
//!
//! A hash is valid only for the hasher that computed it. A table's clone
//! shares its hasher, so edits staged against a table apply to its clone
//! as they are. The edits record the hasher they were staged against;
//! staging against, or applying to, a table with another hasher first
//! rehashes every staged key with that table's, so no key is ever filed
//! under a foreign hash.

use crate::key_index::KeyIndex;
use crate::table::{KeyTuple, Table};
use crate::value::Value;
use crate::SharedRow;

/// One staged edit: the key's hash under the staged hasher, a row bearing
/// the key in the target's key columns, and the key's new row (`None`: the
/// key leaves).
pub(crate) type Edit = (u64, SharedRow, Option<SharedRow>);

/// Keyed edits staged against a target table and not yet applied: the new
/// row of every touched key, or `None` for a key that left, in first-touch
/// order, so applying them is deterministic. A key touched again keeps its
/// slot; only its new row changes.
#[derive(Debug, Default)]
pub struct StagedEdits {
    edits: Vec<Edit>,
    /// Each key's slot in `edits` under its hash. Its hasher is the one the
    /// edits were staged against.
    index: KeyIndex,
}

/// Where [`StagedEdits::lookup`] found a key: its edit slot, if the key was
/// touched before, and whether a row is held under it (staged or in the
/// target). Handed back to [`StagedEdits::set`].
#[derive(Debug, Clone, Copy)]
pub struct Staged {
    slot: Option<usize>,
    held: bool,
}

impl StagedEdits {
    /// True iff no key was touched.
    pub fn is_empty(&self) -> bool {
        self.edits.is_empty()
    }

    /// Room for `n` more touched keys.
    pub fn reserve(&mut self, n: usize) {
        self.edits.reserve(n);
        self.index.reserve(n);
    }

    /// Commit the staged edits to `target`: the table they were staged
    /// against or a clone of it ([`Table::apply_edits`]). Cannot fail
    /// part-way: every row was validated while staging.
    pub fn apply(self, target: &mut Table) {
        target.apply_edits(self);
    }

    /// File the staged keys under `target`'s hasher, rehashing each one if
    /// they were staged against another.
    fn bind(&mut self, target: &Table) {
        if self.index.same_hasher(target.index()) {
            return;
        }
        self.index = target.index().sharing_hasher(self.edits.len());
        for (slot, (h, key_row, _)) in self.edits.iter_mut().enumerate() {
            *h = target.key_hash(key_row, target.key());
            self.index.insert(*h, slot);
        }
    }

    /// The edits, in first-touch order, each under its key's hash by
    /// `target`'s hasher.
    pub(crate) fn into_edits(mut self, target: &Table) -> Vec<Edit> {
        self.bind(target);
        self.edits
    }

    /// The row under the key `row` holds in `target`'s key columns, as
    /// staged so far — staged edits overlay `target` — and where it was
    /// found. `h` is the key's hash by `target`'s hasher
    /// ([`Table::key_hash`]); no key is hashed here.
    pub fn lookup<'a>(
        &'a mut self,
        target: &'a Table,
        h: u64,
        row: &[Value],
    ) -> (Staged, Option<&'a SharedRow>) {
        self.bind(target);
        let key = target.key();
        let slot = self.index.find(h, |s| KeyTuple::cols_eq(&self.edits[s].1, key, row, key));
        let current = match slot {
            Some(slot) => self.edits[slot].2.as_ref(),
            None => target.find_hashed(h, row, key).map(|pos| &target.rows()[pos]),
        };
        (Staged { slot, held: current.is_some() }, current)
    }

    /// Stage `next` as the row under the key of `key_row`, hashed to `h`,
    /// where [`Self::lookup`] found it `at`. A key that leaves and was
    /// never held needs no edit.
    pub fn set(&mut self, at: Staged, h: u64, key_row: &SharedRow, next: Option<SharedRow>) {
        match at.slot {
            Some(slot) => self.edits[slot].2 = next,
            None if next.is_none() && !at.held => {}
            None => {
                self.index.insert(h, self.edits.len());
                self.edits.push((h, SharedRow::clone(key_row), next));
            }
        }
    }

    /// Stage `row` as the row under its key in `target`.
    pub fn put(&mut self, target: &Table, row: impl Into<SharedRow>) {
        let row = row.into();
        let h = target.key_hash(&row, target.key());
        let (at, _) = self.lookup(target, h, &row);
        self.set(at, h, &row, Some(row.clone()));
    }

    /// Stage the removal of the key `key_row` holds in `target`'s key
    /// columns.
    pub fn delete(&mut self, target: &Table, key_row: impl Into<SharedRow>) {
        let key_row = key_row.into();
        let h = target.key_hash(&key_row, target.key());
        let (at, _) = self.lookup(target, h, &key_row);
        self.set(at, h, &key_row, None);
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;
    use std::sync::Arc;

    use super::*;
    use crate::key_index::narrow_hashes;
    use crate::pairing::Pairing;
    use crate::schema::Schema;
    use crate::value::DataType;

    /// Keys the tests draw from: few enough that edits keep meeting.
    const KEYS: i64 = 32;

    /// A table `(id, v)` holding `model`, inserted in key order.
    fn table(model: &BTreeMap<i64, i64>) -> Table {
        let schema = Schema::from_pairs(&[("id", DataType::Int), ("v", DataType::Int)]).unwrap();
        let mut t = Table::new(schema, &["id"]).unwrap();
        for (&k, &v) in model {
            t.insert(vec![Value::Int(k), Value::Int(v)]).unwrap();
        }
        t
    }

    fn key_row(k: i64) -> Vec<Value> {
        vec![Value::Int(k), Value::Null]
    }

    /// `t` holds exactly `model`: every key's lookup finds its model value,
    /// and every row's key finds that row's own position.
    fn assert_holds(t: &Table, model: &BTreeMap<i64, i64>, what: &str) {
        assert_eq!(t.len(), model.len(), "{what}");
        for (i, row) in t.rows().iter().enumerate() {
            assert_eq!(t.position_of(row, t.key()), Some(i), "{what}: row {i}");
        }
        for k in 0..KEYS {
            let got = t.get(&KeyTuple(vec![Value::Int(k)])).map(|r| r[1].as_i64().unwrap());
            assert_eq!(got, model.get(&k).copied(), "{what}: key {k}");
        }
    }

    struct XorShift(u64);

    impl XorShift {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % n
        }
    }

    /// Stage `ops` — `(key, Some(v))` puts `[key, v]`, `(key, None)` deletes
    /// the key — against `target`, in order.
    fn staged(target: &Table, ops: &[(i64, Option<i64>)]) -> StagedEdits {
        let mut edits = StagedEdits::default();
        for &(k, v) in ops {
            match v {
                Some(v) => edits.put(target, vec![Value::Int(k), Value::Int(v)]),
                None => edits.delete(target, key_row(k)),
            }
        }
        edits
    }

    /// With the key hash narrowed to two bits, 32 keys share four hashes.
    /// Staged edits — deletes that swap-remove, updates, new keys, keys
    /// deleted by the first call and put back by the second, and keys
    /// touched twice in one call — go through two `apply_edits` calls on a
    /// clone of the origin. After each call every lookup matches a
    /// `BTreeMap` model; after both, every position `edited_since` does not
    /// name holds the origin's row there, every key the model says changed
    /// sits at a named position, and the pairing read off positions is the
    /// model's pairing by key, built without a key lookup.
    #[test]
    fn staged_edits_under_colliding_hashes_match_a_model() {
        narrow_hashes(2);
        let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
        for round in 0..60 {
            let what = format!("round {round}");
            let mut model = BTreeMap::new();
            for k in 0..KEYS {
                if rng.below(3) > 0 {
                    model.insert(k, k);
                }
            }
            let origin = table(&model);
            let (origin_model, mut next) = (model.clone(), origin.clone());
            let mut deleted = Vec::new();
            for call in 0..2 {
                let mut ops = Vec::new();
                // The second call puts back a key the first deleted.
                ops.extend(deleted.first().map(|&k| (k, Some(1000 + round))));
                for _ in 0..1 + rng.below(12) {
                    let k = rng.below(KEYS as u64) as i64;
                    let v = (rng.below(4) > 0).then(|| 100 * (call + 1) + k);
                    ops.push((k, v));
                }
                for &(k, v) in &ops {
                    match v {
                        Some(v) => model.insert(k, v),
                        None if model.remove(&k).is_some() => {
                            deleted.push(k);
                            None
                        }
                        None => None,
                    };
                }
                next.apply_edits(staged(&next, &ops));
                assert_holds(&next, &model, &format!("{what} call {call}"));
            }
            let edited = next.edited_since(origin.state_id()).expect("a lineage");
            for (i, row) in next.rows().iter().enumerate() {
                let k = row[0].as_i64().unwrap();
                if edited.binary_search(&i).is_err() {
                    assert!(Arc::ptr_eq(row, &origin.rows()[i]), "{what}: row {i} unnamed");
                }
                if origin_model.get(&k) != model.get(&k) {
                    assert!(edited.binary_search(&i).is_ok(), "{what}: changed key {k} unnamed");
                }
            }
            let builds = Table::pairing_build_count();
            let pairing = next.paired_with(&origin);
            assert_eq!(Table::pairing_build_count(), builds, "{what}: paired by key");
            assert_eq!(pairing.changed(), Some(&edited[..]), "{what}");
            let at = |t: &Table, k: i64| t.position(&KeyTuple(vec![Value::Int(k)]));
            let partners: Vec<_> =
                next.rows().iter().map(|r| at(&origin, r[0].as_i64().unwrap())).collect();
            assert_eq!(pairing.partners(), &partners[..], "{what}");
            let mut unmatched: Vec<_> = origin_model
                .keys()
                .filter(|k| !model.contains_key(k))
                .map(|&k| at(&origin, k).unwrap())
                .collect();
            unmatched.sort_unstable();
            assert_eq!(pairing.unmatched(), &unmatched[..], "{what}");
            assert_eq!(*pairing, Pairing::of(&next, &origin), "{what}");
        }
        narrow_hashes(64);
    }

    /// Edits staged against one table apply to an equal table of another
    /// hasher exactly as to the first table's clone: each key is rehashed
    /// with the second table's hasher, never filed under the first's. So do
    /// edits staged partly against one and partly against the other. With
    /// one hasher the commit hashes only the rows swap-remove moves.
    #[test]
    fn edits_staged_under_one_hasher_apply_under_another() {
        for bits in [64, 2] {
            narrow_hashes(bits);
            let model: BTreeMap<i64, i64> = (0..KEYS).map(|k| (k, k)).collect();
            let (a, b) = (table(&model), table(&model));
            assert!(!a.index().same_hasher(b.index()) && a.index().same_hasher(a.clone().index()));
            let ops = [(3, None), (40, Some(1)), (0, None), (5, Some(2)), (3, Some(3)), (31, None)];
            let mut expected = a.clone();
            let edits = staged(&a, &ops);
            let hashes = Table::key_hash_count();
            expected.apply_edits(edits);
            // Key 0 leaves by swap-remove: 40, appended last, moves into its
            // place. Key 31 is last by then.
            assert_eq!(Table::key_hash_count() - hashes, 1, "bits {bits}: one moved row");
            let mut model = model.clone();
            model.extend([(40, 1), (5, 2), (3, 3)]);
            model.remove(&0);
            model.remove(&31);
            assert_holds(&expected, &model, &format!("bits {bits}"));

            let mut other = b.clone();
            let edits = staged(&a, &ops);
            let hashes = Table::key_hash_count();
            other.apply_edits(edits);
            assert_eq!(Table::key_hash_count() - hashes, 1 + 5, "bits {bits}: five keys rehashed");
            other.verify_index();
            assert_holds(&other, &model, &format!("bits {bits}, another hasher"));
            assert!(other.rows().iter().zip(expected.rows()).all(|(x, y)| x == y));

            let mut split = staged(&a, &ops[..3]);
            for &(k, v) in &ops[3..] {
                match v {
                    Some(v) => split.put(&b, vec![Value::Int(k), Value::Int(v)]),
                    None => split.delete(&b, key_row(k)),
                }
            }
            let mut mixed = b.clone();
            mixed.apply_edits(split);
            assert_holds(&mixed, &model, &format!("bits {bits}, staged under both"));
            assert!(mixed.rows().iter().zip(expected.rows()).all(|(x, y)| x == y));
        }
        narrow_hashes(64);
    }
}
