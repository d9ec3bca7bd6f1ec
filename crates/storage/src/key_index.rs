//! A table's primary-key index: row positions under a 64-bit hash of the
//! key columns, holding no copy of any key.
//!
//! The index stores hashes and positions only, so cloning it copies plain
//! integers. Equal keys hash equally, so a key's row is among the positions
//! stored under its hash; the caller confirms each candidate against the
//! row's own key columns ([`KeyIndex::find`]). Two distinct keys whose
//! hashes collide both stay findable: the first position under a hash lives
//! in `first`, any further ones in `more`, which is empty unless a collision
//! ever happened. The hash is keyed per index ([`RandomState`], as a
//! `HashMap`'s is), so no chosen set of keys collides in every table.
//!
//! A hash is meaningful only to the hasher that computed it. Each hasher
//! carries an identity ([`KeyIndex::same_hasher`]); a clone of an index, or
//! an index made to share another's hasher ([`KeyIndex::sharing_hasher`]),
//! keeps it, so a hash computed for one is valid for the other.

use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::value::Value;

/// Passes a `u64` key through: the index's keys already are hashes.
#[derive(Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("the key index hashes only u64 keys")
    }

    fn write_u64(&mut self, h: u64) {
        self.0 = h;
    }
}

type ByHash<V> = HashMap<u64, V, BuildHasherDefault<PassThrough>>;

#[cfg(test)]
thread_local! {
    /// The bits of a key hash this thread's indexes keep: all of them, but
    /// in tests that narrow them to force collisions ([`narrow_hashes`]).
    static HASH_MASK: std::cell::Cell<u64> = const { std::cell::Cell::new(u64::MAX) };
}

/// Keep only the low `bits` bits of every key hash this thread's indexes
/// compute from now on, so distinct keys collide.
#[cfg(test)]
pub(crate) fn narrow_hashes(bits: u32) {
    HASH_MASK.with(|m| m.set(u64::MAX.checked_shr(64 - bits).unwrap_or(0)));
}

/// The next hasher identity to hand out.
static NEXT_HASHER: AtomicU64 = AtomicU64::new(0);

/// The keyed hash of an index and its identity: two hashers with one
/// identity hash every key alike.
#[derive(Debug, Clone)]
struct KeyHasher {
    id: u64,
    state: RandomState,
}

impl Default for KeyHasher {
    fn default() -> KeyHasher {
        KeyHasher { id: NEXT_HASHER.fetch_add(1, Ordering::Relaxed), state: RandomState::new() }
    }
}

/// Positions by key hash (see the module docs).
#[derive(Debug, Clone, Default)]
pub(crate) struct KeyIndex {
    /// The hash of [`KeyIndex::hash`]. A clone keeps it: its positions sit
    /// under the same hashes.
    hasher: KeyHasher,
    /// The first position stored under each hash.
    first: ByHash<usize>,
    /// The other positions stored under a hash `first` holds, in insertion
    /// order; a hash with none has no entry.
    more: ByHash<Vec<usize>>,
}

impl KeyIndex {
    pub(crate) fn with_capacity(n: usize) -> KeyIndex {
        KeyIndex {
            first: ByHash::with_capacity_and_hasher(n, Default::default()),
            ..KeyIndex::default()
        }
    }

    /// An empty index for `n` positions that hashes as this one does.
    pub(crate) fn sharing_hasher(&self, n: usize) -> KeyIndex {
        KeyIndex {
            hasher: self.hasher.clone(),
            first: ByHash::with_capacity_and_hasher(n, Default::default()),
            more: ByHash::default(),
        }
    }

    /// True iff this index and `other` hash every key alike.
    #[inline]
    pub(crate) fn same_hasher(&self, other: &KeyIndex) -> bool {
        self.hasher.id == other.hasher.id
    }

    /// Room for `n` more positions under hashes not stored yet.
    pub(crate) fn reserve(&mut self, n: usize) {
        self.first.reserve(n);
    }

    /// The hash of a key given as its values in key order.
    #[inline]
    pub(crate) fn hash<'a>(&self, values: impl Iterator<Item = &'a Value>) -> u64 {
        let mut h = self.hasher.state.build_hasher();
        for v in values {
            v.hash(&mut h);
        }
        let h = h.finish();
        #[cfg(test)]
        let h = h & HASH_MASK.with(std::cell::Cell::get);
        h
    }

    /// Number of positions stored.
    #[cfg(any(test, feature = "verify"))]
    pub(crate) fn len(&self) -> usize {
        self.first.len() + self.more.values().map(Vec::len).sum::<usize>()
    }

    /// The position under `h` for which `is_key` holds, if any.
    #[inline]
    pub(crate) fn find(&self, h: u64, is_key: impl Fn(usize) -> bool) -> Option<usize> {
        let &pos = self.first.get(&h)?;
        if is_key(pos) {
            return Some(pos);
        }
        self.more.get(&h)?.iter().copied().find(|&p| is_key(p))
    }

    /// Store `pos` under `h`; the caller has checked its key is new.
    #[inline]
    pub(crate) fn insert(&mut self, h: u64, pos: usize) {
        match self.first.entry(h) {
            Entry::Vacant(slot) => {
                slot.insert(pos);
            }
            Entry::Occupied(_) => self.more.entry(h).or_default().push(pos),
        }
    }

    /// Forget `pos`, which is stored under `h`.
    pub(crate) fn remove(&mut self, h: u64, pos: usize) {
        let first = self.first.get_mut(&h).expect("removed position is indexed");
        let Entry::Occupied(mut more) = self.more.entry(h) else {
            debug_assert_eq!(*first, pos, "removed position is indexed");
            self.first.remove(&h);
            return;
        };
        let list = more.get_mut();
        if *first == pos {
            *first = list.remove(0);
        } else {
            let at = list.iter().position(|&p| p == pos).expect("removed position is indexed");
            list.remove(at);
        }
        if list.is_empty() {
            more.remove();
        }
    }

    /// Record that the row stored under `h` at `from` now sits at `to`.
    pub(crate) fn relocate(&mut self, h: u64, from: usize, to: usize) {
        let first = self.first.get_mut(&h).expect("moved position is indexed");
        if *first == from {
            *first = to;
            return;
        }
        let list = self.more.get_mut(&h).expect("moved position is indexed");
        let at = list.iter().position(|&p| p == from).expect("moved position is indexed");
        list[at] = to;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collided_positions_stay_findable_through_removal_and_moves() {
        let mut idx = KeyIndex::with_capacity(4);
        for pos in 0..4 {
            idx.insert(7, pos);
        }
        idx.insert(9, 4);
        assert_eq!(idx.len(), 5);
        assert_eq!(idx.find(7, |p| p == 2), Some(2));
        assert_eq!(idx.find(7, |p| p == 4), None);
        idx.remove(7, 0);
        assert_eq!(idx.find(7, |p| p == 1), Some(1));
        assert_eq!(idx.find(7, |p| p == 0), None);
        idx.relocate(7, 3, 0);
        assert_eq!(idx.find(7, |p| p == 0), Some(0));
        for pos in [1, 2, 0] {
            idx.remove(7, pos);
        }
        assert_eq!((idx.len(), idx.more.len()), (1, 0));
        assert_eq!(idx.find(7, |_| true), None);
        assert_eq!(idx.find(9, |p| p == 4), Some(4));
    }
}
