//! Direct application of the η hashing operator to materialized tables.
//!
//! The selection predicate hashes each row's key columns *in place*
//! ([`HashSpec::selects_row`]), so no key is copied for a row that does not
//! survive. A survivor is copied into an allocation of its own rather than
//! shared with the sampled table: a sample is read far more often than it
//! is drawn — every clean folds into it, every estimate pairs it and builds
//! its columns — and a sample sharing every tenth row of a view would have
//! each of those readers stride through the whole view's memory. The copy
//! is of the sample only, built with [`Table::from_unique_rows`] (a subset
//! of a keyed table needs no duplicate-key checking). Sampling an *owned*
//! intermediate shares its rows instead — that path lives in the
//! evaluator's η case (`svc_relalg::eval`), which retains over
//! `Table::into_rows`.
//!
//! A sample drawn by key remembers where it came from ([`KeySample`]), so
//! the sample of a later state of the same table — a view maintained by
//! keyed edits — is derived from it: the unchanged survivors keep their
//! allocations and only the edited rows are hashed.

use std::sync::Arc;

use svc_storage::{HashSpec, SharedRow, Table};

thread_local! {
    static ETA_HASHES_CELL: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Per-thread count of rows whose key η hashed (see [`eta_hash_count`]).
static ETA_HASHES: svc_telemetry::LocalCounter = svc_telemetry::LocalCounter::new(&ETA_HASHES_CELL);

/// Number of rows whose key this module's η hashed **on this thread** since
/// it started — the cost-shape hook for "a sample redrawn after keyed
/// edits hashes only the edited rows". Same mechanism as
/// `Table::clone_count`.
pub fn eta_hash_count() -> usize {
    ETA_HASHES.get() as usize
}

/// The rows of `t` whose key hashes to at most `ratio`, each in an
/// allocation of its own (see the module docs), with their positions in
/// `t`. Counted in [`eta_hash_count`] by the caller.
fn survivors(t: &Table, ratio: f64, spec: HashSpec) -> (Vec<usize>, Vec<SharedRow>) {
    let kept = t.rows().iter().enumerate().filter(|(_, r)| spec.selects_row(r, t.key(), ratio));
    kept.map(|(i, r)| (i, SharedRow::from(&r[..]))).unzip()
}

/// `η` keyed by the table's own primary key — the common case of sampling a
/// view uniformly by its row identity.
pub fn sample_by_key(t: &Table, ratio: f64, spec: HashSpec) -> Table {
    KeySample::draw(t, ratio, spec).into_table()
}

/// A sample by key ([`sample_by_key`]) that remembers how it was drawn:
/// the sampled table's state ([`Table::state_id`]), the ratio and hash,
/// and the position of every survivor in that state, in table order.
#[derive(Debug, Clone)]
pub struct KeySample {
    table: Table,
    state: u64,
    ratio: f64,
    spec: HashSpec,
    positions: Arc<[usize]>,
}

impl KeySample {
    /// [`sample_by_key`] of `t`, drawn whole.
    pub fn draw(t: &Table, ratio: f64, spec: HashSpec) -> KeySample {
        ETA_HASHES.add(t.len() as u64);
        let (positions, rows) = survivors(t, ratio, spec);
        KeySample::of(t, ratio, spec, positions, rows)
    }

    /// [`sample_by_key`] of `t` again. When `t` is the state this sample
    /// was drawn from or descends from it by keyed edits
    /// ([`Table::edited_since`]), and `ratio` and `spec` are the draw's,
    /// the sample is derived: a survivor at an unedited position is this
    /// sample's row (the same allocation), each edited row's key is hashed
    /// once, and the two merge in table order. Otherwise it is drawn whole.
    /// Either way the result is `sample_by_key(t, ratio, spec)` bit for
    /// bit: the same rows in the same order.
    pub fn redraw(&self, t: &Table, ratio: f64, spec: HashSpec) -> KeySample {
        let same = self.ratio.to_bits() == ratio.to_bits() && self.spec == spec;
        let Some(edited) = same.then(|| t.edited_since(self.state)).flatten() else {
            return KeySample::draw(t, ratio, spec);
        };
        ETA_HASHES.add(edited.len() as u64);
        let len = t.len();
        let mut positions = Vec::with_capacity(self.positions.len());
        let mut rows = Vec::with_capacity(self.positions.len());
        let mut kept = self.positions.iter().copied().zip(self.table.rows()).peekable();
        for i in edited {
            while let Some((p, row)) = kept.next_if(|&(p, _)| p < i) {
                positions.push(p);
                rows.push(Arc::clone(row));
            }
            // The drawn row at an edited position is not `t`'s row there.
            kept.next_if(|&(p, _)| p == i);
            let row = &t.rows()[i];
            if spec.selects_row(row, t.key(), ratio) {
                positions.push(i);
                rows.push(SharedRow::from(&row[..]));
            }
        }
        for (p, row) in kept.take_while(|&(p, _)| p < len) {
            positions.push(p);
            rows.push(Arc::clone(row));
        }
        let derived = KeySample::of(t, ratio, spec, positions, rows);
        // With the verifier on, prove the derivation honest: the rows and
        // positions of a whole draw, bit for bit.
        #[cfg(feature = "verify")]
        {
            let (whole_positions, whole) = survivors(t, ratio, spec);
            assert_eq!(*derived.positions, whole_positions, "a derived sample's positions differ");
            assert_eq!(derived.table.len(), whole.len(), "a derived sample's rows differ");
            for (i, (a, b)) in derived.table.rows().iter().zip(&whole).enumerate() {
                assert!(same_bits(a, b), "derived sample row {i} differs from a whole draw");
            }
        }
        derived
    }

    /// The sample of `t` holding `rows`, its rows at `positions`.
    fn of(
        t: &Table,
        ratio: f64,
        spec: HashSpec,
        positions: Vec<usize>,
        rows: Vec<SharedRow>,
    ) -> KeySample {
        let table = Table::from_unique_rows(t.schema().clone(), t.key().to_vec(), rows)
            .expect("sampling preserves key uniqueness");
        KeySample { table, state: t.state_id(), ratio, spec, positions: positions.into() }
    }

    /// The sample.
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// The sample, without its draw.
    pub fn into_table(self) -> Table {
        self.table
    }
}

/// Two rows of equal arity cell for cell, floats by their bits (so NaN
/// payloads and the sign of zero count).
#[cfg(any(test, feature = "verify"))]
fn same_bits(a: &[svc_storage::Value], b: &[svc_storage::Value]) -> bool {
    use svc_storage::Value;
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| match (x, y) {
            (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
            _ => x == y,
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use svc_storage::{DataType, Schema, StagedEdits, Value};

    fn table(n: i64) -> Table {
        let schema = Schema::from_pairs(&[("id", DataType::Int), ("x", DataType::Float)]).unwrap();
        let mut t = Table::new(schema, &["id"]).unwrap();
        for i in 0..n {
            t.insert(vec![Value::Int(i), Value::Float(i as f64)]).unwrap();
        }
        t
    }

    #[test]
    fn ratio_zero_and_one() {
        let t = table(100);
        let spec = HashSpec::default();
        assert_eq!(sample_by_key(&t, 1.0, spec).len(), 100);
        assert_eq!(sample_by_key(&t, 0.0, spec).len(), 0);
    }

    #[test]
    fn sample_size_tracks_ratio() {
        let t = table(10_000);
        let s = sample_by_key(&t, 0.1, HashSpec::with_seed(5));
        let frac = s.len() as f64 / t.len() as f64;
        assert!((frac - 0.1).abs() < 0.02, "observed {frac}");
    }

    #[test]
    fn sample_is_subset_and_deterministic() {
        let t = table(500);
        let spec = HashSpec::with_seed(9);
        let s1 = sample_by_key(&t, 0.3, spec);
        let s2 = sample_by_key(&t, 0.3, spec);
        assert!(s1.same_contents(&s2));
        for (k, _) in s1.iter_keyed() {
            assert!(t.contains_key(&k));
        }
    }

    #[test]
    fn nested_samples_via_smaller_ratio() {
        // η_{m1}(η_{m2}(R)) = η_{min(m1,m2)}(R) for the same spec.
        let t = table(2000);
        let spec = HashSpec::with_seed(2);
        let outer = sample_by_key(&sample_by_key(&t, 0.5, spec), 0.2, spec);
        let direct = sample_by_key(&t, 0.2, spec);
        assert!(outer.same_contents(&direct));
    }

    /// A cell drawn from NULL, NaN with two payloads, ±0 and plain values.
    fn cell(v: u64) -> Value {
        match v % 6 {
            0 => Value::Null,
            1 => Value::Float(f64::NAN),
            2 => Value::Float(f64::from_bits(f64::NAN.to_bits() | 1)),
            3 => Value::Float(-0.0),
            4 => Value::Float(0.0),
            _ => Value::Float(v as f64),
        }
    }

    /// Keyed edits — replacements, new keys, deletions that swap-remove,
    /// in one or two `apply_edits` calls — then a redraw: it is the whole
    /// draw bit for bit, NULL, NaN payloads and the sign of zero included,
    /// and hashes only the edited rows; a reseed or a ratio change draws
    /// whole.
    #[test]
    fn a_redraw_after_keyed_edits_is_the_whole_draw_bit_for_bit() {
        let mut s = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let (ratio, spec) = (0.4, HashSpec::with_seed(3));
        let mut t = table(0);
        for i in 0..300 {
            t.insert(vec![Value::Int(i), cell(next())]).unwrap();
        }
        let mut sample = KeySample::draw(&t, ratio, spec);
        for round in 0..40 {
            let mut edited = t.clone();
            for _ in 0..1 + round % 2 {
                let mut edits = StagedEdits::default();
                for _ in 0..1 + next() % 30 {
                    let k = (next() % 400) as i64;
                    if next() % 3 > 0 {
                        edits.put(&edited, vec![Value::Int(k), cell(next())]);
                    } else {
                        edits.delete(&edited, vec![Value::Int(k), Value::Null]);
                    }
                }
                edited.apply_edits(edits);
            }
            let hashes = eta_hash_count();
            let redrawn = sample.redraw(&edited, ratio, spec);
            let changed = edited.edited_since(t.state_id()).expect("a lineage");
            assert_eq!(eta_hash_count() - hashes, changed.len(), "round {round}");
            let whole = sample_by_key(&edited, ratio, spec);
            assert_eq!(redrawn.table().len(), whole.len(), "round {round}");
            let rows = redrawn.table().rows().iter().zip(whole.rows());
            assert!(rows.clone().all(|(a, b)| same_bits(a, b)), "round {round}");
            // Unedited survivors keep the drawn sample's allocation.
            let shared =
                rows.filter(|(a, _)| sample.table().rows().iter().any(|r| Arc::ptr_eq(a, r)));
            assert!(shared.count() + changed.len() >= redrawn.table().len(), "round {round}");
            for (r, s) in [(ratio + 0.1, spec), (ratio, HashSpec::with_seed(4))] {
                let hashes = eta_hash_count();
                sample.redraw(&edited, r, s);
                assert_eq!(eta_hash_count() - hashes, edited.len(), "round {round}: drawn whole");
            }
            (t, sample) = (edited, redrawn);
        }
    }
}
