//! Partition-parallel hash builds: the scatter→build protocol behind the
//! partitioned join and the partitioned set-op dedup.
//!
//! Both follow the same two-pass shape on the morsel scheduler:
//!
//! 1. **Scatter** (morsel-parallel over input chunks): hash the key
//!    columns of every row — chunk-at-a-time through the columnar hash
//!    kernel when the input is a bare leaf's shared column set, row-wise
//!    otherwise; the two produce identical hashes — and append
//!    `(row id, hash)` to the chunk's list for partition `hash & (P-1)`.
//! 2. **Build** (one task per partition): drain the chunks' lists for this
//!    partition *in chunk order*, so every chain/set observes rows in
//!    global input order. Each task owns its partition's map outright —
//!    zero cross-thread sharing.
//!
//! Determinism: partition assignment is a pure function of the row bytes
//! (fixed-seed [`join_hash`]), chunk order restores global row order
//! within each partition, and the driver-side merges iterate partitions
//! `0..P` — so results depend on the morsel and partition parameters only,
//! never on scheduler interleaving. For the join, the output is moreover
//! independent of `P` itself (see [`JoinBuild`]); for set-ops, the merge
//! emits survivors by draining the inputs in order, which reproduces the
//! sequential cores' first-occurrence output exactly.

use std::collections::HashMap;

use svc_storage::{ColumnSet, Result, Row, StorageError, Value};

use crate::join::{join_hash, key_has_null, JoinBuild};

use super::column::hash_key_at;
use super::run::{fan_out, ranges};
use super::ExecMode;

/// One scatter chunk's output: per partition, the `(row id, hash)` pairs
/// that landed there, in row order.
type Scatter = Vec<Vec<(u32, u64)>>;

/// Rows landing in the fullest partition — the `part_max_rows` skew metric.
fn max_partition(scattered: &[Scatter], partitions: usize) -> u64 {
    (0..partitions)
        .map(|p| scattered.iter().map(|c| c[p].len()).sum::<usize>() as u64)
        .max()
        .unwrap_or(0)
}

/// Build a [`JoinBuild`] over `rows` with its chain maps constructed
/// concurrently, one partition per task. `cols` is the build side's shared
/// column set when it is a bare leaf (the scatter pass then hashes straight
/// from typed storage); the result is bit-identical either way, and
/// bit-identical to [`JoinBuild::with_partitions`] on one thread.
pub(super) fn build_join_par<'r, R: AsRef<[Value]> + Sync>(
    rows: &'r [R],
    cols: Option<&ColumnSet>,
    on_idx: &[(usize, usize)],
    partitions: usize,
    mode: &ExecMode<'_>,
) -> Result<JoinBuild<'r, R>> {
    let right_cols: Vec<usize> = on_idx.iter().map(|&(_, r)| r).collect();
    let p = partitions.max(1).next_power_of_two();
    let mask = (p - 1) as u64;
    let spec = join_hash();
    let rs = ranges(rows.len(), mode.morsel);
    let scattered: Vec<Scatter> = fan_out(mode, rs.len(), &|t| {
        let (lo, hi) = rs[t];
        let mut lists: Scatter = vec![Vec::new(); p];
        match cols {
            Some(cs) => {
                for i in lo..hi {
                    if let Some(h) = hash_key_at(cs, &right_cols, i, spec) {
                        lists[(h & mask) as usize].push((i as u32, h));
                    }
                }
            }
            None => {
                for (i, row) in rows.iter().enumerate().take(hi).skip(lo) {
                    let row = row.as_ref();
                    if !key_has_null(row, &right_cols) {
                        let h = spec.hash_row(row, &right_cols);
                        lists[(h & mask) as usize].push((i as u32, h));
                    }
                }
            }
        }
        Ok(lists)
    })?;
    let maps = fan_out(mode, p, &|pi| {
        // Failpoint site: one partition's map build, mid-fan-out. An
        // injected `Error` surfaces through this task's result slot; an
        // injected `Panic` unwinds into the scheduler's session isolation
        // — either way the whole build (and the plan run above it) fails
        // as a unit, which is what the chaos harness pins.
        if cfg!(feature = "failpoints") {
            if let Some(fired) = svc_fault::check(svc_fault::site::JOIN_BUILD) {
                match fired.action {
                    svc_fault::FailAction::Panic => panic!("{}", fired.message),
                    svc_fault::FailAction::Error => {
                        return Err(StorageError::Invalid(fired.message));
                    }
                }
            }
        }
        let n: usize = scattered.iter().map(|c| c[pi].len()).sum();
        let mut map: HashMap<u64, Vec<u32>> = HashMap::with_capacity(n);
        for chunk in &scattered {
            for &(i, h) in &chunk[pi] {
                map.entry(h).or_default().push(i);
            }
        }
        Ok(map)
    })?;
    Ok(JoinBuild::from_parts(rows, on_idx, maps))
}

/// Scatter the concatenation `left ++ right` by whole-row hash. Equal rows
/// always land in the same partition, so partition-local dedup decisions
/// equal global ones.
fn scatter_rows<R: AsRef<[Value]> + Sync>(
    l: &[Row],
    r: &[R],
    partitions: usize,
    mode: &ExecMode<'_>,
) -> Result<Vec<Scatter>> {
    let mask = (partitions - 1) as u64;
    let spec = join_hash();
    let rs = ranges(l.len() + r.len(), mode.morsel);
    fan_out(mode, rs.len(), &|t| {
        let (lo, hi) = rs[t];
        let mut lists: Scatter = vec![Vec::new(); partitions];
        for i in lo..hi {
            let row: &[Value] = if i < l.len() { &l[i] } else { r[i - l.len()].as_ref() };
            let h = spec.hash_key(row);
            lists[(h & mask) as usize].push((i as u32, h));
        }
        Ok(lists)
    })
}

/// A partition-local row set over the two backing slices, chained under
/// pre-computed whole-row hashes; candidates verify by full-row equality,
/// so hash collisions cannot conflate distinct rows.
struct RowSet<'a, R> {
    chains: HashMap<u64, Vec<u32>>,
    l: &'a [Row],
    r: &'a [R],
}

impl<R: AsRef<[Value]>> RowSet<'_, R> {
    fn at(&self, i: u32) -> &[Value] {
        let i = i as usize;
        if i < self.l.len() {
            &self.l[i]
        } else {
            self.r[i - self.l.len()].as_ref()
        }
    }

    fn contains(&self, i: u32, h: u64) -> bool {
        self.chains.get(&h).is_some_and(|c| c.iter().any(|&j| self.at(j) == self.at(i)))
    }

    /// Insert row `i` unless an equal row is already present; true on
    /// first occurrence.
    fn insert_if_new(&mut self, i: u32, h: u64) -> bool {
        if self.contains(i, h) {
            return false;
        }
        self.chains.entry(h).or_default().push(i);
        true
    }
}

/// Mark `keeps` into a survivor bitmap over `n` global indices, returning
/// it plus the survivor count.
fn survivor_map(keeps: &[Vec<u32>], n: usize) -> (Vec<bool>, usize) {
    let mut surv = vec![false; n];
    let mut total = 0;
    for keep in keeps {
        total += keep.len();
        for &i in keep {
            surv[i as usize] = true;
        }
    }
    (surv, total)
}

/// Partition-parallel ∪ dedup: bit-identical to
/// [`crate::setops::union_rows_into`] (global first occurrence, left rows
/// then right rows, input order). Returns the fullest partition's row
/// count for the skew metric.
pub(super) fn union_rows_par(
    left: &mut Vec<Row>,
    right: &mut Vec<Row>,
    partitions: usize,
    mode: &ExecMode<'_>,
    out: &mut Vec<Row>,
) -> Result<u64> {
    let p = partitions.max(1).next_power_of_two();
    let nl = left.len();
    let (l, r) = (&left[..], &right[..]);
    let scattered = scatter_rows(l, r, p, mode)?;
    let keeps: Vec<Vec<u32>> = fan_out(mode, p, &|pi| {
        let mut seen = RowSet { chains: HashMap::new(), l, r };
        let mut keep: Vec<u32> = Vec::new();
        // Chunk order == global row order, so first occurrences match the
        // sequential left-then-right drain.
        for chunk in &scattered {
            for &(i, h) in &chunk[pi] {
                if seen.insert_if_new(i, h) {
                    keep.push(i);
                }
            }
        }
        Ok(keep)
    })?;
    let max_part = max_partition(&scattered, p);
    let (surv, total) = survivor_map(&keeps, nl + r.len());
    out.reserve(total);
    for (i, row) in left.drain(..).enumerate() {
        if surv[i] {
            out.push(row);
        }
    }
    for (j, row) in right.drain(..).enumerate() {
        if surv[nl + j] {
            out.push(row);
        }
    }
    Ok(max_part)
}

/// Partition-parallel ∩ / − dedup (`intersect` selects which): distinct
/// left rows whose membership in the right input matches the operator —
/// bit-identical to [`crate::setops::intersect_rows_into`] /
/// [`crate::setops::difference_rows_into`]. Returns the fullest
/// partition's row count.
pub(super) fn filter_rows_par<R: AsRef<[Value]> + Sync>(
    intersect: bool,
    left: &mut Vec<Row>,
    right: &[R],
    partitions: usize,
    mode: &ExecMode<'_>,
    out: &mut Vec<Row>,
) -> Result<u64> {
    let p = partitions.max(1).next_power_of_two();
    let nl = left.len();
    let l = &left[..];
    let scattered = scatter_rows(l, right, p, mode)?;
    let keeps: Vec<Vec<u32>> = fan_out(mode, p, &|pi| {
        // Membership set: this partition's right rows. Equal rows share a
        // partition, so the local set answers global membership exactly.
        let mut rset = RowSet { chains: HashMap::new(), l, r: right };
        for chunk in &scattered {
            for &(i, h) in &chunk[pi] {
                if i as usize >= nl {
                    rset.insert_if_new(i, h);
                }
            }
        }
        let mut seen = RowSet { chains: HashMap::new(), l, r: right };
        let mut keep: Vec<u32> = Vec::new();
        for chunk in &scattered {
            for &(i, h) in &chunk[pi] {
                if (i as usize) < nl && rset.contains(i, h) == intersect && seen.insert_if_new(i, h)
                {
                    keep.push(i);
                }
            }
        }
        Ok(keep)
    })?;
    let max_part = max_partition(&scattered, p);
    let (surv, total) = survivor_map(&keeps, nl);
    out.reserve(total);
    for (i, row) in left.drain(..).enumerate() {
        if surv[i] {
            out.push(row);
        }
    }
    Ok(max_part)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setops::{difference_rows_into, intersect_rows_into, union_rows_into};
    use svc_storage::Value;

    use crate::exec::SequentialScheduler;

    fn par(morsel: usize) -> ExecMode<'static> {
        ExecMode::morsel(&SequentialScheduler, morsel)
    }

    fn rows(vals: &[i64]) -> Vec<Row> {
        // Low-cardinality second column forces duplicate whole rows.
        vals.iter().map(|&v| vec![Value::Int(v % 5), Value::Int(v % 3)]).collect()
    }

    /// Every partition/morsel combination reproduces the sequential set-op
    /// cores bit for bit — order included.
    #[test]
    fn partitioned_setops_match_sequential_cores() {
        let lvals: Vec<i64> = (0..83).map(|i| i * 7 + 3).collect();
        let rvals: Vec<i64> = (0..61).map(|i| i * 11 + 1).collect();
        let (lbase, rbase) = (rows(&lvals), rows(&rvals));

        let mut want_union = Vec::new();
        union_rows_into(&mut lbase.clone(), &mut rbase.clone(), &mut want_union);
        let mut want_isect = Vec::new();
        intersect_rows_into(&mut lbase.clone(), &rbase, &mut want_isect);
        let mut want_diff = Vec::new();
        difference_rows_into(&mut lbase.clone(), &rbase, &mut want_diff);

        for parts in [1usize, 2, 4, 8, 32] {
            for morsel in [1usize, 7, 64, usize::MAX] {
                let p = par(morsel);
                let mut got = Vec::new();
                union_rows_par(&mut lbase.clone(), &mut rbase.clone(), parts, &p, &mut got)
                    .unwrap();
                assert_eq!(got, want_union, "union parts={parts} morsel={morsel}");
                let mut got = Vec::new();
                filter_rows_par(true, &mut lbase.clone(), &rbase, parts, &p, &mut got).unwrap();
                assert_eq!(got, want_isect, "intersect parts={parts} morsel={morsel}");
                let mut got = Vec::new();
                filter_rows_par(false, &mut lbase.clone(), &rbase, parts, &p, &mut got).unwrap();
                assert_eq!(got, want_diff, "difference parts={parts} morsel={morsel}");
            }
        }
    }

    /// The parallel build assembles exactly the maps the sequential
    /// sharded build does, for any chunking.
    #[test]
    fn parallel_join_build_matches_sequential_partitioned_build() {
        let rrows = rows(&(0..117).map(|i| i * 13 + 2).collect::<Vec<_>>());
        let on: &[(usize, usize)] = &[(1, 1)];
        let lrows = rows(&(0..40).collect::<Vec<_>>());
        for parts in [2usize, 4, 16] {
            let reference = {
                let b = JoinBuild::with_partitions(&rrows, on, parts);
                let mut l = lrows.clone();
                let (mut out, mut m) = (Vec::new(), Vec::new());
                b.probe(&mut l, crate::plan::JoinKind::Full, &[1], 2, &mut out, &mut m);
                b.emit_unmatched_right(&m, 2, &mut out);
                out
            };
            for morsel in [1usize, 9, 1000] {
                let b = build_join_par(&rrows, None, on, parts, &par(morsel)).unwrap();
                assert_eq!(b.partition_count(), parts);
                let mut l = lrows.clone();
                let (mut out, mut m) = (Vec::new(), Vec::new());
                b.probe(&mut l, crate::plan::JoinKind::Full, &[1], 2, &mut out, &mut m);
                b.emit_unmatched_right(&m, 2, &mut out);
                assert_eq!(out, reference, "parts={parts} morsel={morsel}");
            }
        }
    }
}
