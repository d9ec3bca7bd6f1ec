//! Hash-based equi-join execution for all [`JoinKind`]s.
//!
//! Two layers: row-based cores ([`join_rows`], [`join_rows_pk_probe_into`]) that
//! operate on plain `Vec<Row>` batches — these are what the streaming
//! executor (`crate::exec`) calls, and they never allocate a `KeyTuple` per
//! probed row (keys are hashed in place via [`join_hash`] and candidates
//! verified by column equality) — and the legacy table-based wrapper
//! [`run_join`] used by the materializing evaluator.
//!
//! The build side is **hash-partitioned**: [`JoinBuild`] shards its chains
//! across `P` (a power of two) partition maps by `key_hash & (P - 1)`, each
//! keyed by the full 64-bit hash within its partition. Because equal keys
//! hash equal, a probe key's entire candidate chain lives in exactly one
//! partition, and because rows are inserted in right-row order, that chain
//! is identical to the chain a single map would hold — so probe output is
//! bit-for-bit independent of the partition count. Partitioning only
//! decides *where* a chain lives, which is what lets the morsel-parallel
//! executor build the `P` maps concurrently with zero cross-thread sharing
//! (`exec::partition`).

use std::collections::HashMap;

use svc_storage::{HashSpec, KeyTuple, Result, Row, Table, Value};

use crate::derive::Derived;
use crate::exec::pipeline::{feed_borrowed, FusedOp, RowSink};
use crate::plan::JoinKind;

/// The fixed hash function of every hash join build/probe and partitioned
/// set-op dedup. A canonical-bytes hash ([`HashSpec::hash_row`] streams
/// `Value::canonical_bytes`), so it induces exactly the `Value` equality
/// classes — and the vectorized partition pass can produce identical
/// hashes straight from typed column storage. The seed is fixed:
/// partitioning must be a pure function of the data, never of the process.
#[inline]
pub fn join_hash() -> HashSpec {
    HashSpec::with_seed(0x05ca_1ab1_e0dd_ba11 ^ 0x9e37)
}

/// NULL join keys never match (SQL semantics): rows with a NULL join value
/// are excluded from the build side and treated as unmatched on the probe
/// side.
#[inline]
pub(crate) fn key_has_null(row: &[Value], cols: &[usize]) -> bool {
    cols.iter().any(|&i| row[i].is_null())
}

/// True when probing `right`'s primary-key index directly is legal: the
/// join reads the right side on exactly its key and the kind needs no
/// right-side bookkeeping.
pub fn pk_probe_applies(kind: JoinKind, right_cols: &[usize], right_key: &[usize]) -> bool {
    right_cols == right_key
        && matches!(kind, JoinKind::Inner | JoinKind::Left | JoinKind::Semi | JoinKind::Anti)
}

/// The build side of a generic hash equi-join: constructed once over the
/// right input — sequentially by [`JoinBuild::with_partitions`], or
/// partition-parallel by the morsel executor via [`JoinBuild::from_parts`]
/// — then probed by any number of left-row chunks (probing is read-only,
/// so `&JoinBuild` is shared across worker threads).
pub struct JoinBuild<'r> {
    right: &'r [Row],
    right_cols: Vec<usize>,
    spec: HashSpec,
    /// `partition(h) = h & mask`; `parts.len()` is `mask + 1`, a power of
    /// two.
    mask: u64,
    /// Per-partition chain maps: right row indices chained under the full
    /// key hash, in right-row order.
    parts: Vec<HashMap<u64, Vec<u32>>>,
}

impl<'r> JoinBuild<'r> {
    /// Hash-build over the right join columns — in place, no per-row
    /// `KeyTuple`. Rows with NULL join keys never enter the map (SQL
    /// semantics: they match nothing).
    pub fn new(right: &'r [Row], on_idx: &[(usize, usize)]) -> JoinBuild<'r> {
        JoinBuild::with_partitions(right, on_idx, 1)
    }

    /// [`JoinBuild::new`] sharded across `partitions` chain maps (rounded
    /// up to a power of two). Single-threaded; the result is bit-identical
    /// to `new` for any partition count — see the module docs.
    pub fn with_partitions(
        right: &'r [Row],
        on_idx: &[(usize, usize)],
        partitions: usize,
    ) -> JoinBuild<'r> {
        let right_cols: Vec<usize> = on_idx.iter().map(|&(_, r)| r).collect();
        let spec = join_hash();
        let p = partitions.max(1).next_power_of_two();
        let mask = (p - 1) as u64;
        let mut parts: Vec<HashMap<u64, Vec<u32>>> =
            (0..p).map(|_| HashMap::with_capacity(right.len() / p)).collect();
        for (i, row) in right.iter().enumerate() {
            if !key_has_null(row, &right_cols) {
                let h = spec.hash_row(row, &right_cols);
                parts[(h & mask) as usize].entry(h).or_default().push(i as u32);
            }
        }
        JoinBuild { right, right_cols, spec, mask, parts }
    }

    /// Assemble a build from partition maps the caller constructed — the
    /// seam for the parallel build (`exec::partition::build_join_par`),
    /// which scatters `(row id, hash)` pairs per partition morsel-parallel
    /// and builds each map on its own worker. `parts[p]` must hold exactly
    /// the non-NULL-keyed right rows with `join_hash & (len-1) == p`,
    /// chained in right-row order under their full hash; `parts.len()`
    /// must be a power of two.
    pub fn from_parts(
        right: &'r [Row],
        on_idx: &[(usize, usize)],
        parts: Vec<HashMap<u64, Vec<u32>>>,
    ) -> JoinBuild<'r> {
        debug_assert!(parts.len().is_power_of_two(), "partition count must be a power of two");
        let right_cols: Vec<usize> = on_idx.iter().map(|&(_, r)| r).collect();
        JoinBuild { right, right_cols, spec: join_hash(), mask: (parts.len() - 1) as u64, parts }
    }

    /// Number of partition maps (a power of two, ≥ 1).
    pub fn partition_count(&self) -> usize {
        self.parts.len()
    }

    /// Keyed (non-NULL) build rows per partition — the skew profile the
    /// telemetry layer reports as `part_max_rows`.
    pub fn partition_sizes(&self) -> Vec<usize> {
        self.parts.iter().map(|m| m.values().map(Vec::len).sum()).collect()
    }

    /// Keyed rows in the fullest partition (0 for an empty build).
    pub fn max_partition_rows(&self) -> u64 {
        self.partition_sizes().into_iter().max().unwrap_or(0) as u64
    }

    /// Probe one chunk of left rows, draining them out of `left` (the
    /// caller can recycle the emptied buffer) and appending joined rows to
    /// `out` in left-row order. For `Right`/`Full` joins the matched right
    /// row indices are appended to `matched` (duplicates allowed); the
    /// caller merges the chunks' lists and emits the unmatched right rows
    /// at the barrier via [`JoinBuild::emit_unmatched_right`].
    pub fn probe(
        &self,
        left: &mut Vec<Row>,
        kind: JoinKind,
        left_cols: &[usize],
        pad_right: usize,
        out: &mut Vec<Row>,
        matched: &mut Vec<u32>,
    ) {
        // Reused per probe: indices of right rows whose key columns
        // actually equal the probe key (hash candidates minus collisions).
        let mut matches: Vec<u32> = Vec::new();
        for lrow in left.drain(..) {
            matches.clear();
            if !key_has_null(&lrow, left_cols) {
                let h = self.spec.hash_row(&lrow, left_cols);
                if let Some(chain) = self.parts[(h & self.mask) as usize].get(&h) {
                    matches.extend(chain.iter().copied().filter(|&ri| {
                        KeyTuple::cols_eq(
                            &lrow,
                            left_cols,
                            &self.right[ri as usize],
                            &self.right_cols,
                        )
                    }));
                }
            }
            match kind {
                JoinKind::Semi => {
                    if !matches.is_empty() {
                        out.push(lrow);
                    }
                }
                JoinKind::Anti => {
                    if matches.is_empty() {
                        out.push(lrow);
                    }
                }
                _ => match matches.split_last() {
                    Some((last, rest)) => {
                        // Clone the left row for all matches but the last,
                        // which takes ownership.
                        for &ri in rest {
                            if matches!(kind, JoinKind::Full | JoinKind::Right) {
                                matched.push(ri);
                            }
                            let mut row = lrow.clone();
                            row.extend_from_slice(&self.right[ri as usize]);
                            out.push(row);
                        }
                        if matches!(kind, JoinKind::Full | JoinKind::Right) {
                            matched.push(*last);
                        }
                        let mut row = lrow;
                        row.extend_from_slice(&self.right[*last as usize]);
                        out.push(row);
                    }
                    None => {
                        if matches!(kind, JoinKind::Left | JoinKind::Full) {
                            let mut row = lrow;
                            row.extend(std::iter::repeat_n(Value::Null, pad_right));
                            out.push(row);
                        }
                    }
                },
            }
        }
    }

    /// Emit the NULL-padded right rows no probe matched — the post-probe
    /// barrier of `Right`/`Full` joins. `matched` is the union of the
    /// per-chunk match lists from [`JoinBuild::probe`]; iteration is over
    /// *global* right-row order, so the emitted tail is independent of how
    /// the probe side was chunked or the build side partitioned.
    pub fn emit_unmatched_right(&self, matched: &[u32], pad_left: usize, out: &mut Vec<Row>) {
        let mut right_matched = vec![false; self.right.len()];
        for &ri in matched {
            right_matched[ri as usize] = true;
        }
        for (ri, rrow) in self.right.iter().enumerate() {
            // Rows with NULL join keys never entered the build map; they
            // are unmatched by construction.
            if !right_matched[ri] || key_has_null(rrow, &self.right_cols) {
                let mut row: Row = std::iter::repeat_n(Value::Null, pad_left).collect();
                row.extend_from_slice(rrow);
                out.push(row);
            }
        }
    }
}

/// Execute an equi-join over row batches. `left` is consumed so its rows
/// move into the output; `right` is borrowed (its rows are cloned only into
/// actual matches). `pad_left`/`pad_right` are the input arities, used to
/// NULL-pad outer-join rows. One [`JoinBuild`] pass over the right side,
/// one probe pass over the left.
pub fn join_rows(
    left: Vec<Row>,
    right: &[Row],
    kind: JoinKind,
    on_idx: &[(usize, usize)],
    pad_left: usize,
    pad_right: usize,
) -> Vec<Row> {
    let left_cols: Vec<usize> = on_idx.iter().map(|&(l, _)| l).collect();
    let build = JoinBuild::new(right, on_idx);
    let mut left = left;
    let mut rows: Vec<Row> = Vec::new();
    let mut matched: Vec<u32> = Vec::new();
    build.probe(&mut left, kind, &left_cols, pad_right, &mut rows, &mut matched);
    if matches!(kind, JoinKind::Right | JoinKind::Full) {
        build.emit_unmatched_right(&matched, pad_left, &mut rows);
    }
    rows
}

/// What a probed right row becomes after the right side's fused chain: the
/// table row itself when σ/η keep it, the rebuilt row when a Π ran, and no
/// partner when the chain drops it.
#[derive(Default)]
struct Survivor {
    kept: bool,
    built: Option<Row>,
}

impl RowSink for Survivor {
    fn owned(&mut self, row: Row) {
        self.built = Some(row);
    }

    fn borrowed(&mut self, _row: &[Value]) {
        self.kept = true;
    }
}

/// PK-probe variant: each left row looks up at most one right partner via
/// the right table's existing primary-key index — O(|left|) probes with no
/// build pass over the right side at all, which is what makes delta-sized
/// probes against large base relations cheap (the FK-join pattern of every
/// maintenance plan). `chain` is the right side's σ/Π/η chain over that
/// table (empty for a bare leaf), run on the probed row alone: a row it
/// drops is no partner — Inner and Semi drop the left row, Left pads it,
/// Anti keeps it. Left rows are moved, never cloned; the probe tuple's
/// `Vec` is allocated once and reused across rows.
///
/// Drains `left` into a caller-provided output buffer: the per-chunk core
/// shared by the sequential executor (which recycles the emptied left
/// buffer) and the morsel-parallel executor (which probes chunks
/// concurrently — each probe only reads the right table's index).
pub fn join_rows_pk_probe_into(
    left: &mut Vec<Row>,
    right: &Table,
    chain: &[FusedOp],
    kind: JoinKind,
    left_cols: &[usize],
    pad_right: usize,
    rows: &mut Vec<Row>,
) {
    let mut probe = KeyTuple(Vec::with_capacity(left_cols.len()));
    for lrow in left.drain(..) {
        let found = if key_has_null(&lrow, left_cols) {
            None
        } else {
            probe.0.clear();
            probe.0.extend(left_cols.iter().map(|&i| lrow[i].clone()));
            right.get(&probe)
        };
        let mut through = Survivor::default();
        let partner: Option<&[Value]> = match found {
            Some(r) if !chain.is_empty() => {
                feed_borrowed(r, chain, &mut through);
                through.built.as_deref().or(through.kept.then_some(r.as_slice()))
            }
            found => found.map(Vec::as_slice),
        };
        match kind {
            JoinKind::Semi => {
                if partner.is_some() {
                    rows.push(lrow);
                }
            }
            JoinKind::Anti => {
                if partner.is_none() {
                    rows.push(lrow);
                }
            }
            JoinKind::Inner => {
                if let Some(r) = partner {
                    let mut row = lrow;
                    row.extend_from_slice(r);
                    rows.push(row);
                }
            }
            JoinKind::Left => {
                let mut row = lrow;
                match partner {
                    Some(r) => row.extend_from_slice(r),
                    None => row.extend(std::iter::repeat_n(Value::Null, pad_right)),
                }
                rows.push(row);
            }
            JoinKind::Right | JoinKind::Full => unreachable!("generic path handles outer joins"),
        }
    }
}

/// Execute an equi-join between materialized tables. The left input is
/// consumed so its rows can be *moved* into the output; `on_idx` holds
/// resolved `(left, right)` column positions; `out` is the derived output
/// type from [`crate::derive::derive_join`].
pub fn run_join(
    left: Table,
    right: &Table,
    kind: JoinKind,
    on_idx: &[(usize, usize)],
    out: &Derived,
) -> Result<Table> {
    let right_cols: Vec<usize> = on_idx.iter().map(|&(_, r)| r).collect();
    let pad_left = left.schema().len();
    let pad_right = right.schema().len();
    let rows = if pk_probe_applies(kind, &right_cols, right.key()) {
        let left_cols: Vec<usize> = on_idx.iter().map(|&(l, _)| l).collect();
        let mut rows = Vec::new();
        join_rows_pk_probe_into(
            &mut left.into_rows(),
            right,
            &[],
            kind,
            &left_cols,
            pad_right,
            &mut rows,
        );
        rows
    } else {
        join_rows(left.into_rows(), right.rows(), kind, on_idx, pad_left, pad_right)
    };
    Table::from_rows(out.schema.clone(), out.key.clone(), rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::derive::derive_join;
    use svc_storage::{DataType, Schema};

    fn left() -> Table {
        let schema =
            Schema::from_pairs(&[("sessionId", DataType::Int), ("videoId", DataType::Int)])
                .unwrap();
        let mut t = Table::new(schema, &["sessionId"]).unwrap();
        for (s, v) in [(1, 10), (2, 10), (3, 20), (4, 99)] {
            t.insert(vec![Value::Int(s), Value::Int(v)]).unwrap();
        }
        t
    }

    fn right() -> Table {
        let schema =
            Schema::from_pairs(&[("videoId", DataType::Int), ("ownerId", DataType::Int)]).unwrap();
        let mut t = Table::new(schema, &["videoId"]).unwrap();
        for (v, o) in [(10, 100), (20, 200), (30, 300)] {
            t.insert(vec![Value::Int(v), Value::Int(o)]).unwrap();
        }
        t
    }

    fn run(kind: JoinKind) -> Table {
        let l = left();
        let r = right();
        let ld = Derived { schema: l.schema().clone(), key: l.key().to_vec() };
        let rd = Derived { schema: r.schema().clone(), key: r.key().to_vec() };
        let on = vec![("videoId".to_string(), "videoId".to_string())];
        let (out, on_idx) = derive_join(&ld, &rd, kind, &on, "video").unwrap();
        run_join(l, &r, kind, &on_idx, &out).unwrap()
    }

    #[test]
    fn inner_join_matches() {
        let t = run(JoinKind::Inner);
        assert_eq!(t.len(), 3); // sessions 1,2,3 match; 4 (video 99) does not
    }

    #[test]
    fn left_join_pads_unmatched() {
        let t = run(JoinKind::Left);
        assert_eq!(t.len(), 4);
        let unmatched: Vec<_> = t.rows().iter().filter(|r| r[2].is_null()).collect();
        assert_eq!(unmatched.len(), 1);
        assert_eq!(unmatched[0][0], Value::Int(4));
    }

    #[test]
    fn full_join_includes_both_sides() {
        let t = run(JoinKind::Full);
        // 3 matches + 1 unmatched left + 1 unmatched right (video 30)
        assert_eq!(t.len(), 5);
        let right_only: Vec<_> = t.rows().iter().filter(|r| r[0].is_null()).collect();
        assert_eq!(right_only.len(), 1);
        assert_eq!(right_only[0][2], Value::Int(30));
    }

    #[test]
    fn semi_and_anti_partition_left() {
        let semi = run(JoinKind::Semi);
        let anti = run(JoinKind::Anti);
        assert_eq!(semi.len(), 3);
        assert_eq!(anti.len(), 1);
        assert_eq!(semi.len() + anti.len(), left().len());
        assert_eq!(anti.rows()[0][0], Value::Int(4));
    }

    #[test]
    fn null_join_keys_never_match() {
        let mut l = left();
        l.insert(vec![Value::Int(5), Value::Null]).unwrap();
        let r = right();
        let ld = Derived { schema: l.schema().clone(), key: l.key().to_vec() };
        let rd = Derived { schema: r.schema().clone(), key: r.key().to_vec() };
        let on = vec![("videoId".to_string(), "videoId".to_string())];
        let (out, on_idx) = derive_join(&ld, &rd, JoinKind::Inner, &on, "video").unwrap();
        let t = run_join(l.clone(), &r, JoinKind::Inner, &on_idx, &out).unwrap();
        assert_eq!(t.len(), 3);
        let (out, on_idx) = derive_join(&ld, &rd, JoinKind::Anti, &on, "video").unwrap();
        let t = run_join(l, &r, JoinKind::Anti, &on_idx, &out).unwrap();
        // NULL-keyed row is kept by anti-join (NOT EXISTS semantics).
        assert_eq!(t.len(), 2);
    }

    /// The generic row path must agree with the PK-probe path wherever both
    /// are legal, including duplicate probe keys on the left.
    #[test]
    fn generic_rows_path_agrees_with_pk_probe() {
        let l = left();
        let r = right();
        for kind in [JoinKind::Inner, JoinKind::Left, JoinKind::Semi, JoinKind::Anti] {
            let generic = join_rows(l.rows().to_vec(), r.rows(), kind, &[(1, 0)], 2, 2);
            // `run_join` takes the PK-probe path here: `right` is joined on
            // its whole key.
            assert!(pk_probe_applies(kind, &[0], r.key()));
            assert_eq!(generic, run(kind).rows(), "{kind:?} diverged");
        }
    }

    /// The structural determinism claim of the partitioned build: for any
    /// partition count, every join kind produces bit-identical output —
    /// the chain a probe sees in its partition is the chain a single map
    /// would hold.
    #[test]
    fn partition_count_never_changes_join_output() {
        // Duplicate keys, a NULL key on each side, and both outer sides.
        let mk = |vals: &[Option<i64>]| -> Vec<Row> {
            vals.iter()
                .enumerate()
                .map(|(i, v)| vec![Value::Int(i as i64), v.map_or(Value::Null, Value::Int)])
                .collect()
        };
        let lrows = mk(&[Some(10), Some(10), Some(20), None, Some(99), Some(20)]);
        let rrows = mk(&[Some(10), Some(20), Some(20), None, Some(30)]);
        for kind in
            [JoinKind::Inner, JoinKind::Left, JoinKind::Right, JoinKind::Full, JoinKind::Semi]
        {
            let reference = {
                let build = JoinBuild::new(&rrows, &[(1, 1)]);
                let mut l = lrows.clone();
                let (mut out, mut matched) = (Vec::new(), Vec::new());
                build.probe(&mut l, kind, &[1], 2, &mut out, &mut matched);
                if matches!(kind, JoinKind::Right | JoinKind::Full) {
                    build.emit_unmatched_right(&matched, 2, &mut out);
                }
                out
            };
            for p in [2usize, 3, 4, 8, 64] {
                let build = JoinBuild::with_partitions(&rrows, &[(1, 1)], p);
                assert_eq!(build.partition_count(), p.next_power_of_two());
                assert_eq!(
                    build.partition_sizes().iter().sum::<usize>(),
                    4,
                    "keyed rows must shard without loss"
                );
                let mut l = lrows.clone();
                let (mut out, mut matched) = (Vec::new(), Vec::new());
                build.probe(&mut l, kind, &[1], 2, &mut out, &mut matched);
                if matches!(kind, JoinKind::Right | JoinKind::Full) {
                    build.emit_unmatched_right(&matched, 2, &mut out);
                }
                assert_eq!(out, reference, "{kind:?} with {p} partitions diverged");
            }
        }
    }
}
