//! Hash-based equi-join execution for all [`JoinKind`]s.
//!
//! Two layers: row-based cores that the streaming executor (`crate::exec`)
//! calls, and the legacy table-based wrapper [`run_join`] used by the
//! materializing evaluator. The cores never allocate a `KeyTuple` per
//! probed row: [`JoinBuild`] (behind [`join_rows`]) hashes keys in place
//! via [`join_hash`] and verifies candidates by column equality, and
//! `PkProbe` reads the right table's own key index. A PK-probe join
//! either moves its left row into its output or, under a consumer, writes
//! the joined row into a scratch row the consumer reads in place.

use std::collections::{HashMap, HashSet};

use svc_storage::{HashSpec, KeyTuple, Result, Row, Table, Value};

use crate::derive::Derived;
use crate::exec::pipeline::{run_chain, ChainBufs, FusedOp, Through};
use crate::plan::JoinKind;

/// The fixed hash function of every hash join build/probe. A
/// canonical-bytes hash ([`HashSpec::hash_row`] streams
/// `Value::canonical_bytes`), so it induces exactly the `Value` equality
/// classes. The seed is fixed, so a build is a pure function of the data,
/// never of the process.
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
/// right input, then probed with the left rows. The right rows are any
/// slice of rows: an operator's owned batch or a table's shared rows.
pub struct JoinBuild<'r, R = Row> {
    right: &'r [R],
    right_cols: Vec<usize>,
    spec: HashSpec,
    /// Right row indices chained under the full key hash, in right-row
    /// order.
    chains: HashMap<u64, Vec<u32>>,
}

impl<'r, R: AsRef<[Value]>> JoinBuild<'r, R> {
    /// Hash-build over the right join columns — in place, no per-row
    /// `KeyTuple`. Rows with NULL join keys never enter the map (SQL
    /// semantics: they match nothing).
    pub fn new(right: &'r [R], on_idx: &[(usize, usize)]) -> JoinBuild<'r, R> {
        let right_cols: Vec<usize> = on_idx.iter().map(|&(_, r)| r).collect();
        let spec = join_hash();
        let mut chains: HashMap<u64, Vec<u32>> = HashMap::with_capacity(right.len());
        for (i, row) in right.iter().enumerate() {
            let row = row.as_ref();
            if !key_has_null(row, &right_cols) {
                chains.entry(spec.hash_row(row, &right_cols)).or_default().push(i as u32);
            }
        }
        JoinBuild { right, right_cols, spec, chains }
    }

    /// Probe with the left rows, draining them out of `left` (the
    /// caller can recycle the emptied buffer) and appending joined rows to
    /// `out` in left-row order. For `Right`/`Full` joins the matched right
    /// row indices are appended to `matched` (duplicates allowed); the
    /// caller then emits the unmatched right rows via
    /// [`JoinBuild::emit_unmatched_right`].
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
                if let Some(chain) = self.chains.get(&h) {
                    matches.extend(chain.iter().copied().filter(|&ri| {
                        KeyTuple::cols_eq(
                            &lrow,
                            left_cols,
                            self.right[ri as usize].as_ref(),
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
                            row.extend_from_slice(self.right[ri as usize].as_ref());
                            out.push(row);
                        }
                        if matches!(kind, JoinKind::Full | JoinKind::Right) {
                            matched.push(*last);
                        }
                        let mut row = lrow;
                        row.extend_from_slice(self.right[*last as usize].as_ref());
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

    /// Emit the NULL-padded right rows no probe matched — the tail of
    /// `Right`/`Full` joins. `matched` is the match list from
    /// [`JoinBuild::probe`]; rows are emitted in right-row order.
    pub fn emit_unmatched_right(&self, matched: &[u32], pad_left: usize, out: &mut Vec<Row>) {
        let mut right_matched = vec![false; self.right.len()];
        for &ri in matched {
            right_matched[ri as usize] = true;
        }
        for (ri, rrow) in self.right.iter().enumerate() {
            let rrow = rrow.as_ref();
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
pub fn join_rows<R: AsRef<[Value]>>(
    left: Vec<Row>,
    right: &[R],
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

/// A PK-probe join, one left row at a time: each left row looks up at most
/// one right partner through the right table's existing primary-key index
/// — O(|left|) probes with no build pass over the right side at all, which
/// is what makes delta-sized probes against large base relations cheap (the
/// FK-join pattern of every maintenance plan). The probe reads the key in
/// place ([`Table::position_of`]). `chain` is the right side's σ/Π/η chain
/// over that table (empty for a bare leaf), run on the probed row alone
/// into a reused buffer: a row it drops is no partner — Inner and Semi
/// drop the left row, Left pads it, Anti keeps it.
///
/// One routine serves both shapes of use. With no consumer, an owned left
/// row moves into the output and the partner is appended to it
/// ([`PkProbe::join_owned`]). Under a consumer, a borrowed left row and
/// its partner are written into a scratch row that the consumer reads in
/// place ([`PkProbe::join_borrowed`]), so nothing is allocated per row.
///
/// With `layers` (`∆R`, `∇R`) the probe reads R's new state
/// `R′ = (R ▷ ∇R) ∪ ∆R` through the three key indexes
/// ([`PkProbe::rows_under`]), so `R′` is never built.
pub(crate) struct PkProbe<'a> {
    right: &'a Table,
    layers: Option<(&'a Table, &'a Table)>,
    chain: &'a [FusedOp],
    kind: JoinKind,
    left_cols: &'a [usize],
    pad_right: usize,
    /// The partner chain's projection buffers.
    bufs: ChainBufs,
    /// The joined row a consumer reads.
    scratch: Row,
}

/// What one left row joins to.
enum Joined<'p> {
    /// Nothing: the left row is dropped.
    Dropped,
    /// The left row alone (semi and anti joins).
    Left,
    /// The left row followed by this partner.
    With(&'p [Value]),
    /// The left row followed by NULLs: a left join's unmatched row.
    Padded,
}

impl<'a> PkProbe<'a> {
    /// A probe of `right` — of its new state under `layers` (`∆R`, `∇R`) —
    /// on the left columns `left_cols`; `pad_right` is the width of a
    /// partner after `chain`.
    pub(crate) fn new(
        right: &'a Table,
        layers: Option<(&'a Table, &'a Table)>,
        chain: &'a [FusedOp],
        kind: JoinKind,
        left_cols: &'a [usize],
        pad_right: usize,
    ) -> PkProbe<'a> {
        assert!(
            !matches!(kind, JoinKind::Right | JoinKind::Full),
            "outer joins on the right take the generic path"
        );
        PkProbe {
            right,
            layers,
            chain,
            kind,
            left_cols,
            pad_right,
            bufs: ChainBufs::default(),
            scratch: Row::new(),
        }
    }

    /// The rows the probed relation holds under `lrow`'s key, before the
    /// chain. A table holds at most one. A new state `R′` holds ∆R's row if
    /// ∆R has one, else R's unless ∇R holds the key. It holds a second row
    /// only for an insertion that is no update: R's row, different from
    /// ∆R's, under a key ∇R does not hold. The plain union keeps both, so
    /// the probe does too, and the key check of whatever consumes the join
    /// still rejects the deltas.
    fn rows_under(&self, lrow: &[Value]) -> [Option<&'a [Value]>; 2] {
        let left_cols = self.left_cols;
        if key_has_null(lrow, left_cols) {
            return [None, None];
        }
        let find = |t: &'a Table| {
            let p = if t.is_empty() { None } else { t.position_of(lrow, left_cols) };
            p.map(|p| &*t.rows()[p])
        };
        let Some((ins, del)) = self.layers else { return [find(self.right), None] };
        let deleted = || find(del).is_some();
        match find(ins) {
            Some(new) if deleted() => [Some(new), None],
            Some(new) => [Some(new), find(self.right).filter(|old| *old != new)],
            None => [find(self.right).filter(|_| !deleted()), None],
        }
    }

    /// Decide what a left row joins to given the row `found` under its key,
    /// handing back the scratch row alongside.
    fn step(&mut self, found: Option<&'a [Value]>) -> (Joined<'_>, &mut Row) {
        let PkProbe { chain, kind, bufs, scratch, .. } = self;
        let partner = match found.map(|r| (r, run_chain(r, chain, bufs))) {
            Some((r, Some(Through::Input))) => Some(r),
            Some((_, Some(Through::Built(built)))) => Some(built),
            _ => None,
        };
        let joined = match (*kind, partner) {
            (JoinKind::Semi, Some(_)) | (JoinKind::Anti, None) => Joined::Left,
            (JoinKind::Inner | JoinKind::Left, Some(r)) => Joined::With(r),
            (JoinKind::Left, None) => Joined::Padded,
            _ => Joined::Dropped,
        };
        (joined, scratch)
    }

    /// Join an owned left row with no consumer: the row moves into `out`,
    /// extended by its partner (or NULLs) in place.
    pub(crate) fn join_owned(&mut self, lrow: Row, out: &mut Vec<Row>) {
        let [found, twin] = self.rows_under(&lrow);
        if twin.is_some() {
            self.join_owned_to(lrow.clone(), twin, out);
        }
        self.join_owned_to(lrow, found, out);
    }

    fn join_owned_to(&mut self, mut lrow: Row, found: Option<&'a [Value]>, out: &mut Vec<Row>) {
        let pad = self.pad_right;
        match self.step(found).0 {
            Joined::Dropped => return,
            Joined::Left => {}
            Joined::With(r) => lrow.extend_from_slice(r),
            Joined::Padded => lrow.extend(std::iter::repeat_n(Value::Null, pad)),
        }
        out.push(lrow);
    }

    /// Join a borrowed left row for a consumer: `each` reads the joined
    /// row in place — the left row itself for semi and anti joins, the
    /// scratch row otherwise. Returns how many rows were handed over.
    pub(crate) fn join_borrowed(&mut self, lrow: &[Value], mut each: impl FnMut(&[Value])) -> u64 {
        let [found, twin] = self.rows_under(lrow);
        let twin = twin.is_some() && self.join_borrowed_to(lrow, twin, &mut each);
        u64::from(twin) + u64::from(self.join_borrowed_to(lrow, found, &mut each))
    }

    fn join_borrowed_to(
        &mut self,
        lrow: &[Value],
        found: Option<&'a [Value]>,
        each: &mut impl FnMut(&[Value]),
    ) -> bool {
        let pad = self.pad_right;
        let (joined, scratch) = self.step(found);
        let tail = match joined {
            Joined::Dropped => return false,
            Joined::Left => {
                each(lrow);
                return true;
            }
            Joined::With(r) => Some(r),
            Joined::Padded => None,
        };
        scratch.clear();
        scratch.extend_from_slice(lrow);
        match tail {
            Some(r) => scratch.extend_from_slice(r),
            None => scratch.extend(std::iter::repeat_n(Value::Null, pad)),
        }
        each(scratch);
        true
    }
}

/// The positions of `left`'s rows that a semi join with a PK-probed
/// `right` keeps, in position order, found from `right`'s side: `right`
/// no larger than `left`, its rows run through `chain` (a row it drops is
/// no partner) and their keys gathered once. Joined on `left`'s whole key,
/// each key probes `left`'s index, so `left` is never scanned. Joined on
/// one column whose every partner key is an `Int`, `left`'s rows are read
/// in place and tested against a hash set of those `i64`s instead of a
/// probe of `right`'s index per row, which hashes the `Value` and reads
/// the candidate row's key cells. V3's outlier push-up (TPCD 0.5, z = 4,
/// 10 % updates, top-100), whose exact pass tests 30 006 lineitem rows
/// this way, fell from a median 2.21 to 1.67 ms on a 2-core Xeon. Returns the hits and how many `left` rows were read; `None` when
/// neither route applies.
pub(crate) fn semi_join_hits(
    left: &Table,
    right: &Table,
    chain: &[FusedOp],
    on_idx: &[(usize, usize)],
) -> Option<(Vec<usize>, usize)> {
    if right.len() > left.len() {
        return None;
    }
    let (left_cols, right_cols): (Vec<usize>, Vec<usize>) = on_idx.iter().copied().unzip();
    let mut bufs = ChainBufs::default();
    let mut partners = |f: &mut dyn FnMut(&[Value])| {
        for row in right.rows() {
            match run_chain(row, chain, &mut bufs) {
                Some(Through::Input) => f(row),
                Some(Through::Built(built)) => f(built),
                None => {}
            }
        }
    };
    if left_cols == left.key() {
        let mut hits = Vec::with_capacity(right.len());
        partners(&mut |r| {
            if !key_has_null(r, &right_cols) {
                hits.extend(left.position_of(r, &right_cols));
            }
        });
        hits.sort_unstable();
        let read = hits.len();
        return Some((hits, read));
    }
    let (&[lc], &[rc]) = (&left_cols[..], &right_cols[..]) else { return None };
    let (mut keys, mut ints) = (HashSet::new(), true);
    partners(&mut |r| match r[rc] {
        Value::Int(x) => drop(keys.insert(x)),
        Value::Null => {}
        _ => ints = false,
    });
    let rows = left.rows();
    let kept = |j: &usize| matches!(rows[*j][lc], Value::Int(x) if keys.contains(&x));
    ints.then(|| ((0..rows.len()).filter(kept).collect(), rows.len()))
}

/// Execute an equi-join between materialized tables. `on_idx` holds
/// resolved `(left, right)` column positions; `out` is the derived output
/// type from [`crate::derive::derive_join`].
pub fn run_join(
    left: &Table,
    right: &Table,
    kind: JoinKind,
    on_idx: &[(usize, usize)],
    out: &Derived,
) -> Result<Table> {
    let right_cols: Vec<usize> = on_idx.iter().map(|&(_, r)| r).collect();
    let pad_left = left.schema().len();
    let pad_right = right.schema().len();
    let left_rows = left.rows().iter().map(|r| r.to_vec());
    let rows = if pk_probe_applies(kind, &right_cols, right.key()) {
        let left_cols: Vec<usize> = on_idx.iter().map(|&(l, _)| l).collect();
        let mut probe = PkProbe::new(right, None, &[], kind, &left_cols, pad_right);
        let mut rows = Vec::with_capacity(left.len());
        left_rows.for_each(|lrow| probe.join_owned(lrow, &mut rows));
        rows
    } else {
        join_rows(left_rows.collect(), right.rows(), kind, on_idx, pad_left, pad_right)
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
        run_join(&l, &r, kind, &on_idx, &out).unwrap()
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
        let t = run_join(&l, &r, JoinKind::Inner, &on_idx, &out).unwrap();
        assert_eq!(t.len(), 3);
        let (out, on_idx) = derive_join(&ld, &rd, JoinKind::Anti, &on, "video").unwrap();
        let t = run_join(&l, &r, JoinKind::Anti, &on_idx, &out).unwrap();
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
            let lrows = l.rows().iter().map(|r| r.to_vec()).collect();
            let generic: Vec<svc_storage::SharedRow> =
                join_rows(lrows, r.rows(), kind, &[(1, 0)], 2, 2)
                    .into_iter()
                    .map(Into::into)
                    .collect();
            // `run_join` takes the PK-probe path here: `right` is joined on
            // its whole key.
            assert!(pk_probe_applies(kind, &[0], r.key()));
            assert_eq!(generic, run(kind).rows(), "{kind:?} diverged");
        }
    }

    /// A semi join with a key side no larger than the leaf finds its hits
    /// from that side: on the leaf's whole key each key probes the leaf,
    /// reading only the hits; on one other `Int` column the leaf's rows are
    /// tested against the set of keys, reading them all. A `Float` key side
    /// or a larger one takes neither route. A NULL key matches nothing.
    #[test]
    fn semi_join_hits_read_the_leaf_through_its_key_or_a_set_of_ints() {
        let keys = |dtype: DataType, cells: Vec<Value>| {
            let mut t = Table::new(Schema::from_pairs(&[("k", dtype)]).unwrap(), &["k"]).unwrap();
            cells.into_iter().for_each(|c| t.insert(vec![c]).unwrap());
            t
        };
        let ints = |ks: &[i64]| ks.iter().map(|&k| Value::Int(k)).collect::<Vec<_>>();
        let l = left();
        let by_key = keys(DataType::Int, ints(&[4, 9, 2]));
        assert_eq!(semi_join_hits(&l, &by_key, &[], &[(0, 0)]), Some((vec![1, 3], 2)));
        let mut videos = ints(&[99, 10]);
        videos.push(Value::Null);
        let by_video = keys(DataType::Int, videos);
        assert_eq!(semi_join_hits(&l, &by_video, &[], &[(1, 0)]), Some((vec![0, 1, 3], 4)));
        let floats = keys(DataType::Float, vec![Value::Float(10.0)]);
        assert_eq!(semi_join_hits(&l, &floats, &[], &[(1, 0)]), None);
        let larger = keys(DataType::Int, ints(&[10, 20, 30, 40, 50]));
        assert_eq!(semi_join_hits(&l, &larger, &[], &[(0, 0)]), None);
    }
}
