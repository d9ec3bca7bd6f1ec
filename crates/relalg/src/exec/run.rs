//! Executing compiled nodes: streams for fused chains, `Vec<Row>` batches
//! for breakers. No intermediate keyed [`Table`] is ever built — the
//! plan root wraps the final batch exactly once. Batch buffers come from
//! the per-thread pool ([`super::batch`]) and consumed inputs are recycled
//! into it, so re-running a compiled plan allocates almost nothing.
//!
//! There is one tree walker, [`run_node`], and every operator is written
//! once, in the same shape: split the input into morsel ranges ([`ranges`]
//! / [`map_chunks`] — a single range when the input fits one morsel), run
//! the operator core per range ([`fan_out`] — inline on the calling thread
//! when there is one range, on the mode's [`super::MorselScheduler`]
//! otherwise), then concatenate the per-range batches / merge the
//! per-range γ [`GroupMap`]s **in morsel order**. The result — including
//! output order at the keyed root — is therefore a function of the morsel
//! size only, never of the scheduler's thread count or interleaving.
//!
//! Sequential execution is not a second path: [`ExecMode::sequential`]
//! resolves to *no scheduler, morsel = `usize::MAX`, one hash partition*,
//! so every operator takes the one-range branch — no scheduler session, no
//! `Mutex` result slot, no `EXEC_MORSEL` failpoint hit — exactly what an
//! input that fits one morsel does under a parallel mode.
//!
//! The walker takes an optional [`Meter`]: with `None` (the plain `run`
//! paths) no metric state is touched or allocated; with a sink installed,
//! each node accumulates an [`OpMetrics`] on the stack and merges it into
//! the sink's per-node slot at the end, per-range facts (survivors, zone
//! skips) riding back with the range results — the same
//! merge-at-the-barrier shape as the γ group maps, so instrumented totals
//! are as deterministic as the rows.

use std::sync::Mutex;
use std::time::Instant;

use svc_storage::{Result, Row, StorageError, Table, Value};
use svc_telemetry::{MetricsSink, OpMetrics, OpSlot};

use crate::aggregate::GroupMap;
use crate::eval::Bindings;
use crate::join::{join_rows_pk_probe_into, JoinBuild};
use crate::plan::{JoinKind, SetOpKind};
use crate::setops::{difference_rows_into, intersect_rows_into, union_rows_into};

use super::batch;
use super::column::{profitable, run_ops, ColumnChunk};
use super::compile::{JoinRight, Node};
use super::pipeline::{feed_borrowed, feed_owned, RowSink};
use super::ExecMode;

/// A metering handle for one plan node: the shared sink plus the node's
/// pre-order slot id. Copied down the tree; absent (`None`) on the
/// uninstrumented paths.
#[derive(Clone, Copy)]
pub(super) struct Meter<'m> {
    /// The caller-owned sink (one slot per node).
    pub sink: &'m MetricsSink,
    /// Pre-order id of the node this handle meters.
    pub id: usize,
}

impl<'m> Meter<'m> {
    fn slot(&self) -> &'m OpSlot {
        self.sink.slot(self.id)
    }

    fn at(self, id: usize) -> Meter<'m> {
        Meter { sink: self.sink, id }
    }
}

pub(super) type OptMeter<'m> = Option<Meter<'m>>;

/// The meter for a node's child at pre-order offset `off` from the parent.
fn child(m: OptMeter<'_>, off: usize) -> OptMeter<'_> {
    m.map(|mm| mm.at(mm.id + off))
}

/// A [`RowSink`] adapter counting survivors on their way into a γ group
/// map — used only when metered, so the uninstrumented streaming path
/// keeps its direct `feed_borrowed(row, ops, &mut gm)` shape.
struct Counting<'a, 'g> {
    gm: &'a mut GroupMap<'g>,
    n: &'a mut u64,
}

impl RowSink for Counting<'_, '_> {
    fn owned(&mut self, row: Row) {
        *self.n += 1;
        self.gm.owned(row);
    }

    fn borrowed(&mut self, row: &[Value]) {
        *self.n += 1;
        RowSink::borrowed(self.gm, row);
    }
}

/// A node's output rows for read-only consumers (join build sides, set-op
/// right inputs): a bare leaf scan lends the bound table directly — no
/// clone at all — while anything else materializes.
enum Batch<'a> {
    Borrowed(&'a Table),
    Owned(Vec<Row>),
}

impl Batch<'_> {
    /// Return an owned batch's buffer to the thread pool.
    fn recycle(self) {
        if let Batch::Owned(rows) = self {
            batch::recycle(rows);
        }
    }
}

impl std::ops::Deref for Batch<'_> {
    type Target = [Row];
    fn deref(&self) -> &[Row] {
        match self {
            Batch::Borrowed(t) => t.rows(),
            Batch::Owned(rows) => rows,
        }
    }
}

/// Run a node for a consumer that only reads the batch. A borrowed bare
/// leaf never "runs", so when metered its slot records the pass-through
/// row counts directly.
fn run_node_ref<'a>(
    node: &Node,
    b: &Bindings<'a>,
    mode: &ExecMode<'_>,
    m: OptMeter<'_>,
) -> Result<Batch<'a>> {
    match node {
        Node::FusedScan { leaf, ops, .. } if ops.is_empty() => {
            let t = leaf.resolve(b)?;
            if let Some(mm) = m {
                let n = t.len() as u64;
                mm.slot().merge(&OpMetrics { rows_in: n, rows_out: n, ..Default::default() });
            }
            Ok(Batch::Borrowed(t))
        }
        other => Ok(Batch::Owned(run_node(other, b, mode, m)?)),
    }
}

/// Run a vectorized fused-scan segment over one chunk range of the shared
/// column set, gathering the survivors into a fresh row batch. Also
/// returns the segment's zone-map skip count.
fn run_vec_segment(
    cols: &svc_storage::ColumnSet,
    vops: &[super::column::VecOp],
    lo: usize,
    hi: usize,
) -> (Vec<Row>, u32) {
    let mut chunk = ColumnChunk::over(cols, lo, hi);
    let mut scratch = Row::new();
    let zone_skips = run_ops(&mut chunk, vops, &mut scratch);
    let mut out = batch::take(chunk.len());
    chunk.gather_into(&mut out);
    (out, zone_skips)
}

/// The effective partition count for a hash phase over `rows` build-side
/// rows: the explicit knob rounded up to a power of two, or the size-based
/// auto tune.
fn resolve_parts(knob: usize, rows: usize) -> usize {
    if knob == 0 {
        super::auto_partition_count(rows)
    } else {
        knob.next_power_of_two()
    }
}

/// Split `len` rows into morsel-sized `(lo, hi)` index ranges — exactly
/// one (possibly empty) range when they fit a single morsel.
pub(super) fn ranges(len: usize, morsel: usize) -> Vec<(usize, usize)> {
    if len <= morsel {
        return vec![(0, len)];
    }
    let mut out = Vec::with_capacity(len.div_ceil(morsel));
    let mut lo = 0;
    while lo < len {
        let hi = (lo + morsel).min(len);
        out.push((lo, hi));
        lo = hi;
    }
    out
}

/// The `morsels` metric for a node whose input ran as `n` ranges: morsel
/// tasks fanned out, so 0 when nothing split.
fn fanned(n: usize) -> u64 {
    if n > 1 {
        n as u64
    } else {
        0
    }
}

/// Run a per-range closure over `n` ranges and collect the results in
/// range order. One range (or a mode without a scheduler) runs inline on
/// the calling thread — the scheduler is only engaged where a split
/// exists. Otherwise the ranges are morsel tasks on the mode's scheduler:
/// a scheduler failure (a panicked morsel) surfaces as the scheduler's
/// error; individual morsel errors come back in index order.
pub(super) fn fan_out<T: Send>(
    mode: &ExecMode<'_>,
    n: usize,
    f: &(dyn Fn(usize) -> Result<T> + Sync),
) -> Result<Vec<T>> {
    let sched = match mode.sched {
        Some(sched) if n > 1 => sched,
        _ => return (0..n).map(f).collect(),
    };
    let slots: Vec<Mutex<Option<Result<T>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    sched.run_tasks(n, &|i| {
        // Failpoint site: one morsel of a parallel run. The closure has no
        // error channel of its own, so an injected `Error` lands in the
        // morsel's result slot (surfacing through the index-order collect
        // below) and an injected `Panic` unwinds into the scheduler's
        // per-session panic isolation — both the paths a real morsel
        // failure would take.
        if cfg!(feature = "failpoints") {
            if let Some(fired) = svc_fault::check(svc_fault::site::EXEC_MORSEL) {
                match fired.action {
                    svc_fault::FailAction::Panic => panic!("{}", fired.message),
                    svc_fault::FailAction::Error => {
                        *slots[i].lock().expect("morsel slot poisoned") =
                            Some(Err(StorageError::Invalid(fired.message)));
                        return;
                    }
                }
            }
        }
        *slots[i].lock().expect("morsel slot poisoned") = Some(f(i));
    })?;
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner().expect("morsel slot poisoned").unwrap_or_else(|| {
                Err(StorageError::Invalid("morsel task was not executed".into()))
            })
        })
        .collect()
}

/// Run `core` over a batch in morsel-sized owned chunks — rows are moved,
/// never cloned — collecting the results in morsel order and recording the
/// fan-out in `stat.morsels`. A batch that fits one morsel is handed to
/// `core` as it is (same buffer, no re-collect); a larger one is cut into
/// chunks, each behind a `Mutex` so exactly one morsel task takes it.
fn map_chunks<T: Send>(
    mode: &ExecMode<'_>,
    rows: Vec<Row>,
    stat: &mut OpMetrics,
    core: &(dyn Fn(Vec<Row>) -> Result<T> + Sync),
) -> Result<Vec<T>> {
    if rows.len() <= mode.morsel {
        return Ok(vec![core(rows)?]);
    }
    let mut chunks = Vec::with_capacity(rows.len().div_ceil(mode.morsel));
    let mut it = rows.into_iter();
    loop {
        let chunk: Vec<Row> = it.by_ref().take(mode.morsel).collect();
        if chunk.is_empty() {
            break;
        }
        chunks.push(Mutex::new(Some(chunk)));
    }
    stat.morsels = chunks.len() as u64;
    fan_out(mode, chunks.len(), &|i| {
        core(chunks[i].lock().expect("chunk poisoned").take().expect("chunk taken once"))
    })
}

/// Concatenate per-morsel batches in morsel order, recycling the drained
/// buffers. One batch passes through untouched.
fn concat(outs: impl IntoIterator<Item = Vec<Row>>) -> Vec<Row> {
    let mut it = outs.into_iter();
    let Some(mut all) = it.next() else {
        return batch::take(0);
    };
    for mut v in it {
        all.append(&mut v);
        batch::recycle(v);
    }
    all
}

/// Merge per-morsel group maps in morsel order.
fn merge_maps(maps: Vec<GroupMap<'_>>) -> GroupMap<'_> {
    let mut it = maps.into_iter();
    let mut base = it.next().expect("at least one morsel map");
    for m in it {
        base.merge(m);
    }
    base
}

/// Run a node to a materialized row batch under a resolved [`ExecMode`]
/// (see [`ExecMode::resolved`]): `mode.morsel` is the split size,
/// `mode.rowwise` selects the row-at-a-time kernels for fused-scan
/// segments — everything downstream of the chunk→row boundary is
/// identical either way.
pub(super) fn run_node(
    node: &Node,
    b: &Bindings<'_>,
    mode: &ExecMode<'_>,
    m: OptMeter<'_>,
) -> Result<Vec<Row>> {
    let t0 = m.is_some().then(Instant::now);
    let mut stat = OpMetrics::default();
    let vec = !mode.rowwise;
    let out = match node {
        Node::FusedScan { leaf, ops, vops } => {
            let t = leaf.resolve(b)?;
            stat.rows_in = t.len() as u64;
            if ops.is_empty() {
                // Bare scan: every row survives; clone the rows, skip the
                // per-row op dispatch. A plain copy — splitting it buys
                // nothing.
                let mut out = batch::take(t.len());
                out.extend_from_slice(t.rows());
                out
            } else if vec && profitable(vops) {
                // Leaf conversion: the bound table's cached columns (built
                // once per mutation). Morsels are chunk ranges over that one
                // shared column set.
                let cols = &t.columns();
                let rs = ranges(cols.len, mode.morsel);
                stat.morsels = fanned(rs.len());
                stat.vec_chunks = rs.len() as u64;
                let outs = fan_out(mode, rs.len(), &|i| {
                    Ok(run_vec_segment(cols, vops, rs[i].0, rs[i].1))
                })?;
                concat(outs.into_iter().map(|(out, zone_skips)| {
                    stat.zone_skips += u64::from(zone_skips);
                    out
                }))
            } else {
                let rows = t.rows();
                let rs = ranges(rows.len(), mode.morsel);
                stat.morsels = fanned(rs.len());
                stat.row_batches = rs.len() as u64;
                concat(fan_out(mode, rs.len(), &|i| {
                    let mut out = batch::take(0);
                    for row in &rows[rs[i].0..rs[i].1] {
                        feed_borrowed(row, ops, &mut out);
                    }
                    Ok(out)
                })?)
            }
        }
        Node::Fused { input, ops } => {
            let rows = run_node(input, b, mode, child(m, 1))?;
            stat.rows_in = rows.len() as u64;
            let outs = map_chunks(mode, rows, &mut stat, &|mut chunk| {
                let mut out = batch::take(chunk.len());
                for row in chunk.drain(..) {
                    feed_owned(row, ops, &mut out);
                }
                batch::recycle(chunk);
                Ok(out)
            })?;
            stat.row_batches = outs.len() as u64;
            concat(outs)
        }
        Node::Join { left, right, kind, on_idx, pad_left, pad_right } => {
            let lrows = run_node(left, b, mode, child(m, 1))?;
            stat.probe_rows = lrows.len() as u64;
            let left_cols: Vec<usize> = on_idx.iter().map(|&(l, _)| l).collect();
            let out = match right {
                JoinRight::PkProbeLeaf { leaf, ops } => {
                    let t = leaf.resolve(b)?;
                    stat.build_rows = t.len() as u64;
                    concat(map_chunks(mode, lrows, &mut stat, &|mut chunk| {
                        let mut out = batch::take(chunk.len());
                        join_rows_pk_probe_into(
                            &mut chunk, t, ops, *kind, &left_cols, *pad_right, &mut out,
                        );
                        batch::recycle(chunk);
                        Ok(out)
                    })?)
                }
                JoinRight::Build(rnode) => {
                    // Build side constructed once; every morsel probes it
                    // read-only.
                    let rrows = run_node_ref(rnode, b, mode, child(m, 1 + left.subtree_size()))?;
                    stat.build_rows = rrows.len() as u64;
                    let parts = resolve_parts(mode.partitions, rrows.len());
                    let build = if parts == 1 || rrows.len() <= mode.morsel {
                        // Too small to fan out: build the shards inline —
                        // same maps, same probe results, by construction.
                        JoinBuild::with_partitions(&rrows, on_idx, parts)
                    } else {
                        // A bare leaf's partition scatter hashes its cached
                        // columnar projection directly.
                        let cols = match &rrows {
                            Batch::Borrowed(t) if vec => Some(t.columns()),
                            _ => None,
                        };
                        super::partition::build_join_par(
                            &rrows,
                            cols.as_ref(),
                            on_idx,
                            parts,
                            mode,
                        )?
                    };
                    stat.partitions = build.partition_count() as u64;
                    stat.part_max_rows = build.max_partition_rows();
                    let outs = map_chunks(mode, lrows, &mut stat, &|mut chunk| {
                        let mut rows = batch::take(chunk.len());
                        let mut hit: Vec<u32> = Vec::new();
                        build.probe(&mut chunk, *kind, &left_cols, *pad_right, &mut rows, &mut hit);
                        batch::recycle(chunk);
                        Ok((rows, hit))
                    })?;
                    // Barrier: concatenate probe outputs in morsel order
                    // and union the matched right indices.
                    let mut matched: Vec<u32> = Vec::new();
                    let mut out = concat(outs.into_iter().map(|(rows, hit)| {
                        if matched.is_empty() {
                            matched = hit;
                        } else {
                            matched.extend(hit);
                        }
                        rows
                    }));
                    if matches!(kind, JoinKind::Right | JoinKind::Full) {
                        build.emit_unmatched_right(&matched, *pad_left, &mut out);
                    }
                    drop(build);
                    rrows.recycle();
                    out
                }
            };
            stat.rows_in = stat.probe_rows + stat.build_rows;
            out
        }
        Node::Aggregate { input, group_idx, aggs, groups_hint } => {
            // One group map per morsel range, merged in morsel order at the
            // barrier (the group-map core accepts borrowed rows, so partial
            // maps merge without re-hashing values). A catalog hint
            // pre-sizes each map, capped by the range it will see.
            let make = |len: usize| match groups_hint {
                Some(h) => GroupMap::with_capacity(group_idx, aggs, (*h).min(len.max(8))),
                None => GroupMap::with_input_len(group_idx, aggs, len),
            };
            let cm = child(m, 1);
            let maps = match &**input {
                // γ over a fused scan: the filtered input batch never
                // exists. Vectorized, kernels refine the selection first
                // and only survivors are gathered (into a reused scratch
                // row) for group accumulation — same order, so the group
                // map contents are identical to the row path's. The scan
                // never "runs" as a node, so its slot is filled from here.
                Node::FusedScan { leaf, ops, vops } => {
                    let t = leaf.resolve(b)?;
                    let mut scan = OpMetrics { rows_in: t.len() as u64, ..Default::default() };
                    let parts = if vec && !ops.is_empty() && profitable(vops) {
                        let cols = &t.columns();
                        let rs = ranges(cols.len, mode.morsel);
                        scan.vec_chunks = rs.len() as u64;
                        fan_out(mode, rs.len(), &|i| {
                            let mut chunk = ColumnChunk::over(cols, rs[i].0, rs[i].1);
                            let mut scratch = Row::new();
                            let zone_skips = run_ops(&mut chunk, vops, &mut scratch);
                            let mut gm = make(chunk.len());
                            let cs = chunk.columns();
                            for j in chunk.sel.iter() {
                                cs.gather_row(j, &mut scratch);
                                gm.push(&scratch);
                            }
                            Ok((gm, chunk.len() as u64, zone_skips))
                        })?
                    } else {
                        let rows = t.rows();
                        let rs = ranges(rows.len(), mode.morsel);
                        scan.row_batches = rs.len() as u64;
                        let metered = m.is_some();
                        fan_out(mode, rs.len(), &|i| {
                            let (lo, hi) = rs[i];
                            let mut gm = make(hi - lo);
                            let mut survivors = 0u64;
                            if metered {
                                let mut sink = Counting { gm: &mut gm, n: &mut survivors };
                                for row in &rows[lo..hi] {
                                    feed_borrowed(row, ops, &mut sink);
                                }
                            } else {
                                for row in &rows[lo..hi] {
                                    feed_borrowed(row, ops, &mut gm);
                                }
                            }
                            Ok((gm, survivors, 0))
                        })?
                    };
                    stat.morsels = fanned(parts.len());
                    let mut maps = Vec::with_capacity(parts.len());
                    for (gm, survivors, zone_skips) in parts {
                        scan.rows_out += survivors;
                        scan.zone_skips += u64::from(zone_skips);
                        maps.push(gm);
                    }
                    if let Some(c) = cm {
                        c.slot().merge(&scan);
                    }
                    stat.rows_in = scan.rows_out;
                    maps
                }
                other => {
                    let rows = run_node(other, b, mode, cm)?;
                    stat.rows_in = rows.len() as u64;
                    let rs = ranges(rows.len(), mode.morsel);
                    stat.morsels = fanned(rs.len());
                    let maps = fan_out(mode, rs.len(), &|i| {
                        let (lo, hi) = rs[i];
                        let mut gm = make(hi - lo);
                        for row in &rows[lo..hi] {
                            gm.push(row);
                        }
                        Ok(gm)
                    })?;
                    batch::recycle(rows);
                    maps
                }
            };
            let merged = merge_maps(maps);
            stat.groups = merged.group_count() as u64;
            let mut out = batch::take(merged.group_count());
            merged.finish_into(&mut out);
            out
        }
        Node::SetOp { kind, left, right } => {
            // The dedup partitions by whole-row hash when the combined
            // input is worth fanning out (equal rows share a partition, so
            // partition-local sets answer global membership; the merge
            // drains inputs in order — output bit-identical to the
            // driver-side cores, see [`super::partition`]). Inputs that fit
            // one morsel, and modes resolving to one partition, keep the
            // driver-side single-set pass.
            let rm = child(m, 1 + left.subtree_size());
            let mut lrows = run_node(left, b, mode, child(m, 1))?;
            stat.rows_in = lrows.len() as u64;
            let mut out = batch::take(lrows.len());
            let split = |total: usize| {
                let parts = resolve_parts(mode.partitions, total);
                (parts > 1 && total > mode.morsel).then_some(parts)
            };
            if matches!(kind, SetOpKind::Union) {
                let mut rrows = run_node(right, b, mode, rm)?;
                stat.rows_in += rrows.len() as u64;
                match split(lrows.len() + rrows.len()) {
                    Some(parts) => {
                        stat.partitions = parts as u64;
                        stat.part_max_rows = super::partition::union_rows_par(
                            &mut lrows, &mut rrows, parts, mode, &mut out,
                        )?;
                    }
                    None => union_rows_into(&mut lrows, &mut rrows, &mut out),
                }
                batch::recycle(rrows);
            } else {
                let intersect = matches!(kind, SetOpKind::Intersect);
                let rrows = run_node_ref(right, b, mode, rm)?;
                stat.rows_in += rrows.len() as u64;
                match split(lrows.len() + rrows.len()) {
                    Some(parts) => {
                        stat.partitions = parts as u64;
                        stat.part_max_rows = super::partition::filter_rows_par(
                            intersect, &mut lrows, &rrows, parts, mode, &mut out,
                        )?;
                    }
                    None if intersect => intersect_rows_into(&mut lrows, &rrows, &mut out),
                    None => difference_rows_into(&mut lrows, &rrows, &mut out),
                }
                rrows.recycle();
            }
            batch::recycle(lrows);
            out
        }
    };
    if let (Some(mm), Some(t0)) = (m, t0) {
        stat.rows_out = out.len() as u64;
        stat.wall_ns = t0.elapsed().as_nanos() as u64;
        mm.slot().merge(&stat);
    }
    Ok(out)
}

/// Wrap the root batch into the output [`Table`], building the key index
/// exactly once. Fused chains over a keyed source are key-unique by
/// construction (filters and key-preserving maps cannot introduce
/// duplicates), so they skip per-row duplicate validation the same way the
/// legacy evaluator's σ/η nodes did; breaker roots keep the validating
/// build.
pub(super) fn finish_root(
    node: &Node,
    out: &crate::derive::Derived,
    rows: Vec<Row>,
) -> Result<Table> {
    match node {
        Node::FusedScan { .. } => {
            Table::from_unique_rows(out.schema.clone(), out.key.clone(), rows)
        }
        _ => Table::from_rows(out.schema.clone(), out.key.clone(), rows),
    }
}
