//! Executing compiled nodes: streams for fused chains, `Vec<Row>` batches
//! for breakers. No intermediate keyed [`Table`] is ever built — the
//! plan root wraps the final batch exactly once. Batch buffers come from
//! the per-thread pool ([`super::batch`]) and consumed inputs are recycled
//! into it, so re-running a compiled plan allocates almost nothing.
//!
//! There is one tree walker, [`run_node`], and it runs every operator as
//! one sequential pass over its input on the calling thread. A delta plan
//! holds O(m·|∆|) rows, too few for a split to pay; parallelism lives one
//! level up, where `svc-cluster`'s `BatchPipeline` runs whole plans as
//! tasks on its worker pool.
//!
//! Every reader of a leaf chain — a fused-scan node, γ over one, the left
//! input of a streamed probe, a filtering root — gets its survivors from
//! one driver, [`scan_pass`]. It alone chooses the vectorized kernels or
//! the row interpreter and fills the scan's metrics, and it hands each
//! survivor on in place: a chain that only filters hands over the leaf's
//! own row, a projecting chain a reused buffer. The reader decides what
//! to copy.
//!
//! A PK-probe join directly under a fused chain or a γ is not a breaker:
//! it runs as one streamed pass with its consumer ([`stream_probe`]). The
//! left input's survivors are probed, the partner's chain runs into a
//! buffer, the joined row is written into a scratch row, and the
//! consumer's ops and sink read it in place — so the only row built is a
//! survivor the consumer's sink keeps. Any other PK-probe join moves each
//! left row into its output.
//!
//! The walker takes an optional [`Meter`]: with `None` (the plain `run`
//! paths) no metric state is touched or allocated; with a sink installed,
//! each node accumulates an [`OpMetrics`] on the stack and adds it to the
//! sink's per-node slot once, at the end. Either way the operators run the
//! same code. A node run inside its parent's pass — a streamed join, the
//! fused scan feeding it or a γ directly — reports its row counts with
//! wall time 0; the node driving the pass carries the inclusive wall.
//!
//! An inner or semi join whose recorded key pairs have disjoint `Int` zone
//! maps on their leaves is answered empty before either input runs
//! ([`zone_disjoint`]).

use std::time::Instant;

use svc_storage::{ColumnData, Result, Row, SharedRow, Table, Value};
use svc_telemetry::{MetricsSink, OpMetrics, OpSlot};

use crate::aggregate::GroupMap;
use crate::eval::Bindings;
use crate::join::{JoinBuild, PkProbe};
use crate::plan::{new_leaf, JoinKind, SetOpKind};
use crate::setops::{difference_rows_into, intersect_rows_into, union_rows_into};

use super::batch;
use super::column::{profitable, run_ops, ChunkCols, ColumnChunk, VecOp};
use super::compile::{count_read, JoinRight, Layers, LeafRef, Node};
use super::pipeline::{feed_borrowed, feed_owned, run_chain, ChainBufs, FusedOp, Through};
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

/// Add a node's counters to its slot, when metered.
fn merge(m: OptMeter<'_>, stat: &OpMetrics) {
    if let Some(mm) = m {
        mm.slot().merge(stat);
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

    fn len(&self) -> usize {
        match self {
            Batch::Borrowed(t) => t.len(),
            Batch::Owned(rows) => rows.len(),
        }
    }
}

/// Evaluate `$body` with `$rows` bound to the batch's rows: the bound
/// table's shared rows or the owned buffer — two slice types, so `$body`
/// is instantiated for each.
macro_rules! with_rows {
    ($batch:expr, $rows:ident => $body:expr) => {
        match $batch {
            Batch::Borrowed(t) => {
                let $rows = t.rows();
                $body
            }
            Batch::Owned(v) => {
                let $rows = &v[..];
                $body
            }
        }
    };
}

/// Run a node for a consumer that only reads the batch. A borrowed bare
/// leaf never "runs", so when metered its slot records the pass-through
/// row counts directly.
fn run_node_ref<'a>(
    node: &Node,
    b: &Bindings<'a>,
    mode: ExecMode,
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

/// Run a node to a materialized row batch: one sequential pass per
/// operator. `mode` reaches only [`scan_pass`], which picks the kernels for
/// fused-scan chains; everything it hands on is identical either way.
pub(super) fn run_node(
    node: &Node,
    b: &Bindings<'_>,
    mode: ExecMode,
    m: OptMeter<'_>,
) -> Result<Vec<Row>> {
    let t0 = m.is_some().then(Instant::now);
    let mut stat = OpMetrics::default();
    let out = match node {
        Node::FusedScan { leaf, ops, vops } => {
            let copy = |out: &mut Vec<Row>, _: usize, row: &[Value]| out.push(row.to_vec());
            scan_pass(leaf, ops, vops, b, mode, &mut stat, |_, n| batch::take(n), copy)?
        }
        Node::Fused { input, ops } => {
            stat.row_batches = 1;
            let mut bufs = ChainBufs::default();
            if streams(input) {
                let feed = |out: &mut Vec<Row>, row: &[Value]| {
                    feed_borrowed(row, ops, &mut bufs, out);
                };
                let (out, n) = stream_probe(input, b, mode, child(m, 1), |_| batch::take(0), feed)?;
                stat.rows_in = n;
                out
            } else {
                let mut rows = run_node(input, b, mode, child(m, 1))?;
                stat.rows_in = rows.len() as u64;
                let mut out = batch::take(rows.len());
                for row in rows.drain(..) {
                    feed_owned(row, ops, &mut bufs, &mut out);
                }
                batch::recycle(rows);
                out
            }
        }
        Node::Join { left, right, zone_cols, .. } if zone_disjoint(left, right, zone_cols, b)? => {
            // Neither input runs: their slots stay empty.
            stat.zone_skips = 1;
            batch::take(0)
        }
        Node::Join { left, right, kind, on_idx, pad_left, pad_right, .. } => {
            let mut lrows = run_node(left, b, mode, child(m, 1))?;
            stat.probe_rows = lrows.len() as u64;
            let left_cols: Vec<usize> = on_idx.iter().map(|&(l, _)| l).collect();
            let out = match right {
                JoinRight::PkProbeLeaf { leaf, ops, layers } => {
                    let (t, layers) = probed(leaf, layers.as_deref(), b, &mut stat)?;
                    let mut probe = PkProbe::new(t, layers, ops, *kind, &left_cols, *pad_right);
                    let mut out = batch::take(lrows.len());
                    for lrow in lrows.drain(..) {
                        probe.join_owned(lrow, &mut out);
                    }
                    out
                }
                JoinRight::Build(rnode) => {
                    let rrows = run_node_ref(rnode, b, mode, child(m, 1 + left.subtree_size()))?;
                    stat.build_rows = rrows.len() as u64;
                    let mut out = batch::take(lrows.len());
                    with_rows!(&rrows, right_rows => {
                        let build = JoinBuild::new(right_rows, on_idx);
                        let mut matched: Vec<u32> = Vec::new();
                        build.probe(
                            &mut lrows, *kind, &left_cols, *pad_right, &mut out, &mut matched,
                        );
                        if matches!(kind, JoinKind::Right | JoinKind::Full) {
                            build.emit_unmatched_right(&matched, *pad_left, &mut out);
                        }
                    });
                    rrows.recycle();
                    out
                }
            };
            batch::recycle(lrows);
            stat.rows_in = stat.probe_rows + stat.build_rows;
            out
        }
        Node::Aggregate { input, group_idx, aggs, groups_hint } => {
            // A catalog hint pre-sizes the group map, capped by the rows
            // it will see.
            let make = |len: usize| match groups_hint {
                Some(h) => GroupMap::with_capacity(group_idx, aggs, (*h).min(len.max(8))),
                None => GroupMap::with_input_len(group_idx, aggs, len),
            };
            let cm = child(m, 1);
            let gm = match &**input {
                // γ over a fused scan: the filtered input batch never
                // exists; the group map reads each survivor in place. The
                // scan never "runs" as a node, so its slot is filled here.
                Node::FusedScan { leaf, ops, vops } => {
                    let mut scan = OpMetrics::default();
                    let push = |gm: &mut GroupMap<'_>, _: usize, row: &[Value]| gm.push(row);
                    let gm = scan_pass(leaf, ops, vops, b, mode, &mut scan, |_, n| make(n), push)?;
                    merge(cm, &scan);
                    stat.rows_in = scan.rows_out;
                    gm
                }
                join if streams(join) => {
                    let (gm, n) = stream_probe(join, b, mode, cm, make, |gm, row| gm.push(row))?;
                    stat.rows_in = n;
                    gm
                }
                other => {
                    let rows = run_node(other, b, mode, cm)?;
                    stat.rows_in = rows.len() as u64;
                    let mut gm = make(rows.len());
                    for row in &rows {
                        gm.push(row);
                    }
                    batch::recycle(rows);
                    gm
                }
            };
            stat.groups = gm.group_count() as u64;
            let mut out = batch::take(gm.group_count());
            gm.finish_into(&mut out);
            out
        }
        Node::SetOp { kind, left, right, hash_cols, keys } => {
            let rm = child(m, 1 + left.subtree_size());
            let mut lrows = run_node(left, b, mode, child(m, 1))?;
            stat.rows_in = lrows.len() as u64;
            if matches!(kind, SetOpKind::Union) {
                let mut rrows = run_node(right, b, mode, rm)?;
                stat.rows_in += rrows.len() as u64;
                // One input ran empty and the other is keyed, so a set: the
                // hashing pass would hand it on as it is.
                let passed = match (lrows.is_empty(), rrows.is_empty()) {
                    (_, true) if !keys[0].is_empty() => Some((&mut lrows, &keys[0])),
                    (true, _) if !keys[1].is_empty() => Some((&mut rrows, &keys[1])),
                    _ => None,
                };
                let out = match passed {
                    Some((rows, key)) => {
                        if crate::verify::ENABLED {
                            crate::verify::check_set_batch(rows, key)?;
                        }
                        std::mem::take(rows)
                    }
                    None => {
                        let mut out = batch::take(lrows.len() + rrows.len());
                        union_rows_into(&mut lrows, &mut rrows, hash_cols, &mut out);
                        out
                    }
                };
                batch::recycle(lrows);
                batch::recycle(rrows);
                out
            } else {
                let mut out = batch::take(lrows.len());
                let rrows = run_node_ref(right, b, mode, rm)?;
                stat.rows_in += rrows.len() as u64;
                with_rows!(&rrows, right_rows => if matches!(kind, SetOpKind::Intersect) {
                    intersect_rows_into(&mut lrows, right_rows, hash_cols, &mut out);
                } else {
                    difference_rows_into(&mut lrows, right_rows, hash_cols, &mut out);
                });
                rrows.recycle();
                batch::recycle(lrows);
                out
            }
        }
    };
    if let (Some(mm), Some(t0)) = (m, t0) {
        stat.rows_out = out.len() as u64;
        stat.wall_ns = t0.elapsed().as_nanos() as u64;
        mm.slot().merge(&stat);
    }
    Ok(out)
}

/// True for a join that PK-probes a leaf: under a fused chain or a γ it
/// runs as a streamed pass with that consumer ([`stream_probe`]).
fn streams(node: &Node) -> bool {
    matches!(node, Node::Join { right: JoinRight::PkProbeLeaf { .. }, .. })
}

/// Run a PK-probe join (`node`, metered by `m`) as one pass into its
/// consumer. In order: the left input's survivors — handed over by
/// [`scan_pass`] when the left is a fused scan, read from its materialized
/// batch when it is a breaker — then the probe,
/// the partner's chain (into a buffer), the joined row (into a scratch
/// row), and `each`, which runs the consumer's ops into the consumer's
/// sink. `init` makes that sink from the number of left rows the scan or
/// batch holds. Returns the sink and the number of joined rows handed to
/// `each`.
///
/// The join and a streamed left scan report their row counts with wall 0;
/// the consumer driving the pass carries the wall time.
fn stream_probe<S>(
    node: &Node,
    b: &Bindings<'_>,
    mode: ExecMode,
    m: OptMeter<'_>,
    init: impl FnOnce(usize) -> S,
    mut each: impl FnMut(&mut S, &[Value]),
) -> Result<(S, u64)> {
    let Node::Join { left, right, kind, on_idx, pad_right, zone_cols, .. } = node else {
        unreachable!("only joins stream")
    };
    let JoinRight::PkProbeLeaf { leaf, ops: chain, layers } = right else {
        unreachable!("only PK-probe joins stream")
    };
    let mut stat = OpMetrics::default();
    if zone_disjoint(left, right, zone_cols, b)? {
        // Neither input runs: their slots stay empty.
        stat.zone_skips = 1;
        merge(m, &stat);
        return Ok((init(0), 0));
    }
    let (t, layers) = probed(leaf, layers.as_deref(), b, &mut stat)?;
    let left_cols: Vec<usize> = on_idx.iter().map(|&(l, _)| l).collect();
    let mut probe = PkProbe::new(t, layers, chain, *kind, &left_cols, *pad_right);
    let mut joined = 0u64;
    let lm = child(m, 1);
    let sink = match &**left {
        Node::FusedScan { leaf, ops, vops } => {
            let mut scan = OpMetrics::default();
            let probe_each = |sink: &mut S, _: usize, lrow: &[Value]| {
                joined += probe.join_borrowed(lrow, |j| each(sink, j));
            };
            let sink = scan_pass(leaf, ops, vops, b, mode, &mut scan, |_, n| init(n), probe_each)?;
            merge(lm, &scan);
            stat.probe_rows = scan.rows_out;
            sink
        }
        other => {
            let lrows = run_node(other, b, mode, lm)?;
            stat.probe_rows = lrows.len() as u64;
            let mut sink = init(lrows.len());
            for lrow in &lrows {
                joined += probe.join_borrowed(lrow, |j| each(&mut sink, j));
            }
            batch::recycle(lrows);
            sink
        }
    };
    stat.rows_in = stat.probe_rows + stat.build_rows;
    stat.rows_out = joined;
    merge(m, &stat);
    Ok((sink, joined))
}

/// The tables a PK probe reads: the probed leaf, and its delta layers when
/// it reads a new state — one read of the leaf the plan names, `T` or
/// `__new.T`. The rows they hold are the join's `build_rows`.
fn probed<'a>(
    leaf: &LeafRef,
    layers: Option<&Layers>,
    b: &Bindings<'a>,
    stat: &mut OpMetrics,
) -> Result<(&'a Table, Option<(&'a Table, &'a Table)>)> {
    let (t, layers) = match layers {
        None => (leaf.resolve(b)?, None),
        Some(Layers { ins, del }) => {
            count_read(&new_leaf(&leaf.name));
            (leaf.lookup(b)?, Some((ins.lookup(b)?, del.lookup(b)?)))
        }
    };
    stat.build_rows = (t.len() + layers.map_or(0, |(ins, _)| ins.len())) as u64;
    Ok((t, layers))
}

/// The one fused-scan driver: resolve `leaf`, run its chain and call
/// `each(sink, pos, row)` for every survivor, in leaf order, into the sink
/// `init(table, n)` makes (`n` bounds the survivors). A bare scan hands
/// over every row with no op dispatch. Otherwise the vectorized kernels
/// run when `mode` and the chain's head allow it, else the row
/// interpreter. A chain that only filters hands over the leaf's own rows,
/// at their positions `pos` in the leaf; a projected survivor sits in a
/// reused buffer, gathered once, and its `pos` names no leaf row. `stat`
/// receives the scan's counters, wall time aside.
#[allow(clippy::too_many_arguments)]
fn scan_pass<'a, S>(
    leaf: &LeafRef,
    ops: &[FusedOp],
    vops: &[VecOp],
    b: &Bindings<'a>,
    mode: ExecMode,
    stat: &mut OpMetrics,
    init: impl FnOnce(&'a Table, usize) -> S,
    mut each: impl FnMut(&mut S, usize, &[Value]),
) -> Result<S> {
    let t = leaf.resolve(b)?;
    let rows = t.rows();
    stat.rows_in = rows.len() as u64;
    if ops.is_empty() {
        let mut sink = init(t, rows.len());
        for (j, row) in rows.iter().enumerate() {
            each(&mut sink, j, row);
        }
        stat.rows_out = stat.rows_in;
        return Ok(sink);
    }
    if !mode.rowwise && profitable(vops) {
        // The bound table's cached columns (built once per mutation),
        // read as one chunk.
        let cols = &t.columns();
        let mut chunk = ColumnChunk::over(cols, 0, cols.len);
        let mut scratch = Row::new();
        stat.zone_skips = u64::from(run_ops(&mut chunk, vops, &mut scratch));
        stat.vec_chunks = 1;
        stat.rows_out = chunk.len() as u64;
        let mut sink = init(t, chunk.len());
        match &chunk.cols {
            ChunkCols::Shared(_) => {
                for j in chunk.sel.iter() {
                    each(&mut sink, j, &rows[j]);
                }
            }
            ChunkCols::Owned(projected) => {
                for j in chunk.sel.iter() {
                    projected.gather_row(j, &mut scratch);
                    each(&mut sink, j, &scratch);
                }
            }
        }
        return Ok(sink);
    }
    stat.row_batches = 1;
    let mut sink = init(t, rows.len());
    let mut bufs = ChainBufs::default();
    for (j, row) in rows.iter().enumerate() {
        let survivor = match run_chain(row, ops, &mut bufs) {
            Some(Through::Input) => &**row,
            Some(Through::Built(built)) => built,
            None => continue,
        };
        stat.rows_out += 1;
        each(&mut sink, j, survivor);
    }
    Ok(sink)
}

/// True when a join with recorded `zone_cols` (inner or semi, both inputs
/// leaf-rooted) is empty for want of partners, decided from its two leaves
/// alone: one is empty, or some key pair is stored as `Int` on both sides
/// with disjoint zone maps (a zone-less `Int` column has no non-NULL key).
/// Sound because NULL keys never join and zones exclude NULLs, the inputs
/// carry leaf values unchanged, and `i64 → f64` widening is monotone, so
/// equal keys widen equal. Float, string and mixed storage is never used.
/// The leaves are looked up with shape validation, not counted as reads.
fn zone_disjoint(
    left: &Node,
    right: &JoinRight,
    zone_cols: &[(usize, usize)],
    b: &Bindings<'_>,
) -> Result<bool> {
    if zone_cols.is_empty() {
        return Ok(false);
    }
    let (Some((l, _)), Some((r, _))) = (left.leaf_chain(), right.leaf_chain()) else {
        return Ok(false);
    };
    let (lt, rt) = (l.lookup(b)?, r.lookup(b)?);
    if lt.is_empty() || rt.is_empty() {
        return Ok(true);
    }
    let int_zone = |t: &Table, i: usize| {
        let c = t.column(i);
        matches!(c.data, ColumnData::Int(_)).then_some(c.zone)
    };
    Ok(zone_cols.iter().any(|&(lc, rc)| match (int_zone(lt, lc), int_zone(rt, rc)) {
        (Some(Some((llo, lhi))), Some(Some((rlo, rhi)))) => lhi < rlo || rhi < llo,
        (Some(None), Some(_)) | (Some(_), Some(None)) => true,
        _ => false,
    }))
}

/// Run a root fused scan whose chain only filters (σ and η, no Π) as a
/// selection: its survivors are the bound table's own rows, so the output
/// table shares them instead of rebuilding each one. `None` for any other
/// root. Same survivors, order and metrics as [`run_node`]'s fused-scan
/// arm.
pub(super) fn run_shared_root<'a>(
    node: &Node,
    out: &crate::derive::Derived,
    b: &Bindings<'a>,
    mode: ExecMode,
    m: OptMeter<'_>,
) -> Result<Option<Table>> {
    let Node::FusedScan { leaf, ops, vops } = node else { return Ok(None) };
    if ops.iter().any(|op| matches!(op, FusedOp::Map(_))) {
        return Ok(None);
    }
    let t0 = m.is_some().then(Instant::now);
    let mut stat = OpMetrics::default();
    let init = |t: &'a Table, n| (t.rows(), Vec::with_capacity(n));
    let keep = |(leaf_rows, kept): &mut (&[SharedRow], Vec<SharedRow>), j: usize, _: &[Value]| {
        kept.push(leaf_rows[j].clone());
    };
    let (_, rows) = scan_pass(leaf, ops, vops, b, mode, &mut stat, init, keep)?;
    if let (Some(mm), Some(t0)) = (m, t0) {
        stat.wall_ns = t0.elapsed().as_nanos() as u64;
        mm.slot().merge(&stat);
    }
    Table::from_unique_rows(out.schema.clone(), out.key.clone(), rows).map(Some)
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
