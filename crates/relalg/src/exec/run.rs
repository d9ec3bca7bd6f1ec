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
//! The walker takes an optional [`Meter`]: with `None` (the plain `run`
//! paths) no metric state is touched or allocated; with a sink installed,
//! each node accumulates an [`OpMetrics`] on the stack and adds it to the
//! sink's per-node slot once, at the end.
//!
//! An inner or semi join whose recorded key pairs have disjoint `Int` zone
//! maps on their leaves is answered empty before either input runs
//! ([`zone_disjoint`]).

use std::time::Instant;

use svc_storage::{ColumnData, Result, Row, SharedRow, Table, Value};
use svc_telemetry::{MetricsSink, OpMetrics, OpSlot};

use crate::aggregate::GroupMap;
use crate::eval::Bindings;
use crate::join::{join_rows_pk_probe_into, JoinBuild};
use crate::plan::{JoinKind, SetOpKind};
use crate::setops::{difference_rows_into, intersect_rows_into, union_rows_into};

use super::batch;
use super::column::{profitable, run_ops, ColumnChunk};
use super::compile::{JoinRight, Node};
use super::pipeline::{feed_borrowed, feed_owned, keeps, FusedOp, RowSink};
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
/// operator. `mode.rowwise` selects the row-at-a-time kernels for
/// fused-scan chains — everything downstream of the chunk→row boundary is
/// identical either way.
pub(super) fn run_node(
    node: &Node,
    b: &Bindings<'_>,
    mode: ExecMode,
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
                // per-row op dispatch.
                let mut out = batch::take(t.len());
                out.extend(t.rows().iter().map(|r| r.to_vec()));
                out
            } else if vec && profitable(vops) {
                // Leaf conversion: the bound table's cached columns (built
                // once per mutation), read as one chunk.
                let cols = &t.columns();
                let mut chunk = ColumnChunk::over(cols, 0, cols.len);
                stat.zone_skips = u64::from(run_ops(&mut chunk, vops, &mut Row::new()));
                stat.vec_chunks = 1;
                let mut out = batch::take(chunk.len());
                chunk.gather_into(&mut out);
                out
            } else {
                stat.row_batches = 1;
                let mut out = batch::take(0);
                for row in t.rows() {
                    feed_borrowed(row, ops, &mut out);
                }
                out
            }
        }
        Node::Fused { input, ops } => {
            let mut rows = run_node(input, b, mode, child(m, 1))?;
            stat.rows_in = rows.len() as u64;
            stat.row_batches = 1;
            let mut out = batch::take(rows.len());
            for row in rows.drain(..) {
                feed_owned(row, ops, &mut out);
            }
            batch::recycle(rows);
            out
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
                JoinRight::PkProbeLeaf { leaf, ops } => {
                    let t = leaf.resolve(b)?;
                    stat.build_rows = t.len() as u64;
                    let mut out = batch::take(lrows.len());
                    join_rows_pk_probe_into(
                        &mut lrows, t, ops, *kind, &left_cols, *pad_right, &mut out,
                    );
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
                // exists. Vectorized, kernels refine the selection first
                // and only survivors are gathered (into a reused scratch
                // row) for group accumulation — same order, so the group
                // map contents are identical to the row path's. The scan
                // never "runs" as a node, so its slot is filled from here.
                Node::FusedScan { leaf, ops, vops } => {
                    let t = leaf.resolve(b)?;
                    let mut scan = OpMetrics { rows_in: t.len() as u64, ..Default::default() };
                    let gm = if vec && !ops.is_empty() && profitable(vops) {
                        let cols = &t.columns();
                        let mut chunk = ColumnChunk::over(cols, 0, cols.len);
                        let mut scratch = Row::new();
                        scan.zone_skips = u64::from(run_ops(&mut chunk, vops, &mut scratch));
                        scan.vec_chunks = 1;
                        scan.rows_out = chunk.len() as u64;
                        let mut gm = make(chunk.len());
                        let cs = chunk.columns();
                        for j in chunk.sel.iter() {
                            cs.gather_row(j, &mut scratch);
                            gm.push(&scratch);
                        }
                        gm
                    } else {
                        scan.row_batches = 1;
                        let mut gm = make(t.len());
                        if m.is_some() {
                            let mut sink = Counting { gm: &mut gm, n: &mut scan.rows_out };
                            for row in t.rows() {
                                feed_borrowed(row, ops, &mut sink);
                            }
                        } else {
                            for row in t.rows() {
                                feed_borrowed(row, ops, &mut gm);
                            }
                        }
                        gm
                    };
                    if let Some(c) = cm {
                        c.slot().merge(&scan);
                    }
                    stat.rows_in = scan.rows_out;
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
        Node::SetOp { kind, left, right } => {
            let rm = child(m, 1 + left.subtree_size());
            let mut lrows = run_node(left, b, mode, child(m, 1))?;
            stat.rows_in = lrows.len() as u64;
            let mut out = batch::take(lrows.len());
            if matches!(kind, SetOpKind::Union) {
                let mut rrows = run_node(right, b, mode, rm)?;
                stat.rows_in += rrows.len() as u64;
                union_rows_into(&mut lrows, &mut rrows, &mut out);
                batch::recycle(rrows);
            } else {
                let rrows = run_node_ref(right, b, mode, rm)?;
                stat.rows_in += rrows.len() as u64;
                with_rows!(&rrows, right_rows => if matches!(kind, SetOpKind::Intersect) {
                    intersect_rows_into(&mut lrows, right_rows, &mut out);
                } else {
                    difference_rows_into(&mut lrows, right_rows, &mut out);
                });
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
pub(super) fn run_shared_root(
    node: &Node,
    out: &crate::derive::Derived,
    b: &Bindings<'_>,
    mode: ExecMode,
    m: OptMeter<'_>,
) -> Result<Option<Table>> {
    let Node::FusedScan { leaf, ops, vops } = node else { return Ok(None) };
    if ops.iter().any(|op| matches!(op, FusedOp::Map(_))) {
        return Ok(None);
    }
    let t0 = m.is_some().then(Instant::now);
    let t = leaf.resolve(b)?;
    let mut stat = OpMetrics { rows_in: t.len() as u64, ..Default::default() };
    let kept: Vec<usize> = if ops.is_empty() {
        (0..t.len()).collect()
    } else if !mode.rowwise && profitable(vops) {
        let cols = &t.columns();
        let mut chunk = ColumnChunk::over(cols, 0, cols.len);
        stat.zone_skips = u64::from(run_ops(&mut chunk, vops, &mut Row::new()));
        stat.vec_chunks = 1;
        chunk.sel.iter().collect()
    } else {
        stat.row_batches = 1;
        let rows = t.rows();
        (0..rows.len()).filter(|&j| keeps(&rows[j], ops)).collect()
    };
    if let (Some(mm), Some(t0)) = (m, t0) {
        stat.rows_out = kept.len() as u64;
        stat.wall_ns = t0.elapsed().as_nanos() as u64;
        mm.slot().merge(&stat);
    }
    let rows: Vec<SharedRow> = kept.iter().map(|&i| t.rows()[i].clone()).collect();
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
