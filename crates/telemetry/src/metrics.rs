//! Per-operator execution metrics for the streaming executor.
//!
//! A [`MetricsSink`] holds one [`OpSlot`] per physical plan node (slot `i`
//! ↔ the node at pre-order position `i` of the compiled tree). The
//! executor's walker accumulates an [`OpMetrics`] on the stack per node —
//! per-morsel facts ride back with the morsel results — and
//! [`OpSlot::merge`] folds it into the slot with relaxed atomic adds at the
//! end. Merging is commutative over unsigned sums, so the recorded totals
//! are a function of the morsel split only, never of scheduler
//! interleaving: the morsel-determinism contract extends to the metrics.

use std::sync::atomic::{AtomicU64, Ordering};

/// One operator's execution metrics — a plain-value snapshot or a
/// stack-local accumulator (the executor fills one per node and
/// merges it into the shared [`OpSlot`] once).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct OpMetrics {
    /// Rows entering the operator (for joins: probe + build side).
    pub rows_in: u64,
    /// Rows the operator produced.
    pub rows_out: u64,
    /// Inclusive wall time (driver-side; covers the node's subtree).
    pub wall_ns: u64,
    /// Morsel tasks fanned out for this node (0 when run sequentially).
    pub morsels: u64,
    /// Column chunks driven through the vectorized kernels.
    pub vec_chunks: u64,
    /// Batches processed on the row-at-a-time fallback path.
    pub row_batches: u64,
    /// Predicate×chunk decisions settled by a zone map without scanning.
    pub zone_skips: u64,
    /// Join build-side rows (PK-probe joins: the probed relation's rows).
    pub build_rows: u64,
    /// Join probe-side rows.
    pub probe_rows: u64,
    /// Hash partitions of a join build or set-op dedup (0 when the node
    /// has no hash-partitioned phase).
    pub partitions: u64,
    /// Rows landing in the fullest hash partition — the skew profile of
    /// the partitioned build/dedup (equal to the keyed input under
    /// all-rows-one-key skew, ~input/partitions when uniform).
    pub part_max_rows: u64,
    /// Distinct groups a γ produced.
    pub groups: u64,
}

impl OpMetrics {
    /// Field-wise sum.
    pub fn merge(&mut self, other: &OpMetrics) {
        self.rows_in += other.rows_in;
        self.rows_out += other.rows_out;
        self.wall_ns += other.wall_ns;
        self.morsels += other.morsels;
        self.vec_chunks += other.vec_chunks;
        self.row_batches += other.row_batches;
        self.zone_skips += other.zone_skips;
        self.build_rows += other.build_rows;
        self.probe_rows += other.probe_rows;
        self.partitions += other.partitions;
        self.part_max_rows += other.part_max_rows;
        self.groups += other.groups;
    }
}

/// The shared accumulator for one plan node: the atomic twin of
/// [`OpMetrics`]. Workers only ever *add* (relaxed), readers
/// [`snapshot`](OpSlot::snapshot) after the run has been joined.
#[derive(Debug, Default)]
pub struct OpSlot {
    rows_in: AtomicU64,
    rows_out: AtomicU64,
    wall_ns: AtomicU64,
    morsels: AtomicU64,
    vec_chunks: AtomicU64,
    row_batches: AtomicU64,
    zone_skips: AtomicU64,
    build_rows: AtomicU64,
    probe_rows: AtomicU64,
    partitions: AtomicU64,
    part_max_rows: AtomicU64,
    groups: AtomicU64,
}

impl OpSlot {
    /// Fold a local accumulation into the slot — one relaxed add per
    /// non-zero field.
    pub fn merge(&self, m: &OpMetrics) {
        for (cell, v) in [
            (&self.rows_in, m.rows_in),
            (&self.rows_out, m.rows_out),
            (&self.wall_ns, m.wall_ns),
            (&self.morsels, m.morsels),
            (&self.vec_chunks, m.vec_chunks),
            (&self.row_batches, m.row_batches),
            (&self.zone_skips, m.zone_skips),
            (&self.build_rows, m.build_rows),
            (&self.probe_rows, m.probe_rows),
            (&self.partitions, m.partitions),
            (&self.part_max_rows, m.part_max_rows),
            (&self.groups, m.groups),
        ] {
            if v != 0 {
                cell.fetch_add(v, Ordering::Relaxed);
            }
        }
    }

    /// Plain-value snapshot.
    pub fn snapshot(&self) -> OpMetrics {
        OpMetrics {
            rows_in: self.rows_in.load(Ordering::Relaxed),
            rows_out: self.rows_out.load(Ordering::Relaxed),
            wall_ns: self.wall_ns.load(Ordering::Relaxed),
            morsels: self.morsels.load(Ordering::Relaxed),
            vec_chunks: self.vec_chunks.load(Ordering::Relaxed),
            row_batches: self.row_batches.load(Ordering::Relaxed),
            zone_skips: self.zone_skips.load(Ordering::Relaxed),
            build_rows: self.build_rows.load(Ordering::Relaxed),
            probe_rows: self.probe_rows.load(Ordering::Relaxed),
            partitions: self.partitions.load(Ordering::Relaxed),
            part_max_rows: self.part_max_rows.load(Ordering::Relaxed),
            groups: self.groups.load(Ordering::Relaxed),
        }
    }

    /// Zero every field.
    pub fn reset(&self) {
        for cell in [
            &self.rows_in,
            &self.rows_out,
            &self.wall_ns,
            &self.morsels,
            &self.vec_chunks,
            &self.row_batches,
            &self.zone_skips,
            &self.build_rows,
            &self.probe_rows,
            &self.partitions,
            &self.part_max_rows,
            &self.groups,
        ] {
            cell.store(0, Ordering::Relaxed);
        }
    }
}

/// Per-operator metrics for one compiled plan: slot `i` accumulates the
/// node at pre-order position `i`. Created by the *caller* (e.g.
/// `PhysicalPlan::metrics_sink()`) and passed by reference into
/// `run_with_metrics` — runs without a sink never touch metric state.
#[derive(Debug)]
pub struct MetricsSink {
    slots: Box<[OpSlot]>,
}

impl MetricsSink {
    /// A sink with `n` zeroed slots. Counted by [`crate::metric_allocs`]:
    /// this is the only allocation instrumented execution performs.
    pub fn with_slots(n: usize) -> MetricsSink {
        crate::note_metric_alloc();
        MetricsSink { slots: (0..n).map(|_| OpSlot::default()).collect() }
    }

    /// Number of slots (= plan nodes).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the sink has no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The accumulator for node `i` (pre-order). Panics out of range —
    /// the executor validates the slot count against the plan up front.
    pub fn slot(&self, i: usize) -> &OpSlot {
        &self.slots[i]
    }

    /// Snapshot of node `i`.
    pub fn snapshot(&self, i: usize) -> OpMetrics {
        self.slots[i].snapshot()
    }

    /// Snapshot of every node, in pre-order.
    pub fn snapshots(&self) -> Vec<OpMetrics> {
        self.slots.iter().map(OpSlot::snapshot).collect()
    }

    /// Zero every slot (reuse one sink across runs).
    pub fn reset(&self) {
        for s in self.slots.iter() {
            s.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates_and_reset_clears() {
        let sink = MetricsSink::with_slots(2);
        sink.slot(0).merge(&OpMetrics { rows_in: 10, rows_out: 4, ..Default::default() });
        sink.slot(0).merge(&OpMetrics { rows_in: 5, rows_out: 1, ..Default::default() });
        sink.slot(1).merge(&OpMetrics { groups: 3, ..Default::default() });
        assert_eq!(sink.snapshot(0).rows_in, 15);
        assert_eq!(sink.snapshot(0).rows_out, 5);
        assert_eq!(sink.snapshot(1).groups, 3);
        sink.reset();
        assert_eq!(sink.snapshot(0), OpMetrics::default());
        assert_eq!(sink.snapshot(1), OpMetrics::default());
    }

    #[test]
    fn sink_creation_is_counted() {
        let before = crate::metric_allocs();
        let _sink = MetricsSink::with_slots(4);
        assert_eq!(crate::metric_allocs(), before + 1);
    }
}
