//! `EXPLAIN ANALYZE` for compiled plans: run a plan with a metrics sink
//! installed and render the physical tree with per-node **actual** rows,
//! wall time, and operator detail next to the catalog's **estimated**
//! rows.
//!
//! Estimates come from walking the logical [`Plan`] in lock-step with the
//! physical [`Node`] tree: a fused chain of `k` unary ops corresponds to
//! the `k` `Select`/`Project`/`Hash` wrappers above its source, a join
//! node to `Plan::Join`, and so on — the same correspondence the lowering
//! in [`super::compile()`] establishes. Nodes where the walk loses sync (or
//! where estimation fails) simply render without an estimate; actuals are
//! never affected.
//!
//! Wall times are inclusive. A node run inside its parent's pass — a
//! PK-probe join streamed into the fused chain or γ above it, the fused
//! scan feeding such a join, a fused scan under γ — shows `wall=0ns`; the
//! node driving the pass carries its time. Row counts are always the
//! node's own, and [`Explain::unconserved`] checks them edge by edge.

use std::fmt;

use svc_storage::{Result, Table};
use svc_telemetry::OpMetrics;

use crate::derive::LeafProvider;
use crate::eval::Bindings;
use crate::optimizer::cost::CardEstimator;
use crate::plan::Plan;

use super::compile::{tags, JoinRight, Node};
use super::{compile_with, ExecMode, PhysicalPlan};

/// One annotated node of an explained plan, in pre-order (the metric-slot
/// order).
#[derive(Debug, Clone)]
pub struct ExplainNode {
    /// Pre-order id — the node's slot index in the metrics sink.
    pub id: usize,
    /// Tree depth (root = 0), for rendering.
    pub depth: usize,
    /// Single-node operator label, e.g. `fused-scan(log)[ση]`.
    pub label: String,
    /// Catalog-estimated output rows, when an estimator was supplied and
    /// the logical walk stayed in sync.
    pub est_rows: Option<f64>,
    /// Measured execution metrics for this node.
    pub metrics: OpMetrics,
}

/// The result of [`explain_analyze`]: the query output plus the annotated
/// plan tree. `Display` renders the tree.
#[derive(Debug, Clone)]
pub struct Explain {
    /// The query result (the run is a real run).
    pub table: Table,
    /// Annotated nodes in pre-order.
    pub nodes: Vec<ExplainNode>,
}

impl Explain {
    /// The root node's metrics (`rows_out` equals `table.len()`).
    pub fn root(&self) -> &ExplainNode {
        &self.nodes[0]
    }

    /// Render the annotated tree (same text as `Display`).
    pub fn render(&self) -> String {
        self.to_string()
    }

    /// Ids of node `id`'s children, in order.
    fn children(&self, id: usize) -> impl Iterator<Item = usize> + '_ {
        let depth = self.nodes[id].depth;
        self.nodes[id + 1..]
            .iter()
            .take_while(move |n| n.depth > depth)
            .filter(move |n| n.depth == depth + 1)
            .map(|n| n.id)
    }

    /// The edges along which rows are not conserved, one line each; empty
    /// when every node's input count equals what its children report: a
    /// fused chain's or γ's `rows_in` its child's `rows_out`, a join's
    /// `probe_rows` its left child's `rows_out` (and a build join's
    /// `build_rows` its right child's), a set op's `rows_in` the sum of its
    /// children's `rows_out`. A streamed child counts its rows from the
    /// stream, so a miscount shows here even where both kernel paths
    /// agree.
    pub fn unconserved(&self) -> Vec<String> {
        let mut broken = Vec::new();
        for n in &self.nodes {
            let outs: Vec<u64> =
                self.children(n.id).map(|c| self.nodes[c].metrics.rows_out).collect();
            let out = |i: usize| outs.get(i).copied().unwrap_or(0);
            let m = &n.metrics;
            let mut check = |what: &str, got: u64, want: u64| {
                if got != want {
                    broken.push(format!(
                        "#{} {}: {what}={got}, but its children report {want}",
                        n.id, n.label
                    ));
                }
            };
            if n.label.starts_with("fused[") || n.label.starts_with("γ(") {
                check("rows_in", m.rows_in, out(0));
            } else if n.label.starts_with("join:") {
                check("probe_rows", m.probe_rows, out(0));
                if n.label.ends_with(" build") {
                    check("build_rows", m.build_rows, out(1));
                }
            } else if !n.label.starts_with("fused-scan(") {
                check("rows_in", m.rows_in, outs.iter().sum());
            }
        }
        broken
    }
}

impl fmt::Display for Explain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for n in &self.nodes {
            let pad = "  ".repeat(n.depth);
            let m = &n.metrics;
            write!(f, "{pad}{} (#{})  rows={}", n.label, n.id, m.rows_out)?;
            match n.est_rows {
                Some(e) => write!(f, " (est {})", e.round() as u64)?,
                None => write!(f, " (est -)")?,
            }
            write!(f, "  in={}  wall={}", m.rows_in, fmt_ns(m.wall_ns))?;
            if m.vec_chunks > 0 {
                write!(f, "  vec_chunks={}", m.vec_chunks)?;
            }
            if m.row_batches > 0 {
                write!(f, "  row_batches={}", m.row_batches)?;
            }
            if m.zone_skips > 0 {
                write!(f, "  zone_skips={}", m.zone_skips)?;
            }
            if m.build_rows > 0 || m.probe_rows > 0 {
                write!(f, "  build={} probe={}", m.build_rows, m.probe_rows)?;
            }
            if m.groups > 0 {
                write!(f, "  groups={}", m.groups)?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Format nanoseconds human-readably (`412ns`, `3.2µs`, `1.7ms`, `2.1s`).
fn fmt_ns(ns: u64) -> String {
    match ns {
        0..=999 => format!("{ns}ns"),
        1_000..=999_999 => format!("{:.1}µs", ns as f64 / 1e3),
        1_000_000..=999_999_999 => format!("{:.1}ms", ns as f64 / 1e6),
        _ => format!("{:.2}s", ns as f64 / 1e9),
    }
}

/// Compile `plan`, execute it under `mode` with a metrics sink installed,
/// and return the output table plus the annotated tree. `est` feeds both
/// the compile (γ pre-sizing) and the per-node estimated-rows column; pass
/// `None` to explain without a catalog.
///
/// The measured actuals obey the executor's determinism contract: per-node
/// row counts are identical under vectorized and rowwise modes (only wall
/// times differ). See `tests/telemetry.rs`.
pub fn explain_analyze(
    plan: &Plan,
    bindings: &Bindings<'_>,
    est: Option<&dyn CardEstimator>,
    mode: ExecMode,
) -> Result<Explain> {
    let compiled = compile_with(plan, bindings, est)?;
    explain_compiled(&compiled, Some(plan), bindings, est, mode)
}

/// Run `compiled` under `mode` with a metrics sink installed and annotate
/// its tree; `plan`, its logical form, and `est` feed the estimated-rows
/// column when present.
pub(super) fn explain_compiled(
    compiled: &PhysicalPlan,
    plan: Option<&Plan>,
    bindings: &Bindings<'_>,
    est: Option<&dyn CardEstimator>,
    mode: ExecMode,
) -> Result<Explain> {
    let sink = compiled.metrics_sink();
    let table = compiled.run_with_metrics(bindings, mode, &sink)?;
    let mut nodes = Vec::with_capacity(sink.len());
    annotate(&compiled.root, plan, 0, est, bindings, &mut nodes);
    debug_assert_eq!(nodes.len(), sink.len());
    for n in &mut nodes {
        n.metrics = sink.snapshot(n.id);
    }
    Ok(Explain { table, nodes })
}

/// Peel `k` unary wrappers (`Select`/`Project`/`Hash`) off a logical plan
/// — the inverse of the lowering's op fusion. `None` when the plan has a
/// different shape (lock-step walk lost).
fn peel(plan: &Plan, k: usize) -> Option<&Plan> {
    let mut p = plan;
    for _ in 0..k {
        p = match p {
            Plan::Select { input, .. } | Plan::Project { input, .. } | Plan::Hash { input, .. } => {
                input
            }
            _ => return None,
        };
    }
    Some(p)
}

/// Estimated output rows of `plan` under `est`, if both exist.
fn est_rows(
    plan: Option<&Plan>,
    est: Option<&dyn CardEstimator>,
    leaves: &dyn LeafProvider,
) -> Option<f64> {
    let (p, e) = (plan?, est?);
    e.estimate(p, leaves).ok().map(|c| c.rows)
}

/// Single-node label (children rendered as their own lines, not inline).
fn label(node: &Node) -> String {
    match node {
        Node::FusedScan { leaf, ops, .. } => format!("fused-scan({}){}", leaf.name, tags(ops)),
        Node::Fused { ops, .. } => format!("fused{}", tags(ops)),
        Node::Join { right, kind, .. } => format!("join:{kind:?} {}", right.label()),
        Node::Aggregate { group_idx, .. } => format!("γ(group_cols={group_idx:?})"),
        Node::SetOp { kind, .. } => format!("{kind:?}"),
    }
}

/// Pre-order labels of a physical tree — index `i` names the operator
/// whose metrics land in sink slot `i`. Backs
/// [`PhysicalPlan::node_labels`](super::PhysicalPlan::node_labels).
pub(super) fn labels(root: &Node) -> Vec<String> {
    fn walk(node: &Node, out: &mut Vec<String>) {
        out.push(label(node));
        match node {
            Node::FusedScan { .. } => {}
            Node::Fused { input, .. } | Node::Aggregate { input, .. } => walk(input, out),
            Node::Join { left, right, .. } => {
                walk(left, out);
                if let JoinRight::Build(r) = right {
                    walk(r, out);
                }
            }
            Node::SetOp { left, right, .. } => {
                walk(left, out);
                walk(right, out);
            }
        }
    }
    let mut out = Vec::new();
    walk(root, &mut out);
    out
}

/// Pre-order walk emitting one [`ExplainNode`] per physical node, carrying
/// the matching logical plan alongside for estimation (dropped to `None`
/// on any shape mismatch).
fn annotate(
    node: &Node,
    plan: Option<&Plan>,
    depth: usize,
    est: Option<&dyn CardEstimator>,
    bindings: &Bindings<'_>,
    out: &mut Vec<ExplainNode>,
) {
    out.push(ExplainNode {
        id: out.len(),
        depth,
        label: label(node),
        est_rows: est_rows(plan, est, bindings),
        metrics: OpMetrics::default(),
    });
    match node {
        Node::FusedScan { .. } => {}
        Node::Fused { input, ops } => {
            // The child is whatever the fused chain wraps.
            let child = plan.and_then(|p| peel(p, ops.len()));
            annotate(input, child, depth + 1, est, bindings, out);
        }
        Node::Join { left, right, .. } => {
            let (lp, rp) = match plan {
                Some(Plan::Join { left, right, .. }) => (Some(&**left), Some(&**right)),
                _ => (None, None),
            };
            annotate(left, lp, depth + 1, est, bindings, out);
            match right {
                JoinRight::PkProbeLeaf { .. } => {}
                JoinRight::Build(r) => annotate(r, rp, depth + 1, est, bindings, out),
            }
        }
        Node::Aggregate { input, .. } => {
            let child = match plan {
                Some(Plan::Aggregate { input, .. }) => Some(&**input),
                _ => None,
            };
            annotate(input, child, depth + 1, est, bindings, out);
        }
        Node::SetOp { left, right, .. } => {
            let (lp, rp) = match plan {
                Some(Plan::SetOp { left, right, .. }) => (Some(&**left), Some(&**right)),
                _ => (None, None),
            };
            annotate(left, lp, depth + 1, est, bindings, out);
            annotate(right, rp, depth + 1, est, bindings, out);
        }
    }
}
