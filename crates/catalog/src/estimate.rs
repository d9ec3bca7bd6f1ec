//! Cardinality estimation and the cost model over [`Plan`]s.
//!
//! A single bottom-up recursion mirrors schema derivation: each node gets
//! an estimated row count plus per-column summaries (distinct count,
//! min/max, histogram, null fraction) propagated from the leaf statistics
//! of a [`StatsProvider`]. The formulas are the classic System-R family:
//!
//! * σ — per-conjunct selectivities multiplied: histogram fraction for
//!   numeric ranges, `1/ndv` for equalities, null fractions for `IS NULL`,
//!   `1/3` for anything opaque;
//! * ⋈ — `|L|·|R| · ∏ 1/max(ndv_l, ndv_r)` over the equality pairs, with
//!   the usual clamps for outer/semi/anti variants;
//! * γ — output rows = min(input, ∏ group-column ndv);
//! * η — rows scale by the sampling ratio;
//! * leaves without statistics (delta relations a maintenance plan reads,
//!   un-registered tables) fall back to pessimistic defaults instead of
//!   failing, so partially-covered plans remain orderable.
//!
//! Estimates are consumed *ordinally* by the join-reordering rule; absolute
//! accuracy matters less than ranking candidate orders consistently.

use svc_relalg::derive::{
    derive_aggregate, derive_hash, derive_join, derive_project, derive_select, derive_setop,
    Derived, LeafProvider,
};
use svc_relalg::optimizer::cost::{CardEstimator, RelCard};
use svc_relalg::plan::{new_state_base, JoinKind, Plan, SetOpKind};
use svc_relalg::scalar::{BinOp, Expr};
use svc_storage::{Result, StorageError};

use crate::histogram::Histogram;
use crate::stats::TableStats;

/// Resolves leaf relation names to table statistics. `Sync` so the
/// estimator built on top can be consulted from worker threads.
pub trait StatsProvider: Sync {
    /// Statistics of leaf `name`, if collected.
    fn stats(&self, name: &str) -> Option<&TableStats>;

    /// The identity of these statistics, reported by the estimator built on
    /// top ([`CardEstimator::generation`]); `None`, the default, is unknown.
    fn generation(&self) -> Option<u64> {
        None
    }
}

/// Assumed row count of a leaf without statistics.
pub const DEFAULT_ROWS: f64 = 1_000.0;
/// Selectivity of a predicate the estimator cannot decompose.
pub const DEFAULT_SEL: f64 = 1.0 / 3.0;
const MIN_SEL: f64 = 5e-4;

/// Per-column summary carried through the estimation recursion. The
/// histogram stays where the [`StatsProvider`] keeps it.
#[derive(Debug, Clone, Copy)]
struct ColEst<'a> {
    distinct: f64,
    min: Option<f64>,
    max: Option<f64>,
    hist: Option<&'a Histogram>,
    null_frac: f64,
}

impl<'a> ColEst<'a> {
    fn opaque(rows: f64) -> ColEst<'a> {
        ColEst { distinct: rows.max(1.0), min: None, max: None, hist: None, null_frac: 0.0 }
    }

    fn capped(mut self, rows: f64) -> ColEst<'a> {
        self.distinct = self.distinct.min(rows).max(1.0);
        self
    }
}

/// Row count plus column summaries of one plan node.
#[derive(Debug, Clone)]
struct RelEst<'a> {
    rows: f64,
    cols: Vec<ColEst<'a>>,
}

impl<'a> RelEst<'a> {
    fn scaled(mut self, rows: f64) -> RelEst<'a> {
        self.rows = rows;
        self.cols = self.cols.into_iter().map(|c| c.capped(rows)).collect();
        self
    }
}

fn leaf_est<'a>(stats: Option<&'a TableStats>, derived: &Derived) -> RelEst<'a> {
    match stats {
        Some(s) => {
            let rows = (s.rows as f64).max(1.0);
            let cols = s
                .cols
                .iter()
                .map(|c| ColEst {
                    distinct: c.distinct().min(rows),
                    min: c.min,
                    max: c.max,
                    hist: c.histogram.as_ref(),
                    null_frac: (c.nulls as f64 / rows).clamp(0.0, 1.0),
                })
                .collect();
            RelEst { rows, cols }
        }
        None => RelEst {
            rows: DEFAULT_ROWS,
            cols: derived.schema.fields().iter().map(|_| ColEst::opaque(DEFAULT_ROWS)).collect(),
        },
    }
}

/// Estimate one plan bottom-up. Returns the node's derived type alongside
/// so parents can resolve column names without re-deriving subtrees.
fn est_plan<'a>(
    plan: &Plan,
    leaves: &dyn LeafProvider,
    provider: &'a dyn StatsProvider,
) -> Result<(Derived, RelEst<'a>)> {
    Ok(match plan {
        Plan::Scan { table } => {
            let d = leaves.leaf(table).ok_or_else(|| StorageError::UnknownTable(table.clone()))?;
            // A new state `__new.T` is priced as `T`.
            let stats = provider.stats(table);
            let e = leaf_est(stats.or_else(|| provider.stats(new_state_base(table)?)), &d);
            (d, e)
        }
        Plan::Select { input, predicate } => {
            let (d, e) = est_plan(input, leaves, provider)?;
            let out = derive_select(&d, predicate)?;
            let sel = selectivity(predicate, &d, &e.cols);
            let rows = (e.rows * sel).max(MIN_SEL);
            (out, e.scaled(rows))
        }
        Plan::Project { input, columns } => {
            let (d, e) = est_plan(input, leaves, provider)?;
            let out = derive_project(&d, columns)?;
            let cols = columns
                .iter()
                .map(|(_, expr)| {
                    expr.as_col()
                        .and_then(|n| d.schema.resolve(n).ok())
                        .map(|i| e.cols[i])
                        .unwrap_or_else(|| ColEst::opaque(e.rows))
                })
                .collect();
            (out, RelEst { rows: e.rows, cols })
        }
        Plan::Join { left, right, kind, on } => {
            let (ld, le) = est_plan(left, leaves, provider)?;
            let (rd, re) = est_plan(right, leaves, provider)?;
            let (out, on_idx) = derive_join(&ld, &rd, *kind, on, right.name_hint())?;
            let mut inner = le.rows * re.rows;
            for &(li, ri) in &on_idx {
                inner /= le.cols[li].distinct.max(re.cols[ri].distinct).max(1.0);
            }
            let rows = match kind {
                JoinKind::Inner => inner,
                JoinKind::Left => inner.max(le.rows),
                JoinKind::Right => inner.max(re.rows),
                JoinKind::Full => inner.max(le.rows + re.rows),
                JoinKind::Semi => inner.min(le.rows),
                JoinKind::Anti => (le.rows - inner.min(le.rows)).max(1.0),
            }
            .max(1.0);
            let cols: Vec<ColEst> = if matches!(kind, JoinKind::Semi | JoinKind::Anti) {
                le.cols.into_iter().map(|c| c.capped(rows)).collect()
            } else {
                le.cols.into_iter().chain(re.cols).map(|c| c.capped(rows)).collect()
            };
            (out, RelEst { rows, cols })
        }
        Plan::Aggregate { input, group_by, aggregates } => {
            let (d, e) = est_plan(input, leaves, provider)?;
            let out = derive_aggregate(&d, group_by, aggregates)?;
            let mut groups = 1.0f64;
            for g in group_by {
                let i = d.schema.resolve(g)?;
                groups = (groups * e.cols[i].distinct).min(e.rows.max(1.0));
            }
            let rows = groups.max(1.0);
            let mut cols: Vec<ColEst> = group_by
                .iter()
                .map(|g| {
                    let i = d.schema.resolve(g).expect("validated above");
                    e.cols[i].capped(rows)
                })
                .collect();
            cols.extend(aggregates.iter().map(|_| ColEst::opaque(rows)));
            (out, RelEst { rows, cols })
        }
        Plan::SetOp { kind, left, right } => {
            let (ld, le) = est_plan(left, leaves, provider)?;
            let (rd, re) = est_plan(right, leaves, provider)?;
            let out = derive_setop(&ld, &rd, *kind)?;
            let est = match kind {
                SetOpKind::Union => {
                    let rows = (le.rows + re.rows).max(1.0);
                    let cols = le
                        .cols
                        .into_iter()
                        .zip(re.cols)
                        .map(|(a, b)| ColEst {
                            distinct: (a.distinct + b.distinct).min(rows),
                            min: opt_min(a.min, b.min),
                            max: opt_max(a.max, b.max),
                            hist: None,
                            null_frac: (a.null_frac + b.null_frac) / 2.0,
                        })
                        .collect();
                    RelEst { rows, cols }
                }
                SetOpKind::Intersect => {
                    let rows = le.rows.min(re.rows).max(1.0);
                    le.scaled(rows)
                }
                SetOpKind::Difference => {
                    let rows = le.rows.max(1.0);
                    le.scaled(rows)
                }
            };
            (out, est)
        }
        Plan::Hash { input, key, ratio, .. } => {
            let (d, e) = est_plan(input, leaves, provider)?;
            let out = derive_hash(&d, key, *ratio)?;
            let rows = (e.rows * ratio).max(MIN_SEL);
            (out, e.scaled(rows))
        }
    })
}

fn opt_min(a: Option<f64>, b: Option<f64>) -> Option<f64> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, y) => x.or(y),
    }
}

fn opt_max(a: Option<f64>, b: Option<f64>) -> Option<f64> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.max(y)),
        (x, y) => x.or(y),
    }
}

/// Selectivity of a predicate against column summaries.
fn selectivity(pred: &Expr, d: &Derived, cols: &[ColEst<'_>]) -> f64 {
    sel_expr(pred, d, cols).clamp(MIN_SEL, 1.0)
}

fn col_of<'a, 'h>(e: &Expr, d: &Derived, cols: &'a [ColEst<'h>]) -> Option<&'a ColEst<'h>> {
    e.as_col().and_then(|n| d.schema.resolve(n).ok()).map(|i| &cols[i])
}

fn lit_of(e: &Expr) -> Option<&svc_storage::Value> {
    match e {
        Expr::Lit(v) => Some(v),
        _ => None,
    }
}

fn flip(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

fn sel_expr(e: &Expr, d: &Derived, cols: &[ColEst<'_>]) -> f64 {
    match e {
        Expr::Binary { op: BinOp::And, left, right } => {
            sel_expr(left, d, cols) * sel_expr(right, d, cols)
        }
        Expr::Binary { op: BinOp::Or, left, right } => {
            let (a, b) = (sel_expr(left, d, cols), sel_expr(right, d, cols));
            (a + b - a * b).clamp(0.0, 1.0)
        }
        Expr::Not(x) => (1.0 - sel_expr(x, d, cols)).clamp(0.0, 1.0),
        Expr::IsNull(x) => col_of(x, d, cols).map_or(DEFAULT_SEL, |c| c.null_frac),
        Expr::Binary { op, left, right } => {
            // Normalize to col-op-lit; col-op-col within one relation gets
            // the equality ndv formula.
            if let (Some(c), Some(v)) = (col_of(left, d, cols), lit_of(right)) {
                sel_cmp(*op, c, v)
            } else if let (Some(v), Some(c)) = (lit_of(left), col_of(right, d, cols)) {
                sel_cmp(flip(*op), c, v)
            } else if let (Some(a), Some(b)) = (col_of(left, d, cols), col_of(right, d, cols)) {
                match op {
                    BinOp::Eq => 1.0 / a.distinct.max(b.distinct).max(1.0),
                    BinOp::Ne => 1.0 - 1.0 / a.distinct.max(b.distinct).max(1.0),
                    _ => DEFAULT_SEL,
                }
            } else {
                DEFAULT_SEL
            }
        }
        Expr::Lit(v) => {
            if v.as_bool() == Some(true) {
                1.0
            } else {
                0.0
            }
        }
        _ => DEFAULT_SEL,
    }
}

fn sel_cmp(op: BinOp, c: &ColEst<'_>, v: &svc_storage::Value) -> f64 {
    let not_null = 1.0 - c.null_frac;
    match op {
        BinOp::Eq => not_null / c.distinct.max(1.0),
        BinOp::Ne => not_null * (1.0 - 1.0 / c.distinct.max(1.0)),
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            let Some(x) = v.as_f64() else { return DEFAULT_SEL };
            let frac_le = if let Some(h) = c.hist {
                h.fraction_le(x)
            } else if let (Some(lo), Some(hi)) = (c.min, c.max) {
                if hi > lo {
                    ((x - lo) / (hi - lo)).clamp(0.0, 1.0)
                } else if x >= lo {
                    1.0
                } else {
                    0.0
                }
            } else {
                return DEFAULT_SEL;
            };
            let s = match op {
                BinOp::Lt | BinOp::Le => frac_le,
                _ => 1.0 - frac_le,
            };
            (s * not_null).clamp(0.0, 1.0)
        }
        _ => DEFAULT_SEL,
    }
}

impl TableStats {
    /// Estimated number of rows a filter keeps on this table.
    pub fn estimate_filter_rows(&self, pred: &Expr) -> f64 {
        let d = Derived { schema: self.schema.clone(), key: vec![] };
        let rows = (self.rows as f64).max(0.0);
        let cols = leaf_est(Some(self), &d).cols;
        rows * selectivity(pred, &d, &cols)
    }

    /// True iff the statistics *prove* the filter selects nothing: some
    /// top-level conjunct compares a numeric column against a literal
    /// entirely outside its [min, max] envelope. Sound under deletions —
    /// the stored bounds only ever widen relative to the live data.
    pub fn prove_empty_filter(&self, pred: &Expr) -> bool {
        match pred {
            Expr::Binary { op: BinOp::And, left, right } => {
                self.prove_empty_filter(left) || self.prove_empty_filter(right)
            }
            Expr::Binary { op, left, right } => {
                let resolve = |e: &Expr| {
                    e.as_col()
                        .and_then(|n| self.schema.resolve(n).ok())
                        .and_then(|i| self.cols.get(i))
                };
                let (c, v, op) =
                    if let (Some(c), Some(Expr::Lit(v))) = (resolve(left), Some(&**right)) {
                        (c, v, *op)
                    } else if let (Some(Expr::Lit(v)), Some(c)) = (Some(&**left), resolve(right)) {
                        (c, v, flip(*op))
                    } else {
                        return false;
                    };
                let (Some(x), Some(lo), Some(hi)) = (v.as_f64(), c.min, c.max) else {
                    return false;
                };
                match op {
                    BinOp::Lt => x <= lo,
                    BinOp::Le => x < lo,
                    BinOp::Gt => x >= hi,
                    BinOp::Ge => x > hi,
                    BinOp::Eq => x < lo || x > hi,
                    _ => false,
                }
            }
            _ => false,
        }
    }
}

/// A [`CardEstimator`] over any [`StatsProvider`] — the object handed to
/// `svc_relalg::optimizer::optimize_with`.
pub struct CatalogEstimator<'a> {
    provider: &'a dyn StatsProvider,
}

impl<'a> CatalogEstimator<'a> {
    /// Estimator reading from `provider`.
    pub fn new(provider: &'a dyn StatsProvider) -> CatalogEstimator<'a> {
        CatalogEstimator { provider }
    }
}

impl CardEstimator for CatalogEstimator<'_> {
    fn estimate(&self, plan: &Plan, leaves: &dyn LeafProvider) -> Result<RelCard> {
        let (_, e) = est_plan(plan, leaves, self.provider)?;
        Ok(RelCard { rows: e.rows, distinct: e.cols.iter().map(|c| c.distinct).collect() })
    }

    fn generation(&self) -> Option<u64> {
        self.provider.generation()
    }
}
