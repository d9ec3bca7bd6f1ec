//! The cardinality-estimation interface of cost-based join reordering.
//!
//! The optimizer itself owns only the *interface*: a [`CardEstimator`] maps
//! a plan to an estimated output row count. The statistics that back the
//! estimate — per-table row counts, distinct-value sketches, histograms —
//! live in the `svc-catalog` crate, which implements this trait on top of
//! its catalog. Keeping the trait here (and the stats there) breaks the
//! dependency cycle: `svc-catalog` depends on `svc-relalg` for [`Plan`],
//! while the [join reordering](crate::optimizer::joinorder) pass depends
//! only on this trait.
//!
//! Estimates are *ordinal* information: the reordering pass only compares
//! candidate join trees against each other, so a consistently-biased
//! estimator still picks good orders. Estimators must be deterministic —
//! plan caches and the idempotence of [`crate::optimizer::optimize_with`]
//! rely on the same plan being priced the same way every time.

use svc_storage::Result;

use crate::derive::LeafProvider;
use crate::plan::Plan;

/// Estimated cardinality of one relation: row count plus per-output-column
/// distinct counts. The distincts are what lets the join-reordering DP
/// price a candidate join *arithmetically* — `|L|·|R| · ∏ 1/max(ndv_l,
/// ndv_r)` — instead of re-walking candidate plans through the estimator
/// (which made ordering a region cost more than evaluating it at small
/// scales).
#[derive(Debug, Clone)]
pub struct RelCard {
    /// Estimated output rows (≥ 1 for sane cost arithmetic).
    pub rows: f64,
    /// Estimated distinct values per output column, positionally aligned
    /// with the plan's derived schema.
    pub distinct: Vec<f64>,
}

/// Estimates the output cardinality of a plan. `Sync` because batch
/// executors optimize (and therefore estimate) plans from worker threads.
pub trait CardEstimator: Sync {
    /// Estimated rows and per-column distincts of `plan`. Implementations
    /// should return a pessimistic default (rather than an error) for
    /// leaves they have no statistics for, so that partially-covered plans
    /// — e.g. maintenance plans over `__ins.T` delta leaves — are still
    /// orderable.
    fn estimate(&self, plan: &Plan, leaves: &dyn LeafProvider) -> Result<RelCard>;

    /// Just the row count.
    fn estimate_rows(&self, plan: &Plan, leaves: &dyn LeafProvider) -> Result<f64> {
        Ok(self.estimate(plan, leaves)?.rows)
    }

    /// Identity of the statistics this estimator prices base tables with,
    /// for plan caches: two estimators reporting the same generation order
    /// every join of the same plan alike, up to the sizes of leaves bound
    /// per call (delta relations). `None`, the default, means unknown: a
    /// plan optimized under it is never cached.
    fn generation(&self) -> Option<u64> {
        None
    }
}

impl<T: CardEstimator + ?Sized> CardEstimator for &T {
    fn estimate(&self, plan: &Plan, leaves: &dyn LeafProvider) -> Result<RelCard> {
        (**self).estimate(plan, leaves)
    }

    fn generation(&self) -> Option<u64> {
        (**self).generation()
    }
}
