#![forbid(unsafe_code)]

//! # svc-catalog
//!
//! Table statistics and cardinality estimation for the Stale View Cleaning
//! reproduction — the subsystem behind the optimizer's cost-based join
//! reordering (`svc_relalg::optimizer::joinorder`).
//!
//! * [`sketch`] — distinct-value estimation with a HyperLogLog-style
//!   register sketch over the same deterministic value hashing the η
//!   operator uses;
//! * [`histogram`] — equi-width histograms with fixed boundaries and
//!   underflow/overflow cells, exactly maintainable under deltas;
//! * [`stats`] — per-column and per-table statistics
//!   ([`TableStats::build`], `apply_inserts` / `apply_deletes`);
//! * [`catalog`] — the [`Catalog`]: build once, maintain incrementally
//!   under every delta commit, rebuild a table only when its deleted
//!   fraction degrades the conservative bounds; [`ScopedStats`] overlays
//!   stats for the `__stale` / `__ins.T` leaves of maintenance plans;
//! * [`estimate`] — the System-R-style cardinality estimator implementing
//!   `svc_relalg::optimizer::cost::CardEstimator`, which is what the
//!   evaluation layers hand to `optimize_with` to activate join
//!   reordering.

pub mod catalog;
pub mod estimate;
pub mod histogram;
pub mod sketch;
pub mod stats;

pub use catalog::{Catalog, ScopedStats};
pub use estimate::{CatalogEstimator, StatsProvider};
pub use histogram::Histogram;
pub use sketch::DistinctSketch;
pub use stats::{ColumnStats, TableStats};
