#![forbid(unsafe_code)]

//! # svc-core — Stale View Cleaning
//!
//! The primary contribution of *"Stale View Cleaning: Getting Fresh Answers
//! from Stale Materialized Views"* (Krishnan, Wang, Franklin, Goldberg,
//! Kraska — VLDB 2015), reproduced end to end:
//!
//! 1. **Stale sample view cleaning** (Problem 1): [`SvcView::clean_sample`]
//!    wraps the view's maintenance plan in the hashing operator η, pushes it
//!    down with the Definition 3 rules, and evaluates the optimized
//!    expression — materializing a uniform, *corresponding* sample of the
//!    up-to-date view for a fraction of full maintenance cost.
//! 2. **Query result estimation** (Problem 2): [`estimate::svc_aqp`]
//!    (direct estimate) and [`estimate::svc_corr`] (correction of the stale
//!    answer) — one key-joined walk of the corresponding samples, finished
//!    with CLT confidence intervals for `sum`/`count`/`avg`, draw-free
//!    intervals for `median`/percentiles (binomial order statistics,
//!    Woodruff's inversion; no bootstrap resamples), and Cantelli bounds
//!    for `min`/`max` (Section 5, Appendix 12.1.1).
//! 3. **Outlier indexing** (Section 6): [`outlier::OutlierIndex`] of the
//!    top-k records by a base relation attribute, pushed up through the
//!    view per Definition 5 and merged into estimates with the
//!    `(N−l)/N · c_reg + l/N · c_out` rule.
//! 4. **Select-query cleaning** (Appendix 12.1.2): [`select_clean`].
//!
//! ## Quickstart
//!
//! ```
//! use svc_core::{AggQuery, SvcConfig, SvcView};
//! use svc_relalg::aggregate::AggSpec;
//! use svc_relalg::plan::{JoinKind, Plan};
//! use svc_relalg::scalar::{col, lit};
//! use svc_storage::{Database, Deltas, DataType, Schema, Table, Value};
//!
//! // Base tables: Log(sessionId, videoId), Video(videoId, ownerId).
//! let mut db = Database::new();
//! let mut video = Table::new(
//!     Schema::from_pairs(&[("videoId", DataType::Int), ("ownerId", DataType::Int)]).unwrap(),
//!     &["videoId"]).unwrap();
//! let mut log = Table::new(
//!     Schema::from_pairs(&[("sessionId", DataType::Int), ("videoId", DataType::Int)]).unwrap(),
//!     &["sessionId"]).unwrap();
//! for v in 0..100i64 { video.insert(vec![v.into(), (v % 7).into()]).unwrap(); }
//! for s in 0..2000i64 { log.insert(vec![s.into(), (s % 100).into()]).unwrap(); }
//! db.create_table("video", video);
//! db.create_table("log", log);
//!
//! // visitView: visits per video.
//! let def = Plan::scan("log")
//!     .join(Plan::scan("video"), JoinKind::Inner, &[("videoId", "videoId")])
//!     .aggregate(&["videoId"], vec![AggSpec::count_all("visitCount")]);
//! let mut svc = SvcView::create("visitView", def, &db, SvcConfig::with_ratio(0.25)).unwrap();
//!
//! // New log records arrive; the view is now stale.
//! let mut deltas = Deltas::new();
//! for s in 2000..2600i64 {
//!     deltas.insert(&db, "log", vec![s.into(), (s % 25).into()]).unwrap();
//! }
//!
//! // Clean a sample and answer a query with a corrected estimate.
//! let q = AggQuery::sum(col("visitCount")).filter(col("videoId").lt(lit(25i64)));
//! let stale = svc.query_stale(&q).unwrap();
//! let est = svc.answer(&db, &deltas, &q, svc_core::Method::Correction).unwrap();
//! let truth = svc.query_fresh_oracle(&db, &deltas, &q).unwrap();
//! assert!((est.value - truth).abs() < (stale - truth).abs());
//! ```

pub mod config;
pub mod estimate;
pub mod outlier;
pub mod query;
pub mod select_clean;
pub mod svc;

pub use config::SvcConfig;
pub use estimate::{Estimate, Method};
pub use query::{AggQuery, QueryAgg};
pub use svc::{maintenance_stats, SvcMetrics, SvcView};
