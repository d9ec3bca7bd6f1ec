#![forbid(unsafe_code)]

//! # svc-stats
//!
//! The estimation-theory toolbox of Section 5 and Appendix 12.1 of the
//! paper:
//!
//! * [`moments`] — streaming mean/variance (Welford);
//! * [`clt`] — Central Limit Theorem confidence intervals for sample-mean
//!   aggregates (`sum`, `count`, `avg`; Section 5.2.1);
//! * [`bootstrap`] — the statistical bootstrap for aggregates that are not
//!   sample means (`median`, percentiles; Section 5.2.5);
//! * [`cantelli`] — Cantelli-inequality tail bounds for `min`/`max`
//!   (Appendix 12.1.1);
//! * [`mod@quantile`] — exact quantiles of small vectors, by selection.

pub mod bootstrap;
pub mod cantelli;
pub mod clt;
pub mod moments;
pub mod quantile;

pub use bootstrap::{bootstrap_ci, bootstrap_distribution};
pub use cantelli::cantelli_exceedance;
pub use clt::{gaussian_gamma, ConfidenceInterval};
pub use moments::Moments;
pub use quantile::{quantile, quantile_in_place};
