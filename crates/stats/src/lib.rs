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
//!   sample means (`median`, percentiles; Section 5.2.5), kept as the
//!   reference the draw-free quantile intervals are tested against;
//! * [`cantelli`] — Cantelli-inequality tail bounds for `min`/`max`
//!   (Appendix 12.1.1);
//! * [`mod@quantile`] — exact quantiles of small vectors, by selection or
//!   through an inverse CDF, and the quantile intervals that need no
//!   resample (distribution-free binomial ranks, Woodruff's inversion).

pub mod bootstrap;
pub mod cantelli;
pub mod clt;
pub mod moments;
pub mod quantile;

pub use bootstrap::{
    bootstrap_quantile_ci, bootstrap_quantile_distribution, bootstrap_quantile_paired_diff,
    PairedDiff,
};
pub use cantelli::cantelli_exceedance;
pub use clt::{gaussian_gamma, ConfidenceInterval};
pub use moments::Moments;
pub use quantile::{quantile, quantile_in_place};
