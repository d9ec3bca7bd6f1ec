#![forbid(unsafe_code)]

//! # svc-stats
//!
//! The estimation-theory toolbox of Section 5 and Appendix 12.1 of the
//! paper:
//!
//! * [`moments`] — streaming mean/variance (Welford);
//! * [`clt`] — Central Limit Theorem confidence intervals for sample-mean
//!   aggregates (`sum`, `count`, `avg`; Section 5.2.1);
//! * [`cantelli`] — Cantelli-inequality tail bounds for `min`/`max`
//!   (Appendix 12.1.1);
//! * [`mod@quantile`] — exact quantiles of small vectors, by selection or
//!   through an inverse CDF, and the quantile intervals that need no
//!   resample (distribution-free binomial ranks, Woodruff's inversion) —
//!   the paper's bootstrap (Section 5.2.5) for `median` and percentiles,
//!   without the draws.

pub mod cantelli;
pub mod clt;
pub mod moments;
pub mod quantile;

pub use cantelli::cantelli_exceedance;
pub use clt::{gaussian_gamma, ConfidenceInterval};
pub use moments::Moments;
pub use quantile::{quantile, quantile_in_place};
