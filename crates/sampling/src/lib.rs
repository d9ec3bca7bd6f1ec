#![forbid(unsafe_code)]

//! # svc-sampling
//!
//! The sampling machinery of Section 4 of the paper:
//!
//! * [`operator`] — apply the η hashing operator directly to tables;
//! * [`pushdown`] — the Definition 3 rewrite that pushes `η` down a plan
//!   tree (with the foreign-key and equality-join special cases and the
//!   blockers of Section 7.3 / Appendix 12.4), so that a sample of a derived
//!   relation is materialized *without* materializing the full relation;
//! * [`correspondence`] — checks of Property 1 ("corresponding samples"),
//!   the statistical contract between the stale sample `Ŝ` and the cleaned
//!   sample `Ŝ′` that SVC+CORR relies on.

pub mod correspondence;
pub mod operator;
pub mod pushdown;

pub use correspondence::check_correspondence;
pub use operator::{sample_by_key, KeySample};
pub use pushdown::{push_down, PushdownReport};
