#![forbid(unsafe_code)]

//! # svc-workloads
//!
//! Data and query generators reproducing the paper's evaluation workloads
//! (Section 7) at laptop scale:
//!
//! * [`zipf`] — Zipfian sampling (the TPCD-Skew `z` parameter \[8,37\]);
//! * [`tpcd`] — a TPCD-Skew-shaped database (region/nation/customer/
//!   orders/lineitem/part/supplier) plus the update workload (insertions
//!   and updates to `lineitem`/`orders`, Section 7.1);
//! * [`tpcd_views`] — the join view with 12 query analogs (Figure 5) and
//!   the 10 "complex views" V3..V22 including the push-down blockers
//!   V21/V22 (Figure 7);
//! * [`cube`] — the data-cube aggregate view with its 13 roll-up queries
//!   (Section 7.6.1 / Appendix 12.6.3, Figures 10–13);
//! * [`conviva`] — a synthetic activity-log and the 8 summary views of
//!   Appendix 12.6.2 (Figure 9);
//! * [`video`] — the Log/Video running example of Section 2.1;
//! * [`querygen`] — random aggregate queries over a view (the "100 random
//!   sum/avg/count queries per view" protocol of Section 7.1).

pub mod conviva;
pub mod cube;
pub mod querygen;
pub mod tpcd;
pub mod tpcd_views;
pub mod video;
pub mod zipf;

pub use tpcd::{TpcdConfig, TpcdData};
pub use zipf::Zipf;
