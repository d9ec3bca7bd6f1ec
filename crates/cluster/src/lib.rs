// The one crate in the workspace allowed to contain `unsafe`: the
// work-stealing executor's type-erased `RawTask` needs it. `deny` (not
// `forbid`) so the audited block in `executor.rs` can opt back in with an
// item-level `#[allow(unsafe_code)]`; every unsafe operation there must sit
// inside an explicit `unsafe {}` with a SAFETY comment
// (`unsafe_op_in_unsafe_fn`). `scripts/unsafe_audit.sh` enforces that no
// other module grows an `unsafe` token.
#![deny(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

//! # svc-cluster
//!
//! The distributed-execution substrate for the paper's Spark experiments
//! (Sections 7.5–7.6.2, Figures 14–16). Spark itself is not available here,
//! so this crate reproduces the three mechanisms those experiments depend
//! on:
//!
//! 1. **batch amortization** — per-batch driver work (partitioning,
//!    dispatch, the fold's per-group lookups) makes small batches slow
//!    (Figure 14a). [`minibatch::BatchPipeline`] measures this on *real*
//!    maintenance plans: one compiled change plan (`svc-ivm`) runs once per
//!    delta chunk on the pool, and the change tables fold into the view;
//! 2. **contention** — two concurrent maintenance pipelines share the
//!    worker pool and reduce each other's throughput, less so at large
//!    batch sizes (Figure 14b);
//! 3. **synchronization idle time** — a lone maintenance driver leaves
//!    workers idle between its plan batches, which SVC's small cleaning
//!    tasks can absorb (Figure 16, read off [`PoolMetrics::busy_ns`]).
//!
//! [`timeline`] drives the *real* SVC machinery — IVM refreshes routed
//! through the plan-driven [`minibatch::BatchPipeline`] — over a periodic
//! maintenance schedule to reproduce the max-error-vs-sampling-ratio
//! trade-off of Figure 15.

pub mod executor;
pub mod minibatch;
pub mod timeline;

pub use executor::{PoolMetrics, WorkerPool};
pub use minibatch::{BatchPipeline, BatchRun, PipelineMetrics};
pub use timeline::{timeline_max_error, TimelineConfig, TimelineResult};
