#![forbid(unsafe_code)]

//! # svc-telemetry
//!
//! The observability substrate of the SVC stack: every layer above
//! `svc-storage` reports through the primitives in this crate instead of
//! growing its own ad-hoc counters.
//!
//! * [`Counter`] / [`Gauge`] — shared atomic counters and level gauges for
//!   subsystem metrics (worker-pool queue depth, plan-cache hits,
//!   per-view rows cleaned).
//! * [`LocalCounter`] — a thread-local counter for hooks that tests read
//!   synchronously on the executing thread (`Table::clone_count`,
//!   `fresh_batch_count`): concurrently-running tests cannot pollute a
//!   reading.
//! * [`MetricsSink`] / [`OpMetrics`] — per-operator execution metrics for
//!   the streaming executor. One slot per physical plan node; each node
//!   accumulates locally and adds to its slot's atomics once, when it
//!   finishes, so collection adds no per-row work.
//! * [`TraceRecorder`] — a bounded span ring buffer exporting chrome-trace
//!   JSON (`chrome://tracing`, Perfetto).
//!
//! **Gating contract.** Collection is strictly opt-in: an executor run
//! without a sink installed must allocate *zero* metric state. The
//! [`metric_allocs`] counter audits that contract the same way
//! `Table::clone_count` audits the zero-scan-clone guarantee — every
//! metric-state allocation in this crate ([`MetricsSink::with_slots`],
//! [`TraceRecorder::new`]) bumps it, and a smoke test pins uninstrumented
//! runs to a zero delta.

mod counter;
mod metrics;
mod trace;

pub use counter::{metric_allocs, note_metric_alloc, Counter, Gauge, LocalCounter};
pub use metrics::{MetricsSink, OpMetrics, OpSlot};
pub use trace::{TraceEvent, TraceRecorder, TraceSpan};
