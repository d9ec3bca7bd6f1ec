//! Reusable `Vec<Row>` batch buffers for the streaming executor.
//!
//! Every pipeline breaker materializes a plain `Vec<Row>`; allocating a
//! fresh one per breaker per [`super::PhysicalPlan::run`] call adds up on
//! the mini-batch maintenance path, where one compiled plan runs hundreds
//! of times. This pool keeps a small per-thread stack of emptied batch
//! buffers: breakers [`take`] a buffer (reusing its capacity) and
//! [`recycle`] consumed inputs, so steady-state runs allocate only the one
//! buffer the output [`svc_storage::Table`] keeps.
//!
//! The pool is thread-local on purpose: worker-pool threads running whole
//! plans and the driver each recycle into their own stack with no
//! synchronization, and the [`fresh_batch_count`] counter reads cleanly
//! from tests (a run executes on the calling thread, so a reading cannot
//! be polluted by concurrently running tests — the same design as
//! [`svc_storage::Table::clone_count`]).

use std::cell::{Cell, RefCell};

use svc_storage::Row;
use svc_telemetry::LocalCounter;

/// Buffers retained per thread. Beyond this the extra buffers are dropped:
/// a deep plan briefly needs many live batches, but steady state needs few,
/// and each retained buffer pins its full capacity.
const POOL_CAP: usize = 8;

thread_local! {
    static POOL: RefCell<Vec<Vec<Row>>> = const { RefCell::new(Vec::new()) };
    static FRESH_CELL: Cell<u64> = const { Cell::new(0) };
}

/// Fresh-allocation counter behind [`fresh_batch_count`], on the shared
/// telemetry counter mechanism.
static FRESH: LocalCounter = LocalCounter::new(&FRESH_CELL);

/// Take a batch buffer with at least `cap` capacity: recycled when the
/// thread's pool has one, freshly allocated (and counted) otherwise.
pub(super) fn take(cap: usize) -> Vec<Row> {
    POOL.with(|p| match p.borrow_mut().pop() {
        Some(mut v) => {
            debug_assert!(v.is_empty());
            v.reserve(cap);
            v
        }
        None => {
            FRESH.bump();
            Vec::with_capacity(cap)
        }
    })
}

/// Return a consumed batch buffer to the thread's pool (cleared, capacity
/// kept). Buffers beyond [`POOL_CAP`] are simply dropped.
pub(super) fn recycle(mut v: Vec<Row>) {
    v.clear();
    POOL.with(|p| {
        let mut pool = p.borrow_mut();
        if pool.len() < POOL_CAP {
            pool.push(v);
        }
    });
}

/// Number of *fresh* batch-buffer allocations performed on this thread
/// since it started — the observability hook behind the buffer-reuse
/// guarantee: after a warm-up run, re-running a compiled plan allocates at
/// most one fresh batch (the root buffer the output table keeps; every
/// intermediate batch is served from the pool). Take a reading, run a
/// plan, compare. Thin shim over the shared telemetry counter mechanism
/// ([`svc_telemetry::LocalCounter`]).
pub fn fresh_batch_count() -> usize {
    FRESH.get() as usize
}
