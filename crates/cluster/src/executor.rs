//! A worker pool with a **shared work queue** and per-worker busy-time
//! accounting ([`PoolMetrics::busy_ns`] — the gauge Figure 16 reads).
//!
//! The pool owns `workers` persistent threads that pull tasks off one
//! shared queue. Every entry point ([`WorkerPool::submit`],
//! [`WorkerPool::run_batch`], and the [`MorselScheduler`] impl behind
//! `ExecMode::morsel`) enqueues into that same queue, so tasks
//! from *concurrent* callers — two `BatchPipeline`s maintaining different
//! views, a plan batch and a morsel-parallel merge — interleave across one
//! set of workers instead of each call spinning up its own thread scope.
//! Task panics are caught on the worker, reported as an error to the
//! submitting session only, and never corrupt or stall other sessions
//! sharing the pool.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use svc_relalg::exec::MorselScheduler;
use svc_storage::{Result, StorageError};
use svc_telemetry::{Counter, Gauge};

/// One unit of queued work: an index into its session's task range.
struct QueuedTask {
    session: Arc<Session>,
    index: usize,
}

/// The type-erased task body of one submission. Holds a raw pointer to the
/// caller's closure: [`WorkerPool::submit`] does not return until every
/// task of the session has finished executing, so the pointee strictly
/// outlives every dereference (the same contract `std::thread::scope`
/// enforces for borrowed spawns).
struct RawTask(*const (dyn Fn(usize, usize) + Sync));

// SAFETY: the pointee is `Sync` (shared calls from any thread are fine) and
// the pointer is only dereferenced while the submitting thread is parked in
// `submit`, keeping the closure alive. These impls, together with the
// erasing transmute in `submit` and the dereference in `worker_loop`, form
// the one audited unsafe block of the workspace (crate root carries
// `deny(unsafe_code)`; every other crate is `forbid(unsafe_code)`).
#[allow(unsafe_code)]
unsafe impl Send for RawTask {}
#[allow(unsafe_code)]
unsafe impl Sync for RawTask {}

impl std::fmt::Debug for RawTask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RawTask")
    }
}

/// One `submit` call's bookkeeping: the erased task body, the number of
/// tasks still outstanding, and whether any of them panicked.
#[derive(Debug)]
struct Session {
    run: RawTask,
    progress: Mutex<Progress>,
    done: Condvar,
}

#[derive(Debug)]
struct Progress {
    remaining: usize,
    /// The first panicking task's payload text, if any task panicked.
    panic_msg: Option<String>,
}

impl Session {
    /// Record one finished task; wakes the submitter when the session
    /// completes.
    fn complete(&self, panic_msg: Option<String>) {
        let mut p = self.progress.lock().expect("session progress poisoned");
        p.remaining -= 1;
        if p.panic_msg.is_none() {
            p.panic_msg = panic_msg;
        }
        if p.remaining == 0 {
            self.done.notify_all();
        }
    }
}

/// Human-readable text of a caught panic payload.
pub(crate) fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Live subsystem counters of one pool, on the shared telemetry
/// primitives: updated lock-free by workers and submitters, snapshotted
/// any time via [`WorkerPool::metrics`].
#[derive(Debug)]
struct PoolCounters {
    /// Tasks currently sitting in the shared queue (enqueued, not yet
    /// claimed by a worker).
    queue_depth: Gauge,
    /// Tasks executed to completion (including inline nested ones).
    tasks: Counter,
    /// `submit` sessions opened.
    sessions: Counter,
    /// Tasks that panicked (their sessions surfaced an error).
    panics: Counter,
    /// Per-worker cumulative busy time, in nanoseconds.
    busy_ns: Vec<Counter>,
}

/// A point-in-time snapshot of a pool's subsystem metrics.
#[derive(Debug, Clone)]
pub struct PoolMetrics {
    /// Tasks queued but not yet claimed at snapshot time.
    pub queue_depth: i64,
    /// Tasks executed to completion since pool creation.
    pub tasks: u64,
    /// `submit` sessions opened since pool creation.
    pub sessions: u64,
    /// Panicked tasks since pool creation.
    pub panics: u64,
    /// Cumulative busy nanoseconds, per worker.
    pub busy_ns: Vec<u64>,
}

impl PoolMetrics {
    /// Total busy time across all workers, in nanoseconds.
    pub fn total_busy_ns(&self) -> u64 {
        self.busy_ns.iter().sum()
    }
}

/// State shared between the pool handle and its worker threads.
#[derive(Debug)]
struct PoolShared {
    state: Mutex<PoolQueue>,
    work: Condvar,
    counters: PoolCounters,
}

#[derive(Debug)]
struct PoolQueue {
    queue: VecDeque<QueuedTask>,
    shutdown: bool,
}

impl std::fmt::Debug for QueuedTask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "QueuedTask({})", self.index)
    }
}

thread_local! {
    /// `(pool id, worker index)` of the pool worker running on this thread,
    /// if any. Lets `submit` detect nested submission from one of its own
    /// workers and run inline instead of queueing (queueing could deadlock
    /// if every worker were parked waiting on a nested session).
    static CURRENT_WORKER: std::cell::Cell<Option<(usize, usize)>> =
        const { std::cell::Cell::new(None) };
}

static NEXT_POOL_ID: AtomicUsize = AtomicUsize::new(0);

/// A fixed-size worker pool: `workers` persistent threads pulling from one
/// shared task queue. [`WorkerPool::run_batch`] is built on top of the
/// queue, as is the `MorselScheduler` impl that lets compiled plans run
/// morsel-parallel on the pool.
#[derive(Debug)]
pub struct WorkerPool {
    workers: usize,
    id: usize,
    shared: Arc<PoolShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // `&mut self` proves no `submit` is in flight, so the queue is
        // empty: every queued task belongs to a session some caller is
        // still waiting on.
        self.shared.state.lock().expect("pool queue poisoned").shutdown = true;
        self.shared.work.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl WorkerPool {
    /// Create a pool with `workers` persistent worker threads.
    pub fn new(workers: usize) -> WorkerPool {
        assert!(workers > 0);
        let id = NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolQueue { queue: VecDeque::new(), shutdown: false }),
            work: Condvar::new(),
            counters: PoolCounters {
                queue_depth: Gauge::new(),
                tasks: Counter::new(),
                sessions: Counter::new(),
                panics: Counter::new(),
                busy_ns: (0..workers).map(|_| Counter::new()).collect(),
            },
        });
        let handles = (0..workers)
            .map(|w| {
                let shared = shared.clone();
                std::thread::spawn(move || worker_loop(&shared, id, w))
            })
            .collect();
        WorkerPool { workers, id, shared, handles }
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Snapshot the pool's subsystem metrics: current queue depth,
    /// cumulative task/session/panic counts, and per-worker busy time.
    /// Lock-free reads of the live counters — safe to call from any thread
    /// at any time, including while sessions are in flight.
    pub fn metrics(&self) -> PoolMetrics {
        let c = &self.shared.counters;
        PoolMetrics {
            queue_depth: c.queue_depth.get(),
            tasks: c.tasks.get(),
            sessions: c.sessions.get(),
            panics: c.panics.get(),
            busy_ns: c.busy_ns.iter().map(Counter::get).collect(),
        }
    }

    /// Run tasks `0..n` on the shared queue and wait for all of them. Each
    /// task receives `(task index, worker index)`. Tasks from concurrent
    /// `submit` calls interleave on the same workers — this is the single
    /// scheduling primitive every other entry point builds on. A panicking
    /// task is caught on its worker (the worker survives, other sessions
    /// are unaffected) and reported here as an error once the session
    /// drains.
    #[allow(unsafe_code)] // audited RawTask lifetime erasure, see SAFETY below
    pub fn submit(&self, n: usize, run: &(dyn Fn(usize, usize) + Sync)) -> Result<()> {
        if n == 0 {
            return Ok(());
        }
        self.shared.counters.sessions.inc();
        // Nested submission from one of this pool's own workers runs
        // inline: parking a worker to wait on tasks that need a worker is
        // a deadlock when the pool is saturated.
        if let Some((pool, w)) = CURRENT_WORKER.with(std::cell::Cell::get) {
            if pool == self.id {
                let mut panic_msg: Option<String> = None;
                for i in 0..n {
                    // Failpoint site (inline nested dispatch): inside the
                    // `catch_unwind`, so injected failures abort the
                    // session, never the worker.
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        svc_fault::fail_point_panic!(svc_fault::site::POOL_DISPATCH);
                        run(i, w);
                    }));
                    self.shared.counters.tasks.inc();
                    if let Err(payload) = outcome {
                        self.shared.counters.panics.inc();
                        if panic_msg.is_none() {
                            panic_msg = Some(panic_text(payload.as_ref()));
                        }
                    }
                }
                return session_outcome(panic_msg);
            }
        }
        // SAFETY: erase the borrow to queue it on 'static worker threads.
        // The wait loop below does not return until `remaining == 0`, i.e.
        // until every dereference of the pointer has completed.
        let run_static: &'static (dyn Fn(usize, usize) + Sync) =
            unsafe { std::mem::transmute(run) };
        let session = Arc::new(Session {
            run: RawTask(run_static as *const _),
            progress: Mutex::new(Progress { remaining: n, panic_msg: None }),
            done: Condvar::new(),
        });
        {
            let mut st = self.shared.state.lock().expect("pool queue poisoned");
            for index in 0..n {
                st.queue.push_back(QueuedTask { session: session.clone(), index });
            }
        }
        self.shared.counters.queue_depth.add(n as i64);
        self.shared.work.notify_all();
        let mut p = session.progress.lock().expect("session progress poisoned");
        while p.remaining > 0 {
            p = session.done.wait(p).expect("session progress poisoned");
        }
        session_outcome(p.panic_msg.take())
    }

    /// Run `n` numbered tasks off the shared queue and collect their
    /// results in index order. Once any task errors, later tasks of this
    /// batch are skipped as they come up (in-flight evaluations finish) and
    /// the first error in index order is returned — tasks that did run
    /// never masquerade as "not evaluated". A panicking task fails only
    /// this batch; concurrent batches on the same pool are unaffected.
    pub fn run_batch<T, F>(&self, n: usize, eval: F) -> Result<Vec<T>>
    where
        T: Send,
        F: Fn(usize) -> Result<T> + Sync,
    {
        let slots: Vec<Mutex<Option<Result<T>>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let failed = AtomicBool::new(false);
        self.submit(n, &|i, _w| {
            if failed.load(Ordering::Relaxed) {
                return;
            }
            let out = eval(i);
            if out.is_err() {
                failed.store(true, Ordering::Relaxed);
            }
            *slots[i].lock().unwrap() = Some(out);
        })?;
        if failed.load(Ordering::Relaxed) {
            for slot in &slots {
                if let Some(Err(e)) = &*slot.lock().unwrap() {
                    return Err(e.clone());
                }
            }
        }
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result lock poisoned")
                    .unwrap_or_else(|| Err(StorageError::Invalid("plan was not evaluated".into())))
            })
            .collect()
    }
}

/// Morsel tasks from a plan run under `ExecMode::morsel` land on the same
/// shared queue as whole-plan tasks, so intra-plan morsels and inter-plan
/// batches from concurrent callers interleave across one set of workers.
impl MorselScheduler for WorkerPool {
    fn run_tasks(&self, n: usize, task: &(dyn Fn(usize) + Sync)) -> Result<()> {
        self.submit(n, &|i, _w| task(i))
    }
}

/// Map a session's panic record to the submit result, carrying the first
/// panic's payload text so callers (and chaos harnesses) can tell injected
/// failures from real ones.
fn session_outcome(panic_msg: Option<String>) -> Result<()> {
    match panic_msg {
        Some(msg) => Err(StorageError::Invalid(format!(
            "a worker task panicked: {msg}; its session was aborted (other sessions on the pool \
             are unaffected)"
        ))),
        None => Ok(()),
    }
}

/// The persistent worker body: pull one task at a time off the shared
/// queue, run it under `catch_unwind`, report completion to its session.
#[allow(unsafe_code)] // audited RawTask dereference, see SAFETY below
fn worker_loop(shared: &PoolShared, pool_id: usize, w: usize) {
    CURRENT_WORKER.with(|c| c.set(Some((pool_id, w))));
    loop {
        let task = {
            let mut st = shared.state.lock().expect("pool queue poisoned");
            loop {
                if let Some(t) = st.queue.pop_front() {
                    break t;
                }
                if st.shutdown {
                    return;
                }
                st = shared.work.wait(st).expect("pool queue poisoned");
            }
        };
        shared.counters.queue_depth.dec();
        // SAFETY: the submitting thread is parked in `submit` until this
        // session's `remaining` hits zero, which happens only after this
        // call returns — the closure is alive for the whole call.
        let run = unsafe { &*task.session.run.0 };
        let t0 = Instant::now();
        // Failpoint site: inside the `catch_unwind`, so an injected failure
        // is indistinguishable from a task panic — the session gets the
        // error, the worker thread survives.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            svc_fault::fail_point_panic!(svc_fault::site::POOL_DISPATCH);
            run(task.index, w);
        }));
        shared.counters.busy_ns[w].add(t0.elapsed().as_nanos() as u64);
        shared.counters.tasks.inc();
        let panic_msg = outcome.err().map(|payload| {
            shared.counters.panics.inc();
            panic_text(payload.as_ref())
        });
        task.session.complete(panic_msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svc_relalg::aggregate::AggSpec;
    use svc_relalg::eval::{evaluate, Bindings};
    use svc_relalg::exec::compile;
    use svc_relalg::optimizer::optimize;
    use svc_relalg::plan::Plan;
    use svc_relalg::scalar::{col, lit};
    use svc_storage::{DataType, Database, Schema, Table, Value};

    /// One `run_batch` task per plan: optimize, compile, run.
    fn evaluate_batch(
        pool: &WorkerPool,
        plans: &[Plan],
        bindings: &Bindings<'_>,
    ) -> Result<Vec<Table>> {
        pool.run_batch(plans.len(), |i| {
            let (optimized, _) = optimize(&plans[i], bindings)?;
            compile(&optimized, bindings)?.run(bindings)
        })
    }

    #[test]
    fn evaluate_plans_matches_serial_evaluation() {
        let mut db = Database::new();
        let mut events = Table::new(
            Schema::from_pairs(&[
                ("id", DataType::Int),
                ("grp", DataType::Int),
                ("x", DataType::Float),
            ])
            .unwrap(),
            &["id"],
        )
        .unwrap();
        for i in 0..2000i64 {
            events
                .insert(vec![Value::Int(i), Value::Int(i % 50), Value::Float((i % 17) as f64)])
                .unwrap();
        }
        db.create_table("events", events);
        let bindings = Bindings::from_database(&db);

        let plans: Vec<Plan> = (0..6)
            .map(|k| {
                Plan::scan("events")
                    .aggregate(
                        &["grp"],
                        vec![
                            AggSpec::count_all("n"),
                            AggSpec::new("sx", svc_relalg::aggregate::AggFunc::Sum, col("x")),
                        ],
                    )
                    .select(col("grp").ge(lit(k * 5)))
            })
            .collect();

        let pool = WorkerPool::new(3);
        let parallel = evaluate_batch(&pool, &plans, &bindings).unwrap();
        for (plan, got) in plans.iter().zip(&parallel) {
            let (optimized, _) = optimize(plan, &db).unwrap();
            let expected = evaluate(&optimized, &bindings).unwrap();
            assert!(got.same_contents(&expected), "parallel batch diverged");
        }
    }

    #[test]
    fn evaluate_plans_surfaces_errors() {
        let db = Database::new();
        let bindings = Bindings::from_database(&db);
        let pool = WorkerPool::new(2);
        let err = evaluate_batch(&pool, &[Plan::scan("missing")], &bindings);
        assert!(err.is_err());
    }

    #[test]
    fn failing_plan_mid_batch_surfaces_its_own_error() {
        // A batch where plan 3 is the only broken one: the returned error
        // must be *that* plan's error — never the internal "plan was not
        // evaluated" placeholder for plans that did run (or never ran).
        let mut db = Database::new();
        let mut t = Table::new(
            Schema::from_pairs(&[("id", DataType::Int), ("x", DataType::Float)]).unwrap(),
            &["id"],
        )
        .unwrap();
        for i in 0..100i64 {
            t.insert(vec![Value::Int(i), Value::Float(i as f64)]).unwrap();
        }
        db.create_table("t", t);
        let bindings = Bindings::from_database(&db);

        let mut plans: Vec<Plan> = (0..8).map(|_| Plan::scan("t")).collect();
        plans[3] = Plan::scan("no_such_table");
        let pool = WorkerPool::new(2);
        let err = evaluate_batch(&pool, &plans, &bindings).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("no_such_table"), "expected the original error, got: {msg}");
        assert!(!msg.contains("plan was not evaluated"), "placeholder leaked: {msg}");
    }

    #[test]
    fn failure_stops_new_pickups_and_keeps_the_original_error() {
        // Deterministic with one worker: tasks run strictly in order, so
        // after index 2 fails, indices 3.. must never be picked up.
        let pool = WorkerPool::new(1);
        let ran = std::sync::Arc::new(AtomicUsize::new(0));
        let ran2 = ran.clone();
        let err = pool
            .run_batch(10, move |i| {
                ran2.fetch_add(1, Ordering::Relaxed);
                if i == 2 {
                    Err(StorageError::Invalid(format!("task {i} exploded")))
                } else {
                    Ok(i)
                }
            })
            .unwrap_err();
        assert_eq!(ran.load(Ordering::Relaxed), 3, "no new pickups after the failure");
        assert!(err.to_string().contains("task 2 exploded"), "wrong error: {err}");
    }

    #[test]
    fn panicking_task_fails_only_its_session() {
        // Two sessions share one pool from different threads: the session
        // with a panicking task gets an error; the other completes with
        // correct results; the pool keeps working afterwards. This is the
        // isolation contract morsel-parallel plans rely on.
        let pool = std::sync::Arc::new(WorkerPool::new(2));
        let (pa, pb) = (pool.clone(), pool.clone());
        std::thread::scope(|s| {
            let ha = s.spawn(move || {
                pa.submit(8, &|i, _w| {
                    if i == 3 {
                        panic!("morsel exploded");
                    }
                })
            });
            let hb = s.spawn(move || pb.run_batch(64, |i| Ok(i * 2)));
            let ra = ha.join().expect("submitting thread must not unwind");
            let rb = hb.join().expect("concurrent batch must not unwind").unwrap();
            assert!(ra.is_err(), "the panicking session must surface an error");
            assert!(ra.unwrap_err().to_string().contains("panicked"));
            assert_eq!(rb, (0..64).map(|i| i * 2).collect::<Vec<_>>());
        });
        // No worker died: the pool still drains new sessions.
        let after = pool.run_batch(16, |i| Ok(i + 1)).unwrap();
        assert_eq!(after, (0..16).map(|i| i + 1).collect::<Vec<_>>());
    }

    /// A *storm* of panics — many sessions, several panicking tasks each,
    /// interleaved with healthy sessions from another thread — must leave
    /// the pool fully usable, report every sick session as an error, and
    /// keep the panic gauge exact. Extends the single-panic isolation test
    /// above to sustained failure load.
    #[test]
    fn panic_storms_leave_the_pool_usable_and_the_gauge_exact() {
        let pool = std::sync::Arc::new(WorkerPool::new(2));
        let before = pool.metrics();
        let rounds = 12usize;
        let mut expected_panics = 0u64;
        std::thread::scope(|s| {
            // Healthy traffic competing with the storm on the same queue.
            let healthy_pool = pool.clone();
            let healthy = s.spawn(move || {
                for _ in 0..rounds {
                    let out = healthy_pool.run_batch(16, |i| Ok(i * 3)).unwrap();
                    assert_eq!(out, (0..16).map(|i| i * 3).collect::<Vec<_>>());
                }
            });
            for round in 0..rounds {
                // 1..=3 panicking tasks out of 8, at shifting indices.
                let bad = round % 3 + 1;
                let res = pool.submit(8, &|i, _w| {
                    if (i + round) % 8 < bad {
                        panic!("storm round {round} task {i}");
                    }
                });
                assert!(res.is_err(), "round {round}: a panicking session must error");
                expected_panics += bad as u64;
            }
            healthy.join().expect("healthy traffic must be unaffected by the storm");
        });
        let m = pool.metrics();
        assert_eq!(m.panics - before.panics, expected_panics, "panic gauge drifted");
        assert_eq!(
            m.sessions - before.sessions,
            2 * rounds as u64,
            "every storm and healthy session accounted"
        );
        assert_eq!(m.queue_depth, 0, "queue drained");
        // The pool is still fully usable afterwards.
        let out = pool.run_batch(32, |i| Ok(i + 7)).unwrap();
        assert_eq!(out, (0..32).map(|i| i + 7).collect::<Vec<_>>());
    }

    #[test]
    fn nested_submission_from_a_worker_runs_inline() {
        // A pool task that submits to its own pool must not deadlock, even
        // with a single worker: nested sessions run inline on that worker
        // instead of queueing behind themselves.
        let pool = WorkerPool::new(1);
        let total = AtomicUsize::new(0);
        let (pool_ref, total_ref) = (&pool, &total);
        pool.submit(2, &|_, _| {
            pool_ref
                .submit(3, &|_, _| {
                    total_ref.fetch_add(1, Ordering::Relaxed);
                })
                .unwrap();
        })
        .unwrap();
        assert_eq!(total.load(Ordering::Relaxed), 6, "2 outer × 3 inner tasks all ran");
    }

    #[test]
    fn run_batch_success_returns_results_in_order() {
        let pool = WorkerPool::new(4);
        let out = pool.run_batch(32, |i| Ok(i * i)).unwrap();
        assert_eq!(out, (0..32).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn all_tasks_run_once() {
        let pool = WorkerPool::new(4);
        let runs: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        let before = pool.metrics().tasks;
        pool.submit(64, &|i, _w| {
            runs[i].fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();
        let seen = pool.run_batch(64, |i| Ok(runs[i].fetch_add(1, Ordering::Relaxed))).unwrap();
        assert_eq!(seen, vec![1; 64], "every index ran exactly once under submit");
        assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 2), "and once under run_batch");
        assert_eq!(pool.metrics().tasks - before, 128);
    }

    /// The busy-time gauges behind every utilization figure: each task's
    /// run time lands on exactly one worker, so the pool total is at least
    /// the work done and no worker is busier than the wall clock.
    #[test]
    fn busy_time_is_bounded_by_work_and_wall() {
        let pool = WorkerPool::new(2);
        let nap = std::time::Duration::from_millis(2);
        let start = Instant::now();
        pool.submit(8, &|_, _| std::thread::sleep(nap)).unwrap();
        let wall = start.elapsed().as_nanos() as u64;
        let m = pool.metrics();
        assert_eq!(m.busy_ns.len(), 2);
        assert!(m.total_busy_ns() >= 8 * nap.as_nanos() as u64, "work unaccounted: {m:?}");
        assert!(m.busy_ns.iter().all(|&b| b <= wall), "a worker busier than the wall: {m:?}");
    }
}
