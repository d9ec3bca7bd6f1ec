//! The mini-batch maintenance pipeline and the throughput / batch-size
//! trade-off (Section 7.6.2, Figure 14).
//!
//! [`BatchPipeline`] is a real mini-batch IVM executor: it drains pending
//! [`Deltas`] into batches, splits each batch into delta chunks, gets one
//! compiled pair of signed change-table plans — γ(∆) and γ(∇), the keyed pair
//! of `svc_ivm::strategy::view_delta` over the plain `__ins.T` / `__del.T`
//! leaves — per *delta signature* in the batch (normally one pair, shared by
//! every chunk: one expression evaluated over many inputs), runs it once per
//! chunk on the shared [`WorkerPool`] (`WorkerPool::run_batch`, each chunk
//! under its own `Bindings`), and folds the resulting change tables into the
//! materialized view by group key (`svc_ivm::KeyedFold`): each change row is
//! looked up, merged or inserted, so a fold costs what its change table
//! holds, not what the view holds. Larger batches amortize the per-batch
//! driver work (partitioning, dispatch, the fold's per-group lookups) over
//! more records — the Figure 14 shape, measured on real plans (`fig14`).
//!
//! Chunk-level parallelism is exact when no cross-chunk delta interactions
//! exist: single-table batches through tree-shaped views (each touched
//! table scanned once). Batches that violate that condition — several
//! tables touched under a join, or a touched table scanned by more than
//! one leaf — run as one chunk. Only change tables are staged per chunk:
//! their contributions over disjoint delta subsets add up. Whatever else the
//! gate answers — an SPJ view's ∆V / ∇V, where a key's deletion and its
//! re-insertion must meet in one batch, a recompute (min/max under
//! deletions, median, other nested aggregates), or a nested aggregate's
//! change table, which reads its auxiliary table and so must see every
//! earlier batch — falls back to the view's delta runner
//! (`MaterializedView::next_state`: the view and its auxiliary table,
//! without η) over the whole pending set. That is the call
//! `MaterializedView::maintain` makes, here run on the pool.
//!
//! The pipeline keeps no plans of its own. The change pairs, like every
//! plan the runner runs, come from the view's plan cache (`svc_ivm::plans`:
//! one per view, shared by its clones, keyed by η spec, delta signature,
//! base shapes and statistics generation), so a signature the runner or an
//! earlier batch planned compiles nothing here; the pipeline only counts
//! its lookups (`PipelineMetrics::{compiles, cache_hits, cache_misses}`).

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use svc_ivm::fold::{KeyedFold, StagedEdits};
use svc_ivm::plans::CompiledDelta;
use svc_ivm::strategy::{view_delta, PlanKind, ViewDelta};
use svc_ivm::view::{MaterializedView, ViewState};
use svc_ivm::DeltaInfo;
use svc_relalg::plan::Plan;
use svc_storage::{Database, Deltas, Result, StorageError, Table};
use svc_telemetry::{Counter, Gauge, TraceRecorder};

use crate::executor::{panic_text, WorkerPool};

/// What one [`BatchPipeline::maintain`] call did.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchRun {
    /// Delta records processed.
    pub records: usize,
    /// Number of batches executed.
    pub batches: usize,
    /// Plan runs on the pool: one per delta chunk of a change-table batch,
    /// one per fallback batch.
    pub plans_evaluated: usize,
    /// Batches that could not use chunk-parallel change tables and went
    /// through `MaterializedView::next_state` instead.
    pub fallback_batches: usize,
    /// Re-attempts after transient batch failures (retry policy only).
    pub retries: usize,
    /// Batches that exhausted their retries and moved to the dead-letter
    /// queue ([`BatchPipeline::quarantined`]); the view was marked dirty.
    pub quarantined: usize,
    /// Wall-clock seconds.
    pub seconds: f64,
}

impl BatchRun {
    /// Records per second.
    pub fn throughput(&self) -> f64 {
        if self.seconds > 0.0 {
            self.records as f64 / self.seconds
        } else {
            0.0
        }
    }
}

/// How [`BatchPipeline::maintain`] responds to a failing mini-batch.
///
/// Under either policy the view itself is safe: maintain folds batches into
/// a *shadow* copy of the view — each batch's edits staged first and applied
/// only once the whole batch succeeded — and commits the shadow in one epoch
/// swap at the end, so no failure mode can expose a partial fold and no
/// retry can apply an edit twice.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FailurePolicy {
    /// The default: the first failing batch aborts the call with an error
    /// naming the batch; the view keeps its pre-maintain epoch and the
    /// caller's deltas are untouched (retry the whole call, or switch
    /// policy).
    #[default]
    Strict,
    /// Degrade gracefully: a failing batch is retried up to `retries`
    /// times, back to back; when retries are exhausted it
    /// moves to the dead-letter queue with a diagnosis
    /// ([`BatchPipeline::quarantined`]), the view is marked dirty, and the
    /// pipeline keeps folding subsequent healthy batches (sound because
    /// change-table contributions of disjoint delta subsets are
    /// independent and additive — the quarantined batch can be re-folded
    /// later via [`BatchPipeline::retry_quarantined`], or the view
    /// recovered wholesale via [`BatchPipeline::recover_via_recompute`]).
    /// Task panics are caught at the batch boundary and treated as
    /// transient failures too.
    RetryQuarantine {
        /// Re-attempts per batch after its first failure.
        retries: u32,
    },
}

/// A mini-batch that exhausted its retries: parked in the pipeline's
/// dead-letter queue with everything needed to diagnose and re-fold it.
#[derive(Debug, Clone)]
pub struct QuarantinedBatch {
    /// Name of the view whose maintenance failed.
    pub view: String,
    /// Zero-based index of the batch within its `maintain` call.
    pub batch_index: usize,
    /// Delta records in the batch.
    pub records: usize,
    /// Attempts made (1 + retries).
    pub attempts: u32,
    /// The last failure's diagnosis.
    pub error: String,
    /// The batch's delta records, retained for re-folding.
    pub deltas: Deltas,
}

/// A mini-batch maintenance pipeline executing *real* maintenance plans on
/// a worker pool.
#[derive(Debug, Clone)]
pub struct BatchPipeline {
    /// Shared worker pool.
    pub pool: Arc<WorkerPool>,
    /// Maximum delta chunks (map tasks) per batch.
    pub partitions: usize,
    /// Optional span recorder: when attached, `maintain` records
    /// batch/fold spans into its ring buffer, exportable as chrome-trace
    /// JSON ([`TraceRecorder::chrome_trace_json`]). `None` (the default)
    /// records nothing.
    pub tracer: Option<Arc<TraceRecorder>>,
    /// What a failing mini-batch does: abort the call (strict, the
    /// default) or retry-then-quarantine (see [`FailurePolicy`]).
    pub policy: FailurePolicy,
    /// Dead-letter queue of quarantined batches, shared by clones like the
    /// counters.
    quarantine: Arc<Mutex<Vec<QuarantinedBatch>>>,
    /// Live pipeline counters, shared by clones.
    counters: Arc<PipelineCounters>,
}

/// Live subsystem counters of one pipeline (shared across clones).
#[derive(Debug, Default)]
struct PipelineCounters {
    /// Delta records accepted by the current `maintain` call and not yet
    /// folded into the view (transient; 0 between calls).
    backlog: Gauge,
    /// Cumulative wall time of driver-side change-table folds, in ns.
    fold_ns: Counter,
    /// Change-table folds performed.
    folds: Counter,
    /// Change plans compiled.
    compiles: Counter,
    /// Change-plan lookups the view's plan cache served.
    cache_hits: Counter,
    /// Change-plan lookups it missed (each implies one compile).
    cache_misses: Counter,
    /// Batch re-attempts after transient failures (retry policy).
    retries: Counter,
    /// Batches moved to the dead-letter queue.
    quarantined: Counter,
    /// Successful recoveries: re-folded quarantined batches plus fallback
    /// recomputes.
    recoveries: Counter,
    /// Poisoned plan-cache locks recovered (cache flushed, poison cleared).
    cache_poisons: Counter,
}

/// A point-in-time snapshot of a pipeline's subsystem metrics.
#[derive(Debug, Clone)]
pub struct PipelineMetrics {
    /// Delta records accepted but not yet folded (0 when idle).
    pub backlog: i64,
    /// Cumulative driver-side fold wall time, in nanoseconds.
    pub fold_ns: u64,
    /// Change-table folds performed.
    pub folds: u64,
    /// Change plans compiled (one per plan-cache miss).
    pub compiles: u64,
    /// Change-plan lookups served by the view's plan cache.
    pub cache_hits: u64,
    /// Change-plan lookups that missed it.
    pub cache_misses: u64,
    /// Batch re-attempts after transient failures.
    pub retries: u64,
    /// Batches moved to the dead-letter queue.
    pub quarantined: u64,
    /// Successful recoveries (re-folded quarantined batches, fallback
    /// recomputes).
    pub recoveries: u64,
    /// Poisoned plan-cache locks recovered.
    pub cache_poisons: u64,
}

impl PipelineMetrics {
    /// Mean fold latency in nanoseconds (0 when no fold ran yet).
    pub fn mean_fold_ns(&self) -> u64 {
        self.fold_ns.checked_div(self.folds).unwrap_or(0)
    }
}

/// Zeroes the backlog gauge when a `maintain` call exits, on every path
/// (including `?` early returns).
struct BacklogGuard<'a>(&'a Gauge);

impl Drop for BacklogGuard<'_> {
    fn drop(&mut self) {
        self.0.set(0);
    }
}

/// What every mini-batch of one change-table [`BatchPipeline::maintain`]
/// call shares.
struct MaintainCall<'a> {
    db: &'a Database,
    /// The view's keyed fold, bound once per call.
    fold: &'a KeyedFold,
    /// Whether batches may split into delta chunks
    /// ([`chunk_parallel_exact`]).
    chunk_parallel: bool,
    /// Mini-batches in the call, for diagnoses.
    batches: usize,
}

impl BatchPipeline {
    /// Default pipeline on `workers` threads with `2 × workers` partitions.
    pub fn new(workers: usize) -> BatchPipeline {
        BatchPipeline::on_pool(Arc::new(WorkerPool::new(workers)))
    }

    /// A pipeline sharing an existing pool.
    pub fn on_pool(pool: Arc<WorkerPool>) -> BatchPipeline {
        let partitions = pool.workers() * 2;
        BatchPipeline {
            pool,
            partitions,
            tracer: None,
            policy: FailurePolicy::default(),
            quarantine: Arc::default(),
            counters: Arc::default(),
        }
    }

    /// Set the failure policy (see [`FailurePolicy`]).
    pub fn with_policy(mut self, policy: FailurePolicy) -> BatchPipeline {
        self.policy = policy;
        self
    }

    /// Snapshot the pipeline's subsystem metrics: current delta backlog,
    /// cumulative fold latency, and plan-cache hit/miss counts of its
    /// change-plan lookups. Lock-free; shared across pipeline clones (same
    /// counters).
    pub fn metrics(&self) -> PipelineMetrics {
        let c = &*self.counters;
        PipelineMetrics {
            backlog: c.backlog.get(),
            fold_ns: c.fold_ns.get(),
            folds: c.folds.get(),
            compiles: c.compiles.get(),
            cache_hits: c.cache_hits.get(),
            cache_misses: c.cache_misses.get(),
            retries: c.retries.get(),
            quarantined: c.quarantined.get(),
            recoveries: c.recoveries.get(),
            cache_poisons: c.cache_poisons.get(),
        }
    }

    /// The dead-letter queue: batches that exhausted their retries, with
    /// diagnoses. Shared across pipeline clones.
    pub fn quarantined(&self) -> Vec<QuarantinedBatch> {
        self.quarantine_lock().clone()
    }

    /// The dead-letter queue itself must survive poisoning (it is written
    /// from paths that run next to injected panics).
    fn quarantine_lock(&self) -> MutexGuard<'_, Vec<QuarantinedBatch>> {
        self.quarantine.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Bring `view` up to date with respect to `pending` (not consumed —
    /// the caller commits the deltas to the base tables when the
    /// maintenance period ends), processing at most `batch_size` delta
    /// records per mini-batch.
    ///
    /// Mini-batching applies when the view is change-table eligible for the
    /// pending deltas, has no auxiliary table, and the exactness condition of
    /// `chunk_parallel_exact` holds (change-table contributions of
    /// disjoint delta subsets are then independent and additive). Otherwise
    /// the whole delta set runs as a single batch — through
    /// [`MaterializedView::next_state`] for every other view — still as real
    /// plans on the pool.
    pub fn maintain(
        &self,
        db: &Database,
        view: &mut MaterializedView,
        pending: &Deltas,
        batch_size: usize,
    ) -> Result<BatchRun> {
        if batch_size == 0 {
            return Err(StorageError::Invalid("batch_size must be at least 1".into()));
        }
        let start = Instant::now();
        let canonical = view.canonical().clone();
        // Deltas of tables the view never reads cannot affect it: scope the
        // pass (and the throughput accounting) to the view's own leaves, so
        // unrelated pending tables are a no-op rather than dead weight.
        let pending = pending.restricted_to(&canonical.plan.leaf_tables());
        let mut run = BatchRun { records: pending.len(), ..Default::default() };
        if pending.is_empty() {
            return Ok(run);
        }

        // Backlog gauge: records accepted by this call, decremented as
        // batches fold; the guard zeroes it on every exit (including `?`).
        self.counters.backlog.set(run.records as i64);
        let _backlog_reset = BacklogGuard(&self.counters.backlog);
        let _maintain_span = self.tracer.as_deref().map(|t| t.span("maintain", "pipeline"));

        // The strategy's gate decides — read off the view's plan cache when
        // this signature was planned before, `view_delta` otherwise; only
        // change tables that read no auxiliary table are chunk-additive.
        let info = DeltaInfo::of(&pending);
        let kind = match view.cached_delta_plan(db, &info) {
            Some(planned) => planned.delta.kind(),
            None => view_delta(&canonical, &view.maint_catalog(db), &info)?.kind(),
        };
        if kind == PlanKind::NoOp {
            return Ok(run);
        }
        if kind != PlanKind::ChangeTable || view.auxiliary().is_some() {
            // Fallback: the whole pending set through
            // `MaterializedView::next_state` — ∆V / ∇V folded by key, a
            // change table over the auxiliary table, or a recompute.
            // Splitting it into mini-batches would be unsound: each batch's
            // plans read the *original* base tables (and auxiliary table), so
            // earlier batches would be forgotten.
            let maintained = self.under_policy(
                view,
                0,
                "fallback maintenance",
                pending,
                &mut run,
                |view, pending| self.fallback_state(db, view, &pending),
            )?;
            run.batches = 1;
            run.plans_evaluated = usize::from(maintained.is_some());
            if let Some(next) = maintained {
                view.commit(next);
            }
            run.fallback_batches = 1;
            run.seconds = start.elapsed().as_secs_f64();
            return Ok(run);
        }

        // The keyed fold is invariant across batches: bind it once per call.
        let fold = KeyedFold::new(&canonical, view.table())?;
        // Batch boundaries obey the same exactness condition as chunk
        // parallelism: every batch's change table reads the original base
        // state, so batches (like chunks) must not interact.
        let exact = chunk_parallel_exact(&canonical.plan, &pending);
        let n_batches = if exact { run.records.div_ceil(batch_size) } else { 1 };
        // Shadow fold: the view is cloned once (on the first batch that
        // lands), every batch stages its keyed edits against the shadow and
        // applies them only after its last fold step succeeded, and the view
        // commits exactly once at the end. An error (or panic) anywhere in
        // the loop leaves the view at its pre-maintain epoch with every
        // delta unconsumed, and a failed attempt leaves the shadow as it
        // found it — a retry never applies an edit twice, a quarantined
        // batch stays out.
        let batches = pending.partition(n_batches);
        let call = MaintainCall { db, fold: &fold, chunk_parallel: exact, batches: batches.len() };
        let mut shadow: Option<Table> = None;
        for (idx, batch) in batches.into_iter().enumerate() {
            let records = batch.len();
            let _batch_span = self.tracer.as_deref().map(|t| t.span("batch", "pipeline"));
            // Stage against the shadow folded so far (the view itself
            // before the first batch landed); `None` = batch quarantined.
            let staged = self.under_policy(
                view,
                idx,
                format_args!("mini-batch {}/{}", idx + 1, call.batches),
                batch,
                &mut run,
                |view, batch| {
                    let target = shadow.as_ref().unwrap_or_else(|| view.table());
                    self.stage_change_batch(&call, view, batch.into_owned(), target)
                },
            )?;
            if let Some((staged, plans)) = staged {
                let apply_start = Instant::now();
                let _apply_span = self.tracer.as_deref().map(|t| t.span("apply", "pipeline"));
                staged.apply(shadow.get_or_insert_with(|| view.table().clone()));
                self.counters.fold_ns.add(apply_start.elapsed().as_nanos() as u64);
                run.plans_evaluated += plans;
            }
            self.counters.backlog.add(-(records as i64));
            run.batches += 1;
        }
        if let Some(table) = shadow {
            view.commit(ViewState { table, aux: None });
        }
        run.seconds = start.elapsed().as_secs_f64();
        Ok(run)
    }

    /// Run one batch's `attempt` over `deltas` under the pipeline's failure
    /// policy — the one place the policy is spelled. Strict runs it once,
    /// bare (a driver-side panic propagates, the batch is handed over
    /// owned), and wraps the error with `label`; the retry policy re-runs it
    /// on a borrowed batch and, once retries are exhausted, quarantines the
    /// batch under `idx` and returns `Ok(None)`.
    fn under_policy<T>(
        &self,
        view: &mut MaterializedView,
        idx: usize,
        label: impl std::fmt::Display,
        deltas: Deltas,
        run: &mut BatchRun,
        attempt: impl Fn(&MaterializedView, Cow<'_, Deltas>) -> Result<T>,
    ) -> Result<Option<T>> {
        let FailurePolicy::RetryQuarantine { retries } = self.policy else {
            return attempt(view, Cow::Owned(deltas)).map(Some).map_err(|e| {
                StorageError::Invalid(format!(
                    "{label} failed; view kept its pre-maintain epoch, deltas unconsumed: {e}"
                ))
            });
        };
        let retried = self.with_retries(retries, run, || attempt(view, Cow::Borrowed(&deltas)));
        match retried {
            Ok(value) => Ok(Some(value)),
            Err(e) => {
                self.quarantine_batch(view, idx, deltas, retries + 1, &e);
                run.quarantined += 1;
                Ok(None)
            }
        }
    }

    /// Run `attempt` up to `1 + retries` times, back to back. Panics inside an attempt are caught at this
    /// boundary and treated as transient failures (the pool already
    /// isolates worker panics per session; this additionally covers
    /// driver-side folds and compilation).
    fn with_retries<T>(
        &self,
        retries: u32,
        run: &mut BatchRun,
        attempt: impl Fn() -> Result<T>,
    ) -> Result<T> {
        let mut last = StorageError::Invalid("batch never attempted".into());
        for attempt_no in 0..=retries {
            if attempt_no > 0 {
                run.retries += 1;
                self.counters.retries.inc();
            }
            match catch_unwind(AssertUnwindSafe(&attempt)) {
                Ok(Ok(value)) => return Ok(value),
                Ok(Err(e)) => last = e,
                Err(payload) => {
                    last = StorageError::Invalid(format!(
                        "batch task panicked: {}",
                        panic_text(payload.as_ref())
                    ));
                }
            }
        }
        Err(last)
    }

    /// Move a failed batch to the dead-letter queue and mark the view
    /// dirty (its table no longer reflects all accepted deltas).
    fn quarantine_batch(
        &self,
        view: &mut MaterializedView,
        batch_index: usize,
        deltas: Deltas,
        attempts: u32,
        error: &StorageError,
    ) {
        self.counters.quarantined.inc();
        view.mark_dirty();
        self.quarantine_lock().push(QuarantinedBatch {
            view: view.name.clone(),
            batch_index,
            records: deltas.len(),
            attempts,
            error: error.to_string(),
            deltas,
        });
    }

    /// Re-drive every quarantined batch belonging to `view` through
    /// [`BatchPipeline::maintain`] (sound because change-table folds of
    /// disjoint delta subsets are additive, so a late fold lands the same
    /// state). Returns the number of batches recovered; batches that fail
    /// again under the current policy are re-quarantined (retry policy) or
    /// put back verbatim (strict policy, which also propagates the error).
    /// Clears the view's dirty flag once its queue is empty.
    pub fn retry_quarantined(
        &self,
        db: &Database,
        view: &mut MaterializedView,
        batch_size: usize,
    ) -> Result<usize> {
        let mine: Vec<QuarantinedBatch> = {
            let mut q = self.quarantine_lock();
            let (mine, rest) =
                std::mem::take(&mut *q).into_iter().partition(|e| e.view == view.name);
            *q = rest;
            mine
        };
        let mut recovered = 0;
        let mut entries = mine.into_iter();
        for entry in entries.by_ref() {
            match self.maintain(db, view, &entry.deltas, batch_size.max(1)) {
                Ok(inner) if inner.quarantined == 0 => {
                    recovered += 1;
                    self.counters.recoveries.inc();
                }
                Ok(_) => {} // re-quarantined by the nested maintain call
                Err(e) => {
                    let mut q = self.quarantine_lock();
                    q.push(entry);
                    q.extend(entries);
                    return Err(e);
                }
            }
        }
        if !self.quarantine_lock().iter().any(|e| e.view == view.name) {
            view.mark_clean();
        }
        Ok(recovered)
    }

    /// Last-resort recovery: recompute the view (and its auxiliary table)
    /// fresh over base tables plus `pending` (which must include the deltas
    /// of any quarantined batches), commit the result, and drop the view's
    /// dead-letter entries. Always converges regardless of what state the
    /// quarantined folds were in.
    pub fn recover_via_recompute(
        &self,
        db: &Database,
        view: &mut MaterializedView,
        pending: &Deltas,
    ) -> Result<()> {
        let fresh = view.recomputed(db, pending)?;
        view.commit(fresh);
        self.quarantine_lock().retain(|e| e.view != view.name);
        view.mark_clean();
        self.counters.recoveries.inc();
        Ok(())
    }

    /// The whole pending set through [`MaterializedView::next_state`], the
    /// delta runner over the view and its auxiliary table (views whose
    /// deltas are not chunk-additive), as one pool task, so dispatch
    /// failpoints, panic isolation and the busy-time gauges see it like any
    /// other plan. Returns the new state without committing it.
    fn fallback_state(
        &self,
        db: &Database,
        view: &MaterializedView,
        pending: &Deltas,
    ) -> Result<ViewState> {
        svc_fault::fail_point!(svc_fault::site::BATCH_FALLBACK, StorageError::Invalid);
        let mut states = self.pool.run_batch(1, |_| {
            let next = view.next_state(db, pending)?;
            Ok(next.expect("the gate found pending deltas that reach the view").0)
        })?;
        Ok(states.pop().expect("one task, one result"))
    }

    /// Execute one change-table mini-batch and stage its keyed edits
    /// against `target` (the shadow folded so far) without touching it;
    /// returns the staged edits and the number of chunk runs.
    fn stage_change_batch(
        &self,
        call: &MaintainCall<'_>,
        view: &MaterializedView,
        batch: Deltas,
        target: &Table,
    ) -> Result<(StagedEdits, usize)> {
        // Map stage: one signed change table per delta chunk
        // (`Deltas::partition` never emits empty chunks, so no worker slot
        // is burned on a no-op partition). The batch is consumed —
        // partitioning moves rows into their chunks.
        let chunks =
            if call.chunk_parallel { batch.partition(self.partitions) } else { vec![batch] };
        // One pair of plans per distinct delta signature in the batch —
        // normally one — looked up once, however many chunks carry it.
        let mut plans: Vec<(DeltaInfo, Arc<CompiledDelta>, bool)> = Vec::new();
        let mut plan_of = Vec::with_capacity(chunks.len());
        for chunk in &chunks {
            let info = DeltaInfo::of(chunk);
            let known = plans.iter().position(|(seen, ..)| *seen == info);
            plan_of.push(known.unwrap_or(plans.len()));
            if known.is_none() {
                let (plan, hit) = self.compiled_change_plan(call.db, view, &info)?;
                plans.push((info, plan, hit));
            }
        }
        svc_fault::fail_point!(svc_fault::site::BATCH_EVALUATE, StorageError::Invalid);
        // Every chunk names its deltas the way any maintenance plan reads
        // them, so the shared pair runs unchanged under each chunk's own
        // bindings: one task per chunk evaluates γ(∆), then γ(∇).
        let changes = self.pool.run_batch(chunks.len(), |i| {
            let bindings = view.delta_bindings(call.db, &chunks[i], target);
            let ViewDelta::Keyed { change, .. } = &plans[plan_of[i]].1.delta else {
                unreachable!("compiled_change_plan hands out keyed pairs only")
            };
            change.as_ref().try_map(|side| side.run(&bindings))
        })?;
        if svc_relalg::verify::ENABLED {
            for (chunk, &p) in chunks.iter().zip(&plan_of) {
                let (_, plan, hit) = &plans[p];
                if *hit {
                    view.verify_plan_hit(call.db, chunk, None, None, plan)?;
                }
            }
        }

        // Reduce stage (driver): fold each change table, in chunk order,
        // into the staged edits — O(|change|) lookups by group key, the
        // target only read — so the result is the same for every worker
        // count.
        let fold_start = Instant::now();
        let _fold_span = self.tracer.as_deref().map(|t| t.span("fold", "pipeline"));
        let mut staged = StagedEdits::default();
        for change in &changes {
            svc_fault::fail_point!(svc_fault::site::BATCH_FOLD, StorageError::Invalid);
            call.fold.stage(target, &mut staged, change)?;
        }
        self.counters.fold_ns.add(fold_start.elapsed().as_nanos() as u64);
        self.counters.folds.add(changes.len() as u64);
        Ok((staged, changes.len()))
    }

    /// The compiled change plans — γ(∆) and γ(∇), one entry — for one delta
    /// signature of the view, from the view's plan cache: a hit when the
    /// signature was planned before (by any pipeline, the delta runner or a
    /// clone of the view), otherwise built and stored. The flag is the hit.
    fn compiled_change_plan(
        &self,
        db: &Database,
        view: &MaterializedView,
        info: &DeltaInfo,
    ) -> Result<(Arc<CompiledDelta>, bool)> {
        let planned = match view.cached_delta_plan(db, info) {
            Some(plan) => {
                self.counters.cache_hits.inc();
                (plan, true)
            }
            None => {
                self.counters.cache_misses.inc();
                svc_fault::fail_point!(svc_fault::site::BATCH_COMPILE, StorageError::Invalid);
                let _compile_span = self.tracer.as_deref().map(|t| t.span("compile", "pipeline"));
                let lookup = view.delta_plan(db, info, None, None)?;
                if lookup.recovered_poison {
                    self.counters.cache_poisons.inc();
                }
                if !lookup.hit {
                    self.counters.compiles.inc();
                }
                (lookup.plan, false)
            }
        };
        // A chunk of a change-table batch is a change-table delta itself.
        if !matches!(planned.0.delta, ViewDelta::Keyed { .. }) {
            return Err(StorageError::Invalid(
                "delta chunk does not reach the view; partition before batching".into(),
            ));
        }
        Ok(planned)
    }
}

/// True iff evaluating per-chunk change tables independently is exact:
/// every chunk's delta plans must see base states that no *other* chunk
/// perturbs. Sufficient conditions checked here:
///
/// * at most one base table is touched, or the view input has no binary
///   operator (then untouched tables' branches prune away), and
/// * no touched table is scanned by more than one leaf of the input
///   (self-joins and same-table set operations create cross-branch terms).
fn chunk_parallel_exact(canonical_plan: &Plan, batch: &Deltas) -> bool {
    let Plan::Aggregate { input, .. } = canonical_plan else {
        return false;
    };
    let touched: Vec<&str> = batch.touched_tables();
    if touched.len() > 1 && has_binary_node(input) {
        return false;
    }
    let mut scan_counts: BTreeMap<&str, usize> = BTreeMap::new();
    for leaf in input.leaf_tables() {
        *scan_counts.entry(leaf).or_default() += 1;
    }
    touched.iter().all(|t| scan_counts.get(t).copied().unwrap_or(0) <= 1)
}

fn has_binary_node(plan: &Plan) -> bool {
    plan.children().count() == 2 || plan.children().any(has_binary_node)
}

#[cfg(test)]
mod tests {
    use super::*;
    use svc_relalg::aggregate::{AggFunc, AggSpec};
    use svc_relalg::eval::Bindings;
    use svc_relalg::plan::JoinKind;
    use svc_relalg::scalar::{col, lit};
    use svc_storage::{DataType, Schema, Table, Value};

    fn db() -> Database {
        let mut db = Database::new();
        let mut video = Table::new(
            Schema::from_pairs(&[("videoId", DataType::Int), ("duration", DataType::Float)])
                .unwrap(),
            &["videoId"],
        )
        .unwrap();
        for v in 0..80i64 {
            video.insert(vec![Value::Int(v), Value::Float(0.5 + (v % 9) as f64)]).unwrap();
        }
        let mut log = Table::new(
            Schema::from_pairs(&[("sessionId", DataType::Int), ("videoId", DataType::Int)])
                .unwrap(),
            &["sessionId"],
        )
        .unwrap();
        for s in 0..2_000i64 {
            log.insert(vec![Value::Int(s), Value::Int((s * 13 + 7) % 80)]).unwrap();
        }
        db.create_table("video", video);
        db.create_table("log", log);
        db
    }

    fn visit_view() -> Plan {
        Plan::scan("log")
            .join(Plan::scan("video"), JoinKind::Inner, &[("videoId", "videoId")])
            .aggregate(
                &["videoId"],
                vec![
                    AggSpec::count_all("visits"),
                    AggSpec::new("avgDur", AggFunc::Avg, col("duration")),
                ],
            )
    }

    fn log_stream(db: &Database, n: i64) -> Deltas {
        let mut deltas = Deltas::new();
        for s in 2_000..2_000 + n {
            deltas.insert(db, "log", vec![Value::Int(s), Value::Int(s % 80)]).unwrap();
        }
        for s in 0..n / 10 {
            deltas.delete(db, "log", &[Value::Int(s * 7), Value::Null]).unwrap();
        }
        deltas
    }

    #[test]
    fn pipeline_matches_sequential_maintenance() {
        let db = db();
        let view = MaterializedView::create("v", visit_view(), &db).unwrap();
        let deltas = log_stream(&db, 600);
        let expected = view.recompute_fresh(&db, &deltas).unwrap();

        let pipeline = BatchPipeline::new(2);
        for batch_size in [97, 200, 1_000] {
            let mut v = view.clone();
            let run = pipeline.maintain(&db, &mut v, &deltas, batch_size).unwrap();
            assert!(
                v.table().approx_same_contents(&expected, 1e-9),
                "batch_size {batch_size}: pipeline diverged from recompute ({} vs {} rows)",
                v.len(),
                expected.len()
            );
            assert_eq!(run.records, deltas.len());
            assert_eq!(run.batches, deltas.len().div_ceil(batch_size));
            assert_eq!(run.fallback_batches, 0, "change-table path expected");
            assert!(run.plans_evaluated >= run.batches);
        }
    }

    /// Views outside the change-table class run as ONE fallback batch, and
    /// the pipeline (one pool task), plain `MaterializedView::maintain` and
    /// `recompute_fresh` all agree exactly.
    #[test]
    fn non_change_table_views_fall_back_to_sequential_plans() {
        use svc_workloads::conviva;
        let db = db();
        let mut video_deltas = Deltas::new();
        for v in 80..120i64 {
            video_deltas.insert(&db, "video", vec![Value::Int(v), Value::Float(3.0)]).unwrap();
        }
        let mut video_churn = video_deltas.clone();
        for v in (0..80i64).step_by(7) {
            video_churn.delete(&db, "video", &[Value::Int(v), Value::Null]).unwrap();
        }
        let cfg = conviva::ConvivaConfig { base_events: 2_000, ..Default::default() };
        let conviva_db = conviva::generate(cfg).unwrap();
        let v5 = conviva::views().into_iter().find(|v| v.id == "V5").unwrap().plan;

        let cases = [
            // Median never merges.
            (
                "median",
                &db,
                Plan::scan("video").aggregate(
                    &["videoId"],
                    vec![AggSpec::new("medDur", AggFunc::Median, col("duration"))],
                ),
                video_deltas,
            ),
            // Not an aggregate: delta-apply over the stale view.
            (
                "spj join",
                &db,
                Plan::scan("log")
                    .join(Plan::scan("video"), JoinKind::Inner, &[("videoId", "videoId")])
                    .select(col("duration").gt(lit(1.0))),
                log_stream(&db, 300),
            ),
            // Max merges under insertions only; the deletions rule it out.
            (
                "max under deletions",
                &db,
                Plan::scan("video").aggregate(
                    &["duration"],
                    vec![AggSpec::new("maxId", AggFunc::Max, col("videoId"))],
                ),
                video_churn,
            ),
            // Nested aggregate: no delta derivation.
            (
                "conviva V5",
                &conviva_db,
                v5,
                conviva::appended_updates(&conviva_db, cfg, 300, 7).unwrap(),
            ),
        ];
        for (label, db, def, deltas) in cases {
            let view = MaterializedView::create("v", def, db).unwrap();
            let expected = view.recompute_fresh(db, &deltas).unwrap();
            let mut ivm = view.clone();
            ivm.maintain(db, &deltas).unwrap();
            assert!(ivm.table().same_contents(&expected), "{label}: IVM diverged from recompute");
            let mut v = view.clone();
            let run = BatchPipeline::new(2).maintain(db, &mut v, &deltas, 10).unwrap();
            assert_eq!((run.batches, run.fallback_batches), (1, 1), "{label}");
            assert!(
                v.table().same_contents(ivm.table()),
                "{label}: pipeline diverged from MaterializedView::maintain"
            );
        }
    }

    #[test]
    fn multi_table_batches_stay_exact_via_single_chunk() {
        let db = db();
        let view = MaterializedView::create("v", visit_view(), &db).unwrap();
        // Touch both join sides in one delta set: the exactness guard must
        // serialize the chunking (cross-chunk join terms would be lost).
        let mut deltas = Deltas::new();
        for s in 2_000..2_200i64 {
            deltas.insert(&db, "log", vec![Value::Int(s), Value::Int(s % 90)]).unwrap();
        }
        for vid in 80..90i64 {
            deltas.insert(&db, "video", vec![Value::Int(vid), Value::Float(2.5)]).unwrap();
        }
        assert!(!chunk_parallel_exact(&view.canonical().plan, &deltas));
        let expected = view.recompute_fresh(&db, &deltas).unwrap();

        let pipeline = BatchPipeline::new(2);
        let mut v = view;
        let run = pipeline.maintain(&db, &mut v, &deltas, 1_000).unwrap();
        assert!(v.table().approx_same_contents(&expected, 1e-9));
        assert_eq!(run.plans_evaluated, run.batches, "one chunk per batch");
    }

    #[test]
    fn deltas_of_unrelated_tables_are_ignored_not_an_error() {
        // Regression (review finding): pending deltas for a table the view
        // never reads used to produce view-empty chunks and fail with
        // "delta chunk N is empty"; they must be scoped out instead.
        let mut db = db();
        let mut other = Table::new(
            Schema::from_pairs(&[("id", DataType::Int), ("v", DataType::Int)]).unwrap(),
            &["id"],
        )
        .unwrap();
        for i in 0..10i64 {
            other.insert(vec![Value::Int(i), Value::Int(i)]).unwrap();
        }
        db.create_table("other", other);

        let view = MaterializedView::create("v", visit_view(), &db).unwrap();
        let mut deltas = log_stream(&db, 30);
        for i in 100..140i64 {
            deltas.insert(&db, "other", vec![Value::Int(i), Value::Int(0)]).unwrap();
        }
        let expected = view.recompute_fresh(&db, &deltas).unwrap();

        let pipeline = BatchPipeline::new(3);
        let mut v = view;
        let run = pipeline.maintain(&db, &mut v, &deltas, 10).unwrap();
        assert!(v.table().approx_same_contents(&expected, 1e-9));
        let relevant = deltas.restricted_to(&["log", "video"]).len();
        assert_eq!(run.records, relevant, "throughput accounting scopes to the view's tables");

        // Only unrelated tables pending: a clean no-op.
        let mut unrelated = Deltas::new();
        unrelated.insert(&db, "other", vec![Value::Int(999), Value::Int(1)]).unwrap();
        let before = v.table().clone();
        let run = pipeline.maintain(&db, &mut v, &unrelated, 10).unwrap();
        assert_eq!(run.records, 0);
        assert_eq!(run.batches, 0);
        assert!(v.table().same_contents(&before));
    }

    #[test]
    fn change_plan_compiles_once_per_delta_signature() {
        let db = db();
        let view = MaterializedView::create("v", visit_view(), &db).unwrap();
        // Insert-only stream: every chunk of every batch has the same delta
        // signature, so one compiled pair (γ(∆) alone here) serves them all.
        let mut deltas = Deltas::new();
        for s in 2_000..2_400i64 {
            deltas.insert(&db, "log", vec![Value::Int(s), Value::Int(s % 80)]).unwrap();
        }
        let mut pipeline = BatchPipeline::new(2);
        let mut v = view.clone();
        let run = pipeline.maintain(&db, &mut v, &deltas, 50).unwrap();
        assert_eq!((run.batches, run.plans_evaluated), (8, 32), "8 batches x 4 chunks");
        assert_eq!(pipeline.metrics().compiles, 1, "one signature, one compile across 32 runs");

        // A second maintenance pass with the same shape replays the cache.
        let mut v2 = view.clone();
        pipeline.maintain(&db, &mut v2, &deltas, 50).unwrap();
        assert_eq!(pipeline.metrics().compiles, 1, "identical stream must not recompile");

        // So does a repartition: chunks bind their deltas under the same
        // leaf names however many of them a batch splits into.
        pipeline.partitions = 3;
        let mut v3 = view.clone();
        pipeline.maintain(&db, &mut v3, &deltas, 60).unwrap();
        assert_eq!(pipeline.metrics().compiles, 1, "repartition must replay the same plan");
        let expected = view.recompute_fresh(&db, &deltas).unwrap();
        assert!(v3.table().approx_same_contents(&expected, 1e-9));
        assert!(v.table().approx_same_contents(&expected, 1e-9));
        assert!(v2.table().approx_same_contents(&expected, 1e-9));
    }

    /// Chunks of one batch may carry different delta signatures: each
    /// distinct signature compiles its own pair of plans — one cache entry,
    /// one `compiles` tick, γ(∇) present only where the signature has
    /// deletions — every chunk runs under the pair of its signature, and the
    /// fold is still the exact view.
    #[test]
    fn mixed_signature_chunks_compile_one_plan_each() {
        let db = db();
        let view = MaterializedView::create("v", visit_view(), &db).unwrap();
        // 40 insertions and a single deletion over 4 chunks: exactly one
        // chunk carries the deletion, the others are insert-only.
        let mut deltas = Deltas::new();
        for s in 2_000..2_040i64 {
            deltas.insert(&db, "log", vec![Value::Int(s), Value::Int(s % 80)]).unwrap();
        }
        deltas.delete(&db, "log", &[Value::Int(7), Value::Null]).unwrap();
        let mut signatures: Vec<DeltaInfo> = Vec::new();
        for info in deltas.clone().partition(4).iter().map(DeltaInfo::of) {
            if !signatures.contains(&info) {
                signatures.push(info);
            }
        }
        assert_eq!(signatures.len(), 2, "setup: an insert-only chunk and one with the deletion");

        let pipeline = BatchPipeline::new(2);
        let mut v = view.clone();
        let run = pipeline.maintain(&db, &mut v, &deltas, 1_000).unwrap();
        assert_eq!((run.batches, run.plans_evaluated), (1, 4));
        let m = pipeline.metrics();
        assert_eq!(
            (m.compiles, m.cache_misses, m.cache_hits),
            (2, 2, 0),
            "one lookup per signature"
        );
        assert_eq!(view.plan_metrics().entries, 2, "one entry per signature, on the view");
        let mut sides: Vec<(bool, bool)> = (signatures.iter())
            .map(|info| match &view.cached_delta_plan(&db, info).unwrap().delta {
                ViewDelta::Keyed { change, .. } => (change.ins.is_some(), change.del.is_some()),
                other => panic!("a change-table pair, not {:?}", other.kind()),
            })
            .collect();
        sides.sort();
        assert_eq!(sides, [(true, false), (true, true)], "each entry a pair");
        let expected = view.recompute_fresh(&db, &deltas).unwrap();
        assert!(v.table().approx_same_contents(&expected, 1e-9));
    }

    /// Two pipelines share one `WorkerPool` and maintain disjoint views
    /// from concurrent driver threads: the shared queue interleaves their
    /// tasks (chunk plans from one, the fallback task from the other) and
    /// both converge to the `recompute_fresh` ground truth.
    #[test]
    fn concurrent_pipelines_on_a_shared_pool_both_converge() {
        let db = db();
        let pool = Arc::new(WorkerPool::new(2));
        let p1 = BatchPipeline::on_pool(pool.clone());
        let p2 = BatchPipeline::on_pool(pool);

        let v1 = MaterializedView::create("v1", visit_view(), &db).unwrap();
        // Median never merges: v2 exercises the fallback maintenance plan.
        let v2def = Plan::scan("video").aggregate(
            &["videoId"],
            vec![AggSpec::new("medDur", svc_relalg::aggregate::AggFunc::Median, col("duration"))],
        );
        let v2 = MaterializedView::create("v2", v2def, &db).unwrap();

        let d1 = log_stream(&db, 600);
        let mut d2 = Deltas::new();
        for vid in 80..140i64 {
            d2.insert(&db, "video", vec![Value::Int(vid), Value::Float(1.0 + (vid % 7) as f64)])
                .unwrap();
        }
        let e1 = v1.recompute_fresh(&db, &d1).unwrap();
        let e2 = v2.recompute_fresh(&db, &d2).unwrap();

        std::thread::scope(|s| {
            let h1 = s.spawn(|| {
                let mut v = v1.clone();
                p1.maintain(&db, &mut v, &d1, 40).map(|run| (v, run))
            });
            let h2 = s.spawn(|| {
                let mut v = v2.clone();
                p2.maintain(&db, &mut v, &d2, 40).map(|run| (v, run))
            });
            let (m1, run1) = h1.join().expect("pipeline 1 panicked").unwrap();
            let (m2, run2) = h2.join().expect("pipeline 2 panicked").unwrap();
            assert!(m1.table().approx_same_contents(&e1, 1e-9), "pipeline 1 diverged");
            assert!(m2.table().approx_same_contents(&e2, 1e-9), "pipeline 2 diverged");
            assert!(run1.batches > 1, "pipeline 1 actually mini-batched");
            assert_eq!(run2.fallback_batches, run2.batches, "pipeline 2 took the fallback");
        });
    }

    /// An error (or worker panic) inside one pipeline's plans must not
    /// corrupt or deadlock a concurrent pipeline on the same pool —
    /// extending the PR 2 error-path tests to the shared-queue world.
    #[test]
    fn failure_in_one_pipeline_leaves_the_other_exact() {
        let db = db();
        let pool = Arc::new(WorkerPool::new(2));
        let healthy = BatchPipeline::on_pool(pool.clone());
        let view = MaterializedView::create("v", visit_view(), &db).unwrap();
        let deltas = log_stream(&db, 500);
        let expected = view.recompute_fresh(&db, &deltas).unwrap();

        std::thread::scope(|s| {
            let pool_err = pool.clone();
            let broken = s.spawn(move || {
                // A doomed batch: missing leaf (error path) …
                let b = Bindings::new();
                let err = pool_err
                    .run_batch(1, |_| svc_relalg::eval::evaluate(&Plan::scan("missing"), &b));
                // … and a panicking session (panic path).
                let panicked = pool_err.submit(6, &|i, _w| {
                    if i == 2 {
                        panic!("injected task panic");
                    }
                });
                (err, panicked)
            });
            let maintained = s.spawn(|| {
                let mut v = view.clone();
                healthy.maintain(&db, &mut v, &deltas, 60).map(|_| v)
            });
            let (err, panicked) = broken.join().expect("broken thread must not unwind");
            assert!(err.is_err(), "missing leaf must error");
            assert!(panicked.is_err(), "panicked session must error");
            let v = maintained.join().expect("healthy pipeline panicked").unwrap();
            assert!(
                v.table().approx_same_contents(&expected, 1e-9),
                "the healthy pipeline must stay exact despite the sick neighbor"
            );
        });
        // The pool survives both failures for the next maintenance round.
        let mut v = view;
        healthy.maintain(&db, &mut v, &deltas, 60).unwrap();
        assert!(v.table().approx_same_contents(&expected, 1e-9));
    }

    /// A non-change-table view over the join: median never merges, so it
    /// takes the fallback plan.
    fn median_join_view() -> Plan {
        Plan::scan("log")
            .join(Plan::scan("video"), JoinKind::Inner, &[("videoId", "videoId")])
            .aggregate(&["videoId"], vec![AggSpec::new("med", AggFunc::Median, col("duration"))])
    }

    /// The pool's size changes scheduling only, never results: the change
    /// path and the fallback task land the same table on one, two or three
    /// workers.
    #[test]
    fn worker_count_is_result_invariant() {
        let db = db();
        let deltas = log_stream(&db, 400);
        for def in [visit_view(), median_join_view()] {
            let view = MaterializedView::create("v", def, &db).unwrap();
            let expected = view.recompute_fresh(&db, &deltas).unwrap();
            let mut first: Option<Table> = None;
            for workers in [1, 2, 3] {
                let mut v = view.clone();
                BatchPipeline::new(workers).maintain(&db, &mut v, &deltas, 80).unwrap();
                assert!(v.table().approx_same_contents(&expected, 1e-9), "{workers} workers");
                let first = first.get_or_insert_with(|| v.table().clone());
                assert!(v.table().same_contents(first), "{workers} workers changed the result");
            }
        }
    }

    /// Cost shape of the fallback: a pending set that is not chunk-additive
    /// runs the delta runner once, as one task of one pool session, however
    /// small the batch size.
    #[test]
    fn a_fallback_batch_is_one_pool_task() {
        let db = db();
        let view = MaterializedView::create("m", median_join_view(), &db).unwrap();
        let deltas = log_stream(&db, 300);
        let pipeline = BatchPipeline::new(2);
        let before = pipeline.pool.metrics();
        let mut v = view.clone();
        let run = pipeline.maintain(&db, &mut v, &deltas, 40).unwrap();
        let after = pipeline.pool.metrics();
        assert_eq!((run.batches, run.fallback_batches, run.plans_evaluated), (1, 1, 1));
        assert_eq!((after.sessions - before.sessions, after.tasks - before.tasks), (1, 1));
        assert!(v.table().approx_same_contents(&view.recompute_fresh(&db, &deltas).unwrap(), 1e-9));
    }

    /// Cost shape of the change-table path: however many mini-batches a
    /// `maintain` call runs over a big view, the driver copies the view
    /// exactly once (the shadow) — every fold touches only the groups its
    /// change table names — while `folds` keeps counting change tables and
    /// `fold_ns` keeps timing them. Chunking and pool size never change the
    /// result (measures are exactly summable, so equality is exact).
    #[test]
    fn maintain_clones_the_view_once_however_many_batches_fold() {
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
        for id in 0..60_000i64 {
            events
                .insert(vec![
                    Value::Int(id),
                    Value::Int(id % 20_000),
                    Value::Float(0.25 * (id % 17) as f64),
                ])
                .unwrap();
        }
        db.create_table("events", events);
        let def = Plan::scan("events").aggregate(
            &["grp"],
            vec![AggSpec::count_all("n"), AggSpec::new("avgX", AggFunc::Avg, col("x"))],
        );
        let view = MaterializedView::create("big", def, &db).unwrap();
        assert!(view.len() >= 20_000);

        // New rows for old and new groups, scattered deletions, and group
        // 7000 deleted to zero.
        let mut deltas = Deltas::new();
        for id in 60_000..60_500i64 {
            deltas
                .insert(
                    &db,
                    "events",
                    vec![Value::Int(id), Value::Int(id % 20_100), Value::Float(1.75)],
                )
                .unwrap();
        }
        for id in (0..90i64).map(|i| i * 601).chain([7_000, 27_000, 47_000]) {
            deltas.delete(&db, "events", &[Value::Int(id), Value::Null, Value::Null]).unwrap();
        }
        let expected = view.recompute_fresh(&db, &deltas).unwrap();
        assert!(expected.get(&svc_storage::KeyTuple(vec![Value::Int(7_000)])).is_none());

        let mut first: Option<Table> = None;
        for workers in [1, 2] {
            for partitions in [1, 4, 8] {
                for batch_size in [25, 300] {
                    let mut pipeline = BatchPipeline::new(workers);
                    pipeline.partitions = partitions;
                    let mut v = view.clone();
                    let clones_before = Table::clone_count();
                    let run = pipeline.maintain(&db, &mut v, &deltas, batch_size).unwrap();
                    let clones = Table::clone_count() - clones_before;
                    let label = format!("{workers}w/{partitions}p/batch {batch_size}");
                    assert_eq!(run.batches, deltas.len().div_ceil(batch_size), "{label}");
                    // The shadow, plus the insertion and deletion tables of
                    // the one touched base table (`Deltas::restricted_to`
                    // copies the pending set) — none of it per batch.
                    assert_eq!(clones, 1 + 2, "{label}: driver-side table clones");
                    let m = pipeline.metrics();
                    assert_eq!(m.folds as usize, run.plans_evaluated, "{label}: folds");
                    assert!(m.folds as usize >= run.batches && m.fold_ns > 0, "{label}");
                    assert!(v.table().approx_same_contents(&expected, 1e-9), "{label}");
                    let first = first.get_or_insert_with(|| v.table().clone());
                    assert!(v.table().same_contents(first), "{label}: result depends on chunking");
                }
            }
        }
    }

    #[test]
    fn zero_batch_size_is_rejected() {
        let db = db();
        let mut view = MaterializedView::create("v", visit_view(), &db).unwrap();
        let pipeline = BatchPipeline::new(2);
        let err = pipeline.maintain(&db, &mut view, &Deltas::new(), 0);
        assert!(matches!(err, Err(StorageError::Invalid(_))));
    }

    #[test]
    fn empty_deltas_are_a_noop() {
        let db = db();
        let mut view = MaterializedView::create("v", visit_view(), &db).unwrap();
        let before = view.table().clone();
        let pipeline = BatchPipeline::new(2);
        let run = pipeline.maintain(&db, &mut view, &Deltas::new(), 100).unwrap();
        assert_eq!(run.batches, 0);
        assert!(view.table().same_contents(&before));
    }

    #[test]
    fn short_final_batches_skip_empty_partitions() {
        let db = db();
        let view = MaterializedView::create("v", visit_view(), &db).unwrap();
        // 5 records over a pipeline with 8 partitions: at most 5 plans.
        let deltas = log_stream(&db, 5);
        let pipeline = BatchPipeline::new(4);
        let mut v = view.clone();
        let run = pipeline.maintain(&db, &mut v, &deltas, 1_000).unwrap();
        assert_eq!(run.batches, 1);
        assert!(
            run.plans_evaluated <= deltas.len(),
            "empty partitions must not spawn plans: {} plans for {} records",
            run.plans_evaluated,
            deltas.len()
        );
        let expected = view.recompute_fresh(&db, &deltas).unwrap();
        assert!(v.table().approx_same_contents(&expected, 1e-9));
    }

    /// Figure 14's amortization in counts, not seconds: the same 4 000
    /// records at growing batch sizes run fewer batches and evaluate fewer
    /// plans (the per-batch driver work that small batches pay), off one
    /// compiled plan, to the identical view.
    #[test]
    fn larger_batches_amortize_per_batch_work() {
        let db = db();
        let view = MaterializedView::create("v", visit_view(), &db).unwrap();
        // Insert-only: every chunk has the same delta signature.
        let mut deltas = Deltas::new();
        for s in 2_000..6_000i64 {
            deltas.insert(&db, "log", vec![Value::Int(s), Value::Int(s % 80)]).unwrap();
        }
        let expected = view.recompute_fresh(&db, &deltas).unwrap();
        let pipeline = BatchPipeline::new(2);

        let mut plans_before = usize::MAX;
        let mut first: Option<Table> = None;
        for batch_size in [250, 1_000, 4_000] {
            let mut v = view.clone();
            let run = pipeline.maintain(&db, &mut v, &deltas, batch_size).unwrap();
            assert_eq!(run.batches, 4_000usize.div_ceil(batch_size));
            assert!(
                run.plans_evaluated < plans_before,
                "batch {batch_size}: {} plans, not fewer than {plans_before}",
                run.plans_evaluated
            );
            plans_before = run.plans_evaluated;
            assert!(v.table().approx_same_contents(&expected, 1e-9));
            let first = first.get_or_insert_with(|| v.table().clone());
            assert!(v.table().same_contents(first), "result depends on the batch size");
        }
        assert_eq!(pipeline.metrics().compiles, 1, "one delta signature, one compile");
    }

    /// A panic while the view's plan cache is held must not wedge the
    /// pipeline forever: the poisoned contents are dropped and maintenance
    /// proceeds.
    #[test]
    fn poisoned_compile_cache_recovers() {
        let db = db();
        let view = MaterializedView::create("v", visit_view(), &db).unwrap();
        let deltas = log_stream(&db, 400);
        let expected = view.recompute_fresh(&db, &deltas).unwrap();

        let pipeline = BatchPipeline::new(2);
        // Warm the cache, then poison it: a thread panics mid-critical-section.
        let mut v = view.clone();
        pipeline.maintain(&db, &mut v, &deltas, 200).unwrap();
        let warm = view.plan_metrics();
        assert!(warm.entries > 0, "setup: the cache is warm");
        view.poison_plan_cache();
        assert_eq!(view.plan_metrics().entries, 0, "setup: cache should be poisoned");

        let mut v = view.clone();
        let run = pipeline.maintain(&db, &mut v, &deltas, 200).unwrap();
        assert!(v.table().approx_same_contents(&expected, 1e-9));
        assert!(run.batches > 0);
        assert!(view.plan_metrics().entries > 0, "poison must be cleared, not just bypassed");
        let m = pipeline.metrics();
        assert_eq!(m.cache_poisons, 1, "recovery should be counted exactly once");
        // The poisoned entries were dropped, so this maintain recompiled.
        assert!(m.cache_misses >= 2);
        assert!(view.plan_metrics().built > warm.built);
    }

    /// The pipeline reads the one plan cache the delta runner fills: after
    /// `MaterializedView::maintain` planned a signature, a pipeline on a
    /// clone of the view compiles nothing and counts hits only.
    #[test]
    fn a_warm_view_costs_the_pipeline_no_compile() {
        let db = db();
        let view = MaterializedView::create("v", visit_view(), &db).unwrap();
        let mut deltas = Deltas::new();
        for s in 2_000..2_300i64 {
            deltas.insert(&db, "log", vec![Value::Int(s), Value::Int(s % 80)]).unwrap();
        }
        view.clone().maintain(&db, &deltas).unwrap();
        let pipeline = BatchPipeline::new(2);
        let mut v = view.clone();
        let optimizes = svc_relalg::optimizer::optimize_count();
        let run = pipeline.maintain(&db, &mut v, &deltas, 100).unwrap();
        // The verifier rebuilds every hit to prove it.
        if !svc_relalg::verify::ENABLED {
            assert_eq!(svc_relalg::optimizer::optimize_count(), optimizes, "no optimizer run");
        }
        let m = pipeline.metrics();
        assert_eq!((m.compiles, m.cache_misses), (0, 0), "a warm view compiles nothing");
        assert_eq!(m.cache_hits as usize, run.batches, "one hit per batch: one signature");
        assert!(v.table().approx_same_contents(&view.recompute_fresh(&db, &deltas).unwrap(), 1e-9));
    }
}
