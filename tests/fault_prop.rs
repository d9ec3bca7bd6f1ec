//! Chaos property harness: randomized failure schedules against the
//! mini-batch maintenance pipeline (`--features failpoints` only).
//!
//! For hundreds of seeded failure schedules — injected errors and panics at
//! table mutation, pool dispatch, batch compile / evaluate / fold, and the
//! fallback plan — maintenance either commits a result bit-identical to the
//! failure-free run or leaves the view at its pre-maintain epoch with every
//! delta unconsumed, and a clean re-run (or
//! quarantine recovery) always converges back to the failure-free state.
//! The base seed comes from `SVC_CHAOS_SEED` (default 0), so CI can sweep
//! distinct schedule families while any failure stays reproducible from
//! the seed printed in its assertion message.
//!
//! Float discipline: every measure in the workload is a multiple of 0.25,
//! so sums are exact in f64 and fold order cannot perturb low bits —
//! "bit-identical" is a meaningful cross-run claim, checked with
//! `Table::same_contents` (exact, order-insensitive), not an epsilon.
#![cfg(feature = "failpoints")]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard, Once, PoisonError};

use stale_view_cleaning::cluster::minibatch::{BatchPipeline, FailurePolicy};
use stale_view_cleaning::fault::{self, site, FailAction, FailSpec};
use stale_view_cleaning::ivm::view::MaterializedView;
use stale_view_cleaning::relalg::aggregate::{AggFunc, AggSpec};
use stale_view_cleaning::relalg::plan::{JoinKind, Plan};
use stale_view_cleaning::relalg::scalar::col;
use stale_view_cleaning::storage::{DataType, Database, Deltas, Schema, Table, Value};

/// The failpoint registry is process-global: every chaos test serializes
/// on this lock and clears the registry on entry and exit.
static CHAOS: Mutex<()> = Mutex::new(());

struct ChaosGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

impl Drop for ChaosGuard {
    fn drop(&mut self) {
        fault::clear_all();
    }
}

/// Take the chaos lock, clear stale schedules, and silence the panic hook
/// for injected panics (hundreds of expected unwinds would otherwise bury
/// real failures in backtrace noise).
fn chaos_guard() -> ChaosGuard {
    static QUIET: Once = Once::new();
    QUIET.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .is_some_and(|m| m.contains("failpoint"));
            if !injected {
                default_hook(info);
            }
        }));
    });
    let g = CHAOS.lock().unwrap_or_else(PoisonError::into_inner);
    fault::clear_all();
    ChaosGuard(g)
}

/// Base seed for the schedule sweep, so CI can run disjoint families.
fn base_seed() -> u64 {
    std::env::var("SVC_CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0)
}

fn chaos_db() -> Database {
    let mut db = Database::new();
    let mut video = Table::new(
        Schema::from_pairs(&[("videoId", DataType::Int), ("duration", DataType::Float)]).unwrap(),
        &["videoId"],
    )
    .unwrap();
    for v in 0..64i64 {
        // Multiples of 0.25: exactly representable, order-proof sums.
        video.insert(vec![Value::Int(v), Value::Float(0.25 * (1 + v % 13) as f64)]).unwrap();
    }
    let mut log = Table::new(
        Schema::from_pairs(&[("sessionId", DataType::Int), ("videoId", DataType::Int)]).unwrap(),
        &["sessionId"],
    )
    .unwrap();
    for s in 0..1_200i64 {
        log.insert(vec![Value::Int(s), Value::Int((s * 13 + 7) % 64)]).unwrap();
    }
    db.create_table("video", video);
    db.create_table("log", log);
    db
}

/// Change-table-eligible view: join + count/avg aggregate.
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

/// Median is outside the change-table class: exercises the fallback plan.
fn median_view() -> Plan {
    Plan::scan("video")
        .aggregate(&["videoId"], vec![AggSpec::new("medDur", AggFunc::Median, col("duration"))])
}

fn log_stream(db: &Database, n: i64) -> Deltas {
    let mut deltas = Deltas::new();
    for s in 1_200..1_200 + n {
        deltas.insert(db, "log", vec![Value::Int(s), Value::Int(s % 64)]).unwrap();
    }
    for s in 0..n / 10 {
        deltas.delete(db, "log", &[Value::Int(s * 7), Value::Null]).unwrap();
    }
    deltas
}

fn video_stream(db: &Database, n: i64) -> Deltas {
    let mut deltas = Deltas::new();
    for v in 64..64 + n {
        deltas
            .insert(db, "video", vec![Value::Int(v), Value::Float(0.25 * (v % 9) as f64)])
            .unwrap();
    }
    deltas
}

const BATCH: usize = 97;

/// The failure-free pipeline result (registry cleared first) — the
/// bit-identical convergence target for every seeded run.
fn baseline(db: &Database, view: &MaterializedView, deltas: &Deltas) -> Table {
    fault::clear_all();
    let pipeline = BatchPipeline::new(2);
    let mut v = view.clone();
    pipeline.maintain(db, &mut v, deltas, BATCH).expect("failure-free baseline run");
    v.table().clone()
}

/// Sites a change-table maintain pass actually visits.
const MAINTAIN_SITES: [&str; 5] = [
    site::TABLE_MUTATE,
    site::POOL_DISPATCH,
    site::BATCH_COMPILE,
    site::BATCH_EVALUATE,
    site::BATCH_FOLD,
];

/// Strict policy, ~140 seeds: every schedule either leaves the run
/// unscathed (bit-identical to baseline, epoch bumped once) or fails it
/// atomically (view bit-identical to its pre-maintain table, epoch
/// unchanged, deltas unconsumed) — and a clean re-run on the same pipeline
/// and pool always converges to the baseline.
#[test]
fn strict_runs_fail_atomically_and_converge() {
    let _g = chaos_guard();
    let db = chaos_db();
    let view = MaterializedView::create("v", visit_view(), &db).unwrap();
    let deltas = log_stream(&db, 600);
    let expected = baseline(&db, &view, &deltas);

    let base = base_seed();
    let mut injected_runs = 0u64;
    for i in 0..140u64 {
        let seed = base.wrapping_mul(1_000_003).wrapping_add(i);
        let schedule = fault::seeded_schedule(seed, &MAINTAIN_SITES, 48);

        let pipeline = BatchPipeline::new(2);
        let mut v = view.clone();
        let pre_epoch = v.epoch();
        let pre_table = v.table().clone();

        fault::apply_schedule(&schedule);
        let fires_before = fault::fires_total();
        let outcome =
            catch_unwind(AssertUnwindSafe(|| pipeline.maintain(&db, &mut v, &deltas, BATCH)));
        let fired = fault::fires_total() - fires_before;
        fault::clear_all();
        injected_runs += u64::from(fired > 0);

        match outcome {
            Ok(Ok(run)) => {
                assert_eq!(run.quarantined, 0, "seed {seed}: strict policy cannot quarantine");
                assert!(
                    v.table().same_contents(&expected),
                    "seed {seed} ({schedule:?}): Ok run diverged from failure-free baseline"
                );
                assert_eq!(v.epoch(), pre_epoch + 1, "seed {seed}: exactly one commit");
            }
            Ok(Err(e)) => {
                assert!(
                    e.to_string().contains("failpoint"),
                    "seed {seed} ({schedule:?}): non-injected error: {e}"
                );
                assert!(
                    v.table().same_contents(&pre_table),
                    "seed {seed} ({schedule:?}): failed run exposed a partial fold"
                );
                assert_eq!(v.epoch(), pre_epoch, "seed {seed}: failed run must not commit");
            }
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                    .unwrap_or_default();
                assert!(msg.contains("failpoint"), "seed {seed}: non-injected panic: {msg}");
                assert!(
                    v.table().same_contents(&pre_table),
                    "seed {seed} ({schedule:?}): unwound run exposed a partial fold"
                );
                assert_eq!(v.epoch(), pre_epoch, "seed {seed}: unwound run must not commit");
            }
        }

        // Clean re-run on the same pipeline and pool: deltas were never
        // consumed, so maintenance must now converge bit-identically.
        if v.epoch() == pre_epoch {
            pipeline.maintain(&db, &mut v, &deltas, BATCH).unwrap_or_else(|e| {
                panic!("seed {seed}: clean re-run failed after injected failure: {e}")
            });
            assert!(
                v.table().same_contents(&expected),
                "seed {seed} ({schedule:?}): clean re-run diverged from baseline"
            );
        }
        let pm = pipeline.pool.metrics();
        assert_eq!(pm.queue_depth, 0, "seed {seed}: pool queue left non-empty");
    }
    assert!(
        injected_runs >= 40,
        "only {injected_runs}/140 schedules actually fired — sweep is toothless"
    );
}

/// Retry/quarantine policy, ~60 seeds (half seeded schedules, half forced
/// persistent failures): transient failures retry and still land the
/// baseline; persistent ones quarantine exactly their batch while the
/// pipeline keeps folding healthy batches, and both recovery paths
/// (re-driving the dead-letter queue, fallback recompute) converge.
#[test]
fn retry_quarantine_degrades_gracefully_and_recovers() {
    let _g = chaos_guard();
    let db = chaos_db();
    let view = MaterializedView::create("v", visit_view(), &db).unwrap();
    let deltas = log_stream(&db, 600);
    let expected = baseline(&db, &view, &deltas);
    let fresh_expected = view.recompute_fresh(&db, &deltas).unwrap();
    let n_batches = deltas.len().div_ceil(BATCH);

    let base = base_seed();
    let mut quarantined_runs = 0u64;
    for i in 0..60u64 {
        let seed = base.wrapping_mul(7_777_777).wrapping_add(1_000 + i);
        let pipeline =
            BatchPipeline::new(2).with_policy(FailurePolicy::RetryQuarantine { retries: 1 });
        let mut v = view.clone();

        let forced = i % 2 == 1;
        if forced {
            // Persistent failure: exactly two fires (= attempts per batch),
            // so one batch exhausts its retries and quarantines while every
            // other batch passes.
            fault::set(
                site::BATCH_EVALUATE,
                FailSpec {
                    skip: seed % n_batches as u64,
                    count: 2,
                    action: if seed & 2 == 0 { FailAction::Error } else { FailAction::Panic },
                },
            );
        } else {
            fault::apply_schedule(&fault::seeded_schedule(seed, &MAINTAIN_SITES, 48));
        }
        let outcome =
            catch_unwind(AssertUnwindSafe(|| pipeline.maintain(&db, &mut v, &deltas, BATCH)));
        fault::clear_all();
        let run = match outcome {
            Ok(result) => result.unwrap_or_else(|e| {
                panic!("seed {seed}: retry policy must not error maintain: {e}")
            }),
            Err(payload) => {
                // Retries only cover batch attempts: a Panic-action site
                // hit on the driver *between* batches (e.g. table mutation
                // during delta partitioning) still unwinds — and the shadow
                // fold still guarantees atomicity. Check rollback, then
                // converge on a clean re-run and move on.
                assert!(!forced, "seed {seed}: forced schedule fires only inside a batch");
                let msg = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                    .unwrap_or_default();
                assert!(msg.contains("failpoint"), "seed {seed}: non-injected panic: {msg}");
                assert_eq!(v.epoch(), view.epoch(), "seed {seed}: unwound run must not commit");
                assert!(v.table().same_contents(view.table()), "seed {seed}: partial fold");
                pipeline.maintain(&db, &mut v, &deltas, BATCH).unwrap();
                assert!(v.table().same_contents(&expected), "seed {seed}: re-run diverged");
                continue;
            }
        };

        assert_eq!(run.batches, n_batches, "seed {seed}: every batch must be driven");
        if run.quarantined == 0 {
            assert!(
                v.table().same_contents(&expected),
                "seed {seed}: retried run diverged from failure-free baseline"
            );
            assert!(!v.is_dirty(), "seed {seed}: clean run left the view dirty");
            continue;
        }

        quarantined_runs += 1;
        assert!(v.is_dirty(), "seed {seed}: quarantine must mark the view dirty");
        assert!(forced || run.retries > 0, "seed {seed}: quarantine without retry attempts");
        let q = pipeline.quarantined();
        assert_eq!(q.len(), run.quarantined, "seed {seed}: queue/counter mismatch");
        assert!(
            q.iter().all(|e| e.error.contains("failpoint") && e.attempts == 2 && e.view == "v"),
            "seed {seed}: bad quarantine diagnosis: {q:?}"
        );
        if forced {
            assert_eq!(run.quarantined, 1, "seed {seed}: forced schedule hits one batch");
            assert!(
                !v.table().same_contents(&expected) || v.epoch() == view.epoch(),
                "seed {seed}: a quarantined batch cannot already be folded"
            );
        }

        if seed.is_multiple_of(2) {
            // Recovery arm A: re-drive the dead-letter queue (clean registry).
            let recovered = pipeline
                .retry_quarantined(&db, &mut v, BATCH)
                .unwrap_or_else(|e| panic!("seed {seed}: retry_quarantined failed: {e}"));
            assert_eq!(recovered, run.quarantined, "seed {seed}: every batch must recover");
            assert!(
                v.table().same_contents(&expected),
                "seed {seed}: late re-fold diverged from failure-free baseline"
            );
        } else {
            // Recovery arm B: fallback recompute over base ⊎ all deltas.
            pipeline
                .recover_via_recompute(&db, &mut v, &deltas)
                .unwrap_or_else(|e| panic!("seed {seed}: recompute recovery failed: {e}"));
            assert!(
                v.table().same_contents(&fresh_expected),
                "seed {seed}: recompute recovery diverged from ground truth"
            );
        }
        assert!(pipeline.quarantined().is_empty(), "seed {seed}: queue must drain");
        assert!(!v.is_dirty(), "seed {seed}: recovered view must be clean");
    }
    assert!(quarantined_runs >= 30, "only {quarantined_runs}/60 runs quarantined");
}

/// Dispatch panic storms, ~24 seeds: repeated injected panics in the
/// pool's task dispatch surface as session errors, never dead workers —
/// the same pipeline keeps maintaining afterwards, with the panic gauge
/// counting every storm.
#[test]
fn dispatch_panic_storms_leave_the_pool_maintaining() {
    let _g = chaos_guard();
    let db = chaos_db();
    let view = MaterializedView::create("v", visit_view(), &db).unwrap();
    let deltas = log_stream(&db, 400);
    let expected = baseline(&db, &view, &deltas);

    let base = base_seed();
    let pipeline = BatchPipeline::new(2);
    let mut storms = 0u64;
    for i in 0..24u64 {
        let seed = base.wrapping_mul(31).wrapping_add(i);
        fault::set(
            site::POOL_DISPATCH,
            // ~24 dispatch hits per maintain at this workload: keep the
            // skip inside that window so most storms actually land.
            FailSpec { skip: seed % 16, count: 1 + seed % 3, action: FailAction::Panic },
        );
        let panics_before = pipeline.pool.metrics().panics;
        let mut v = view.clone();
        let outcome = pipeline.maintain(&db, &mut v, &deltas, BATCH);
        let fired = fault::fired(site::POOL_DISPATCH);
        fault::clear_all();

        let panicked = pipeline.pool.metrics().panics - panics_before;
        assert_eq!(panicked, fired, "seed {seed}: every injected panic must be caught");
        match outcome {
            Ok(_) => assert!(
                v.table().same_contents(&expected),
                "seed {seed}: Ok maintain diverged under dispatch storm"
            ),
            Err(e) => {
                storms += 1;
                assert!(e.to_string().contains("panic"), "seed {seed}: unexpected error: {e}");
                assert!(v.table().same_contents(view.table()), "seed {seed}: partial commit");
            }
        }
        // The same pool must still maintain cleanly.
        let mut v = view.clone();
        pipeline.maintain(&db, &mut v, &deltas, BATCH).unwrap();
        assert!(v.table().same_contents(&expected), "seed {seed}: pool broken after storm");
    }
    assert!(storms >= 8, "only {storms}/24 storms actually failed a run");
}

/// Satellite regression: a failure in a late batch's fold must roll the
/// view back to its pre-maintain epoch — earlier shadow folds must never
/// have been committed — and the error must name the failing batch.
#[test]
fn partial_fold_failure_rolls_back_and_names_the_batch() {
    let _g = chaos_guard();
    let db = chaos_db();
    let view = MaterializedView::create("v", visit_view(), &db).unwrap();
    let deltas = log_stream(&db, 600);
    let expected = baseline(&db, &view, &deltas);

    let pipeline = BatchPipeline::new(2);
    let mut v = view.clone();
    // Let several folds succeed first, then fail one mid-run: the old
    // per-batch commit would have exposed exactly those early folds.
    fault::set(site::BATCH_FOLD, FailSpec { skip: 5, count: 1, action: FailAction::Error });
    let err = pipeline.maintain(&db, &mut v, &deltas, BATCH).expect_err("fold failure must abort");
    fault::clear_all();
    let msg = err.to_string();
    assert!(msg.contains("mini-batch") && msg.contains("deltas unconsumed"), "got: {msg}");
    assert!(msg.contains("failpoint"), "diagnosis must carry the cause: {msg}");
    assert_eq!(v.epoch(), view.epoch(), "failed maintain must not bump the epoch");
    assert!(v.table().same_contents(view.table()), "partial fold exposed");

    // Nothing was consumed: the same call now lands the baseline.
    pipeline.maintain(&db, &mut v, &deltas, BATCH).unwrap();
    assert!(v.table().same_contents(&expected));
}

/// Satellite regression: a `BATCH_FOLD` failure *inside* a batch — after at
/// least one of its change tables was already staged — must leave the
/// shadow exactly as the batch found it. Observable two ways: a retried
/// batch converges bit-identically to the failure-free baseline (a leaked
/// edit would be applied twice), and a quarantined batch stays out until it
/// is re-folded, after which the view is the baseline again. The site is
/// still passed once per change table.
#[test]
fn mid_batch_fold_failure_leaves_the_shadow_untouched() {
    let _g = chaos_guard();
    let db = chaos_db();
    let view = MaterializedView::create("v", visit_view(), &db).unwrap();
    let deltas = log_stream(&db, 600);
    let expected = baseline(&db, &view, &deltas);

    // Shape of a clean run: change tables per batch and in total.
    let clean = BatchPipeline::new(2);
    let per_batch = clean.partitions as u64;
    let tables = clean.maintain(&db, &mut view.clone(), &deltas, BATCH).unwrap().plans_evaluated;
    assert_eq!(clean.metrics().folds, tables as u64);
    assert!(per_batch >= 2 && tables as u64 == per_batch * deltas.len().div_ceil(BATCH) as u64);

    // Every skip lands mid-batch: `skip % per_batch` tables already staged.
    for (i, skip) in
        [1, per_batch + 1, 2 * per_batch + 3, tables as u64 - 1].into_iter().enumerate()
    {
        let staged_before_failure = skip % per_batch;
        assert!(staged_before_failure >= 1, "skip {skip} must land inside a batch");
        let action = if i % 2 == 0 { FailAction::Error } else { FailAction::Panic };

        // Arm A: one retry — the batch re-stages from the untouched shadow.
        let pipeline =
            BatchPipeline::new(2).with_policy(FailurePolicy::RetryQuarantine { retries: 1 });
        let mut v = view.clone();
        fault::set(site::BATCH_FOLD, FailSpec { skip, count: 1, action });
        let run = pipeline.maintain(&db, &mut v, &deltas, BATCH).unwrap();
        let hits = fault::hits(site::BATCH_FOLD);
        fault::clear_all();
        assert_eq!((run.retries, run.quarantined), (1, 0), "skip {skip}");
        assert!(
            v.table().same_contents(&expected),
            "skip {skip}: retried batch diverged — a staged edit leaked into the shadow"
        );
        assert_eq!(v.epoch(), view.epoch() + 1, "skip {skip}: exactly one commit");
        // Once per change table: every landed table, plus the failed
        // attempt's staged tables and the one that fired.
        assert_eq!(hits, tables as u64 + staged_before_failure + 1, "skip {skip}");
        assert_eq!(pipeline.metrics().folds, tables as u64, "skip {skip}: folds count landed");

        // Arm B: no retry — the batch quarantines and stays out entirely.
        let pipeline =
            BatchPipeline::new(2).with_policy(FailurePolicy::RetryQuarantine { retries: 0 });
        let mut v = view.clone();
        fault::set(site::BATCH_FOLD, FailSpec { skip, count: 1, action });
        let run = pipeline.maintain(&db, &mut v, &deltas, BATCH).unwrap();
        fault::clear_all();
        assert_eq!((run.retries, run.quarantined), (0, 1), "skip {skip}");
        assert!(v.is_dirty() && !v.table().same_contents(&expected), "skip {skip}");
        assert_eq!(pipeline.metrics().folds, tables as u64 - per_batch, "skip {skip}");
        let recovered = pipeline.retry_quarantined(&db, &mut v, BATCH).unwrap();
        assert_eq!(recovered, 1, "skip {skip}");
        assert!(
            v.table().same_contents(&expected),
            "skip {skip}: late re-fold diverged — the quarantined batch was partly applied"
        );
    }
}

/// Satellite regression: the non-change-table fallback path quarantines
/// the whole pending set as one batch and recovers via recompute.
#[test]
fn fallback_failure_quarantines_whole_pending_and_recovers() {
    let _g = chaos_guard();
    let db = chaos_db();
    let view = MaterializedView::create("m", median_view(), &db).unwrap();
    let deltas = video_stream(&db, 40);
    let fresh_expected = view.recompute_fresh(&db, &deltas).unwrap();

    let pipeline = BatchPipeline::new(2).with_policy(FailurePolicy::RetryQuarantine { retries: 1 });
    let mut v = view;
    fault::set(site::BATCH_FALLBACK, FailSpec::immediate(2, FailAction::Error));
    let run = pipeline.maintain(&db, &mut v, &deltas, BATCH).unwrap();
    fault::clear_all();
    assert_eq!((run.fallback_batches, run.quarantined, run.retries), (1, 1, 1));
    assert!(v.is_dirty());
    let q = pipeline.quarantined();
    assert_eq!(q.len(), 1);
    assert_eq!((q[0].batch_index, q[0].records), (0, deltas.len()));

    pipeline.recover_via_recompute(&db, &mut v, &deltas).unwrap();
    assert!(v.table().same_contents(&fresh_expected));
    assert!(!v.is_dirty() && pipeline.quarantined().is_empty());
}

/// The V21 shape over `log`: how many videos have each session count. Its
/// inner γ is an auxiliary table, committed with the view.
fn nested_view() -> Plan {
    Plan::scan("log")
        .aggregate(&["videoId"], vec![AggSpec::count_all("c")])
        .aggregate(&["c"], vec![AggSpec::count_all("videos")])
}

/// Auxiliary-table atomicity, 64 seeds per commit path: a nested view's
/// `maintain` (failing at `VIEW_MAINTAIN` or a table mutation) and its
/// pipeline fallback (failing at `BATCH_FALLBACK`, dispatch or a table
/// mutation) either commit the view and its auxiliary table together — both
/// bit-identical to the failure-free run, both one epoch on — or leave both
/// at their pre-maintain epoch and rows; a clean re-run then converges.
#[test]
fn auxiliary_tables_commit_with_their_view_or_not_at_all() {
    let _g = chaos_guard();
    let db = chaos_db();
    let view = MaterializedView::create("n", nested_view(), &db).unwrap();
    let deltas = log_stream(&db, 300);
    let state = |v: &MaterializedView| {
        let aux = v.auxiliary().expect("a nested view has an auxiliary table");
        (v.epoch(), aux.epoch(), v.table().clone(), aux.table().clone())
    };
    let mut expected = view.clone();
    expected.maintain(&db, &deltas).unwrap();
    let (_, _, expected_view, expected_aux) = state(&expected);

    let paths: [(&str, &[&'static str]); 2] = [
        ("maintain", &[site::VIEW_MAINTAIN, site::TABLE_MUTATE]),
        ("pipeline", &[site::BATCH_FALLBACK, site::POOL_DISPATCH, site::TABLE_MUTATE]),
    ];
    let base = base_seed();
    for (path, sites) in paths {
        let (mut injected_runs, mut commit_site_fired) = (0u64, 0u64);
        for i in 0..64u64 {
            let seed = base.wrapping_mul(1_000_003).wrapping_add(i);
            let schedule = fault::seeded_schedule(seed, sites, 3);
            let pipeline = BatchPipeline::new(2);
            let mut v = view.clone();
            let (epoch, aux_epoch, pre_view, pre_aux) = state(&v);
            let run = |v: &mut MaterializedView| match path {
                "maintain" => v.maintain(&db, &deltas).map(drop),
                _ => pipeline.maintain(&db, v, &deltas, BATCH).map(drop),
            };

            fault::apply_schedule(&schedule);
            let fires_before = fault::fires_total();
            let outcome = catch_unwind(AssertUnwindSafe(|| run(&mut v)));
            let fired = fault::fires_total() - fires_before;
            commit_site_fired += fault::fired(sites[0]);
            fault::clear_all();
            injected_runs += u64::from(fired > 0);

            let (e, ae, table, aux) = state(&v);
            if matches!(outcome, Ok(Ok(()))) {
                assert_eq!((e, ae), (epoch + 1, aux_epoch + 1), "seed {seed} {path}: one commit");
                assert!(table.same_contents(&expected_view), "seed {seed} {path}: view diverged");
                assert!(aux.same_contents(&expected_aux), "seed {seed} {path}: aux diverged");
                continue;
            }
            if let Ok(Err(err)) = &outcome {
                assert!(err.to_string().contains("failpoint"), "seed {seed}: {err}");
            }
            assert_eq!((e, ae), (epoch, aux_epoch), "seed {seed} {path} ({schedule:?}): committed");
            assert!(table.same_contents(&pre_view), "seed {seed} {path}: the view moved");
            assert!(aux.same_contents(&pre_aux), "seed {seed} {path}: the auxiliary table moved");

            run(&mut v).unwrap_or_else(|e| panic!("seed {seed} {path}: clean re-run failed: {e}"));
            let (_, _, table, aux) = state(&v);
            assert!(table.same_contents(&expected_view) && aux.same_contents(&expected_aux));
        }
        assert!(injected_runs >= 16, "{path}: only {injected_runs}/64 schedules fired");
        assert!(commit_site_fired > 0, "{path}: `{}` never fired", sites[0]);
    }
}
