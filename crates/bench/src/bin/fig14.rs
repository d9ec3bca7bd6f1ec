//! Figure 14 — mini-batch throughput vs batch size, on real maintenance
//! plans: a log/video visit view maintained by `BatchPipeline` over a
//! stream of log insertions.
//!
//! * **14a** one maintenance pipeline: larger batches amortize the
//!   per-batch driver work (partitioning, dispatch, the fold's per-group
//!   lookups), so throughput rises with batch size.
//! * **14b** two concurrent pipelines on ONE shared pool: the same sweep
//!   while a second pipeline keeps maintaining a median view (the fallback
//!   plan, one pool task per round) whose tasks interleave on the shared
//!   queue.
//!
//! Every maintained view is checked against `recompute_fresh`. One more
//! pass runs with a span recorder attached and exports the
//! maintain/batch/compile/fold timeline as `experiments/fig14_trace.json`
//! (load it in chrome://tracing or Perfetto). Writes
//! `experiments/fig14.{csv,json}`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use svc_bench::{bench_scale, write_json, Report};
use svc_cluster::{BatchPipeline, WorkerPool};
use svc_ivm::MaterializedView;
use svc_relalg::aggregate::{AggFunc, AggSpec};
use svc_relalg::plan::{JoinKind, Plan};
use svc_relalg::scalar::col;
use svc_storage::{DataType, Database, Deltas, Schema, Table, Value};
use svc_telemetry::TraceRecorder;

fn build_db(base_events: usize) -> Database {
    let mut db = Database::new();
    let mut video = Table::new(
        Schema::from_pairs(&[("videoId", DataType::Int), ("duration", DataType::Float)]).unwrap(),
        &["videoId"],
    )
    .unwrap();
    for v in 0..200i64 {
        video.insert(vec![Value::Int(v), Value::Float(0.5 + (v % 11) as f64 * 0.3)]).unwrap();
    }
    let mut log = Table::new(
        Schema::from_pairs(&[("sessionId", DataType::Int), ("videoId", DataType::Int)]).unwrap(),
        &["sessionId"],
    )
    .unwrap();
    for s in 0..base_events as i64 {
        log.insert(vec![Value::Int(s), Value::Int((s * 13 + 7) % 200)]).unwrap();
    }
    db.create_table("video", video);
    db.create_table("log", log);
    db
}

fn log_join_video() -> Plan {
    Plan::scan("log").join(Plan::scan("video"), JoinKind::Inner, &[("videoId", "videoId")])
}

fn log_stream(db: &Database, base: i64, n: usize) -> Deltas {
    let mut deltas = Deltas::new();
    for i in 0..n as i64 {
        deltas
            .insert(db, "log", vec![Value::Int(base + i), Value::Int((i * 31 + 3) % 200)])
            .unwrap();
    }
    deltas
}

fn main() {
    let scale = bench_scale();
    let base_events = ((20_000.0 * scale) as usize).max(2_000);
    let stream_len = ((10_000.0 * scale) as usize).max(640);
    let db = build_db(base_events);
    let deltas = log_stream(&db, base_events as i64 + 1_000_000, stream_len);
    let workers = std::thread::available_parallelism().map(|n| n.get().clamp(2, 4)).unwrap_or(2);

    let visits = log_join_video().aggregate(
        &["videoId"],
        vec![AggSpec::count_all("visits"), AggSpec::new("avgDur", AggFunc::Avg, col("duration"))],
    );
    let view = MaterializedView::create("visitView", visits, &db).expect("view");
    let expected = view.recompute_fresh(&db, &deltas).expect("recompute oracle");
    // Median blocks the change-table strategy, so the second pipeline
    // exercises the fallback maintenance plan.
    let median = log_join_video()
        .aggregate(&["videoId"], vec![AggSpec::new("medDur", AggFunc::Median, col("duration"))]);
    let med_view = MaterializedView::create("medView", median, &db).expect("median view");
    let med_expected = med_view.recompute_fresh(&db, &deltas).expect("recompute oracle");

    let pool = Arc::new(WorkerPool::new(workers));
    let pipeline = BatchPipeline::on_pool(pool.clone());
    let neighbor = BatchPipeline::on_pool(pool.clone());

    let batch_sizes: Vec<usize> =
        [32usize, 16, 8, 4, 2, 1].iter().map(|d| (stream_len / d).max(1)).collect();

    // Counts and correctness first (this pass also warms the compile
    // cache, so the timed curves below measure steady-state batches).
    let shapes: Vec<(usize, usize)> = batch_sizes
        .iter()
        .map(|&b| {
            let mut v = view.clone();
            let run = pipeline.maintain(&db, &mut v, &deltas, b).expect("maintain");
            assert!(
                v.table().approx_same_contents(&expected, 1e-9),
                "pipeline at batch {b} diverged from recompute"
            );
            assert_eq!(run.fallback_batches, 0, "insert-only stream must use change tables");
            (run.batches, run.plans_evaluated)
        })
        .collect();

    // Best of two runs per point and arm: a single scheduling hiccup on a
    // loaded (CI) machine must not invert the throughput ordering. Each run
    // maintains a fresh clone of the view over the same deltas.
    let best_curve = || -> Vec<f64> {
        let run = |b| pipeline.maintain(&db, &mut view.clone(), &deltas, b).expect("curve");
        batch_sizes.iter().map(|&b| run(b).throughput().max(run(b).throughput())).collect()
    };
    let solo = best_curve();
    let stop = AtomicBool::new(false);
    let mut neighbor_rounds = 0usize;
    let mut shared = Vec::new();
    std::thread::scope(|s| {
        let busy = s.spawn(|| {
            let mut rounds = 0;
            while !stop.load(Ordering::Relaxed) {
                let mut v = med_view.clone();
                neighbor.maintain(&db, &mut v, &deltas, stream_len).expect("neighbor maintain");
                assert!(
                    v.table().approx_same_contents(&med_expected, 1e-9),
                    "neighbor pipeline diverged from recompute"
                );
                rounds += 1;
            }
            rounds
        });
        shared = best_curve();
        stop.store(true, Ordering::Relaxed);
        neighbor_rounds = busy.join().expect("neighbor pipeline panicked");
    });

    let mut report = Report::new(
        "fig14",
        &["batch_size", "batches", "plans", "rps_solo", "rps_shared_pool", "shared_over_solo"],
    );
    let mut json_rows = Vec::new();
    for (i, &b) in batch_sizes.iter().enumerate() {
        let (batches, plans) = shapes[i];
        let ratio = shared[i] / solo[i].max(1e-9);
        report.row(vec![
            b.to_string(),
            batches.to_string(),
            plans.to_string(),
            format!("{:.0}", solo[i]),
            format!("{:.0}", shared[i]),
            format!("{ratio:.2}"),
        ]);
        json_rows.push(format!(
            "{{\"batch_size\":{b},\"batches\":{batches},\"plans\":{plans},\"rps_solo\":{},\
             \"rps_shared_pool\":{},\"shared_over_solo\":{ratio}}}",
            solo[i], shared[i]
        ));
    }
    report.finish(format!(
        "mini-batch throughput on real plans, {workers} workers: (a) one pipeline, (b) sharing \
         the pool with a second pipeline ({neighbor_rounds} fallback rounds alongside)"
    ));

    // Traced run at a mid batch size. The pipeline's own counters
    // cross-check the run shape: at least one fold per batch, backlog
    // drained.
    let tracer = Arc::new(TraceRecorder::new(4096));
    let mut traced = BatchPipeline::new(workers);
    traced.tracer = Some(tracer.clone());
    let b = (stream_len / 8).max(1);
    let mut v = view.clone();
    let run = traced.maintain(&db, &mut v, &deltas, b).expect("traced maintain");
    assert!(v.table().approx_same_contents(&expected, 1e-9), "traced pipeline diverged");
    let pm = traced.metrics();
    println!(
        "traced run at batch {b}: {} batches, {} folds, {} compiles ({} cache hits), mean fold \
         {}µs, {} spans recorded",
        run.batches,
        pm.folds,
        pm.compiles,
        pm.cache_hits,
        pm.mean_fold_ns() / 1_000,
        tracer.events().len(),
    );
    assert!(pm.folds >= run.batches as u64, "every batch folds at least once");
    assert_eq!(pm.backlog, 0, "backlog gauge must drain to zero after maintain");
    assert!(!tracer.events().is_empty(), "traced run recorded no spans");
    write_json("fig14_trace", &tracer.chrome_trace_json());

    let pool_metrics = pool.metrics();
    write_json(
        "fig14",
        &format!(
            "{{\"bench\":\"fig14\",\"workload\":\"visit_view_log_stream\",\
             \"base_events\":{base_events},\"stream_len\":{stream_len},\"workers\":{workers},\
             \"neighbor_rounds\":{neighbor_rounds},\
             \"pool\":{{\"sessions\":{},\"tasks\":{},\"panics\":{},\"busy_ns\":{}}},\
             \"points\":[{}]}}\n",
            pool_metrics.sessions,
            pool_metrics.tasks,
            pool_metrics.panics,
            pool_metrics.total_busy_ns(),
            json_rows.join(",")
        ),
    );

    let (smallest, largest) = (solo[0], solo[solo.len() - 1]);
    println!(
        "throughput at batch {} vs batch {}: {largest:.0} vs {smallest:.0} records/s ({:.2}x)",
        batch_sizes[batch_sizes.len() - 1],
        batch_sizes[0],
        largest / smallest.max(1e-9),
    );
    assert!(shared.iter().all(|&t| t > 0.0) && neighbor_rounds > 0);
    assert!(
        largest > smallest,
        "throughput must rise with batch size on real plans: {largest} vs {smallest}"
    );
}
