//! Figure 16 — CPU utilization per maintenance round, read off the live
//! pool's busy-time gauges: a lone IVM pipeline leaves workers idle while
//! its driver partitions, dispatches and folds (and while skewed chunks
//! straggle); SVC sample cleanings submitted to the same pool fill those
//! gaps.
//!
//! Utilization of a round = Δ`PoolMetrics::busy_ns` / (workers × Δwall).
//! Each round maintains Conviva V2 over a fresh chunk of the Zipf-skewed
//! activity stream and checks the result against `recompute_fresh`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use svc_bench::{bench_scale, Report};
use svc_cluster::{BatchPipeline, WorkerPool};
use svc_core::{SvcConfig, SvcView};
use svc_ivm::MaterializedView;
use svc_workloads::conviva::{appended_updates_at, generate, views, ConvivaConfig};

/// Busy fraction of `pool` over the wall time of `f`.
fn utilization(pool: &WorkerPool, f: impl FnOnce()) -> f64 {
    let busy = pool.metrics().total_busy_ns();
    let start = Instant::now();
    f();
    let wall = start.elapsed().as_nanos() as f64;
    (pool.metrics().total_busy_ns() - busy) as f64 / (pool.workers() as f64 * wall)
}

fn main() {
    let workers = std::thread::available_parallelism().map(|n| n.get().clamp(2, 4)).unwrap_or(2);
    let cfg =
        ConvivaConfig { base_events: (12_000.0 * bench_scale()) as usize, ..Default::default() };
    let db = generate(cfg).expect("conviva");
    let v2 = views().into_iter().find(|v| v.id == "V2").expect("V2");
    let svc = SvcView::create("V2", v2.plan, &db, SvcConfig::with_ratio(0.1)).expect("view");
    let pool = Arc::new(WorkerPool::new(workers));
    let pipeline = BatchPipeline::on_pool(pool.clone());
    let rounds = 8;
    let chunk = ((2_000.0 * bench_scale()) as usize).max(200);
    let batch = (chunk / 8).max(1);

    let mut report = Report::new("fig16", &["round", "ivm_util", "ivm_svc_util", "cleanings"]);
    let (mut sum_ivm, mut sum_both) = (0.0, 0.0);
    for t in 0..rounds {
        let start_id = 10_000_000 + (t * chunk) as i64;
        let deltas =
            appended_updates_at(&db, cfg, chunk, 1000 + t as u64, start_id).expect("chunk");
        let expected = svc.view.recompute_fresh(&db, &deltas).expect("recompute oracle");
        let maintain = |v: &mut MaterializedView| {
            pipeline.maintain(&db, v, &deltas, batch).expect("maintain");
        };

        let mut alone = svc.view.clone();
        let ivm = utilization(&pool, || maintain(&mut alone));

        let mut shared = svc.view.clone();
        let mut cleanings = 0usize;
        let both = utilization(&pool, || {
            let stop = AtomicBool::new(false);
            std::thread::scope(|s| {
                let cleaner = s.spawn(|| {
                    let mut n = 0;
                    loop {
                        pool.run_batch(workers, |_| svc.clean_sample(&db, &deltas).map(drop))
                            .expect("cleaning");
                        n += workers;
                        if stop.load(Ordering::Relaxed) {
                            return n;
                        }
                    }
                });
                maintain(&mut shared);
                stop.store(true, Ordering::Relaxed);
                cleanings = cleaner.join().expect("cleaner panicked");
            });
        });

        for v in [&alone, &shared] {
            assert!(v.table().approx_same_contents(&expected, 1e-9), "round {t} diverged");
        }
        assert!(ivm > 0.0 && both > 0.0, "round {t}: the pool did no work");
        sum_ivm += ivm;
        sum_both += both;
        report.row(vec![t.to_string(), Report::f(ivm), Report::f(both), cleanings.to_string()]);
    }
    report.finish(format!(
        "pool utilization per maintenance round ({workers} workers): mean IVM {:.2} vs IVM+SVC \
         {:.2}",
        sum_ivm / rounds as f64,
        sum_both / rounds as f64
    ));
}
