//! EXPLAIN ANALYZE on a stale-view cleaning expression: compile the
//! η-pushed cleaning plan, run it with a metrics sink installed, and print
//! the physical operator tree annotated with per-node actual rows, wall
//! time, and catalog-estimated rows. The same cleaning plan is then
//! re-explained morsel-parallel on a 4-worker pool: wall times change, the
//! per-node row counts do not — that is the executor's determinism
//! contract, made visible.
//!
//! Run with: `cargo run --release --example explain_analyze`

use stale_view_cleaning::catalog::Catalog;
use stale_view_cleaning::cluster::executor::WorkerPool;
use stale_view_cleaning::core::{maintenance_stats, SvcConfig, SvcView};
use stale_view_cleaning::ivm::view::maintenance_bindings;
use stale_view_cleaning::relalg::exec::{explain_analyze, ExecMode};
use stale_view_cleaning::workloads::video;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let db = video::generate(1_500, 60_000, 1.1, 3)?;
    let svc = SvcView::create("visitView", video::visit_view(), &db, SvcConfig::with_ratio(0.2))?;
    let deltas = video::log_insertions(&db, 30_000, 0.95, 9)?;
    let catalog = Catalog::build(&db);

    // The optimized cleaning expression C: η pushed through the
    // maintenance plan, join regions reordered by the catalog's estimates.
    let (plan, report, kind) = svc.cleaning_plan_with(&db, &deltas, Some(&catalog))?;
    let stale_binding = if report.fully_pushed() { svc.stale_sample() } else { svc.view.table() };
    let bindings = maintenance_bindings(&db, &deltas, stale_binding);

    // The estimator sees the same leaf overlay the optimizer did: stale
    // sample and delta relations bound by their maintenance leaf names.
    let scoped = maintenance_stats(&catalog, Some(stale_binding), &deltas);
    let est = scoped.estimator();

    println!("cleaning plan ({kind:?} strategy, η fully pushed: {})\n", report.fully_pushed());

    println!("EXPLAIN ANALYZE (sequential, vectorized):");
    let sequential = explain_analyze(&plan, &bindings, Some(&est), ExecMode::sequential())?;
    print!("{sequential}");
    println!("=> {} cleaned sample rows\n", sequential.table.len());

    let pool = WorkerPool::new(4);
    println!("EXPLAIN ANALYZE (morsel-parallel, 4 workers):");
    let parallel = explain_analyze(&plan, &bindings, Some(&est), ExecMode::morsel_auto(&pool))?;
    print!("{parallel}");

    // The determinism contract: per-node actual row counts are functions
    // of the plan and its inputs, never of the scheduler.
    for (s, p) in sequential.nodes.iter().zip(&parallel.nodes) {
        assert_eq!(
            (s.metrics.rows_in, s.metrics.rows_out),
            (p.metrics.rows_in, p.metrics.rows_out),
            "node #{} row counts must not depend on the execution mode",
            s.id
        );
    }
    println!("\nper-node row counts identical across modes ✓ (only wall times differ)");

    let pm = pool.metrics();
    println!(
        "pool: {} sessions, {} tasks, {:.1}ms total worker busy time",
        pm.sessions,
        pm.tasks,
        pm.total_busy_ns() as f64 / 1e6
    );

    // The per-view gauges the cleaning path maintains.
    let cleaned = svc.clean_sample(&db, &deltas)?;
    let m = svc.metrics();
    println!(
        "view: {} cleanings, {} rows cleaned, staleness age {:?}",
        m.cleanings, m.rows_cleaned, m.staleness_age
    );
    assert_eq!(cleaned.canonical.len(), sequential.table.len());
    Ok(())
}
