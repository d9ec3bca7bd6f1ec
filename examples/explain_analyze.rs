//! EXPLAIN ANALYZE on a stale-view cleaning expression: compile the
//! η-pushed cleaning plan, run it with a metrics sink installed, and print
//! the physical operator tree annotated with per-node actual rows, wall
//! time, and catalog-estimated rows. The same cleaning plan is then
//! re-explained on the row-at-a-time reference path: wall times change,
//! the per-node row counts do not — that is the executor's determinism
//! contract, made visible.
//!
//! Last, TPC-D view V5's cached clean delta plan, as its cleaning runs it:
//! PK-probe chains streaming into their consumers, a union and a γ. A
//! streamed join and the scan feeding it show wall 0 (their time is in
//! the node driving the pass), and every node takes in exactly what its
//! children report putting out.
//!
//! Then the join view's cached IVM ∆ plan (`lineitem ⋈ orders`, TPC-D
//! scale 1, z = 2, 10 % updates), with and without η: each inserted
//! lineitem is scanned once and meets orders' new state in one PK probe.
//!
//! Run with: `cargo run --release --example explain_analyze`

use stale_view_cleaning::catalog::Catalog;
use stale_view_cleaning::core::{maintenance_stats, SvcConfig, SvcView};
use stale_view_cleaning::ivm::strategy::ViewDelta;
use stale_view_cleaning::ivm::view::maintenance_bindings;
use stale_view_cleaning::ivm::DeltaInfo;
use stale_view_cleaning::relalg::exec::{explain_analyze, ExecMode, ExplainNode};
use stale_view_cleaning::workloads::tpcd::{TpcdConfig, TpcdData};
use stale_view_cleaning::workloads::tpcd_views::{complex_views, join_view};
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

    println!("EXPLAIN ANALYZE (vectorized):");
    let vectorized = explain_analyze(&plan, &bindings, Some(&est), ExecMode::sequential())?;
    print!("{vectorized}");
    println!("=> {} cleaned sample rows\n", vectorized.table.len());

    println!("EXPLAIN ANALYZE (rowwise):");
    let rowwise = explain_analyze(&plan, &bindings, Some(&est), ExecMode::sequential().rowwise())?;
    print!("{rowwise}");

    // The determinism contract: per-node actual row counts are functions
    // of the plan and its inputs, never of the kernel path.
    let rows = |n: &ExplainNode| {
        let m = &n.metrics;
        (m.rows_in, m.rows_out, m.build_rows, m.probe_rows, m.groups)
    };
    assert_eq!(vectorized.nodes.len(), rowwise.nodes.len());
    for (v, r) in vectorized.nodes.iter().zip(&rowwise.nodes) {
        assert_eq!(rows(v), rows(r), "node #{} row counts must not depend on the mode", v.id);
    }
    assert!(vectorized.table.rows() == rowwise.table.rows(), "the two paths' rows differ");
    println!("\nper-node row counts identical across modes ✓ (only wall times differ)");

    // The per-view gauges the cleaning path maintains.
    let cleaned = svc.clean_sample(&db, &deltas)?;
    let m = svc.metrics();
    println!(
        "view: {} cleanings, {} rows cleaned, staleness age {:?}",
        m.cleanings, m.rows_cleaned, m.staleness_age
    );
    assert_eq!(cleaned.canonical.len(), vectorized.table.len());

    explain_v5()?;
    explain_join_delta()
}

/// EXPLAIN ANALYZE of V5's cached clean delta plans, with row conservation
/// asserted node by node.
fn explain_v5() -> Result<(), Box<dyn std::error::Error>> {
    let data = TpcdData::generate(TpcdConfig { scale: 0.2, skew: 2.0, seed: 42 })?;
    let db = &data.db;
    let deltas = data.updates(0.1, 7)?;
    let catalog = Catalog::build(db);
    let v5 = complex_views().into_iter().find(|v| v.id == "V5").expect("V5 is a complex view");
    let svc = SvcView::create("V5", v5.plan, db, SvcConfig::with_ratio(0.1))?;
    let scoped = maintenance_stats(&catalog, None, &deltas);
    let est = scoped.estimator();
    let eta = (svc.config.ratio, svc.config.hash_spec());
    let lookup = svc.view.delta_plan(db, &DeltaInfo::of(&deltas), Some(eta), Some(&est))?;
    let bindings = svc.view.delta_bindings(db, &deltas, svc.stale_sample());
    let ViewDelta::Keyed { change, .. } = &lookup.plan.delta else {
        return Err("V5 is maintained by a keyed change table".into());
    };
    for (side, plan) in [("∆", &change.ins), ("∇", &change.del)] {
        let Some(plan) = plan else { continue };
        let explained = plan.explain(&bindings, ExecMode::sequential())?;
        println!("\nV5's cached clean plan, {side} side:\n{explained}");
        let broken = explained.unconserved();
        assert!(broken.is_empty(), "rows not conserved on V5's {side} side: {broken:?}");
    }
    println!("\nrows conserved on every edge of V5's cached clean plans ✓");
    Ok(())
}

/// EXPLAIN ANALYZE of the join view's cached ∆ plan, as `maintain` (no η)
/// and the clean (η at m = 0.1) run it: rows conserved on every edge, and
/// the inserted lineitems scanned exactly once.
fn explain_join_delta() -> Result<(), Box<dyn std::error::Error>> {
    let data = TpcdData::generate(TpcdConfig { scale: 1.0, skew: 2.0, seed: 42 })?;
    let db = &data.db;
    let deltas = data.updates(0.1, 7)?;
    let svc = SvcView::create("joinView", join_view(), db, SvcConfig::with_ratio(0.1))?;
    let info = DeltaInfo::of(&deltas);
    let eta = (svc.config.ratio, svc.config.hash_spec());
    for (what, eta, target) in
        [("IVM", None, svc.view.table()), ("clean", Some(eta), svc.stale_sample())]
    {
        let lookup = svc.view.delta_plan(db, &info, eta, None)?;
        let bindings = svc.view.delta_bindings(db, &deltas, target);
        let ViewDelta::Keyed { change, .. } = &lookup.plan.delta else {
            return Err("the join view is maintained by ∆V / ∇V".into());
        };
        let ins = change.ins.as_ref().ok_or("the join view has inserted rows")?;
        let explained = ins.explain(&bindings, ExecMode::sequential())?;
        println!("\nThe join view's {what} ∆ plan:\n{explained}");
        let broken = explained.unconserved();
        assert!(
            broken.is_empty(),
            "rows not conserved on the join view's {what} ∆ plan: {broken:?}"
        );
        let shape = ins.describe();
        let count = |node: &str| shape.matches(node).count();
        let scans = count("fused-scan(__ins.lineitem)");
        assert_eq!(scans, 1, "the {what} ∆ plan scans the inserted lineitems {scans} times");
        assert_eq!(count("pk-probe(__new.orders)"), 1, "{what}: one probe of orders′: {shape}");
        assert!(count("Union(") <= 1, "{what}: at most one ∪: {shape}");
    }
    println!("\nthe join view's ∆ plans scan each inserted lineitem once ✓");
    Ok(())
}
