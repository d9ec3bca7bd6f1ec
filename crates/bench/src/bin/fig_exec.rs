//! Materializing evaluator vs the compile-once streaming executor
//! (`svc_relalg::exec`) on the TPC-D cleaning/maintenance workloads.
//!
//! Three scenarios:
//!
//! * `scan_sigma` — a selective filter over the large `lineitem` base
//!   relation, swept across selectivities. The legacy evaluator clones the
//!   entire table (rows + key index) before filtering; the fused pipeline
//!   streams borrowed rows and clones only survivors, so the gap widens as
//!   the filter gets more selective.
//! * `scan_sigma_eta` — the same filter with an η sample on top: the full
//!   fused `Scan→σ→η` chain.
//! * `cleaning` — the SVC cleaning expression of the lineitem⋈orders join
//!   view (Section 4 of the paper), evaluated under maintenance bindings.
//! * `maintenance` — the change-table maintenance plan of a revenue
//!   roll-up view. The `t_rerun_ms` column re-runs the *already compiled*
//!   plan, isolating what `BatchPipeline`'s per-epoch plan cache saves on
//!   every batch after the first.
//!
//! Writes `experiments/fig_exec.csv` and `experiments/fig_exec.json`.
//! Asserted invariants: the streaming path is never slower than the legacy
//! evaluator on the fused-scan sweep (any scale — this is the CI smoke
//! guard against executor regressions), and at full scale the selective
//! point must show ≥2× end-to-end.

use svc_bench::{
    bench_median_ms as bench_ms, bench_min_ms, bench_scale, operator_metrics_json, tpcd,
    write_json, Report,
};
use svc_ivm::view::{maintenance_bindings, MaterializedView};
use svc_relalg::aggregate::{AggFunc, AggSpec};
use svc_relalg::eval::{evaluate_materializing, Bindings};
use svc_relalg::exec::{compile, ExecMode};
use svc_relalg::optimizer::optimize;
use svc_relalg::plan::Plan;
use svc_relalg::scalar::{col, lit};
use svc_storage::HashSpec;
use svc_workloads::tpcd_views::{join_view, revenue_expr};

struct Row {
    scenario: &'static str,
    param: String,
    rows_out: usize,
    t_legacy_ms: f64,
    t_stream_ms: f64,
    t_rerun_ms: f64,
    operators: String,
}

fn main() {
    let data = tpcd(2.0, 2.0, 42);
    let db = &data.db;
    let bindings = Bindings::from_database(db);
    let lineitem = db.table("lineitem").expect("lineitem");
    println!("lineitem: {} rows (scale {})", lineitem.len(), bench_scale());

    let reps = 5;
    let iters = (200_000 / lineitem.len().max(1)).clamp(1, 50);
    let mut rows: Vec<Row> = Vec::new();

    // Selectivity thresholds from the empirical l_orderkey distribution
    // (uniform over orders — the zipf-skewed measure columns collapse to a
    // single value and cannot express a sweep).
    let key_idx = lineitem.schema().resolve("l_orderkey").expect("l_orderkey");
    let mut keys: Vec<i64> = lineitem.rows().iter().filter_map(|r| r[key_idx].as_i64()).collect();
    keys.sort_unstable();
    let threshold = |sel: f64| keys[((keys.len() - 1) as f64 * sel) as usize];

    for sel in [0.01, 0.05, 0.2, 0.5] {
        let plan = Plan::scan("lineitem").select(col("l_orderkey").lt(lit(threshold(sel))));
        let compiled = compile(&plan, &bindings).expect("compile");
        let out = compiled.run(&bindings).expect("run");
        let t_legacy = bench_ms(reps, iters, || {
            std::hint::black_box(evaluate_materializing(&plan, &bindings).expect("legacy"));
        });
        let t_stream = bench_ms(reps, iters, || {
            std::hint::black_box(compile(&plan, &bindings).expect("c").run(&bindings).expect("r"));
        });
        let t_rerun = bench_ms(reps, iters, || {
            std::hint::black_box(compiled.run(&bindings).expect("r"));
        });
        assert!(
            out.same_contents(&evaluate_materializing(&plan, &bindings).expect("legacy")),
            "scan_sigma sel {sel}: executor diverged"
        );
        rows.push(Row {
            scenario: "scan_sigma",
            param: format!("{sel}"),
            rows_out: out.len(),
            t_legacy_ms: t_legacy,
            t_stream_ms: t_stream,
            t_rerun_ms: t_rerun,
            operators: operator_metrics_json(&compiled, &bindings, ExecMode::sequential()),
        });
    }

    // The full fused chain: σ then η on the lineitem key.
    {
        let plan = Plan::scan("lineitem").select(col("l_orderkey").lt(lit(threshold(0.2)))).hash(
            &["l_orderkey", "l_linenumber"],
            0.1,
            HashSpec::with_seed(7),
        );
        let compiled = compile(&plan, &bindings).expect("compile");
        let out = compiled.run(&bindings).expect("run");
        let t_legacy = bench_ms(reps, iters, || {
            std::hint::black_box(evaluate_materializing(&plan, &bindings).expect("legacy"));
        });
        let t_stream = bench_ms(reps, iters, || {
            std::hint::black_box(compile(&plan, &bindings).expect("c").run(&bindings).expect("r"));
        });
        let t_rerun = bench_ms(reps, iters, || {
            std::hint::black_box(compiled.run(&bindings).expect("r"));
        });
        rows.push(Row {
            scenario: "scan_sigma_eta",
            param: "0.2×η0.1".into(),
            rows_out: out.len(),
            t_legacy_ms: t_legacy,
            t_stream_ms: t_stream,
            t_rerun_ms: t_rerun,
            operators: operator_metrics_json(&compiled, &bindings, ExecMode::sequential()),
        });
    }

    // Cleaning: the η-wrapped maintenance plan of the join view, evaluated
    // under maintenance bindings (stale sample + base tables + deltas).
    {
        let svc = svc_bench::join_view_svc(&data, 0.1);
        let deltas = data.updates(0.10, 7).expect("updates");
        let (plan, report, _kind) = svc.cleaning_plan(db, &deltas).expect("cleaning plan");
        let stale_binding =
            if report.fully_pushed() { svc.stale_sample() } else { svc.view.table() };
        let mb = maintenance_bindings(db, &deltas, stale_binding);
        let compiled = compile(&plan, &mb).expect("compile");
        let out = compiled.run(&mb).expect("run");
        let t_legacy = bench_ms(reps, 1, || {
            std::hint::black_box(evaluate_materializing(&plan, &mb).expect("legacy"));
        });
        let t_stream = bench_ms(reps, 1, || {
            std::hint::black_box(compile(&plan, &mb).expect("c").run(&mb).expect("r"));
        });
        let t_rerun = bench_ms(reps, 1, || {
            std::hint::black_box(compiled.run(&mb).expect("r"));
        });
        assert!(
            out.same_contents(&evaluate_materializing(&plan, &mb).expect("legacy")),
            "cleaning: executor diverged"
        );
        rows.push(Row {
            scenario: "cleaning",
            param: "m=0.1".into(),
            rows_out: out.len(),
            t_legacy_ms: t_legacy,
            t_stream_ms: t_stream,
            t_rerun_ms: t_rerun,
            operators: operator_metrics_json(&compiled, &mb, ExecMode::sequential()),
        });
    }

    // Maintenance: the change-table plan of a revenue roll-up.
    {
        let view_def = join_view().aggregate(
            &["o_custkey"],
            vec![AggSpec::count_all("n"), AggSpec::new("revenue", AggFunc::Sum, revenue_expr())],
        );
        let view = MaterializedView::create("revenue", view_def, db).expect("view");
        let deltas = data.updates(0.10, 11).expect("updates");
        let (mplan, _kind) = view.build_maintenance_plan(db, &deltas).expect("plan");
        let mb = maintenance_bindings(db, &deltas, view.table());
        let (plan, _) = optimize(&mplan, &mb).expect("optimize");
        let compiled = compile(&plan, &mb).expect("compile");
        let out = compiled.run(&mb).expect("run");
        let t_legacy = bench_ms(reps, 1, || {
            std::hint::black_box(evaluate_materializing(&plan, &mb).expect("legacy"));
        });
        let t_stream = bench_ms(reps, 1, || {
            std::hint::black_box(compile(&plan, &mb).expect("c").run(&mb).expect("r"));
        });
        let t_rerun = bench_ms(reps, 1, || {
            std::hint::black_box(compiled.run(&mb).expect("r"));
        });
        assert!(
            out.approx_same_contents(&evaluate_materializing(&plan, &mb).expect("legacy"), 1e-9),
            "maintenance: executor diverged"
        );
        rows.push(Row {
            scenario: "maintenance",
            param: "upd=0.1".into(),
            rows_out: out.len(),
            t_legacy_ms: t_legacy,
            t_stream_ms: t_stream,
            t_rerun_ms: t_rerun,
            operators: operator_metrics_json(&compiled, &mb, ExecMode::sequential()),
        });
    }

    // ── telemetry overhead guard ─────────────────────────────────────────
    // Rerunning a compiled plan with a metrics sink installed must stay
    // within a small factor of the uninstrumented rerun: the executor only
    // adds one timestamp pair plus one atomic fold per node, never per
    // row. Min-of-reps keeps shared-runner noise out of the
    // ratio; the margin is generous because at smoke scales the absolute
    // runtimes sit near timer resolution.
    let overhead_factor = {
        let plan = Plan::scan("lineitem").select(col("l_orderkey").lt(lit(threshold(0.05))));
        let compiled = compile(&plan, &bindings).expect("compile");
        let sink = compiled.metrics_sink();
        let t_plain = bench_min_ms(7, iters, || {
            std::hint::black_box(compiled.run(&bindings).expect("plain"));
        });
        let t_metered = bench_min_ms(7, iters, || {
            std::hint::black_box(
                compiled
                    .run_with_metrics(&bindings, ExecMode::sequential(), &sink)
                    .expect("metered"),
            );
        });
        t_metered / t_plain.max(1e-9)
    };
    println!("telemetry overhead: instrumented/uninstrumented = {overhead_factor:.3}x");
    assert!(
        overhead_factor <= 1.5,
        "instrumented rerun must stay within 1.5x of uninstrumented, got {overhead_factor:.3}x"
    );

    let mut report = Report::new(
        "fig_exec",
        &["scenario", "param", "rows", "t_legacy_ms", "t_stream_ms", "t_rerun_ms", "speedup"],
    );
    let mut json_rows = Vec::new();
    let mut regressions = Vec::new();
    for r in &rows {
        let speedup = r.t_legacy_ms / r.t_stream_ms.max(1e-9);
        report.row(vec![
            r.scenario.to_string(),
            r.param.clone(),
            r.rows_out.to_string(),
            format!("{:.3}", r.t_legacy_ms),
            format!("{:.3}", r.t_stream_ms),
            format!("{:.3}", r.t_rerun_ms),
            format!("{speedup:.2}"),
        ]);
        json_rows.push(format!(
            "{{\"scenario\":\"{}\",\"param\":\"{}\",\"rows\":{},\"t_legacy_ms\":{},\
             \"t_stream_ms\":{},\"t_rerun_ms\":{},\"speedup\":{speedup},\"operators\":{}}}",
            r.scenario,
            r.param,
            r.rows_out,
            r.t_legacy_ms,
            r.t_stream_ms,
            r.t_rerun_ms,
            r.operators
        ));
        // CI smoke guard: the streaming executor must never lose to the
        // legacy evaluator on the fused-scan scenarios, at any scale. The
        // 10% margin absorbs scheduler noise on shared CI runners (the
        // real win is 1.7–10×, so a genuine regression still trips it).
        if r.scenario.starts_with("scan_sigma") && r.t_stream_ms > r.t_legacy_ms * 1.10 {
            regressions.push(format!(
                "{} {}: stream {:.3}ms vs legacy {:.3}ms",
                r.scenario, r.param, r.t_stream_ms, r.t_legacy_ms
            ));
        }
    }
    report.finish("legacy materializing evaluate vs compiled streaming executor (median of 5)");

    let json = format!(
        "{{\"bench\":\"fig_exec\",\"workload\":\"tpcd\",\"scale\":{},\"lineitem_rows\":{},\
         \"telemetry_overhead\":{overhead_factor},\"rows\":[{}]}}\n",
        bench_scale(),
        lineitem.len(),
        json_rows.join(",")
    );
    write_json("fig_exec", &json);

    assert!(regressions.is_empty(), "streaming executor regressions: {regressions:?}");
    if bench_scale() >= 1.0 {
        let selective = &rows[0];
        let speedup = selective.t_legacy_ms / selective.t_stream_ms.max(1e-9);
        assert!(
            speedup >= 2.0,
            "selective fused scan must be ≥2x at full scale, got {speedup:.2}x"
        );
        println!("selective fused-scan speedup at full scale: {speedup:.2}x");
    }
}
