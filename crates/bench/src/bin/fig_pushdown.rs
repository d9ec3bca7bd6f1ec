//! Optimizer on/off comparison for the Figure 3 claim: pushing η through
//! the maintenance expression makes cleaning touch only sampled deltas.
//!
//! For the TPC-D join view, this measures the latency of materializing a
//! cleaned sample with the cleaning expression evaluated (a) as written —
//! hash applied on top of the full maintenance result — and (b) after the
//! standard optimizer pass (predicate pushdown, projection pruning, and the
//! η rule). Emits a table, a CSV (via the shared `Report` harness), and a
//! JSON file for the benchmark trajectory.
//!
//! A second table prices the optimizer itself: `optimize()` threads
//! `Derived` types through its rule recursions (one `derive_tree` pass per
//! sweep), so its cost grows ~linearly with plan depth. The
//! pre-memoization cost model — re-deriving every node's subtree at every
//! visit, exactly what each rule sweep used to do — is measured alongside
//! as the quadratic baseline, and the optimizer must grow slower than it.

use svc_bench::{median_of, time, tpcd, write_json, Report};
use svc_core::{SvcConfig, SvcView};
use svc_ivm::view::maintenance_bindings;
use svc_relalg::derive::derive;
use svc_relalg::eval::evaluate;
use svc_relalg::optimizer::optimize;
use svc_relalg::plan::Plan;
use svc_relalg::scalar::{col, lit};
use svc_storage::Database;
use svc_workloads::tpcd_views::join_view;

struct Point {
    ratio: f64,
    unoptimized_s: f64,
    optimized_s: f64,
    eta_descended: usize,
    sampled_leaves: usize,
}

/// A depth-`d` unary chain (alternating σ / Π) over the join view — the
/// deep-plan shape whose optimization cost the depth table measures.
fn deep_plan(depth: usize) -> Plan {
    let mut plan = join_view();
    for i in 0..depth {
        plan = if i % 2 == 0 {
            plan.select(col("l_orderkey").ge(lit(i as i64)))
        } else {
            plan.project(vec![
                ("l_orderkey", col("l_orderkey")),
                ("l_linenumber", col("l_linenumber")),
                ("o_orderdate", col("o_orderdate")),
            ])
        };
    }
    plan
}

/// The pre-memoization cost model of one rule sweep: call `derive` on every
/// node of the plan (each call re-derives the whole subtree) and return the
/// wall time — the O(n²) work profile the rules had before `Derived` was
/// threaded through their recursions.
fn rederive_every_node(plan: &Plan, db: &Database) -> f64 {
    fn walk(plan: &Plan, db: &Database) {
        derive(plan, db).expect("derive");
        plan.children().for_each(|child| walk(child, db));
    }
    time(|| walk(plan, db)).1
}

/// `optimize()` cost vs plan depth against the per-node re-derive baseline;
/// returns the JSON rows.
fn depth_table(db: &Database) -> Vec<String> {
    let reps = 5;
    let mut report =
        Report::new("fig_pushdown_depth", &["depth", "nodes", "optimize_ms", "rederive_ms"]);
    let mut json_rows = Vec::new();
    let mut measured = Vec::new();
    for d in [4usize, 8, 16, 32, 64] {
        let plan = deep_plan(d);
        let nodes = plan.node_count();
        let mut t_opt = Vec::with_capacity(reps);
        let mut t_red = Vec::with_capacity(reps);
        for _ in 0..reps {
            let (r, t) = time(|| optimize(&plan, db).expect("optimize"));
            std::hint::black_box(r);
            t_opt.push(t);
            t_red.push(rederive_every_node(&plan, db));
        }
        let (o, r) = (median_of(&t_opt), median_of(&t_red));
        report.row(vec![
            d.to_string(),
            nodes.to_string(),
            format!("{:.4}", o * 1e3),
            format!("{:.4}", r * 1e3),
        ]);
        json_rows.push(format!(
            "{{\"depth\":{d},\"nodes\":{nodes},\"optimize_s\":{o},\"rederive_s\":{r}}}"
        ));
        measured.push((d, o, r));
    }
    report.finish("optimize() cost vs plan depth: Derived threaded (vs per-node re-derive)");

    // Growth check: from depth 8 to 64 the memoized optimizer must grow
    // strictly slower than the per-node re-derivation baseline (linear vs
    // quadratic; ratios are used so absolute machine speed cancels).
    let at = |d: usize| measured.iter().find(|&&(x, _, _)| x == d).expect("depth measured");
    let opt_growth = at(64).1 / at(8).1.max(1e-9);
    let red_growth = at(64).2 / at(8).2.max(1e-9);
    println!("growth 8→64: optimize {opt_growth:.1}x, per-node re-derive {red_growth:.1}x");
    assert!(
        opt_growth < red_growth,
        "memoized optimize() must grow slower than the quadratic re-derive baseline: \
         {opt_growth:.1}x vs {red_growth:.1}x"
    );
    json_rows
}

fn main() {
    let data = tpcd(1.0, 1.0, 42);
    let deltas = data.updates(0.10, 7).expect("updates");
    let reps = 3;

    let mut points = Vec::new();
    for ratio in [0.05, 0.1, 0.2, 0.4] {
        let svc = SvcView::create("joinView", join_view(), &data.db, SvcConfig::with_ratio(ratio))
            .expect("create view");

        // Optimizer OFF: evaluate the cleaning expression as written —
        // η on top of the maintenance plan, bound to the full stale view.
        let (mplan, _kind) = svc.view.build_maintenance_plan(&data.db, &deltas).expect("plan");
        let key_names = svc.view.key_names();
        let key_refs: Vec<&str> = key_names.iter().map(|s| s.as_str()).collect();
        let hashed = mplan.hash(&key_refs, ratio, svc.config.hash_spec());
        let bindings = maintenance_bindings(&data.db, &deltas, svc.view.table());

        let mut t_off = Vec::with_capacity(reps);
        let mut unoptimized = None;
        for _ in 0..reps {
            let (tbl, t) = time(|| evaluate(&hashed, &bindings).expect("unoptimized eval"));
            t_off.push(t);
            unoptimized = Some(tbl);
        }

        // Optimizer ON: the standard cleaning path (optimized exactly once
        // inside `clean_sample`).
        let mut t_on = Vec::with_capacity(reps);
        let mut cleaned = None;
        for _ in 0..reps {
            let (c, t) = time(|| svc.clean_sample(&data.db, &deltas).expect("clean"));
            t_on.push(t);
            cleaned = Some(c);
        }
        let cleaned = cleaned.unwrap();

        // Theorem 1: both paths materialize the identical sample.
        assert!(
            cleaned.canonical.same_contents(&unoptimized.unwrap()),
            "optimized cleaning diverged from the unoptimized expression at m={ratio}"
        );

        points.push(Point {
            ratio,
            unoptimized_s: median_of(&t_off),
            optimized_s: median_of(&t_on),
            eta_descended: cleaned.report.descended,
            sampled_leaves: cleaned.report.sampled_leaves.len(),
        });
    }

    let mut report = Report::new(
        "fig_pushdown",
        &["ratio", "unoptimized_s", "optimized_s", "speedup", "eta_depth", "sampled_leaves"],
    );
    let mut json_rows = Vec::new();
    for p in &points {
        let speedup = p.unoptimized_s / p.optimized_s;
        report.row(vec![
            format!("{:.2}", p.ratio),
            Report::f(p.unoptimized_s),
            Report::f(p.optimized_s),
            format!("{speedup:.2}x"),
            p.eta_descended.to_string(),
            p.sampled_leaves.to_string(),
        ]);
        json_rows.push(format!(
            "{{\"ratio\":{},\"unoptimized_s\":{},\"optimized_s\":{},\"speedup\":{},\
             \"eta_depth\":{},\"sampled_leaves\":{}}}",
            p.ratio, p.unoptimized_s, p.optimized_s, speedup, p.eta_descended, p.sampled_leaves
        ));
    }
    report.finish("cleaning latency, optimizer off vs on (TPC-D join view, 10% updates)");

    let depth_rows = depth_table(&data.db);
    write_json(
        "fig_pushdown",
        &format!(
            "{{\"bench\":\"fig_pushdown\",\"workload\":\"tpcd_join_view\",\"update_frac\":0.1,\
             \"reps\":{reps},\"points\":[{}],\"optimize_depth\":[{}]}}\n",
            json_rows.join(","),
            depth_rows.join(",")
        ),
    );

    let worst =
        points.iter().map(|p| p.unoptimized_s / p.optimized_s).fold(f64::INFINITY, f64::min);
    println!("minimum speedup across ratios: {worst:.2}x");
    assert!(
        worst > 1.0,
        "optimized cleaning must be strictly faster than the unoptimized expression"
    );
}
