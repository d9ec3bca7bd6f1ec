//! Cost-based join reordering on the TPC-D workload: builder order vs the
//! statistics catalog's order.
//!
//! Each query is written the way a naive view builder would emit it — the
//! two biggest tables joined first, the selective dimension filter joined
//! last — and evaluated twice: once through the standard optimizer
//! (predicate pushdown sinks the filters, but the join tree stays as
//! written) and once through `optimize_with` driven by the `svc-catalog`
//! estimator (DP over the join region). Reported times cover optimize +
//! evaluate, so the DP search pays for itself inside the measurement.
//!
//! Writes `experiments/fig_joinorder.csv` and
//! `experiments/fig_joinorder.json`. On every ≥3-join query the cost-based
//! order must beat the builder order (asserted; the margins are large
//! enough to hold at CI scale too).

use std::fs;

use svc_bench::{bench_scale, experiments_dir, median_of, time, tpcd, Report};
use svc_catalog::Catalog;
use svc_relalg::aggregate::{AggFunc, AggSpec};
use svc_relalg::eval::{evaluate, Bindings};
use svc_relalg::optimizer::{optimize, optimize_with, CardEstimator};
use svc_relalg::plan::{JoinKind, Plan};
use svc_relalg::scalar::{col, lit};
use svc_workloads::tpcd_views::revenue_expr;

struct JoinQuery {
    id: &'static str,
    joins: usize,
    plan: Plan,
}

/// `C_out` on the real data: summed sizes of every join's materialized
/// output — the deterministic quantity the cost model minimizes, used for
/// the small-scale assertion where wall-clock is scheduler noise.
fn join_work(plan: &Plan, b: &Bindings<'_>) -> usize {
    let own = match plan {
        Plan::Join { .. } => evaluate(plan, b).expect("join work").len(),
        _ => 0,
    };
    own + plan.children().map(|child| join_work(child, b)).sum::<usize>()
}

/// The query suite: builder order joins the big tables first and leaves
/// the selective dimension for last, exactly the shape the reorderer is
/// meant to repair. Join counts are inner-join operators in the region.
fn queries() -> Vec<JoinQuery> {
    let lineitem_orders = || {
        Plan::scan("lineitem").join(
            Plan::scan("orders"),
            JoinKind::Inner,
            &[("l_orderkey", "o_orderkey")],
        )
    };
    vec![
        // 2-join contrast row: little room to win, must not regress much.
        JoinQuery {
            id: "Q3c",
            joins: 2,
            plan: lineitem_orders()
                .join(Plan::scan("customer"), JoinKind::Inner, &[("o_custkey", "c_custkey")])
                .select(col("c_mktsegment").eq(lit("BUILDING")))
                .aggregate(
                    &["c_custkey"],
                    vec![AggSpec::new("revenue", AggFunc::Sum, revenue_expr())],
                ),
        },
        // Revenue of one nation's customers: the n_name filter keeps ~1 of
        // 25 nations, so nation → customer → orders → lineitem is the
        // right order; the builder starts from lineitem ⋈ orders.
        JoinQuery {
            id: "Q5n",
            joins: 3,
            plan: lineitem_orders()
                .join(Plan::scan("customer"), JoinKind::Inner, &[("o_custkey", "c_custkey")])
                .join(Plan::scan("nation"), JoinKind::Inner, &[("c_nationkey", "n_nationkey")])
                .select(col("n_name").eq(lit("NATION#3")))
                .aggregate(
                    &["n_name"],
                    vec![
                        AggSpec::new("revenue", AggFunc::Sum, revenue_expr()),
                        AggSpec::count_all("n"),
                    ],
                ),
        },
        // One region (of 5), through nation: a 4-join chain.
        JoinQuery {
            id: "Q5r",
            joins: 4,
            plan: lineitem_orders()
                .join(Plan::scan("customer"), JoinKind::Inner, &[("o_custkey", "c_custkey")])
                .join(Plan::scan("nation"), JoinKind::Inner, &[("c_nationkey", "n_nationkey")])
                .join(Plan::scan("region"), JoinKind::Inner, &[("n_regionkey", "r_regionkey")])
                .select(col("r_name").eq(lit("REGION#2")))
                .aggregate(
                    &["n_name"],
                    vec![
                        AggSpec::new("revenue", AggFunc::Sum, revenue_expr()),
                        AggSpec::count_all("n"),
                    ],
                ),
        },
        // Profit of one brand per supplier nation (Q9 analog): part and
        // supplier are both selective, orders is dead weight joined first.
        JoinQuery {
            id: "Q9b",
            joins: 3,
            plan: lineitem_orders()
                .join(Plan::scan("part"), JoinKind::Inner, &[("l_partkey", "p_partkey")])
                .join(Plan::scan("supplier"), JoinKind::Inner, &[("l_suppkey", "s_suppkey")])
                .select(col("p_brand").eq(lit("Brand#7")))
                .aggregate(
                    &["s_nationkey"],
                    vec![AggSpec::new(
                        "profit",
                        AggFunc::Sum,
                        col("l_extendedprice").mul(col("l_discount")),
                    )],
                ),
        },
    ]
}

fn main() {
    let data = tpcd(1.0, 2.0, 42);
    let db = &data.db;
    let bindings = Bindings::from_database(db);
    let (catalog, t_build) = time(|| Catalog::build(db));
    println!(
        "catalog over {} tables / {} rows built in {:.1} ms",
        catalog.len(),
        db.total_rows(),
        t_build * 1e3
    );

    let reps = 3;
    let mut report = Report::new(
        "fig_joinorder",
        &["query", "joins", "t_builder_ms", "t_cost_ms", "speedup", "est_rows", "rows"],
    );
    let mut json_rows = Vec::new();
    let mut regressions = Vec::new();
    for q in queries() {
        let mut t_builder = Vec::with_capacity(reps);
        let mut t_cost = Vec::with_capacity(reps);
        let mut rows = 0usize;
        for _ in 0..reps {
            let (r, t) = time(|| {
                let (p, _) = optimize(&q.plan, db).expect("optimize");
                evaluate(&p, &bindings).expect("evaluate")
            });
            rows = r.len();
            t_builder.push(t);
            let (r2, t) = time(|| {
                let (p, _) = optimize_with(&q.plan, db, &catalog.estimator()).expect("optimize");
                evaluate(&p, &bindings).expect("evaluate")
            });
            // Equal up to float-summation order: the aggregate accumulates
            // rows in whatever order the chosen join tree produces them.
            assert!(
                r2.approx_same_contents(&r, 1e-9),
                "{}: reordered plan changed the result",
                q.id
            );
            t_cost.push(t);
        }
        let (tb, tc) = (median_of(&t_builder), median_of(&t_cost));
        let est_rows = catalog.estimator().estimate_rows(&q.plan, db).expect("estimate");
        // Deterministic intermediate-size comparison (`C_out` on the real
        // data): the assertion metric at small scales, where wall-clock is
        // dominated by scheduler noise on shared CI runners.
        let work_builder = join_work(&optimize(&q.plan, db).expect("optimize").0, &bindings);
        let work_cost = join_work(
            &optimize_with(&q.plan, db, &catalog.estimator()).expect("optimize").0,
            &bindings,
        );
        report.row(vec![
            q.id.to_string(),
            q.joins.to_string(),
            format!("{:.2}", tb * 1e3),
            format!("{:.2}", tc * 1e3),
            format!("{:.2}", tb / tc.max(1e-9)),
            format!("{est_rows:.0}"),
            rows.to_string(),
        ]);
        json_rows.push(format!(
            "{{\"query\":\"{}\",\"joins\":{},\"t_builder_s\":{tb},\"t_cost_s\":{tc},\
             \"work_builder\":{work_builder},\"work_cost\":{work_cost},\
             \"est_rows\":{est_rows},\"rows\":{rows}}}",
            q.id, q.joins
        ));
        if q.joins >= 3 {
            // Intermediate sizes must never grow, at any scale; wall-clock
            // must win wherever the data is big enough for the join work to
            // dominate timer noise (full scale and above).
            if work_cost > work_builder {
                regressions.push(format!("{}: C_out {work_cost} vs {work_builder} rows", q.id));
            }
            if bench_scale() >= 1.0 && tc >= tb {
                regressions.push(format!("{}: {:.2}ms vs {:.2}ms", q.id, tc * 1e3, tb * 1e3));
            }
        }
    }
    report.finish("TPC-D join order: builder vs cost-based (optimize + evaluate, median of 3)");

    let json = format!(
        "{{\"bench\":\"fig_joinorder\",\"workload\":\"tpcd\",\"scale\":{},\
         \"catalog_build_s\":{t_build},\"queries\":[{}]}}\n",
        bench_scale(),
        json_rows.join(",")
    );
    let dir = experiments_dir();
    let _ = fs::create_dir_all(&dir);
    let path = dir.join("fig_joinorder.json");
    match fs::write(&path, &json) {
        Ok(()) => println!("[written {}]", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }

    assert!(
        regressions.is_empty(),
        "cost-based order must beat builder order on every ≥3-join query: {regressions:?}"
    );
}
