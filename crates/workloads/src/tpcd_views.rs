//! The TPCD view suite of the evaluation:
//!
//! * the **join view** of `lineitem ⋈ orders` with 12 parametrized query
//!   analogs (the TPCD queries that touch the join — Q3, Q4, Q5, Q7, Q8,
//!   Q9, Q10, Q12, Q14, Q18, Q19, Q21 per Section 7.2 / Appendix 12.6.1);
//! * the **complex views** V3..V22 of Section 7.3: ten group-by aggregate
//!   views over the base schema, including the two structures the paper
//!   identifies as push-down blockers — V21's nested aggregate and V22's
//!   key transformation.

use rand::rngs::StdRng;
use rand::Rng;

use svc_core::query::AggQuery;
use svc_relalg::aggregate::{AggFunc, AggSpec};
use svc_relalg::plan::{JoinKind, Plan};
use svc_relalg::scalar::{col, lit, Expr, Func};

/// `revenue = l_extendedprice * (1 − l_discount)`, the recurring TPCD
/// expression.
pub fn revenue_expr() -> Expr {
    col("l_extendedprice").mul(lit(1.0).sub(col("l_discount")))
}

/// The join view: the foreign-key join of `lineitem` and `orders`
/// (Section 7.2). An SPJ view — its primary key is lineitem's.
pub fn join_view() -> Plan {
    Plan::scan("lineitem").join(
        Plan::scan("orders"),
        JoinKind::Inner,
        &[("l_orderkey", "o_orderkey")],
    )
}

/// One parametrized query template on the join view.
pub struct JoinViewQuery {
    /// The TPCD query this is an analog of ("Q3", ..., "Q21").
    pub id: &'static str,
    generator: fn(&mut StdRng) -> AggQuery,
}

impl JoinViewQuery {
    /// Draw a random instance (random predicate parameters, as TPCD's
    /// `qgen` does).
    pub fn instance(&self, rng: &mut StdRng) -> AggQuery {
        (self.generator)(rng)
    }
}

/// The 12 join-view query analogs of Figure 5.
pub fn join_view_queries() -> Vec<JoinViewQuery> {
    fn date(rng: &mut StdRng) -> Expr {
        lit(rng.random_range(200..2300i64))
    }
    vec![
        JoinViewQuery {
            id: "Q3",
            generator: |rng| AggQuery::sum(revenue_expr()).filter(col("o_orderdate").lt(date(rng))),
        },
        JoinViewQuery {
            id: "Q4",
            generator: |rng| {
                let d = rng.random_range(0..2400i64);
                AggQuery::count()
                    .filter(col("o_orderdate").ge(lit(d)).and(col("o_orderdate").lt(lit(d + 90))))
            },
        },
        JoinViewQuery {
            id: "Q5",
            generator: |rng| {
                let s = rng.random_range(1..15i64);
                AggQuery::sum(revenue_expr()).filter(col("l_suppkey").lt(lit(s)))
            },
        },
        JoinViewQuery {
            id: "Q7",
            generator: |rng| {
                let d = rng.random_range(0..2000i64);
                AggQuery::sum(revenue_expr())
                    .filter(col("l_shipdate").ge(lit(d)).and(col("l_shipdate").lt(lit(d + 365))))
            },
        },
        JoinViewQuery {
            id: "Q8",
            generator: |rng| {
                let t = rng.random_range(500..5000i64);
                AggQuery::avg(revenue_expr()).filter(col("o_totalprice").gt(lit(t as f64)))
            },
        },
        JoinViewQuery {
            id: "Q9",
            generator: |rng| {
                let p = rng.random_range(5..60i64);
                AggQuery::sum(col("l_extendedprice").mul(col("l_discount")))
                    .filter(col("l_partkey").lt(lit(p)))
            },
        },
        JoinViewQuery {
            id: "Q10",
            generator: |rng| {
                let d = rng.random_range(0..2300i64);
                AggQuery::sum(revenue_expr())
                    .filter(col("l_returnflag").eq(lit("R")).and(col("o_orderdate").ge(lit(d))))
            },
        },
        JoinViewQuery {
            id: "Q12",
            generator: |rng| {
                let d = rng.random_range(0..2300i64);
                AggQuery::count().filter(
                    col("l_shipmode")
                        .eq(lit("SHIP"))
                        .or(col("l_shipmode").eq(lit("MAIL")))
                        .and(col("l_shipdate").ge(lit(d))),
                )
            },
        },
        JoinViewQuery {
            id: "Q14",
            generator: |rng| {
                let p = rng.random_range(3..40i64);
                AggQuery::sum(revenue_expr()).filter(col("l_partkey").lt(lit(p)))
            },
        },
        JoinViewQuery {
            id: "Q18",
            generator: |rng| {
                let t = rng.random_range(1000..8000i64);
                AggQuery::sum(col("l_quantity")).filter(col("o_totalprice").gt(lit(t as f64)))
            },
        },
        JoinViewQuery {
            id: "Q19",
            generator: |rng| {
                let q = rng.random_range(5..40i64);
                AggQuery::sum(revenue_expr()).filter(
                    col("l_quantity").ge(lit(q as f64)).and(col("l_shipmode").eq(lit("AIR"))),
                )
            },
        },
        JoinViewQuery {
            id: "Q21",
            generator: |rng| {
                let s = rng.random_range(1..20i64);
                AggQuery::count()
                    .filter(col("l_returnflag").ne(lit("N")).and(col("l_suppkey").lt(lit(s))))
            },
        },
    ]
}

/// A named complex view with the query attributes used by the random query
/// generator of Section 7.1 ("pick a random attribute a from the group by
/// clause and a random attribute b from aggregation").
pub struct ComplexView {
    /// The paper's view id ("V3" .. "V22").
    pub id: &'static str,
    /// The view definition.
    pub plan: Plan,
    /// Public group-by (dimension) columns usable in predicates.
    pub dims: Vec<&'static str>,
    /// Public aggregate (measure) columns usable in aggregates.
    pub measures: Vec<&'static str>,
    /// Whether the paper expects this view to block hash push-down.
    pub blocked: bool,
}

/// The ten complex views of Figure 7 (structural analogs).
#[allow(clippy::vec_init_then_push)] // one block per view reads better
pub fn complex_views() -> Vec<ComplexView> {
    let lineitem_orders = || {
        Plan::scan("lineitem").join(
            Plan::scan("orders"),
            JoinKind::Inner,
            &[("l_orderkey", "o_orderkey")],
        )
    };
    let mut views = Vec::new();

    // V3: revenue per order (TPC-H Q3 groups by l_orderkey + o_orderdate;
    // keeping l_orderkey in the group key lets η push through the join to
    // BOTH lineitem and orders — which is what makes the l_extendedprice
    // outlier index eligible in Figure 8). The order date rides along as an
    // avg (constant within a group), staying change-table maintainable.
    views.push(ComplexView {
        id: "V3",
        plan: lineitem_orders().aggregate(
            &["l_orderkey"],
            vec![
                AggSpec::new("revenue", AggFunc::Sum, revenue_expr()),
                AggSpec::count_all("n"),
                AggSpec::new("orderdate", AggFunc::Avg, col("o_orderdate")),
            ],
        ),
        dims: vec!["orderdate"],
        measures: vec!["revenue", "n"],
        blocked: false,
    });

    // V4: order counts by priority and date. (A *computed* date bucket
    // would block push-down at the projection — that structure is covered
    // by V22; the paper's V4 pushes cleanly.)
    views.push(ComplexView {
        id: "V4",
        plan: Plan::scan("orders").aggregate(
            &["o_orderpriority", "o_orderdate"],
            vec![
                AggSpec::count_all("n"),
                AggSpec::new("totalValue", AggFunc::Sum, col("o_totalprice")),
            ],
        ),
        dims: vec!["o_orderpriority", "o_orderdate"],
        measures: vec!["n", "totalValue"],
        blocked: false,
    });

    // V5: revenue per customer nation.
    views.push(ComplexView {
        id: "V5",
        plan: lineitem_orders()
            .join(Plan::scan("customer"), JoinKind::Inner, &[("o_custkey", "c_custkey")])
            .aggregate(
                &["c_nationkey"],
                vec![
                    AggSpec::new("revenue", AggFunc::Sum, revenue_expr()),
                    AggSpec::count_all("n"),
                ],
            ),
        dims: vec!["c_nationkey"],
        measures: vec!["revenue", "n"],
        blocked: false,
    });

    // V9: discount volume per part.
    views.push(ComplexView {
        id: "V9",
        plan: Plan::scan("lineitem").aggregate(
            &["l_partkey"],
            vec![
                AggSpec::new("profit", AggFunc::Sum, col("l_extendedprice").mul(col("l_discount"))),
                AggSpec::count_all("n"),
            ],
        ),
        dims: vec!["l_partkey"],
        measures: vec!["profit", "n"],
        blocked: false,
    });

    // V10: returned revenue per customer.
    views.push(ComplexView {
        id: "V10",
        plan: lineitem_orders().select(col("l_returnflag").eq(lit("R"))).aggregate(
            &["o_custkey"],
            vec![
                AggSpec::new("lostRevenue", AggFunc::Sum, revenue_expr()),
                AggSpec::count_all("n"),
            ],
        ),
        dims: vec!["o_custkey"],
        measures: vec!["lostRevenue", "n"],
        blocked: false,
    });

    // V13: orders per customer.
    views.push(ComplexView {
        id: "V13",
        plan: Plan::scan("orders").aggregate(
            &["o_custkey"],
            vec![
                AggSpec::count_all("orderCount"),
                AggSpec::new("avgPrice", AggFunc::Avg, col("o_totalprice")),
            ],
        ),
        dims: vec!["o_custkey"],
        measures: vec!["orderCount", "avgPrice"],
        blocked: false,
    });

    // V15: revenue per supplier (the paper's V15i inner view).
    views.push(ComplexView {
        id: "V15",
        plan: Plan::scan("lineitem").aggregate(
            &["l_suppkey"],
            vec![
                AggSpec::new("totalRevenue", AggFunc::Sum, revenue_expr()),
                AggSpec::count_all("n"),
            ],
        ),
        dims: vec!["l_suppkey"],
        measures: vec!["totalRevenue", "n"],
        blocked: false,
    });

    // V18: large-order volume per customer.
    views.push(ComplexView {
        id: "V18",
        plan: lineitem_orders().select(col("o_totalprice").gt(lit(2000.0))).aggregate(
            &["o_custkey"],
            vec![
                AggSpec::new("quantity", AggFunc::Sum, col("l_quantity")),
                AggSpec::count_all("n"),
            ],
        ),
        dims: vec!["o_custkey"],
        measures: vec!["quantity", "n"],
        blocked: false,
    });

    // V21: nested aggregate — the distribution of per-supplier line counts.
    // The inner γ blocks hash push-down (Appendix 12.4) and change-table
    // maintenance.
    views.push(ComplexView {
        id: "V21",
        plan: Plan::scan("lineitem")
            .aggregate(&["l_suppkey"], vec![AggSpec::count_all("c")])
            .aggregate(&["c"], vec![AggSpec::count_all("suppliers")]),
        dims: vec!["c"],
        measures: vec!["suppliers"],
        blocked: true,
    });

    // V22: key transformation — grouping by a string transformation of the
    // key blocks push-down below the projection.
    views.push(ComplexView {
        id: "V22",
        plan: Plan::scan("orders")
            .project(vec![
                ("o_orderkey", col("o_orderkey")),
                (
                    "cntry",
                    Expr::Call {
                        func: Func::Concat,
                        args: vec![lit("c"), col("o_custkey").rem(lit(17i64))],
                    },
                ),
                ("o_totalprice", col("o_totalprice")),
            ])
            .aggregate(
                &["cntry"],
                vec![
                    AggSpec::count_all("n"),
                    AggSpec::new("total", AggFunc::Sum, col("o_totalprice")),
                ],
            ),
        dims: vec!["cntry"],
        measures: vec!["n", "total"],
        blocked: true,
    });

    views
}

/// Four TPCD queries written the way a naive view builder emits them: the
/// two biggest tables joined first, the selective dimension filter joined
/// last — the shape cost-based join ordering is meant to repair. The
/// queries of three or more joins come first; the two-join `Q3c`, with
/// little room to win, is the contrast row at the end.
pub fn join_order_queries() -> Vec<(&'static str, Plan)> {
    let lineitem_orders = || {
        Plan::scan("lineitem").join(
            Plan::scan("orders"),
            JoinKind::Inner,
            &[("l_orderkey", "o_orderkey")],
        )
    };
    let customer = || Plan::scan("customer");
    let nation = || Plan::scan("nation");
    let revenue_and_count =
        || vec![AggSpec::new("revenue", AggFunc::Sum, revenue_expr()), AggSpec::count_all("n")];
    vec![
        // One nation's customers: n_name keeps ~1 of 25 nations, so nation
        // → customer → orders → lineitem is the right order.
        (
            "Q5n",
            lineitem_orders()
                .join(customer(), JoinKind::Inner, &[("o_custkey", "c_custkey")])
                .join(nation(), JoinKind::Inner, &[("c_nationkey", "n_nationkey")])
                .select(col("n_name").eq(lit("NATION#3")))
                .aggregate(&["n_name"], revenue_and_count()),
        ),
        // One region (of 5), through nation: a 4-join chain.
        (
            "Q5r",
            lineitem_orders()
                .join(customer(), JoinKind::Inner, &[("o_custkey", "c_custkey")])
                .join(nation(), JoinKind::Inner, &[("c_nationkey", "n_nationkey")])
                .join(Plan::scan("region"), JoinKind::Inner, &[("n_regionkey", "r_regionkey")])
                .select(col("r_name").eq(lit("REGION#2")))
                .aggregate(&["n_name"], revenue_and_count()),
        ),
        // Profit of one brand per supplier nation (a Q9 analog): part and
        // supplier are both selective, orders is dead weight joined first.
        (
            "Q9b",
            lineitem_orders()
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
        ),
        (
            "Q3c",
            lineitem_orders()
                .join(customer(), JoinKind::Inner, &[("o_custkey", "c_custkey")])
                .select(col("c_mktsegment").eq(lit("BUILDING")))
                .aggregate(
                    &["c_custkey"],
                    vec![AggSpec::new("revenue", AggFunc::Sum, revenue_expr())],
                ),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpcd::{TpcdConfig, TpcdData};
    use rand::SeedableRng;
    use svc_core::{SvcConfig, SvcView};
    use svc_relalg::eval::{evaluate, Bindings};

    fn data() -> TpcdData {
        TpcdData::generate(TpcdConfig { scale: 0.03, skew: 2.0, seed: 3 }).unwrap()
    }

    #[test]
    fn join_view_evaluates_and_queries_run() {
        let data = data();
        let b = Bindings::from_database(&data.db);
        let view = evaluate(&join_view(), &b).unwrap();
        assert_eq!(view.len(), data.lineitem_rows());
        let mut rng = StdRng::seed_from_u64(5);
        for template in join_view_queries() {
            let q = template.instance(&mut rng);
            let v = q.exact(&view).unwrap();
            assert!(v.is_finite() || v.is_nan(), "{} produced {v}", template.id);
        }
    }

    #[test]
    fn twelve_join_queries_exist() {
        let qs = join_view_queries();
        assert_eq!(qs.len(), 12);
        let ids: Vec<&str> = qs.iter().map(|q| q.id).collect();
        assert_eq!(
            ids,
            vec!["Q3", "Q4", "Q5", "Q7", "Q8", "Q9", "Q10", "Q12", "Q14", "Q18", "Q19", "Q21"]
        );
    }

    #[test]
    fn complex_views_materialize() {
        let data = data();
        for v in complex_views() {
            let view = SvcView::create(v.id, v.plan.clone(), &data.db, SvcConfig::with_ratio(0.2));
            let view = view.unwrap_or_else(|e| panic!("{} failed: {e}", v.id));
            assert!(!view.view.is_empty(), "{} is empty", v.id);
        }
    }

    #[test]
    fn blockers_match_paper_expectations() {
        let data = data();
        let deltas = data.updates(0.05, 11).unwrap();
        for v in complex_views() {
            let svc = SvcView::create(v.id, v.plan.clone(), &data.db, SvcConfig::with_ratio(0.1))
                .unwrap();
            let (_, report, _) = svc.cleaning_plan(&data.db, &deltas).unwrap();
            assert_eq!(
                !report.fully_pushed(),
                v.blocked,
                "{}: expected blocked={}, blockers: {:?}",
                v.id,
                v.blocked,
                report.blockers
            );
        }
    }
}
