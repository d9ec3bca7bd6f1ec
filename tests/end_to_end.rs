//! End-to-end integration: the full SVC pipeline over the TPCD workload,
//! crossing every crate (storage → relalg → ivm → sampling → core →
//! workloads), and the mini-batch pipeline over the Conviva views.

use stale_view_cleaning::cluster::minibatch::BatchPipeline;
use stale_view_cleaning::core::{query::relative_error, AggQuery, Method, SvcConfig, SvcView};
use stale_view_cleaning::ivm::view::MaterializedView;
use stale_view_cleaning::relalg::scalar::{col, lit};
use stale_view_cleaning::sampling::check_correspondence;
use stale_view_cleaning::workloads::conviva::{self, ConvivaConfig};
use stale_view_cleaning::workloads::tpcd::{TpcdConfig, TpcdData};
use stale_view_cleaning::workloads::tpcd_views::{complex_views, join_view, revenue_expr};

fn data() -> TpcdData {
    TpcdData::generate(TpcdConfig { scale: 0.05, skew: 2.0, seed: 1234 }).unwrap()
}

#[test]
fn cleaned_sample_is_exact_subset_of_fresh_view() {
    let data = data();
    let deltas = data.updates(0.15, 3).unwrap();
    for v in complex_views().into_iter().filter(|v| !v.blocked) {
        let svc =
            SvcView::create(v.id, v.plan.clone(), &data.db, SvcConfig::with_ratio(0.2)).unwrap();
        let cleaned = svc.clean_sample(&data.db, &deltas).unwrap();
        let fresh = svc.view.recompute_fresh(&data.db, &deltas).unwrap();
        for (k, row) in cleaned.canonical.iter_keyed() {
            let f = fresh.get(&k).unwrap_or_else(|| panic!("{}: key {k} not in fresh", v.id));
            for (a, b) in row.iter().zip(f) {
                match (a.as_f64(), b.as_f64()) {
                    (Some(x), Some(y)) => assert!(
                        (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0),
                        "{}: {k} {x} vs {y}",
                        v.id
                    ),
                    _ => assert_eq!(a, b, "{}: {k}", v.id),
                }
            }
        }
    }
}

#[test]
fn correspondence_property_holds_for_join_view() {
    let data = data();
    let deltas = data.updates(0.1, 5).unwrap();
    let svc = SvcView::create("jv", join_view(), &data.db, SvcConfig::with_ratio(0.15)).unwrap();
    let cleaned = svc.clean_sample(&data.db, &deltas).unwrap();
    let fresh = svc.view.recompute_fresh(&data.db, &deltas).unwrap();
    let violations = check_correspondence(
        svc.stale_sample(),
        &cleaned.canonical,
        svc.view.table(),
        &fresh,
        svc.config.ratio,
        svc.config.hash_spec(),
    );
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn estimates_beat_stale_baseline_on_aggregates() {
    let data = data();
    let deltas = data.updates(0.2, 9).unwrap();
    let svc = SvcView::create("jv", join_view(), &data.db, SvcConfig::with_ratio(0.15)).unwrap();
    let q = AggQuery::sum(revenue_expr()).filter(col("o_orderdate").lt(lit(2000i64)));
    let truth = svc.query_fresh_oracle(&data.db, &deltas, &q).unwrap();
    let stale = relative_error(svc.query_stale(&q).unwrap(), truth);
    let corr = svc.answer(&data.db, &deltas, &q, Method::Correction).unwrap();
    let aqp = svc.answer(&data.db, &deltas, &q, Method::AqpDirect).unwrap();
    assert!(relative_error(corr.value, truth) < stale);
    assert!(relative_error(aqp.value, truth) < stale);
    // The truth lies within a few standard errors of the correction (a
    // single 95% interval is allowed to miss; 3x its half-width is not).
    let ci = corr.ci.unwrap();
    assert!(
        (corr.value - truth).abs() <= 3.0 * ci.half_width.max(1e-9),
        "corr {} vs truth {truth}, half-width {}",
        corr.value,
        ci.half_width
    );
}

#[test]
fn full_maintenance_then_queries_are_exact() {
    let data = data();
    let deltas = data.updates(0.1, 2).unwrap();
    let mut svc = SvcView::create("jv", join_view(), &data.db, SvcConfig::with_ratio(0.1)).unwrap();
    let q = AggQuery::count();
    let truth = svc.query_fresh_oracle(&data.db, &deltas, &q).unwrap();
    svc.maintain_full(&data.db, &deltas).unwrap();
    assert_eq!(svc.query_stale(&q).unwrap(), truth);
}

#[test]
fn blocked_views_still_produce_correct_samples() {
    // V21 / V22: push-down blocked, cleaning falls back to evaluating more
    // of the plan — but the sample must still be exact.
    let data = data();
    let deltas = data.updates(0.1, 4).unwrap();
    for v in complex_views().into_iter().filter(|v| v.blocked) {
        let svc =
            SvcView::create(v.id, v.plan.clone(), &data.db, SvcConfig::with_ratio(0.25)).unwrap();
        let cleaned = svc.clean_sample(&data.db, &deltas).unwrap();
        assert!(!cleaned.report.fully_pushed(), "{} should be blocked", v.id);
        let fresh = svc.view.recompute_fresh(&data.db, &deltas).unwrap();
        for (k, row) in cleaned.canonical.iter_keyed() {
            assert_eq!(fresh.get(&k), Some(row), "{}: {k}", v.id);
        }
    }
}

#[test]
fn sampling_ratio_controls_accuracy_cost_tradeoff() {
    let data = data();
    let deltas = data.updates(0.1, 8).unwrap();
    let q = AggQuery::avg(revenue_expr());
    let mut widths = Vec::new();
    for m in [0.05, 0.2, 0.5] {
        let svc = SvcView::create("jv", join_view(), &data.db, SvcConfig::with_ratio(m)).unwrap();
        let cleaned = svc.clean_sample(&data.db, &deltas).unwrap();
        let est = svc.estimate_aqp(&cleaned, &q).unwrap();
        widths.push(est.ci.unwrap().half_width);
    }
    assert!(widths[0] > widths[2], "CI width must shrink as m grows: {widths:?}");
}

/// Regression (the `fig15` panic): the nested-aggregate views V4/V5 pass the
/// merge-rule check but have no delta derivation, so the pipeline must route
/// them to the fallback plan as `maintenance_plan` does — not start
/// mini-batching and abort inside `change_table_expr`.
#[test]
fn nested_conviva_views_take_the_pipeline_fallback() {
    let cfg = ConvivaConfig { base_events: 3_000, ..Default::default() };
    let db = conviva::generate(cfg).unwrap();
    let deltas = conviva::appended_updates(&db, cfg, 400, 7).unwrap();
    for id in ["V4", "V5"] {
        let def = conviva::views().into_iter().find(|v| v.id == id).unwrap();
        let mut view = MaterializedView::create(id, def.plan, &db).unwrap();
        let expected = view.recompute_fresh(&db, &deltas).unwrap();
        let run = BatchPipeline::new(2).maintain(&db, &mut view, &deltas, 50).unwrap();
        assert_eq!((run.batches, run.fallback_batches), (1, 1), "{id}: one fallback batch");
        assert!(
            view.table().approx_same_contents(&expected, 1e-9),
            "{id}: fallback maintenance diverged from recompute_fresh"
        );
    }
}
