//! Outlier indexing on skewed data (Section 6): a revenue-per-order view
//! over a heavy-tailed price distribution, where a handful of records
//! dominate sums and plain sampling struggles.
//!
//! Run with: `cargo run --release --example outlier_skew`. It exits
//! non-zero unless every pushed-up outlier row equals the freshly
//! recomputed view's row at its key.

use stale_view_cleaning::core::outlier::{
    estimate_aqp_with_outliers, stale_rows_at, OutlierIndex, OutlierIndexSpec, ThresholdPolicy,
};
use stale_view_cleaning::core::{query::relative_error, AggQuery, SvcConfig, SvcView};
use stale_view_cleaning::relalg::scalar::{col, lit};
use stale_view_cleaning::workloads::tpcd::{TpcdConfig, TpcdData};
use stale_view_cleaning::workloads::tpcd_views::complex_views;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // z = 4: the most extreme tail of Figure 8a.
    let data = TpcdData::generate(TpcdConfig { scale: 0.08, skew: 4.0, seed: 21 })?;
    let deltas = data.updates(0.10, 5)?;

    let v3 = complex_views().into_iter().find(|v| v.id == "V3").unwrap();
    let svc = SvcView::create("V3", v3.plan, &data.db, SvcConfig::with_ratio(0.1))?;

    // Index the 100 most extreme lineitem prices (top-k policy, Section 6.1).
    let idx = OutlierIndex::build(
        OutlierIndexSpec {
            table: "lineitem".into(),
            attr: "l_extendedprice".into(),
            policy: ThresholdPolicy::TopK,
            capacity: 100,
        },
        &data.db,
        &deltas,
    )?;
    println!("outlier index: {} records above threshold {:.0}", idx.records.len(), idx.threshold);

    let cleaned = svc.clean_sample(&data.db, &deltas)?;
    println!(
        "index eligible for this cleaning run (sampled leaves {:?}): {}",
        cleaned.report.sampled_leaves,
        idx.eligible(&cleaned.report.sampled_leaves)
    );

    // Push the index up through the view (Definition 5): the affected view
    // rows are materialized exactly.
    let o_fresh = svc.view.public_of(&idx.push_up(&svc.view, &data.db, &deltas)?)?;
    let _o_stale = stale_rows_at(&svc.view.public_table()?, &o_fresh);
    println!("outlier rows of the view: {}", o_fresh.len());

    // Self-check: every pushed-up row is the fresh view's row at its key.
    let fresh = svc.view.public_of(&svc.view.recompute_fresh(&data.db, &deltas)?)?;
    let wrong = o_fresh.iter_keyed().filter(|(k, row)| fresh.get(k) != Some(*row)).count();
    if o_fresh.is_empty() || wrong > 0 {
        return Err(format!(
            "push-up differs from the fresh view: {wrong} of {} rows",
            o_fresh.len()
        )
        .into());
    }
    println!("every outlier row equals the fresh view's row at its key");
    let q = AggQuery::sum(col("revenue")).filter(col("orderdate").lt(lit(1500.0)));
    let truth = q.exact(&fresh)?;

    let plain = svc.estimate_aqp(&cleaned, &q)?;
    let with_idx = estimate_aqp_with_outliers(&cleaned.public, &o_fresh, &q, 0.1, &svc.config)?;

    println!("\nsum(revenue) where orderdate < 1500");
    println!("  truth                  : {truth:.0}");
    println!(
        "  SVC+AQP  (no index)    : {:.0}   error {:.2}%",
        plain.value,
        relative_error(plain.value, truth) * 100.0
    );
    println!(
        "  SVC+AQP  (outlier idx) : {:.0}   error {:.2}%",
        with_idx.value,
        relative_error(with_idx.value, truth) * 100.0
    );
    println!("\nThe deterministic outlier set removes the heavy tail from the sampled");
    println!("estimate's variance — the mechanism behind Figure 8a.");
    Ok(())
}
