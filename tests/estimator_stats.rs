//! Statistical contract tests for the estimators: near-unbiasedness across
//! independent hash seeds, CLT coverage, and the Section 5.2.2 variance
//! claim that corrections beat direct estimates while staleness is small —
//! plus the contracts of the one correspondence pass behind them all:
//! bit-repeatability, AQP as the pass with no stale side, the outlier skip
//! test against physical filtering and the outlier `avg` interval's
//! coverage, and the break-even picks. Last, the
//! answer path's own contract: `SvcView` lowers the query onto the canonical
//! state instead of materializing the public relation, so its answers must
//! equal the materialized public path (and the row-at-a-time reference) bit
//! for bit and project nothing; a query reads column slices, building only
//! the columns it names, once per mutation; and `q(S)` is evaluated once
//! per view state.

use rand::SeedableRng;

mod generators;
use generators::row_reference;

use stale_view_cleaning::core::estimate::{svc_aqp, svc_corr, Estimate};
use stale_view_cleaning::core::outlier::{
    estimate_aqp_with_outliers, estimate_corr_with_outliers, stale_rows_at, OutlierIndex,
    OutlierIndexSpec, ThresholdPolicy,
};
use stale_view_cleaning::core::query::{rows_evaluated, QueryAgg};
use stale_view_cleaning::core::svc::CleanedSample;
use stale_view_cleaning::core::{AggQuery, Method, SvcConfig, SvcView};
use stale_view_cleaning::ivm::view::projection_count;
use stale_view_cleaning::relalg::aggregate::{AggFunc, AggSpec};
use stale_view_cleaning::relalg::plan::{JoinKind, Plan};
use stale_view_cleaning::relalg::scalar::{col, lit, Expr};
use stale_view_cleaning::sampling::operator::sample_by_key;
use stale_view_cleaning::stats::{gaussian_gamma, quantile, quantile_in_place, Moments};
use stale_view_cleaning::storage::{
    DataType, Database, Deltas, HashSpec, Result, Schema, StagedEdits, Table, Value,
};
use stale_view_cleaning::workloads::conviva::{self, ConvivaConfig};
use stale_view_cleaning::workloads::cube::{base_cube, CUBE_DIMS};
use stale_view_cleaning::workloads::querygen::random_queries;
use stale_view_cleaning::workloads::tpcd::{TpcdConfig, TpcdData};
use stale_view_cleaning::workloads::tpcd_views::{
    complex_views, join_view, join_view_queries, ComplexView,
};

/// Population of 4000 rows; the fresh version perturbs 5% of them slightly.
fn views() -> (Table, Table) {
    let schema = Schema::from_pairs(&[("id", DataType::Int), ("x", DataType::Float)]).unwrap();
    let mut stale = Table::new(schema.clone(), &["id"]).unwrap();
    let mut fresh = Table::new(schema, &["id"]).unwrap();
    for i in 0..4000i64 {
        let x = ((i * 31) % 173) as f64;
        stale.insert(vec![Value::Int(i), Value::Float(x)]).unwrap();
        let fx = if i % 20 == 0 { x + 25.0 } else { x };
        fresh.insert(vec![Value::Int(i), Value::Float(fx)]).unwrap();
    }
    (stale, fresh)
}

#[test]
fn aqp_sum_is_nearly_unbiased_over_seeds() {
    let (_, fresh) = views();
    let q = AggQuery::sum(col("x"));
    let truth = q.exact(&fresh).unwrap();
    let m = 0.1;
    let mut estimates = Moments::new();
    for seed in 0..60u64 {
        let sample = sample_by_key(&fresh, m, HashSpec::with_seed(seed));
        if sample.is_empty() {
            continue;
        }
        let cfg = SvcConfig::with_ratio(m).reseeded(seed);
        estimates.push(svc_aqp(&sample, &q, m, &cfg).unwrap().value);
    }
    let bias = (estimates.mean() - truth).abs() / truth;
    assert!(bias < 0.02, "mean over 60 seeds is {:.1} vs truth {truth:.1}", estimates.mean());
}

#[test]
fn clt_interval_coverage_is_near_nominal() {
    let (_, fresh) = views();
    let q = AggQuery::avg(col("x"));
    let truth = q.exact(&fresh).unwrap();
    let m = 0.15;
    let mut covered = 0;
    let mut total = 0;
    for seed in 0..80u64 {
        let sample = sample_by_key(&fresh, m, HashSpec::with_seed(seed * 7 + 1));
        if sample.len() < 30 {
            continue;
        }
        let cfg = SvcConfig::with_ratio(m).reseeded(seed);
        let est = svc_aqp(&sample, &q, m, &cfg).unwrap();
        total += 1;
        if est.ci.unwrap().contains(truth) {
            covered += 1;
        }
    }
    let rate = covered as f64 / total as f64;
    assert!(
        (0.85..=1.0).contains(&rate),
        "95% CLT interval covered the truth in {covered}/{total} runs"
    );

    // The same contract for estimates that come through `SvcView`: samples
    // cleaned by the delta runner on both fold arms (the cube merges groups,
    // the join view replaces rows by key), each cell over 100 hash seeds.
    let seeds = 100;
    let floor = 0.95 - 3.0 * (0.95 * 0.05 / seeds as f64).sqrt();
    let mut misses = Vec::new();
    let cells = svc_view_coverage_cells(seeds);
    for cell in cells.iter().filter(|c| !c.known_miss) {
        let rate = cell.covered as f64 / seeds as f64;
        let bias = (cell.sum / seeds as f64 - cell.truth).abs() / cell.truth.abs();
        if rate < floor || bias >= 0.02 {
            misses.push(format!("{}: {}/{seeds}, bias {bias:.4}", cell.label, cell.covered));
        }
    }
    assert!(misses.is_empty(), "coverage below {floor:.3} or bias of 2 % or more: {misses:?}");
    // The CORR median's interval rests on the key pairs that changed, so it
    // keeps the covariance of the corresponding samples: on the join view,
    // where most keys are unchanged, it is narrower than AQP's under every
    // mix.
    let half_width = |label: String| {
        cells.iter().find(|c| c.label == label).map(|c| c.half_width / seeds as f64).unwrap()
    };
    for mix in ["insert-only", "update-only", "mixed"] {
        let cell = |method: Method| half_width(format!("joinView {mix} Median {method:?}"));
        let (corr, aqp) = (cell(Method::Correction), cell(Method::AqpDirect));
        assert!(corr < aqp, "{mix}: CORR median half-width {corr} is not below AQP's {aqp}");
    }
}

/// The `SvcView` cells that miss the coverage floor or the bias bound at
/// these seeds, each for a measured cause, tracked in ROADMAP's known issues
/// rather than hidden by a looser bound:
/// * CORR `sum` / `avg` on the join view under insert-only and mixed
///   deltas: 79–88/100. Under update-only deltas they pass (96–97/100).
/// * every `base_cube` cell but AQP `count(*)`: 0–59/100. Under skew 2 a few
///   groups carry most of the revenue (the regime outlier indexing is for),
///   and the AQP `sum` / `avg` means sit 9–16 % from the truth. Under
///   update-only deltas CORR `sum` / `avg` cover 65–66/100 (a sample with no
///   updated group has every paired difference 0, so a zero-width
///   interval), CORR `count(*)` is exact (100/100), and the AQP `count(*)`
///   mean over the seeds sits 2.6 % from the truth (95/100 covered).
/// * V21, a view of about ten rows, so a sample of zero to two: every AQP
///   cell covers 55/100 (insert-only, mixed) or 71/100 (update-only), its
///   mean 16 % or 6 % from the truth; CORR `sum` and `count(*)` cover
///   100/100 under insert-only and mixed deltas but their means sit 22 %
///   from the truth. Under update-only deltas (which leave every supplier's
///   line count as it is) CORR is exact and passes.
///
/// * `median`: AQP's mean over the seeds misses the 2 % bias bound. On the
///   join view it sits 4.5–7.4 % from the truth under every mix (covering
///   97–99/100); CORR, inverting the corrected CDF, passes under every mix
///   (94 / 100 / 97 of 100 for insert-only / update-only / mixed, its means
///   1.0–1.3 % off). On the cube AQP sits 44–59 % off and CORR 1.3–10.9 %,
///   covering 59 / 5 / 59 of 100: an update-only cube sample has few
///   changed groups, so most samples hold no changed pair and a zero-width
///   interval (the key-paired bootstrap covered 83 / 21 / 84, its means
///   1.2–17.5 % off).
///
/// * V3 (revenue per order) under a range on its `avg` order date, which
///   lowers to a range on `sum / count`: every cell but update-only CORR
///   `count(*)` (exact, 100/100). About 21 sampled rows fall in the range
///   (median `n_eff`). AQP `sum` / `avg` cover 79–83/100 (Zipf-skewed
///   revenue, the §6 regime), with the `sum` means 3.2–3.4 % off; AQP
///   `count(*)` covers 93–95/100 but its means sit 2.8–3.1 % off, about
///   1.5 standard errors of a 100-seed mean of a 21-row estimate. CORR
///   rests on a median of 2–3 nonzero differences: `sum` covers 59–69/100,
///   `count(*)` 78/100 under insert-only and mixed deltas, `avg` 59–71/100.
///
/// * the join view at m = 0.05 (a sample of about 100 of 2 027 rows):
///   every cell but AQP `count(*)` (93–95/100, means 1.6–1.8 % off) and
///   update-only CORR `count(*)` (exact, 100/100). AQP `sum` covers
///   85–86/100 with its means 2.3–3.0 % off, and AQP `avg` 87–88/100
///   (Zipf-skewed prices over about 100 rows, the §6 regime). CORR rests on
///   a median of 8–10 nonzero differences under insert-only and mixed
///   deltas (1.5 under update-only): `sum` covers 66–81/100, `avg`
///   71–81/100, `count(*)` 87/100.
///
/// * the join view at m = 0.3 (about 600 rows): CORR under insert-only
///   deltas (`sum` 82, `count(*)` 86, `avg` 88/100) and CORR `count(*)`
///   under mixed deltas (86/100), on a median of 47 nonzero differences,
///   so not a small-sample effect; its cause is not yet measured (ROADMAP
///   I). Every AQP cell covers 91–93/100 and passes.
///
/// * the cube with a top-20 outlier index on `l_extendedprice`, answered
///   through `estimate_*_with_outliers` (§6): every cell. The index moves
///   AQP `sum` from 41–44/100 with its means 15.2–15.6 % off to 80–84/100
///   with 1.1–1.2 % off. AQP `avg` covers 95–96/100, but its means sit
///   7.1–7.8 % off (8.1–8.7 % without the index). CORR `avg` has no outlier
///   merge and equals the plain cube's (42–65/100, means within 0.7 %).
///   CORR `sum` covers 44 / 30 / 48/100 (insert-only / update-only / mixed)
///   with its means within 0.15 %: with the outlier keys skipped, more
///   samples hold only zero paired differences and a zero-width interval
///   (update-only falls from 66/100 without the index).
///
/// * the join view over data at Zipf skew 4 (the skew workload's): CORR
///   `sum` / `avg` under every mix, but `avg` under mixed deltas (90/100).
///   Insert-only 83 / 84, mixed `sum` 86/100: the join view's CORR miss at
///   skew 2, above. Update-only 67 / 68/100 (96–97 at skew 2), with the
///   means within 0.2 %: the correction, −1.66 M, is carried by a few deep
///   price cuts among the 41 updated rows, and a sample holding about four
///   of them and none of those cuts has an interval too narrow to reach
///   the truth. A Horvitz–Thompson model of those 41 differences alone,
///   over 2 000 hash seeds, covers 67 % at skew 4 with every miss above the
///   truth, and 94 % at skew 2 (the §6 regime: an outlier index is the
///   remedy, not a wider bound). And `median` by both methods: at skew 4
///   `l_extendedprice` takes 171 distinct values over the fresh view's
///   2 188 rows, and the median is an atom (881.8) whose neighbours sit
///   37 % below and 47 % above it, so an estimate is exact or 37–47 % off.
///   CORR lands on the atom in most seeds and covers 98–100/100, but its
///   means sit 8.4–9.6 % off; AQP covers 99–100/100, its means 25–34 % off.
///
/// * the join view under the mixed deltas plus updates and deletions of
///   every 20th order (`orders-edited`, so the probe of orders' new state
///   meets ∆orders, orders and ∇orders): CORR `sum` (84/100, the mixed
///   miss above) and CORR `count(*)` (87/100, bias 0.3 %). The count's
///   correction rests on a median of 20 nonzero differences (15 under the
///   plain mixed deltas, 92/100): over the 100 seeds its standardized
///   error has a standard deviation of 1.16 and a mean of −0.21, and 10 of
///   the 13 misses fall below the truth — an interval about 15 % too narrow
///   for 20 terms, the small-sample CLT of ROADMAP I. The delta rule does
///   not move it: the three-branch rule read the same 87/100. AQP covers
///   90–93/100 and CORR `avg` 90/100, each within 1 % of the truth.
///
/// AQP `count(*)` passes on both views (95–96/100) since its interval is
/// Horvitz–Thompson: every sample row contributes `1/m`, so a fixed-size
/// variance gave it zero width, while η draws the sample size at random.
fn known_miss(view: &str, mix: &str, agg: QueryAgg, method: Method) -> bool {
    let update_only = mix == "update-only";
    if view == CUBE_OUTLIERS {
        return true;
    }
    if view == "V21" {
        return method == Method::AqpDirect || !update_only;
    }
    if view == "V3" || view == "V3 z=4" {
        return !(agg == QueryAgg::Count && method == Method::Correction && update_only);
    }
    if view == "joinView m=0.05" {
        return !(agg == QueryAgg::Count && (method == Method::AqpDirect || update_only));
    }
    if view == "joinView m=0.3" {
        let corr = method == Method::Correction;
        return corr && (mix == "insert-only" || (agg == QueryAgg::Count && !update_only));
    }
    if view == "joinView z=4" {
        let mixed_avg = mix == "mixed" && agg == QueryAgg::Avg;
        let corr = method == Method::Correction && agg != QueryAgg::Count && !mixed_avg;
        return corr || agg == QueryAgg::Median;
    }
    if mix == "orders-edited" {
        return method == Method::Correction && agg != QueryAgg::Avg;
    }
    if view == "cube" {
        let counted_by = if update_only { Method::Correction } else { Method::AqpDirect };
        return !(agg == QueryAgg::Count && method == counted_by);
    }
    if agg == QueryAgg::Median {
        return method == Method::AqpDirect;
    }
    agg != QueryAgg::Count && method == Method::Correction && !update_only
}

/// One (view, deltas, aggregate, method) cell of the `SvcView` coverage run.
struct CoverageCell {
    label: String,
    /// Left out of the assertion ([`known_miss`]).
    known_miss: bool,
    truth: f64,
    /// Sum of the estimates over all seeds.
    sum: f64,
    /// Seeds whose interval contained the truth.
    covered: usize,
    /// Sum of the interval half-widths over all seeds.
    half_width: f64,
}

/// `sum` / `count` / `avg` / `median` × AQP / CORR on `base_cube` and the
/// join view, `sum` / `count` / `avg` on the join view at sample ratios 0.05
/// and 0.3 as well as 0.1, `sum` / `count` on V21 (cleaned through its
/// auxiliary table), `sum` / `count` / `avg` on V3 under a range on a
/// lowered column, and `sum` / `avg` on `base_cube` with an outlier index,
/// over TPC-D data at Zipf skew 2; and `sum` / `count` / `avg` / `median`
/// on the join view over data at skew 4, the skew workload's. All under
/// insert-only, update-only and mixed deltas — the join view at m = 0.1
/// also under mixed deltas that update and delete orders — each answered
/// after `seeds` independent cleanings. Each view is built once and resampled per seed. Update-only
/// deltas move no key, so the samples' pairing matches every row and a
/// correction is paired differences alone.
fn svc_view_coverage_cells(seeds: u64) -> Vec<CoverageCell> {
    let data = TpcdData::generate(TpcdConfig { scale: 0.01, skew: 2.0, seed: 42 }).unwrap();
    let mut cells = Vec::new();
    let view = |id: &str| complex_views().into_iter().find(|v| v.id == id).unwrap().plan;
    let all = |measure: &str| {
        let m = || col(measure);
        vec![AggQuery::sum(m()), AggQuery::count(), AggQuery::avg(m()), AggQuery::median(m())]
    };
    // V3's order date is an `avg` column, so a range on it lowers to a
    // range on `sum / count`: the middle 40 % of the order dates.
    let order_dates = |data: &TpcdData| {
        let orders = data.db.table("orders").unwrap();
        let date = orders.schema().resolve("o_orderdate").unwrap();
        let mut dates: Vec<i64> = orders.rows().iter().map(|r| r[date].as_i64().unwrap()).collect();
        dates.sort_unstable();
        (date, dates)
    };
    let in_range = |dates: &[i64]| {
        let (lo, hi) = (dates[dates.len() * 3 / 10], dates[dates.len() * 7 / 10]);
        col("orderdate").ge(lit(lo)).and(col("orderdate").le(lit(hi)))
    };
    let (date, dates) = order_dates(&data);
    let orders = data.db.table("orders").unwrap();
    let v3_queries =
        [AggQuery::sum(col("revenue")), AggQuery::count(), AggQuery::avg(col("revenue"))];
    let means = |measure: &str| all(measure)[..3].to_vec();
    let revenue = || vec![AggQuery::sum(col("revenue")), AggQuery::avg(col("revenue"))];
    let views = [
        ("cube", 0.1, base_cube(), all("revenue")),
        ("joinView", 0.1, join_view(), all("l_extendedprice")),
        ("joinView m=0.05", 0.05, join_view(), means("l_extendedprice")),
        ("joinView m=0.3", 0.3, join_view(), means("l_extendedprice")),
        ("V21", 0.1, view("V21"), vec![AggQuery::sum(col("suppliers")), AggQuery::count()]),
        ("V3", 0.1, view("V3"), v3_queries.map(|q| q.filter(in_range(&dates))).to_vec()),
        (CUBE_OUTLIERS, 0.1, base_cube(), revenue()),
    ];
    push_coverage_cells(&mut cells, &data, seeds, &delta_sets(&data), views);
    // Orders updated and deleted beside the lineitem deltas, so the probes
    // of orders' new state hit every layer: ∆orders, orders, ∇orders.
    let mut edited = data.updates(0.1, 7).unwrap();
    for (i, row) in orders.rows().iter().enumerate().filter(|(i, _)| i % 20 == 0) {
        if i % 40 == 0 {
            edited.delete(&data.db, "orders", row).unwrap();
        } else {
            let mut moved = row.to_vec();
            moved[date] = Value::Int(dates[(i * 7) % dates.len()]);
            edited.update(&data.db, "orders", moved).unwrap();
        }
    }
    let views = [("joinView", 0.1, join_view(), means("l_extendedprice"))];
    push_coverage_cells(&mut cells, &data, seeds, &[("orders-edited", edited)], views);
    let skewed = TpcdData::generate(TpcdConfig { scale: 0.01, skew: 4.0, seed: 42 }).unwrap();
    // V3 under the same range at skew 4: the skew workload's view and query
    // shape, answered by the CORR finishers that read the changed pairs.
    let range = in_range(&order_dates(&skewed).1);
    let views = [
        ("joinView z=4", 0.1, join_view(), all("l_extendedprice")),
        (
            "V3 z=4",
            0.1,
            view("V3"),
            all("revenue").into_iter().map(|q| q.filter(range.clone())).collect(),
        ),
    ];
    push_coverage_cells(&mut cells, &skewed, seeds, &delta_sets(&skewed), views);
    cells
}

/// `data`'s mixed update set, its insertions alone and its updates alone.
fn delta_sets(data: &TpcdData) -> [(&'static str, Deltas); 3] {
    let mixed = data.updates(0.1, 7).unwrap();
    [
        ("insert-only", insertions_only(&data.db, &mixed)),
        ("update-only", updates_only(&data.db, &mixed)),
        ("mixed", mixed),
    ]
}

/// The cells of each `(id, ratio, plan, queries)` view over `data` under
/// each named delta set, pushed onto `cells` (see
/// [`svc_view_coverage_cells`]).
fn push_coverage_cells(
    cells: &mut Vec<CoverageCell>,
    data: &TpcdData,
    seeds: u64,
    delta_sets: &[(&'static str, Deltas)],
    views: impl IntoIterator<Item = (&'static str, f64, Plan, Vec<AggQuery>)>,
) {
    for (id, ratio, plan, queries) in views {
        let mut svc = SvcView::create(id, plan, &data.db, SvcConfig::with_ratio(ratio)).unwrap();
        // The §6 cell: a top-k index on the skewed price, its rows pushed
        // up once per delta set and merged by `estimate_*_with_outliers`.
        let outliers: Vec<Option<(Table, Table)>> = delta_sets
            .iter()
            .map(|(_, deltas)| {
                (id == CUBE_OUTLIERS).then(|| {
                    let spec = OutlierIndexSpec {
                        table: "lineitem".into(),
                        attr: "l_extendedprice".into(),
                        policy: ThresholdPolicy::TopK,
                        capacity: 20,
                    };
                    let index = OutlierIndex::build(spec, &data.db, deltas).unwrap();
                    let o = index.push_up(&svc.view, &data.db, deltas).unwrap();
                    let fresh = svc.view.public_of(&o).unwrap();
                    let stale = stale_rows_at(&svc.view.public_table().unwrap(), &fresh);
                    (fresh, stale)
                })
            })
            .collect();
        let first = cells.len();
        for (sign, deltas) in delta_sets {
            for q in &queries {
                let truth = svc.query_fresh_oracle(&data.db, deltas, q).unwrap();
                for method in [Method::AqpDirect, Method::Correction] {
                    cells.push(CoverageCell {
                        label: format!("{id} {sign} {:?} {method:?}", q.agg),
                        known_miss: known_miss(id, sign, q.agg, method),
                        truth,
                        sum: 0.0,
                        covered: 0,
                        half_width: 0.0,
                    });
                }
            }
        }
        for seed in 0..seeds {
            svc.config = svc.config.reseeded(seed * 7 + 1);
            svc.resample();
            let mut cell = cells[first..].iter_mut();
            for ((sign, deltas), outliers) in delta_sets.iter().zip(&outliers) {
                let cleaned = svc.clean_sample(&data.db, deltas).unwrap();
                if *sign == "update-only" {
                    let pairing = cleaned.canonical.paired_with(svc.stale_sample());
                    assert!(pairing.unmatched().is_empty(), "{id}: an update dropped a key");
                    assert!(pairing.partners().iter().all(Option::is_some), "{id}: a new key");
                }
                for q in &queries {
                    let estimates = match outliers {
                        None => [svc.estimate_aqp(&cleaned, q), svc.estimate_corr(&cleaned, q)],
                        Some((fresh, stale)) => {
                            let (m, cfg) = (svc.config.ratio, &svc.config);
                            let stale_sample = svc.stale_sample_public().unwrap();
                            let stale_result = svc.query_stale(q).unwrap();
                            [
                                estimate_aqp_with_outliers(&cleaned.public, fresh, q, m, cfg),
                                estimate_corr_with_outliers(
                                    stale_result,
                                    &stale_sample,
                                    &cleaned.public,
                                    fresh,
                                    stale,
                                    q,
                                    m,
                                    cfg,
                                ),
                            ]
                        }
                    };
                    for est in estimates {
                        let (est, cell) = (est.unwrap(), cell.next().unwrap());
                        let ci = est.ci.unwrap();
                        cell.sum += est.value;
                        cell.covered += usize::from(ci.contains(cell.truth));
                        cell.half_width += ci.half_width;
                    }
                }
            }
        }
    }
}

/// The cube answered with a top-20 outlier index on `l_extendedprice`.
const CUBE_OUTLIERS: &str = "cube+outliers";

/// The percentile bootstrap of Section 5.2.5, the reference the draw-free
/// intervals are held to: `resamples` resamples with replacement, each
/// materialized and its `q`-quantile selected.
fn selection_bootstrap(data: &[f64], q: f64, resamples: usize, seed: u64) -> Vec<f64> {
    use rand::Rng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..resamples)
        .map(|_| {
            let pick: Vec<f64> =
                (0..data.len()).map(|_| data[rng.random_range(0..data.len())]).collect();
            quantile(&pick, q)
        })
        .collect()
}

/// The key-paired bootstrap of SVC+CORR's correction: each resample's
/// `(stale, clean)` pairs materialized, each side's `q`-quantile selected
/// over the values present, and the clean one minus the stale one kept; a
/// resample with no value on a side has no difference.
fn selection_paired(
    pairs: &[(Option<f64>, Option<f64>)],
    q: f64,
    resamples: usize,
    seed: u64,
) -> Vec<f64> {
    use rand::Rng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut diffs = Vec::new();
    for _ in 0..resamples {
        let drawn: Vec<_> =
            (0..pairs.len()).map(|_| pairs[rng.random_range(0..pairs.len())]).collect();
        let stale: Vec<f64> = drawn.iter().filter_map(|p| p.0).collect();
        let clean: Vec<f64> = drawn.iter().filter_map(|p| p.1).collect();
        if !stale.is_empty() && !clean.is_empty() {
            diffs.push(quantile(&clean, q) - quantile(&stale, q));
        }
    }
    diffs
}

/// The draw-free quantile intervals against the bootstraps they replaced:
/// on the join view's cleaned samples over 20 hash seeds, AQP's binomial
/// half-width and CORR's Woodruff half-width, summed, each stay within a
/// factor of three of the percentile bootstrap's and of the key-paired
/// bootstrap's (200 resamples).
#[test]
fn draw_free_quantile_intervals_track_the_bootstrap() {
    let data = TpcdData::generate(TpcdConfig { scale: 0.01, skew: 2.0, seed: 42 }).unwrap();
    let deltas = data.updates(0.1, 7).unwrap();
    let cfg = SvcConfig::with_ratio(0.1);
    let mut svc = SvcView::create("joinView", join_view(), &data.db, cfg).unwrap();
    let q = AggQuery::median(col("l_extendedprice"));
    let (mut draw_free, mut bootstrap) = ([0.0; 2], [0.0; 2]);
    for seed in 0..20 {
        svc.config = svc.config.reseeded(seed * 7 + 1);
        svc.resample();
        let cleaned = svc.clean_sample(&data.db, &deltas).unwrap();
        draw_free[0] += svc.estimate_aqp(&cleaned, &q).unwrap().ci.unwrap().half_width;
        draw_free[1] += svc.estimate_corr(&cleaned, &q).unwrap().ci.unwrap().half_width;
        // The walk's `(stale, clean)` pairs, by key.
        let (stale, clean) = (svc.stale_sample_public().unwrap(), &cleaned.public);
        let price = clean.schema().resolve("l_extendedprice").unwrap();
        let mut pairs: Vec<_> = clean
            .rows()
            .iter()
            .map(|r| {
                (stale.get(&clean.key_of(r)).and_then(|s| s[price].as_f64()), r[price].as_f64())
            })
            .collect();
        let gone = stale.rows().iter().filter(|r| !clean.contains_key(&stale.key_of(r)));
        pairs.extend(gone.map(|r| (r[price].as_f64(), None)));
        let clean_values: Vec<f64> = pairs.iter().filter_map(|p| p.1).collect();
        // The percentile interval at 95 %, symmetrized around the point
        // estimate.
        let (point, alpha) = (quantile(&clean_values, 0.5), 1.0 - 0.95);
        let mut dist = selection_bootstrap(&clean_values, 0.5, 200, seed);
        let lo = quantile_in_place(&mut dist, alpha / 2.0);
        let hi = quantile_in_place(&mut dist, 1.0 - alpha / 2.0);
        bootstrap[0] += ((hi - lo) / 2.0).max((point - lo).abs().max((hi - point).abs()));
        let mut diffs = selection_paired(&pairs, 0.5, 200, seed);
        let (lo, hi) = (quantile_in_place(&mut diffs, 0.025), quantile_in_place(&mut diffs, 0.975));
        bootstrap[1] += (hi - lo) / 2.0;
    }
    for (method, (ours, reference)) in
        ["AQP", "CORR"].into_iter().zip(draw_free.iter().zip(bootstrap))
    {
        let ratio = ours / reference;
        assert!(
            (1.0 / 3.0..3.0).contains(&ratio),
            "{method}: {ours} against the bootstrap's {reference}"
        );
    }
}

#[test]
fn corrections_have_lower_error_than_direct_estimates_when_staleness_is_small() {
    // Section 5.2.2: var(correction) < var(direct) while σ²_S ≤ 2 cov(S,S′).
    // With only 5% of rows changed, the samples are highly correlated.
    let (stale, fresh) = views();
    let q = AggQuery::sum(col("x"));
    let truth = q.exact(&fresh).unwrap();
    let stale_result = q.exact(&stale).unwrap();
    let m = 0.1;
    let mut corr_err = Moments::new();
    let mut aqp_err = Moments::new();
    for seed in 0..40u64 {
        let spec = HashSpec::with_seed(seed * 13 + 5);
        let s_hat = sample_by_key(&stale, m, spec);
        let f_hat = sample_by_key(&fresh, m, spec);
        if f_hat.is_empty() {
            continue;
        }
        let cfg = SvcConfig::with_ratio(m).reseeded(seed);
        let corr = svc_corr(stale_result, &s_hat, &f_hat, &q, m, &cfg).unwrap();
        let aqp = svc_aqp(&f_hat, &q, m, &cfg).unwrap();
        corr_err.push((corr.value - truth).powi(2));
        aqp_err.push((aqp.value - truth).powi(2));
    }
    assert!(
        corr_err.mean() < aqp_err.mean() / 4.0,
        "correction MSE {} should be far below direct MSE {}",
        corr_err.mean(),
        aqp_err.mean()
    );
}

#[test]
fn corrections_degrade_gracefully_as_staleness_grows() {
    // The break-even effect: with ALL rows changed, the direct estimate is
    // competitive with (or better than) the correction.
    fn mix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }
    let schema = Schema::from_pairs(&[("id", DataType::Int), ("x", DataType::Float)]).unwrap();
    let mut stale = Table::new(schema.clone(), &["id"]).unwrap();
    let mut fresh = Table::new(schema, &["id"]).unwrap();
    for i in 0..3000i64 {
        // Independent values, with the STALE side more variable: the
        // correction inherits var(S) + var(S′) while the direct estimate
        // pays only var(S′).
        let sx = (mix(i as u64 ^ 0xAAAA) % 400) as f64;
        let fx = (mix(i as u64 ^ 0x5555) % 100) as f64;
        stale.insert(vec![Value::Int(i), Value::Float(sx)]).unwrap();
        fresh.insert(vec![Value::Int(i), Value::Float(fx)]).unwrap();
    }
    let q = AggQuery::sum(col("x"));
    let truth = q.exact(&fresh).unwrap();
    let stale_result = q.exact(&stale).unwrap();
    let m = 0.1;
    let mut corr_err = Moments::new();
    let mut aqp_err = Moments::new();
    for seed in 0..40u64 {
        let spec = HashSpec::with_seed(seed * 3 + 11);
        let s_hat = sample_by_key(&stale, m, spec);
        let f_hat = sample_by_key(&fresh, m, spec);
        if f_hat.is_empty() {
            continue;
        }
        let cfg = SvcConfig::with_ratio(m).reseeded(seed);
        let corr = svc_corr(stale_result, &s_hat, &f_hat, &q, m, &cfg).unwrap();
        let aqp = svc_aqp(&f_hat, &q, m, &cfg).unwrap();
        corr_err.push((corr.value - truth).powi(2));
        aqp_err.push((aqp.value - truth).powi(2));
    }
    // Past the break-even point, the direct estimate wins outright.
    assert!(
        aqp_err.mean() < corr_err.mean(),
        "AQP MSE {} vs CORR MSE {}",
        aqp_err.mean(),
        corr_err.mean()
    );
}

/// `(S, S′, Ŝ, Ŝ′)`: [`views`] and their corresponding samples at ratio `m`.
fn samples(m: f64, seed: u64) -> (Table, Table, Table, Table) {
    let (stale, fresh) = views();
    let spec = HashSpec::with_seed(seed);
    let (s_hat, f_hat) = (sample_by_key(&stale, m, spec), sample_by_key(&fresh, m, spec));
    (stale, fresh, s_hat, f_hat)
}

#[test]
fn estimates_are_bit_repeatable() {
    // Sums run in table order, so repeated calls agree to the last bit
    // (a per-call `HashMap` walk does not: its order is reseeded).
    let m = 0.1;
    let (stale, fresh, s_hat, f_hat) = samples(m, 5);
    let cfg = SvcConfig::with_ratio(m);
    let bits = |e: Estimate| {
        (e.value.to_bits(), e.ci.map(|ci| ci.half_width.to_bits()), e.exceedance_probability)
    };
    for q in [
        AggQuery::sum(col("x")),
        AggQuery::count().filter(col("x").gt(lit(50.0))),
        AggQuery::avg(col("x")),
        AggQuery::max(col("x")),
    ] {
        let stale_result = q.exact(&stale).unwrap();
        let aqp = || bits(svc_aqp(&f_hat, &q, m, &cfg).unwrap());
        let corr = || bits(svc_corr(stale_result, &s_hat, &f_hat, &q, m, &cfg).unwrap());
        let first = (aqp(), corr());
        for _ in 0..20 {
            assert_eq!((aqp(), corr()), first, "{q:?}");
        }
    }
    // An order statistic corrects the stale view's CDF, so it is answered
    // through the view: [`views`] as an identity view, cleaned to `fresh`.
    let changed: Vec<_> =
        fresh.rows().iter().filter(|r| stale.get(&fresh.key_of(r)) != Some(*r)).cloned().collect();
    let mut db = Database::new();
    db.create_table("t", stale);
    let mut deltas = Deltas::new();
    for row in changed {
        deltas.update(&db, "t", row).unwrap();
    }
    let svc = SvcView::create("v", Plan::scan("t"), &db, cfg).unwrap();
    let cleaned = svc.clean_sample(&db, &deltas).unwrap();
    let q = AggQuery::median(col("x"));
    let aqp = || bits(svc.estimate_aqp(&cleaned, &q).unwrap());
    let corr = || bits(svc.estimate_corr(&cleaned, &q).unwrap());
    let first = (aqp(), corr());
    for _ in 0..20 {
        assert_eq!((aqp(), corr()), first, "{q:?}");
    }
}

#[test]
fn aqp_is_the_correction_of_an_empty_stale_sample() {
    let m = 0.1;
    let (_, _, _, f_hat) = samples(m, 5);
    let cfg = SvcConfig::with_ratio(m);
    for q in [AggQuery::sum(col("x")), AggQuery::count().filter(col("x").gt(lit(50.0)))] {
        let aqp = svc_aqp(&f_hat, &q, m, &cfg).unwrap();
        let corr = svc_corr(0.0, &f_hat.empty_like(), &f_hat, &q, m, &cfg).unwrap();
        assert_eq!(corr.value.to_bits(), aqp.value.to_bits(), "{q:?}");
        let (corr_ci, aqp_ci) = (corr.ci.unwrap(), aqp.ci.unwrap());
        assert_eq!(corr_ci.half_width.to_bits(), aqp_ci.half_width.to_bits(), "{q:?}");
    }
}

#[test]
fn outlier_skip_test_equals_physical_filtering() {
    let m = 0.2;
    let (stale, fresh, s_hat, f_hat) = samples(m, 9);
    let cfg = SvcConfig::with_ratio(m);
    // "Outliers": the largest fresh values, some of them updated rows.
    let o_rows = fresh.rows().iter().filter(|r| r[1].as_f64().unwrap() > 165.0).cloned().collect();
    let o_fresh = Table::from_rows(fresh.schema().clone(), fresh.key().to_vec(), o_rows).unwrap();
    let o_stale = stale_rows_at(&stale, &o_fresh);
    assert!(f_hat.rows().iter().any(|r| o_fresh.contains_key(&f_hat.key_of(r))));
    // The reference: rebuild each sample without the outlier keys and run
    // the plain estimators on it.
    let exclude_keys = |sample: &Table| {
        let keep = |r: &&svc_storage::SharedRow| !o_fresh.contains_key(&sample.key_of(r));
        let rows = sample.rows().iter().filter(keep).cloned().collect();
        Table::from_rows(sample.schema().clone(), sample.key().to_vec(), rows).unwrap()
    };
    let (reg_clean, reg_stale) = (exclude_keys(&f_hat), exclude_keys(&s_hat));
    let close = |a: f64, b: f64, what: &str| {
        assert!((a - b).abs() <= 1e-12 * b.abs().max(1.0), "{what}: {a} vs {b}");
    };

    for q in [
        AggQuery::sum(col("x")),
        AggQuery::count().filter(col("x").gt(lit(50.0))),
        AggQuery::sum(col("x")).filter(col("id").rem(lit(3i64)).eq(lit(0i64))),
    ] {
        let (out_fresh, out_stale) = (q.exact(&o_fresh).unwrap(), q.exact(&o_stale).unwrap());
        let aqp = estimate_aqp_with_outliers(&f_hat, &o_fresh, &q, m, &cfg).unwrap();
        let reg = svc_aqp(&reg_clean, &q, m, &cfg).unwrap();
        close(aqp.value, reg.value + out_fresh, "aqp value");
        close(aqp.ci.unwrap().half_width, reg.ci.unwrap().half_width, "aqp half-width");
        assert_eq!((aqp.sample_size, aqp.predicate_rows), (reg.sample_size, reg.predicate_rows));

        let s = q.exact(&stale).unwrap();
        let corr = estimate_corr_with_outliers(s, &s_hat, &f_hat, &o_fresh, &o_stale, &q, m, &cfg)
            .unwrap();
        let reg = svc_corr(s, &reg_stale, &reg_clean, &q, m, &cfg).unwrap();
        close(corr.value, reg.value + (out_fresh - out_stale), "corr value");
        close(corr.ci.unwrap().half_width, reg.ci.unwrap().half_width, "corr half-width");
    }

    // avg: v = (N−l)/N·c_reg + l/N·c_out with N̂ = n̂_reg + l, and an
    // interval centred on v: the ratio estimator's delta-method width
    // γ·√((1−m)·Σ((xᵢ − v)/m)²) / N̂ over the regular rows.
    let q = AggQuery::avg(col("x"));
    let avg = estimate_aqp_with_outliers(&f_hat, &o_fresh, &q, m, &cfg).unwrap();
    let reg = svc_aqp(&reg_clean, &q, m, &cfg).unwrap();
    let n_reg = svc_aqp(&reg_clean, &AggQuery::count(), m, &cfg).unwrap().value;
    let n = n_reg + o_fresh.len() as f64;
    let sum_out = AggQuery::sum(col("x")).exact(&o_fresh).unwrap();
    close(avg.value, (n_reg * reg.value + sum_out) / n, "avg value");
    let ci = avg.ci.unwrap();
    assert_eq!(ci.estimate, avg.value);
    let residuals: f64 =
        reg_clean.rows().iter().map(|r| ((r[1].as_f64().unwrap() - avg.value) / m).powi(2)).sum();
    let width = gaussian_gamma(cfg.confidence) * ((1.0 - m) * residuals).sqrt() / n;
    close(ci.half_width, width, "avg half-width");
}

/// A skewed `orders` table — every 97th price is huge — and 800 inserted
/// orders, every 61st larger still: the regime outlier indexing is for.
fn skewed_orders() -> (Database, Deltas) {
    let schema = Schema::from_pairs(&[
        ("orderId", DataType::Int),
        ("custId", DataType::Int),
        ("price", DataType::Float),
    ])
    .unwrap();
    let mut orders = Table::new(schema, &["orderId"]).unwrap();
    let row = |o: i64, price: f64| vec![Value::Int(o), Value::Int(o % 200), Value::Float(price)];
    for o in 0..4000i64 {
        let heavy = 5_000.0 + (o % 7) as f64 * 3_000.0;
        orders.insert(row(o, if o % 97 == 0 { heavy } else { (o % 50) as f64 + 1.0 })).unwrap();
    }
    let mut db = Database::new();
    db.create_table("orders", orders);
    let mut deltas = Deltas::new();
    for o in 4000..4800i64 {
        let price = if o % 61 == 0 { 40_000.0 } else { (o % 50) as f64 + 1.0 };
        deltas.insert(&db, "orders", row(o, price)).unwrap();
    }
    (db, deltas)
}

/// `avg` with an outlier index is a ratio `(Σ/m + Σ_O) / N̂` whose
/// denominator `N̂ = n_pred/m + l` is sampled too. Its delta-method interval
/// carries that error, so it covers the truth at the nominal rate whatever
/// the index holds: the top 20, 50 or 100 orders, over 100 hash seeds.
#[test]
fn outlier_avg_interval_coverage_is_near_nominal() {
    let (db, deltas) = skewed_orders();
    let def = Plan::scan("orders").aggregate(
        &["custId"],
        vec![AggSpec::new("revenue", AggFunc::Sum, col("price")), AggSpec::count_all("n")],
    );
    let mut svc = SvcView::create("v", def, &db, SvcConfig::with_ratio(0.1)).unwrap();
    let q = AggQuery::avg(col("revenue"));
    let truth = svc.query_fresh_oracle(&db, &deltas, &q).unwrap();
    let capacities = [20, 50, 100];
    let outliers = capacities.map(|capacity| {
        let spec = OutlierIndexSpec {
            table: "orders".into(),
            attr: "price".into(),
            policy: ThresholdPolicy::TopK,
            capacity,
        };
        let index = OutlierIndex::build(spec, &db, &deltas).unwrap();
        svc.view.public_of(&index.push_up(&svc.view, &db, &deltas).unwrap()).unwrap()
    });
    let seeds = 100;
    let floor = 0.95 - 3.0 * (0.95 * 0.05 / seeds as f64).sqrt();
    let mut covered = [0; 3];
    for seed in 0..seeds {
        svc.config = svc.config.reseeded(seed * 7 + 1);
        svc.resample();
        let cleaned = svc.clean_sample(&db, &deltas).unwrap();
        for (o, hits) in outliers.iter().zip(&mut covered) {
            let (m, cfg) = (svc.config.ratio, &svc.config);
            let est = estimate_aqp_with_outliers(&cleaned.public, o, &q, m, cfg).unwrap();
            *hits += usize::from(est.ci.unwrap().contains(truth));
        }
    }
    for (capacity, hits) in capacities.into_iter().zip(covered) {
        let rate = hits as f64 / seeds as f64;
        assert!(rate >= floor, "capacity {capacity}: covered {hits}/{seeds}, floor {floor:.3}");
    }
}

#[test]
fn preferred_method_picks_on_the_benchmark_shape() {
    // The TPCD join view and its query templates under a small and a large
    // update backlog, as `svc_bench` drives them. Pinned picks: every one is
    // a correction except Q7 under the 40 % backlog.
    let data = TpcdData::generate(TpcdConfig { scale: 0.05, skew: 2.0, seed: 42 }).unwrap();
    let cfg = SvcConfig::with_ratio(0.1);
    let svc = SvcView::create("joinView", join_view(), &data.db, cfg).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    let mut direct = Vec::new();
    for pct in [0.05, 0.4] {
        let deltas = data.updates(pct, 7).unwrap();
        let cleaned = svc.clean_sample(&data.db, &deltas).unwrap();
        for template in join_view_queries() {
            let q = template.instance(&mut rng);
            if svc.preferred_method(&cleaned, &q).unwrap() == Method::AqpDirect {
                direct.push((pct, template.id));
            }
        }
    }
    assert_eq!(direct, vec![(0.4, "Q7")]);
}

/// Every field of an estimate (or its error text), floats by bit pattern.
type EstimateBits = (u64, Option<(u64, u64)>, Option<u64>, Method, usize, usize);

fn estimate_bits(e: Result<Estimate>) -> std::result::Result<EstimateBits, String> {
    e.map_err(|err| err.to_string()).map(|e| {
        (
            e.value.to_bits(),
            e.ci.map(|ci| (ci.estimate.to_bits(), ci.half_width.to_bits())),
            e.exceedance_probability.map(f64::to_bits),
            e.method,
            e.sample_size,
            e.predicate_rows,
        )
    })
}

/// `q`'s attribute and predicate under each of the seven aggregates.
fn under_every_agg(q: &AggQuery) -> impl Iterator<Item = AggQuery> + '_ {
    [
        QueryAgg::Sum,
        QueryAgg::Count,
        QueryAgg::Avg,
        QueryAgg::Median,
        QueryAgg::Percentile(0.9),
        QueryAgg::Min,
        QueryAgg::Max,
    ]
    .into_iter()
    .map(move |agg| AggQuery { agg, ..q.clone() })
}

/// The answer path as it was before queries were lowered: an identity view
/// over `svc`'s *materialized* public table, whose stale sample is the
/// public stale sample and whose cleaned sample is `cleaned.public`.
fn public_reference(svc: &SvcView, cleaned: &CleanedSample) -> (SvcView, CleanedSample) {
    let mut db = Database::new();
    db.create_table("public", svc.view.public_table().unwrap());
    let reference = SvcView::create("ref", Plan::scan("public"), &db, svc.config).unwrap();
    assert_eq!(reference.stale_sample().rows(), svc.stale_sample_public().unwrap().rows());
    let public = CleanedSample { canonical: cleaned.public.clone(), ..cleaned.clone() };
    (reference, public)
}

/// Test (a): every answer `SvcView` gives by lowering `q` equals, field by
/// field and bit by bit, the same estimator run over the materialized
/// public tables — and the exact answer the row-at-a-time reference. So a
/// computed public column read as a tree over canonical column slices
/// answers exactly like the projected rows. Returns how many comparisons
/// produced an estimate.
fn assert_lowered_equals_public(svc: &SvcView, cleaned: &CleanedSample, qs: &[AggQuery]) -> usize {
    let public_view = svc.view.public_table().unwrap();
    let public_stale = svc.stale_sample_public().unwrap();
    let (reference, reference_cleaned) = public_reference(svc, cleaned);
    let (m, cfg) = (svc.config.ratio, &svc.config);
    let mut answered = 0;
    for q in qs.iter().flat_map(under_every_agg) {
        let label = format!("{} {q:?}", svc.view.name);
        let stale = q.exact(&public_view).unwrap();
        assert_eq!(stale.to_bits(), row_reference(&q, &public_view).to_bits(), "{label}");
        assert_eq!(svc.query_stale(&q).unwrap().to_bits(), stale.to_bits(), "{label}");
        let corr = estimate_bits(svc.estimate_corr(cleaned, &q));
        let aqp = estimate_bits(svc.estimate_aqp(cleaned, &q));
        // An order statistic corrects the stale view's CDF: `q(S)` alone,
        // all `svc_corr` takes, cannot answer it.
        let public_corr = match q.agg.quantile_level() {
            Some(_) => reference.estimate_corr(&reference_cleaned, &q),
            None => svc_corr(stale, &public_stale, &cleaned.public, &q, m, cfg),
        };
        assert_eq!(corr, estimate_bits(public_corr), "{label}");
        assert_eq!(aqp, estimate_bits(svc_aqp(&cleaned.public, &q, m, cfg)), "{label}");
        assert_eq!(
            svc.preferred_method(cleaned, &q).unwrap(),
            reference.preferred_method(&reference_cleaned, &q).unwrap(),
            "{label}"
        );
        answered += usize::from(corr.is_ok()) + usize::from(aqp.is_ok());
    }
    answered
}

/// `deltas` without its deletions, and without the insertions that replace
/// an existing row (the insert half of an update).
fn insertions_only(db: &Database, deltas: &Deltas) -> Deltas {
    rerecorded(db, deltas, false)
}

/// `deltas`' updates alone: each insertion that replaces an existing row,
/// recorded with that row's deletion.
fn updates_only(db: &Database, deltas: &Deltas) -> Deltas {
    rerecorded(db, deltas, true)
}

/// The insertions of `deltas` whose key the base table holds (`updates`:
/// recorded again as updates) or does not (recorded again as insertions).
fn rerecorded(db: &Database, deltas: &Deltas, updates: bool) -> Deltas {
    let mut out = Deltas::new();
    for (name, set) in deltas.iter() {
        let base = db.table(name).unwrap();
        for row in set.insertions.rows() {
            if base.contains_key(&base.key_of(row)) == updates {
                let row = row.clone();
                let recorded =
                    if updates { out.update(db, name, row) } else { out.insert(db, name, row) };
                recorded.unwrap();
            }
        }
    }
    out
}

fn quick_config() -> SvcConfig {
    SvcConfig::with_ratio(0.2)
}

#[test]
fn lowered_answers_equal_the_public_path_on_the_tpcd_views() {
    let data = TpcdData::generate(TpcdConfig { scale: 0.01, skew: 2.0, seed: 42 }).unwrap();
    let mixed = data.updates(0.1, 7).unwrap();
    let delta_sets = [insertions_only(&data.db, &mixed), mixed];
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let mut answered = 0;

    let join = SvcView::create("joinView", join_view(), &data.db, quick_config()).unwrap();
    let join_qs: Vec<AggQuery> = join_view_queries().iter().map(|t| t.instance(&mut rng)).collect();
    let mut fleet = vec![(join, join_qs)];
    for v in complex_views().into_iter().chain([cube_view()]) {
        let svc = SvcView::create(v.id, v.plan, &data.db, quick_config()).unwrap();
        let public = svc.view.public_table().unwrap();
        let qs = random_queries(&public, &v.dims, &v.measures, 4, &mut rng).unwrap();
        fleet.push((svc, qs));
    }
    for (svc, qs) in &fleet {
        for deltas in &delta_sets {
            let cleaned = svc.clean_sample(&data.db, deltas).unwrap();
            answered += assert_lowered_equals_public(svc, &cleaned, qs);
        }
    }
    assert!(answered > 1000, "most comparisons must be of real estimates: {answered}");
}

/// `base_cube()` in the shape of a complex view, so it rides the same loop.
fn cube_view() -> ComplexView {
    ComplexView {
        id: "cube",
        plan: base_cube(),
        dims: CUBE_DIMS.to_vec(),
        measures: vec!["revenue", "n"],
        blocked: false,
    }
}

#[test]
fn lowered_answers_equal_the_public_path_on_the_conviva_views() {
    let cfg = ConvivaConfig { base_events: 4_000, ..ConvivaConfig::default() };
    let db = conviva::generate(cfg).unwrap();
    let appended = conviva::appended_updates(&db, cfg, 600, 3).unwrap();
    let mut mixed = appended.clone();
    for row in db.table("activity").unwrap().rows().iter().step_by(17) {
        mixed.delete(&db, "activity", row).unwrap();
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(12);
    let mut answered = 0;
    for v in conviva::views() {
        let svc = SvcView::create(v.id, v.plan, &db, quick_config()).unwrap();
        let public = svc.view.public_table().unwrap();
        let qs = random_queries(&public, &v.dims, &v.measures, 4, &mut rng).unwrap();
        for deltas in [&appended, &mixed] {
            let cleaned = svc.clean_sample(&db, deltas).unwrap();
            answered += assert_lowered_equals_public(&svc, &cleaned, &qs);
        }
    }
    assert!(answered > 500, "most comparisons must be of real estimates: {answered}");
}

/// Test (b), cost shape rather than wall clock: once a sample is cleaned,
/// answering projects nothing, clones no table and joins the samples by key
/// once — on the join view, whose public "projection" used to be a clone of
/// the whole view, and on a view with a real one (`avg` recombination).
#[test]
fn answering_projects_nothing_and_clones_no_table() {
    let data = TpcdData::generate(TpcdConfig { scale: 0.01, skew: 2.0, seed: 42 }).unwrap();
    let deltas = data.updates(0.1, 7).unwrap();
    let avg_view = Plan::scan("lineitem")
        .aggregate(&["l_orderkey"], vec![AggSpec::new("avgQty", AggFunc::Avg, col("l_quantity"))]);
    for (def, q) in [
        (join_view(), AggQuery::sum(col("l_quantity")).filter(col("l_quantity").gt(lit(2.0)))),
        (avg_view, AggQuery::avg(col("avgQty")).filter(col("avgQty").gt(lit(1.0)))),
    ] {
        let svc = SvcView::create("v", def, &data.db, quick_config()).unwrap();
        let cleaned = svc.clean_sample(&data.db, &deltas).unwrap();
        let counts = || (projection_count(), Table::clone_count(), Table::pairing_build_count());
        let before = counts();
        for _ in 0..100 {
            svc.query_stale(&q).unwrap();
            svc.estimate_corr(&cleaned, &q).unwrap();
            svc.estimate_aqp(&cleaned, &q).unwrap();
            svc.preferred_method(&cleaned, &q).unwrap();
        }
        // The cleaned sample is the stale one folded, so the 200 walks that
        // have a stale side pair the two by position: no key is looked up.
        assert_eq!(counts(), before, "{q:?}");
        // The display form still projects, and is counted when it does.
        svc.stale_sample_public().unwrap();
        assert_eq!(projection_count(), before.0 + 1);
    }
}

/// A cleaned sample is its stale sample folded, so it pairs with it by
/// position, derives its columns from the stale sample's and evaluates a
/// query only at the rows the fold touched, copying the stale sample's
/// values everywhere else. Every estimate, under every aggregate, by AQP
/// and CORR, with and without an outlier skip set, must equal bit for bit
/// the same estimate over a lineage-free rebuild of the cleaned sample from
/// its rows, which pairs by key, extracts its columns and evaluates every
/// row — on the join view (rows replaced by key), an `avg` view (groups
/// merged) and a clean no delta reaches (the stale sample's clone, with no
/// row touched).
#[test]
fn folded_samples_answer_like_a_rebuild_of_their_rows() {
    let data = TpcdData::generate(TpcdConfig { scale: 0.01, skew: 2.0, seed: 42 }).unwrap();
    let deltas = data.updates(0.1, 7).unwrap();
    let avg_view = Plan::scan("lineitem")
        .aggregate(&["l_orderkey"], vec![AggSpec::new("avgQty", AggFunc::Avg, col("l_quantity"))]);
    for (def, measure) in [(join_view(), "l_quantity"), (avg_view, "avgQty")] {
        let svc = SvcView::create("v", def, &data.db, quick_config()).unwrap();
        let (m, cfg) = (svc.config.ratio, &svc.config);
        let q = AggQuery::sum(col(measure)).filter(col(measure).gt(lit(2.0)));
        // The free estimators read the canonical tables as given: a query
        // on the last canonical column, with every fifth row of the cleaned
        // sample as the outlier set (its stale rows as the stale one).
        let canonical = svc.stale_sample().schema();
        let last = col(&canonical.field(canonical.len() - 1).name);
        let raw = AggQuery::sum(last.clone()).filter(last.gt(lit(1.0)));
        let answers = |cleaned: &CleanedSample| -> Vec<_> {
            let t = &cleaned.canonical;
            let rows = t.rows().iter().step_by(5).cloned().collect();
            let o_fresh = Table::from_rows(t.schema().clone(), t.key().to_vec(), rows).unwrap();
            let o_stale = stale_rows_at(svc.stale_sample(), &o_fresh);
            let lowered = under_every_agg(&q).flat_map(|q| {
                let corr = estimate_bits(svc.estimate_corr(cleaned, &q));
                [corr, estimate_bits(svc.estimate_aqp(cleaned, &q))]
            });
            let skipping = under_every_agg(&raw).flat_map(|q| {
                let stale = q.exact(svc.view.table()).unwrap();
                let s = svc.stale_sample();
                [
                    estimate_bits(svc_corr(stale, s, t, &q, m, cfg)),
                    estimate_bits(estimate_corr_with_outliers(
                        stale, s, t, &o_fresh, &o_stale, &q, m, cfg,
                    )),
                    estimate_bits(estimate_aqp_with_outliers(t, &o_fresh, &q, m, cfg)),
                ]
            });
            lowered.chain(skipping).collect()
        };
        // A first clean's estimates build the stale sample's columns, which
        // the next clean's output derives its own from.
        answers(&svc.clean_sample(&data.db, &deltas).unwrap());
        for deltas in [&deltas, &Deltas::new()] {
            let cleaned = svc.clean_sample(&data.db, deltas).unwrap();
            let t = &cleaned.canonical;
            let changed = t.paired_with(svc.stale_sample()).changed().map(<[usize]>::len);
            let touched = if deltas.is_empty() { Some(0) } else { changed.filter(|&k| k > 0) };
            assert!(changed.is_some_and(|k| k < t.len()) && touched == changed, "{changed:?}");
            let rows = Table::from_rows(t.schema().clone(), t.key().to_vec(), t.rows().to_vec());
            let rebuilt = CleanedSample { canonical: rows.unwrap(), ..cleaned.clone() };
            let builds = Table::pairing_build_count();
            let folded = answers(&cleaned);
            assert_eq!(Table::pairing_build_count(), builds, "the fold's output pairs by position");
            assert_eq!(folded, answers(&rebuilt));
            assert_eq!(Table::pairing_build_count(), builds + 1, "the rebuild pairs by key");
            assert!(folded.iter().filter(|e| e.is_ok()).count() > 30, "{folded:?}");
        }
    }
}

/// The walk over the changed pairs against the walk over every pair, on
/// the skew workload's shape: V3 over data at Zipf skew 4 with a range on
/// its `avg` order date (lowered to a range on `sum / count`), and a cleaned
/// sample whose fold also holds deletions, appended rows and a key deleted
/// then put back. The fold pairs with the stale sample by position, so a
/// correction walks its changed pairs; a lineage-free rebuild of the same
/// rows pairs by key and walks every pair. Every estimate, under every
/// aggregate, lowered and over the canonical tables, with and without an
/// outlier skip set, must be the same bit for bit, and the lowered
/// correction must read fewer rows of the samples than the stale sample
/// holds.
#[test]
fn changed_pairs_answer_like_every_pair_on_the_skew_shape() {
    let data = TpcdData::generate(TpcdConfig { scale: 0.01, skew: 4.0, seed: 42 }).unwrap();
    let deltas = data.updates(0.1, 7).unwrap();
    let v3 = complex_views().into_iter().find(|v| v.id == "V3").unwrap();
    let svc = SvcView::create("V3", v3.plan, &data.db, quick_config()).unwrap();
    let (m, cfg) = (svc.config.ratio, &svc.config);
    let public = svc.view.public_table().unwrap();
    let date = public.schema().resolve("orderdate").unwrap();
    let mut dates: Vec<f64> = public.rows().iter().map(|r| r[date].as_f64().unwrap()).collect();
    dates.sort_by(f64::total_cmp);
    let (lo, hi) = (dates[dates.len() * 3 / 10], dates[dates.len() * 7 / 10]);
    let range = |e: Expr| e.clone().ge(lit(lo)).and(e.le(lit(hi)));
    let q = AggQuery::sum(col("revenue")).filter(range(col("orderdate")));
    // The same query lowered by hand through the public projection, for
    // the free estimators, which read the canonical tables as given.
    let projection = svc.view.canonical().public.clone().unwrap();
    let lower = |name: &str| projection.iter().find(|(n, _)| n == name).unwrap().1.clone();
    let raw = AggQuery::sum(lower("revenue")).filter(range(lower("orderdate")));

    // The clean's fold, then three more runs of edits on its output: every
    // seventh row deleted and twenty rows of the view the sample lacks
    // appended; a row deleted; the same row put back.
    let (sample, view) = (svc.stale_sample(), svc.view.table());
    let mut cleaned = svc.clean_sample(&data.db, &deltas).unwrap();
    // Moved out, not cloned: a clone does not carry the fold's lineage.
    let mut folded = std::mem::replace(&mut cleaned.canonical, sample.empty_like());
    let mut edits = StagedEdits::default();
    for row in folded.rows().iter().step_by(7) {
        edits.delete(&folded, row.clone());
    }
    let absent = view.rows().iter().filter(|r| !sample.contains_key(&view.key_of(r)));
    for row in absent.take(20) {
        edits.put(&folded, row.clone());
    }
    folded.apply_edits(edits);
    let back = folded.rows()[1].clone();
    for put in [false, true] {
        let mut edits = StagedEdits::default();
        if put {
            edits.put(&folded, back.clone());
        } else {
            edits.delete(&folded, back.clone());
        }
        folded.apply_edits(edits);
    }
    let pairing = folded.paired_with(sample);
    let changed = pairing.changed().expect("the fold pairs by position").len();
    assert!(0 < changed && changed < folded.len(), "{changed} of {}", folded.len());
    assert!(!pairing.unmatched().is_empty() && pairing.partners().contains(&None));

    let answers = |cleaned: &CleanedSample| -> Vec<_> {
        let t = &cleaned.canonical;
        let rows = t.rows().iter().step_by(5).cloned().collect();
        let o_fresh = Table::from_rows(t.schema().clone(), t.key().to_vec(), rows).unwrap();
        let o_stale = stale_rows_at(sample, &o_fresh);
        let lowered = under_every_agg(&q).map(|q| estimate_bits(svc.estimate_corr(cleaned, &q)));
        let skipping = under_every_agg(&raw).flat_map(|q| {
            let stale = q.exact(view).unwrap();
            [
                estimate_bits(svc_corr(stale, sample, t, &q, m, cfg)),
                estimate_bits(estimate_corr_with_outliers(
                    stale, sample, t, &o_fresh, &o_stale, &q, m, cfg,
                )),
            ]
        });
        lowered.chain(skipping).collect()
    };
    let rows =
        Table::from_rows(folded.schema().clone(), folded.key().to_vec(), folded.rows().to_vec());
    let rebuilt = CleanedSample { canonical: rows.unwrap(), ..cleaned.clone() };
    let folded = CleanedSample { canonical: folded, ..cleaned };
    let folded_answers = answers(&folded);
    assert_eq!(folded_answers, answers(&rebuilt));
    assert!(folded_answers.iter().filter(|e| e.is_ok()).count() > 15, "{folded_answers:?}");
    // The summaries are memoized now: a correction reads the changed pairs
    // (the verifier also walks every pair).
    let before = rows_evaluated();
    svc.estimate_corr(&folded, &q).unwrap();
    let read = rows_evaluated() - before;
    if !cfg!(feature = "verify") {
        assert!(read < sample.len(), "{read} rows read of a {}-row sample", sample.len());
    }
}

/// Cost shape, no wall clock: a burst of corrections reads `Ŝ`'s summary
/// and `q(S)` from one memo entry per query, so a second burst over a new
/// clean of the same stale sample computes none of them again, and it
/// evaluates the samples at the changed pairs alone — the cleaned sample
/// at the rows its fold touched, the stale sample at their partners and
/// its unmatched rows.
#[test]
fn a_second_correction_burst_reads_only_the_changed_pairs() {
    let data = TpcdData::generate(TpcdConfig { scale: 0.01, skew: 2.0, seed: 42 }).unwrap();
    let mixed = data.updates(0.1, 7).unwrap();
    let v3 = complex_views().into_iter().find(|v| v.id == "V3").unwrap();
    let svc = SvcView::create("V3", v3.plan, &data.db, quick_config()).unwrap();
    let public = svc.view.public_table().unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let mut qs = random_queries(&public, &v3.dims, &v3.measures, 12, &mut rng).unwrap();
    qs.push(AggQuery::median(col("revenue")).filter(col("orderdate").gt(lit(1000.0))));
    let burst =
        |cleaned: &CleanedSample| qs.iter().for_each(|q| drop(svc.estimate_corr(cleaned, q)));
    let answers = Table::answer_count();
    burst(&svc.clean_sample(&data.db, &mixed).unwrap());
    assert!(Table::answer_count() > answers, "the first burst computes the summaries");

    let cleaned = svc.clean_sample(&data.db, &insertions_only(&data.db, &mixed)).unwrap();
    let pairing = cleaned.canonical.paired_with(svc.stale_sample());
    let changed = pairing.changed().expect("a fold pairs by position");
    let mut stale_rows: Vec<usize> =
        changed.iter().filter_map(|&i| pairing.partners()[i]).collect();
    stale_rows.extend(pairing.unmatched());
    stale_rows.sort_unstable();
    stale_rows.dedup();
    let (answers, rows) = (Table::answer_count(), rows_evaluated());
    burst(&cleaned);
    assert_eq!(Table::answer_count(), answers, "no summary and no q(S) is computed again");
    let per_estimate = changed.len() + stale_rows.len();
    assert!(per_estimate < svc.stale_sample().len(), "{per_estimate}");
    // The verifier also walks every pair.
    if !cfg!(feature = "verify") {
        assert_eq!(rows_evaluated() - rows, qs.len() * per_estimate);
    }
}

/// Cost shape, no wall clock: a query builds only the columns it names,
/// once per mutation, and answers `q(S)` once per view state. A regression
/// to whole-table projection, to a per-query rebuild or to a per-call
/// `q(S)` fails here.
#[test]
fn queries_build_only_the_columns_they_name_once_per_mutation() {
    let builds = Table::column_build_count;
    let data = TpcdData::generate(TpcdConfig { scale: 0.01, skew: 2.0, seed: 42 }).unwrap();
    let mut lineitem = data.db.table("lineitem").unwrap().clone();
    let width = lineitem.schema().len();
    let q = AggQuery::sum(col("l_quantity"))
        .filter(col("l_discount").gt(lit(0.02)).and(col("l_quantity").lt(lit(40.0))));
    let before = builds();
    q.exact(&lineitem).unwrap();
    assert_eq!(builds() - before, 2, "a cold table builds the two named columns");
    q.exact(&lineitem).unwrap();
    assert_eq!(builds() - before, 2, "a warm table builds nothing");
    // A mutation drops the cache: the next query rebuilds what it names.
    let mut edits = StagedEdits::default();
    edits.put(&lineitem, lineitem.rows()[0].clone());
    lineitem.apply_edits(edits);
    q.exact(&lineitem).unwrap();
    assert_eq!(builds() - before, 4);
    // The whole set comes from the same cache: only the missing columns.
    lineitem.columns();
    assert_eq!(builds() - before, 4 + width - 2);
    lineitem.columns();
    q.exact(&lineitem).unwrap();
    assert_eq!(builds() - before, 4 + width - 2);

    // A burst of CORR estimates over one clean: each named canonical column
    // (`n`, and `avgQty`'s sum and count) of the stale view, the stale
    // sample and the cleaned sample is built once, by the first estimate.
    let def = Plan::scan("lineitem").aggregate(
        &["l_orderkey"],
        vec![AggSpec::new("avgQty", AggFunc::Avg, col("l_quantity")), AggSpec::count_all("n")],
    );
    let svc = SvcView::create("v", def, &data.db, quick_config()).unwrap();
    let deltas = data.updates(0.1, 7).unwrap();
    let cleaned = svc.clean_sample(&data.db, &deltas).unwrap();
    let q = AggQuery::sum(col("n")).filter(col("avgQty").gt(lit(20.0)));
    let (before, answers) = (builds(), Table::answer_count());
    svc.estimate_corr(&cleaned, &q).unwrap();
    assert_eq!(builds() - before, 3 * 3);
    assert_eq!(Table::answer_count() - answers, 1, "the first estimate answers q(S)");
    for _ in 0..99 {
        svc.estimate_corr(&cleaned, &q).unwrap();
    }
    assert_eq!(builds() - before, 3 * 3, "99 more estimates rebuild nothing");
    assert_eq!(Table::answer_count() - answers, 1, "q(S) is answered once per view state");
    // A clone shares the view's table; maintaining it commits a new state
    // on the clone only. The view's state keeps its columns and its
    // memoized `q(S)` for the other holder: 100 more estimates build
    // nothing and answer nothing afresh, and a new query over the same
    // columns builds nothing.
    let mut ivm = svc.clone();
    ivm.maintain_full(&data.db, &deltas).unwrap();
    let (before, answers) = (builds(), Table::answer_count());
    for _ in 0..100 {
        svc.estimate_corr(&cleaned, &q).unwrap();
    }
    assert_eq!(builds(), before, "the other holder's commit left the view's columns");
    assert_eq!(Table::answer_count(), answers, "and its memoized q(S)");
    let fresh_literal = AggQuery::sum(col("n")).filter(col("avgQty").gt(lit(21.0)));
    svc.query_stale(&fresh_literal).unwrap();
    assert_eq!(builds(), before, "a new query over the same columns builds none");
    assert_eq!(Table::answer_count() - answers, 1, "but answers afresh");
    // The maintained state derives its named columns from the ones the
    // view had built, reading only the edited rows: it extracts none.
    let extracts = Table::column_extract_count();
    ivm.query_stale(&q).unwrap();
    assert_eq!(builds() - before, 3, "the three named columns of the maintained view");
    assert_eq!(Table::column_extract_count(), extracts, "derived, not extracted");
    assert_eq!(Table::answer_count() - answers, 2, "q(S') is answered on the new state");
}

/// A view maintained around `SvcView` (`svc.view.maintain`, as `svc_bench`'s
/// traced path does) commits a new table, so no answer memoized on the old
/// state is read again: `query_stale` and `estimate_corr` answer the new
/// rows, bit-equal to the same queries over a fresh table of those rows.
#[test]
fn answers_follow_a_view_maintained_around_the_facade() {
    let data = TpcdData::generate(TpcdConfig { scale: 0.01, skew: 2.0, seed: 42 }).unwrap();
    let deltas = data.updates(0.1, 7).unwrap();
    let def = Plan::scan("lineitem").aggregate(
        &["l_orderkey"],
        vec![AggSpec::new("avgQty", AggFunc::Avg, col("l_quantity")), AggSpec::count_all("n")],
    );
    let mut svc = SvcView::create("v", def, &data.db, quick_config()).unwrap();
    let cleaned = svc.clean_sample(&data.db, &deltas).unwrap();
    let qs = [
        AggQuery::sum(col("n")).filter(col("avgQty").gt(lit(20.0))),
        AggQuery::avg(col("avgQty")),
        AggQuery::count(),
    ];
    let answers = |svc: &SvcView| -> Vec<u64> {
        let stale = qs.iter().map(|q| svc.query_stale(q).unwrap().to_bits());
        let corr = qs.iter().map(|q| svc.estimate_corr(&cleaned, q).unwrap().value.to_bits());
        stale.chain(corr).collect()
    };
    let before = answers(&svc);
    assert_eq!(answers(&svc), before, "memoized answers keep their bits");
    svc.view.maintain(&data.db, &deltas).unwrap();
    assert_ne!(answers(&svc), before, "the deltas move the answers");

    let public = svc.view.public_table().unwrap();
    let (public_stale, cfg) = (svc.stale_sample_public().unwrap(), &svc.config);
    for q in &qs {
        let stale = q.exact(&public).unwrap();
        assert_eq!(svc.query_stale(q).unwrap().to_bits(), stale.to_bits(), "{q:?}");
        assert_eq!(
            estimate_bits(svc.estimate_corr(&cleaned, q)),
            estimate_bits(svc_corr(stale, &public_stale, &cleaned.public, q, cfg.ratio, cfg)),
            "{q:?}"
        );
    }
}

/// Test (c): a query names public columns only. Canonical-only columns and
/// misspellings fail exactly as they do against the materialized public
/// table; a short public name of a qualified group column resolves.
#[test]
fn lowering_resolves_names_against_the_public_schema_only() {
    // `canon.rs::qualified_group_columns_get_short_public_names`' view: both
    // inputs have a `videoId`, so the group column is `video.videoId` in the
    // canonical state and `videoId` in public.
    let mut db = Database::new();
    let mut log = Table::new(
        Schema::from_pairs(&[("sessionId", DataType::Int), ("videoId", DataType::Int)]).unwrap(),
        &["sessionId"],
    )
    .unwrap();
    let mut video = Table::new(
        Schema::from_pairs(&[
            ("videoId", DataType::Int),
            ("ownerId", DataType::Int),
            ("duration", DataType::Float),
        ])
        .unwrap(),
        &["videoId"],
    )
    .unwrap();
    for v in 0..200i64 {
        video
            .insert(vec![Value::Int(v), Value::Int(v % 40), Value::Float(v as f64 / 8.0)])
            .unwrap();
    }
    for s in 0..3000i64 {
        log.insert(vec![Value::Int(s), Value::Int(s * 7 % 40)]).unwrap();
    }
    db.create_table("log", log);
    db.create_table("video", video);
    let mut deltas = Deltas::new();
    for s in 3000..3300i64 {
        deltas.insert(&db, "log", vec![Value::Int(s), Value::Int(s % 40)]).unwrap();
    }
    let def = Plan::scan("log")
        .join(Plan::scan("video"), JoinKind::Inner, &[("videoId", "ownerId")])
        .aggregate(
            &["video.videoId"],
            vec![AggSpec::count_all("n"), AggSpec::new("avgDur", AggFunc::Avg, col("duration"))],
        );
    let svc = SvcView::create("v", def, &db, quick_config()).unwrap();
    let cleaned = svc.clean_sample(&db, &deltas).unwrap();
    let public = svc.view.public_table().unwrap();
    assert_eq!(public.schema().names(), vec!["videoId", "n", "avgDur"]);
    assert!(svc.view.table().schema().names().contains(&"video.videoId"));

    let canonical_only: Vec<String> = svc
        .view
        .table()
        .schema()
        .names()
        .into_iter()
        .filter(|n| public.schema().resolve(n).is_err())
        .map(String::from)
        .collect();
    assert!(canonical_only.iter().any(|n| n == "__svc_cnt"), "{canonical_only:?}");
    assert!(canonical_only.iter().any(|n| n == "video.videoId"), "{canonical_only:?}");
    assert!(canonical_only.len() >= 4, "the avg's sum and count are hidden too");
    for name in canonical_only.iter().map(String::as_str).chain(["avgDurr"]) {
        for q in [AggQuery::sum(col(name)), AggQuery::count().filter(col(name).gt(lit(0i64)))] {
            let expected = q.exact(&public).unwrap_err().to_string();
            assert!(expected.contains(name), "{expected}");
            assert_eq!(svc.query_stale(&q).unwrap_err().to_string(), expected);
            assert_eq!(svc.estimate_corr(&cleaned, &q).unwrap_err().to_string(), expected);
            assert_eq!(svc.estimate_aqp(&cleaned, &q).unwrap_err().to_string(), expected);
            assert_eq!(svc.preferred_method(&cleaned, &q).unwrap_err().to_string(), expected);
        }
    }

    let q = AggQuery::sum(col("n")).filter(col("videoId").gt(lit(10i64)));
    assert_eq!(assert_lowered_equals_public(&svc, &cleaned, &[q]), 14);
}
