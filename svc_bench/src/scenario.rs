//! The scenario table: every workload's generator configuration, views,
//! update rate, sampling ratio, period shape and query mix, as data.
//!
//! Scales are constants here, not environment knobs — the driver reads no
//! `SVC_BENCH_*` variable. They are sized so that one period costs a few
//! hundred milliseconds on a 2-core box and a `run_seconds` run holds a few
//! dozen periods; `--smoke` shrinks them for the smoke test.

/// Which TPCD views a scenario materializes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViewSet {
    /// The `lineitem ⋈ orders` join view (fig04/06).
    Join,
    /// The ten `complex_views()` V3…V22, η-blocked V21/V22 included (fig07/09a).
    Fleet,
    /// V3 alone, the outlier-index carrier (fig05/08/11–13).
    V3,
}

/// A TPCD-Skew scenario: every period starts from the same stale state,
/// takes one pre-generated delta set and one hash seed, and answers its
/// query set by the SVC path and by the IVM path.
#[derive(Debug, Clone)]
pub struct TpcdScenario {
    /// `TpcdConfig::scale` (1.0 ≈ 60k lineitems).
    pub scale: f64,
    /// Zipf skew `z`.
    pub skew: f64,
    /// Update volume as a share of the base data.
    pub update_fraction: f64,
    /// Sampling ratio `m`.
    pub ratio: f64,
    /// The views.
    pub views: ViewSet,
    /// Distinct pre-generated delta sets, cycled by period number.
    pub delta_sets: usize,
    /// Hash seeds, cycled by period number and pooled by the accuracy phase.
    pub hash_seeds: usize,
    /// sum/avg/count queries answered per view per period.
    pub queries_per_view: usize,
    /// Median (bootstrap path) queries answered per view per period.
    pub median_queries: usize,
    /// Top-K outlier index on `lineitem.l_extendedprice`, when set.
    pub outlier_top_k: Option<usize>,
    /// Answer every query by stale / AQP / CORR (and the outlier variants)
    /// inside the period, not only by CORR — the read-side burst.
    pub all_methods: bool,
    /// Accuracy phase: delta sets checked against the recomputed view.
    pub accuracy_delta_sets: usize,
    /// Accuracy phase: queries per view × hash seed × delta set.
    pub accuracy_queries: usize,
    /// Periods run even when `--seconds` is shorter.
    pub min_periods: usize,
}

/// The append-only activity-log scenario (the write side): chunks stream
/// in, views refresh through one `BatchPipeline` every `refresh_every`
/// chunks and commit, and samples are cleaned every `clean_every` chunks.
/// One cycle is `chunks_per_cycle` chunks; the state is reset between
/// cycles so every cycle does the same work.
#[derive(Debug, Clone)]
pub struct StreamScenario {
    /// `ConvivaConfig::base_events`.
    pub base_events: usize,
    /// `ConvivaConfig::users`.
    pub users: usize,
    /// `ConvivaConfig::days`.
    pub days: i64,
    /// Records per chunk.
    pub chunk_records: usize,
    /// Chunks per cycle.
    pub chunks_per_cycle: usize,
    /// Chunks between refreshes.
    pub refresh_every: usize,
    /// Chunks between sample cleanings.
    pub clean_every: usize,
    /// `BatchPipeline::maintain` batch size.
    pub batch_size: usize,
    /// Sampling ratio `m`.
    pub ratio: f64,
    /// Conviva view ids. Nested V4/V5 are left out: `BatchPipeline::maintain`
    /// rejects them (the `fig15` panic; see the README's known issues).
    pub views: &'static [&'static str],
    /// CORR queries per view per cleaning.
    pub queries_per_view: usize,
    /// Cycles run even when `--seconds` is shorter.
    pub min_cycles: usize,
}

/// The shape of a workload.
#[derive(Debug, Clone)]
pub enum Scenario {
    /// TPCD-Skew periods.
    Tpcd(TpcdScenario),
    /// Activity-log stream cycles.
    Stream(StreamScenario),
}

/// One named workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The name `--workload` takes and `BENCHMARK.json` lists.
    pub name: &'static str,
    /// Why the workload exists: what it stresses and what it bypasses.
    pub why: &'static str,
    /// Its scenario constants.
    pub scenario: Scenario,
}

/// The four workloads. `smoke` shrinks every size so a run takes about a
/// second; names, views and period shapes stay the same.
pub fn workloads(smoke: bool) -> Vec<Workload> {
    let n = |full: usize, small: usize| if smoke { small } else { full };
    let scale = |full: f64, small: f64| if smoke { small } else { full };
    vec![
        Workload {
            name: "tpcd_join_clean",
            why: "one big join view: exec join build/probe and eta-filtered scans carry clean and \
                  maintain; plan time is small",
            scenario: Scenario::Tpcd(TpcdScenario {
                scale: scale(1.0, 0.12),
                skew: 2.0,
                update_fraction: 0.10,
                ratio: 0.10,
                views: ViewSet::Join,
                delta_sets: n(6, 2),
                hash_seeds: n(3, 2),
                queries_per_view: 1,
                median_queries: 0,
                outlier_top_k: None,
                all_methods: false,
                accuracy_delta_sets: n(2, 1),
                accuracy_queries: n(48, 8),
                min_periods: n(8, 2),
            }),
        },
        Workload {
            name: "tpcd_agg_fleet",
            why: "ten small aggregate plans over shared base tables: plan build, optimizer, \
                  compile and group folds carry a large share, joins a small one",
            scenario: Scenario::Tpcd(TpcdScenario {
                scale: scale(0.2, 0.1),
                skew: 2.0,
                update_fraction: 0.10,
                ratio: 0.10,
                views: ViewSet::Fleet,
                delta_sets: n(4, 2),
                hash_seeds: n(3, 2),
                queries_per_view: 2,
                median_queries: 0,
                outlier_top_k: None,
                all_methods: false,
                accuracy_delta_sets: 1,
                accuracy_queries: n(16, 4),
                min_periods: n(6, 2),
            }),
        },
        Workload {
            name: "conviva_stream",
            why: "the write side: many small batches through BatchPipeline, compile-cache reuse, \
                  driver-side folds, epoch commits and catalog upkeep",
            scenario: Scenario::Stream(StreamScenario {
                base_events: n(12_000, 3_000),
                users: n(150, 60),
                days: 60,
                chunk_records: n(300, 60),
                chunks_per_cycle: 16,
                refresh_every: 8,
                clean_every: 2,
                batch_size: n(800, 120),
                ratio: 0.05,
                views: &["V2", "V7", "V8"],
                queries_per_view: 8,
                min_cycles: n(4, 1),
            }),
        },
        Workload {
            name: "skew_query_burst",
            why: "the read side: one clean amortized over a burst of queries answered four ways, \
                  so estimators, outlier index and stats do the work and exec almost none",
            scenario: Scenario::Tpcd(TpcdScenario {
                scale: scale(0.5, 0.15),
                skew: 4.0,
                update_fraction: 0.10,
                ratio: 0.10,
                views: ViewSet::V3,
                delta_sets: 1,
                hash_seeds: n(5, 2),
                queries_per_view: n(100, 6),
                median_queries: n(10, 1),
                outlier_top_k: Some(100),
                all_methods: true,
                accuracy_delta_sets: 1,
                accuracy_queries: n(120, 10),
                min_periods: n(5, 2),
            }),
        },
    ]
}
