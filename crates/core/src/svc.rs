//! The SVC facade: one materialized view under Stale View Cleaning.
//!
//! [`SvcView`] owns the full (possibly stale) materialized view **and** a
//! hash-sample of it. Between maintenance periods it can:
//!
//! * *clean* the stale sample into an up-to-date sample (Problem 1):
//!   maintenance with η pushed through it (Figure 3), so `svc-ivm`'s delta
//!   runner (`MaterializedView::maintained`) on the stale sample under η;
//! * answer aggregate queries via SVC+AQP or SVC+CORR (Problem 2);
//! * run full maintenance at period boundaries and re-sample.

use svc_storage::{Database, Deltas, Result, StorageError, Table};

use svc_catalog::{Catalog, ScopedStats};
use svc_ivm::delta::{del_leaf, ins_leaf};
use svc_ivm::strategy::{PlanKind, STALE_LEAF};
use svc_ivm::view::MaterializedView;

use svc_relalg::optimizer::CardEstimator;
use svc_relalg::plan::Plan;
use svc_sampling::operator::KeySample;
use svc_sampling::pushdown::PushdownReport;

use crate::config::SvcConfig;
use crate::estimate::{break_even, estimate, stale_answer, svc_aqp, Estimate, Method, StaleView};
use crate::query::AggQuery;

/// The catalog overlay for a maintenance, cleaning or change plan: the
/// delta relations — and the stale view, for plans that scan it — bound by
/// their plan leaf names; a bound table's stats are built if the optimizer
/// prices a region that reads it.
pub fn maintenance_stats<'a>(
    catalog: &'a Catalog,
    stale: Option<&'a Table>,
    deltas: &'a Deltas,
) -> ScopedStats<'a> {
    let mut scoped = catalog.scoped();
    if let Some(stale) = stale {
        scoped.bind_table(STALE_LEAF, stale);
    }
    for (name, set) in deltas.iter() {
        scoped.bind_table(ins_leaf(name), &set.insertions);
        scoped.bind_table(del_leaf(name), &set.deletions);
    }
    scoped
}

/// A materialized view managed by SVC: full stale state + stale sample +
/// the machinery to clean the sample and estimate query answers.
#[derive(Debug, Clone)]
pub struct SvcView {
    /// The underlying materialized view (full, possibly stale, state).
    pub view: MaterializedView,
    /// Configuration (ratio, hash, confidence, ...).
    pub config: SvcConfig,
    /// The stale sample `Ŝ` and how it was drawn from the view: the state,
    /// ratio and hash, and the survivors' positions ([`SvcView::resample`]).
    stale_sample: KeySample,
    counters: SvcCounters,
}

/// Live cleaning counters. Atomic so the `&self` cleaning path can count;
/// cloning an [`SvcView`] snapshots them (shared history, separate future).
#[derive(Debug, Clone, Default)]
struct SvcCounters {
    cleanings: svc_telemetry::Counter,
    rows_cleaned: svc_telemetry::Counter,
}

/// A point-in-time reading of one view's SVC telemetry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SvcMetrics {
    /// Cleaning runs performed ([`SvcView::clean_sample`] and friends).
    pub cleanings: u64,
    /// Total up-to-date sample rows those runs materialized.
    pub rows_cleaned: u64,
    /// Time since the full view was last maintained (creation counts).
    pub staleness_age: std::time::Duration,
    /// View deltas the view's plan cache built (derived, optimized,
    /// compiled) — for cleaning, maintenance and the pipeline alike, since
    /// the cache is shared by every clone of the view.
    pub plans_built: u64,
    /// View deltas served from that cache: runs that paid no planning.
    pub plan_hits: u64,
}

/// A cleaned sample plus diagnostics of how it was materialized.
#[derive(Debug, Clone)]
pub struct CleanedSample {
    /// Canonical-schema sample of the up-to-date view (`Ŝ′`).
    pub canonical: Table,
    /// Public-schema projection of the sample, for display and the
    /// outlier helpers; [`SvcView`]'s estimators read `canonical`.
    pub public: Table,
    /// What the push-down rewrite achieved.
    pub report: PushdownReport,
    /// Which maintenance strategy the cleaning expression derives from.
    pub plan_kind: PlanKind,
}

impl SvcView {
    /// Create the view, materialize it, and draw the initial sample; a config
    /// outside `ratio ∈ (0, 1]`, `confidence ∈ (0, 1)` is
    /// [`StorageError::Invalid`] (the estimators would be wrong), and so is
    /// a view without a primary key (a global aggregate): η hashes the key,
    /// so its sample would be empty and no clean could run.
    pub fn create(
        name: impl Into<String>,
        definition: Plan,
        db: &Database,
        config: SvcConfig,
    ) -> Result<SvcView> {
        let SvcConfig { ratio, confidence, .. } = config;
        if !(ratio > 0.0 && ratio <= 1.0 && confidence > 0.0 && confidence < 1.0) {
            return Err(StorageError::Invalid(format!(
                "need ratio in (0, 1] and confidence in (0, 1): {config:?}"
            )));
        }
        let view = MaterializedView::create(name, definition, db)?;
        if view.key_names().is_empty() {
            return Err(StorageError::Invalid(format!(
                "view {} has an empty primary key (a global aggregate): it cannot be sampled",
                view.name
            )));
        }
        let stale_sample = KeySample::draw(view.table(), config.ratio, config.hash_spec());
        Ok(SvcView { view, config, stale_sample, counters: SvcCounters::default() })
    }

    /// Read this view's telemetry: cleaning counters, the staleness age of
    /// the full materialized state, and its plan cache's counters.
    pub fn metrics(&self) -> SvcMetrics {
        let plans = self.view.plan_metrics();
        SvcMetrics {
            cleanings: self.counters.cleanings.get(),
            rows_cleaned: self.counters.rows_cleaned.get(),
            staleness_age: self.view.staleness_age(),
            plans_built: plans.built,
            plan_hits: plans.hits,
        }
    }

    /// The stale sample `Ŝ` (canonical schema).
    pub fn stale_sample(&self) -> &Table {
        self.stale_sample.table()
    }

    /// The stale sample materialized in the public schema — the display
    /// form; the estimators read [`SvcView::stale_sample`] in place.
    pub fn stale_sample_public(&self) -> Result<Table> {
        self.view.public_of(self.stale_sample())
    }

    /// Build the optimized cleaning expression `C` (η pushed through the
    /// maintenance plan) without evaluating it: the view's strategy as *one*
    /// plan over `__stale`. Exposed for inspection and for the benchmarks that
    /// count how far hashes push; [`SvcView::clean_sample`] does not run it —
    /// it is the reference that method is tested equal to, on every strategy.
    ///
    /// The η-wrapped maintenance plan goes through the standard optimizer —
    /// predicate pushdown, projection pruning, and the Definition 3 η rule
    /// all in one fixed-point engine — exactly once.
    pub fn cleaning_plan(
        &self,
        db: &Database,
        deltas: &Deltas,
    ) -> Result<(Plan, PushdownReport, PlanKind)> {
        self.cleaning_plan_with(db, deltas, None)
    }

    /// [`SvcView::cleaning_plan`] with an optional statistics catalog:
    /// when present, the optimizer additionally reorders the cleaning
    /// plan's join regions by estimated cost. The catalog covers the base
    /// tables; the maintenance-only leaves (`__stale`, `__ins.T`,
    /// `__del.T`) are overlaid with stats built from the concrete tables
    /// about to be bound — all small relative to the base data.
    pub fn cleaning_plan_with(
        &self,
        db: &Database,
        deltas: &Deltas,
        catalog: Option<&Catalog>,
    ) -> Result<(Plan, PushdownReport, PlanKind)> {
        let (mplan, kind) = self.view.build_maintenance_plan(db, deltas)?;
        let hashed = self.view.hashed(mplan, (self.config.ratio, self.config.hash_spec()))?;
        let cat = self.view.maint_catalog(db);
        // The stale leaf is priced from the **stale sample** — the relation
        // a run of this plan may bind when η reached every stale leaf (the
        // common case; the hash is idempotent on it). When η is blocked and
        // the full view must be bound instead, every stale branch is
        // under-priced by the same factor `m`, which leaves the ordinal
        // comparisons the reorderer makes intact.
        let scoped = catalog.map(|c| maintenance_stats(c, Some(self.stale_sample()), deltas));
        let est = scoped.as_ref().map(ScopedStats::estimator);
        let est = est.as_ref().map(|e| e as &dyn CardEstimator);
        let (optimized, report) = cat.optimize(&hashed, est)?;
        Ok((optimized, report.eta, kind))
    }

    /// Problem 1 — stale sample view cleaning: materialize `Ŝ′`, the
    /// corresponding up-to-date sample, for a fraction of full maintenance
    /// cost.
    pub fn clean_sample(&self, db: &Database, deltas: &Deltas) -> Result<CleanedSample> {
        self.clean_sample_with(db, deltas, None)
    }

    /// [`SvcView::clean_sample`] with an optional statistics catalog (see
    /// [`SvcView::cleaning_plan_with`]).
    ///
    /// Cleaning is maintenance of the sample: the view's delta runner
    /// ([`MaterializedView::maintained`]) on the stale sample under η. A keyed
    /// pair lands by the fold, `Ŝ′ = fold(Ŝ, η(∆), η(∇))`: the stale sample
    /// *is* `η(S)`, and a matched key, a new one that hashes into the sample
    /// and a dead one are the fold's three cases. A recompute runs η(plan).
    /// Deltas that do not reach the view hand the stale sample back. Nothing
    /// reads the stale view; the report has no `__stale` entry.
    pub fn clean_sample_with(
        &self,
        db: &Database,
        deltas: &Deltas,
        catalog: Option<&Catalog>,
    ) -> Result<CleanedSample> {
        svc_fault::fail_point!(svc_fault::site::CORE_CLEAN, StorageError::Invalid);
        let scoped = catalog.map(|c| maintenance_stats(c, None, deltas));
        let est = scoped.as_ref().map(ScopedStats::estimator);
        let est = est.as_ref().map(|e| e as &dyn CardEstimator);
        let sample = self.stale_sample();
        let eta = Some((self.config.ratio, self.config.hash_spec()));
        let cleaned = self.view.maintained(db, deltas, sample, eta, est)?;
        let (canonical, plan_kind, report) =
            cleaned.unwrap_or_else(|| (sample.clone(), PlanKind::NoOp, PushdownReport::default()));
        let public = self.view.public_of(&canonical)?;
        self.counters.cleanings.inc();
        self.counters.rows_cleaned.add(canonical.len() as u64);
        Ok(CleanedSample { canonical, public, report, plan_kind })
    }

    /// `q(S)`: the (possibly stale) full-view answer — the "No Maintenance"
    /// baseline.
    pub fn query_stale(&self, q: &AggQuery) -> Result<f64> {
        self.lowered(q)?.exact(self.view.table())
    }

    /// `q`, written over the public schema, rewritten onto the canonical
    /// one: each column reference becomes the public projection's defining
    /// expression. The projection is row-local and key-preserving
    /// (Definition 2), so `q(Π(S)) = (q∘Π)(S)` and every answer path reads
    /// the canonical tables in place. Names resolve against the *public*
    /// schema only: canonical-only columns stay unaddressable.
    fn lowered(&self, q: &AggQuery) -> Result<AggQuery> {
        let (Some(public), Some(schema)) =
            (self.view.canonical().public.as_deref(), self.view.public_schema())
        else {
            return Ok(q.clone());
        };
        let mut lower = |name: &str| Ok(public[schema.resolve(name)?].1.clone());
        Ok(AggQuery {
            agg: q.agg,
            attr: q.attr.map_cols(&mut lower)?,
            predicate: q.predicate.as_ref().map(|p| p.map_cols(&mut lower)).transpose()?,
        })
    }

    /// `q(S′)`: the ground-truth fresh answer, by full recomputation.
    /// Expensive; used as the oracle in tests and experiments.
    pub fn query_fresh_oracle(&self, db: &Database, deltas: &Deltas, q: &AggQuery) -> Result<f64> {
        let fresh = self.view.recompute_fresh(db, deltas)?;
        q.exact(&self.view.public_of(&fresh)?)
    }

    /// SVC+AQP on an already-cleaned sample.
    pub fn estimate_aqp(&self, cleaned: &CleanedSample, q: &AggQuery) -> Result<Estimate> {
        svc_aqp(&cleaned.canonical, &self.lowered(q)?, self.config.ratio, &self.config)
    }

    /// SVC+CORR on an already-cleaned sample: the stale view's answer —
    /// for a median or percentile, its CDF — corrected by the samples.
    pub fn estimate_corr(&self, cleaned: &CleanedSample, q: &AggQuery) -> Result<Estimate> {
        let stale = Some((StaleView::Table(self.view.table()), self.stale_sample()));
        let (m, cfg) = (self.config.ratio, &self.config);
        estimate(stale, &cleaned.canonical, &[], &self.lowered(q)?, m, cfg)
    }

    /// End-to-end answer: clean a sample, then estimate with the requested
    /// method.
    pub fn answer(
        &self,
        db: &Database,
        deltas: &Deltas,
        q: &AggQuery,
        method: Method,
    ) -> Result<Estimate> {
        match method {
            Method::Stale => Ok(stale_answer(self.query_stale(q)?)),
            Method::AqpDirect => {
                let cleaned = self.clean_sample(db, deltas)?;
                self.estimate_aqp(&cleaned, q)
            }
            Method::Correction => {
                let cleaned = self.clean_sample(db, deltas)?;
                self.estimate_corr(&cleaned, q)
            }
        }
    }

    /// Break-even heuristic of Section 5.2.2: SVC+CORR wins while
    /// `σ²_S ≤ 2·cov(S, S′)`; estimate both from the corresponding samples
    /// and pick the lower-variance method for sample-mean queries.
    pub fn preferred_method(&self, cleaned: &CleanedSample, q: &AggQuery) -> Result<Method> {
        if !q.agg.is_sample_mean() {
            return Ok(Method::AqpDirect);
        }
        break_even(self.stale_sample(), &cleaned.canonical, &self.lowered(q)?)
    }

    /// Full incremental maintenance (the IVM baseline): update the view,
    /// then draw a fresh sample. The caller applies `deltas` to the base
    /// tables afterwards.
    pub fn maintain_full(&mut self, db: &Database, deltas: &Deltas) -> Result<PlanKind> {
        let kind = self.view.maintain(db, deltas)?;
        self.resample();
        Ok(kind)
    }

    /// Redraw the stale sample from the current full view:
    /// `sample_by_key(view, ratio, hash)` bit for bit. When the view's
    /// state descends by keyed edits from the state the sample was drawn
    /// from (a `maintain` or `BatchPipeline` fold since the last draw) and
    /// the ratio and hash are unchanged, only the edited rows are hashed
    /// and copied, and every other survivor keeps its row
    /// ([`KeySample::redraw`]); after a recompute, a reseed, a ratio change
    /// or two maintenances without a redraw between them, the sample is
    /// drawn whole.
    pub fn resample(&mut self) {
        let (ratio, spec) = (self.config.ratio, self.config.hash_spec());
        self.stale_sample = self.stale_sample.redraw(self.view.table(), ratio, spec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::relative_error;
    use svc_relalg::aggregate::{AggFunc, AggSpec};
    use svc_relalg::plan::JoinKind;
    use svc_relalg::scalar::{col, lit};
    use svc_storage::{DataType, Schema, Value};

    fn db() -> Database {
        let mut db = Database::new();
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
        for v in 0..500i64 {
            video
                .insert(vec![
                    Value::Int(v),
                    Value::Int(v % 23),
                    Value::Float(0.5 + (v % 13) as f64 * 0.25),
                ])
                .unwrap();
        }
        let mut log = Table::new(
            Schema::from_pairs(&[("sessionId", DataType::Int), ("videoId", DataType::Int)])
                .unwrap(),
            &["sessionId"],
        )
        .unwrap();
        for s in 0..8000i64 {
            log.insert(vec![Value::Int(s), Value::Int((s * 31 + 11) % 500)]).unwrap();
        }
        db.create_table("video", video);
        db.create_table("log", log);
        db
    }

    fn visit_view() -> Plan {
        Plan::scan("log")
            .join(Plan::scan("video"), JoinKind::Inner, &[("videoId", "videoId")])
            .aggregate(
                &["videoId"],
                vec![
                    AggSpec::count_all("visitCount"),
                    AggSpec::new("avgDur", AggFunc::Avg, col("duration")),
                ],
            )
    }

    /// Skewed insertions: most new visits hit a small set of videos —
    /// the "staleness does not affect every query uniformly" motivation.
    fn skewed_deltas(db: &Database, n: i64) -> Deltas {
        let mut deltas = Deltas::new();
        for s in 8000..8000 + n {
            let vid = if s % 10 < 8 { s % 20 } else { s % 500 };
            deltas.insert(db, "log", vec![Value::Int(s), Value::Int(vid)]).unwrap();
        }
        deltas
    }

    #[test]
    fn clean_sample_corresponds_to_fresh_view() {
        let db = db();
        let svc = SvcView::create("v", visit_view(), &db, SvcConfig::with_ratio(0.2)).unwrap();
        let deltas = skewed_deltas(&db, 2000);
        let cleaned = svc.clean_sample(&db, &deltas).unwrap();
        assert!(cleaned.report.fully_pushed(), "blockers: {:?}", cleaned.report.blockers);
        assert_eq!(cleaned.plan_kind, PlanKind::ChangeTable);

        // Every sampled row must exactly match the fresh view's row.
        let fresh = svc.view.recompute_fresh(&db, &deltas).unwrap();
        for (k, row) in cleaned.canonical.iter_keyed() {
            let f = fresh.get(&k).expect("sampled key exists in fresh view");
            assert_eq!(row, f, "cleaned row diverges at key {k}");
        }
        // Sample size ≈ m · |fresh|.
        let frac = cleaned.canonical.len() as f64 / fresh.len() as f64;
        assert!((frac - 0.2).abs() < 0.06, "sample fraction {frac}");
        // Property 1 check via the dedicated verifier.
        let violations = svc_sampling::check_correspondence(
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
    fn corr_and_aqp_beat_stale_baseline() {
        let db = db();
        let svc = SvcView::create("v", visit_view(), &db, SvcConfig::with_ratio(0.15)).unwrap();
        let deltas = skewed_deltas(&db, 4000);
        // Query hit hard by the skew: visits to the hot videos.
        let q = AggQuery::sum(col("visitCount")).filter(col("videoId").lt(lit(20i64)));
        let truth = svc.query_fresh_oracle(&db, &deltas, &q).unwrap();
        let stale = svc.query_stale(&q).unwrap();
        let cleaned = svc.clean_sample(&db, &deltas).unwrap();
        let aqp = svc.estimate_aqp(&cleaned, &q).unwrap();
        let corr = svc.estimate_corr(&cleaned, &q).unwrap();

        let e_stale = relative_error(stale, truth);
        let e_aqp = relative_error(aqp.value, truth);
        let e_corr = relative_error(corr.value, truth);
        assert!(e_corr < e_stale, "corr {e_corr} vs stale {e_stale}");
        assert!(e_aqp < e_stale, "aqp {e_aqp} vs stale {e_stale}");
    }

    #[test]
    fn answer_end_to_end_all_methods() {
        let db = db();
        let svc = SvcView::create("v", visit_view(), &db, SvcConfig::with_ratio(0.25)).unwrap();
        let deltas = skewed_deltas(&db, 1500);
        let q = AggQuery::avg(col("visitCount"));
        let truth = svc.query_fresh_oracle(&db, &deltas, &q).unwrap();
        for method in [Method::Stale, Method::AqpDirect, Method::Correction] {
            let est = svc.answer(&db, &deltas, &q, method).unwrap();
            assert!(est.value.is_finite());
            if method != Method::Stale {
                assert!(relative_error(est.value, truth) < 0.25);
            }
        }
    }

    #[test]
    fn maintain_full_resets_staleness() {
        let db = db();
        let mut svc = SvcView::create("v", visit_view(), &db, SvcConfig::with_ratio(0.2)).unwrap();
        let deltas = skewed_deltas(&db, 1000);
        let q = AggQuery::count();
        let truth = svc.query_fresh_oracle(&db, &deltas, &q).unwrap();
        svc.maintain_full(&db, &deltas).unwrap();
        let now = svc.query_stale(&q).unwrap();
        assert_eq!(now, truth);
        // Sample got refreshed too.
        let frac = svc.stale_sample().len() as f64 / svc.view.len() as f64;
        assert!((frac - 0.2).abs() < 0.06);
    }

    /// `create` must refuse `config` as `Invalid`.
    fn assert_rejected(config: SvcConfig) {
        let err = SvcView::create("v", visit_view(), &db(), config).unwrap_err();
        assert!(matches!(err, StorageError::Invalid(_)), "{config:?}: {err}");
    }

    /// η keeps every row above 1, but SVC+AQP still scales by `1/m`: at
    /// ratio 2 a sum estimate used to come back halved. Ratio 1 is the IVM
    /// reference and stays legal.
    #[test]
    fn ratio_above_one_is_rejected() {
        assert_rejected(SvcConfig::with_ratio(2.0));
        assert_rejected(SvcConfig::with_ratio(1.0 + 1e-9));
        let db = db();
        let svc = SvcView::create("v", visit_view(), &db, SvcConfig::with_ratio(1.0)).unwrap();
        assert_eq!(svc.stale_sample().len(), svc.view.len());
    }

    /// At ratio 0 or below (or NaN) the sample is empty and every sum or
    /// count used to be estimated as 0.
    #[test]
    fn ratio_at_or_below_zero_or_nan_is_rejected() {
        for ratio in [0.0, -0.5, f64::NAN] {
            assert_rejected(SvcConfig::with_ratio(ratio));
        }
    }

    /// A confidence of 1 or more asked the Gaussian tail for a level
    /// outside (0, 1), which panicked.
    #[test]
    fn confidence_outside_the_open_unit_interval_is_rejected() {
        for confidence in [1.5, 1.0, 0.0, -0.1, f64::NAN] {
            assert_rejected(SvcConfig { confidence, ..SvcConfig::with_ratio(0.2) });
        }
    }

    /// A global aggregate has an empty primary key: every hash seed drew an
    /// empty stale sample, and every clean then failed to sample it.
    #[test]
    fn global_aggregate_is_rejected() {
        let def = Plan::scan("log").aggregate(&[], vec![AggSpec::count_all("n")]);
        let err = SvcView::create("g", def, &db(), SvcConfig::with_ratio(0.2)).unwrap_err();
        assert!(matches!(err, StorageError::Invalid(_)), "{err}");
    }

    #[test]
    fn preferred_method_switches_with_staleness() {
        let db = db();
        let svc = SvcView::create("v", visit_view(), &db, SvcConfig::with_ratio(0.25)).unwrap();
        // Skewed insertions leave the samples correlated, so corrections
        // stay preferred from a small backlog to one as large as the base;
        // order statistics always estimate directly.
        for n in [200, 8000] {
            let cleaned = svc.clean_sample(&db, &skewed_deltas(&db, n)).unwrap();
            for (q, pick) in [
                (AggQuery::avg(col("visitCount")), Method::Correction),
                (
                    AggQuery::sum(col("visitCount")).filter(col("videoId").lt(lit(20i64))),
                    Method::Correction,
                ),
                (AggQuery::count(), Method::Correction),
                (AggQuery::median(col("visitCount")), Method::AqpDirect),
            ] {
                assert_eq!(svc.preferred_method(&cleaned, &q).unwrap(), pick, "{n}: {q:?}");
            }
        }
    }
}
