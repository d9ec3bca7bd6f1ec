//! The TPCD-Skew period runner behind `tpcd_join_clean`, `tpcd_agg_fleet`
//! and `skew_query_burst`.
//!
//! A run is: set-up (generated several times, the median reported), one
//! cold clean per view, an accuracy phase of fixed size (oracle
//! recomputation and every correctness check, outside any timer), then
//! closed-loop periods for `--seconds`. A period starts from the same
//! stale state, takes delta set `p % delta_sets` and hash seed
//! `p % hash_seeds`, and answers its query set twice: by cleaning the
//! sample and correcting the stale answer (the SVC path), and by full
//! maintenance plus exact queries on a clone of the view (the IVM path).
//! In a traced run every other period goes through the public stages of
//! `clean_sample` one by one, with a span around each.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use svc_catalog::Catalog;
use svc_cluster::WorkerPool;
use svc_core::estimate::{svc_aqp, svc_corr};
use svc_core::outlier::{
    estimate_aqp_with_outliers, estimate_corr_with_outliers, stale_rows_at, OutlierIndex,
    OutlierIndexSpec, ThresholdPolicy,
};
use svc_core::query::{relative_error, AggQuery, QueryAgg};
use svc_core::svc::CleanedSample;
use svc_core::{Method, SvcConfig, SvcView};
use svc_ivm::delta::{del_leaf, ins_leaf};
use svc_ivm::strategy::{MaintCatalog, PlanKind, STALE_LEAF};
use svc_ivm::view::maintenance_bindings;
use svc_relalg::derive::Derived;
use svc_relalg::exec::{compile, ExecMode};
use svc_relalg::optimizer::optimize_with;
use svc_relalg::plan::Plan;
use svc_relalg::scalar::col;
use svc_sampling::operator::sample_by_key;
use svc_storage::{Database, Deltas, Result, Table};
use svc_telemetry::OpMetrics;
use svc_workloads::querygen::{random_queries, random_range_predicate};
use svc_workloads::tpcd::{TpcdConfig, TpcdData};
use svc_workloads::tpcd_views::{complex_views, join_view, join_view_queries};

use crate::measure::{
    derive_seed, peak_rss_mb, repeat_setup, timed, Checks, Probe, Samples, CORR_ERROR_FLOOR,
};
use crate::metrics::Outcome;
use crate::scenario::{TpcdScenario, ViewSet};
use crate::spans::Tracer;
use crate::RunArgs;

/// Float tolerance of the table comparisons (change-table folds and
/// parallel partial sums round differently from recomputation).
const EPS: f64 = 1e-9;
/// avg/median queries must match at least this many rows of every stale
/// sample, so that no estimator meets an empty sample.
const MIN_MATCHING_ROWS: usize = 8;

/// A view definition and the attributes its queries draw from.
struct ViewDef {
    id: &'static str,
    plan: Plan,
    dims: Vec<&'static str>,
    measures: Vec<&'static str>,
}

fn view_defs(set: ViewSet) -> Vec<ViewDef> {
    if set == ViewSet::Join {
        // The join view's queries come from the `join_view_queries` templates.
        return vec![ViewDef { id: "joinView", plan: join_view(), dims: vec![], measures: vec![] }];
    }
    complex_views()
        .into_iter()
        .filter(|v| set == ViewSet::Fleet || v.id == "V3")
        .map(|v| ViewDef { id: v.id, plan: v.plan, dims: v.dims, measures: v.measures })
        .collect()
}

/// The outlier rows of the up-to-date and of the stale view (public
/// schema), pushed up from the base-table index.
struct Outliers {
    fresh: Table,
    stale: Table,
}

/// Everything set-up builds.
struct State {
    data: TpcdData,
    deltas: Vec<Deltas>,
    views: Vec<SvcView>,
    catalog: Catalog,
    outliers: Option<Outliers>,
    times: SetupTimes,
}

#[derive(Default)]
struct SetupTimes {
    gen_s: f64,
    view_create_ms: f64,
    catalog_ms: f64,
    outlier_build_ms: f64,
    outlier_pushup_ms: f64,
}

/// Data generation, view creation with the initial sample, catalog build
/// and — where the scenario has one — the outlier index and its push-up.
fn setup(scn: &TpcdScenario, defs: &[ViewDef], seed: u64) -> Result<State> {
    let mut times = SetupTimes::default();
    let (generated, gen_ms) = timed(|| -> Result<_> {
        let data = TpcdData::generate(TpcdConfig {
            scale: scn.scale,
            skew: scn.skew,
            seed: derive_seed(seed, 1),
        })?;
        let deltas = (0..scn.delta_sets as u64)
            .map(|d| data.updates(scn.update_fraction, derive_seed(seed, 100 + d)))
            .collect::<Result<Vec<_>>>()?;
        Ok((data, deltas))
    });
    let (data, deltas) = generated?;
    times.gen_s = gen_ms / 1e3;

    let config = SvcConfig::with_ratio(scn.ratio).reseeded(derive_seed(seed, 200));
    let (views, create_ms) = timed(|| {
        defs.iter()
            .map(|d| SvcView::create(d.id, d.plan.clone(), &data.db, config))
            .collect::<Result<Vec<_>>>()
    });
    let views = views?;
    times.view_create_ms = create_ms;

    let (catalog, catalog_ms) = timed(|| Catalog::build(&data.db));
    times.catalog_ms = catalog_ms;

    let outliers = match scn.outlier_top_k {
        None => None,
        Some(capacity) => {
            let spec = OutlierIndexSpec {
                table: "lineitem".into(),
                attr: "l_extendedprice".into(),
                policy: ThresholdPolicy::TopK,
                capacity,
            };
            let (index, build_ms) = timed(|| OutlierIndex::build(spec, &data.db, &deltas[0]));
            let index = index?;
            times.outlier_build_ms = build_ms;
            let view = &views[0].view;
            let (pushed, pushup_ms) = timed(|| -> Result<_> {
                let fresh = view.public_of(&index.push_up(view, &data.db, &deltas[0])?)?;
                let stale = stale_rows_at(&view.public_table()?, &fresh);
                Ok(Outliers { fresh, stale })
            });
            times.outlier_pushup_ms = pushup_ms;
            Some(pushed?)
        }
    };
    Ok(State { data, deltas, views, catalog, outliers, times })
}

/// Per-operator metrics of the metered cleaning runs, folded by node class.
#[derive(Default)]
struct OpTotals {
    runs: u64,
    scan_ns: u64,
    join_ns: u64,
    agg_ns: u64,
    setop_ns: u64,
    rows_scanned: u64,
    rows_out: u64,
    build_rows: u64,
    probe_rows: u64,
    zone_skips: u64,
    vec_chunks: u64,
    row_batches: u64,
}

impl OpTotals {
    /// Fold one run. `labels[i]` names the node in sink slot `i`
    /// (pre-order); `wall_ns` is inclusive, so a node's own time is its
    /// wall minus its children's, and the children follow from each
    /// class's arity.
    fn fold(&mut self, labels: &[String], ops: &[OpMetrics]) {
        fn arity(label: &str) -> usize {
            if label.starts_with("fused-scan") {
                0
            } else if label.starts_with("fused") || label.starts_with('γ') {
                1
            } else if label.starts_with("join") {
                1 + usize::from(label.ends_with("build"))
            } else {
                2
            }
        }
        // Returns the index after the subtree rooted at `i`.
        fn walk(t: &mut OpTotals, labels: &[String], ops: &[OpMetrics], i: usize) -> usize {
            let mut next = i + 1;
            let mut children_ns = 0;
            for _ in 0..arity(&labels[i]) {
                if next >= ops.len() {
                    break;
                }
                children_ns += ops[next].wall_ns;
                next = walk(t, labels, ops, next);
            }
            let own = ops[i].wall_ns.saturating_sub(children_ns);
            let label = labels[i].as_str();
            if label.starts_with("fused") {
                t.scan_ns += own;
                if label.starts_with("fused-scan") {
                    t.rows_scanned += ops[i].rows_in;
                }
            } else if label.starts_with("join") {
                t.join_ns += own;
            } else if label.starts_with('γ') {
                t.agg_ns += own;
            } else {
                t.setop_ns += own;
            }
            t.build_rows += ops[i].build_rows;
            t.probe_rows += ops[i].probe_rows;
            t.zone_skips += ops[i].zone_skips;
            t.vec_chunks += ops[i].vec_chunks;
            t.row_batches += ops[i].row_batches;
            next
        }
        if labels.is_empty() || labels.len() != ops.len() {
            return;
        }
        self.runs += 1;
        self.rows_out += ops[0].rows_out;
        walk(self, labels, ops, 0);
    }

    fn per_run(&self, total: u64) -> f64 {
        total as f64 / self.runs.max(1) as f64
    }
}

/// `SvcView::clean_sample_with`, stage by public stage, a span around each.
fn clean_staged(
    svc: &SvcView,
    db: &Database,
    deltas: &Deltas,
    catalog: &Catalog,
    tr: &mut Tracer,
    ops: &mut OpTotals,
) -> Result<CleanedSample> {
    let s = tr.enter("core.cleaning_plan");
    let (plan, report, plan_kind) = svc.cleaning_plan_with(db, deltas, Some(catalog))?;
    tr.exit(s);
    // The binding rule of `clean_sample_with_mode`: the stale sample stands
    // in for the stale view when η reached every stale-view leaf.
    let stale_scans = plan.leaf_tables().iter().filter(|t| **t == STALE_LEAF).count();
    let stale_sampled = report.sampled_leaves.iter().filter(|l| l.as_str() == STALE_LEAF).count();
    let stale = if stale_scans == 0 || stale_scans == stale_sampled {
        svc.stale_sample()
    } else {
        svc.view.table()
    };
    let s = tr.enter("ivm.bindings");
    let bindings = maintenance_bindings(db, deltas, stale);
    tr.exit(s);
    let s = tr.enter("exec.compile");
    let compiled = compile(&plan, &bindings)?;
    tr.exit(s);
    let sink = compiled.metrics_sink();
    let s = tr.enter("exec.run");
    let canonical = compiled.run_with_metrics(&bindings, ExecMode::sequential(), &sink)?;
    tr.exit(s);
    ops.fold(&compiled.node_labels(), &sink.snapshots());
    let s = tr.enter("core.public_of");
    let public = svc.view.public_of(&canonical)?;
    tr.exit(s);
    Ok(CleanedSample { canonical, public, report, plan_kind })
}

/// One view's inputs, prepared after set-up and outside every timer.
struct Prepared {
    /// The view under each hash seed (same stale state, its own sample).
    by_hash: Vec<SvcView>,
    /// The stale sample of each hash seed in the public schema.
    stale_samples: Vec<Table>,
    /// The stale view in the public schema.
    stale_public: Table,
    /// sum/avg/count queries answered every period.
    queries: Vec<AggQuery>,
    /// Median queries answered every period (bootstrap path).
    median_queries: Vec<AggQuery>,
    /// Queries of the accuracy phase.
    accuracy_queries: Vec<AggQuery>,
    /// Delta records that reach this view, per delta set.
    records: Vec<usize>,
}

fn answerable(q: &AggQuery, stale_samples: &[Table]) -> bool {
    matches!(q.agg, QueryAgg::Sum | QueryAgg::Count)
        || stale_samples.iter().all(|s| {
            q.bind(s).map(|b| b.matching_values(s).len() >= MIN_MATCHING_ROWS).unwrap_or(false)
        })
}

/// Draw `n` queries every estimator can answer on every hash seed; a view
/// too small to offer that many is padded with plain counts.
fn draw_queries(
    def: &ViewDef,
    prepared: &Prepared,
    n: usize,
    median: bool,
    rng: &mut StdRng,
) -> Result<Vec<AggQuery>> {
    let templates = join_view_queries();
    let mut out = Vec::with_capacity(n);
    for attempt in 0..40 * n {
        if out.len() == n {
            break;
        }
        let q = if def.dims.is_empty() {
            templates[attempt % 4].instance(rng)
        } else if median {
            AggQuery::median(col(def.measures[0])).filter(random_range_predicate(
                &prepared.stale_public,
                def.dims[0],
                rng,
            )?)
        } else {
            random_queries(&prepared.stale_public, &def.dims, &def.measures, 1, rng)?.remove(0)
        };
        if answerable(&q, &prepared.stale_samples) {
            out.push(q);
        }
    }
    out.resize(n, AggQuery::count());
    Ok(out)
}

fn prepare(scn: &TpcdScenario, defs: &[ViewDef], st: &State, seed: u64) -> Result<Vec<Prepared>> {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 300));
    let mut out = Vec::with_capacity(defs.len());
    for (def, svc) in defs.iter().zip(&st.views) {
        let by_hash: Vec<SvcView> = (0..scn.hash_seeds as u64)
            .map(|h| {
                let mut v = svc.clone();
                if h > 0 {
                    v.config = v.config.reseeded(derive_seed(seed, 200 + h));
                    v.resample();
                }
                v
            })
            .collect();
        let leaves = def.plan.leaf_tables();
        let mut p = Prepared {
            stale_samples: by_hash
                .iter()
                .map(SvcView::stale_sample_public)
                .collect::<Result<_>>()?,
            stale_public: svc.view.public_table()?,
            by_hash,
            queries: Vec::new(),
            median_queries: Vec::new(),
            accuracy_queries: Vec::new(),
            records: st.deltas.iter().map(|d| d.restricted_to(&leaves).len()).collect(),
        };
        p.queries = draw_queries(def, &p, scn.queries_per_view, false, &mut rng)?;
        p.median_queries = draw_queries(def, &p, scn.median_queries, true, &mut rng)?;
        p.accuracy_queries = draw_queries(def, &p, scn.accuracy_queries, false, &mut rng)?;
        out.push(p);
    }
    Ok(out)
}

/// Answer quality against the recomputed view, pooled over views × delta
/// sets × hash seeds × queries.
#[derive(Default)]
struct Accuracy {
    stale: Samples,
    aqp: Samples,
    corr: Samples,
    corr_outlier: Samples,
    ci_width: Samples,
    intervals: u64,
    covered: u64,
    agree: u64,
    agree_of: u64,
    recompute_ms: Samples,
}

/// The accuracy phase: a fixed amount of work driven by counts, never by
/// wall time, so its numbers repeat for a seed. Every comparison is a
/// counted check: IVM == recompute, cleaned sample == hash sample of the
/// recomputed view (Theorem 1), staged clean == `clean_sample_with`, every
/// estimate finite.
fn accuracy_phase(
    scn: &TpcdScenario,
    st: &State,
    prepared: &[Prepared],
    checks: &mut Checks,
) -> Result<Accuracy> {
    let mut acc = Accuracy::default();
    let db = &st.data.db;
    for deltas in st.deltas.iter().take(scn.accuracy_delta_sets) {
        let mut recompute_ms = 0.0;
        for p in prepared {
            let view = &p.by_hash[0].view;
            let (fresh, ms) = timed(|| view.recompute_fresh(db, deltas));
            let fresh = fresh?;
            recompute_ms += ms;
            let fresh_public = view.public_of(&fresh)?;

            let mut ivm = p.by_hash[0].clone();
            ivm.maintain_full(db, deltas)?;
            checks.check(ivm.view.table().approx_same_contents(&fresh, EPS), || {
                format!("{}: maintained view differs from recomputation", view.name)
            });

            for (h, svc) in p.by_hash.iter().enumerate() {
                let cleaned = svc.clean_sample_with(db, deltas, Some(&st.catalog))?;
                let expected = sample_by_key(&fresh, svc.config.ratio, svc.config.hash_spec());
                checks.check(cleaned.canonical.approx_same_contents(&expected, EPS), || {
                    format!(
                        "{}: cleaned sample is not the hash sample of the fresh view",
                        view.name
                    )
                });
                let staged = clean_staged(
                    svc,
                    db,
                    deltas,
                    &st.catalog,
                    &mut Tracer::new(false),
                    &mut OpTotals::default(),
                )?;
                checks.check(staged.canonical.same_contents(&cleaned.canonical), || {
                    format!("{}: staged clean differs from clean_sample_with", view.name)
                });

                let stale_sample = &p.stale_samples[h];
                for q in &p.accuracy_queries {
                    let truth = q.exact(&fresh_public)?;
                    if !truth.is_finite() || truth == 0.0 {
                        continue;
                    }
                    let stale = q.exact(&p.stale_public)?;
                    acc.stale.push(relative_error(stale, truth));
                    let aqp = svc_aqp(&cleaned.public, q, svc.config.ratio, &svc.config);
                    let corr = svc_corr(
                        stale,
                        stale_sample,
                        &cleaned.public,
                        q,
                        svc.config.ratio,
                        &svc.config,
                    );
                    let mut errs = [f64::NAN; 2];
                    for (slot, est) in errs.iter_mut().zip([aqp, corr]) {
                        let ci = est.as_ref().ok().and_then(|e| e.ci);
                        let value = checks.finite(est.map(|e| e.value), || {
                            format!("{}: estimate failed for {q:?}", view.name)
                        });
                        let Some(value) = value else { continue };
                        *slot = relative_error(value, truth);
                        if let Some(ci) = ci {
                            acc.intervals += 1;
                            acc.covered += u64::from(ci.contains(truth));
                            acc.ci_width.push(ci.half_width / truth.abs());
                        }
                    }
                    if errs[0].is_finite() {
                        acc.aqp.push(errs[0]);
                    }
                    if errs[1].is_finite() {
                        acc.corr.push(errs[1]);
                    }
                    if let Some(o) = &st.outliers {
                        let est = estimate_corr_with_outliers(
                            stale,
                            stale_sample,
                            &cleaned.public,
                            &o.fresh,
                            &o.stale,
                            q,
                            svc.config.ratio,
                            &svc.config,
                        );
                        if let Some(v) = checks.finite(est.map(|e| e.value), || {
                            format!("{}: outlier estimate failed for {q:?}", view.name)
                        }) {
                            acc.corr_outlier.push(relative_error(v, truth));
                        }
                    }
                    if h == 0 && errs.iter().all(|e| e.is_finite()) {
                        let pick = svc.preferred_method(&cleaned, q)?;
                        acc.agree_of += 1;
                        acc.agree +=
                            u64::from((pick == Method::Correction) == (errs[1] <= errs[0]));
                    }
                }
            }
        }
        acc.recompute_ms.push(recompute_ms);
    }
    Ok(acc)
}

/// Per-period measurements of the timed loop (one value per plain period,
/// every quantity summed over the scenario's views).
#[derive(Default)]
struct Loop {
    /// Box slowdown around each period, and the two answers at reference
    /// pace (wall time ÷ slowdown): what the end-to-end metrics report.
    slowdown: Samples,
    svc_ref_ms: Samples,
    ivm_ref_ms: Samples,
    svc_ms: Samples,
    ivm_ms: Samples,
    clean_ms: Samples,
    maintain_rate: Samples,
    estimate_rate: Samples,
    corr_us: Samples,
    aqp_us: Samples,
    stale_us: Samples,
    bootstrap_ms: Samples,
    traced_answer_ms: Samples,
}

/// The timed loop: its inputs and what the periods accumulate.
struct Runner<'a> {
    scn: &'a TpcdScenario,
    st: &'a State,
    prepared: &'a [Prepared],
    probe: &'a Probe,
    tr: Tracer,
    ops: OpTotals,
    lp: Loop,
}

impl Runner<'_> {
    /// Run one period: its samples land in `lp` (plain periods) or in the
    /// tracer (traced periods).
    fn period(&mut self, period: usize, traced: bool, checks: &mut Checks) -> Result<()> {
        let Runner { scn, st, prepared, probe, tr, ops, lp } = self;
        let (scn, st, prepared) = (*scn, *st, *prepared);
        let probe_before = probe.run();
        let db = &st.data.db;
        let d = period % st.deltas.len();
        let h = period % scn.hash_seeds;
        let deltas = &st.deltas[d];
        tr.begin_period(period as u32, traced);

        let (mut clean_ms, mut maintain_ms) = (0.0, 0.0);
        let (mut corr_ms, mut corr_n, mut aqp_ms, mut aqp_n) = (0.0, 0u64, 0.0, 0u64);
        let (mut other_ms, mut other_n, mut boot_ms, mut boot_n) = (0.0, 0u64, 0.0, 0u64);
        let (mut stale_ms, mut stale_n, mut records) = (0.0, 0u64, 0usize);

        for p in prepared {
            let svc = &p.by_hash[h];
            let name = &svc.view.name;

            // The SVC path: clean the sample, correct the stale answers.
            let answer = tr.enter("svc_answer");
            let (cleaned, ms) = timed(|| {
                if traced {
                    clean_staged(svc, db, deltas, &st.catalog, tr, ops)
                } else {
                    svc.clean_sample_with(db, deltas, Some(&st.catalog))
                }
            });
            let cleaned = cleaned?;
            clean_ms += ms;
            let s = tr.enter("core.estimate_corr");
            let ((), ms) = timed(|| {
                for q in &p.queries {
                    checks.finite(svc.estimate_corr(&cleaned, q).map(|e| e.value), || {
                        format!("{name}: estimate_corr failed for {q:?}")
                    });
                }
            });
            tr.exit(s);
            corr_ms += ms;
            corr_n += p.queries.len() as u64;
            let s = tr.enter("stats.bootstrap");
            let ((), ms) = timed(|| {
                for q in &p.median_queries {
                    checks.finite(svc.estimate_corr(&cleaned, q).map(|e| e.value), || {
                        format!("{name}: median estimate_corr failed for {q:?}")
                    });
                }
            });
            tr.exit(s);
            boot_ms += ms;
            boot_n += p.median_queries.len() as u64;
            tr.exit(answer);

            // The other estimators over the same cleaned sample: they feed
            // `estimates_per_s`, not the SVC answer.
            let s = tr.enter("core.estimate_aqp");
            let ((), ms) = timed(|| {
                for q in &p.queries {
                    checks.finite(svc.estimate_aqp(&cleaned, q).map(|e| e.value), || {
                        format!("{name}: estimate_aqp failed for {q:?}")
                    });
                }
            });
            tr.exit(s);
            aqp_ms += ms;
            aqp_n += p.queries.len() as u64;
            if scn.all_methods {
                let s = tr.enter("core.outlier_estimates");
                let ((), ms) = timed(|| {
                    for q in &p.median_queries {
                        checks.finite(svc.estimate_aqp(&cleaned, q).map(|e| e.value), || {
                            format!("{name}: median estimate_aqp failed for {q:?}")
                        });
                    }
                    let Some(o) = &st.outliers else { return };
                    let (ratio, cfg) = (svc.config.ratio, &svc.config);
                    for q in &p.queries {
                        let aqp =
                            estimate_aqp_with_outliers(&cleaned.public, &o.fresh, q, ratio, cfg);
                        checks.finite(aqp.map(|e| e.value), || {
                            format!("{name}: estimate_aqp_with_outliers failed for {q:?}")
                        });
                        let corr = q.exact(&p.stale_public).and_then(|stale| {
                            estimate_corr_with_outliers(
                                stale,
                                &p.stale_samples[h],
                                &cleaned.public,
                                &o.fresh,
                                &o.stale,
                                q,
                                ratio,
                                cfg,
                            )
                        });
                        checks.finite(corr.map(|e| e.value), || {
                            format!("{name}: estimate_corr_with_outliers failed for {q:?}")
                        });
                    }
                });
                tr.exit(s);
                other_ms += ms;
                other_n += p.median_queries.len() as u64
                    + if st.outliers.is_some() { 2 * p.queries.len() as u64 } else { 0 };
            }

            // The IVM path on a clone: full maintenance, then exact queries.
            let mut ivm = svc.clone();
            let answer = tr.enter("ivm_answer");
            let ms = if traced {
                let s = tr.enter("ivm.maintain");
                let (kind, m1) = timed(|| ivm.view.maintain(db, deltas));
                tr.exit(s);
                kind?;
                let s = tr.enter("sampling.resample");
                let ((), m2) = timed(|| ivm.resample());
                tr.exit(s);
                m1 + m2
            } else {
                let (kind, ms) = timed(|| ivm.maintain_full(db, deltas));
                kind?;
                ms
            };
            maintain_ms += ms;
            records += p.records[d];
            let s = tr.enter("core.query_stale");
            let ((), ms) = timed(|| {
                for q in p.queries.iter().chain(&p.median_queries) {
                    checks.finite(ivm.query_stale(q), || {
                        format!("{name}: exact query failed for {q:?}")
                    });
                }
            });
            tr.exit(s);
            stale_ms += ms;
            stale_n += (p.queries.len() + p.median_queries.len()) as u64;
            tr.exit(answer);
        }
        let svc_ms = clean_ms + corr_ms + boot_ms;
        let ivm_ms = maintain_ms + stale_ms;
        // Two answers per view.
        checks.ok(2 * prepared.len() as u64);

        if traced {
            lp.traced_answer_ms.push(svc_ms + ivm_ms);
            return Ok(());
        }
        let slowdown = probe.slowdown_since(probe_before);
        lp.slowdown.push(slowdown);
        lp.svc_ref_ms.push(svc_ms / slowdown);
        lp.ivm_ref_ms.push(ivm_ms / slowdown);
        lp.maintain_rate.push(records as f64 / (maintain_ms / 1e3) * slowdown);
        lp.estimate_rate.push(
            (corr_n + boot_n + aqp_n + other_n) as f64
                / ((corr_ms + boot_ms + aqp_ms + other_ms) / 1e3)
                * slowdown,
        );
        lp.svc_ms.push(svc_ms);
        lp.ivm_ms.push(ivm_ms);
        lp.clean_ms.push(clean_ms);
        lp.corr_us.push(corr_ms * 1e3 / corr_n.max(1) as f64);
        lp.aqp_us.push(aqp_ms * 1e3 / aqp_n.max(1) as f64);
        lp.stale_us.push(stale_ms * 1e3 / stale_n.max(1) as f64);
        if boot_n > 0 {
            lp.bootstrap_ms.push(boot_ms / boot_n as f64);
        }
        Ok(())
    }
}

/// Layer probes of the traced run, outside any answer: plan build and
/// optimizer cost per view, η push-down reach, and the sequential /
/// morsel-parallel / partitioned runs of each compiled cleaning plan
/// (results checked equal).
fn probe_layers(st: &State, prepared: &[Prepared], out: &mut Outcome) -> Result<()> {
    const REPS: usize = 5;
    let db = &st.data.db;
    let deltas = &st.deltas[0];
    let workers = crate::pool_workers();
    let pool = WorkerPool::new(workers);
    let (mut plan_us, mut overlay_us, mut opt_us) =
        (Samples::default(), Samples::default(), Samples::default());
    let (mut seq_ms, mut par_ms, mut part_ms) = (0.0, 0.0, 0.0);
    let (mut passes, mut leaves, mut sampled) = (0usize, 0usize, 0usize);
    // The three stages inside `cleaning_plan_with`, one at a time: the
    // maintenance plan, the statistics overlay for its delta and stale
    // leaves, and the cost-based optimizer run over the η-wrapped plan.
    for rep in 0..REPS {
        let (mut plan_total, mut overlay_total, mut opt_total) = (0.0, 0.0, 0.0);
        for p in prepared {
            let svc = &p.by_hash[0];
            let (built, ms) = timed(|| svc.view.build_maintenance_plan(db, deltas));
            let (mplan, _) = built?;
            plan_total += ms * 1e3;
            let (scoped, ms) = timed(|| {
                let mut scoped = st.catalog.scoped();
                scoped.bind_table(STALE_LEAF, svc.stale_sample());
                for (name, set) in deltas.iter() {
                    scoped.bind_table(ins_leaf(name), &set.insertions);
                    scoped.bind_table(del_leaf(name), &set.deletions);
                }
                scoped
            });
            overlay_total += ms * 1e3;
            let keys = svc.view.key_names();
            let keys: Vec<&str> = keys.iter().map(String::as_str).collect();
            let hashed = mplan.hash(&keys, svc.config.ratio, svc.config.hash_spec());
            let cat = MaintCatalog {
                db,
                stale: Derived {
                    schema: svc.view.table().schema().clone(),
                    key: svc.view.table().key().to_vec(),
                },
            };
            let (optimized, ms) = timed(|| optimize_with(&hashed, &cat, &scoped.estimator()));
            let (_, report) = optimized?;
            opt_total += ms * 1e3;
            if rep == 0 {
                passes += report.passes;
            }
        }
        plan_us.push(plan_total);
        overlay_us.push(overlay_total);
        opt_us.push(opt_total);
    }
    for p in prepared {
        let svc = &p.by_hash[0];
        let (plan, report, _) = svc.cleaning_plan_with(db, deltas, Some(&st.catalog))?;
        leaves += plan.leaf_tables().len();
        sampled += report.sampled_leaves.len();
        // Bind the full stale view: a valid binding for every plan shape.
        let bindings = maintenance_bindings(db, deltas, svc.view.table());
        let compiled = compile(&plan, &bindings)?;
        let sequential = compiled.run_with(&bindings, ExecMode::sequential())?;
        let modes = [
            (ExecMode::sequential(), &mut seq_ms),
            (ExecMode::morsel_auto(&pool).partitions(1), &mut par_ms),
            (ExecMode::morsel_auto(&pool), &mut part_ms),
        ];
        for (mode, total) in modes {
            let mut runs = Samples::default();
            for _ in 0..REPS {
                let (table, ms) = timed(|| compiled.run_with(&bindings, mode));
                runs.push(ms);
                out.checks.check(table?.approx_same_contents(&sequential, EPS), || {
                    format!("{}: parallel run differs from sequential", svc.view.name)
                });
            }
            *total += runs.median();
        }
    }
    out.set("ivm.plan_build_us", plan_us.median());
    out.set("catalog.overlay_us", overlay_us.median());
    out.set("optimizer.optimize_us", opt_us.median());
    out.set("optimizer.passes", passes as f64);
    out.set("sampling.eta_pushed_share", sampled as f64 / leaves.max(1) as f64);
    out.set("exec.par_speedup", seq_ms / par_ms);
    out.set("exec.part_speedup", seq_ms / part_ms);
    out.note(format!(
        "probe: cleaning plans sequential {seq_ms:.3} ms, morsel {par_ms:.3} ms, \
         morsel+partitioned {part_ms:.3} ms on {workers} pool workers"
    ));
    Ok(())
}

/// Run a TPCD scenario and fill `out`.
pub fn run(scn: &TpcdScenario, args: &RunArgs, out: &mut Outcome) -> Result<()> {
    let defs = view_defs(scn.views);
    out.note(format!("scenario: {scn:?}"));

    let probe = Probe::new();
    let (st, setup_s) = repeat_setup(&probe, || setup(scn, &defs, args.seed))?;
    out.set("setup_s", setup_s.median());
    out.set("workloads.gen_s", st.times.gen_s);
    out.set("ivm.view_create_ms", st.times.view_create_ms);
    out.set("catalog.build_ms", st.times.catalog_ms);
    out.set("core.outlier_build_ms", st.times.outlier_build_ms);
    out.set("core.outlier_pushup_ms", st.times.outlier_pushup_ms);
    out.set("workloads.delta_rows", st.deltas[0].len() as f64);
    out.note(format!("setup_s: {}", setup_s.describe()));

    // One cold clean per view: column caches are empty, nothing is warm.
    let (mut cold_ms, mut sample_rows, mut change_table) = (0.0, 0usize, 0usize);
    for svc in &st.views {
        let (cleaned, ms) =
            timed(|| svc.clean_sample_with(&st.data.db, &st.deltas[0], Some(&st.catalog)));
        let cleaned = cleaned?;
        cold_ms += ms;
        sample_rows += cleaned.canonical.len();
        change_table += usize::from(cleaned.plan_kind == PlanKind::ChangeTable);
    }
    out.set("exec.cold_run_ms", cold_ms);
    out.set("sampling.sample_rows", sample_rows as f64);
    out.set("ivm.change_table_share", change_table as f64 / st.views.len() as f64);

    let prepared = prepare(scn, &defs, &st, args.seed)?;
    let acc = accuracy_phase(scn, &st, &prepared, &mut out.checks)?;
    // The paper's claim, as a check: correcting the stale answer from a
    // cleaned sample beats leaving the view stale.
    out.checks.check(acc.corr.median() < acc.stale.median().max(CORR_ERROR_FLOOR), || {
        format!(
            "SVC+CORR median error {} is above the stale error {} and the floor",
            acc.corr.median(),
            acc.stale.median()
        )
    });
    out.set("workloads.stale_median_rel_err", acc.stale.median());
    out.set("core.corr_median_rel_err", acc.corr.median());
    out.set("core.aqp_median_rel_err", acc.aqp.median());
    out.set("core.corr_outlier_median_rel_err", acc.corr_outlier.median());
    out.set("stats.ci_coverage", acc.covered as f64 / acc.intervals.max(1) as f64);
    out.set("stats.ci_width_rel", acc.ci_width.median());
    out.set("core.preferred_method_agree", acc.agree as f64 / acc.agree_of.max(1) as f64);
    out.set("ivm.recompute_ms", acc.recompute_ms.median());
    out.note(format!(
        "accuracy: {} query answers, {} intervals; median relative error stale {:.6} aqp {:.6} \
         corr {:.6}",
        acc.stale.len(),
        acc.intervals,
        acc.stale.median(),
        acc.aqp.median(),
        acc.corr.median()
    ));

    // The timed loop: closed, one client, a traced run tracing every other
    // period.
    let mut runner = Runner {
        scn,
        st: &st,
        prepared: &prepared,
        probe: &probe,
        tr: Tracer::new(args.trace),
        ops: OpTotals::default(),
        lp: Loop::default(),
    };
    let started = Instant::now();
    let mut period = 0;
    while period < scn.min_periods || started.elapsed().as_secs_f64() < args.seconds {
        runner.period(period, args.trace && period % 2 == 1, &mut out.checks)?;
        period += 1;
    }
    let Runner { tr, ops, lp, .. } = runner;

    out.set("svc_answer_ms", lp.svc_ref_ms.median());
    out.set("ivm_answer_ms", lp.ivm_ref_ms.median());
    out.set("maintain_records_per_s", lp.maintain_rate.median());
    out.set("estimates_per_s", lp.estimate_rate.median());
    out.set("telemetry.box_slowdown", lp.slowdown.median());
    out.set("peak_rss_mb", peak_rss_mb()?);
    out.set("core.clean_ms", lp.clean_ms.median());
    out.set("core.clean_p90_ms", lp.clean_ms.quantile(0.9));
    out.set("core.clean_speedup", lp.ivm_ms.median() / lp.svc_ms.median());
    out.set("core.estimate_corr_us", lp.corr_us.median());
    out.set("core.estimate_aqp_us", lp.aqp_us.median());
    out.set("core.query_stale_us", lp.stale_us.median());
    out.set("stats.bootstrap_ms", lp.bootstrap_ms.median());
    out.note(format!("periods: {period} in {:.2} s", started.elapsed().as_secs_f64()));
    out.note(format!("box slowdown: {}", lp.slowdown.describe()));
    out.note(format!("svc_answer_ms: {}", lp.svc_ref_ms.describe()));
    out.note(format!("ivm_answer_ms: {}", lp.ivm_ref_ms.describe()));
    out.note(format!("svc answer, wall ms: {}", lp.svc_ms.describe()));
    out.note(format!("ivm answer, wall ms: {}", lp.ivm_ms.describe()));
    out.note(format!("maintain_records_per_s: {}", lp.maintain_rate.describe()));
    out.note(format!("estimates_per_s: {}", lp.estimate_rate.describe()));

    if args.trace {
        out.set(
            "core.cleaning_plan_us",
            tr.per_period_ms("core.cleaning_plan", false).median() * 1e3,
        );
        out.set("exec.compile_us", tr.per_period_ms("exec.compile", false).median() * 1e3);
        out.set("exec.run_ms", tr.per_period_ms("exec.run", false).median());
        out.set("core.public_of_us", tr.per_period_ms("core.public_of", false).median() * 1e3);
        out.set("ivm.maintain_ms", tr.per_period_ms("ivm.maintain", false).median());
        out.set("sampling.resample_ms", tr.per_period_ms("sampling.resample", false).median());
        out.set("exec.scan_ns", ops.per_run(ops.scan_ns));
        out.set("exec.join_ns", ops.per_run(ops.join_ns));
        out.set("exec.agg_ns", ops.per_run(ops.agg_ns));
        out.set("exec.setop_ns", ops.per_run(ops.setop_ns));
        out.set("exec.rows_scanned", ops.per_run(ops.rows_scanned));
        out.set("exec.rows_out", ops.per_run(ops.rows_out));
        out.set(
            "exec.rows_examined_per_result",
            ops.rows_scanned as f64 / ops.rows_out.max(1) as f64,
        );
        out.set("exec.join_build_rows", ops.per_run(ops.build_rows));
        out.set("exec.join_probe_rows", ops.per_run(ops.probe_rows));
        out.set("exec.zone_skips", ops.per_run(ops.zone_skips));
        out.set(
            "exec.vec_chunk_share",
            ops.vec_chunks as f64 / (ops.vec_chunks + ops.row_batches).max(1) as f64,
        );
        probe_layers(&st, &prepared, out)?;
        crate::finish_trace(
            &tr,
            &args.workload,
            lp.svc_ms.median() + lp.ivm_ms.median(),
            lp.traced_answer_ms.median(),
            out,
        );
    }
    Ok(())
}
