//! The activity-log stream runner behind `conviva_stream` — the write side.
//!
//! Chunks of appended log records accumulate as pending deltas. Every
//! `clean_every` chunks the samples are cleaned and the query set answered
//! by SVC+CORR; every `refresh_every` chunks every view refreshes through
//! one shared `BatchPipeline`, the samples are redrawn, the deltas commit
//! through the catalog and the query set is answered exactly. A cycle is
//! `chunks_per_cycle` chunks; the state is reset (outside any timer)
//! between cycles, so cycles repeat the same work and the run can last as
//! long as `--seconds` asks. The first cycle also recomputes the views as
//! an oracle and makes every correctness check.

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use svc_catalog::Catalog;
use svc_cluster::{BatchPipeline, WorkerPool};
use svc_core::estimate::svc_aqp;
use svc_core::query::{relative_error, AggQuery};
use svc_core::{SvcConfig, SvcView};
use svc_sampling::operator::sample_by_key;
use svc_storage::{Database, Deltas, Result, StorageError, Table};
use svc_telemetry::TraceRecorder;
use svc_workloads::conviva::{appended_updates_at, generate, views, ConvivaConfig, ConvivaView};
use svc_workloads::querygen::random_queries;

use crate::measure::{
    derive_seed, peak_rss_mb, repeat_setup, timed, Checks, Probe, Samples, CORR_ERROR_FLOOR,
};
use crate::metrics::Outcome;
use crate::scenario::StreamScenario;
use crate::spans::Tracer;
use crate::RunArgs;

const EPS: f64 = 1e-9;
/// New event ids start here, clear of the base log's.
const FIRST_NEW_EVENT_ID: i64 = 10_000_000;

/// What set-up builds, and what every cycle starts from.
#[derive(Clone)]
struct State {
    db: Database,
    views: Vec<SvcView>,
    catalog: Catalog,
}

#[derive(Default)]
struct SetupTimes {
    gen_s: f64,
    view_create_ms: f64,
    catalog_ms: f64,
}

fn conviva_config(scn: &StreamScenario, seed: u64) -> ConvivaConfig {
    ConvivaConfig {
        base_events: scn.base_events,
        users: scn.users,
        days: scn.days,
        seed: derive_seed(seed, 1),
        ..ConvivaConfig::default()
    }
}

fn setup(scn: &StreamScenario, defs: &[ConvivaView], seed: u64) -> Result<(State, SetupTimes)> {
    let (db, gen_ms) = timed(|| generate(conviva_config(scn, seed)));
    let db = db?;
    let config = SvcConfig::with_ratio(scn.ratio).reseeded(derive_seed(seed, 200));
    let (created, view_create_ms) = timed(|| {
        defs.iter()
            .map(|v| SvcView::create(v.id, v.plan.clone(), &db, config))
            .collect::<Result<Vec<_>>>()
    });
    let views = created?;
    let (catalog, catalog_ms) = timed(|| Catalog::build(&db));
    let times = SetupTimes { gen_s: gen_ms / 1e3, view_create_ms, catalog_ms };
    Ok((State { db, views, catalog }, times))
}

/// Per-event measurements (one value per cleaning or per refresh, every
/// quantity summed over the views).
#[derive(Default)]
struct Loop {
    /// Box slowdown around each event, and the two answers at reference
    /// pace (wall time ÷ slowdown): what the end-to-end metrics report.
    slowdown: Samples,
    svc_ref_ms: Samples,
    ivm_ref_ms: Samples,
    svc_ms: Samples,
    ivm_ms: Samples,
    clean_ms: Samples,
    maintain_ms: Samples,
    commit_ms: Samples,
    resample_ms: Samples,
    maintain_rate: Samples,
    estimate_rate: Samples,
    corr_us: Samples,
    aqp_us: Samples,
    stale_us: Samples,
    traced_svc_ms: Samples,
    traced_ivm_ms: Samples,
    batches: u64,
    commit_rows: u64,
    maintain_wall_s: f64,
}

/// Answer quality of the first cycle, against recomputation.
#[derive(Default)]
struct Accuracy {
    stale: Samples,
    aqp: Samples,
    corr: Samples,
    ci_width: Samples,
    intervals: u64,
    covered: u64,
    /// Median error of the answers on hand, one value per oracle chunk.
    staleness: Samples,
}

/// The run: inputs, the shared pipeline, and what the cycles accumulate.
struct Runner<'a> {
    scn: &'a StreamScenario,
    base: &'a State,
    chunks: &'a [Deltas],
    queries: &'a [Vec<AggQuery>],
    pipeline: &'a BatchPipeline,
    probe: &'a Probe,
    tr: Tracer,
    lp: Loop,
    acc: Accuracy,
}

/// The state one cycle evolves, starting from a clone of the base state.
struct Cycle {
    db: Database,
    svcs: Vec<SvcView>,
    catalog: Catalog,
    pending: Deltas,
    /// The answers on hand: exact after a refresh, corrected after a clean.
    answers: Vec<Vec<f64>>,
    /// The first cycle's: recompute as an oracle and check against it.
    oracle: bool,
    traced: bool,
}

impl Cycle {
    /// The views recomputed over the pending deltas, in an oracle cycle.
    fn recomputed(&self) -> Result<Option<Vec<Table>>> {
        if !self.oracle {
            return Ok(None);
        }
        self.svcs
            .iter()
            .map(|s| s.view.recompute_fresh(&self.db, &self.pending))
            .collect::<Result<_>>()
            .map(Some)
    }
}

impl Runner<'_> {
    /// One cycle from the base state.
    fn cycle(
        &mut self,
        number: u32,
        oracle: bool,
        traced: bool,
        checks: &mut Checks,
    ) -> Result<()> {
        let State { db, views: svcs, catalog } = self.base.clone();
        let mut answers = Vec::with_capacity(svcs.len());
        for (svc, qs) in svcs.iter().zip(self.queries) {
            answers.push(qs.iter().map(|q| svc.query_stale(q)).collect::<Result<_>>()?);
        }
        let mut cy = Cycle { db, svcs, catalog, pending: Deltas::new(), answers, oracle, traced };
        for (i, chunk) in self.chunks.iter().enumerate() {
            let c = i + 1;
            cy.pending.merge(chunk.clone())?;
            self.tr.begin_period(number * self.chunks.len() as u32 + c as u32, traced);
            if c % self.scn.refresh_every == 0 {
                self.refresh(&mut cy, checks)?;
            } else if c % self.scn.clean_every == 0 {
                self.clean(&mut cy, checks)?;
            } else if oracle && c % 4 == 3 {
                self.staleness(&cy)?;
            }
        }
        Ok(())
    }

    /// The IVM answer: every view through the pipeline, samples redrawn,
    /// deltas committed through the catalog, the query set answered exactly.
    fn refresh(&mut self, cy: &mut Cycle, checks: &mut Checks) -> Result<()> {
        let (tr, lp) = (&mut self.tr, &mut self.lp);
        let expected = cy.recomputed()?;
        let probe_before = self.probe.run();
        let answer = tr.enter("ivm_answer");
        let (mut maintain_ms, mut resample_ms, mut records) = (0.0, 0.0, 0usize);
        for svc in cy.svcs.iter_mut() {
            let s = tr.enter("cluster.maintain");
            let (run, ms) = timed(|| {
                self.pipeline.maintain(&cy.db, &mut svc.view, &cy.pending, self.scn.batch_size)
            });
            tr.exit(s);
            let run = run?;
            maintain_ms += ms;
            records += run.records;
            lp.batches += run.batches as u64;
            checks.check(run.quarantined == 0 && run.fallback_batches == 0, || {
                format!("{}: refresh fell back or quarantined a batch", svc.view.name)
            });
            let s = tr.enter("sampling.resample");
            let ((), ms) = timed(|| svc.resample());
            tr.exit(s);
            resample_ms += ms;
        }
        for (svc, fresh) in cy.svcs.iter().zip(expected.iter().flatten()) {
            checks.check(svc.view.table().approx_same_contents(fresh, EPS), || {
                format!("{}: pipeline-maintained view differs from recomputation", svc.view.name)
            });
        }
        lp.commit_rows += cy.pending.len() as u64;
        let s = tr.enter("catalog.commit");
        let (committed, commit_ms) =
            timed(|| cy.catalog.commit_deltas(&mut cy.db, &mut cy.pending));
        tr.exit(s);
        committed?;
        let s = tr.enter("core.query_stale");
        let ((), stale_ms) = timed(|| {
            for ((svc, qs), held) in cy.svcs.iter().zip(self.queries).zip(cy.answers.iter_mut()) {
                for (q, a) in qs.iter().zip(held.iter_mut()) {
                    if let Some(v) = checks.finite(svc.query_stale(q), || {
                        format!("{}: exact query failed for {q:?}", svc.view.name)
                    }) {
                        *a = v;
                    }
                }
            }
        });
        tr.exit(s);
        tr.exit(answer);
        checks.ok(1);

        lp.maintain_wall_s += maintain_ms / 1e3;
        let total = maintain_ms + resample_ms + commit_ms + stale_ms;
        if cy.traced {
            lp.traced_ivm_ms.push(total);
            return Ok(());
        }
        let n_queries = self.queries.iter().map(Vec::len).sum::<usize>() as f64;
        let slowdown = self.probe.slowdown_since(probe_before);
        lp.slowdown.push(slowdown);
        lp.ivm_ref_ms.push(total / slowdown);
        lp.maintain_rate.push(records as f64 / ((maintain_ms + commit_ms) / 1e3) * slowdown);
        lp.ivm_ms.push(total);
        lp.maintain_ms.push(maintain_ms);
        lp.resample_ms.push(resample_ms);
        lp.commit_ms.push(commit_ms);
        lp.stale_us.push(stale_ms * 1e3 / n_queries);
        Ok(())
    }

    /// The SVC answer: every sample cleaned, the query set corrected.
    fn clean(&mut self, cy: &mut Cycle, checks: &mut Checks) -> Result<()> {
        let (tr, lp, acc) = (&mut self.tr, &mut self.lp, &mut self.acc);
        let fresh = cy.recomputed()?;
        let probe_before = self.probe.run();
        let answer = tr.enter("svc_answer");
        let (mut clean_ms, mut corr_ms, mut aqp_ms, mut n_queries) = (0.0, 0.0, 0.0, 0u64);
        for (v, ((svc, qs), held)) in
            cy.svcs.iter().zip(self.queries).zip(cy.answers.iter_mut()).enumerate()
        {
            let s = tr.enter("core.clean_sample");
            let (cleaned, ms) =
                timed(|| svc.clean_sample_with(&cy.db, &cy.pending, Some(&cy.catalog)));
            tr.exit(s);
            let cleaned = cleaned?;
            clean_ms += ms;
            let s = tr.enter("core.estimate_corr");
            let (estimates, ms) =
                timed(|| qs.iter().map(|q| svc.estimate_corr(&cleaned, q)).collect::<Vec<_>>());
            tr.exit(s);
            corr_ms += ms;
            n_queries += qs.len() as u64;
            // AQP over the same sample feeds `estimates_per_s` only.
            let ((), ms) = timed(|| {
                for q in qs {
                    checks.finite(svc.estimate_aqp(&cleaned, q).map(|e| e.value), || {
                        format!("{}: estimate_aqp failed for {q:?}", svc.view.name)
                    });
                }
            });
            aqp_ms += ms;

            // Oracle cycle: Theorem 1 correspondence and the answers' errors.
            let oracle = match fresh.as_ref().map(|f| &f[v]) {
                None => None,
                Some(fresh) => {
                    let expected = sample_by_key(fresh, svc.config.ratio, svc.config.hash_spec());
                    checks.check(cleaned.canonical.approx_same_contents(&expected, EPS), || {
                        format!(
                            "{}: cleaned sample is not the hash sample of the fresh view",
                            svc.view.name
                        )
                    });
                    Some((svc.view.public_of(fresh)?, svc.view.public_table()?))
                }
            };
            for ((q, est), a) in qs.iter().zip(estimates).zip(held.iter_mut()) {
                let ci = est.as_ref().ok().and_then(|e| e.ci);
                let Some(value) = checks.finite(est.map(|e| e.value), || {
                    format!("{}: estimate_corr failed for {q:?}", svc.view.name)
                }) else {
                    continue;
                };
                *a = value;
                let Some((fresh_public, stale_public)) = &oracle else { continue };
                let truth = q.exact(fresh_public)?;
                if !truth.is_finite() || truth == 0.0 {
                    continue;
                }
                acc.corr.push(relative_error(value, truth));
                acc.stale.push(relative_error(q.exact(stale_public)?, truth));
                let aqp = svc_aqp(&cleaned.public, q, svc.config.ratio, &svc.config)?;
                acc.aqp.push(relative_error(aqp.value, truth));
                for ci in [ci, aqp.ci].into_iter().flatten() {
                    acc.intervals += 1;
                    acc.covered += u64::from(ci.contains(truth));
                    acc.ci_width.push(ci.half_width / truth.abs());
                }
            }
        }
        tr.exit(answer);
        checks.ok(1);
        if cy.traced {
            lp.traced_svc_ms.push(clean_ms + corr_ms);
            return Ok(());
        }
        let slowdown = self.probe.slowdown_since(probe_before);
        lp.slowdown.push(slowdown);
        lp.svc_ref_ms.push((clean_ms + corr_ms) / slowdown);
        lp.estimate_rate.push(2.0 * n_queries as f64 / ((corr_ms + aqp_ms) / 1e3) * slowdown);
        lp.svc_ms.push(clean_ms + corr_ms);
        lp.clean_ms.push(clean_ms);
        lp.corr_us.push(corr_ms * 1e3 / n_queries as f64);
        lp.aqp_us.push(aqp_ms * 1e3 / n_queries as f64);
        Ok(())
    }

    /// Staleness of the answers on hand, one chunk after a clean: sampled
    /// (every fourth chunk), to keep the oracle inside the time cap.
    fn staleness(&mut self, cy: &Cycle) -> Result<()> {
        let mut errs = Samples::default();
        for ((svc, qs), held) in cy.svcs.iter().zip(self.queries).zip(&cy.answers) {
            let fresh = svc.view.public_of(&svc.view.recompute_fresh(&cy.db, &cy.pending)?)?;
            for (q, a) in qs.iter().zip(held) {
                let truth = q.exact(&fresh)?;
                if truth.is_finite() && truth != 0.0 {
                    errs.push(relative_error(*a, truth));
                }
            }
        }
        self.acc.staleness.push(errs.median());
        Ok(())
    }
}

/// Run the stream scenario and fill `out`.
pub fn run(scn: &StreamScenario, args: &RunArgs, out: &mut Outcome) -> Result<()> {
    out.note(format!("scenario: {scn:?}"));
    let defs: Vec<ConvivaView> =
        views().into_iter().filter(|v| scn.views.contains(&v.id)).collect();
    if defs.len() != scn.views.len() {
        return Err(StorageError::Invalid(format!("unknown view in {:?}", scn.views)));
    }

    let probe = Probe::new();
    let ((base, times), setup_s) = repeat_setup(&probe, || setup(scn, &defs, args.seed))?;
    out.set("setup_s", setup_s.median());
    out.set("workloads.gen_s", times.gen_s);
    out.set("ivm.view_create_ms", times.view_create_ms);
    out.set("catalog.build_ms", times.catalog_ms);
    out.note(format!("setup_s: {}", setup_s.describe()));

    // Inputs: the cycle's chunks and each view's query set.
    let cfg = conviva_config(scn, args.seed);
    let chunks: Vec<Deltas> = (0..scn.chunks_per_cycle)
        .map(|c| {
            let first_id = FIRST_NEW_EVENT_ID + (c * scn.chunk_records) as i64;
            appended_updates_at(
                &base.db,
                cfg,
                scn.chunk_records,
                derive_seed(args.seed, 100 + c as u64),
                first_id,
            )
        })
        .collect::<Result<_>>()?;
    let mut rng = StdRng::seed_from_u64(derive_seed(args.seed, 300));
    let mut queries = Vec::with_capacity(defs.len());
    for (def, svc) in defs.iter().zip(&base.views) {
        // sum and count only: they are answerable on any sample.
        let public = svc.view.public_table()?;
        let mut qs = Vec::with_capacity(scn.queries_per_view);
        while qs.len() < scn.queries_per_view {
            let q = random_queries(&public, &def.dims, &def.measures, 1, &mut rng)?.remove(0);
            if q.agg != svc_core::QueryAgg::Avg {
                qs.push(q);
            }
        }
        queries.push(qs);
    }
    out.set("workloads.delta_rows", (scn.refresh_every * scn.chunk_records) as f64);

    let workers = crate::pool_workers();
    let pool = Arc::new(WorkerPool::new(workers));
    let mut pipeline = BatchPipeline::on_pool(Arc::clone(&pool));
    // In a traced run the pipeline's own batch/fold spans land in the
    // engine's recorder and are exported beside the harness spans.
    let pipeline_trace = args.trace.then(|| Arc::new(TraceRecorder::new(1 << 14)));
    pipeline.tracer = pipeline_trace.clone();
    let mut runner = Runner {
        scn,
        base: &base,
        chunks: &chunks,
        queries: &queries,
        pipeline: &pipeline,
        probe: &probe,
        tr: Tracer::new(args.trace),
        lp: Loop::default(),
        acc: Accuracy::default(),
    };
    let started = Instant::now();
    let mut cycle = 0u32;
    while (cycle as usize) < scn.min_cycles || started.elapsed().as_secs_f64() < args.seconds {
        // The first cycle carries the oracle; a traced run traces every
        // other cycle after it.
        let traced = args.trace && cycle % 2 == 1;
        runner.cycle(cycle, cycle == 0, traced, &mut out.checks)?;
        cycle += 1;
    }
    let Runner { tr, lp, acc, .. } = runner;

    out.set("svc_answer_ms", lp.svc_ref_ms.median());
    out.set("ivm_answer_ms", lp.ivm_ref_ms.median());
    out.set("maintain_records_per_s", lp.maintain_rate.median());
    out.set("estimates_per_s", lp.estimate_rate.median());
    out.set("telemetry.box_slowdown", lp.slowdown.median());
    out.set("peak_rss_mb", peak_rss_mb()?);
    out.note(format!("cycles: {cycle} in {:.2} s", started.elapsed().as_secs_f64()));
    out.note(format!("box slowdown: {}", lp.slowdown.describe()));
    out.note(format!("svc_answer_ms: {}", lp.svc_ref_ms.describe()));
    out.note(format!("ivm_answer_ms: {}", lp.ivm_ref_ms.describe()));
    out.note(format!("svc answer, wall ms: {}", lp.svc_ms.describe()));
    out.note(format!("ivm answer, wall ms: {}", lp.ivm_ms.describe()));
    out.note(format!("maintain_records_per_s: {}", lp.maintain_rate.describe()));
    out.note(format!("estimates_per_s: {}", lp.estimate_rate.describe()));

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
    out.set("stats.ci_coverage", acc.covered as f64 / acc.intervals.max(1) as f64);
    out.set("stats.ci_width_rel", acc.ci_width.median());
    out.set("cluster.max_staleness_err", acc.staleness.max());
    out.set("core.clean_ms", lp.clean_ms.median());
    out.set("core.clean_p90_ms", lp.clean_ms.quantile(0.9));
    out.set("core.clean_speedup", lp.ivm_ms.median() / lp.svc_ms.median());
    out.set("core.estimate_corr_us", lp.corr_us.median());
    out.set("core.estimate_aqp_us", lp.aqp_us.median());
    out.set("core.query_stale_us", lp.stale_us.median());
    out.set("sampling.resample_ms", lp.resample_ms.median());
    out.set("cluster.maintain_ms", lp.maintain_ms.median());
    out.set("catalog.commit_ms", lp.commit_ms.median());
    out.set("storage.commit_rows", lp.commit_rows as f64);
    out.set(
        "sampling.sample_rows",
        base.views.iter().map(|s| s.stale_sample().len()).sum::<usize>() as f64,
    );
    out.set("ivm.change_table_share", 1.0);

    let pm = pipeline.metrics();
    let pool_metrics = pool.metrics();
    out.set("cluster.batches", lp.batches as f64);
    out.set("cluster.folds", pm.folds as f64);
    out.set("cluster.compiles", pm.compiles as f64);
    out.set(
        "cluster.compile_cache_hit_ratio",
        pm.cache_hits as f64 / (pm.cache_hits + pm.cache_misses).max(1) as f64,
    );
    out.set("cluster.retries", pm.retries as f64);
    out.set("cluster.quarantined", pm.quarantined as f64);
    out.set("cluster.fold_ns_mean", pm.mean_fold_ns() as f64);
    out.set("cluster.pool_tasks", pool_metrics.tasks as f64);
    out.set(
        "cluster.pool_busy_share",
        pool_metrics.total_busy_ns() as f64 / 1e9 / (workers as f64 * lp.maintain_wall_s),
    );

    if args.trace {
        // Single-worker baseline of one refresh, from the base state.
        let single = BatchPipeline::new(1);
        let mut pending = Deltas::new();
        for chunk in chunks.iter().take(scn.refresh_every) {
            pending.merge(chunk.clone())?;
        }
        let (mut records, mut seconds) = (0usize, 0.0);
        for svc in &base.views {
            let mut view = svc.view.clone();
            let run = single.maintain(&base.db, &mut view, &pending, scn.batch_size)?;
            records += run.records;
            seconds += run.seconds;
        }
        out.set("cluster.maintain_1w_records_per_s", records as f64 / seconds);

        let untraced = lp.svc_ms.median() + lp.ivm_ms.median();
        let traced = lp.traced_svc_ms.median() + lp.traced_ivm_ms.median();
        crate::finish_trace(&tr, &args.workload, untraced, traced, out);
        if let Some(rec) = pipeline_trace {
            crate::write_artifact(
                &format!("trace-{}-pipeline.json", args.workload),
                &rec.chrome_trace_json(),
                out,
            );
        }
    }
    Ok(())
}
