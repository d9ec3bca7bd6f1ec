#![forbid(unsafe_code)]

//! Shared harness for the figure-regeneration binaries.
//!
//! Every binary `figXX` prints the same series the corresponding figure of
//! the paper plots (Section 7) and writes a CSV next to it under
//! `experiments/`. Scales are laptop-sized; the *shapes* (who wins, by what
//! factor, where crossovers fall) are the reproduction target, not absolute
//! numbers — see EXPERIMENTS.md.

use std::fmt::Display;
use std::fs;
use std::path::PathBuf;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use svc_core::query::{relative_error, AggQuery};
use svc_core::{Method, SvcConfig, SvcView};
use svc_relalg::eval::{evaluate, Bindings};
use svc_relalg::exec::{ExecMode, PhysicalPlan};
use svc_relalg::plan::Plan;
use svc_storage::{Database, Deltas, Table};
use svc_workloads::tpcd::{TpcdConfig, TpcdData};

/// Wall-clock seconds of a closure.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Minimum-of-`reps` timing of `f` in milliseconds, each rep averaging
/// `iters` inner calls. The minimum is the least load-contaminated sample
/// on a shared runner — the statistic the "never slower" CI guards use.
pub fn bench_min_ms(reps: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let (_, t) = time(|| {
            for _ in 0..iters {
                f();
            }
        });
        best = best.min(t / iters as f64);
    }
    best * 1e3
}

/// Median-of-`reps` timing of `f` in milliseconds, each rep averaging
/// `iters` inner calls — robust central tendency for reported columns.
pub fn bench_median_ms(reps: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let (_, t) = time(|| {
            for _ in 0..iters {
                f();
            }
        });
        samples.push(t / iters as f64);
    }
    median_of(&samples) * 1e3
}

/// Write `experiments/{name}.json` (shared path logic + create/log/warn
/// boilerplate every JSON emitter used to hand-roll).
pub fn write_json(name: &str, json: &str) {
    let dir = experiments_dir();
    let _ = fs::create_dir_all(&dir);
    let path = dir.join(format!("{name}.json"));
    match fs::write(&path, json) {
        Ok(()) => println!("[written {}]", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// Run `compiled` once under `mode` with a metrics sink installed and
/// render the per-operator execution metrics as a JSON array — the
/// `"operators":[...]` fragment the fig_* emitters embed per scenario row.
/// Elements are in pre-order (slot-id) order; zero-valued detail fields
/// are kept so downstream tooling sees a stable shape.
pub fn operator_metrics_json(
    compiled: &PhysicalPlan,
    bindings: &Bindings<'_>,
    mode: ExecMode,
) -> String {
    let sink = compiled.metrics_sink();
    compiled.run_with_metrics(bindings, mode, &sink).expect("metered run");
    let labels = compiled.node_labels();
    let ops: Vec<String> = labels
        .iter()
        .zip(sink.snapshots())
        .enumerate()
        .map(|(id, (label, m))| {
            format!(
                "{{\"id\":{id},\"op\":\"{}\",\"rows_in\":{},\"rows_out\":{},\"wall_ns\":{},\
                 \"vec_chunks\":{},\"row_batches\":{},\"zone_skips\":{},\
                 \"build_rows\":{},\"probe_rows\":{},\"groups\":{}}}",
                label.replace('"', "'"),
                m.rows_in,
                m.rows_out,
                m.wall_ns,
                m.vec_chunks,
                m.row_batches,
                m.zone_skips,
                m.build_rows,
                m.probe_rows,
                m.groups
            )
        })
        .collect();
    format!("[{}]", ops.join(","))
}

/// Environment-tunable experiment scale (default 1.0 = the scales used in
/// EXPERIMENTS.md; smaller is faster).
pub fn bench_scale() -> f64 {
    std::env::var("SVC_BENCH_SCALE").ok().and_then(|s| s.parse().ok()).unwrap_or(1.0)
}

/// Number of random query instances per template (paper: 100).
pub fn bench_queries() -> usize {
    std::env::var("SVC_BENCH_QUERIES").ok().and_then(|s| s.parse().ok()).unwrap_or(30)
}

/// A results table: printed aligned to stdout and mirrored to
/// `experiments/{name}.csv`.
pub struct Report {
    name: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Report {
    /// Start a report for figure `name` with column headers.
    pub fn new(name: &str, headers: &[&str]) -> Report {
        Report {
            name: name.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity");
        self.rows.push(cells);
    }

    /// Format a float compactly.
    pub fn f(x: f64) -> String {
        if x.abs() >= 100.0 {
            format!("{x:.1}")
        } else {
            format!("{x:.4}")
        }
    }

    /// Print to stdout and write the CSV.
    pub fn finish(self, caption: impl Display) {
        println!("\n=== {} — {caption} ===", self.name);
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        println!("{}", fmt_row(&self.headers));
        for row in &self.rows {
            println!("{}", fmt_row(row));
        }

        let dir = csv_dir();
        let _ = fs::create_dir_all(&dir);
        let mut csv = self.headers.join(",");
        csv.push('\n');
        for row in &self.rows {
            csv.push_str(&row.join(","));
            csv.push('\n');
        }
        let path = dir.join(format!("{}.csv", self.name));
        if let Err(e) = fs::write(&path, csv) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            println!("[written {}]", path.display());
        }
    }
}

/// Where result files land: `SVC_EXPERIMENTS_DIR` when set, else
/// `<repo>/experiments` (manifest-relative, so it does not depend on the
/// invocation directory). Shared by the CSV reports and the JSON emitters
/// so paired outputs never split across directories.
pub fn experiments_dir() -> PathBuf {
    std::env::var("SVC_EXPERIMENTS_DIR")
        .ok()
        .filter(|d| !d.is_empty())
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
            p.pop();
            p.pop();
            p.join("experiments")
        })
}

fn csv_dir() -> PathBuf {
    experiments_dir()
}

/// The standard single-node setup of Section 7.1: TPCD-Skew data at the
/// bench scale with skew `z`.
pub fn tpcd(scale_mult: f64, z: f64, seed: u64) -> TpcdData {
    TpcdData::generate(TpcdConfig { scale: 0.4 * bench_scale() * scale_mult, skew: z, seed })
        .expect("tpcd generation")
}

/// Median of a slice (empty → NaN).
pub fn median_of(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    svc_stats::quantile::quantile(xs, 0.5)
}

/// Evaluate a plan against a database (full materialization).
pub fn materialize(plan: &Plan, db: &Database) -> Table {
    evaluate(plan, &Bindings::from_database(db)).expect("materialize")
}

/// Accuracy triple for one query: (stale, aqp, corr) relative errors.
pub struct ErrTriple {
    /// "No maintenance" baseline error.
    pub stale: f64,
    /// SVC+AQP error.
    pub aqp: f64,
    /// SVC+CORR error.
    pub corr: f64,
}

/// Run the stale/AQP/CORR error comparison for a batch of queries against
/// one cleaned sample. The fresh view is materialized once as the oracle.
pub fn error_triples(
    svc: &SvcView,
    db: &Database,
    deltas: &Deltas,
    queries: &[AggQuery],
) -> Vec<ErrTriple> {
    let cleaned = svc.clean_sample(db, deltas).expect("clean sample");
    let fresh_canonical = svc.view.recompute_fresh(db, deltas).expect("fresh");
    let fresh = svc.view.public_of(&fresh_canonical).expect("public fresh");
    let stale_view = svc.view.public_table().expect("stale public");

    queries
        .iter()
        .filter_map(|q| {
            let truth = q.exact(&fresh).ok()?;
            if !truth.is_finite() || truth == 0.0 {
                return None;
            }
            let stale = q.exact(&stale_view).ok()?;
            let aqp = svc.estimate_aqp(&cleaned, q).ok()?;
            let corr = svc.estimate_corr(&cleaned, q).ok()?;
            Some(ErrTriple {
                stale: relative_error(stale, truth),
                aqp: relative_error(aqp.value, truth),
                corr: relative_error(corr.value, truth),
            })
        })
        .collect()
}

/// Deterministic RNG for a figure.
pub fn rng(tag: u64) -> StdRng {
    StdRng::seed_from_u64(0xF16_0000 + tag)
}

/// End-to-end answer timing for Figure 6a: returns
/// (maintenance_or_clean_time, query_time).
pub fn answer_times(
    svc: &mut SvcView,
    db: &Database,
    deltas: &Deltas,
    q: &AggQuery,
    method: Method,
) -> (f64, f64) {
    match method {
        Method::Stale => {
            // IVM: full maintenance, then an exact query on the view.
            let (_, t_maint) = time(|| svc.maintain_full(db, deltas).expect("ivm"));
            let (_, t_query) = time(|| svc.query_stale(q).expect("query"));
            (t_maint, t_query)
        }
        Method::AqpDirect => {
            let (cleaned, t_clean) = time(|| svc.clean_sample(db, deltas).expect("clean"));
            let (_, t_query) = time(|| svc.estimate_aqp(&cleaned, q).expect("aqp"));
            (t_clean, t_query)
        }
        Method::Correction => {
            let (cleaned, t_clean) = time(|| svc.clean_sample(db, deltas).expect("clean"));
            let (_, t_query) = time(|| svc.estimate_corr(&cleaned, q).expect("corr"));
            (t_clean, t_query)
        }
    }
}

/// Shared fixture: the join view SVC instance over TPCD data.
pub fn join_view_svc(data: &TpcdData, ratio: f64) -> SvcView {
    SvcView::create(
        "joinView",
        svc_workloads::tpcd_views::join_view(),
        &data.db,
        SvcConfig::with_ratio(ratio),
    )
    .expect("join view")
}

/// Per-roll-up error statistics for Figures 11–13.
pub struct RollupErrors {
    /// The roll-up id (Q1..Q13).
    pub id: String,
    /// Median over groups of the stale relative error.
    pub stale_median: f64,
    /// Median over groups of the SVC+AQP error.
    pub aqp_median: f64,
    /// Median over groups of the SVC+CORR error.
    pub corr_median: f64,
    /// Maximum group errors (Figure 12).
    pub stale_max: f64,
    /// Max SVC+AQP group error.
    pub aqp_max: f64,
    /// Max SVC+CORR group error.
    pub corr_max: f64,
}

/// Run the cube roll-up experiment (Section 7.6.1): TPCD z=1, 10% updates,
/// m=10%. Each roll-up query set aggregates `agg(measure)` per group value
/// combination (capped at `max_groups` per roll-up).
pub fn rollup_errors(agg: svc_core::query::QueryAgg, max_groups: usize) -> Vec<RollupErrors> {
    use svc_workloads::cube::{base_cube, group_values, rollup_dimension_sets, rollup_query};

    let data = tpcd(1.0, 1.0, 42);
    let deltas = data.updates(0.10, 7).expect("updates");
    let svc =
        SvcView::create("cube", base_cube(), &data.db, SvcConfig::with_ratio(0.1)).expect("cube");
    let cleaned = svc.clean_sample(&data.db, &deltas).expect("clean");
    let fresh = svc
        .view
        .public_of(&svc.view.recompute_fresh(&data.db, &deltas).expect("fresh"))
        .expect("public");
    let stale_view = svc.view.public_table().expect("stale");

    rollup_dimension_sets()
        .into_iter()
        .map(|(id, dims)| {
            let groups = if dims.is_empty() {
                vec![svc_storage::KeyTuple(vec![])]
            } else {
                group_values(&fresh, &dims, max_groups).expect("groups")
            };
            let mut stale_e = Vec::new();
            let mut aqp_e = Vec::new();
            let mut corr_e = Vec::new();
            for g in &groups {
                let q = rollup_query(agg, "revenue", &dims, g);
                let Ok(truth) = q.exact(&fresh) else { continue };
                if !truth.is_finite() || truth == 0.0 {
                    continue;
                }
                if let Ok(s) = q.exact(&stale_view) {
                    stale_e.push(relative_error(s, truth));
                }
                if let Ok(est) = svc.estimate_aqp(&cleaned, &q) {
                    aqp_e.push(relative_error(est.value, truth));
                }
                if let Ok(est) = svc.estimate_corr(&cleaned, &q) {
                    corr_e.push(relative_error(est.value, truth));
                }
            }
            let max = |xs: &[f64]| xs.iter().copied().fold(0.0f64, f64::max);
            RollupErrors {
                id: id.to_string(),
                stale_median: median_of(&stale_e),
                aqp_median: median_of(&aqp_e),
                corr_median: median_of(&corr_e),
                stale_max: max(&stale_e),
                aqp_max: max(&aqp_e),
                corr_max: max(&corr_e),
            }
        })
        .collect()
}
