//! The paper's figures as one asserted run:
//! `cargo run --release -p svc-bench --bin paper`.
//!
//! `FIGURES` is the claim table. Each row names a figure, the scales it
//! runs at, the setup and sweep that write its CSV under `experiments/`
//! (`{figure}.csv` at scale 1, `{figure}_x{scale}.csv` at another), and the
//! claims read off it. Figures 4–13 (§7) are the cost sweep, which times
//! IVM's `maintain` against `clean_sample`, and the accuracy sweep, which
//! reads stale, SVC+AQP and SVC+CORR relative errors over seeded queries;
//! figures 3 and 14–16 and the executor and join-order sheets are in
//! `svc_bench::engine`. Accuracy counts repeat exactly, and their verdicts
//! move with the data's size, so the accuracy figures run at scales 1 and
//! 4. A time claim reads a ratio column of two paths timed in the same run,
//! never an absolute time. A claim that fails today is in
//! `EXPECTED_FAILURES`, keyed by figure, scale and claim; the run exits
//! non-zero when an unlisted claim fails or a listed one passes.

use std::process::ExitCode;
use std::rc::Rc;

use rand::{rngs::StdRng, SeedableRng};
use svc_bench::engine::{
    batch_throughput, exec, join_order, optimize_depth, pushdown, timeline, utilization,
};
use svc_bench::{bench_min_ms, median_of, tpcd, Report, Sheet, REPS};
use svc_core::outlier::{estimate_aqp_with_outliers, estimate_corr_with_outliers, stale_rows_at};
use svc_core::outlier::{OutlierIndex, OutlierIndexSpec, ThresholdPolicy};
use svc_core::query::{relative_error, AggQuery, QueryAgg};
use svc_core::{SvcConfig, SvcView};
use svc_relalg::plan::Plan;
use svc_stats::quantile::quantile;
use svc_storage::{Database, Deltas, KeyTuple, Result, Table};
use svc_workloads::cube::{base_cube, group_values, rollup_dimension_sets, rollup_query};
use svc_workloads::tpcd_views::{complex_views, join_view, join_view_queries};
use svc_workloads::{conviva, querygen::random_queries};
use Check::{AtMost, Every, First, Growth, InteriorMin, Leading, Median, MinAtMost, Unpushed};

/// Query instances per template or view (the paper uses 100).
const QUERIES: usize = 30;

const STALE: &str = "stale_err";
const AQP: &str = "svc_aqp10_err";
const CORR: &str = "svc_corr10_err";
const AQP_OUT: &str = "svc_aqp10_out_err";
const CORR_OUT: &str = "svc_corr10_out_err";

/// "Never more than 10 % slower", as a ratio of the reference's time over
/// the new path's.
const NO_SLOWER: f64 = 1.0 / 1.1;

/// A row of the claim table: a figure, the scales it runs at, the setup
/// and sweep that fill its sheet at a scale, and the claims on it.
type Figure = (&'static str, &'static [f64], fn(f64) -> Sheet, &'static [Check]);

/// Time claims are judged at the default scale; accuracy claims also at
/// four times it, where their verdicts move.
const ONE: &[f64] = &[1.0];
const BOTH: &[f64] = &[1.0, 4.0];

/// Figure 15's claims (the paper's): an interior sampling ratio minimizes
/// IVM+SVC's max error, and there it is at most IVM alone's.
const FIG15: &[Check] =
    &[InteriorMin("ivm_svc_max_err"), MinAtMost("ivm_svc_max_err", "ivm_only_max_err")];

const FIGURES: &[Figure] = &[
    ("fig03", ONE, pushdown, &[Every("speedup", 1.0)]),
    ("fig03_depth", ONE, optimize_depth, &[Growth("rederive_over_optimize", 1.0)]),
    ("fig04a", ONE, |s| cost(ratios(s, join_view, 2.0)), &[First("speedup", 2.0)]),
    (
        "fig04b",
        ONE,
        |s| cost(updates(s, join_view, 2.0, &JOIN_PCTS, 11, 0)),
        &[Median("speedup", 1.5)],
    ),
    ("fig05", BOTH, |s| accuracy(templates(s), median_of), &[AtMost(CORR, STALE, 10)]),
    ("fig06a", ONE, answer_times, &[Every("speedup", 1.0)]),
    (
        "fig06b",
        BOTH,
        |s| accuracy(updates(s, join_view, 2.0, &BREAK_EVEN, 13, 15), median_of),
        &[AtMost(CORR, AQP, 9)],
    ),
    ("fig07a", ONE, |s| cost(complex(s)), &[Unpushed(&["V21", "V22"]), Median("speedup", 1.0)]),
    ("fig07b", BOTH, |s| accuracy(complex(s), median_of), &[AtMost(CORR, STALE, 10)]),
    (
        "fig08a",
        BOTH,
        |s| accuracy(skews(s), |e| quantile(e, 0.75)),
        &[AtMost(CORR_OUT, CORR, 4), AtMost(AQP_OUT, AQP, 3)],
    ),
    ("fig08b", ONE, |s| cost(indexed(s)), &[Every("speedup", 1.0)]),
    ("fig09a", ONE, |s| cost(conviva_views(s)), &[Median("speedup", 1.5)]),
    ("fig09b", BOTH, |s| accuracy(conviva_views(s), median_of), &[AtMost(CORR, STALE, 7)]),
    ("fig10a", ONE, |s| cost(ratios(s, base_cube, 1.0)), &[First("speedup", 5.0)]),
    (
        "fig10b",
        ONE,
        |s| cost(updates(s, base_cube, 1.0, &CUBE_PCTS, 19, 0)),
        &[Median("speedup", 5.0)],
    ),
    (
        "fig11",
        BOTH,
        |s| accuracy(rollups(s, QueryAgg::Sum, 30), median_of),
        &[AtMost(CORR, STALE, 11)],
    ),
    (
        "fig12",
        BOTH,
        |s| accuracy(rollups(s, QueryAgg::Sum, 30), max_of),
        &[AtMost(CORR, STALE, 13)],
    ),
    (
        "fig13",
        BOTH,
        |s| accuracy(rollups(s, QueryAgg::Median, 12), median_of),
        &[AtMost(CORR, STALE, 11)],
    ),
    // Throughput at the largest batch over the smallest.
    ("fig14", ONE, batch_throughput, &[Growth("rps_solo", 1.0)]),
    ("fig15_V2", BOTH, |s| timeline(s, "V2"), FIG15),
    ("fig15_V5", BOTH, |s| timeline(s, "V5"), FIG15),
    ("fig16", ONE, utilization, &[Median("svc_over_ivm", 1.0)]),
    // The streaming executor and its vectorized kernels never lose to their
    // references, and win at least 2x on the four most selective scans
    // (selectivity 0.1 and below); metering a run costs at most 1.5x.
    (
        "fig_exec",
        ONE,
        exec,
        &[
            Every("legacy_over_vector", NO_SLOWER),
            Every("rowwise_over_vector", NO_SLOWER),
            Leading("legacy_over_vector", 4, 2.0),
            Leading("rowwise_over_vector", 4, 2.0),
            Every("vector_over_metered", 1.0 / 1.5),
        ],
    ),
    // Cost-based order beats builder order on the three queries of 3 or
    // more joins; the last row (2 joins) is the contrast.
    ("fig_joinorder", ONE, join_order, &[Leading("speedup", 3, 1.0)]),
];

/// A claim that fails today: the figure, the scale and the claim it names,
/// what it measured when listed, and the ROADMAP item that owns the fix.
type Listed = (&'static str, f64, Check, &'static str, &'static str);

const EXPECTED_FAILURES: &[Listed] = &[
    (
        "fig07b",
        1.0,
        AtMost(CORR, STALE, 10),
        "8/10: V21 CORR 1.29 against stale 0.11; V13 0.0248 against 0.0232",
        "I",
    ),
    ("fig07b", 4.0, AtMost(CORR, STALE, 10), "7/10: V18 misses too, beside V21 and V13", "I"),
    ("fig08a", 4.0, AtMost(CORR_OUT, CORR, 4), "3/4: the index helps while samples are small", "N"),
    ("fig08a", 4.0, AtMost(AQP_OUT, AQP, 3), "2/4: the index helps while samples are small", "N"),
    (
        "fig08b",
        1.0,
        Every("speedup", 1.0),
        "4/16: only K = 0 beats IVM (V5 with K = 100 costs 12-16x IVM)",
        "N(i)",
    ),
    ("fig10a", 1.0, First("speedup", 5.0), "1.8x: the cube's clean is mostly fixed cost", "P"),
    ("fig10b", 1.0, Median("speedup", 5.0), "1.7x: not tending to 10x", "P"),
    (
        "fig12",
        1.0,
        AtMost(CORR, STALE, 13),
        "2/13 roll-ups: CORR's worst group is above stale's",
        "I and N",
    ),
    ("fig12", 4.0, AtMost(CORR, STALE, 13), "10/13 roll-ups: mostly a small-sample effect", "I"),
    (
        "fig13",
        1.0,
        AtMost(CORR, STALE, 11),
        "5/13 roll-ups: a roll-up group of 250-600 rows holds 1-7 changed pairs, each moving \
         the corrected count by 1/m = 10 rows",
        "I",
    ),
    ("fig13", 4.0, AtMost(CORR, STALE, 11), "3/13 roll-ups", "I"),
    (
        "fig15_V5",
        1.0,
        MinAtMost("ivm_svc_max_err", "ivm_only_max_err"),
        "0.72x: 0.154 at m = 0.03 against IVM alone's 0.112",
        "I",
    ),
    ("fig15_V5", 4.0, InteriorMin("ivm_svc_max_err"), "the minimum is at m = 0.01", "I"),
    (
        "fig15_V5",
        4.0,
        MinAtMost("ivm_svc_max_err", "ivm_only_max_err"),
        "0.55x: 0.148 at m = 0.01 against IVM alone's 0.081",
        "I",
    ),
];

const JOIN_PCTS: [f64; 8] = [0.025, 0.05, 0.075, 0.10, 0.125, 0.15, 0.175, 0.20];
const CUBE_PCTS: [f64; 8] = [0.03, 0.05, 0.08, 0.10, 0.13, 0.15, 0.18, 0.20];
const BREAK_EVEN: [f64; 9] = [0.03, 0.08, 0.13, 0.18, 0.23, 0.28, 0.33, 0.38, 0.43];

/// A claim on a sheet. A ratio claim reads a column of two paths' times
/// over each other, written by the sweep (`speedup` is IVM's time over
/// SVC's); every threshold is a lower bound.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Check {
    /// The first column is at most the second on at least this many rows.
    AtMost(&'static str, &'static str, usize),
    /// The first row reads at least this.
    First(&'static str, f64),
    /// The median row reads at least this.
    Median(&'static str, f64),
    /// Every row reads at least this.
    Every(&'static str, f64),
    /// Each of the first this-many rows reads at least this.
    Leading(&'static str, usize, f64),
    /// The last row over the first reads at least this.
    Growth(&'static str, f64),
    /// The row minimizing the column is neither the first nor the last.
    InteriorMin(&'static str),
    /// At the row minimizing the first column, it is at most the second.
    MinAtMost(&'static str, &'static str),
    /// Exactly these rows are not fully pushed down.
    Unpushed(&'static [&'static str]),
}

/// What a claim measured: `k` of `n` rows hold where it needs `need`, a
/// ratio where it needs at least `min`, or the row a column is least at.
#[derive(Debug)]
enum Measure {
    Count { k: usize, n: usize, need: usize },
    Ratio { value: f64, min: f64 },
    MinAt { row: String, interior: bool },
}

fn main() -> ExitCode {
    let mut verdicts = Report::new("paper", &["figure", "scale", "check", "measured", "verdict"]);
    let mut green = true;
    for &(figure, scales, sweep, checks) in FIGURES {
        for &scale in scales {
            let sheet = sweep(scale);
            let name = if scale == 1.0 { figure.to_string() } else { format!("{figure}_x{scale}") };
            sheet.write(&name, format!("{checks:?}"));
            for &check in checks {
                let measure = check.measure(&sheet);
                let (verdict, ok) =
                    judge((figure, scale, check), measure.holds(), EXPECTED_FAILURES);
                green &= ok;
                let cells = [figure.into(), scale.to_string(), format!("{check:?}")];
                verdicts.row(cells.into_iter().chain([measure.to_string(), verdict]).collect());
            }
        }
    }
    verdicts.finish("one verdict per claim and scale; EXPECTED_FAILURES is in src/bin/paper.rs");
    if green {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A claim's verdict, and whether the run stays green with it: a listed
/// claim must fail, an unlisted one must hold.
fn judge(claim: (&str, f64, Check), holds: bool, expected: &[Listed]) -> (String, bool) {
    let (figure, scale, check) = claim;
    match (holds, expected.iter().find(|e| (e.0, e.1, e.2) == (figure, scale, check))) {
        (true, None) => ("pass".into(), true),
        (false, None) => ("FAIL".into(), false),
        (false, Some((.., was, item))) => (format!("expected fail ({item}; was {was})"), true),
        (true, Some(_)) => ("UNEXPECTED PASS: take it off EXPECTED_FAILURES".into(), false),
    }
}

impl Measure {
    fn holds(&self) -> bool {
        match *self {
            Measure::Count { k, need, .. } => k >= need,
            Measure::Ratio { value, min } => value >= min,
            Measure::MinAt { interior, .. } => interior,
        }
    }
}

impl std::fmt::Display for Measure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Measure::Count { k, n, need } => write!(f, "{k}/{n} (needs {need})"),
            Measure::Ratio { value, min } => write!(f, "{value:.2}x (needs {min}x)"),
            Measure::MinAt { row, .. } => write!(f, "least at {row} (needs an interior row)"),
        }
    }
}

impl Check {
    fn measure(self, sheet: &Sheet) -> Measure {
        let every = |k, n| Measure::Count { k, n, need: n };
        let count =
            |rows: &[f64], min: f64| every(rows.iter().filter(|&&x| x >= min).count(), rows.len());
        // The row a column is least at (the first such row on a tie).
        let argmin = |values: &[f64]| {
            (0..values.len()).fold(0, |best, i| if values[i] < values[best] { i } else { best })
        };
        match self {
            AtMost(a, b, need) => {
                let (a, b) = (sheet.col(a), sheet.col(b));
                Measure::Count {
                    k: a.iter().zip(&b).filter(|(a, b)| a <= b).count(),
                    n: a.len(),
                    need,
                }
            }
            First(c, min) => Measure::Ratio { value: sheet.col(c)[0], min },
            Median(c, min) => Measure::Ratio { value: median_of(&sheet.col(c)), min },
            Every(c, min) => count(&sheet.col(c), min),
            Leading(c, rows, min) => count(&sheet.col(c)[..rows], min),
            Growth(c, min) => {
                let values = sheet.col(c);
                Measure::Ratio { value: values[values.len() - 1] / values[0], min }
            }
            InteriorMin(c) => {
                let values = sheet.col(c);
                let i = argmin(&values);
                let interior = i > 0 && i + 1 < values.len();
                Measure::MinAt { row: sheet.rows[i].0.clone(), interior }
            }
            MinAtMost(a, b) => {
                let (a, b) = (sheet.col(a), sheet.col(b));
                let i = argmin(&a);
                Measure::Ratio { value: b[i] / a[i], min: 1.0 }
            }
            Unpushed(ids) => {
                let rows = sheet.rows.iter().zip(sheet.col("fully_pushed"));
                every(
                    rows.filter(|((id, _), p)| (*p == 0.0) == ids.contains(&id.as_str())).count(),
                    sheet.rows.len(),
                )
            }
        }
    }
}

/// A sweep's axis and its cells.
type Sweep = (&'static str, Vec<Cell>);

/// One cell of a sweep: a view sampled at its ratio, the data and deltas it
/// is cleaned against, the queries its accuracy is read on, and its outlier
/// index size (0: none).
struct Cell {
    label: String,
    svc: SvcView,
    db: Rc<Database>,
    deltas: Deltas,
    queries: Vec<AggQuery>,
    outliers: usize,
}

impl Cell {
    fn new(label: impl Into<String>, svc: SvcView, db: &Rc<Database>, deltas: &Deltas) -> Cell {
        let (db, deltas) = (db.clone(), deltas.clone());
        Cell { label: label.into(), svc, db, deltas, queries: vec![], outliers: 0 }
    }

    fn asking(self, queries: Vec<AggQuery>) -> Cell {
        Cell { queries, ..self }
    }
}

/// The cost sweep: IVM's `maintain` of a clone of the view (it shares the
/// view's table) against `clean_sample` plus any outlier index's build and
/// push-up, each the fastest of `REPS` runs. The first cell is timed once
/// more before the sweep and that reading is dropped: the first timed cell
/// of a process paid for warming up, and a figure may read its ratio off
/// exactly that cell.
fn cost((axis, cells): Sweep) -> Sheet {
    let time = |c: &Cell| {
        let (db, deltas) = (&*c.db, &c.deltas);
        let ivm = bench_min_ms(REPS, 1, || {
            c.svc.view.clone().maintain(db, deltas).expect("ivm");
        });
        let mut pushed = false;
        let svc = bench_min_ms(REPS, 1, || {
            pushed = c.svc.clean_sample(db, deltas).expect("clean").report.fully_pushed();
            if c.outliers > 0 {
                let index = OutlierIndex::build(index_spec(c.outliers), db, deltas).expect("index");
                index.push_up(&c.svc.view, db, deltas).expect("push up");
            }
        });
        vec![ivm, svc, ivm / svc, f64::from(u8::from(pushed))]
    };
    if let Some(first) = cells.first() {
        time(first);
    }
    Sheet {
        headers: vec![axis, "ivm_ms", "svc_ms", "speedup", "fully_pushed"],
        rows: cells.iter().map(|c| (c.label.clone(), time(c))).collect(),
    }
}

/// The accuracy sweep: per cell, each method's relative errors over its
/// queries, reduced by `stat`. With an outlier index the cell also reads
/// SVC+AQP and SVC+CORR over it. A query counts when its fresh answer is
/// finite and non-zero and every method answers it.
fn accuracy((axis, cells): Sweep, stat: fn(&[f64]) -> f64) -> Sheet {
    let mut headers = vec![axis, STALE, AQP, CORR];
    let rows: Vec<_> = cells
        .into_iter()
        .map(|c| {
            let (svc, db, deltas) = (&c.svc, &*c.db, &c.deltas);
            let cleaned = svc.clean_sample(db, deltas).expect("clean");
            let fresh = fresh_public(svc, db, deltas);
            let stale = svc.view.public_table().expect("public stale");
            let outliers = (c.outliers > 0).then(|| {
                let index = OutlierIndex::build(index_spec(c.outliers), db, deltas).expect("index");
                assert!(index.eligible(&cleaned.report.sampled_leaves));
                let o_fresh =
                    svc.view.public_of(&index.push_up(&svc.view, db, deltas).expect("push up"));
                let o_fresh = o_fresh.expect("public outliers");
                (
                    stale_rows_at(&stale, &o_fresh),
                    o_fresh,
                    svc.stale_sample_public().expect("sample"),
                )
            });
            let answer = |q: &AggQuery| -> Result<Vec<f64>> {
                let s = q.exact(&stale)?;
                let mut out = vec![
                    s,
                    svc.estimate_aqp(&cleaned, q)?.value,
                    svc.estimate_corr(&cleaned, q)?.value,
                ];
                if let Some((o_stale, o_fresh, sample)) = &outliers {
                    let (public, m, config) = (&cleaned.public, svc.config.ratio, &svc.config);
                    out.push(estimate_aqp_with_outliers(public, o_fresh, q, m, config)?.value);
                    let corr = estimate_corr_with_outliers(
                        s, sample, public, o_fresh, o_stale, q, m, config,
                    );
                    out.push(corr?.value);
                }
                Ok(out)
            };
            let mut errors = vec![vec![]; if outliers.is_some() { 5 } else { 3 }];
            for q in &c.queries {
                let Ok(truth) = q.exact(&fresh) else { continue };
                if !truth.is_finite() || truth == 0.0 {
                    continue;
                }
                let Ok(answers) = answer(q) else { continue };
                for (errors, answer) in errors.iter_mut().zip(answers) {
                    errors.push(relative_error(answer, truth));
                }
            }
            (c.label, errors.iter().map(|e| stat(e)).collect::<Vec<_>>())
        })
        .collect();
    if rows.iter().any(|(_, values)| values.len() == 5) {
        headers.extend([AQP_OUT, CORR_OUT]);
    }
    Sheet { headers, rows }
}

/// Figure 6a, time to one answer: IVM maintains the view, redraws its
/// sample and queries it; SVC cleans the sample and estimates by CORR or
/// AQP. Each the fastest of `REPS` runs.
fn answer_times(scale: f64) -> Sheet {
    let (db, deltas) = tpcd10(scale, 2.0);
    let svc = sampled("joinView", join_view(), &db, 0.1);
    let q = join_view_queries()[0].instance(&mut rng(6));
    let ivm = bench_min_ms(REPS, 1, || {
        let mut ivm = svc.clone();
        ivm.maintain_full(&db, &deltas).expect("ivm");
        ivm.query_stale(&q).expect("query");
    });
    let answer = |aqp: bool| {
        bench_min_ms(REPS, 1, || {
            let cleaned = svc.clean_sample(&db, &deltas).expect("clean");
            let estimate =
                if aqp { svc.estimate_aqp(&cleaned, &q) } else { svc.estimate_corr(&cleaned, &q) };
            estimate.expect("estimate");
        })
    };
    let rows = [("SVC+CORR-10%", answer(false)), ("SVC+AQP-10%", answer(true))]
        .map(|(method, ms)| (method.to_string(), vec![ivm, ms, ivm / ms]));
    Sheet { headers: vec!["method", "ivm_ms", "svc_ms", "speedup"], rows: rows.into() }
}

fn max_of(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(0.0, f64::max)
}

/// One query stream per figure.
fn rng(tag: u64) -> StdRng {
    StdRng::seed_from_u64(0xF16_0000 + tag)
}

/// TPCD-Skew at `scale` and skew `z`, and its 10 % update set.
fn tpcd10(scale: f64, z: f64) -> (Rc<Database>, Deltas) {
    let data = tpcd(scale, z, 42);
    let deltas = data.updates(0.10, 7).expect("updates");
    (Rc::new(data.db), deltas)
}

/// The view's public relation after `deltas`, recomputed: the oracle.
fn fresh_public(svc: &SvcView, db: &Database, deltas: &Deltas) -> Table {
    svc.view.public_of(&svc.view.recompute_fresh(db, deltas).expect("fresh")).expect("public")
}

fn sampled(name: &str, plan: Plan, db: &Database, m: f64) -> SvcView {
    SvcView::create(name, plan, db, SvcConfig::with_ratio(m)).expect("view")
}

fn index_spec(capacity: usize) -> OutlierIndexSpec {
    let (table, attr) = ("lineitem".into(), "l_extendedprice".into());
    OutlierIndexSpec { table, attr, policy: ThresholdPolicy::TopK, capacity }
}

/// `plan` over TPCD-Skew at skew `z`, 10 % updates, sampled at m = 0.1 .. 1.0.
fn ratios(scale: f64, plan: fn() -> Plan, z: f64) -> Sweep {
    let (db, deltas) = tpcd10(scale, z);
    let cell = |m: f64| Cell::new(format!("{m:.1}"), sampled("view", plan(), &db, m), &db, &deltas);
    ("sampling_ratio", (1..=10).map(|i| cell(f64::from(i) / 10.0)).collect())
}

/// `plan` over TPCD-Skew at skew `z`, sampled at m = 0.1, as the update size
/// grows; each cell reads `per_template` instances of four join-view templates.
fn updates(
    scale: f64,
    plan: fn() -> Plan,
    z: f64,
    pcts: &[f64],
    seed: u64,
    per_template: usize,
) -> Sweep {
    let data = tpcd(scale, z, 42);
    let deltas: Vec<_> =
        pcts.iter().map(|&pct| data.updates(pct, seed).expect("updates")).collect();
    let db = Rc::new(data.db);
    let svc = sampled("view", plan(), &db, 0.1);
    let (templates, mut r) = (join_view_queries(), rng(seed));
    let cells = pcts.iter().zip(&deltas).map(|(pct, deltas)| {
        let queries = templates[..4].iter().flat_map(|t| vec![t; per_template]);
        Cell::new(format!("{:.1}%", pct * 100.0), svc.clone(), &db, deltas)
            .asking(queries.map(|t| t.instance(&mut r)).collect())
    });
    ("update_pct", cells.collect())
}

/// The join view at m = 0.1, 10 % updates: one cell per query template.
fn templates(scale: f64) -> Sweep {
    let (db, deltas) = tpcd10(scale, 2.0);
    let (svc, mut r) = (sampled("joinView", join_view(), &db, 0.1), rng(5));
    let cells = join_view_queries().into_iter().map(|t| {
        let queries = (0..QUERIES).map(|_| t.instance(&mut r)).collect();
        Cell::new(t.id, svc.clone(), &db, &deltas).asking(queries)
    });
    ("query", cells.collect())
}

/// One cell per view `(id, plan, dims, measures)` at m = 0.1, each with
/// `QUERIES` generated queries.
fn views<'a>(
    db: &Rc<Database>,
    deltas: &Deltas,
    tag: u64,
    list: Vec<(&'a str, Plan, Vec<&'a str>, Vec<&'a str>)>,
) -> Sweep {
    let mut r = rng(tag);
    let cells = list.into_iter().map(|(id, plan, dims, measures)| {
        let cell = Cell::new(id, sampled(id, plan, db, 0.1), db, deltas);
        let public = cell.svc.view.public_table().expect("public");
        cell.asking(random_queries(&public, &dims, &measures, QUERIES, &mut r).expect("queries"))
    });
    ("view", cells.collect())
}

/// The ten complex views V3..V22 over TPCD-Skew z = 2, 10 % updates.
fn complex(scale: f64) -> Sweep {
    let (db, deltas) = tpcd10(scale, 2.0);
    let list = complex_views().into_iter().map(|v| (v.id, v.plan, v.dims, v.measures));
    views(&db, &deltas, 7, list.collect())
}

/// The eight Conviva-like views; the updates append 10 % of the base volume
/// (the paper applies the next 10-20 % of its trace).
fn conviva_views(scale: f64) -> Sweep {
    let config =
        conviva::ConvivaConfig { base_events: (30_000.0 * scale) as usize, ..Default::default() };
    let db = conviva::generate(config).expect("conviva data");
    let deltas =
        conviva::appended_updates(&db, config, config.base_events / 10, 3).expect("updates");
    let list = conviva::views().into_iter().map(|v| (v.id, v.plan, v.dims, v.measures));
    views(&Rc::new(db), &deltas, 9, list.collect())
}

/// V3 with a top-100 outlier index on `l_extendedprice` as the skew grows.
fn skews(scale: f64) -> Sweep {
    let v3 = complex_views().into_iter().find(|v| v.id == "V3").expect("V3");
    let mut r = rng(8);
    let cells = [1.0, 2.0, 3.0, 4.0].map(|z| {
        let (db, deltas) = tpcd10(0.7 * scale, z);
        let cell =
            Cell::new(format!("{z}"), sampled("V3", v3.plan.clone(), &db, 0.1), &db, &deltas);
        let stale = cell.svc.view.public_table().expect("public");
        let queries = random_queries(&stale, &v3.dims, &["revenue"], QUERIES, &mut r);
        Cell { outliers: 100, ..cell.asking(queries.expect("queries")) }
    });
    ("zipf_z", cells.into())
}

/// V3, V5, V10 and V15 with outlier indexes of K = 0, 10, 100 and 1000.
fn indexed(scale: f64) -> Sweep {
    let (db, deltas) = tpcd10(0.7 * scale, 2.0);
    let views = complex_views().into_iter().filter(|v| ["V3", "V5", "V10", "V15"].contains(&v.id));
    let cells = views.flat_map(|v| {
        let svc = sampled(v.id, v.plan, &db, 0.1);
        let cell = |k| Cell::new(format!("{} K={k}", v.id), svc.clone(), &db, &deltas);
        [0, 10, 100, 1000].map(|k| Cell { outliers: k, ..cell(k) })
    });
    ("view_k", cells.collect())
}

/// The cube over TPCD z = 1 at m = 0.1, 10 % updates: one cell per roll-up,
/// one `agg(revenue)` query per group (at most `max_groups`).
fn rollups(scale: f64, agg: QueryAgg, max_groups: usize) -> Sweep {
    let (db, deltas) = tpcd10(scale, 1.0);
    let svc = sampled("cube", base_cube(), &db, 0.1);
    let fresh = fresh_public(&svc, &db, &deltas);
    let cells = rollup_dimension_sets().into_iter().map(|(id, dims)| {
        let groups = if dims.is_empty() {
            vec![KeyTuple(vec![])]
        } else {
            group_values(&fresh, &dims, max_groups).expect("groups")
        };
        let queries = groups.iter().map(|g| rollup_query(agg, "revenue", &dims, g)).collect();
        Cell::new(id, svc.clone(), &db, &deltas).asking(queries)
    });
    ("rollup", cells.collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_judge_holds_the_expected_failure_list_strictly() {
        let claim = AtMost(CORR, STALE, 2);
        let listed = &[("listed", 4.0, claim, "1/2", "I")];
        assert!(judge(("unlisted", 4.0, claim), true, listed).1);
        assert!(!judge(("unlisted", 4.0, claim), false, listed).1, "an unlisted failure fails");
        assert!(judge(("listed", 4.0, claim), false, listed).1, "a listed failure stays green");
        assert!(!judge(("listed", 4.0, claim), true, listed).1, "a listed pass fails the run");
        assert!(!judge(("listed", 1.0, claim), false, listed).1, "the key names the scale");
        assert!(!judge(("listed", 4.0, First(CORR, 1.0)), false, listed).1, "and the claim");
        for &(figure, scale, check, ..) in EXPECTED_FAILURES {
            assert!(
                FIGURES
                    .iter()
                    .any(|f| f.0 == figure && f.1.contains(&scale) && f.3.contains(&check)),
                "{figure} at scale {scale}: {check:?} is listed but never runs"
            );
        }
    }

    #[test]
    fn a_time_claim_is_a_ratio_never_an_absolute_time() {
        for &(figure, _, _, checks) in FIGURES {
            for check in checks {
                let column = match *check {
                    First(c, _) | Median(c, _) | Every(c, _) | Leading(c, ..) | Growth(c, _) => c,
                    _ => continue,
                };
                assert!(!column.ends_with("_ms"), "{figure}: {check:?} reads a time");
            }
        }
        let sheet = Sheet {
            headers: vec!["axis", "speedup"],
            rows: ["1.0", "2.0", "3.0"].map(|x| (x.to_string(), vec![x.parse().unwrap()])).into(),
        };
        assert!(Growth("speedup", 3.0).measure(&sheet).holds());
        assert!(!Growth("speedup", 3.1).measure(&sheet).holds());
        assert!(Leading("speedup", 2, 1.0).measure(&sheet).holds());
        assert!(!Leading("speedup", 2, 2.0).measure(&sheet).holds());
        assert!(!InteriorMin("speedup").measure(&sheet).holds());
    }
}
