#![forbid(unsafe_code)]

//! Shared harness for the figure-regeneration binaries.
//!
//! The `paper` binary runs the paper's figures 4–13 (Section 7) from one
//! claim table and asserts each claim; `fig14`–`fig16` and the `fig_*`
//! engine figures print their own series. Every binary writes a CSV per
//! figure under `experiments/`. Scales are laptop-sized; the *shapes* (who
//! wins, by what factor, where crossovers fall) are the reproduction target,
//! not absolute numbers — see the claim table in `src/bin/paper.rs`.

use std::fmt::Display;
use std::fs;
use std::path::PathBuf;
use std::time::Instant;

use svc_core::{SvcConfig, SvcView};
use svc_relalg::eval::Bindings;
use svc_relalg::exec::{ExecMode, PhysicalPlan};
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

/// Environment-tunable experiment scale, `SVC_BENCH_SCALE` (default 1.0,
/// the scale the `paper` claims were measured at; smaller is faster).
///
/// # Panics
/// On a value that is not a positive finite number.
pub fn bench_scale() -> f64 {
    scale_from(std::env::var("SVC_BENCH_SCALE").ok().as_deref())
}

fn scale_from(value: Option<&str>) -> f64 {
    match value.filter(|v| !v.is_empty()) {
        None => 1.0,
        Some(v) => match v.parse::<f64>() {
            Ok(scale) if scale.is_finite() && scale > 0.0 => scale,
            _ => panic!("SVC_BENCH_SCALE={v:?}: need a positive finite number"),
        },
    }
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

    /// Format a float to `digits` significant digits (at least one).
    pub fn significant(x: f64, digits: usize) -> String {
        if x == 0.0 || !x.is_finite() {
            return x.to_string();
        }
        let magnitude = x.abs().log10().floor() as i32;
        let decimals = digits.max(1) as i32 - 1 - magnitude;
        if decimals >= 0 {
            format!("{x:.0$}", decimals as usize)
        } else {
            let unit = 10f64.powi(-decimals);
            format!("{:.0}", (x / unit).round() * unit)
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

        let dir = experiments_dir();
        let _ = fs::create_dir_all(&dir);
        // A cell holding a comma or a quote is quoted, as RFC 4180 asks.
        let quoted = |c: &String| {
            if c.contains([',', '"']) {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.clone()
            }
        };
        let mut csv = String::new();
        for row in std::iter::once(&self.headers).chain(&self.rows) {
            csv.push_str(&row.iter().map(quoted).collect::<Vec<_>>().join(","));
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

#[cfg(test)]
mod tests {
    use super::scale_from;

    #[test]
    fn significant_digits_keep_small_cells_visible() {
        use super::Report;
        let cases = [(0.0234567, "0.0235"), (1.5, "1.50"), (12.34, "12.3"), (1234.5, "1230")];
        for (x, want) in cases {
            assert_eq!(Report::significant(x, 3), want, "{x}");
        }
        assert_eq!(Report::significant(0.0, 3), "0");
        assert_eq!(Report::significant(-0.000412, 2), "-0.00041");
    }

    #[test]
    fn a_bad_scale_is_named_not_replaced() {
        assert_eq!(scale_from(None), 1.0);
        assert_eq!(scale_from(Some("")), 1.0);
        assert_eq!(scale_from(Some("0.25")), 0.25);
        for bad in ["abc", "0", "-1", "NaN", "inf"] {
            let panic = std::panic::catch_unwind(|| scale_from(Some(bad))).expect_err(bad);
            let message = panic.downcast_ref::<String>().expect("a formatted panic");
            assert!(message.contains(&format!("SVC_BENCH_SCALE={bad:?}")), "{message}");
        }
    }
}
