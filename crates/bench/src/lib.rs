#![forbid(unsafe_code)]

//! Shared harness for the `paper` binary, which runs the paper's figures
//! (Section 7, plus the engine figures behind them) from one claim table
//! and asserts each claim. Every figure is a [`Sheet`] written as a CSV
//! under `experiments/`. Scales are laptop-sized; the *shapes* (who wins,
//! by what factor, where crossovers fall) are the reproduction target, not
//! absolute numbers — see the claim table in `src/bin/paper.rs`.

use std::fmt::Display;
use std::fs;
use std::path::PathBuf;
use std::time::Instant;

use svc_workloads::tpcd::{TpcdConfig, TpcdData};

pub mod engine;

/// Timed runs per cell; a cell reads the fastest (one run read fig10a's
/// m = 0.6 cell at twice its neighbours).
pub const REPS: usize = 5;

/// Minimum-of-`reps` timing of `f` in milliseconds, each rep averaging
/// `iters` inner calls. The minimum is the least load-contaminated sample
/// on a shared runner.
pub fn bench_min_ms(reps: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(start.elapsed().as_secs_f64() / iters as f64);
    }
    best * 1e3
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
    fn f(x: f64) -> String {
        if x.abs() >= 100.0 {
            format!("{x:.1}")
        } else {
            format!("{x:.4}")
        }
    }

    /// Format a float to `digits` significant digits (at least one).
    fn significant(x: f64, digits: usize) -> String {
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
        write_experiment(&format!("{}.csv", self.name), &csv);
    }
}

/// A figure's table: one labelled row per cell, a value per later column.
pub struct Sheet {
    /// The label column's name, then one name per value.
    pub headers: Vec<&'static str>,
    /// Each row's label and values.
    pub rows: Vec<(String, Vec<f64>)>,
}

impl Sheet {
    /// The column named `name`, one value per row.
    ///
    /// # Panics
    /// When the sheet has no such value column.
    pub fn col(&self, name: &str) -> Vec<f64> {
        let i = self.headers.iter().position(|h| *h == name).expect("a sheet column") - 1;
        self.rows.iter().map(|(_, values)| values[i]).collect()
    }

    /// Print the sheet and write it as `experiments/{name}.csv`: a time
    /// (`*_ms`) to three significant digits, so a cell of a few microseconds
    /// can move.
    pub fn write(&self, name: &str, caption: impl Display) {
        let mut report = Report::new(name, &self.headers);
        for (label, values) in &self.rows {
            let cells = self.headers[1..].iter().zip(values).map(|(header, &x)| {
                if header.ends_with("_ms") {
                    Report::significant(x, 3)
                } else if x.fract() == 0.0 {
                    x.to_string()
                } else {
                    Report::f(x)
                }
            });
            report.row(std::iter::once(label.clone()).chain(cells).collect());
        }
        report.finish(caption);
    }
}

/// Write `experiments/{file}`; an unwritable directory is a warning, not a
/// crash.
pub(crate) fn write_experiment(file: &str, contents: &str) {
    let dir = experiments_dir();
    let _ = fs::create_dir_all(&dir);
    let path = dir.join(file);
    match fs::write(&path, contents) {
        Ok(()) => println!("[written {}]", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// Where result files land: `SVC_EXPERIMENTS_DIR` when set, else
/// `<repo>/experiments` (manifest-relative, so it does not depend on the
/// invocation directory).
fn experiments_dir() -> PathBuf {
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

/// The standard single-node setup of Section 7.1: TPCD-Skew data at
/// `scale` (1.0 is 60 484 lineitems) with skew `z`.
pub fn tpcd(scale: f64, z: f64, seed: u64) -> TpcdData {
    TpcdData::generate(TpcdConfig { scale: 0.4 * scale, skew: z, seed }).expect("tpcd generation")
}

/// Median of a slice (empty → NaN).
pub fn median_of(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    svc_stats::quantile::quantile(xs, 0.5)
}

#[cfg(test)]
mod tests {
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
}
