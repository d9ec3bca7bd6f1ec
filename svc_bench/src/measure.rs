//! The one timing helper, sample summaries, seed derivation and the
//! operation/check counter every workload shares.

use std::collections::HashMap;
use std::time::Instant;

use svc_stats::quantile::quantile;

/// Run `f` once and return its result with the wall time in milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = std::hint::black_box(f());
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// A series of measurements of one quantity (one value per period).
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// Record one value.
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Sum of the values.
    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    /// The `q`-quantile; 0 for an empty series, so a layer a workload never
    /// enters reports zero.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            quantile(&self.0, q)
        }
    }

    /// The median.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The maximum; 0 for an empty series.
    pub fn max(&self) -> f64 {
        self.0.iter().copied().fold(0.0, f64::max)
    }

    /// `median [q1 q3] p90 min max n=…`, for the human-readable report.
    pub fn describe(&self) -> String {
        format!(
            "median {:.4} [q1 {:.4} q3 {:.4}] p90 {:.4} min {:.4} max {:.4} n={}",
            self.median(),
            self.quantile(0.25),
            self.quantile(0.75),
            self.quantile(0.9),
            self.quantile(0.0),
            self.max(),
            self.len()
        )
    }
}

/// A fixed reference computation of the benchmark's own, timed beside
/// everything an end-to-end metric reports, to divide the box's pace out.
///
/// The box shares its memory system with other tenants. For stretches of
/// seconds to minutes the engine's allocation- and cache-miss-heavy code
/// runs 1.45–1.7× slower, while pure arithmetic keeps its pace. No
/// statistic over a run's periods removes a stretch that covers the whole
/// run, so every end-to-end time is reported at reference pace: wall time
/// ÷ the slowdown the probe saw around it. The probe clones a table of
/// small heap rows and indexes it in a hash map — the engine's own memory
/// behaviour — and slows ~1.5× in the same stretches. Per-layer numbers
/// stay plain wall time; `telemetry.box_slowdown` reports the pace.
pub struct Probe {
    rows: Vec<Vec<u64>>,
}

/// One probe pass on this box undisturbed, in milliseconds. A constant: it
/// only fixes the scale of the reported times.
const PROBE_REFERENCE_MS: f64 = 2.2;

impl Probe {
    /// Build the probe's table: 20 000 rows of 8 values.
    pub fn new() -> Probe {
        let rows = (0..20_000u64).map(|r| (0..8).map(|c| derive_seed(r, c)).collect()).collect();
        Probe { rows }
    }

    /// One pass; its wall time in milliseconds.
    pub fn run(&self) -> f64 {
        let ((), ms) = timed(|| {
            for _ in 0..2 {
                let copy = self.rows.clone();
                let index: HashMap<u64, u64> = copy.iter().map(|r| (r[0], r[1])).collect();
                std::hint::black_box(index.len());
            }
        });
        ms
    }

    /// The box's slowdown over an interval that began with a pass of
    /// `before_ms` and ends now, with another: the faster of the two ÷ the
    /// reference. The faster one, because a burst of a few milliseconds that
    /// hits one pass says nothing about the interval, while a slow stretch
    /// that covers the interval slows both.
    pub fn slowdown_since(&self, before_ms: f64) -> f64 {
        before_ms.min(self.run()) / PROBE_REFERENCE_MS
    }
}

/// Times set-up is repeated; `setup_s` is the median.
const SETUP_REPS: usize = 7;

/// Build the workload's state [`SETUP_REPS`] times — each earlier state is
/// dropped first, so peak memory holds one — and return the last with the
/// build times in seconds at reference pace. `setup_s` is their median.
pub fn repeat_setup<T>(
    probe: &Probe,
    mut build: impl FnMut() -> svc_storage::Result<T>,
) -> svc_storage::Result<(T, Samples)> {
    let mut seconds = Samples::default();
    let mut state = None;
    for _ in 0..SETUP_REPS {
        drop(state.take());
        let before = probe.run();
        let (built, ms) = timed(&mut build);
        seconds.push(ms / 1e3 / probe.slowdown_since(before));
        state = Some(built?);
    }
    Ok((state.expect("SETUP_REPS is at least 1"), seconds))
}

/// SplitMix64 step: an independent stream seed for `tag` under `seed`, so
/// `--seed` drives data, update, query and hash seeds without correlating
/// them.
pub fn derive_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The answer-quality check: the median SVC+CORR error must be below the
/// stale view's, or below this floor where the drawn queries barely saw
/// the updates (the stale error itself is then a fraction of a percent).
pub const CORR_ERROR_FLOOR: f64 = 0.10;

/// Counts operations attempted and failed. Timed operations and every
/// correctness check count; a failed check also keeps its description.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored or failed a correctness check.
    pub failed: u64,
    /// The first few failures, for the report.
    pub failures: Vec<String>,
}

impl Checks {
    /// Count `n` operations that completed.
    pub fn ok(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Count one check; `what` is only rendered on failure.
    pub fn check(&mut self, passed: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !passed {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    /// Count one fallible operation whose value must be finite; returns
    /// the value when it is.
    pub fn finite(
        &mut self,
        r: svc_storage::Result<f64>,
        what: impl FnOnce() -> String,
    ) -> Option<f64> {
        let v = r.ok().filter(|v| v.is_finite());
        self.check(v.is_some(), what);
        v
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> svc_storage::Result<f64> {
    let unreadable = |why: String| svc_storage::StorageError::Invalid(format!("peak RSS: {why}"));
    let status =
        std::fs::read_to_string("/proc/self/status").map_err(|e| unreadable(e.to_string()))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| unreadable("no VmHWM line in /proc/self/status".into()))
}
