//! Runs every workload at `--smoke` size, untraced and traced, twice with
//! the same seed, and holds the driver to `BENCHMARK.json`: every workload
//! and metric listed there is emitted under exactly that name, end-to-end
//! values are positive, nothing fails, and the numbers that are counts —
//! errors, coverage, row counts — repeat for a seed.

use std::collections::BTreeMap;
use std::process::Command;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Per-layer metrics that are counts, not timings: fixed by the seed.
const REPEATABLE: &[&str] = &[
    "workloads.delta_rows",
    "workloads.stale_median_rel_err",
    "core.corr_median_rel_err",
    "core.aqp_median_rel_err",
    "core.corr_outlier_median_rel_err",
    "stats.ci_coverage",
    "stats.ci_width_rel",
    "core.preferred_method_agree",
    "cluster.max_staleness_err",
    "optimizer.passes",
    "sampling.eta_pushed_share",
    "sampling.sample_rows",
    "ivm.change_table_share",
    "cluster.retries",
    "cluster.quarantined",
];

/// Every `"key": "value"` string pair of one array section of the file.
fn section_strings(section: &str, key: &str) -> Vec<String> {
    let start = BENCHMARK_JSON.find(&format!("\"{section}\": [")).expect("section present");
    let body = &BENCHMARK_JSON[start..];
    let body = &body[..body.find("\n  ]").expect("section closes")];
    let needle = format!("\"{key}\": \"");
    body.match_indices(&needle)
        .map(|(i, _)| {
            let rest = &body[i + needle.len()..];
            rest[..rest.find('"').expect("string closes")].to_string()
        })
        .collect()
}

struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, (f64, String)>,
}

/// Parse the result line: `{"correct": …, "attempted": …, "failed": …,
/// "metrics": {"name": {"value": v, "unit": "u"}, …}}`.
fn parse_result(line: &str) -> RunResult {
    let field = |name: &str| {
        let rest = &line[line.find(&format!("\"{name}\": ")).expect("field") + name.len() + 4..];
        rest[..rest.find([',', '}']).expect("field ends")].trim().to_string()
    };
    let body = &line[line.find("\"metrics\": {").expect("metrics") + 12..];
    let mut metrics = BTreeMap::new();
    for entry in body.split("}, ") {
        let entry = entry.trim_end_matches('}');
        let Some((name, rest)) = entry.split_once(": {\"value\": ") else { continue };
        let (value, unit) = rest.split_once(", \"unit\": ").expect("unit");
        metrics.insert(
            name.trim_matches('"').to_string(),
            (value.parse().expect("numeric value"), unit.trim_matches('"').to_string()),
        );
    }
    RunResult {
        correct: field("correct") == "true",
        attempted: field("attempted").parse().expect("attempted"),
        failed: field("failed").parse().expect("failed"),
        metrics,
    }
}

fn run(workload: &str, trace: &str) -> RunResult {
    let output = Command::new(env!("CARGO_BIN_EXE_svc_bench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0",
            "--trace",
            trace,
            "--smoke",
        ])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("svc_bench starts");
    assert!(output.status.success(), "{workload} trace {trace}: {:?}", output);
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    parse_result(stdout.lines().last().expect("a result line"))
}

#[test]
fn every_listed_workload_and_metric_is_emitted() {
    let workloads = section_strings("workloads", "name");
    let end_to_end = section_strings("end_to_end", "name");
    let per_layer = section_strings("per_layer", "name");
    assert_eq!(workloads.len(), 4);
    assert!(end_to_end.contains(&"setup_s".to_string()));
    for name in workloads.iter().chain(&end_to_end).chain(&per_layer) {
        assert!(
            !name.is_empty()
                && name.len() <= 64
                && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "bad name {name:?}"
        );
    }
    let units: BTreeMap<String, String> = ["end_to_end", "per_layer"]
        .iter()
        .flat_map(|s| section_strings(s, "name").into_iter().zip(section_strings(s, "unit")))
        .collect();

    for workload in &workloads {
        for (trace, listed) in [("0", &end_to_end), ("1", &per_layer)] {
            let first = run(workload, trace);
            let second = run(workload, trace);
            assert!(first.correct && first.failed == 0, "{workload} trace {trace} failed checks");
            assert!(first.attempted >= 1);
            let emitted: Vec<&String> = first.metrics.keys().collect();
            let mut expected: Vec<&String> = listed.iter().collect();
            expected.sort();
            assert_eq!(emitted, expected, "{workload} trace {trace}: metric names differ");
            for (name, (value, unit)) in &first.metrics {
                assert_eq!(unit, &units[name], "{workload}: unit of {name}");
                // A difference of two timings may come out below zero.
                let signed = name == "telemetry.trace_overhead_pct";
                assert!(
                    value.is_finite() && (signed || *value >= 0.0),
                    "{workload}: {name} = {value}"
                );
                if trace == "0" {
                    assert!(*value > 0.0, "{workload}: end-to-end {name} is zero");
                }
                if REPEATABLE.contains(&name.as_str()) {
                    // HashMap-ordered float sums inside the estimators move
                    // the last bits between runs, nothing more.
                    let again = second.metrics[name].0;
                    assert!(
                        (value - again).abs() <= 1e-9 * value.abs().max(1.0),
                        "{workload}: {name} is {value} then {again} for the same seed"
                    );
                }
            }
        }
    }
}

#[test]
fn unknown_workload_is_an_error() {
    let status = Command::new(env!("CARGO_BIN_EXE_svc_bench"))
        .args(["--workload", "nope", "--seed", "1", "--seconds", "0", "--trace", "0"])
        .output()
        .expect("svc_bench starts");
    assert!(!status.status.success());
    assert!(status.stdout.is_empty(), "no result line on an error");
}
