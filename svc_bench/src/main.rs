#![forbid(unsafe_code)]

//! `svc_bench` — the fresh-answer benchmark.
//!
//! An analyst asks an aggregate query of a stale view and waits for a
//! fresh, bounded answer; an operator runs deferred maintenance and wants
//! it to keep up with the update stream. The driver runs one named
//! workload closed-loop from a single client thread, checks the outputs,
//! prints every metric by name and ends with the one-line JSON result
//! `BENCHMARK.json` describes. Layers are measured from outside, by timing
//! calls into their public functions.
//!
//! ```text
//! svc_bench --workload <name|all> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```

mod measure;
mod metrics;
mod scenario;
mod spans;
mod stream;
mod tpcd;

use std::process::ExitCode;

use metrics::{Metric, Outcome, END_TO_END, PER_LAYER};
use scenario::{Scenario, Workload};
use spans::Tracer;

/// One run's arguments.
pub struct RunArgs {
    /// The workload's name.
    pub workload: String,
    /// Drives data, update, query and hash seeds.
    pub seed: u64,
    /// How long the timed loop measures.
    pub seconds: f64,
    /// A traced run reports the per-layer metrics; an untraced one the
    /// end-to-end metrics.
    pub trace: bool,
    /// Smoke-test sizes.
    pub smoke: bool,
}

/// Worker threads of every pool the benchmark creates.
pub fn pool_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(4)
}

/// Where traces go: a directory of the checkout that `.gitignore` names.
const ARTIFACT_DIR: &str = ".bench_out";

/// Write a run artifact; a failure to write is reported, not fatal.
pub fn write_artifact(file: &str, contents: &str, out: &mut Outcome) {
    let path = std::path::Path::new(ARTIFACT_DIR).join(file);
    let written =
        std::fs::create_dir_all(ARTIFACT_DIR).and_then(|()| std::fs::write(&path, contents));
    match written {
        Ok(()) => out.note(format!("written {}", path.display())),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// Close a traced run: tracing overhead (traced against plain answers of
/// the same run), how much of the untraced answer time the layer self
/// times account for, the self-time table, and `trace-<workload>.json`.
pub fn finish_trace(
    tr: &Tracer,
    workload: &str,
    untraced_ms: f64,
    traced_ms: f64,
    out: &mut Outcome,
) {
    let self_ms = tr.self_ms_by_name();
    // The layer calls are the spans nested inside an answer.
    let layers: f64 = self_ms.iter().filter(|(_, _, nested)| *nested).map(|(_, ms, _)| ms).sum();
    out.set("telemetry.trace_overhead_pct", (traced_ms - untraced_ms) / untraced_ms * 100.0);
    out.set("telemetry.trace_coverage_pct", layers / untraced_ms * 100.0);
    for (name, ms, _) in &self_ms {
        out.note(format!(
            "self time {name}: {ms:.4} ms per period ({:.1}% of the untraced answers)",
            ms / untraced_ms * 100.0
        ));
    }
    if let Some(json) = tr.chrome_trace_json() {
        write_artifact(&format!("trace-{workload}.json"), &json, out);
    }
}

fn usage() -> String {
    let names: Vec<&str> = scenario::workloads(false).iter().map(|w| w.name).collect();
    format!(
        "usage: svc_bench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1> [--smoke]",
        names.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<RunArgs, String> {
    let mut args =
        RunArgs { workload: String::new(), seed: 1, seconds: 10.0, trace: false, smoke: false };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}\n{}", usage());
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err(bad("a number of seconds"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}\n{}", usage())),
        }
    }
    if args.workload.is_empty() {
        return Err(usage());
    }
    Ok(args)
}

/// The commit the benchmark was built from, when the checkout is a git
/// repository (the benchmark driver's is not).
fn git_sha() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).map(|s| s.trim().to_string()).ok(),
        None => (!head.is_empty()).then(|| head.to_string()),
    }
    .unwrap_or_else(|| "unknown".into())
}

fn print_metrics(table: &[Metric], out: &Outcome) {
    for metric in table {
        let value = out.values.get(metric.name).copied().unwrap_or(0.0);
        println!("{} {value} {}  ({} is better)", metric.name, metric.unit, metric.better);
    }
}

fn run_one(workload: &Workload, args: &RunArgs) -> Result<String, String> {
    let mut out = Outcome::default();
    println!(
        "# svc_bench workload={} seed={} seconds={} trace={} smoke={} nproc={} pool_workers={} git={}",
        workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.smoke,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        pool_workers(),
        git_sha()
    );
    println!("# why: {}", workload.why);
    let ran = match &workload.scenario {
        Scenario::Tpcd(scn) => tpcd::run(scn, args, &mut out),
        Scenario::Stream(scn) => stream::run(scn, args, &mut out),
    };
    ran.map_err(|e| format!("{}: {e}", workload.name))?;
    for note in &out.notes {
        println!("# {note}");
    }
    for failure in &out.checks.failures {
        println!("# FAILED: {failure}");
    }
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    print_metrics(table, &out);
    out.result_json(table, !args.trace)
}

/// `--workload all`: every workload, untraced then traced, each in its own
/// process so that peak RSS is the workload's own.
fn run_all(args: &RunArgs) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    for workload in scenario::workloads(args.smoke) {
        for trace in ["0", "1"] {
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["--workload", workload.name, "--seed", &args.seed.to_string()]).args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                trace,
            ]);
            if args.smoke {
                cmd.arg("--smoke");
            }
            let status =
                cmd.status().map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
            if !status.success() {
                return Err(format!("{} (trace {trace}) ended with {status}", workload.name));
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&argv).and_then(|args| {
        if args.workload == "all" {
            return run_all(&args);
        }
        let workload = scenario::workloads(args.smoke)
            .into_iter()
            .find(|w| w.name == args.workload)
            .ok_or_else(|| format!("unknown workload {:?}\n{}", args.workload, usage()))?;
        // The result is the last line of standard output.
        run_one(&workload, &args).map(|json| println!("{json}"))
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("svc_bench: {e}");
            ExitCode::FAILURE
        }
    }
}
