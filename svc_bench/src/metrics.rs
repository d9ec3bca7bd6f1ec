//! The metric tables — the names, units and directions `BENCHMARK.json`
//! lists — and the result a workload fills in and the driver prints.

use std::collections::BTreeMap;

use crate::measure::Checks;

/// One named metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name, `[A-Za-z0-9_.-]+`; per-layer names lead with the module.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// What a user of the system sees. Every workload reports every one, from
/// the untraced run, and none is ever zero.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", "lower"),
    m("svc_answer_ms", "ms", "lower"),
    m("ivm_answer_ms", "ms", "lower"),
    m("maintain_records_per_s", "records/s", "higher"),
    m("estimates_per_s", "estimates/s", "higher"),
    m("peak_rss_mb", "MB", "lower"),
];

/// Single-layer numbers, from the traced run. A layer a workload never
/// enters reports zero.
pub const PER_LAYER: &[Metric] = &[
    // set-up
    m("workloads.gen_s", "s", "lower"),
    m("ivm.view_create_ms", "ms", "lower"),
    m("catalog.build_ms", "ms", "lower"),
    m("core.outlier_build_ms", "ms", "lower"),
    m("core.outlier_pushup_ms", "ms", "lower"),
    // how much staleness the generator injected
    m("workloads.delta_rows", "count", "lower"),
    m("workloads.stale_median_rel_err", "ratio", "lower"),
    // answer quality (exact for a seed; they vary too much across seeds to
    // carry an end-to-end bound)
    m("core.corr_median_rel_err", "ratio", "lower"),
    m("core.aqp_median_rel_err", "ratio", "lower"),
    m("core.corr_outlier_median_rel_err", "ratio", "lower"),
    m("stats.ci_coverage", "share", "higher"),
    m("stats.ci_width_rel", "ratio", "lower"),
    m("core.preferred_method_agree", "share", "higher"),
    m("cluster.max_staleness_err", "ratio", "lower"),
    // planning
    m("ivm.plan_build_us", "us", "lower"),
    m("catalog.overlay_us", "us", "lower"),
    m("optimizer.optimize_us", "us", "lower"),
    m("optimizer.passes", "count", "lower"),
    m("core.cleaning_plan_us", "us", "lower"),
    m("exec.compile_us", "us", "lower"),
    // execution of the compiled cleaning plan
    m("exec.run_ms", "ms", "lower"),
    m("exec.cold_run_ms", "ms", "lower"),
    m("exec.scan_ns", "ns", "lower"),
    m("exec.join_ns", "ns", "lower"),
    m("exec.agg_ns", "ns", "lower"),
    m("exec.setop_ns", "ns", "lower"),
    m("exec.rows_scanned", "count", "lower"),
    m("exec.rows_out", "count", "lower"),
    m("exec.rows_examined_per_result", "ratio", "lower"),
    m("exec.join_build_rows", "count", "lower"),
    m("exec.join_probe_rows", "count", "lower"),
    m("exec.zone_skips", "count", "higher"),
    m("exec.vec_chunk_share", "share", "higher"),
    m("exec.par_speedup", "ratio", "higher"),
    m("exec.part_speedup", "ratio", "higher"),
    // sampling
    m("sampling.eta_pushed_share", "share", "higher"),
    m("sampling.sample_rows", "count", "lower"),
    m("sampling.resample_ms", "ms", "lower"),
    // maintenance
    m("ivm.maintain_ms", "ms", "lower"),
    m("ivm.change_table_share", "share", "higher"),
    m("ivm.recompute_ms", "ms", "lower"),
    // cleaning and estimation
    m("core.clean_ms", "ms", "lower"),
    m("core.clean_p90_ms", "ms", "lower"),
    m("core.public_of_us", "us", "lower"),
    m("core.clean_speedup", "ratio", "higher"),
    m("core.estimate_aqp_us", "us", "lower"),
    m("core.estimate_corr_us", "us", "lower"),
    m("core.query_stale_us", "us", "lower"),
    m("stats.bootstrap_ms", "ms", "lower"),
    // batched maintenance
    m("cluster.maintain_ms", "ms", "lower"),
    m("cluster.batches", "count", "lower"),
    m("cluster.folds", "count", "lower"),
    m("cluster.compiles", "count", "lower"),
    m("cluster.compile_cache_hit_ratio", "share", "higher"),
    m("cluster.retries", "count", "lower"),
    m("cluster.quarantined", "count", "lower"),
    m("cluster.fold_ns_mean", "ns", "lower"),
    m("cluster.pool_tasks", "count", "lower"),
    m("cluster.pool_busy_share", "share", "higher"),
    m("cluster.maintain_1w_records_per_s", "records/s", "higher"),
    m("catalog.commit_ms", "ms", "lower"),
    m("storage.commit_rows", "count", "lower"),
    // the harness itself
    m("telemetry.box_slowdown", "ratio", "lower"),
    m("telemetry.trace_overhead_pct", "%", "lower"),
    m("telemetry.trace_coverage_pct", "%", "higher"),
];

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operation and check counts.
    pub checks: Checks,
    /// Metric values by name (end-to-end and per-layer share the map; the
    /// driver prints the table the run's mode asks for).
    pub values: BTreeMap<&'static str, f64>,
    /// Context printed above the metrics: scenario constants, sample
    /// summaries, layer self times.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Set a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Add a line of context.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The result line the benchmark contract asks for: `table`'s metrics,
    /// every value with all its digits. Fails when an end-to-end value is
    /// missing, zero or not finite.
    pub fn result_json(&self, table: &[Metric], end_to_end: bool) -> Result<String, String> {
        let mut fields = Vec::with_capacity(table.len());
        for metric in table {
            let value = self.values.get(metric.name).copied().unwrap_or(0.0);
            if !value.is_finite() || (end_to_end && value <= 0.0) {
                return Err(format!("metric {} has no usable value ({value})", metric.name));
            }
            fields.push(format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                metric.name, metric.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.checks.failed == 0,
            self.checks.attempted,
            self.checks.failed,
            fields.join(", ")
        ))
    }
}
