//! Harness-side spans: recorded in memory around each public call into a
//! layer, in traced periods only. A span has a name, start, end, parent
//! and period id; a layer's self time is its span minus its children.

use std::collections::BTreeMap;
use std::time::Instant;

use svc_telemetry::TraceRecorder;

use crate::measure::Samples;

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start: Instant,
    end: Instant,
    parent: Option<usize>,
    period: u32,
}

/// Handle of an open span, returned by [`Tracer::enter`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// The span recorder. Inactive (every period of an untraced run, and the
/// plain periods of a traced run) it records nothing and costs a branch.
#[derive(Debug)]
pub struct Tracer {
    /// The engine's recorder, used for the chrome-trace export; created
    /// with the tracer so its clock starts before the first span.
    export: Option<TraceRecorder>,
    active: bool,
    period: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Spans the chrome-trace export keeps (the most recent ones).
const EXPORT_CAPACITY: usize = 1 << 16;

impl Tracer {
    /// A tracer for a traced (`enabled`) or an untraced run.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            export: enabled.then(|| TraceRecorder::new(EXPORT_CAPACITY)),
            active: false,
            period: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Start period `period`; its spans are recorded when `traced` and the
    /// run is a traced one.
    pub fn begin_period(&mut self, period: u32, traced: bool) {
        self.period = period;
        self.active = traced && self.export.is_some();
        self.open.clear();
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.active {
            return Open(None);
        }
        let now = Instant::now();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
            period: self.period,
        });
        self.open.push(id);
        Open(Some(id))
    }

    /// Close a span opened by [`Tracer::enter`].
    pub fn exit(&mut self, open: Open) {
        if let Open(Some(id)) = open {
            self.spans[id].end = Instant::now();
            self.open.retain(|&o| o != id);
        }
    }

    /// Per-period totals of every span called `name`, in milliseconds:
    /// inclusive time, or self time (children subtracted) when `self_time`.
    pub fn per_period_ms(&self, name: &str, self_time: bool) -> Samples {
        let mut child_ms = vec![0.0; self.spans.len()];
        if self_time {
            for s in &self.spans {
                if let Some(p) = s.parent {
                    child_ms[p] += (s.end - s.start).as_secs_f64() * 1e3;
                }
            }
        }
        let mut by_period: BTreeMap<u32, f64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate().filter(|(_, s)| s.name == name) {
            *by_period.entry(s.period).or_default() +=
                (s.end - s.start).as_secs_f64() * 1e3 - child_ms[i];
        }
        let mut out = Samples::default();
        by_period.into_values().for_each(|v| out.push(v));
        out
    }

    /// Median per-period self time of every span name, in milliseconds,
    /// and whether spans of that name sit inside another span (a layer
    /// call inside an answer) or at the top (an answer, or a pass beside
    /// the answers).
    pub fn self_ms_by_name(&self) -> Vec<(&'static str, f64, bool)> {
        let names: BTreeMap<&'static str, bool> =
            self.spans.iter().map(|s| (s.name, s.parent.is_some())).collect();
        names
            .into_iter()
            .map(|(name, nested)| (name, self.per_period_ms(name, true).median(), nested))
            .collect()
    }

    /// Export the spans as chrome-trace JSON (`chrome://tracing`,
    /// Perfetto) through the engine's own [`TraceRecorder`]; the category
    /// is the layer (the part of the name before the dot). `None` for an
    /// untraced run.
    pub fn chrome_trace_json(&self) -> Option<String> {
        let rec = self.export.as_ref()?;
        for s in &self.spans {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            rec.record(format!("{} #{}", s.name, s.period), layer, s.start, s.end);
        }
        Some(rec.chrome_trace_json())
    }
}
