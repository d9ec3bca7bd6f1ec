//! Query result estimation (Section 5): SVC+AQP direct estimates and
//! SVC+CORR corrections, with confidence machinery per aggregate class.
//!
//! Every estimator is one walk of the corresponding samples `(Ŝ, Ŝ′)`
//! (`correspond`: the per-row `trans` table of Section 5.2.1, whose
//! SVC+CORR form is the correspondence difference `−̇` of Definition 4)
//! followed by the finisher of the query's aggregate class:
//!
//! * `sum`/`count`/`avg` — sample means (`1/m·attr·cond` for sum,
//!   `1/m·cond` for count, `attr where cond` for avg) with CLT intervals
//!   (Section 5.2.1), Horvitz–Thompson ones for the two totals;
//! * `median`/percentiles — statistical bootstrap (Section 5.2.5);
//! * `min`/`max` — correction by extreme paired difference plus a Cantelli
//!   probability that a more extreme unsampled element exists
//!   (Appendix 12.1.1).
//!
//! SVC+AQP is the walk with no stale side. The walk reads column slices:
//! each sample's predicate and attribute are evaluated once, by the same
//! kernels as `q(S)` ([`AggQuery::bind`]), into one value slot per row, and
//! rows are paired through the key index's row positions with one reused
//! key buffer. Rows are visited in table order, so every sum — and with it
//! every estimate — is bit-repeatable. Order statistics (the bootstrap's
//! statistic and its percentile bounds) are found by selection, not sorting.

use svc_stats::bootstrap::{bootstrap_ci, bootstrap_paired_diff};
use svc_stats::cantelli::cantelli_exceedance;
use svc_stats::clt::{horvitz_thompson_interval, mean_interval, ConfidenceInterval};
use svc_stats::moments::Moments;
use svc_stats::quantile::quantile_in_place;
use svc_storage::{KeyTuple, Result, StorageError, Table};

use crate::config::SvcConfig;
use crate::query::{aggregate, AggQuery, QueryAgg};

/// How an answer was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// The stale view's answer, unmodified (the "No Maintenance" baseline).
    Stale,
    /// SVC+AQP: direct estimate from the clean sample.
    AqpDirect,
    /// SVC+CORR: stale answer plus a sampled correction.
    Correction,
}

/// An estimated query answer with its uncertainty.
#[derive(Debug, Clone)]
pub struct Estimate {
    /// Point estimate of `q(S′)`.
    pub value: f64,
    /// Confidence interval, when the aggregate class provides one.
    pub ci: Option<ConfidenceInterval>,
    /// Estimation method.
    pub method: Method,
    /// Rows of the (clean) sample involved.
    pub sample_size: usize,
    /// Rows of the sample satisfying the predicate (effective sample size,
    /// Section 5.2.3).
    pub predicate_rows: usize,
    /// For `min`/`max`: Cantelli bound on the probability that a more
    /// extreme element exists outside the sample (Appendix 12.1.1).
    pub exceedance_probability: Option<f64>,
}

impl Estimate {
    /// `scale · self + shift`, for merging in an exact (zero-variance) term:
    /// the interval moves with the value and only `scale` widens or narrows
    /// it (Section 6.3).
    pub(crate) fn affine(mut self, scale: f64, shift: f64) -> Estimate {
        self.value = scale * self.value + shift;
        if let Some(ci) = &mut self.ci {
            ci.estimate = self.value;
            ci.half_width *= scale;
        }
        self
    }
}

/// The corresponding samples `(Ŝ, Ŝ′)` joined by key under one query: for
/// each key of `Ŝ ∪ Ŝ′` the attribute value on either side, `None` where
/// that side has no such row, the row fails the predicate, or its attribute
/// is not numeric (Definition 4's "nulls are zero" full outer join, with
/// the zero left to the finisher).
pub(crate) struct Correspondence {
    /// `(stale, clean)`: the clean sample's rows in table order, then the
    /// rows only the stale sample has, in its table order.
    pub(crate) pairs: Vec<(Option<f64>, Option<f64>)>,
    /// Clean-sample rows walked; they are `pairs[..clean_rows]`.
    pub(crate) clean_rows: usize,
}

/// Overwrite `buf` with the key of row `i` of `t`: one buffer per walk, no
/// per-row allocation.
fn key_at(t: &Table, i: usize, buf: &mut KeyTuple) {
    let row = &t.rows()[i];
    buf.0.clear();
    buf.0.extend(t.key().iter().map(|&k| row[k].clone()));
}

/// The one walk of `(Ŝ, Ŝ′)`. `stale` is absent for SVC+AQP; rows whose
/// key any `skip` table holds (the outlier sets of Section 6.3) are left
/// out on both sides. Each sample's values are read once, from its column
/// slices, into one slot per row; the walk then pairs slots by the key
/// index's row positions.
fn correspond(
    stale: Option<&Table>,
    clean: &Table,
    skip: &[&Table],
    q: &AggQuery,
) -> Result<Correspondence> {
    let clean_values = q.bind(clean)?.values_by_row(clean);
    let stale = stale.map(|s| q.bind(s).map(|bound| (s, bound.values_by_row(s)))).transpose()?;
    let skipped = |key: &KeyTuple| skip.iter().any(|o| o.contains_key(key));
    let keyed = stale.is_some() || !skip.is_empty();

    let mut key = KeyTuple(Vec::with_capacity(clean.key().len()));
    let mut pairs = Vec::with_capacity(clean.len());
    for (i, &value) in clean_values.iter().enumerate() {
        let mut partner = None;
        if keyed {
            key_at(clean, i, &mut key);
            if skipped(&key) {
                continue;
            }
            if let Some((s, stale_values)) = &stale {
                partner = s.position(&key).and_then(|j| stale_values[j]);
            }
        }
        pairs.push((partner, value));
    }
    let clean_rows = pairs.len();
    if let Some((s, stale_values)) = &stale {
        for (j, &value) in stale_values.iter().enumerate() {
            key_at(s, j, &mut key);
            if !clean.contains_key(&key) && !skipped(&key) {
                pairs.push((value, None));
            }
        }
    }
    Ok(Correspondence { pairs, clean_rows })
}

fn moments(values: impl Iterator<Item = f64>) -> Moments {
    let mut m = Moments::new();
    values.for_each(|v| m.push(v));
    m
}

impl Correspondence {
    fn clean(&self) -> impl Iterator<Item = f64> + '_ {
        self.pairs.iter().filter_map(|p| p.1)
    }

    fn stale(&self) -> impl Iterator<Item = f64> + '_ {
        self.pairs.iter().filter_map(|p| p.0)
    }

    /// Finish the walk into an estimate of `agg`: `stale_result` is the
    /// full stale answer SVC+CORR corrects, `None` for SVC+AQP.
    pub(crate) fn finish(
        &self,
        agg: QueryAgg,
        stale_result: Option<f64>,
        m: f64,
        cfg: &SvcConfig,
    ) -> Result<Estimate> {
        let predicate_rows = self.clean().count();
        if predicate_rows == 0 && !matches!(agg, QueryAgg::Sum | QueryAgg::Count) {
            return Err(StorageError::Invalid(format!(
                "cannot estimate {agg:?}: no sample row satisfies the predicate"
            )));
        }
        let (value, half_width, exceedance_probability) = match agg {
            QueryAgg::Sum | QueryAgg::Count | QueryAgg::Avg => {
                let (value, half_width) = self.sample_mean(agg, stale_result, m, cfg.confidence);
                (value, Some(half_width), None)
            }
            QueryAgg::Median | QueryAgg::Percentile(_) => {
                let (value, half_width) = self.order_statistic(agg, stale_result, cfg);
                (value, half_width, None)
            }
            QueryAgg::Min | QueryAgg::Max => {
                let (value, exceedance) = self.extreme(agg, stale_result);
                (value, None, Some(exceedance))
            }
        };
        Ok(Estimate {
            value,
            ci: half_width.map(|half_width| ConfidenceInterval {
                estimate: value,
                half_width,
                confidence: cfg.confidence,
            }),
            method: if stale_result.is_some() { Method::Correction } else { Method::AqpDirect },
            sample_size: self.clean_rows,
            predicate_rows,
            exceedance_probability,
        })
    }

    /// Sample-mean class (Section 5.2.1) over the per-row `trans`
    /// differences `dᵢ`: `sum`/`count` add them up, with the
    /// Horvitz–Thompson interval of a Bernoulli sample (η draws its size at
    /// random); `avg` takes their mean, with a CLT interval. Returns
    /// `(value, half_width)`.
    fn sample_mean(
        &self,
        agg: QueryAgg,
        stale_result: Option<f64>,
        m: f64,
        confidence: f64,
    ) -> (f64, f64) {
        let avg = agg == QueryAgg::Avg;
        let trans = |v: Option<f64>| match (agg, v) {
            (_, None) => 0.0,
            (QueryAgg::Sum, Some(x)) => x / m,
            (QueryAgg::Count, Some(_)) => 1.0 / m,
            (_, Some(x)) => x,
        };
        // sum/count scale every sample row (a failed predicate is a zero
        // term); avg only sees rows that satisfy it on some side.
        let terms = || {
            self.pairs
                .iter()
                .filter(|(s, c)| !avg || s.is_some() || c.is_some())
                .map(|&(s, c)| trans(c) - trans(s))
        };
        let diffs = moments(terms());
        let base = stale_result.unwrap_or(0.0);
        if !avg {
            let squares = terms().map(|d| d * d).sum();
            let ci = horvitz_thompson_interval(diffs.sum(), squares, m, confidence);
            return (base + diffs.sum(), ci.half_width);
        }
        let (clean, stale) = (moments(self.clean()), moments(self.stale()));
        // A stale sample with no row under the predicate gives SVC+CORR
        // nothing to difference against: the stale answer stands.
        let correction = if stale_result.is_some() && stale.count() == 0 {
            0.0
        } else {
            clean.mean() - stale.mean()
        };
        let ci = mean_interval(correction, diffs.variance(), diffs.count(), confidence);
        (base + correction, ci.half_width)
    }

    /// Order-statistic class (Section 5.2.5): bootstrap the statistic, or
    /// for SVC+CORR its clean−stale difference. Returns `(value, half_width)`.
    fn order_statistic(
        &self,
        agg: QueryAgg,
        stale_result: Option<f64>,
        cfg: &SvcConfig,
    ) -> (f64, Option<f64>) {
        let statistic = |xs: &[f64]| aggregate(agg, xs.iter().copied());
        let clean: Vec<f64> = self.clean().collect();
        let Some(stale_result) = stale_result else {
            let ci =
                bootstrap_ci(&clean, statistic, cfg.bootstrap_iterations, cfg.confidence, cfg.seed);
            return (ci.estimate, Some(ci.half_width));
        };
        let stale: Vec<f64> = self.stale().collect();
        if stale.is_empty() {
            return (stale_result, None);
        }
        let value = stale_result + (statistic(&clean) - statistic(&stale));
        let mut dist =
            bootstrap_paired_diff(&clean, &stale, statistic, cfg.bootstrap_iterations, cfg.seed);
        let alpha = 1.0 - cfg.confidence;
        let lo = quantile_in_place(&mut dist, alpha / 2.0);
        let hi = quantile_in_place(&mut dist, 1.0 - alpha / 2.0);
        (value, Some(((hi - lo) / 2.0).abs()))
    }

    /// Extreme class (Appendix 12.1.1): the sample extreme, or for SVC+CORR
    /// the stale extreme moved by the extreme row-by-row difference over
    /// rows present in BOTH samples. Returns `(value, exceedance)`, the
    /// Cantelli bound on a more extreme unsampled element.
    fn extreme(&self, agg: QueryAgg, stale_result: Option<f64>) -> (f64, f64) {
        let value = match stale_result {
            None => aggregate(agg, self.clean()),
            Some(stale_result) => {
                let mut diffs = self.pairs.iter().filter_map(|&(s, c)| Some(c? - s?)).peekable();
                if diffs.peek().is_none() {
                    stale_result
                } else {
                    stale_result + aggregate(agg, diffs)
                }
            }
        };
        let spread = moments(self.clean());
        (value, cantelli_exceedance(spread.variance(), (value - spread.mean()).abs()))
    }
}

/// The body of every estimator: walk the samples, finish by class. `stale`
/// is SVC+CORR's `(q(S), Ŝ)`; `skip` holds the outlier sets whose rows are
/// accounted for exactly elsewhere.
pub(crate) fn estimate(
    stale: Option<(f64, &Table)>,
    clean_sample: &Table,
    skip: &[&Table],
    q: &AggQuery,
    m: f64,
    cfg: &SvcConfig,
) -> Result<Estimate> {
    let (stale_result, stale_sample) = stale.unzip();
    correspond(stale_sample, clean_sample, skip, q)?.finish(q.agg, stale_result, m, cfg)
}

/// SVC+AQP: estimate `q(S′)` directly from the clean sample with scaling
/// factor `1/m` for sum/count and 1 for avg (Section 5.1).
pub fn svc_aqp(clean_sample: &Table, q: &AggQuery, m: f64, cfg: &SvcConfig) -> Result<Estimate> {
    estimate(None, clean_sample, &[], q, m, cfg)
}

/// SVC+CORR: estimate the correction `c = q(S′) − q(S)` from the
/// corresponding samples and add it to the stale full-view answer
/// (Section 5.1; bounds per Sections 5.2.1/5.2.5 and Appendix 12.1.1).
pub fn svc_corr(
    stale_result: f64,
    stale_sample: &Table,
    clean_sample: &Table,
    q: &AggQuery,
    m: f64,
    cfg: &SvcConfig,
) -> Result<Estimate> {
    estimate(Some((stale_result, stale_sample)), clean_sample, &[], q, m, cfg)
}

/// Break-even test of Section 5.2.2, read off the same pairs: SVC+CORR has
/// the lower variance while `σ²_S ≤ 2·cov(S, S′)`.
pub(crate) fn break_even(
    stale_sample: &Table,
    clean_sample: &Table,
    q: &AggQuery,
) -> Result<Method> {
    let pass = correspond(Some(stale_sample), clean_sample, &[], q)?;
    let paired = || pass.pairs.iter().filter_map(|&(s, c)| Some((s?, c?)));
    let stale = moments(paired().map(|(s, _)| s));
    let clean_mean = moments(pass.clean()).mean();
    let co_moment: f64 = paired().map(|(s, c)| (s - stale.mean()) * (c - clean_mean)).sum();
    let cov = if stale.count() > 1 { co_moment / (stale.count() - 1) as f64 } else { 0.0 };
    Ok(if stale.variance() <= 2.0 * cov { Method::Correction } else { Method::AqpDirect })
}

/// The stale baseline as an [`Estimate`] (for uniform reporting).
pub fn stale_answer(stale_result: f64) -> Estimate {
    Estimate {
        value: stale_result,
        ci: None,
        method: Method::Stale,
        sample_size: 0,
        predicate_rows: 0,
        exceedance_probability: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svc_relalg::scalar::{col, lit};
    use svc_sampling::operator::sample_by_key;
    use svc_storage::{DataType, HashSpec, Schema, Value};

    /// Population with mean 50 over ids 0..1000; "fresh" version shifts a
    /// slice of rows and adds new ones.
    fn stale_and_fresh() -> (Table, Table) {
        let schema = Schema::from_pairs(&[("id", DataType::Int), ("x", DataType::Float)]).unwrap();
        let mut stale = Table::new(schema.clone(), &["id"]).unwrap();
        let mut fresh = Table::new(schema, &["id"]).unwrap();
        for i in 0..1000i64 {
            let x = (i % 101) as f64;
            stale.insert(vec![Value::Int(i), Value::Float(x)]).unwrap();
            // Fresh: rows 0..200 updated (+10), rest unchanged.
            let fx = if i < 200 { x + 10.0 } else { x };
            fresh.insert(vec![Value::Int(i), Value::Float(fx)]).unwrap();
        }
        for i in 1000..1200i64 {
            fresh.insert(vec![Value::Int(i), Value::Float(((i * 7) % 101) as f64)]).unwrap();
        }
        (stale, fresh)
    }

    fn samples(m: f64) -> (Table, Table, Table, Table) {
        let (stale, fresh) = stale_and_fresh();
        let spec = HashSpec::with_seed(99);
        let s_hat = sample_by_key(&stale, m, spec);
        let f_hat = sample_by_key(&fresh, m, spec);
        (stale, fresh, s_hat, f_hat)
    }

    #[test]
    fn aqp_sum_is_close_and_covered() {
        let (_, fresh, _, f_hat) = samples(0.2);
        let q = AggQuery::sum(col("x"));
        let truth = q.exact(&fresh).unwrap();
        let est = svc_aqp(&f_hat, &q, 0.2, &SvcConfig::default()).unwrap();
        let rel = (est.value - truth).abs() / truth;
        assert!(rel < 0.15, "AQP sum rel err {rel}");
        assert!(est.ci.unwrap().contains(truth) || rel < 0.05);
    }

    #[test]
    fn count_star_interval_counts_the_random_sample_size() {
        // Every row of a no-predicate count contributes 1/m: a fixed-size
        // variance is 0, the Horvitz–Thompson one is (1−m)·k/m².
        let m = 0.2;
        let (_, fresh, _, f_hat) = samples(m);
        let est = svc_aqp(&f_hat, &AggQuery::count(), m, &SvcConfig::default()).unwrap();
        let gamma = svc_stats::gaussian_gamma(0.95);
        let k = f_hat.len() as f64;
        let half_width = est.ci.unwrap().half_width;
        assert!((half_width - gamma * ((1.0 - m) * k).sqrt() / m).abs() < 1e-9 * half_width);
        // ... which is the population's sampling error, γ·√((1−m)·n/m).
        let population = gamma * ((1.0 - m) * fresh.len() as f64 / m).sqrt();
        assert!((half_width / population - 1.0).abs() < 0.1, "{half_width} vs {population}");
        assert!(est.ci.unwrap().contains(fresh.len() as f64));
    }

    #[test]
    fn corr_beats_stale_for_sum_count_avg() {
        let (stale, fresh, s_hat, f_hat) = samples(0.2);
        let cfg = SvcConfig::default();
        for q in [
            AggQuery::sum(col("x")),
            AggQuery::count().filter(col("x").gt(lit(50.0))),
            AggQuery::avg(col("x")),
        ] {
            let truth = q.exact(&fresh).unwrap();
            let stale_res = q.exact(&stale).unwrap();
            let est = svc_corr(stale_res, &s_hat, &f_hat, &q, 0.2, &cfg).unwrap();
            let stale_err = (stale_res - truth).abs();
            let corr_err = (est.value - truth).abs();
            assert!(corr_err <= stale_err, "{q:?}: corr err {corr_err} vs stale err {stale_err}");
        }
    }

    #[test]
    fn corr_is_exact_when_nothing_changed() {
        let (stale, _, s_hat, _) = samples(0.3);
        let cfg = SvcConfig::default();
        let q = AggQuery::sum(col("x"));
        let stale_res = q.exact(&stale).unwrap();
        // Clean sample == dirty sample → correction must be exactly 0.
        let est = svc_corr(stale_res, &s_hat, &s_hat, &q, 0.3, &cfg).unwrap();
        assert_eq!(est.value, stale_res);
        assert_eq!(est.ci.unwrap().half_width, 0.0);
    }

    #[test]
    fn median_estimates_with_bootstrap_ci() {
        let (stale, fresh, s_hat, f_hat) = samples(0.25);
        let cfg = SvcConfig::default();
        let q = AggQuery::median(col("x"));
        let truth = q.exact(&fresh).unwrap();
        let aqp = svc_aqp(&f_hat, &q, 0.25, &cfg).unwrap();
        assert!((aqp.value - truth).abs() < 15.0);
        assert!(aqp.ci.is_some());
        let stale_res = q.exact(&stale).unwrap();
        let corr = svc_corr(stale_res, &s_hat, &f_hat, &q, 0.25, &cfg).unwrap();
        assert!((corr.value - truth).abs() < 15.0);
    }

    #[test]
    fn max_correction_and_cantelli() {
        let (stale, fresh, s_hat, f_hat) = samples(0.25);
        let cfg = SvcConfig::default();
        let q = AggQuery::max(col("x"));
        let stale_res = q.exact(&stale).unwrap();
        let est = svc_corr(stale_res, &s_hat, &f_hat, &q, 0.25, &cfg).unwrap();
        let p = est.exceedance_probability.unwrap();
        assert!((0.0..=1.0).contains(&p));
        // The corrected max must be at least the stale max here (values only
        // increased).
        assert!(est.value >= stale_res);
        let truth = q.exact(&fresh).unwrap();
        assert!((est.value - truth).abs() <= 15.0);
    }

    #[test]
    fn selectivity_widens_intervals() {
        // Section 5.2.3: a more selective predicate → larger CI.
        let (_, _, _, f_hat) = samples(0.25);
        let cfg = SvcConfig::default();
        let broad = AggQuery::avg(col("x"));
        let narrow = AggQuery::avg(col("x")).filter(col("id").rem(lit(10i64)).eq(lit(0i64)));
        let b = svc_aqp(&f_hat, &broad, 0.25, &cfg).unwrap();
        let n = svc_aqp(&f_hat, &narrow, 0.25, &cfg).unwrap();
        assert!(n.predicate_rows < b.predicate_rows);
        assert!(n.ci.unwrap().half_width > b.ci.unwrap().half_width, "narrow CI should be wider");
    }

    #[test]
    fn empty_sample_errors() {
        let (_, _, _, f_hat) = samples(0.25);
        let q = AggQuery::avg(col("x")).filter(col("id").gt(lit(10_000i64)));
        assert!(svc_aqp(&f_hat, &q, 0.25, &SvcConfig::default()).is_err());
    }

    fn keyed(rows: &[(i64, f64)]) -> Table {
        let schema = Schema::from_pairs(&[("id", DataType::Int), ("x", DataType::Float)]).unwrap();
        let rows = rows.iter().map(|&(id, x)| vec![Value::Int(id), Value::Float(x)]).collect();
        Table::from_rows(schema, vec![0], rows).unwrap()
    }

    #[test]
    fn pass_pairs_rows_by_key() {
        let (clean, dirty) = (keyed(&[(1, 5.0), (2, 7.0)]), keyed(&[(2, 7.0), (1, 4.0)]));
        let q = AggQuery::sum(col("x"));
        let pass = correspond(Some(&dirty), &clean, &[], &q).unwrap();
        assert_eq!(pass.pairs, vec![(Some(4.0), Some(5.0)), (Some(7.0), Some(7.0))]);
        // `clean −̇ dirty` is what SVC+CORR adds to the stale answer.
        let est = svc_corr(100.0, &dirty, &clean, &q, 1.0, &SvcConfig::default()).unwrap();
        assert_eq!(est.value, 101.0);
    }

    #[test]
    fn pass_counts_missing_and_superfluous_keys_as_zero() {
        // Key 3 only in clean (a missing row now sampled); key 9 only in
        // dirty (a superfluous row removed by cleaning).
        let (clean, dirty) = (keyed(&[(1, 5.0), (3, 2.0)]), keyed(&[(9, 4.0), (1, 5.0)]));
        let q = AggQuery::sum(col("x"));
        let pass = correspond(Some(&dirty), &clean, &[], &q).unwrap();
        assert_eq!(pass.pairs, vec![(Some(5.0), Some(5.0)), (None, Some(2.0)), (Some(4.0), None)]);
        assert_eq!(pass.clean_rows, 2);
        let est = svc_corr(0.0, &dirty, &clean, &q, 1.0, &SvcConfig::default()).unwrap();
        assert_eq!(est.value, 2.0 - 4.0);
    }

    #[test]
    fn pass_keeps_predicate_failing_rows_without_a_value() {
        let clean = keyed(&[(1, 5.0), (2, -3.0)]);
        let q = AggQuery::avg(col("x")).filter(col("x").gt(lit(0.0)));
        // The failing row still counts toward sum/count's k, not avg's.
        assert_eq!(
            correspond(None, &clean, &[], &q).unwrap().pairs,
            vec![(None, Some(5.0)), (None, None)]
        );
        let est = svc_aqp(&clean, &q, 1.0, &SvcConfig::default()).unwrap();
        assert_eq!((est.value, est.sample_size, est.predicate_rows), (5.0, 2, 1));
    }

    /// The walk as it was, row at a time: a key per row, a lookup through
    /// the key index, the query's bound expressions evaluated on the row.
    fn row_walk(
        stale: Option<&Table>,
        clean: &Table,
        skip: &[&Table],
        q: &AggQuery,
    ) -> Vec<(Option<u64>, Option<u64>)> {
        let value = |t: &Table, row: &svc_storage::Row| {
            let attr = q.attr.bind(t.schema()).unwrap();
            let pred = q.predicate.as_ref().map(|p| p.bind(t.schema()).unwrap());
            let hit = pred.is_none_or(|p| p.matches(row));
            hit.then(|| attr.eval(row).as_f64()).flatten().map(f64::to_bits)
        };
        let skipped = |key: &KeyTuple| skip.iter().any(|o| o.contains_key(key));
        let mut pairs = Vec::new();
        for row in clean.rows() {
            let key = clean.key_of(row);
            if !skipped(&key) {
                let partner = stale.and_then(|s| s.get(&key).and_then(|r| value(s, r)));
                pairs.push((partner, value(clean, row)));
            }
        }
        for (s, row) in stale.iter().flat_map(|s| s.rows().iter().map(move |r| (*s, r))) {
            let key = s.key_of(row);
            if !clean.contains_key(&key) && !skipped(&key) {
                pairs.push((value(s, row), None));
            }
        }
        pairs
    }

    #[test]
    fn column_walk_equals_the_row_walk() {
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let schema = Schema::from_pairs(&[
            ("id", DataType::Int),
            ("x", DataType::Float),
            ("m", DataType::Int),
        ])
        .unwrap();
        // Cells from one draw: `x` Float or NULL; `m` a Mixed column of
        // NULL, Float, Str and Int cells.
        let row = |id: i64, r: u64| {
            let x = if r.is_multiple_of(7) { Value::Null } else { Value::Float((r % 50) as f64) };
            let m = match (r >> 8) % 5 {
                0 => Value::Null,
                1 => Value::Float(((r >> 16) % 100) as f64 / 4.0),
                2 => Value::str("s"),
                _ => Value::Int(((r >> 16) % 9) as i64),
            };
            vec![Value::Int(id), x, m]
        };
        let queries = [
            AggQuery::sum(col("x")),
            AggQuery::avg(col("m")).filter(col("x").gt(lit(20.0))),
            AggQuery::sum(col("x").div(col("m"))).filter(lit(1.0).lt(col("m").mul(lit(2i64)))),
            AggQuery::count().filter(col("m").rem(lit(2i64)).eq(lit(0i64)).or(col("x").is_null())),
        ];
        for round in 0..6 {
            let mut stale = Table::new(schema.clone(), &["id"]).unwrap();
            for id in 0..200 {
                stale.insert(row(id, next())).unwrap();
            }
            // The cleaned sample as a fold leaves it — the stale copy edited
            // in place, rows deleted (swap-removed) and appended — or, on
            // odd rounds, rebuilt in reverse order, so no row sits at its
            // partner's position.
            let mut clean = stale.clone();
            for id in 0..200 {
                match next() % 6 {
                    0 => drop(clean.delete(&KeyTuple(vec![Value::Int(id)]))),
                    1 => drop(clean.upsert(row(id, next())).unwrap()),
                    _ => {}
                }
            }
            for id in 200..230 {
                clean.insert(row(id, next())).unwrap();
            }
            if round % 2 == 1 {
                let rows = clean.rows().iter().rev().cloned().collect();
                clean = Table::from_rows(schema.clone(), vec![0], rows).unwrap();
            }
            let outliers = keyed(&[(3, 0.0), (150, 0.0), (210, 0.0)]);
            for q in &queries {
                for (s, skip) in
                    [(None, vec![]), (Some(&stale), vec![]), (Some(&stale), vec![&outliers])]
                {
                    let got = correspond(s, &clean, &skip, q).unwrap().pairs;
                    let got: Vec<_> = got
                        .into_iter()
                        .map(|(a, b)| (a.map(f64::to_bits), b.map(f64::to_bits)))
                        .collect();
                    assert_eq!(got, row_walk(s, &clean, &skip, q), "round {round} {q:?}");
                }
            }
        }
    }

    #[test]
    fn pass_walks_in_table_order_and_skips_outlier_keys() {
        let clean = keyed(&[(3, 1.0), (1, 2.0), (2, 3.0)]);
        let dirty = keyed(&[(8, 8.0), (2, 0.5), (7, 7.0)]);
        let q = AggQuery::sum(col("x"));
        // Clean rows as stored, then the stale-only rows as stored.
        let pass = correspond(Some(&dirty), &clean, &[], &q).unwrap();
        let walked = vec![
            (None, Some(1.0)),
            (None, Some(2.0)),
            (Some(0.5), Some(3.0)),
            (Some(8.0), None),
            (Some(7.0), None),
        ];
        assert_eq!(pass.pairs, walked);
        // Keys 1 and 7 are left out on both sides.
        let pass = correspond(Some(&dirty), &clean, &[&keyed(&[(1, 0.0), (7, 0.0)])], &q).unwrap();
        assert_eq!(pass.pairs, vec![(None, Some(1.0)), (Some(0.5), Some(3.0)), (Some(8.0), None)]);
        assert_eq!(pass.clean_rows, 2);
    }
}
