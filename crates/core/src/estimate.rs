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
//! * `median`/percentiles — the sample quantile with a distribution-free
//!   interval for SVC+AQP; for SVC+CORR, the stale view's CDF corrected
//!   and inverted, with Woodruff's interval (Section 5.2.5 bounds both by a
//!   bootstrap; neither draws a resample here);
//! * `min`/`max` — correction by extreme paired difference plus a Cantelli
//!   probability that a more extreme unsampled element exists
//!   (Appendix 12.1.1).
//!
//! SVC+AQP is the walk with no stale side. Each sample's predicate and
//! attribute are evaluated by the same kernels as `q(S)`
//! ([`AggQuery::bind`]) into one value slot per row it visits; the walk
//! pairs the slots by row position through the samples' pairing
//! ([`Table::paired_with`]). Definition 4's join on the key depends on the
//! two samples, not on the query, so it is built once per cleaned sample
//! and a burst of queries over it hashes no key. The finishers read the
//! walk as it goes, with no vector of pairs between: `sum`/`count` add up
//! `Σd` and `Σd²` in one pass, `avg` takes a second for the squared
//! deviations, and the order statistics and extremes collect only the
//! matching values, or the changed pairs. Rows are visited in table order,
//! so every sum — and with it every estimate — is bit-repeatable, and at
//! `m = 1` an SVC+AQP `sum`/`count`/`avg` is `q(Ŝ′)` bit for bit. Every
//! estimate counts the terms its interval rests on ([`Estimate::n_eff`]).
//!
//! An SVC+CORR order statistic corrects a count, not a quantile: the
//! fresh view's count of matching values at or below `x` is a `count`
//! query, so it is the stale view's exact count `N(x)` plus `(ĉ′(x) −
//! ĉ(x))/m` over the pairs whose slots differ — Theorem 1 cancels every
//! unchanged pair, as it does for `sum` and `count`. That estimate is
//! inverted at the type-7 positions `q(S)` is read at, so the step between
//! neighbouring answers is the full view's spacing, not the sample's; with
//! no changed pair the answer is `q(S)`, and at `m = 1` it is `q(S′)`, bit
//! for bit. `N` is read off the stale view's matching values, sorted once
//! per view state ([`Table::memoized_values`]), and the correction is
//! constant between consecutive changed values, so an inversion is one
//! binary search per such segment. Its interval maps the Horvitz–Thompson
//! interval of the count at the estimate through the same inverse
//! (Woodruff 1952). This needs the stale view itself, not only `q(S)`:
//! [`SvcView::estimate_corr`](crate::SvcView::estimate_corr) passes it, and
//! [`svc_corr`], which takes `q(S)`, refuses an order statistic.
//!
//! An SVC+CORR estimate is `Ŝ`'s summary plus the pairs that can differ.
//! The cleaned sample is usually the stale sample folded, which pairs by
//! position and names the rows the fold touched ([`Pairing::changed`]):
//! every other row of `Ŝ′` is `Ŝ`'s row at the same position, so its pair's
//! two slots are one slot and its difference is exactly zero (Theorem 1).
//! The walk then visits only the touched rows of `Ŝ′`, their partners in
//! `Ŝ` and `Ŝ`'s unmatched rows, each sample evaluated at those rows alone
//! — a few dozen of several hundred. The pairs it leaves out are counted
//! from `Ŝ`'s summary under the query: its rows under the predicate, `n`,
//! and their values' sum, `Σ`, in its table order, memoized on `Ŝ` beside
//! `q(S)` — one memo read under one key per estimate, evaluated once per
//! stale sample and stale view state. `sum`/`count` and the order
//! statistics read the visited pairs and `n`, and equal the walk over
//! every pair bit for bit. `avg` reads the clean mean as
//! `(Σ + δ)/(n + δn)`, with `δ` and `δn` summed over the pairs that
//! differ, so it is the same number whichever pairs a walk visited. A pairing by key lookup knows no untouched row
//! and visits every pair; so do SVC+AQP, `min`/`max` and the break-even
//! test, which read every row.

use std::sync::Arc;

use svc_stats::cantelli::cantelli_exceedance;
use svc_stats::clt::{horvitz_thompson_interval, mean_interval, ConfidenceInterval};
use svc_stats::moments::Moments;
use svc_stats::quantile::{binomial_ranks, quantile_in_place, quantile_of, woodruff_interval};
use svc_storage::pairing::Pairing;
use svc_storage::{Result, StorageError, Table};

use crate::config::SvcConfig;
use crate::query::{AggQuery, BoundQuery, QueryAgg};

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
    /// Rows of the sample satisfying the predicate (Section 5.2.3).
    pub predicate_rows: usize,
    /// Terms the interval rests on: the nonzero per-row differences for
    /// `sum`/`count`; for a median or percentile, the nonzero terms of the
    /// count at the estimate `x̂` — per row `1[y ≤ x̂] − p`, differenced for
    /// SVC+CORR, so an unchanged pair adds none; for `avg`, `min` and
    /// `max`, the rows under the predicate on either side.
    pub n_eff: usize,
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

/// One sample's value at one row of the walk: `x` where `hit`; no value
/// (and `x` = +0.0) where the row fails the predicate, its attribute is not
/// numeric, or the key is not in the sample.
///
/// Whether a row has a value is data — the query's literal decides it — so
/// the sample-mean finishers never branch on `hit`: they weigh a term by it
/// ([`Slot::weight`]) or set a sign bit from it ([`Slot::or_nothing`]), and
/// every row does the same work. A branch (or a float select, which the
/// compiler may turn into one) on `hit` mispredicts most near a selectivity
/// of one half, so a walk would cost more or less with the literal.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Slot {
    hit: bool,
    x: f64,
}

impl Slot {
    /// No value.
    pub(crate) const NONE: Slot = Slot { hit: false, x: 0.0 };

    /// The slot as an option.
    pub(crate) fn value(self) -> Option<f64> {
        self.hit.then_some(self.x)
    }

    /// Drop the value unless `keep`.
    pub(crate) fn keep_if(&mut self, keep: bool) {
        self.hit &= keep;
        self.x = f64::from_bits(self.x.to_bits() & 0u64.wrapping_sub(u64::from(keep)));
    }

    /// 1.0 where the slot holds a value, 0.0 where not.
    fn weight(self) -> f64 {
        f64::from(u8::from(self.hit))
    }

    /// The value, or −0.0 — the exact additive identity, so a sum may add
    /// every slot. (`x` is +0.0 where there is no value: only the sign bit
    /// changes.)
    fn or_nothing(self) -> f64 {
        f64::from_bits(self.x.to_bits() | (u64::from(!self.hit) << 63))
    }
}

impl From<Option<f64>> for Slot {
    fn from(v: Option<f64>) -> Slot {
        Slot { hit: v.is_some(), x: v.unwrap_or(0.0) }
    }
}

/// The corresponding samples `(Ŝ, Ŝ′)` joined by key under one query: the
/// pairs a walk visits, each sample's attribute value per pair ([`Slot`])
/// under Definition 4's "nulls are zero" full outer join (the zero left to
/// the finisher), and what the pairs it leaves out hold ([`Rest`]).
/// [`Correspondence::walk`] visits it.
pub(crate) struct Correspondence {
    /// Per visited pair, `Ŝ`'s slot; absent for SVC+AQP.
    stale: Option<Vec<Slot>>,
    /// Per visited pair, `Ŝ′`'s slot: the visited rows of `Ŝ′` in table
    /// order, then the rows only `Ŝ` has, in its table order. A skipped
    /// key's pair holds no value on either side.
    clean: Vec<Slot>,
    rest: Rest,
    /// Rows of `Ŝ′` not skipped.
    clean_rows: usize,
}

/// What a walk over the changed pairs leaves out: pairs whose two slots
/// are one slot — an untouched row of `Ŝ′` and `Ŝ`'s row at its position —
/// so each difference is exactly zero.
#[derive(Debug, Clone, Copy, Default)]
struct Rest {
    /// Pairs left out under the predicate: the one thing a zero difference
    /// adds to a finisher is a count.
    hits: usize,
    /// `Ŝ`'s rows not skipped ([`Summary::without`]): the stale mean `avg`
    /// corrects. `None` for SVC+AQP, and where no `avg` reads it.
    stale: Option<Summary>,
}

/// One sample under one query, in its table order: the rows with a value
/// (under the predicate, numeric), their values' sum from −0.0, and the
/// largest magnitude among them.
#[derive(Debug, Clone, Copy)]
struct Summary {
    hits: usize,
    sum: f64,
    bound: f64,
}

impl Summary {
    fn of(values: impl IntoIterator<Item = f64>) -> Summary {
        let mut total = Summary { hits: 0, sum: -0.0, bound: 0.0 };
        for x in values {
            total.hits += 1;
            total.sum += x;
            total.bound = total.bound.max(x.abs());
        }
        total
    }

    /// The count and sum without the values `rows` hold (their slots, in
    /// table order): the rows a skip set leaves in. `bound` stays.
    fn without(mut self, rows: impl IntoIterator<Item = Slot>) -> Summary {
        for x in rows.into_iter().filter_map(Slot::value) {
            self.hits -= 1;
            self.sum -= x;
        }
        self
    }

    /// Whether a pair whose two slots are one slot differs by exactly +0.0
    /// in every finisher: each value, and each value over `m`, is finite
    /// (the sum is NaN or infinite where a value is).
    fn zero_differences(&self, m: f64) -> bool {
        self.sum.is_finite() && (self.bound / m).is_finite()
    }
}

/// Per row of `t`: does a `skip` table hold its key? One lookup into `t`
/// per skip row (the skip tables share the samples' key), so an outlier
/// set, small next to a sample, is hashed instead of the sample. Empty when
/// there is nothing to skip.
fn skipped_rows(t: &Table, skip: &[&Table]) -> Vec<bool> {
    if skip.is_empty() {
        return Vec::new();
    }
    let mut skipped = vec![false; t.len()];
    for o in skip {
        for row in o.rows() {
            if let Some(i) = t.position(&o.key_of(row)) {
                skipped[i] = true;
            }
        }
    }
    skipped
}

/// The positions [`skipped_rows`] marks, increasing.
fn positions(skipped: &[bool]) -> impl Iterator<Item = usize> + '_ {
    skipped.iter().enumerate().filter_map(|(i, &s)| s.then_some(i))
}

/// Leave a skipped key out of a walk: a pair with no value on either side
/// adds nothing to any finisher.
fn leave_out(stale: &mut [Slot], clean: &mut [Slot], visit: usize) {
    if let Some(s) = stale.get_mut(visit) {
        *s = Slot::NONE;
    }
    clean[visit] = Slot::NONE;
}

/// Bind `q` to both samples, read each one's values once, from its column
/// slices, into one slot per row, and visit every pair. `stale` is absent
/// for SVC+AQP; rows whose key any `skip` table holds (the outlier sets of
/// Section 6.3) are left out on both sides. The pairing is memoized on the
/// cleaned sample.
pub(crate) fn correspond(
    stale: Option<&Table>,
    clean: &Table,
    skip: &[&Table],
    q: &AggQuery,
) -> Result<Correspondence> {
    let clean_skipped = skipped_rows(clean, skip);
    let clean_rows = clean.len() - positions(&clean_skipped).count();
    let Some(s) = stale else {
        let mut clean = q.bind(clean)?.values_by_row(clean);
        positions(&clean_skipped).for_each(|i| leave_out(&mut [], &mut clean, i));
        return Ok(Correspondence { stale: None, clean, rest: Rest::default(), clean_rows });
    };
    let values = q.bind(s)?.values_by_row(s);
    let pairing = clean.paired_with(s);
    let mut clean_slots = q.bind(clean)?.values_by_row(clean);
    let partners = pairing.partners().iter().map(|p| p.map_or(Slot::NONE, |j| values[j]));
    let mut stale_slots: Vec<Slot> =
        partners.chain(pairing.unmatched().iter().map(|&j| values[j])).collect();
    clean_slots.resize(stale_slots.len(), Slot::NONE);
    let stale_skipped = skipped_rows(s, skip);
    // A skipped row of `Ŝ` with a partner is left out with it.
    for i in positions(&clean_skipped) {
        leave_out(&mut stale_slots, &mut clean_slots, i);
    }
    for (k, &j) in pairing.unmatched().iter().enumerate() {
        if stale_skipped.get(j) == Some(&true) {
            leave_out(&mut stale_slots, &mut clean_slots, clean.len() + k);
        }
    }
    // Only `avg` reads the stale sample's total.
    let total = (q.agg == QueryAgg::Avg).then(|| {
        let total = Summary::of(values.iter().filter_map(|v| v.value()));
        total.without(positions(&stale_skipped).map(|j| values[j]))
    });
    let rest = Rest { hits: 0, stale: total };
    Ok(Correspondence { stale: Some(stale_slots), clean: clean_slots, rest, clean_rows })
}

/// SVC+CORR's walk over the pairs that can differ, when `clean` is `s`
/// folded and `pairing` was read off the fold: `Ŝ′`'s rows at `changed`
/// (the rows the fold touched, increasing), their partners in `Ŝ` and
/// `Ŝ`'s unmatched rows, each sample evaluated at those rows only, through
/// the column caches a whole evaluation reads. Every pair left out is an
/// untouched row of `Ŝ′` and `Ŝ`'s row at its position; `total`, `Ŝ`'s
/// summary under the query, counts what they hold.
fn changed_pairs(
    s: &Table,
    clean: &Table,
    pairing: &Pairing,
    changed: &[usize],
    skip: &[&Table],
    bound: &BoundQuery,
    total: Summary,
) -> Correspondence {
    let (clean_skipped, stale_skipped) = (skipped_rows(clean, skip), skipped_rows(s, skip));
    let (partners, unmatched) = (pairing.partners(), pairing.unmatched());
    // `Ŝ`'s rows the walk reads, and the skipped ones the summary gives back.
    let mut at: Vec<usize> = changed.iter().filter_map(|&i| partners[i]).collect();
    at.extend(unmatched.iter().copied().chain(positions(&stale_skipped)));
    at.sort_unstable();
    at.dedup();
    let values = bound.values_at(s, &at);
    let value = |j: usize| values[at.binary_search(&j).expect("a read row was evaluated")];
    let partner_values = changed.iter().map(|&i| partners[i].map_or(Slot::NONE, value));
    let mut stale_slots: Vec<Slot> =
        partner_values.chain(unmatched.iter().map(|&j| value(j))).collect();
    let mut clean_slots = bound.values_at(clean, changed);
    clean_slots.resize(stale_slots.len(), Slot::NONE);
    for (k, &i) in changed.iter().enumerate() {
        if clean_skipped.get(i) == Some(&true) {
            leave_out(&mut stale_slots, &mut clean_slots, k);
        }
    }
    for (k, &j) in unmatched.iter().enumerate() {
        if stale_skipped.get(j) == Some(&true) {
            leave_out(&mut stale_slots, &mut clean_slots, changed.len() + k);
        }
    }
    let read = values.iter().filter(|v| v.hit).count();
    let stale = total.without(positions(&stale_skipped).map(value));
    Correspondence {
        stale: Some(stale_slots),
        clean: clean_slots,
        rest: Rest { hits: total.hits - read, stale: Some(stale) },
        clean_rows: clean.len() - positions(&clean_skipped).count(),
    }
}

/// `Ŝ`'s summary under `q` and, when `view` is the stale view's table,
/// `q(S)` beside it: one read of `Ŝ`'s answer memo under one key, so a
/// burst of corrections over one stale sample evaluates both once per
/// stale view state.
fn memoized_summary(
    view: StaleView<'_>,
    sample: &Table,
    bound: &BoundQuery,
    q: &AggQuery,
) -> Result<(Option<f64>, Summary)> {
    let view = match view {
        StaleView::Table(t) => Some(t),
        _ => None,
    };
    // The query's `Debug` form, formatted once: `q(S)`'s key on the view,
    // and with the view state's id the key of the entry on `Ŝ`.
    let exact_key = format!("{q:?}");
    let mut key = format!("{exact_key} over the sample");
    if let Some(t) = view {
        key += &format!(", beside q(S) of state {}", t.state_id());
    }
    let memo = sample.memoized_values(key, || {
        // `q(S)` as `AggQuery::exact` answered it, if it has; computed
        // afresh otherwise, and kept on `Ŝ` alone.
        let exact = |t: &Table| t.memoized_answer(&exact_key).map_or_else(|| q.evaluate(t), Ok);
        let answer = view.map_or(Ok(f64::NAN), exact)?;
        let total = Summary::of(bound.matching_values(sample));
        Ok(vec![answer, total.hits as f64, total.sum, total.bound])
    })?;
    let total = Summary { hits: memo[1] as usize, sum: memo[2], bound: memo[3] };
    Ok((view.map(|_| memo[0]), total))
}

/// `sum / n`, 0 for no terms.
fn mean(sum: f64, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

fn nothing_selected(agg: QueryAgg) -> StorageError {
    StorageError::Invalid(format!("cannot estimate {agg:?}: no sample row satisfies the predicate"))
}

/// What a finisher read off the walk.
struct Tally {
    value: f64,
    half_width: Option<f64>,
    exceedance: Option<f64>,
    /// Clean-sample rows under the predicate.
    predicate_rows: usize,
    /// [`Estimate::n_eff`].
    n_eff: usize,
}

impl Correspondence {
    /// A cleaned sample's values with no stale side and nothing skipped.
    pub(crate) fn of_clean(clean: Vec<Option<f64>>) -> Correspondence {
        let clean: Vec<Slot> = clean.into_iter().map(Slot::from).collect();
        let clean_rows = clean.len();
        Correspondence { stale: None, clean, rest: Rest::default(), clean_rows }
    }

    /// The one walk: `f(stale, clean)` per visited pair, in order — the
    /// cleaned sample's visited rows in table order, each with its
    /// partner's slot, then the rows only the stale sample has, in its
    /// table order — leaving the skipped keys out.
    pub(crate) fn walk_slots(&self, mut f: impl FnMut(Slot, Slot)) {
        match &self.stale {
            None => self.clean.iter().for_each(|&c| f(Slot::NONE, c)),
            Some(stale) => stale.iter().zip(&self.clean).for_each(|(&s, &c)| f(s, c)),
        }
    }

    /// [`Correspondence::walk_slots`] with each slot as an option, for the
    /// finishers that keep or compare values.
    pub(crate) fn walk(&self, mut f: impl FnMut(Option<f64>, Option<f64>)) {
        self.walk_slots(|s, c| f(s.value(), c.value()));
    }

    /// Finish the walk into an estimate of `q`: `stale` is the stale full
    /// view SVC+CORR corrects, `None` for SVC+AQP.
    pub(crate) fn finish(
        &self,
        q: &AggQuery,
        stale: Option<StaleView<'_>>,
        m: f64,
        cfg: &SvcConfig,
    ) -> Result<Estimate> {
        let answer = || stale.map(|s| s.answer(q)).transpose();
        let tally = match q.agg {
            QueryAgg::Sum | QueryAgg::Count => self.total(q.agg, answer()?, m, cfg.confidence),
            QueryAgg::Avg => self.mean(answer()?, cfg.confidence)?,
            QueryAgg::Median | QueryAgg::Percentile(_) => {
                let view = stale.map(|s| s.sorted_values(q)).transpose()?;
                self.order_statistic(q.agg, view.as_deref(), m, cfg.confidence)?
            }
            QueryAgg::Min | QueryAgg::Max => self.extreme(q.agg, answer()?)?,
        };
        Ok(Estimate {
            value: tally.value,
            ci: tally.half_width.map(|half_width| ConfidenceInterval {
                estimate: tally.value,
                half_width,
                confidence: cfg.confidence,
            }),
            method: if stale.is_some() { Method::Correction } else { Method::AqpDirect },
            sample_size: self.clean_rows,
            predicate_rows: tally.predicate_rows,
            n_eff: tally.n_eff,
            exceedance_probability: tally.exceedance,
        })
    }

    /// `sum`/`count` (Section 5.2.1): `Σ dᵢ` over the per-row `trans`
    /// differences — `attr/m` for sum, `1/m` for count, 0 for a failed
    /// predicate — added to the stale answer, with the Horvitz–Thompson
    /// interval of a Bernoulli sample (η draws its size at random). One
    /// walk, in table order.
    fn total(&self, agg: QueryAgg, stale_result: Option<f64>, m: f64, confidence: f64) -> Tally {
        // `attr/m` or `1/m` weighed by the slot: 0 where there is no value.
        let trans = |v: Slot| v.weight() * if agg == QueryAgg::Sum { v.x / m } else { 1.0 / m };
        // −0.0 is the exact additive identity, as in `Iterator::sum`: at
        // m = 1 an SVC+AQP total is `q(Ŝ′)` bit for bit. A key with no value
        // on either side adds it, so every row does the same work.
        let (mut sum, mut squares, mut hits, mut nonzero) = (-0.0, 0.0, self.rest.hits, 0);
        self.walk_slots(|s, c| {
            hits += usize::from(c.hit);
            let d = Slot { hit: s.hit | c.hit, x: trans(c) - trans(s) }.or_nothing();
            sum += d;
            squares += d * d;
            nonzero += usize::from(d != 0.0);
        });
        // A pair left out under the predicate differs by +0.0: all it can
        // change is the sign of a zero sum.
        if self.rest.hits > 0 {
            sum += 0.0;
        }
        let ci = horvitz_thompson_interval(sum, squares, m, confidence);
        Tally {
            value: stale_result.map_or(sum, |base| base + sum),
            half_width: Some(ci.half_width),
            exceedance: None,
            predicate_rows: hits,
            n_eff: nonzero,
        }
    }

    /// `avg` (Section 5.2.1): the clean mean minus the stale mean over the
    /// rows under the predicate on each side, with a CLT interval from the
    /// variance of the per-row differences `d` over the pairs under it on
    /// either side. The clean sample's total and count are the stale
    /// sample's, `Σ` and `n`, plus `δ` and `δn` over the pairs whose slots
    /// differ; the squared deviations are `(d − d̄)²` over the pairs with
    /// `d ≠ 0` plus `d̄²` for each with `d = 0`. Every pair a walk may leave
    /// out adds nothing to either sum, so the estimate is the same, bit for
    /// bit, whichever pairs it visited. Two walks: the sums, then the
    /// deviations. A missing value adds −0.0 to a sum and 0 to a count:
    /// nothing, exactly, and no branch.
    fn mean(&self, stale_result: Option<f64>, confidence: f64) -> Result<Tally> {
        let stale = self.rest.stale.unwrap_or(Summary { hits: 0, sum: -0.0, bound: 0.0 });
        let (mut delta, mut delta_n, mut diffs, mut either) = (-0.0, 0, -0.0, self.rest.hits);
        self.walk_slots(|s, c| {
            let differ = (s.hit, s.x.to_bits()) != (c.hit, c.x.to_bits());
            delta += Slot { hit: differ, x: c.x - s.x }.or_nothing();
            delta_n += i64::from(c.hit) - i64::from(s.hit);
            diffs += Slot { hit: s.hit | c.hit, x: c.x - s.x }.or_nothing();
            either += usize::from(s.hit | c.hit);
        });
        let clean_hits = usize::try_from(stale.hits as i64 + delta_n).expect("a row count");
        if clean_hits == 0 {
            return Err(nothing_selected(QueryAgg::Avg));
        }
        // A stale sample with no row under the predicate gives SVC+CORR
        // nothing to difference against: the stale answer stands.
        let correction = if stale_result.is_some() && stale.hits == 0 {
            0.0
        } else {
            mean(stale.sum + delta, clean_hits) - mean(stale.sum, stale.hits)
        };
        let d_mean = mean(diffs, either);
        let (mut deviations, mut zeros) = (0.0, self.rest.hits);
        self.walk_slots(|s, c| {
            let (d, under) = (c.x - s.x, s.hit | c.hit);
            let e = d - d_mean;
            let mut square = Slot { hit: true, x: e * e };
            square.keep_if(under & (d != 0.0));
            deviations += square.x;
            zeros += usize::from(under & (d == 0.0));
        });
        deviations += zeros as f64 * (d_mean * d_mean);
        let variance = if either < 2 { 0.0 } else { deviations / (either - 1) as f64 };
        let ci = mean_interval(correction, variance, either as u64, confidence);
        Ok(Tally {
            value: stale_result.map_or(correction, |base| base + correction),
            half_width: Some(ci.half_width),
            exceedance: None,
            predicate_rows: clean_hits,
            n_eff: either,
        })
    }

    /// Order-statistic class (Section 5.2.5), with no resample.
    ///
    /// SVC+AQP: the `p`-quantile of the cleaned sample's matching values,
    /// and the distribution-free interval of a sample quantile
    /// ([`binomial_ranks`]), widened to be symmetric around it.
    ///
    /// SVC+CORR: the stale view's CDF (`view`, its matching values sorted)
    /// corrected by the pairs whose slots differ ([`CorrectedCdf`]) and
    /// inverted at the type-7 positions of its estimated count `N̂′`. The
    /// interval is Woodruff's: the Horvitz–Thompson half-width of those
    /// pairs' `Σ(1[y ≤ x̂] − p)/m`, a count, taken off the position on both
    /// sides and mapped through the same inverse. Its ends sit unevenly
    /// around `x̂` on a discrete column, so the half-width is the larger
    /// distance to an end, as AQP's is.
    fn order_statistic(
        &self,
        agg: QueryAgg,
        view: Option<&[f64]>,
        m: f64,
        confidence: f64,
    ) -> Result<Tally> {
        let p = agg.quantile_level().expect("an order statistic is a quantile");
        // The count's term of a value at the estimate `x̂`.
        let term = |y: f64, x: f64| f64::from(u8::from(y.total_cmp(&x).is_le())) - p;
        let Some(view) = view else {
            let mut values = Vec::new();
            self.walk(|_, c| values.extend(c));
            if values.is_empty() {
                return Err(nothing_selected(agg));
            }
            let n = values.len();
            let value = quantile_in_place(&mut values, p);
            let (lo, hi) = binomial_ranks(n, p, confidence);
            let mut select = |k| *values.select_nth_unstable_by(k, f64::total_cmp).1;
            let (lo, hi) = (select(lo), select(hi));
            return Ok(Tally {
                value,
                half_width: Some((value - lo).abs().max((hi - value).abs())),
                exceedance: None,
                predicate_rows: n,
                n_eff: values.iter().filter(|&&y| term(y, value) != 0.0).count(),
            });
        };
        let (mut hits, mut changed) = (self.rest.hits, Vec::new());
        self.walk_slots(|s, c| {
            hits += usize::from(c.hit);
            if (s.hit, s.x.to_bits()) != (c.hit, c.x.to_bits()) {
                changed.push((s, c));
            }
        });
        if hits == 0 {
            return Err(nothing_selected(agg));
        }
        let cdf = CorrectedCdf::new(view, &changed, m);
        let inverse = |rank: usize| cdf.inverse(rank as f64 + 1.0);
        let value = quantile_of(cdf.total(), p, inverse);
        // With the verifier on, prove the segment walk honest against the
        // materialized corrected CDF.
        #[cfg(feature = "verify")]
        assert_eq!(
            value.to_bits(),
            quantile_of(cdf.total(), p, |rank| brute_force_inverse(view, &changed, m, rank))
                .to_bits(),
            "the corrected CDF's segment walk differs from inverting it materialized"
        );
        let (mut squares, mut n_eff) = (0.0, 0);
        for &(s, c) in &changed {
            let d = (c.weight() * term(c.x, value) - s.weight() * term(s.x, value)) / m;
            squares += d * d;
            n_eff += usize::from(d != 0.0);
        }
        let count_half_width = horvitz_thompson_interval(0.0, squares, m, confidence).half_width;
        let (lo, hi) = woodruff_interval(p * (cdf.total() - 1.0), count_half_width, inverse);
        Ok(Tally {
            value,
            half_width: Some((value - lo).abs().max((hi - value).abs())),
            exceedance: None,
            predicate_rows: hits,
            n_eff,
        })
    }

    /// Extreme class (Appendix 12.1.1): the sample extreme, or for SVC+CORR
    /// the stale extreme moved by the extreme row-by-row difference over
    /// rows present in BOTH samples, with the Cantelli bound on a more
    /// extreme unsampled element.
    fn extreme(&self, agg: QueryAgg, stale_result: Option<f64>) -> Result<Tally> {
        debug_assert_eq!(self.rest.hits, 0, "an extreme reads every pair");
        let pick = if agg == QueryAgg::Min { f64::min } else { f64::max };
        let fold = |acc: Option<f64>, x: f64| Some(acc.map_or(x, |a| pick(a, x)));
        let (mut spread, mut clean, mut diff, mut either) = (Moments::new(), None, None, 0);
        self.walk(|s, c| {
            if let Some(x) = c {
                spread.push(x);
                clean = fold(clean, x);
            }
            if let (Some(s), Some(c)) = (s, c) {
                diff = fold(diff, c - s);
            }
            either += usize::from(s.is_some() || c.is_some());
        });
        let Some(clean) = clean else {
            return Err(nothing_selected(agg));
        };
        let value = match stale_result {
            None => clean,
            Some(stale_result) => diff.map_or(stale_result, |d| stale_result + d),
        };
        Ok(Tally {
            value,
            half_width: None,
            exceedance: Some(cantelli_exceedance(spread.variance(), (value - spread.mean()).abs())),
            predicate_rows: spread.count() as usize,
            n_eff: either,
        })
    }
}

/// The fresh view's count of matching values at or below `x`, as SVC+CORR
/// estimates it: `F̂′(x) = N(x) + k(x)/m`, the stale view's exact count
/// plus the changed pairs' count difference `k(x) = ĉ′(x) − ĉ(x)` scaled
/// by the sample. `k` only steps at a changed value, so `F̂′` is read per
/// segment between steps: a binary search in the view's values, never a
/// walk over them. Deletes make `k` negative and `F̂′` need not be
/// monotone; its inverse is the smallest value where it reaches a count.
struct CorrectedCdf<'a> {
    /// The stale view's matching values, in `total_cmp` order.
    view: &'a [f64],
    m: f64,
    segments: Vec<Segment>,
    /// The largest count `F̂′` reaches at a value: where a target above
    /// it is read.
    top: f64,
}

/// Values over which the correction `k` is constant: from `start`
/// (inclusive; `None`: the first segment, from −∞) to the next segment's
/// start. `view[at_start..end]` are the view's values inside it after
/// `start`, and `at_start` is `N(start)`.
struct Segment {
    start: Option<f64>,
    at_start: usize,
    end: usize,
    k: i64,
}

impl<'a> CorrectedCdf<'a> {
    /// The stale view's sorted matching values corrected by `changed`, the
    /// `(stale, clean)` slots of the pairs that differ, at ratio `m`.
    fn new(view: &'a [f64], changed: &[(Slot, Slot)], m: f64) -> CorrectedCdf<'a> {
        let mut steps: Vec<(f64, i64)> = changed
            .iter()
            .flat_map(|&(s, c)| [(c, 1), (s, -1)])
            .filter_map(|(v, d)| Some((v.value()?, d)))
            .collect();
        steps.sort_by(|a, b| a.0.total_cmp(&b.0));
        let below = |x: f64| view.partition_point(|v| v.total_cmp(&x).is_lt());
        let at_or_below = |x: f64| view.partition_point(|v| v.total_cmp(&x).is_le());
        let mut segments = vec![Segment { start: None, at_start: 0, end: view.len(), k: 0 }];
        for (x, d) in steps {
            let last = segments.last_mut().expect("the first segment");
            if last.start.is_some_and(|s| s.total_cmp(&x).is_eq()) {
                last.k += d;
                continue;
            }
            last.end = below(x);
            let k = last.k + d;
            segments.push(Segment { start: Some(x), at_start: at_or_below(x), end: view.len(), k });
        }
        // A segment's largest count is at its last value: the start, or
        // the last view value after it.
        let top = segments
            .iter()
            .filter(|g| g.start.is_some() || g.end > g.at_start)
            .map(|g| corrected_count(g.end, g.k, m))
            .fold(f64::NEG_INFINITY, f64::max);
        CorrectedCdf { view, m, segments, top }
    }

    fn count(&self, n: usize, k: i64) -> f64 {
        corrected_count(n, k, self.m)
    }

    /// The estimated count of matching values, `F̂′(∞)`.
    fn total(&self) -> f64 {
        let last = self.segments.last().expect("the first segment");
        self.count(self.view.len(), last.k)
    }

    /// The smallest value where `F̂′` reaches `target`, or reaches the
    /// largest count it reaches at all when that is below `target`.
    fn inverse(&self, target: f64) -> f64 {
        let target = target.min(self.top);
        for g in &self.segments {
            let reaches = |n: usize| self.count(n, g.k) >= target;
            if let Some(start) = g.start.filter(|_| reaches(g.at_start)) {
                return start;
            }
            if g.end > g.at_start && reaches(g.end) {
                return self.view[first_reaching(g.at_start + 1, g.end, reaches) - 1];
            }
        }
        unreachable!("the clamped target is reached where the count tops out")
    }
}

/// `F̂′` at a value with `n` view values at or below it and `k` changed
/// pairs' net count there, at ratio `m`.
fn corrected_count(n: usize, k: i64, m: f64) -> f64 {
    n as f64 + k as f64 / m
}

/// The smallest `n` in `lo..=hi` where `reaches`, which is false and then
/// true over that range; `hi` if it is only true there.
fn first_reaching(mut lo: usize, mut hi: usize, reaches: impl Fn(usize) -> bool) -> usize {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if reaches(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// [`CorrectedCdf::inverse`] at `rank + 1` by brute force: `F̂′`
/// materialized at every view value and every changed value, each count
/// taken over the whole view and every changed pair.
#[cfg(any(test, feature = "verify"))]
fn brute_force_inverse(view: &[f64], changed: &[(Slot, Slot)], m: f64, rank: usize) -> f64 {
    let mut points: Vec<f64> = view.to_vec();
    points.extend(changed.iter().flat_map(|&(s, c)| [s.value(), c.value()]).flatten());
    points.sort_by(f64::total_cmp);
    let le = |v: f64, x: f64| v.total_cmp(&x).is_le();
    let cdf: Vec<f64> = points
        .iter()
        .map(|&x| {
            let n = view.iter().filter(|&&v| le(v, x)).count();
            let side = |v: Slot| i64::from(v.value().is_some_and(|v| le(v, x)));
            let k: i64 = changed.iter().map(|&(s, c)| side(c) - side(s)).sum();
            corrected_count(n, k, m)
        })
        .collect();
    let target = (rank as f64 + 1.0).min(cdf.iter().copied().fold(f64::NEG_INFINITY, f64::max));
    points[cdf.iter().position(|&f| f >= target).expect("the top is reached")]
}

/// SVC+CORR's stale full view: the table itself, or only its answer.
#[derive(Debug, Clone, Copy)]
pub(crate) enum StaleView<'a> {
    /// The view's table: `q(S)` is read off it, and an order statistic's
    /// matching values.
    Table(&'a Table),
    /// `q(S)` alone, which corrects every aggregate but an order statistic.
    Answer(f64),
    /// An order statistic's read of the view: its matching values, sorted.
    Sorted(&'a Arc<[f64]>),
}

impl StaleView<'_> {
    /// `q(S)`.
    fn answer(self, q: &AggQuery) -> Result<f64> {
        match self {
            StaleView::Table(view) => q.exact(view),
            StaleView::Answer(answer) => Ok(answer),
            StaleView::Sorted(_) => unreachable!("only an order statistic reads sorted values"),
        }
    }

    /// The view's matching values in `total_cmp` order.
    fn sorted_values(self, q: &AggQuery) -> Result<Arc<[f64]>> {
        match self {
            StaleView::Table(view) => q.sorted_values(view, q.sorted_key()),
            StaleView::Answer(_) => Err(needs_the_view(q.agg)),
            StaleView::Sorted(values) => Ok(Arc::clone(values)),
        }
    }
}

fn needs_the_view(agg: QueryAgg) -> StorageError {
    StorageError::Invalid(format!(
        "cannot correct {agg:?} from q(S) alone: an order statistic corrects the stale view's \
         CDF, so use SvcView::estimate_corr"
    ))
}

/// The body of every estimator: walk the samples, finish by class. `stale`
/// is SVC+CORR's stale view and sample `Ŝ`; `skip` holds the outlier sets
/// whose rows are accounted for exactly elsewhere.
///
/// A correction walks the changed pairs when the cleaned sample pairs with
/// `Ŝ` by the positions of a fold that left some row untouched, its
/// finisher reads changed pairs (`sum`, `count`, `avg`, an order statistic)
/// and every untouched pair differs by exactly zero; it walks every pair
/// otherwise. The view and `Ŝ` are read under one memo key: `q(S)` beside
/// `Ŝ`'s summary, or for an order statistic both samples' sorted values.
pub(crate) fn estimate(
    stale: Option<(StaleView<'_>, &Table)>,
    clean_sample: &Table,
    skip: &[&Table],
    q: &AggQuery,
    m: f64,
    cfg: &SvcConfig,
) -> Result<Estimate> {
    let Some((view, sample)) = stale else {
        return correspond(None, clean_sample, skip, q)?.finish(q, None, m, cfg);
    };
    let pairing = clean_sample.paired_with(sample);
    let changed = pairing.changed().filter(|rows| rows.len() < clean_sample.len());
    let every = || correspond(Some(sample), clean_sample, skip, q);
    let sorted;
    let (pass, view) = match (q.agg, view) {
        (QueryAgg::Sum | QueryAgg::Count | QueryAgg::Avg, _)
            if changed.is_some() || matches!(view, StaleView::Table(_)) =>
        {
            let bound = q.bind(sample)?;
            let (answer, total) = memoized_summary(view, sample, &bound, q)?;
            let view = answer.map_or(view, StaleView::Answer);
            match changed.filter(|_| total.zero_differences(m)) {
                Some(rows) => {
                    (changed_pairs(sample, clean_sample, &pairing, rows, skip, &bound, total), view)
                }
                None => (every()?, view),
            }
        }
        (QueryAgg::Median | QueryAgg::Percentile(_), StaleView::Table(t)) if changed.is_some() => {
            let bound = q.bind(sample)?;
            let key = q.sorted_key();
            sorted = q.sorted_values(t, key.clone())?;
            // An order statistic reads the summary's count alone.
            let hits = q.sorted_values(sample, key)?.len();
            let total = Summary { hits, sum: f64::NAN, bound: f64::NAN };
            let rows = changed.expect("a guarded pairing");
            (
                changed_pairs(sample, clean_sample, &pairing, rows, skip, &bound, total),
                StaleView::Sorted(&sorted),
            )
        }
        _ => (every()?, view),
    };
    let est = pass.finish(q, Some(view), m, cfg);
    // With the verifier on, prove the changed-pairs walk honest: the walk
    // over every pair finishes to the same estimate, bit for bit.
    #[cfg(feature = "verify")]
    {
        let reference = every().and_then(|p| p.finish(q, Some(view), m, cfg));
        assert_eq!(
            estimate_bits(&est),
            estimate_bits(&reference),
            "a walk over the changed pairs differs from the walk over every pair: {q:?}"
        );
    }
    est
}

/// Every field of an estimate (or its error text), floats by bit pattern.
#[cfg(any(test, feature = "verify"))]
type EstimateBits = (u64, Option<(u64, u64)>, Option<u64>, usize, usize, usize, usize);

#[cfg(any(test, feature = "verify"))]
fn estimate_bits(e: &Result<Estimate>) -> std::result::Result<EstimateBits, String> {
    e.as_ref().map_err(ToString::to_string).map(|e| {
        (
            e.value.to_bits(),
            e.ci.map(|ci| (ci.estimate.to_bits(), ci.half_width.to_bits())),
            e.exceedance_probability.map(f64::to_bits),
            e.sample_size,
            e.predicate_rows,
            e.n_eff,
            usize::from(e.method == Method::Correction),
        )
    })
}

/// SVC+AQP: estimate `q(S′)` directly from the clean sample with scaling
/// factor `1/m` for sum/count and 1 for avg (Section 5.1).
pub fn svc_aqp(clean_sample: &Table, q: &AggQuery, m: f64, cfg: &SvcConfig) -> Result<Estimate> {
    estimate(None, clean_sample, &[], q, m, cfg)
}

/// SVC+CORR: estimate the correction `c = q(S′) − q(S)` from the
/// corresponding samples and add it to the stale full-view answer
/// (Section 5.1; bounds per Section 5.2.1 and Appendix 12.1.1). A median
/// or percentile corrects the stale view's CDF, which `q(S)` does not
/// carry: it is [`StorageError::Invalid`] here, and
/// [`SvcView::estimate_corr`](crate::SvcView::estimate_corr) answers it.
pub fn svc_corr(
    stale_result: f64,
    stale_sample: &Table,
    clean_sample: &Table,
    q: &AggQuery,
    m: f64,
    cfg: &SvcConfig,
) -> Result<Estimate> {
    if q.agg.quantile_level().is_some() {
        return Err(needs_the_view(q.agg));
    }
    estimate(Some((StaleView::Answer(stale_result), stale_sample)), clean_sample, &[], q, m, cfg)
}

/// Break-even test of Section 5.2.2, read off the same walk: SVC+CORR has
/// the lower variance while `σ²_S ≤ 2·cov(S, S′)`, both over the rows
/// present in both samples. Two walks: the means, then the deviations.
pub(crate) fn break_even(
    stale_sample: &Table,
    clean_sample: &Table,
    q: &AggQuery,
) -> Result<Method> {
    let pass = correspond(Some(stale_sample), clean_sample, &[], q)?;
    let (mut clean, mut stale) = ((0.0, 0), (0.0, 0));
    pass.walk(|s, c| {
        if let Some(c) = c {
            clean = (clean.0 + c, clean.1 + 1);
            if let Some(s) = s {
                stale = (stale.0 + s, stale.1 + 1);
            }
        }
    });
    let (stale_mean, clean_mean) = (mean(stale.0, stale.1), mean(clean.0, clean.1));
    let (mut squares, mut co_moment) = (0.0, 0.0);
    pass.walk(|s, c| {
        if let (Some(s), Some(c)) = (s, c) {
            squares += (s - stale_mean) * (s - stale_mean);
            co_moment += (s - stale_mean) * (c - clean_mean);
        }
    });
    let (variance, cov) = match stale.1 {
        0 | 1 => (0.0, 0.0),
        n => (squares / (n - 1) as f64, co_moment / (n - 1) as f64),
    };
    Ok(if variance <= 2.0 * cov { Method::Correction } else { Method::AqpDirect })
}

/// The stale baseline as an [`Estimate`] (for uniform reporting).
pub fn stale_answer(stale_result: f64) -> Estimate {
    Estimate {
        value: stale_result,
        ci: None,
        method: Method::Stale,
        sample_size: 0,
        predicate_rows: 0,
        n_eff: 0,
        exceedance_probability: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svc_relalg::scalar::{col, lit};
    use svc_sampling::operator::sample_by_key;
    use svc_storage::{DataType, HashSpec, KeyTuple, Schema, StagedEdits, Value};

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

    /// SVC+CORR through the stale view itself, as `SvcView::estimate_corr`
    /// passes it.
    fn corr_by_view(
        view: &Table,
        stale_sample: &Table,
        clean_sample: &Table,
        q: &AggQuery,
        m: f64,
    ) -> Estimate {
        let stale = Some((StaleView::Table(view), stale_sample));
        estimate(stale, clean_sample, &[], q, m, &SvcConfig::default()).unwrap()
    }

    #[test]
    fn median_estimates_with_draw_free_intervals() {
        let (stale, fresh, s_hat, f_hat) = samples(0.25);
        let cfg = SvcConfig::default();
        for q in [AggQuery::median(col("x")), AggQuery::percentile(col("x"), 0.9)] {
            let truth = q.exact(&fresh).unwrap();
            let aqp = svc_aqp(&f_hat, &q, 0.25, &cfg).unwrap();
            assert!((aqp.value - truth).abs() < 15.0);
            assert!(aqp.ci.unwrap().contains(truth), "{q:?}: AQP {aqp:?} against {truth}");
            let corr = corr_by_view(&stale, &s_hat, &f_hat, &q, 0.25);
            assert!((corr.value - truth).abs() < 15.0);
            assert!(corr.ci.unwrap().contains(truth), "{q:?}: CORR {corr:?} against {truth}");
            // `q(S)` alone does not carry the stale view's CDF.
            let stale_result = q.exact(&stale).unwrap();
            let err = svc_corr(stale_result, &s_hat, &f_hat, &q, 0.25, &cfg).unwrap_err();
            assert!(err.to_string().contains("SvcView::estimate_corr"), "{err}");
        }
    }

    /// The CORR median's interval rests on the key pairs that changed: with
    /// most keys unchanged it is narrower than AQP's. A correction whose
    /// stale sample holds no value still has one.
    #[test]
    fn corr_median_intervals_are_key_paired() {
        let (stale, _, s_hat, f_hat) = samples(0.25);
        let q = AggQuery::median(col("x"));
        let corr = corr_by_view(&stale, &s_hat, &f_hat, &q, 0.25);
        let aqp = svc_aqp(&f_hat, &q, 0.25, &SvcConfig::default()).unwrap();
        let (corr_hw, aqp_hw) = (corr.ci.unwrap().half_width, aqp.ci.unwrap().half_width);
        assert!(corr_hw < aqp_hw, "CORR {corr_hw} against AQP {aqp_hw}");
        // One key only in Ŝ, another only in Ŝ′, a view of three values.
        let view = keyed(&[(1, 4.0), (3, 6.0), (5, 8.0)]);
        let (dirty, clean) = (keyed(&[(1, 4.0)]), keyed(&[(2, 9.0)]));
        let est = corr_by_view(&view, &dirty, &clean, &q, 0.5);
        // F̂′ = N − 2·1[x ≥ 4] + 2·1[x ≥ 9] reads −1, 0, 1 and 3 at 4, 6, 8
        // and 9: N̂′ = 3, and the median is where the count first reaches 2.
        assert_eq!(est.value, 9.0);
        assert!(est.ci.unwrap().half_width > 0.0);
        assert_eq!(est.n_eff, 2);
    }

    /// `(stale view, fresh view)` pairs whose CDFs are hard to invert:
    /// ties with ±0, a two-valued (step) column, spread values, and deletes
    /// of the low values that drive the correction negative. Each fresh
    /// view updates, deletes and inserts rows.
    fn cdf_cases() -> Vec<(Table, Table)> {
        let shapes: [fn(i64) -> f64; 4] = [
            |i| [0.0, -0.0, 1.0, 1.0, 2.5][(i % 5) as usize],
            |i| f64::from(u8::from(i % 3 == 0)),
            |i| ((i * 37) % 101) as f64 / 7.0,
            |i| (i % 17) as f64,
        ];
        shapes
            .iter()
            .enumerate()
            .map(|(case, x)| {
                let stale: Vec<_> = (0..300).map(|i| (i, x(i))).collect();
                let mut fresh = Vec::new();
                for &(i, v) in &stale {
                    match (case, i % 7) {
                        (3, _) if v < 6.0 && i % 2 == 0 => {} // delete low values
                        (_, 0) => fresh.push((i, x(i * 3 + 1))),
                        (_, 1) => {}
                        _ => fresh.push((i, v)),
                    }
                }
                fresh.extend((300..360).map(|i| (i, x(i * 5))));
                (keyed(&stale), keyed(&fresh))
            })
            .collect()
    }

    /// The corrected CDF materialized at every value, inverted at the type-7
    /// positions `q(S)` is read at: the reference of the segment walk.
    fn materialized_quantile(view: &[f64], changed: &[(Slot, Slot)], m: f64, p: f64) -> f64 {
        let k: i64 = changed.iter().map(|(s, c)| i64::from(c.hit) - i64::from(s.hit)).sum();
        let n = view.len() as f64 + k as f64 / m;
        let at = |rank: usize| brute_force_inverse(view, changed, m, rank);
        if n == 1.0 {
            return at(0);
        }
        let pos = (p * (n - 1.0)).max(0.0);
        let (lo, hi) = (at(pos.floor() as usize), at(pos.ceil() as usize));
        lo + (hi - lo) * (pos - pos.floor())
    }

    #[test]
    fn corrected_quantiles_equal_the_materialized_cdf() {
        for (case, (stale, fresh)) in cdf_cases().into_iter().enumerate() {
            for (m, seed) in [(0.3, 1), (0.5, 2), (0.1, 3)] {
                let spec = HashSpec::with_seed(seed);
                let (s_hat, f_hat) =
                    (sample_by_key(&stale, m, spec), sample_by_key(&fresh, m, spec));
                for p in [0.0, 0.37, 0.5, 1.0] {
                    for q in [AggQuery::percentile(col("x"), p), AggQuery::median(col("x"))] {
                        let q = q.filter(col("id").rem(lit(11i64)).ne(lit(4i64)));
                        let est = corr_by_view(&stale, &s_hat, &f_hat, &q, m);
                        let mut view = q.bind(&stale).unwrap().matching_values(&stale);
                        view.sort_by(f64::total_cmp);
                        let mut changed = Vec::new();
                        correspond(Some(&s_hat), &f_hat, &[], &q).unwrap().walk_slots(|s, c| {
                            if s.value().map(f64::to_bits) != c.value().map(f64::to_bits) {
                                changed.push((s, c));
                            }
                        });
                        let level = q.agg.quantile_level().unwrap();
                        let want = materialized_quantile(&view, &changed, m, level);
                        let label = format!("case {case} m {m} {q:?}");
                        assert_eq!(est.value.to_bits(), want.to_bits(), "{label}");
                        let ci = est.ci.unwrap();
                        assert!(ci.half_width >= 0.0, "{label}");
                        // No changed pair: q(S). The whole views (m = 1): q(S′).
                        let same = corr_by_view(&stale, &s_hat, &s_hat, &q, m);
                        let stale_answer = q.exact(&stale).unwrap();
                        assert_eq!(same.value.to_bits(), stale_answer.to_bits(), "{label}");
                        assert_eq!((same.ci.unwrap().half_width, same.n_eff), (0.0, 0), "{label}");
                        let whole = corr_by_view(&stale, &stale, &fresh, &q, 1.0);
                        let fresh_answer = q.exact(&fresh).unwrap();
                        assert_eq!(whole.value.to_bits(), fresh_answer.to_bits(), "{label}");
                    }
                }
            }
        }
        // A correction that deletes more than the view holds below a value
        // keeps the count there negative: the inverse never lands on it.
        let view = keyed(&[(1, 1.0), (2, 2.0), (3, 3.0)]);
        let (dirty, clean) = (keyed(&[(1, 1.0), (2, 2.0)]), keyed(&[(4, 3.0)]));
        let est = corr_by_view(&view, &dirty, &clean, &AggQuery::median(col("x")), 0.5);
        assert_eq!(est.value, 3.0);
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
        assert_eq!(visits(&pass), vec![(Some(4.0), Some(5.0)), (Some(7.0), Some(7.0))]);
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
        assert_eq!(
            visits(&pass),
            vec![(Some(5.0), Some(5.0)), (None, Some(2.0)), (Some(4.0), None)]
        );
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
            visits(&correspond(None, &clean, &[], &q).unwrap()),
            vec![(None, Some(5.0)), (None, None)]
        );
        let est = svc_aqp(&clean, &q, 1.0, &SvcConfig::default()).unwrap();
        assert_eq!((est.value, est.sample_size, est.predicate_rows), (5.0, 2, 1));
    }

    /// The walk as it was, row at a time: a key per row, a lookup through
    /// the key index, the query's bound expressions evaluated on the row; a
    /// skipped key is a pair with no value on either side.
    fn row_walk(
        stale: Option<&Table>,
        clean: &Table,
        skip: &[&Table],
        q: &AggQuery,
    ) -> Vec<(Option<u64>, Option<u64>)> {
        let value = |t: &Table, row: &[svc_storage::Value]| {
            let attr = q.attr.bind(t.schema()).unwrap();
            let pred = q.predicate.as_ref().map(|p| p.bind(t.schema()).unwrap());
            let hit = pred.is_none_or(|p| p.matches(row));
            hit.then(|| attr.eval(row).as_f64()).flatten().map(f64::to_bits)
        };
        let skipped = |key: &KeyTuple| skip.iter().any(|o| o.contains_key(key));
        let mut pairs = Vec::new();
        for row in clean.rows() {
            let key = clean.key_of(row);
            if skipped(&key) {
                pairs.push((None, None));
            } else {
                let partner = stale.and_then(|s| s.get(&key).and_then(|r| value(s, r)));
                pairs.push((partner, value(clean, row)));
            }
        }
        for (s, row) in stale.iter().flat_map(|s| s.rows().iter().map(move |r| (*s, r))) {
            let key = s.key_of(row);
            if !clean.contains_key(&key) {
                pairs.push(if skipped(&key) { (None, None) } else { (value(s, row), None) });
            }
        }
        pairs
    }

    /// What the walk visits, in order.
    fn visits(pass: &Correspondence) -> Vec<(Option<f64>, Option<f64>)> {
        let mut out = Vec::new();
        pass.walk(|s, c| out.push((s, c)));
        out
    }

    /// [`correspond`]'s walk, floats by bit pattern.
    fn walk(
        stale: Option<&Table>,
        clean: &Table,
        skip: &[&Table],
        q: &AggQuery,
    ) -> Vec<(Option<u64>, Option<u64>)> {
        let pairs = visits(&correspond(stale, clean, skip, q).unwrap()).into_iter();
        pairs.map(|(a, b)| (a.map(f64::to_bits), b.map(f64::to_bits))).collect()
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
        for round in 0..6i64 {
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
                    let got = walk(s, &clean, &skip, q);
                    assert_eq!(got, row_walk(s, &clean, &skip, q), "round {round} {q:?}");
                }
            }
            // Every walk above but the first read the pairing memoized on
            // `clean`; an edit of either sample must reach the next walk.
            let q = &queries[1];
            stale.delete(&KeyTuple(vec![Value::Int(round)]));
            assert_eq!(walk(Some(&stale), &clean, &[], q), row_walk(Some(&stale), &clean, &[], q));
            clean.insert(row(300 + round, next())).unwrap();
            assert_eq!(walk(Some(&stale), &clean, &[], q), row_walk(Some(&stale), &clean, &[], q));
        }
    }

    /// The walk over the changed pairs finishes like the walk over every
    /// pair, bit for bit, under every aggregate, with and without a skip
    /// set: on a fold holding updates, deletions, appended rows and a key
    /// deleted then put back, over values with NULLs, ±0 and rows failing
    /// the predicate — and, with a NaN in the sample, by walking every pair.
    #[test]
    fn changed_pairs_finish_like_every_pair() {
        let schema = Schema::from_pairs(&[("id", DataType::Int), ("x", DataType::Float)]).unwrap();
        let value = |i: i64| match i % 29 {
            0 => Value::Null,
            1 => Value::Float(-0.0),
            _ => Value::Float(((i * 37) % 101) as f64 / 4.0 - 5.0),
        };
        let cfg = SvcConfig::default();
        let m = 0.5;
        for nan in [false, true] {
            let rows = (0..600i64).map(|i| {
                let x = if nan && i % 50 == 7 { Value::Float(f64::NAN) } else { value(i) };
                vec![Value::Int(i), x]
            });
            let view = Table::from_rows(schema.clone(), vec![0], rows.collect()).unwrap();
            let sample = sample_by_key(&view, m, HashSpec::with_seed(3));
            let mut folded = sample.clone();
            let mut edits = StagedEdits::default();
            for (k, row) in sample.rows().iter().enumerate() {
                match k % 9 {
                    0 => edits.delete(&folded, row.clone()),
                    1 => edits.put(&folded, vec![row[0].clone(), value(k as i64 * 5 + 2)]),
                    _ => {}
                }
            }
            for i in 600..640i64 {
                edits.put(&folded, vec![Value::Int(i), value(i)]);
            }
            folded.apply_edits(edits);
            let back = folded.rows()[2].clone();
            for put in [false, true] {
                let mut edits = StagedEdits::default();
                if put {
                    edits.put(&folded, back.clone());
                } else {
                    edits.delete(&folded, back.clone());
                }
                folded.apply_edits(edits);
            }
            let pairing = folded.paired_with(&sample);
            let changed = pairing.changed().expect("a fold pairs by position").len();
            assert!(0 < changed && changed < folded.len(), "{changed} of {}", folded.len());
            let skip = keyed(&[(3, 0.0), (40, 0.0), (77, 0.0), (610, 0.0), (599, 0.0)]);
            for q in [
                AggQuery::sum(col("x")),
                AggQuery::count(),
                AggQuery::avg(col("x")),
                AggQuery::median(col("x")),
                AggQuery::percentile(col("x"), 0.9),
                AggQuery::min(col("x")),
                AggQuery::max(col("x")),
            ] {
                // An extreme's Cantelli bound panics on a NaN variance.
                if nan && q.agg.quantile_level().is_none() && !q.agg.is_sample_mean() {
                    continue;
                }
                for q in [q.clone(), q.filter(col("x").gt(lit(0.0)))] {
                    for skip in [vec![], vec![&skip]] {
                        let view_arg = StaleView::Table(&view);
                        let got = estimate(Some((view_arg, &sample)), &folded, &skip, &q, m, &cfg);
                        let every = correspond(Some(&sample), &folded, &skip, &q)
                            .and_then(|pass| pass.finish(&q, Some(view_arg), m, &cfg));
                        let label = format!("nan {nan}, {} skipped: {q:?}", skip.len());
                        assert_eq!(estimate_bits(&got), estimate_bits(&every), "{label}");
                        assert!(got.is_ok(), "{label}");
                    }
                }
            }
            // A sum walks the changed pairs only, once its summary is
            // memoized — unless a NaN keeps an untouched pair's difference
            // from being an exact zero. (The verifier also walks every pair.)
            let q = AggQuery::sum(col("x"));
            let rows = crate::query::rows_evaluated();
            estimate(Some((StaleView::Table(&view), &sample)), &folded, &[], &q, m, &cfg).unwrap();
            let read = crate::query::rows_evaluated() - rows;
            assert!(cfg!(feature = "verify") || (read < sample.len()) != nan, "{read} rows read");
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
        assert_eq!(visits(&pass), walked);
        // Keys 1 and 7 are left out on both sides: pairs with no value.
        let pass = correspond(Some(&dirty), &clean, &[&keyed(&[(1, 0.0), (7, 0.0)])], &q).unwrap();
        assert_eq!(
            visits(&pass),
            vec![
                (None, Some(1.0)),
                (None, None),
                (Some(0.5), Some(3.0)),
                (Some(8.0), None),
                (None, None)
            ]
        );
        assert_eq!(pass.clean_rows, 2);
    }

    #[test]
    fn aqp_at_ratio_one_is_the_exact_answer() {
        // At m = 1 the sample is the whole view: the Horvitz–Thompson
        // half-width is 0, so only the exact answer lies in the interval.
        let cfg = SvcConfig::default();
        for n in [10i64, 100, 1000] {
            let rows =
                (0..n).map(|i| (i, ((i * 7919) % 1009) as f64 / 3.0 - 97.1 + 0.1 * i as f64));
            let t = keyed(&rows.collect::<Vec<_>>());
            let sample = sample_by_key(&t, 1.0, HashSpec::with_seed(5));
            assert_eq!(sample.len(), t.len());
            for base in [AggQuery::sum(col("x")), AggQuery::count(), AggQuery::avg(col("x"))] {
                for q in [base.clone(), base.filter(col("x").gt(lit(10.0)))] {
                    let exact = q.exact(&t).unwrap();
                    let est = svc_aqp(&sample, &q, 1.0, &cfg).unwrap();
                    assert_eq!(est.value.to_bits(), exact.to_bits(), "n = {n}: {q:?}");
                    if q.agg != QueryAgg::Avg {
                        let ci = est.ci.unwrap();
                        assert_eq!(ci.half_width, 0.0, "n = {n}: {q:?}");
                        assert!(ci.contains(exact), "n = {n}: {q:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn n_eff_counts_the_terms_an_interval_rests_on() {
        // Key 1 unchanged (a zero difference), key 2 updated, key 3 only in
        // Ŝ′, key 4 only in Ŝ, key 5 failing the predicate on both sides
        // and key 6 failing it only in Ŝ′.
        let clean = keyed(&[(1, 5.0), (2, 8.0), (3, 2.0), (5, -1.0), (6, -4.0)]);
        let dirty = keyed(&[(1, 5.0), (2, 6.0), (4, 3.0), (5, -2.0), (6, 4.0)]);
        let cfg = SvcConfig::default();
        let positive = |q: AggQuery| q.filter(col("x").gt(lit(0.0)));
        let n_eff = |q: AggQuery| svc_corr(0.0, &dirty, &clean, &q, 0.5, &cfg).unwrap().n_eff;
        // sum: nonzero differences at keys 2, 3, 4 and 6.
        assert_eq!(n_eff(positive(AggQuery::sum(col("x")))), 4);
        // count: keys 3, 4 and 6 enter or leave the predicate; key 2 stays.
        assert_eq!(n_eff(positive(AggQuery::count())), 3);
        // avg and max: rows under the predicate on either side.
        for q in [AggQuery::avg(col("x")), AggQuery::max(col("x"))] {
            assert_eq!(n_eff(positive(q)), 5);
        }
        // median: the changed pairs whose term at the estimate differs. With
        // the stale sample as the view the estimate is 2, so key 2 (6 → 8)
        // stays above it and adds nothing, and keys 3, 4 and 6 do.
        let median = positive(AggQuery::median(col("x")));
        let median = corr_by_view(&dirty, &dirty, &clean, &median, 0.5);
        assert_eq!((median.value, median.n_eff), (2.0, 3));
        // Without a predicate every row is under it, and key 5 differs.
        assert_eq!(n_eff(AggQuery::sum(col("x"))), 5);
        assert_eq!(n_eff(AggQuery::avg(col("x"))), 6);
        // SVC+AQP: every clean row under the predicate is a nonzero term.
        let aqp = svc_aqp(&clean, &positive(AggQuery::sum(col("x"))), 0.5, &cfg).unwrap();
        assert_eq!((aqp.n_eff, aqp.predicate_rows, aqp.sample_size), (3, 3, 5));
    }
}
