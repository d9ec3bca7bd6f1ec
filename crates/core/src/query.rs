//! Aggregate queries over views: `SELECT agg(attr) FROM View WHERE cond(*)`
//! (the query class of Problem 2; group-by is modeled as part of the
//! condition, exactly as footnote 1 of the paper does).
//!
//! A query is answered from column slices, never row by row. Binding it to
//! a table ([`AggQuery::bind`]) resolves every column it names against the
//! table's full schema — so an unknown or ambiguous name fails exactly as
//! before — and keeps only those columns, renumbered densely in the order
//! the query names them. The predicate compiles to a selection kernel and
//! the attribute to the column evaluator (`svc_relalg::exec::column`).
//! Reading the bound query against a table fetches just those columns from
//! the table's per-column cache, so a burst of queries between mutations
//! builds each named column once and never touches the others. Selected
//! rows come out in table order, which keeps every sum — `q(S)` here, the
//! estimators' walks in [`crate::estimate`] — bit-identical to a row walk.
//!
//! The exact answer itself is memoized on the table state it was read from
//! ([`AggQuery::exact`] through [`Table::memoized`]): between two
//! maintenances the stale view does not change, so a burst of SVC+CORR
//! estimates evaluates each `q(S)` once and then pays only the sample walk.
//! Views commit by swapping in a new table, so a maintained view's next
//! answer is read from its new rows.

use std::sync::Arc;

use svc_relalg::exec::column::{compile_expr, compile_pred, ColExpr, ColPred};
use svc_relalg::exec::SelVec;
use svc_relalg::scalar::{lit, Expr};
use svc_storage::{ColumnSet, Result, Row, StorageError, Table};

use svc_stats::quantile::quantile_in_place;

use crate::estimate::Slot;

/// The aggregate function of a query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueryAgg {
    /// `sum(attr)`.
    Sum,
    /// `count(1)` over rows satisfying the predicate.
    Count,
    /// `avg(attr)`.
    Avg,
    /// `median(attr)`.
    Median,
    /// `percentile(attr, p)` with `p ∈ [0,1]`.
    Percentile(f64),
    /// `min(attr)`.
    Min,
    /// `max(attr)`.
    Max,
}

impl QueryAgg {
    /// True for the sample-mean class with analytic CLT bounds
    /// (Section 5.2.1).
    pub fn is_sample_mean(&self) -> bool {
        matches!(self, QueryAgg::Sum | QueryAgg::Count | QueryAgg::Avg)
    }

    /// The quantile level of `median` (0.5) or `percentile(p)` (`p`);
    /// `None` for every other aggregate.
    pub fn quantile_level(&self) -> Option<f64> {
        match *self {
            QueryAgg::Median => Some(0.5),
            QueryAgg::Percentile(p) => Some(p),
            _ => None,
        }
    }
}

/// An aggregate query, written over a view's public schema. It evaluates
/// against whatever table it is bound to: [`crate::SvcView`] rewrites it
/// through the view's public projection and binds it to the canonical
/// state, the free-standing estimators bind it as given.
#[derive(Debug, Clone, PartialEq)]
pub struct AggQuery {
    /// The aggregate.
    pub agg: QueryAgg,
    /// Aggregated attribute expression.
    pub attr: Expr,
    /// Row predicate (`None` = all rows).
    pub predicate: Option<Expr>,
}

impl AggQuery {
    /// `SELECT sum(attr) ...`
    pub fn sum(attr: Expr) -> AggQuery {
        AggQuery { agg: QueryAgg::Sum, attr, predicate: None }
    }

    /// `SELECT count(1) ...`
    pub fn count() -> AggQuery {
        AggQuery { agg: QueryAgg::Count, attr: lit(1i64), predicate: None }
    }

    /// `SELECT avg(attr) ...`
    pub fn avg(attr: Expr) -> AggQuery {
        AggQuery { agg: QueryAgg::Avg, attr, predicate: None }
    }

    /// `SELECT median(attr) ...`
    pub fn median(attr: Expr) -> AggQuery {
        AggQuery { agg: QueryAgg::Median, attr, predicate: None }
    }

    /// `SELECT percentile(attr, p) ...`
    pub fn percentile(attr: Expr, p: f64) -> AggQuery {
        AggQuery { agg: QueryAgg::Percentile(p), attr, predicate: None }
    }

    /// `SELECT min(attr) ...`
    pub fn min(attr: Expr) -> AggQuery {
        AggQuery { agg: QueryAgg::Min, attr, predicate: None }
    }

    /// `SELECT max(attr) ...`
    pub fn max(attr: Expr) -> AggQuery {
        AggQuery { agg: QueryAgg::Max, attr, predicate: None }
    }

    /// Attach a WHERE predicate.
    pub fn filter(mut self, predicate: Expr) -> AggQuery {
        self.predicate = Some(predicate);
        self
    }

    /// Bind attr and predicate against a table's schema, through only the
    /// columns they name. A percentile level outside `[0, 1]` (or NaN) is
    /// rejected here, so no answer path reaches the quantile with it.
    pub fn bind(&self, table: &Table) -> Result<BoundQuery> {
        if let QueryAgg::Percentile(p) = self.agg {
            if !(0.0..=1.0).contains(&p) {
                return Err(StorageError::Invalid(format!("percentile level {p} outside [0, 1]")));
            }
        }
        let schema = table.schema();
        let mut columns: Vec<usize> = Vec::new();
        let named = self.attr.referenced_columns().into_iter();
        for name in named.chain(self.predicate.iter().flat_map(Expr::referenced_columns)) {
            let i = schema.resolve(name)?;
            if !columns.contains(&i) {
                columns.push(i);
            }
        }
        // A name resolves in the narrowed schema to the column it resolved
        // to in the full one: an exact match stays exact, and a unique
        // suffix match cannot gain a rival from a subset of the fields.
        let narrow = schema.project(&columns);
        let predicate = match &self.predicate {
            Some(p) => Some(compile_pred(&p.bind(&narrow)?)),
            None => None,
        };
        Ok(BoundQuery { attr: compile_expr(&self.attr.bind(&narrow)?), predicate, columns })
    }

    /// Evaluate exactly on a full table (no sampling, no scaling): the
    /// ground-truth answer `q(S)`, folded in table order — only the order
    /// statistics hold the matching values at once. Read through the
    /// table's answer memo ([`Table::memoized`]) under the query's `Debug`
    /// form, which spells every float literal exactly: the same query over
    /// an unchanged table state is evaluated once.
    pub fn exact(&self, table: &Table) -> Result<f64> {
        table.memoized(format!("{self:?}"), || self.evaluate(table))
    }

    /// `q(table)` computed afresh: [`AggQuery::exact`] without the memo.
    pub(crate) fn evaluate(&self, table: &Table) -> Result<f64> {
        Ok(aggregate(self.agg, self.bind(table)?.matching_values(table).into_iter()))
    }

    /// The memo key of [`AggQuery::sorted_values`]: the attribute and
    /// predicate, so every quantile level of one column and predicate
    /// shares one sort.
    pub(crate) fn sorted_key(&self) -> String {
        format!("sorted {:?} where {:?}", self.attr, self.predicate)
    }

    /// The matching values of `table` in `f64::total_cmp` order: the CDF an
    /// SVC+CORR order statistic corrects. Memoized on the table state
    /// ([`Table::memoized_values`]) under `key`, [`AggQuery::sorted_key`].
    pub(crate) fn sorted_values(&self, table: &Table, key: String) -> Result<Arc<[f64]>> {
        table.memoized_values(key, || {
            let mut values = self.bind(table)?.matching_values(table);
            values.sort_unstable_by(f64::total_cmp);
            Ok(values)
        })
    }
}

/// `agg` over plain values, `NaN` where an empty input has no answer — the
/// one definition behind [`AggQuery::exact`] and the outlier rows' exact
/// contribution.
pub(crate) fn aggregate(agg: QueryAgg, values: impl Iterator<Item = f64>) -> f64 {
    match agg {
        QueryAgg::Sum => values.sum(),
        QueryAgg::Count => values.count() as f64,
        QueryAgg::Min => values.reduce(f64::min).unwrap_or(f64::NAN),
        QueryAgg::Max => values.reduce(f64::max).unwrap_or(f64::NAN),
        QueryAgg::Avg => {
            let mut n = 0usize;
            let sum: f64 = values.inspect(|_| n += 1).sum();
            if n == 0 {
                f64::NAN
            } else {
                sum / n as f64
            }
        }
        QueryAgg::Median | QueryAgg::Percentile(_) => {
            let mut values: Vec<f64> = values.collect();
            if values.is_empty() {
                return f64::NAN;
            }
            quantile_in_place(&mut values, agg.quantile_level().expect("a quantile"))
        }
    }
}

/// A query bound to a table's schema through the columns it names:
/// `columns` are their positions in the table, and the compiled attribute
/// and predicate address them densely, in that order.
pub struct BoundQuery {
    columns: Vec<usize>,
    attr: ColExpr,
    predicate: Option<ColPred>,
}

impl BoundQuery {
    /// The columns the query names, read from `table`'s column cache, and
    /// the rows among `sel` its predicate selects. `table` has the schema
    /// the query was bound to.
    fn select(&self, table: &Table, mut sel: SelVec, scratch: &mut Row) -> (ColumnSet, SelVec) {
        ROWS_EVALUATED.add(sel.len() as u64);
        let cols = ColumnSet {
            cols: self.columns.iter().map(|&c| table.column(c)).collect(),
            len: table.len(),
        };
        if let Some(p) = &self.predicate {
            p.apply(&cols, &mut sel, scratch);
        }
        (cols, sel)
    }

    /// Numeric attribute values of predicate-satisfying rows, in table
    /// order (NULLs and non-numeric values are skipped).
    pub fn matching_values(&self, table: &Table) -> Vec<f64> {
        let mut scratch = Row::new();
        let (cols, sel) = self.select(table, SelVec::range(0, table.len()), &mut scratch);
        let mut out = Vec::new();
        self.attr.for_each_f64(&cols, &sel, &mut scratch, |_, v| out.extend(v));
        out
    }

    /// One slot per row of `table`: its numeric attribute value if it
    /// satisfies the predicate, none otherwise — what the estimators'
    /// correspondence walk pairs by row position. The attribute is read on
    /// every row, over whole column slices, and the rows the predicate drops
    /// are then cleared: a sample costs the same whatever share of it the
    /// predicate selects. (Reading a dropped row is safe: the attribute's
    /// evaluation is total — NULL where it has no value, never a panic.)
    pub(crate) fn values_by_row(&self, table: &Table) -> Vec<Slot> {
        let mut scratch = Row::new();
        let n = table.len();
        let (cols, sel) = self.select(table, SelVec::range(0, n), &mut scratch);
        let mut out = Vec::with_capacity(n);
        let dense = SelVec::range(0, n);
        self.attr.for_each_f64(&cols, &dense, &mut scratch, |_, v| out.push(Slot::from(v)));
        if let SelVec::Idx(kept) = sel {
            let mut selected = vec![false; n];
            for i in kept {
                selected[i as usize] = true;
            }
            for (slot, selected) in out.iter_mut().zip(selected) {
                slot.keep_if(selected);
            }
        }
        out
    }

    /// [`BoundQuery::values_by_row`] at the rows `at` (increasing) only, one
    /// slot per entry of `at`: evaluated through the same kernels, over the
    /// same column cache, and cleared where the predicate drops the row.
    pub(crate) fn values_at(&self, table: &Table, at: &[usize]) -> Vec<Slot> {
        let mut out = Vec::with_capacity(at.len());
        if at.is_empty() {
            return out;
        }
        let mut scratch = Row::new();
        let rows = SelVec::Idx(at.iter().map(|&i| i as u32).collect());
        let (cols, sel) = self.select(table, rows.clone(), &mut scratch);
        self.attr.for_each_f64(&cols, &rows, &mut scratch, |_, v| out.push(Slot::from(v)));
        let mut kept = sel.iter().peekable();
        for (slot, &i) in out.iter_mut().zip(at) {
            slot.keep_if(kept.next_if_eq(&i).is_some());
        }
        out
    }
}

thread_local! {
    static ROWS_EVALUATED_CELL: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Per-thread count of table rows a bound query was evaluated at (see
/// [`rows_evaluated`]).
static ROWS_EVALUATED: svc_telemetry::LocalCounter =
    svc_telemetry::LocalCounter::new(&ROWS_EVALUATED_CELL);

/// Table rows a bound query was evaluated at **on this thread** since it
/// started: every row an exact answer, a sorted view, a summary or an
/// estimate's slots read. The cost-shape hook for "an SVC+CORR estimate
/// evaluates the samples at its changed pairs only"; same mechanism as
/// [`Table::clone_count`].
pub fn rows_evaluated() -> usize {
    ROWS_EVALUATED.get() as usize
}

/// Relative error `|est − truth| / |truth|` (the paper's accuracy metric),
/// with an absolute fallback when the truth is ~0.
pub fn relative_error(estimate: f64, truth: f64) -> f64 {
    if truth.abs() < 1e-12 {
        estimate.abs()
    } else {
        (estimate - truth).abs() / truth.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svc_relalg::scalar::col;
    use svc_storage::{DataType, Schema, StagedEdits, Value};

    fn table() -> Table {
        let schema = Schema::from_pairs(&[("id", DataType::Int), ("x", DataType::Float)]).unwrap();
        let mut t = Table::new(schema, &["id"]).unwrap();
        for i in 0..10i64 {
            t.insert(vec![Value::Int(i), Value::Float(i as f64)]).unwrap();
        }
        t
    }

    #[test]
    fn exact_aggregates() {
        let t = table();
        assert_eq!(AggQuery::sum(col("x")).exact(&t).unwrap(), 45.0);
        assert_eq!(AggQuery::count().exact(&t).unwrap(), 10.0);
        assert_eq!(AggQuery::avg(col("x")).exact(&t).unwrap(), 4.5);
        assert_eq!(AggQuery::median(col("x")).exact(&t).unwrap(), 4.5);
        assert_eq!(AggQuery::min(col("x")).exact(&t).unwrap(), 0.0);
        assert_eq!(AggQuery::max(col("x")).exact(&t).unwrap(), 9.0);
        assert_eq!(AggQuery::percentile(col("x"), 1.0).exact(&t).unwrap(), 9.0);
    }

    #[test]
    fn predicate_filters() {
        let t = table();
        let q = AggQuery::count().filter(col("x").ge(lit(5.0)));
        assert_eq!(q.exact(&t).unwrap(), 5.0);
        let q = AggQuery::sum(col("x")).filter(col("id").lt(lit(3i64)));
        assert_eq!(q.exact(&t).unwrap(), 3.0);
    }

    #[test]
    fn relative_error_metric() {
        assert_eq!(relative_error(110.0, 100.0), 0.1);
        assert_eq!(relative_error(90.0, 100.0), 0.1);
        assert_eq!(relative_error(5.0, 0.0), 5.0);
    }

    #[test]
    fn empty_avg_is_nan() {
        let t = table();
        let q = AggQuery::avg(col("x")).filter(col("id").gt(lit(100i64)));
        assert!(q.exact(&t).unwrap().is_nan());
    }

    #[test]
    fn empty_min_max_are_nan() {
        let t = table();
        for q in [AggQuery::min(col("x")), AggQuery::max(col("x"))] {
            assert!(q.filter(col("id").gt(lit(100i64))).exact(&t).unwrap().is_nan());
        }
    }

    #[test]
    fn exact_answers_are_memoized_per_table_state() {
        let mut t = table();
        let q = AggQuery::sum(col("x")).filter(col("x").gt(lit(2.0)));
        let answers = Table::answer_count();
        assert_eq!(q.exact(&t).unwrap(), 42.0);
        assert_eq!(Table::answer_count(), answers + 1, "a miss computes the answer");
        // A hit computes nothing and builds no column: the answer is read
        // off the table's memo, under the query's key.
        let builds = Table::column_build_count();
        assert_eq!(q.exact(&t).unwrap(), 42.0);
        assert_eq!(Table::answer_count(), answers + 1, "a hit computes nothing");
        assert_eq!(Table::column_build_count(), builds);
        assert_eq!(t.memoized(format!("{q:?}"), || panic!("recomputed")).unwrap(), 42.0);
        // Literals that differ only in sign or in the last bit are distinct
        // keys.
        let signed = |zero: f64| AggQuery::max(col("x").mul(lit(zero))).exact(&t).unwrap();
        assert_eq!((signed(0.0).to_bits(), signed(-0.0).to_bits()), (0, (-0.0f64).to_bits()));
        let p = AggQuery::percentile(col("x"), 0.5);
        let next = AggQuery::percentile(col("x"), f64::from_bits(0.5f64.to_bits() + 1));
        assert_eq!(p.exact(&t).unwrap(), 4.5);
        assert_ne!(next.exact(&t).unwrap(), 4.5);
        // An error is not stored: it recurs.
        for _ in 0..2 {
            assert!(AggQuery::sum(col("nope")).exact(&t).is_err());
        }
        // A mutation drops the memo.
        t.upsert(vec![Value::Int(9), Value::Float(19.0)]).unwrap();
        let answers = Table::answer_count();
        assert_eq!(q.exact(&t).unwrap(), 52.0);
        assert_eq!(Table::answer_count(), answers + 1);
        // A clone's memo starts empty, but it shares its source's columns:
        // its first answer builds none.
        let (copy, builds) = (t.clone(), Table::column_build_count());
        assert_eq!(q.exact(&copy).unwrap(), 52.0);
        assert_eq!(Table::column_build_count(), builds);
        assert_eq!(Table::answer_count(), answers + 2);
        // A state reached by keyed edits answers afresh, from the column its
        // origin built, derived rather than extracted — even once the origin
        // and its clone are gone.
        let mut next = copy.clone();
        let mut edits = StagedEdits::default();
        edits.put(&next, vec![Value::Int(9), Value::Float(29.0)]);
        next.apply_edits(edits);
        drop((t, copy));
        let extracts = Table::column_extract_count();
        assert_eq!(q.exact(&next).unwrap(), 62.0);
        assert_eq!(Table::column_build_count(), builds + 1);
        assert_eq!(Table::column_extract_count(), extracts);
    }

    #[test]
    fn out_of_range_percentiles_are_rejected_where_the_query_is_bound() {
        let t = table();
        for p in [1.5, -0.1, f64::NAN, f64::INFINITY] {
            let err = AggQuery::percentile(col("x"), p).exact(&t).unwrap_err();
            assert!(matches!(err, StorageError::Invalid(_)), "{p}: {err}");
            assert!(AggQuery::percentile(col("x"), p).bind(&t).is_err(), "{p}");
        }
        assert_eq!(AggQuery::percentile(col("x"), 0.0).exact(&t).unwrap(), 0.0);
    }

    #[test]
    fn binding_names_only_the_query_columns_and_keeps_name_errors() {
        let t = table();
        let bound = AggQuery::sum(col("x")).filter(col("x").gt(lit(2.0))).bind(&t).unwrap();
        assert_eq!(bound.columns, vec![1]);
        assert_eq!(AggQuery::count().bind(&t).unwrap().columns, Vec::<usize>::new());
        let err = AggQuery::sum(col("nope")).exact(&t).unwrap_err();
        assert!(matches!(err, StorageError::ColumnNotFound { .. }), "{err}");
    }
}
