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

use svc_relalg::exec::column::{compile_expr, compile_pred, ColExpr, ColPred};
use svc_relalg::exec::SelVec;
use svc_relalg::scalar::{lit, Expr};
use svc_storage::{ColumnSet, Result, Row, StorageError, Table};

use svc_stats::quantile::quantile_in_place;

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
        table.memoized(format!("{self:?}"), || {
            Ok(aggregate(self.agg, self.bind(table)?.matching_values(table).into_iter()))
        })
    }
}

/// `agg` over plain values, `NaN` where an empty input has no answer — the
/// one definition behind [`AggQuery::exact`], the estimators' order
/// statistics and extremes, and the outlier rows' exact contribution.
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
            quantile_in_place(&mut values, if let QueryAgg::Percentile(p) = agg { p } else { 0.5 })
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
    /// Feed `f` the row position and numeric attribute value of every row
    /// of `table` the predicate selects, in table order (NULL and
    /// non-numeric values are skipped). `table` has the schema the query
    /// was bound to.
    fn scan(&self, table: &Table, mut f: impl FnMut(usize, f64)) {
        let cols = ColumnSet {
            cols: self.columns.iter().map(|&c| table.column(c)).collect(),
            len: table.len(),
        };
        let mut sel = SelVec::range(0, table.len());
        let mut scratch = Row::new();
        if let Some(p) = &self.predicate {
            p.apply(&cols, &mut sel, &mut scratch);
        }
        self.attr.for_each_f64(&cols, &sel, &mut scratch, |i, v| {
            if let Some(v) = v {
                f(i, v);
            }
        });
    }

    /// Numeric attribute values of predicate-satisfying rows, in table
    /// order (NULLs and non-numeric values are skipped).
    pub fn matching_values(&self, table: &Table) -> Vec<f64> {
        let mut out = Vec::new();
        self.scan(table, |_, v| out.push(v));
        out
    }

    /// One entry per row of `table`: its numeric attribute value if it
    /// satisfies the predicate, `None` otherwise — what the estimators'
    /// correspondence walk pairs by row position.
    pub(crate) fn values_by_row(&self, table: &Table) -> Vec<Option<f64>> {
        let mut out = vec![None; table.len()];
        self.scan(table, |i, v| out[i] = Some(v));
        out
    }
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
    use svc_storage::{DataType, Schema, Value};

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
        assert_eq!(q.exact(&t).unwrap(), 42.0);
        // A hit reads no column: released columns stay released.
        t.release_columns();
        let builds = Table::column_build_count();
        assert_eq!(q.exact(&t).unwrap(), 42.0);
        assert_eq!(Table::column_build_count(), builds);
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
        assert_eq!(q.exact(&t).unwrap(), 52.0);
        // A clone's memo starts empty: its first answer builds its column.
        let (copy, builds) = (t.clone(), Table::column_build_count());
        assert_eq!(q.exact(&copy).unwrap(), 52.0);
        assert_eq!(Table::column_build_count(), builds + 1);
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
