//! Aggregate queries over views: `SELECT agg(attr) FROM View WHERE cond(*)`
//! (the query class of Problem 2; group-by is modeled as part of the
//! condition, exactly as footnote 1 of the paper does).

use svc_relalg::scalar::{lit, BoundExpr, Expr};
use svc_storage::{Result, Table};

use svc_stats::quantile::quantile_sorted;

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

    /// Bind attr and predicate against a table's schema.
    pub fn bind(&self, table: &Table) -> Result<BoundQuery> {
        Ok(BoundQuery {
            attr: self.attr.bind(table.schema())?,
            predicate: self.predicate.as_ref().map(|p| p.bind(table.schema())).transpose()?,
        })
    }

    /// Evaluate exactly on a full table (no sampling, no scaling): the
    /// ground-truth answer `q(S)`, folded in table order — only the order
    /// statistics hold the matching values at once.
    pub fn exact(&self, table: &Table) -> Result<f64> {
        let bound = self.bind(table)?;
        Ok(aggregate(self.agg, table.rows().iter().filter_map(|r| bound.value(r))))
    }
}

/// `agg` over plain values, `NaN` where an empty input has no answer — the
/// one definition behind [`AggQuery::exact`], the estimators' order
/// statistics and extremes, and the outlier rows' exact contribution.
pub(crate) fn aggregate(agg: QueryAgg, values: impl Iterator<Item = f64>) -> f64 {
    match agg {
        QueryAgg::Sum => values.sum(),
        QueryAgg::Count => values.count() as f64,
        QueryAgg::Min => values.fold(f64::INFINITY, f64::min),
        QueryAgg::Max => values.fold(f64::NEG_INFINITY, f64::max),
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
            let mut sorted: Vec<f64> = values.collect();
            if sorted.is_empty() {
                return f64::NAN;
            }
            sorted.sort_by(f64::total_cmp);
            quantile_sorted(&sorted, if let QueryAgg::Percentile(p) = agg { p } else { 0.5 })
        }
    }
}

/// A query bound to a concrete schema.
pub struct BoundQuery {
    /// Bound attribute expression.
    pub attr: BoundExpr,
    /// Bound predicate.
    pub predicate: Option<BoundExpr>,
}

impl BoundQuery {
    /// Does `row` satisfy the predicate?
    pub fn matches(&self, row: &svc_storage::Row) -> bool {
        self.predicate.as_ref().is_none_or(|p| p.matches(row))
    }

    /// The row's numeric attribute value, if it satisfies the predicate
    /// (NULLs and non-numeric values give `None`).
    pub(crate) fn value(&self, row: &svc_storage::Row) -> Option<f64> {
        if self.matches(row) {
            self.attr.eval(row).as_f64()
        } else {
            None
        }
    }

    /// Numeric attribute values of predicate-satisfying rows (NULLs and
    /// non-numeric values are skipped).
    pub fn matching_values(&self, table: &Table) -> Vec<f64> {
        table.rows().iter().filter_map(|r| self.value(r)).collect()
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
}
