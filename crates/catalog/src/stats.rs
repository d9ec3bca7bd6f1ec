//! Per-table and per-column statistics, maintained incrementally under
//! deltas.
//!
//! The incremental contract (what the property tests pin down): after
//! applying a delta set, the stats equal a rebuild-from-scratch over the
//! post-delta rows *with the same shape* ([`TableStats::rebuilt_like`]:
//! same histogram boundaries) —
//!
//! * **exactly** for row counts, null counts, and histogram cells (both
//!   directions of a delta are exact: `∇R` carries full old rows);
//! * **exactly** for min/max and the distinct sketch under insert-only
//!   deltas;
//! * as a **conservative bound** for min/max (`stored min ≤ true min`,
//!   `stored max ≥ true max`) and the sketch (estimate ≥ true count) once
//!   deletions are involved — registers cannot forget, and a deleted
//!   extremum cannot be un-seen without a rescan. [`TableStats::staleness`]
//!   reports the deleted fraction so the catalog can schedule a rebuild.

use svc_storage::{DataType, Schema, Table, Value};

use crate::histogram::Histogram;
use crate::sketch::DistinctSketch;

/// Cells per equi-width histogram.
const HISTOGRAM_BUCKETS: usize = 64;

/// Statistics of one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Number of NULLs.
    pub nulls: u64,
    /// Smallest numeric value seen (None for non-numeric columns or when
    /// no non-null value was seen). A lower bound once rows were deleted.
    pub min: Option<f64>,
    /// Largest numeric value seen; an upper bound once rows were deleted.
    pub max: Option<f64>,
    /// Distinct-value register sketch.
    pub sketch: DistinctSketch,
    /// Equi-width histogram (numeric columns with at least one value).
    pub histogram: Option<Histogram>,
}

impl ColumnStats {
    /// Estimated distinct-value count, clamped to at least 1.
    pub fn distinct(&self) -> f64 {
        self.sketch.estimate().max(1.0)
    }
}

/// Statistics of one table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableStats {
    /// Current row count (exact under incremental maintenance).
    pub rows: u64,
    /// The schema the column stats are aligned with.
    pub schema: Schema,
    /// Per-column stats, positionally aligned with `schema`.
    pub cols: Vec<ColumnStats>,
    /// Rows deleted since the histograms/sketches were (re)built; drives
    /// the rebuild policy.
    pub deleted_since_build: u64,
    rows_at_build: u64,
}

fn numeric(dtype: DataType) -> bool {
    matches!(dtype, DataType::Int | DataType::Float)
}

impl TableStats {
    /// Build stats from a table: one pass for min/max/nulls/sketches, one
    /// to fill the histograms (whose boundaries need the min/max).
    pub fn build(table: &Table) -> TableStats {
        let schema = table.schema().clone();
        let mut cols: Vec<ColumnStats> = schema
            .fields()
            .iter()
            .map(|_| ColumnStats {
                nulls: 0,
                min: None,
                max: None,
                sketch: DistinctSketch::default(),
                histogram: None,
            })
            .collect();
        for row in table.rows() {
            for (c, v) in cols.iter_mut().zip(row.iter()) {
                observe(c, v);
            }
        }
        for (c, f) in cols.iter_mut().zip(schema.fields()) {
            if let (true, Some(lo), Some(hi)) = (numeric(f.dtype), c.min, c.max) {
                c.histogram = Some(Histogram::new(lo, hi, HISTOGRAM_BUCKETS));
            }
        }
        for row in table.rows() {
            for (c, v) in cols.iter_mut().zip(row.iter()) {
                if let (Some(h), Some(x)) = (c.histogram.as_mut(), v.as_f64()) {
                    h.add(x);
                }
            }
        }
        let rows = table.len() as u64;
        TableStats { rows, schema, cols, deleted_since_build: 0, rows_at_build: rows }
    }

    /// Rebuild from scratch over `table` with this object's shape — the
    /// histogram boundaries preserved — so the result is directly
    /// comparable with incrementally-maintained stats.
    pub fn rebuilt_like(&self, table: &Table) -> TableStats {
        let mut out = TableStats {
            rows: 0,
            schema: self.schema.clone(),
            cols: self
                .cols
                .iter()
                .map(|c| ColumnStats {
                    nulls: 0,
                    min: None,
                    max: None,
                    sketch: DistinctSketch::default(),
                    histogram: c.histogram.as_ref().map(|h| {
                        let (lo, hi) = h.range();
                        Histogram::new(lo, hi, HISTOGRAM_BUCKETS)
                    }),
                })
                .collect(),
            deleted_since_build: 0,
            rows_at_build: table.len() as u64,
        };
        out.apply_inserts(table.rows());
        out
    }

    /// Fold inserted rows into the stats.
    pub fn apply_inserts<R: AsRef<[Value]>>(&mut self, rows: &[R]) {
        self.rows += rows.len() as u64;
        for row in rows {
            for (c, v) in self.cols.iter_mut().zip(row.as_ref()) {
                observe(c, v);
                if let (Some(h), Some(x)) = (c.histogram.as_mut(), v.as_f64()) {
                    h.add(x);
                }
            }
        }
    }

    /// Fold deleted rows out of the stats. Counts and histogram cells are
    /// exact; min/max and the sketch stay as conservative bounds.
    pub fn apply_deletes<R: AsRef<[Value]>>(&mut self, rows: &[R]) {
        self.rows = self.rows.saturating_sub(rows.len() as u64);
        self.deleted_since_build += rows.len() as u64;
        for row in rows {
            for (c, v) in self.cols.iter_mut().zip(row.as_ref()) {
                if v.is_null() {
                    c.nulls = c.nulls.saturating_sub(1);
                }
                if let (Some(h), Some(x)) = (c.histogram.as_mut(), v.as_f64()) {
                    h.remove(x);
                }
            }
        }
    }

    /// Deleted fraction since the last (re)build: the conservative-bound
    /// error budget already spent.
    pub fn staleness(&self) -> f64 {
        if self.rows_at_build == 0 {
            return if self.deleted_since_build > 0 { 1.0 } else { 0.0 };
        }
        self.deleted_since_build as f64 / self.rows_at_build as f64
    }

    /// Per-column distinct estimate (1 when the column is unknown).
    pub fn distinct(&self, col: usize) -> f64 {
        self.cols.get(col).map_or(1.0, |c| c.distinct().min(self.rows.max(1) as f64))
    }
}

fn observe(c: &mut ColumnStats, v: &Value) {
    if v.is_null() {
        c.nulls += 1;
        return;
    }
    c.sketch.insert(v);
    if let Some(x) = v.as_f64() {
        c.min = Some(c.min.map_or(x, |m| m.min(x)));
        c.max = Some(c.max.map_or(x, |m| m.max(x)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svc_storage::{DataType, Schema, Table, Value};

    fn table(n: i64) -> Table {
        let schema = Schema::from_pairs(&[
            ("id", DataType::Int),
            ("x", DataType::Float),
            ("tag", DataType::Str),
        ])
        .unwrap();
        let mut t = Table::new(schema, &["id"]).unwrap();
        for i in 0..n {
            let x = if i % 10 == 0 { Value::Null } else { Value::Float((i % 50) as f64) };
            t.insert(vec![Value::Int(i), x, Value::str(format!("t{}", i % 7))]).unwrap();
        }
        t
    }

    #[test]
    fn build_captures_counts_bounds_and_distincts() {
        let t = table(1_000);
        let s = TableStats::build(&t);
        assert_eq!(s.rows, 1_000);
        assert_eq!(s.cols[1].nulls, 100);
        assert_eq!(s.cols[1].min, Some(1.0));
        assert_eq!(s.cols[1].max, Some(49.0));
        assert!((s.distinct(0) - 1_000.0).abs() / 1_000.0 < 0.12, "id ndv {}", s.distinct(0));
        assert!((s.distinct(2) - 7.0).abs() < 1.5, "tag ndv {}", s.distinct(2));
        assert!(s.cols[2].histogram.is_none(), "no histogram on strings");
    }

    #[test]
    fn incremental_inserts_match_rebuild_exactly() {
        let t = table(500);
        let mut s = TableStats::build(&t);
        let mut t2 = t;
        let mut added = Vec::new();
        for i in 500..700i64 {
            let row = vec![Value::Int(i), Value::Float((i % 90) as f64), Value::str("new")];
            t2.insert(row.clone()).unwrap();
            added.push(row);
        }
        s.apply_inserts(&added);
        let rebuilt = s.rebuilt_like(&t2);
        assert_eq!(s.rows, rebuilt.rows);
        for (a, b) in s.cols.iter().zip(&rebuilt.cols) {
            assert_eq!(a.nulls, b.nulls);
            assert_eq!(a.min, b.min);
            assert_eq!(a.max, b.max);
            assert_eq!(a.sketch, b.sketch, "insert-only sketches must match exactly");
            assert_eq!(a.histogram, b.histogram);
        }
    }

    #[test]
    fn deletes_keep_counts_exact_and_bounds_conservative() {
        let t = table(400);
        let mut s = TableStats::build(&t);
        let deleted: Vec<_> = t.rows().iter().take(120).cloned().collect();
        let mut t2 = t;
        for row in &deleted {
            t2.delete(&t2.key_of(row));
        }
        s.apply_deletes(&deleted);
        let rebuilt = s.rebuilt_like(&t2);
        assert_eq!(s.rows, rebuilt.rows);
        for (a, b) in s.cols.iter().zip(&rebuilt.cols) {
            assert_eq!(a.nulls, b.nulls, "null counts stay exact");
            assert_eq!(a.histogram, b.histogram, "histogram cells stay exact");
            if let (Some(am), Some(bm)) = (a.min, b.min) {
                assert!(am <= bm, "stored min must lower-bound the true min");
            }
            if let (Some(am), Some(bm)) = (a.max, b.max) {
                assert!(am >= bm, "stored max must upper-bound the true max");
            }
            for (ra, rb) in a.sketch.registers().iter().zip(b.sketch.registers()) {
                assert!(ra >= rb, "sketch registers only grow");
            }
        }
        assert!((s.staleness() - 0.3).abs() < 1e-12);
    }
}
