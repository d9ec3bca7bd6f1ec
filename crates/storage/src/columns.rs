//! Typed columnar projections of a [`crate::Table`]'s rows.
//!
//! The vectorized kernels (`svc-relalg`) — plan execution and every query
//! answer — operate on per-column typed vectors instead of `Vec<Row>` of
//! boxed [`Value`]s. A [`Column`] stores one field's values in a primitive
//! vector (`i64` / `f64` / `bool` / `Arc<str>`) with a validity mask for
//! NULLs; a table builds each column on first touch and shares it until it
//! next mutates (`Table::column`), and a [`ColumnSet`] is any bundle of
//! such shared columns over the same rows. Columns whose cells do not all
//! conform to one primitive type (legal — cells are dynamically typed) fall
//! back to a [`ColumnData::Mixed`] vector of plain values, which the kernels
//! handle through the generic value-semantics path.
//!
//! Numeric columns carry a *zone map* — the `total_cmp` min/max of their
//! non-null values, the same typed min/max the statistics catalog tracks —
//! so a predicate kernel can skip scanning a column that can never (or must
//! always) satisfy a comparison.
//!
//! Extraction is exact and lossless: gathering a row back out of a
//! `ColumnSet` reproduces the original `Value`s bit for bit (floats are
//! stored uncanonicalized; NULLs round-trip through the validity mask).

use std::sync::Arc;

use crate::error::{Result, StorageError};
use crate::schema::Schema;
use crate::value::{DataType, Value};
use crate::Row;

/// The typed backing store of one column.
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// All non-null cells are `Value::Int`.
    Int(Vec<i64>),
    /// All non-null cells are `Value::Float` (bits preserved, not
    /// canonicalized).
    Float(Vec<f64>),
    /// All non-null cells are `Value::Bool`.
    Bool(Vec<bool>),
    /// All non-null cells are `Value::Str`.
    Str(Vec<Arc<str>>),
    /// Cells of more than one type: stored as plain values (NULLs inline;
    /// the validity mask is not used).
    Mixed(Vec<Value>),
}

/// One column of a [`ColumnSet`]: typed data plus a validity mask.
#[derive(Debug, Clone)]
pub struct Column {
    /// Typed cell storage. Null cells of typed columns hold a placeholder
    /// (`0` / `0.0` / `false` / `""`) and are masked invalid.
    pub data: ColumnData,
    /// `valid[i] == false` marks row `i` NULL. `None` means every row is
    /// valid. Always `None` for [`ColumnData::Mixed`] (NULLs are inline).
    pub valid: Option<Vec<bool>>,
    /// Zone map: `total_cmp` min/max over the non-null values of a numeric
    /// column, widened to `f64` (`i64 as f64` is monotone, so integer range
    /// reasoning through the widened bounds stays sound). `None` for
    /// non-numeric, mixed, or empty columns.
    pub zone: Option<(f64, f64)>,
}

impl Column {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match &self.data {
            ColumnData::Int(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Bool(v) => v.len(),
            ColumnData::Str(v) => v.len(),
            ColumnData::Mixed(v) => v.len(),
        }
    }

    /// True iff the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True iff row `i` is NULL.
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        match &self.data {
            ColumnData::Mixed(v) => v[i].is_null(),
            _ => self.valid.as_ref().is_some_and(|m| !m[i]),
        }
    }

    /// True iff the column contains at least one NULL.
    pub fn has_nulls(&self) -> bool {
        match &self.data {
            ColumnData::Mixed(v) => v.iter().any(Value::is_null),
            _ => self.valid.is_some(),
        }
    }

    /// Reconstruct the cell at row `i` as a [`Value`] — exact, including
    /// float bits. Strings clone their `Arc`.
    #[inline]
    pub fn value(&self, i: usize) -> Value {
        if self.is_null(i) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Int(v) => Value::Int(v[i]),
            ColumnData::Float(v) => Value::Float(v[i]),
            ColumnData::Bool(v) => Value::Bool(v[i]),
            ColumnData::Str(v) => Value::Str(v[i].clone()),
            ColumnData::Mixed(v) => v[i].clone(),
        }
    }

    /// Cheap structural integrity check for one column (always compiled;
    /// the `verify` feature decides whether the hot-path hooks call it):
    ///
    /// * the typed vector holds exactly `expect_len` cells;
    /// * a validity mask, if present, has the same length — and is absent
    ///   for [`ColumnData::Mixed`], whose NULLs are inline;
    /// * a zone map only annotates numeric storage.
    ///
    /// O(1): data-dependent zone soundness is [`Column::check`]'s job.
    pub fn check_shape(&self, expect_len: usize) -> Result<()> {
        let fail = |msg: String| Err(StorageError::Invalid(format!("column integrity: {msg}")));
        if self.len() != expect_len {
            return fail(format!("length {} != column-set length {expect_len}", self.len()));
        }
        match (&self.data, &self.valid) {
            (ColumnData::Mixed(_), Some(_)) => {
                return fail("mixed column carries a validity mask (NULLs must be inline)".into())
            }
            (_, Some(mask)) if mask.len() != expect_len => {
                return fail(format!(
                    "validity mask length {} != column length {expect_len}",
                    mask.len()
                ))
            }
            _ => {}
        }
        if self.zone.is_some() && !matches!(self.data, ColumnData::Int(_) | ColumnData::Float(_)) {
            return fail("zone map on non-numeric storage".into());
        }
        Ok(())
    }

    /// Full integrity check: [`Column::check_shape`] plus the O(rows)
    /// data-dependent invariant that the zone map's min/max actually bound
    /// every non-null value under `total_cmp`.
    pub fn check(&self, expect_len: usize) -> Result<()> {
        self.check_shape(expect_len)?;
        let fail = |msg: String| Err(StorageError::Invalid(format!("column integrity: {msg}")));
        if let Some((lo, hi)) = self.zone {
            let values: Box<dyn Iterator<Item = f64>> = match &self.data {
                ColumnData::Int(xs) => Box::new(
                    xs.iter()
                        .enumerate()
                        .filter_map(|(i, &x)| (!masked(&self.valid, i)).then_some(x as f64)),
                ),
                ColumnData::Float(xs) => Box::new(
                    xs.iter()
                        .enumerate()
                        .filter_map(|(i, &x)| (!masked(&self.valid, i)).then_some(x)),
                ),
                _ => return fail("zone map on non-numeric storage".into()),
            };
            for x in values {
                if x.total_cmp(&lo).is_lt() || x.total_cmp(&hi).is_gt() {
                    return fail(format!("zone map [{lo}, {hi}] does not bound value {x}"));
                }
            }
        }
        Ok(())
    }
}

/// Incremental builder for one [`Column`]: starts out typed per the
/// declared [`DataType`] and demotes itself to [`ColumnData::Mixed`] the
/// first time a non-null cell of a different type arrives.
#[derive(Debug)]
pub struct ColumnBuilder {
    dtype: DataType,
    data: ColumnData,
    /// Invalid row positions seen so far (sparse; most columns have none).
    nulls: Vec<usize>,
    len: usize,
}

impl ColumnBuilder {
    /// A builder for a column declared as `dtype`, pre-sized for `cap` rows.
    pub fn new(dtype: DataType, cap: usize) -> ColumnBuilder {
        let data = match dtype {
            DataType::Int => ColumnData::Int(Vec::with_capacity(cap)),
            DataType::Float => ColumnData::Float(Vec::with_capacity(cap)),
            DataType::Bool => ColumnData::Bool(Vec::with_capacity(cap)),
            DataType::Str => ColumnData::Str(Vec::with_capacity(cap)),
        };
        ColumnBuilder { dtype, data, nulls: Vec::new(), len: 0 }
    }

    /// Demote the accumulated typed cells to a `Mixed` vector.
    fn demote(&mut self) {
        let mut vals: Vec<Value> = Vec::with_capacity(self.len + 1);
        for i in 0..self.len {
            let v = if self.nulls.binary_search(&i).is_ok() {
                Value::Null
            } else {
                match &self.data {
                    ColumnData::Int(v) => Value::Int(v[i]),
                    ColumnData::Float(v) => Value::Float(v[i]),
                    ColumnData::Bool(v) => Value::Bool(v[i]),
                    ColumnData::Str(v) => Value::Str(v[i].clone()),
                    ColumnData::Mixed(_) => unreachable!("demoting a mixed builder"),
                }
            };
            vals.push(v);
        }
        self.data = ColumnData::Mixed(vals);
        self.nulls.clear();
    }

    /// Append one cell.
    pub fn push(&mut self, v: &Value) {
        match (&mut self.data, v) {
            (ColumnData::Mixed(vals), v) => vals.push(v.clone()),
            (ColumnData::Int(xs), Value::Int(x)) => xs.push(*x),
            (ColumnData::Float(xs), Value::Float(x)) => xs.push(*x),
            (ColumnData::Bool(xs), Value::Bool(x)) => xs.push(*x),
            (ColumnData::Str(xs), Value::Str(x)) => xs.push(x.clone()),
            (data, Value::Null) => {
                self.nulls.push(self.len);
                match data {
                    ColumnData::Int(xs) => xs.push(0),
                    ColumnData::Float(xs) => xs.push(0.0),
                    ColumnData::Bool(xs) => xs.push(false),
                    ColumnData::Str(xs) => xs.push(Arc::from("")),
                    ColumnData::Mixed(_) => unreachable!("mixed handled above"),
                }
            }
            (_, v) => {
                // A non-null cell of a type the typed vector can't hold:
                // demote everything accumulated so far and retry as mixed.
                self.demote();
                if let ColumnData::Mixed(vals) = &mut self.data {
                    vals.push(v.clone());
                }
            }
        }
        self.len += 1;
    }

    /// Finish into a [`Column`], computing the validity mask and zone map.
    pub fn finish(self) -> Column {
        let valid = if self.nulls.is_empty() || matches!(self.data, ColumnData::Mixed(_)) {
            None
        } else {
            let mut mask = vec![true; self.len];
            for &i in &self.nulls {
                mask[i] = false;
            }
            Some(mask)
        };
        let zone = match (&self.data, self.dtype) {
            (ColumnData::Int(xs), _) => zone_of(
                xs.iter()
                    .enumerate()
                    .filter_map(|(i, &x)| (!masked(&valid, i)).then_some(x as f64)),
            ),
            (ColumnData::Float(xs), _) => zone_of(
                xs.iter().enumerate().filter_map(|(i, &x)| (!masked(&valid, i)).then_some(x)),
            ),
            _ => None,
        };
        Column { data: self.data, valid, zone }
    }
}

/// True iff `valid` marks row `i` NULL.
#[inline]
fn masked(valid: &Option<Vec<bool>>, i: usize) -> bool {
    valid.as_ref().is_some_and(|m| !m[i])
}

/// `total_cmp` min/max of an `f64` stream.
fn zone_of(values: impl Iterator<Item = f64>) -> Option<(f64, f64)> {
    let mut it = values;
    let first = it.next()?;
    let (mut lo, mut hi) = (first, first);
    for x in it {
        if x.total_cmp(&lo).is_lt() {
            lo = x;
        }
        if x.total_cmp(&hi).is_gt() {
            hi = x;
        }
    }
    Some((lo, hi))
}

/// Extract the columns at positions `idx` of `rows` laid out per `schema`,
/// in one row-major pass. Each column is attempted at its declared type and
/// demoted to mixed storage if any cell disagrees.
pub(crate) fn extract(schema: &Schema, rows: &[Row], idx: &[usize]) -> Vec<Column> {
    let mut builders: Vec<ColumnBuilder> =
        idx.iter().map(|&c| ColumnBuilder::new(schema.field(c).dtype, rows.len())).collect();
    for row in rows {
        for (b, &c) in builders.iter_mut().zip(idx) {
            b.push(&row[c]);
        }
    }
    builders.into_iter().map(ColumnBuilder::finish).collect()
}

/// A set of columns over the same rows: a table's columnar projection (one
/// [`Column`] per schema field, `Table::columns`), the columns one query
/// names (in the order it names them), or a projection kernel's output.
/// Columns are shared: a table's per-column cache hands out the same `Arc`
/// to every reader until the table next mutates.
#[derive(Debug, Clone)]
pub struct ColumnSet {
    /// The columns.
    pub cols: Vec<Arc<Column>>,
    /// Number of rows.
    pub len: usize,
}

impl ColumnSet {
    /// Extract every column of `rows` laid out per `schema`.
    pub fn from_rows(schema: &Schema, rows: &[Row]) -> ColumnSet {
        let all: Vec<usize> = (0..schema.len()).collect();
        let cols = extract(schema, rows, &all).into_iter().map(Arc::new).collect();
        ColumnSet { cols, len: rows.len() }
    }

    /// Cheap structural integrity check: every column passes
    /// [`Column::check_shape`] against the set's declared row count. This
    /// is what the per-chunk executor hooks use — O(columns), no data scan.
    pub fn check_shape(&self) -> Result<()> {
        for (i, c) in self.cols.iter().enumerate() {
            c.check_shape(self.len)
                .map_err(|e| StorageError::Invalid(format!("column {i}: {e}")))?;
        }
        Ok(())
    }

    /// Full integrity check: every column passes [`Column::check`],
    /// including the O(rows) zone-map soundness scan. Run on owned sets a
    /// projection kernel built rather than per shared chunk (a table's
    /// cached columns are checked once, when built).
    pub fn check(&self) -> Result<()> {
        for (i, c) in self.cols.iter().enumerate() {
            c.check(self.len).map_err(|e| StorageError::Invalid(format!("column {i}: {e}")))?;
        }
        Ok(())
    }

    /// Reconstruct row `i` into `out` (cleared first). Exact inverse of
    /// [`ColumnSet::from_rows`] for that row.
    pub fn gather_row(&self, i: usize, out: &mut Row) {
        out.clear();
        out.reserve(self.cols.len());
        for c in &self.cols {
            out.push(c.value(i));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("i", DataType::Int),
            ("f", DataType::Float),
            ("b", DataType::Bool),
            ("s", DataType::Str),
        ])
        .unwrap()
    }

    #[test]
    fn round_trips_exactly_including_nulls_and_float_bits() {
        let rows: Vec<Row> = vec![
            vec![Value::Int(1), Value::Float(-0.0), Value::Bool(true), Value::str("a")],
            vec![Value::Null, Value::Float(f64::NAN), Value::Null, Value::Null],
            vec![Value::Int(-7), Value::Null, Value::Bool(false), Value::str("")],
        ];
        let cols = ColumnSet::from_rows(&schema(), &rows);
        let mut buf = Row::new();
        for (i, row) in rows.iter().enumerate() {
            cols.gather_row(i, &mut buf);
            assert_eq!(buf.len(), row.len());
            for (got, want) in buf.iter().zip(row) {
                match (got, want) {
                    // Bit-exact floats, stricter than Value::eq's canonical
                    // comparison.
                    (Value::Float(a), Value::Float(b)) => {
                        assert_eq!(a.to_bits(), b.to_bits(), "float bits must round-trip");
                    }
                    _ => assert_eq!(got, want),
                }
            }
        }
    }

    #[test]
    fn type_mismatch_demotes_to_mixed() {
        let s = Schema::from_pairs(&[("x", DataType::Int)]).unwrap();
        let rows: Vec<Row> = vec![
            vec![Value::Int(1)],
            vec![Value::Null],
            vec![Value::Float(2.5)],
            vec![Value::str("oops")],
        ];
        let cols = ColumnSet::from_rows(&s, &rows);
        assert!(matches!(cols.cols[0].data, ColumnData::Mixed(_)));
        let mut buf = Row::new();
        for (i, row) in rows.iter().enumerate() {
            cols.gather_row(i, &mut buf);
            assert_eq!(&buf, row);
        }
    }

    #[test]
    fn validity_mask_and_zone_map() {
        let s = Schema::from_pairs(&[("x", DataType::Float)]).unwrap();
        let rows: Vec<Row> =
            vec![vec![Value::Float(3.0)], vec![Value::Null], vec![Value::Float(-1.5)]];
        let cols = ColumnSet::from_rows(&s, &rows);
        let c = &cols.cols[0];
        assert!(c.has_nulls());
        assert!(!c.is_null(0) && c.is_null(1) && !c.is_null(2));
        assert_eq!(c.zone, Some((-1.5, 3.0)), "zone map skips NULLs");
    }

    #[test]
    fn int_zone_widens_monotonically() {
        let s = Schema::from_pairs(&[("x", DataType::Int)]).unwrap();
        let rows: Vec<Row> = (0..10).map(|i| vec![Value::Int(i - 4)]).collect();
        let cols = ColumnSet::from_rows(&s, &rows);
        assert_eq!(cols.cols[0].zone, Some((-4.0, 5.0)));
        assert!(!cols.cols[0].has_nulls());
    }
}
