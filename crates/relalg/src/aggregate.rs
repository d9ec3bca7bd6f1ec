//! Group-by aggregation: the γ operator and its execution.

use std::collections::HashMap;

use svc_storage::{DataType, KeyTuple, Result, Row, Schema, StorageError, Table, Value};

use crate::derive::Derived;
use crate::scalar::{BoundExpr, Expr};

/// Aggregate functions supported on views and queries. `sum`, `count`, and
/// `avg` are the sample-mean class of Section 5.2.1; `median` is bounded
/// by the bootstrap in the paper (Section 5.2.5) and by draw-free quantile
/// intervals here; `min`/`max` are handled by the Cantelli
/// machinery of Appendix 12.1.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// Row count over non-NULL argument values (`count(1)` counts all rows).
    Count,
    /// Sum of the argument (Int stays Int, otherwise Float).
    Sum,
    /// Arithmetic mean of the argument.
    Avg,
    /// Minimum value.
    Min,
    /// Maximum value.
    Max,
    /// Exact median of the argument (as a Float).
    Median,
}

impl AggFunc {
    /// Output type given the argument type.
    pub fn output_type(&self, arg: DataType) -> DataType {
        match self {
            AggFunc::Count => DataType::Int,
            AggFunc::Sum => arg,
            AggFunc::Avg | AggFunc::Median => DataType::Float,
            AggFunc::Min | AggFunc::Max => arg,
        }
    }
}

/// One aggregate output column of a γ node.
#[derive(Debug, Clone, PartialEq)]
pub struct AggSpec {
    /// Output column name.
    pub alias: String,
    /// The aggregate function.
    pub func: AggFunc,
    /// The argument expression evaluated per input row.
    pub arg: Expr,
}

impl AggSpec {
    /// Convenience constructor.
    pub fn new(alias: impl Into<String>, func: AggFunc, arg: Expr) -> AggSpec {
        AggSpec { alias: alias.into(), func, arg }
    }

    /// `count(1) AS alias`.
    pub fn count_all(alias: impl Into<String>) -> AggSpec {
        AggSpec::new(alias, AggFunc::Count, crate::scalar::lit(1i64))
    }
}

/// Streaming accumulator for one aggregate in one group.
#[derive(Debug, Clone)]
enum Acc {
    Count(i64),
    SumInt(i64, bool),
    SumFloat(f64, bool),
    Avg { sum: f64, n: i64 },
    Min(Option<Value>),
    Max(Option<Value>),
    Median(Vec<f64>),
}

impl Acc {
    fn new(func: AggFunc, arg_type: DataType) -> Acc {
        match func {
            AggFunc::Count => Acc::Count(0),
            AggFunc::Sum => {
                if arg_type == DataType::Float {
                    Acc::SumFloat(0.0, false)
                } else {
                    Acc::SumInt(0, false)
                }
            }
            AggFunc::Avg => Acc::Avg { sum: 0.0, n: 0 },
            AggFunc::Min => Acc::Min(None),
            AggFunc::Max => Acc::Max(None),
            AggFunc::Median => Acc::Median(Vec::new()),
        }
    }

    fn update(&mut self, v: Value) {
        if v.is_null() {
            return;
        }
        match self {
            Acc::Count(n) => *n += 1,
            Acc::SumInt(s, seen) => {
                if let Some(i) = v.as_i64() {
                    *s += i;
                    *seen = true;
                }
            }
            Acc::SumFloat(s, seen) => {
                if let Some(x) = v.as_f64() {
                    *s += x;
                    *seen = true;
                }
            }
            Acc::Avg { sum, n } => {
                if let Some(x) = v.as_f64() {
                    *sum += x;
                    *n += 1;
                }
            }
            Acc::Min(cur) => {
                if cur.as_ref().is_none_or(|c| v < *c) {
                    *cur = Some(v);
                }
            }
            Acc::Max(cur) => {
                if cur.as_ref().is_none_or(|c| v > *c) {
                    *cur = Some(v);
                }
            }
            Acc::Median(vals) => {
                if let Some(x) = v.as_f64() {
                    vals.push(x);
                }
            }
        }
    }
    fn finish(self) -> Value {
        match self {
            Acc::Count(n) => Value::Int(n),
            Acc::SumInt(s, seen) => {
                if seen {
                    Value::Int(s)
                } else {
                    Value::Null
                }
            }
            Acc::SumFloat(s, seen) => {
                if seen {
                    Value::Float(s)
                } else {
                    Value::Null
                }
            }
            Acc::Avg { sum, n } => {
                if n > 0 {
                    Value::Float(sum / n as f64)
                } else {
                    Value::Null
                }
            }
            Acc::Min(v) | Acc::Max(v) => v.unwrap_or(Value::Null),
            Acc::Median(mut vals) => {
                if vals.is_empty() {
                    Value::Null
                } else {
                    vals.sort_by(f64::total_cmp);
                    let n = vals.len();
                    let med = if n % 2 == 1 {
                        vals[n / 2]
                    } else {
                        (vals[n / 2 - 1] + vals[n / 2]) / 2.0
                    };
                    Value::Float(med)
                }
            }
        }
    }
}

/// Hash-grouped accumulation over rows — the γ execution core shared by the
/// legacy materializing evaluator ([`run_aggregate`]) and the streaming
/// executor's aggregate sink (`crate::exec`).
///
/// Group keys are hashed *in place* from the input row's group columns
/// ([`KeyTuple::hash_of`]) and candidates are verified by column equality
/// against the group's stored key, so a `KeyTuple` of cloned `Value`s is
/// allocated only when a group is seen for the first time — never per input
/// row.
#[derive(Debug)]
pub struct GroupMap<'a> {
    group_idx: &'a [usize],
    aggs: &'a [(AggFunc, DataType, BoundExpr)],
    /// key hash → indices into `groups` (hash-collision chain).
    map: HashMap<u64, Vec<u32>>,
    groups: Vec<(KeyTuple, Vec<Acc>)>,
}

impl<'a> GroupMap<'a> {
    /// An accumulator pre-sized for roughly `groups_hint` distinct groups.
    /// Callers with catalog NDV estimates pass those; without a hint, use
    /// [`GroupMap::with_input_len`].
    pub fn with_capacity(
        group_idx: &'a [usize],
        aggs: &'a [(AggFunc, DataType, BoundExpr)],
        groups_hint: usize,
    ) -> GroupMap<'a> {
        GroupMap {
            group_idx,
            aggs,
            map: HashMap::with_capacity(groups_hint),
            groups: Vec::with_capacity(groups_hint),
        }
    }

    /// Pre-size from the input length when no distinct-count estimate is
    /// available: a quarter of the input, floored at 8 — grouped workloads
    /// collapse heavily, and two doublings still beat starting empty. The
    /// ceiling bounds the up-front allocation when `input_len` is a loose
    /// upper bound (a selective γ-over-scan stream passes the *unfiltered*
    /// table length); beyond it, amortized growth is cheaper than
    /// speculatively allocating a huge map for what may be few groups.
    pub fn with_input_len(
        group_idx: &'a [usize],
        aggs: &'a [(AggFunc, DataType, BoundExpr)],
        input_len: usize,
    ) -> GroupMap<'a> {
        GroupMap::with_capacity(group_idx, aggs, (input_len / 4).clamp(8, 1 << 16))
    }

    /// Fold one row into its group. The row is only borrowed: group-key
    /// values are cloned exactly once per *group*, on first insertion.
    pub fn push(&mut self, row: &[Value]) {
        let h = KeyTuple::hash_of(row, self.group_idx);
        let chain = self.map.entry(h).or_default();
        let gi = match chain.iter().copied().find(|&g| {
            let key = &self.groups[g as usize].0;
            self.group_idx.iter().zip(&key.0).all(|(&i, v)| row[i] == *v)
        }) {
            Some(g) => g as usize,
            None => {
                let key = KeyTuple(self.group_idx.iter().map(|&i| row[i].clone()).collect());
                let accs = self.aggs.iter().map(|(f, t, _)| Acc::new(*f, *t)).collect();
                self.groups.push((key, accs));
                chain.push((self.groups.len() - 1) as u32);
                self.groups.len() - 1
            }
        };
        let accs = &mut self.groups[gi].1;
        for (acc, (_, _, expr)) in accs.iter_mut().zip(self.aggs) {
            acc.update(expr.eval(row));
        }
    }

    /// Number of distinct groups accumulated so far.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Finish all groups into output rows, sorted by group key for
    /// determinism.
    pub fn finish(self) -> Vec<Row> {
        let mut out = Vec::new();
        self.finish_into(&mut out);
        out
    }

    /// [`GroupMap::finish`] appending into a caller-provided buffer (the
    /// streaming executor recycles batch buffers across runs).
    pub fn finish_into(self, out: &mut Vec<Row>) {
        let mut entries = self.groups;
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        out.reserve(entries.len());
        for (key, accs) in entries {
            let mut row: Row = key.0;
            row.extend(accs.into_iter().map(Acc::finish));
            out.push(row);
        }
    }
}

/// Execute a γ node: group `input` rows by `group_idx` columns and apply the
/// bound aggregates. Output rows are sorted by group key for determinism.
/// `groups_hint` pre-sizes the group map (catalog NDV when the caller has
/// one); `None` falls back to an input-length heuristic.
pub fn run_aggregate(
    input: &Table,
    group_idx: &[usize],
    aggs: &[(AggFunc, DataType, BoundExpr)],
    out: &Derived,
    groups_hint: Option<usize>,
) -> Result<Table> {
    let mut groups = match groups_hint {
        Some(h) => GroupMap::with_capacity(group_idx, aggs, h),
        None => GroupMap::with_input_len(group_idx, aggs, input.len()),
    };
    for row in input.rows() {
        groups.push(row);
    }
    Table::from_rows(out.schema.clone(), out.key.clone(), groups.finish())
}

/// Validate and bind the aggregate argument expressions of a γ node.
pub fn bind_aggs(
    specs: &[AggSpec],
    input_schema: &Schema,
) -> Result<Vec<(AggFunc, DataType, BoundExpr)>> {
    specs
        .iter()
        .map(|s| {
            let dtype = s.arg.infer_type(input_schema)?;
            if matches!(s.func, AggFunc::Sum | AggFunc::Avg | AggFunc::Median)
                && !matches!(dtype, DataType::Int | DataType::Float)
            {
                return Err(StorageError::TypeMismatch {
                    expected: DataType::Float,
                    found: dtype.to_string(),
                    context: format!("aggregate {}({})", s.alias, s.arg),
                });
            }
            Ok((s.func, dtype, s.arg.bind(input_schema)?))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::derive::derive_aggregate;
    use crate::scalar::{col, lit};

    fn input() -> Table {
        let schema = Schema::from_pairs(&[
            ("g", DataType::Int),
            ("x", DataType::Float),
            ("id", DataType::Int),
        ])
        .unwrap();
        let mut t = Table::new(schema, &["id"]).unwrap();
        let data = [(1, 10.0), (1, 20.0), (2, 5.0), (2, 7.0), (2, 9.0), (3, -1.0)];
        for (i, (g, x)) in data.iter().enumerate() {
            t.insert(vec![Value::Int(*g), Value::Float(*x), Value::Int(i as i64)]).unwrap();
        }
        t
    }

    fn run(specs: &[AggSpec]) -> Table {
        let t = input();
        let input_d = Derived { schema: t.schema().clone(), key: t.key().to_vec() };
        let group = vec!["g".to_string()];
        let out = derive_aggregate(&input_d, &group, specs).unwrap();
        let group_idx = t.schema().resolve_all(&group).unwrap();
        let aggs = bind_aggs(specs, t.schema()).unwrap();
        run_aggregate(&t, &group_idx, &aggs, &out, None).unwrap()
    }

    #[test]
    fn count_sum_avg() {
        let out = run(&[
            AggSpec::count_all("n"),
            AggSpec::new("total", AggFunc::Sum, col("x")),
            AggSpec::new("mean", AggFunc::Avg, col("x")),
        ]);
        assert_eq!(out.len(), 3);
        let g2 = out.get(&KeyTuple(vec![Value::Int(2)])).unwrap();
        assert_eq!(g2[1], Value::Int(3));
        assert_eq!(g2[2], Value::Float(21.0));
        assert_eq!(g2[3], Value::Float(7.0));
    }

    #[test]
    fn min_max_median() {
        let out = run(&[
            AggSpec::new("lo", AggFunc::Min, col("x")),
            AggSpec::new("hi", AggFunc::Max, col("x")),
            AggSpec::new("med", AggFunc::Median, col("x")),
        ]);
        let g2 = out.get(&KeyTuple(vec![Value::Int(2)])).unwrap();
        assert_eq!(g2[1], Value::Float(5.0));
        assert_eq!(g2[2], Value::Float(9.0));
        assert_eq!(g2[3], Value::Float(7.0));
    }

    #[test]
    fn sum_of_ints_stays_int() {
        let t = input();
        let specs = vec![AggSpec::new("s", AggFunc::Sum, col("g").mul(lit(2i64)))];
        let input_d = Derived { schema: t.schema().clone(), key: t.key().to_vec() };
        let out_d = derive_aggregate(&input_d, &[], &specs).unwrap();
        let aggs = bind_aggs(&specs, t.schema()).unwrap();
        let out = run_aggregate(&t, &[], &aggs, &out_d, None).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows()[0][0], Value::Int(2 * (1 + 1 + 2 + 2 + 2 + 3)));
    }

    #[test]
    fn count_skips_nulls_but_count_all_does_not() {
        let schema = Schema::from_pairs(&[("id", DataType::Int), ("x", DataType::Float)]).unwrap();
        let mut t = Table::new(schema, &["id"]).unwrap();
        t.insert(vec![Value::Int(0), Value::Float(1.0)]).unwrap();
        t.insert(vec![Value::Int(1), Value::Null]).unwrap();
        let specs =
            vec![AggSpec::count_all("all"), AggSpec::new("nonnull", AggFunc::Count, col("x"))];
        let input_d = Derived { schema: t.schema().clone(), key: t.key().to_vec() };
        let out_d = derive_aggregate(&input_d, &[], &specs).unwrap();
        let aggs = bind_aggs(&specs, t.schema()).unwrap();
        let out = run_aggregate(&t, &[], &aggs, &out_d, None).unwrap();
        assert_eq!(out.rows()[0][0], Value::Int(2));
        assert_eq!(out.rows()[0][1], Value::Int(1));
    }

    #[test]
    fn sum_over_strings_is_rejected() {
        let schema = Schema::from_pairs(&[("id", DataType::Int), ("s", DataType::Str)]).unwrap();
        let specs = vec![AggSpec::new("bad", AggFunc::Sum, col("s"))];
        assert!(bind_aggs(&specs, &schema).is_err());
    }
}
