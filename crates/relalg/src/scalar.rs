//! Scalar expressions: the language of selection predicates and generalized
//! projections (`Π_{a1+a2,...}` in the paper's notation).
//!
//! Semantics follow SQL closely enough for the paper's workloads:
//! * arithmetic coerces `Int` to `Float` when mixed; division is always
//!   float; NULL propagates through arithmetic and comparisons;
//! * boolean connectives use Kleene three-valued logic;
//! * `coalesce` implements the "treat NULL as 0" merge idiom of the
//!   change-table maintenance strategy (Example 1, step 3).
//!
//! Expressions are *bound* against a schema once ([`Expr::bind`]) producing
//! a [`BoundExpr`] with positional column references that evaluates rows
//! without repeated name resolution.

use std::fmt;

use svc_storage::{DataType, Result, Schema, StorageError, Value};

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (always float; division by zero yields NULL).
    Div,
    /// Euclidean modulo on integers (modulo zero yields NULL; it never
    /// overflows: `i64::MIN % -1` is 0).
    Mod,
    /// Equality (NULL-propagating).
    Eq,
    /// Inequality.
    Ne,
    /// Less-than.
    Lt,
    /// Less-or-equal.
    Le,
    /// Greater-than.
    Gt,
    /// Greater-or-equal.
    Ge,
    /// Logical AND (Kleene).
    And,
    /// Logical OR (Kleene).
    Or,
}

/// Built-in scalar functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Func {
    /// First non-NULL argument.
    Coalesce,
    /// Minimum of the arguments (NULLs ignored).
    Least,
    /// Maximum of the arguments (NULLs ignored).
    Greatest,
    /// Absolute value.
    Abs,
    /// String concatenation of all arguments (used by the V22-style
    /// "key transformation" views that block hash push-down).
    Concat,
}

/// A scalar expression over a row.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A column reference by (possibly qualified) name.
    Col(String),
    /// A literal value.
    Lit(Value),
    /// A binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Logical negation (Kleene: NOT NULL = NULL).
    Not(Box<Expr>),
    /// `expr IS NULL`.
    IsNull(Box<Expr>),
    /// A function application.
    Call {
        /// The function.
        func: Func,
        /// Arguments.
        args: Vec<Expr>,
    },
}

/// Shorthand for [`Expr::Col`].
pub fn col(name: impl Into<String>) -> Expr {
    Expr::Col(name.into())
}

/// Shorthand for [`Expr::Lit`].
pub fn lit(v: impl Into<Value>) -> Expr {
    Expr::Lit(v.into())
}

macro_rules! binop_method {
    ($name:ident, $op:ident) => {
        /// Combine two expressions with the corresponding operator.
        ///
        /// Deliberately named like the `std::ops` method: this is the
        /// expression-builder DSL (`col("a").add(lit(1))`), not arithmetic
        /// on `Expr` values.
        #[allow(clippy::should_implement_trait)]
        pub fn $name(self, rhs: Expr) -> Expr {
            Expr::Binary { op: BinOp::$op, left: Box::new(self), right: Box::new(rhs) }
        }
    };
}

impl Expr {
    binop_method!(add, Add);
    binop_method!(sub, Sub);
    binop_method!(mul, Mul);
    binop_method!(div, Div);
    binop_method!(rem, Mod);
    binop_method!(eq, Eq);
    binop_method!(ne, Ne);
    binop_method!(lt, Lt);
    binop_method!(le, Le);
    binop_method!(gt, Gt);
    binop_method!(ge, Ge);
    binop_method!(and, And);
    binop_method!(or, Or);

    /// Logical negation (builder DSL; see the binary-operator methods).
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Expr {
        Expr::Not(Box::new(self))
    }

    /// `IS NULL` test.
    pub fn is_null(self) -> Expr {
        Expr::IsNull(Box::new(self))
    }

    /// `coalesce(self, other)`.
    pub fn coalesce(self, other: Expr) -> Expr {
        Expr::Call { func: Func::Coalesce, args: vec![self, other] }
    }

    /// If this expression is a bare column reference, its name.
    pub fn as_col(&self) -> Option<&str> {
        match self {
            Expr::Col(name) => Some(name),
            _ => None,
        }
    }

    /// Names of all columns referenced by this expression.
    pub fn referenced_columns(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Expr::Col(name) => out.push(name),
            Expr::Lit(_) => {}
            Expr::Binary { left, right, .. } => {
                left.collect_columns(out);
                right.collect_columns(out);
            }
            Expr::Not(e) | Expr::IsNull(e) => e.collect_columns(out),
            Expr::Call { args, .. } => {
                for a in args {
                    a.collect_columns(out);
                }
            }
        }
    }

    /// This expression with every column reference replaced by `f(name)`:
    /// a rename when `f` returns a column, a substitution when it returns
    /// the expression defining one (a predicate moving below a projection,
    /// a query lowered onto a view's canonical schema).
    pub fn map_cols(&self, f: &mut impl FnMut(&str) -> Result<Expr>) -> Result<Expr> {
        Ok(match self {
            Expr::Col(name) => f(name)?,
            Expr::Lit(v) => Expr::Lit(v.clone()),
            Expr::Binary { op, left, right } => Expr::Binary {
                op: *op,
                left: Box::new(left.map_cols(f)?),
                right: Box::new(right.map_cols(f)?),
            },
            Expr::Not(e) => Expr::Not(Box::new(e.map_cols(f)?)),
            Expr::IsNull(e) => Expr::IsNull(Box::new(e.map_cols(f)?)),
            Expr::Call { func, args } => Expr::Call {
                func: *func,
                args: args.iter().map(|a| a.map_cols(f)).collect::<Result<_>>()?,
            },
        })
    }

    /// Resolve column names to positions in `schema`.
    pub fn bind(&self, schema: &Schema) -> Result<BoundExpr> {
        Ok(match self {
            Expr::Col(name) => BoundExpr::Col(schema.resolve(name)?),
            Expr::Lit(v) => BoundExpr::Lit(v.clone()),
            Expr::Binary { op, left, right } => BoundExpr::Binary {
                op: *op,
                left: Box::new(left.bind(schema)?),
                right: Box::new(right.bind(schema)?),
            },
            Expr::Not(e) => BoundExpr::Not(Box::new(e.bind(schema)?)),
            Expr::IsNull(e) => BoundExpr::IsNull(Box::new(e.bind(schema)?)),
            Expr::Call { func, args } => BoundExpr::Call {
                func: *func,
                args: args.iter().map(|a| a.bind(schema)).collect::<Result<_>>()?,
            },
        })
    }

    /// Infer the output type of this expression against `schema`. NULL
    /// literals type as `Float` by convention (they only occur in merge
    /// projections over numeric columns).
    pub fn infer_type(&self, schema: &Schema) -> Result<DataType> {
        Ok(match self {
            Expr::Col(name) => schema.field(schema.resolve(name)?).dtype,
            Expr::Lit(v) => v.dtype().unwrap_or(DataType::Float),
            Expr::Binary { op, left, right } => match op {
                BinOp::Add | BinOp::Sub | BinOp::Mul => {
                    let l = left.infer_type(schema)?;
                    let r = right.infer_type(schema)?;
                    if l == DataType::Float || r == DataType::Float {
                        DataType::Float
                    } else {
                        DataType::Int
                    }
                }
                BinOp::Div => DataType::Float,
                BinOp::Mod => DataType::Int,
                _ => DataType::Bool,
            },
            Expr::Not(_) | Expr::IsNull(_) => DataType::Bool,
            Expr::Call { func, args } => match func {
                Func::Concat => DataType::Str,
                Func::Abs | Func::Coalesce | Func::Least | Func::Greatest => {
                    args.first().map(|a| a.infer_type(schema)).transpose()?.ok_or_else(|| {
                        StorageError::Invalid(format!("{func:?} requires arguments"))
                    })?
                }
            },
        })
    }
}

/// An expression with column references resolved to row positions.
#[derive(Debug, Clone)]
pub enum BoundExpr {
    /// Positional column reference.
    Col(usize),
    /// Literal.
    Lit(Value),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<BoundExpr>,
        /// Right operand.
        right: Box<BoundExpr>,
    },
    /// Negation.
    Not(Box<BoundExpr>),
    /// NULL test.
    IsNull(Box<BoundExpr>),
    /// Function application.
    Call {
        /// The function.
        func: Func,
        /// Arguments.
        args: Vec<BoundExpr>,
    },
}

fn numeric_pair(l: &Value, r: &Value) -> Option<(f64, f64, bool)> {
    let both_int = matches!((l, r), (Value::Int(_), Value::Int(_)));
    Some((l.as_f64()?, r.as_f64()?, both_int))
}

fn eval_cmp(op: BinOp, l: &Value, r: &Value) -> Value {
    if l.is_null() || r.is_null() {
        return Value::Null;
    }
    // Numeric comparison coerces Int/Float; everything else compares within
    // its own type via the total order.
    let ord = match numeric_pair(l, r) {
        Some((a, b, _)) => a.total_cmp(&b),
        None => l.cmp(r),
    };
    let res = match op {
        BinOp::Eq => ord.is_eq(),
        BinOp::Ne => ord.is_ne(),
        BinOp::Lt => ord.is_lt(),
        BinOp::Le => ord.is_le(),
        BinOp::Gt => ord.is_gt(),
        BinOp::Ge => ord.is_ge(),
        _ => unreachable!("eval_cmp called with non-comparison operator"),
    };
    Value::Bool(res)
}

fn eval_arith(op: BinOp, l: &Value, r: &Value) -> Value {
    if l.is_null() || r.is_null() {
        return Value::Null;
    }
    match op {
        BinOp::Div => match (l.as_f64(), r.as_f64()) {
            (Some(a), Some(b)) if b != 0.0 => Value::Float(a / b),
            _ => Value::Null,
        },
        BinOp::Mod => match (l.as_i64(), r.as_i64()) {
            (Some(a), Some(b)) if b != 0 => Value::Int(a.wrapping_rem_euclid(b)),
            _ => Value::Null,
        },
        _ => match numeric_pair(l, r) {
            Some((a, b, both_int)) => {
                let x = match op {
                    BinOp::Add => a + b,
                    BinOp::Sub => a - b,
                    BinOp::Mul => a * b,
                    _ => unreachable!(),
                };
                if both_int {
                    Value::Int(x as i64)
                } else {
                    Value::Float(x)
                }
            }
            None => Value::Null,
        },
    }
}

fn eval_logic(op: BinOp, l: &Value, r: &Value) -> Value {
    // Kleene three-valued logic.
    let (a, b) = (l.as_bool(), r.as_bool());
    match op {
        BinOp::And => match (a, b) {
            (Some(false), _) | (_, Some(false)) => Value::Bool(false),
            (Some(true), Some(true)) => Value::Bool(true),
            _ => Value::Null,
        },
        BinOp::Or => match (a, b) {
            (Some(true), _) | (_, Some(true)) => Value::Bool(true),
            (Some(false), Some(false)) => Value::Bool(false),
            _ => Value::Null,
        },
        _ => unreachable!("eval_logic called with non-logical operator"),
    }
}

impl BoundExpr {
    /// Evaluate against a row (any `Value` slice — owned rows and rows
    /// borrowed from a base table both work, which is what lets the
    /// streaming executor filter without cloning first).
    pub fn eval(&self, row: &[Value]) -> Value {
        match self {
            BoundExpr::Col(i) => row[*i].clone(),
            BoundExpr::Lit(v) => v.clone(),
            BoundExpr::Binary { op, left, right } => {
                let l = left.eval(row);
                let r = right.eval(row);
                match op {
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
                        eval_arith(*op, &l, &r)
                    }
                    BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                        eval_cmp(*op, &l, &r)
                    }
                    BinOp::And | BinOp::Or => eval_logic(*op, &l, &r),
                }
            }
            BoundExpr::Not(e) => match e.eval(row).as_bool() {
                Some(b) => Value::Bool(!b),
                None => Value::Null,
            },
            BoundExpr::IsNull(e) => Value::Bool(e.eval(row).is_null()),
            BoundExpr::Call { func, args } => {
                let vals: Vec<Value> = args.iter().map(|a| a.eval(row)).collect();
                match func {
                    Func::Coalesce => {
                        vals.into_iter().find(|v| !v.is_null()).unwrap_or(Value::Null)
                    }
                    Func::Least => {
                        vals.into_iter().filter(|v| !v.is_null()).min().unwrap_or(Value::Null)
                    }
                    Func::Greatest => {
                        vals.into_iter().filter(|v| !v.is_null()).max().unwrap_or(Value::Null)
                    }
                    Func::Abs => match vals.first() {
                        Some(Value::Int(i)) => Value::Int(i.abs()),
                        Some(Value::Float(x)) => Value::Float(x.abs()),
                        _ => Value::Null,
                    },
                    Func::Concat => {
                        if vals.iter().any(Value::is_null) {
                            Value::Null
                        } else {
                            let mut s = String::new();
                            for v in &vals {
                                s.push_str(&v.to_string());
                            }
                            Value::from(s)
                        }
                    }
                }
            }
        }
    }

    /// Evaluate as a predicate: true iff the result is exactly `Bool(true)`
    /// (SQL WHERE semantics: NULL filters the row out).
    pub fn matches(&self, row: &[Value]) -> bool {
        self.eval(row) == Value::Bool(true)
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Col(n) => write!(f, "{n}"),
            Expr::Lit(v) => write!(f, "{v}"),
            Expr::Binary { op, left, right } => {
                let sym = match op {
                    BinOp::Add => "+",
                    BinOp::Sub => "-",
                    BinOp::Mul => "*",
                    BinOp::Div => "/",
                    BinOp::Mod => "%",
                    BinOp::Eq => "=",
                    BinOp::Ne => "<>",
                    BinOp::Lt => "<",
                    BinOp::Le => "<=",
                    BinOp::Gt => ">",
                    BinOp::Ge => ">=",
                    BinOp::And => "AND",
                    BinOp::Or => "OR",
                };
                write!(f, "({left} {sym} {right})")
            }
            Expr::Not(e) => write!(f, "NOT {e}"),
            Expr::IsNull(e) => write!(f, "{e} IS NULL"),
            Expr::Call { func, args } => {
                let name = match func {
                    Func::Coalesce => "coalesce",
                    Func::Least => "least",
                    Func::Greatest => "greatest",
                    Func::Abs => "abs",
                    Func::Concat => "concat",
                };
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svc_storage::Row;

    fn schema() -> Schema {
        Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Float), ("s", DataType::Str)])
            .unwrap()
    }

    // By-value keeps ~30 call sites free of `&`; nothing is reused after.
    #[allow(clippy::needless_pass_by_value)]
    fn eval(e: Expr, row: Row) -> Value {
        e.bind(&schema()).unwrap().eval(&row)
    }

    fn row(a: i64, b: f64, s: &str) -> Row {
        vec![Value::Int(a), Value::Float(b), Value::str(s)]
    }

    #[test]
    fn arithmetic_and_coercion() {
        assert_eq!(eval(col("a").add(lit(1i64)), row(2, 0.0, "")), Value::Int(3));
        assert_eq!(eval(col("a").add(col("b")), row(2, 0.5, "")), Value::Float(2.5));
        assert_eq!(eval(col("a").div(lit(4i64)), row(2, 0.0, "")), Value::Float(0.5));
        assert_eq!(eval(col("a").div(lit(0i64)), row(2, 0.0, "")), Value::Null);
        assert_eq!(eval(col("a").rem(lit(3i64)), row(7, 0.0, "")), Value::Int(1));
        assert_eq!(eval(col("a").rem(lit(-3i64)), row(-7, 0.0, "")), Value::Int(2));
        // The one quotient that overflows `i64` still has a remainder.
        assert_eq!(eval(col("a").rem(lit(-1i64)), row(i64::MIN, 0.0, "")), Value::Int(0));
    }

    #[test]
    fn comparisons_cross_numeric() {
        assert_eq!(eval(col("a").eq(lit(2.0)), row(2, 0.0, "")), Value::Bool(true));
        assert_eq!(eval(col("a").lt(col("b")), row(1, 1.5, "")), Value::Bool(true));
        assert_eq!(eval(col("s").ge(lit("m")), row(0, 0.0, "zebra")), Value::Bool(true));
    }

    #[test]
    fn null_propagation_and_kleene_logic() {
        let null_row = vec![Value::Null, Value::Float(1.0), Value::str("x")];
        assert_eq!(eval(col("a").add(lit(1i64)), null_row.clone()), Value::Null);
        assert_eq!(eval(col("a").eq(lit(1i64)), null_row.clone()), Value::Null);
        // NULL AND false = false; NULL OR true = true.
        assert_eq!(
            eval(col("a").eq(lit(1i64)).and(lit(false)), null_row.clone()),
            Value::Bool(false)
        );
        assert_eq!(eval(col("a").eq(lit(1i64)).or(lit(true)), null_row.clone()), Value::Bool(true));
        assert_eq!(eval(col("a").is_null(), null_row), Value::Bool(true));
    }

    #[test]
    fn predicate_matches_filters_null() {
        let pred = col("a").gt(lit(0i64)).bind(&schema()).unwrap();
        assert!(pred.matches(&row(1, 0.0, "")));
        assert!(!pred.matches(&row(-1, 0.0, "")));
        assert!(!pred.matches(&[Value::Null, Value::Float(0.0), Value::str("")]));
    }

    #[test]
    fn coalesce_and_extrema() {
        assert_eq!(
            eval(col("a").coalesce(lit(0i64)), vec![Value::Null, Value::Null, Value::Null]),
            Value::Int(0)
        );
        let e = Expr::Call { func: Func::Greatest, args: vec![col("a"), lit(10i64)] };
        assert_eq!(eval(e, row(3, 0.0, "")), Value::Int(10));
    }

    #[test]
    fn concat_builds_strings() {
        let e = Expr::Call { func: Func::Concat, args: vec![col("s"), lit("-"), col("a")] };
        assert_eq!(eval(e, row(7, 0.0, "k")), Value::str("k-7"));
    }

    #[test]
    fn type_inference() {
        let s = schema();
        assert_eq!(col("a").add(lit(1i64)).infer_type(&s).unwrap(), DataType::Int);
        assert_eq!(col("a").add(col("b")).infer_type(&s).unwrap(), DataType::Float);
        assert_eq!(col("a").div(lit(2i64)).infer_type(&s).unwrap(), DataType::Float);
        assert_eq!(col("a").eq(lit(1i64)).infer_type(&s).unwrap(), DataType::Bool);
        assert_eq!(col("s").infer_type(&s).unwrap(), DataType::Str);
    }

    #[test]
    fn referenced_columns_collects_all() {
        let e = col("a").add(col("b")).gt(col("a"));
        let mut cols = e.referenced_columns();
        cols.sort();
        cols.dedup();
        assert_eq!(cols, vec!["a", "b"]);
    }

    #[test]
    fn unknown_column_fails_to_bind() {
        assert!(col("zzz").bind(&schema()).is_err());
    }
}
