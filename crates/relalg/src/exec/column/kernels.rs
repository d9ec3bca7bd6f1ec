//! Vectorized operator kernels over column slices.
//!
//! Each fused-pipeline operator has a columnar counterpart ([`VecOp`]):
//! filters compile to [`ColPred`] kernels that refine a [`SelVec`],
//! projections become per-output-column loops ([`MapPlan`]), and η hashes
//! key columns through [`svc_storage::HashState`] straight from typed
//! storage. The query answer path (`svc-core`) reads the same kernels: a
//! predicate selects with [`compile_pred`], an attribute evaluates through
//! [`compile_expr`].
//!
//! There is one arithmetic evaluator, [`ColExpr`]: a tree of columns,
//! literals and `+ − × ÷ %` read straight out of typed storage. Projection
//! outputs, query attributes and both sides of a [`ColPred::CmpExpr`]
//! comparison are such trees; typed constant-vs-column and column-vs-column
//! loops are the comparison fast paths beside it. Only a node with no
//! kernel (a function call, a general `NOT`) gathers its row into a scratch
//! buffer and falls back to [`BoundExpr`] evaluation.
//!
//! **Equivalence is the contract.** Every kernel reproduces the row-at-a-
//! time semantics bit for bit: comparisons coerce numerics through `f64`
//! `total_cmp` exactly like `eval_cmp` (cross-type pairs order by type
//! rank), arithmetic replicates `eval_arith` — NULL propagation, `÷` always
//! float, `/0` and `%0` NULL, the compute-in-`f64`-then-narrow integer path
//! — and the η byte stream matches [`Value::canonical_bytes`]. The property
//! harnesses (`tests/exec_prop.rs`) hold the two executors to row-for-row
//! equality.
//!
//! Numeric columns additionally carry zone maps (`total_cmp` min/max —
//! the same typed bounds the statistics catalog tracks), letting a
//! constant-vs-column kernel skip scanning a slice that can never, or must
//! always, satisfy its comparison.

use std::cmp::Ordering;
use std::sync::Arc;

use svc_storage::{
    normalize01, Column, ColumnData, ColumnSet, DataType, HashSpec, HashState, Row, Value,
};

use crate::scalar::{BinOp, BoundExpr};

use super::selection::SelVec;

/// One vectorized operator; mirrors `FusedOp` position by position.
#[derive(Debug, Clone)]
pub enum VecOp {
    /// σ: refine the selection vector.
    Filter(ColPred),
    /// Π: rebuild the chunk's columns from output expressions.
    Map(MapPlan),
    /// η: keep rows whose key columns hash under the ratio.
    Hash {
        /// Key column positions in the incoming chunk shape.
        key_idx: Vec<usize>,
        /// Sampling ratio `m`.
        ratio: f64,
        /// Seeded hash function.
        spec: HashSpec,
    },
}

/// A compiled columnar predicate.
#[derive(Debug, Clone)]
pub enum ColPred {
    /// `col <op> literal` (or the flipped literal-vs-column form).
    CmpColLit {
        /// Column position.
        col: usize,
        /// Comparison operator (literal on the right).
        op: BinOp,
        /// The literal.
        lit: Value,
    },
    /// `col <op> col`.
    CmpColCol {
        /// Left column position.
        left: usize,
        /// Comparison operator.
        op: BinOp,
        /// Right column position.
        right: usize,
    },
    /// A comparison with an arithmetic side, e.g. a lowered `avg` column
    /// `s / n >= lit`: both sides through the [`ColExpr`] evaluator. A
    /// literal operand is normalized to the right (the flipped form).
    CmpExpr {
        /// Left operand.
        left: ColExpr,
        /// Comparison operator.
        op: BinOp,
        /// Right operand.
        right: ColExpr,
    },
    /// `col IS NULL` / `NOT (col IS NULL)`.
    IsNull {
        /// Column position.
        col: usize,
        /// True for the `NOT` form (keep non-null rows).
        negated: bool,
    },
    /// Conjunction: children refine the selection in sequence.
    And(Vec<ColPred>),
    /// Disjunction: evaluated per row (a row survives if either side
    /// matches — equivalent to Kleene OR under `matches` semantics).
    Or(Box<ColPred>, Box<ColPred>),
    /// No fast path: gather the row and run the bound expression.
    Row(BoundExpr),
}

/// True for the six comparison operators.
fn is_cmp(op: BinOp) -> bool {
    matches!(op, BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge)
}

/// Mirror a comparison across its operands (`lit < col` ⇔ `col > lit`).
fn flip(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

/// Does `op` hold for an ordering?
#[inline]
fn cmp_keeps(op: BinOp, ord: Ordering) -> bool {
    match op {
        BinOp::Eq => ord.is_eq(),
        BinOp::Ne => ord.is_ne(),
        BinOp::Lt => ord.is_lt(),
        BinOp::Le => ord.is_le(),
        BinOp::Gt => ord.is_gt(),
        BinOp::Ge => ord.is_ge(),
        _ => unreachable!("cmp_keeps on non-comparison operator"),
    }
}

/// `eval_cmp` on two non-scratch values, as a predicate: false on NULL,
/// `f64` `total_cmp` for numeric pairs, type-rank total order otherwise.
#[inline]
fn value_cmp_matches(op: BinOp, l: &Value, r: &Value) -> bool {
    if l.is_null() || r.is_null() {
        return false;
    }
    let ord = match (l.as_f64(), r.as_f64()) {
        (Some(a), Some(b)) => a.total_cmp(&b),
        _ => l.cmp(r),
    };
    cmp_keeps(op, ord)
}

/// True for an arithmetic node — the shape [`ColPred::CmpExpr`] compares.
fn is_arith_node(e: &BoundExpr) -> bool {
    matches!(e, BoundExpr::Binary { op, .. } if is_arith(*op))
}

/// `eval_cmp` as a predicate over two cell views: NULL never matches and
/// numeric pairs compare as `f64` under `total_cmp`; `None` when a
/// non-numeric value needs the by-type-rank value comparison.
#[inline]
fn cells_match(op: BinOp, l: Cell, r: Cell) -> Option<bool> {
    match (l, r) {
        (Cell::Null, _) | (_, Cell::Null) => Some(false),
        _ => Some(cmp_keeps(op, l.as_f64()?.total_cmp(&r.as_f64()?))),
    }
}

/// Compile a bound predicate into a columnar kernel. Always succeeds:
/// shapes with no fast path become [`ColPred::Row`], which keeps exact
/// row semantics through scratch-row evaluation.
pub fn compile_pred(e: &BoundExpr) -> ColPred {
    match e {
        BoundExpr::Binary { op, left, right } if is_cmp(*op) => match (&**left, &**right) {
            (BoundExpr::Col(c), BoundExpr::Lit(v)) => {
                ColPred::CmpColLit { col: *c, op: *op, lit: v.clone() }
            }
            (BoundExpr::Lit(v), BoundExpr::Col(c)) => {
                ColPred::CmpColLit { col: *c, op: flip(*op), lit: v.clone() }
            }
            (BoundExpr::Col(a), BoundExpr::Col(b)) => {
                ColPred::CmpColCol { left: *a, op: *op, right: *b }
            }
            (l, r) if is_arith_node(l) || is_arith_node(r) => {
                let (l, op, r) =
                    if matches!(l, BoundExpr::Lit(_)) { (r, flip(*op), l) } else { (l, *op, r) };
                ColPred::CmpExpr { left: compile_expr(l), op, right: compile_expr(r) }
            }
            _ => ColPred::Row(e.clone()),
        },
        // `matches(AND)` ⇔ both children match and `matches(OR)` ⇔ either
        // child matches, even under Kleene three-valued evaluation — NULL
        // and non-boolean results never satisfy `matches` on either side.
        BoundExpr::Binary { op: BinOp::And, left, right } => {
            let mut ps = Vec::new();
            flatten_and(left, &mut ps);
            flatten_and(right, &mut ps);
            // Conjunct refinement is set intersection — the surviving
            // selection is order-free — so typed kernels run first: any
            // row-fallback conjunct then gathers only the rows the
            // kernels already kept.
            let (mut kernels, fallbacks): (Vec<_>, Vec<_>) =
                ps.into_iter().partition(ColPred::has_kernel);
            kernels.extend(fallbacks);
            ColPred::And(kernels)
        }
        BoundExpr::Binary { op: BinOp::Or, left, right } => {
            ColPred::Or(Box::new(compile_pred(left)), Box::new(compile_pred(right)))
        }
        BoundExpr::IsNull(inner) => match &**inner {
            BoundExpr::Col(c) => ColPred::IsNull { col: *c, negated: false },
            _ => ColPred::Row(e.clone()),
        },
        // General NOT needs three-valued logic (NOT NULL = NULL) → row
        // fallback; NOT(col IS NULL) is two-valued and keeps a kernel.
        BoundExpr::Not(inner) => match &**inner {
            BoundExpr::IsNull(nested) => match &**nested {
                BoundExpr::Col(c) => ColPred::IsNull { col: *c, negated: true },
                _ => ColPred::Row(e.clone()),
            },
            _ => ColPred::Row(e.clone()),
        },
        _ => ColPred::Row(e.clone()),
    }
}

impl ColPred {
    /// True when applying this predicate reads column slices directly;
    /// false when it must gather every candidate row into the scratch
    /// buffer for interpreted evaluation ([`ColPred::Row`], or an `Or`
    /// with a row-fallback arm).
    pub fn has_kernel(&self) -> bool {
        match self {
            ColPred::CmpColLit { .. } | ColPred::CmpColCol { .. } | ColPred::IsNull { .. } => true,
            ColPred::CmpExpr { left, right, .. } => left.has_kernel() && right.has_kernel(),
            // Conjuncts are ordered kernels-first at compile time, so the
            // chain has a kernel iff its first conjunct does.
            ColPred::And(ps) => ps.first().is_some_and(ColPred::has_kernel),
            ColPred::Or(a, b) => a.has_kernel() && b.has_kernel(),
            ColPred::Row(_) => false,
        }
    }
}

impl VecOp {
    /// True when this op, as the *leading* op of a fused chain, makes the
    /// columnar drive worthwhile — it must touch column slices while the
    /// selection is still dense. A leading row-fallback filter gathers
    /// every input row the row path already has, and a leading map
    /// re-materializes every column before anything filters; both lose to
    /// the row path, so chains they lead stay row-based.
    pub fn profitable(&self) -> bool {
        match self {
            VecOp::Filter(p) => p.has_kernel(),
            VecOp::Map(_) => false,
            VecOp::Hash { .. } => true,
        }
    }
}

fn flatten_and(e: &BoundExpr, out: &mut Vec<ColPred>) {
    match e {
        BoundExpr::Binary { op: BinOp::And, left, right } => {
            flatten_and(left, out);
            flatten_and(right, out);
        }
        other => out.push(compile_pred(other)),
    }
}

/// Zone-map verdict for a constant-vs-column comparison.
enum ZoneHit {
    /// No non-null row can match: clear the selection without scanning.
    NoneMatch,
    /// Every non-null row matches: skip the scan if the column has no
    /// NULLs.
    AllMatch,
    /// The bounds straddle the literal; scan normally.
    Scan,
}

/// Decide a comparison against a numeric column purely from its zone map
/// (`total_cmp` min/max of the non-null values widened to `f64`).
fn zone_check(op: BinOp, lo: f64, hi: f64, lit: f64) -> ZoneHit {
    let lo_l = lo.total_cmp(&lit);
    let hi_l = hi.total_cmp(&lit);
    let (all, none) = match op {
        BinOp::Lt => (hi_l.is_lt(), lo_l.is_ge()),
        BinOp::Le => (hi_l.is_le(), lo_l.is_gt()),
        BinOp::Gt => (lo_l.is_gt(), hi_l.is_le()),
        BinOp::Ge => (lo_l.is_ge(), hi_l.is_lt()),
        BinOp::Eq => (lo_l.is_eq() && hi_l.is_eq(), lo_l.is_gt() || hi_l.is_lt()),
        BinOp::Ne => (lo_l.is_gt() || hi_l.is_lt(), lo_l.is_eq() && hi_l.is_eq()),
        _ => (false, false),
    };
    if none {
        ZoneHit::NoneMatch
    } else if all {
        ZoneHit::AllMatch
    } else {
        ZoneHit::Scan
    }
}

/// NULL test against a column's validity mask, inlined for the hot loops.
#[inline]
fn live(valid: Option<&[bool]>, i: usize) -> bool {
    valid.is_none_or(|m| m[i])
}

impl ColPred {
    /// Refine `sel` to the rows matching this predicate. Returns the
    /// number of predicate×slice decisions settled by a zone map without
    /// scanning (the executor's `zone_skips` metric).
    pub fn apply(&self, cols: &ColumnSet, sel: &mut SelVec, scratch: &mut Row) -> u32 {
        match self {
            ColPred::CmpColLit { col, op, lit } => {
                let c = &cols.cols[*col];
                if lit.is_null() {
                    // eval_cmp(_, NULL) is NULL for every row: nothing
                    // matches.
                    sel.clear();
                    return 0;
                }
                // Zone-map short-circuit: decide the whole slice from the
                // column's min/max when the bounds are conclusive.
                if let (Some((lo, hi)), Some(lv)) = (c.zone, lit.as_f64()) {
                    match zone_check(*op, lo, hi, lv) {
                        ZoneHit::NoneMatch => {
                            sel.clear();
                            return 1;
                        }
                        ZoneHit::AllMatch if !c.has_nulls() => return 1,
                        _ => {}
                    }
                }
                let valid = c.valid.as_deref();
                match (&c.data, lit.as_f64()) {
                    (ColumnData::Int(xs), Some(lv)) => {
                        sel.retain(|i| {
                            live(valid, i) && cmp_keeps(*op, (xs[i] as f64).total_cmp(&lv))
                        });
                    }
                    (ColumnData::Float(xs), Some(lv)) => {
                        sel.retain(|i| live(valid, i) && cmp_keeps(*op, xs[i].total_cmp(&lv)));
                    }
                    (ColumnData::Str(xs), _) if matches!(lit, Value::Str(_)) => {
                        let s = lit.as_str().expect("checked Str");
                        sel.retain(|i| live(valid, i) && cmp_keeps(*op, xs[i].as_ref().cmp(s)));
                    }
                    (ColumnData::Bool(xs), _) if matches!(lit, Value::Bool(_)) => {
                        let bv = matches!(lit, Value::Bool(true));
                        sel.retain(|i| live(valid, i) && cmp_keeps(*op, xs[i].cmp(&bv)));
                    }
                    (ColumnData::Mixed(vs), _) => {
                        sel.retain(|i| value_cmp_matches(*op, &vs[i], lit));
                    }
                    (data, _) => {
                        // Typed column vs a literal of a different,
                        // non-coercible type: every non-null cell compares
                        // by type rank, so the verdict is constant.
                        let repr = match data {
                            ColumnData::Int(_) => Value::Int(0),
                            ColumnData::Float(_) => Value::Float(0.0),
                            ColumnData::Bool(_) => Value::Bool(false),
                            ColumnData::Str(_) => Value::str(""),
                            ColumnData::Mixed(_) => unreachable!("mixed handled above"),
                        };
                        if value_cmp_matches(*op, &repr, lit) {
                            if c.has_nulls() {
                                sel.retain(|i| live(valid, i));
                            }
                        } else {
                            sel.clear();
                        }
                    }
                }
                0
            }
            ColPred::CmpColCol { left, op, right } => {
                let (lc, rc) = (&cols.cols[*left], &cols.cols[*right]);
                let (lv, rv) = (lc.valid.as_deref(), rc.valid.as_deref());
                match (&lc.data, &rc.data) {
                    (ColumnData::Int(a), ColumnData::Int(b)) => sel.retain(|i| {
                        live(lv, i)
                            && live(rv, i)
                            && cmp_keeps(*op, (a[i] as f64).total_cmp(&(b[i] as f64)))
                    }),
                    (ColumnData::Int(a), ColumnData::Float(b)) => sel.retain(|i| {
                        live(lv, i) && live(rv, i) && cmp_keeps(*op, (a[i] as f64).total_cmp(&b[i]))
                    }),
                    (ColumnData::Float(a), ColumnData::Int(b)) => sel.retain(|i| {
                        live(lv, i) && live(rv, i) && cmp_keeps(*op, a[i].total_cmp(&(b[i] as f64)))
                    }),
                    (ColumnData::Float(a), ColumnData::Float(b)) => sel.retain(|i| {
                        live(lv, i) && live(rv, i) && cmp_keeps(*op, a[i].total_cmp(&b[i]))
                    }),
                    (ColumnData::Str(a), ColumnData::Str(b)) => sel
                        .retain(|i| live(lv, i) && live(rv, i) && cmp_keeps(*op, a[i].cmp(&b[i]))),
                    (ColumnData::Bool(a), ColumnData::Bool(b)) => sel
                        .retain(|i| live(lv, i) && live(rv, i) && cmp_keeps(*op, a[i].cmp(&b[i]))),
                    _ => sel.retain(|i| value_cmp_matches(*op, &lc.value(i), &rc.value(i))),
                }
                0
            }
            ColPred::CmpExpr { left, op, right } => {
                // Both trees evaluated a node at a time over a batch of the
                // selection, compared in one pass; then one refinement.
                let mut verdicts = Vec::with_capacity(sel.len());
                sel.for_each_chunk(BATCH, |rows| {
                    let (l, r) =
                        (left.cells(cols, rows, scratch), right.cells(cols, rows, scratch));
                    verdicts.extend(rows.iter().enumerate().map(|(k, &i)| {
                        cells_match(*op, l.get(k), r.get(k)).unwrap_or_else(|| {
                            let i = i as usize;
                            let (l, r) =
                                (left.eval(cols, i, scratch), right.eval(cols, i, scratch));
                            value_cmp_matches(*op, &l, &r)
                        })
                    }));
                });
                let mut k = 0;
                sel.retain(|_| {
                    k += 1;
                    verdicts[k - 1]
                });
                0
            }
            ColPred::IsNull { col, negated } => {
                let c = &cols.cols[*col];
                if !c.has_nulls() {
                    if !*negated {
                        sel.clear();
                    }
                    return 0;
                }
                let negated = *negated;
                sel.retain(|i| c.is_null(i) != negated);
                0
            }
            ColPred::And(ps) => {
                let mut skips = 0;
                for p in ps {
                    if sel.is_empty() {
                        break;
                    }
                    skips += p.apply(cols, sel, scratch);
                }
                skips
            }
            ColPred::Or(p, q) => {
                sel.retain(|i| p.matches_at(cols, i, scratch) || q.matches_at(cols, i, scratch));
                0
            }
            ColPred::Row(e) => {
                sel.retain(|i| {
                    cols.gather_row(i, scratch);
                    e.matches(scratch)
                });
                0
            }
        }
    }

    /// Per-row evaluation, used inside `Or` where children cannot refine
    /// the selection independently.
    fn matches_at(&self, cols: &ColumnSet, i: usize, scratch: &mut Row) -> bool {
        match self {
            ColPred::CmpColLit { col, op, lit } => {
                value_cmp_matches(*op, &cols.cols[*col].value(i), lit)
            }
            ColPred::CmpColCol { left, op, right } => {
                value_cmp_matches(*op, &cols.cols[*left].value(i), &cols.cols[*right].value(i))
            }
            ColPred::CmpExpr { left, op, right } => {
                value_cmp_matches(*op, &left.eval(cols, i, scratch), &right.eval(cols, i, scratch))
            }
            ColPred::IsNull { col, negated } => cols.cols[*col].is_null(i) != *negated,
            ColPred::And(ps) => ps.iter().all(|p| p.matches_at(cols, i, scratch)),
            ColPred::Or(p, q) => p.matches_at(cols, i, scratch) || q.matches_at(cols, i, scratch),
            ColPred::Row(e) => {
                cols.gather_row(i, scratch);
                e.matches(scratch)
            }
        }
    }
}

/// A compiled columnar projection: one output column per expression, with
/// the declared output type (from the plan's derived schema) seeding the
/// typed builder.
#[derive(Debug, Clone)]
pub struct MapPlan {
    /// `(declared output type, compiled expression)` per output column.
    pub outs: Vec<(DataType, ColExpr)>,
}

/// A scalar expression compiled over column slices: the one arithmetic
/// evaluator of the crate, behind projection kernels, comparison kernels
/// ([`ColPred::CmpExpr`]) and query attributes alike.
#[derive(Debug, Clone)]
pub enum ColExpr {
    /// An input column.
    Take(usize),
    /// A constant.
    Lit(Value),
    /// Arithmetic (`Add`/`Sub`/`Mul`/`Div`/`Mod`) over two subtrees.
    Bin {
        /// Arithmetic operator.
        op: BinOp,
        /// Left operand.
        left: Box<ColExpr>,
        /// Right operand.
        right: Box<ColExpr>,
    },
    /// An expression with no kernel (it holds a function call, `NOT`, a
    /// comparison, ...): gather the row and evaluate the bound expression.
    /// Never a subtree of [`ColExpr::Bin`].
    Row(BoundExpr),
}

/// True for the five arithmetic operators.
fn is_arith(op: BinOp) -> bool {
    matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod)
}

/// Compile a bound expression into its columnar form: column references,
/// literals and arithmetic at any depth become a kernel tree. Any other
/// node keeps row semantics, and an arithmetic tree holding one is kept
/// whole as a [`ColExpr::Row`] — its row is gathered once, not per node.
pub fn compile_expr(e: &BoundExpr) -> ColExpr {
    match e {
        BoundExpr::Col(i) => ColExpr::Take(*i),
        BoundExpr::Lit(v) => ColExpr::Lit(v.clone()),
        BoundExpr::Binary { op, left, right } if is_arith(*op) => {
            match (compile_expr(left), compile_expr(right)) {
                (ColExpr::Row(_), _) | (_, ColExpr::Row(_)) => ColExpr::Row(e.clone()),
                (l, r) => ColExpr::Bin { op: *op, left: Box::new(l), right: Box::new(r) },
            }
        }
        other => ColExpr::Row(other.clone()),
    }
}

/// Compile projection expressions into a [`MapPlan`] given the declared
/// output column types.
pub fn compile_map(exprs: &[BoundExpr], dtypes: &[DataType]) -> MapPlan {
    MapPlan { outs: exprs.iter().zip(dtypes).map(|(e, &dt)| (dt, compile_expr(e))).collect() }
}

/// A numeric view of one cell for the arithmetic kernel.
#[derive(Clone, Copy)]
enum Cell {
    Null,
    I(i64),
    F(f64),
    /// Non-null, non-numeric (arithmetic yields NULL, same as `eval_arith`
    /// failing its coercions).
    Other,
}

impl Cell {
    #[inline]
    fn of(v: &Value) -> Cell {
        match v {
            Value::Null => Cell::Null,
            Value::Int(i) => Cell::I(*i),
            Value::Float(x) => Cell::F(*x),
            _ => Cell::Other,
        }
    }

    /// Row `i` of a column, read straight out of typed storage.
    #[inline]
    fn at(col: &Column, i: usize) -> Cell {
        if col.is_null(i) {
            return Cell::Null;
        }
        match &col.data {
            ColumnData::Int(xs) => Cell::I(xs[i]),
            ColumnData::Float(xs) => Cell::F(xs[i]),
            ColumnData::Mixed(vs) => Cell::of(&vs[i]),
            _ => Cell::Other,
        }
    }

    #[inline]
    fn as_f64(self) -> Option<f64> {
        match self {
            Cell::I(i) => Some(i as f64),
            Cell::F(x) => Some(x),
            _ => None,
        }
    }

    /// The value of an arithmetic result (never [`Cell::Other`]).
    fn value(self) -> Value {
        match self {
            Cell::I(x) => Value::Int(x),
            Cell::F(x) => Value::Float(x),
            _ => Value::Null,
        }
    }
}

/// Rows per batch of the expression evaluator: each tree node's temporary
/// stays small enough for the cache and the allocator's reuse lists.
const BATCH: usize = 1024;

/// A tree node's cell views over a batch of rows: one per row, or
/// one for all of them (a literal, or arithmetic over literals only).
enum Cells {
    Each(Vec<Cell>),
    All(Cell),
}

impl Cells {
    /// The view at the `k`-th selected row.
    #[inline]
    fn get(&self, k: usize) -> Cell {
        match self {
            Cells::Each(cs) => cs[k],
            Cells::All(c) => *c,
        }
    }
}

/// `eval_arith` over numeric cell views: NULL propagates; `Div` is always
/// float with `/0 → NULL`; `Mod` is integer-only with `%0 → NULL`;
/// `Add`/`Sub`/`Mul` compute in `f64` and narrow back to `Int` only when
/// *both* operands were integers — the exact row-path semantics, including
/// the precision loss of the `f64` round trip on huge integers. The result
/// is never [`Cell::Other`].
// Always inlined: called per element from the recursive batch evaluator,
// where the compiler otherwise leaves it an out-of-line call.
#[inline(always)]
fn arith(op: BinOp, l: Cell, r: Cell) -> Cell {
    if matches!(l, Cell::Null) || matches!(r, Cell::Null) {
        return Cell::Null;
    }
    match op {
        BinOp::Div => match (l.as_f64(), r.as_f64()) {
            (Some(a), Some(b)) if b != 0.0 => Cell::F(a / b),
            _ => Cell::Null,
        },
        BinOp::Mod => match (l, r) {
            (Cell::I(a), Cell::I(b)) if b != 0 => Cell::I(a.rem_euclid(b)),
            _ => Cell::Null,
        },
        _ => match (l.as_f64(), r.as_f64()) {
            (Some(a), Some(b)) => {
                let x = match op {
                    BinOp::Add => a + b,
                    BinOp::Sub => a - b,
                    BinOp::Mul => a * b,
                    _ => unreachable!("arith on non-arithmetic operator"),
                };
                if matches!((l, r), (Cell::I(_), Cell::I(_))) {
                    Cell::I(x as i64)
                } else {
                    Cell::F(x)
                }
            }
            _ => Cell::Null,
        },
    }
}

impl ColExpr {
    /// True when evaluating this expression never gathers a row.
    fn has_kernel(&self) -> bool {
        !matches!(self, ColExpr::Row(_))
    }

    /// The value at row `i` — exactly `BoundExpr::eval` of the row: the
    /// row-at-a-time form of [`ColExpr::cells`], for projections and for
    /// comparisons a batch cannot settle. `scratch` is the row buffer a
    /// [`ColExpr::Row`] node gathers into.
    fn eval(&self, cols: &ColumnSet, i: usize, scratch: &mut Row) -> Value {
        match self {
            ColExpr::Take(c) => cols.cols[*c].value(i),
            ColExpr::Lit(v) => v.clone(),
            ColExpr::Bin { op, left, right } => {
                let (l, r) = (left.eval(cols, i, scratch), right.eval(cols, i, scratch));
                arith(*op, Cell::of(&l), Cell::of(&r)).value()
            }
            ColExpr::Row(e) => {
                cols.gather_row(i, scratch);
                e.eval(scratch)
            }
        }
    }

    /// The numeric views at `rows`, in order: the tree evaluated a node at
    /// a time over the batch, each column read in one typed loop and a
    /// literal kept as one value.
    fn cells(&self, cols: &ColumnSet, rows: &[u32], scratch: &mut Row) -> Cells {
        Cells::Each(match self {
            ColExpr::Take(c) => {
                let col = &cols.cols[*c];
                match (&col.data, &col.valid) {
                    (ColumnData::Int(xs), None) => {
                        rows.iter().map(|&i| Cell::I(xs[i as usize])).collect()
                    }
                    (ColumnData::Float(xs), None) => {
                        rows.iter().map(|&i| Cell::F(xs[i as usize])).collect()
                    }
                    _ => rows.iter().map(|&i| Cell::at(col, i as usize)).collect(),
                }
            }
            ColExpr::Lit(v) => return Cells::All(Cell::of(v)),
            ColExpr::Bin { op, left, right } => {
                let op = *op;
                match (left.cells(cols, rows, scratch), right.cells(cols, rows, scratch)) {
                    (Cells::All(l), Cells::All(r)) => return Cells::All(arith(op, l, r)),
                    (Cells::Each(mut ls), Cells::All(r)) => {
                        ls.iter_mut().for_each(|l| *l = arith(op, *l, r));
                        ls
                    }
                    (Cells::All(l), Cells::Each(mut rs)) => {
                        rs.iter_mut().for_each(|r| *r = arith(op, l, *r));
                        rs
                    }
                    (Cells::Each(mut ls), Cells::Each(rs)) => {
                        ls.iter_mut().zip(rs).for_each(|(l, r)| *l = arith(op, *l, r));
                        ls
                    }
                }
            }
            ColExpr::Row(_) => {
                rows.iter().map(|&i| Cell::of(&self.eval(cols, i as usize, scratch))).collect()
            }
        })
    }

    /// Call `f` with each selected row and its numeric value
    /// (`Value::as_f64` of [`BoundExpr::eval`]; `None` where it is NULL or
    /// not a number), in selection order, evaluating a batch at a time.
    /// How a query reads its attribute.
    pub fn for_each_f64(
        &self,
        cols: &ColumnSet,
        sel: &SelVec,
        scratch: &mut Row,
        mut f: impl FnMut(usize, Option<f64>),
    ) {
        sel.for_each_chunk(BATCH, |rows| {
            let cells = self.cells(cols, rows, scratch);
            for (k, &i) in rows.iter().enumerate() {
                f(i as usize, cells.get(k).as_f64());
            }
        });
    }
}

impl MapPlan {
    /// Build the projected column set over the selected rows.
    pub fn apply(&self, cols: &ColumnSet, sel: &SelVec, scratch: &mut Row) -> ColumnSet {
        let n = sel.len();
        let mut out = Vec::with_capacity(self.outs.len());
        for (dt, ce) in &self.outs {
            let mut b = svc_storage::ColumnBuilder::new(*dt, n);
            for i in sel.iter() {
                b.push(&ce.eval(cols, i, scratch));
            }
            out.push(Arc::new(b.finish()));
        }
        ColumnSet { cols: out, len: n }
    }
}

/// Feed the canonical byte stream of a cell into a hash state — the exact
/// stream [`Value::canonical_bytes`] produces, without constructing a
/// `Value`. Type-rank prefixes match `Value::type_rank`
/// (NULL 0, Bool 1, Int 2, Float 3, Str 4); the η property harness pins
/// this equality against `HashSpec::selects_row`.
#[inline]
fn write_cell(c: &Column, i: usize, st: &mut HashState) {
    if c.is_null(i) {
        st.write(&[0]);
        return;
    }
    match &c.data {
        ColumnData::Int(xs) => {
            st.write(&[2]);
            st.write(&xs[i].to_le_bytes());
        }
        ColumnData::Float(xs) => {
            st.write(&[3]);
            st.write(&Value::canonical_f64_bits(xs[i]).to_le_bytes());
        }
        ColumnData::Bool(xs) => {
            st.write(&[1]);
            st.write(&[xs[i] as u8]);
        }
        ColumnData::Str(xs) => {
            st.write(&[4]);
            st.write(xs[i].as_bytes());
        }
        ColumnData::Mixed(vs) => vs[i].canonical_bytes(&mut |b| st.write(b)),
    }
}

/// Hash the key columns of row `i` straight out of typed storage — the
/// columnar twin of [`HashSpec::hash_row`], producing identical hashes
/// (both stream the canonical bytes). `None` when any key cell is NULL,
/// mirroring the join rule that NULL keys never enter a build map. This is
/// what lets the partitioned join's scatter pass run chunk-at-a-time over
/// a leaf's shared column set while row-built and column-built partitions
/// agree bit for bit (`exec::partition`).
#[inline]
pub(crate) fn hash_key_at(
    cols: &ColumnSet,
    key_idx: &[usize],
    i: usize,
    spec: HashSpec,
) -> Option<u64> {
    let mut st = spec.begin();
    for &k in key_idx {
        let c = &cols.cols[k];
        if c.is_null(i) {
            return None;
        }
        write_cell(c, i, &mut st);
    }
    Some(st.finish())
}

/// The η kernel: refine `sel` to rows whose key columns hash under
/// `ratio`, reading key bytes straight out of typed storage.
pub fn apply_hash(
    cols: &ColumnSet,
    sel: &mut SelVec,
    key_idx: &[usize],
    ratio: f64,
    spec: HashSpec,
) {
    sel.retain(|i| {
        let mut st = spec.begin();
        for &k in key_idx {
            write_cell(&cols.cols[k], i, &mut st);
        }
        normalize01(st.finish()) <= ratio
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use svc_storage::Schema;

    fn colset(rows: &[Vec<Value>], dts: &[(&str, DataType)]) -> ColumnSet {
        let schema = Schema::from_pairs(dts).unwrap();
        let rows: Vec<Row> = rows.to_vec();
        ColumnSet::from_rows(&schema, &rows)
    }

    #[test]
    fn zone_check_is_conclusive_only_when_sound() {
        // Column values span [3, 9].
        assert!(matches!(zone_check(BinOp::Lt, 3.0, 9.0, 10.0), ZoneHit::AllMatch));
        assert!(matches!(zone_check(BinOp::Lt, 3.0, 9.0, 3.0), ZoneHit::NoneMatch));
        assert!(matches!(zone_check(BinOp::Lt, 3.0, 9.0, 5.0), ZoneHit::Scan));
        assert!(matches!(zone_check(BinOp::Eq, 3.0, 9.0, 2.0), ZoneHit::NoneMatch));
        assert!(matches!(zone_check(BinOp::Eq, 4.0, 4.0, 4.0), ZoneHit::AllMatch));
        assert!(matches!(zone_check(BinOp::Ge, 3.0, 9.0, 3.0), ZoneHit::AllMatch));
        assert!(matches!(zone_check(BinOp::Ne, 3.0, 9.0, 11.0), ZoneHit::AllMatch));
    }

    #[test]
    fn flipped_literal_comparison_matches_row_semantics() {
        use crate::scalar::{col, lit};
        let schema = Schema::from_pairs(&[("x", DataType::Int)]).unwrap();
        let rows: Vec<Row> = (0..10).map(|i| vec![Value::Int(i)]).collect();
        let cols = ColumnSet::from_rows(&schema, &rows);
        // 4 < x, compiled through the flip path.
        let bound = lit(4i64).lt(col("x")).bind(&schema).unwrap();
        let pred = compile_pred(&bound);
        assert!(matches!(pred, ColPred::CmpColLit { op: BinOp::Gt, .. }));
        let mut sel = SelVec::range(0, 10);
        let mut scratch = Row::new();
        pred.apply(&cols, &mut sel, &mut scratch);
        let got: Vec<usize> = sel.iter().collect();
        let want: Vec<usize> =
            rows.iter().enumerate().filter(|(_, r)| bound.matches(r)).map(|(i, _)| i).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn cross_type_literal_is_constant_by_rank() {
        // Int column vs Str literal: Int < Str for every non-null cell.
        let cols = colset(
            &[vec![Value::Int(1)], vec![Value::Null], vec![Value::Int(5)]],
            &[("x", DataType::Int)],
        );
        let mut scratch = Row::new();
        let lt = ColPred::CmpColLit { col: 0, op: BinOp::Lt, lit: Value::str("z") };
        let mut sel = SelVec::range(0, 3);
        lt.apply(&cols, &mut sel, &mut scratch);
        assert_eq!(sel.iter().collect::<Vec<_>>(), vec![0, 2], "NULL never matches");
        let gt = ColPred::CmpColLit { col: 0, op: BinOp::Gt, lit: Value::str("z") };
        let mut sel = SelVec::range(0, 3);
        gt.apply(&cols, &mut sel, &mut scratch);
        assert!(sel.is_empty());
    }

    #[test]
    fn vectorized_hash_equals_selects_row() {
        let schema = Schema::from_pairs(&[("k", DataType::Int), ("s", DataType::Str)]).unwrap();
        let rows: Vec<Row> =
            (0..200).map(|i| vec![Value::Int(i), Value::str(format!("key-{i}"))]).collect();
        let cols = ColumnSet::from_rows(&schema, &rows);
        for spec in [
            HashSpec::with_seed(7),
            HashSpec { family: svc_storage::HashFamily::Fnv1a, seed: 9 },
            HashSpec { family: svc_storage::HashFamily::Multiplicative, seed: 3 },
        ] {
            let mut sel = SelVec::range(0, rows.len());
            apply_hash(&cols, &mut sel, &[1, 0], 0.4, spec);
            let got: Vec<usize> = sel.iter().collect();
            let want: Vec<usize> = rows
                .iter()
                .enumerate()
                .filter(|(_, r)| spec.selects_row(r, &[1, 0], 0.4))
                .map(|(i, _)| i)
                .collect();
            assert_eq!(got, want, "η kernel diverged for {spec:?}");
        }
    }

    #[test]
    fn arith_kernel_replicates_eval_arith() {
        use crate::scalar::{col, lit, Expr, Func};
        let schema = Schema::from_pairs(&[
            ("a", DataType::Int),
            ("b", DataType::Float),
            ("m", DataType::Int),
        ])
        .unwrap();
        // `m` holds an Int, a Float, a Str and a NULL: a `Mixed` column.
        let rows: Vec<Row> = vec![
            vec![Value::Int(7), Value::Float(2.5), Value::Int(3)],
            vec![Value::Int(-3), Value::Float(0.0), Value::Float(-0.0)],
            vec![Value::Null, Value::Float(1.0), Value::str("x")],
            vec![Value::Int(i64::MAX), Value::Float(f64::NAN), Value::Null],
            vec![Value::Int(0), Value::Null, Value::Int(0)],
        ];
        let cols = ColumnSet::from_rows(&schema, &rows);
        assert!(matches!(cols.cols[2].data, ColumnData::Mixed(_)));
        let sel = SelVec::range(0, rows.len());
        let mut scratch = Row::new();
        let abs = |e| Expr::Call { func: Func::Abs, args: vec![e] };
        for (e, kernel) in [
            (col("a").add(lit(1i64)), true),
            (col("a").mul(col("b")), true),
            (col("a").div(col("b")), true),
            (col("a").rem(lit(4i64)), true),
            (col("b").sub(col("a")), true),
            // Trees: int × int narrowing through a nested node, ÷0 and %0
            // at depth, Mixed operands, and a node with no kernel inside.
            (col("a").mul(col("a")).sub(lit(1i64)), true),
            (col("a").add(lit(1i64)).div(col("a").mul(lit(0i64))), true),
            (col("a").rem(col("a").sub(col("a"))).add(col("b")), true),
            (col("m").mul(lit(2i64)).add(col("a")), true),
            (col("m").rem(lit(2i64)), true),
            (abs(col("b")).add(col("a").div(lit(2i64))), false),
        ] {
            let bound = e.bind(&schema).unwrap();
            let dt = e.infer_type(&schema).unwrap();
            let plan = compile_map(std::slice::from_ref(&bound), &[dt]);
            // A tree holding a node with no kernel is kept whole.
            assert_eq!(matches!(plan.outs[0].1, ColExpr::Bin { .. }), kernel, "{e}");
            assert_eq!(plan.outs[0].1.has_kernel(), kernel, "{e}");
            let out = plan.apply(&cols, &sel, &mut scratch);
            for (i, row) in rows.iter().enumerate() {
                let want = bound.eval(row);
                for got in [out.cols[0].value(i), plan.outs[0].1.eval(&cols, i, &mut scratch)] {
                    match (&got, &want) {
                        (Value::Float(a), Value::Float(b)) => {
                            assert_eq!(a.to_bits(), b.to_bits(), "{e} row {i}");
                        }
                        _ => assert_eq!(got, want, "{e} row {i}"),
                    }
                }
            }
        }
    }

    #[test]
    fn expression_comparisons_match_row_semantics() {
        use crate::scalar::{col, lit};
        let schema = Schema::from_pairs(&[
            ("s", DataType::Float),
            ("n", DataType::Int),
            ("m", DataType::Int),
        ])
        .unwrap();
        let rows: Vec<Row> = (0..40i64)
            .map(|i| {
                let n = if i % 7 == 0 { Value::Int(0) } else { Value::Int(i % 5) };
                let m = match i % 4 {
                    0 => Value::Null,
                    1 => Value::Float(i as f64 / 3.0),
                    2 => Value::str("z"),
                    _ => Value::Int(i),
                };
                let s = if i % 9 == 0 { Value::Null } else { Value::Float(i as f64 * 1.5) };
                vec![s, n, m]
            })
            .collect();
        let cols = ColumnSet::from_rows(&schema, &rows);
        let mut scratch = Row::new();
        // A lowered avg predicate (`s / n`), its flipped form, int
        // narrowing, `%0`, a tree against a Mixed column, and a numeric tree
        // against a Str literal (constant by type rank).
        for e in [
            col("s").div(col("n")).ge(lit(6.0)),
            lit(6.0).ge(col("s").div(col("n"))),
            lit(2i64).lt(col("n").mul(col("n"))),
            col("n").rem(col("n")).eq(lit(0i64)),
            col("m").lt(col("n").add(lit(10i64))),
            col("s").sub(col("n")).lt(lit("a")),
        ] {
            let bound = e.bind(&schema).unwrap();
            let pred = compile_pred(&bound);
            assert!(matches!(pred, ColPred::CmpExpr { .. }), "{e}");
            assert!(pred.has_kernel(), "{e}");
            let mut sel = SelVec::range(0, rows.len());
            pred.apply(&cols, &mut sel, &mut scratch);
            let want: Vec<usize> = (0..rows.len()).filter(|&i| bound.matches(&rows[i])).collect();
            assert_eq!(sel.iter().collect::<Vec<_>>(), want, "{e}");
            // And per row, as inside an `Or`.
            let got: Vec<usize> =
                (0..rows.len()).filter(|&i| pred.matches_at(&cols, i, &mut scratch)).collect();
            assert_eq!(got, want, "{e}");
        }
    }
}
