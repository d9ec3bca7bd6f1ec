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
//! loops are the comparison fast paths beside it. A tree runs a batch of
//! rows a node at a time into typed lanes — `i64` or `f64` values plus a
//! NULL mask — with each node's operator matched once per batch, and a
//! comparison of two lanes refines the selection directly. A per-row cell
//! view is left only where a node meets a Mixed, Str or Bool column; a node
//! with no kernel (a function call, a general `NOT`) gathers its row into a
//! scratch buffer and falls back to [`BoundExpr`] evaluation.
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

use std::borrow::Cow;
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
    /// A conjunction of comparisons of one arithmetic tree against numeric
    /// literals — a lowered `avg` column's range, `s / n BETWEEN lo AND
    /// hi`: the tree is evaluated once per batch and every bound tested in
    /// one branch-free pass.
    Interval {
        /// The tree every bound compares.
        expr: ColExpr,
        /// `(operator, numeric literal)` per bound, the literal on the
        /// right.
        bounds: Vec<(BinOp, Value)>,
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
            // selection is order-free — so bounds on one tree may fuse into
            // one test, and typed kernels run first: any row-fallback
            // conjunct then gathers only the rows the kernels already kept.
            let (mut kernels, fallbacks): (Vec<_>, Vec<_>) =
                fuse_intervals(ps).into_iter().partition(ColPred::has_kernel);
            kernels.extend(fallbacks);
            if kernels.len() == 1 {
                return kernels.pop().expect("one conjunct");
            }
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
            ColPred::Interval { expr, .. } => expr.has_kernel(),
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

/// Fuse the conjuncts that compare one arithmetic tree against a numeric
/// literal into one [`ColPred::Interval`] per tree, at the place of its
/// first bound; every other conjunct stays as it is.
fn fuse_intervals(ps: Vec<ColPred>) -> Vec<ColPred> {
    let mut out: Vec<ColPred> = Vec::with_capacity(ps.len());
    for p in ps {
        let ColPred::CmpExpr { left, op, right: ColExpr::Lit(lit) } = p else {
            out.push(p);
            continue;
        };
        if !left.has_kernel() || lit.as_f64().is_none() {
            out.push(ColPred::CmpExpr { left, op, right: ColExpr::Lit(lit) });
            continue;
        }
        let fused = out.iter_mut().find_map(|q| match q {
            ColPred::Interval { expr, bounds } if same_tree(expr, &left) => Some(bounds),
            _ => None,
        });
        match fused {
            Some(bounds) => bounds.push((op, lit)),
            None => out.push(ColPred::Interval { expr: left, bounds: vec![(op, lit)] }),
        }
    }
    // A tree with a single bound stays a plain comparison.
    out.into_iter()
        .map(|p| match p {
            ColPred::Interval { expr, mut bounds } if bounds.len() == 1 => {
                let (op, lit) = bounds.pop().expect("one bound");
                ColPred::CmpExpr { left: expr, op, right: ColExpr::Lit(lit) }
            }
            p => p,
        })
        .collect()
}

/// Do two kernel trees compute the same value on every row? Structural
/// equality, literals by exact bits (`0.0` and `-0.0` divide differently).
fn same_tree(a: &ColExpr, b: &ColExpr) -> bool {
    match (a, b) {
        (ColExpr::Take(x), ColExpr::Take(y)) => x == y,
        (ColExpr::Lit(x), ColExpr::Lit(y)) => match (x, y) {
            (Value::Null, Value::Null) => true,
            (Value::Int(x), Value::Int(y)) => x == y,
            (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
            _ => false,
        },
        (ColExpr::Bin { op: o, left: l, right: r }, ColExpr::Bin { op: p, left: m, right: q }) => {
            o == p && same_tree(l, m) && same_tree(r, q)
        }
        _ => false,
    }
}

/// The orderings a comparison operator keeps, one bit each: bit
/// `ordering as i8 + 1` (less 0, equal 1, greater 2).
fn ordering_mask(op: BinOp) -> u8 {
    match op {
        BinOp::Lt => 0b001,
        BinOp::Le => 0b011,
        BinOp::Eq => 0b010,
        BinOp::Ne => 0b101,
        BinOp::Ge => 0b110,
        BinOp::Gt => 0b100,
        _ => unreachable!("ordering_mask on non-comparison operator"),
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
                // selection, compared straight into the refined selection.
                sel.retain_batches(BATCH, |rows, kept| {
                    let (l, r) = (left.lane(cols, rows, scratch), right.lane(cols, rows, scratch));
                    compare_lanes(*op, (&l, &r), rows, kept, |i| {
                        let (l, r) = (left.eval(cols, i, scratch), right.eval(cols, i, scratch));
                        value_cmp_matches(*op, &l, &r)
                    });
                });
                0
            }
            ColPred::Interval { expr, bounds } => {
                let tests: Vec<(u8, f64)> = bounds
                    .iter()
                    .map(|(op, lit)| (ordering_mask(*op), lit.as_f64().expect("numeric bound")))
                    .collect();
                sel.retain_batches(BATCH, |rows, kept| {
                    let lane = expr.lane(cols, rows, scratch);
                    match lane.typed() {
                        Some((Typed::I(xs), mask)) => {
                            keep_within(xs, rows, mask.as_deref(), &tests, kept);
                        }
                        Some((Typed::F(xs), mask)) => {
                            keep_within(xs, rows, mask.as_deref(), &tests, kept);
                        }
                        // Cells, or a non-numeric constant: bound by bound,
                        // by value where a cell cannot settle it.
                        None => {
                            for (k, &i) in rows.iter().enumerate() {
                                let cell = lane.cell(k);
                                let hit = bounds.iter().all(|(op, lit)| {
                                    cells_match(*op, cell, Cell::of(lit)).unwrap_or_else(|| {
                                        let v = expr.eval(cols, i as usize, scratch);
                                        value_cmp_matches(*op, &v, lit)
                                    })
                                });
                                if hit {
                                    kept.push(i);
                                }
                            }
                        }
                    }
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
            ColPred::Interval { expr, bounds } => {
                let v = expr.eval(cols, i, scratch);
                bounds.iter().all(|(op, lit)| value_cmp_matches(*op, &v, lit))
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

/// A numeric view of one cell, for the rows a typed lane cannot hold.
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

    /// Row `i` of a column no typed lane holds: Mixed, Str or Bool.
    #[inline]
    fn at(col: &Column, i: usize) -> Cell {
        match &col.data {
            ColumnData::Mixed(vs) => Cell::of(&vs[i]),
            _ if col.is_null(i) => Cell::Null,
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

/// Rows per batch of the expression evaluator: each tree node's lane stays
/// small enough for the cache and the allocator's reuse lists.
const BATCH: usize = 1024;

/// A lane's validity over a batch: `false` marks a NULL row; `None`, none.
type Mask<'a> = Option<Cow<'a, [bool]>>;

/// One tree node's values over a batch of rows. A column read over a run
/// of consecutive rows borrows its slice.
enum Lane<'a> {
    /// One value for every row: a literal, or arithmetic over literals only.
    All(Cell),
    /// Integers, one per row; a NULL row holds an unspecified value.
    Int(Cow<'a, [i64]>, Mask<'a>),
    /// Floats, one per row; a NULL row holds an unspecified value.
    Float(Cow<'a, [f64]>, Mask<'a>),
    /// Cell views, one per row: a node that met a Mixed, Str or Bool
    /// column, or a row-evaluated subtree.
    Cells(Vec<Cell>),
}

/// An `i64` or `f64` lane element, read as the `f64` every comparison and
/// every arithmetic operator but `%` computes in.
trait Num: Copy {
    fn f(self) -> f64;
}

impl Num for i64 {
    #[inline(always)]
    fn f(self) -> f64 {
        self as f64
    }
}

impl Num for f64 {
    #[inline(always)]
    fn f(self) -> f64 {
        self
    }
}

/// One operand of a typed loop: a value per row, or one for every row.
#[derive(Clone, Copy)]
enum Src<'a, T> {
    Each(&'a [T]),
    All(T),
}

/// A typed lane as loop operands.
#[derive(Clone, Copy)]
enum Typed<'a> {
    I(Src<'a, i64>),
    F(Src<'a, f64>),
}

/// Run the generic loop `$f(a, b, args..)` with each operand at its own
/// element type, so an integer side widens inside the loop.
macro_rules! typed_pair {
    ($a:expr, $b:expr, $f:ident($($arg:expr),*)) => {
        match ($a, $b) {
            (Typed::I(a), Typed::I(b)) => $f(a, b, $($arg),*),
            (Typed::I(a), Typed::F(b)) => $f(a, b, $($arg),*),
            (Typed::F(a), Typed::I(b)) => $f(a, b, $($arg),*),
            (Typed::F(a), Typed::F(b)) => $f(a, b, $($arg),*),
        }
    };
}

/// `f` over the two operands of one batch, row by row, on their `f64`
/// views.
#[inline(always)]
fn zip<A: Num, B: Num, T>(a: Src<A>, b: Src<B>, mut f: impl FnMut(f64, f64) -> T) -> Vec<T> {
    match (a, b) {
        (Src::Each(a), Src::Each(b)) => a.iter().zip(b).map(|(x, y)| f(x.f(), y.f())).collect(),
        (Src::Each(a), Src::All(y)) => a.iter().map(|x| f(x.f(), y.f())).collect(),
        (Src::All(x), Src::Each(b)) => b.iter().map(|y| f(x.f(), y.f())).collect(),
        (Src::All(_), Src::All(_)) => unreachable!("two constants fold into one"),
    }
}

/// `÷` on a batch: always float, NULL where the divisor is 0.
fn divide<'a, A: Num, B: Num>(a: Src<A>, b: Src<B>, mask: Mask<'a>) -> Lane<'a> {
    match b {
        Src::All(y) if y.f() == 0.0 => Lane::All(Cell::Null),
        Src::Each(ys) if ys.iter().any(|y| y.f() == 0.0) => {
            let nonzero = Some(Cow::Owned(ys.iter().map(|y| y.f() != 0.0).collect()));
            Lane::Float(Cow::Owned(zip(a, b, |x, y| x / y)), and_masks(mask, nonzero))
        }
        _ => Lane::Float(Cow::Owned(zip(a, b, |x, y| x / y)), mask),
    }
}

/// `%` on a batch of integers: NULL where the divisor is 0.
fn modulo<'a>(a: Src<i64>, b: Src<i64>, mask: Mask<'a>) -> Lane<'a> {
    let mask = match b {
        Src::All(0) => return Lane::All(Cell::Null),
        Src::Each(ys) if ys.contains(&0) => {
            and_masks(mask, Some(Cow::Owned(ys.iter().map(|&y| y != 0).collect())))
        }
        _ => mask,
    };
    let at = |s: Src<i64>, k: usize| match s {
        Src::Each(xs) => xs[k],
        Src::All(x) => x,
    };
    let n = match (a, b) {
        (Src::Each(xs), _) | (_, Src::Each(xs)) => xs.len(),
        _ => unreachable!("two constants fold into one"),
    };
    // Only a live row divides: a NULL row's value is unspecified and could
    // be a zero divisor where the row path never divides.
    let xs = (0..n)
        .map(|k| if live(mask.as_deref(), k) { at(a, k).wrapping_rem_euclid(at(b, k)) } else { 0 })
        .collect();
    Lane::Int(Cow::Owned(xs), mask)
}

fn and_masks<'a>(a: Mask<'a>, b: Mask<'a>) -> Mask<'a> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.iter().zip(b.iter()).map(|(&x, &y)| x && y).collect()),
        (a, None) | (None, a) => a,
    }
}

/// `xs` at `rows`: the slice itself over a run of consecutive rows (a dense
/// selection), else a gathered copy.
fn gather<'a, T: Copy>(xs: &'a [T], rows: &[u32]) -> Cow<'a, [T]> {
    match (rows.first(), rows.last()) {
        (Some(&lo), Some(&hi)) if (hi - lo) as usize + 1 == rows.len() => {
            Cow::Borrowed(&xs[lo as usize..=hi as usize])
        }
        _ => Cow::Owned(rows.iter().map(|&i| xs[i as usize]).collect()),
    }
}

impl Lane<'_> {
    /// The view at the `k`-th row of the batch.
    #[inline]
    fn cell(&self, k: usize) -> Cell {
        match self {
            Lane::All(c) => *c,
            Lane::Int(xs, m) if live(m.as_deref(), k) => Cell::I(xs[k]),
            Lane::Float(xs, m) if live(m.as_deref(), k) => Cell::F(xs[k]),
            Lane::Int(..) | Lane::Float(..) => Cell::Null,
            Lane::Cells(cs) => cs[k],
        }
    }

    /// The typed loops' view of this lane and its mask; `None` for cells
    /// or a non-numeric constant.
    fn typed(&self) -> Option<(Typed<'_>, Mask<'_>)> {
        Some(match self {
            Lane::Int(xs, m) => (Typed::I(Src::Each(xs)), m.as_deref().map(Cow::Borrowed)),
            Lane::Float(xs, m) => (Typed::F(Src::Each(xs)), m.as_deref().map(Cow::Borrowed)),
            Lane::All(Cell::I(x)) => (Typed::I(Src::All(*x)), None),
            Lane::All(Cell::F(x)) => (Typed::F(Src::All(*x)), None),
            _ => return None,
        })
    }
}

/// `eval_arith` over numeric cell views: NULL propagates; `Div` is always
/// float with `/0 → NULL`; `Mod` is integer-only with `%0 → NULL` and
/// never overflows; `Add`/`Sub`/`Mul` compute in `f64` and narrow back to
/// `Int` only when *both* operands were integers — the exact row-path
/// semantics, including the precision loss of the `f64` round trip on huge
/// integers. The result is never [`Cell::Other`].
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
            (Cell::I(a), Cell::I(b)) if b != 0 => Cell::I(a.wrapping_rem_euclid(b)),
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

/// [`arith`] over two lanes of a batch of `n` rows. Typed lanes run one
/// loop per node with the operator matched once; a lane of cells takes the
/// cell-at-a-time path.
fn arith_lanes<'a>(op: BinOp, l: &Lane, r: &Lane, n: usize) -> Lane<'a> {
    if let (Lane::All(a), Lane::All(b)) = (l, r) {
        return Lane::All(arith(op, *a, *b));
    }
    // A NULL or non-numeric constant makes every row NULL.
    if [l, r].iter().any(|x| matches!(x, Lane::All(c) if c.as_f64().is_none())) {
        return Lane::All(Cell::Null);
    }
    let (Some((a, am)), Some((b, bm))) = (l.typed(), r.typed()) else {
        return Lane::Cells((0..n).map(|k| arith(op, l.cell(k), r.cell(k))).collect());
    };
    let mask = and_masks(am, bm).map(|m| Cow::Owned(m.into_owned()));
    match (op, a, b) {
        (BinOp::Div, a, b) => typed_pair!(a, b, divide(mask)),
        (BinOp::Mod, Typed::I(a), Typed::I(b)) => modulo(a, b, mask),
        (BinOp::Mod, ..) => Lane::All(Cell::Null),
        // Int ∘ Int computes in `f64` and narrows back.
        (op, Typed::I(a), Typed::I(b)) => Lane::Int(
            Cow::Owned(match op {
                BinOp::Add => zip(a, b, |x, y| (x + y) as i64),
                BinOp::Sub => zip(a, b, |x, y| (x - y) as i64),
                _ => zip(a, b, |x, y| (x * y) as i64),
            }),
            mask,
        ),
        (op, a, b) => Lane::Float(
            Cow::Owned(match op {
                BinOp::Add => typed_pair!(a, b, zip(|x, y| x + y)),
                BinOp::Sub => typed_pair!(a, b, zip(|x, y| x - y)),
                _ => typed_pair!(a, b, zip(|x, y| x * y)),
            }),
            mask,
        ),
    }
}

/// Push onto `kept` the rows of a batch whose two sides, as `f64` under
/// `total_cmp`, satisfy `keep`, skipping NULL rows.
#[inline(always)]
fn keep_where<A: Num, B: Num>(
    a: Src<A>,
    b: Src<B>,
    rows: &[u32],
    valid: Option<&[bool]>,
    kept: &mut Vec<u32>,
    keep: impl Fn(Ordering) -> bool,
) {
    // Branch-free: every row is written, and only a kept one advances the
    // end (a data-dependent branch per row costs more than the loop).
    let start = kept.len();
    kept.resize(start + rows.len(), 0);
    let out = &mut kept[start..];
    let mut n = 0;
    let mut push = |i: u32, hit: bool| {
        out[n] = i;
        n += usize::from(hit);
    };
    let test = |k: usize, x: f64, y: f64| keep(x.total_cmp(&y)) & live(valid, k);
    let rows = rows.iter().copied().enumerate();
    match (a, b) {
        (Src::Each(a), Src::Each(b)) => {
            for ((k, i), (x, y)) in rows.zip(a.iter().zip(b)) {
                push(i, test(k, x.f(), y.f()));
            }
        }
        (Src::Each(a), Src::All(y)) => {
            for ((k, i), x) in rows.zip(a) {
                push(i, test(k, x.f(), y.f()));
            }
        }
        (Src::All(x), Src::Each(b)) => {
            for ((k, i), y) in rows.zip(b) {
                push(i, test(k, x.f(), y.f()));
            }
        }
        (Src::All(x), Src::All(y)) => rows.for_each(|(k, i)| push(i, test(k, x.f(), y.f()))),
    }
    kept.truncate(start + n);
}

/// Push onto `kept` the rows of a batch whose value, as `f64` under
/// `total_cmp`, passes every test — `(orderings kept, literal)` — skipping
/// NULL rows. One pass, branch-free: every row is written and only a kept
/// one advances the end.
#[inline(always)]
fn keep_within<A: Num>(
    xs: Src<A>,
    rows: &[u32],
    valid: Option<&[bool]>,
    tests: &[(u8, f64)],
    kept: &mut Vec<u32>,
) {
    let within = |x: f64| {
        tests.iter().fold(true, |all, &(keeps, at)| {
            all & ((keeps >> (x.total_cmp(&at) as i8 + 1)) & 1 == 1)
        })
    };
    let start = kept.len();
    kept.resize(start + rows.len(), 0);
    let out = &mut kept[start..];
    let mut n = 0;
    match xs {
        Src::Each(xs) => {
            for (k, (&i, x)) in rows.iter().zip(xs).enumerate() {
                out[n] = i;
                n += usize::from(within(x.f()) & live(valid, k));
            }
        }
        Src::All(x) => {
            let hit = within(x.f());
            for (k, &i) in rows.iter().enumerate() {
                out[n] = i;
                n += usize::from(hit & live(valid, k));
            }
        }
    }
    kept.truncate(start + n);
}

/// `eval_cmp` as a predicate over two lanes of a batch: NULL never
/// matches, numbers compare as `f64` under `total_cmp` in one typed loop
/// per operator. A lane of cells compares cell by cell, and a pair the
/// cells cannot settle (a non-numeric value, ordered by type rank) asks
/// `by_value` with the row.
fn compare_lanes(
    op: BinOp,
    (l, r): (&Lane, &Lane),
    rows: &[u32],
    kept: &mut Vec<u32>,
    mut by_value: impl FnMut(usize) -> bool,
) {
    if matches!(l, Lane::All(Cell::Null)) || matches!(r, Lane::All(Cell::Null)) {
        return;
    }
    let (Some((a, am)), Some((b, bm))) = (l.typed(), r.typed()) else {
        for (k, &i) in rows.iter().enumerate() {
            if cells_match(op, l.cell(k), r.cell(k)).unwrap_or_else(|| by_value(i as usize)) {
                kept.push(i);
            }
        }
        return;
    };
    let mask = and_masks(am, bm);
    let valid = mask.as_deref();
    match op {
        BinOp::Eq => typed_pair!(a, b, keep_where(rows, valid, kept, Ordering::is_eq)),
        BinOp::Ne => typed_pair!(a, b, keep_where(rows, valid, kept, Ordering::is_ne)),
        BinOp::Lt => typed_pair!(a, b, keep_where(rows, valid, kept, Ordering::is_lt)),
        BinOp::Le => typed_pair!(a, b, keep_where(rows, valid, kept, Ordering::is_le)),
        BinOp::Gt => typed_pair!(a, b, keep_where(rows, valid, kept, Ordering::is_gt)),
        BinOp::Ge => typed_pair!(a, b, keep_where(rows, valid, kept, Ordering::is_ge)),
        _ => unreachable!("compare_lanes on {op:?}"),
    }
}

impl ColExpr {
    /// True when evaluating this expression never gathers a row.
    fn has_kernel(&self) -> bool {
        !matches!(self, ColExpr::Row(_))
    }

    /// The value at row `i` — exactly `BoundExpr::eval` of the row: the
    /// row-at-a-time form of [`ColExpr::lane`], for comparisons inside an
    /// `Or`, for pairs a lane cannot settle and for projected columns and
    /// literals. `scratch` is the row buffer a [`ColExpr::Row`] node
    /// gathers into.
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

    /// The values at `rows`, in order: the tree evaluated a node at a time
    /// over the batch, an Int or Float column read as a typed lane, a
    /// literal kept as one value.
    fn lane<'a>(&self, cols: &'a ColumnSet, rows: &[u32], scratch: &mut Row) -> Lane<'a> {
        match self {
            ColExpr::Take(c) => {
                let col = &cols.cols[*c];
                let mask = || col.valid.as_deref().map(|v| gather(v, rows));
                match &col.data {
                    ColumnData::Int(xs) => Lane::Int(gather(xs, rows), mask()),
                    ColumnData::Float(xs) => Lane::Float(gather(xs, rows), mask()),
                    _ => Lane::Cells(rows.iter().map(|&i| Cell::at(col, i as usize)).collect()),
                }
            }
            ColExpr::Lit(v) => Lane::All(Cell::of(v)),
            ColExpr::Bin { op, left, right } => {
                let (l, r) = (left.lane(cols, rows, scratch), right.lane(cols, rows, scratch));
                arith_lanes(*op, &l, &r, rows.len())
            }
            ColExpr::Row(_) => Lane::Cells(
                rows.iter().map(|&i| Cell::of(&self.eval(cols, i as usize, scratch))).collect(),
            ),
        }
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
        sel.for_each_chunk(BATCH, |rows| match self.lane(cols, rows, scratch) {
            Lane::Int(xs, m) => {
                for (k, (&i, &x)) in rows.iter().zip(xs.iter()).enumerate() {
                    f(i as usize, live(m.as_deref(), k).then_some(x as f64));
                }
            }
            Lane::Float(xs, m) => {
                for (k, (&i, &x)) in rows.iter().zip(xs.iter()).enumerate() {
                    f(i as usize, live(m.as_deref(), k).then_some(x));
                }
            }
            lane => {
                for (k, &i) in rows.iter().enumerate() {
                    f(i as usize, lane.cell(k).as_f64());
                }
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
            if let ColExpr::Bin { .. } = ce {
                // Arithmetic runs on lanes; its results are numbers or NULL.
                sel.for_each_chunk(BATCH, |rows| {
                    let lane = ce.lane(cols, rows, scratch);
                    (0..rows.len()).for_each(|k| b.push(&lane.cell(k).value()));
                });
            } else {
                for i in sel.iter() {
                    b.push(&ce.eval(cols, i, scratch));
                }
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
        for spec in [7, 9, 3].map(HashSpec::with_seed) {
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

    /// Generated columns for the typed-lane edge cases: a nullable Int `a`
    /// with `i64` extremes, an Int `b` with zeros and negatives (−1 among
    /// them: `i64::MIN % −1` is 0 on both paths), a nullable Float `x` with
    /// NaN, ±0 and ±∞, a Float `y`, and a Mixed `m`.
    fn edge_rows(n: usize) -> (Schema, Vec<Row>) {
        let schema = Schema::from_pairs(&[
            ("a", DataType::Int),
            ("b", DataType::Int),
            ("x", DataType::Float),
            ("y", DataType::Float),
            ("m", DataType::Int),
        ])
        .unwrap();
        let mut seed = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let ints = [0, 1, 3, -3, 7, -7, i64::MAX, i64::MIN, 1 << 62, -(1 << 62), 1 << 53];
        let floats = [0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1.5, -2.25, 1e300];
        let rows = (0..n)
            .map(|_| {
                let r = next();
                let pick = |salt: u32, pool: usize| (r.rotate_left(salt) % pool as u64) as usize;
                let small = ((r >> 20) % 41) as i64 - 20;
                let a = match r % 5 {
                    0 => Value::Null,
                    1 | 2 => Value::Int(ints[pick(7, ints.len())]),
                    _ => Value::Int(small * 1_000_003),
                };
                let b = Value::Int(match (r >> 3) % 3 {
                    0 => [0, 3, -3, 7, -7, -1][pick(11, 6)],
                    _ => small,
                });
                let x = match (r >> 5) % 6 {
                    0 => Value::Null,
                    1 | 2 => Value::Float(floats[pick(17, floats.len())]),
                    _ => Value::Float(small as f64 / 4.0),
                };
                let y = Value::Float(match (r >> 9) % 4 {
                    0 => floats[pick(23, floats.len())],
                    _ => (small as f64) * 0.75,
                });
                let m = match (r >> 13) % 5 {
                    0 => Value::Null,
                    1 => Value::Float(small as f64 / 2.0),
                    2 => Value::str("s"),
                    _ => Value::Int(small),
                };
                vec![a, b, x, y, m]
            })
            .collect();
        (schema, rows)
    }

    #[test]
    fn typed_lanes_equal_the_row_evaluator_on_edge_cases() {
        use crate::scalar::{col, lit, Expr};
        let (schema, rows) = edge_rows(2600);
        let cols = ColumnSet::from_rows(&schema, &rows);
        assert!(matches!(cols.cols[4].data, ColumnData::Mixed(_)));
        assert!(cols.cols[0].valid.is_some() && cols.cols[2].valid.is_some());
        let mut scratch = Row::new();
        let batch: Vec<u32> = (0..8).collect();
        // Int and Float columns read into typed lanes; a Mixed one, cells.
        assert!(matches!(
            ColExpr::Take(0).lane(&cols, &batch, &mut scratch),
            Lane::Int(_, Some(_))
        ));
        assert!(matches!(ColExpr::Take(3).lane(&cols, &batch, &mut scratch), Lane::Float(_, None)));
        assert!(matches!(ColExpr::Take(4).lane(&cols, &batch, &mut scratch), Lane::Cells(_)));
        let exprs = [
            col("a").div(col("b")),
            col("a").mul(col("a")),
            col("a").add(lit(i64::MAX)),
            col("a").sub(col("b")).mul(lit(1i64 << 40)),
            col("a").rem(col("b")),
            col("b").rem(lit(-3i64)),
            lit(-7i64).rem(col("b")),
            col("a").sub(col("b")).rem(col("b")),
            col("a").rem(lit(0i64)),
            col("a").div(lit(0i64)),
            col("x").div(col("y")),
            col("x").mul(col("a")),
            col("y").sub(col("x")),
            lit(1.5).sub(col("x")).div(col("b")),
            col("x").rem(col("b")),
            col("m").add(col("a")),
            col("m").rem(col("b")),
            col("a").mul(lit(4i64)).div(col("x")).add(col("m")),
            col("a").add(lit(Value::Null)),
        ];
        let every_third: Vec<u32> = (0..rows.len() as u32).filter(|i| i % 3 != 1).collect();
        let sels =
            [SelVec::range(0, rows.len()), SelVec::range(37, 2411), SelVec::Idx(every_third)];
        let values = |sel: &SelVec, e: &ColExpr, scratch: &mut Row| {
            let mut got = Vec::new();
            e.for_each_f64(&cols, sel, scratch, |i, v| got.push((i, v.map(f64::to_bits))));
            got
        };
        let bits = |v: Value| match v {
            Value::Float(x) => Err(x.to_bits()),
            v => Ok(v),
        };
        for e in &exprs {
            let bound = e.bind(&schema).unwrap();
            let ce = compile_expr(&bound);
            assert!(ce.has_kernel(), "{e}");
            let dt = e.infer_type(&schema).unwrap_or(DataType::Float);
            let map = compile_map(std::slice::from_ref(&bound), &[dt]);
            for sel in &sels {
                assert!(sel.len() > BATCH);
                let want: Vec<_> = sel
                    .iter()
                    .map(|i| (i, bound.eval(&rows[i]).as_f64().map(f64::to_bits)))
                    .collect();
                assert_eq!(values(sel, &ce, &mut scratch), want, "{e}");
                // The projection of the same tree, column by column.
                let projected = map.apply(&cols, sel, &mut scratch);
                for (k, i) in sel.iter().enumerate() {
                    let (got, want) = (projected.cols[0].value(k), bound.eval(&rows[i]));
                    assert_eq!(bits(got), bits(want), "{e} row {i}");
                }
            }
        }
        // Every comparison of a tree against a literal (the literal on
        // either side) and against another tree.
        let ops = [BinOp::Eq, BinOp::Ne, BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge];
        let cmp = |op, l: &Expr, r: &Expr| Expr::Binary {
            op,
            left: Box::new(l.clone()),
            right: Box::new(r.clone()),
        };
        for (i, e) in exprs.iter().enumerate() {
            let other = &exprs[(i + 7) % exprs.len()];
            for op in ops {
                for pred in [
                    cmp(op, e, &lit(0i64)),
                    cmp(op, &lit(-0.0), e),
                    cmp(op, e, &lit(f64::NAN)),
                    cmp(op, &lit(7i64), e),
                    cmp(op, e, other),
                ] {
                    let bound = pred.bind(&schema).unwrap();
                    let kernel = compile_pred(&bound);
                    assert!(matches!(kernel, ColPred::CmpExpr { .. }), "{pred}");
                    for sel in &sels {
                        let mut got = sel.clone();
                        kernel.apply(&cols, &mut got, &mut scratch);
                        let want: Vec<usize> =
                            sel.iter().filter(|&i| bound.matches(&rows[i])).collect();
                        assert_eq!(got.iter().collect::<Vec<_>>(), want, "{pred}");
                    }
                }
            }
        }
    }

    /// Conjoined bounds on one arithmetic tree fuse into one interval
    /// test; on the edge-case rows — NULLs, zero divisors, NaN, ±0 and ±∞,
    /// a Mixed column — its selection is the row path's, in a conjunction
    /// and per row (inside an `Or`). Bounds on different trees, or on trees
    /// that differ only in a literal's sign, stay apart.
    #[test]
    fn interval_bounds_equal_the_row_path() {
        use crate::scalar::{col, lit, Expr};
        let (schema, rows) = edge_rows(2600);
        let cols = ColumnSet::from_rows(&schema, &rows);
        let mut scratch = Row::new();
        let avg = || col("x").div(col("b"));
        let intervals = [
            avg().ge(lit(-1.5)).and(avg().le(lit(2.0))),
            lit(-1.5).le(avg()).and(lit(2i64).gt(avg())),
            col("a").div(col("b")).gt(lit(-3i64)).and(col("a").div(col("b")).lt(lit(1e6))),
            avg().ne(lit(0.0)).and(avg().ge(lit(f64::NEG_INFINITY))).and(avg().lt(lit(0.5))),
            avg().eq(lit(-0.0)).and(avg().le(lit(0.0))),
            avg().ge(lit(f64::NAN)).and(avg().le(lit(1.0))),
            col("a").rem(col("b")).ge(lit(0i64)).and(col("a").rem(col("b")).le(lit(2i64))),
            col("m").add(col("b")).ge(lit(-5i64)).and(col("m").add(col("b")).le(lit(5.5))),
            col("y")
                .mul(lit(2.0))
                .gt(lit(-4.0))
                .and(col("y").gt(lit(-3.0)))
                .and(col("y").mul(lit(2.0)).le(lit(10.0))),
            col("a")
                .add(lit(Value::Null))
                .ge(lit(0i64))
                .and(col("a").add(lit(Value::Null)).le(lit(9i64))),
        ];
        let apart: [Expr; 3] = [
            avg().ge(lit(0.0)).and(col("b").div(col("x")).le(lit(1.0))),
            col("x").div(lit(0.0)).ge(lit(0.0)).and(col("x").div(lit(-0.0)).le(lit(0.0))),
            avg().ge(lit(0.0)).and(avg().lt(lit("s"))),
        ];
        let every_third: Vec<u32> = (0..rows.len() as u32).filter(|i| i % 3 != 1).collect();
        let sels =
            [SelVec::range(0, rows.len()), SelVec::range(37, 2411), SelVec::Idx(every_third)];
        fn fused(p: &ColPred) -> bool {
            match p {
                ColPred::Interval { .. } => true,
                ColPred::And(ps) => ps.iter().any(fused),
                _ => false,
            }
        }
        for (e, fuses) in
            intervals.iter().map(|e| (e, true)).chain(apart.iter().map(|e| (e, false)))
        {
            let bound = e.bind(&schema).unwrap();
            let kernel = compile_pred(&bound);
            assert_eq!(fused(&kernel), fuses, "{e}: {kernel:?}");
            assert!(kernel.has_kernel() || !fuses, "{e}");
            for sel in &sels {
                let mut got = sel.clone();
                kernel.apply(&cols, &mut got, &mut scratch);
                let want: Vec<usize> = sel.iter().filter(|&i| bound.matches(&rows[i])).collect();
                assert_eq!(got.iter().collect::<Vec<_>>(), want, "{e}");
                let per_row: Vec<usize> =
                    sel.iter().filter(|&i| kernel.matches_at(&cols, i, &mut scratch)).collect();
                assert_eq!(per_row, want, "{e}, per row");
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
