//! Negative witnesses for the invariant verifier: every checked invariant
//! has a test here that corrupts exactly that invariant and asserts the
//! checker rejects it with a usable error. The checkers are compiled in
//! every build configuration (only the hot-path *hooks* are behind the
//! `verify` feature), so this suite runs with or without `--features
//! verify`.
//!
//! Layout mirrors `relalg::verify`: logical plan witnesses, rewrite-boundary
//! witnesses (broken rewrites handed to `verify_rewrite`, and `optimize`
//! itself), physical node witnesses, and columnar (`ColumnSet`/`SelVec`/
//! chunk) witnesses.

use std::sync::Arc;

use stale_view_cleaning::relalg::derive::Derived;
use stale_view_cleaning::relalg::exec::column::chunk::ChunkCols;
use stale_view_cleaning::relalg::exec::column::ColExpr;
use stale_view_cleaning::relalg::exec::{
    ColPred, ColumnChunk, FusedOp, JoinRight, LeafRef, Node, SelVec, VecOp,
};
use stale_view_cleaning::relalg::optimizer::optimize;
use stale_view_cleaning::relalg::plan::{JoinKind, Plan};
use stale_view_cleaning::relalg::scalar::{col, lit, BinOp, BoundExpr};
use stale_view_cleaning::relalg::verify;
use stale_view_cleaning::storage::{
    Column, ColumnData, ColumnSet, DataType, Database, HashSpec, Result, Schema, Table, Value,
};

/// One-table database: `t(id Int key, x Float, s Str)` with a few rows.
fn db() -> Database {
    let mut t = Table::new(
        Schema::from_pairs(&[("id", DataType::Int), ("x", DataType::Float), ("s", DataType::Str)])
            .unwrap(),
        &["id"],
    )
    .unwrap();
    for i in 0..5i64 {
        t.insert(vec![
            Value::Int(i),
            Value::Float(i as f64 / 2.0),
            Value::Str(format!("r{i}").into()),
        ])
        .unwrap();
    }
    let mut db = Database::new();
    db.create_table("t", t);
    db
}

fn err_of(r: Result<Derived>) -> String {
    r.expect_err("witness must be rejected").to_string()
}

// ---------------------------------------------------------------- logical

#[test]
fn unresolvable_column_is_rejected_with_subtree() {
    let plan = Plan::scan("t").select(col("nope").gt(lit(0i64)));
    let err = err_of(verify::verify_plan(&plan, &db()));
    assert!(err.contains("nope"), "{err}");
    assert!(err.contains("in subtree"), "{err}");
}

#[test]
fn unknown_leaf_is_rejected() {
    let err = err_of(verify::verify_plan(&Plan::scan("missing"), &db()));
    assert!(err.contains("missing"), "{err}");
}

#[test]
fn setop_arity_mismatch_is_rejected() {
    let plan = Plan::scan("t").union(Plan::scan("t").project(vec![("id", col("id"))]));
    let err = err_of(verify::verify_plan(&plan, &db()));
    assert!(err.contains("arity mismatch"), "{err}");
}

#[test]
fn key_dropping_projection_is_rejected() {
    let plan = Plan::scan("t").project(vec![("x", col("x"))]);
    let err = err_of(verify::verify_plan(&plan, &db()));
    assert!(err.contains("drops primary key"), "{err}");
}

#[test]
fn eta_ratio_outside_unit_interval_is_rejected() {
    let plan = Plan::scan("t").hash(&["id"], 1.5, HashSpec::with_seed(3));
    let err = err_of(verify::verify_plan(&plan, &db()));
    assert!(err.contains("outside [0, 1]"), "{err}");
}

#[test]
fn eta_key_must_resolve() {
    let plan = Plan::scan("t").hash(&["ghost"], 0.5, HashSpec::with_seed(3));
    assert!(verify::verify_plan(&plan, &db()).is_err());
}

#[test]
fn non_bool_predicate_is_rejected() {
    let plan = Plan::scan("t").select(col("x").add(lit(1.0)));
    let err = err_of(verify::verify_plan(&plan, &db()));
    assert!(err.contains("expected Bool"), "{err}");
}

#[test]
fn innermost_node_is_blamed_not_the_root() {
    // The broken σ sits under a Π; the reported subtree must be the σ
    // (innermost), and since the located error quotes the subtree, the
    // outer projection's alias must NOT appear in it.
    let plan = Plan::scan("t")
        .select(col("s").add(lit(1i64)).gt(lit(0i64)))
        .project(vec![("id", col("id")), ("outeralias", col("x"))]);
    let err = err_of(verify::verify_plan(&plan, &db()));
    assert!(err.contains("in subtree"), "{err}");
    assert!(err.contains("Select"), "{err}");
    assert!(!err.contains("outeralias"), "blamed the root, not the node: {err}");
}

// ---------------------------------------------------- rewrite boundary

/// A broken rewrite that silently changes the output schema — the plan
/// narrowed to its key column — is caught at the boundary, blamed by name.
#[test]
fn broken_rewrite_is_caught_at_the_boundary_with_rule_name_and_plan() {
    let database = db();
    let plan = Plan::scan("t").select(col("x").gt(lit(0.5)));
    let before = verify::verify_plan(&plan, &database).unwrap();
    let broken = plan.project(vec![("id", col("id"))]);
    let err = verify::verify_rewrite("schema-breaker", &before, &broken, &database, true)
        .expect_err("broken rewrite must fail at the rewrite boundary")
        .to_string();
    assert!(err.contains("rewrite verifier"), "{err}");
    assert!(err.contains("schema-breaker"), "{err}");
    assert!(err.contains("changed the output schema"), "{err}");
    // The offending rewritten plan rides along in the error.
    assert!(err.contains("Project"), "{err}");
}

/// A rewrite that keeps the schema but re-keys the plan: a union with a
/// full group-by of the same table widens the Definition 2 key from [id] to
/// every column.
#[test]
fn key_claim_change_is_caught_for_key_preserving_rules() {
    let database = db();
    let plan = Plan::scan("t");
    let before = verify::verify_plan(&plan, &database).unwrap();
    let broken = plan.union(Plan::scan("t").aggregate(&["id", "x", "s"], vec![]));
    let err = verify::verify_rewrite("key-breaker", &before, &broken, &database, true)
        .expect_err("key-claim change must fail")
        .to_string();
    assert!(err.contains("key-breaker"), "{err}");
}

/// Positive control: every rewrite of `optimize` passes its boundary check
/// (under the `verify` feature `optimize` runs them itself), and the
/// optimized plan keeps the input's schema and key.
#[test]
fn standard_rules_verify_clean_on_a_real_plan() {
    let database = db();
    let plan = Plan::scan("t")
        .select(col("x").gt(lit(0.25)).and(col("id").lt(lit(4i64))))
        .project(vec![("id", col("id")), ("x2", col("x").mul(lit(2.0)))])
        .hash(&["id"], 0.5, HashSpec::with_seed(7));
    let before = verify::verify_plan(&plan, &database).unwrap();
    let (optimized, _) = optimize(&plan, &database).expect("optimize must verify clean");
    verify::verify_rewrite("optimize", &before, &optimized, &database, true)
        .expect("the optimized plan keeps schema and key");
}

#[cfg(feature = "verify")]
#[test]
fn ill_formed_input_plan_is_rejected_before_any_rule() {
    let database = db();
    let plan = Plan::scan("t").select(col("x")); // Float predicate
    let err = optimize(&plan, &database)
        .expect_err("ill-formed input must be rejected up front")
        .to_string();
    assert!(err.contains("before any rule ran"), "{err}");
}

// ---------------------------------------------------------------- physical

fn leaf() -> LeafRef {
    LeafRef {
        name: "t".into(),
        schema: Schema::from_pairs(&[
            ("id", DataType::Int),
            ("x", DataType::Float),
            ("s", DataType::Str),
        ])
        .unwrap(),
        key: vec![0],
    }
}

fn scan(ops: Vec<FusedOp>, vops: Vec<VecOp>) -> Node {
    Node::FusedScan { leaf: leaf(), ops, vops }
}

#[test]
fn leaf_key_out_of_schema_is_rejected() {
    let mut l = leaf();
    l.key = vec![9];
    let err = verify::verify_node(&Node::FusedScan { leaf: l, ops: vec![], vops: vec![] })
        .unwrap_err()
        .to_string();
    assert!(err.contains("key position 9"), "{err}");
}

#[test]
fn bound_column_out_of_arity_is_rejected() {
    let node = scan(
        vec![FusedOp::Filter(BoundExpr::Col(5))],
        vec![VecOp::Filter(ColPred::Row(BoundExpr::Col(5)))],
    );
    let err = verify::verify_node(&node).unwrap_err().to_string();
    assert!(err.contains("index 5 out of range"), "{err}");
}

#[test]
fn expression_kernel_column_out_of_arity_is_rejected() {
    // The row twin is fine; the tree kernel reads column 7 two levels down.
    let row = col("x").div(col("id")).gt(lit(1.0)).bind(&leaf().schema).unwrap();
    let tree = ColExpr::Bin {
        op: BinOp::Div,
        left: Box::new(ColExpr::Take(1)),
        right: Box::new(ColExpr::Bin {
            op: BinOp::Add,
            left: Box::new(ColExpr::Take(7)),
            right: Box::new(ColExpr::Lit(Value::Int(1))),
        }),
    };
    let pred =
        ColPred::CmpExpr { left: tree, op: BinOp::Gt, right: ColExpr::Lit(Value::Float(1.0)) };
    let node = scan(vec![FusedOp::Filter(row)], vec![VecOp::Filter(pred)]);
    let err = verify::verify_node(&node).unwrap_err().to_string();
    assert!(err.contains("expression kernel column index 7"), "{err}");
}

#[test]
fn twin_chain_length_mismatch_is_rejected() {
    let node = scan(vec![FusedOp::Filter(BoundExpr::Col(0))], vec![]);
    let err = verify::verify_node(&node).unwrap_err().to_string();
    assert!(err.contains("1 row ops but 0 vector ops"), "{err}");
}

#[test]
fn twin_kind_mismatch_is_rejected() {
    let node = scan(
        vec![FusedOp::Filter(BoundExpr::Col(0))],
        vec![VecOp::Hash { key_idx: vec![0], ratio: 0.5, spec: HashSpec::with_seed(1) }],
    );
    let err = verify::verify_node(&node).unwrap_err().to_string();
    assert!(err.contains("twin kind mismatch"), "{err}");
}

#[test]
fn eta_twin_parameter_disagreement_is_rejected() {
    let node = scan(
        vec![FusedOp::Hash { key_idx: vec![0], ratio: 0.5, spec: HashSpec::with_seed(1) }],
        vec![VecOp::Hash { key_idx: vec![0], ratio: 0.25, spec: HashSpec::with_seed(1) }],
    );
    let err = verify::verify_node(&node).unwrap_err().to_string();
    assert!(err.contains("η twin disagreement"), "{err}");
}

#[test]
fn eta_ratio_out_of_range_is_rejected_physically() {
    let node = scan(
        vec![FusedOp::Hash { key_idx: vec![0], ratio: 2.0, spec: HashSpec::with_seed(1) }],
        vec![VecOp::Hash { key_idx: vec![0], ratio: 2.0, spec: HashSpec::with_seed(1) }],
    );
    let err = verify::verify_node(&node).unwrap_err().to_string();
    assert!(err.contains("outside [0, 1]"), "{err}");
}

#[test]
fn join_pad_width_lie_is_rejected() {
    let node = Node::Join {
        left: Box::new(scan(vec![], vec![])),
        right: JoinRight::PkProbeLeaf { leaf: leaf(), ops: vec![] },
        kind: JoinKind::Inner,
        on_idx: vec![(0, 0)],
        pad_left: 2, // leaf arity is 3
        pad_right: 3,
        zone_cols: vec![],
    };
    let err = verify::verify_node(&node).unwrap_err().to_string();
    assert!(err.contains("pad_left declares 2"), "{err}");
}

/// A PK-probed right side's arity is its chain's output arity: a Π keeping
/// one of the leaf's three columns makes a declared `pad_right` of 3 a lie.
#[test]
fn pk_probe_chain_arity_lie_is_rejected() {
    let node = Node::Join {
        left: Box::new(scan(vec![], vec![])),
        right: JoinRight::PkProbeLeaf {
            leaf: leaf(),
            ops: vec![FusedOp::Map(vec![BoundExpr::Col(0)])],
        },
        kind: JoinKind::Inner,
        on_idx: vec![(0, 0)],
        pad_left: 3,
        pad_right: 3,
        zone_cols: vec![],
    };
    let err = verify::verify_node(&node).unwrap_err().to_string();
    assert!(err.contains("produces arity 1 but pad_right declares 3"), "{err}");
}

#[test]
fn join_condition_out_of_range_is_rejected() {
    let node = Node::Join {
        left: Box::new(scan(vec![], vec![])),
        right: JoinRight::PkProbeLeaf { leaf: leaf(), ops: vec![] },
        kind: JoinKind::Inner,
        on_idx: vec![(0, 7)],
        pad_left: 3,
        pad_right: 3,
        zone_cols: vec![],
    };
    let err = verify::verify_node(&node).unwrap_err().to_string();
    assert!(err.contains("out of range for arities"), "{err}");
}

/// A zone pair lets the executor answer a join empty unread, so it must
/// name an `Int` column of each leaf (`x` is Float: `-0.0 == 0.0` and NaN
/// defeat a min/max test) and sit on a join that disjoint keys empty.
#[test]
fn zone_pair_lies_are_rejected() {
    let join = |kind, zone_cols| Node::Join {
        left: Box::new(scan(vec![], vec![])),
        right: JoinRight::PkProbeLeaf { leaf: leaf(), ops: vec![] },
        kind,
        on_idx: vec![(0, 0)],
        pad_left: 3,
        pad_right: 3,
        zone_cols,
    };
    assert!(verify::verify_node(&join(JoinKind::Inner, vec![(0, 0)])).is_ok());
    let err = verify::verify_node(&join(JoinKind::Inner, vec![(1, 0)])).unwrap_err().to_string();
    assert!(err.contains("column 1 is not an Int column of leaf `t`"), "{err}");
    let err = verify::verify_node(&join(JoinKind::Semi, vec![(0, 9)])).unwrap_err().to_string();
    assert!(err.contains("column 9"), "{err}");
    let err = verify::verify_node(&join(JoinKind::Anti, vec![(0, 0)])).unwrap_err().to_string();
    assert!(err.contains("Anti join"), "{err}");
}

#[test]
fn setop_node_arity_mismatch_is_rejected() {
    use stale_view_cleaning::relalg::plan::SetOpKind;
    let narrowed = scan(
        vec![FusedOp::Map(vec![BoundExpr::Col(0)])],
        vec![VecOp::Map(stale_view_cleaning::relalg::exec::column::kernels::compile_map(
            &[BoundExpr::Col(0)],
            &[DataType::Int],
        ))],
    );
    let node = Node::SetOp {
        kind: SetOpKind::Union,
        left: Box::new(scan(vec![], vec![])),
        right: Box::new(narrowed),
        hash_cols: vec![0],
    };
    let err = verify::verify_node(&node).unwrap_err().to_string();
    assert!(err.contains("disagree on arity"), "{err}");
}

/// A set op's dedup hashes only its recorded columns, so they must lie in
/// range and cover both inputs' keys: an input key column left out would
/// let two equal rows hash apart.
#[test]
fn setop_hashed_columns_must_cover_both_keys() {
    use stale_view_cleaning::relalg::plan::SetOpKind;
    // The right leaf is keyed on `x`, at position 1 once its Π reorders.
    let swap = vec![BoundExpr::Col(1), BoundExpr::Col(0), BoundExpr::Col(2)];
    let dtypes = [DataType::Float, DataType::Int, DataType::Str];
    let mut rekeyed = leaf();
    rekeyed.schema =
        Schema::from_pairs(&[("x", DataType::Float), ("id", DataType::Int), ("s", DataType::Str)])
            .unwrap();
    let right = Node::FusedScan {
        leaf: rekeyed,
        ops: vec![FusedOp::Map(swap.clone())],
        vops: vec![VecOp::Map(stale_view_cleaning::relalg::exec::column::kernels::compile_map(
            &swap, &dtypes,
        ))],
    };
    let setop = |hash_cols| Node::SetOp {
        kind: SetOpKind::Intersect,
        left: Box::new(scan(vec![], vec![])),
        right: Box::new(right.clone()),
        hash_cols,
    };
    assert!(verify::verify_node(&setop(vec![0, 1])).is_ok());
    let err = verify::verify_node(&setop(vec![0])).unwrap_err().to_string();
    assert!(err.contains("misses key column 1"), "{err}");
    let err = verify::verify_node(&setop(vec![])).unwrap_err().to_string();
    assert!(err.contains("misses key column 0"), "{err}");
    let err = verify::verify_node(&setop(vec![0, 1, 3])).unwrap_err().to_string();
    assert!(err.contains("hashes column 3 out of range"), "{err}");
}

#[test]
fn root_arity_must_match_declared_output() {
    let out =
        Derived { schema: Schema::from_pairs(&[("id", DataType::Int)]).unwrap(), key: vec![0] };
    let err = verify::verify_physical(&scan(vec![], vec![]), &out).unwrap_err().to_string();
    assert!(err.contains("root produces arity 3"), "{err}");
}

#[test]
fn declared_key_out_of_arity_is_rejected() {
    let out = Derived {
        schema: Schema::from_pairs(&[
            ("id", DataType::Int),
            ("x", DataType::Float),
            ("s", DataType::Str),
        ])
        .unwrap(),
        key: vec![4],
    };
    let err = verify::verify_physical(&scan(vec![], vec![]), &out).unwrap_err().to_string();
    assert!(err.contains("key position 4"), "{err}");
}

// ---------------------------------------------------------------- columnar

fn int_col(vals: &[i64]) -> Column {
    Column { data: ColumnData::Int(vals.to_vec()), valid: None, zone: None }
}

#[test]
fn ragged_column_set_is_rejected() {
    let cs =
        ColumnSet { cols: vec![Arc::new(int_col(&[1, 2, 3])), Arc::new(int_col(&[1, 2]))], len: 3 };
    let err = cs.check_shape().unwrap_err().to_string();
    assert!(err.contains("column 1"), "{err}");
}

#[test]
fn wrong_validity_mask_length_is_rejected() {
    let mut c = int_col(&[1, 2, 3]);
    c.valid = Some(vec![true, false]); // mask shorter than data
    let cs = ColumnSet { cols: vec![Arc::new(c)], len: 3 };
    assert!(cs.check_shape().is_err());
}

#[test]
fn lying_zone_map_is_rejected_by_the_full_check() {
    let mut c = int_col(&[1, 2, 99]);
    c.zone = Some((0.0, 10.0)); // claims max 10, data holds 99
    let cs = ColumnSet { cols: vec![Arc::new(c)], len: 3 };
    // The cheap shape check cannot see it; the O(rows) check must.
    assert!(cs.check_shape().is_ok());
    let err = cs.check().unwrap_err().to_string();
    assert!(err.contains("zone"), "{err}");
}

#[test]
fn zone_map_on_string_storage_is_rejected() {
    let mut c =
        Column { data: ColumnData::Str(vec!["a".into(), "b".into()]), valid: None, zone: None };
    c.zone = Some((0.0, 1.0));
    let cs = ColumnSet { cols: vec![Arc::new(c)], len: 2 };
    assert!(cs.check_shape().is_err());
}

#[test]
fn null_masked_values_are_exempt_from_zone_bounds() {
    // Row 2 holds an out-of-zone placeholder but is masked NULL: legal.
    let c = Column {
        data: ColumnData::Int(vec![1, 2, 99]),
        valid: Some(vec![true, true, false]),
        zone: Some((1.0, 2.0)),
    };
    let cs = ColumnSet { cols: vec![Arc::new(c)], len: 3 };
    assert!(cs.check().is_ok());
}

#[test]
fn corrupt_selvec_in_a_chunk_is_rejected() {
    let cs = ColumnSet { cols: vec![Arc::new(int_col(&[1, 2, 3]))], len: 3 };
    let mut chunk = ColumnChunk::over(&cs, 0, 3);
    assert!(verify::check_chunk(&chunk).is_ok());
    chunk.sel = SelVec::Idx(vec![0, 5]); // out of bounds
    assert!(verify::check_chunk(&chunk).is_err());
    chunk.sel = SelVec::Idx(vec![2, 1]); // descending
    assert!(verify::check_chunk(&chunk).is_err());
    chunk.sel = SelVec::Range(3, 1); // inverted range
    assert!(verify::check_chunk(&chunk).is_err());
}

#[test]
fn owned_chunk_gets_the_full_zone_check() {
    let mut c = int_col(&[1, 2, 99]);
    c.zone = Some((0.0, 10.0));
    let owned = ColumnSet { cols: vec![Arc::new(c)], len: 3 };
    let chunk = ColumnChunk { cols: ChunkCols::Owned(owned), sel: SelVec::Range(0, 3) };
    let err = verify::check_chunk(&chunk).unwrap_err().to_string();
    assert!(err.contains("zone"), "{err}");
}

// ------------------------------------------------------------- end to end

#[test]
fn compiled_plans_pass_physical_verification() {
    use stale_view_cleaning::relalg::exec::compile;
    let database = db();
    let plan = Plan::scan("t")
        .select(col("x").gt(lit(0.25)))
        .project(vec![("id", col("id")), ("x2", col("x").mul(lit(2.0)))])
        .hash(&["id"], 0.7, HashSpec::with_seed(5));
    let physical = compile(&plan, &database).unwrap();
    physical.verify().expect("a freshly compiled plan must verify");
}
