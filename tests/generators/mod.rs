//! Shared randomized-workload generators for the executor equivalence
//! harnesses (`tests/exec_prop.rs`, `tests/morsel_prop.rs`,
//! `tests/partition_prop.rs`): a snowflake fact/dim database, plan shapes
//! covering every operator the executor lowers, adversarial join-key
//! distributions, and signed delta streams. One copy, so the harnesses
//! always test the same plan space. Also the row-at-a-time reference every
//! query answer path is held to ([`row_reference`]).

// Each harness binary compiles its own copy of this module and uses a
// different subset of the generators.
#![allow(dead_code)]

use stale_view_cleaning::core::query::{AggQuery, QueryAgg};
use stale_view_cleaning::relalg::aggregate::{AggFunc, AggSpec};
use stale_view_cleaning::relalg::plan::{JoinKind, Plan};
use stale_view_cleaning::relalg::scalar::{col, lit};
use stale_view_cleaning::storage::{DataType, Database, Deltas, HashSpec, Schema, Table, Value};

pub fn build_db(n_facts: usize, n_dims: usize, data_seed: u64) -> Database {
    let mut s = data_seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let mut db = Database::new();
    let mut dim = Table::new(
        Schema::from_pairs(&[
            ("dimId", DataType::Int),
            ("weight", DataType::Float),
            ("tag", DataType::Int),
        ])
        .unwrap(),
        &["dimId"],
    )
    .unwrap();
    for i in 0..n_dims as i64 {
        dim.insert(vec![
            Value::Int(i),
            Value::Float((next() % 100) as f64 / 100.0),
            Value::Int((next() % 5) as i64),
        ])
        .unwrap();
    }
    let mut fact = Table::new(
        Schema::from_pairs(&[
            ("factId", DataType::Int),
            ("dimId", DataType::Int),
            ("x", DataType::Float),
            ("y", DataType::Float),
        ])
        .unwrap(),
        &["factId"],
    )
    .unwrap();
    for i in 0..n_facts as i64 {
        fact.insert(vec![
            Value::Int(i),
            Value::Int((next() % n_dims as u64) as i64),
            Value::Float((next() % 1000) as f64 / 1000.0),
            Value::Float((next() % 500) as f64 / 100.0),
        ])
        .unwrap();
    }
    db.create_table("dim", dim);
    db.create_table("fact", fact);
    db
}

/// Plan shapes exercising every operator the executor lowers: fused σ/Π/η
/// chains, FK joins (PK-probe, of bare and of σ/Π/η-wrapped right sides, for
/// every kind that probes), non-key joins (hash build), outer joins,
/// aggregates over fused scans, and set operations.
pub fn plan_variant(variant: u8) -> Plan {
    match variant % PLAN_VARIANTS {
        0 => Plan::scan("fact")
            .join(
                Plan::scan("dim").select(col("tag").ne(lit(2i64))),
                JoinKind::Inner,
                &[("dimId", "dimId")],
            )
            .select(col("x").gt(lit(0.3)).and(col("weight").lt(lit(0.8)))),
        1 => Plan::scan("fact")
            .join(Plan::scan("dim"), JoinKind::Inner, &[("dimId", "dimId")])
            .aggregate(
                &["dimId"],
                vec![AggSpec::count_all("n"), AggSpec::new("sx", AggFunc::Sum, col("x"))],
            )
            .select(col("n").gt(lit(1i64)).and(col("dimId").lt(lit(10i64)))),
        2 => Plan::scan("fact")
            .project(vec![
                ("factId", col("factId")),
                ("dimId", col("dimId")),
                ("x2", col("x").mul(lit(2.0))),
            ])
            .select(col("x2").gt(lit(0.5))),
        3 => Plan::scan("fact")
            .select(col("x").lt(lit(0.7)))
            .union(Plan::scan("fact").select(col("x").ge(lit(0.4))))
            .select(col("dimId").lt(lit(6i64))),
        // A row the right chain drops pads: `weight` is NULL there.
        4 => Plan::scan("fact")
            .join(
                Plan::scan("dim")
                    .select(col("tag").lt(lit(3i64)))
                    .project(vec![("dimId", col("dimId")), ("weight", col("weight"))]),
                JoinKind::Left,
                &[("dimId", "dimId")],
            )
            .select(
                col("y").gt(lit(1.0)).and(col("weight").gt(lit(0.1)).or(col("weight").is_null())),
            ),
        5 => Plan::scan("fact")
            .select(col("dimId").lt(lit(8i64)))
            .difference(Plan::scan("fact").select(col("x").gt(lit(0.8))))
            .select(col("y").lt(lit(4.0))),
        6 => Plan::scan("fact")
            .join(Plan::scan("dim"), JoinKind::Inner, &[("dimId", "dimId")])
            .aggregate(&["dimId", "tag"], vec![AggSpec::new("sy", AggFunc::Sum, col("y"))])
            .project(vec![("dimId", col("dimId")), ("tag", col("tag")), ("sy", col("sy"))]),
        7 => Plan::scan("fact")
            .join(Plan::scan("dim"), JoinKind::Full, &[("dimId", "dimId")])
            .select(col("x").gt(lit(0.2)).or(col("weight").gt(lit(0.5)))),
        8 => Plan::scan("fact").join(
            Plan::scan("dim").hash(&["dimId"], 0.5, HashSpec::with_seed(11)),
            JoinKind::Semi,
            &[("dimId", "dimId")],
        ),
        _ => Plan::scan("fact").join(
            Plan::scan("dim")
                .project(vec![("dimId", col("dimId")), ("w2", col("weight").mul(lit(2.0)))])
                .select(col("w2").gt(lit(0.6))),
            JoinKind::Anti,
            &[("dimId", "dimId")],
        ),
    }
}

/// Number of distinct [`plan_variant`] shapes.
pub const PLAN_VARIANTS: u8 = 10;

/// A database whose one table is null-heavy and type-mixed: every column
/// except the key carries a sizable null fraction (exercising the
/// columnar validity masks), and `m` mixes Int/Float/Str values in a
/// single column (demoting its columnar extraction to the `Mixed`
/// fallback and exercising cross-type-rank comparisons).
pub fn build_db_mixed(n_rows: usize, data_seed: u64) -> Database {
    let mut s = data_seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let mut t = Table::new(
        Schema::from_pairs(&[
            ("id", DataType::Int),
            ("a", DataType::Int),
            ("x", DataType::Float),
            ("m", DataType::Str),
            ("flag", DataType::Bool),
        ])
        .unwrap(),
        &["id"],
    )
    .unwrap();
    for i in 0..n_rows as i64 {
        let r = next();
        let a = match r % 3 {
            0 => Value::Null,
            _ => Value::Int((r % 50) as i64),
        };
        let x = match (r >> 8) % 4 {
            0 => Value::Null,
            _ => Value::Float(((r >> 8) % 1000) as f64 / 100.0),
        };
        let m = match (r >> 16) % 5 {
            0 => Value::Null,
            1 => Value::Int(((r >> 16) % 20) as i64),
            2 => Value::Float(((r >> 16) % 30) as f64 / 3.0),
            _ => Value::str(format!("s{}", (r >> 16) % 8)),
        };
        let flag = match (r >> 24) % 3 {
            0 => Value::Null,
            1 => Value::Bool(false),
            _ => Value::Bool(true),
        };
        t.insert(vec![Value::Int(i), a, x, m, flag]).unwrap();
    }
    let mut db = Database::new();
    db.create_table("mixed", t);
    db
}

/// Plan shapes over the [`build_db_mixed`] table, aimed at the vectorized
/// kernels' null and Mixed paths: typed column-vs-literal comparisons
/// under validity masks, IsNull (plain and negated), And/Or composition,
/// column-vs-column with nulls on both sides, cross-type-rank literals,
/// arithmetic projections over nullable inputs, γ with null group keys,
/// η over a nullable key, and arithmetic trees compared against literals
/// (both orientations), columns and Mixed cells — `÷0`, `%0` and int
/// narrowing included.
pub fn mixed_plan_variant(variant: u8) -> Plan {
    match variant % MIXED_PLAN_VARIANTS {
        // Int column vs Int literal: nulls must never match.
        0 => Plan::scan("mixed").select(col("a").gt(lit(10i64))),
        // Float vs literal AND a negated IsNull (the Not(IsNull) kernel).
        1 => Plan::scan("mixed").select(col("x").le(lit(5.0)).and(col("a").is_null().not())),
        // Str literal over the type-mixed column (Mixed fallback).
        2 => Plan::scan("mixed").select(col("m").eq(lit("s3"))),
        // Bool kernel, then an arithmetic projection over nullable Int.
        3 => Plan::scan("mixed")
            .select(col("flag").eq(lit(true)))
            .project(vec![("id", col("id")), ("a2", col("a").mul(lit(2i64)))]),
        // Column-vs-column with nulls on both sides, cross-type Int/Float.
        4 => Plan::scan("mixed")
            .select(col("a").lt(col("x")))
            .project(vec![("id", col("id")), ("ax", col("a").add(col("x")))]),
        // Or composition with IsNull; γ grouping on a nullable key.
        5 => Plan::scan("mixed").select(col("m").is_null().or(col("a").gt(lit(25i64)))).aggregate(
            &["a"],
            vec![AggSpec::count_all("n"), AggSpec::new("sx", AggFunc::Sum, col("x"))],
        ),
        // Cross-type-rank literal over Mixed (Int literal vs Str values),
        // then η over the (non-null) primary key.
        6 => Plan::scan("mixed").select(col("m").gt(lit(5i64))),
        // Trees vs literals: int narrowing, and the flipped form over a
        // division whose divisor is sometimes 0 or NULL.
        7 => Plan::scan("mixed").select(
            col("a").mul(lit(2i64)).gt(lit(20i64)).and(lit(3.0).le(col("x").div(col("a")))),
        ),
        // A `%` tree under Or, beside a tree compared with the Mixed column.
        8 => Plan::scan("mixed")
            .select(col("a").rem(lit(3i64)).eq(lit(1i64)).or(col("a").add(col("x")).gt(col("m")))),
        // A nested int×int tree vs a Float literal, then a projection
        // dividing by `a % 0` (always NULL).
        _ => Plan::scan("mixed")
            .select(col("x").sub(col("a").mul(col("a"))).lt(lit(-100.0)))
            .project(vec![("id", col("id")), ("q", col("x").div(col("a").rem(lit(0i64))))]),
    }
}

/// Number of distinct [`mixed_plan_variant`] shapes.
pub const MIXED_PLAN_VARIANTS: u8 = 10;

/// `n` distinct Int key values whose [`join_hash`] values collide in their
/// low 12 bits — they land in the same hash partition for every partition
/// count up to 4096, driving the partitioned join's skew path as hard as
/// an adversary can without full 64-bit collisions.
///
/// [`join_hash`]: stale_view_cleaning::relalg::join::join_hash
pub fn colliding_int_keys(n: usize) -> Vec<i64> {
    use stale_view_cleaning::relalg::join::join_hash;
    use stale_view_cleaning::storage::Value;
    let spec = join_hash();
    let low = |v: i64| spec.hash_key(&[Value::Int(v)]) & 0xFFF;
    let target = low(0);
    let mut out = vec![0i64];
    let mut x = 1i64;
    while out.len() < n {
        if low(x) == target {
            out.push(x);
        }
        x += 1;
    }
    out
}

/// Adversarial join-key distributions for the partition equivalence
/// harness: a fact table whose `dimId` column is drawn from one of four
/// hostile distributions, and a dim table whose non-key `altId` column
/// carries duplicates (so `dimId = altId` joins always take the hash-build
/// path, never the PK probe).
///
/// `skew % 4` selects the distribution:
/// * `0` — Zipf-like geometric skew (key `k` with probability `~2^-k`):
///   a handful of keys hold most rows, deep chains in few partitions.
/// * `1` — all rows one key: the worst partition imbalance possible; one
///   partition holds the entire build side.
/// * `2` — null-heavy: ~half the join keys are NULL (never match, never
///   enter the build maps — exercising the null-skip on both hash twins).
/// * `3` — hash-collision-prone: distinct keys whose [`join_hash`] values
///   share their low 12 bits ([`colliding_int_keys`]), so every key lands
///   in the same partition at any realistic partition count.
///
/// [`join_hash`]: stale_view_cleaning::relalg::join::join_hash
pub fn build_db_adversarial(n_facts: usize, skew: u8, data_seed: u64) -> Database {
    let mut s = data_seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let colliders = colliding_int_keys(8);
    let key_domain: Vec<i64> = match skew % 4 {
        3 => colliders.clone(),
        _ => (0..16).collect(),
    };
    let mut dim = Table::new(
        Schema::from_pairs(&[
            ("dimId", DataType::Int),
            ("altId", DataType::Int),
            ("weight", DataType::Float),
        ])
        .unwrap(),
        &["dimId"],
    )
    .unwrap();
    for i in 0..32i64 {
        dim.insert(vec![
            Value::Int(i),
            // Duplicated non-key join column over the same key domain.
            Value::Int(key_domain[i as usize % key_domain.len()]),
            Value::Float(0.25 * (i % 7) as f64),
        ])
        .unwrap();
    }
    let mut fact = Table::new(
        Schema::from_pairs(&[
            ("factId", DataType::Int),
            ("dimId", DataType::Int),
            ("x", DataType::Float),
        ])
        .unwrap(),
        &["factId"],
    )
    .unwrap();
    for i in 0..n_facts as i64 {
        let r = next();
        let key = match skew % 4 {
            // Geometric: P(k) ~ 2^-(k+1), capped at 15.
            0 => Value::Int(i64::from(r.trailing_zeros().min(15))),
            1 => Value::Int(7),
            2 => {
                if r % 2 == 0 {
                    Value::Null
                } else {
                    Value::Int(((r >> 1) % 16) as i64)
                }
            }
            _ => Value::Int(colliders[(r % colliders.len() as u64) as usize]),
        };
        fact.insert(vec![Value::Int(i), key, Value::Float(0.25 * ((r >> 32) % 40) as f64)])
            .unwrap();
    }
    let mut db = Database::new();
    db.create_table("dim", dim);
    db.create_table("fact", fact);
    db
}

/// Plan shapes over [`build_db_adversarial`] aimed at the partitioned
/// paths: every join targets the *non-key* `altId` column (hash build,
/// duplicate right keys, matched-bitmap outer emission) and the set ops
/// exercise the partitioned whole-row dedup.
pub fn adversarial_plan_variant(variant: u8) -> Plan {
    match variant % 8 {
        0 => Plan::scan("fact").join(Plan::scan("dim"), JoinKind::Inner, &[("dimId", "altId")]),
        1 => Plan::scan("fact")
            .join(Plan::scan("dim"), JoinKind::Left, &[("dimId", "altId")])
            .select(col("weight").gt(lit(0.4)).or(col("weight").is_null())),
        2 => Plan::scan("fact").join(Plan::scan("dim"), JoinKind::Full, &[("dimId", "altId")]),
        3 => Plan::scan("fact").join(Plan::scan("dim"), JoinKind::Anti, &[("dimId", "altId")]),
        4 => Plan::scan("fact").join(Plan::scan("dim"), JoinKind::Semi, &[("dimId", "altId")]),
        5 => Plan::scan("fact")
            .select(col("x").lt(lit(7.0)))
            .union(Plan::scan("fact").select(col("x").ge(lit(3.0)))),
        6 => Plan::scan("fact")
            .difference(Plan::scan("fact").select(col("x").gt(lit(5.0))))
            .intersect(Plan::scan("fact").select(col("x").le(lit(9.0)))),
        _ => Plan::scan("fact")
            .join(Plan::scan("dim"), JoinKind::Inner, &[("dimId", "altId")])
            .aggregate(
                &["dimId"],
                vec![AggSpec::count_all("n"), AggSpec::new("sw", AggFunc::Sum, col("weight"))],
            ),
    }
}

pub fn random_deltas(db: &Database, ops: &[(u8, u64)]) -> Deltas {
    let mut deltas = Deltas::new();
    let n_facts = db.table("fact").unwrap().len() as i64;
    let n_dims = db.table("dim").unwrap().len() as i64;
    let mut next_fact = 1_000_000i64;
    for &(op, r) in ops {
        match op % 3 {
            0 => {
                deltas
                    .insert(
                        db,
                        "fact",
                        vec![
                            Value::Int(next_fact),
                            Value::Int((r % n_dims as u64) as i64),
                            Value::Float((r % 100) as f64 / 100.0),
                            Value::Float((r % 77) as f64 / 10.0),
                        ],
                    )
                    .unwrap();
                next_fact += 1;
            }
            1 => {
                let id = (r % n_facts as u64) as i64;
                let _ = deltas.delete(
                    db,
                    "fact",
                    &vec![Value::Int(id), Value::Null, Value::Null, Value::Null],
                );
            }
            _ => {
                let id = (r % n_facts as u64) as i64;
                let _ = deltas.update(
                    db,
                    "fact",
                    vec![
                        Value::Int(id),
                        Value::Int(((r / 7) % n_dims as u64) as i64),
                        Value::Float((r % 91) as f64 / 91.0),
                        Value::Float((r % 13) as f64),
                    ],
                );
            }
        }
    }
    deltas
}

/// The row-at-a-time reference for `q` over `t`: the predicate and the
/// attribute evaluated per row, every aggregate by its definition
/// (order statistics by a full sort).
pub fn row_reference(q: &AggQuery, t: &Table) -> f64 {
    let attr = q.attr.bind(t.schema()).unwrap();
    let pred = q.predicate.as_ref().map(|p| p.bind(t.schema()).unwrap());
    let mut values: Vec<f64> = t
        .rows()
        .iter()
        .filter(|r| pred.as_ref().is_none_or(|p| p.matches(r)))
        .filter_map(|r| attr.eval(r).as_f64())
        .collect();
    let n = values.len();
    match q.agg {
        QueryAgg::Sum => values.iter().sum(),
        QueryAgg::Count => n as f64,
        QueryAgg::Avg if n == 0 => f64::NAN,
        QueryAgg::Avg => values.iter().sum::<f64>() / n as f64,
        QueryAgg::Min => values.iter().copied().reduce(f64::min).unwrap_or(f64::NAN),
        QueryAgg::Max => values.iter().copied().reduce(f64::max).unwrap_or(f64::NAN),
        QueryAgg::Median | QueryAgg::Percentile(_) if n == 0 => f64::NAN,
        QueryAgg::Median | QueryAgg::Percentile(_) => {
            let p = if let QueryAgg::Percentile(p) = q.agg { p } else { 0.5 };
            values.sort_by(f64::total_cmp);
            if n == 1 {
                return values[0];
            }
            let pos = p * (n - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
        }
    }
}
