//! The partition/skew equivalence harness for partitioned parallel hash
//! joins (and partitioned set-op dedup): for randomized query and
//! maintenance plans — including adversarial join-key distributions (Zipf
//! skew, all-rows-one-key, null-heavy keys, hash-collision-prone values)
//! — execution across the full matrix of partition counts {1, 2, 4, 8} ×
//! worker counts {1, 2, 4} × {rowwise, vectorized} must agree with the
//! sequential `run()` row for row and in output order, and must be
//! **bit-identical** across partition counts, worker counts, and kernel
//! paths for a fixed morsel size. Partitioning a chain map by key hash
//! cannot change which rows a probe key finds or their order, so — unlike
//! the float-rounding caveat morsel decomposition carries at γ barriers —
//! the partition axis has no tolerance at all.
//!
//! Plus the `emit_unmatched_right` barrier regression: the correct
//! merge (union every probe chunk's matched list before emitting
//! unmatched right rows) is exact under partitioning, and a deliberately
//! broken merge that drops one chunk's matched list is *detected* —
//! proving the harness can actually see a wrong merge.

use proptest::prelude::*;

mod generators;
use generators::{
    adversarial_plan_variant, build_db, build_db_adversarial, plan_variant, random_deltas,
    PLAN_VARIANTS,
};

use stale_view_cleaning::cluster::executor::WorkerPool;
use stale_view_cleaning::ivm::view::{maintenance_bindings, MaterializedView};
use stale_view_cleaning::relalg::aggregate::{AggFunc, AggSpec};
use stale_view_cleaning::relalg::eval::Bindings;
use stale_view_cleaning::relalg::exec::{compile, ExecMode, PhysicalPlan, SequentialScheduler};
use stale_view_cleaning::relalg::join::JoinBuild;
use stale_view_cleaning::relalg::optimizer::optimize;
use stale_view_cleaning::relalg::plan::{JoinKind, Plan};
use stale_view_cleaning::relalg::scalar::col;
use stale_view_cleaning::storage::{Row, Table, Value};

/// The partition axis of the matrix (1 = a single map, the pre-partition
/// behavior; 8 exceeds the worker counts so partitions outnumber threads).
const PARTITIONS: [usize; 4] = [1, 2, 4, 8];

/// Row-for-row, in-order comparison with float tolerance — the sequential
/// oracle check (γ partial sums combine at morsel barriers, so float
/// aggregates may differ in low bits from the sequential fold order).
fn approx_same_rows_in_order(a: &Table, b: &Table, eps: f64) -> bool {
    fn value_close(x: &Value, y: &Value, eps: f64) -> bool {
        match (x.as_f64(), y.as_f64()) {
            (Some(p), Some(q)) => {
                let scale = p.abs().max(q.abs()).max(1.0);
                (p - q).abs() <= eps * scale
            }
            _ => x == y,
        }
    }
    a.schema() == b.schema()
        && a.key() == b.key()
        && a.len() == b.len()
        && a.rows()
            .iter()
            .zip(b.rows())
            .all(|(ra, rb)| ra.iter().zip(rb.iter()).all(|(x, y)| value_close(x, y, eps)))
}

/// Assert the full partition matrix for one compiled plan: sequential
/// `run()` as the oracle; for each morsel size, the 1-partition inline
/// decomposition anchors, and every partition count × worker count ×
/// kernel path must reproduce the anchor **bit for bit**.
fn assert_partition_matrix(
    compiled: &PhysicalPlan,
    bindings: &Bindings<'_>,
    pools: &[WorkerPool],
    label: &str,
) {
    let sequential = compiled.run(bindings).unwrap();
    for morsel in [5usize, 64] {
        let anchor = compiled
            .run_with(bindings, ExecMode::morsel(&SequentialScheduler, morsel).partitions(1))
            .unwrap();
        assert!(
            approx_same_rows_in_order(&anchor, &sequential, 1e-9),
            "{label}: morsel {morsel} single-partition run diverged from sequential \
             ({} vs {} rows)",
            anchor.len(),
            sequential.len()
        );
        for &parts in &PARTITIONS {
            let mode = ExecMode::morsel(&SequentialScheduler, morsel).partitions(parts);
            let inline = compiled.run_with(bindings, mode).unwrap();
            assert!(
                inline.rows() == anchor.rows() && inline.schema() == anchor.schema(),
                "{label}: morsel {morsel}, {parts} partitions diverged from the \
                 1-partition anchor — partition count leaked into the result"
            );
            let inline_rw = compiled.run_with(bindings, mode.rowwise()).unwrap();
            assert!(
                inline_rw.rows() == anchor.rows(),
                "{label}: morsel {morsel}, {parts} partitions rowwise diverged from \
                 vectorized"
            );
            for pool in pools {
                let par = compiled
                    .run_with(bindings, ExecMode::morsel(pool, morsel).partitions(parts))
                    .unwrap();
                assert!(
                    par.rows() == anchor.rows(),
                    "{label}: morsel {morsel}, {parts} partitions on {} workers differs \
                     from the inline decomposition — thread count leaked into the result",
                    pool.workers()
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Adversarial join-key distributions through the full matrix: skew
    /// concentrates entire build sides into single partitions, null-heavy
    /// keys exercise the null-skip on both hash twins, and collision-prone
    /// keys defeat partition balancing entirely — none of which may change
    /// a single output row.
    #[test]
    fn partitioned_execution_matches_sequential_on_adversarial_keys(
        n_facts in 30usize..150,
        skew in 0u8..4,
        variant in 0u8..8,
        data_seed in 0u64..200,
    ) {
        let db = build_db_adversarial(n_facts, skew, data_seed);
        let plan = adversarial_plan_variant(variant);
        let b = Bindings::from_database(&db);
        let compiled = compile(&plan, &b).unwrap();
        let pools = [WorkerPool::new(1), WorkerPool::new(2), WorkerPool::new(4)];
        assert_partition_matrix(&compiled, &b, &pools, &format!("skew {skew} variant {variant}"));
    }

    /// The regular query-plan space (same generators as `morsel_prop`):
    /// partition counts ride every operator shape the executor lowers.
    #[test]
    fn partitioned_execution_matches_sequential_on_query_plans(
        n_facts in 30usize..150,
        n_dims in 4usize..16,
        variant in 0u8..PLAN_VARIANTS,
        optimized in 0u8..2,
        data_seed in 0u64..200,
    ) {
        let db = build_db(n_facts, n_dims, data_seed);
        let mut plan = plan_variant(variant);
        if optimized == 1 {
            plan = optimize(&plan, &db).unwrap().0;
        }
        let b = Bindings::from_database(&db);
        let compiled = compile(&plan, &b).unwrap();
        let pools = [WorkerPool::new(2), WorkerPool::new(4)];
        assert_partition_matrix(&compiled, &b, &pools, &format!("variant {variant}"));
    }

    /// Maintenance-strategy plans under maintenance bindings.
    #[test]
    fn partitioned_execution_matches_sequential_on_maintenance_plans(
        n_facts in 40usize..120,
        n_dims in 4usize..12,
        view_kind in 0u8..2,
        ops in proptest::collection::vec((0u8..3, 0u64..1_000_000), 1..40),
        data_seed in 0u64..200,
    ) {
        let db = build_db(n_facts, n_dims, data_seed);
        let view_def = match view_kind % 2 {
            0 => Plan::scan("fact")
                .join(Plan::scan("dim"), JoinKind::Inner, &[("dimId", "dimId")])
                .aggregate(
                    &["dimId"],
                    vec![
                        AggSpec::count_all("n"),
                        AggSpec::new("avgx", AggFunc::Avg, col("x")),
                    ],
                ),
            _ => Plan::scan("fact")
                .aggregate(&["dimId"], vec![AggSpec::count_all("c")])
                .aggregate(&["c"], vec![AggSpec::count_all("n")]),
        };
        let view = MaterializedView::create("v", view_def, &db).unwrap();
        let deltas = random_deltas(&db, &ops);
        let (plan, _kind) = view.build_maintenance_plan(&db, &deltas).unwrap();
        let (plan, _) =
            optimize(&plan, &maintenance_bindings(&db, &deltas, view.table())).unwrap();
        let bindings = maintenance_bindings(&db, &deltas, view.table());
        let compiled = compile(&plan, &bindings).unwrap();
        let pools = [WorkerPool::new(2), WorkerPool::new(4)];
        assert_partition_matrix(
            &compiled, &bindings, &pools, &format!("view kind {view_kind}"),
        );
    }
}

/// Chunked right-outer probe over a partitioned build: rows keyed so each
/// probe chunk matches a *disjoint* slice of the right side — dropping any
/// one chunk's matched list is guaranteed to change the output.
fn outer_probe_fixture() -> (Vec<Row>, Vec<Row>) {
    // Right: keys 0..16, two rows each. Left: 64 rows, key i/4 — probe
    // chunk c (16 rows) matches exactly right keys 4c..4c+4.
    let rrows: Vec<Row> =
        (0..32i64).map(|i| vec![Value::Int(i % 16), Value::Int(1_000 + i)]).collect();
    let lrows: Vec<Row> = (0..64i64).map(|i| vec![Value::Int(i / 4), Value::Int(i)]).collect();
    (lrows, rrows)
}

/// Satellite regression: the `emit_unmatched_right` barrier stays exact
/// under partitioning — the chunked probe with a correct matched-list
/// union reproduces the unchunked single-map join bit for bit, for every
/// partition count — verified *failing* against a deliberately broken
/// merge that drops one chunk's matched list (which must produce spurious
/// null-padded right rows, not silently pass).
#[test]
fn unmatched_right_barrier_is_exact_and_a_broken_merge_is_detected() {
    let (lrows, rrows) = outer_probe_fixture();
    let on: &[(usize, usize)] = &[(0, 0)];
    let (left_cols, pad_left, pad_right) = (&[0usize][..], 2usize, 2usize);

    // Reference: single map, whole left in one probe.
    let reference = {
        let build = JoinBuild::new(&rrows, on);
        let mut out = Vec::new();
        let mut matched = Vec::new();
        build.probe(
            &mut lrows.clone(),
            JoinKind::Right,
            left_cols,
            pad_right,
            &mut out,
            &mut matched,
        );
        build.emit_unmatched_right(&matched, pad_left, &mut out);
        out
    };
    assert_eq!(reference.len(), 128, "fixture: every left row matches 2 right rows");

    for parts in [1usize, 2, 8] {
        let build = JoinBuild::with_partitions(&rrows, on, parts);
        let chunks: Vec<Vec<Row>> = lrows.chunks(16).map(<[Row]>::to_vec).collect();

        // Correct merge: concatenate chunk outputs in chunk order, union
        // every chunk's matched list, emit unmatched right at the barrier.
        let mut out = Vec::new();
        let mut matched: Vec<u32> = Vec::new();
        for chunk in &chunks {
            let mut hit = Vec::new();
            build.probe(
                &mut chunk.clone(),
                JoinKind::Right,
                left_cols,
                pad_right,
                &mut out,
                &mut hit,
            );
            matched.extend(hit);
        }
        build.emit_unmatched_right(&matched, pad_left, &mut out);
        assert_eq!(out, reference, "{parts} partitions: correct merge must be exact");

        // Broken merge: drop chunk 2's matched list before the barrier.
        // Its right rows (keys 8..12) now wrongly emit as unmatched.
        let mut broken = Vec::new();
        let mut partial: Vec<u32> = Vec::new();
        for (c, chunk) in chunks.iter().enumerate() {
            let mut hit = Vec::new();
            build.probe(
                &mut chunk.clone(),
                JoinKind::Right,
                left_cols,
                pad_right,
                &mut broken,
                &mut hit,
            );
            if c != 2 {
                partial.extend(hit);
            }
        }
        build.emit_unmatched_right(&partial, pad_left, &mut broken);
        assert_ne!(
            broken, reference,
            "{parts} partitions: dropping a chunk's matched list must be detectable"
        );
        assert_eq!(
            broken.len(),
            reference.len() + 8,
            "{parts} partitions: the broken merge must emit exactly chunk 2's 8 right \
             rows as spurious unmatched"
        );
    }
}

/// Skew telemetry sanity on the worst case: all rows one key puts the
/// entire keyed build side into a single partition, and the partitioned
/// probe still reproduces the single-map join exactly.
#[test]
fn all_rows_one_key_lands_in_one_partition_without_changing_results() {
    let db = build_db_adversarial(200, 1, 9);
    let fact = db.table("fact").unwrap();
    let build = JoinBuild::with_partitions(fact.rows(), &[(0, 1)], 8);
    let sizes = build.partition_sizes();
    assert_eq!(sizes.iter().sum::<usize>(), 200, "every keyed row lands somewhere");
    assert_eq!(build.max_partition_rows(), 200, "one-key skew concentrates one partition");
    assert_eq!(sizes.iter().filter(|&&s| s > 0).count(), 1);

    let plan = adversarial_plan_variant(0);
    let b = Bindings::from_database(&db);
    let compiled = compile(&plan, &b).unwrap();
    let pools = [WorkerPool::new(4)];
    assert_partition_matrix(&compiled, &b, &pools, "one-key skew");
}
