//! The parallel-vs-sequential equivalence harness for morsel-parallel
//! execution: for randomized databases, plan shapes (reusing the
//! `exec_prop.rs` generators), and signed maintenance workloads,
//! `PhysicalPlan::run_with` under `ExecMode::morsel` across a matrix of
//! worker counts {1, 2, 4} and morsel sizes {1, 7, 64, whole-table} must
//! agree with the sequential `run()` **row for row and in output order** —
//! exactly on every non-float column, and up to float-sum rounding on
//! aggregate columns (per-morsel partial sums combine at the γ barrier).
//! Independent of the rounding caveat, the parallel result must be
//! *bit-identical across worker counts* for a fixed morsel size: the morsel
//! decomposition and the barrier merge order are functions of the morsel
//! size only, never of scheduler interleaving.

use proptest::prelude::*;

mod generators;
use generators::{
    build_db, build_db_mixed, mixed_plan_variant, plan_variant, random_deltas, PLAN_VARIANTS,
};

use stale_view_cleaning::cluster::executor::WorkerPool;
use stale_view_cleaning::ivm::view::{maintenance_bindings, MaterializedView};
use stale_view_cleaning::relalg::aggregate::{AggFunc, AggSpec};
use stale_view_cleaning::relalg::eval::Bindings;
use stale_view_cleaning::relalg::exec::{
    compile, ExecMode, MorselScheduler, PhysicalPlan, SequentialScheduler,
};
use stale_view_cleaning::relalg::optimizer::optimize;
use stale_view_cleaning::relalg::plan::{JoinKind, Plan};
use stale_view_cleaning::relalg::scalar::{col, lit};
use stale_view_cleaning::storage::{HashSpec, Table, Value};
use stale_view_cleaning::telemetry::OpMetrics;

/// The morsel-size axis of the matrix (whole-table = one morsel covers any
/// input, so every node runs its core once, inline).
const MORSELS: [usize; 4] = [1, 7, 64, usize::MAX];

/// An inline scheduler that counts the sessions it is asked to run — the
/// probe for "the scheduler is only engaged where a split exists".
#[derive(Default)]
struct CountingScheduler {
    sessions: std::sync::atomic::AtomicUsize,
}

impl MorselScheduler for CountingScheduler {
    fn run_tasks(
        &self,
        n: usize,
        task: &(dyn Fn(usize) + Sync),
    ) -> stale_view_cleaning::storage::Result<()> {
        self.sessions.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        SequentialScheduler.run_tasks(n, task)
    }
}

/// Run `compiled` metered under `morsel`-row morsels on a counting
/// scheduler: the scheduler sessions opened, and the per-node metrics.
fn scheduler_sessions(
    compiled: &PhysicalPlan,
    bindings: &Bindings<'_>,
    morsel: usize,
) -> (usize, Vec<OpMetrics>) {
    let counting = CountingScheduler::default();
    let sink = compiled.metrics_sink();
    compiled.run_with_metrics(bindings, ExecMode::morsel(&counting, morsel), &sink).unwrap();
    (counting.sessions.into_inner(), sink.snapshots())
}

/// Row-for-row, in-order comparison with float tolerance on the values —
/// the "row-set identical including deterministic output ordering at the
/// keyed root" check. `Table::same_contents` is order-insensitive; this is
/// deliberately stricter.
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

/// Assert the full matrix for one compiled plan under one binding set:
/// sequential `run()` as the oracle, morsel modes across schedulers ×
/// morsel sizes, bit-identical across schedulers for a fixed morsel size.
/// The row-at-a-time reference path rides along on both axes: sequential
/// rowwise must be bit-identical to `run`, and the parallel rowwise mode
/// bit-identical to the parallel vectorized anchor per morsel size.
fn assert_matrix(
    compiled: &PhysicalPlan,
    bindings: &Bindings<'_>,
    pools: &[WorkerPool],
    label: &str,
) {
    let sequential = compiled.run(bindings).unwrap();
    let rowwise = compiled.run_with(bindings, ExecMode::sequential().rowwise()).unwrap();
    assert!(
        rowwise.rows() == sequential.rows() && rowwise.schema() == sequential.schema(),
        "{label}: sequential vectorized and rowwise paths diverged"
    );

    // Per-node metric row counts obey the same contract as the rows
    // themselves: the row-shaped fields (in/out, build/probe, groups) are
    // functions of plan + inputs only — identical across exec modes,
    // schedulers, and morsel sizes. (Wall times, morsel and chunk counts
    // legitimately vary and are excluded.)
    let metric_rows = |mode: ExecMode<'_>| -> Vec<[u64; 5]> {
        let sink = compiled.metrics_sink();
        compiled.run_with_metrics(bindings, mode, &sink).unwrap();
        sink.snapshots()
            .iter()
            .map(|m| [m.rows_in, m.rows_out, m.build_rows, m.probe_rows, m.groups])
            .collect()
    };
    let node_rows = metric_rows(ExecMode::sequential());
    assert_eq!(
        node_rows,
        metric_rows(ExecMode::sequential().rowwise()),
        "{label}: rowwise mode changed per-node metric row counts"
    );
    assert_eq!(
        node_rows,
        metric_rows(ExecMode::morsel(&SequentialScheduler, 7)),
        "{label}: morsel decomposition changed per-node metric row counts"
    );
    for pool in pools {
        assert_eq!(
            node_rows,
            metric_rows(ExecMode::morsel(pool, 7)),
            "{label}: {} workers changed per-node metric row counts",
            pool.workers()
        );
    }
    // Cost shape: a sequential run splits nothing and partitions nothing;
    // a morsel mode whose every input fits one morsel never opens a
    // scheduler session; and a smaller morsel opens one exactly when some
    // node's input split.
    let sink = compiled.metrics_sink();
    compiled.run_with_metrics(bindings, ExecMode::sequential(), &sink).unwrap();
    for (id, m) in sink.snapshots().iter().enumerate() {
        assert!(
            m.morsels == 0 && m.partitions <= 1,
            "{label}: sequential node {id} recorded a split ({m:?})"
        );
    }
    let (sessions, _) = scheduler_sessions(compiled, bindings, usize::MAX);
    assert_eq!(sessions, 0, "{label}: whole-input morsels must not engage the scheduler");
    let (sessions, nodes) = scheduler_sessions(compiled, bindings, 7);
    assert_eq!(
        sessions > 0,
        nodes.iter().any(|m| m.morsels > 0),
        "{label}: {sessions} scheduler sessions, per-node metrics {nodes:?}"
    );
    for &morsel in &MORSELS {
        // The inline scheduler anchors the morsel decomposition; pools of
        // every worker count must reproduce it bit for bit.
        let anchor =
            compiled.run_with(bindings, ExecMode::morsel(&SequentialScheduler, morsel)).unwrap();
        let anchor_rw = compiled
            .run_with(bindings, ExecMode::morsel(&SequentialScheduler, morsel).rowwise())
            .unwrap();
        assert!(
            anchor_rw.rows() == anchor.rows(),
            "{label}: morsel {morsel} parallel rowwise diverged from parallel vectorized"
        );
        // The partition knob shards hash-join builds and set-op dedup by
        // key hash; equal keys land in the same partition in the same
        // order, so it must never show up in the result. (The dedicated
        // partition-count × worker-count matrix lives in
        // `tests/partition_prop.rs`.)
        let anchor_p = compiled
            .run_with(bindings, ExecMode::morsel(&SequentialScheduler, morsel).partitions(4))
            .unwrap();
        assert!(
            anchor_p.rows() == anchor.rows(),
            "{label}: morsel {morsel} with 4 partitions diverged from the unpartitioned build"
        );
        assert!(
            approx_same_rows_in_order(&anchor, &sequential, 1e-9),
            "{label}: morsel {morsel} diverged from sequential in rows or order \
             ({} vs {} rows)",
            anchor.len(),
            sequential.len()
        );
        if morsel == usize::MAX {
            // One morsel covers everything: the result must be *exactly*
            // the sequential one, float bits included.
            assert!(
                anchor.rows() == sequential.rows(),
                "{label}: whole-table morsel must be bitwise sequential"
            );
        }
        for pool in pools {
            let par = compiled.run_with(bindings, ExecMode::morsel(pool, morsel)).unwrap();
            assert!(
                par.rows() == anchor.rows() && par.schema() == anchor.schema(),
                "{label}: morsel {morsel} on {} workers differs from the inline \
                 decomposition — thread count leaked into the result",
                pool.workers()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Query-shaped plans (optionally η-wrapped, optionally optimized):
    /// the full worker-count × morsel-size matrix against sequential run().
    #[test]
    fn morsel_execution_matches_sequential_on_query_plans(
        n_facts in 30usize..150,
        n_dims in 4usize..16,
        variant in 0u8..PLAN_VARIANTS,
        hashed in 0u8..2,
        optimized in 0u8..2,
        ratio in 0.1f64..0.9,
        seed in 0u64..500,
        data_seed in 0u64..200,
    ) {
        let db = build_db(n_facts, n_dims, data_seed);
        let mut plan = plan_variant(variant);
        if hashed == 1 {
            let derived = stale_view_cleaning::relalg::derive::derive(&plan, &db).unwrap();
            let key: Vec<String> =
                derived.key_names().iter().map(|s| s.to_string()).collect();
            if !key.is_empty() {
                let key_refs: Vec<&str> = key.iter().map(|s| s.as_str()).collect();
                plan = plan.hash(&key_refs, ratio, HashSpec::with_seed(seed));
            }
        }
        if optimized == 1 {
            plan = optimize(&plan, &db).unwrap().0;
        }
        let b = Bindings::from_database(&db);
        let compiled = compile(&plan, &b).unwrap();
        let pools = [WorkerPool::new(1), WorkerPool::new(2), WorkerPool::new(4)];
        assert_matrix(&compiled, &b, &pools, &format!("variant {variant}"));
        // Every query shape filters, joins or groups `fact` (≥ 30 rows):
        // one-row morsels must reach the scheduler.
        let (sessions, _) = scheduler_sessions(&compiled, &b, 1);
        prop_assert!(sessions > 0, "variant {}: one-row morsels never fanned out", variant);
    }

    /// Maintenance-strategy plans from svc-ivm (signed change tables,
    /// delta-apply, recompute), evaluated under maintenance bindings: the
    /// path `BatchPipeline` and `MaterializedView::maintain` run through.
    #[test]
    fn morsel_execution_matches_sequential_on_maintenance_plans(
        n_facts in 40usize..120,
        n_dims in 4usize..12,
        view_kind in 0u8..4,
        ops in proptest::collection::vec((0u8..3, 0u64..1_000_000), 1..50),
        data_seed in 0u64..200,
    ) {
        let db = build_db(n_facts, n_dims, data_seed);
        let view_def = match view_kind % 4 {
            // Change-table strategy (additive aggregate).
            0 => Plan::scan("fact")
                .join(Plan::scan("dim"), JoinKind::Inner, &[("dimId", "dimId")])
                .aggregate(
                    &["dimId"],
                    vec![
                        AggSpec::count_all("n"),
                        AggSpec::new("avgx", AggFunc::Avg, col("x")),
                    ],
                ),
            // Delta-apply strategy (SPJ view).
            1 => Plan::scan("fact")
                .join(Plan::scan("dim"), JoinKind::Inner, &[("dimId", "dimId")])
                .select(col("weight").gt(lit(0.2))),
            // Change-table strategy through an auxiliary table (nested
            // aggregate; the reference form inlines the table's definition).
            2 => Plan::scan("fact")
                .aggregate(&["dimId"], vec![AggSpec::count_all("c")])
                .aggregate(&["c"], vec![AggSpec::count_all("n")]),
            // Recompute strategy (median).
            _ => Plan::scan("fact")
                .aggregate(&["dimId"], vec![AggSpec::new("medx", AggFunc::Median, col("x"))]),
        };
        let view = MaterializedView::create("v", view_def, &db).unwrap();
        let deltas = random_deltas(&db, &ops);
        let (plan, _kind) = view.build_maintenance_plan(&db, &deltas).unwrap();
        let (plan, _) =
            optimize(&plan, &maintenance_bindings(&db, &deltas, view.table())).unwrap();

        let bindings = maintenance_bindings(&db, &deltas, view.table());
        let compiled = compile(&plan, &bindings).unwrap();
        let pools = [WorkerPool::new(1), WorkerPool::new(2), WorkerPool::new(4)];
        assert_matrix(&compiled, &bindings, &pools, &format!("view kind {view_kind}"));
    }

    /// Null-heavy, type-mixed tables through the same matrix: the typed
    /// kernels' validity masks and the `Mixed` column fallback must
    /// survive morsel decomposition — chunk-range boundaries cut through
    /// null runs and type changes without changing a single row.
    #[test]
    fn morsel_execution_matches_sequential_on_mixed_tables(
        n_rows in 40usize..250,
        variant in 0u8..7,
        hashed in 0u8..2,
        ratio in 0.1f64..0.9,
        seed in 0u64..500,
        data_seed in 0u64..200,
    ) {
        let db = build_db_mixed(n_rows, data_seed);
        let mut plan = mixed_plan_variant(variant);
        if hashed == 1 {
            let derived = stale_view_cleaning::relalg::derive::derive(&plan, &db).unwrap();
            let key: Vec<String> =
                derived.key_names().iter().map(|s| s.to_string()).collect();
            if !key.is_empty() {
                let key_refs: Vec<&str> = key.iter().map(|s| s.as_str()).collect();
                plan = plan.hash(&key_refs, ratio, HashSpec::with_seed(seed));
            }
        }
        let b = Bindings::from_database(&db);
        let compiled = compile(&plan, &b).unwrap();
        let pools = [WorkerPool::new(2)];
        assert_matrix(&compiled, &b, &pools, &format!("mixed variant {variant}"));
    }
}

/// Fixed-input determinism: re-running the same parallel configuration is
/// reproducible, and interleaving two concurrent parallel runs on one pool
/// does not change either result.
#[test]
fn parallel_execution_is_reproducible_and_interleaving_safe() {
    let db = build_db(600, 12, 7);
    let plan = Plan::scan("fact")
        .join(Plan::scan("dim"), JoinKind::Inner, &[("dimId", "dimId")])
        .aggregate(
            &["tag"],
            vec![AggSpec::new("sx", AggFunc::Sum, col("x")), AggSpec::count_all("n")],
        );
    let b = Bindings::from_database(&db);
    let compiled = compile(&plan, &b).unwrap();
    let pool = WorkerPool::new(4);

    let mode = ExecMode::morsel(&pool, 37);
    let once = compiled.run_with(&b, mode).unwrap();
    let again = compiled.run_with(&b, mode).unwrap();
    assert!(once.rows() == again.rows(), "same morsel size must be bit-for-bit reproducible");

    // Two threads hammer the same pool with the same plan: the shared
    // queue interleaves their morsels, results stay bit-identical.
    std::thread::scope(|s| {
        let handles: Vec<_> =
            (0..2).map(|_| s.spawn(|| compiled.run_with(&b, mode).unwrap())).collect();
        for h in handles {
            let out = h.join().unwrap();
            assert!(out.rows() == once.rows(), "interleaved run diverged");
        }
    });
}

/// Morsel size 0 has one meaning — auto-tune, the same mode as
/// `morsel_auto` — and is neither rejected nor looped on.
#[test]
fn zero_morsel_size_means_auto() {
    let db = build_db(50, 5, 1);
    let b = Bindings::from_database(&db);
    let compiled = compile(&Plan::scan("fact").select(col("x").gt(lit(0.5))), &b).unwrap();
    let zero = compiled.run_with(&b, ExecMode::morsel(&SequentialScheduler, 0)).unwrap();
    let auto = compiled.run_with(&b, ExecMode::morsel_auto(&SequentialScheduler)).unwrap();
    assert!(zero.rows() == auto.rows());
    assert!(zero.rows() == compiled.run(&b).unwrap().rows());
    assert_eq!(
        format!("{:?}", ExecMode::morsel(&SequentialScheduler, 0)),
        format!("{:?}", ExecMode::morsel_auto(&SequentialScheduler))
    );
}

/// The cost shape on a fixed input: a σ over 200 rows opens one scheduler
/// session of ⌈200/16⌉ morsels under 16-row morsels, and none at all once
/// the morsel covers the table.
#[test]
fn scheduler_is_engaged_only_where_an_input_splits() {
    let db = build_db(200, 8, 3);
    let b = Bindings::from_database(&db);
    let compiled = compile(&Plan::scan("fact").select(col("x").gt(lit(0.5))), &b).unwrap();
    let (sessions, nodes) = scheduler_sessions(&compiled, &b, 16);
    assert_eq!((sessions, nodes[0].morsels), (1, 13));
    assert_eq!(nodes[0].vec_chunks + nodes[0].row_batches, 13, "one kernel pass per range");
    let (sessions, nodes) = scheduler_sessions(&compiled, &b, 200);
    assert_eq!((sessions, nodes[0].morsels), (0, 0));
    assert_eq!(nodes[0].vec_chunks + nodes[0].row_batches, 1);
}

/// The scheduler trait object is what `ExecMode` carries; make sure the
/// mode dispatches to the parallel path end to end.
#[test]
fn exec_mode_dispatches_to_parallel() {
    let db = build_db(200, 8, 3);
    let b = Bindings::from_database(&db);
    let plan = Plan::scan("fact").select(col("x").gt(lit(0.5)));
    let compiled = compile(&plan, &b).unwrap();
    let pool = WorkerPool::new(2);
    let seq = compiled.run_with(&b, ExecMode::sequential()).unwrap();
    let sched: &dyn MorselScheduler = &pool;
    let par = compiled.run_with(&b, ExecMode::morsel(sched, 16)).unwrap();
    assert!(par.rows() == seq.rows());
}
