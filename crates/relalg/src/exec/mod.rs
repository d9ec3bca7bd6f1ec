//! The compile-once streaming executor.
//!
//! [`compile()`] lowers a [`Plan`] into a [`PhysicalPlan`]: every schema is
//! derived, every predicate/projection/aggregate bound, every join column
//! resolved — once. [`PhysicalPlan::run`] then evaluates against
//! [`Bindings`] with none of that per-call work, and with a radically
//! cheaper data path than the legacy materializing evaluator
//! ([`crate::eval::evaluate_materializing`]):
//!
//! * **No scan clones.** A `Scan` leaf is read in place from the bound
//!   table. The legacy evaluator cloned the entire base relation —
//!   including its key index — before filtering it.
//! * **Fused pipelines.** Maximal `Scan→σ→Π→η` chains run as a single pass
//!   that borrows source rows and clones only survivors
//!   ([`pipeline::FusedOp`]).
//! * **Plain batches between breakers.** Joins, γ, and set operations
//!   materialize `Vec<Row>` — not a keyed [`svc_storage::Table`] with a
//!   rebuilt `HashMap` index that no operator ever probes.
//! * **Allocation-free probes.** Join build/probe and group-by hash
//!   borrowed key columns in place ([`svc_storage::KeyTuple::hash_of`])
//!   and verify candidates by column equality; `KeyTuple`s are allocated
//!   only for keys that are actually kept (first group insertion, the
//!   reusable PK-probe buffer).
//! * **One keyed table, at the root.** The output `Table` and its index
//!   are built exactly once, from the final batch.
//!
//! Compiled plans are reusable: [`PhysicalPlan::run`] only looks leaves up
//! by name and validates their shape, so the mini-batch maintenance path
//! compiles one change plan per delta signature and reruns it for every
//! delta chunk of every batch (`svc-cluster`'s `BatchPipeline`).

mod batch;
pub mod column;
pub mod compile;
pub mod explain;
mod partition;
pub mod pipeline;
mod run;

use std::fmt;

use svc_storage::{Result, StorageError, Table};
use svc_telemetry::MetricsSink;

use crate::derive::{Derived, LeafProvider};
use crate::eval::Bindings;
use crate::optimizer::cost::CardEstimator;
use crate::plan::Plan;

pub use batch::fresh_batch_count;
pub use column::{ColPred, ColumnChunk, MapPlan, SelVec, VecOp};
pub use compile::{leaf_scan_counts, JoinRight, LeafRef, Node};
pub use explain::{explain_analyze, Explain, ExplainNode};
pub use pipeline::{FusedOp, RowSink};

/// Something that can execute a batch of independent morsel tasks —
/// typically `svc-cluster`'s `WorkerPool`, whose shared work queue
/// interleaves morsels from concurrent plans across one set of worker
/// threads. Implementations must run every index in `0..n` exactly once
/// (concurrently or not) before returning, and should catch task panics,
/// reporting them as an `Err` instead of unwinding into unrelated work.
pub trait MorselScheduler: Sync {
    /// Execute tasks `0..n` to completion.
    fn run_tasks(&self, n: usize, task: &(dyn Fn(usize) + Sync)) -> Result<()>;
}

/// Runs every morsel inline on the calling thread — the no-pool fallback,
/// and the degenerate point of the parallel-vs-sequential equivalence
/// matrix (`tests/morsel_prop.rs`).
#[derive(Debug, Clone, Copy, Default)]
pub struct SequentialScheduler;

impl MorselScheduler for SequentialScheduler {
    fn run_tasks(&self, n: usize, task: &(dyn Fn(usize) + Sync)) -> Result<()> {
        for i in 0..n {
            task(i);
        }
        Ok(())
    }
}

/// How a compiled plan executes: sequentially on the calling thread
/// (default), or morsel-parallel on a scheduler; vectorized fused-scan
/// kernels (default), or the row-at-a-time reference path. A copyable
/// knob: `MaterializedView::maintained` takes one, which is how
/// `BatchPipeline` runs a fallback maintenance plan morsel-parallel on its
/// pool.
#[derive(Clone, Copy, Default)]
pub struct ExecMode<'a> {
    sched: Option<&'a dyn MorselScheduler>,
    /// Rows per morsel; `0` with a scheduler attached means "derive from
    /// the bound leaf sizes at run time" ([`auto_morsel_size`]).
    morsel: usize,
    /// Hash partitions for join builds and set-op dedup; `0` means
    /// "derive from the build input size at run time"
    /// ([`auto_partition_count`]). Rounded up to a power of two.
    partitions: usize,
    rowwise: bool,
}

impl<'a> ExecMode<'a> {
    /// Sequential execution on the calling thread.
    pub fn sequential() -> ExecMode<'static> {
        ExecMode { sched: None, morsel: 0, partitions: 0, rowwise: false }
    }

    /// Morsel-parallel execution on `sched` with `morsel_size` rows per
    /// morsel; `0` means auto — the same mode as [`ExecMode::morsel_auto`].
    pub fn morsel(sched: &'a dyn MorselScheduler, morsel_size: usize) -> ExecMode<'a> {
        ExecMode { sched: Some(sched), morsel: morsel_size, partitions: 0, rowwise: false }
    }

    /// Morsel-parallel execution with the morsel size derived from the
    /// largest bound leaf at run time ([`auto_morsel_size`]).
    pub fn morsel_auto(sched: &'a dyn MorselScheduler) -> ExecMode<'a> {
        ExecMode { sched: Some(sched), morsel: 0, partitions: 0, rowwise: false }
    }

    /// Switch to the row-at-a-time reference path (the vectorized kernels
    /// are the default). Used by the equivalence harnesses and benches.
    pub fn rowwise(mut self) -> ExecMode<'a> {
        self.rowwise = true;
        self
    }

    /// Set the hash-partition count for join builds and set-op dedup
    /// (rounded up to a power of two; `0` restores the size-based auto
    /// tune). Join results are identical for every value — partitioning a
    /// chain map by key hash cannot change which rows a probe key finds,
    /// or their order — so this is purely a parallelism/skew knob.
    /// Ignored without a scheduler: sequential runs build one map.
    pub fn partitions(mut self, partitions: usize) -> ExecMode<'a> {
        self.partitions = partitions;
        self
    }

    /// The mode the walker runs under: no scheduler means nothing ever
    /// splits (`morsel = usize::MAX`, one hash partition), and an auto
    /// morsel size is derived from the largest leaf `root` reads under
    /// `bindings`.
    fn resolved(self, root: &Node, bindings: &Bindings<'_>) -> ExecMode<'a> {
        match self.sched {
            None => ExecMode { morsel: usize::MAX, partitions: 1, ..self },
            Some(_) if self.morsel == 0 => {
                let (rows, width) = largest_leaf(root, bindings);
                ExecMode { morsel: auto_morsel_size(rows, width), ..self }
            }
            Some(_) => self,
        }
    }
}

impl fmt::Debug for ExecMode<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let path = if self.rowwise { "rowwise" } else { "vectorized" };
        let parts: &dyn fmt::Display = match self.partitions {
            0 => &"auto",
            ref p => p,
        };
        match self.sched {
            Some(_) if self.morsel == 0 => {
                write!(f, "ExecMode::Morsel(auto, parts={parts}, {path})")
            }
            Some(_) => write!(f, "ExecMode::Morsel({}, parts={parts}, {path})", self.morsel),
            None => write!(f, "ExecMode::Sequential({path})"),
        }
    }
}

/// Rows per morsel targeting ~64k values per column chunk (`rows ×
/// width`), while still splitting small inputs at least ~8 ways so a pool
/// has work to steal; clamped to `[256, 65536]` so degenerate shapes
/// (thousands of columns, tiny tables) stay sane.
pub fn auto_morsel_size(rows: usize, width: usize) -> usize {
    const TARGET_VALUES: usize = 64 * 1024;
    let by_width = TARGET_VALUES / width.max(1);
    let by_split = rows.div_ceil(8).max(1);
    by_width.min(by_split).clamp(256, 65_536)
}

/// Hash partitions for a join build (or set-op dedup) over `rows` input
/// rows: ~4k rows per partition, always a power of two (so the partition
/// of a hash is a mask), clamped to `[1, 64]`. Small inputs resolve to 1 —
/// a single map built inline, no scatter pass — so partitioning only
/// engages where a fan-out can pay for itself.
pub fn auto_partition_count(rows: usize) -> usize {
    const TARGET_ROWS: usize = 4096;
    (rows / TARGET_ROWS).next_power_of_two().clamp(1, 64)
}

/// A compiled, reusable physical plan. `Send + Sync`: worker pools share
/// one compiled plan across threads.
#[derive(Debug, Clone)]
pub struct PhysicalPlan {
    root: Node,
    out: Derived,
}

impl PhysicalPlan {
    /// Evaluate against concrete bindings, producing the keyed output
    /// table. May be called any number of times, against different
    /// bindings, as long as every leaf keeps the compiled schema.
    /// Shorthand for [`PhysicalPlan::run_with`] under
    /// [`ExecMode::sequential`].
    pub fn run(&self, bindings: &Bindings<'_>) -> Result<Table> {
        self.run_with(bindings, ExecMode::sequential())
    }

    /// Evaluate under an [`ExecMode`]. Every mode is the same tree walker
    /// (`exec/run.rs`) with a different morsel size: base scans split into
    /// morsel-sized chunk ranges over the leaf's shared column set, probe
    /// and fused inputs into morsel-sized owned chunks, one operator core
    /// runs per range, join morsels probe a build side constructed once,
    /// and per-morsel γ group maps merge at the pipeline barrier.
    /// Hash-join build sides (and large set-op dedups) hash-partition
    /// ([`auto_partition_count`] partitions by default) and build one map
    /// shard per partition concurrently — each shard owned by exactly one
    /// task, probed read-only by every morsel. A scheduler is only engaged
    /// where an input exceeds one morsel; [`ExecMode::sequential`] has none
    /// and never splits. The result — including output order at the keyed
    /// root — is a function of the morsel size only, never of the
    /// scheduler's thread count, interleaving, or the partition count; a
    /// split run matches the sequential one exactly up to float-sum
    /// rounding (partial sums per morsel combine at the barrier).
    /// [`ExecMode::rowwise`] swaps the vectorized fused-scan kernels for the
    /// row-at-a-time reference path — row-for-row identical results.
    pub fn run_with(&self, bindings: &Bindings<'_>, mode: ExecMode<'_>) -> Result<Table> {
        self.execute(bindings, mode, None)
    }

    fn execute(
        &self,
        bindings: &Bindings<'_>,
        mode: ExecMode<'_>,
        m: run::OptMeter<'_>,
    ) -> Result<Table> {
        let mode = mode.resolved(&self.root, bindings);
        let rows = run::run_node(&self.root, bindings, &mode, m)?;
        run::finish_root(&self.root, &self.out, rows)
    }

    /// Number of physical nodes in the compiled tree — the slot count a
    /// [`MetricsSink`] for this plan must have. Node ids are pre-order:
    /// the root is 0, a node's first child is `id + 1`, and a second child
    /// follows the first child's whole subtree. PK-probed leaves are part
    /// of their join node (reported as its `build_rows`), not nodes of
    /// their own.
    pub fn node_count(&self) -> usize {
        self.root.subtree_size()
    }

    /// Allocate a metrics sink sized for this plan — one
    /// [`svc_telemetry::OpSlot`] per physical node, addressed by pre-order
    /// id.
    pub fn metrics_sink(&self) -> MetricsSink {
        MetricsSink::with_slots(self.node_count())
    }

    /// Operator labels in pre-order: `node_labels()[i]` names the operator
    /// whose metrics land in sink slot `i`. Lets callers pair
    /// [`MetricsSink::snapshots`] with operator names without building a
    /// full [`Explain`].
    pub fn node_labels(&self) -> Vec<String> {
        explain::labels(&self.root)
    }

    /// [`PhysicalPlan::run_with`], recording per-operator execution
    /// metrics into `sink` (not reset first — counts accumulate, so one
    /// sink can total several runs). Morsel tasks fold stack-local
    /// counters into the sink's per-node atomic slots at the session
    /// barrier; the sums are commutative, so recorded totals — like the
    /// rows themselves — depend on the morsel size only, never on the
    /// scheduler's thread count. The plain `run*` paths never touch a
    /// sink: with no sink installed the executor allocates zero metric
    /// state (see `metric_allocs` and `tests/telemetry.rs`).
    pub fn run_with_metrics(
        &self,
        bindings: &Bindings<'_>,
        mode: ExecMode<'_>,
        sink: &MetricsSink,
    ) -> Result<Table> {
        if sink.len() != self.node_count() {
            return Err(StorageError::Invalid(format!(
                "metrics sink has {} slots but the plan has {} nodes",
                sink.len(),
                self.node_count()
            )));
        }
        self.execute(bindings, mode, Some(run::Meter { sink, id: 0 }))
    }

    /// The derived output type (schema + key) of the plan.
    pub fn output(&self) -> &Derived {
        &self.out
    }

    /// Run the physical verifier over this compiled plan: bound indices in
    /// range, FusedOp/VecOp twins agreeing, every breaker producing its
    /// declared arity, and the root matching the declared output type. See
    /// [`crate::verify::physical`]. [`compile_with`] calls this on every
    /// compile when the `verify` feature is on.
    pub fn verify(&self) -> Result<()> {
        crate::verify::physical::verify_physical(&self.root, &self.out)
    }

    /// Compact structural description, e.g.
    /// `γ(fused-scan(lineitem)[σσ])` — used by tests asserting fusion
    /// boundaries and by debugging.
    pub fn describe(&self) -> String {
        self.root.describe()
    }
}

/// Row count and width of the largest leaf a plan reads under `bindings`
/// — the input the morsel auto-tuner sizes chunks for. Unresolvable
/// leaves (caught properly at run time) are skipped.
fn largest_leaf(node: &Node, b: &Bindings<'_>) -> (usize, usize) {
    fn note(leaf: &LeafRef, b: &Bindings<'_>, best: &mut (usize, usize)) {
        if let Ok(t) = leaf.resolve(b) {
            if t.len() > best.0 {
                *best = (t.len(), t.schema().len());
            }
        }
    }
    fn walk(node: &Node, b: &Bindings<'_>, best: &mut (usize, usize)) {
        match node {
            Node::FusedScan { leaf, .. } => note(leaf, b, best),
            Node::Fused { input, .. } => walk(input, b, best),
            Node::Join { left, right, .. } => {
                walk(left, b, best);
                match right {
                    JoinRight::PkProbeLeaf { leaf, .. } => note(leaf, b, best),
                    JoinRight::Build(n) => walk(n, b, best),
                }
            }
            Node::Aggregate { input, .. } => walk(input, b, best),
            Node::SetOp { left, right, .. } => {
                walk(left, b, best);
                walk(right, b, best);
            }
        }
    }
    let mut best = (0, 1);
    walk(node, b, &mut best);
    best
}

/// Compile a plan against a leaf provider (typically the [`Bindings`] or
/// [`svc_storage::Database`] it will run against, or the maintenance
/// catalog for maintenance plans).
pub fn compile(plan: &Plan, leaves: &(impl LeafProvider + ?Sized)) -> Result<PhysicalPlan> {
    compile_with(plan, leaves, None)
}

/// [`compile()`] with an optional cardinality estimator: γ group maps are
/// then pre-sized from catalog NDV estimates instead of the input-length
/// heuristic.
pub fn compile_with(
    plan: &Plan,
    leaves: &(impl LeafProvider + ?Sized),
    est: Option<&dyn CardEstimator>,
) -> Result<PhysicalPlan> {
    let leaves: &dyn LeafProvider = &leaves;
    let (root, out) = compile::lower_plan(plan, leaves, est)?;
    let plan = PhysicalPlan { root, out };
    #[cfg(feature = "verify")]
    plan.verify()?;
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{AggFunc, AggSpec};
    use crate::eval::evaluate_materializing;
    use crate::plan::JoinKind;
    use crate::scalar::{col, lit};
    use svc_storage::{DataType, Database, HashSpec, Schema, Value};

    fn video_db() -> Database {
        let mut db = Database::new();
        let mut video = Table::new(
            Schema::from_pairs(&[
                ("videoId", DataType::Int),
                ("ownerId", DataType::Int),
                ("duration", DataType::Float),
            ])
            .unwrap(),
            &["videoId"],
        )
        .unwrap();
        for v in 0..50i64 {
            video
                .insert(vec![Value::Int(v), Value::Int(v % 7), Value::Float(0.5 + v as f64 * 0.1)])
                .unwrap();
        }
        let mut log = Table::new(
            Schema::from_pairs(&[("sessionId", DataType::Int), ("videoId", DataType::Int)])
                .unwrap(),
            &["sessionId"],
        )
        .unwrap();
        for s in 0..400i64 {
            log.insert(vec![Value::Int(s), Value::Int(s % 50)]).unwrap();
        }
        db.create_table("video", video);
        db.create_table("log", log);
        db
    }

    fn visit_view() -> Plan {
        Plan::scan("log")
            .join(Plan::scan("video"), JoinKind::Inner, &[("videoId", "videoId")])
            .aggregate(
                &["videoId"],
                vec![
                    AggSpec::count_all("visits"),
                    AggSpec::new("maxDur", AggFunc::Max, col("duration")),
                ],
            )
    }

    /// The acceptance guarantee: a fused σ/η pipeline over a `Scan` clones
    /// zero tables — the legacy evaluator cloned the whole base relation.
    #[test]
    fn fused_scan_pipeline_performs_zero_table_clones() {
        let db = video_db();
        let b = Bindings::from_database(&db);
        let plan = Plan::scan("log").select(col("videoId").lt(lit(5i64))).hash(
            &["sessionId"],
            0.5,
            HashSpec::with_seed(3),
        );
        let compiled = compile(&plan, &b).unwrap();
        assert_eq!(compiled.describe(), "fused-scan(log)[ση]");
        let before = Table::clone_count();
        let out = compiled.run(&b).unwrap();
        assert_eq!(Table::clone_count(), before, "fused scan must not clone any table");
        assert!(out.len() < 40, "filter + hash must select");
        let expected = evaluate_materializing(&plan, &b).unwrap();
        assert!(out.same_contents(&expected));
    }

    /// FK joins against a bare base-table leaf probe its existing PK index:
    /// no build pass, no clone of the base relation.
    #[test]
    fn fk_join_probes_leaf_index_without_cloning() {
        let db = video_db();
        let b = Bindings::from_database(&db);
        let plan = visit_view();
        let compiled = compile(&plan, &b).unwrap();
        assert!(
            compiled.describe().contains("pk-probe(video)"),
            "expected PK probe, got {}",
            compiled.describe()
        );
        let before = Table::clone_count();
        let out = compiled.run(&b).unwrap();
        assert_eq!(Table::clone_count(), before, "probe side must not be cloned or rebuilt");
        let expected = evaluate_materializing(&plan, &b).unwrap();
        assert!(out.same_contents(&expected));
    }

    /// A σ-, η- or Π-wrapped right side joined on its key probes the leaf's
    /// index too, running its chain on the probed row: a row the chain drops
    /// is no partner (Inner and Semi drop the left row, Left pads it, Anti
    /// keeps it). Only the plans' own tables are cloned: no build side.
    #[test]
    fn chained_right_sides_probe_the_leaf_index() {
        let db = video_db();
        let b = Bindings::from_database(&db);
        let rights = [
            (Plan::scan("video").select(col("ownerId").lt(lit(4i64))), "[σ]"),
            (Plan::scan("video").hash(&["videoId"], 0.5, HashSpec::with_seed(5)), "[η]"),
            (
                Plan::scan("video")
                    .project(vec![("videoId", col("videoId")), ("mins", col("duration"))])
                    .select(col("mins").gt(lit(2.0))),
                "[πσ]",
            ),
        ];
        for (right, tags) in rights {
            for kind in [JoinKind::Inner, JoinKind::Left, JoinKind::Semi, JoinKind::Anti] {
                let plan = Plan::scan("log").join(right.clone(), kind, &[("videoId", "videoId")]);
                let compiled = compile(&plan, &b).unwrap();
                let want = format!("join:{kind:?}(fused-scan(log), pk-probe(video){tags})");
                assert_eq!(compiled.describe(), want);
                let before = Table::clone_count();
                let got = compiled.run(&b).unwrap();
                assert_eq!(Table::clone_count(), before, "{want}: nothing is built or copied");
                let expected = evaluate_materializing(&plan, &b).unwrap();
                assert!(got.same_contents(&expected), "{want} diverged");
                assert!(got.len() < 400 || kind != JoinKind::Inner, "{want}: the chain drops rows");
            }
        }
    }

    /// A compiled plan is reusable against different bindings with the
    /// same leaf shapes — and rejects bindings whose shape changed.
    #[test]
    fn compiled_plans_rerun_against_fresh_bindings() {
        let db = video_db();
        let b = Bindings::from_database(&db);
        let plan = Plan::scan("log").select(col("videoId").lt(lit(10i64)));
        let compiled = compile(&plan, &b).unwrap();
        let first = compiled.run(&b).unwrap();

        // Rebind `log` to a different table of the same schema.
        let mut other = db.table("log").unwrap().empty_like();
        other.insert(vec![Value::Int(9_999), Value::Int(3)]).unwrap();
        let mut b2 = Bindings::from_database(&db);
        b2.bind("log", &other);
        let second = compiled.run(&b2).unwrap();
        assert_eq!(second.len(), 1);
        assert_ne!(first.len(), second.len());

        // A schema change is caught, not silently mis-executed.
        let wrong = db.table("video").unwrap().clone();
        let mut b3 = Bindings::from_database(&db);
        b3.bind("log", &wrong);
        let err = compiled.run(&b3).unwrap_err();
        assert!(err.to_string().contains("compiled"), "unexpected error: {err}");

        // So is a same-schema table with a different primary key: fused
        // roots trust the compiled key for the unique-rows fast path.
        let rekeyed = Table::new(db.table("log").unwrap().schema().clone(), &["videoId"]).unwrap();
        let mut b4 = Bindings::from_database(&db);
        b4.bind("log", &rekeyed);
        let err = compiled.run(&b4).unwrap_err();
        assert!(err.to_string().contains("primary key"), "unexpected error: {err}");
    }

    /// γ over a fused scan streams rows into the group map without
    /// materializing the filtered input.
    #[test]
    fn aggregate_streams_over_fused_scan() {
        let db = video_db();
        let b = Bindings::from_database(&db);
        let plan = Plan::scan("log")
            .select(col("sessionId").lt(lit(100i64)))
            .aggregate(&["videoId"], vec![AggSpec::count_all("n")]);
        let compiled = compile(&plan, &b).unwrap();
        assert_eq!(compiled.describe(), "γ(fused-scan(log)[σ])");
        let before = Table::clone_count();
        let out = compiled.run(&b).unwrap();
        assert_eq!(Table::clone_count(), before);
        let expected = evaluate_materializing(&plan, &b).unwrap();
        assert!(out.same_contents(&expected));
    }

    /// All operator kinds agree with the legacy materializing evaluator.
    #[test]
    fn streaming_matches_materializing_across_operators() {
        let db = video_db();
        let b = Bindings::from_database(&db);
        let plans = vec![
            Plan::scan("video"),
            visit_view(),
            visit_view().select(col("visits").gt(lit(2i64))).project(vec![
                ("videoId", col("videoId")),
                ("density", col("visits").div(col("maxDur"))),
            ]),
            Plan::scan("video")
                .select(col("ownerId").lt(lit(3i64)))
                .union(Plan::scan("video").select(col("ownerId").gt(lit(4i64)))),
            Plan::scan("video")
                .difference(Plan::scan("video").select(col("ownerId").eq(lit(2i64)))),
            Plan::scan("video").intersect(Plan::scan("video").select(col("ownerId").le(lit(5i64)))),
            Plan::scan("log")
                .join(Plan::scan("video"), JoinKind::Full, &[("videoId", "ownerId")])
                .select(col("sessionId").lt(lit(30i64)).or(col("duration").gt(lit(4.0)))),
            Plan::scan("video").join(Plan::scan("log"), JoinKind::Anti, &[("videoId", "videoId")]),
        ];
        for plan in plans {
            let got = compile(&plan, &b).unwrap().run(&b).unwrap();
            let expected = evaluate_materializing(&plan, &b).unwrap();
            assert!(got.same_contents(&expected), "divergence on {plan:?}");
        }
    }

    #[test]
    fn missing_leaf_errors_at_compile_time() {
        let b = Bindings::new();
        assert!(compile(&Plan::scan("nope"), &b).is_err());
    }

    /// The batch-buffer pool contract: after a warm-up run, re-running a
    /// compiled plan allocates at most ONE fresh batch buffer per run (the
    /// root batch the output table keeps) — every intermediate breaker
    /// batch is served from the per-thread pool. Without recycling this
    /// plan allocates a buffer per breaker per run.
    #[test]
    fn rerunning_a_compiled_plan_reuses_batch_buffers() {
        let db = video_db();
        let b = Bindings::from_database(&db);
        // Two shapes: join (pk-probe) → γ → σ, and a union over filtered
        // scans — covering fused batches, breaker batches, and the set-op
        // path through the pool.
        let plans = [
            visit_view().select(col("visits").gt(lit(1i64))),
            Plan::scan("video")
                .select(col("ownerId").lt(lit(3i64)))
                .union(Plan::scan("video").select(col("ownerId").gt(lit(4i64)))),
        ];
        for plan in plans {
            let compiled = compile(&plan, &b).unwrap();
            let first = compiled.run(&b).unwrap();
            for round in 0..5 {
                let before = fresh_batch_count();
                let out = compiled.run(&b).unwrap();
                let allocs = fresh_batch_count() - before;
                assert!(
                    allocs <= 1,
                    "warmed-up run {round} of {plan:?} must allocate at most the root batch, \
                     got {allocs}"
                );
                assert!(out.same_contents(&first));
            }
        }
    }

    /// The morsel auto-tuner targets ~64k values per chunk and stays
    /// inside its clamps for every degenerate shape.
    #[test]
    fn auto_morsel_size_bounds() {
        const TARGET: usize = 64 * 1024;
        // Nominal shape: rows × width lands on the value target.
        assert_eq!(auto_morsel_size(10_000_000, 8), TARGET / 8);
        // Wide tables shrink the morsel; the floor stops the shrinkage.
        assert_eq!(auto_morsel_size(10_000_000, 1_000_000), 256);
        // Narrow tables grow it; the ceiling stops the growth.
        assert_eq!(auto_morsel_size(100_000_000, 1), 65_536);
        // Small inputs still split ~8 ways so a pool has work to steal…
        assert_eq!(auto_morsel_size(8_000, 1), 1_000);
        // …down to the floor, and zero-row/zero-width inputs stay sane.
        for (rows, width) in [(0, 0), (0, 5), (1, 0), (17, 3), (1 << 30, 1 << 20)] {
            let m = auto_morsel_size(rows, width);
            assert!((256..=65_536).contains(&m), "({rows},{width}) gave {m}");
        }
        // Never more than the value target per chunk for real widths.
        for width in [1, 2, 7, 64, 300] {
            let m = auto_morsel_size(5_000_000, width);
            assert!(m * width <= TARGET.max(256 * width), "width {width} gave {m}");
        }
    }

    /// The partition auto-tuner: powers of two only, `[1, 64]`, and 1 for
    /// anything too small to be worth a scatter pass.
    #[test]
    fn auto_partition_count_bounds() {
        assert_eq!(auto_partition_count(0), 1);
        assert_eq!(auto_partition_count(4_095), 1);
        assert_eq!(auto_partition_count(4_096), 1);
        assert_eq!(auto_partition_count(8_192), 2);
        assert_eq!(auto_partition_count(40_000), 16);
        assert_eq!(auto_partition_count(1 << 30), 64);
        for rows in [0, 1, 100, 5_000, 123_456, usize::MAX / 2] {
            let p = auto_partition_count(rows);
            assert!(p.is_power_of_two() && (1..=64).contains(&p), "{rows} gave {p}");
        }
    }

    /// The partition knob never changes results — build joins and set ops
    /// included — for any count, on either kernel path.
    #[test]
    fn partition_count_is_result_invariant() {
        let db = video_db();
        let b = Bindings::from_database(&db);
        for plan in [
            // Non-key right column forces the hash-build join path.
            Plan::scan("log").join(Plan::scan("video"), JoinKind::Left, &[("videoId", "ownerId")]),
            Plan::scan("video").union(Plan::scan("video").select(col("ownerId").ge(lit(2i64)))),
            Plan::scan("video").intersect(Plan::scan("video").select(col("ownerId").le(lit(5i64)))),
        ] {
            let compiled = compile(&plan, &b).unwrap();
            let seq = compiled.run(&b).unwrap();
            for parts in [1usize, 2, 3, 8, 64] {
                for rowwise in [false, true] {
                    let mut mode = ExecMode::morsel(&SequentialScheduler, 16).partitions(parts);
                    if rowwise {
                        mode = mode.rowwise();
                    }
                    let got = compiled.run_with(&b, mode).unwrap();
                    assert!(
                        got.rows() == seq.rows(),
                        "parts={parts} rowwise={rowwise} changed rows or order on {plan:?}"
                    );
                }
            }
        }
    }

    /// A morsel mode on the inline scheduler is the sequential run with
    /// extra seams; results and output order must match exactly.
    #[test]
    fn inline_parallel_run_matches_run_exactly() {
        let db = video_db();
        let b = Bindings::from_database(&db);
        for plan in [
            visit_view(),
            Plan::scan("log").select(col("videoId").lt(lit(20i64))).hash(
                &["sessionId"],
                0.4,
                HashSpec::with_seed(9),
            ),
            Plan::scan("video")
                .difference(Plan::scan("video").select(col("ownerId").eq(lit(2i64)))),
        ] {
            let compiled = compile(&plan, &b).unwrap();
            let seq = compiled.run(&b).unwrap();
            for morsel in [1, 13, usize::MAX] {
                let mode = ExecMode::morsel(&SequentialScheduler, morsel);
                let par = compiled.run_with(&b, mode).unwrap();
                assert!(par.rows() == seq.rows(), "morsel {morsel} changed rows or order");
                assert_eq!(par.schema(), seq.schema());
            }
        }
    }
}
