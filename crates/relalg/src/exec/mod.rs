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
//!   that borrows source rows, projects into reused buffers and copies
//!   only survivors ([`pipeline::FusedOp`]).
//! * **Plain batches between breakers.** Joins, γ, and set operations
//!   materialize `Vec<Row>` — not a keyed [`svc_storage::Table`] with a
//!   rebuilt `HashMap` index that no operator ever probes.
//! * **Probes stream into their consumer.** A PK-probe join directly
//!   under a fused chain or a γ runs as one pass with it: each left
//!   survivor is probed, joined in a scratch row and handed to the
//!   consumer's ops and sink in place, so only kept survivors are built.
//!   Join builds and group-by hash borrowed key columns in place and
//!   verify candidates by column equality.
//! * **Set ops hash their key.** A set op hashes the union of its inputs'
//!   derived keys and compares candidates as whole rows.
//! * **One keyed table, at the root.** The output `Table` and its index
//!   are built exactly once, from the final batch.
//!
//! Compiled plans are reusable: [`PhysicalPlan::run`] only looks leaves up
//! by name and validates their shape, so the mini-batch maintenance path
//! compiles one change plan per delta signature and reruns it for every
//! delta chunk of every batch (`svc-cluster`'s `BatchPipeline`).
//!
//! A run is one thread: every operator makes one sequential pass over its
//! input on the calling thread, and [`ExecMode`] chooses only between the
//! vectorized fused-scan kernels and the row-at-a-time reference path.
//! Concurrency lives at the batch level — `BatchPipeline` runs whole
//! compiled plans as tasks on `svc-cluster`'s worker pool — which is why a
//! [`PhysicalPlan`] is `Send + Sync`.

mod batch;
pub mod column;
pub mod compile;
pub mod explain;
pub mod pipeline;
mod run;

use svc_storage::{Result, StorageError, Table};
use svc_telemetry::MetricsSink;

use crate::derive::{Derived, LeafProvider};
use crate::eval::Bindings;
use crate::optimizer::cost::CardEstimator;
use crate::plan::Plan;

pub use batch::fresh_batch_count;
pub use column::{ColPred, ColumnChunk, MapPlan, SelVec, VecOp};
pub use compile::{leaf_scan_counts, JoinRight, Layers, LeafRef, Node};
pub use explain::{explain_analyze, Explain, ExplainNode};
pub use pipeline::FusedOp;

/// How a compiled plan executes: the vectorized fused-scan kernels
/// (default), or the row-at-a-time reference path the equivalence
/// harnesses compare against. Either way every operator runs one
/// sequential pass on the calling thread; the two paths produce the same
/// rows, in the same order, with the same per-node row counts. A copyable
/// knob for callers of [`PhysicalPlan::run_with`]; the maintenance and
/// cleaning paths take none.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecMode {
    rowwise: bool,
}

impl ExecMode {
    /// Vectorized execution on the calling thread.
    pub fn sequential() -> ExecMode {
        ExecMode::default()
    }

    /// Switch to the row-at-a-time reference path.
    pub fn rowwise(mut self) -> ExecMode {
        self.rowwise = true;
        self
    }

    /// [`ExecMode::sequential`], whatever `_pool` is. Kept so callers that
    /// once asked for intra-plan morsel parallelism still compile; plans
    /// are too small for a split to pay.
    pub fn morsel_auto<S: ?Sized>(_pool: &S) -> ExecMode {
        ExecMode::sequential()
    }

    /// This mode, unchanged: join builds and set-op dedups use one hash
    /// map. Kept so callers that once set a partition count still compile.
    pub fn partitions(self, _partitions: usize) -> ExecMode {
        self
    }
}

/// A compiled, reusable physical plan. `Send + Sync`: a worker pool's
/// tasks share one compiled plan across threads.
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

    /// Evaluate under an [`ExecMode`]: one tree walker (`exec/run.rs`)
    /// runs every operator as one sequential pass on the calling thread.
    /// [`ExecMode::rowwise`] swaps the vectorized fused-scan kernels for the
    /// row-at-a-time reference path — row-for-row identical results.
    pub fn run_with(&self, bindings: &Bindings<'_>, mode: ExecMode) -> Result<Table> {
        self.execute(bindings, mode, None)
    }

    fn execute(
        &self,
        bindings: &Bindings<'_>,
        mode: ExecMode,
        m: run::OptMeter<'_>,
    ) -> Result<Table> {
        if let Some(table) = run::run_shared_root(&self.root, &self.out, bindings, mode, m)? {
            return Ok(table);
        }
        let rows = run::run_node(&self.root, bindings, mode, m)?;
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
    /// sink can total several runs). Each node adds its stack-local
    /// counters to its slot once, when it finishes. The plain `run*` paths
    /// never touch a sink: with no sink installed the executor allocates
    /// zero metric state (see `metric_allocs` and `tests/telemetry.rs`).
    pub fn run_with_metrics(
        &self,
        bindings: &Bindings<'_>,
        mode: ExecMode,
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

    /// EXPLAIN ANALYZE of this compiled plan — a view's cached delta plan,
    /// say: [`PhysicalPlan::run_with_metrics`] into a fresh sink, and the
    /// tree annotated with the actuals (no estimates). [`explain_analyze`]
    /// compiles a logical plan and does the same.
    pub fn explain(&self, bindings: &Bindings<'_>, mode: ExecMode) -> Result<Explain> {
        explain::explain_compiled(self, None, bindings, None, mode)
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
    use crate::plan::{JoinKind, SetOpKind};
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
    /// zero tables — the legacy evaluator cloned the whole base relation —
    /// and, σ and η only dropping rows, its output shares the leaf's rows
    /// under either kernel mode.
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
        let log = db.table("log").unwrap();
        for out in [out, compiled.run_with(&b, ExecMode::sequential().rowwise()).unwrap()] {
            assert!(out.rows().iter().all(|r| {
                let at = log.position_of(r, log.key()).expect("a log row");
                std::sync::Arc::ptr_eq(r, &log.rows()[at])
            }));
        }
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

    /// A semi join of a bare leaf with a PK-probed side no larger than it
    /// finds its hits from that side ([`crate::join::semi_join_hits`]): on
    /// the leaf's whole key each partner key probes the leaf's index, so the
    /// scan reads only the hits; on one other `Int` column the leaf's rows
    /// are tested against a set of the partner keys. A `Float` key or a
    /// larger probed side keeps the probe per left row. A partner the
    /// right chain drops and a NULL key match nothing. Every route emits
    /// the materializing evaluator's rows in leaf order, in both modes.
    #[test]
    fn semi_joins_of_a_leaf_find_their_hits_from_the_probed_side() {
        let db = video_db();
        let keys = |name: &str, dtype: DataType, cells: &[Value]| {
            let mut t = Table::new(Schema::from_pairs(&[(name, dtype)]).unwrap(), &[name]).unwrap();
            for c in cells {
                t.insert(vec![c.clone()]).unwrap();
            }
            t
        };
        let ints = |ids: &[i64]| ids.iter().map(|&i| Value::Int(i)).collect::<Vec<_>>();
        let mut few = ints(&[399, 3, 250, 17, 1_000]);
        few.push(Value::Null);
        let (few, many) = (
            keys("id", DataType::Int, &few),
            keys("id", DataType::Int, &ints(&(0..60).collect::<Vec<_>>())),
        );
        let floats =
            keys("d", DataType::Float, &[Value::Float(0.7), Value::Float(4.0), Value::Null]);
        let mut b = Bindings::from_database(&db);
        b.bind("few", &few).bind("many", &many).bind("floats", &floats);
        // A Π over the join, which keeps the left key, streams it.
        let semi = |left: &str, right: Plan, on: (&str, &str), key: &str| {
            Plan::scan(left).join(right, JoinKind::Semi, &[on]).project(vec![(key, col(key))])
        };
        let chained = || Plan::scan("few").select(col("id").lt(lit(300i64)));
        // (plan, the leaf scanned, the rows its scan reads)
        let cases = [
            (semi("log", chained(), ("sessionId", "id"), "sessionId"), "log", 3),
            (semi("log", chained(), ("videoId", "id"), "sessionId"), "log", 400),
            (semi("video", Plan::scan("floats"), ("duration", "d"), "videoId"), "video", 50),
            (semi("video", Plan::scan("many"), ("videoId", "id"), "videoId"), "video", 50),
        ];
        for (plan, leaf, reads) in cases {
            let expected = evaluate_materializing(&plan, &b).unwrap();
            assert!(!expected.is_empty(), "{plan}");
            for mode in [ExecMode::sequential(), ExecMode::sequential().rowwise()] {
                let e = explain_analyze(&plan, &b, None, mode).unwrap();
                assert_eq!(e.table.rows(), expected.rows(), "{plan}");
                let scan = e.nodes.iter().find(|n| n.label == format!("fused-scan({leaf})"));
                assert_eq!(scan.unwrap().metrics.rows_in, reads, "{plan}\n{e}");
                assert!(e.unconserved().is_empty(), "{:?}", e.unconserved());
            }
        }
    }

    /// A new-state leaf `__new.video` reads as `(video ▷ __del.video) ∪
    /// __ins.video` wherever it sits. The right side of an inner join on
    /// its key probes the three key indexes as one, its chain on the probed
    /// row; a root, a left input and a semi join's build run the plain
    /// union. Each equals the materializing evaluator, which reads the
    /// union, under an update, a deletion and an insertion of videos.
    #[test]
    fn new_state_leaves_read_as_their_union_everywhere() {
        let db = video_db();
        let video = db.table("video").unwrap();
        let empty = || Table::new(video.schema().clone(), &["videoId"]).unwrap();
        let (mut ins, mut del) = (empty(), empty());
        for v in [7i64, 8] {
            del.insert(video.rows()[v as usize].clone()).unwrap();
        }
        ins.insert(vec![Value::Int(7), Value::Int(1), Value::Float(9.5)]).unwrap();
        ins.insert(vec![Value::Int(60), Value::Int(2), Value::Float(1.5)]).unwrap();
        let mut b = Bindings::from_database(&db);
        b.bind("__ins.video", &ins).bind("__del.video", &del);
        let new = || Plan::scan("__new.video").select(col("ownerId").lt(lit(5i64)));
        let (log, on) = (Plan::scan("log"), [("videoId", "videoId")]);
        let union = "fused(Union(join:Anti(fused-scan(video), pk-probe(__del.video)), \
                     fused-scan(__ins.video)))[σ]";
        let plans = [
            (
                log.clone().join(new(), JoinKind::Inner, &on),
                "join:Inner(fused-scan(log), pk-probe(__new.video)[σ])".to_string(),
            ),
            (new(), union.to_string()),
            (
                new().join(log.clone(), JoinKind::Inner, &on),
                format!("join:Inner({union}, build(fused-scan(log)))"),
            ),
            (
                log.join(new(), JoinKind::Semi, &on),
                format!("join:Semi(fused-scan(log), build({union}))"),
            ),
        ];
        for (plan, want) in plans {
            let compiled = compile(&plan, &b).unwrap();
            assert_eq!(compiled.describe(), want);
            let expected = evaluate_materializing(&plan, &b).unwrap();
            for mode in [ExecMode::sequential(), ExecMode::sequential().rowwise()] {
                let got = compiled.run_with(&b, mode).unwrap();
                assert!(
                    got.same_contents(&expected),
                    "{want}: {} vs {}",
                    got.len(),
                    expected.len()
                );
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

    /// A set op hashes the union of its inputs' keys: each input is unique
    /// on it, unlike on ∩'s own derived key (the common key columns, here
    /// none, so the left key). The result still equals the whole-row
    /// dedup's.
    #[test]
    fn set_ops_hash_the_union_of_their_input_keys() {
        let mut db = video_db();
        let video = db.table("video").unwrap().clone();
        let mut by_duration = Table::new(video.schema().clone(), &["duration"]).unwrap();
        for row in video.rows().iter().filter(|r| r[1] != Value::Int(3)) {
            by_duration.insert(row.to_vec()).unwrap();
        }
        db.create_table("by_duration", by_duration);
        let b = Bindings::from_database(&db);
        for kind in [SetOpKind::Intersect, SetOpKind::Union, SetOpKind::Difference] {
            let plan = Plan::SetOp {
                kind,
                left: Box::new(Plan::scan("video")),
                right: Box::new(Plan::scan("by_duration")),
            };
            let compiled = compile(&plan, &b).unwrap();
            let Node::SetOp { hash_cols, .. } = &compiled.root else { panic!("a set op root") };
            assert_eq!(hash_cols, &[0, 2], "{kind:?}");
            let got = compiled.run(&b).unwrap();
            assert!(got.same_contents(&evaluate_materializing(&plan, &b).unwrap()), "{kind:?}");
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

    /// The partition and morsel aliases kept for old callers change
    /// nothing: results, order and schema equal the plain mode's on build
    /// joins and set ops, for any count, on either kernel path.
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
            let rowwise = compiled.run_with(&b, ExecMode::sequential().rowwise()).unwrap();
            assert!(rowwise.rows() == seq.rows(), "rowwise changed rows or order on {plan:?}");
            for parts in [0usize, 1, 3, 64] {
                let mode = ExecMode::morsel_auto(&()).partitions(parts);
                for (mode, want) in [(mode, &seq), (mode.rowwise(), &rowwise)] {
                    let got = compiled.run_with(&b, mode).unwrap();
                    assert!(got.rows() == want.rows(), "parts={parts} changed rows on {plan:?}");
                    assert_eq!(got.schema(), want.schema());
                }
            }
        }
    }
}
