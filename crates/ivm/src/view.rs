//! Materialized views: definition + canonical materialized state + the
//! delta runner, [`MaterializedView::maintained`], which maintenance (on the
//! view), cleaning (`svc-core`, on the stale sample under η) and the
//! mini-batch pipeline's fallback (`svc-cluster`) all call.
//!
//! Every view carries one plan cache ([`crate::plans`]), shared by its
//! clones and kept across commits: the runner, and the pipeline's change
//! plans, derive, optimize and compile a view delta once per signature
//! ([`MaterializedView::delta_plan`]) and afterwards only run and fold it.
//!
//! A nested aggregate view in the auxiliary-table class (`canon::AuxShape`)
//! also owns its inner γ as a view of its own, the *auxiliary table*: built
//! in the view's one evaluation at creation, bound beside the base tables
//! for every delta plan (a clean reads it and never commits it), maintained
//! by its own keyed fold, and swapped together with the view table at every
//! commit ([`MaterializedView::commit`]).

use std::sync::Arc;

use svc_storage::{Database, Deltas, HashSpec, Result, Schema, SharedRow, StorageError, Table};

use svc_relalg::derive::{derive_project, Derived};
use svc_relalg::eval::{evaluate, Bindings};
use svc_relalg::exec::{compile_with, PhysicalPlan};
use svc_relalg::optimizer::{optimize, CardEstimator, EtaReport};
use svc_relalg::plan::Plan;
use svc_relalg::scalar::Expr;

use crate::canon::{canonicalize, Canonical};
use crate::delta::{del_leaf, ins_leaf, DeltaInfo};
use crate::fold::{KeyedFold, StagedEdits};
use crate::plans::{CompiledDelta, PlanCache, PlanKey, PlanLookup, PlanMetrics};
use crate::strategy::{
    as_written, maintenance_plan, view_delta, DeltaCatalog, MaintCatalog, PlanKind, ViewDelta,
    AUX_LEAF, STALE_LEAF,
};

/// A materialized view: the user-facing definition, its canonical
/// (change-table maintainable) form, and the materialized canonical state.
///
/// The *canonical* table is what SVC samples, maintains and reads. The
/// *public* projection (e.g. recombining `avg = sum / count`) is row-local
/// and keeps the primary key (Definition 2), so a query over the public
/// schema is answered by rewriting its expressions through the projection
/// and scanning the canonical state in place — the full view and samples
/// of it alike. [`MaterializedView::public_of`] materializes the projected
/// relation only for display.
#[derive(Debug, Clone)]
pub struct MaterializedView {
    /// View name.
    pub name: String,
    /// The definition as written by the user.
    pub definition: Plan,
    canonical: Canonical,
    /// The schema of the public projection's output, derived once at
    /// creation ([`MaterializedView::public_schema`]).
    public_schema: Option<Arc<Schema>>,
    /// The materialized canonical state, behind an `Arc` so commits are
    /// pointer swaps: readers holding a [`ViewSnapshot`] keep the old
    /// epoch's table alive while maintenance installs the next one —
    /// nothing is ever mutated in place.
    table: Arc<Table>,
    /// Commit counter: bumped on every state replacement (epoch-swapped
    /// commits). Readers pair it with the table via
    /// [`MaterializedView::snapshot`].
    epoch: u64,
    /// Set when maintenance degraded (a batch was quarantined): the state
    /// is self-consistent for some prefix of the deltas but not fully
    /// caught up. Cleared by a successful full commit path
    /// ([`MaterializedView::mark_clean`], called by recovery).
    dirty: bool,
    /// When the materialized state was last replaced (creation, a
    /// `maintain*` call, or `commit`) — the observable behind
    /// [`MaterializedView::staleness_age`].
    maintained_at: std::time::Instant,
    /// Compiled view deltas by signature ([`crate::plans`]): shared by every
    /// clone, kept across commits.
    plans: Arc<PlanCache>,
    /// The keyed fold bound against the view's schema and key at creation
    /// ([`MaterializedView::keyed_fold`]), shared by every clone; the
    /// binding's error for an aggregate outside the change-table class.
    fold: Result<Arc<KeyedFold>>,
    /// The auxiliary table of a nested aggregate view: its inner γ as a view
    /// of its own, committed together with `table`.
    aux: Option<Box<MaterializedView>>,
}

/// A view's next materialized state, as one commit installs it
/// ([`MaterializedView::commit`]): the view table and, for a nested
/// aggregate view, its auxiliary table (`None` keeps the auxiliary table
/// as it is).
#[derive(Debug, Clone)]
pub struct ViewState {
    /// The canonical view table.
    pub table: Table,
    /// The auxiliary table's new state.
    pub aux: Option<Table>,
}

/// A consistent point-in-time read of a view: the commit epoch and the
/// table that was current at it. Cheap to take (an `Arc` clone) and immune
/// to concurrent commits — the groundwork snapshot readers of the serving
/// layer hold while maintenance swaps epochs underneath them.
#[derive(Debug, Clone)]
pub struct ViewSnapshot {
    /// The commit epoch this snapshot observed.
    pub epoch: u64,
    /// The canonical state at that epoch.
    pub table: Arc<Table>,
}

/// Bind base tables, delta relations, and the stale view for evaluating a
/// maintenance plan.
pub fn maintenance_bindings<'a>(
    db: &'a Database,
    deltas: &'a Deltas,
    stale: &'a Table,
) -> Bindings<'a> {
    let mut b = Bindings::from_database(db);
    b.bind(STALE_LEAF, stale);
    for (name, set) in deltas.iter() {
        b.bind(ins_leaf(name), &set.insertions);
        b.bind(del_leaf(name), &set.deletions);
    }
    b
}

impl MaterializedView {
    /// Create and materialize a view from its definition against `db`. The
    /// canonical plan is run through the optimizer before the initial
    /// materialization (the definition itself is kept as written). A nested
    /// aggregate view materializes its auxiliary table first and reads its
    /// inner γ off it.
    pub fn create(name: impl Into<String>, definition: Plan, db: &Database) -> Result<Self> {
        let name = name.into();
        let canonical = canonicalize(&definition);
        let aux = match &canonical.aux {
            Some(aux) => Some(Box::new(MaterializedView::create(
                format!("{name}.aux"),
                aux.definition.clone(),
                db,
            )?)),
            None => None,
        };
        let mut bindings = Bindings::from_database(db);
        let mut plan = canonical.plan.clone();
        if let (Some(shape), Some(aux)) = (&canonical.aux, &aux) {
            bindings.bind(AUX_LEAF, aux.table());
            let read = as_written(shape, Plan::scan(AUX_LEAF), db)?;
            plan = replace_node(plan, &shape.definition, &read);
        }
        let (optimized, _) = optimize(&plan, &bindings)?;
        let table = evaluate(&optimized, &bindings)?;
        let fold = KeyedFold::new(&canonical, &table).map(Arc::new);
        let public_schema = match canonical.public.as_deref() {
            Some(public) => {
                let input = Derived { schema: table.schema().clone(), key: table.key().to_vec() };
                Some(Arc::new(derive_project(&input, public)?.schema))
            }
            None => None,
        };
        Ok(MaterializedView {
            name,
            definition,
            canonical,
            public_schema,
            table: Arc::new(table),
            epoch: 0,
            dirty: false,
            maintained_at: std::time::Instant::now(),
            plans: Arc::default(),
            fold,
            aux,
        })
    }

    /// The canonical (internal) materialized state.
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// The canonicalization record (plan + public projection + merge rules).
    pub fn canonical(&self) -> &Canonical {
        &self.canonical
    }

    /// The schema of the public projection's output over the canonical
    /// state — the schema [`MaterializedView::public_of`]'s tables have —
    /// derived once at creation; `None` when the definition was already in
    /// public form.
    pub fn public_schema(&self) -> Option<&Schema> {
        self.public_schema.as_deref()
    }

    /// The view's keyed fold, bound once at creation: it folds a keyed
    /// pair into the view's table or into any table keyed like it (a
    /// sample, a shadow). Errors for an aggregate view outside the
    /// change-table class (median).
    pub fn keyed_fold(&self) -> Result<Arc<KeyedFold>> {
        self.fold.clone()
    }

    /// The auxiliary table of a nested aggregate view, as the view of its
    /// inner γ; `None` for every other view.
    pub fn auxiliary(&self) -> Option<&MaterializedView> {
        self.aux.as_deref()
    }

    /// Primary-key column names of the canonical state.
    pub fn key_names(&self) -> Vec<String> {
        self.table.key_names().iter().map(|s| s.to_string()).collect()
    }

    /// Number of rows currently materialized.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True iff the view is empty.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Materialize the public projection of an arbitrary canonical-shaped
    /// table (the full view or a sample of it) — the display form.
    pub fn public_of(&self, canonical_table: &Table) -> Result<Table> {
        project_table(canonical_table, self.canonical.public.as_deref())
    }

    /// The user-facing view contents.
    pub fn public_table(&self) -> Result<Table> {
        self.public_of(&self.table)
    }

    /// Replace the materialized state — the **commit point** of every
    /// maintenance path: an atomic epoch swap (the old table stays alive
    /// behind outstanding snapshots), bumping [`MaterializedView::epoch`]
    /// and resetting the staleness clock, with the auxiliary table swapped
    /// in the same call. Does not touch the dirty flag: callers that commit
    /// a degraded state mark it explicitly. The old table is left as it
    /// is, columns and answers included: another holder (a clone of this
    /// view, a snapshot) may still read it as current, and it is dropped
    /// with its last holder. A state reached by keyed edits
    /// ([`Table::apply_edits`], every fold) holds the old state's columns
    /// itself until it derives its own from them, so the first query on
    /// the new state reads only the edited rows even when this view was
    /// the old state's only holder.
    pub fn commit(&mut self, next: ViewState) {
        if let (Some(aux), Some(table)) = (&mut self.aux, next.aux) {
            aux.commit(ViewState { table, aux: None });
        }
        self.table = Arc::new(next.table);
        self.epoch += 1;
        self.maintained_at = std::time::Instant::now();
    }

    /// The commit epoch: how many times the materialized state has been
    /// replaced since creation. A `maintain` call that fails before its
    /// commit point leaves this unchanged — the observable behind the
    /// all-or-nothing fold contract.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// A consistent `(epoch, table)` read — an `Arc` clone, never a table
    /// copy. Commits after this call do not affect the snapshot.
    pub fn snapshot(&self) -> ViewSnapshot {
        ViewSnapshot { epoch: self.epoch, table: Arc::clone(&self.table) }
    }

    /// True when maintenance degraded (a quarantined batch left the view
    /// not fully caught up). See [`MaterializedView::mark_dirty`].
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Flag the view as not fully caught up (set by the batch pipeline
    /// when it quarantines a failing batch).
    pub fn mark_dirty(&mut self) {
        self.dirty = true;
    }

    /// Clear the dirty flag (called by recovery paths once the view is
    /// known fresh again: a drained quarantine or a fallback recompute).
    pub fn mark_clean(&mut self) {
        self.dirty = false;
    }

    /// Wall-clock time since the materialized state was last replaced —
    /// the per-view staleness-age gauge: how long this view has been
    /// accumulating unapplied deltas.
    pub fn staleness_age(&self) -> std::time::Duration {
        self.maintained_at.elapsed()
    }

    /// This view's maintenance strategy for the given deltas as one plan
    /// over `__stale` — the reference form ([`maintenance_plan`]); nothing
    /// that maintains or cleans runs it. Exposed so SVC can wrap it in η and
    /// show how far the hash pushes down.
    pub fn build_maintenance_plan(
        &self,
        db: &Database,
        deltas: &Deltas,
    ) -> Result<(Plan, PlanKind)> {
        let info = DeltaInfo::of(deltas);
        let cat = self.maint_catalog(db);
        maintenance_plan(&self.canonical, &cat, &info)
    }

    /// The leaf catalog maintenance and delta plans over this view are
    /// derived and compiled against: `db`'s tables and delta relations, the
    /// stale view's own schema and key, and the auxiliary table's.
    pub fn maint_catalog<'a>(&self, db: &'a Database) -> DeltaCatalog<'a> {
        let derived = |t: &Table| Derived { schema: t.schema().clone(), key: t.key().to_vec() };
        DeltaCatalog {
            maint: MaintCatalog { db, stale: derived(&self.table) },
            aux: self.aux.as_ref().map(|aux| derived(aux.table())),
        }
    }

    /// The bindings this view's delta plans run under: base tables, delta
    /// relations and `target` as the stale view ([`maintenance_bindings`]),
    /// plus the auxiliary table.
    pub fn delta_bindings<'a>(
        &'a self,
        db: &'a Database,
        deltas: &'a Deltas,
        target: &'a Table,
    ) -> Bindings<'a> {
        let mut bindings = maintenance_bindings(db, deltas, target);
        if let Some(aux) = &self.aux {
            bindings.bind(AUX_LEAF, aux.table());
        }
        bindings
    }

    /// Bring the view up to date with respect to `deltas` (which are *not*
    /// consumed — the caller applies them to the base tables when the
    /// maintenance period ends): [`MaterializedView::next_state`], committed
    /// at once. Returns the strategy that was used.
    pub fn maintain(&mut self, db: &Database, deltas: &Deltas) -> Result<PlanKind> {
        let Some((next, kind)) = self.next_state(db, deltas)? else {
            return Ok(PlanKind::NoOp);
        };
        // Failpoint site: everything above is side-effect free on `self`,
        // so an injected failure here proves the commit is all-or-nothing.
        svc_fault::fail_point!(svc_fault::site::VIEW_MAINTAIN, StorageError::Invalid);
        self.commit(next);
        Ok(kind)
    }

    /// The state a maintenance commits, **without committing it**: the delta
    /// runner on the view itself, without η, and on its auxiliary table.
    /// `None` when no pending delta reaches the view.
    pub fn next_state(
        &self,
        db: &Database,
        deltas: &Deltas,
    ) -> Result<Option<(ViewState, PlanKind)>> {
        let Some((table, kind, _)) = self.maintained(db, deltas, &self.table, None, None)? else {
            return Ok(None);
        };
        let aux = match &self.aux {
            Some(aux) => aux.maintained(db, deltas, aux.table(), None, None)?.map(|next| next.0),
            None => None,
        };
        Ok(Some((ViewState { table, aux }, kind)))
    }

    /// The delta runner: `target` brought up to date with respect to
    /// `deltas`, **without committing** (callers choose their commit point).
    /// `target` is the view's table, or, with `eta` the sample's `(ratio,
    /// hash)`, its stale sample. `None` when no pending delta reaches the
    /// view: nothing runs, nothing is copied.
    ///
    /// The compiled delta comes from the view's plan cache
    /// ([`MaterializedView::delta_plan`]); each of its plans runs once,
    /// sequentially on the caller's thread, and a keyed pair is folded into
    /// one clone of `target`. No plan reads the stale view; a nested
    /// aggregate view's plans read its auxiliary table, which this never
    /// changes. The report unions the plans' η reports.
    pub fn maintained(
        &self,
        db: &Database,
        deltas: &Deltas,
        target: &Table,
        eta: Option<(f64, HashSpec)>,
        est: Option<&dyn CardEstimator>,
    ) -> Result<Option<(Table, PlanKind, EtaReport)>> {
        let lookup = self.delta_plan(db, &DeltaInfo::of(deltas), eta, est)?;
        if svc_relalg::verify::ENABLED && lookup.hit {
            self.verify_plan_hit(db, deltas, eta, est, &lookup.plan)?;
        }
        let bindings = self.delta_bindings(db, deltas, target);
        let (table, kind) = match lookup.plan.delta.as_ref().try_map(|plan| plan.run(&bindings))? {
            ViewDelta::NoOp => return Ok(None),
            ViewDelta::Keyed { change, kind } => {
                // Staged against `target`, applied to its clone: the clone
                // shares the hasher the staged edits carry.
                let mut staged = StagedEdits::default();
                self.keyed_fold()?.stage(target, &mut staged, &change)?;
                let mut next = target.clone();
                staged.apply(&mut next);
                (next, kind)
            }
            ViewDelta::Recompute(table) => (table, PlanKind::Recompute),
        };
        Ok(Some((table, kind, lookup.plan.report.clone())))
    }

    /// The compiled delta of this view for deltas with signature `info`,
    /// under `eta` and optimized with `est`: served from the view's plan
    /// cache, or built and stored.
    pub fn delta_plan(
        &self,
        db: &Database,
        info: &DeltaInfo,
        eta: Option<(f64, HashSpec)>,
        est: Option<&dyn CardEstimator>,
    ) -> Result<PlanLookup> {
        let key = self.plan_key(db, info, eta, est);
        self.plans.get_or_build(key, || self.build_delta_plan(db, info, eta, est))
    }

    /// The entry [`MaterializedView::maintain`] reads for deltas with
    /// signature `info` — no η, no estimator — if it is cached; never builds.
    pub fn cached_delta_plan(&self, db: &Database, info: &DeltaInfo) -> Option<Arc<CompiledDelta>> {
        self.plans.peek(&self.plan_key(db, info, None, None)?)
    }

    fn plan_key(
        &self,
        db: &Database,
        info: &DeltaInfo,
        eta: Option<(f64, HashSpec)>,
        est: Option<&dyn CardEstimator>,
    ) -> Option<PlanKey> {
        PlanKey::new(&self.canonical.plan.leaf_tables(), db, info, eta, est)
    }

    /// The plan cache's miss path, uncached: [`view_delta`] decides once;
    /// each plan is η-wrapped under `eta`, optimized (joins ordered by
    /// `est`) and compiled against the maintenance catalog.
    fn build_delta_plan(
        &self,
        db: &Database,
        info: &DeltaInfo,
        eta: Option<(f64, HashSpec)>,
        est: Option<&dyn CardEstimator>,
    ) -> Result<CompiledDelta> {
        let cat = self.maint_catalog(db);
        let mut report = EtaReport::default();
        // γ maps are sized from `est` only without η: pricing a sample's few
        // groups would build the catalog overlay of every delta leaf.
        let sizes = if eta.is_some() { None } else { est };
        let delta = view_delta(&self.canonical, &cat, info)?.try_map(|plan| {
            let plan = if let Some(eta) = eta { self.hashed(plan, eta)? } else { plan };
            let (optimized, ran) = cat.optimize(&plan, est)?;
            report.descended += ran.eta.descended;
            report.blockers.extend(ran.eta.blockers);
            report.sampled_leaves.extend(ran.eta.sampled_leaves);
            compile_with(&optimized, &cat, sizes)
        })?;
        Ok(CompiledDelta { delta, report })
    }

    /// Counters of this view's plan cache (shared by its clones).
    pub fn plan_metrics(&self) -> PlanMetrics {
        self.plans.metrics()
    }

    /// Poison the plan cache's lock, as a holder that panics mid-update
    /// would: the handle poison-recovery tests take.
    #[doc(hidden)]
    pub fn poison_plan_cache(&self) {
        self.plans.poison();
    }

    /// The verifier's proof that the plan key is complete: `cached`, run
    /// over `deltas`, returns the same rows (1e-9) with the same
    /// [`PlanKind`] and η blockers as the delta built anew for them. Panics
    /// otherwise. Called on every plan-cache hit under the `verify` feature.
    pub fn verify_plan_hit(
        &self,
        db: &Database,
        deltas: &Deltas,
        eta: Option<(f64, HashSpec)>,
        est: Option<&dyn CardEstimator>,
        cached: &CompiledDelta,
    ) -> Result<()> {
        let fresh = self.build_delta_plan(db, &DeltaInfo::of(deltas), eta, est)?;
        let bindings = self.delta_bindings(db, deltas, &self.table);
        let run = |delta: &ViewDelta<PhysicalPlan>| delta.as_ref().try_map(|p| p.run(&bindings));
        let (a, b) = (run(&cached.delta)?, run(&fresh.delta)?);
        let same = |x: &Table, y: &Table| x.approx_same_contents(y, 1e-9);
        let same_side = |x: &Option<Table>, y: &Option<Table>| match (x, y) {
            (Some(x), Some(y)) => same(x, y),
            (x, y) => x.is_none() && y.is_none(),
        };
        let same_rows = a.kind() == b.kind()
            && match (&a, &b) {
                (ViewDelta::Keyed { change: x, .. }, ViewDelta::Keyed { change: y, .. }) => {
                    same_side(&x.ins, &y.ins) && same_side(&x.del, &y.del)
                }
                (ViewDelta::Recompute(x), ViewDelta::Recompute(y)) => same(x, y),
                _ => true,
            };
        assert!(
            same_rows && cached.report.blockers == fresh.report.blockers,
            "view {}: a plan-cache hit diverged from the delta built anew — the plan key misses \
             something the plan depends on (kinds {:?} vs {:?}, blockers {:?} vs {:?})",
            self.name,
            a.kind(),
            b.kind(),
            cached.report.blockers,
            fresh.report.blockers,
        );
        Ok(())
    }

    /// `η(plan)` on this view's primary key with `(ratio, hash)`: the wrap the
    /// runner applies under η, and the one the inspectable cleaning plan uses.
    pub fn hashed(&self, plan: Plan, (ratio, spec): (f64, HashSpec)) -> Result<Plan> {
        let key_names = self.key_names();
        if key_names.is_empty() {
            return Err(StorageError::Invalid(
                "cannot sample a view with an empty primary key (global aggregate)".into(),
            ));
        }
        let key_refs: Vec<&str> = key_names.iter().map(|s| s.as_str()).collect();
        Ok(plan.hash(&key_refs, ratio, spec))
    }

    /// Ground truth: evaluate the definition against the post-delta base
    /// state. Used as the correctness oracle in tests and benchmarks.
    pub fn recompute_fresh(&self, db: &Database, deltas: &Deltas) -> Result<Table> {
        self.evaluated(&applied(db, deltas)?)
    }

    /// The view and its auxiliary table recomputed against the post-delta
    /// base state: the state recovery by recomputation commits.
    pub fn recomputed(&self, db: &Database, deltas: &Deltas) -> Result<ViewState> {
        let db2 = applied(db, deltas)?;
        let aux = self.aux.as_ref().map(|aux| aux.evaluated(&db2)).transpose()?;
        Ok(ViewState { table: self.evaluated(&db2)?, aux })
    }

    fn evaluated(&self, db: &Database) -> Result<Table> {
        let (optimized, _) = optimize(&self.canonical.plan, db)?;
        evaluate(&optimized, &Bindings::from_database(db))
    }
}

/// `db` with `deltas` applied, as a copy.
fn applied(db: &Database, deltas: &Deltas) -> Result<Database> {
    let mut db2 = db.clone();
    deltas.clone().apply_to(&mut db2)?;
    Ok(db2)
}

/// `plan` with every subtree equal to `target` replaced by `with`.
fn replace_node(plan: Plan, target: &Plan, with: &Plan) -> Plan {
    if plan == *target {
        return with.clone();
    }
    let replaced: std::result::Result<Plan, std::convert::Infallible> =
        plan.map_children(&mut |child| Ok(replace_node(child, target, with)));
    match replaced {
        Ok(plan) => plan,
        Err(never) => match never {},
    }
}

thread_local! {
    static PROJECTIONS_CELL: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}
static PROJECTIONS: svc_telemetry::LocalCounter =
    svc_telemetry::LocalCounter::new(&PROJECTIONS_CELL);

/// [`project_table`] calls made **on this thread** — the cost-shape hook
/// beside `Table::clone_count`: answering a query must leave it unchanged.
pub fn projection_count() -> u64 {
    PROJECTIONS.get()
}

/// Materialize an optional projection of a table (row-local,
/// key-preserving): the *display* form of a view or a sample, O(rows) per
/// call. Answer paths lower the query instead and never come here.
pub fn project_table(table: &Table, columns: Option<&[(String, Expr)]>) -> Result<Table> {
    PROJECTIONS.bump();
    let Some(columns) = columns else {
        return Ok(table.clone());
    };
    let input = Derived { schema: table.schema().clone(), key: table.key().to_vec() };
    let out = derive_project(&input, columns)?;
    let bound: Vec<_> =
        columns.iter().map(|(_, e)| e.bind(table.schema())).collect::<Result<_>>()?;
    let rows = table.rows().iter().map(|r| bound.iter().map(|e| e.eval(r)).collect());
    Table::from_rows(out.schema, out.key, rows.collect::<Vec<SharedRow>>())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::Signed;
    use svc_relalg::aggregate::{AggFunc, AggSpec};
    use svc_relalg::plan::JoinKind;
    use svc_relalg::scalar::{col, lit};
    use svc_storage::{DataType, Schema, Value};

    fn db() -> Database {
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
        for v in 0..60i64 {
            video
                .insert(vec![
                    Value::Int(v),
                    Value::Int(v % 11),
                    Value::Float(0.5 + (v % 9) as f64 * 0.3),
                ])
                .unwrap();
        }
        let mut log = Table::new(
            Schema::from_pairs(&[("sessionId", DataType::Int), ("videoId", DataType::Int)])
                .unwrap(),
            &["sessionId"],
        )
        .unwrap();
        for s in 0..700i64 {
            log.insert(vec![Value::Int(s), Value::Int((s * 13 + 7) % 60)]).unwrap();
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
                    AggSpec::count_all("visitCount"),
                    AggSpec::new("avgDur", AggFunc::Avg, col("duration")),
                ],
            )
    }

    fn mixed_deltas(db: &Database) -> Deltas {
        let mut deltas = Deltas::new();
        for s in 700..800i64 {
            deltas.insert(db, "log", vec![Value::Int(s), Value::Int(s % 70)]).unwrap();
        }
        for v in 60..70i64 {
            deltas
                .insert(db, "video", vec![Value::Int(v), Value::Int(3), Value::Float(2.5)])
                .unwrap();
        }
        for s in 0..30i64 {
            deltas.delete(db, "log", &[Value::Int(s * 3), Value::Null]).unwrap();
        }
        deltas.update(db, "log", vec![Value::Int(1), Value::Int(59)]).unwrap();
        deltas.update(db, "video", vec![Value::Int(10), Value::Int(5), Value::Float(9.9)]).unwrap();
        deltas
    }

    #[test]
    fn change_table_matches_recompute_on_mixed_deltas() {
        let db = db();
        let mut view = MaterializedView::create("visitView", visit_view(), &db).unwrap();
        let deltas = mixed_deltas(&db);
        let expected = view.recompute_fresh(&db, &deltas).unwrap();
        let kind = view.maintain(&db, &deltas).unwrap();
        assert_eq!(kind, PlanKind::ChangeTable);
        assert!(
            view.table().approx_same_contents(&expected, 1e-9),
            "IVM diverged from recompute: {} vs {} rows",
            view.len(),
            expected.len()
        );
    }

    #[test]
    fn insert_only_change_table() {
        let db = db();
        let mut view = MaterializedView::create("v", visit_view(), &db).unwrap();
        let mut deltas = Deltas::new();
        for s in 700..900i64 {
            deltas.insert(&db, "log", vec![Value::Int(s), Value::Int(s % 60)]).unwrap();
        }
        let expected = view.recompute_fresh(&db, &deltas).unwrap();
        let kind = view.maintain(&db, &deltas).unwrap();
        assert_eq!(kind, PlanKind::ChangeTable);
        assert!(view.table().approx_same_contents(&expected, 1e-9));
    }

    #[test]
    fn deletion_removes_superfluous_groups() {
        let db = db();
        let view_def = Plan::scan("log").aggregate(&["videoId"], vec![AggSpec::count_all("n")]);
        let mut view = MaterializedView::create("v", view_def, &db).unwrap();
        // Delete every session of video 0 (sessions where (s*13+7)%60 == 0).
        let mut deltas = Deltas::new();
        let victims: Vec<i64> = (0..700i64).filter(|s| (s * 13 + 7) % 60 == 0).collect();
        assert!(!victims.is_empty());
        for s in &victims {
            deltas.delete(&db, "log", &[Value::Int(*s), Value::Null]).unwrap();
        }
        let before = view.len();
        let expected = view.recompute_fresh(&db, &deltas).unwrap();
        let kind = view.maintain(&db, &deltas).unwrap();
        assert_eq!(kind, PlanKind::ChangeTable);
        assert!(view.table().approx_same_contents(&expected, 1e-9));
        assert_eq!(view.len(), before - 1, "video 0's group must disappear");
    }

    #[test]
    fn public_projection_recombines_avg() {
        let db = db();
        let view = MaterializedView::create("v", visit_view(), &db).unwrap();
        let public = view.public_table().unwrap();
        assert_eq!(public.schema().names(), vec!["videoId", "visitCount", "avgDur"]);
        // Spot-check: avg equals sum/count computed directly.
        let direct = evaluate(&visit_view(), &Bindings::from_database(&db)).unwrap();
        assert!(public.same_contents(&direct));
    }

    #[test]
    fn spj_view_delta_apply() {
        let db = db();
        let def = Plan::scan("log")
            .join(Plan::scan("video"), JoinKind::Inner, &[("videoId", "videoId")])
            .select(col("duration").gt(lit(1.0)));
        let mut view = MaterializedView::create("v", def, &db).unwrap();
        let deltas = mixed_deltas(&db);
        let expected = view.recompute_fresh(&db, &deltas).unwrap();
        let kind = view.maintain(&db, &deltas).unwrap();
        assert_eq!(kind, PlanKind::DeltaApply);
        assert!(view.table().approx_same_contents(&expected, 1e-9));
    }

    /// A key declared out of column order stays the view's key: ∆V is a
    /// union of joins keyed like the view, so the keyed fold accepts it.
    #[test]
    fn spj_view_keeps_a_key_declared_out_of_column_order() {
        let mut db = db();
        let schema =
            Schema::from_pairs(&[("day", DataType::Int), ("videoId", DataType::Int)]).unwrap();
        let mut plays = Table::new(schema, &["videoId", "day"]).unwrap();
        for i in 0..40i64 {
            plays.insert(vec![Value::Int(i % 4), Value::Int(i % 13)]).unwrap();
        }
        db.create_table("plays", plays);
        let def = Plan::scan("plays").join(
            Plan::scan("video"),
            JoinKind::Inner,
            &[("videoId", "videoId")],
        );
        let mut view = MaterializedView::create("v", def, &db).unwrap();
        assert_eq!(view.table().key(), [1, 0]);
        let mut deltas = Deltas::new();
        deltas.insert(&db, "plays", vec![Value::Int(9), Value::Int(60)]).unwrap();
        deltas
            .insert(&db, "video", vec![Value::Int(60), Value::Int(3), Value::Float(2.5)])
            .unwrap();
        deltas.delete(&db, "plays", &[Value::Int(0), Value::Int(0)]).unwrap();
        let expected = view.recompute_fresh(&db, &deltas).unwrap();
        assert_eq!(view.maintain(&db, &deltas).unwrap(), PlanKind::DeltaApply);
        assert!(view.table().same_contents(&expected));
    }

    #[test]
    fn median_view_falls_back_to_recompute() {
        let db = db();
        let def = Plan::scan("video").aggregate(
            &["ownerId"],
            vec![AggSpec::new("medDur", AggFunc::Median, col("duration"))],
        );
        let mut view = MaterializedView::create("v", def, &db).unwrap();
        let mut deltas = Deltas::new();
        deltas
            .insert(&db, "video", vec![Value::Int(99), Value::Int(1), Value::Float(4.0)])
            .unwrap();
        let expected = view.recompute_fresh(&db, &deltas).unwrap();
        let kind = view.maintain(&db, &deltas).unwrap();
        assert_eq!(kind, PlanKind::Recompute);
        assert!(view.table().approx_same_contents(&expected, 1e-9));
    }

    #[test]
    fn min_max_insert_only_uses_change_table_but_deletes_force_recompute() {
        let db = db();
        let def = Plan::scan("video")
            .aggregate(&["ownerId"], vec![AggSpec::new("maxDur", AggFunc::Max, col("duration"))]);
        let mut view = MaterializedView::create("v", def.clone(), &db).unwrap();
        let mut ins_only = Deltas::new();
        ins_only
            .insert(&db, "video", vec![Value::Int(99), Value::Int(1), Value::Float(44.0)])
            .unwrap();
        let expected = view.recompute_fresh(&db, &ins_only).unwrap();
        let kind = view.maintain(&db, &ins_only).unwrap();
        assert_eq!(kind, PlanKind::ChangeTable);
        assert!(view.table().approx_same_contents(&expected, 1e-9));

        let mut view = MaterializedView::create("v", def, &db).unwrap();
        let mut with_del = Deltas::new();
        with_del.delete(&db, "video", &[Value::Int(7), Value::Null, Value::Null]).unwrap();
        let expected = view.recompute_fresh(&db, &with_del).unwrap();
        let kind = view.maintain(&db, &with_del).unwrap();
        assert_eq!(kind, PlanKind::Recompute);
        assert!(view.table().approx_same_contents(&expected, 1e-9));
    }

    #[test]
    fn noop_when_no_deltas() {
        let db = db();
        let mut view = MaterializedView::create("v", visit_view(), &db).unwrap();
        let before = view.table().clone();
        let kind = view.maintain(&db, &Deltas::new()).unwrap();
        assert_eq!(kind, PlanKind::NoOp);
        assert!(view.table().same_contents(&before));
    }

    #[test]
    fn batched_change_plans_fold_to_full_maintenance() {
        let db = db();
        let mut view = MaterializedView::create("v", visit_view(), &db).unwrap();
        // A single-table stream (insertions, deletions, updates of `log`):
        // chunk-parallel change tables are exact for single-table deltas.
        let mut deltas = Deltas::new();
        for s in 700..860i64 {
            deltas.insert(&db, "log", vec![Value::Int(s), Value::Int(s % 60)]).unwrap();
        }
        for s in 0..40i64 {
            deltas.delete(&db, "log", &[Value::Int(s * 5), Value::Null]).unwrap();
        }
        deltas.update(&db, "log", vec![Value::Int(7), Value::Int(59)]).unwrap();
        let expected = view.recompute_fresh(&db, &deltas).unwrap();

        let cat = view.maint_catalog(&db);
        let chunks = deltas.clone().partition(4);
        assert!(chunks.len() > 1, "enough records to actually partition");
        // One pair of change plans for the batch's delta signature, run once
        // per chunk against that chunk's own bindings.
        let ViewDelta::Keyed { change: plans, kind: PlanKind::ChangeTable } =
            view_delta(view.canonical(), &cat, &DeltaInfo::of(&deltas)).unwrap()
        else {
            panic!("a change-table view under deltas that reach it");
        };
        assert!(plans.ins.is_some() && plans.del.is_some(), "the deltas touch the view both ways");
        let changes: Vec<Signed<Table>> = chunks
            .iter()
            .map(|chunk| {
                let bindings = maintenance_bindings(&db, chunk, view.table());
                plans.as_ref().try_map(|plan| evaluate(plan, &bindings)).unwrap()
            })
            .collect();

        // Fold the per-chunk change tables into the view one at a time.
        let mut current = view.table().clone();
        let fold = view.keyed_fold().unwrap();
        for c in &changes {
            fold.fold(&mut current, c).unwrap();
        }
        assert!(
            current.approx_same_contents(&expected, 1e-9),
            "folded batch maintenance diverged: {} vs {} rows",
            current.len(),
            expected.len()
        );

        // And the sequential path agrees, as a sanity anchor.
        view.maintain(&db, &deltas).unwrap();
        assert!(view.table().approx_same_contents(&current, 1e-9));
    }

    /// The V21 shape, the distribution of visit counts: the inner γ is the
    /// view's auxiliary table, so the view takes its change table, and one
    /// commit swaps both tables to their recomputed states.
    #[test]
    fn nested_aggregate_view_maintains_through_its_auxiliary_table() {
        let db = db();
        let inner = Plan::scan("log").aggregate(&["videoId"], vec![AggSpec::count_all("c")]);
        let def = inner.clone().aggregate(&["c"], vec![AggSpec::count_all("n")]);
        let mut view = MaterializedView::create("v", def, &db).unwrap();
        let aux = MaterializedView::create("inner", inner, &db).unwrap();
        assert!(view.auxiliary().unwrap().table().same_contents(aux.table()));
        let deltas = mixed_deltas(&db);
        let expected = view.recomputed(&db, &deltas).unwrap();
        let kind = view.maintain(&db, &deltas).unwrap();
        assert_eq!(kind, PlanKind::ChangeTable);
        assert_eq!((view.epoch(), view.auxiliary().unwrap().epoch()), (1, 1));
        assert!(view.table().same_contents(&expected.table));
        assert!(view.auxiliary().unwrap().table().same_contents(&expected.aux.unwrap()));
        // The oracle reads the definition, never the auxiliary table.
        let mut db2 = db.clone();
        deltas.clone().apply_to(&mut db2).unwrap();
        let direct = evaluate(&view.definition, &Bindings::from_database(&db2)).unwrap();
        assert!(view.public_table().unwrap().same_contents(&direct));
    }

    #[test]
    fn commits_are_epoch_swaps_and_snapshots_outlive_them() {
        let db = db();
        let mut view = MaterializedView::create("v", visit_view(), &db).unwrap();
        assert_eq!(view.epoch(), 0);
        assert!(!view.is_dirty());

        let before = view.snapshot();
        let deltas = mixed_deltas(&db);
        view.maintain(&db, &deltas).unwrap();
        assert_eq!(view.epoch(), 1, "one maintain, one commit");
        let after = view.snapshot();
        assert_eq!(after.epoch, 1);
        // The pre-commit snapshot still reads the old state: the commit
        // swapped the table out from under it without mutating it.
        assert_eq!(before.epoch, 0);
        assert!(!before.table.same_contents(&after.table), "deltas must have changed the view");
        assert!(after.table.same_contents(view.table()));

        // A no-op maintain does not commit.
        view.maintain(&db, &Deltas::new()).unwrap();
        assert_eq!(view.epoch(), 1, "no deltas, no commit");

        view.mark_dirty();
        assert!(view.is_dirty());
        view.mark_clean();
        assert!(!view.is_dirty());
    }
}
