//! Outlier indexing (Section 6): tame skew by exactly materializing the
//! view rows that depend on extreme base records.
//!
//! * [`OutlierIndex::build`] — index the `k` base records of the new state
//!   with the largest attribute values (Section 6.1's top-k threshold), in
//!   one pass over the base relation and its deltas through a `k`-entry
//!   heap, ties at the threshold going to the smaller key;
//! * [`OutlierIndex::push_up`] — Definition 5: propagate the indexed
//!   records through the view definition to obtain the outlier rows `O ⊆
//!   S′` of the *up-to-date* view. For group-by views the γ rule applies:
//!   aggregate the outliers to find affected groups, then compute those
//!   groups **exactly** over the new base state (the "select the row in
//!   γ(R) with the same A" step);
//! * [`estimate_aqp_with_outliers`] / [`estimate_corr_with_outliers`] —
//!   Section 6.3's merge: the sample estimate restricted to `S′ − O`
//!   combined with the deterministic answer over `O`, weighted
//!   `(N−l)/N · c_reg + l/N · c_out`, which preserves unbiasedness. The
//!   merge stays unbiased for any outlier set chosen without looking at the
//!   sample: `O` is a fixed part of `S′`, the sample of `S′ − O` is the
//!   hash sample of the rest, so which records enter `O` (the tie rule
//!   included) moves only the variance.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use svc_storage::{Database, Deltas, Result, SharedRow, StorageError, Table, Value};

use svc_ivm::delta::{delta_base, new_leaf, DeltaInfo};
use svc_ivm::strategy::recompute_plan;
use svc_ivm::view::{maintenance_bindings, MaterializedView};
use svc_relalg::eval::{evaluate, Bindings};
use svc_relalg::optimizer::optimize;
use svc_relalg::plan::{JoinKind, Plan};
use svc_stats::clt::horvitz_thompson_interval;

use crate::config::SvcConfig;
use crate::estimate::{correspond, estimate, svc_aqp, svc_corr, Estimate, StaleView};
use crate::query::{aggregate, AggQuery, QueryAgg};

/// How the index threshold is chosen (Section 6.1). Of the paper's
/// policies only top-k is built: the threshold is the `capacity`-th largest
/// value of the indexed attribute. An absolute threshold, or one `c`
/// standard deviations above the mean, keeps the top records above it, at
/// most `capacity` of them: a subset of the top-k.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ThresholdPolicy {
    /// Keep the top `capacity` records by the indexed attribute.
    TopK,
}

/// Specification of an outlier index on one base-relation attribute.
#[derive(Debug, Clone)]
pub struct OutlierIndexSpec {
    /// The indexed base relation.
    pub table: String,
    /// The indexed (numeric) attribute.
    pub attr: String,
    /// Threshold policy.
    pub policy: ThresholdPolicy,
    /// Maximum number of indexed records (size limit `k`).
    pub capacity: usize,
}

/// A built outlier index: the extreme records of the indexed relation's
/// *new* state (base ∪ insertions − deletions). It is built from that
/// state, read through the base relation and its deltas, for one set of
/// deltas; it is not maintained from one set to the next.
#[derive(Debug, Clone)]
pub struct OutlierIndex {
    /// The specification this index was built from.
    pub spec: OutlierIndexSpec,
    /// Indexed base records (full rows of the base schema), in rank order:
    /// value descending under `total_cmp`, the smaller key first on a tie.
    pub records: Table,
    /// The `capacity`-th largest value of the attribute (−∞ when the
    /// relation has no more values than `capacity`).
    pub threshold: f64,
}

impl OutlierIndex {
    /// Build the index over the new state `T′ = (T ▷ ∇T) ∪ ∆T` of the base
    /// relation in one pass, without materializing `T′`: T's rows whose key
    /// ∇T does not hold, then ∆T's rows, offered to a `capacity`-entry
    /// min-heap, so the records are T′'s top `capacity` by value under
    /// `total_cmp`, the smaller key winning a tie, and depend on T′'s
    /// contents alone. A record with a NULL (non-numeric) value is never
    /// indexed. A ∆T row under a key that T holds and ∇T does not delete
    /// is [`StorageError::DuplicateKey`], as in [`Deltas::applied_state`]:
    /// [`Deltas::insert`] checks keys within ∆T only, so each ∆T row probes
    /// T's key index. A capacity of 0, which could hold nothing, is
    /// [`StorageError::Invalid`].
    pub fn build(spec: OutlierIndexSpec, db: &Database, deltas: &Deltas) -> Result<OutlierIndex> {
        if spec.capacity == 0 {
            return Err(StorageError::Invalid("outlier index capacity must be at least 1".into()));
        }
        let base = db.table(&spec.table)?;
        let (attr, key) = (base.schema().resolve(&spec.attr)?, base.key());
        let value = |row: &[Value]| row[attr].as_f64();
        let (ins, del) = match deltas.get(&spec.table) {
            Some(set) => (set.insertions.rows(), Some(&set.deletions)),
            None => (&[][..], None),
        };
        let deleted = |row: &[Value]| del.is_some_and(|d| d.position_of(row, key).is_some());
        if let Some(row) = ins.iter().find(|r| base.position_of(r, key).is_some() && !deleted(r)) {
            return Err(StorageError::DuplicateKey(base.key_of(row).to_string()));
        }
        let mut top =
            TopK { heap: BinaryHeap::with_capacity(spec.capacity), capacity: spec.capacity };
        // How many values T and ∆T hold.
        let mut values = 0usize;
        let offered = base.rows().iter().map(|r| (r, true)).chain(ins.iter().map(|r| (r, false)));
        for (row, old) in offered {
            let Some(x) = value(row) else { continue };
            values += 1;
            // ∇T is probed only for a row of T the heap would keep.
            top.offer(Ranked { x, row, key }, || !old || !deleted(row));
        }
        // T′ holds more values than `capacity`: T's and ∆T's less those of
        // T's rows ∇T deletes, which are looked up only when their count,
        // at most |∇T|, could decide it.
        let deleted_values = || {
            let held = del.iter().flat_map(|d| d.rows()).filter_map(|r| base.position_of(r, key));
            held.filter(|&p| value(&base.rows()[p]).is_some()).count()
        };
        let more = values > spec.capacity + del.map_or(0, Table::len)
            || values - deleted_values() > spec.capacity;
        // The capacity-th largest value under `total_cmp`: the heap's least.
        let threshold = match top.heap.peek() {
            Some(least) if more => least.x,
            _ => f64::NEG_INFINITY,
        };
        let kept = top.heap.into_sorted_vec().into_iter().map(|r| r.row.clone()).collect();
        let records = Table::from_rows(base.schema().clone(), key.to_vec(), kept)?;
        Ok(OutlierIndex { spec, records, threshold })
    }

    /// Definition 5 push-up: the outlier rows `O` of the up-to-date view, in
    /// the view's *canonical* schema. `O` is exact: for aggregate views the
    /// affected groups are recomputed in full over the new base state.
    ///
    /// Both passes run optimized. The marker pass is the view with the
    /// indexed relation bound to the index's records and every other
    /// touched relation `T` read as its new state `__new.T`, so a join of
    /// the records with `T` on T's key probes T's three key indexes and
    /// `T′` is never built. For SPJ views its result *is* `O`; for
    /// aggregate views its rows, keyed by the group key, are the affected
    /// groups. The exact pass is the whole recompute restricted to them,
    /// `recompute ⋉ Scan __okeys` on the group columns; the optimizer sinks
    /// that semi-join to the leaves, so only the affected groups' rows reach
    /// the joins and the γ.
    pub fn push_up(
        &self,
        view: &MaterializedView,
        db: &Database,
        deltas: &Deltas,
    ) -> Result<Table> {
        let info = DeltaInfo::of(deltas);
        let mut bindings = maintenance_bindings(db, deltas, view.table());
        bindings.bind(OUTLIER_LEAF, &self.records);
        let run = |plan: &Plan, bindings: &Bindings<'_>| {
            evaluate(&new_state_plan(plan, bindings, &info)?, bindings)
        };
        let marker = run(&self.marked(view, &info), &bindings)?;
        let Some(restricted) = restricted_to_keys(view, &marker) else {
            return Ok(marker);
        };
        bindings.bind(KEYS_LEAF, &marker);
        run(&restricted, &bindings)
    }

    /// The marker pass's plan: the view's canonical plan with the indexed
    /// relation read as [`OUTLIER_LEAF`] and every other relation with
    /// pending deltas as its new-state leaf, which names a collided column
    /// after `T`, as `T` does.
    fn marked(&self, view: &MaterializedView, info: &DeltaInfo) -> Plan {
        view.canonical().plan.clone().rename_leaves(&mut |table| {
            if table == self.spec.table {
                Some(OUTLIER_LEAF.to_string())
            } else {
                info.touches(table).then(|| new_leaf(table))
            }
        })
    }

    /// Is this index usable for a given cleaning run? Per Section 6.2,
    /// "the only eligible indices are ones on base relations that are being
    /// sampled" — i.e. the hash pushes down to that relation (or to one of
    /// its delta relations, which carry the same records).
    pub fn eligible(&self, sampled_leaves: &[String]) -> bool {
        sampled_leaves.iter().any(|l| delta_base(l).unwrap_or(l) == self.spec.table)
    }
}

/// The `capacity` best-ranked records offered so far, the worst on top of
/// the heap.
struct TopK<'a> {
    heap: BinaryHeap<Ranked<'a>>,
    capacity: usize,
}

impl<'a> TopK<'a> {
    /// Keep `rec` if the heap has room or `rec` ranks above its worst
    /// record (then evicted), and `live()`, asked only then, holds.
    fn offer(&mut self, rec: Ranked<'a>, live: impl FnOnce() -> bool) {
        if self.heap.len() < self.capacity {
            if live() {
                self.heap.push(rec);
            }
        } else if self.heap.peek().is_some_and(|worst| rec < *worst) && live() {
            *self.heap.peek_mut().expect("a full heap") = rec;
        }
    }
}

/// A record offered to a [`TopK`], with its value `x`. Records rank by
/// value under `total_cmp`, largest first, and by key, smallest first, on
/// a tie; a worse-ranked record compares greater, so the max-heap keeps the
/// worst on top.
struct Ranked<'a> {
    x: f64,
    row: &'a SharedRow,
    key: &'a [usize],
}

impl Ranked<'_> {
    fn key_cells(&self) -> impl Iterator<Item = &Value> {
        self.key.iter().map(|&k| &self.row[k])
    }
}

impl Ord for Ranked<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.x.total_cmp(&self.x).then_with(|| self.key_cells().cmp(other.key_cells()))
    }
}

impl PartialOrd for Ranked<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Ranked<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Ranked<'_> {}

const OUTLIER_LEAF: &str = "__outliers";
const KEYS_LEAF: &str = "__okeys";

/// `plan` over the new base state, optimized: how push-up runs each pass.
fn new_state_plan(plan: &Plan, bindings: &Bindings<'_>, info: &DeltaInfo) -> Result<Plan> {
    Ok(optimize(&recompute_plan(plan, bindings, info)?, bindings)?.0)
}

/// For an aggregate view, the view restricted to the groups of `keys` (a
/// table in the view's canonical schema, keyed by the group key):
/// `view ⋉ Scan __okeys` on the group columns. `None` for an SPJ view.
fn restricted_to_keys(view: &MaterializedView, keys: &Table) -> Option<Plan> {
    let plan = &view.canonical().plan;
    let Plan::Aggregate { group_by, .. } = plan else {
        return None;
    };
    let name = |t: &Table, i: usize| t.schema().field(i).name.clone();
    let on = (0..group_by.len()).map(|i| (name(view.table(), i), name(keys, i))).collect();
    Some(Plan::Join {
        left: Box::new(plan.clone()),
        right: Box::new(Plan::scan(KEYS_LEAF)),
        kind: JoinKind::Semi,
        on,
    })
}

/// SVC+AQP with an outlier index (Section 6.3): the sample estimate over
/// `S′ − O` — the clean sample walked with `O`'s keys skipped — merged with
/// the deterministic contribution of `O`. For `avg` the merge divides by
/// the estimated row count, and the interval counts that estimate's error.
pub fn estimate_aqp_with_outliers(
    clean_sample_public: &Table,
    outliers_fresh_public: &Table,
    q: &AggQuery,
    m: f64,
    cfg: &SvcConfig,
) -> Result<Estimate> {
    if !q.agg.is_sample_mean() {
        return svc_aqp(clean_sample_public, q, m, cfg);
    }
    let walk = correspond(None, clean_sample_public, &[outliers_fresh_public], q)?;
    let reg = walk.finish(q, None, m, cfg)?;
    let out = q.bind(outliers_fresh_public)?.matching_values(outliers_fresh_public);
    if q.agg != QueryAgg::Avg {
        return Ok(reg.affine(1.0, aggregate(q.agg, out.iter().copied())));
    }
    // v = (N−l)/N·c_reg + l/N·c_out with N̂ = n_pred/m + l: a ratio whose
    // denominator is sampled too. Its delta-method interval is the
    // Horvitz–Thompson width of the residuals (xᵢ − v)/m over N̂.
    let n_reg = reg.predicate_rows as f64 / m;
    let n = n_reg + out.len() as f64;
    let mut merged = reg.affine(n_reg / n, aggregate(QueryAgg::Sum, out.iter().copied()) / n);
    let mut residuals = 0.0;
    walk.walk(|_, c| {
        if let Some(x) = c {
            residuals += ((x - merged.value) / m).powi(2);
        }
    });
    if let Some(ci) = &mut merged.ci {
        ci.half_width = horvitz_thompson_interval(0.0, residuals, m, cfg.confidence).half_width / n;
    }
    Ok(merged)
}

/// SVC+CORR with an outlier index (Section 6.3): the correction from the
/// samples restricted to `S′ − O` merged with the exact correction over `O`
/// (whose bias and variance are zero).
#[allow(clippy::too_many_arguments)]
pub fn estimate_corr_with_outliers(
    stale_result: f64,
    stale_sample_public: &Table,
    clean_sample_public: &Table,
    outliers_fresh_public: &Table,
    outliers_stale_public: &Table,
    q: &AggQuery,
    m: f64,
    cfg: &SvcConfig,
) -> Result<Estimate> {
    if !matches!(q.agg, QueryAgg::Sum | QueryAgg::Count) {
        return svc_corr(stale_result, stale_sample_public, clean_sample_public, q, m, cfg);
    }
    let reg = estimate(
        Some((StaleView::Answer(stale_result), stale_sample_public)),
        clean_sample_public,
        &[outliers_fresh_public, outliers_stale_public],
        q,
        m,
        cfg,
    )?;
    // Exact outlier correction: fresh contribution − stale contribution
    // over the outlier keys.
    Ok(reg.affine(1.0, q.exact(outliers_fresh_public)? - q.exact(outliers_stale_public)?))
}

/// The stale view's rows at the outlier keys (for the exact stale-side
/// contribution in SVC+CORR).
pub fn stale_rows_at(view_public: &Table, outliers_fresh_public: &Table) -> Table {
    let rows = outliers_fresh_public
        .iter_keyed()
        .filter_map(|(k, _)| view_public.get(&k).cloned())
        .collect();
    Table::from_rows(view_public.schema().clone(), view_public.key().to_vec(), rows)
        .expect("keyed subset")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::relative_error;
    use crate::svc::SvcView;
    use svc_relalg::aggregate::{AggFunc, AggSpec};
    use svc_relalg::exec::{explain_analyze, ExecMode, Explain};
    use svc_relalg::scalar::{col, lit};
    use svc_storage::{DataType, Schema, Value};

    /// A skewed database: order "prices" follow a rough power law, so a few
    /// records dominate sums — the regime where Section 6 matters.
    fn skewed_db() -> Database {
        let mut db = Database::new();
        let mut orders = Table::new(
            Schema::from_pairs(&[
                ("orderId", DataType::Int),
                ("custId", DataType::Int),
                ("price", DataType::Float),
            ])
            .unwrap(),
            &["orderId"],
        )
        .unwrap();
        for o in 0..4000i64 {
            // Heavy tail: every 97th order is huge.
            let price = if o % 97 == 0 {
                5_000.0 + (o % 7) as f64 * 3_000.0
            } else {
                (o % 50) as f64 + 1.0
            };
            orders.insert(vec![Value::Int(o), Value::Int(o % 200), Value::Float(price)]).unwrap();
        }
        db.create_table("orders", orders);
        db
    }

    fn cust_view() -> Plan {
        Plan::scan("orders").aggregate(
            &["custId"],
            vec![AggSpec::new("revenue", AggFunc::Sum, col("price")), AggSpec::count_all("n")],
        )
    }

    fn skewed_deltas(db: &Database) -> Deltas {
        let mut deltas = Deltas::new();
        for o in 4000..4800i64 {
            let price = if o % 61 == 0 { 40_000.0 } else { (o % 50) as f64 + 1.0 };
            deltas
                .insert(db, "orders", vec![Value::Int(o), Value::Int(o % 200), Value::Float(price)])
                .unwrap();
        }
        deltas
    }

    fn top_k(db: &Database, deltas: &Deltas, capacity: usize) -> OutlierIndex {
        let spec = OutlierIndexSpec {
            table: "orders".into(),
            attr: "price".into(),
            policy: ThresholdPolicy::TopK,
            capacity,
        };
        OutlierIndex::build(spec, db, deltas).unwrap()
    }

    #[test]
    fn build_respects_capacity_and_threshold() {
        let idx = top_k(&skewed_db(), &Deltas::new(), 20);
        assert_eq!(idx.records.len(), 20);
        // Every kept record beats the threshold; the threshold is the k-th
        // largest price.
        let attr = idx.records.schema().resolve("price").unwrap();
        for row in idx.records.rows() {
            assert!(row[attr].as_f64().unwrap() >= idx.threshold);
        }
        assert!(idx.threshold >= 5_000.0);
    }

    /// Top-k at capacity 0 used to index one past the end of the sorted
    /// values and panic.
    #[test]
    fn zero_capacity_is_rejected_under_every_policy() {
        let db = skewed_db();
        let spec = OutlierIndexSpec {
            table: "orders".into(),
            attr: "price".into(),
            policy: ThresholdPolicy::TopK,
            capacity: 0,
        };
        let err = OutlierIndex::build(spec, &db, &Deltas::new()).unwrap_err();
        assert!(matches!(err, StorageError::Invalid(_)), "{err}");
        assert_eq!(top_k(&db, &Deltas::new(), 1).records.len(), 1);
    }

    #[test]
    fn push_up_materializes_exact_affected_groups() {
        let db = skewed_db();
        let deltas = skewed_deltas(&db);
        let view = MaterializedView::create("v", cust_view(), &db).unwrap();
        let idx = top_k(&db, &deltas, 50);
        let o = idx.push_up(&view, &db, &deltas).unwrap();
        let fresh = view.recompute_fresh(&db, &deltas).unwrap();
        assert!(!o.is_empty());
        // O ⊆ S′ with exact values.
        for (k, row) in o.iter_keyed() {
            let f = fresh.get(&k).expect("outlier group exists in fresh view");
            assert_eq!(row, f, "outlier row must exactly equal the fresh view row");
        }
    }

    #[test]
    fn outlier_index_improves_skewed_sum_estimates() {
        let db = skewed_db();
        let deltas = skewed_deltas(&db);
        let cfg = SvcConfig::with_ratio(0.1);
        let svc = SvcView::create("v", cust_view(), &db, cfg).unwrap();
        let idx = top_k(&db, &deltas, 100);

        let cleaned = svc.clean_sample(&db, &deltas).unwrap();
        assert!(idx.eligible(&cleaned.report.sampled_leaves));

        let q = AggQuery::sum(col("revenue"));
        let truth = svc.query_fresh_oracle(&db, &deltas, &q).unwrap();

        let plain = svc.estimate_aqp(&cleaned, &q).unwrap();
        let o_fresh_canonical = idx.push_up(&svc.view, &db, &deltas).unwrap();
        let o_fresh = svc.view.public_of(&o_fresh_canonical).unwrap();
        let with_idx =
            estimate_aqp_with_outliers(&cleaned.public, &o_fresh, &q, cfg.ratio, &cfg).unwrap();

        let e_plain = relative_error(plain.value, truth);
        let e_idx = relative_error(with_idx.value, truth);
        assert!(e_idx <= e_plain * 1.05, "outlier index should not hurt: {e_idx} vs {e_plain}");

        // And the CORR variant stays sane.
        let stale_res = svc.query_stale(&q).unwrap();
        let o_stale = stale_rows_at(&svc.view.public_table().unwrap(), &o_fresh);
        let corr = estimate_corr_with_outliers(
            stale_res,
            &svc.stale_sample_public().unwrap(),
            &cleaned.public,
            &o_fresh,
            &o_stale,
            &q,
            cfg.ratio,
            &cfg,
        )
        .unwrap();
        assert!(relative_error(corr.value, truth) < 0.2);
    }

    #[test]
    fn avg_interval_is_centred_on_the_merged_value() {
        // The index holds the ~20 heaviest groups; the regular rows keep
        // their own spread, so the Section 6.3 interval — exact outlier
        // term, regular term scaled by (N−l)/N — must bracket the truth
        // around the merged value, not around the non-outlier mean.
        let db = skewed_db();
        let deltas = skewed_deltas(&db);
        let cfg = SvcConfig::with_ratio(0.2);
        let svc = SvcView::create("v", cust_view(), &db, cfg).unwrap();
        let cleaned = svc.clean_sample(&db, &deltas).unwrap();
        let o_canonical = top_k(&db, &deltas, 20).push_up(&svc.view, &db, &deltas).unwrap();
        let o_fresh = svc.view.public_of(&o_canonical).unwrap();

        let q = AggQuery::avg(col("revenue"));
        let truth = svc.query_fresh_oracle(&db, &deltas, &q).unwrap();
        let est =
            estimate_aqp_with_outliers(&cleaned.public, &o_fresh, &q, cfg.ratio, &cfg).unwrap();
        let ci = est.ci.unwrap();
        assert_eq!(ci.estimate, est.value);
        assert!(ci.contains(truth), "{} ± {} misses {truth}", est.value, ci.half_width);
        let plain = svc.estimate_aqp(&cleaned, &q).unwrap();
        assert!(ci.half_width < plain.ci.unwrap().half_width, "the exact term narrows the bound");
    }

    /// Ties at the threshold: the selected threshold is the capacity-th
    /// largest value, and the eviction keeps exactly `capacity` records,
    /// all at or above it.
    #[test]
    fn top_k_threshold_with_ties_is_the_capacity_th_largest_value() {
        let mut db = Database::new();
        let mut t = Table::new(
            Schema::from_pairs(&[("id", DataType::Int), ("x", DataType::Float)]).unwrap(),
            &["id"],
        )
        .unwrap();
        // Values 1..=5 twice over, then 7.0 three times: sorted descending,
        // 7 7 7 5 5 4 4 …, so the 4th and 5th largest tie at 5.0.
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0, 7.0, 7.0];
        for (i, x) in xs.iter().enumerate() {
            t.insert(vec![Value::Int(i as i64), Value::Float(*x)]).unwrap();
        }
        db.create_table("t", t);
        for (capacity, threshold) in [(1, 7.0), (3, 7.0), (4, 5.0), (5, 5.0), (6, 4.0), (13, -1.0)]
        {
            let spec = OutlierIndexSpec {
                table: "t".into(),
                attr: "x".into(),
                policy: ThresholdPolicy::TopK,
                capacity,
            };
            let idx = OutlierIndex::build(spec, &db, &Deltas::new()).unwrap();
            let want = if threshold < 0.0 { f64::NEG_INFINITY } else { threshold };
            assert_eq!(idx.threshold.to_bits(), want.to_bits(), "capacity {capacity}");
            assert_eq!(idx.records.len(), capacity, "capacity {capacity}");
            let x = idx.records.schema().resolve("x").unwrap();
            let mut kept: Vec<f64> =
                idx.records.rows().iter().map(|r| r[x].as_f64().unwrap()).collect();
            kept.sort_by(|a, b| b.total_cmp(a));
            let mut top = xs.to_vec();
            top.sort_by(|a, b| b.total_cmp(a));
            assert_eq!(kept, top[..capacity], "capacity {capacity}: the largest values are kept");
        }
    }

    /// Rows keyed on `(a, b)` whose values `x` come from a small pool —
    /// ties, NULL, ±0, ±∞ and a NaN among them — drawn by a xorshift
    /// stream.
    struct Draw(u64);

    impl Draw {
        fn next(&mut self, below: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % below
        }

        fn value(&mut self) -> Value {
            let pool = [1.0, 2.0, 2.0, 3.0, 3.0, 3.0, -0.0, 0.0, f64::INFINITY, f64::NAN, -1.5];
            match self.next(pool.len() as u64 + 2) as usize {
                i if i < pool.len() => Value::Float(pool[i]),
                i if i == pool.len() => Value::Null,
                _ => Value::Float(f64::NEG_INFINITY),
            }
        }

        fn row(&mut self, key: i64) -> Vec<Value> {
            vec![Value::Int(key % 3), Value::Int(key / 3), self.value()]
        }
    }

    /// The reference index: `T′` applied by [`Deltas::applied_state`],
    /// sorted by value descending under `total_cmp`, then by key, its first
    /// `capacity` rows; and the threshold as the `capacity`-th largest
    /// value by selection, −∞ when T′ has no more values than `capacity`.
    fn reference(db: &Database, deltas: &Deltas, capacity: usize) -> (Vec<SharedRow>, f64) {
        let state = deltas.applied_state(db, "t").unwrap();
        let mut ranked: Vec<(f64, &SharedRow)> =
            state.rows().iter().filter_map(|r| Some((r[2].as_f64()?, r))).collect();
        let key = |r: &SharedRow| (r[0].clone(), r[1].clone());
        ranked.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| key(a.1).cmp(&key(b.1))));
        let mut values: Vec<f64> = ranked.iter().map(|(x, _)| *x).collect();
        let threshold = match values.len().checked_sub(capacity) {
            Some(n) if n > 0 => *values.select_nth_unstable_by(n, f64::total_cmp).1,
            _ => f64::NEG_INFINITY,
        };
        (ranked.into_iter().take(capacity).map(|(_, r)| r.clone()).collect(), threshold)
    }

    /// The one-pass heap build equals the sort of the applied new state
    /// taken `capacity` deep, on random tables with ties at the threshold,
    /// NULL and NaN values, deletes, updates (a delete plus an insert) and
    /// inserts, for every capacity from 1 past |T′|; its threshold is the
    /// selected one bit for bit; and it clones no table.
    #[test]
    fn build_equals_the_sorted_new_state_taken_capacity_deep() {
        let mut draw = Draw(0x9e37_79b9_7f4a_7c15);
        for case in 0..60 {
            let mut db = Database::new();
            let schema = Schema::from_pairs(&[
                ("a", DataType::Int),
                ("b", DataType::Int),
                ("x", DataType::Float),
            ])
            .unwrap();
            let mut t = Table::new(schema, &["a", "b"]).unwrap();
            let n = draw.next(40) as i64;
            for k in 0..n {
                t.insert(draw.row(k)).unwrap();
            }
            db.create_table("t", t);
            let mut deltas = Deltas::new();
            let mut untouched = None;
            for k in 0..n {
                match draw.next(6) {
                    0 => deltas.delete(&db, "t", &draw.row(k)).unwrap(),
                    1 => deltas.update(&db, "t", draw.row(k)).unwrap(),
                    _ => untouched = Some(k),
                }
            }
            for k in n..n + draw.next(8) as i64 {
                deltas.insert(&db, "t", draw.row(k)).unwrap();
            }
            let live = deltas.applied_state(&db, "t").unwrap().len();
            // An insertion under a held key ∇T does not delete is refused
            // as `applied_state` refuses it, whichever row the heap keeps.
            if let Some(k) = untouched {
                let mut clash = deltas.clone();
                clash.insert(&db, "t", draw.row(k)).unwrap();
                let dup = |r: Result<_>| matches!(r, Err(StorageError::DuplicateKey(_)));
                assert!(dup(clash.applied_state(&db, "t").map(drop)), "case {case}");
                for capacity in 1..=live + 2 {
                    let spec = OutlierIndexSpec {
                        table: "t".into(),
                        attr: "x".into(),
                        policy: ThresholdPolicy::TopK,
                        capacity,
                    };
                    let built = OutlierIndex::build(spec, &db, &clash).map(drop);
                    assert!(dup(built), "case {case}, capacity {capacity}: a duplicate key");
                }
            }
            for capacity in 1..=live + 2 {
                let spec = OutlierIndexSpec {
                    table: "t".into(),
                    attr: "x".into(),
                    policy: ThresholdPolicy::TopK,
                    capacity,
                };
                let clones = Table::clone_count();
                let idx = OutlierIndex::build(spec, &db, &deltas).unwrap();
                assert_eq!(Table::clone_count(), clones, "case {case}: the build clones a table");
                let (want, threshold) = reference(&db, &deltas, capacity);
                let bits = |rows: &[SharedRow]| -> Vec<Vec<u64>> {
                    let cell = |v: &Value| v.as_f64().map_or(u64::MAX, f64::to_bits);
                    rows.iter().map(|r| r.iter().map(cell).collect()).collect()
                };
                let at = format!("case {case}, capacity {capacity}");
                assert_eq!(bits(idx.records.rows()), bits(&want), "{at}: records");
                assert_eq!(idx.threshold.to_bits(), threshold.to_bits(), "{at}: threshold");
            }
        }
    }

    /// On the star database the build clones no table, and the push-up
    /// reads `orders` and `__ins.orders` only through their key indexes:
    /// the marker pass probes their new state, and the exact pass reads no
    /// row of either that it then drops.
    #[test]
    fn push_up_probes_orders_and_scans_none_of_its_rows() {
        let db = star_db();
        let deltas = star_deltas(&db);
        let clones = Table::clone_count();
        let idx = star_index(&db, &deltas);
        assert_eq!(Table::clone_count(), clones, "the build clones a table");
        let view = MaterializedView::create("V3", v3(), &db).unwrap();
        let info = DeltaInfo::of(&deltas);
        let mut bindings = maintenance_bindings(&db, &deltas, view.table());
        bindings.bind(OUTLIER_LEAF, &idx.records);
        let explain = |plan: &Plan, bindings: &Bindings<'_>| {
            let plan = new_state_plan(plan, bindings, &info).unwrap();
            explain_analyze(&plan, bindings, None, ExecMode::default()).unwrap()
        };
        let marker = explain(&idx.marked(&view, &info), &bindings);
        let probes =
            |e: &Explain| e.nodes.iter().any(|n| n.label.contains("pk-probe(__new.orders)"));
        assert!(probes(&marker), "the marker pass probes orders′:\n{marker}");
        bindings.bind(KEYS_LEAF, &marker.table);
        let exact = explain(&restricted_to_keys(&view, &marker.table).unwrap(), &bindings);
        for (pass, e) in [("marker", &marker), ("exact", &exact)] {
            for n in &e.nodes {
                if n.label.starts_with("fused-scan(orders)")
                    || n.label.starts_with("fused-scan(__ins.orders)")
                {
                    let m = &n.metrics;
                    assert_eq!(pass, "exact", "the marker pass scans orders:\n{e}");
                    let keys = marker.table.len() as u64;
                    assert!(m.rows_in == m.rows_out && m.rows_in <= keys, "{n:?} scans:\n{e}");
                }
            }
        }
        assert_eq!(exact.table.rows(), idx.push_up(&view, &db, &deltas).unwrap().rows());
    }

    /// A small database in the TPC-D shape — lineitem → orders → customer
    /// → nation → region — with every 53rd lineitem price heavy.
    fn star_db() -> Database {
        fn table(cols: &[(&str, DataType)], key: &[&str], rows: Vec<Vec<Value>>) -> Table {
            let mut t = Table::new(Schema::from_pairs(cols).unwrap(), key).unwrap();
            for row in rows {
                t.insert(row).unwrap();
            }
            t
        }
        let int = |i: i64| Value::Int(i);
        let mut db = Database::new();
        db.create_table(
            "region",
            table(
                &[("r_regionkey", DataType::Int)],
                &["r_regionkey"],
                (0..3).map(|r| vec![int(r)]).collect(),
            ),
        );
        db.create_table(
            "nation",
            table(
                &[("n_nationkey", DataType::Int), ("n_regionkey", DataType::Int)],
                &["n_nationkey"],
                (0..8).map(|n| vec![int(n), int(n % 3)]).collect(),
            ),
        );
        db.create_table(
            "customer",
            table(
                &[("c_custkey", DataType::Int), ("c_nationkey", DataType::Int)],
                &["c_custkey"],
                (0..40).map(|c| vec![int(c), int(c % 8)]).collect(),
            ),
        );
        db.create_table(
            "orders",
            table(
                &[
                    ("o_orderkey", DataType::Int),
                    ("o_custkey", DataType::Int),
                    ("o_orderdate", DataType::Int),
                ],
                &["o_orderkey"],
                (0..300).map(|o| vec![int(o), int(o % 40), int(o % 90)]).collect(),
            ),
        );
        db.create_table(
            "lineitem",
            table(
                &[
                    ("l_orderkey", DataType::Int),
                    ("l_linenumber", DataType::Int),
                    ("l_partkey", DataType::Int),
                    ("l_extendedprice", DataType::Float),
                ],
                &["l_orderkey", "l_linenumber"],
                (0..1200).map(|i| star_lineitem(i % 300, i / 300, i)).collect(),
            ),
        );
        db
    }

    fn star_lineitem(order: i64, line: i64, i: i64) -> Vec<Value> {
        let price = if i % 53 == 0 { 20_000.0 + i as f64 } else { (i % 40) as f64 + 0.5 };
        vec![Value::Int(order), Value::Int(line), Value::Int(i % 17), Value::Float(price)]
    }

    /// Inserted lineitems (heavy ones among them) on old and new orders,
    /// new orders, and updated and deleted lineitems.
    fn star_deltas(db: &Database) -> Deltas {
        let mut deltas = Deltas::new();
        for o in 300..320 {
            deltas
                .insert(db, "orders", vec![Value::Int(o), Value::Int(o % 40), Value::Int(o % 90)])
                .unwrap();
        }
        for i in 1200..1320 {
            deltas.insert(db, "lineitem", star_lineitem(i % 320, 4 + i / 320, i)).unwrap();
        }
        for i in (0..1200).step_by(31) {
            deltas.update(db, "lineitem", star_lineitem(i % 300, i / 300, i + 7)).unwrap();
        }
        for i in (5..1200).step_by(97) {
            let key = [Value::Int(i % 300), Value::Int(i / 300), Value::Null, Value::Null];
            deltas.delete(db, "lineitem", &key).unwrap();
        }
        deltas
    }

    fn lineitem_orders() -> Plan {
        Plan::scan("lineitem").join(
            Plan::scan("orders"),
            JoinKind::Inner,
            &[("l_orderkey", "o_orderkey")],
        )
    }

    /// TPC-D V3's shape: revenue per order over lineitem ⋈ orders.
    fn v3() -> Plan {
        lineitem_orders().aggregate(
            &["l_orderkey"],
            vec![
                AggSpec::new("revenue", AggFunc::Sum, col("l_extendedprice")),
                AggSpec::count_all("n"),
                AggSpec::new("orderdate", AggFunc::Avg, col("o_orderdate")),
            ],
        )
    }

    /// The base cube's shape: the five-way join grouped by keys of four
    /// relations, which no single join side owns.
    fn cube() -> Plan {
        lineitem_orders()
            .join(Plan::scan("customer"), JoinKind::Inner, &[("o_custkey", "c_custkey")])
            .join(Plan::scan("nation"), JoinKind::Inner, &[("c_nationkey", "n_nationkey")])
            .join(Plan::scan("region"), JoinKind::Inner, &[("n_regionkey", "r_regionkey")])
            .aggregate(
                &["c_custkey", "n_nationkey", "r_regionkey", "l_partkey"],
                vec![
                    AggSpec::new("revenue", AggFunc::Sum, col("l_extendedprice")),
                    AggSpec::count_all("n"),
                ],
            )
    }

    fn star_index(db: &Database, deltas: &Deltas) -> OutlierIndex {
        let spec = OutlierIndexSpec {
            table: "lineitem".into(),
            attr: "l_extendedprice".into(),
            policy: ThresholdPolicy::TopK,
            capacity: 12,
        };
        OutlierIndex::build(spec, db, deltas).unwrap()
    }

    #[test]
    fn pushed_up_rows_equal_the_fresh_view_at_their_keys() {
        let db = star_db();
        let deltas = star_deltas(&db);
        let idx = star_index(&db, &deltas);
        let spj = lineitem_orders().select(col("o_orderdate").lt(lit(60i64)));
        for (name, plan) in [("V3", v3()), ("cube", cube()), ("SPJ", spj)] {
            let view = MaterializedView::create(name, plan, &db).unwrap();
            let o = idx.push_up(&view, &db, &deltas).unwrap();
            let fresh = view.recompute_fresh(&db, &deltas).unwrap();
            assert!(!o.is_empty(), "{name}: the index marks rows");
            for (k, row) in o.iter_keyed() {
                let f =
                    fresh.get(&k).unwrap_or_else(|| panic!("{name}: {k:?} not in the fresh view"));
                assert_eq!(row, f, "{name}: pushed-up row differs from the fresh view at {k:?}");
            }
        }
    }

    /// Views that name a collided right-side column, `video.owner` of
    /// `log ⋈ video`, with `video` updated: read as `__new.video` in the
    /// marker pass the column keeps its name. The SPJ view's outlier rows,
    /// which are the marker pass's, and the grouped view's keep the view's
    /// schema and equal the fresh view's rows.
    #[test]
    fn a_collided_right_column_keeps_its_name_in_the_marker_pass() {
        let mut db = Database::new();
        let schema = |cols: &[(&str, DataType)]| Schema::from_pairs(cols).unwrap();
        let mut video = Table::new(
            schema(&[("videoId", DataType::Int), ("owner", DataType::Int)]),
            &["videoId"],
        )
        .unwrap();
        for v in 0..40i64 {
            video.insert(vec![Value::Int(v), Value::Int(v % 6)]).unwrap();
        }
        let mut log = Table::new(
            schema(&[
                ("sessionId", DataType::Int),
                ("videoId", DataType::Int),
                ("owner", DataType::Int),
                ("mins", DataType::Float),
            ]),
            &["sessionId"],
        )
        .unwrap();
        for s in 0..300i64 {
            let row = [s, s * 7 % 40, s % 4].map(Value::Int);
            log.insert([&row[..], &[Value::Float((s * 13 % 101) as f64)]].concat()).unwrap();
        }
        db.create_table("video", video);
        db.create_table("log", log);
        let mut deltas = Deltas::new();
        for v in (0..40i64).step_by(3) {
            deltas.update(&db, "video", vec![Value::Int(v), Value::Int(v % 5)]).unwrap();
        }
        let log_video = || {
            Plan::scan("log").join(Plan::scan("video"), JoinKind::Inner, &[("videoId", "videoId")])
        };
        let grouped = log_video()
            .aggregate(&["video.owner"], vec![AggSpec::new("mins", AggFunc::Sum, col("mins"))]);
        let spec = OutlierIndexSpec {
            table: "log".into(),
            attr: "mins".into(),
            policy: ThresholdPolicy::TopK,
            capacity: 10,
        };
        let idx = OutlierIndex::build(spec, &db, &deltas).unwrap();
        for plan in [grouped, log_video()] {
            let view = MaterializedView::create("v", plan, &db).unwrap();
            let o = idx.push_up(&view, &db, &deltas).unwrap();
            assert_eq!(o.schema(), view.table().schema());
            let fresh = view.recompute_fresh(&db, &deltas).unwrap();
            assert!(!o.is_empty());
            for (k, row) in o.iter_keyed() {
                assert_eq!(Some(row), fresh.get(&k), "at {k:?}");
            }
        }
    }

    /// Scans of `plan` with whether each sits under `⋉ __okeys` through
    /// σ / Π only, and the inner joins found anywhere below such a semi-join.
    fn restricted_scans(
        plan: &Plan,
        under: bool,
        scans: &mut Vec<(String, bool)>,
        inner: &mut usize,
    ) {
        let keys_join = |p: &Plan| matches!(p, Plan::Join { kind: JoinKind::Semi, right, .. } if right.leaf_tables() == [KEYS_LEAF]);
        match plan {
            Plan::Scan { table } => scans.push((table.clone(), under)),
            Plan::Select { input, .. } | Plan::Project { input, .. } => {
                restricted_scans(input, under, scans, inner);
            }
            Plan::Join { left, .. } if keys_join(plan) => {
                restricted_scans(left, true, scans, &mut 0);
                *inner += count_inner_joins(left);
            }
            other => other.children().for_each(|c| restricted_scans(c, false, scans, inner)),
        }
    }

    fn count_inner_joins(plan: &Plan) -> usize {
        let own = matches!(plan, Plan::Join { kind: JoinKind::Inner, .. }) as usize;
        own + plan.children().map(count_inner_joins).sum::<usize>()
    }

    /// V3's exact pass, optimized: the key restriction reaches every leaf
    /// of both join sides, so only the affected groups' rows are joined.
    #[test]
    fn the_exact_pass_restricts_every_v3_leaf_below_the_join() {
        let db = star_db();
        let deltas = star_deltas(&db);
        let idx = star_index(&db, &deltas);
        let view = MaterializedView::create("V3", v3(), &db).unwrap();
        let o = idx.push_up(&view, &db, &deltas).unwrap();
        let mut bindings = maintenance_bindings(&db, &deltas, view.table());
        bindings.bind(KEYS_LEAF, &o);
        let plan = restricted_to_keys(&view, &o).expect("an aggregate view");
        let optimized = new_state_plan(&plan, &bindings, &DeltaInfo::of(&deltas)).unwrap();

        let (mut scans, mut inner) = (Vec::new(), 0);
        restricted_scans(&optimized, false, &mut scans, &mut inner);
        let leaves = ["lineitem", "orders", "__ins.lineitem", "__ins.orders"];
        for leaf in leaves {
            let at: Vec<bool> = scans.iter().filter(|(t, _)| t == leaf).map(|s| s.1).collect();
            assert!(!at.is_empty() && at.iter().all(|&r| r), "{leaf} unrestricted in\n{optimized}");
        }
        assert_eq!(inner, 0, "an inner join below the key restriction:\n{optimized}");
        assert_eq!(count_inner_joins(&optimized), 1, "{optimized}");
    }
}
