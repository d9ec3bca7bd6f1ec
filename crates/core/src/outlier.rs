//! Outlier indexing (Section 6): tame skew by exactly materializing the
//! view rows that depend on extreme base records.
//!
//! * [`OutlierIndex::build`] — index base records whose attribute exceeds a
//!   threshold (top-k / absolute / c-standard-deviations policies, all from
//!   Section 6.1), with capacity-bounded eviction of the smallest record;
//! * [`OutlierIndex::push_up`] — Definition 5: propagate the indexed
//!   records through the view definition to obtain the outlier rows `O ⊆
//!   S′` of the *up-to-date* view. For group-by views the γ rule applies:
//!   aggregate the outliers to find affected groups, then compute those
//!   groups **exactly** over the new base state (the "select the row in
//!   γ(R) with the same A" step);
//! * [`estimate_aqp_with_outliers`] / [`estimate_corr_with_outliers`] —
//!   Section 6.3's merge: the sample estimate restricted to `S′ − O`
//!   combined with the deterministic answer over `O`, weighted
//!   `(N−l)/N · c_reg + l/N · c_out`, which preserves unbiasedness.

use std::collections::HashSet;

use svc_storage::{Database, Deltas, KeyTuple, Result, StorageError, Table};

use svc_ivm::delta::{delta_base, DeltaInfo};
use svc_ivm::strategy::{recompute_plan, DeltaCatalog};
use svc_ivm::view::{maintenance_bindings, MaterializedView};
use svc_relalg::derive::derive;
use svc_relalg::eval::evaluate;
use svc_relalg::plan::{JoinKind, Plan};
use svc_stats::clt::horvitz_thompson_interval;

use crate::config::SvcConfig;
use crate::estimate::{correspond, estimate, svc_aqp, svc_corr, Estimate};
use crate::query::{aggregate, AggQuery, QueryAgg};

/// How the index threshold is chosen (Section 6.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ThresholdPolicy {
    /// Keep the top `capacity` records by the indexed attribute.
    TopK,
    /// Keep records with attribute above an absolute threshold.
    Above(f64),
    /// Keep records more than `c` standard deviations above the mean,
    /// with the threshold recomputed at build time.
    StdDevs(f64),
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
/// *new* state (base ∪ insertions − deletions), maintained in the same pass
/// as the updates per Section 6.1.
#[derive(Debug, Clone)]
pub struct OutlierIndex {
    /// The specification this index was built from.
    pub spec: OutlierIndexSpec,
    /// Indexed base records (full rows of the base schema).
    pub records: Table,
    /// The effective threshold after policy resolution.
    pub threshold: f64,
}

impl OutlierIndex {
    /// Build the index over the new state of the base relation in a single
    /// pass, evicting the smallest record when capacity is exceeded. A
    /// capacity of 0, which could hold nothing, is [`StorageError::Invalid`].
    pub fn build(spec: OutlierIndexSpec, db: &Database, deltas: &Deltas) -> Result<OutlierIndex> {
        if spec.capacity == 0 {
            return Err(StorageError::Invalid("outlier index capacity must be at least 1".into()));
        }
        let state = deltas.applied_state(db, &spec.table)?;
        let attr_idx = state.schema().resolve(&spec.attr)?;
        let values: Vec<f64> = state.rows().iter().filter_map(|r| r[attr_idx].as_f64()).collect();
        let threshold = match spec.policy {
            ThresholdPolicy::Above(t) => t,
            ThresholdPolicy::TopK => {
                let mut v = values;
                v.sort_by(f64::total_cmp);
                if v.len() > spec.capacity {
                    v[v.len() - spec.capacity]
                } else {
                    f64::NEG_INFINITY
                }
            }
            ThresholdPolicy::StdDevs(c) => {
                let m = svc_stats::moments::Moments::of(&values);
                m.mean() + c * m.stddev()
            }
        };

        // Single pass with capacity-bounded eviction of the smallest record.
        let mut kept: Vec<(f64, svc_storage::SharedRow)> = Vec::new();
        for row in state.rows() {
            let Some(x) = row[attr_idx].as_f64() else { continue };
            if x >= threshold {
                kept.push((x, row.clone()));
                if kept.len() > spec.capacity {
                    let (mi, _) = kept
                        .iter()
                        .enumerate()
                        .min_by(|a, b| a.1 .0.total_cmp(&b.1 .0))
                        .expect("non-empty");
                    kept.swap_remove(mi);
                }
            }
        }
        let mut records = state.empty_like();
        for (_, row) in kept {
            records.insert(row)?;
        }
        Ok(OutlierIndex { spec, records, threshold })
    }

    /// Definition 5 push-up: the outlier rows `O` of the up-to-date view, in
    /// the view's *canonical* schema. `O` is exact: for aggregate views the
    /// affected groups are recomputed in full over the new base state.
    pub fn push_up(
        &self,
        view: &MaterializedView,
        db: &Database,
        deltas: &Deltas,
    ) -> Result<Table> {
        let info = DeltaInfo::of(deltas);
        let cat = view.maint_catalog(db);
        let canon_plan = &view.canonical().plan;

        // Marker pass: the view definition with the indexed relation
        // restricted to the outlier records and every other relation at its
        // new state. For SPJ views this *is* O; for aggregate views it
        // identifies the affected groups.
        let marker_plan = substitute_new_states(canon_plan, &self.spec.table, &info, &cat)?;
        let mut bindings = maintenance_bindings(db, deltas, view.table());
        bindings.bind(OUTLIER_LEAF, &self.records);
        let marker = evaluate(&marker_plan, &bindings)?;

        match canon_plan {
            Plan::Aggregate { input, group_by, aggregates } => {
                // Affected group keys.
                let keys: Table = distinct_keys(&marker, group_by.len())?;
                // Exact recomputation of those groups over the new state.
                let new_input = recompute_plan(input, &cat, &info)?;
                let group_cols: Vec<(String, String)> = {
                    let in_d = derive(&new_input, &cat)?;
                    group_by
                        .iter()
                        .map(|g| {
                            let i = in_d.schema.resolve(g)?;
                            Ok((
                                in_d.schema.field(i).name.clone(),
                                keys.schema()
                                    .field(group_by.iter().position(|x| x == g).expect("present"))
                                    .name
                                    .clone(),
                            ))
                        })
                        .collect::<Result<_>>()?
                };
                let restricted = Plan::Join {
                    left: Box::new(new_input),
                    right: Box::new(Plan::scan(KEYS_LEAF)),
                    kind: JoinKind::Semi,
                    on: group_cols,
                };
                let exact_plan = Plan::Aggregate {
                    input: Box::new(restricted),
                    group_by: group_by.clone(),
                    aggregates: aggregates.clone(),
                };
                let mut b2 = maintenance_bindings(db, deltas, view.table());
                b2.bind(KEYS_LEAF, &keys);
                evaluate(&exact_plan, &b2)
            }
            _ => Ok(marker),
        }
    }

    /// Is this index usable for a given cleaning run? Per Section 6.2,
    /// "the only eligible indices are ones on base relations that are being
    /// sampled" — i.e. the hash pushes down to that relation (or to one of
    /// its delta relations, which carry the same records).
    pub fn eligible(&self, sampled_leaves: &[String]) -> bool {
        sampled_leaves.iter().any(|l| delta_base(l).unwrap_or(l) == self.spec.table)
    }
}

const OUTLIER_LEAF: &str = "__outliers";
const KEYS_LEAF: &str = "__okeys";

/// Replace `Scan target` with `Scan __outliers` and every other scan with
/// its new state: `__outliers` has no deltas, so recomputation leaves it as
/// the bare scan.
fn substitute_new_states(
    plan: &Plan,
    target: &str,
    info: &DeltaInfo,
    cat: &DeltaCatalog<'_>,
) -> Result<Plan> {
    let marked =
        plan.clone().rename_leaves(&mut |table| (table == target).then(|| OUTLIER_LEAF.into()));
    recompute_plan(&marked, cat, info)
}

/// Distinct prefixes (group keys) of a table's rows as a keyed table.
fn distinct_keys(table: &Table, k: usize) -> Result<Table> {
    let schema = table.schema().project(&(0..k).collect::<Vec<_>>());
    let mut out = Table::with_key_indices(schema, (0..k).collect())?;
    let mut seen: HashSet<KeyTuple> = HashSet::new();
    for row in table.rows() {
        let key = KeyTuple(row[..k].to_vec());
        if seen.insert(key) {
            out.insert(row[..k].to_vec())?;
        }
    }
    Ok(out)
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
    let reg = walk.finish(q.agg, None, m, cfg)?;
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
        Some((stale_result, stale_sample_public)),
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
    use svc_relalg::scalar::col;
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
    /// values and panic; the other policies built an index that held nothing.
    #[test]
    fn zero_capacity_is_rejected_under_every_policy() {
        let db = skewed_db();
        for policy in
            [ThresholdPolicy::TopK, ThresholdPolicy::Above(4_000.0), ThresholdPolicy::StdDevs(3.0)]
        {
            let spec = OutlierIndexSpec {
                table: "orders".into(),
                attr: "price".into(),
                policy,
                capacity: 0,
            };
            let err = OutlierIndex::build(spec, &db, &Deltas::new()).unwrap_err();
            assert!(matches!(err, StorageError::Invalid(_)), "{policy:?}: {err}");
        }
        assert_eq!(top_k(&db, &Deltas::new(), 1).records.len(), 1);
    }

    #[test]
    fn stddev_policy_tracks_distribution() {
        let db = skewed_db();
        let idx = OutlierIndex::build(
            OutlierIndexSpec {
                table: "orders".into(),
                attr: "price".into(),
                policy: ThresholdPolicy::StdDevs(3.0),
                capacity: 1000,
            },
            &db,
            &Deltas::new(),
        )
        .unwrap();
        assert!(!idx.records.is_empty());
        assert!(idx.records.len() < 100);
    }

    #[test]
    fn push_up_materializes_exact_affected_groups() {
        let db = skewed_db();
        let deltas = skewed_deltas(&db);
        let view = MaterializedView::create("v", cust_view(), &db).unwrap();
        let idx = OutlierIndex::build(
            OutlierIndexSpec {
                table: "orders".into(),
                attr: "price".into(),
                policy: ThresholdPolicy::Above(4_000.0),
                capacity: 200,
            },
            &db,
            &deltas,
        )
        .unwrap();
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
}
