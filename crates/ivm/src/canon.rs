//! Canonicalization of view definitions for change-table maintenance.
//!
//! A group-by aggregate view is rewritten so that every aggregate is either
//! *additive* (`count`, `sum`) or explicitly flagged as non-additive
//! (`min`/`max`: mergeable only under insert-only deltas; `median`: never):
//!
//! * `avg(e)` becomes a hidden `sum(e)` / `count(e)` pair, recombined in a
//!   public projection (the standard trick the paper inherits from \[22\]);
//! * a hidden `__svc_cnt = count(1)` column tracks group liveness so that
//!   groups whose rows were all deleted are recognized as *superfluous* and
//!   dropped by the maintenance plan.
//!
//! Non-aggregate (SPJ) views pass through unchanged.

use svc_relalg::aggregate::{AggFunc, AggSpec};
use svc_relalg::plan::Plan;
use svc_relalg::scalar::{col, Expr};

/// Hidden group-liveness counter column.
pub const SVC_CNT: &str = "__svc_cnt";

/// How one canonical column merges during change-table maintenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeRule {
    /// `new = stale + change` (count/sum).
    Additive,
    /// `new = least(stale, change)`; valid only under insert-only deltas.
    TakeMin,
    /// `new = greatest(stale, change)`; valid only under insert-only deltas.
    TakeMax,
    /// Not incrementally mergeable (median); forces recomputation.
    Recompute,
}

/// A canonical aggregate column: its alias in the canonical schema and how
/// it merges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanonCol {
    /// Column alias in the canonical aggregate output.
    pub alias: String,
    /// Merge behavior.
    pub rule: MergeRule,
}

/// Result of canonicalizing a view definition.
#[derive(Debug, Clone)]
pub struct Canonical {
    /// The plan to materialize (canonical form).
    pub plan: Plan,
    /// Projection from the canonical schema to the user-facing schema, or
    /// `None` when the definition was already in public form.
    pub public: Option<Vec<(String, Expr)>>,
    /// For top-level aggregate views: group-by columns and canonical column
    /// merge rules, used by the change-table strategy.
    pub agg: Option<AggShape>,
}

/// Shape information for a canonical top-level aggregate.
#[derive(Debug, Clone)]
pub struct AggShape {
    /// Group-by column names (as written in the view definition).
    pub group_by: Vec<String>,
    /// Canonical aggregate columns, in schema order after the group columns.
    pub cols: Vec<CanonCol>,
    /// The SPJ input plan under the aggregate.
    pub input: Plan,
}

impl Canonical {
    /// True iff change-table maintenance applies given whether any base
    /// deletions are pending. Min/max tolerate insert-only deltas; median
    /// never merges.
    pub fn change_table_eligible(&self, has_deletions: bool) -> bool {
        match &self.agg {
            None => true, // SPJ views maintain by keyed delta application
            Some(shape) => shape.cols.iter().all(|c| match c.rule {
                MergeRule::Additive => true,
                MergeRule::TakeMin | MergeRule::TakeMax => !has_deletions,
                MergeRule::Recompute => false,
            }),
        }
    }
}

/// Canonicalize a view definition. Top-level `Aggregate` nodes (possibly
/// wrapped in `Select`/`Project`, e.g. HAVING clauses) are rewritten; the
/// wrappers migrate into the public projection side. Everything else passes
/// through.
pub fn canonicalize(def: &Plan) -> Canonical {
    // Only a *top-level* aggregate is canonicalized; nested aggregates make
    // the view ineligible for change-table maintenance anyway (the paper's
    // V21/V22 discussion) and are handled by the recomputation strategy.
    if let Plan::Aggregate { input, group_by, aggregates } = def {
        let mut canon_aggs: Vec<AggSpec> =
            vec![AggSpec::new(SVC_CNT, AggFunc::Count, svc_relalg::scalar::lit(1i64))];
        let mut cols = vec![CanonCol { alias: SVC_CNT.into(), rule: MergeRule::Additive }];
        let mut public: Vec<(String, Expr)> =
            group_by.iter().map(|g| (short_name(g), col(g.clone()))).collect();

        for (i, spec) in aggregates.iter().enumerate() {
            match spec.func {
                AggFunc::Count => {
                    let alias = format!("__svc_c{i}");
                    canon_aggs.push(AggSpec::new(&alias, AggFunc::Count, spec.arg.clone()));
                    cols.push(CanonCol { alias: alias.clone(), rule: MergeRule::Additive });
                    public.push((spec.alias.clone(), col(alias)));
                }
                AggFunc::Sum => {
                    let alias = format!("__svc_s{i}");
                    canon_aggs.push(AggSpec::new(&alias, AggFunc::Sum, spec.arg.clone()));
                    cols.push(CanonCol { alias: alias.clone(), rule: MergeRule::Additive });
                    public.push((spec.alias.clone(), col(alias)));
                }
                AggFunc::Avg => {
                    let s = format!("__svc_s{i}");
                    let n = format!("__svc_n{i}");
                    canon_aggs.push(AggSpec::new(&s, AggFunc::Sum, spec.arg.clone()));
                    canon_aggs.push(AggSpec::new(&n, AggFunc::Count, spec.arg.clone()));
                    cols.push(CanonCol { alias: s.clone(), rule: MergeRule::Additive });
                    cols.push(CanonCol { alias: n.clone(), rule: MergeRule::Additive });
                    public.push((spec.alias.clone(), col(s).div(col(n))));
                }
                AggFunc::Min | AggFunc::Max => {
                    let alias = format!("__svc_m{i}");
                    canon_aggs.push(AggSpec::new(&alias, spec.func, spec.arg.clone()));
                    cols.push(CanonCol {
                        alias: alias.clone(),
                        rule: if spec.func == AggFunc::Min {
                            MergeRule::TakeMin
                        } else {
                            MergeRule::TakeMax
                        },
                    });
                    public.push((spec.alias.clone(), col(alias)));
                }
                AggFunc::Median => {
                    let alias = format!("__svc_md{i}");
                    canon_aggs.push(AggSpec::new(&alias, AggFunc::Median, spec.arg.clone()));
                    cols.push(CanonCol { alias: alias.clone(), rule: MergeRule::Recompute });
                    public.push((spec.alias.clone(), col(alias)));
                }
            }
        }

        let plan = Plan::Aggregate {
            input: input.clone(),
            group_by: group_by.clone(),
            aggregates: canon_aggs,
        };
        return Canonical {
            plan,
            public: Some(public),
            agg: Some(AggShape { group_by: group_by.clone(), cols, input: (**input).clone() }),
        };
    }

    Canonical { plan: def.clone(), public: None, agg: None }
}

/// The unqualified tail of a possibly qualified column name, used for the
/// public schema of group columns.
fn short_name(name: &str) -> String {
    name.rsplit('.').next().unwrap_or(name).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use svc_relalg::plan::JoinKind;
    use svc_relalg::scalar::lit;

    fn agg_view() -> Plan {
        Plan::scan("log")
            .join(Plan::scan("video"), JoinKind::Inner, &[("videoId", "videoId")])
            .aggregate(
                &["videoId"],
                vec![
                    AggSpec::count_all("visits"),
                    AggSpec::new("avgDur", AggFunc::Avg, col("duration")),
                ],
            )
    }

    #[test]
    fn avg_decomposes_into_sum_and_count() {
        let c = canonicalize(&agg_view());
        let shape = c.agg.as_ref().unwrap();
        assert_eq!(shape.group_by, vec!["videoId"]);
        // __svc_cnt + count + (sum, count) for avg
        assert_eq!(shape.cols.len(), 4);
        assert!(shape.cols.iter().all(|c| c.rule == MergeRule::Additive));
        let public = c.public.as_ref().unwrap();
        assert_eq!(public.len(), 3); // videoId, visits, avgDur
        assert_eq!(public[0].0, "videoId");
        assert_eq!(public[2].0, "avgDur");
    }

    #[test]
    fn min_max_eligible_only_without_deletions() {
        let view = Plan::scan("video")
            .aggregate(&["ownerId"], vec![AggSpec::new("longest", AggFunc::Max, col("duration"))]);
        let c = canonicalize(&view);
        assert!(c.change_table_eligible(false));
        assert!(!c.change_table_eligible(true));
    }

    #[test]
    fn median_forces_recompute() {
        let view = Plan::scan("video").aggregate(
            &["ownerId"],
            vec![AggSpec::new("medDur", AggFunc::Median, col("duration"))],
        );
        let c = canonicalize(&view);
        assert!(!c.change_table_eligible(false));
    }

    #[test]
    fn spj_views_pass_through() {
        let view = Plan::scan("video").select(col("duration").gt(lit(1.0)));
        let c = canonicalize(&view);
        assert!(c.public.is_none());
        assert!(c.agg.is_none());
        assert!(c.change_table_eligible(true));
        assert_eq!(c.plan, view);
    }

    #[test]
    fn qualified_group_columns_get_short_public_names() {
        let view = Plan::scan("log")
            .join(Plan::scan("video"), JoinKind::Inner, &[("videoId", "ownerId")])
            .aggregate(&["video.videoId"], vec![AggSpec::count_all("n")]);
        let c = canonicalize(&view);
        assert_eq!(c.public.as_ref().unwrap()[0].0, "videoId");
    }
}
