//! The relational expression tree ("plan"): the paper's view-definition
//! language (Section 3.1) plus the η hashing operator (Section 4.4) as a
//! first-class node so that maintenance strategies and their sampled
//! variants are all just plans.

use svc_storage::HashSpec;

use crate::aggregate::AggSpec;
use crate::scalar::Expr;

/// Join kinds. The paper writes `./` for all joins "even extended outer
/// joins"; `Semi`/`Anti` are internal additions used by the IVM engine to
/// express keyed set operations (they preserve the left relation's schema
/// and key, so Definition 2 extends to them trivially).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// Inner equi-join.
    Inner,
    /// Left outer join.
    Left,
    /// Right outer join.
    Right,
    /// Full outer join (used by change-table merges, Example 1).
    Full,
    /// Left semi-join: left rows with at least one match.
    Semi,
    /// Left anti-join: left rows with no match.
    Anti,
}

/// A relational expression. Leaves are named relations resolved at
/// evaluation time through [`crate::eval::Bindings`], which lets the same
/// plan shape serve as a view definition (leaves = base tables) or as a
/// maintenance strategy (leaves = stale view, base tables, delta tables).
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// A named leaf relation.
    Scan {
        /// Name of the relation, resolved via bindings.
        table: String,
    },
    /// Selection σ_φ(R).
    Select {
        /// Input plan.
        input: Box<Plan>,
        /// Row predicate.
        predicate: Expr,
    },
    /// Generalized projection Π_{a1,...,ak}(R); may add computed columns.
    Project {
        /// Input plan.
        input: Box<Plan>,
        /// Output columns as `(alias, expression)`.
        columns: Vec<(String, Expr)>,
    },
    /// Equi-join of two plans.
    Join {
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
        /// The join flavor.
        kind: JoinKind,
        /// Equality pairs `(left_col, right_col)`.
        on: Vec<(String, String)>,
    },
    /// Group-by aggregation γ_{f,A}(R).
    Aggregate {
        /// Input plan.
        input: Box<Plan>,
        /// Grouping column names (`A`). May be empty for a global aggregate.
        group_by: Vec<String>,
        /// Aggregate outputs.
        aggregates: Vec<AggSpec>,
    },
    /// Set union (duplicate rows collapse).
    Union {
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
    },
    /// Set intersection.
    Intersect {
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
    },
    /// Set difference (left minus right).
    Difference {
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
    },
    /// The hashing operator η_{a,m}(R): keep rows whose key hashes ≤ ratio.
    Hash {
        /// Input plan.
        input: Box<Plan>,
        /// Key columns `a` to hash (usually the relation's primary key).
        key: Vec<String>,
        /// Sampling ratio `m` in `[0, 1]`.
        ratio: f64,
        /// The seeded hash function.
        spec: HashSpec,
    },
}

impl Plan {
    /// A leaf scan.
    pub fn scan(table: impl Into<String>) -> Plan {
        Plan::Scan { table: table.into() }
    }

    /// Selection.
    pub fn select(self, predicate: Expr) -> Plan {
        Plan::Select { input: Box::new(self), predicate }
    }

    /// Generalized projection from `(alias, expr)` pairs.
    pub fn project(self, columns: Vec<(impl Into<String>, Expr)>) -> Plan {
        Plan::Project {
            input: Box::new(self),
            columns: columns.into_iter().map(|(n, e)| (n.into(), e)).collect(),
        }
    }

    /// Equi-join with another plan.
    pub fn join(self, other: Plan, kind: JoinKind, on: &[(&str, &str)]) -> Plan {
        Plan::Join {
            left: Box::new(self),
            right: Box::new(other),
            kind,
            on: on.iter().map(|(l, r)| (l.to_string(), r.to_string())).collect(),
        }
    }

    /// Group-by aggregation.
    pub fn aggregate(self, group_by: &[&str], aggregates: Vec<AggSpec>) -> Plan {
        Plan::Aggregate {
            input: Box::new(self),
            group_by: group_by.iter().map(|s| s.to_string()).collect(),
            aggregates,
        }
    }

    /// Set union.
    pub fn union(self, other: Plan) -> Plan {
        Plan::Union { left: Box::new(self), right: Box::new(other) }
    }

    /// Set intersection.
    pub fn intersect(self, other: Plan) -> Plan {
        Plan::Intersect { left: Box::new(self), right: Box::new(other) }
    }

    /// Set difference.
    pub fn difference(self, other: Plan) -> Plan {
        Plan::Difference { left: Box::new(self), right: Box::new(other) }
    }

    /// Wrap in the η hashing operator.
    pub fn hash(self, key: &[&str], ratio: f64, spec: HashSpec) -> Plan {
        Plan::Hash {
            input: Box::new(self),
            key: key.iter().map(|s| s.to_string()).collect(),
            ratio,
            spec,
        }
    }

    /// Names of all leaf relations referenced by this plan.
    pub fn leaf_tables(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_leaves(&mut out);
        out
    }

    fn collect_leaves<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Plan::Scan { table } => out.push(table),
            Plan::Select { input, .. } | Plan::Project { input, .. } => input.collect_leaves(out),
            Plan::Aggregate { input, .. } | Plan::Hash { input, .. } => input.collect_leaves(out),
            Plan::Join { left, right, .. }
            | Plan::Union { left, right }
            | Plan::Intersect { left, right }
            | Plan::Difference { left, right } => {
                left.collect_leaves(out);
                right.collect_leaves(out);
            }
        }
    }

    /// Rewrite every leaf name through `f` (`None` keeps the name). Used by
    /// the mini-batch maintenance path to give each delta chunk its own
    /// `__ins.T@p` / `__del.T@p` bindings while sharing one plan shape.
    pub fn rename_leaves(self, f: &mut impl FnMut(&str) -> Option<String>) -> Plan {
        match self {
            Plan::Scan { table } => {
                let table = f(&table).unwrap_or(table);
                Plan::Scan { table }
            }
            Plan::Select { input, predicate } => {
                Plan::Select { input: Box::new(input.rename_leaves(f)), predicate }
            }
            Plan::Project { input, columns } => {
                Plan::Project { input: Box::new(input.rename_leaves(f)), columns }
            }
            Plan::Join { left, right, kind, on } => Plan::Join {
                left: Box::new(left.rename_leaves(f)),
                right: Box::new(right.rename_leaves(f)),
                kind,
                on,
            },
            Plan::Aggregate { input, group_by, aggregates } => {
                Plan::Aggregate { input: Box::new(input.rename_leaves(f)), group_by, aggregates }
            }
            Plan::Union { left, right } => Plan::Union {
                left: Box::new(left.rename_leaves(f)),
                right: Box::new(right.rename_leaves(f)),
            },
            Plan::Intersect { left, right } => Plan::Intersect {
                left: Box::new(left.rename_leaves(f)),
                right: Box::new(right.rename_leaves(f)),
            },
            Plan::Difference { left, right } => Plan::Difference {
                left: Box::new(left.rename_leaves(f)),
                right: Box::new(right.rename_leaves(f)),
            },
            Plan::Hash { input, key, ratio, spec } => {
                Plan::Hash { input: Box::new(input.rename_leaves(f)), key, ratio, spec }
            }
        }
    }

    /// A short name for the relation produced by this plan, used to
    /// disambiguate column names on join outputs.
    pub fn name_hint(&self) -> &str {
        match self {
            Plan::Scan { table } => table,
            Plan::Select { input, .. } | Plan::Project { input, .. } => input.name_hint(),
            Plan::Hash { input, .. } => input.name_hint(),
            Plan::Aggregate { .. } => "agg",
            Plan::Join { .. } => "join",
            Plan::Union { .. } => "union",
            Plan::Intersect { .. } => "intersect",
            Plan::Difference { .. } => "diff",
        }
    }

    /// Number of operator nodes in the tree (leaves included).
    pub fn node_count(&self) -> usize {
        match self {
            Plan::Scan { .. } => 1,
            Plan::Select { input, .. }
            | Plan::Project { input, .. }
            | Plan::Aggregate { input, .. }
            | Plan::Hash { input, .. } => 1 + input.node_count(),
            Plan::Join { left, right, .. }
            | Plan::Union { left, right }
            | Plan::Intersect { left, right }
            | Plan::Difference { left, right } => 1 + left.node_count() + right.node_count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggFunc;
    use crate::scalar::{col, lit};

    #[test]
    fn builders_compose() {
        let plan = Plan::scan("log")
            .join(Plan::scan("video"), JoinKind::Inner, &[("videoId", "videoId")])
            .aggregate(&["videoId"], vec![AggSpec::new("visitCount", AggFunc::Count, lit(1i64))])
            .select(col("visitCount").gt(lit(100i64)));
        assert_eq!(plan.node_count(), 5);
        assert_eq!(plan.leaf_tables(), vec!["log", "video"]);
    }

    #[test]
    fn name_hint_passes_through_unary_ops() {
        let plan = Plan::scan("video").select(col("duration").gt(lit(1.5)));
        assert_eq!(plan.name_hint(), "video");
    }
}
