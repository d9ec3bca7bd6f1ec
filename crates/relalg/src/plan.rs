//! The relational expression tree ("plan"): the paper's view-definition
//! language (Section 3.1) plus the η hashing operator (Section 4.4) as a
//! first-class node so that maintenance strategies and their sampled
//! variants are all just plans.

use std::convert::Infallible;

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

impl JoinKind {
    /// True when the join never NULL-pads its left input's columns, so a row
    /// filter (σ or η) over left columns alone commutes into the left input.
    pub(crate) fn left_unpadded(self) -> bool {
        matches!(self, JoinKind::Inner | JoinKind::Left | JoinKind::Semi | JoinKind::Anti)
    }

    /// True when the join never NULL-pads its right input's columns (and
    /// outputs them at all), so a row filter over right columns alone
    /// commutes into the right input.
    pub(crate) fn right_unpadded(self) -> bool {
        matches!(self, JoinKind::Inner | JoinKind::Right)
    }
}

/// The three set operations, the tag of [`Plan::SetOp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetOpKind {
    /// ∪
    Union,
    /// ∩
    Intersect,
    /// − (left minus right)
    Difference,
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
    /// A set operation ∪ / ∩ / − under set semantics (duplicate rows
    /// collapse); both inputs agree positionally on column types.
    SetOp {
        /// Which of the three operations.
        kind: SetOpKind,
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
        self.set_op(SetOpKind::Union, other)
    }

    /// Set intersection.
    pub fn intersect(self, other: Plan) -> Plan {
        self.set_op(SetOpKind::Intersect, other)
    }

    /// Set difference.
    pub fn difference(self, other: Plan) -> Plan {
        self.set_op(SetOpKind::Difference, other)
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

    fn set_op(self, kind: SetOpKind, other: Plan) -> Plan {
        Plan::SetOp { kind, left: Box::new(self), right: Box::new(other) }
    }

    /// This node's inputs in plan order — none for a leaf, `input` for a
    /// unary node, `left` then `right` for a binary one. Read-only walkers
    /// fold over this instead of matching on every variant.
    pub fn children(&self) -> impl Iterator<Item = &Plan> {
        let (first, second) = match self {
            Plan::Scan { .. } => (None, None),
            Plan::Select { input, .. }
            | Plan::Project { input, .. }
            | Plan::Aggregate { input, .. }
            | Plan::Hash { input, .. } => (Some(&**input), None),
            Plan::Join { left, right, .. } | Plan::SetOp { left, right, .. } => {
                (Some(&**left), Some(&**right))
            }
        };
        first.into_iter().chain(second)
    }

    /// Rebuild this node around its inputs transformed by `f` (called in
    /// [`Plan::children`] order); every other field is kept as it is and the
    /// first error aborts the rebuild. A pass that changes only some nodes
    /// handles those and sends the rest through here.
    pub fn map_children<E>(self, f: &mut impl FnMut(Plan) -> Result<Plan, E>) -> Result<Plan, E> {
        let mut go = |child: Box<Plan>| f(*child).map(Box::new);
        Ok(match self {
            Plan::Scan { .. } => self,
            Plan::Select { input, predicate } => Plan::Select { input: go(input)?, predicate },
            Plan::Project { input, columns } => Plan::Project { input: go(input)?, columns },
            Plan::Join { left, right, kind, on } => {
                Plan::Join { left: go(left)?, right: go(right)?, kind, on }
            }
            Plan::Aggregate { input, group_by, aggregates } => {
                Plan::Aggregate { input: go(input)?, group_by, aggregates }
            }
            Plan::SetOp { kind, left, right } => {
                Plan::SetOp { kind, left: go(left)?, right: go(right)? }
            }
            Plan::Hash { input, key, ratio, spec } => {
                Plan::Hash { input: go(input)?, key, ratio, spec }
            }
        })
    }

    /// Replace every leaf by the plan `f` returns for its name, visiting
    /// leaves in [`Plan::leaf_tables`] order; non-leaf nodes are untouched.
    pub fn substitute_leaves<E>(
        self,
        f: &mut impl FnMut(String) -> Result<Plan, E>,
    ) -> Result<Plan, E> {
        match self {
            Plan::Scan { table } => f(table),
            node => node.map_children(&mut |child| child.substitute_leaves(f)),
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
            node => node.children().for_each(|child| child.collect_leaves(out)),
        }
    }

    /// Rewrite every leaf name through `f` (`None` keeps the name).
    pub fn rename_leaves(self, f: &mut impl FnMut(&str) -> Option<String>) -> Plan {
        let renamed: Result<Plan, Infallible> = self
            .substitute_leaves(&mut |table| Ok(Plan::Scan { table: f(&table).unwrap_or(table) }));
        match renamed {
            Ok(plan) => plan,
            Err(never) => match never {},
        }
    }

    /// A short name for the relation produced by this plan, used to
    /// disambiguate column names on join outputs. Operators that keep their
    /// left input's schema — σ, Π, η, semi/anti joins and set operations —
    /// keep its name too, so a table's new state `(T ▷ ∇T) ∪ ∆T` names a
    /// collided column `T.x`, as `T` itself does.
    pub fn name_hint(&self) -> &str {
        match self {
            Plan::Scan { table } => table,
            Plan::Select { input, .. } | Plan::Project { input, .. } | Plan::Hash { input, .. } => {
                input.name_hint()
            }
            Plan::Join { left, kind: JoinKind::Semi | JoinKind::Anti, .. }
            | Plan::SetOp { left, .. } => left.name_hint(),
            Plan::Aggregate { .. } => "agg",
            Plan::Join { .. } => "join",
        }
    }

    /// Number of operator nodes in the tree (leaves included).
    pub fn node_count(&self) -> usize {
        1 + self.children().map(Plan::node_count).sum::<usize>()
    }
}

/// Leaf name of the rows inserted into `table` (`∆T`) in a delta plan.
pub fn ins_leaf(table: &str) -> String {
    format!("__ins.{table}")
}

/// Leaf name of the rows deleted from `table` (`∇T`) in a delta plan.
pub fn del_leaf(table: &str) -> String {
    format!("__del.{table}")
}

/// Leaf name of `table`'s new state `T′ = (T ▷ ∇T) ∪ ∆T`, typed as `table`.
/// Nothing binds it: the evaluators read it as the plain union
/// `(T ▷ __del.T) ∪ __ins.T` over the bindings of those three leaves, and
/// the compiled executor, where it is the right side of an inner join on
/// its whole key, probes their three key indexes as one layered lookup.
pub fn new_leaf(table: &str) -> String {
    format!("__new.{table}")
}

/// The table a new-state leaf (`__new.T`) reads, `None` for any other leaf.
pub fn new_state_base(leaf: &str) -> Option<&str> {
    leaf.strip_prefix("__new.")
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

    /// One plan of every variant (set operations: one per kind), each over
    /// leaves named in left-to-right order.
    fn one_of_each() -> Vec<Plan> {
        let spec = HashSpec::with_seed(7);
        vec![
            Plan::scan("a"),
            Plan::scan("a").select(col("x").gt(lit(1i64))),
            Plan::scan("a").project(vec![("x", col("x"))]),
            Plan::scan("a").join(Plan::scan("b"), JoinKind::Left, &[("x", "y")]),
            Plan::scan("a").aggregate(&["x"], vec![AggSpec::count_all("n")]),
            Plan::scan("a").union(Plan::scan("b")),
            Plan::scan("a").intersect(Plan::scan("b")),
            Plan::scan("a").difference(Plan::scan("b")),
            Plan::scan("a").hash(&["x"], 0.25, spec),
        ]
    }

    #[test]
    fn children_follow_arity_in_left_then_right_order() {
        let arities: Vec<usize> = one_of_each().iter().map(|p| p.children().count()).collect();
        assert_eq!(arities, vec![0, 1, 1, 2, 1, 2, 2, 2, 1]);
        for plan in one_of_each() {
            let leaves: Vec<&str> = plan.children().flat_map(Plan::leaf_tables).collect();
            assert_eq!(leaves, ["a", "b"][..plan.children().count()]);
        }
    }

    #[test]
    fn map_children_identity_rebuilds_an_equal_plan() {
        for plan in one_of_each() {
            let rebuilt = plan.clone().map_children(&mut Ok::<Plan, ()>).unwrap();
            assert_eq!(rebuilt, plan);
        }
        // The first failing input aborts the rebuild.
        let mut seen = 0;
        let failed = Plan::scan("a").union(Plan::scan("b")).map_children(&mut |_| {
            seen += 1;
            Err::<Plan, _>("stop")
        });
        assert_eq!((failed, seen), (Err("stop"), 1));
    }

    #[test]
    fn leaf_substitution_visits_leaf_tables_order_and_keeps_other_fields() {
        let plan = Plan::scan("log")
            .join(Plan::scan("video"), JoinKind::Inner, &[("videoId", "videoId")])
            .aggregate(&["videoId"], vec![AggSpec::count_all("n")])
            .difference(Plan::scan("log").hash(&["videoId"], 0.5, HashSpec::with_seed(3)))
            .select(col("n").gt(lit(1i64)));
        let mut visited = Vec::new();
        let renamed = plan.clone().rename_leaves(&mut |name| {
            visited.push(name.to_string());
            (name == "log").then(|| "log@1".to_string())
        });
        assert_eq!(visited, plan.leaf_tables());
        assert_eq!(renamed.leaf_tables(), vec!["log@1", "video", "log@1"]);
        // Renaming back restores the plan exactly: nothing but leaves moved.
        let back = renamed.rename_leaves(&mut |name| name.strip_suffix("@1").map(str::to_string));
        assert_eq!(back, plan);

        // A leaf may become a whole subplan.
        let grown = Plan::scan("a")
            .union(Plan::scan("b"))
            .substitute_leaves(&mut |t| Ok::<_, ()>(Plan::scan(t).select(lit(true))))
            .unwrap();
        assert_eq!(
            grown,
            Plan::scan("a").select(lit(true)).union(Plan::scan("b").select(lit(true)))
        );
    }

    #[test]
    fn set_operations_keep_their_display_labels_and_name_hints() {
        let plans = one_of_each();
        let labels: Vec<(String, &str)> = plans[5..8]
            .iter()
            .map(|p| (p.to_string().lines().next().unwrap().to_string(), p.name_hint()))
            .collect();
        // A set operation keeps its left input's schema, and its name.
        assert_eq!(
            labels,
            vec![
                ("Union ∪".to_string(), "a"),
                ("Intersect ∩".to_string(), "a"),
                ("Difference −".to_string(), "a"),
            ]
        );
        let anti = Plan::scan("a").join(Plan::scan("b"), JoinKind::Anti, &[("x", "y")]);
        let semi = Plan::scan("a").join(Plan::scan("b"), JoinKind::Semi, &[("x", "y")]);
        assert_eq!((anti.name_hint(), semi.name_hint()), ("a", "a"));
        assert_eq!(plans[3].name_hint(), "join", "an outer join's schema is both inputs'");
    }

    /// `left_unpadded` / `right_unpadded` agree with evaluation: joining two
    /// inputs that each hold an unmatched row, a kind NULL-pads a side's
    /// (never-NULL) key column exactly when it does not report that side
    /// unpadded; Semi/Anti output no right column at all.
    #[test]
    fn unpadded_sides_match_evaluated_joins() {
        use crate::eval::{evaluate, Bindings};
        use svc_storage::{DataType, Database, Schema, Table, Value};
        let mut db = Database::new();
        for (name, key, ids) in [("l", "id", [1i64, 2]), ("r", "rid", [1, 3])] {
            let schema = Schema::from_pairs(&[(key, DataType::Int)]).unwrap();
            let mut t = Table::new(schema, &[key]).unwrap();
            for id in ids {
                t.insert(vec![Value::Int(id)]).unwrap();
            }
            db.create_table(name, t);
        }
        let b = Bindings::from_database(&db);
        for kind in [
            JoinKind::Inner,
            JoinKind::Left,
            JoinKind::Right,
            JoinKind::Full,
            JoinKind::Semi,
            JoinKind::Anti,
        ] {
            let out = evaluate(&Plan::scan("l").join(Plan::scan("r"), kind, &[("id", "rid")]), &b)
                .unwrap();
            let padded = |col: usize| out.rows().iter().any(|row| row[col].is_null());
            let has_right = out.schema().len() == 2;
            assert_eq!(kind.left_unpadded(), !padded(0), "{kind:?}");
            assert_eq!(kind.right_unpadded(), has_right && !padded(1), "{kind:?}");
        }
    }
}
