//! Output schema and primary-key derivation for every plan node —
//! Definition 2 ("Primary Key Generation") of the paper.
//!
//! Each rule both *infers* the output schema and *constructs* the output
//! primary key:
//!
//! * σ, η: key of the input;
//! * Π: key of the input, which **must** be projected as bare columns
//!   ("the primary key must always be included in the projection");
//! * ⋈: the concatenation of both input keys — except that when one side is
//!   joined on its entire primary key (the foreign-key special case of
//!   Section 4.4), the other side's key alone already identifies rows and
//!   the key is *reduced* accordingly;
//! * γ: the group-by columns;
//! * ∪: the union of the input keys; ∩: their intersection (falling back to
//!   the left key when the intersection is empty, which is still unique
//!   because the result is a subset of the left input); −: the left key.

use svc_storage::{DataType, Database, Field, Result, Schema, StorageError};

use crate::aggregate::AggSpec;
use crate::plan::{JoinKind, Plan, SetOpKind};
use crate::scalar::Expr;

/// The derived "type" of a relation: its schema plus primary-key positions.
#[derive(Debug, Clone, PartialEq)]
pub struct Derived {
    /// Output schema.
    pub schema: Schema,
    /// Positions of the primary-key columns within `schema`.
    pub key: Vec<usize>,
}

impl Derived {
    /// The names of the key columns.
    pub fn key_names(&self) -> Vec<&str> {
        self.key.iter().map(|&i| self.schema.field(i).name.as_str()).collect()
    }
}

/// Resolves leaf relation names to their derived type.
pub trait LeafProvider {
    /// The schema and key of leaf `name`, if known.
    fn leaf(&self, name: &str) -> Option<Derived>;
}

impl<T: LeafProvider + ?Sized> LeafProvider for &T {
    fn leaf(&self, name: &str) -> Option<Derived> {
        (**self).leaf(name)
    }
}

impl LeafProvider for Database {
    fn leaf(&self, name: &str) -> Option<Derived> {
        self.table(name).ok().map(|t| Derived { schema: t.schema().clone(), key: t.key().to_vec() })
    }
}

/// Derive schema and key for a whole plan.
pub fn derive(plan: &Plan, leaves: &(impl LeafProvider + ?Sized)) -> Result<Derived> {
    Ok(derive_tree(plan, leaves)?.derived)
}

/// The derived type of every node of a plan, mirroring the plan's tree
/// shape: `children` are in plan order (`input`, or `left` then `right`).
///
/// One [`derive_tree`] pass costs O(nodes) total because each node's type is
/// computed from its children's already-derived types. The optimizer rules
/// walk a plan and its `DerivedTree` in lockstep instead of calling
/// [`derive()`] (an O(subtree) recursion) at every node they visit, which is
/// what kept a full optimize() sweep at O(n²) derive work before.
#[derive(Debug, Clone, PartialEq)]
pub struct DerivedTree {
    /// This node's derived type.
    pub derived: Derived,
    /// Children in plan order.
    pub children: Vec<DerivedTree>,
}

impl DerivedTree {
    /// A unary node above `child`.
    pub fn unary(derived: Derived, child: DerivedTree) -> DerivedTree {
        DerivedTree { derived, children: vec![child] }
    }

    /// A binary node above `left` and `right`.
    pub fn binary(derived: Derived, left: DerivedTree, right: DerivedTree) -> DerivedTree {
        DerivedTree { derived, children: vec![left, right] }
    }

    /// The single child of a unary node.
    pub fn input(&self) -> &DerivedTree {
        &self.children[0]
    }

    /// The two children of a binary node.
    pub fn pair(&self) -> (&DerivedTree, &DerivedTree) {
        (&self.children[0], &self.children[1])
    }
}

/// Derive the whole plan bottom-up in one O(nodes) pass.
pub fn derive_tree(plan: &Plan, leaves: &(impl LeafProvider + ?Sized)) -> Result<DerivedTree> {
    let children =
        plan.children().map(|child| derive_tree(child, leaves)).collect::<Result<Vec<_>>>()?;
    derive_node(plan, children, leaves)
}

/// The type of one node from its inputs' already-derived trees (`children`,
/// in [`Plan::children`] order) — the one place a plan variant is mapped to
/// its Definition 2 rule.
pub(crate) fn derive_node(
    plan: &Plan,
    children: Vec<DerivedTree>,
    leaves: &(impl LeafProvider + ?Sized),
) -> Result<DerivedTree> {
    let input = |i: usize| &children[i].derived;
    let derived = match plan {
        Plan::Scan { table } => {
            leaves.leaf(table).ok_or_else(|| StorageError::UnknownTable(table.clone()))?
        }
        Plan::Select { predicate, .. } => derive_select(input(0), predicate)?,
        Plan::Project { columns, .. } => derive_project(input(0), columns)?,
        Plan::Join { right, kind, on, .. } => {
            derive_join(input(0), input(1), *kind, on, right.name_hint())?.0
        }
        Plan::Aggregate { group_by, aggregates, .. } => {
            derive_aggregate(input(0), group_by, aggregates)?
        }
        Plan::SetOp { kind, .. } => derive_setop(input(0), input(1), *kind)?,
        Plan::Hash { key, ratio, .. } => derive_hash(input(0), key, *ratio)?,
    };
    Ok(DerivedTree { derived, children })
}

/// σ: validate the predicate binds; schema and key pass through.
pub fn derive_select(input: &Derived, predicate: &Expr) -> Result<Derived> {
    predicate.bind(&input.schema)?;
    Ok(input.clone())
}

/// Π: compute the output schema from the column expressions and require the
/// input key to survive as bare column references.
pub fn derive_project(input: &Derived, columns: &[(String, Expr)]) -> Result<Derived> {
    let mut fields = Vec::with_capacity(columns.len());
    for (alias, expr) in columns {
        expr.bind(&input.schema)?;
        fields.push(Field::new(alias.clone(), expr.infer_type(&input.schema)?));
    }
    let schema = Schema::new(fields)?;

    let mut key = Vec::with_capacity(input.key.len());
    for &kidx in &input.key {
        let pos = columns.iter().position(|(_, e)| {
            e.as_col().and_then(|name| input.schema.resolve(name).ok()).is_some_and(|i| i == kidx)
        });
        match pos {
            Some(p) => key.push(p),
            None => {
                return Err(StorageError::Invalid(format!(
                    "projection drops primary key column `{}` (Definition 2 requires the key \
                     to be included in the projection)",
                    input.schema.field(kidx).name
                )))
            }
        }
    }
    Ok(Derived { schema, key })
}

/// ⋈: concatenated schema (right-side collisions renamed via `right_hint`),
/// key per Definition 2 with foreign-key reduction. Returns the resolved
/// join column index pairs alongside the derived type.
pub fn derive_join(
    left: &Derived,
    right: &Derived,
    kind: JoinKind,
    on: &[(String, String)],
    right_hint: &str,
) -> Result<(Derived, Vec<(usize, usize)>)> {
    let mut on_idx = Vec::with_capacity(on.len());
    for (l, r) in on {
        let li = left.schema.resolve(l)?;
        let ri = right.schema.resolve(r)?;
        let lt = left.schema.field(li).dtype;
        let rt = right.schema.field(ri).dtype;
        let numeric = |t: DataType| matches!(t, DataType::Int | DataType::Float);
        if lt != rt && !(numeric(lt) && numeric(rt)) {
            return Err(StorageError::TypeMismatch {
                expected: lt,
                found: rt.to_string(),
                context: format!("join condition {l} = {r}"),
            });
        }
        on_idx.push((li, ri));
    }

    if matches!(kind, JoinKind::Semi | JoinKind::Anti) {
        return Ok((left.clone(), on_idx));
    }

    let schema = Schema::concat(&left.schema, &right.schema, right_hint)?;
    let right_offset = left.schema.len();

    let covers = |key: &[usize], join_cols: &[usize]| -> bool {
        !key.is_empty() && key.iter().all(|k| join_cols.contains(k))
    };
    let right_join_cols: Vec<usize> = on_idx.iter().map(|&(_, r)| r).collect();
    let left_join_cols: Vec<usize> = on_idx.iter().map(|&(l, _)| l).collect();

    // Key reduction: joining on the entire key of one side means each row of
    // the other side matches at most one partner (the FK-join case).
    let key = if matches!(kind, JoinKind::Inner | JoinKind::Left)
        && covers(&right.key, &right_join_cols)
    {
        left.key.clone()
    } else if matches!(kind, JoinKind::Inner | JoinKind::Right)
        && covers(&left.key, &left_join_cols)
    {
        right.key.iter().map(|&k| k + right_offset).collect()
    } else {
        let mut k = left.key.clone();
        k.extend(right.key.iter().map(|&i| i + right_offset));
        k
    };

    Ok((Derived { schema, key }, on_idx))
}

/// γ: schema = group columns followed by aggregate outputs; key = the group
/// columns.
pub fn derive_aggregate(input: &Derived, group_by: &[String], aggs: &[AggSpec]) -> Result<Derived> {
    let mut fields = Vec::with_capacity(group_by.len() + aggs.len());
    for g in group_by {
        let i = input.schema.resolve(g)?;
        fields.push(input.schema.field(i).clone());
    }
    for spec in aggs {
        spec.arg.bind(&input.schema)?;
        let arg_type = spec.arg.infer_type(&input.schema)?;
        fields.push(Field::new(spec.alias.clone(), spec.func.output_type(arg_type)));
    }
    let schema = Schema::new(fields)?;
    Ok(Derived { schema, key: (0..group_by.len()).collect() })
}

/// ∪ / ∩ / −: inputs must agree positionally on types; output takes the left
/// schema; keys follow Definition 2.
pub fn derive_setop(left: &Derived, right: &Derived, op: SetOpKind) -> Result<Derived> {
    if left.schema.len() != right.schema.len() {
        return Err(StorageError::Invalid(format!(
            "set operation arity mismatch: {} vs {}",
            left.schema.len(),
            right.schema.len()
        )));
    }
    for i in 0..left.schema.len() {
        let lt = left.schema.field(i).dtype;
        let rt = right.schema.field(i).dtype;
        if lt != rt {
            return Err(StorageError::TypeMismatch {
                expected: lt,
                found: rt.to_string(),
                context: format!("set operation column {i}"),
            });
        }
    }
    let key = match op {
        // Two sides keyed alike keep that key as declared, column order
        // included: a delta `∆L ⋈ R ∪ L ⋈ ∆R` is keyed exactly like `L ⋈ R`.
        SetOpKind::Union if left.key == right.key => left.key.clone(),
        SetOpKind::Union => {
            let mut k: Vec<usize> = left.key.iter().chain(right.key.iter()).copied().collect();
            k.sort_unstable();
            k.dedup();
            k
        }
        SetOpKind::Intersect => {
            let k: Vec<usize> =
                left.key.iter().copied().filter(|i| right.key.contains(i)).collect();
            if k.is_empty() {
                left.key.clone()
            } else {
                k
            }
        }
        SetOpKind::Difference => left.key.clone(),
    };
    Ok(Derived { schema: left.schema.clone(), key })
}

/// η: key columns must resolve; schema and key pass through.
pub fn derive_hash(input: &Derived, key: &[String], ratio: f64) -> Result<Derived> {
    if !(0.0..=1.0).contains(&ratio) {
        return Err(StorageError::Invalid(format!("sampling ratio {ratio} outside [0, 1]")));
    }
    input.schema.resolve_all(key)?;
    Ok(input.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::{col, lit};
    use std::collections::HashMap;

    struct Leaves(HashMap<String, Derived>);

    impl LeafProvider for Leaves {
        fn leaf(&self, name: &str) -> Option<Derived> {
            self.0.get(name).cloned()
        }
    }

    fn leaves() -> Leaves {
        let mut m = HashMap::new();
        m.insert(
            "log".to_string(),
            Derived {
                schema: Schema::from_pairs(&[
                    ("sessionId", DataType::Int),
                    ("videoId", DataType::Int),
                ])
                .unwrap(),
                key: vec![0],
            },
        );
        m.insert(
            "video".to_string(),
            Derived {
                schema: Schema::from_pairs(&[
                    ("videoId", DataType::Int),
                    ("ownerId", DataType::Int),
                    ("duration", DataType::Float),
                ])
                .unwrap(),
                key: vec![0],
            },
        );
        Leaves(m)
    }

    /// The running-example view: join Log ⋈ Video on videoId, group by
    /// videoId — Figure 2's key-generation walkthrough.
    #[test]
    fn figure2_key_generation() {
        let join =
            Plan::scan("log").join(Plan::scan("video"), JoinKind::Inner, &[("videoId", "videoId")]);
        let d = derive(&join, &leaves()).unwrap();
        // FK reduction: video is joined on its full key, so the join is
        // keyed by log's key (sessionId) alone. This refines the paper's
        // (videoId, sessionId) composite, which remains a superkey.
        assert_eq!(d.key_names(), vec!["sessionId"]);

        let view = join.aggregate(&["videoId"], vec![AggSpec::count_all("visitCount")]);
        let d = derive(&view, &leaves()).unwrap();
        assert_eq!(d.key_names(), vec!["videoId"]);
        assert_eq!(d.schema.names(), vec!["videoId", "visitCount"]);
    }

    #[test]
    fn join_without_reduction_concatenates_keys() {
        let plan = Plan::scan("log").join(
            Plan::scan("video"),
            JoinKind::Inner,
            &[("videoId", "ownerId")], // ownerId is not video's key
        );
        let d = derive(&plan, &leaves()).unwrap();
        assert_eq!(d.key_names(), vec!["sessionId", "video.videoId"]);
    }

    #[test]
    fn full_join_keeps_concatenated_key() {
        let plan =
            Plan::scan("log").join(Plan::scan("video"), JoinKind::Full, &[("videoId", "videoId")]);
        let d = derive(&plan, &leaves()).unwrap();
        assert_eq!(d.key_names(), vec!["sessionId", "video.videoId"]);
    }

    #[test]
    fn projection_must_keep_key() {
        let ok = Plan::scan("video")
            .project(vec![("videoId", col("videoId")), ("mins", col("duration").mul(lit(60.0)))]);
        let d = derive(&ok, &leaves()).unwrap();
        assert_eq!(d.key_names(), vec!["videoId"]);

        let bad = Plan::scan("video").project(vec![("mins", col("duration"))]);
        assert!(derive(&bad, &leaves()).is_err());
    }

    #[test]
    fn select_and_hash_pass_through() {
        let plan = Plan::scan("video").select(col("duration").gt(lit(1.5))).hash(
            &["videoId"],
            0.1,
            Default::default(),
        );
        let d = derive(&plan, &leaves()).unwrap();
        assert_eq!(d.key_names(), vec!["videoId"]);
    }

    #[test]
    fn hash_ratio_validated() {
        let plan = Plan::scan("video").hash(&["videoId"], 1.5, Default::default());
        assert!(derive(&plan, &leaves()).is_err());
    }

    #[test]
    fn semi_and_anti_join_keep_left_type() {
        let plan =
            Plan::scan("video").join(Plan::scan("log"), JoinKind::Anti, &[("videoId", "videoId")]);
        let d = derive(&plan, &leaves()).unwrap();
        assert_eq!(d.schema.names(), vec!["videoId", "ownerId", "duration"]);
        assert_eq!(d.key_names(), vec!["videoId"]);
    }

    #[test]
    fn setop_type_checking() {
        let ok = Plan::scan("log").union(Plan::scan("log"));
        assert!(derive(&ok, &leaves()).is_ok());
        let bad = Plan::scan("log").union(Plan::scan("video"));
        assert!(derive(&bad, &leaves()).is_err());
    }

    #[test]
    fn global_aggregate_has_empty_key() {
        let plan = Plan::scan("log").aggregate(&[], vec![AggSpec::count_all("n")]);
        let d = derive(&plan, &leaves()).unwrap();
        assert!(d.key.is_empty());
        assert_eq!(d.schema.names(), vec!["n"]);
    }

    #[test]
    fn derive_tree_agrees_with_derive_at_every_node() {
        let plan = Plan::scan("log")
            .join(Plan::scan("video"), JoinKind::Inner, &[("videoId", "videoId")])
            .aggregate(&["videoId"], vec![AggSpec::count_all("n")])
            .select(col("n").gt(lit(1i64)))
            .hash(&["videoId"], 0.5, Default::default());
        let leaves = leaves();
        fn check(plan: &Plan, tree: &DerivedTree, leaves: &Leaves) {
            assert_eq!(tree.derived, derive(plan, leaves).unwrap());
            let children: Vec<&Plan> = plan.children().collect();
            assert_eq!(children.len(), tree.children.len());
            for (c, t) in children.iter().zip(&tree.children) {
                check(c, t, leaves);
            }
        }
        let tree = derive_tree(&plan, &leaves).unwrap();
        check(&plan, &tree, &leaves);
    }

    #[test]
    fn join_type_mismatch_rejected() {
        let mut m = leaves();
        m.0.insert(
            "tags".to_string(),
            Derived {
                schema: Schema::from_pairs(&[("tag", DataType::Str)]).unwrap(),
                key: vec![0],
            },
        );
        let plan =
            Plan::scan("log").join(Plan::scan("tags"), JoinKind::Inner, &[("videoId", "tag")]);
        assert!(derive(&plan, &m).is_err());
    }
}
