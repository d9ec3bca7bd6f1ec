//! Lowering [`Plan`]s to physical nodes: schemas derived, predicates and
//! projections bound, join columns resolved, group maps sized — all
//! exactly once, at compile time. Running the compiled plan does none of
//! that work again. That includes the zone-checkable key pairs of each
//! inner/semi join, traced through σ/Π/η down to bare leaf columns.

use svc_storage::{DataType, Result, Schema, StorageError, Table};

use crate::aggregate::{bind_aggs, AggFunc};
use crate::derive::{derive_join, derive_tree, DerivedTree, LeafProvider};
use crate::optimizer::cost::CardEstimator;
use crate::plan::{JoinKind, Plan, SetOpKind};
use crate::scalar::BoundExpr;

use super::column::{compile_map, compile_pred, VecOp};
use super::pipeline::FusedOp;

/// A leaf reference resolved at compile time: the bound table is looked up
/// by name at run time and validated against the compiled schema/key, so a
/// compiled plan can safely be reused against fresh bindings (new delta
/// chunks, an updated stale view) as long as the shapes still match.
#[derive(Debug, Clone)]
pub struct LeafRef {
    /// Binding name of the relation.
    pub name: String,
    /// Schema the plan was compiled against.
    pub schema: Schema,
    /// Key positions the plan was compiled against.
    pub key: Vec<usize>,
}

thread_local! {
    static LEAF_SCANS: std::cell::RefCell<std::collections::BTreeMap<String, u64>> =
        const { std::cell::RefCell::new(std::collections::BTreeMap::new()) };
}

/// How often each leaf was read by plans run **on this thread** since it
/// started, by binding name — the cost-shape hook beside
/// `Table::clone_count`: take a reading, run something, compare, and a path
/// that evaluates a sub-plan more than once shows up as a multiple.
pub fn leaf_scan_counts() -> std::collections::BTreeMap<String, u64> {
    LEAF_SCANS.with_borrow(Clone::clone)
}

impl LeafRef {
    /// The bound leaf, shape-validated like `lookup`, counted as one read
    /// of the leaf in [`leaf_scan_counts`].
    pub fn resolve<'a>(&self, bindings: &crate::eval::Bindings<'a>) -> Result<&'a Table> {
        let t = self.lookup(bindings)?;
        LEAF_SCANS.with_borrow_mut(|scans| match scans.get_mut(&self.name) {
            Some(n) => *n += 1,
            None => drop(scans.insert(self.name.clone(), 1)),
        });
        Ok(t)
    }

    /// Look the leaf up in `bindings` and verify it still has the compiled
    /// shape — schema **and** key: fused-scan roots skip duplicate-key
    /// validation trusting the compiled key, and PK-probe joins trust the
    /// bound table's own index, so a same-schema rebind with a different
    /// primary key must be rejected, not silently mis-executed. Not a read:
    /// size probes and the zone check look leaves up without counting.
    pub(crate) fn lookup<'a>(&self, bindings: &crate::eval::Bindings<'a>) -> Result<&'a Table> {
        let t = bindings.table(&self.name)?;
        if t.schema() != &self.schema {
            return Err(StorageError::Invalid(format!(
                "leaf `{}` was rebound with schema [{}], but the plan was compiled against [{}]",
                self.name,
                t.schema(),
                self.schema
            )));
        }
        if t.key() != self.key {
            return Err(StorageError::Invalid(format!(
                "leaf `{}` was rebound with a different primary key than the plan was compiled \
                 against",
                self.name
            )));
        }
        Ok(t)
    }
}

/// The right input of a physical join.
#[derive(Debug, Clone)]
pub enum JoinRight {
    /// Probe the bound table's existing primary-key index — the right side
    /// is one leaf under a σ/Π/η chain (or none), joined on exactly its
    /// derived key, which is the leaf's key kept as bare columns, in order.
    /// The chain runs on the one probed row; a row it drops is no partner.
    /// Zero materialization, no build pass: delta-sized left inputs probe
    /// large base relations in O(|left|).
    PkProbeLeaf {
        /// The probed relation.
        leaf: LeafRef,
        /// The right side's fused chain, applied to each probed row.
        ops: Vec<FusedOp>,
    },
    /// Materialize the right child and hash-build over its join columns.
    Build(Box<Node>),
}

impl JoinRight {
    /// The leaf this right side reads and the fused chain over it, when it
    /// is leaf-rooted.
    pub(crate) fn leaf_chain(&self) -> Option<(&LeafRef, &[FusedOp])> {
        match self {
            JoinRight::PkProbeLeaf { leaf, ops } => Some((leaf, ops)),
            JoinRight::Build(node) => node.leaf_chain(),
        }
    }
}

/// `[ση]`-style tags of a fused chain, empty for no ops.
pub(super) fn tags(ops: &[FusedOp]) -> String {
    if ops.is_empty() {
        String::new()
    } else {
        format!("[{}]", ops.iter().map(FusedOp::tag).collect::<String>())
    }
}

/// One physical operator. Unary σ/Π/η chains are fused into their source
/// node ([`Node::FusedScan`] / [`Node::Fused`]); joins, aggregates, and
/// set operations are pipeline breakers that materialize plain `Vec<Row>`
/// batches — never an intermediate keyed [`Table`] — except a PK-probe
/// join under a [`Node::Fused`] or [`Node::Aggregate`], which streams its
/// rows into that consumer.
#[derive(Debug, Clone)]
pub enum Node {
    /// A fused chain rooted at a leaf: rows are borrowed straight from the
    /// bound table and only survivors are cloned. Carries both the
    /// row-at-a-time ops (the reference path) and their vectorized
    /// counterparts, compiled position for position at lowering time.
    FusedScan {
        /// The source relation.
        leaf: LeafRef,
        /// Compiled operator chain (may be empty for a bare scan).
        ops: Vec<FusedOp>,
        /// Vectorized counterparts of `ops` (always the same length).
        vops: Vec<VecOp>,
    },
    /// A fused chain over a materialized child batch, whose rows move
    /// through, or over a PK-probe join streaming its rows into the chain.
    Fused {
        /// The breaker producing the input batch.
        input: Box<Node>,
        /// Compiled operator chain.
        ops: Vec<FusedOp>,
    },
    /// Equi-join breaker.
    Join {
        /// Left (probe) input.
        left: Box<Node>,
        /// Right (build or PK-probe) input.
        right: JoinRight,
        /// Join flavor.
        kind: JoinKind,
        /// Resolved `(left, right)` join column positions.
        on_idx: Vec<(usize, usize)>,
        /// Left input arity (NULL padding for right-outer rows).
        pad_left: usize,
        /// Right input arity (NULL padding for left-outer rows).
        pad_right: usize,
        /// `(left leaf column, right leaf column)` of each `on_idx` pair
        /// whose two sides carry a declared-`Int` leaf column unchanged —
        /// recorded on inner and semi joins of two leaf-rooted inputs only.
        /// The executor answers such a join empty, without running either
        /// input, when one leaf is empty or some pair's zone maps are
        /// disjoint.
        zone_cols: Vec<(usize, usize)>,
    },
    /// γ breaker. When the input is a fused scan or a PK-probe join, rows
    /// stream borrowed into the group map — the input batch is never
    /// materialized.
    Aggregate {
        /// Input node.
        input: Box<Node>,
        /// Resolved group column positions.
        group_idx: Vec<usize>,
        /// Bound aggregate specs.
        aggs: Vec<(AggFunc, DataType, BoundExpr)>,
        /// Distinct-group estimate (catalog NDV) for pre-sizing, if known.
        groups_hint: Option<usize>,
    },
    /// ∪ / ∩ / − breaker.
    SetOp {
        /// Which set operation.
        kind: SetOpKind,
        /// Left input.
        left: Box<Node>,
        /// Right input.
        right: Box<Node>,
        /// The columns its dedup hashes: the sorted union of both inputs'
        /// derived keys, on which each input is unique (empty: the whole
        /// row). Candidates are still compared as whole rows.
        hash_cols: Vec<usize>,
    },
}

impl Node {
    /// Append a fused op, wrapping breakers in a [`Node::Fused`] shell.
    /// The vectorized counterpart rides along only on [`Node::FusedScan`]
    /// chains — fused chains over breaker batches stay row-at-a-time
    /// (their input is already rows; converting it to columns would move
    /// the leaf conversion boundary into the middle of the plan).
    fn push_op(self, op: FusedOp, vop: VecOp) -> Node {
        match self {
            Node::FusedScan { leaf, mut ops, mut vops } => {
                ops.push(op);
                vops.push(vop);
                Node::FusedScan { leaf, ops, vops }
            }
            Node::Fused { input, mut ops } => {
                ops.push(op);
                Node::Fused { input, ops }
            }
            other => Node::Fused { input: Box::new(other), ops: vec![op] },
        }
    }

    /// The leaf this node reads and the fused chain over it, when it is a
    /// fused scan.
    pub(crate) fn leaf_chain(&self) -> Option<(&LeafRef, &[FusedOp])> {
        match self {
            Node::FusedScan { leaf, ops, .. } => Some((leaf, ops)),
            _ => None,
        }
    }

    /// Number of nodes in this subtree, root included, in the canonical
    /// pre-order the telemetry layer indexes metric slots by: a node at
    /// pre-order id `i` has its first child at `i + 1` and its second at
    /// `i + 1 + first.subtree_size()`. A PK-probe join right side is not a
    /// node (the probed leaf is resolved inline; its size shows up in the
    /// join's `build_rows` metric).
    pub fn subtree_size(&self) -> usize {
        1 + match self {
            Node::FusedScan { .. } => 0,
            Node::Fused { input, .. } => input.subtree_size(),
            Node::Join { left, right, .. } => {
                left.subtree_size()
                    + match right {
                        JoinRight::PkProbeLeaf { .. } => 0,
                        JoinRight::Build(r) => r.subtree_size(),
                    }
            }
            Node::Aggregate { input, .. } => input.subtree_size(),
            Node::SetOp { left, right, .. } => left.subtree_size() + right.subtree_size(),
        }
    }

    /// Compact structural description (`γ(fused-scan(T)[ση])` style) for
    /// tests and debugging.
    pub fn describe(&self) -> String {
        match self {
            Node::FusedScan { leaf, ops, .. } => format!("fused-scan({}){}", leaf.name, tags(ops)),
            Node::Fused { input, ops } => format!("fused({}){}", input.describe(), tags(ops)),
            Node::Join { left, right, kind, .. } => {
                let r = match right {
                    JoinRight::PkProbeLeaf { leaf, ops } => {
                        format!("pk-probe({}){}", leaf.name, tags(ops))
                    }
                    JoinRight::Build(node) => format!("build({})", node.describe()),
                };
                format!("join:{kind:?}({}, {r})", left.describe())
            }
            Node::Aggregate { input, .. } => format!("γ({})", input.describe()),
            Node::SetOp { kind, left, right, .. } => {
                format!("{kind:?}({}, {})", left.describe(), right.describe())
            }
        }
    }
}

/// Lowering context: the leaf provider (for estimator calls) and an
/// optional cardinality estimator for group-map sizing.
pub(super) struct Lowering<'a> {
    pub leaves: &'a dyn LeafProvider,
    pub est: Option<&'a dyn CardEstimator>,
}

/// Cap on pre-sized group maps: a wild NDV estimate must not allocate
/// gigabytes up front.
const MAX_GROUPS_HINT: usize = 1 << 22;

impl Lowering<'_> {
    /// Lower `plan` against its derived tree (computed once at the root).
    pub(super) fn lower(&self, plan: &Plan, tree: &DerivedTree) -> Result<Node> {
        Ok(match plan {
            Plan::Scan { table } => Node::FusedScan {
                leaf: LeafRef {
                    name: table.clone(),
                    schema: tree.derived.schema.clone(),
                    key: tree.derived.key.clone(),
                },
                ops: Vec::new(),
                vops: Vec::new(),
            },
            Plan::Select { input, predicate } => {
                let child = self.lower(input, tree.input())?;
                let pred = predicate.bind(&tree.input().derived.schema)?;
                let vop = VecOp::Filter(compile_pred(&pred));
                child.push_op(FusedOp::Filter(pred), vop)
            }
            Plan::Project { input, columns } => {
                let child = self.lower(input, tree.input())?;
                let in_schema = &tree.input().derived.schema;
                let bound: Vec<BoundExpr> =
                    columns.iter().map(|(_, e)| e.bind(in_schema)).collect::<Result<_>>()?;
                // Output column types come from the projection's own
                // derived schema — they seed the typed output builders.
                let dtypes: Vec<DataType> =
                    tree.derived.schema.fields().iter().map(|f| f.dtype).collect();
                let vop = VecOp::Map(compile_map(&bound, &dtypes));
                child.push_op(FusedOp::Map(bound), vop)
            }
            Plan::Hash { input, key, ratio, spec } => {
                let child = self.lower(input, tree.input())?;
                let key_idx = tree.input().derived.schema.resolve_all(key)?;
                let vop = VecOp::Hash { key_idx: key_idx.clone(), ratio: *ratio, spec: *spec };
                child.push_op(FusedOp::Hash { key_idx, ratio: *ratio, spec: *spec }, vop)
            }
            Plan::Join { left, right, kind, on } => {
                let (lt, rt) = tree.pair();
                let (_, on_idx) =
                    derive_join(&lt.derived, &rt.derived, *kind, on, right.name_hint())?;
                let pad_left = lt.derived.schema.len();
                let pad_right = rt.derived.schema.len();
                let right_cols: Vec<usize> = on_idx.iter().map(|&(_, r)| r).collect();
                let lowered_left = Box::new(self.lower(left, lt)?);
                // A right side fused onto one leaf and joined on its whole
                // derived key probes the leaf's index: σ and η keep the key,
                // and Π keeps it as bare columns in key order, so the join
                // columns are the leaf key. The chain then runs on the one
                // probed row, so the probe sees exactly the post-chain rows.
                let right = match self.lower(right, rt)? {
                    Node::FusedScan { leaf, ops, .. }
                        if crate::join::pk_probe_applies(*kind, &right_cols, &rt.derived.key) =>
                    {
                        JoinRight::PkProbeLeaf { leaf, ops }
                    }
                    node => JoinRight::Build(Box::new(node)),
                };
                let zone_cols = zone_cols(*kind, &lowered_left, &right, &on_idx);
                Node::Join {
                    left: lowered_left,
                    right,
                    kind: *kind,
                    on_idx,
                    pad_left,
                    pad_right,
                    zone_cols,
                }
            }
            Plan::Aggregate { input, group_by, aggregates } => {
                let child = self.lower(input, tree.input())?;
                let in_schema = &tree.input().derived.schema;
                let group_idx = in_schema.resolve_all(group_by)?;
                let aggs = bind_aggs(aggregates, in_schema)?;
                let groups_hint = self.groups_hint(input, &group_idx);
                Node::Aggregate { input: Box::new(child), group_idx, aggs, groups_hint }
            }
            Plan::SetOp { kind, left, right } => {
                let (lt, rt) = tree.pair();
                Node::SetOp {
                    kind: *kind,
                    left: Box::new(self.lower(left, lt)?),
                    right: Box::new(self.lower(right, rt)?),
                    hash_cols: setop_hash_cols(&lt.derived.key, &rt.derived.key),
                }
            }
        })
    }

    /// Estimated distinct-group count of a γ over `input`, from the
    /// caller's cardinality estimator (catalog NDV): the product of the
    /// group columns' distinct counts, capped by the input row estimate.
    /// Estimation failures fall back to the input-length heuristic.
    fn groups_hint(&self, input: &Plan, group_idx: &[usize]) -> Option<usize> {
        let est = self.est?;
        let card = est.estimate(input, self.leaves).ok()?;
        let mut groups = 1.0f64;
        for &i in group_idx {
            groups *= card.distinct.get(i).copied().unwrap_or(1.0).max(1.0);
        }
        Some(groups.min(card.rows.max(1.0)).min(MAX_GROUPS_HINT as f64) as usize)
    }
}

/// The columns a set op over inputs keyed `left_key` and `right_key`
/// hashes: the sorted union of the two keys. Each input is unique on its
/// own key, so on the union too; the op's own derived key (for ∩, the
/// common key columns) may be unique on neither input.
fn setop_hash_cols(left_key: &[usize], right_key: &[usize]) -> Vec<usize> {
    let mut cols: Vec<usize> = left_key.iter().chain(right_key).copied().collect();
    cols.sort_unstable();
    cols.dedup();
    cols
}

/// The leaf column each output column of a fused chain carries unchanged:
/// σ and η keep every position, Π keeps a bare column and loses anything
/// computed.
fn traced_cols(leaf: &LeafRef, ops: &[FusedOp]) -> Vec<Option<usize>> {
    let mut cols: Vec<Option<usize>> = (0..leaf.schema.len()).map(Some).collect();
    for op in ops {
        if let FusedOp::Map(exprs) = op {
            cols = exprs
                .iter()
                .map(|e| match e {
                    BoundExpr::Col(i) => cols[*i],
                    _ => None,
                })
                .collect();
        }
    }
    cols
}

/// The `zone_cols` of a [`Node::Join`]: for an inner or semi join of
/// two leaf-rooted inputs, each key pair traced to declared-`Int` leaf
/// columns on both sides. Every other join records none.
fn zone_cols(
    kind: JoinKind,
    left: &Node,
    right: &JoinRight,
    on_idx: &[(usize, usize)],
) -> Vec<(usize, usize)> {
    let (Some((ll, lops)), Some((rl, rops))) = (left.leaf_chain(), right.leaf_chain()) else {
        return Vec::new();
    };
    if !matches!(kind, JoinKind::Inner | JoinKind::Semi) {
        return Vec::new();
    }
    let (lcols, rcols) = (traced_cols(ll, lops), traced_cols(rl, rops));
    let int = |leaf: &LeafRef, i: usize| leaf.schema.field(i).dtype == DataType::Int;
    on_idx
        .iter()
        .filter_map(|&(l, r)| Some((lcols[l]?, rcols[r]?)))
        .filter(|&(l, r)| int(ll, l) && int(rl, r))
        .collect()
}

/// Re-derive the tree and lower — the single entry used by
/// [`super::compile`] / [`super::compile_with`].
pub(super) fn lower_plan(
    plan: &Plan,
    leaves: &dyn LeafProvider,
    est: Option<&dyn CardEstimator>,
) -> Result<(Node, crate::derive::Derived)> {
    let tree = derive_tree(plan, &leaves)?;
    let out = tree.derived.clone();
    let node = Lowering { leaves, est }.lower(plan, &tree)?;
    Ok((node, out))
}
