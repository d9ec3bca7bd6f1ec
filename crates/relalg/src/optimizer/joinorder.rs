//! Cost-based join reordering.
//!
//! Maximal regions of adjacent **inner** equi-joins are flattened into a
//! join graph — relations are the non-inner-join subplans hanging off the
//! region, edges are the equality pairs — and rebuilt in the cheapest order
//! the [`CardEstimator`] can find:
//! dynamic programming over connected subsets (bushy trees, the Selinger
//! family) up to [`DP_MAX`] relations, a greedy smallest-result-first
//! heuristic beyond. The cost of a tree is `C_out`, the sum of estimated
//! intermediate result sizes, which is what dominates the hash-join
//! evaluator's work.
//!
//! Inner joins are freely commutative and associative: every equality pair
//! is applied exactly once, at the tree node where its two relations first
//! meet (their join-tree LCA), so any order computes the identical relation.
//! Non-inner joins (outer, semi, anti), σ/Π/γ/η nodes, and set operations
//! are region *boundaries*: they travel with their subtree as opaque
//! relations.
//!
//! Reordering changes the join output's column naming and order
//! (`Schema::concat` renames right-side collisions positionally), so every
//! rewritten region is capped with a **restoring projection** mapping the
//! new tree's columns back to the original names and order — parents of the
//! region are none the wiser. The derived *primary key* of the region can
//! still legitimately change (Definition 2's foreign-key reduction depends
//! on join orientation); the rule therefore re-derives every ancestor, and
//! if any ancestor rejects the new key (e.g. a projection that kept only
//! the old key's columns) the whole rewrite is abandoned and the original
//! plan kept — reordering is an optimization, never an obligation.

use svc_storage::{Result, Schema, StorageError};

use crate::derive::{
    derive_join, derive_node, derive_project, derive_tree, Derived, DerivedTree, LeafProvider,
};
use crate::optimizer::cost::CardEstimator;
use crate::plan::{JoinKind, Plan};
use crate::scalar::col;

/// Largest region ordered by exhaustive DP; larger regions go greedy.
pub const DP_MAX: usize = 8;

/// Reorder every inner-join region of `plan` by estimated cost. `reordered`
/// counts regions whose join tree actually changed. On any estimation or
/// re-derivation failure the original plan is returned unchanged.
pub fn reorder(
    plan: Plan,
    leaves: &dyn LeafProvider,
    est: &dyn CardEstimator,
    reordered: &mut usize,
) -> Result<Plan> {
    let tree = derive_tree(&plan, leaves)?;
    let mut count = 0;
    match rewrite(plan.clone(), tree, leaves, est, &mut count) {
        Ok((out, _)) => {
            *reordered += count;
            Ok(out)
        }
        // A rewrite that an ancestor rejects (changed key under a narrow
        // projection) is not an error of the input plan: keep it as written.
        Err(_) => Ok(plan),
    }
}

fn take_binary(dt: DerivedTree) -> (DerivedTree, DerivedTree) {
    let DerivedTree { mut children, .. } = dt;
    let right = children.pop().expect("binary node has two children");
    let left = children.pop().expect("binary node has two children");
    (left, right)
}

/// One relation of a join region: a non-inner-join subplan (already
/// recursively reordered) and its derived tree.
struct Rel {
    plan: Plan,
    dt: DerivedTree,
}

/// A column's origin: `(relation index, column index within the relation)`.
type Origin = (usize, usize);

#[derive(Default)]
struct Region {
    rels: Vec<Rel>,
    /// Equality pairs between relation columns.
    edges: Vec<(Origin, Origin)>,
}

/// The original join tree over relation indices, with the original `on`
/// spellings. Rebuilding from the shape reproduces the incoming tree
/// (modulo rewritten relation subplans), which is both the cost baseline a
/// candidate order must strictly beat and the stable fallback — mirror
/// orientations of a join tie on the symmetric cost model, and without a
/// strict-improvement gate the rule would flip between them every sweep.
enum Shape {
    Leaf(usize),
    Join { left: Box<Shape>, right: Box<Shape>, on: Vec<(String, String)> },
}

/// Rewrite the plan bottom-up, re-deriving every node (keys below a
/// reordered region may change, and ancestors must accept them).
fn rewrite(
    plan: Plan,
    dt: DerivedTree,
    leaves: &dyn LeafProvider,
    est: &dyn CardEstimator,
    count: &mut usize,
) -> Result<(Plan, DerivedTree)> {
    match plan {
        Plan::Join { kind: JoinKind::Inner, .. } => {
            return reorder_region(plan, dt, leaves, est, count)
        }
        Plan::Scan { .. } => return Ok((plan, dt)),
        _ => {}
    }
    let mut old = dt.children.into_iter();
    let mut children = Vec::new();
    let plan = plan.map_children(&mut |child| {
        let child_dt = old.next().expect("derived tree mirrors the plan");
        let (child, child_dt) = rewrite(child, child_dt, leaves, est, count)?;
        children.push(child_dt);
        Ok::<_, StorageError>(child)
    })?;
    let dt = derive_node(&plan, children, leaves)?;
    Ok((plan, dt))
}

/// Flatten the inner-join region rooted at `plan` into `region`, rewriting
/// each relation subplan recursively. Returns the layout of this subtree's
/// output (position → column origin) and its shape.
fn flatten(
    plan: Plan,
    dt: DerivedTree,
    region: &mut Region,
    leaves: &dyn LeafProvider,
    est: &dyn CardEstimator,
    count: &mut usize,
) -> Result<(Vec<Origin>, Shape)> {
    match plan {
        Plan::Join { left, right, kind: JoinKind::Inner, on } => {
            let (l_dt, r_dt) = take_binary(dt);
            let l_schema = l_dt.derived.schema.clone();
            let r_schema = r_dt.derived.schema.clone();
            let (l_layout, l_shape) = flatten(*left, l_dt, region, leaves, est, count)?;
            let (r_layout, r_shape) = flatten(*right, r_dt, region, leaves, est, count)?;
            for (ln, rn) in &on {
                let li = l_schema.resolve(ln)?;
                let ri = r_schema.resolve(rn)?;
                region.edges.push((l_layout[li], r_layout[ri]));
            }
            let mut layout = l_layout;
            layout.extend(r_layout);
            Ok((layout, Shape::Join { left: Box::new(l_shape), right: Box::new(r_shape), on }))
        }
        other => {
            let (p, pdt) = rewrite(other, dt, leaves, est, count)?;
            let idx = region.rels.len();
            let ncols = pdt.derived.schema.len();
            region.rels.push(Rel { plan: p, dt: pdt });
            Ok(((0..ncols).map(|c| (idx, c)).collect(), Shape::Leaf(idx)))
        }
    }
}

/// Rebuild the incoming tree from its shape (original `on` spellings, so
/// the result is plan-equal to the input when no relation changed) and
/// price it with the same cost model DP candidates use — except that the
/// joins keep their original `on` lists verbatim.
fn entry_from_shape(
    shape: &Shape,
    region: &Region,
    est: &dyn CardEstimator,
    leaves: &dyn LeafProvider,
) -> Result<Entry> {
    match shape {
        Shape::Leaf(i) => Entry::leaf(*i, &region.rels[*i], est, leaves),
        Shape::Join { left, right, on } => {
            let l = entry_from_shape(left, region, est, leaves)?;
            let r = entry_from_shape(right, region, est, leaves)?;
            // Price with the shared arithmetic (every region edge crossing
            // this split — identical to what a DP candidate of this shape
            // would be charged), but keep the original `on` spellings so
            // the rebuilt plan is equal to the input.
            let priced = join_entries(&l, &r, region)?;
            let plan = Plan::Join {
                left: Box::new(l.plan),
                right: Box::new(r.plan),
                kind: JoinKind::Inner,
                on: on.clone(),
            };
            Ok(Entry { plan, ..priced })
        }
    }
}

/// A candidate (partial) join tree over a subset of the region's relations.
#[derive(Clone)]
struct Entry {
    plan: Plan,
    derived: Derived,
    /// Output position → column origin.
    layout: Vec<Origin>,
    rows: f64,
    /// Per-output-column distinct estimates, aligned with `layout`.
    distinct: Vec<f64>,
    /// `C_out`: sum of estimated intermediate result sizes.
    cost: f64,
}

impl Entry {
    /// A region relation: one estimator call (the only place the DP
    /// consults the estimator — candidate joins are priced arithmetically
    /// from the leaf cardinalities).
    fn leaf(
        i: usize,
        rel: &Rel,
        est: &dyn CardEstimator,
        leaves: &dyn LeafProvider,
    ) -> Result<Entry> {
        let card = est.estimate(&rel.plan, leaves)?;
        let rows = sane(card.rows);
        let ncols = rel.dt.derived.schema.len();
        let mut distinct = card.distinct;
        distinct.resize(ncols, rows);
        Ok(Entry {
            plan: rel.plan.clone(),
            derived: rel.dt.derived.clone(),
            layout: (0..ncols).map(|c| (i, c)).collect(),
            rows,
            distinct,
            cost: 0.0,
        })
    }
}

fn sane(rows: f64) -> f64 {
    if rows.is_finite() {
        rows.max(1.0)
    } else {
        1e18
    }
}

/// Join two entries with every region edge that crosses them. Cardinality
/// is the textbook equi-join estimate over the entries' column distincts:
/// `|L|·|R| · ∏ 1/max(ndv_l, ndv_r)`.
fn join_entries(e1: &Entry, e2: &Entry, region: &Region) -> Result<Entry> {
    let pos = |layout: &[Origin], o: Origin| layout.iter().position(|&x| x == o);
    let mut on = Vec::new();
    let mut rows = e1.rows * e2.rows;
    for &(a, b) in &region.edges {
        let (lp, rp) = match (pos(&e1.layout, a), pos(&e2.layout, b)) {
            (Some(lp), Some(rp)) => (lp, rp),
            _ => match (pos(&e1.layout, b), pos(&e2.layout, a)) {
                (Some(lp), Some(rp)) => (lp, rp),
                _ => continue, // intra-subset or outside: handled elsewhere
            },
        };
        rows /= e1.distinct[lp].max(e2.distinct[rp]).max(1.0);
        on.push((
            e1.derived.schema.field(lp).name.clone(),
            e2.derived.schema.field(rp).name.clone(),
        ));
    }
    let rows = sane(rows);
    let plan = Plan::Join {
        left: Box::new(e1.plan.clone()),
        right: Box::new(e2.plan.clone()),
        kind: JoinKind::Inner,
        on: on.clone(),
    };
    let hint = match &plan {
        Plan::Join { right, .. } => right.name_hint().to_string(),
        _ => unreachable!(),
    };
    let derived = derive_join(&e1.derived, &e2.derived, JoinKind::Inner, &on, &hint)?.0;
    let mut layout = e1.layout.clone();
    layout.extend(e2.layout.iter().copied());
    let distinct: Vec<f64> = e1.distinct.iter().chain(&e2.distinct).map(|&d| d.min(rows)).collect();
    Ok(Entry { plan, derived, layout, rows, distinct, cost: e1.cost + e2.cost + rows })
}

/// True iff some region edge connects the two entries' relation sets.
fn connected(e1: &Entry, e2: &Entry, region: &Region) -> bool {
    let has = |layout: &[Origin], r: usize| layout.iter().any(|&(ri, _)| ri == r);
    region.edges.iter().any(|&((ra, _), (rb, _))| {
        (has(&e1.layout, ra) && has(&e2.layout, rb)) || (has(&e1.layout, rb) && has(&e2.layout, ra))
    })
}

/// Exhaustive DP over connected subsets (cross products only when a subset
/// has no connected split). Deterministic: strictly-better cost wins.
fn dp_order(region: &Region, est: &dyn CardEstimator, leaves: &dyn LeafProvider) -> Result<Entry> {
    let n = region.rels.len();
    let full: usize = (1 << n) - 1;
    let mut table: Vec<Option<Entry>> = vec![None; 1 << n];
    for (i, rel) in region.rels.iter().enumerate() {
        table[1 << i] = Some(Entry::leaf(i, rel, est, leaves)?);
    }
    for mask in 1..=full {
        if (mask as u32).count_ones() < 2 {
            continue;
        }
        // Two passes: connected splits first; cross products only if the
        // subset admits no connected split at all.
        for require_edge in [true, false] {
            let mut best: Option<Entry> = None;
            let mut s1 = (mask - 1) & mask;
            while s1 != 0 {
                let s2 = mask ^ s1;
                if let (Some(e1), Some(e2)) = (&table[s1], &table[s2]) {
                    if !require_edge || connected(e1, e2, region) {
                        let cand = join_entries(e1, e2, region)?;
                        if best.as_ref().is_none_or(|b| cand.cost < b.cost) {
                            best = Some(cand);
                        }
                    }
                }
                s1 = (s1 - 1) & mask;
            }
            if best.is_some() {
                table[mask] = best;
                break;
            }
        }
    }
    table[full].take().ok_or_else(|| {
        svc_storage::StorageError::Invalid("join region could not be ordered".into())
    })
}

/// Greedy smallest-result-first ordering for regions past [`DP_MAX`].
fn greedy_order(
    region: &Region,
    est: &dyn CardEstimator,
    leaves: &dyn LeafProvider,
) -> Result<Entry> {
    let mut entries: Vec<Entry> = region
        .rels
        .iter()
        .enumerate()
        .map(|(i, rel)| Entry::leaf(i, rel, est, leaves))
        .collect::<Result<_>>()?;
    while entries.len() > 1 {
        let mut best: Option<(usize, usize, Entry)> = None;
        for require_edge in [true, false] {
            for i in 0..entries.len() {
                for j in 0..entries.len() {
                    if i == j || (require_edge && !connected(&entries[i], &entries[j], region)) {
                        continue;
                    }
                    let cand = join_entries(&entries[i], &entries[j], region)?;
                    if best.as_ref().is_none_or(|(_, _, b)| cand.rows < b.rows) {
                        best = Some((i, j, cand));
                    }
                }
            }
            if best.is_some() {
                break;
            }
        }
        let (i, j, joined) = best.expect("at least one pair is joinable");
        let (hi, lo) = if i > j { (i, j) } else { (j, i) };
        entries.swap_remove(hi);
        entries.swap_remove(lo);
        entries.push(joined);
    }
    Ok(entries.pop().expect("one entry remains"))
}

/// Rebuild the derived tree of a DP-produced join tree: region relations
/// appear left-to-right in `order`, everything else is `Join{Inner}` nodes.
fn derive_winner(
    plan: &Plan,
    order: &mut std::vec::IntoIter<usize>,
    rels: &[Rel],
) -> Result<DerivedTree> {
    match plan {
        Plan::Join { left, right, kind: JoinKind::Inner, on } => {
            let l = derive_winner(left, order, rels)?;
            let r = derive_winner(right, order, rels)?;
            let d = derive_join(&l.derived, &r.derived, JoinKind::Inner, on, right.name_hint())?.0;
            Ok(DerivedTree::binary(d, l, r))
        }
        _ => {
            let i = order.next().expect("layout covers every relation");
            Ok(rels[i].dt.clone())
        }
    }
}

/// Reorder one region rooted at an inner join. The incoming tree is the
/// baseline: a candidate order is adopted only when its estimated cost is
/// *strictly* lower, which is what makes the rule a fixed point — mirror
/// orientations tie on the symmetric cost model and must not flip-flop.
fn reorder_region(
    plan: Plan,
    dt: DerivedTree,
    leaves: &dyn LeafProvider,
    est: &dyn CardEstimator,
    count: &mut usize,
) -> Result<(Plan, DerivedTree)> {
    let orig_schema: Schema = dt.derived.schema.clone();
    let mut region = Region::default();
    let (orig_layout, shape) = flatten(plan, dt, &mut region, leaves, est, count)?;

    // Rebuild the derived tree of a region tree from its layout (each
    // relation's columns form one contiguous block, so the layout yields
    // the left-to-right relation order).
    let derive_entry = |entry: &Entry, region: &Region| -> Result<DerivedTree> {
        let mut order = Vec::new();
        for &(r, _) in &entry.layout {
            if order.last() != Some(&r) {
                order.push(r);
            }
        }
        derive_winner(&entry.plan, &mut order.into_iter(), &region.rels)
    };

    let baseline = entry_from_shape(&shape, &region, est, leaves)?;
    let n = region.rels.len();
    if n >= 3 {
        let candidate = if n <= DP_MAX {
            dp_order(&region, est, leaves)?
        } else {
            greedy_order(&region, est, leaves)?
        };
        // Strict improvement with a small relative margin, so float noise
        // between equal-cost orders can never trigger a rewrite.
        if candidate.cost < baseline.cost * (1.0 - 1e-9) {
            let win_dt = derive_entry(&candidate, &region)?;
            // Restoring projection: original names and order on top of the
            // new tree. Every column of the new output appears exactly
            // once, so the new key always survives (bare references).
            let columns: Vec<(String, crate::scalar::Expr)> = orig_layout
                .iter()
                .enumerate()
                .map(|(i, origin)| {
                    let p = candidate
                        .layout
                        .iter()
                        .position(|o| o == origin)
                        .expect("reordered tree carries every region column");
                    (
                        orig_schema.field(i).name.clone(),
                        col(candidate.derived.schema.field(p).name.clone()),
                    )
                })
                .collect();
            let proj_d = derive_project(&candidate.derived, &columns)?;
            *count += 1;
            let dt = DerivedTree::unary(proj_d, win_dt);
            return Ok((Plan::Project { input: Box::new(candidate.plan), columns }, dt));
        }
    }
    // Keep the incoming order (with any rewritten relation subplans).
    let dt = derive_entry(&baseline, &region)?;
    Ok((baseline.plan, dt))
}
