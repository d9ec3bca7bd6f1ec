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
//! The rule **prices, then builds**. The search is arithmetic over small
//! priced records — rows, per-column distincts, `C_out`, which relation
//! each output column came from — with no plan and no types in them: the
//! estimator is consulted once per relation of a region, joins are priced
//! from those cardinalities, and only the winner is ever constructed and
//! typed, in the one builder. A region of two relations has a single order
//! up to mirroring, which ties on the symmetric cost model, so it is never
//! searched and never estimated; a plan in which no region changes is
//! handed back untouched, nothing rebuilt.
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

use std::borrow::Cow;

use svc_storage::{Result, StorageError};

use crate::derive::{
    derive_join, derive_node, derive_project, derive_tree, DerivedTree, LeafProvider,
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
    match rewrite(&plan, &tree, leaves, est, &mut count) {
        Ok(Some((out, _))) => {
            *reordered += count;
            Ok(out)
        }
        // No region changes — or a rewrite that an ancestor rejects (changed
        // key under a narrow projection), which is not an error of the input
        // plan: keep it as written.
        Ok(None) | Err(_) => Ok(plan),
    }
}

/// One relation of a join region: a non-inner-join subplan and its derived
/// tree, borrowed from the incoming plan — owned once a region inside it
/// was reordered.
struct Rel<'p> {
    plan: Cow<'p, Plan>,
    dt: Cow<'p, DerivedTree>,
}

impl Rel<'_> {
    /// The output layout of relation `i`: its own columns, in order.
    fn layout(&self, i: usize) -> Vec<Origin> {
        (0..self.dt.derived.schema.len()).map(|c| (i, c)).collect()
    }
}

/// A column's origin: `(relation index, column index within the relation)`.
type Origin = (usize, usize);

#[derive(Default)]
struct Region<'p> {
    rels: Vec<Rel<'p>>,
    /// Equality pairs between relation columns.
    edges: Vec<(Origin, Origin)>,
}

/// A join tree over relation indices. The incoming tree carries its
/// original `on` spellings: rebuilding from it reproduces the input (modulo
/// rewritten relation subplans), which is both the cost baseline a searched
/// order must strictly beat and the stable fallback — mirror orientations
/// of a join tie on the symmetric cost model, and without a
/// strict-improvement gate the rule would flip between them every sweep. A
/// searched tree has no spelling yet (`None`): its joins take every region
/// edge that crosses them.
enum Tree<'p> {
    Rel(usize),
    Join { left: Box<Tree<'p>>, right: Box<Tree<'p>>, on: Option<&'p [(String, String)]> },
}

/// Rewrite the plan bottom-up. `None` means nothing below changed and the
/// caller keeps its borrowed subtree; a changed subtree comes back rebuilt,
/// every node above the reordered region re-derived (its key may have
/// changed, and ancestors must accept it).
fn rewrite(
    plan: &Plan,
    dt: &DerivedTree,
    leaves: &dyn LeafProvider,
    est: &dyn CardEstimator,
    count: &mut usize,
) -> Result<Option<(Plan, DerivedTree)>> {
    if matches!(plan, Plan::Join { kind: JoinKind::Inner, .. }) {
        return reorder_region(plan, dt, leaves, est, count);
    }
    let mut new = Vec::new();
    for (child, child_dt) in plan.children().zip(&dt.children) {
        new.push(rewrite(child, child_dt, leaves, est, count)?);
    }
    if new.iter().all(Option::is_none) {
        return Ok(None);
    }
    // Only the spine above a reordered region gets here, once per region
    // and optimizer run: copy the node and swap the changed inputs in.
    let mut new = new.into_iter().zip(&dt.children);
    let mut children = Vec::new();
    let plan = plan.clone().map_children(&mut |old| {
        let (new, old_dt) = new.next().expect("derived tree mirrors the plan");
        let (child, child_dt) = new.unwrap_or_else(|| (old, old_dt.clone()));
        children.push(child_dt);
        Ok::<_, StorageError>(child)
    })?;
    let dt = derive_node(&plan, children, leaves)?;
    Ok(Some((plan, dt)))
}

/// Flatten the inner-join region rooted at `plan` into `region`, rewriting
/// each relation subplan recursively. Returns the layout of this subtree's
/// output (position → column origin) and its tree.
fn flatten<'p>(
    plan: &'p Plan,
    dt: &'p DerivedTree,
    region: &mut Region<'p>,
    leaves: &dyn LeafProvider,
    est: &dyn CardEstimator,
    count: &mut usize,
) -> Result<(Vec<Origin>, Tree<'p>)> {
    match plan {
        Plan::Join { left, right, kind: JoinKind::Inner, on } => {
            let (l_dt, r_dt) = dt.pair();
            let (l_layout, l_tree) = flatten(left, l_dt, region, leaves, est, count)?;
            let (r_layout, r_tree) = flatten(right, r_dt, region, leaves, est, count)?;
            for (ln, rn) in on {
                let li = l_dt.derived.schema.resolve(ln)?;
                let ri = r_dt.derived.schema.resolve(rn)?;
                region.edges.push((l_layout[li], r_layout[ri]));
            }
            let mut layout = l_layout;
            layout.extend(r_layout);
            let tree = Tree::Join { left: Box::new(l_tree), right: Box::new(r_tree), on: Some(on) };
            Ok((layout, tree))
        }
        other => {
            let rel = match rewrite(other, dt, leaves, est, count)? {
                Some((plan, dt)) => Rel { plan: Cow::Owned(plan), dt: Cow::Owned(dt) },
                None => Rel { plan: Cow::Borrowed(other), dt: Cow::Borrowed(dt) },
            };
            let idx = region.rels.len();
            let layout = rel.layout(idx);
            region.rels.push(rel);
            Ok((layout, Tree::Rel(idx)))
        }
    }
}

/// What the search knows of a (partial) join tree over a subset of the
/// region's relations: arithmetic only — no plan, no types. Candidates live
/// in one arena per region whose first entries are the relations themselves.
struct Priced {
    /// The two arena entries joined here; `None` for a relation.
    split: Option<(usize, usize)>,
    /// Output position → column origin.
    layout: Vec<Origin>,
    rows: f64,
    /// Per-output-column distinct estimates, aligned with `layout`.
    distinct: Vec<f64>,
    /// `C_out`: sum of estimated intermediate result sizes.
    cost: f64,
}

/// Price relation `i`: one estimator call, the only kind the rule makes —
/// joins are priced arithmetically from these cardinalities.
fn price_rel(
    i: usize,
    rel: &Rel<'_>,
    est: &dyn CardEstimator,
    leaves: &dyn LeafProvider,
) -> Result<Priced> {
    let card = est.estimate(&rel.plan, leaves)?;
    let rows = sane(card.rows);
    let layout = rel.layout(i);
    let mut distinct = card.distinct;
    distinct.resize(layout.len(), rows);
    Ok(Priced { split: None, layout, rows, distinct, cost: 0.0 })
}

fn sane(rows: f64) -> f64 {
    if rows.is_finite() {
        rows.max(1.0)
    } else {
        1e18
    }
}

/// The region edges that cross from `left` to `right`, in edge order, as
/// `(position in left, position in right)`.
fn crossing<'a>(
    left: &'a [Origin],
    right: &'a [Origin],
    region: &'a Region<'_>,
) -> impl Iterator<Item = (usize, usize)> + 'a {
    let pos = |layout: &[Origin], o: Origin| layout.iter().position(|&x| x == o);
    region.edges.iter().filter_map(move |&(a, b)| {
        pos(left, a).zip(pos(right, b)).or_else(|| pos(left, b).zip(pos(right, a)))
    })
}

/// Price the join of arena entries `l` and `r` on every region edge that
/// crosses them. Cardinality is the textbook equi-join estimate over the
/// entries' column distincts: `|L|·|R| · ∏ 1/max(ndv_l, ndv_r)`.
fn price_join(arena: &[Priced], l: usize, r: usize, region: &Region<'_>) -> Priced {
    let (e1, e2) = (&arena[l], &arena[r]);
    let mut rows = e1.rows * e2.rows;
    for (lp, rp) in crossing(&e1.layout, &e2.layout, region) {
        rows /= e1.distinct[lp].max(e2.distinct[rp]).max(1.0);
    }
    let rows = sane(rows);
    let mut layout = e1.layout.clone();
    layout.extend(e2.layout.iter().copied());
    let distinct = e1.distinct.iter().chain(&e2.distinct).map(|&d| d.min(rows)).collect();
    Priced { split: Some((l, r)), layout, rows, distinct, cost: e1.cost + e2.cost + rows }
}

/// Price a given tree with the arithmetic searched orders are charged by;
/// returns its arena entry.
fn price_tree(tree: &Tree<'_>, arena: &mut Vec<Priced>, region: &Region<'_>) -> usize {
    match tree {
        Tree::Rel(i) => *i,
        Tree::Join { left, right, .. } => {
            let l = price_tree(left, arena, region);
            let r = price_tree(right, arena, region);
            arena.push(price_join(arena, l, r, region));
            arena.len() - 1
        }
    }
}

/// True iff some region edge connects the two entries' relation sets.
fn connected(e1: &Priced, e2: &Priced, region: &Region<'_>) -> bool {
    crossing(&e1.layout, &e2.layout, region).next().is_some()
}

/// Exhaustive DP over connected subsets (cross products only when a subset
/// has no connected split). Deterministic: strictly-better cost wins.
/// Returns the arena entry of the best tree over all `n` relations.
fn dp_order(arena: &mut Vec<Priced>, n: usize, region: &Region<'_>) -> Result<usize> {
    let full: usize = (1 << n) - 1;
    let mut table: Vec<Option<usize>> = vec![None; 1 << n];
    for i in 0..n {
        table[1 << i] = Some(i);
    }
    for mask in 1..=full {
        if (mask as u32).count_ones() < 2 {
            continue;
        }
        // Two passes: connected splits first; cross products only if the
        // subset admits no connected split at all.
        for require_edge in [true, false] {
            let mut best: Option<Priced> = None;
            let mut s1 = (mask - 1) & mask;
            while s1 != 0 {
                if let (Some(l), Some(r)) = (table[s1], table[mask ^ s1]) {
                    if !require_edge || connected(&arena[l], &arena[r], region) {
                        let cand = price_join(arena, l, r, region);
                        if best.as_ref().is_none_or(|b| cand.cost < b.cost) {
                            best = Some(cand);
                        }
                    }
                }
                s1 = (s1 - 1) & mask;
            }
            if let Some(best) = best {
                table[mask] = Some(arena.len());
                arena.push(best);
                break;
            }
        }
    }
    table[full].ok_or_else(|| StorageError::Invalid("join region could not be ordered".into()))
}

/// Greedy smallest-result-first ordering for regions past [`DP_MAX`].
fn greedy_order(arena: &mut Vec<Priced>, n: usize, region: &Region<'_>) -> usize {
    let mut entries: Vec<usize> = (0..n).collect();
    while entries.len() > 1 {
        let mut best: Option<(usize, usize, Priced)> = None;
        for require_edge in [true, false] {
            for i in 0..entries.len() {
                for j in 0..entries.len() {
                    let (l, r) = (entries[i], entries[j]);
                    if i == j || (require_edge && !connected(&arena[l], &arena[r], region)) {
                        continue;
                    }
                    let cand = price_join(arena, l, r, region);
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
        entries.push(arena.len());
        arena.push(joined);
    }
    entries[0]
}

/// The searched tree behind arena entry `idx`.
fn tree_of<'p>(arena: &[Priced], idx: usize) -> Tree<'p> {
    match arena[idx].split {
        None => Tree::Rel(idx),
        Some((l, r)) => Tree::Join {
            left: Box::new(tree_of(arena, l)),
            right: Box::new(tree_of(arena, r)),
            on: None,
        },
    }
}

/// Construct and type `tree` over the region's relations — the one place a
/// region's plan is assembled, and the one place relation subplans are
/// copied. Returns the plan, its derived tree and its output layout.
fn build(tree: &Tree<'_>, region: &Region<'_>) -> Result<(Plan, DerivedTree, Vec<Origin>)> {
    match tree {
        Tree::Rel(i) => {
            let rel = &region.rels[*i];
            Ok((rel.plan.clone().into_owned(), rel.dt.clone().into_owned(), rel.layout(*i)))
        }
        Tree::Join { left, right, on } => {
            let (left, l_dt, mut layout) = build(left, region)?;
            let (right, r_dt, r_layout) = build(right, region)?;
            let on = match on {
                Some(on) => on.to_vec(),
                None => crossing(&layout, &r_layout, region)
                    .map(|(lp, rp)| {
                        let name = |dt: &DerivedTree, p| dt.derived.schema.field(p).name.clone();
                        (name(&l_dt, lp), name(&r_dt, rp))
                    })
                    .collect(),
            };
            let kind = JoinKind::Inner;
            let derived =
                derive_join(&l_dt.derived, &r_dt.derived, kind, &on, right.name_hint())?.0;
            layout.extend(r_layout);
            let plan = Plan::Join { left: Box::new(left), right: Box::new(right), kind, on };
            Ok((plan, DerivedTree::binary(derived, l_dt, r_dt), layout))
        }
    }
}

/// Reorder one region rooted at an inner join: price the incoming tree and
/// the best searched one, build whichever wins. The incoming tree is the
/// baseline: a searched order is adopted only when its estimated cost is
/// *strictly* lower, which is what makes the rule a fixed point — mirror
/// orientations tie on the symmetric cost model and must not flip-flop.
fn reorder_region(
    plan: &Plan,
    dt: &DerivedTree,
    leaves: &dyn LeafProvider,
    est: &dyn CardEstimator,
    count: &mut usize,
) -> Result<Option<(Plan, DerivedTree)>> {
    let mut region = Region::default();
    let (orig_layout, shape) = flatten(plan, dt, &mut region, leaves, est, count)?;
    let n = region.rels.len();
    // Two relations have one order up to mirroring, and mirrors tie: only
    // from three on is there anything to search — or to estimate.
    if n >= 3 {
        let mut arena = (region.rels.iter().enumerate())
            .map(|(i, rel)| price_rel(i, rel, est, leaves))
            .collect::<Result<Vec<_>>>()?;
        let baseline = price_tree(&shape, &mut arena, &region);
        let best = if n <= DP_MAX {
            dp_order(&mut arena, n, &region)?
        } else {
            greedy_order(&mut arena, n, &region)
        };
        // Strict improvement with a small relative margin, so float noise
        // between equal-cost orders can never trigger a rewrite.
        if arena[best].cost < arena[baseline].cost * (1.0 - 1e-9) {
            // Restoring projection: original names and order on top of the
            // new tree. Every column of the new output appears exactly
            // once, so the new key always survives (bare references).
            let restored = || -> Result<(Plan, DerivedTree)> {
                let (input, win_dt, layout) = build(&tree_of(&arena, best), &region)?;
                let columns: Vec<_> = (orig_layout.iter().zip(dt.derived.schema.names()))
                    .map(|(origin, name)| {
                        let p = layout
                            .iter()
                            .position(|o| o == origin)
                            .expect("reordered tree carries every region column");
                        (name.to_string(), col(win_dt.derived.schema.field(p).name.clone()))
                    })
                    .collect();
                let proj_d = derive_project(&win_dt.derived, &columns)?;
                let plan = Plan::Project { input: Box::new(input), columns };
                Ok((plan, DerivedTree::unary(proj_d, win_dt)))
            };
            // A winner that does not type is not worth an error: fall
            // through to the incoming order.
            if let Ok(restored) = restored() {
                *count += 1;
                return Ok(Some(restored));
            }
        }
    }
    // Keep the incoming order, rebuilt only around relations that changed.
    if region.rels.iter().any(|rel| matches!(rel.plan, Cow::Owned(_))) {
        let (plan, dt, _) = build(&shape, &region)?;
        return Ok(Some((plan, dt)));
    }
    Ok(None)
}
