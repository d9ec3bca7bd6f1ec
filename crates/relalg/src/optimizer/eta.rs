//! Where η rests: the report of the hash-sampling pushdown.
//!
//! `η_{a,m}` is a selection on a deterministic predicate of its key (the
//! paper's Definition 3), so the filter pass ([`super::predicate`]) sinks it
//! with σ and the leaf key sets, by the Section 4.3/4.4 legality
//! conditions. [`EtaReport`] says what that achieved: how many operators the
//! η crossed, counted by the pass, and where each η of the optimized plan
//! rests, read off in one walk ([`describe`]): an η directly over a scan
//! samples that leaf, and an η resting over Π, γ or ⋈ records the node that
//! stopped it as a *blocker* — nested group-by aggregates (NP-hard in
//! general, Appendix 12.4) and key-transforming projections (the paper's
//! V21/V22) surface here.

use crate::plan::Plan;

/// What the η pushdown did: how far hashes moved and where they rest.
#[derive(Debug, Clone, Default)]
pub struct EtaReport {
    /// Number of operators (Π, γ, joins, set operations) the hashes were
    /// pushed through, an η entering both inputs counted once, plus one per
    /// η∘η composition (a node was eliminated). Passing another filter (σ,
    /// a leaf ⋉) is no descent.
    pub descended: usize,
    /// Human-readable reasons the push stopped somewhere above a leaf, one
    /// per η of the optimized plan resting over Π, γ or ⋈.
    pub blockers: Vec<String>,
    /// Leaf relations with a hash directly above them in the optimized plan;
    /// only these are eligible carriers for outlier indexes (Section 6.2).
    pub sampled_leaves: Vec<String>,
}

impl EtaReport {
    /// True iff every hash reached the leaves unimpeded.
    pub fn fully_pushed(&self) -> bool {
        self.blockers.is_empty()
    }
}

/// Record where each η of `plan` rests, children first: over a scan it
/// samples that leaf; over Π, γ or ⋈ that node blocked it; over another η
/// (different key or spec) it is neither. After the filter pass no η rests
/// over σ, a leaf ⋉ or a set operation.
pub fn describe(plan: &Plan, report: &mut EtaReport) {
    for child in plan.children() {
        describe(child, report);
    }
    let Plan::Hash { input, key, .. } = plan else { return };
    let key = key.join(",");
    let blocker = match &**input {
        Plan::Scan { table } => {
            report.sampled_leaves.push(table.clone());
            return;
        }
        Plan::Project { .. } => format!("projection transforms hash key ({key}); η stays above Π"),
        Plan::Aggregate { group_by, .. } => format!(
            "hash key ({key}) is not contained in the group-by clause ({}); η stays above γ \
             (nested-aggregate blocker, Appendix 12.4)",
            group_by.join(",")
        ),
        Plan::Join { .. } => format!(
            "join blocks η on key ({key}): key spans both inputs and is not covered by the \
             equality condition"
        ),
        _ => return,
    };
    report.blockers.push(blocker);
}
