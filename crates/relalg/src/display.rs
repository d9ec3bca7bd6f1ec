//! Pretty-printing of plan trees, mirroring the expression trees drawn in
//! Figures 2 and 3 of the paper.

use std::fmt;

use crate::plan::{JoinKind, Plan, SetOpKind};

impl Plan {
    fn fmt_node(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        let pad = "  ".repeat(indent);
        match self {
            Plan::Scan { table } => writeln!(f, "{pad}Scan {table}"),
            Plan::Select { input, predicate } => {
                writeln!(f, "{pad}Select σ[{predicate}]")?;
                input.fmt_node(f, indent + 1)
            }
            Plan::Project { input, columns } => {
                let cols: Vec<String> = columns.iter().map(|(a, e)| format!("{a}={e}")).collect();
                writeln!(f, "{pad}Project Π[{}]", cols.join(", "))?;
                input.fmt_node(f, indent + 1)
            }
            Plan::Join { left, right, kind, on } => {
                let k = match kind {
                    JoinKind::Inner => "⋈",
                    JoinKind::Left => "⟕",
                    JoinKind::Right => "⟖",
                    JoinKind::Full => "⟗",
                    JoinKind::Semi => "⋉",
                    JoinKind::Anti => "▷",
                };
                let conds: Vec<String> = on.iter().map(|(l, r)| format!("{l}={r}")).collect();
                writeln!(f, "{pad}Join {k} [{}]", conds.join(" AND "))?;
                left.fmt_node(f, indent + 1)?;
                right.fmt_node(f, indent + 1)
            }
            Plan::Aggregate { input, group_by, aggregates } => {
                let aggs: Vec<String> = aggregates
                    .iter()
                    .map(|a| format!("{}={:?}({})", a.alias, a.func, a.arg))
                    .collect();
                writeln!(f, "{pad}Aggregate γ[by {}; {}]", group_by.join(","), aggs.join(", "))?;
                input.fmt_node(f, indent + 1)
            }
            Plan::SetOp { kind, left, right } => {
                let label = match kind {
                    SetOpKind::Union => "Union ∪",
                    SetOpKind::Intersect => "Intersect ∩",
                    SetOpKind::Difference => "Difference −",
                };
                writeln!(f, "{pad}{label}")?;
                left.fmt_node(f, indent + 1)?;
                right.fmt_node(f, indent + 1)
            }
            Plan::Hash { input, key, ratio, .. } => {
                writeln!(f, "{pad}Hash η[key=({}), m={ratio}]", key.join(","))?;
                input.fmt_node(f, indent + 1)
            }
        }
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_node(f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggSpec;
    use crate::scalar::{col, lit};

    #[test]
    fn renders_tree() {
        let plan = Plan::scan("log")
            .join(Plan::scan("video"), JoinKind::Inner, &[("videoId", "videoId")])
            .aggregate(&["videoId"], vec![AggSpec::count_all("visitCount")])
            .select(col("visitCount").gt(lit(100i64)))
            .hash(&["videoId"], 0.05, Default::default());
        let s = plan.to_string();
        assert!(s.contains("Hash η[key=(videoId), m=0.05]"));
        assert!(s.contains("Join ⋈ [videoId=videoId]"));
        assert!(s.contains("Scan log"));
        // Children are indented under parents.
        assert!(s.lines().count() >= 5);
    }
}
