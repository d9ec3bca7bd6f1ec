//! Random aggregate-query generation over a view's public schema — the
//! protocol of Section 7.1: "we picked a random attribute a from the group
//! by clause and a random attribute b from aggregation [...] we select a
//! random subset of this domain [...] 100 random sum, avg, and count
//! queries for each view".

use rand::rngs::StdRng;
use rand::Rng;

use svc_core::query::{AggQuery, QueryAgg};
use svc_relalg::scalar::{col, Expr};
use svc_storage::{Result, Table, Value};

/// Generate `count` random queries over `view` (public schema): aggregate
/// drawn from {sum, avg, count}, measure from `measures`, and a range
/// predicate over a random dimension's observed domain.
pub fn random_queries(
    view: &Table,
    dims: &[&str],
    measures: &[&str],
    count: usize,
    rng: &mut StdRng,
) -> Result<Vec<AggQuery>> {
    assert!(!dims.is_empty() && !measures.is_empty());
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let dim = dims[rng.random_range(0..dims.len())];
        let measure = measures[rng.random_range(0..measures.len())];
        let agg = match rng.random_range(0..3) {
            0 => QueryAgg::Sum,
            1 => QueryAgg::Avg,
            _ => QueryAgg::Count,
        };
        let predicate = random_range_predicate(view, dim, rng)?;
        out.push(AggQuery { agg, attr: col(measure), predicate: Some(predicate) });
    }
    Ok(out)
}

/// A random sub-range predicate over the observed domain of `dim`,
/// targeting a selectivity between roughly 10% and 60%.
pub fn random_range_predicate(view: &Table, dim: &str, rng: &mut StdRng) -> Result<Expr> {
    let idx = view.schema().resolve(dim)?;
    let mut values: Vec<Value> = view.rows().iter().map(|r| r[idx].clone()).collect();
    values.sort();
    values.dedup();
    let n = values.len().max(1);
    let width = ((n as f64 * rng.random_range(0.1..0.6)) as usize).max(1);
    let start = rng.random_range(0..n.saturating_sub(width).max(1));
    let lo = values[start].clone();
    let hi = values[(start + width).min(n - 1)].clone();
    Ok(col(dim).ge(Expr::Lit(lo)).and(col(dim).le(Expr::Lit(hi))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use svc_storage::{DataType, Schema};

    fn view() -> Table {
        let schema = Schema::from_pairs(&[("g", DataType::Int), ("m", DataType::Float)]).unwrap();
        let mut t = Table::new(schema, &["g"]).unwrap();
        for g in 0..100i64 {
            t.insert(vec![Value::Int(g), Value::Float((g * 3 % 17) as f64)]).unwrap();
        }
        t
    }

    #[test]
    fn generated_queries_run_and_select_subsets() {
        let v = view();
        let mut rng = StdRng::seed_from_u64(12);
        let qs = random_queries(&v, &["g"], &["m"], 50, &mut rng).unwrap();
        assert_eq!(qs.len(), 50);
        let mut nontrivial = 0;
        for q in &qs {
            let count = AggQuery { predicate: q.predicate.clone(), ..AggQuery::count() };
            let hits = count.exact(&v).unwrap() as usize;
            assert!(hits <= v.len());
            if hits > 0 && hits < v.len() {
                nontrivial += 1;
            }
        }
        assert!(nontrivial > 25, "most predicates should be selective: {nontrivial}");
    }

    #[test]
    fn deterministic_per_seed() {
        let v = view();
        let a = random_queries(&v, &["g"], &["m"], 5, &mut StdRng::seed_from_u64(3)).unwrap();
        let b = random_queries(&v, &["g"], &["m"], 5, &mut StdRng::seed_from_u64(3)).unwrap();
        assert_eq!(a, b);
    }
}
