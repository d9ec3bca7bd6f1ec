//! The statistics catalog: one [`TableStats`] per base relation, kept
//! fresh incrementally as deltas commit.
//!
//! Lifecycle:
//!
//! 1. **Build** once from the database ([`Catalog::build`]) — the only
//!    full scan in the common path;
//! 2. **Maintain** under every delta commit ([`Catalog::apply_deltas`],
//!    or [`Catalog::commit_deltas`] which also applies the deltas to the
//!    base tables) — counts and histograms stay exact, bounds stay
//!    conservative (see [`crate::stats`]);
//! 3. **Rebuild** a table's stats from scratch only when its deleted
//!    fraction crosses [`Catalog::rebuild_threshold`] — the amortized
//!    rescan that keeps the conservative bounds tight.
//!
//! Plans whose leaves are not base tables — the `__stale`, `__ins.T`,
//! `__del.T` leaves of maintenance and cleaning plans — are covered by a
//! [`ScopedStats`] overlay: the caller binds stats for the concrete tables
//! it is about to evaluate against (delta tables are small, so building
//! their stats on the fly is cheap), and lookups fall through to the base
//! catalog.

use std::collections::BTreeMap;

use svc_storage::{Database, Deltas, Result, Table};

use crate::estimate::{CatalogEstimator, StatsProvider};
use crate::stats::{StatsConfig, TableStats};

/// Per-database statistics catalog.
#[derive(Debug, Clone)]
pub struct Catalog {
    config: StatsConfig,
    /// Deleted fraction past which a table's sketches/bounds are rebuilt
    /// on the next [`Catalog::apply_deltas`] touching it (needs the live
    /// table, so the rebuild happens in [`Catalog::commit_deltas`]).
    pub rebuild_threshold: f64,
    tables: BTreeMap<String, TableStats>,
}

impl Catalog {
    /// Build statistics for every table of `db` with default parameters.
    pub fn build(db: &Database) -> Catalog {
        Catalog::build_with(db, StatsConfig::default())
    }

    /// Build with explicit parameters.
    pub fn build_with(db: &Database, config: StatsConfig) -> Catalog {
        let tables =
            db.iter().map(|(name, t)| (name.to_string(), TableStats::build(t, &config))).collect();
        Catalog { config, rebuild_threshold: 0.2, tables }
    }

    /// The build parameters.
    pub fn config(&self) -> &StatsConfig {
        &self.config
    }

    /// Statistics of one table.
    pub fn stats(&self, name: &str) -> Option<&TableStats> {
        self.tables.get(name)
    }

    /// Number of cataloged tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True iff no table is cataloged.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// (Re)build one table's stats from its current contents.
    pub fn refresh_table(&mut self, name: &str, table: &Table) {
        self.tables.insert(name.to_string(), TableStats::build(table, &self.config));
    }

    /// Fold a pending delta set into the stats (the delta relations carry
    /// full rows in both directions, so no base-table scan is needed).
    /// Tables the catalog has never seen are ignored.
    pub fn apply_deltas(&mut self, deltas: &Deltas) {
        for (name, set) in deltas.iter() {
            if let Some(stats) = self.tables.get_mut(name) {
                stats.apply_deletes(set.deletions.rows());
                stats.apply_inserts(set.insertions.rows());
            }
        }
    }

    /// The maintenance-period commit: update the stats, apply the deltas
    /// to the base tables, and rebuild any table whose conservative bounds
    /// have degraded past [`Catalog::rebuild_threshold`].
    pub fn commit_deltas(&mut self, db: &mut Database, deltas: &mut Deltas) -> Result<()> {
        self.apply_deltas(deltas);
        deltas.apply_to(db)?;
        let worn: Vec<String> = self
            .tables
            .iter()
            .filter(|(_, s)| s.staleness() > self.rebuild_threshold)
            .map(|(n, _)| n.clone())
            .collect();
        for name in worn {
            if let Ok(t) = db.table(&name) {
                self.refresh_table(&name, t);
            }
        }
        Ok(())
    }

    /// An overlay for plans with non-base leaves (`__stale`, `__ins.T`,
    /// ...): bind stats for the concrete tables, fall through to this
    /// catalog otherwise.
    pub fn scoped(&self) -> ScopedStats<'_> {
        ScopedStats { base: self, extra: BTreeMap::new() }
    }

    /// The estimator to hand to `optimize_with`.
    pub fn estimator(&self) -> CatalogEstimator<'_> {
        CatalogEstimator::new(self)
    }
}

impl StatsProvider for Catalog {
    fn stats(&self, name: &str) -> Option<&TableStats> {
        self.tables.get(name)
    }
}

/// A catalog overlay binding extra leaf names to ad-hoc statistics.
pub struct ScopedStats<'a> {
    base: &'a Catalog,
    extra: BTreeMap<String, TableStats>,
}

impl ScopedStats<'_> {
    /// Bind `name` to freshly-built stats over `table`. Intended for the
    /// small relations of a maintenance plan (delta chunks, the stale
    /// view), where the build scan is negligible.
    pub fn bind_table(&mut self, name: impl Into<String>, table: &Table) -> &mut Self {
        self.extra.insert(name.into(), TableStats::build(table, &self.base.config));
        self
    }

    /// The estimator to hand to `optimize_with`.
    pub fn estimator(&self) -> CatalogEstimator<'_> {
        CatalogEstimator::new(self)
    }
}

impl StatsProvider for ScopedStats<'_> {
    fn stats(&self, name: &str) -> Option<&TableStats> {
        self.extra.get(name).or_else(|| self.base.stats(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svc_storage::{DataType, Schema, Value};

    fn db() -> Database {
        let mut db = Database::new();
        let mut t = Table::new(
            Schema::from_pairs(&[("id", DataType::Int), ("x", DataType::Float)]).unwrap(),
            &["id"],
        )
        .unwrap();
        for i in 0..300i64 {
            t.insert(vec![Value::Int(i), Value::Float((i % 40) as f64)]).unwrap();
        }
        db.create_table("t", t);
        db
    }

    #[test]
    fn incremental_commit_matches_rebuilt_stats() {
        let mut db = db();
        let mut cat = Catalog::build(&db);
        let mut deltas = Deltas::new();
        for i in 300..400i64 {
            deltas.insert(&db, "t", vec![Value::Int(i), Value::Float(7.0)]).unwrap();
        }
        for i in 0..20i64 {
            deltas.delete(&db, "t", &vec![Value::Int(i), Value::Null]).unwrap();
        }
        cat.commit_deltas(&mut db, &mut deltas).unwrap();
        assert!(deltas.is_empty(), "commit drains the deltas");
        let incr = cat.stats("t").unwrap();
        assert_eq!(incr.rows, 380);
        let rebuilt = incr.rebuilt_like(db.table("t").unwrap());
        assert_eq!(incr.rows, rebuilt.rows);
        for (a, b) in incr.cols.iter().zip(&rebuilt.cols) {
            assert_eq!(a.nulls, b.nulls);
            assert_eq!(a.histogram, b.histogram);
        }
    }

    #[test]
    fn heavy_deletion_triggers_rebuild() {
        let mut db = db();
        let mut cat = Catalog::build(&db);
        let mut deltas = Deltas::new();
        for i in 0..120i64 {
            deltas.delete(&db, "t", &vec![Value::Int(i), Value::Null]).unwrap();
        }
        cat.commit_deltas(&mut db, &mut deltas).unwrap();
        let s = cat.stats("t").unwrap();
        assert_eq!(s.staleness(), 0.0, "40% deletions must have forced a rebuild");
        // Post-rebuild the bounds are tight again: ids 0..119 are gone.
        assert_eq!(s.cols[0].min, Some(120.0));
    }

    #[test]
    fn scoped_overlay_shadows_and_falls_through() {
        let db = db();
        let cat = Catalog::build(&db);
        let mut small = Table::new(
            Schema::from_pairs(&[("id", DataType::Int), ("x", DataType::Float)]).unwrap(),
            &["id"],
        )
        .unwrap();
        small.insert(vec![Value::Int(1), Value::Float(0.0)]).unwrap();
        let mut scoped = cat.scoped();
        scoped.bind_table("__ins.t@0", &small);
        assert_eq!(scoped.stats("__ins.t@0").unwrap().rows, 1);
        assert_eq!(scoped.stats("t").unwrap().rows, 300, "fallthrough to the base catalog");
        assert!(scoped.stats("missing").is_none());
    }
}
