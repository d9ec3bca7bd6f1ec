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
//!    fraction crosses 20 % — the amortized rescan that keeps the
//!    conservative bounds tight.
//!
//! Plans whose leaves are not base tables — the `__stale`, `__ins.T`,
//! `__del.T` leaves of maintenance and cleaning plans — are covered by a
//! [`ScopedStats`] overlay: the caller binds the concrete tables it is
//! about to evaluate against, their stats are built when an estimate first
//! reads them (delta tables are small, so that build is cheap — and a plan
//! the optimizer never prices pays nothing), and lookups fall through to
//! the base catalog.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use svc_storage::{Database, Deltas, Result, Table};

use crate::estimate::{CatalogEstimator, StatsProvider};
use crate::stats::TableStats;

/// Deleted fraction past which [`Catalog::commit_deltas`] rebuilds a
/// table's sketches and bounds from the live table.
const REBUILD_THRESHOLD: f64 = 0.2;

/// Per-database statistics catalog.
#[derive(Debug, Clone)]
pub struct Catalog {
    tables: BTreeMap<String, TableStats>,
    /// See [`Catalog::generation`].
    generation: u64,
}

/// The source of [`Catalog::generation`]s: process-wide, so no two stats
/// states ever share one.
static GENERATIONS: AtomicU64 = AtomicU64::new(1);

fn next_generation() -> u64 {
    GENERATIONS.fetch_add(1, Ordering::Relaxed)
}

impl Catalog {
    /// Build statistics for every table of `db`.
    pub fn build(db: &Database) -> Catalog {
        let tables = db.iter().map(|(name, t)| (name.to_string(), TableStats::build(t))).collect();
        Catalog { tables, generation: next_generation() }
    }

    /// The identity of these statistics: drawn fresh from a process-wide
    /// counter at build and on every stats mutation ([`Catalog::refresh_table`],
    /// [`Catalog::apply_deltas`], [`Catalog::commit_deltas`]); a clone keeps
    /// it, since it holds the same stats. Plan caches key cost-based plans
    /// by it.
    pub fn generation(&self) -> u64 {
        self.generation
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
        self.tables.insert(name.to_string(), TableStats::build(table));
        self.generation = next_generation();
    }

    /// Fold a pending delta set into the stats (the delta relations carry
    /// full rows in both directions, so no base-table scan is needed).
    /// Tables the catalog has never seen are ignored.
    pub fn apply_deltas(&mut self, deltas: &Deltas) {
        self.generation = next_generation();
        for (name, set) in deltas.iter() {
            if let Some(stats) = self.tables.get_mut(name) {
                stats.apply_deletes(set.deletions.rows());
                stats.apply_inserts(set.insertions.rows());
            }
        }
    }

    /// The maintenance-period commit: update the stats, apply the deltas
    /// to the base tables, and rebuild any table whose conservative bounds
    /// have degraded past a 20 % deleted fraction.
    pub fn commit_deltas(&mut self, db: &mut Database, deltas: &mut Deltas) -> Result<()> {
        self.apply_deltas(deltas);
        deltas.apply_to(db)?;
        let worn: Vec<String> = self
            .tables
            .iter()
            .filter(|(_, s)| s.staleness() > REBUILD_THRESHOLD)
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
    /// ...): bind the concrete tables, fall through to this catalog
    /// otherwise.
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

    fn generation(&self) -> Option<u64> {
        Some(self.generation)
    }
}

/// A catalog overlay binding extra leaf names to concrete tables, whose
/// statistics are built the first time an estimate reads them.
pub struct ScopedStats<'a> {
    base: &'a Catalog,
    extra: BTreeMap<String, (&'a Table, OnceLock<TableStats>)>,
}

impl<'a> ScopedStats<'a> {
    /// Bind `name` to `table`. Nothing is scanned here: a plan whose join
    /// regions are never priced drops the overlay unread, one that is pays
    /// one build scan per bound leaf it asks about (delta chunks, the stale
    /// sample — the small relations of a maintenance plan).
    pub fn bind_table(&mut self, name: impl Into<String>, table: &'a Table) -> &mut Self {
        self.extra.insert(name.into(), (table, OnceLock::new()));
        self
    }

    /// The estimator to hand to `optimize_with`.
    pub fn estimator(&self) -> CatalogEstimator<'_> {
        CatalogEstimator::new(self)
    }
}

impl StatsProvider for ScopedStats<'_> {
    fn stats(&self, name: &str) -> Option<&TableStats> {
        match self.extra.get(name) {
            Some((table, stats)) => Some(stats.get_or_init(|| TableStats::build(table))),
            None => self.base.stats(name),
        }
    }

    /// The base catalog's: the overlay only adds per-call leaves.
    fn generation(&self) -> Option<u64> {
        Some(self.base.generation)
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
            deltas.delete(&db, "t", &[Value::Int(i), Value::Null]).unwrap();
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
            deltas.delete(&db, "t", &[Value::Int(i), Value::Null]).unwrap();
        }
        cat.commit_deltas(&mut db, &mut deltas).unwrap();
        let s = cat.stats("t").unwrap();
        assert_eq!(s.staleness(), 0.0, "40% deletions must have forced a rebuild");
        // Post-rebuild the bounds are tight again: ids 0..119 are gone.
        assert_eq!(s.cols[0].min, Some(120.0));
    }

    /// Below the rebuild threshold a commit stays incremental: the stats
    /// keep counting the deleted fraction, and their bounds stay the old
    /// ones.
    #[test]
    fn light_deletion_stays_incremental() {
        let mut db = db();
        let mut cat = Catalog::build(&db);
        let mut deltas = Deltas::new();
        for i in 0..30i64 {
            deltas.delete(&db, "t", &[Value::Int(i), Value::Null]).unwrap();
        }
        cat.commit_deltas(&mut db, &mut deltas).unwrap();
        let s = cat.stats("t").unwrap();
        assert_eq!(s.rows, 270);
        assert_eq!(s.staleness(), 0.1, "10% deleted is under the threshold: no rebuild");
        assert_eq!(s.cols[0].min, Some(0.0), "the deleted minimum stays a conservative bound");
    }

    /// Plan caches key cost-based plans by the generation: a clone holds the
    /// same stats and keeps it, every mutator draws a new one, and two
    /// builds of one database never share one.
    #[test]
    fn clones_keep_the_generation_and_every_mutator_changes_it() {
        let mut db = db();
        let mut cat = Catalog::build(&db);
        assert_ne!(cat.generation(), Catalog::build(&db).generation());
        assert_eq!(cat.clone().generation(), cat.generation());
        assert_eq!(StatsProvider::generation(&cat.scoped()), Some(cat.generation()));
        let est = cat.estimator();
        assert_eq!(svc_relalg::optimizer::CardEstimator::generation(&est), Some(cat.generation()));

        let mut seen = vec![cat.generation()];
        let mut deltas = Deltas::new();
        deltas.insert(&db, "t", vec![Value::Int(300), Value::Float(1.0)]).unwrap();
        cat.apply_deltas(&deltas);
        seen.push(cat.generation());
        cat.refresh_table("t", db.table("t").unwrap());
        seen.push(cat.generation());
        cat.commit_deltas(&mut db, &mut deltas).unwrap();
        seen.push(cat.generation());
        let distinct: std::collections::BTreeSet<_> = seen.iter().collect();
        assert_eq!(distinct.len(), seen.len(), "every mutator draws a new generation: {seen:?}");
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

    #[test]
    fn overlay_stats_are_built_when_read_not_when_bound() {
        use svc_relalg::optimizer::optimize_with;
        use svc_relalg::plan::{JoinKind, Plan};

        // A four-relation star: `t` and three small relations keyed like it.
        let mut db = db();
        let small = |n: i64| {
            let mut s = Table::new(db.table("t").unwrap().schema().clone(), &["id"]).unwrap();
            for i in 0..n {
                s.insert(vec![Value::Int(i), Value::Float(i as f64)]).unwrap();
            }
            s
        };
        let (a, b, c, unused) = (small(5), small(50), small(20), small(3));
        for (name, table) in [("a", &a), ("b", &b), ("c", &c)] {
            db.create_table(name, table.clone());
        }
        let cat = Catalog::build(&db);
        let join = |l: Plan, r: &str| l.join(Plan::scan(r), JoinKind::Inner, &[("id", "id")]);
        let built = |scoped: &ScopedStats<'_>| -> Vec<String> {
            let built = scoped.extra.iter().filter(|(_, (_, stats))| stats.get().is_some());
            built.map(|(name, _)| name.clone()).collect()
        };

        let mut scoped = cat.scoped();
        scoped.bind_table("a", &a).bind_table("b", &b).bind_table("unused", &unused);
        assert!(built(&scoped).is_empty(), "binding scans nothing");

        // A region of two relations has one order: nothing is priced.
        optimize_with(&join(Plan::scan("t"), "a"), &db, &scoped.estimator()).unwrap();
        assert!(built(&scoped).is_empty(), "an unpriced plan reads no stats");

        // The star is searched: every bound leaf it prices is built once,
        // `c` comes from the base catalog, `unused` is never scanned.
        let star = join(join(join(Plan::scan("t"), "b"), "c"), "a");
        optimize_with(&star, &db, &scoped.estimator()).unwrap();
        assert_eq!(built(&scoped), vec!["a", "b"]);
        assert_eq!(scoped.stats("a").unwrap().rows, 5);
    }
}
