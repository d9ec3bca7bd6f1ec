//! The view's plan cache: each view delta planned once per signature.
//!
//! Between two maintenances the *shape* of a view's delta work repeats —
//! the same view, the same delta signature, the same η — and only the delta
//! rows change. A view's plan cache holds the answer of
//! [`view_delta`](crate::strategy::view_delta) η-wrapped, optimized and
//! compiled ([`CompiledDelta`]), so the delta runner
//! ([`MaterializedView::maintained`](crate::view::MaterializedView::maintained):
//! maintenance, sample cleaning, the pipeline's fallback) and the mini-batch
//! pipeline's change plans derive, optimize and compile a signature once and
//! afterwards only run and fold.
//!
//! The cache key holds everything a compiled plan depends on besides the
//! view itself: the η spec (ratio bits and hash) or none, the delta
//! signature ([`DeltaInfo`]: which tables have insertions / deletions — the
//! derivation prunes absent sides), the base leaves' schemas and keys (their
//! leaves validate against them at run time, so a schema change keys to a
//! fresh entry instead of failing forever), and the statistics generation of
//! the estimator the plan was optimized under, or none. Delta *sizes* are
//! not in it: a plan is priced on the first deltas that carry its signature,
//! and a join order changes what a run costs, never its rows. An estimator
//! without a generation is never cached.
//!
//! One cache per view, shared by its clones (the by-hash samples of a view
//! and its IVM clone hit the same entries), kept across commits: no plan
//! reads `__stale`, and the stale schema never changes. Errors are never
//! stored. At 64 entries the cache is flushed whole — crude but safe,
//! everything rebuilds at most once — and a lock poisoned by a panicking
//! holder is recovered the same way: its entries dropped, the poison
//! cleared.

use std::collections::HashMap;
use std::fmt::Write;
use std::sync::{Arc, Mutex, MutexGuard};

use svc_relalg::exec::PhysicalPlan;
use svc_relalg::optimizer::{CardEstimator, EtaReport};
use svc_storage::{Database, HashSpec, Result};
use svc_telemetry::Counter;

use crate::delta::DeltaInfo;
use crate::strategy::ViewDelta;

/// Entry cap of one view's cache: a long-lived view over shifting delta
/// signatures or statistics generations must not grow without bound.
const PLAN_CACHE_CAP: usize = 64;

/// A view delta planned once: [`view_delta`](crate::strategy::view_delta)'s
/// answer with every plan η-wrapped (under η), optimized and compiled.
#[derive(Debug)]
pub struct CompiledDelta {
    /// The compiled answer.
    pub delta: ViewDelta<PhysicalPlan>,
    /// The union of its plans' η reports (empty without η).
    pub report: EtaReport,
}

/// What a compiled view delta depends on besides the view (see the module
/// docs).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct PlanKey {
    eta: Option<(u64, HashSpec)>,
    info: DeltaInfo,
    stats: Option<u64>,
    shapes: String,
}

impl PlanKey {
    /// The key of a delta with signature `info` over the base `leaves` of
    /// `db`; `None` when `est` has no generation (not cacheable).
    pub(crate) fn new(
        leaves: &[&str],
        db: &Database,
        info: &DeltaInfo,
        eta: Option<(f64, HashSpec)>,
        est: Option<&dyn CardEstimator>,
    ) -> Option<PlanKey> {
        let stats = match est {
            Some(est) => Some(est.generation()?),
            None => None,
        };
        // Debug-quoted names and keys delimit themselves: distinct shapes
        // never print alike.
        let mut shapes = String::new();
        for leaf in leaves {
            if let Ok(t) = db.table(leaf) {
                let _ = write!(shapes, "{leaf:?}");
                for f in t.schema().fields() {
                    let _ = write!(shapes, "{:?}{:?}", f.name, f.dtype);
                }
                let _ = write!(shapes, "{:?}", t.key());
            }
        }
        Some(PlanKey {
            eta: eta.map(|(ratio, spec)| (ratio.to_bits(), spec)),
            info: info.clone(),
            stats,
            shapes,
        })
    }
}

/// One read of a view's plan cache.
#[derive(Debug, Clone)]
pub struct PlanLookup {
    /// The compiled delta, cached or just built.
    pub plan: Arc<CompiledDelta>,
    /// Served from the cache: nothing was derived, optimized or compiled.
    pub hit: bool,
    /// The cache's lock was found poisoned and recovered on this read.
    pub recovered_poison: bool,
}

/// A reading of a view's plan cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanMetrics {
    /// Delta plans built (derived, optimized, compiled): the cache's misses.
    pub built: u64,
    /// Delta plans served from the cache.
    pub hits: u64,
    /// Entries held now.
    pub entries: usize,
}

/// The compiled deltas of one view, by key (see the module docs).
#[derive(Default)]
pub(crate) struct PlanCache {
    entries: Mutex<HashMap<PlanKey, Arc<CompiledDelta>>>,
    built: Counter,
    hits: Counter,
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache").field("metrics", &self.metrics()).finish()
    }
}

impl PlanCache {
    /// The entry under `key`, never building one. A poisoned lock reads as
    /// a miss (the next [`PlanCache::get_or_build`] recovers it).
    pub(crate) fn peek(&self, key: &PlanKey) -> Option<Arc<CompiledDelta>> {
        self.entries.lock().ok()?.get(key).cloned()
    }

    /// The entry under `key`, or `build`'s, stored on success. `build` runs
    /// outside the lock; with no key it runs every time and nothing is
    /// stored.
    pub(crate) fn get_or_build(
        &self,
        key: Option<PlanKey>,
        build: impl FnOnce() -> Result<CompiledDelta>,
    ) -> Result<PlanLookup> {
        let mut recovered_poison = false;
        if let Some(key) = &key {
            let (entries, poisoned) = self.lock();
            recovered_poison = poisoned;
            if let Some(plan) = entries.get(key) {
                self.hits.inc();
                return Ok(PlanLookup { plan: Arc::clone(plan), hit: true, recovered_poison });
            }
        }
        let plan = Arc::new(build()?);
        self.built.inc();
        if let Some(key) = key {
            let (mut entries, poisoned) = self.lock();
            recovered_poison |= poisoned;
            if entries.len() >= PLAN_CACHE_CAP {
                entries.clear();
            }
            entries.insert(key, Arc::clone(&plan));
        }
        Ok(PlanLookup { plan, hit: false, recovered_poison })
    }

    /// Lock the entries, recovering from poison: a panic while the lock was
    /// held may have left a half-written entry, so the contents are dropped
    /// whole and the poison cleared, so later locks take the fast path.
    fn lock(&self) -> (MutexGuard<'_, HashMap<PlanKey, Arc<CompiledDelta>>>, bool) {
        match self.entries.lock() {
            Ok(guard) => (guard, false),
            Err(poisoned) => {
                let mut guard = poisoned.into_inner();
                guard.clear();
                self.entries.clear_poison();
                (guard, true)
            }
        }
    }

    /// The counters, and the entries held (0 while the lock is poisoned).
    pub(crate) fn metrics(&self) -> PlanMetrics {
        PlanMetrics {
            built: self.built.get(),
            hits: self.hits.get(),
            entries: self.entries.lock().map_or(0, |e| e.len()),
        }
    }

    /// Poison the lock, as a holder that panics mid-update would.
    pub(crate) fn poison(self: &Arc<Self>) {
        let cache = Arc::clone(self);
        std::thread::spawn(move || {
            let _guard = cache.entries.lock();
            panic!("simulated panic while holding the plan cache");
        })
        .join()
        .expect_err("the holder panics");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svc_storage::StorageError;

    fn key(stats: u64) -> Option<PlanKey> {
        Some(PlanKey {
            eta: None,
            info: DeltaInfo::default(),
            stats: Some(stats),
            shapes: "".into(),
        })
    }

    fn noop() -> Result<CompiledDelta> {
        Ok(CompiledDelta { delta: ViewDelta::NoOp, report: EtaReport::default() })
    }

    #[test]
    fn the_cap_flushes_whole_errors_are_never_stored_and_poison_recovers() {
        let cache = Arc::new(PlanCache::default());
        for i in 0..PLAN_CACHE_CAP as u64 {
            assert!(!cache.get_or_build(key(i), noop).unwrap().hit);
        }
        assert!(cache.get_or_build(key(0), noop).unwrap().hit);
        cache.get_or_build(key(PLAN_CACHE_CAP as u64), noop).unwrap();
        assert_eq!(cache.metrics().entries, 1, "flushed whole at the cap");

        let failed = cache.get_or_build(key(999), || Err(StorageError::Invalid("no".into())));
        assert!(failed.is_err());
        assert_eq!(cache.metrics().entries, 1, "an error is never stored");
        // Without a key (an estimator of unknown statistics) nothing is.
        assert!(!cache.get_or_build(None, noop).unwrap().hit);
        assert_eq!(cache.metrics().entries, 1);

        cache.poison();
        assert!(cache.peek(&key(PLAN_CACHE_CAP as u64).unwrap()).is_none(), "poisoned: a miss");
        let lookup = cache.get_or_build(key(PLAN_CACHE_CAP as u64), noop).unwrap();
        assert!(lookup.recovered_poison && !lookup.hit, "recovered by dropping the entries");
        assert!(cache.get_or_build(key(PLAN_CACHE_CAP as u64), noop).unwrap().hit);
        let m = cache.metrics();
        assert_eq!((m.built, m.hits, m.entries), (PLAN_CACHE_CAP as u64 + 3, 2, 1));
    }
}
