#![forbid(unsafe_code)]

//! # svc-fault
//!
//! Deterministic failpoint injection for chaos-testing the maintenance
//! stack.
//!
//! A *failpoint* is a named site in production code where a test can
//! schedule a failure: after `skip` passes through the site, the next
//! `count` passes fail with the scheduled [`FailAction`] (a returned error
//! or a panic). Sites are identified by the string constants in [`site`];
//! schedules are installed in a process-global registry via [`set`] (or
//! derived from a seed via [`seeded_schedule`]) and removed with
//! [`clear_all`].
//!
//! The registry is always compiled — it is a few atomics and a mutex — but
//! the *call sites* are compiled into consumer crates only when those
//! crates enable their own `failpoints` feature: the [`fail_point!`] and
//! [`fail_point_panic!`] macros expand to a branch on
//! `cfg!(feature = "failpoints")` evaluated in the **calling** crate, so a
//! default build carries a constant-false branch the optimizer removes and
//! the hot paths pay nothing. The workspace umbrella feature `failpoints`
//! turns every site on at once for the chaos harness
//! (`tests/fault_prop.rs`).
//!
//! Determinism: scheduling is per-site hit counting under one lock — for a
//! fixed schedule and a deterministic workload, the same hit of the same
//! site fails on every run. [`seeded_schedule`] derives schedules from a
//! `u64` seed with a SplitMix64 generator, so a failing chaos run is
//! reproducible from its seed alone.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

use svc_telemetry::Counter;

/// What a firing failpoint does at its site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailAction {
    /// The site returns an error through its normal error channel. At
    /// sites with no error channel (e.g. worker task dispatch) this
    /// degrades to a panic, which the surrounding pool machinery catches
    /// and surfaces as a session error.
    Error,
    /// The site panics. Production code never swallows these silently:
    /// either a `catch_unwind` boundary converts them into session errors,
    /// or the caller unwinds — both are legitimate chaos outcomes.
    Panic,
}

/// A failure schedule for one site: pass `skip` times, then fail the next
/// `count` passes with `action`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailSpec {
    /// Hits that pass through unharmed before the first failure.
    pub skip: u64,
    /// Consecutive hits that fail once `skip` is exhausted.
    pub count: u64,
    /// What a failing hit does.
    pub action: FailAction,
}

impl FailSpec {
    /// Fail the first `count` hits with `action` (no skip).
    pub fn immediate(count: u64, action: FailAction) -> FailSpec {
        FailSpec { skip: 0, count, action }
    }
}

/// One firing of a failpoint, as observed by the site.
#[derive(Debug, Clone)]
pub struct Fired {
    /// The scheduled action.
    pub action: FailAction,
    /// A diagnosis string naming the site and its hit/fire counts; embedded
    /// in the injected error or panic message (always containing the word
    /// "failpoint", so harnesses can tell injected failures from real ones).
    pub message: String,
}

#[derive(Debug)]
struct SiteState {
    spec: FailSpec,
    hits: u64,
    fired: u64,
}

/// Number of configured sites — the lock-free fast path: when zero (the
/// steady state outside chaos tests), [`check`] returns immediately.
static ARMED: AtomicUsize = AtomicUsize::new(0);

/// Total failpoint firings process-wide, on the shared telemetry counter
/// primitive ([`fires_total`]).
static FIRES: Counter = Counter::new();

fn registry() -> &'static Mutex<HashMap<String, SiteState>> {
    static REG: OnceLock<Mutex<HashMap<String, SiteState>>> = OnceLock::new();
    REG.get_or_init(Mutex::default)
}

/// The registry must stay usable even if a thread panicked while holding
/// it (injected panics are this crate's whole business): recover the guard
/// from the poison instead of propagating it.
fn lock() -> MutexGuard<'static, HashMap<String, SiteState>> {
    registry().lock().unwrap_or_else(PoisonError::into_inner)
}

/// Install (or replace) the failure schedule of one site. Hit counting
/// restarts from zero.
pub fn set(site: &str, spec: FailSpec) {
    let mut reg = lock();
    reg.insert(site.to_string(), SiteState { spec, hits: 0, fired: 0 });
    ARMED.store(reg.len(), Ordering::SeqCst);
}

/// Remove one site's schedule (its hit/fire counts are forgotten).
pub fn clear(site: &str) {
    let mut reg = lock();
    reg.remove(site);
    ARMED.store(reg.len(), Ordering::SeqCst);
}

/// Remove every schedule. Chaos harnesses call this between runs; the
/// registry is process-global, so concurrent chaos tests must serialize.
pub fn clear_all() {
    let mut reg = lock();
    reg.clear();
    ARMED.store(0, Ordering::SeqCst);
}

/// Record one pass through `site`; returns the action to take if the
/// site's schedule says this hit fails. Lock-free `None` when no site at
/// all is configured.
pub fn check(site: &str) -> Option<Fired> {
    if ARMED.load(Ordering::Relaxed) == 0 {
        return None;
    }
    let mut reg = lock();
    let st = reg.get_mut(site)?;
    st.hits += 1;
    if st.hits > st.spec.skip && st.fired < st.spec.count {
        st.fired += 1;
        FIRES.inc();
        Some(Fired {
            action: st.spec.action,
            message: format!(
                "failpoint `{site}` fired (hit {}, fire {}/{})",
                st.hits, st.fired, st.spec.count
            ),
        })
    } else {
        None
    }
}

/// Like [`check`], but for sites with no error channel: **any** scheduled
/// action panics here. The panic message contains "failpoint".
pub fn maybe_panic(site: &str) {
    if let Some(fired) = check(site) {
        panic!("{}", fired.message);
    }
}

/// Hits recorded at `site` since its schedule was installed (0 if none).
pub fn hits(site: &str) -> u64 {
    lock().get(site).map_or(0, |s| s.hits)
}

/// Failures injected at `site` since its schedule was installed.
pub fn fired(site: &str) -> u64 {
    lock().get(site).map_or(0, |s| s.fired)
}

/// Total failpoint firings process-wide, across all sites and schedules —
/// the telemetry surface chaos runs report.
pub fn fires_total() -> u64 {
    FIRES.get()
}

/// Inject a failure at a `Result`-returning site. The second operand maps
/// the diagnosis [`String`] into the site's error type (typically an error
/// enum's tuple constructor):
///
/// ```ignore
/// svc_fault::fail_point!(svc_fault::site::TABLE_MUTATE, StorageError::Invalid);
/// ```
///
/// Expands to a branch on `cfg!(feature = "failpoints")` **of the calling
/// crate**: without the feature the branch is constant-false and the site
/// costs nothing.
#[macro_export]
macro_rules! fail_point {
    ($site:expr, $wrap:expr) => {
        if cfg!(feature = "failpoints") {
            if let Some(fired) = $crate::check($site) {
                match fired.action {
                    $crate::FailAction::Panic => panic!("{}", fired.message),
                    $crate::FailAction::Error => return Err(($wrap)(fired.message)),
                }
            }
        }
    };
}

/// Inject a failure at a site with no error channel: any scheduled action
/// panics (see [`maybe_panic`]). Gated exactly like [`fail_point!`].
#[macro_export]
macro_rules! fail_point_panic {
    ($site:expr) => {
        if cfg!(feature = "failpoints") {
            $crate::maybe_panic($site);
        }
    };
}

/// The named injection sites threaded through the workspace. Naming them
/// here (rather than as string literals at each site) keeps schedules and
/// sites in sync and gives harnesses one list to draw from.
pub mod site {
    /// `Table::insert` / `Table::upsert` — every materialized result table
    /// is built through these, so this site fails plan evaluation on
    /// workers and merge folds on the driver alike.
    pub const TABLE_MUTATE: &str = "storage::table::mutate";
    /// One morsel task of a parallel plan run (`exec::run` fan-out).
    pub const EXEC_MORSEL: &str = "relalg::exec::morsel";
    /// One per-partition map-build task of a partitioned hash join
    /// (`exec::partition::build_join_par` fan-out), mid-build: the scatter
    /// pass has run, the build's partition maps are half-assembled.
    pub const JOIN_BUILD: &str = "relalg::exec::join_build";
    /// `WorkerPool` task dispatch, inside the per-task `catch_unwind` (so
    /// injected failures become session errors, never dead workers).
    pub const POOL_DISPATCH: &str = "cluster::pool::dispatch";
    /// Compiling a batch's change plans (the compile-cache miss path).
    pub const BATCH_COMPILE: &str = "cluster::batch::compile";
    /// Evaluating a batch's change plans on the pool.
    pub const BATCH_EVALUATE: &str = "cluster::batch::evaluate";
    /// Folding one change table into the shadow view (driver side).
    pub const BATCH_FOLD: &str = "cluster::batch::fold";
    /// The non-change-table fallback maintenance plan of `BatchPipeline`.
    pub const BATCH_FALLBACK: &str = "cluster::batch::fallback";
    /// `MaterializedView::maintain`, between evaluation and the commit.
    pub const VIEW_MAINTAIN: &str = "ivm::view::maintain";
    /// `SvcView::clean_sample_with`, before counters are touched.
    pub const CORE_CLEAN: &str = "core::svc::clean";

    /// Every site, for schedule generators.
    pub const ALL: [&str; 10] = [
        TABLE_MUTATE,
        EXEC_MORSEL,
        JOIN_BUILD,
        POOL_DISPATCH,
        BATCH_COMPILE,
        BATCH_EVALUATE,
        BATCH_FOLD,
        BATCH_FALLBACK,
        VIEW_MAINTAIN,
        CORE_CLEAN,
    ];
}

/// SplitMix64: the standard 64-bit mixer — tiny, dependency-free, and
/// deterministic across platforms, which is all a failure-schedule
/// generator needs.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `[0, n)` (`n` clamped to at least 1).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// Derive a deterministic failure schedule from `seed`: one or two
/// distinct sites drawn from `sites`, each failing 1–3 consecutive hits
/// after a skip in `[0, max_skip)`, with the action split between errors
/// and panics. The returned schedule is *not* installed — pass it to
/// [`apply_schedule`] (so harnesses can log it first).
pub fn seeded_schedule(
    seed: u64,
    sites: &[&'static str],
    max_skip: u64,
) -> Vec<(&'static str, FailSpec)> {
    let mut r = SplitMix64::new(seed ^ 0x5fa1_7f00_c8a0_55ed);
    let want = 1 + r.below(2) as usize;
    let mut out: Vec<(&'static str, FailSpec)> = Vec::new();
    for _ in 0..want {
        let s = sites[r.below(sites.len() as u64) as usize];
        let spec = FailSpec {
            skip: r.below(max_skip.max(1)),
            count: 1 + r.below(3),
            action: if r.next_u64() & 1 == 0 { FailAction::Error } else { FailAction::Panic },
        };
        if !out.iter().any(|(seen, _)| *seen == s) {
            out.push((s, spec));
        }
    }
    out
}

/// Install every `(site, spec)` pair of a schedule.
pub fn apply_schedule(schedule: &[(&'static str, FailSpec)]) {
    for (s, spec) in schedule {
        set(s, *spec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry is process-global: these tests serialize on one lock
    /// (the same discipline the chaos harness uses).
    static TESTS: Mutex<()> = Mutex::new(());

    fn guard() -> MutexGuard<'static, ()> {
        let g = TESTS.lock().unwrap_or_else(PoisonError::into_inner);
        clear_all();
        g
    }

    #[test]
    fn unconfigured_sites_never_fire() {
        let _g = guard();
        assert!(check("nowhere").is_none());
        assert_eq!(hits("nowhere"), 0);
    }

    #[test]
    fn skip_then_count_semantics() {
        let _g = guard();
        set("s", FailSpec { skip: 2, count: 2, action: FailAction::Error });
        assert!(check("s").is_none(), "hit 1 skipped");
        assert!(check("s").is_none(), "hit 2 skipped");
        let f = check("s").expect("hit 3 fires");
        assert_eq!(f.action, FailAction::Error);
        assert!(f.message.contains("failpoint `s`"));
        assert!(check("s").is_some(), "hit 4 fires");
        assert!(check("s").is_none(), "count exhausted");
        assert_eq!(hits("s"), 5);
        assert_eq!(fired("s"), 2);
        clear_all();
        assert!(check("s").is_none(), "cleared schedules are gone");
    }

    #[test]
    fn maybe_panic_panics_on_any_action() {
        let _g = guard();
        set("p", FailSpec::immediate(1, FailAction::Error));
        let err = std::panic::catch_unwind(|| maybe_panic("p")).unwrap_err();
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("failpoint `p`"), "got: {msg}");
        // Count exhausted: no further panic.
        maybe_panic("p");
    }

    #[test]
    fn seeded_schedules_are_deterministic_and_valid() {
        let _g = guard();
        let sites = ["a", "b", "c"];
        for seed in 0..200u64 {
            let s1 = seeded_schedule(seed, &sites, 16);
            let s2 = seeded_schedule(seed, &sites, 16);
            assert_eq!(s1, s2, "seed {seed} not reproducible");
            assert!(!s1.is_empty() && s1.len() <= 2);
            for (site, spec) in &s1 {
                assert!(sites.contains(site));
                assert!(spec.skip < 16);
                assert!((1..=3).contains(&spec.count));
            }
        }
        // Different seeds explore different schedules.
        let distinct: std::collections::HashSet<_> =
            (0..200u64).map(|s| format!("{:?}", seeded_schedule(s, &sites, 16))).collect();
        assert!(distinct.len() > 50, "only {} distinct schedules", distinct.len());
    }

    #[test]
    fn apply_schedule_installs_every_site() {
        let _g = guard();
        let schedule = seeded_schedule(7, &site::ALL, 8);
        apply_schedule(&schedule);
        for (s, _) in &schedule {
            assert_eq!(hits(s), 0);
            // Drive the site to its firing point.
            while check(s).is_none() {
                assert!(hits(s) < 16, "schedule for {s} never fires");
            }
        }
        clear_all();
    }

    #[test]
    fn poisoned_registry_recovers() {
        let _g = guard();
        set("q", FailSpec::immediate(1, FailAction::Panic));
        // Poison the registry mutex by panicking while holding it.
        let _ = std::panic::catch_unwind(|| {
            let _reg = registry().lock().unwrap();
            panic!("poison the registry");
        });
        // Every entry point still works.
        assert!(check("q").is_some());
        clear_all();
        assert!(check("q").is_none());
    }
}
