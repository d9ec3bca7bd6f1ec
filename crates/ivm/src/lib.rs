#![forbid(unsafe_code)]

//! # svc-ivm
//!
//! Incremental view maintenance (IVM) for the Stale View Cleaning
//! reproduction. The paper's central abstraction is the *maintenance
//! strategy* `M`: a relational expression over the stale view `S`, the base
//! relations `D`, and the delta relations `∂D` whose evaluation yields the
//! up-to-date view `S′` (Section 3.1). Because `M` is *just a plan*, the
//! hashing operator of `svc-sampling` can be pushed through it — that is the
//! whole trick behind efficient stale-sample cleaning (Section 4.5 /
//! Figure 3).
//!
//! * [`canon`] — canonicalizes aggregate views into change-table
//!   maintainable form (`avg` → `sum` + `count`, plus a hidden
//!   `__svc_cnt` group-liveness counter) with a public projection restoring
//!   the user-facing schema, and records a nested aggregate's inner γ as the
//!   view's auxiliary table;
//! * [`delta`] — derives insertion/deletion delta plans for SPJ(U)
//!   expressions (the classic join rules, distributed so that a delta meets
//!   each base relation as itself, probed by key), and for an inner γ off
//!   its auxiliary table;
//! * [`strategy`] — the one gate `view_delta`: a view changes by a signed
//!   pair of keyed relations (the change-table method of Gupta & Mumick
//!   \[22,23\] used by the paper's experiments; ∆V / ∇V for SPJ views) or by
//!   recomputation expressed *as a plan* so sampling still applies — and the
//!   same decision as one maintenance plan, the reference form;
//! * [`fold`] — the keyed fold: apply an evaluated pair to the view — or to
//!   a hash sample of it — key by key, O(|pair|), staged then committed;
//! * [`plans`] — the view's plan cache: each view delta η-wrapped,
//!   optimized and compiled once per signature, shared by a view's clones;
//! * [`view`] — [`view::MaterializedView`]: definition + materialized state
//!   (and auxiliary table) + staleness bookkeeping + `maintain()`.

pub mod canon;
pub mod delta;
pub mod fold;
pub mod plans;
pub mod strategy;
pub mod view;

pub use canon::{canonicalize, Canonical};
pub use delta::{derive_delta, DeltaInfo, DeltaPlan, Signed};
pub use fold::{KeyedFold, StagedEdits};
pub use strategy::{maintenance_plan, DeltaCatalog, MaintCatalog, PlanKind, AUX_LEAF, STALE_LEAF};
pub use view::MaterializedView;
