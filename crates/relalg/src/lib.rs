#![forbid(unsafe_code)]

//! # svc-relalg
//!
//! Relational algebra for the Stale View Cleaning reproduction: the view
//! definition language of Section 3.1 of the paper.
//!
//! * [`scalar`] — scalar expressions (column refs, literals, arithmetic,
//!   comparisons, three-valued logic, `coalesce`/`least`/`greatest`) used in
//!   selections and *generalized projections*.
//! * [`plan`] — the relational expression tree: σ, Π, ⋈ (inner / left /
//!   right / full / semi / anti equi-joins), γ group-by aggregates, ∪, ∩, −,
//!   plus the SVC hashing operator η as a first-class node.
//! * [`mod@derive`] — output schema and **primary-key derivation** for every
//!   node (Definition 2): every derived relation is keyed, which is the
//!   provenance mechanism that makes hash push-down sound.
//! * [`eval`] — plan evaluation producing [`svc_storage::Table`]s from
//!   plans bound to concrete relations; [`eval::evaluate`] is a thin
//!   compile-and-run wrapper over the streaming executor.
//! * [`exec`] — the compile-once streaming executor: [`exec::compile()`]
//!   binds schemas/predicates/projections once, [`exec::PhysicalPlan::run`]
//!   streams fused `Scan→σ→Π→η` chains over borrowed rows with pipeline
//!   breakers materializing plain row batches (no intermediate keyed
//!   tables, no scan clones).
//!
//! * [`optimizer`] — one pass of three rewrites (filter pushdown of σ,
//!   leaf key sets and η, cost-based join reordering, projection pruning)
//!   every evaluated plan goes through.
//!
//! The η operator lives here (not in `svc-sampling`) because the evaluator
//! must execute it; its Definition 3 push-down is part of the
//! [`optimizer::predicate`] filter pass, which `svc-sampling`'s `push_down`
//! runs alone.

pub mod aggregate;
pub mod derive;
pub mod display;
pub mod eval;
pub mod exec;
pub mod join;
pub mod optimizer;
pub mod plan;
pub mod scalar;
pub mod setops;
pub mod verify;

pub use aggregate::{AggFunc, AggSpec};
pub use derive::{derive, Derived, LeafProvider};
pub use eval::{evaluate, evaluate_materializing, Bindings};
pub use exec::{compile, compile_with, explain_analyze, Explain, ExplainNode, PhysicalPlan};
pub use optimizer::{optimize, EtaReport, OptimizeReport};
pub use plan::{JoinKind, Plan};
pub use scalar::{col, lit, BinOp, BoundExpr, Expr, Func};
