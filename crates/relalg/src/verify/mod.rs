//! The invariant verifier: LLVM-style checkers for every representation the
//! engine carries.
//!
//! Three coupled layers each have a checker:
//!
//! * [`logical`] — well-formedness of a logical [`crate::plan::Plan`]
//!   (column references resolve, join/set-op schemas compatible, η specs
//!   legal, predicates type-consistent), plus rewrite-soundness checking
//!   that the optimizer calls before its pass and after each of its
//!   rewrites, blaming the offending rewrite and subtree;
//! * [`physical`] — bound-index and arity checking over a compiled
//!   [`crate::exec::Node`] tree, including FusedOp/VecOp twin agreement;
//! * [`columnar`] — [`svc_storage::ColumnSet`] / selection-vector integrity
//!   hooks the vectorized kernels call at chunk boundaries.
//!
//! **The checkers are always compiled** — witness tests corrupt a plan or a
//! chunk and assert rejection in every build configuration. What the
//! `verify` cargo feature gates is the *hooks*: with the feature off (the
//! default, and every release/bench build), the optimizer, the compiler,
//! and the kernels call no checker and the hooks compile to nothing; with
//! it on (`cargo test --features verify`, the CI verified configuration),
//! every rewrite, every compile, and every chunk is checked as it happens,
//! so a miscompile dies at its cause instead of surfacing as a wrong answer
//! three operators downstream.

pub mod columnar;
pub mod logical;
pub mod physical;

pub use columnar::{check_chunk, check_selvec};
pub use logical::{verify_plan, verify_rewrite};
pub(crate) use physical::check_semi_hits;
pub use physical::{check_set_batch, verify_node, verify_physical};

/// True when the `verify` cargo feature armed the hot-path hooks in this
/// build. The checker functions work either way; this reports whether they
/// run automatically.
pub const ENABLED: bool = cfg!(feature = "verify");
