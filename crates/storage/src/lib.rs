//! # svc-storage
//!
//! In-memory relational storage substrate for the Stale View Cleaning (SVC)
//! reproduction (Krishnan et al., VLDB 2015).
//!
//! The paper assumes a conventional relational database (MySQL in the
//! single-node experiments). This crate provides the pieces of such a system
//! that SVC actually depends on:
//!
//! * typed [`Value`]s and [`Schema`]s ([`value`], [`schema`]),
//! * keyed [`Table`]s with primary-key indexes ([`table`]), edited in bulk
//!   by keyed edits staged against them ([`staged`]),
//! * a [`Database`] of base relations with declared foreign keys
//!   ([`database`]) — foreign keys drive the hash push-down special case of
//!   Section 4.4 of the paper,
//! * *delta relations* `∆R` / `∇R` ([`delta`]) — the paper's `∂D`, with
//!   updates modeled as a deletion followed by an insertion (Section 3.1),
//! * a deterministic uniform hash mapping key tuples to `[0, 1)`
//!   ([`hash`]) — the hashing operator `η` of Section 4.4 and the SUHA
//!   discussion of Appendix 12.3.
//!
//! Everything is deterministic and seedable: determinism of the hash is what
//! makes a stale sample and its cleaned counterpart *correspond*
//! (Proposition 2 in the paper).

#![forbid(unsafe_code)]

pub mod columns;
pub mod database;
pub mod delta;
pub mod error;
pub mod hash;
mod key_index;
pub mod pairing;
pub mod schema;
pub mod staged;
pub mod table;
pub mod value;

pub use columns::{Column, ColumnBuilder, ColumnData, ColumnSet};
pub use database::{Database, ForeignKey};
pub use delta::{DeltaSet, Deltas};
pub use error::{Result, StorageError};
pub use hash::{normalize01, HashSpec, HashState};
pub use schema::{Field, Schema};
pub use staged::{Staged, StagedEdits};
pub use table::{KeyTuple, Table};
pub use value::{DataType, Value};

/// A row is a positional tuple of values, aligned with a [`Schema`]: the
/// form operators build and edit.
pub type Row = Vec<Value>;

/// A row as a [`Table`] stores it: immutable and shared, so cloning a table
/// or handing its rows to another copies a pointer, never a value. Derefs
/// to `[Value]`; any [`Row`] converts into one.
pub type SharedRow = std::sync::Arc<[Value]>;
