//! A database: named base relations plus declared foreign keys.
//!
//! Foreign keys matter to SVC beyond integrity: the hash push-down rules of
//! Section 4.4 have a special case for foreign-key joins (sampling the fact
//! table's key can be pushed to the fact table alone, because each fact row
//! joins exactly one dimension row).

use std::collections::BTreeMap;

use crate::error::{Result, StorageError};
use crate::table::Table;

/// A declared foreign-key constraint `from_table(from_cols) → to_table(to_cols)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForeignKey {
    /// Referencing (fact) table.
    pub from_table: String,
    /// Referencing columns.
    pub from_cols: Vec<String>,
    /// Referenced (dimension) table; `to_cols` must be its primary key.
    pub to_table: String,
    /// Referenced key columns.
    pub to_cols: Vec<String>,
}

/// A collection of named base relations and foreign keys. Tables are stored
/// in a `BTreeMap` for deterministic iteration order.
#[derive(Debug, Clone, Default)]
pub struct Database {
    tables: BTreeMap<String, Table>,
    foreign_keys: Vec<ForeignKey>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Register a table under `name`, replacing any previous one.
    pub fn create_table(&mut self, name: impl Into<String>, table: Table) {
        self.tables.insert(name.into(), table);
    }

    /// Fetch a table by name.
    pub fn table(&self, name: &str) -> Result<&Table> {
        self.tables.get(name).ok_or_else(|| StorageError::UnknownTable(name.to_string()))
    }

    /// Fetch a table mutably.
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table> {
        self.tables.get_mut(name).ok_or_else(|| StorageError::UnknownTable(name.to_string()))
    }

    /// Iterate over `(name, table)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Table)> {
        self.tables.iter().map(|(n, t)| (n.as_str(), t))
    }

    /// Declare a foreign key. Validates that both tables exist, that the
    /// referenced columns are the referenced table's primary key, and that
    /// column lists have equal length.
    pub fn add_foreign_key(&mut self, fk: ForeignKey) -> Result<()> {
        let from = self.table(&fk.from_table)?;
        from.schema().resolve_all(&fk.from_cols)?;
        let to = self.table(&fk.to_table)?;
        let mut referenced = to.schema().resolve_all(&fk.to_cols)?;
        if fk.from_cols.len() != fk.to_cols.len() {
            return Err(StorageError::Invalid(format!(
                "foreign key column count mismatch: {:?} vs {:?}",
                fk.from_cols, fk.to_cols
            )));
        }
        let mut pk: Vec<usize> = to.key().to_vec();
        pk.sort_unstable();
        referenced.sort_unstable();
        if pk != referenced {
            return Err(StorageError::Invalid(format!(
                "foreign key must reference the primary key of `{}`",
                fk.to_table
            )));
        }
        self.foreign_keys.push(fk);
        Ok(())
    }

    /// All declared foreign keys.
    pub fn foreign_keys(&self) -> &[ForeignKey] {
        &self.foreign_keys
    }

    /// Total row count across all tables.
    pub fn total_rows(&self) -> usize {
        self.tables.values().map(|t| t.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::{DataType, Value};

    fn video_db() -> Database {
        let mut db = Database::new();
        let video = Table::new(
            Schema::from_pairs(&[
                ("videoId", DataType::Int),
                ("ownerId", DataType::Int),
                ("duration", DataType::Float),
            ])
            .unwrap(),
            &["videoId"],
        )
        .unwrap();
        let log = Table::new(
            Schema::from_pairs(&[("sessionId", DataType::Int), ("videoId", DataType::Int)])
                .unwrap(),
            &["sessionId"],
        )
        .unwrap();
        db.create_table("video", video);
        db.create_table("log", log);
        db
    }

    #[test]
    fn table_registry() {
        let mut db = video_db();
        assert!(db.table("video").is_ok());
        assert!(db.table("nope").is_err());
        db.table_mut("log").unwrap().insert(vec![Value::Int(1), Value::Int(10)]).unwrap();
        assert_eq!(db.total_rows(), 1);
        assert_eq!(db.iter().map(|(name, _)| name).collect::<Vec<_>>(), vec!["log", "video"]);
    }

    #[test]
    fn foreign_key_validation() {
        let mut db = video_db();
        db.add_foreign_key(ForeignKey {
            from_table: "log".into(),
            from_cols: vec!["videoId".into()],
            to_table: "video".into(),
            to_cols: vec!["videoId".into()],
        })
        .unwrap();
        assert_eq!(db.foreign_keys().len(), 1);

        // Referencing a non-key column is rejected.
        let err = db.add_foreign_key(ForeignKey {
            from_table: "log".into(),
            from_cols: vec!["videoId".into()],
            to_table: "video".into(),
            to_cols: vec!["ownerId".into()],
        });
        assert!(err.is_err());
    }
}
