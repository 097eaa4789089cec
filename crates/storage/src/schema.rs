//! Relational schema metadata: tables, columns, and foreign-key
//! dependencies.
//!
//! The ATraPos cost model uses *static workload information* extracted from
//! the schema (paper §V-A): foreign-key dependencies between tables tell
//! the partitioner which actions of a transaction are correlated.

use crate::record::{MAX_COLUMNS, MAX_KEY_COMPONENTS};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a table within a database.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TableId(pub u32);

impl TableId {
    /// Index usable for vector lookups.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TableId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// SQL-ish column types supported by the storage manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnType {
    /// 64-bit signed integer.
    Int,
    /// Variable-length string.
    Text,
}

/// A column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name.
    pub name: String,
    /// Column type.
    pub ty: ColumnType,
}

impl Column {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, ty: ColumnType) -> Self {
        Self {
            name: name.into(),
            ty,
        }
    }
}

/// A foreign-key reference from this table to another table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForeignKey {
    /// Columns of this table forming the reference.
    pub columns: Vec<usize>,
    /// The referenced table.
    pub references: TableId,
}

/// A table schema.
#[derive(Debug, Clone, PartialEq)]
pub struct Schema {
    /// Table name.
    pub name: String,
    /// Column definitions.
    pub columns: Vec<Column>,
    /// Indices (into `columns`) of the primary-key columns, in key order.
    pub primary_key: Vec<usize>,
    /// Foreign-key dependencies (static data dependencies for the cost
    /// model).
    pub foreign_keys: Vec<ForeignKey>,
    /// Approximate size of one record in bytes (used for memory-placement
    /// and data-exchange cost accounting).
    pub record_bytes: u64,
}

impl Schema {
    /// Build a schema; the record size is estimated from the column types.
    /// A table has one to [`MAX_COLUMNS`] columns — all a [`crate::Record`]
    /// can hold — and its primary key is one to [`MAX_KEY_COMPONENTS`] `Int`
    /// columns — all a [`crate::Key`] can hold.
    pub fn new(name: impl Into<String>, columns: Vec<Column>, primary_key: Vec<usize>) -> Self {
        assert!(!columns.is_empty(), "a table needs at least one column");
        assert!(
            columns.len() <= MAX_COLUMNS,
            "a table has at most {MAX_COLUMNS} columns"
        );
        assert!(!primary_key.is_empty(), "a table needs a primary key");
        assert!(
            primary_key.len() <= MAX_KEY_COMPONENTS,
            "a primary key has at most {MAX_KEY_COMPONENTS} columns"
        );
        for &pk in &primary_key {
            assert!(pk < columns.len(), "primary key column out of range");
            assert!(
                columns[pk].ty == ColumnType::Int,
                "primary key column `{}` must be Int",
                columns[pk].name
            );
        }
        let record_bytes = columns
            .iter()
            .map(|c| match c.ty {
                ColumnType::Int => 8,
                ColumnType::Text => 24,
            })
            .sum();
        Self {
            name: name.into(),
            columns,
            primary_key,
            foreign_keys: Vec::new(),
            record_bytes,
        }
    }

    /// Add a foreign-key dependency.
    pub fn with_foreign_key(mut self, columns: Vec<usize>, references: TableId) -> Self {
        for &c in &columns {
            assert!(c < self.columns.len(), "foreign key column out of range");
        }
        self.foreign_keys.push(ForeignKey {
            columns,
            references,
        });
        self
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Whether `other` is referenced by one of this schema's foreign keys.
    pub fn references(&self, other: TableId) -> bool {
        self.foreign_keys.iter().any(|fk| fk.references == other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::new(
            "subscriber",
            vec![
                Column::new("s_id", ColumnType::Int),
                Column::new("sub_nbr", ColumnType::Text),
                Column::new("bit_1", ColumnType::Int),
                Column::new("msc_location", ColumnType::Int),
            ],
            vec![0],
        )
    }

    #[test]
    fn record_size_is_estimated_from_columns() {
        let s = sample();
        assert_eq!(s.record_bytes, 8 + 24 + 8 + 8);
        assert_eq!(s.arity(), 4);
    }

    #[test]
    fn foreign_keys_record_dependencies() {
        let s = sample().with_foreign_key(vec![0], TableId(7));
        assert!(s.references(TableId(7)));
        assert!(!s.references(TableId(8)));
    }

    #[test]
    #[should_panic(expected = "primary key")]
    fn schema_requires_primary_key() {
        let _ = Schema::new("t", vec![Column::new("a", ColumnType::Int)], vec![]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn schema_validates_pk_columns() {
        let _ = Schema::new("t", vec![Column::new("a", ColumnType::Int)], vec![3]);
    }

    #[test]
    #[should_panic(expected = "must be Int")]
    fn schema_rejects_a_text_key_column() {
        let _ = Schema::new("t", vec![Column::new("a", ColumnType::Text)], vec![0]);
    }

    #[test]
    #[should_panic(expected = "at most 32 columns")]
    fn schema_rejects_more_columns_than_a_record_holds() {
        let columns = |n| (0..n).map(|i| Column::new(format!("c{i}"), ColumnType::Int));
        assert_eq!(
            Schema::new("t", columns(MAX_COLUMNS).collect(), vec![0]).arity(),
            32
        );
        let _ = Schema::new("t", columns(MAX_COLUMNS + 1).collect(), vec![0]);
    }

    #[test]
    #[should_panic(expected = "at most 4")]
    fn schema_rejects_a_five_column_key() {
        let columns = (0..5).map(|i| Column::new(format!("c{i}"), ColumnType::Int));
        let _ = Schema::new("t", columns.collect(), vec![0, 1, 2, 3, 4]);
    }
}
