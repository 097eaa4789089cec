//! Error types for the storage manager.

use crate::record::Key;
use crate::schema::TableId;
use std::fmt;

/// Result alias for storage operations.
pub type StorageResult<T> = Result<T, StorageError>;

/// Errors raised by storage-manager operations.
#[derive(Debug, Clone, PartialEq)]
pub enum StorageError {
    /// The referenced table does not exist.
    UnknownTable(TableId),
    /// The key was not found in the table.
    KeyNotFound { table: TableId, key: Key },
    /// An insert collided with an existing key.
    DuplicateKey { table: TableId, key: Key },
    /// A write targeted a primary-key column, which a row is filed under.
    KeyColumnWrite { table: TableId, column: usize },
    /// A record did not match the table schema.
    SchemaMismatch {
        table: TableId,
        expected: usize,
        got: usize,
    },
    /// A lock could not be granted (used for deadlock-avoidance aborts).
    LockConflict { requested: String, held: String },
    /// The transaction was aborted.
    TxnAborted(u64),
    /// A two-phase-commit participant voted to abort.
    TwoPcAborted { participant: usize },
    /// A repartitioning operation referenced an invalid partition boundary.
    InvalidPartitionBoundary(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::UnknownTable(t) => write!(f, "unknown table {t:?}"),
            StorageError::KeyNotFound { table, key } => {
                write!(f, "key {key:?} not found in table {table:?}")
            }
            StorageError::DuplicateKey { table, key } => {
                write!(f, "duplicate key {key:?} in table {table:?}")
            }
            StorageError::KeyColumnWrite { table, column } => {
                write!(
                    f,
                    "column {column} of table {table:?} is a primary-key column"
                )
            }
            StorageError::SchemaMismatch {
                table,
                expected,
                got,
            } => write!(
                f,
                "schema mismatch on table {table:?}: expected {expected} columns, got {got}"
            ),
            StorageError::LockConflict { requested, held } => {
                write!(f, "lock conflict: requested {requested}, held {held}")
            }
            StorageError::TxnAborted(id) => write!(f, "transaction {id} aborted"),
            StorageError::TwoPcAborted { participant } => {
                write!(f, "two-phase commit aborted by participant {participant}")
            }
            StorageError::InvalidPartitionBoundary(msg) => {
                write!(f, "invalid partition boundary: {msg}")
            }
        }
    }
}

impl std::error::Error for StorageError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_human_readable_messages() {
        let e = StorageError::KeyNotFound {
            table: TableId(3),
            key: Key::int(42),
        };
        let msg = e.to_string();
        assert!(msg.contains("not found"));
        assert!(msg.contains("42"));
    }

    #[test]
    fn errors_are_std_errors() {
        fn assert_err<E: std::error::Error>(_: &E) {}
        assert_err(&StorageError::TxnAborted(7));
    }
}
