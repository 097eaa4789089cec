//! Logical lock modes and lock identifiers.
//!
//! The lock manager implements standard hierarchical two-phase locking:
//! intention locks at the table level and shared/exclusive locks at the
//! record level, as in Shore-MT.

use crate::record::Key;
use crate::schema::TableId;
use serde::{Deserialize, Serialize};

/// Lock modes (subset of the classic hierarchy used by the workloads).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LockMode {
    /// Intention shared (table level).
    IS,
    /// Intention exclusive (table level).
    IX,
    /// Shared (record level).
    S,
    /// Exclusive (record level).
    X,
}

impl LockMode {
    /// Standard compatibility matrix.
    pub fn compatible(self, other: LockMode) -> bool {
        use LockMode::*;
        matches!(
            (self, other),
            (IS, IS) | (IS, IX) | (IS, S) | (IX, IS) | (IX, IX) | (S, IS) | (S, S)
        )
    }

    /// Whether this mode implies write intent.
    pub fn is_exclusive(self) -> bool {
        matches!(self, LockMode::X | LockMode::IX)
    }
}

/// What a lock protects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LockId {
    /// A whole table (intention locks).
    Table(TableId),
    /// A single record.
    Record(TableId, Key),
}

impl LockId {
    /// The table this lock belongs to.
    pub fn table(&self) -> TableId {
        match self {
            LockId::Table(t) => *t,
            LockId::Record(t, _) => *t,
        }
    }

    /// A stable hash used to pick a lock-manager bucket.
    pub fn bucket_hash(&self) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h = DefaultHasher::new();
        self.hash(&mut h);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compatibility_matrix_matches_textbook() {
        use LockMode::*;
        assert!(S.compatible(S));
        assert!(!S.compatible(X));
        assert!(!X.compatible(S));
        assert!(!X.compatible(X));
        assert!(IS.compatible(IX));
        assert!(IX.compatible(IX));
        assert!(!IX.compatible(S));
        assert!(S.compatible(IS));
    }

    #[test]
    fn exclusivity_flags() {
        assert!(LockMode::X.is_exclusive());
        assert!(LockMode::IX.is_exclusive());
        assert!(!LockMode::S.is_exclusive());
        assert!(!LockMode::IS.is_exclusive());
    }

    #[test]
    fn lock_ids_hash_consistently() {
        let a = LockId::Record(TableId(1), Key::int(5));
        let b = LockId::Record(TableId(1), Key::int(5));
        let c = LockId::Record(TableId(1), Key::int(6));
        assert_eq!(a.bucket_hash(), b.bucket_hash());
        assert_ne!(a.bucket_hash(), c.bucket_hash());
        assert_eq!(a.table(), TableId(1));
        assert_eq!(LockId::Table(TableId(3)).table(), TableId(3));
    }

    /// `bucket_hash` decides which centralized bucket a lock contends on,
    /// so it is part of every recorded simulated number.  The constant was
    /// recorded before keys became plain `Copy` data.
    #[test]
    fn lock_ids_are_copy_and_their_bucket_hash_is_pinned() {
        fn assert_copy<T: Copy>() {}
        assert_copy::<LockId>();
        let id = LockId::Record(TableId(3), Key::int(5));
        assert_eq!(id.bucket_hash(), 0x2f5f_ea07_e321_79be);
    }
}
