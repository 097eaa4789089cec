//! Logical lock modes and lock identifiers.
//!
//! The lock manager implements standard hierarchical two-phase locking:
//! intention locks at the table level and shared/exclusive locks at the
//! record level, as in Shore-MT.

use crate::record::Key;
use crate::schema::TableId;

/// Lock modes (subset of the classic hierarchy used by the workloads).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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

    /// `bucket_hash` runs std's `DefaultHasher`, SipHash-1-3 with zero
    /// keys today, and std does not promise that algorithm across
    /// releases.  The hash picks the bucket latch of centralized and
    /// shared-nothing lock tables, so a toolchain that changed it would
    /// move their simulated results with no code change.  This golden
    /// catches that: a table lock and record keys one to four integers
    /// wide.
    #[test]
    fn bucket_hash_golden_pins_the_std_default_hasher() {
        let golden = [
            (LockId::Table(TableId(0)), 0x21ce_683a_8657_94df),
            (LockId::Table(TableId(5)), 0x3f47_e6f4_3069_8d0f),
            (
                LockId::Record(TableId(0), Key::int(1)),
                0xb102_cdb2_6267_5b93,
            ),
            (
                LockId::Record(TableId(2), Key::int(-7)),
                0x276d_aeb1_35ce_c866,
            ),
            (
                LockId::Record(TableId(1), Key::ints(&[3, 10])),
                0x650c_34b1_547f_8a33,
            ),
            (
                LockId::Record(TableId(4), Key::ints(&[1, 2, 3])),
                0xd425_6cc3_80ea_77b8,
            ),
            (
                LockId::Record(TableId(6), Key::ints(&[9, 8, 7, i64::MAX])),
                0x9ffd_c00d_28d2_879e,
            ),
        ];
        for (id, want) in golden {
            assert_eq!(
                id.bucket_hash(),
                want,
                "LockId::bucket_hash of {id:?} changed: std's DefaultHasher \
                 (SipHash-1-3, zero keys) is no longer the algorithm the \
                 recorded results used, so centralized and shared-nothing \
                 lock tables latch other buckets"
            );
        }
    }
}
