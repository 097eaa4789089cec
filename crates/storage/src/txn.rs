//! Transaction descriptors.

use crate::lock::{LockId, LockMode};
use serde::{Deserialize, Serialize};

/// Transaction identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TxnId(pub u64);

/// Lifecycle state of a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TxnState {
    /// Executing.
    Active,
    /// Prepared (two-phase commit participant waiting for the decision).
    Prepared,
    /// Committed.
    Committed,
    /// Aborted.
    Aborted,
}

/// A transaction descriptor: identity, state, and the locks it holds.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Txn {
    /// Identifier.
    pub id: TxnId,
    /// Current state.
    pub state: TxnState,
    /// Locks held (released at commit/abort: strict two-phase locking).
    pub held_locks: Vec<(LockId, LockMode)>,
    /// Bytes of log payload generated so far.
    pub log_bytes: u64,
    /// Whether this transaction is (part of) a distributed transaction.
    pub distributed: bool,
}

impl Txn {
    /// A fresh, active transaction.
    pub fn begin(id: TxnId) -> Self {
        Self {
            id,
            state: TxnState::Active,
            held_locks: Vec::new(),
            log_bytes: 0,
            distributed: false,
        }
    }

    /// Reset this descriptor for reuse as a fresh, active transaction.
    /// Keeps the held-lock list's capacity, so executors that pump many
    /// transactions through one descriptor allocate nothing per
    /// transaction.
    pub fn reset(&mut self, id: TxnId) {
        self.id = id;
        self.state = TxnState::Active;
        self.held_locks.clear();
        self.log_bytes = 0;
        self.distributed = false;
    }

    /// Record a granted lock.
    pub fn add_lock(&mut self, id: LockId, mode: LockMode) {
        self.held_locks.push((id, mode));
    }

    /// Move to the committed state.
    pub fn commit(&mut self) {
        debug_assert!(matches!(self.state, TxnState::Active | TxnState::Prepared));
        self.state = TxnState::Committed;
    }

    /// Move to the aborted state.
    pub fn abort(&mut self) {
        self.state = TxnState::Aborted;
    }

    /// Whether the transaction has finished (committed or aborted).
    pub fn is_finished(&self) -> bool {
        matches!(self.state, TxnState::Committed | TxnState::Aborted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::TableId;

    #[test]
    fn lifecycle() {
        let mut t = Txn::begin(TxnId(1));
        assert_eq!(t.state, TxnState::Active);
        assert!(!t.is_finished());
        t.commit();
        assert_eq!(t.state, TxnState::Committed);
        assert!(t.is_finished());

        let mut t = Txn::begin(TxnId(2));
        t.abort();
        assert_eq!(t.state, TxnState::Aborted);
    }

    #[test]
    fn lock_bookkeeping_keeps_grant_order_and_capacity() {
        let mut t = Txn::begin(TxnId(1));
        let table = LockId::Table(TableId(0));
        let rec = LockId::Record(TableId(0), crate::record::Key::int(7));
        t.add_lock(table, LockMode::IX);
        t.add_lock(rec, LockMode::X);
        assert_eq!(t.held_locks, [(table, LockMode::IX), (rec, LockMode::X)]);
        // A reused descriptor starts empty but keeps its capacity.
        let capacity = t.held_locks.capacity();
        t.reset(TxnId(2));
        assert_eq!(t.id, TxnId(2));
        assert!(t.held_locks.is_empty());
        assert_eq!(t.held_locks.capacity(), capacity);
    }
}
