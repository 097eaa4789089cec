//! Transaction descriptors.

use crate::lock::{LockId, LockMode};

/// Transaction identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxnId(pub u64);

/// Lifecycle state of a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// One granted lock, and where its lock manager keeps it: the bucket latch
/// it contends on and its entry's slot (the [`TableId`] index for a table
/// lock, the record slab's slot otherwise).  The manager that granted it
/// releases it without hashing or probing anything again.
///
/// [`TableId`]: crate::schema::TableId
#[derive(Debug, Clone, Copy)]
pub struct HeldLock {
    /// The lock.
    pub id: LockId,
    /// The mode it was granted in.
    pub mode: LockMode,
    /// Index of the bucket latch in the granting manager.
    pub(crate) latch: u32,
    /// Index of the entry in the granting manager.
    pub(crate) slot: u32,
}

/// A transaction descriptor: identity, state, and the locks it holds.
#[derive(Debug, Clone)]
pub struct Txn {
    /// Identifier.
    pub id: TxnId,
    /// Current state.
    pub state: TxnState,
    /// Locks held (released at commit/abort: strict two-phase locking).
    pub held_locks: Vec<HeldLock>,
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
        let held = |id, mode, slot| HeldLock {
            id,
            mode,
            latch: 0,
            slot,
        };
        t.held_locks.push(held(table, LockMode::IX, 0));
        t.held_locks.push(held(rec, LockMode::X, 3));
        let grants: Vec<_> = t.held_locks.iter().map(|h| (h.id, h.mode)).collect();
        assert_eq!(grants, [(table, LockMode::IX), (rec, LockMode::X)]);
        // A reused descriptor starts empty but keeps its capacity.
        let capacity = t.held_locks.capacity();
        t.reset(TxnId(2));
        assert_eq!(t.id, TxnId(2));
        assert!(t.held_locks.is_empty());
        assert_eq!(t.held_locks.capacity(), capacity);
    }
}
