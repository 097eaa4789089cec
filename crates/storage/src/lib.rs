//! # atrapos-storage
//!
//! A from-scratch, Shore-MT-like in-memory storage manager substrate for the
//! ATraPos reproduction.
//!
//! The ATraPos paper prototypes its design on top of the Shore-MT storage
//! manager.  This crate provides the pieces of that substrate whose
//! behaviour the paper studies, each in both a *centralized* variant (the
//! baseline whose contention collapses on multisockets) and a
//! *NUMA-partitioned* variant (the hardware-aware redesign of paper §IV):
//!
//! * relational schema, records, and keys — a key is one to four integers,
//!   plain `Copy` data ([`schema`], [`record`]);
//! * a B+-tree and the multi-rooted B+-tree used by physiological
//!   partitioning ([`btree`], [`mrbtree`]);
//! * heap tables with per-partition physical placement ([`table`],
//!   [`database`]);
//! * a hierarchical lock manager with centralized and partition-local lock
//!   tables ([`lock`], [`lock_manager`]);
//! * the critical-path internals §IV makes NUMA-aware — the ARIES-style
//!   log ([`log`]), the list of active transactions ([`txn`],
//!   [`txn_list`]) and the state read/write lock ([`srwlock`]) — each one
//!   instance or one per socket, a rule [`PerSocket`] holds once;
//! * a two-phase-commit implementation for the shared-nothing
//!   configurations ([`two_phase_commit`]);
//! * memory-placement policies for the remote-memory experiment
//!   ([`memory`]).
//!
//! All structures hold real data (real trees, real lock queues, real log
//! sequence numbers); their *timing* is accounted through the
//! [`atrapos_numa::SimCtx`] virtual-time context so that the multisocket
//! contention behaviour the paper measures can be reproduced
//! deterministically on any host.

pub mod btree;
pub mod database;
pub mod error;
pub mod lock;
pub mod lock_manager;
pub mod log;
pub mod memory;
pub mod mrbtree;
pub mod per_socket;
pub mod record;
pub mod schema;
pub mod srwlock;
pub mod table;
pub mod two_phase_commit;
pub mod txn;
pub mod txn_list;

pub use btree::BTree;
pub use btree::RowMut;
pub use database::Database;
pub use error::{StorageError, StorageResult};
pub use lock::{LockId, LockMode};
pub use lock_manager::LockManager;
pub use log::{LogManager, LogRecordKind};
pub use memory::MemoryPolicy;
pub use mrbtree::MrBTree;
pub use per_socket::PerSocket;
pub use record::{AsCell, Cell, Key, Record, Row, Value};
pub use schema::{Column, ColumnType, Schema, TableId};
pub use srwlock::StateRwLock;
pub use table::Table;
pub use two_phase_commit::{TwoPcOutcome, TwoPhaseCommit};
pub use txn::{HeldLock, Txn, TxnId, TxnState};
pub use txn_list::TxnList;
