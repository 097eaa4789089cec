//! What every system design shares: the begin → action → outcome → end
//! protocol over the critical-path structures ([`TxnProtocol`]), executing
//! a storage operation, acquiring the logical locks an action needs, and
//! charging synchronization points.

use crate::action::{Action, ActionOp};
use atrapos_numa::{Component, SimCtx, SocketId};
use atrapos_storage::{
    Database, LockId, LockManager, LockMode, LogManager, LogRecordKind, StateRwLock, StorageResult,
    Txn, TxnId, TxnList,
};

/// Instruction overhead charged at transaction begin (descriptor setup,
/// timestamp, statistics).
pub const BEGIN_INSTRUCTIONS: u64 = 700;
/// Instruction overhead charged at commit/abort (descriptor teardown).
pub const COMMIT_INSTRUCTIONS: u64 = 500;
/// Approximate log payload per modified row (before/after image header).
pub const LOG_BYTES_PER_ROW: u64 = 120;

/// The structures every transaction touches on its critical path (paper
/// §IV) — the log, the list of active transactions and the state
/// read/write lock — with the protocol all designs run over them.  The
/// designs differ in *where* each step's virtual time advances (which
/// core's `SimCtx` they pass in) and in what they do between the steps
/// (routing, locking, synchronization points, two-phase commit), not in
/// the steps themselves.
pub struct TxnProtocol {
    pub(crate) log: LogManager,
    txn_list: TxnList,
    state_lock: StateRwLock,
}

impl TxnProtocol {
    /// One log buffer, one list and one lock word, all homed on socket 0
    /// (stock Shore-MT; PLP keeps them too).
    pub fn centralized() -> Self {
        Self {
            log: LogManager::centralized(),
            txn_list: TxnList::centralized(),
            state_lock: StateRwLock::centralized(),
        }
    }

    /// One of each per socket (ATraPos's NUMA-aware structures, and what
    /// every shared-nothing instance allocates).
    pub fn per_socket(n_sockets: usize) -> Self {
        Self {
            log: LogManager::per_socket(n_sockets),
            txn_list: TxnList::per_socket(n_sockets),
            state_lock: StateRwLock::per_socket(n_sockets),
        }
    }

    /// Begin `txn`: take the state lock in read mode (`state_lock == false`
    /// skips it, for deployments that run without locking) and register in
    /// the list of active transactions.
    pub fn begin(&mut self, ctx: &mut SimCtx<'_>, txn: TxnId, state_lock: bool) {
        if state_lock {
            self.state_lock.read_acquire(ctx);
        }
        self.txn_list.add(ctx, txn);
    }

    /// Run the storage part of `action` against `db` and, for a write, log
    /// it.  Returns whether the action succeeded; a failure aborts the
    /// transaction.  Lock acquisition is the caller's: which lock table,
    /// and whether its cost counts as part of the action, differ by design.
    pub fn run_action(
        &mut self,
        ctx: &mut SimCtx<'_>,
        db: &mut Database,
        txn: TxnId,
        action: &Action,
    ) -> bool {
        if storage_op(ctx, db, action).is_err() {
            return false;
        }
        if action.op.is_write() {
            // An insert logs the whole row; every other write one row image.
            let (kind, bytes) = match &action.op {
                ActionOp::Insert { record, .. } => (
                    LogRecordKind::Insert,
                    record.size_bytes().max(LOG_BYTES_PER_ROW),
                ),
                ActionOp::Delete { .. } => (LogRecordKind::Delete, LOG_BYTES_PER_ROW),
                _ => (LogRecordKind::Update, LOG_BYTES_PER_ROW),
            };
            self.log.insert(ctx, txn, kind, bytes);
        }
        true
    }

    /// Write the local outcome record: an abort record if `failed`, else —
    /// for update transactions only — a commit record, forced to the log.
    pub fn log_outcome(&mut self, ctx: &mut SimCtx<'_>, txn: TxnId, failed: bool, is_update: bool) {
        if failed {
            self.log.insert(ctx, txn, LogRecordKind::Abort, 32);
        } else if is_update {
            self.log.insert(ctx, txn, LogRecordKind::Commit, 48);
            self.log.commit_flush(ctx);
        }
    }

    /// End `txn`: deregister it and release the state lock (pass the same
    /// `state_lock` as to [`TxnProtocol::begin`]).
    pub fn end(&mut self, ctx: &mut SimCtx<'_>, txn: TxnId, state_lock: bool) {
        self.txn_list.remove(ctx, txn);
        if state_lock {
            self.state_lock.read_release(ctx);
        }
    }
}

/// Execute the storage part of an action against `db`, charging costs to
/// `ctx`.  A read locates its rows and leaves them alone: nothing on the
/// transaction path depends on what a record holds.
// Called once per action by every design's execute loop.
// lint: hot-path
pub fn storage_op(ctx: &mut SimCtx<'_>, db: &mut Database, action: &Action) -> StorageResult<()> {
    ctx.work(Component::XctExecution, action.extra_instructions);
    match &action.op {
        ActionOp::Read { table, key } => db.table(*table)?.read(ctx, key).map(drop),
        ActionOp::ReadRange {
            table,
            from,
            to,
            limit,
        } => {
            db.table(*table)?
                .range_read(ctx, Some(from), Some(to), *limit);
            Ok(())
        }
        ActionOp::Update {
            table,
            key,
            column,
            value,
        } => db.table_mut(*table)?.update(ctx, key, *column, *value),
        ActionOp::Increment {
            table,
            key,
            column,
            delta,
        } => db.table_mut(*table)?.increment(ctx, key, *column, *delta),
        ActionOp::Insert { table, record } => {
            db.table_mut(*table)?.insert(ctx, record.row()).map(drop)
        }
        ActionOp::Delete { table, key } => db.table_mut(*table)?.delete(ctx, key),
    }
}

/// Acquire the hierarchical locks an action needs (table intention lock +
/// record lock) from `lm` on behalf of `txn`.
// Called once per action by every design's execute loop.
// lint: hot-path
pub fn acquire_action_locks(
    ctx: &mut SimCtx<'_>,
    lm: &mut LockManager,
    txn: &mut Txn,
    action: &Action,
) {
    let table = action.op.table();
    let (table_mode, record_mode) = if action.op.is_write() {
        (LockMode::IX, LockMode::X)
    } else {
        (LockMode::IS, LockMode::S)
    };
    lm.acquire(ctx, txn, LockId::Table(table), table_mode);
    let record_key = match &action.op {
        ActionOp::Read { key, .. }
        | ActionOp::Update { key, .. }
        | ActionOp::Increment { key, .. }
        // lint: allow(hot-path-alloc) — Key stores up to four ints inline; this clone copies no heap
        | ActionOp::Delete { key, .. } => Some(*key),
        ActionOp::Insert { record, .. } => {
            // Lock the to-be-inserted key (next-key locking is out of scope).
            Some(atrapos_storage::Key::int(action.op.routing_key_head()))
                .filter(|_| record.arity() > 0)
        }
        ActionOp::ReadRange { .. } => None, // covered by the table lock
    };
    if let Some(key) = record_key {
        lm.acquire(ctx, txn, LockId::Record(table, key), record_mode);
    }
}

/// Charge the cost of a synchronization point joining actions that ran on
/// `sockets`, exchanged from the perspective of a thread on `ctx`'s socket.
/// Co-located actions are free; every distinct remote socket costs one
/// message of `bytes` bytes (paper §V-B: the cost grows with the number of
/// distinct sockets and their distance).
// Called at every phase boundary of every multi-phase transaction.
// lint: hot-path
pub fn sync_point(ctx: &mut SimCtx<'_>, sockets: &[SocketId], bytes: u64) {
    for (i, &s) in sockets.iter().enumerate() {
        if s != ctx.socket() && !sockets[..i].contains(&s) {
            ctx.send_message(Component::Communication, s, bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::populate_all;
    use crate::workload::testing::TinyUpdateWorkload;
    use atrapos_numa::{CoreId, CostModel, Topology};
    use atrapos_storage::{Column, ColumnType, Key, Record, Schema, Table, TableId, TxnId, Value};

    fn env() -> (Topology, CostModel, Database) {
        let topo = Topology::multisocket(2, 2);
        let cost = CostModel::westmere();
        let mut db = Database::new();
        populate_all(&TinyUpdateWorkload { rows: 100 }, &mut db);
        (topo, cost, db)
    }

    #[test]
    fn storage_op_executes_reads_and_increments() {
        let (topo, cost, mut db) = env();
        let mut ctx = SimCtx::new(&topo, &cost, CoreId(0), 0);
        let read = Action::new(ActionOp::Read {
            table: TableId(0),
            key: Key::int(5),
        });
        storage_op(&mut ctx, &mut db, &read).unwrap();
        let incr = Action::new(ActionOp::Increment {
            table: TableId(0),
            key: Key::int(5),
            column: 1,
            delta: 7,
        });
        storage_op(&mut ctx, &mut db, &incr).unwrap();
        storage_op(&mut ctx, &mut db, &incr).unwrap();
        assert_eq!(
            db.table(TableId(0))
                .unwrap()
                .peek(&Key::int(5))
                .unwrap()
                .get(1)
                .as_int(),
            14
        );
        assert!(ctx.elapsed() > 0);
    }

    /// The simulated charge of an action — cycles and log traffic — is part
    /// of the model, whatever the host-side probe does.  The constants were
    /// recorded at the commit before reads stopped sizing the records they
    /// locate, when `storage_op` still returned a byte count.
    #[test]
    fn run_action_simulated_cost_is_pinned() {
        let topo = Topology::multisocket(2, 2);
        let cost = CostModel::westmere();
        let schema = Schema::new(
            "wide",
            vec![
                Column::new("id", ColumnType::Int),
                Column::new("v", ColumnType::Int),
                Column::new("pad", ColumnType::Text),
            ],
            vec![0],
        );
        let row = |id: i64, pad: usize| {
            Record::new(vec![
                Value::Int(id),
                Value::Int(0),
                Value::from("x".repeat(pad)),
            ])
        };
        let mut table = Table::new(TableId(0), schema, SocketId(1));
        table.load_many((0..100).map(|i| row(i, 40))).unwrap();
        let mut db = Database::new();
        db.add_table(table);
        let (table, key) = (TableId(0), Key::int(5));
        let actions = [
            ActionOp::Read { table, key },
            ActionOp::Update {
                table,
                key,
                column: 1,
                value: 9,
            },
            // 316 bytes: wider than the per-row log image.
            ActionOp::Insert {
                table,
                record: row(1_000, 300),
            },
            ActionOp::ReadRange {
                table,
                from: Key::int(10),
                to: Key::int(40),
                limit: 20,
            },
        ];
        let mut protocol = TxnProtocol::centralized();
        let mut ctx = SimCtx::new(&topo, &cost, CoreId(0), 0);
        let mut seen = Vec::new();
        for op in actions {
            assert!(protocol.run_action(&mut ctx, &mut db, TxnId(1), &Action::new(op)));
            seen.push((
                ctx.elapsed(),
                protocol.log.total_records(),
                protocol.log.total_bytes(),
            ));
        }
        // (cycles so far, log records, log bytes) after each action.
        assert_eq!(
            seen,
            [(870, 0, 0), (2086, 1, 120), (3385, 2, 436), (6095, 2, 436)]
        );
    }

    #[test]
    fn storage_op_propagates_missing_keys() {
        let (topo, cost, mut db) = env();
        let mut ctx = SimCtx::new(&topo, &cost, CoreId(0), 0);
        let read = Action::new(ActionOp::Read {
            table: TableId(0),
            key: Key::int(10_000),
        });
        assert!(storage_op(&mut ctx, &mut db, &read).is_err());
    }

    #[test]
    fn action_locks_follow_the_hierarchy() {
        let (topo, cost, _db) = env();
        let mut ctx = SimCtx::new(&topo, &cost, CoreId(0), 0);
        let mut lm = LockManager::centralized(64, 2);
        let mut txn = Txn::begin(TxnId(1));
        let write = Action::new(ActionOp::Increment {
            table: TableId(0),
            key: Key::int(5),
            column: 1,
            delta: 1,
        });
        acquire_action_locks(&mut ctx, &mut lm, &mut txn, &write);
        let (table, record) = (
            LockId::Table(TableId(0)),
            LockId::Record(TableId(0), Key::int(5)),
        );
        let grants: Vec<_> = txn.held_locks.iter().map(|h| (h.id, h.mode)).collect();
        assert_eq!(grants, [(table, LockMode::IX), (record, LockMode::X)]);
        assert!(lm.holds(txn.id, &table, LockMode::IX));
        assert!(lm.holds(txn.id, &record, LockMode::X));
        lm.check_grant_invariants().unwrap();
    }

    #[test]
    fn sync_point_charges_only_remote_sockets() {
        let (topo, cost, _db) = env();
        let mut ctx = SimCtx::new(&topo, &cost, CoreId(0), 0);
        // Only the local socket participates: free.
        sync_point(&mut ctx, &[SocketId(0), SocketId(0)], 128);
        assert_eq!(ctx.elapsed(), 0);
        // A remote socket participates once even if listed twice.
        let mut ctx2 = SimCtx::new(&topo, &cost, CoreId(0), 0);
        sync_point(&mut ctx2, &[SocketId(1), SocketId(1)], 128);
        let one = ctx2.elapsed();
        assert!(one > 0);
    }
}

/// Test support for the protocol [`TxnProtocol`] centralises: a transaction
/// stream that mixes commits, forced aborts and cross-partition work, and
/// the check that a design is quiescent after it.  Each design's own test
/// module passes in its private structures, so no accessor is needed.
#[cfg(test)]
pub(super) mod protocol_check {
    use super::*;
    use crate::action::{Phase, TransactionSpec};
    use crate::designs::SystemDesign;
    use crate::workload::Workload;
    use atrapos_numa::Machine;
    use atrapos_storage::{Key, TableId};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Rows per table of the `TinyUpdateWorkload` the stream runs against.
    pub const ROWS: i64 = 200;

    /// 120 transactions over two tables, rotating through: a two-phase
    /// update whose rows usually live on different partitions / instances
    /// (distributed on shared-nothing), a read-only pair, an abort *after*
    /// a logged, locked write (a read of a missing key on another
    /// partition), and an abort on the very first action.
    pub fn mixed_stream() -> Vec<TransactionSpec> {
        let incr = |t: u32, k: i64| {
            Action::new(ActionOp::Increment {
                table: TableId(t),
                key: Key::int(k),
                column: 1,
                delta: 1,
            })
        };
        let read = |t: u32, k: i64| {
            Action::new(ActionOp::Read {
                table: TableId(t),
                key: Key::int(k),
            })
        };
        let missing = ROWS + 5;
        (0..120i64)
            .map(|i| {
                let (a, b) = ((i * 7) % ROWS, (i * 13 + ROWS / 2) % ROWS);
                let phases = match i % 4 {
                    0 => vec![vec![incr(0, a)], vec![incr(1, b)]],
                    1 => vec![vec![read(0, a), read(1, b)]],
                    2 => vec![vec![incr(0, a)], vec![read(1, missing)]],
                    _ => vec![vec![read(0, missing)]],
                };
                TransactionSpec::new("mixed", phases.into_iter().map(Phase::new).collect())
            })
            .collect()
    }

    /// Run the stream through `design` from rotating clients and check
    /// that exactly the two abort kinds aborted.
    pub fn run_mixed_stream(design: &mut dyn SystemDesign, machine: &mut Machine) {
        let clients = machine.topology.active_cores();
        let mut now = 0;
        for (i, spec) in mixed_stream().iter().enumerate() {
            let out = design.execute(machine, spec, clients[i % clients.len()], now);
            assert_eq!(out.committed, i % 4 < 2, "{}: txn {i}", design.name());
            now = out.end;
        }
        assert_eq!(design.stats().aborted, 60, "{}", design.name());
    }

    /// Drive `design` as the closed-loop executor does — the client free
    /// first runs next, at its ready time, which becomes the machine's
    /// low-water mark — for `txns` transactions of `workload`.
    pub fn run_closed_loop(
        design: &mut dyn SystemDesign,
        machine: &mut Machine,
        workload: &mut dyn Workload,
        txns: usize,
    ) {
        let clients = machine.topology.active_cores();
        let mut free = vec![0; clients.len()];
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..txns {
            let (i, ready) = (0..clients.len())
                .map(|i| (i, free[i]))
                .min_by_key(|&(_, t)| t)
                .expect("an active client");
            machine.set_low_water(ready);
            let spec = workload.next_transaction(&mut rng, clients[i]);
            free[i] = design.execute(machine, &spec, clients[i], ready).end;
        }
    }

    /// After the stream no transaction is registered as active, no
    /// reused transaction descriptor still lists a lock, and no lock the
    /// stream could have taken has a holder.
    pub fn assert_quiescent<'a>(
        protocols: impl IntoIterator<Item = &'a TxnProtocol>,
        branches: impl IntoIterator<Item = &'a Txn>,
        lock_tables: impl IntoIterator<Item = &'a LockManager>,
    ) {
        for p in protocols {
            assert_eq!(p.txn_list.active_count(), 0, "active transactions leaked");
        }
        for txn in branches {
            assert!(txn.held_locks.is_empty(), "{:?} still holds locks", txn.id);
        }
        let stream = mixed_stream();
        for lm in lock_tables {
            lm.check_grant_invariants().unwrap();
            for action in stream
                .iter()
                .flat_map(|s| &s.phases)
                .flat_map(|p| &p.actions)
            {
                let table = action.op.table();
                let key = Key::int(action.op.routing_key_head());
                for id in [LockId::Table(table), LockId::Record(table, key)] {
                    assert!(lm.holders_of(&id).is_empty(), "{id:?} still held");
                }
            }
        }
    }
}
