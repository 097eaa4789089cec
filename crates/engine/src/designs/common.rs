//! Helpers shared by all system designs: executing a storage operation,
//! acquiring the logical locks an action needs, and writing its log
//! records.

use crate::action::{Action, ActionOp};
use atrapos_numa::{Component, SimCtx, SocketId};
use atrapos_storage::{
    Database, LockId, LockManager, LockMode, LogManager, LogRecordKind, StorageResult, Txn,
};

/// Instruction overhead charged at transaction begin (descriptor setup,
/// timestamp, statistics).
pub const BEGIN_INSTRUCTIONS: u64 = 700;
/// Instruction overhead charged at commit/abort (descriptor teardown).
pub const COMMIT_INSTRUCTIONS: u64 = 500;
/// Approximate log payload per modified row (before/after image header).
pub const LOG_BYTES_PER_ROW: u64 = 120;

/// Execute the storage part of an action against `db`, charging costs to
/// `ctx`.  Returns the approximate number of payload bytes the action
/// touched (used for synchronization-point sizing).
// Called once per action by every design's execute loop.
// lint: hot-path
pub fn storage_op(ctx: &mut SimCtx<'_>, db: &mut Database, action: &Action) -> StorageResult<u64> {
    ctx.work(Component::XctExecution, action.extra_instructions);
    match &action.op {
        ActionOp::Read { table, key } => {
            let t = db.table(*table)?;
            let rec = t.read(ctx, key)?;
            Ok(rec.size_bytes())
        }
        ActionOp::ReadRange {
            table,
            from,
            to,
            limit,
        } => {
            let t = db.table(*table)?;
            let rows = t.range_read(ctx, Some(from), Some(to), *limit);
            Ok(rows.iter().map(|r| r.size_bytes()).sum())
        }
        ActionOp::Update {
            table,
            key,
            changes,
        } => {
            let t = db.table_mut(*table)?;
            t.update(ctx, key, changes)?;
            Ok(LOG_BYTES_PER_ROW)
        }
        ActionOp::Increment {
            table,
            key,
            column,
            delta,
        } => {
            db.table_mut(*table)?.increment(ctx, key, *column, *delta)?;
            Ok(LOG_BYTES_PER_ROW)
        }
        ActionOp::Insert { table, record } => {
            let t = db.table_mut(*table)?;
            let bytes = record.size_bytes();
            // lint: allow(hot-path-alloc) — the table must own the inserted record; the spec keeps its copy for replay
            t.insert(ctx, record.clone())?;
            Ok(bytes.max(LOG_BYTES_PER_ROW))
        }
        ActionOp::Delete { table, key } => {
            let t = db.table_mut(*table)?;
            t.delete(ctx, key)?;
            Ok(LOG_BYTES_PER_ROW)
        }
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
        | ActionOp::Delete { key, .. } => Some(key.clone()),
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

/// Write the log record for a write action.
pub fn log_action(
    ctx: &mut SimCtx<'_>,
    log: &mut LogManager,
    txn: &Txn,
    action: &Action,
    payload_bytes: u64,
) {
    let kind = match &action.op {
        ActionOp::Insert { .. } => LogRecordKind::Insert,
        ActionOp::Delete { .. } => LogRecordKind::Delete,
        _ => LogRecordKind::Update,
    };
    log.insert(ctx, txn.id, kind, payload_bytes.max(LOG_BYTES_PER_ROW));
}

/// Charge the cost of a synchronization point joining actions that ran on
/// `sockets`, exchanged from the perspective of a thread on `ctx`'s socket.
/// Co-located actions are free; every distinct remote socket costs one
/// message of `bytes` bytes (paper §V-B: the cost grows with the number of
/// distinct sockets and their distance).
pub fn sync_point(ctx: &mut SimCtx<'_>, sockets: &[SocketId], bytes: u64) {
    let mut seen: Vec<SocketId> = Vec::with_capacity(sockets.len());
    for &s in sockets {
        if s != ctx.socket() && !seen.contains(&s) {
            seen.push(s);
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
    use atrapos_storage::{Key, TableId, TxnId};

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
        let bytes = storage_op(&mut ctx, &mut db, &read).unwrap();
        assert!(bytes > 0);
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
        assert!(txn.holds(&LockId::Table(TableId(0)), LockMode::IX));
        assert!(txn.holds(&LockId::Record(TableId(0), Key::int(5)), LockMode::X));
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
