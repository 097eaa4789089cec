//! The centralized shared-everything design (stock Shore-MT).
//!
//! One database instance uses all cores; every internal structure touched in
//! the critical path is centralized: the lock manager, the list of active
//! transactions, the shared state read/write locks, and the log buffer.
//! This is the baseline whose throughput collapses beyond a couple of
//! sockets (paper Figures 1, 2, 3).

use crate::action::{TransactionSpec, TxnOutcome};
use crate::designs::common::{
    acquire_action_locks, TxnProtocol, BEGIN_INSTRUCTIONS, COMMIT_INSTRUCTIONS,
};
use crate::designs::{DesignStats, SystemDesign};
use crate::workload::{populate_all, Workload};
use atrapos_numa::{Component, CoreId, Cycles, Machine, SocketId};
use atrapos_storage::{Database, LockManager, Table, Txn, TxnId};

/// Number of buckets in the centralized lock-manager hash table.
const LOCK_MANAGER_BUCKETS: usize = 256;

/// The centralized shared-everything design.
pub struct CentralizedDesign {
    db: Database,
    lock_manager: LockManager,
    protocol: TxnProtocol,
    /// The one transaction descriptor, reset per transaction: its
    /// held-lock list keeps its capacity, so locking allocates nothing.
    txn: Txn,
    next_txn: u64,
    aborted: u64,
}

impl CentralizedDesign {
    /// Build the design for `machine`, creating and populating the
    /// workload's tables.  Tables are single-partition; their memory is
    /// spread round-robin over the sockets (the buffer pool of a
    /// shared-everything system is interleaved).
    pub fn new(machine: &Machine, workload: &dyn Workload) -> Self {
        let n_sockets = machine.topology.num_sockets();
        let mut db = Database::new();
        for (i, spec) in workload.tables().into_iter().enumerate() {
            db.add_table(Table::new(
                spec.id,
                spec.schema,
                SocketId((i % n_sockets) as u16),
            ));
        }
        populate_all(workload, &mut db);
        Self {
            db,
            lock_manager: LockManager::centralized(LOCK_MANAGER_BUCKETS, n_sockets),
            protocol: TxnProtocol::centralized(),
            txn: Txn::begin(TxnId(0)),
            next_txn: 1,
            aborted: 0,
        }
    }

    /// The database (for consistency checks in tests).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Transactions aborted due to storage errors.
    pub fn aborted(&self) -> u64 {
        self.aborted
    }
}

impl SystemDesign for CentralizedDesign {
    fn name(&self) -> &str {
        "centralized"
    }

    fn execute(
        &mut self,
        machine: &mut Machine,
        spec: &TransactionSpec,
        client: CoreId,
        start: Cycles,
    ) -> TxnOutcome {
        let mut ctx = machine.ctx(client, start);
        let txn_id = TxnId(self.next_txn);
        self.next_txn += 1;
        self.txn.reset(txn_id);

        // Everything — begin, every action, commit — runs on the client's
        // own thread against the one set of centralized structures.
        ctx.work(Component::XctManagement, BEGIN_INSTRUCTIONS);
        self.protocol.begin(&mut ctx, txn_id, true);

        // All actions of a phase run on the same thread: the
        // synchronization points are free in this design.
        let mut failed = false;
        for action in spec.phases.iter().flat_map(|p| &p.actions) {
            acquire_action_locks(&mut ctx, &mut self.lock_manager, &mut self.txn, action);
            failed = !self
                .protocol
                .run_action(&mut ctx, &mut self.db, txn_id, action);
            if failed {
                self.aborted += 1;
                break;
            }
        }

        ctx.work(Component::XctManagement, COMMIT_INSTRUCTIONS);
        self.protocol
            .log_outcome(&mut ctx, txn_id, failed, spec.is_update());
        self.lock_manager.release_all(&mut ctx, &mut self.txn);
        self.protocol.end(&mut ctx, txn_id, true);

        let end = ctx.now();
        machine.commit(&ctx.finish());
        TxnOutcome {
            committed: !failed,
            start,
            end,
        }
    }

    fn stats(&self) -> DesignStats {
        DesignStats {
            aborted: self.aborted,
            ..DesignStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::testing::{TinyUpdateWorkload, TinyWorkload};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn executes_read_transactions() {
        let mut machine = Machine::new(
            atrapos_numa::Topology::multisocket(2, 2),
            atrapos_numa::CostModel::westmere(),
        );
        let mut w = TinyWorkload { rows: 1000 };
        let mut design = CentralizedDesign::new(&machine, &w);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut now = 0;
        for _ in 0..50 {
            let spec = w.next_transaction(&mut rng, CoreId(0));
            let out = design.execute(&mut machine, &spec, CoreId(0), now);
            assert!(out.committed);
            assert!(out.end > out.start);
            now = out.end;
        }
        assert_eq!(design.aborted(), 0);
        assert!(machine.totals().instructions > 0);
        // Read-only workload never touches the log.
        assert_eq!(design.protocol.log.total_records(), 0);
    }

    #[test]
    fn update_transactions_write_log_records_and_apply_changes() {
        let mut machine = Machine::new(
            atrapos_numa::Topology::multisocket(2, 2),
            atrapos_numa::CostModel::westmere(),
        );
        let mut w = TinyUpdateWorkload { rows: 100 };
        let mut design = CentralizedDesign::new(&machine, &w);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut now = 0;
        for _ in 0..30 {
            let spec = w.next_transaction(&mut rng, CoreId(0));
            let out = design.execute(&mut machine, &spec, CoreId(1), now);
            assert!(out.committed);
            now = out.end;
        }
        // Two update records plus one commit record per transaction.
        assert_eq!(design.protocol.log.total_records(), 30 * 3);
        // The sum of all increments equals the number of update actions.
        let total: i64 = design
            .database()
            .table(atrapos_storage::TableId(0))
            .unwrap()
            .index()
            .iter()
            .map(|(_, r)| r.get(1).as_int())
            .sum();
        assert_eq!(total, 30);
    }

    #[test]
    fn mixed_stream_leaves_no_active_transaction_and_no_lock_holder() {
        use crate::designs::common::protocol_check::{assert_quiescent, run_mixed_stream, ROWS};
        let mut machine = Machine::new(
            atrapos_numa::Topology::multisocket(2, 2),
            atrapos_numa::CostModel::westmere(),
        );
        let mut design = CentralizedDesign::new(&machine, &TinyUpdateWorkload { rows: ROWS });
        run_mixed_stream(&mut design, &mut machine);
        assert_quiescent([&design.protocol], [&design.txn], [&design.lock_manager]);
    }

    /// The scaleup-micro shape: 80 clients each read one of 160 000 rows.
    /// The lock table keeps only the entries a lagging client could still
    /// wait on, not one per row ever read.
    #[test]
    fn lock_entries_stay_bounded_on_the_scaleup_micro_shape() {
        use crate::designs::common::protocol_check::run_closed_loop;
        let mut machine = Machine::new(
            atrapos_numa::Topology::multisocket(8, 10),
            atrapos_numa::CostModel::westmere(),
        );
        let mut w = TinyWorkload { rows: 160_000 };
        let mut design = CentralizedDesign::new(&machine, &w);
        run_closed_loop(&mut design, &mut machine, &mut w, 20_000);
        // The 20 000 reads touch about 18 800 distinct rows.
        assert_eq!(design.lock_manager.record_entries(), 140);
    }

    #[test]
    fn remote_clients_pay_more_than_clients_near_the_structures() {
        let mut machine = Machine::new(
            atrapos_numa::Topology::multisocket(4, 2),
            atrapos_numa::CostModel::westmere(),
        );
        let mut w = TinyWorkload { rows: 1000 };
        let mut design = CentralizedDesign::new(&machine, &w);
        let mut rng = SmallRng::seed_from_u64(3);
        let spec = w.next_transaction(&mut rng, CoreId(0));
        // Warm the centralized structures from socket 3.
        let warm = design.execute(&mut machine, &spec, CoreId(7), 0);
        // A client on socket 0 now has to pull every centralized line over.
        let remote = design.execute(&mut machine, &spec, CoreId(0), warm.end);
        // And one more from the same socket right after (lines now local).
        let local = design.execute(&mut machine, &spec, CoreId(1), remote.end);
        assert!(remote.latency() > local.latency());
    }
}
