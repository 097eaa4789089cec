//! The shared-nothing designs: one database instance per core ("extreme",
//! H-Store-style) or per socket ("coarse").
//!
//! Each instance owns a horizontal slice of every table, its own lock
//! manager, log, and transaction list, all allocated on the instance's
//! socket — single-site transactions therefore enjoy perfect locality.
//! Multi-site transactions are executed as distributed transactions: the
//! coordinating instance ships requests to the participants over
//! shared-memory channels and runs two-phase commit, holding locks until
//! the decision and writing the additional prepare/decision log records
//! (paper §III-C, Figures 3 and 4).

use crate::action::{TransactionSpec, TxnOutcome};
use crate::designs::common::{
    acquire_action_locks, TxnProtocol, BEGIN_INSTRUCTIONS, COMMIT_INSTRUCTIONS,
};
use crate::designs::{DesignStats, SystemDesign};
use crate::workload::Workload;
use atrapos_core::{KeyDomain, ShardingPlan};
use atrapos_numa::{Component, CoreId, Cycles, Machine, SocketId, Tally, Topology};
use atrapos_storage::{
    Database, LockManager, MemoryPolicy, Table, TableId, TwoPhaseCommit, Txn, TxnId,
};
use std::collections::BTreeMap;

/// Granularity of the shared-nothing deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum SharedNothingGranularity {
    /// One instance per core (the paper's "extreme" configuration).
    PerCore,
    /// One instance per socket (the paper's "coarse" configuration).
    PerSocket,
}

struct Instance {
    home_core: CoreId,
    socket: SocketId,
    db: Database,
    lock_manager: LockManager,
    protocol: TxnProtocol,
}

/// A shared-nothing deployment.
pub struct SharedNothingDesign {
    granularity: SharedNothingGranularity,
    instances: Vec<Instance>,
    domains: Vec<(TableId, KeyDomain)>,
    /// Optional custom sharding produced by the `atrapos_core::advisor`
    /// (paper §VII); when absent, keys are range-sharded over the instances.
    plan: Option<ShardingPlan>,
    locking: bool,
    two_pc: TwoPhaseCommit,
    next_txn: u64,
    aborted: u64,
    /// Number of distributed (multi-site) transactions executed.
    pub distributed_txns: u64,
    /// Reusable descriptor of the transaction's branch on its home
    /// instance, so single-site transactions allocate nothing.
    home_txn: Txn,
}

impl SharedNothingDesign {
    /// Build a shared-nothing deployment and populate each instance with its
    /// slice of the workload's data.  `policy` places the instances' memory
    /// (the paper's §III-D experiment); `plan`, when given, routes every
    /// key through an advisor-produced [`ShardingPlan`] instead of the
    /// default range sharding (the §VII coarse-grained extension) and must
    /// have one instance per deployment instance.
    pub fn new(
        machine: &Machine,
        workload: &dyn Workload,
        granularity: SharedNothingGranularity,
        policy: MemoryPolicy,
        plan: Option<ShardingPlan>,
    ) -> Self {
        let topo = &machine.topology;
        let n_sockets = topo.num_sockets();
        let homes: Vec<CoreId> = match granularity {
            SharedNothingGranularity::PerCore => topo.active_cores(),
            SharedNothingGranularity::PerSocket => topo
                .active_sockets()
                .iter()
                .map(|s| topo.cores_of(*s)[0])
                .collect(),
        };
        let domains = workload.table_domains();
        let n_instances = homes.len();
        if let Some(p) = &plan {
            assert_eq!(
                p.n_instances, n_instances,
                "the sharding plan must have one instance per deployment instance"
            );
        }
        let mut instances = Vec::with_capacity(n_instances);
        for (idx, &home_core) in homes.iter().enumerate() {
            let socket = topo.socket_of(home_core);
            let memory_node = policy.node_for(socket, topo);
            let mut db = Database::new();
            for spec in workload.tables() {
                db.add_table(Table::new(spec.id, spec.schema.clone(), memory_node));
            }
            let route = |table: TableId, key: &atrapos_storage::Key| match &plan {
                Some(p) => {
                    p.instance_of_key(table, key.head_int())
                        .min(n_instances - 1)
                        == idx
                }
                None => instance_for(&domains, n_instances, table, key.head_int()) == idx,
            };
            workload.populate(&mut db, &route);
            instances.push(Instance {
                home_core,
                socket,
                db,
                lock_manager: LockManager::partition_local(socket),
                protocol: TxnProtocol::per_socket(n_sockets),
            });
        }
        Self {
            granularity,
            instances,
            domains,
            plan,
            locking: true,
            two_pc: TwoPhaseCommit::default(),
            next_txn: 1,
            aborted: 0,
            distributed_txns: 0,
            home_txn: Txn::begin(TxnId(0)),
        }
    }

    /// Disable locking and latching (the paper does this for the extreme
    /// shared-nothing configuration on read-only workloads, where each
    /// record is only ever touched by one thread).
    pub fn with_locking(mut self, locking: bool) -> Self {
        self.locking = locking;
        self
    }

    /// Number of instances.
    pub fn num_instances(&self) -> usize {
        self.instances.len()
    }

    /// The database of instance `idx` (consistency checks in tests).
    pub fn instance_db(&self, idx: usize) -> &Database {
        &self.instances[idx].db
    }

    /// Transactions aborted due to storage errors.
    pub fn aborted(&self) -> u64 {
        self.aborted
    }

    fn instance_of_client(&self, topo: &Topology, client: CoreId) -> usize {
        match self.granularity {
            SharedNothingGranularity::PerCore => self
                .instances
                .iter()
                .position(|i| i.home_core == client)
                .unwrap_or(0),
            SharedNothingGranularity::PerSocket => {
                let socket = topo.socket_of(client);
                self.instances
                    .iter()
                    .position(|i| i.socket == socket)
                    .unwrap_or(0)
            }
        }
    }

    fn route_action(&self, table: TableId, key_head: i64) -> usize {
        match &self.plan {
            Some(p) => p
                .instance_of_key(table, key_head)
                .min(self.instances.len() - 1),
            None => instance_for(&self.domains, self.instances.len(), table, key_head),
        }
    }
}

/// Range-partition a table's key domain over `n` instances.
fn instance_for(
    domains: &[(TableId, KeyDomain)],
    n: usize,
    table: TableId,
    key_head: i64,
) -> usize {
    domains
        .iter()
        .find(|(t, _)| *t == table)
        .map_or(KeyDomain::new(0, 1), |(_, d)| *d)
        .sub_partition_of(key_head, n)
}

impl SystemDesign for SharedNothingDesign {
    fn stats(&self) -> DesignStats {
        DesignStats {
            aborted: self.aborted,
            distributed_txns: Some(self.distributed_txns),
            instances: Some(self.instances.len()),
            repartitions: None,
            partitions: None,
        }
    }

    fn name(&self) -> &str {
        match self.granularity {
            SharedNothingGranularity::PerCore => "shared-nothing (per core)",
            SharedNothingGranularity::PerSocket => "shared-nothing (per socket)",
        }
    }

    // Per-transaction path.  The single-site fast path is allocation-free;
    // the waived allocations below only run for distributed transactions
    // (the 2PC slow path, a few percent of any sane workload).
    // lint: hot-path
    fn execute(
        &mut self,
        machine: &mut Machine,
        spec: &TransactionSpec,
        client: CoreId,
        start: Cycles,
    ) -> TxnOutcome {
        // Transaction routing (H-Store style): if every action of the
        // transaction maps to one single instance, the whole transaction is
        // forwarded to that instance and executed there as a local,
        // single-site transaction; only transactions whose data genuinely
        // spans instances become distributed transactions (paper §III-C).
        let client_instance = self.instance_of_client(&machine.topology, client);
        let mut single_target: Option<usize> = None;
        let mut spans_instances = false;
        for action in spec.phases.iter().flat_map(|p| &p.actions) {
            let target = self.route_action(action.op.table(), action.op.routing_key_head());
            match single_target {
                None => single_target = Some(target),
                Some(t) if t != target => {
                    spans_instances = true;
                    break;
                }
                Some(_) => {}
            }
        }
        let home = match single_target {
            Some(t) if !spans_instances => t,
            _ => client_instance,
        };
        let txn_id = TxnId(self.next_txn);
        self.next_txn += 1;
        // One transaction branch per participating instance (the coordinator
        // keeps a descriptor in each so locks can be released there): the
        // reused home descriptor, plus a map of the remote participants.  A
        // BTreeMap so that participant iteration order — and therefore the
        // simulated two-phase-commit message sequence — is deterministic
        // across process runs (a HashMap here made distributed-transaction
        // timings depend on the process's hash seed).
        self.home_txn.reset(txn_id);
        let mut remote_branches: BTreeMap<usize, Txn> = BTreeMap::new();

        let mut ctx = machine.ctx(client, start);
        // What the remote participants accrue; committed once `ctx` no
        // longer borrows the machine.
        let mut remote = Tally::default();
        ctx.work(Component::XctManagement, BEGIN_INSTRUCTIONS);
        if home != client_instance {
            // Ship the request to the owning instance over a shared-memory
            // channel (the forwarding cost of single-site remote execution).
            let target_socket = self.instances[home].socket;
            ctx.send_message(
                Component::Communication,
                target_socket,
                self.two_pc.message_bytes,
            );
        }
        self.instances[home]
            .protocol
            .begin(&mut ctx, txn_id, self.locking);

        let mut failed = false;
        for action in spec.phases.iter().flat_map(|p| &p.actions) {
            let target = self.route_action(action.op.table(), action.op.routing_key_head());
            let inst = &mut self.instances[target];
            if target == home {
                // Home actions run on the coordinator's own thread.
                if self.locking {
                    let txn = &mut self.home_txn;
                    acquire_action_locks(&mut ctx, &mut inst.lock_manager, txn, action);
                }
                failed = !inst
                    .protocol
                    .run_action(&mut ctx, &mut inst.db, txn_id, action);
            } else {
                // Ship the request to the participant over a
                // shared-memory channel and execute it there, on the
                // participant's own core and clock.
                let participant_socket = inst.socket;
                ctx.send_message(
                    Component::Communication,
                    participant_socket,
                    self.two_pc.message_bytes,
                );
                let txn = remote_branches
                    .entry(target)
                    .or_insert_with(|| Txn::begin(txn_id));
                txn.distributed = true;
                let mut rctx = machine.ctx(inst.home_core, ctx.now());
                rctx.work(Component::XctManagement, BEGIN_INSTRUCTIONS / 2);
                if self.locking {
                    acquire_action_locks(&mut rctx, &mut inst.lock_manager, txn, action);
                }
                failed = !inst
                    .protocol
                    .run_action(&mut rctx, &mut inst.db, txn_id, action);
                let remote_done = rctx.now();
                remote.absorb(&rctx.finish());
                // The coordinator waits for the participant's reply.
                ctx.wait_until(
                    Component::Communication,
                    remote_done,
                    atrapos_numa::WaitMode::Stall,
                );
                ctx.send_message(
                    Component::Communication,
                    participant_socket,
                    self.two_pc.message_bytes,
                );
            }
            if failed {
                break;
            }
        }

        // Commit: local transactions use the local log; multi-site
        // transactions run two-phase commit.
        ctx.work(Component::XctManagement, COMMIT_INSTRUCTIONS);
        if remote_branches.is_empty() {
            self.instances[home]
                .protocol
                .log_outcome(&mut ctx, txn_id, failed, spec.is_update());
        } else {
            self.distributed_txns += 1;
            let participant_sockets: Vec<SocketId> = remote_branches
                .keys()
                .map(|&i| self.instances[i].socket)
                // lint: allow(hot-path-alloc) — 2PC slow path only, reached by genuinely distributed transactions
                .collect();
            let abort_vote = if failed { Some(0) } else { None };
            self.two_pc.coordinate(
                &mut ctx,
                txn_id,
                &participant_sockets,
                &mut self.instances[home].protocol.log,
                abort_vote,
            );
            // Release participant-side locks (the decision message releases
            // them on each participant).
            if self.locking {
                for (&p, txn) in &mut remote_branches {
                    self.instances[p].lock_manager.release_all(&mut ctx, txn);
                }
            }
        }
        let inst = &mut self.instances[home];
        if self.locking {
            inst.lock_manager.release_all(&mut ctx, &mut self.home_txn);
        }
        inst.protocol.end(&mut ctx, txn_id, self.locking);
        if failed {
            self.aborted += 1;
        }

        let end = ctx.now();
        machine.commit(&ctx.finish());
        machine.commit(&remote);
        TxnOutcome {
            committed: !failed,
            start,
            end,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{Action, ActionOp, Phase};
    use crate::workload::testing::{TinyUpdateWorkload, TinyWorkload};
    use atrapos_numa::CostModel;
    use atrapos_storage::Key;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn machine(sockets: usize, cores: usize) -> Machine {
        Machine::new(Topology::multisocket(sockets, cores), CostModel::westmere())
    }

    /// The default deployment: local memory, range sharding.
    fn deploy(m: &Machine, w: &dyn Workload, g: SharedNothingGranularity) -> SharedNothingDesign {
        SharedNothingDesign::new(m, w, g, MemoryPolicy::Local, None)
    }

    #[test]
    fn data_is_sliced_across_instances() {
        let m = machine(2, 2);
        let w = TinyWorkload { rows: 400 };
        let d = deploy(&m, &w, SharedNothingGranularity::PerCore);
        assert_eq!(d.num_instances(), 4);
        let total: usize = (0..4).map(|i| d.instance_db(i).total_records()).sum();
        assert_eq!(total, 400);
        // Each instance holds a contiguous quarter.
        assert_eq!(d.instance_db(0).table(TableId(0)).unwrap().len(), 100);
        assert!(d
            .instance_db(0)
            .table(TableId(0))
            .unwrap()
            .peek(&Key::int(0))
            .is_some());
        assert!(d
            .instance_db(3)
            .table(TableId(0))
            .unwrap()
            .peek(&Key::int(399))
            .is_some());
    }

    #[test]
    fn coarse_granularity_builds_one_instance_per_socket() {
        let m = machine(4, 2);
        let w = TinyWorkload { rows: 100 };
        let d = deploy(&m, &w, SharedNothingGranularity::PerSocket);
        assert_eq!(d.num_instances(), 4);
    }

    #[test]
    fn local_transactions_commit_without_distribution() {
        let mut m = machine(2, 2);
        let mut w = TinyWorkload { rows: 400 };
        let mut d = deploy(&m, &w, SharedNothingGranularity::PerCore).with_locking(false);
        let mut rng = SmallRng::seed_from_u64(5);
        let mut now = 0;
        for _ in 0..40 {
            let spec = w.next_transaction(&mut rng, CoreId(0));
            // Submit from the client that owns the key so it stays local.
            let key = spec.phases[0].actions[0].op.routing_key_head();
            let client = m.topology.active_cores()[(key as usize * 4 / 400).min(3)];
            let out = d.execute(&mut m, &spec, client, now);
            assert!(out.committed);
            now = out.end;
        }
        assert_eq!(d.distributed_txns, 0);
    }

    #[test]
    fn multi_site_updates_run_two_phase_commit_and_cost_more() {
        let mut m = machine(2, 2);
        let w = TinyUpdateWorkload { rows: 400 };
        let mut d = deploy(&m, &w, SharedNothingGranularity::PerCore);
        // A local transaction: both keys owned by instance 0 (keys 0..100).
        let local = TransactionSpec::new(
            "local",
            vec![Phase::new(vec![
                Action::new(ActionOp::Increment {
                    table: TableId(0),
                    key: Key::int(5),
                    column: 1,
                    delta: 1,
                }),
                Action::new(ActionOp::Increment {
                    table: TableId(1),
                    key: Key::int(6),
                    column: 1,
                    delta: 1,
                }),
            ])],
        );
        // A multi-site transaction: second key owned by the last instance.
        let multi = TransactionSpec::new(
            "multi",
            vec![Phase::new(vec![
                Action::new(ActionOp::Increment {
                    table: TableId(0),
                    key: Key::int(5),
                    column: 1,
                    delta: 1,
                }),
                Action::new(ActionOp::Increment {
                    table: TableId(1),
                    key: Key::int(399),
                    column: 1,
                    delta: 1,
                }),
            ])],
        );
        let client = CoreId(0);
        let lo = d.execute(&mut m, &local, client, 0);
        let mo = d.execute(&mut m, &multi, client, lo.end);
        assert!(lo.committed && mo.committed);
        assert_eq!(d.distributed_txns, 1);
        assert!(
            mo.latency() as f64 > 1.5 * lo.latency() as f64,
            "distributed {} vs local {}",
            mo.latency(),
            lo.latency()
        );
        // Both increments really happened, each on its owning instance.
        assert_eq!(
            d.instance_db(0)
                .table(TableId(1))
                .unwrap()
                .peek(&Key::int(6))
                .unwrap()
                .get(1)
                .as_int(),
            1
        );
        assert_eq!(
            d.instance_db(3)
                .table(TableId(1))
                .unwrap()
                .peek(&Key::int(399))
                .unwrap()
                .get(1)
                .as_int(),
            1
        );
    }

    #[test]
    fn mixed_stream_leaves_no_active_transaction_and_no_lock_holder() {
        use crate::designs::common::protocol_check::{assert_quiescent, run_mixed_stream, ROWS};
        // The extreme (locking off, as the spec builds it) and coarse
        // deployments; both run part of the stream as distributed
        // transactions, aborted ones included.
        for (granularity, locking) in [
            (SharedNothingGranularity::PerCore, false),
            (SharedNothingGranularity::PerSocket, true),
        ] {
            let mut m = machine(2, 2);
            let w = TinyUpdateWorkload { rows: ROWS };
            let mut d = deploy(&m, &w, granularity).with_locking(locking);
            run_mixed_stream(&mut d, &mut m);
            assert!(d.distributed_txns > 0);
            assert_quiescent(
                d.instances.iter().map(|i| &i.protocol),
                d.instances.iter().map(|i| &i.lock_manager),
            );
        }
    }

    #[test]
    fn sharding_plan_overrides_the_default_range_routing() {
        use atrapos_core::ShardingPlan;
        let m = machine(2, 2);
        let w = TinyWorkload { rows: 400 };
        // A plan that inverts the default ownership: the upper half of the
        // key space goes to instance 0 and the lower half to instance 1.
        let mut plan = ShardingPlan::range(&w.table_domains(), 4, 2, 2);
        plan.assign(TableId(0), 0, 1);
        plan.assign(TableId(0), 1, 1);
        plan.assign(TableId(0), 2, 0);
        plan.assign(TableId(0), 3, 0);
        let d = SharedNothingDesign::new(
            &m,
            &w,
            SharedNothingGranularity::PerSocket,
            MemoryPolicy::Local,
            Some(plan),
        );
        assert_eq!(d.num_instances(), 2);
        // Every row is loaded exactly once, on the instance the plan names.
        let total: usize = (0..2).map(|i| d.instance_db(i).total_records()).sum();
        assert_eq!(total, 400);
        assert!(d
            .instance_db(0)
            .table(TableId(0))
            .unwrap()
            .peek(&Key::int(399))
            .is_some());
        assert!(d
            .instance_db(1)
            .table(TableId(0))
            .unwrap()
            .peek(&Key::int(0))
            .is_some());
        assert_eq!(d.route_action(TableId(0), 0), 1);
        assert_eq!(d.route_action(TableId(0), 399), 0);
    }

    #[test]
    fn remote_memory_policy_slows_reads_down_moderately() {
        let w = TinyWorkload { rows: 800 };
        let mut throughputs = Vec::new();
        for policy in [MemoryPolicy::Local, MemoryPolicy::Remote] {
            let mut m = machine(8, 1);
            let mut wl = TinyWorkload { rows: 800 };
            let mut d =
                SharedNothingDesign::new(&m, &w, SharedNothingGranularity::PerSocket, policy, None)
                    .with_locking(false);
            let mut rng = SmallRng::seed_from_u64(9);
            let mut now = 0;
            let mut committed = 0u64;
            for _ in 0..200 {
                let spec = wl.next_transaction(&mut rng, CoreId(0));
                let key = spec.phases[0].actions[0].op.routing_key_head();
                let client = m.topology.active_cores()[(key as usize * 8 / 800).min(7)];
                let out = d.execute(&mut m, &spec, client, now);
                now = out.end;
                committed += 1;
            }
            throughputs.push(committed as f64 / now as f64);
        }
        let penalty = 1.0 - throughputs[1] / throughputs[0];
        assert!(penalty > 0.0, "remote memory should not be free");
        assert!(
            penalty < 0.25,
            "remote-memory penalty should be moderate, got {penalty}"
        );
    }
}
