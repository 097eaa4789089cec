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
//! (paper §III-C, Figures 3 and 4).  One routing rule, a [`ShardingPlan`],
//! places every key at load time and per action, and each instance keeps
//! one reused descriptor of its branch of the transaction in flight.

use crate::action::{Action, TransactionSpec, TxnOutcome};
use crate::designs::common::{
    acquire_action_locks, TxnProtocol, BEGIN_INSTRUCTIONS, COMMIT_INSTRUCTIONS,
};
use crate::designs::{DesignStats, SystemDesign};
use crate::workload::Workload;
use atrapos_core::ShardingPlan;
use atrapos_numa::{Component, CoreId, Cycles, Machine, SimCtx, SocketId, Tally};
use atrapos_storage::{
    Database, LockManager, MemoryPolicy, Table, TableId, TwoPhaseCommit, Txn, TxnId,
};

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
    /// This instance's branch of the transaction in flight, reset when the
    /// transaction first touches the instance.
    branch: Txn,
}

impl Instance {
    /// Lock `action` for this instance's branch (when `locking`) and run
    /// it on the instance; false if it failed.
    fn run(&mut self, ctx: &mut SimCtx<'_>, locking: bool, txn: TxnId, action: &Action) -> bool {
        if locking {
            acquire_action_locks(ctx, &mut self.lock_manager, &mut self.branch, action);
        }
        self.protocol.run_action(ctx, &mut self.db, txn, action)
    }
}

/// A shared-nothing deployment.
pub struct SharedNothingDesign {
    granularity: SharedNothingGranularity,
    instances: Vec<Instance>,
    /// The owner of every key: an advisor-produced sharding (paper §VII)
    /// or, by default, the range sharding over the instances.
    plan: ShardingPlan,
    /// The instance each core's client submits to, indexed by core.
    client_instance: Vec<usize>,
    locking: bool,
    two_pc: TwoPhaseCommit,
    next_txn: u64,
    aborted: u64,
    /// Number of distributed (multi-site) transactions executed.
    pub distributed_txns: u64,
    /// The remote participants of the transaction in flight, and their
    /// sockets (reused buffers).
    participants: Vec<usize>,
    participant_sockets: Vec<SocketId>,
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
        let n = homes.len();
        // One sub-partition per instance makes the range plan's owners the
        // identity: key `k` goes to the domain's slice `sub_partition_of(k, n)`.
        let plan = plan.unwrap_or_else(|| ShardingPlan::range(&workload.table_domains(), n, n, n));
        assert_eq!(
            plan.n_instances, n,
            "the sharding plan must have one instance per deployment instance"
        );
        // A client submits to the instance of its core (extreme) or socket
        // (coarse), or to instance 0 if that is down.
        let mut client_instance = vec![0; topo.num_cores()];
        let mut instances = Vec::with_capacity(n);
        for (idx, &home_core) in homes.iter().enumerate() {
            let socket = topo.socket_of(home_core);
            let memory_node = policy.node_for(socket, topo);
            let mut db = Database::new();
            for spec in workload.tables() {
                db.add_table(Table::new(spec.id, spec.schema.clone(), memory_node));
            }
            workload.populate(&mut db, &|table, key| {
                route(&plan, table, key.head_int()) == idx
            });
            let clients = match granularity {
                SharedNothingGranularity::PerCore => std::slice::from_ref(&home_core),
                SharedNothingGranularity::PerSocket => topo.cores_of(socket),
            };
            for c in clients {
                client_instance[c.index()] = idx;
            }
            instances.push(Instance {
                home_core,
                socket,
                db,
                lock_manager: LockManager::partition_local(socket),
                protocol: TxnProtocol::per_socket(n_sockets),
                branch: Txn::begin(TxnId(0)),
            });
        }
        Self {
            granularity,
            instances,
            plan,
            client_instance,
            locking: true,
            two_pc: TwoPhaseCommit::default(),
            next_txn: 1,
            aborted: 0,
            distributed_txns: 0,
            participants: Vec::new(),
            participant_sockets: Vec::new(),
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
}

/// The instance owning `key_head` of `table` under `plan`: the one routing
/// rule of the deployment, for the rows it loads and the actions it runs.
fn route(plan: &ShardingPlan, table: TableId, key_head: i64) -> usize {
    plan.instance_of_key(table, key_head)
        .min(plan.n_instances - 1)
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

    // Per-transaction path, distributed transactions included: every
    // branch descriptor and participant list is reused.
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
        let client_instance = self.client_instance[client.index()];
        let mut targets = spec
            .phases
            .iter()
            .flat_map(|p| &p.actions)
            .map(|a| route(&self.plan, a.op.table(), a.op.routing_key_head()));
        let home = match targets.next() {
            Some(t) if targets.all(|u| u == t) => t,
            _ => client_instance,
        };
        let txn_id = TxnId(self.next_txn);
        self.next_txn += 1;
        // One branch per participating instance, so locks can be released
        // there: each instance's own, reset when the transaction reaches it.
        self.instances[home].branch.reset(txn_id);
        self.participants.clear();

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
            let target = route(&self.plan, action.op.table(), action.op.routing_key_head());
            let inst = &mut self.instances[target];
            if target == home {
                // Home actions run on the coordinator's own thread.
                failed = !inst.run(&mut ctx, self.locking, txn_id, action);
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
                if inst.branch.id != txn_id {
                    inst.branch.reset(txn_id);
                    inst.branch.distributed = true;
                    self.participants.push(target);
                }
                let mut rctx = machine.ctx(inst.home_core, ctx.now());
                rctx.work(Component::XctManagement, BEGIN_INSTRUCTIONS / 2);
                failed = !inst.run(&mut rctx, self.locking, txn_id, action);
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
        if self.participants.is_empty() {
            self.instances[home]
                .protocol
                .log_outcome(&mut ctx, txn_id, failed, spec.is_update());
        } else {
            self.distributed_txns += 1;
            // Ascending instance order fixes the simulated 2PC message
            // sequence and the order of the lock releases.
            self.participants.sort_unstable();
            self.participant_sockets.clear();
            self.participant_sockets
                .extend(self.participants.iter().map(|&i| self.instances[i].socket));
            let abort_vote = if failed { Some(0) } else { None };
            self.two_pc.coordinate(
                &mut ctx,
                txn_id,
                &self.participant_sockets,
                &mut self.instances[home].protocol.log,
                abort_vote,
            );
            // Release participant-side locks (the decision message releases
            // them on each participant).
            if self.locking {
                for &p in &self.participants {
                    let inst = &mut self.instances[p];
                    inst.lock_manager.release_all(&mut ctx, &mut inst.branch);
                }
            }
        }
        let inst = &mut self.instances[home];
        if self.locking {
            inst.lock_manager.release_all(&mut ctx, &mut inst.branch);
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
    use crate::workload::TableSpec;
    use atrapos_core::KeyDomain;
    use atrapos_numa::{CostModel, Topology};
    use atrapos_storage::Key;
    use proptest::prelude::*;
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
                d.instances.iter().map(|i| &i.branch),
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
        assert_eq!(route(&d.plan, TableId(0), 0), 1);
        assert_eq!(route(&d.plan, TableId(0), 399), 0);
    }

    /// Tables over given key domains, each loaded with given keys.
    struct DomainsWorkload(Vec<(KeyDomain, Vec<i64>)>);

    impl Workload for DomainsWorkload {
        fn name(&self) -> &str {
            "domains"
        }

        fn tables(&self) -> Vec<TableSpec> {
            let schema = TinyWorkload { rows: 1 }.tables().remove(0).schema;
            (0..self.0.len() as u32)
                .map(|t| TableSpec {
                    id: TableId(t),
                    schema: schema.clone(),
                    domain: self.0[t as usize].0,
                    rows: self.0[t as usize].1.len() as u64,
                })
                .collect()
        }

        fn populate(&self, db: &mut Database, filter: &dyn Fn(TableId, &Key) -> bool) {
            for (t, (_, keys)) in self.0.iter().enumerate() {
                let id = TableId(t as u32);
                let table = db.table_mut(id).unwrap();
                for &k in keys {
                    if filter(id, &Key::int(k)) {
                        table.load_cells(&[k, 0]).unwrap();
                    }
                }
            }
        }

        fn next_transaction_into(&mut self, _: &mut SmallRng, _: CoreId, _: &mut TransactionSpec) {
            unreachable!("only built, never run")
        }
    }

    proptest! {
        /// Without a plan, both granularities load and route every key,
        /// inside its table's domain or past either end, to the domain's
        /// `n`-way range slice.
        #[test]
        fn default_routing_is_the_range_slice_of_the_domain(
            sockets in 1usize..5,
            cores in 1usize..4,
            tables in prop::collection::vec(
                (-1_000i64..1_000, 1i64..5_000, prop::collection::btree_set(0i64..5_000, 1..20)),
                1..4,
            ),
        ) {
            let w = DomainsWorkload(
                tables
                    .iter()
                    .map(|(lo, width, offsets)| {
                        let keys = offsets.iter().filter(|&&o| o < *width).map(|o| lo + o);
                        (KeyDomain::new(*lo, lo + width), keys.collect())
                    })
                    .collect(),
            );
            let m = machine(sockets, cores);
            for (g, n) in [
                (SharedNothingGranularity::PerCore, sockets * cores),
                (SharedNothingGranularity::PerSocket, sockets),
            ] {
                let d = deploy(&m, &w, g);
                prop_assert_eq!(d.num_instances(), n);
                for (t, (domain, keys)) in w.0.iter().enumerate() {
                    let table = TableId(t as u32);
                    for &k in keys {
                        let owner = domain.sub_partition_of(k, n);
                        prop_assert_eq!(route(&d.plan, table, k), owner);
                        let stored = d.instance_db(owner).table(table).unwrap().peek(&Key::int(k));
                        prop_assert!(stored.is_some(), "key {} of table {} not on {}", k, t, owner);
                    }
                    for k in [domain.lo - 1_000, domain.hi, domain.hi + 1_000] {
                        prop_assert_eq!(route(&d.plan, table, k), domain.sub_partition_of(k, n));
                    }
                }
                let loaded: usize = (0..n).map(|i| d.instance_db(i).total_records()).sum();
                prop_assert_eq!(loaded, w.0.iter().map(|(_, keys)| keys.len()).sum::<usize>());
            }
        }
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
