//! The ATraPos design (and, with its features turned off, the PLP baseline).
//!
//! ATraPos is a physiologically partitioned shared-everything system built on
//! the data-oriented execution model: every table partition is owned by one
//! worker thread bound to one core, transactions are decomposed into actions
//! routed to the owning workers, and phases of actions meet at
//! synchronization points.  On top of that execution model ATraPos adds
//! (paper §IV–V):
//!
//! 1. **NUMA-aware internal structures** — per-socket transaction lists,
//!    per-socket state read/write locks, per-socket log buffers (the
//!    `numa_aware_internals` switch; turning it off yields the PLP baseline
//!    with its centralized structures).
//! 2. **Workload- and hardware-aware partitioning and placement** — the
//!    partitioning scheme comes from the `atrapos-core` cost model and
//!    search instead of the naive one-partition-per-core rule.
//! 3. **Lightweight monitoring and adaptive repartitioning** — per
//!    sub-partition counters feed the adaptive controller, which may decide
//!    to repartition at a monitoring-interval boundary; repartitioning
//!    pauses regular execution while the splits/merges run.

use crate::action::{TransactionSpec, TxnOutcome};
use crate::designs::common::{
    acquire_action_locks, sync_point, TxnProtocol, BEGIN_INSTRUCTIONS, COMMIT_INSTRUCTIONS,
};
use crate::designs::{DesignStats, IntervalOutcome, SystemDesign};
use crate::workers::WorkerPool;
use crate::workload::{populate_all, Workload};
use atrapos_core::{
    apply_plan, AdaptationOutcome, AdaptiveController, ControllerConfig, Monitor,
    PartitioningScheme, SubPartitionId,
};
use atrapos_numa::{micros_to_cycles, Component, CoreId, Cycles, Machine, SocketId, Topology};
use atrapos_storage::{Database, LockManager, Table, TableId, Txn, TxnId};

/// Configuration of the partitioned shared-everything engine.
///
/// Serializable so that a [`crate::designs::spec::DesignSpec`] — and
/// therefore a whole experiment — is plain data.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct AtraposConfig {
    /// Partition the transaction list, state locks, and log per socket
    /// (true for ATraPos, false for the PLP baseline).
    pub numa_aware_internals: bool,
    /// Enable the lightweight workload monitoring.
    pub monitoring: bool,
    /// Enable adaptive repartitioning (requires monitoring).
    pub adaptive: bool,
    /// Sub-partitions per partition used when building the naive scheme
    /// (10 in the paper).
    pub sub_per_partition: usize,
    /// Extra scheduling overhead per action, as a fraction of the action's
    /// cost, for every additional partition hosted on the same core
    /// (models the oversaturation of one-partition-per-table-per-core
    /// schemes, paper Figure 6).
    pub oversubscription_penalty: f64,
    /// Start from this scheme instead of the naive one.
    pub initial_scheme: Option<PartitioningScheme>,
    /// Adaptive-controller parameters.
    pub controller: ControllerConfig,
    /// Virtual pause charged per repartitioning action, in microseconds
    /// (Figure 9 measures ~1–2 ms per action).
    pub repartition_pause_per_action_us: f64,
}

impl Default for AtraposConfig {
    fn default() -> Self {
        Self {
            numa_aware_internals: true,
            monitoring: true,
            adaptive: true,
            sub_per_partition: 10,
            oversubscription_penalty: 0.35,
            initial_scheme: None,
            controller: ControllerConfig::default(),
            repartition_pause_per_action_us: 1_500.0,
        }
    }
}

impl AtraposConfig {
    /// The configuration corresponding to the PLP baseline: naive
    /// partitioning, centralized internal structures, no monitoring, no
    /// adaptation.
    pub fn plp_baseline() -> Self {
        Self {
            numa_aware_internals: false,
            monitoring: false,
            adaptive: false,
            ..Self::default()
        }
    }

    /// A static ATraPos (NUMA-aware structures, but no monitoring or
    /// adaptation) — the "Static" baseline of Figures 10–13.
    pub fn static_atrapos() -> Self {
        Self {
            monitoring: false,
            adaptive: false,
            ..Self::default()
        }
    }
}

/// The partitioned shared-everything engine (ATraPos, and PLP when its
/// features are disabled).
pub struct AtraposDesign {
    name: String,
    config: AtraposConfig,
    db: Database,
    scheme: PartitioningScheme,
    controller: AdaptiveController,
    monitor: Monitor,
    /// Partition-local lock tables, indexed `[table slot][partition]` in
    /// scheme order (rebuilt on repartition).
    partition_locks: Vec<Vec<LockManager>>,
    /// Dense map from `TableId` to its slot in `scheme.tables()` /
    /// `partition_locks` (rebuilt on repartition), replacing the
    /// per-action linear scheme scan and hash-map lookups of the routing
    /// path.
    table_slots: Vec<usize>,
    protocol: TxnProtocol,
    workers: WorkerPool,
    partitions_per_core: Vec<usize>,
    next_txn: u64,
    aborted: u64,
    /// Number of repartitionings performed so far.
    pub repartitions: u64,
    /// Pending monitoring sync observations waiting for a context to be
    /// charged to.
    pending_syncs: Vec<(SubPartitionId, SubPartitionId, u64)>,
    /// Reusable per-action transaction descriptor (partition-local locks
    /// are acquired and released within one action, so one descriptor
    /// serves every action without allocating).
    action_txn: Txn,
    /// Scratch: sockets that participated in the current phase.
    phase_sockets: Vec<SocketId>,
    /// Scratch: sockets of the previous phase (sync-point participants).
    prev_sockets: Vec<SocketId>,
}

impl AtraposDesign {
    /// Build the design for `machine`, physically partitioning and
    /// populating the workload's tables according to the initial scheme.
    pub fn new(machine: &Machine, workload: &dyn Workload, config: AtraposConfig) -> Self {
        Self::with_name("atrapos", machine, workload, config)
    }

    /// Like [`AtraposDesign::new`] with an explicit display name (used by
    /// the PLP baseline and the Figure 6 placement variants).
    pub fn with_name(
        name: &str,
        machine: &Machine,
        workload: &dyn Workload,
        config: AtraposConfig,
    ) -> Self {
        let topo = &machine.topology;
        let scheme = config.initial_scheme.clone().unwrap_or_else(|| {
            PartitioningScheme::naive(&workload.table_domains(), topo, config.sub_per_partition)
        });
        let db = Self::build_database(topo, workload, &scheme);
        let (table_slots, partition_locks) = Self::build_routing(topo, &scheme);
        let partitions_per_core = scheme.partitions_per_core(topo);
        let n_sockets = topo.num_sockets();
        let protocol = if config.numa_aware_internals {
            TxnProtocol::per_socket(n_sockets)
        } else {
            TxnProtocol::centralized()
        };
        let controller = AdaptiveController::new(config.controller.clone());
        let monitor = Monitor::new(config.monitoring);
        Self {
            name: name.to_string(),
            config,
            db,
            scheme,
            controller,
            monitor,
            partition_locks,
            table_slots,
            protocol,
            workers: WorkerPool::new(topo),
            partitions_per_core,
            next_txn: 1,
            aborted: 0,
            repartitions: 0,
            pending_syncs: Vec::new(),
            action_txn: Txn::begin(TxnId(0)),
            phase_sockets: Vec::new(),
            prev_sockets: Vec::new(),
        }
    }

    fn build_database(
        topo: &Topology,
        workload: &dyn Workload,
        scheme: &PartitioningScheme,
    ) -> Database {
        let mut db = Database::new();
        for spec in workload.tables() {
            let t = scheme.table(spec.id);
            // Narrow key domains (e.g. TPC-C warehouse ids) can yield fewer
            // distinct boundary keys than logical partitions; the physical
            // multi-rooted B-tree only keeps the distinct ones (several
            // logical partitions then share a physical subtree, which is
            // harmless because routing goes through the scheme).
            let mut boundaries: Vec<atrapos_storage::Key> = Vec::new();
            let mut nodes: Vec<SocketId> = vec![topo.socket_of(t.partitions[0].core)];
            for (i, b) in t.boundary_keys().into_iter().enumerate() {
                if boundaries.last().is_none_or(|last| *last < b) {
                    boundaries.push(b);
                    nodes.push(topo.socket_of(t.partitions[i + 1].core));
                }
            }
            db.add_table(Table::range_partitioned(
                spec.id,
                spec.schema.clone(),
                boundaries,
                nodes,
            ));
        }
        populate_all(workload, &mut db);
        db
    }

    /// Build the dense routing structures for `scheme`: the
    /// `TableId → slot` map and the per-slot, per-partition lock tables.
    /// Called at construction and after every repartitioning — the hot
    /// path then routes with two array indexings instead of a linear
    /// table scan plus two hash-map probes per action.
    fn build_routing(
        topo: &Topology,
        scheme: &PartitioningScheme,
    ) -> (Vec<usize>, Vec<Vec<LockManager>>) {
        let max_id = scheme
            .tables()
            .iter()
            .map(|t| t.table.0 as usize)
            .max()
            .unwrap_or(0);
        let mut slots = vec![usize::MAX; max_id + 1];
        let mut locks = Vec::with_capacity(scheme.tables().len());
        for (i, t) in scheme.tables().iter().enumerate() {
            slots[t.table.0 as usize] = i;
            locks.push(
                t.partitions
                    .iter()
                    .map(|p| LockManager::partition_local(topo.socket_of(p.core)))
                    .collect(),
            );
        }
        (slots, locks)
    }

    /// Slot of `table` in the routing structures.
    #[inline]
    fn table_slot(&self, table: TableId) -> usize {
        let slot = self
            .table_slots
            .get(table.0 as usize)
            .copied()
            .unwrap_or(usize::MAX);
        assert!(slot != usize::MAX, "table {table} not in scheme");
        slot
    }

    /// The partitioning scheme currently in force.
    pub fn scheme(&self) -> &PartitioningScheme {
        &self.scheme
    }

    /// The database (for consistency checks in tests and benches).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Transactions aborted because of storage errors.
    pub fn aborted(&self) -> u64 {
        self.aborted
    }

    /// If `core`'s socket failed, reroute its work to the corresponding core
    /// of the first active socket (the paper's static baseline overloads one
    /// remaining processor after a failure, Figure 12).
    fn effective_core(topo: &Topology, core: CoreId) -> CoreId {
        let socket = topo.socket_of(core);
        if topo.is_active(socket) {
            return core;
        }
        let fallback_socket = topo.active_sockets()[0];
        let within = topo
            .cores_of(socket)
            .iter()
            .position(|c| *c == core)
            .unwrap_or(0);
        let fallback_cores = topo.cores_of(fallback_socket);
        fallback_cores[within % fallback_cores.len()]
    }

    fn flush_pending_syncs(&mut self, ctx: &mut atrapos_numa::SimCtx<'_>) {
        // Drain in place: the buffer keeps its capacity across
        // transactions instead of reallocating per commit.
        let Self {
            pending_syncs,
            monitor,
            ..
        } = self;
        for (a, b, bytes) in pending_syncs.drain(..) {
            monitor.record_sync(ctx, a, b, bytes);
        }
    }
}

impl SystemDesign for AtraposDesign {
    fn name(&self) -> &str {
        &self.name
    }

    // Per-transaction path: scratch state (`phase_sockets`, `prev_sockets`,
    // `pending_syncs`, `action_txn`) is reused across calls, so a steady
    // run allocates nothing here.
    // lint: hot-path
    fn execute(
        &mut self,
        machine: &mut Machine,
        spec: &TransactionSpec,
        _client: CoreId,
        start: Cycles,
    ) -> TxnOutcome {
        let txn_id = TxnId(self.next_txn);
        self.next_txn += 1;
        let mut failed = false;
        let mut phase_start = start;
        let mut prev_sync_bytes = 0u64;
        let mut first_action_of_txn = true;
        let mut last_core = None;
        self.prev_sockets.clear();

        for phase in &spec.phases {
            if failed {
                break;
            }
            let mut phase_end = phase_start;
            self.phase_sockets.clear();
            let mut first_sub: Option<SubPartitionId> = None;
            for (ai, action) in phase.actions.iter().enumerate() {
                let table = action.op.table();
                let head = action.op.routing_key_head();
                let slot = self.table_slot(table);
                let tpart = &self.scheme.tables()[slot];
                let pidx = tpart.partition_of_key(head);
                let core = Self::effective_core(&machine.topology, tpart.partitions[pidx].core);
                let sub = SubPartitionId::new(
                    table,
                    tpart
                        .domain
                        .sub_partition_of(head, tpart.num_sub_partitions),
                );
                let avail = self.workers.available_at(core, phase_start);
                let mut actx = machine.ctx(core, avail);
                // The first action of the transaction performs the begin
                // work and registers the transaction.
                if first_action_of_txn && ai == 0 {
                    actx.work(Component::XctManagement, BEGIN_INSTRUCTIONS);
                    self.protocol.begin(&mut actx, txn_id, true);
                    first_action_of_txn = false;
                }
                // The first action of a later phase receives the data from
                // the previous phase's synchronization point.
                if ai == 0 && !self.prev_sockets.is_empty() {
                    sync_point(&mut actx, &self.prev_sockets, prev_sync_bytes);
                }
                // Partition-local locking: owned by this worker only, so the
                // acquisition is local and conflict-free; conflicts on hot
                // keys surface as worker-queue serialization instead.  The
                // per-action descriptor is reused across actions, so lock
                // bookkeeping allocates nothing.
                self.action_txn.reset(txn_id);
                let lm = &mut self.partition_locks[slot][pidx];
                acquire_action_locks(&mut actx, lm, &mut self.action_txn, action);
                // The action's cost — what the oversubscription penalty
                // scales — starts after the locks are held.
                let work_begin = actx.now();
                failed = !self
                    .protocol
                    .run_action(&mut actx, &mut self.db, txn_id, action);
                let lm = &mut self.partition_locks[slot][pidx];
                lm.release_all(&mut actx, &mut self.action_txn);
                let action_cost = actx.now() - work_begin;
                // Oversubscription: a core hosting several partitions (and
                // thus several worker threads) pays scheduling and cache
                // interference overhead per action.
                let extra_partitions = self.partitions_per_core[core.index()].saturating_sub(1);
                if extra_partitions > 0 && self.config.oversubscription_penalty > 0.0 {
                    let penalty = (action_cost as f64
                        * self.config.oversubscription_penalty
                        * extra_partitions as f64) as Cycles;
                    actx.stall(Component::XctManagement, penalty);
                }
                // Monitoring.
                if self.monitor.is_enabled() {
                    let observed = (actx.now() - avail) as f64;
                    self.monitor.record_action(&mut actx, sub, observed);
                }
                match first_sub {
                    None => first_sub = Some(sub),
                    Some(f) if self.monitor.is_enabled() => {
                        self.pending_syncs.push((f, sub, phase.sync_bytes));
                    }
                    _ => {}
                }
                self.workers.occupy(core, avail, actx.now());
                phase_end = phase_end.max(actx.now());
                last_core = Some(core);
                // Committing each action's tally immediately (instead of
                // collecting them in a per-transaction vector) keeps the
                // loop allocation-free; the machine counters are additive,
                // so commit order does not affect any observable.
                let tally = actx.finish();
                machine.commit(&tally);
                self.phase_sockets.push(machine.topology.socket_of(core));
                if failed {
                    break;
                }
            }
            // The phase's synchronization point: everyone waits for the
            // slowest participant.
            phase_start = phase_end;
            std::mem::swap(&mut self.prev_sockets, &mut self.phase_sockets);
            prev_sync_bytes = phase.sync_bytes;
        }

        // Commit (or abort) on the worker that executed the last action.
        let commit_core = Self::effective_core(
            &machine.topology,
            last_core.unwrap_or_else(|| machine.topology.active_cores()[0]),
        );
        let mut cctx = machine.ctx(commit_core, phase_start);
        // The commit joins the final phase's participants.
        if self.prev_sockets.len() > 1 {
            sync_point(&mut cctx, &self.prev_sockets, prev_sync_bytes);
        }
        cctx.work(Component::XctManagement, COMMIT_INSTRUCTIONS);
        if failed {
            self.aborted += 1;
        }
        self.protocol
            .log_outcome(&mut cctx, txn_id, failed, spec.is_update());
        self.protocol.end(&mut cctx, txn_id, true);
        self.flush_pending_syncs(&mut cctx);
        self.monitor.record_transaction();
        let end = cctx.now();
        self.workers.occupy(commit_core, phase_start, end);
        let tally = cctx.finish();
        machine.commit(&tally);
        TxnOutcome {
            committed: !failed,
            start,
            end,
        }
    }

    fn on_interval(
        &mut self,
        machine: &mut Machine,
        now: Cycles,
        interval_throughput: f64,
    ) -> IntervalOutcome {
        if !self.config.adaptive {
            // Keep memory bounded even when only monitoring is on.
            if self.monitor.is_enabled() {
                let _ = self.monitor.take_stats();
            }
            return IntervalOutcome::default();
        }
        let stats = self.monitor.take_stats();
        let outcome = self.controller.on_interval(
            &self.scheme,
            interval_throughput,
            &stats,
            &machine.topology,
        );
        match outcome {
            AdaptationOutcome::NoChange => IntervalOutcome {
                pause_cycles: 0,
                repartitioned: false,
                next_interval_secs: Some(self.controller.interval_secs()),
            },
            AdaptationOutcome::Repartition {
                new_scheme, plan, ..
            } => {
                let applied = apply_plan(&mut self.db, &plan, &new_scheme, &machine.topology);
                if applied.is_err() {
                    return IntervalOutcome {
                        pause_cycles: 0,
                        repartitioned: false,
                        next_interval_secs: Some(self.controller.interval_secs()),
                    };
                }
                self.scheme = new_scheme;
                let (table_slots, partition_locks) =
                    Self::build_routing(&machine.topology, &self.scheme);
                self.table_slots = table_slots;
                self.partition_locks = partition_locks;
                self.partitions_per_core = self.scheme.partitions_per_core(&machine.topology);
                self.repartitions += 1;
                let pause = micros_to_cycles(
                    self.config.repartition_pause_per_action_us * plan.actions.len().max(1) as f64,
                    machine.topology.frequency_ghz(),
                );
                self.workers.pause_all_until(now + pause);
                IntervalOutcome {
                    pause_cycles: pause,
                    repartitioned: true,
                    next_interval_secs: Some(self.controller.interval_secs()),
                }
            }
        }
    }

    fn on_topology_change(&mut self, _machine: &Machine) {
        // Nothing to do eagerly: the controller notices the failed socket at
        // the next interval because the current scheme stops satisfying its
        // placement invariants.
    }

    fn stats(&self) -> DesignStats {
        DesignStats {
            aborted: self.aborted,
            distributed_txns: None,
            instances: None,
            repartitions: Some(self.repartitions),
            partitions: Some(
                self.scheme
                    .tables()
                    .iter()
                    .map(|t| t.partitions.len())
                    .sum(),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::testing::{TinyUpdateWorkload, TinyWorkload};
    use atrapos_numa::CostModel;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn machine() -> Machine {
        Machine::new(Topology::multisocket(2, 2), CostModel::westmere())
    }

    #[test]
    fn executes_read_transactions_on_partition_workers() {
        let mut m = machine();
        let mut w = TinyWorkload { rows: 1000 };
        let mut d = AtraposDesign::new(&m, &w, AtraposConfig::default());
        // Naive scheme: one partition per core.
        assert_eq!(d.scheme().table(TableId(0)).partitions.len(), 4);
        assert_eq!(d.database().table(TableId(0)).unwrap().num_partitions(), 4);
        let mut rng = SmallRng::seed_from_u64(11);
        let mut now = 0;
        for _ in 0..100 {
            let spec = w.next_transaction(&mut rng, CoreId(0));
            let out = d.execute(&mut m, &spec, CoreId(0), now);
            assert!(out.committed);
            now = out.end;
        }
        assert_eq!(d.aborted(), 0);
        // Work is spread over the partition workers, not only core 0.
        let busy: Vec<u64> = m
            .topology
            .active_cores()
            .iter()
            .map(|c| d.workers.busy_cycles(*c))
            .collect();
        assert!(
            busy.iter().filter(|&&b| b > 0).count() >= 3,
            "busy: {busy:?}"
        );
    }

    #[test]
    fn update_transactions_log_and_apply() {
        let mut m = machine();
        let mut w = TinyUpdateWorkload { rows: 200 };
        let mut d = AtraposDesign::new(&m, &w, AtraposConfig::default());
        let mut rng = SmallRng::seed_from_u64(5);
        let mut now = 0;
        for _ in 0..40 {
            let spec = w.next_transaction(&mut rng, CoreId(0));
            let out = d.execute(&mut m, &spec, CoreId(0), now);
            assert!(out.committed);
            now = out.end;
        }
        assert_eq!(d.protocol.log.total_records(), 40 * 3);
        let total: i64 = d
            .database()
            .table(TableId(0))
            .unwrap()
            .index()
            .iter()
            .map(|(_, r)| r.get(1).as_int())
            .sum();
        assert_eq!(total, 40);
    }

    #[test]
    fn plp_baseline_is_slower_than_atrapos_on_multisocket_reads() {
        // Same workload, same machine: the only difference is the
        // NUMA-awareness of the internal structures.
        let run = |config: AtraposConfig| {
            // 8 sockets: the centralized-structure penalty of PLP grows
            // with the number of sockets hammering the shared cache lines.
            let mut m = Machine::new(Topology::multisocket(8, 2), CostModel::westmere());
            let mut w = TinyWorkload { rows: 4000 };
            let mut d = AtraposDesign::new(&m, &w, config);
            let mut rng = SmallRng::seed_from_u64(3);
            let cores = m.topology.active_cores();
            let mut next: Vec<Cycles> = vec![0; cores.len()];
            let mut committed = 0u64;
            for i in 0..400usize {
                let c = i % cores.len();
                let spec = w.next_transaction(&mut rng, CoreId(0));
                let out = d.execute(&mut m, &spec, cores[c], next[c]);
                next[c] = out.end;
                committed += 1;
            }
            let makespan = next.iter().copied().max().unwrap() as f64;
            committed as f64 / makespan
        };
        let plp = run(AtraposConfig::plp_baseline());
        let atrapos = run(AtraposConfig::default());
        assert!(
            atrapos > plp * 1.2,
            "ATraPos {atrapos:.6} should beat PLP {plp:.6} by >20%"
        );
    }

    #[test]
    fn mixed_stream_leaves_no_active_transaction_and_no_lock_holder() {
        use crate::designs::common::protocol_check::{assert_quiescent, run_mixed_stream, ROWS};
        // PLP (centralized structures) and ATraPos (per-socket ones).
        for config in [AtraposConfig::plp_baseline(), AtraposConfig::default()] {
            let mut m = machine();
            let mut d = AtraposDesign::new(&m, &TinyUpdateWorkload { rows: ROWS }, config);
            run_mixed_stream(&mut d, &mut m);
            assert_quiescent([&d.protocol], d.partition_locks.iter().flatten());
        }
    }

    /// The 80 partition-local lock tables of the ATraPos design after
    /// 20 000 transactions of the scaleup-micro shape.
    fn scaleup_micro_lock_tables() -> Vec<LockManager> {
        use crate::designs::common::protocol_check::run_closed_loop;
        let mut m = Machine::new(Topology::multisocket(8, 10), CostModel::westmere());
        let mut w = TinyWorkload { rows: 160_000 };
        let mut d = AtraposDesign::new(&m, &w, AtraposConfig::plp_baseline());
        run_closed_loop(&mut d, &mut m, &mut w, 20_000);
        let tables: Vec<LockManager> = d.partition_locks.into_iter().flatten().collect();
        assert_eq!(tables.len(), 80);
        tables
    }

    /// The scaleup-micro shape, on partition-local tables: each of the 80
    /// workers' tables keeps at most twice the sweep floor of entries, not
    /// one per row its partition ever read.
    #[test]
    fn lock_entries_stay_bounded_on_the_scaleup_micro_shape() {
        use atrapos_storage::lock_manager::SWEEP_FLOOR;
        let tables: Vec<usize> = scaleup_micro_lock_tables()
            .iter()
            .map(LockManager::record_entries)
            .collect();
        assert!(tables.iter().all(|&n| n <= 2 * SWEEP_FLOOR), "{tables:?}");
        // The 20 000 reads touch about 18 800 distinct rows.
        assert_eq!(tables.iter().sum::<usize>(), 381);
    }

    /// The same 80 tables stay within 2 000 heap bytes each: a record
    /// entry sits once in a slab, its map bucket holds only a slot, and no
    /// table grows past the sweep floor of 8 before its first sweep.  They
    /// hold 147 472 bytes; with the entries in the map and a floor of 32
    /// they held 464 664.
    #[test]
    fn lock_tables_stay_small_on_the_scaleup_micro_shape() {
        let bytes: usize = scaleup_micro_lock_tables()
            .iter()
            .map(LockManager::heap_bytes)
            .sum();
        assert!(bytes <= 80 * 2_000, "{bytes} heap bytes in 80 lock tables");
    }

    #[test]
    fn socket_failure_reroutes_to_a_fallback_core() {
        let mut topo = Topology::multisocket(2, 2);
        topo.fail_socket(SocketId(1)).unwrap();
        let core_on_failed = CoreId(3);
        let fallback = AtraposDesign::effective_core(&topo, core_on_failed);
        assert_eq!(topo.socket_of(fallback), SocketId(0));
        let core_ok = CoreId(0);
        assert_eq!(AtraposDesign::effective_core(&topo, core_ok), core_ok);
    }

    #[test]
    fn adaptive_interval_reports_next_interval() {
        let mut m = machine();
        let mut w = TinyWorkload { rows: 1000 };
        let mut d = AtraposDesign::new(&m, &w, AtraposConfig::default());
        let mut rng = SmallRng::seed_from_u64(2);
        let mut now = 0;
        for _ in 0..50 {
            let spec = w.next_transaction(&mut rng, CoreId(0));
            now = d.execute(&mut m, &spec, CoreId(0), now).end;
        }
        let out = d.on_interval(&mut m, now, 1000.0);
        assert!(!out.repartitioned);
        assert!(out.next_interval_secs.is_some());
    }
}
