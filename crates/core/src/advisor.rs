//! Shared-nothing sharding advisor: the paper's §VII future-work extension.
//!
//! ATraPos itself targets a logically partitioned *shared-everything* engine,
//! but §VII sketches how the same cost model applies to shared-nothing
//! architectures:
//!
//! * **Coarse-grained shared-nothing** — data is physically partitioned into
//!   one instance per socket (or machine).  The dominant cost is no longer
//!   the synchronization point between partition workers but the *distributed
//!   transaction*: a transaction whose data spans several instances must run
//!   two-phase commit, hold locks until the global decision, and write extra
//!   log records (§III-C, Figure 4).  Repartitioning also becomes much more
//!   expensive because records physically move between instances.
//! * **Fine-grained shared-nothing** — instances are small (e.g. one per
//!   core) and topology-aware: a distributed transaction whose participants
//!   share a machine can use shared-memory channels and is therefore far
//!   cheaper than one that crosses machines.  The cost model then
//!   distinguishes the two kinds of distributed transactions and prefers
//!   placements that turn expensive (cross-machine) ones into cheap
//!   (same-machine) ones.
//!
//! This module implements both: a [`ShardingPlan`] assigns every
//! sub-partition of every table to an instance, [`evaluate_sharding`] scores
//! a plan with the adapted cost model (load imbalance + distributed
//! transaction overhead + optional physical move cost), and
//! [`advise_sharding`] runs a greedy search in the spirit of the paper's
//! Algorithms 1 and 2.  The engine's shared-nothing design accepts a plan as
//! a custom router, so the advisor's output is exercised end-to-end by the
//! ablation benchmarks.

use crate::partitioning::KeyDomain;
use crate::stats::{SubPartitionId, WorkloadStats};
use atrapos_numa::Topology;
use atrapos_storage::TableId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Cost parameters of the shared-nothing variant of the ATraPos model.
#[derive(Debug, Clone)]
pub struct ShardingConfig {
    /// Cost charged per co-access (synchronization observation) whose two
    /// sub-partitions live on different instances of the *same* machine —
    /// a distributed transaction over shared-memory channels.
    pub local_distributed_cost: f64,
    /// Cost charged per co-access whose sub-partitions live on instances of
    /// *different* machines — a distributed transaction over the network
    /// (always ≥ `local_distributed_cost`).
    pub remote_distributed_cost: f64,
    /// Relative weight of the load-imbalance objective against the
    /// distributed-transaction objective.
    pub balance_weight: f64,
    /// Cost per byte of physically moving a record between instances during
    /// repartitioning (used by [`estimate_migration_bytes`] consumers; much
    /// higher than the logical repartitioning of the shared-everything
    /// engine).
    pub move_cost_per_byte: f64,
    /// Maximum improvement iterations of the greedy search.
    pub max_iterations: usize,
}

impl Default for ShardingConfig {
    fn default() -> Self {
        Self {
            local_distributed_cost: 1.0,
            remote_distributed_cost: 4.0,
            balance_weight: 0.5,
            move_cost_per_byte: 0.05,
            max_iterations: 400,
        }
    }
}

/// A physical sharding: for every table, one instance index per
/// sub-partition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardingPlan {
    /// Number of shared-nothing instances.
    pub n_instances: usize,
    /// For each table: its key domain and the instance owning each of its
    /// sub-partitions.  A BTreeMap so iteration (and therefore every
    /// decision derived from a plan) is deterministic across runs.
    tables: BTreeMap<TableId, (KeyDomain, Vec<usize>)>,
    /// Machine (NUMA node / host) hosting each instance; instance `i` lives
    /// on machine `instance_machine[i]`.  For the coarse-grained deployment
    /// of the paper this is the identity (one instance per socket); for
    /// fine-grained deployments several instances share a machine.
    pub instance_machine: Vec<usize>,
}

impl ShardingPlan {
    /// The classic range sharding: each table's sub-partitions are divided
    /// into `n_instances` contiguous blocks, instance `i` taking block `i`.
    /// Instance `i` is hosted on machine `i % n_machines`.
    pub fn range(
        tables: &[(TableId, KeyDomain)],
        n_sub_per_table: usize,
        n_instances: usize,
        n_machines: usize,
    ) -> Self {
        assert!(n_instances >= 1 && n_machines >= 1 && n_sub_per_table >= 1);
        let tables = tables
            .iter()
            .map(|&(table, domain)| {
                let owners = (0..n_sub_per_table)
                    .map(|sub| (sub * n_instances / n_sub_per_table).min(n_instances - 1))
                    .collect();
                (table, (domain, owners))
            })
            .collect();
        Self {
            n_instances,
            tables,
            instance_machine: (0..n_instances).map(|i| i % n_machines).collect(),
        }
    }

    /// A range sharding matching the engine's default shared-nothing
    /// deployment on `topo`: one instance per socket, one machine per
    /// socket.
    pub fn per_socket(
        tables: &[(TableId, KeyDomain)],
        n_sub_per_table: usize,
        topo: &Topology,
    ) -> Self {
        let n = topo.num_sockets();
        Self::range(tables, n_sub_per_table, n, n)
    }

    /// Tables covered by the plan.
    pub fn tables(&self) -> impl Iterator<Item = TableId> + '_ {
        self.tables.keys().copied()
    }

    /// Number of sub-partitions of `table`.
    pub fn num_sub_partitions(&self, table: TableId) -> usize {
        self.tables.get(&table).map(|(_, v)| v.len()).unwrap_or(0)
    }

    /// The instance owning sub-partition `sub` of `table`.
    pub fn instance_of_sub(&self, table: TableId, sub: usize) -> usize {
        let (_, owners) = &self.tables[&table];
        owners[sub.min(owners.len() - 1)]
    }

    /// The instance owning `key_head` of `table` (routes through the
    /// sub-partition grid, exactly like the shared-everything scheme).
    pub fn instance_of_key(&self, table: TableId, key_head: i64) -> usize {
        match self.tables.get(&table) {
            Some((domain, owners)) => {
                let sub = domain.sub_partition_of(key_head, owners.len());
                owners[sub]
            }
            None => 0,
        }
    }

    /// Reassign sub-partition `sub` of `table` to `instance`.
    pub fn assign(&mut self, table: TableId, sub: usize, instance: usize) {
        assert!(instance < self.n_instances);
        if let Some((_, owners)) = self.tables.get_mut(&table) {
            if sub < owners.len() {
                owners[sub] = instance;
            }
        }
    }

    /// Structural invariants: every owner index is a valid instance and
    /// every instance has a machine.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.instance_machine.len() != self.n_instances {
            return Err(format!(
                "{} instances but {} machine assignments",
                self.n_instances,
                self.instance_machine.len()
            ));
        }
        for (table, (_, owners)) in &self.tables {
            if owners.is_empty() {
                return Err(format!("table {table} has no sub-partitions"));
            }
            for (sub, &o) in owners.iter().enumerate() {
                if o >= self.n_instances {
                    return Err(format!(
                        "table {table} sub-partition {sub} assigned to instance {o} of {}",
                        self.n_instances
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Evaluation of a sharding plan under a workload trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardingCost {
    /// Total absolute deviation of per-instance load from the mean (the
    /// shared-nothing analogue of `RU(S,W)`).
    pub load_imbalance: f64,
    /// Weighted count of co-accesses whose sub-partitions live on different
    /// instances of the same machine (cheap distributed transactions).
    pub local_distributed: f64,
    /// Weighted count of co-accesses whose sub-partitions live on different
    /// machines (expensive distributed transactions).
    pub remote_distributed: f64,
}

impl ShardingCost {
    /// Combine the objectives with the configured weights.
    pub fn combined(&self, cfg: &ShardingConfig) -> f64 {
        cfg.balance_weight * self.load_imbalance
            + cfg.local_distributed_cost * self.local_distributed
            + cfg.remote_distributed_cost * self.remote_distributed
    }

    /// Total number of (weighted) distributed co-accesses of either kind.
    pub fn total_distributed(&self) -> f64 {
        self.local_distributed + self.remote_distributed
    }
}

/// Per-instance load of a plan under a trace.
pub fn per_instance_load(plan: &ShardingPlan, stats: &WorkloadStats) -> Vec<f64> {
    let mut load = vec![0.0; plan.n_instances];
    for table in plan.tables() {
        let loads = stats.table_load(table);
        let n_sub = plan.num_sub_partitions(table);
        for sub in 0..n_sub {
            let l = loads.get(sub).copied().unwrap_or(0.0);
            load[plan.instance_of_sub(table, sub)] += l;
        }
    }
    load
}

/// Evaluate a plan: load imbalance plus the two kinds of distributed
/// co-access counts.
pub fn evaluate_sharding(plan: &ShardingPlan, stats: &WorkloadStats) -> ShardingCost {
    let load = per_instance_load(plan, stats);
    let avg = load.iter().sum::<f64>() / plan.n_instances.max(1) as f64;
    let load_imbalance = load.iter().map(|l| (l - avg).abs()).sum();

    let mut local_distributed = 0.0;
    let mut remote_distributed = 0.0;
    for ((a, b), obs) in stats.sync_pairs() {
        let ia = instance_of(plan, a);
        let ib = instance_of(plan, b);
        if ia == ib {
            continue;
        }
        if plan.instance_machine[ia] == plan.instance_machine[ib] {
            local_distributed += obs.count as f64;
        } else {
            remote_distributed += obs.count as f64;
        }
    }
    ShardingCost {
        load_imbalance,
        local_distributed,
        remote_distributed,
    }
}

fn instance_of(plan: &ShardingPlan, sub: &SubPartitionId) -> usize {
    plan.instance_of_sub(sub.table, sub.index)
}

/// Bytes that physically move when migrating from `old` to `new`, assuming
/// `bytes_per_sub[table]` bytes per sub-partition: every sub-partition whose
/// owning instance changes must be shipped to its new home.  This is the
/// dominant term of the shared-nothing repartitioning cost (§VII), absent
/// from the logically partitioned shared-everything engine.
pub fn estimate_migration_bytes(
    old: &ShardingPlan,
    new: &ShardingPlan,
    bytes_per_sub: &BTreeMap<TableId, u64>,
) -> u64 {
    let mut moved = 0u64;
    for table in new.tables() {
        let per_sub = bytes_per_sub.get(&table).copied().unwrap_or(0);
        let n = new.num_sub_partitions(table);
        for sub in 0..n {
            let old_owner = if old.num_sub_partitions(table) == 0 {
                usize::MAX
            } else {
                old.instance_of_sub(table, sub)
            };
            if old_owner != new.instance_of_sub(table, sub) {
                moved += per_sub;
            }
        }
    }
    moved
}

/// Greedy sharding advisor (the shared-nothing analogue of Algorithms 1+2).
///
/// Starting from the classic range sharding, the search repeatedly picks the
/// costliest cross-instance co-access pair and tries to co-locate it, either
/// by *moving* one of its sub-partitions to the other's instance or by
/// *swapping* it with a sub-partition already hosted there (a swap keeps the
/// per-instance load roughly constant, mirroring how Algorithm 2 swaps
/// partitions between cores).  A change is kept only if it lowers the
/// combined cost, so moves that overload an instance are rejected
/// automatically.
pub fn advise_sharding(
    tables: &[(TableId, KeyDomain)],
    n_sub_per_table: usize,
    n_instances: usize,
    n_machines: usize,
    stats: &WorkloadStats,
    cfg: &ShardingConfig,
) -> ShardingPlan {
    let mut plan = ShardingPlan::range(tables, n_sub_per_table, n_instances, n_machines);
    if n_instances <= 1 {
        return plan;
    }
    let mut best = evaluate_sharding(&plan, stats).combined(cfg);
    for _ in 0..cfg.max_iterations {
        // Rank cross-instance pairs by how often they co-access.
        let mut candidates: Vec<(SubPartitionId, SubPartitionId, u64)> = stats
            .sync_pairs()
            .filter_map(|((a, b), obs)| {
                (instance_of(&plan, a) != instance_of(&plan, b)).then_some((*a, *b, obs.count))
            })
            .collect();
        if candidates.is_empty() {
            break;
        }
        candidates.sort_by_key(|c| std::cmp::Reverse(c.2));
        let mut improved = false;
        'candidates: for (a, b, _) in candidates.into_iter().take(16) {
            for (mover, target) in [(a, b), (b, a)] {
                let n_sub = plan.num_sub_partitions(mover.table);
                if mover.index >= n_sub {
                    continue;
                }
                let from = plan.instance_of_sub(mover.table, mover.index);
                let to = instance_of(&plan, &target);
                if from == to {
                    continue;
                }
                // Plain move.
                let mut candidate = plan.clone();
                candidate.assign(mover.table, mover.index, to);
                let cost = evaluate_sharding(&candidate, stats).combined(cfg);
                if cost + 1e-9 < best {
                    plan = candidate;
                    best = cost;
                    improved = true;
                    break 'candidates;
                }
                // Swap with a sub-partition of the same table currently
                // hosted on the target instance (bounded to keep each
                // iteration cheap).
                let swap_partners: Vec<usize> = (0..n_sub)
                    .filter(|&s| s != mover.index && plan.instance_of_sub(mover.table, s) == to)
                    .take(8)
                    .collect();
                for partner in swap_partners {
                    let mut candidate = plan.clone();
                    candidate.assign(mover.table, mover.index, to);
                    candidate.assign(mover.table, partner, from);
                    let cost = evaluate_sharding(&candidate, stats).combined(cfg);
                    if cost + 1e-9 < best {
                        plan = candidate;
                        best = cost;
                        improved = true;
                        break 'candidates;
                    }
                }
            }
        }
        if !improved {
            break;
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_tables() -> Vec<(TableId, KeyDomain)> {
        vec![
            (TableId(0), KeyDomain::new(0, 1_000)),
            (TableId(1), KeyDomain::new(0, 1_000)),
        ]
    }

    /// A trace in which table 0's sub-partition `i` always co-accesses table
    /// 1's sub-partition `(i + shift) % n` — the correlated-access pattern
    /// of the Figure 6 workload, shifted so the naive range sharding splits
    /// every pair across instances.
    fn shifted_trace(n_sub: usize, shift: usize) -> WorkloadStats {
        let mut stats = WorkloadStats::new();
        for i in 0..n_sub {
            stats.record_action(SubPartitionId::new(TableId(0), i), 10.0);
            stats.record_action(SubPartitionId::new(TableId(1), (i + shift) % n_sub), 10.0);
            stats.record_sync(
                SubPartitionId::new(TableId(0), i),
                SubPartitionId::new(TableId(1), (i + shift) % n_sub),
                64,
            );
            stats.record_transaction();
        }
        stats
    }

    /// Number of sub-partitions assigned to each instance.
    fn sub_partitions_per_instance(plan: &ShardingPlan) -> Vec<usize> {
        let mut counts = vec![0usize; plan.n_instances];
        for (_, owners) in plan.tables.values() {
            for &o in owners {
                counts[o] += 1;
            }
        }
        counts
    }

    #[test]
    fn range_plan_divides_sub_partitions_evenly() {
        let plan = ShardingPlan::range(&two_tables(), 40, 4, 2);
        plan.check_invariants().unwrap();
        assert_eq!(sub_partitions_per_instance(&plan), vec![20; 4]);
        assert_eq!(plan.instance_of_key(TableId(0), 0), 0);
        assert_eq!(plan.instance_of_key(TableId(0), 999), 3);
        // Instances 0 and 2 share machine 0; 1 and 3 share machine 1.
        assert_eq!(plan.instance_machine, vec![0, 1, 0, 1]);
    }

    #[test]
    fn per_socket_plan_matches_the_topology() {
        let topo = Topology::multisocket(4, 10);
        let plan = ShardingPlan::per_socket(&two_tables(), 40, &topo);
        assert_eq!(plan.n_instances, 4);
        assert_eq!(plan.instance_machine, vec![0, 1, 2, 3]);
        plan.check_invariants().unwrap();
    }

    #[test]
    fn evaluate_counts_distributed_co_accesses_by_machine() {
        // 2 instances on 1 machine, 2 on another.
        let plan = ShardingPlan::range(&two_tables(), 8, 4, 2);
        let mut stats = WorkloadStats::new();
        // Same instance: free.
        stats.record_sync(
            SubPartitionId::new(TableId(0), 0),
            SubPartitionId::new(TableId(1), 0),
            64,
        );
        // Instances 0 and 2: both on machine 0 → local distributed.
        stats.record_sync(
            SubPartitionId::new(TableId(0), 0),
            SubPartitionId::new(TableId(1), 4),
            64,
        );
        // Instances 0 and 1: machines 0 and 1 → remote distributed.
        stats.record_sync(
            SubPartitionId::new(TableId(0), 0),
            SubPartitionId::new(TableId(1), 2),
            64,
        );
        let cost = evaluate_sharding(&plan, &stats);
        assert_eq!(cost.local_distributed, 1.0);
        assert_eq!(cost.remote_distributed, 1.0);
        let cfg = ShardingConfig::default();
        assert!(cost.combined(&cfg) >= cfg.remote_distributed_cost);
    }

    #[test]
    fn advisor_removes_distributed_transactions_for_correlated_access() {
        let n_sub = 16;
        // Shift of n_sub/4: with 4 instances the naive range sharding puts
        // every correlated pair on different instances.
        let stats = shifted_trace(n_sub, n_sub / 4);
        let naive = ShardingPlan::range(&two_tables(), n_sub, 4, 4);
        let naive_cost = evaluate_sharding(&naive, &stats);
        assert!(naive_cost.total_distributed() > 0.0);
        let cfg = ShardingConfig::default();
        let advised = advise_sharding(&two_tables(), n_sub, 4, 4, &stats, &cfg);
        advised.check_invariants().unwrap();
        let advised_cost = evaluate_sharding(&advised, &stats);
        assert!(
            advised_cost.total_distributed() < naive_cost.total_distributed(),
            "advisor should reduce distributed transactions: {} -> {}",
            naive_cost.total_distributed(),
            advised_cost.total_distributed()
        );
        assert!(advised_cost.combined(&cfg) < naive_cost.combined(&cfg));
    }

    #[test]
    fn fine_grained_costs_prefer_same_machine_partners() {
        // Two instances per machine: a plan that keeps the correlated pairs
        // on the same machine (even if on different instances) beats one
        // that spreads them across machines under the fine-grained model.
        let n_sub = 8;
        let stats = shifted_trace(n_sub, n_sub / 2);
        let cfg = ShardingConfig {
            local_distributed_cost: 1.0,
            remote_distributed_cost: 10.0,
            ..ShardingConfig::default()
        };
        let spread = ShardingPlan::range(&two_tables(), n_sub, 2, 2);
        let mut colocated = spread.clone();
        // Host both instances on machine 0.
        colocated.instance_machine = vec![0, 0];
        let c_spread = evaluate_sharding(&spread, &stats).combined(&cfg);
        let c_coloc = evaluate_sharding(&colocated, &stats).combined(&cfg);
        assert!(c_coloc < c_spread);
    }

    #[test]
    fn migration_estimate_counts_only_moved_sub_partitions() {
        let old = ShardingPlan::range(&two_tables(), 8, 4, 4);
        let mut new = old.clone();
        new.assign(TableId(0), 0, 3);
        new.assign(TableId(1), 7, 0);
        let bytes: BTreeMap<TableId, u64> = [(TableId(0), 1_000), (TableId(1), 2_000)]
            .into_iter()
            .collect();
        assert_eq!(estimate_migration_bytes(&old, &old, &bytes), 0);
        assert_eq!(estimate_migration_bytes(&old, &new, &bytes), 3_000);
    }

    #[test]
    fn single_instance_plans_have_no_distributed_cost() {
        let stats = shifted_trace(8, 2);
        let plan = advise_sharding(&two_tables(), 8, 1, 1, &stats, &ShardingConfig::default());
        let cost = evaluate_sharding(&plan, &stats);
        assert_eq!(cost.total_distributed(), 0.0);
        assert_eq!(sub_partitions_per_instance(&plan), vec![16]);
    }
}
