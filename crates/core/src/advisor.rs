//! Shared-nothing sharding advisor: the paper's §VII future-work extension.
//!
//! ATraPos itself targets a logically partitioned *shared-everything* engine,
//! but §VII sketches how the same cost model applies to coarse-grained
//! shared-nothing architectures: data is physically partitioned into one
//! instance per socket, and the dominant cost is no longer the
//! synchronization point between partition workers but the *distributed
//! transaction* — a transaction whose data spans several instances must run
//! two-phase commit, hold locks until the global decision, and write extra
//! log records (§III-C, Figure 4).
//!
//! A [`ShardingPlan`] assigns every sub-partition of every table to an
//! instance, [`evaluate_sharding`] scores a plan with the adapted cost model
//! (load imbalance + distributed transaction overhead), and
//! [`advise_sharding`] runs a greedy search in the spirit of the paper's
//! Algorithms 1 and 2.  The engine's shared-nothing design accepts a plan as
//! a custom router, so the advisor's output is exercised end-to-end by the
//! ablation benchmarks.  §VII's fine-grained variant, where instances share
//! a machine and same-machine distributed transactions cost less, waits
//! with the parked cluster-of-machines model (ROADMAP).

use crate::partitioning::KeyDomain;
use crate::stats::{SubPartitionId, WorkloadStats};
use atrapos_storage::TableId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Cost charged per co-access (synchronization observation) whose two
/// sub-partitions live on different instances — a distributed transaction.
const DISTRIBUTED_COST: f64 = 4.0;
/// Relative weight of the load-imbalance objective against the
/// distributed-transaction objective.
const BALANCE_WEIGHT: f64 = 0.5;
/// Maximum improvement iterations of the greedy search.
const MAX_ITERATIONS: usize = 400;

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
}

impl ShardingPlan {
    /// The classic range sharding: each table's sub-partitions are divided
    /// into `n_instances` contiguous blocks, instance `i` taking block `i`.
    pub fn range(
        tables: &[(TableId, KeyDomain)],
        n_sub_per_table: usize,
        n_instances: usize,
    ) -> Self {
        assert!(n_instances >= 1 && n_sub_per_table >= 1);
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
        }
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

    /// Structural invariants: every table's domain routes keys, every owner
    /// index is a valid instance.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (table, (domain, owners)) in &self.tables {
            domain.check().map_err(|e| format!("table {table}: {e}"))?;
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
    /// Count of co-accesses whose sub-partitions live on different
    /// instances (distributed transactions).
    pub distributed: f64,
}

impl ShardingCost {
    /// Combine the objectives with the advisor's fixed weights.
    pub fn combined(&self) -> f64 {
        BALANCE_WEIGHT * self.load_imbalance + DISTRIBUTED_COST * self.distributed
    }
}

/// Per-instance load of a plan under a trace.
fn per_instance_load(plan: &ShardingPlan, stats: &WorkloadStats) -> Vec<f64> {
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

/// Evaluate a plan: load imbalance plus the distributed co-access count.
pub fn evaluate_sharding(plan: &ShardingPlan, stats: &WorkloadStats) -> ShardingCost {
    let load = per_instance_load(plan, stats);
    let avg = load.iter().sum::<f64>() / plan.n_instances.max(1) as f64;
    let load_imbalance = load.iter().map(|l| (l - avg).abs()).sum();

    let mut distributed = 0.0;
    for ((a, b), obs) in stats.sync_pairs() {
        if instance_of(plan, a) != instance_of(plan, b) {
            distributed += obs.count as f64;
        }
    }
    ShardingCost {
        load_imbalance,
        distributed,
    }
}

fn instance_of(plan: &ShardingPlan, sub: &SubPartitionId) -> usize {
    plan.instance_of_sub(sub.table, sub.index)
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
    stats: &WorkloadStats,
) -> ShardingPlan {
    let mut plan = ShardingPlan::range(tables, n_sub_per_table, n_instances);
    if n_instances <= 1 {
        return plan;
    }
    let mut best = evaluate_sharding(&plan, stats).combined();
    for _ in 0..MAX_ITERATIONS {
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
                let cost = evaluate_sharding(&candidate, stats).combined();
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
                    let cost = evaluate_sharding(&candidate, stats).combined();
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
        let plan = ShardingPlan::range(&two_tables(), 40, 4);
        plan.check_invariants().unwrap();
        assert_eq!(sub_partitions_per_instance(&plan), vec![20; 4]);
        assert_eq!(plan.instance_of_key(TableId(0), 0), 0);
        assert_eq!(plan.instance_of_key(TableId(0), 999), 3);
    }

    /// A domain no key can be routed through — empty, inverted, or wider
    /// than `i64::MAX` — breaks the plan, named by its table.
    #[test]
    fn invariants_reject_a_domain_that_routes_no_key() {
        for (lo, hi, why) in [
            (5, 5, "is empty"),
            (9, 3, "is empty"),
            (i64::MIN, i64::MAX, "is wider than i64::MAX"),
        ] {
            let mut plan = ShardingPlan::range(&two_tables(), 8, 2);
            plan.tables.get_mut(&TableId(1)).unwrap().0 = KeyDomain { lo, hi };
            let err = plan.check_invariants().unwrap_err();
            assert_eq!(
                err,
                format!("table {}: key domain [{lo}, {hi}) {why}", TableId(1))
            );
        }
    }

    #[test]
    fn evaluate_counts_cross_instance_co_accesses() {
        let plan = ShardingPlan::range(&two_tables(), 8, 4);
        let mut stats = WorkloadStats::new();
        // Same instance: free.
        stats.record_sync(
            SubPartitionId::new(TableId(0), 0),
            SubPartitionId::new(TableId(1), 0),
            64,
        );
        // Instances 0 and 2, then 0 and 1: both distributed.
        stats.record_sync(
            SubPartitionId::new(TableId(0), 0),
            SubPartitionId::new(TableId(1), 4),
            64,
        );
        stats.record_sync(
            SubPartitionId::new(TableId(0), 0),
            SubPartitionId::new(TableId(1), 2),
            64,
        );
        let cost = evaluate_sharding(&plan, &stats);
        assert_eq!(cost.distributed, 2.0);
        assert!(cost.combined() >= 2.0 * DISTRIBUTED_COST);
    }

    #[test]
    fn advisor_removes_distributed_transactions_for_correlated_access() {
        let n_sub = 16;
        // Shift of n_sub/4: with 4 instances the naive range sharding puts
        // every correlated pair on different instances.
        let stats = shifted_trace(n_sub, n_sub / 4);
        let naive = ShardingPlan::range(&two_tables(), n_sub, 4);
        let naive_cost = evaluate_sharding(&naive, &stats);
        assert!(naive_cost.distributed > 0.0);
        let advised = advise_sharding(&two_tables(), n_sub, 4, &stats);
        advised.check_invariants().unwrap();
        let advised_cost = evaluate_sharding(&advised, &stats);
        assert!(
            advised_cost.distributed < naive_cost.distributed,
            "advisor should reduce distributed transactions: {} -> {}",
            naive_cost.distributed,
            advised_cost.distributed
        );
        assert!(advised_cost.combined() < naive_cost.combined());
    }

    #[test]
    fn single_instance_plans_have_no_distributed_cost() {
        let stats = shifted_trace(8, 2);
        let plan = advise_sharding(&two_tables(), 8, 1, &stats);
        let cost = evaluate_sharding(&plan, &stats);
        assert_eq!(cost.distributed, 0.0);
        assert_eq!(sub_partitions_per_instance(&plan), vec![16]);
    }
}
