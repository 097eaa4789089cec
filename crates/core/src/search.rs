//! The two-step partitioning and placement search (paper §V-C).
//!
//! * [`choose_partitioning`] implements Algorithm 1: greedily group
//!   sub-partitions into partitions so that per-core load is balanced, then
//!   iteratively improve by moving boundary sub-partitions towards the most
//!   under-utilized core (first-improvement with restart, as in the paper).
//! * [`choose_placement`] implements Algorithm 2: start from a placement
//!   that spreads every table's partitions across sockets, then repeatedly
//!   co-locate the partitions involved in the costliest synchronization
//!   pair by swapping partition↔core assignments, keeping a swap whenever
//!   it lowers the global synchronization overhead.

use crate::cost_model::{per_core_load, resource_utilization, sync_overhead};
use crate::partitioning::{PartitionSpec, PartitioningScheme, TablePartitioning};
use crate::stats::WorkloadStats;
use atrapos_numa::{CoreId, Topology};
use serde::{Deserialize, Serialize};

/// Search parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SearchConfig {
    /// Maximum improvement iterations for each of the two phases.
    pub max_iterations: usize,
    /// Minimum relative improvement for a move to be accepted.
    pub epsilon: f64,
}

impl Default for SearchConfig {
    fn default() -> Self {
        Self {
            max_iterations: 400,
            epsilon: 1e-9,
        }
    }
}

/// Algorithm 1: choose a partitioning (grouping of sub-partitions into
/// partitions and a core for each) that balances resource utilization.
///
/// `current` provides the table set, key domains, and sub-partition counts;
/// its partition boundaries and placement are ignored.
pub fn choose_partitioning(
    current: &PartitioningScheme,
    stats: &WorkloadStats,
    topo: &Topology,
    cfg: &SearchConfig,
) -> PartitioningScheme {
    let cores = topo.active_cores();
    assert!(!cores.is_empty(), "cannot partition for zero active cores");
    let total = stats.total_load();
    if total <= 0.0 {
        // No dynamic information: fall back to an even spread (the naive
        // scheme restricted to the active cores).
        let tables: Vec<_> = current
            .tables()
            .iter()
            .map(|t| (t.table, t.domain))
            .collect();
        let sub_per = (current.tables()[0].num_sub_partitions / cores.len().max(1)).max(1);
        return PartitioningScheme::naive(&tables, topo, sub_per);
    }
    let target = total / cores.len() as f64;

    // Greedy initial assignment: walk the tables' sub-partitions in order,
    // cutting a new partition whenever the current core reaches the target.
    let mut core_idx = 0usize;
    let mut core_load = 0.0f64;
    let mut tables_out = Vec::with_capacity(current.tables().len());
    for t in current.tables() {
        let loads = padded_loads(stats, t);
        let n_sub = t.num_sub_partitions;
        let mut parts: Vec<PartitionSpec> = Vec::new();
        let mut start = 0usize;
        for (sub, &load) in loads.iter().enumerate().take(n_sub) {
            core_load += load;
            let last_core = core_idx + 1 >= cores.len();
            if core_load >= target && !last_core && sub + 1 < n_sub {
                parts.push(PartitionSpec {
                    sub_start: start,
                    sub_end: sub + 1,
                    core: cores[core_idx],
                });
                start = sub + 1;
                core_idx += 1;
                core_load = 0.0;
            }
        }
        if start < n_sub {
            parts.push(PartitionSpec {
                sub_start: start,
                sub_end: n_sub,
                core: cores[core_idx.min(cores.len() - 1)],
            });
        }
        tables_out.push(TablePartitioning {
            table: t.table,
            domain: t.domain,
            num_sub_partitions: n_sub,
            partitions: parts,
        });
    }
    let mut scheme = PartitioningScheme::new(tables_out);

    // Iterative improvement: move boundary sub-partitions towards the most
    // under-utilized core (first improvement, restart after every accepted
    // move).
    let mut best_ru = resource_utilization(&scheme, stats, topo);
    for _ in 0..cfg.max_iterations {
        let load = per_core_load(&scheme, stats, topo);
        let avg = cores.iter().map(|c| load[c.index()]).sum::<f64>() / cores.len() as f64;
        // The most under-utilized active core.
        let Some(&under) = cores
            .iter()
            .min_by(|a, b| load[a.index()].partial_cmp(&load[b.index()]).unwrap())
        else {
            break;
        };
        if avg - load[under.index()] <= cfg.epsilon {
            break;
        }
        let mut improved = false;
        for candidate in candidate_moves(&scheme, under) {
            let ru = resource_utilization(&candidate, stats, topo);
            if ru + cfg.epsilon < best_ru {
                scheme = candidate;
                best_ru = ru;
                improved = true;
                break;
            }
        }
        if !improved {
            break;
        }
    }
    scheme
}

/// Pad/truncate the recorded load vector of a table to its sub-partition
/// count.
fn padded_loads(stats: &WorkloadStats, t: &TablePartitioning) -> Vec<f64> {
    let mut loads = stats.table_load(t.table).to_vec();
    loads.resize(t.num_sub_partitions, 0.0);
    loads
}

/// Enumerate the legal single-sub-partition moves that send load to `under`.
fn candidate_moves(scheme: &PartitioningScheme, under: CoreId) -> Vec<PartitioningScheme> {
    let mut out = Vec::new();
    for (t_idx, t) in scheme.tables().iter().enumerate() {
        for i in 0..t.partitions.len() {
            // Grow a partition owned by `under` by taking the boundary
            // sub-partition of an adjacent partition on another core.
            if t.partitions[i].core == under {
                if i > 0 && t.partitions[i - 1].num_sub_partitions() > 1 {
                    let mut s = scheme.clone();
                    let tp = &mut s.tables_mut()[t_idx];
                    tp.partitions[i - 1].sub_end -= 1;
                    tp.partitions[i].sub_start -= 1;
                    out.push(s);
                }
                if i + 1 < t.partitions.len() && t.partitions[i + 1].num_sub_partitions() > 1 {
                    let mut s = scheme.clone();
                    let tp = &mut s.tables_mut()[t_idx];
                    tp.partitions[i + 1].sub_start += 1;
                    tp.partitions[i].sub_end += 1;
                    out.push(s);
                }
            }
        }
    }
    // If `under` hosts no partition of some table, split another core's
    // partition of that table and hand one half to `under` (the paper's
    // "place a sub-partition of another table on that core" step).
    for (t_idx, t) in scheme.tables().iter().enumerate() {
        if t.partitions.iter().any(|p| p.core == under) {
            continue;
        }
        // Split the largest partition of this table.
        if let Some((i, p)) = t
            .partitions
            .iter()
            .enumerate()
            .filter(|(_, p)| p.num_sub_partitions() > 1)
            .max_by_key(|(_, p)| p.num_sub_partitions())
        {
            let mid = p.sub_start + p.num_sub_partitions() / 2;
            let mut s = scheme.clone();
            let tp = &mut s.tables_mut()[t_idx];
            let old_end = tp.partitions[i].sub_end;
            tp.partitions[i].sub_end = mid;
            tp.partitions.insert(
                i + 1,
                PartitionSpec {
                    sub_start: mid,
                    sub_end: old_end,
                    core: under,
                },
            );
            out.push(s);
        }
    }
    out
}

/// One cross-socket synchronization pair considered by the placement
/// improvement loop: the two `(table index, partition index)` endpoints and
/// the pair's synchronization cost.
type CrossSocketPair = ((usize, usize), (usize, usize), f64);

/// Algorithm 2: choose a placement (partition → core assignment) that
/// minimizes the synchronization overhead.
///
/// The starting point is the load-balanced assignment produced by
/// Algorithm 1 (its greedy fill already spreads partitions over the cores,
/// and therefore over the sockets, in order).  The improvement loop then
/// repeatedly takes the costliest cross-socket synchronization pair and
/// tries to co-locate it by *swapping* two partitions' core assignments — a
/// swap keeps the number of partitions per core constant, and it is only
/// accepted if it lowers the global synchronization overhead without
/// degrading the utilization balance by more than 10%.
pub fn choose_placement(
    scheme: &PartitioningScheme,
    stats: &WorkloadStats,
    topo: &Topology,
    cfg: &SearchConfig,
) -> PartitioningScheme {
    let sockets = topo.active_sockets();
    if sockets.len() <= 1 {
        return scheme.clone();
    }
    let mut placed = scheme.clone();

    // Iterative improvement: co-locate the partitions of costly
    // synchronization pairs by swapping core assignments.
    let mut best_ts = sync_overhead(&placed, stats, topo);
    let ru_budget = resource_utilization(&placed, stats, topo) * 1.10 + stats.total_load() * 0.02;
    if best_ts == 0.0 {
        return placed;
    }
    for _ in 0..cfg.max_iterations {
        let mut improved = false;
        // Find the costliest cross-socket pair under the current placement.
        let mut pairs: Vec<CrossSocketPair> = Vec::new();
        for ((a, b), obs) in stats.sync_pairs() {
            let (ta, pa) = locate(&placed, a.table, a.index);
            let (tb, pb) = locate(&placed, b.table, b.index);
            let sa = topo.socket_of(placed.tables()[ta].partitions[pa].core);
            let sb = topo.socket_of(placed.tables()[tb].partitions[pb].core);
            if sa != sb {
                let cost = f64::from(topo.distance(sa, sb)) * obs.total_bytes as f64;
                pairs.push(((ta, pa), (tb, pb), cost));
            }
        }
        if pairs.is_empty() {
            break;
        }
        pairs.sort_by(|x, y| y.2.partial_cmp(&x.2).unwrap());
        'outer: for &((ta, pa), (tb, pb), _) in pairs.iter().take(8) {
            let target_core = placed.tables()[ta].partitions[pa].core;
            let target_socket = topo.socket_of(target_core);
            // Try assigning partition (tb, pb) to a core on the target
            // socket, swapping with each partition currently there.
            for (t_idx, t) in placed.tables().iter().enumerate() {
                for (p_idx, p) in t.partitions.iter().enumerate() {
                    if (t_idx, p_idx) == (tb, pb) || (t_idx, p_idx) == (ta, pa) {
                        continue;
                    }
                    if topo.socket_of(p.core) != target_socket {
                        continue;
                    }
                    let mut candidate = placed.clone();
                    let moving_core = candidate.tables()[tb].partitions[pb].core;
                    candidate.tables_mut()[tb].partitions[pb].core = p.core;
                    candidate.tables_mut()[t_idx].partitions[p_idx].core = moving_core;
                    let ts = sync_overhead(&candidate, stats, topo);
                    if ts + cfg.epsilon < best_ts
                        && resource_utilization(&candidate, stats, topo) <= ru_budget
                    {
                        placed = candidate;
                        best_ts = ts;
                        improved = true;
                        break 'outer;
                    }
                }
            }
        }
        if !improved || best_ts == 0.0 {
            break;
        }
    }
    placed
}

/// Locate the (table index, partition index) owning a sub-partition.
fn locate(
    scheme: &PartitioningScheme,
    table: atrapos_storage::TableId,
    sub: usize,
) -> (usize, usize) {
    let t_idx = scheme
        .tables()
        .iter()
        .position(|t| t.table == table)
        .expect("table not in scheme");
    let t = &scheme.tables()[t_idx];
    let p_idx = t.partition_of_sub(sub.min(t.num_sub_partitions - 1));
    (t_idx, p_idx)
}

/// The full two-step search: Algorithm 1 followed by Algorithm 2.
pub fn choose_scheme(
    current: &PartitioningScheme,
    stats: &WorkloadStats,
    topo: &Topology,
    cfg: &SearchConfig,
) -> PartitioningScheme {
    let partitioned = choose_partitioning(current, stats, topo, cfg);
    choose_placement(&partitioned, stats, topo, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partitioning::KeyDomain;
    use crate::stats::SubPartitionId;
    use atrapos_storage::TableId;

    fn naive_two_tables(topo: &Topology) -> PartitioningScheme {
        PartitioningScheme::naive(
            &[
                (TableId(0), KeyDomain::new(0, 1000)),
                (TableId(1), KeyDomain::new(0, 1000)),
            ],
            topo,
            10,
        )
    }

    #[test]
    fn partitioning_balances_uniform_load() {
        let topo = Topology::multisocket(2, 4);
        let current = naive_two_tables(&topo);
        let mut stats = WorkloadStats::new();
        for t in 0..2u32 {
            for sub in 0..80 {
                stats.record_action(SubPartitionId::new(TableId(t), sub), 10.0);
            }
        }
        let scheme = choose_partitioning(&current, &stats, &topo, &SearchConfig::default());
        scheme.check_invariants(&topo).unwrap();
        let ru = resource_utilization(&scheme, &stats, &topo);
        let total = stats.total_load();
        assert!(ru / total < 0.10, "imbalance {ru} of total {total}");
    }

    #[test]
    fn partitioning_adapts_to_skewed_load() {
        let topo = Topology::multisocket(2, 4);
        let current = naive_two_tables(&topo);
        let mut stats = WorkloadStats::new();
        // 50% of the load on 20% of table 0's key space (paper Figure 11).
        for sub in 0..80 {
            let w = if sub < 16 { 50.0 } else { 10.0 };
            stats.record_action(SubPartitionId::new(TableId(0), sub), w);
            stats.record_action(SubPartitionId::new(TableId(1), sub), 10.0);
        }
        let naive_ru = resource_utilization(&current, &stats, &topo);
        let scheme = choose_partitioning(&current, &stats, &topo, &SearchConfig::default());
        scheme.check_invariants(&topo).unwrap();
        let ru = resource_utilization(&scheme, &stats, &topo);
        assert!(
            ru < naive_ru * 0.5,
            "search should at least halve the imbalance: {ru} vs naive {naive_ru}"
        );
    }

    #[test]
    fn partitioning_without_stats_falls_back_to_even_spread() {
        let topo = Topology::multisocket(2, 2);
        let current = naive_two_tables(&topo);
        let stats = WorkloadStats::new();
        let scheme = choose_partitioning(&current, &stats, &topo, &SearchConfig::default());
        scheme.check_invariants(&topo).unwrap();
        assert_eq!(scheme.table(TableId(0)).partitions.len(), 4);
    }

    #[test]
    fn partitioning_excludes_failed_sockets() {
        let mut topo = Topology::multisocket(4, 2);
        let current = naive_two_tables(&topo);
        let mut stats = WorkloadStats::new();
        for t in 0..2u32 {
            for sub in 0..80 {
                stats.record_action(SubPartitionId::new(TableId(t), sub), 5.0);
            }
        }
        topo.fail_socket(atrapos_numa::SocketId(2));
        let scheme = choose_scheme(&current, &stats, &topo, &SearchConfig::default());
        scheme.check_invariants(&topo).unwrap();
    }

    #[test]
    fn placement_colocates_correlated_tables() {
        let topo = Topology::multisocket(4, 4);
        // Two tables, four partitions each, correlated pairwise: sub i of
        // table 0 always synchronizes with sub i of table 1 (the Figure 6
        // A/B transaction pattern).
        let current = PartitioningScheme::even(
            &[
                (TableId(0), KeyDomain::new(0, 1000)),
                (TableId(1), KeyDomain::new(0, 1000)),
            ],
            &topo,
            4,
            10,
        );
        let mut stats = WorkloadStats::new();
        for sub in 0..40 {
            stats.record_action(SubPartitionId::new(TableId(0), sub), 10.0);
            stats.record_action(SubPartitionId::new(TableId(1), sub), 10.0);
            stats.record_sync(
                SubPartitionId::new(TableId(0), sub),
                SubPartitionId::new(TableId(1), sub),
                64,
            );
        }
        let placed = choose_placement(&current, &stats, &topo, &SearchConfig::default());
        placed.check_invariants(&topo).unwrap();
        let ts_before = sync_overhead(&current, &stats, &topo);
        let ts_after = sync_overhead(&placed, &stats, &topo);
        assert!(
            ts_after < ts_before * 0.5 || ts_before == 0.0,
            "placement should cut sync overhead: {ts_after} vs {ts_before}"
        );
    }

    #[test]
    fn placement_is_identity_on_single_socket() {
        let topo = Topology::multisocket(1, 8);
        let current = naive_two_tables(&topo);
        let stats = WorkloadStats::new();
        let placed = choose_placement(&current, &stats, &topo, &SearchConfig::default());
        assert_eq!(placed, current);
    }

    #[test]
    fn full_search_produces_valid_schemes() {
        let topo = Topology::multisocket(8, 2);
        let current = naive_two_tables(&topo);
        let mut stats = WorkloadStats::new();
        for t in 0..2u32 {
            for sub in 0..160 {
                stats.record_action(SubPartitionId::new(TableId(t), sub), (sub % 7) as f64 + 1.0);
            }
        }
        for sub in (0..160).step_by(3) {
            stats.record_sync(
                SubPartitionId::new(TableId(0), sub),
                SubPartitionId::new(TableId(1), sub),
                128,
            );
        }
        let scheme = choose_scheme(&current, &stats, &topo, &SearchConfig::default());
        scheme.check_invariants(&topo).unwrap();
        // The result must not be worse than the naive starting point on
        // either objective by more than a small factor.
        let ru_new = resource_utilization(&scheme, &stats, &topo);
        let ru_old = resource_utilization(&current, &stats, &topo);
        assert!(ru_new <= ru_old * 1.05 + 1e-9);
    }
}
