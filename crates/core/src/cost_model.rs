//! The ATraPos cost model (paper §V-B).
//!
//! Two objectives guide the choice of a partitioning and placement scheme:
//!
//! * **Resource utilization balance** —
//!   `RU(S,W) = Σ_c |RU(c) − RU_avg|`, where `RU(c)` is the work performed
//!   by the partitions placed on core `c` under workload trace `W` and
//!   `RU_avg` is the mean over all (active) cores.  A perfectly balanced
//!   scheme has `RU(S,W) = 0`.
//! * **Transaction synchronization overhead** —
//!   `TS(S,W) = Σ_T Σ_{s∈S(T)} C(s)` with
//!   `C(s) = (n_socket(s) − 1) · Distance(s) · Size(s)`.  The monitoring
//!   layer records synchronization points pairwise (see
//!   [`crate::stats::WorkloadStats`]), so the sum is evaluated over pairs:
//!   a pair contributes `distance(socket_a, socket_b) · bytes` when its two
//!   sub-partitions are placed on different sockets and zero otherwise,
//!   which preserves the paper's key property that co-located
//!   synchronization is free.

use crate::partitioning::PartitioningScheme;
use crate::stats::{SubPartitionId, WorkloadStats};
use atrapos_numa::Topology;

/// Evaluation of a scheme under a workload trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostBreakdown {
    /// `RU(S,W)`: total absolute deviation of per-core load from the mean.
    pub resource_imbalance: f64,
    /// `TS(S,W)`: distance-weighted bytes exchanged across sockets.
    pub sync_overhead: f64,
}

impl CostBreakdown {
    /// Combine both objectives into a single score.  `sync_weight` converts
    /// byte·hops into the same unit as the load (cycles); the engine uses
    /// its interconnect cost per byte-hop.
    pub fn combined(&self, sync_weight: f64) -> f64 {
        self.resource_imbalance + sync_weight * self.sync_overhead
    }
}

/// Per-core load of a scheme under a trace (helper shared with the search).
pub(crate) fn per_core_load(
    scheme: &PartitioningScheme,
    stats: &WorkloadStats,
    topo: &Topology,
) -> Vec<f64> {
    let mut load = vec![0.0; topo.num_cores()];
    for t in scheme.tables() {
        let loads = stats.table_load(t.table);
        for p in &t.partitions {
            let end = p.sub_end.min(loads.len());
            let l: f64 = if p.sub_start < end {
                loads[p.sub_start..end].iter().sum()
            } else {
                0.0
            };
            load[p.core.index()] += l;
        }
    }
    load
}

/// `RU(S,W)`: the resource-utilization imbalance of `scheme` under `stats`.
pub fn resource_utilization(
    scheme: &PartitioningScheme,
    stats: &WorkloadStats,
    topo: &Topology,
) -> f64 {
    let load = per_core_load(scheme, stats, topo);
    let active = topo.active_cores();
    if active.is_empty() {
        return 0.0;
    }
    let total: f64 = active.iter().map(|c| load[c.index()]).sum();
    let avg = total / active.len() as f64;
    active.iter().map(|c| (load[c.index()] - avg).abs()).sum()
}

/// `TS(S,W)`: the transaction synchronization overhead of `scheme` under
/// `stats`, in byte·hops.
pub fn sync_overhead(scheme: &PartitioningScheme, stats: &WorkloadStats, topo: &Topology) -> f64 {
    let socket_of = |sub: &SubPartitionId| {
        let t = scheme.table(sub.table);
        let p = &t.partitions[t.partition_of_sub(sub.index.min(t.num_sub_partitions - 1))];
        topo.socket_of(p.core)
    };
    let mut total = 0.0;
    for ((a, b), obs) in stats.sync_pairs() {
        let sa = socket_of(a);
        let sb = socket_of(b);
        if sa != sb {
            total += f64::from(topo.distance(sa, sb)) * obs.total_bytes as f64;
        }
    }
    total
}

/// Evaluate both objectives.
pub fn evaluate(
    scheme: &PartitioningScheme,
    stats: &WorkloadStats,
    topo: &Topology,
) -> CostBreakdown {
    CostBreakdown {
        resource_imbalance: resource_utilization(scheme, stats, topo),
        sync_overhead: sync_overhead(scheme, stats, topo),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partitioning::KeyDomain;
    use atrapos_storage::TableId;

    fn one_table_scheme(topo: &Topology) -> PartitioningScheme {
        PartitioningScheme::naive(&[(TableId(0), KeyDomain::new(0, 1000))], topo, 10)
    }

    #[test]
    fn perfectly_balanced_load_has_zero_imbalance() {
        let topo = Topology::multisocket(2, 2);
        let scheme = one_table_scheme(&topo);
        let mut stats = WorkloadStats::new();
        // Equal load on every sub-partition.
        for sub in 0..40 {
            stats.record_action(SubPartitionId::new(TableId(0), sub), 10.0);
        }
        let ru = resource_utilization(&scheme, &stats, &topo);
        assert!(ru.abs() < 1e-9, "expected 0, got {ru}");
    }

    #[test]
    fn skewed_load_increases_imbalance() {
        let topo = Topology::multisocket(2, 2);
        let scheme = one_table_scheme(&topo);
        let mut balanced = WorkloadStats::new();
        let mut skewed = WorkloadStats::new();
        for sub in 0..40 {
            balanced.record_action(SubPartitionId::new(TableId(0), sub), 10.0);
            // All the load on the first core's sub-partitions.
            let w = if sub < 10 { 40.0 } else { 0.0 };
            skewed.record_action(SubPartitionId::new(TableId(0), sub), w);
        }
        let ru_b = resource_utilization(&scheme, &balanced, &topo);
        let ru_s = resource_utilization(&scheme, &skewed, &topo);
        assert!(ru_s > ru_b);
        // Maximal skew: one core holds everything; deviation = 2*(1-1/n)*total.
        let total = 400.0;
        let expected = 2.0 * (1.0 - 1.0 / 4.0) * total;
        assert!(
            (ru_s - expected).abs() < 1e-6,
            "ru_s={ru_s} expected={expected}"
        );
    }

    #[test]
    fn colocated_sync_is_free_cross_socket_is_not() {
        let topo = Topology::multisocket(2, 2);
        let scheme = PartitioningScheme::naive(
            &[
                (TableId(0), KeyDomain::new(0, 1000)),
                (TableId(1), KeyDomain::new(0, 1000)),
            ],
            &topo,
            10,
        );
        let mut stats = WorkloadStats::new();
        // Sub-partition 0 of both tables lives on core 0 → same socket.
        stats.record_sync(
            SubPartitionId::new(TableId(0), 0),
            SubPartitionId::new(TableId(1), 0),
            64,
        );
        assert_eq!(sync_overhead(&scheme, &stats, &topo), 0.0);
        // Table 0 sub 0 (core 0, socket 0) with table 1 sub 39 (core 3, socket 1).
        stats.record_sync(
            SubPartitionId::new(TableId(0), 0),
            SubPartitionId::new(TableId(1), 39),
            64,
        );
        let ts = sync_overhead(&scheme, &stats, &topo);
        assert_eq!(ts, 64.0); // distance 1 * 64 bytes
    }

    #[test]
    fn failed_sockets_are_excluded_from_the_average() {
        let mut topo = Topology::multisocket(2, 2);
        let scheme = one_table_scheme(&topo);
        let mut stats = WorkloadStats::new();
        for sub in 0..40 {
            stats.record_action(SubPartitionId::new(TableId(0), sub), 10.0);
        }
        let before = resource_utilization(&scheme, &stats, &topo);
        topo.fail_socket(atrapos_numa::SocketId(1)).unwrap();
        // The scheme still maps half the load to the failed socket's cores,
        // which the active cores' average no longer accounts for: imbalance
        // appears, which is what triggers re-partitioning after a failure.
        let after = resource_utilization(&scheme, &stats, &topo);
        assert!(after >= before);
    }

    #[test]
    fn combined_score_weights_sync() {
        let b = CostBreakdown {
            resource_imbalance: 100.0,
            sync_overhead: 50.0,
        };
        assert_eq!(b.combined(0.0), 100.0);
        assert_eq!(b.combined(2.0), 200.0);
    }
}
