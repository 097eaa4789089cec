//! Partitioning and placement schemes.
//!
//! ATraPos divides every table's key domain into a fixed number of
//! *sub-partitions* (10 per partition in the paper, §V-D): they are the
//! granule at which the workload is monitored and at which repartitioning
//! decisions are made.  A *partition* is a contiguous run of sub-partitions
//! assigned to exactly one worker thread, which is bound to one processor
//! core.  A *scheme* is the complete assignment for every table.

use atrapos_numa::{CoreId, Topology};
use atrapos_storage::{Key, TableId};
use serde::{Deserialize, Serialize};

/// The integer key domain `[lo, hi)` of a table (all built-in workloads use
/// integer-headed keys; composite keys partition by their head column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KeyDomain {
    /// Inclusive lower bound.
    pub lo: i64,
    /// Exclusive upper bound.
    pub hi: i64,
}

impl KeyDomain {
    /// A domain covering `[lo, hi)`.
    pub fn new(lo: i64, hi: i64) -> Self {
        assert!(hi > lo, "key domain must be non-empty");
        Self { lo, hi }
    }

    /// Width of the domain.
    pub fn width(&self) -> i64 {
        self.hi - self.lo
    }

    /// Reject a domain no key can be routed through: an empty one, or one
    /// wider than an `i64` counts, whose width would wrap.
    pub fn check(&self) -> Result<(), String> {
        let Self { lo, hi } = *self;
        match hi.checked_sub(lo) {
            Some(width) if width > 0 => Ok(()),
            Some(_) => Err(format!("key domain [{lo}, {hi}) is empty")),
            None => Err(format!("key domain [{lo}, {hi}) is wider than i64::MAX")),
        }
    }

    /// The sub-partition index (out of `n_sub`) a key head falls into.
    // Once per loaded row of a shared-nothing instance, and per action.
    // lint: hot-path
    #[inline]
    pub fn sub_partition_of(&self, key_head: i64, n_sub: usize) -> usize {
        let offset = key_head.clamp(self.lo, self.hi - 1) - self.lo;
        (mul_div(offset, n_sub, 0, self.width()) as usize).min(n_sub - 1)
    }

    /// The inclusive lower key of sub-partition `idx` (out of `n_sub`): the
    /// smallest key that [`KeyDomain::sub_partition_of`] maps to `idx`.
    /// Ceiling division keeps the logical boundary consistent with the
    /// key-to-sub-partition mapping even when the domain width is not a
    /// multiple of `n_sub`, so the physical multi-rooted B-tree boundaries
    /// built from these keys agree exactly with the logical routing.
    pub fn sub_partition_lower(&self, idx: usize, n_sub: usize) -> i64 {
        // Ceiling division on non-negative operands (width > 0, idx >= 0).
        let n = n_sub as i64;
        self.lo + mul_div(self.width(), idx, n - 1, n) as i64
    }
}

/// `(a * b + round) / d`, rounded down, for non-negative operands and
/// `d > 0`.  It is computed in `i64` when the numerator fits, which gives
/// the same quotient as `i128` at a fraction of the cost; only a domain
/// wider than about `i64::MAX / b` falls back to `i128`.
#[inline]
fn mul_div(a: i64, b: usize, round: i64, d: i64) -> i128 {
    let numerator = i64::try_from(b)
        .ok()
        .and_then(|b| a.checked_mul(b))
        .and_then(|p| p.checked_add(round));
    match numerator {
        Some(n) => i128::from(n / d),
        None => (i128::from(a) * b as i128 + i128::from(round)) / i128::from(d),
    }
}

/// One partition: a contiguous run of sub-partitions of one table, assigned
/// to one core.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PartitionSpec {
    /// First sub-partition index (inclusive).
    pub sub_start: usize,
    /// Last sub-partition index (exclusive).
    pub sub_end: usize,
    /// The core whose worker thread owns this partition.
    pub core: CoreId,
}

impl PartitionSpec {
    /// Number of sub-partitions in this partition.
    pub fn num_sub_partitions(&self) -> usize {
        self.sub_end - self.sub_start
    }

    /// Whether the given sub-partition index belongs to this partition.
    pub fn contains(&self, sub: usize) -> bool {
        sub >= self.sub_start && sub < self.sub_end
    }
}

/// The partitioning of one table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TablePartitioning {
    /// The table.
    pub table: TableId,
    /// Its key domain.
    pub domain: KeyDomain,
    /// Total number of sub-partitions of this table.
    pub num_sub_partitions: usize,
    /// Partitions in sub-partition order (contiguous, disjoint, covering).
    pub partitions: Vec<PartitionSpec>,
}

impl TablePartitioning {
    /// Partition index responsible for `key_head`.
    pub fn partition_of_key(&self, key_head: i64) -> usize {
        let sub = self
            .domain
            .sub_partition_of(key_head, self.num_sub_partitions);
        self.partition_of_sub(sub)
    }

    /// Partition index owning sub-partition `sub`.
    pub fn partition_of_sub(&self, sub: usize) -> usize {
        // Partitions are contiguous and ordered by `sub_start`, so a binary
        // search finds the owner in O(log n).
        match self.partitions.binary_search_by(|p| p.sub_start.cmp(&sub)) {
            Ok(i) => i,
            Err(0) => panic!("sub-partition {sub} not covered by any partition"),
            Err(i) => {
                let candidate = i - 1;
                assert!(
                    self.partitions[candidate].contains(sub),
                    "sub-partition {sub} not covered by any partition"
                );
                candidate
            }
        }
    }

    /// The core owning `key_head`.
    pub fn core_of_key(&self, key_head: i64) -> CoreId {
        self.partitions[self.partition_of_key(key_head)].core
    }

    /// Boundary keys (lower bounds of partitions 1..n) for building the
    /// physical multi-rooted B-tree.
    pub fn boundary_keys(&self) -> Vec<Key> {
        self.partitions
            .iter()
            .skip(1)
            .map(|p| {
                Key::int(
                    self.domain
                        .sub_partition_lower(p.sub_start, self.num_sub_partitions),
                )
            })
            .collect()
    }

    /// Check structural invariants: the domain routes keys, and partitions
    /// are non-empty, contiguous, ordered, and cover
    /// `[0, num_sub_partitions)`.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.domain
            .check()
            .map_err(|e| format!("table {}: {e}", self.table))?;
        if self.partitions.is_empty() {
            return Err(format!("table {} has no partitions", self.table));
        }
        let mut expected_start = 0;
        for (i, p) in self.partitions.iter().enumerate() {
            if p.sub_start != expected_start {
                return Err(format!(
                    "table {} partition {} starts at {} (expected {})",
                    self.table, i, p.sub_start, expected_start
                ));
            }
            if p.sub_end <= p.sub_start {
                return Err(format!("table {} partition {} is empty", self.table, i));
            }
            expected_start = p.sub_end;
        }
        if expected_start != self.num_sub_partitions {
            return Err(format!(
                "table {} partitions cover {} of {} sub-partitions",
                self.table, expected_start, self.num_sub_partitions
            ));
        }
        Ok(())
    }
}

/// A complete partitioning and placement scheme.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartitioningScheme {
    tables: Vec<TablePartitioning>,
}

impl PartitioningScheme {
    /// Build a scheme from per-table partitionings.
    pub fn new(tables: Vec<TablePartitioning>) -> Self {
        Self { tables }
    }

    /// The naive, hardware-aware scheme of paper §IV: each table is range
    /// partitioned with one partition per active core, partitions assigned
    /// to cores in order.  Every partition gets `sub_per_partition`
    /// sub-partitions (10 in the paper).
    pub fn naive(
        tables: &[(TableId, KeyDomain)],
        topo: &Topology,
        sub_per_partition: usize,
    ) -> Self {
        let cores = topo.active_cores();
        let n = cores.len();
        let tables = tables
            .iter()
            .map(|&(table, domain)| {
                let partitions = (0..n)
                    .map(|i| PartitionSpec {
                        sub_start: i * sub_per_partition,
                        sub_end: (i + 1) * sub_per_partition,
                        core: cores[i],
                    })
                    .collect();
                TablePartitioning {
                    table,
                    domain,
                    num_sub_partitions: n * sub_per_partition,
                    partitions,
                }
            })
            .collect();
        Self { tables }
    }

    /// A scheme with a fixed number of partitions per table, spread over the
    /// active cores round-robin (used by baselines and tests).
    pub fn even(
        tables: &[(TableId, KeyDomain)],
        topo: &Topology,
        partitions_per_table: usize,
        sub_per_partition: usize,
    ) -> Self {
        let cores = topo.active_cores();
        let tables = tables
            .iter()
            .enumerate()
            .map(|(t_idx, &(table, domain))| {
                let partitions = (0..partitions_per_table)
                    .map(|i| PartitionSpec {
                        sub_start: i * sub_per_partition,
                        sub_end: (i + 1) * sub_per_partition,
                        core: cores[(t_idx * partitions_per_table + i) % cores.len()],
                    })
                    .collect();
                TablePartitioning {
                    table,
                    domain,
                    num_sub_partitions: partitions_per_table * sub_per_partition,
                    partitions,
                }
            })
            .collect();
        Self { tables }
    }

    /// Per-table partitionings.
    pub fn tables(&self) -> &[TablePartitioning] {
        &self.tables
    }

    /// The tables the scheme partitions, in scheme order.
    pub fn table_ids(&self) -> Vec<TableId> {
        self.tables.iter().map(|t| t.table).collect()
    }

    /// Mutable access to per-table partitionings (used by the search).
    pub fn tables_mut(&mut self) -> &mut [TablePartitioning] {
        &mut self.tables
    }

    /// The partitioning of `table`.
    pub fn table(&self, table: TableId) -> &TablePartitioning {
        self.tables
            .iter()
            .find(|t| t.table == table)
            .unwrap_or_else(|| panic!("table {table} not in scheme"))
    }

    /// Total number of partitions across tables.
    pub fn total_partitions(&self) -> usize {
        self.tables.iter().map(|t| t.partitions.len()).sum()
    }

    /// The core responsible for `key_head` of `table`.
    pub fn core_of_key(&self, table: TableId, key_head: i64) -> CoreId {
        self.table(table).core_of_key(key_head)
    }

    /// Number of partitions placed on each core.
    pub fn partitions_per_core(&self, topo: &Topology) -> Vec<usize> {
        let mut counts = vec![0usize; topo.num_cores()];
        for t in &self.tables {
            for p in &t.partitions {
                counts[p.core.index()] += 1;
            }
        }
        counts
    }

    /// Check that the scheme partitions every table of `tables`, that
    /// every table partitioning keeps its invariants, and that every
    /// partition is assigned to an active core of `topo`.  A scheme that
    /// passes can be built and routed through without a panic.
    pub fn check_invariants(&self, topo: &Topology, tables: &[TableId]) -> Result<(), String> {
        if let Some(missing) = tables
            .iter()
            .find(|&&id| !self.tables.iter().any(|t| t.table == id))
        {
            return Err(format!("table {missing} is not in the scheme"));
        }
        for t in &self.tables {
            t.check_invariants()?;
            for p in &t.partitions {
                if p.core.index() >= topo.num_cores() {
                    return Err(format!(
                        "table {} has a partition on core {} of a {}-core machine",
                        t.table,
                        p.core,
                        topo.num_cores()
                    ));
                }
                let socket = topo.socket_of(p.core);
                if !topo.is_active(socket) {
                    return Err(format!(
                        "table {} has a partition on core {} of failed socket {}",
                        t.table, p.core, socket
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atrapos_numa::SocketId;

    fn domain() -> KeyDomain {
        KeyDomain::new(0, 1000)
    }

    #[test]
    fn sub_partition_mapping_is_even_and_clamped() {
        let d = domain();
        assert_eq!(d.sub_partition_of(0, 10), 0);
        assert_eq!(d.sub_partition_of(99, 10), 0);
        assert_eq!(d.sub_partition_of(100, 10), 1);
        assert_eq!(d.sub_partition_of(999, 10), 9);
        // Out-of-domain keys clamp to the edge sub-partitions.
        assert_eq!(d.sub_partition_of(-5, 10), 0);
        assert_eq!(d.sub_partition_of(5000, 10), 9);
        assert_eq!(d.sub_partition_lower(0, 10), 0);
        assert_eq!(d.sub_partition_lower(5, 10), 500);
    }

    #[test]
    fn naive_scheme_places_one_partition_per_core() {
        let topo = Topology::multisocket(2, 4);
        let scheme = PartitioningScheme::naive(&[(TableId(0), domain())], &topo, 10);
        let t = scheme.table(TableId(0));
        assert_eq!(t.partitions.len(), 8);
        assert_eq!(t.num_sub_partitions, 80);
        scheme.check_invariants(&topo, &[TableId(0)]).unwrap();
        // Keys are spread over all cores.
        let c0 = scheme.core_of_key(TableId(0), 0);
        let c_last = scheme.core_of_key(TableId(0), 999);
        assert_ne!(c0, c_last);
        assert_eq!(scheme.partitions_per_core(&topo), vec![1; 8]);
    }

    #[test]
    fn boundary_keys_match_sub_partition_lowers() {
        let topo = Topology::multisocket(1, 4);
        let scheme = PartitioningScheme::naive(&[(TableId(0), domain())], &topo, 10);
        let t = scheme.table(TableId(0));
        let boundaries = t.boundary_keys();
        assert_eq!(boundaries.len(), 3);
        assert_eq!(boundaries[0], Key::int(250));
        assert_eq!(boundaries[1], Key::int(500));
        assert_eq!(boundaries[2], Key::int(750));
    }

    #[test]
    fn partition_of_key_routes_consistently_with_boundaries() {
        let topo = Topology::multisocket(1, 4);
        let scheme = PartitioningScheme::naive(&[(TableId(0), domain())], &topo, 10);
        let t = scheme.table(TableId(0));
        assert_eq!(t.partition_of_key(0), 0);
        assert_eq!(t.partition_of_key(249), 0);
        assert_eq!(t.partition_of_key(250), 1);
        assert_eq!(t.partition_of_key(999), 3);
    }

    #[test]
    fn invariant_checker_rejects_gaps() {
        let bad = TablePartitioning {
            table: TableId(0),
            domain: domain(),
            num_sub_partitions: 20,
            partitions: vec![
                PartitionSpec {
                    sub_start: 0,
                    sub_end: 10,
                    core: CoreId(0),
                },
                PartitionSpec {
                    sub_start: 12,
                    sub_end: 20,
                    core: CoreId(1),
                },
            ],
        };
        assert!(bad.check_invariants().is_err());
    }

    #[test]
    fn invariant_checker_rejects_partitions_on_failed_sockets() {
        let mut topo = Topology::multisocket(2, 2);
        let scheme = PartitioningScheme::naive(&[(TableId(0), domain())], &topo, 10);
        scheme.check_invariants(&topo, &[TableId(0)]).unwrap();
        topo.fail_socket(SocketId(1)).unwrap();
        assert!(scheme.check_invariants(&topo, &[TableId(0)]).is_err());
    }

    #[test]
    fn even_scheme_uses_requested_partition_count() {
        let topo = Topology::multisocket(4, 10);
        let scheme = PartitioningScheme::even(
            &[(TableId(0), domain()), (TableId(1), domain())],
            &topo,
            4,
            10,
        );
        assert_eq!(scheme.total_partitions(), 8);
        scheme
            .check_invariants(&topo, &[TableId(0), TableId(1)])
            .unwrap();
    }
}
