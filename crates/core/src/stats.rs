//! Dynamic workload information consumed by the cost model.
//!
//! ATraPos tracks, per sub-partition, how much work its actions performed,
//! and for every synchronization point which sub-partitions exchanged how
//! much data (paper §V-A, "Dynamic workload information").  The
//! synchronization observations are stored pairwise (first participant ×
//! other participant): under any candidate scheme the pair maps to two
//! sockets and the paper's `C(s) = (n_sockets − 1) · Distance(s) · Size(s)`
//! formula is evaluated by summing the pairwise contributions.

use atrapos_storage::TableId;
use std::collections::BTreeMap;

/// Identity of a sub-partition: a table and a sub-partition index within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubPartitionId {
    /// The table.
    pub table: TableId,
    /// The sub-partition index within the table.
    pub index: usize,
}

impl SubPartitionId {
    /// Convenience constructor.
    pub fn new(table: TableId, index: usize) -> Self {
        Self { table, index }
    }
}

/// Aggregated observations for one synchronization pair.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SyncObservation {
    /// Number of times the pair synchronized.
    pub count: u64,
    /// Total bytes exchanged over all occurrences.
    pub total_bytes: u64,
}

/// The aggregated workload trace for one monitoring interval.
///
/// Both maps are `BTreeMap`s so that iteration order — and therefore every
/// decision the search derives from a trace — is deterministic across runs,
/// matching the determinism guarantee of the virtual-time simulator.
#[derive(Debug, Clone, Default)]
pub struct WorkloadStats {
    /// Work (cycles) performed by actions on each sub-partition, indexed
    /// by `TableId` (an empty inner vector means the table was never
    /// seen).  Dense so that `record_action` — which runs once per
    /// simulated action when monitoring is on — is an array indexing, not
    /// a map probe; iteration over the occupied slots is still in
    /// ascending `TableId` order, preserving the determinism the old
    /// `BTreeMap` provided.
    sub_partition_load: Vec<Vec<f64>>,
    /// Pairwise synchronization observations.
    sync_pairs: BTreeMap<(SubPartitionId, SubPartitionId), SyncObservation>,
    /// Number of transactions observed.
    pub transactions: u64,
}

impl WorkloadStats {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn slot_mut(&mut self, table: TableId) -> &mut Vec<f64> {
        let idx = table.index();
        if self.sub_partition_load.len() <= idx {
            self.sub_partition_load.resize_with(idx + 1, Vec::new);
        }
        &mut self.sub_partition_load[idx]
    }

    /// Declare a table with `n_sub` sub-partitions (idempotent; resizes if
    /// the sub-partition count grew).
    pub fn declare_table(&mut self, table: TableId, n_sub: usize) {
        let v = self.slot_mut(table);
        if v.len() < n_sub {
            v.resize(n_sub, 0.0);
        }
    }

    /// Record `cycles` of action work on a sub-partition.
    #[inline]
    pub fn record_action(&mut self, sub: SubPartitionId, cycles: f64) {
        let v = self.slot_mut(sub.table);
        if v.len() <= sub.index {
            v.resize(sub.index + 1, 0.0);
        }
        v[sub.index] += cycles;
    }

    /// Record a synchronization between two sub-partitions exchanging
    /// `bytes` bytes.  The pair is stored in canonical (sorted) order.
    pub fn record_sync(&mut self, a: SubPartitionId, b: SubPartitionId, bytes: u64) {
        let key = if a <= b { (a, b) } else { (b, a) };
        let obs = self.sync_pairs.entry(key).or_default();
        obs.count += 1;
        obs.total_bytes += bytes;
    }

    /// Record a completed transaction.
    pub fn record_transaction(&mut self) {
        self.transactions += 1;
    }

    /// Load vector of one table (empty slice if unknown).
    pub fn table_load(&self, table: TableId) -> &[f64] {
        self.sub_partition_load
            .get(table.index())
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Total load across all tables.
    pub fn total_load(&self) -> f64 {
        self.sub_partition_load
            .iter()
            .map(|v| v.iter().sum::<f64>())
            .sum()
    }

    /// Tables with recorded load, in ascending id order.
    pub fn tables(&self) -> impl Iterator<Item = TableId> + '_ {
        self.sub_partition_load
            .iter()
            .enumerate()
            .filter(|(_, v)| !v.is_empty())
            .map(|(i, _)| TableId(i as u32))
    }

    /// All pairwise synchronization observations.
    pub fn sync_pairs(
        &self,
    ) -> impl Iterator<Item = (&(SubPartitionId, SubPartitionId), &SyncObservation)> {
        self.sync_pairs.iter()
    }

    /// Number of distinct synchronization pairs.
    pub fn num_sync_pairs(&self) -> usize {
        self.sync_pairs.len()
    }

    /// Merge another trace into this one.
    pub fn merge(&mut self, other: &WorkloadStats) {
        for (idx, loads) in other.sub_partition_load.iter().enumerate() {
            if loads.is_empty() {
                continue;
            }
            let v = self.slot_mut(TableId(idx as u32));
            if v.len() < loads.len() {
                v.resize(loads.len(), 0.0);
            }
            for (i, l) in loads.iter().enumerate() {
                v[i] += l;
            }
        }
        for (pair, obs) in &other.sync_pairs {
            let e = self.sync_pairs.entry(*pair).or_default();
            e.count += obs.count;
            e.total_bytes += obs.total_bytes;
        }
        self.transactions += other.transactions;
    }

    /// Discard all observations (the paper discards traces after each
    /// evaluation to bound memory).
    pub fn clear(&mut self) {
        for v in &mut self.sub_partition_load {
            v.iter_mut().for_each(|x| *x = 0.0);
        }
        self.sync_pairs.clear();
        self.transactions = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn action_loads_accumulate_per_sub_partition() {
        let mut s = WorkloadStats::new();
        s.declare_table(TableId(0), 4);
        s.record_action(SubPartitionId::new(TableId(0), 1), 100.0);
        s.record_action(SubPartitionId::new(TableId(0), 1), 50.0);
        s.record_action(SubPartitionId::new(TableId(0), 3), 10.0);
        assert_eq!(s.table_load(TableId(0)), &[0.0, 150.0, 0.0, 10.0]);
        assert_eq!(s.total_load(), 160.0);
    }

    #[test]
    fn sync_pairs_are_canonicalized() {
        let mut s = WorkloadStats::new();
        let a = SubPartitionId::new(TableId(0), 1);
        let b = SubPartitionId::new(TableId(1), 2);
        s.record_sync(a, b, 64);
        s.record_sync(b, a, 64);
        assert_eq!(s.num_sync_pairs(), 1);
        let (_, obs) = s.sync_pairs().next().unwrap();
        assert_eq!(obs.count, 2);
        assert_eq!(obs.total_bytes, 128);
    }

    #[test]
    fn merge_and_clear() {
        let mut a = WorkloadStats::new();
        a.record_action(SubPartitionId::new(TableId(0), 0), 5.0);
        a.record_transaction();
        let mut b = WorkloadStats::new();
        b.record_action(SubPartitionId::new(TableId(0), 0), 7.0);
        b.record_sync(
            SubPartitionId::new(TableId(0), 0),
            SubPartitionId::new(TableId(1), 0),
            32,
        );
        b.record_transaction();
        a.merge(&b);
        assert_eq!(a.table_load(TableId(0))[0], 12.0);
        assert_eq!(a.transactions, 2);
        assert_eq!(a.num_sync_pairs(), 1);
        a.clear();
        assert_eq!(a.total_load(), 0.0);
        assert_eq!(a.num_sync_pairs(), 0);
        assert_eq!(a.transactions, 0);
    }

    #[test]
    fn unknown_table_has_empty_load() {
        let s = WorkloadStats::new();
        assert!(s.table_load(TableId(9)).is_empty());
    }
}
