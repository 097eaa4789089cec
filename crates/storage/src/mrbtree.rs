//! Multi-rooted B+-tree: the physically partitioned index used by
//! physiological partitioning (PLP) and ATraPos.
//!
//! A multi-rooted B-tree partitions a table's key space into contiguous
//! ranges, each with its *own* B+-tree root (paper §III-A).  Because a
//! logical partition is only ever accessed by the worker thread it is
//! assigned to, accesses to a subtree need no latching.
//!
//! Repartitioning (paper §V-D) manipulates this structure directly:
//! * **split** divides an existing partition in two at a key boundary;
//! * **merge** combines two adjacent partitions into one;
//! * a **rearrangement** is a split followed by a merge.

use crate::btree::{BTree, RowMut};
use crate::error::{StorageError, StorageResult};
use crate::record::{Key, Record, Row};
use atrapos_numa::SocketId;

/// One physical partition: a B+-tree root and where its data lives.  Its
/// key range is kept by the [`MrBTree`].
#[derive(Debug, Clone)]
pub struct PartitionTree {
    /// The partition's B+-tree.
    pub tree: BTree,
    /// NUMA node on which this partition's data is allocated.
    pub memory_node: SocketId,
}

impl PartitionTree {
    fn new(memory_node: SocketId) -> Self {
        Self {
            tree: BTree::new(),
            memory_node,
        }
    }
}

/// A multi-rooted B+-tree: an ordered collection of range partitions.
#[derive(Debug, Clone)]
pub struct MrBTree {
    partitions: Vec<PartitionTree>,
    /// Inclusive lower bounds of partitions `1..` (partition 0 is unbounded
    /// below), strictly increasing: each is a key head, as every
    /// partitioning routes by its key's first integer.
    lowers: Vec<i64>,
}

impl MrBTree {
    /// A single-partition tree allocated on `memory_node`.
    pub fn new(memory_node: SocketId) -> Self {
        Self {
            partitions: vec![PartitionTree::new(memory_node)],
            lowers: Vec::new(),
        }
    }

    /// A range-partitioned tree: `boundaries` are the inclusive lower bounds
    /// of partitions 1..n (partition 0 is unbounded below), and
    /// `memory_nodes[i]` is where partition `i` is allocated.  `memory_nodes`
    /// must have exactly `boundaries.len() + 1` entries, and `boundaries`
    /// must be one-integer keys, strictly increasing.
    pub fn range_partitioned(boundaries: Vec<Key>, memory_nodes: Vec<SocketId>) -> Self {
        assert_eq!(
            memory_nodes.len(),
            boundaries.len() + 1,
            "need one memory node per partition"
        );
        assert!(
            boundaries.iter().all(|b| b.len() == 1),
            "partition boundaries must be one-integer keys"
        );
        let lowers: Vec<i64> = boundaries.iter().map(Key::head_int).collect();
        assert!(
            lowers.windows(2).all(|w| w[0] < w[1]),
            "partition boundaries must be strictly increasing"
        );
        Self {
            partitions: memory_nodes.into_iter().map(PartitionTree::new).collect(),
            lowers,
        }
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Total number of entries across partitions.
    pub fn len(&self) -> usize {
        self.partitions.iter().map(|p| p.tree.len()).sum()
    }

    /// Whether the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Access a partition by index.
    pub fn partition(&self, idx: usize) -> &PartitionTree {
        &self.partitions[idx]
    }

    /// All partitions in key order.
    pub fn partitions(&self) -> &[PartitionTree] {
        &self.partitions
    }

    /// The partition index responsible for `key`: the number of lower
    /// bounds `<=` its first integer.
    ///
    /// The bounds are strictly increasing (enforced at construction and by
    /// `split_partition` / `merge_with_next`), so routing is one binary
    /// search over integers, as `atrapos-core` routes a key head through
    /// its sub-partitions.  `partition_for` runs twice per simulated
    /// storage operation.
    // lint: hot-path
    #[inline]
    pub fn partition_for(&self, key: &Key) -> usize {
        let head = key.head_int();
        self.lowers.partition_point(|&b| b <= head)
    }

    /// Inclusive lower bound of partition `idx` (`None` = unbounded).
    pub fn lower_bound(&self, idx: usize) -> Option<i64> {
        idx.checked_sub(1).map(|i| self.lowers[i])
    }

    /// Exclusive upper bound of partition `idx` (`None` = unbounded).
    pub fn upper_bound(&self, idx: usize) -> Option<i64> {
        self.lowers.get(idx).copied()
    }

    /// Look up a key.
    pub fn get(&self, key: &Key) -> Option<Row<'_>> {
        self.get_in(self.partition_for(key), key)
    }

    /// Look up a key within a known partition (callers that already routed
    /// the key avoid a second `partition_for`).
    #[inline]
    pub fn get_in(&self, idx: usize, key: &Key) -> Option<Row<'_>> {
        self.partitions[idx].tree.get(key)
    }

    /// Lookup for writing.
    pub fn get_mut(&mut self, key: &Key) -> Option<RowMut<'_>> {
        let idx = self.partition_for(key);
        self.get_mut_in(idx, key)
    }

    /// Lookup for writing within a known partition.
    #[inline]
    pub fn get_mut_in(&mut self, idx: usize, key: &Key) -> Option<RowMut<'_>> {
        self.partitions[idx].tree.get_mut(key)
    }

    /// Whether the key is present.
    pub fn contains(&self, key: &Key) -> bool {
        self.get(key).is_some()
    }

    /// Copy `row` in under a new key within a known partition (must be
    /// `partition_for(&key)`).  A key that is already present leaves the
    /// tree untouched.  Whether the row went in.
    #[inline]
    pub fn insert_new_in(&mut self, idx: usize, key: Key, row: Row<'_>) -> bool {
        debug_assert_eq!(idx, self.partition_for(&key));
        self.partitions[idx].tree.insert_new_row(key, row)
    }

    /// Remove within a known partition (must be `partition_for(key)`).
    #[inline]
    pub fn remove_in(&mut self, idx: usize, key: &Key) -> Option<Record> {
        debug_assert_eq!(idx, self.partition_for(key));
        self.partitions[idx].tree.remove(key)
    }

    /// Remove a key, returning the removed record if any.
    pub fn remove(&mut self, key: &Key) -> Option<Record> {
        let idx = self.partition_for(key);
        self.partitions[idx].tree.remove(key)
    }

    /// Iterate over all entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (Key, Row<'_>)> {
        self.partitions.iter().flat_map(|p| p.tree.iter())
    }

    /// Lazy cursor over the entries in `[from, to)`, in key order: starts
    /// in the partition that owns `from` (the first when unbounded) and
    /// moves on to the following partitions only while their range begins
    /// below `to`, so a scan touches exactly the partitions it overlaps.
    pub fn range_iter<'a, 'k>(
        &'a self,
        from: Option<&'k Key>,
        to: Option<&'k Key>,
    ) -> impl Iterator<Item = (Key, Row<'a>)> + use<'a, 'k> {
        self.range_trees(from, to)
            .flat_map(move |t| t.range_iter(from, to))
    }

    /// [`MrBTree::range_iter`]'s rows alone, with no key built.
    pub fn range_rows<'a, 'k>(
        &'a self,
        from: Option<&'k Key>,
        to: Option<&'k Key>,
    ) -> impl Iterator<Item = Row<'a>> + use<'a, 'k> {
        self.range_trees(from, to)
            .flat_map(move |t| t.range_iter(from, to).rows())
    }

    /// The trees of the partitions that overlap `[from, to)`, in order.
    fn range_trees<'a, 'k>(
        &'a self,
        from: Option<&Key>,
        to: Option<&'k Key>,
    ) -> impl Iterator<Item = &'a BTree> + use<'a, 'k> {
        let start = from.map_or(0, |k| self.partition_for(k));
        self.partitions[start..]
            .iter()
            .enumerate()
            .take_while(move |&(i, _)| match (self.lower_bound(start + i), to) {
                (Some(lower), Some(to)) => Key::int(lower) < *to,
                _ => true,
            })
            .map(|(_, p)| &p.tree)
    }

    /// Move the memory allocation of partition `idx` to `node` (models
    /// `numactl`-style placement and ATraPos partition placement).
    pub fn set_memory_node(&mut self, idx: usize, node: SocketId) {
        self.partitions[idx].memory_node = node;
    }

    /// Split partition `idx` at `boundary`, a one-integer key.  The upper
    /// half becomes a new partition (inserted at `idx + 1`) allocated on
    /// `new_node`.
    ///
    /// Returns the number of records moved.
    pub fn split_partition(
        &mut self,
        idx: usize,
        boundary: Key,
        new_node: SocketId,
    ) -> StorageResult<usize> {
        if idx >= self.partitions.len() {
            return Err(StorageError::InvalidPartitionBoundary(format!(
                "partition index {idx} out of range"
            )));
        }
        if boundary.len() != 1 {
            return Err(StorageError::InvalidPartitionBoundary(format!(
                "boundary {boundary} is not one integer"
            )));
        }
        // The boundary must lie strictly inside the partition's range.
        let head = boundary.head_int();
        if let Some(lower) = self.lower_bound(idx) {
            if head <= lower {
                return Err(StorageError::InvalidPartitionBoundary(format!(
                    "boundary {boundary} not above partition lower bound {lower}"
                )));
            }
        }
        if let Some(upper) = self.upper_bound(idx) {
            if head >= upper {
                return Err(StorageError::InvalidPartitionBoundary(format!(
                    "boundary {boundary} not below next partition bound {upper}"
                )));
            }
        }
        let right_tree = self.partitions[idx].tree.split_off(&boundary);
        let moved = right_tree.len();
        self.partitions.insert(
            idx + 1,
            PartitionTree {
                tree: right_tree,
                memory_node: new_node,
            },
        );
        self.lowers.insert(idx, head);
        Ok(moved)
    }

    /// Merge partition `idx + 1` into partition `idx`.
    ///
    /// Returns the number of records moved.
    pub fn merge_with_next(&mut self, idx: usize) -> StorageResult<usize> {
        if idx + 1 >= self.partitions.len() {
            return Err(StorageError::InvalidPartitionBoundary(format!(
                "no partition after index {idx} to merge with"
            )));
        }
        let right = self.partitions.remove(idx + 1);
        self.lowers.remove(idx);
        let moved = right.tree.len();
        self.partitions[idx].tree.merge_from(right.tree);
        Ok(moved)
    }

    /// Check structural invariants: boundaries strictly increasing, every
    /// key within its partition's range, every per-partition tree valid.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.partitions.is_empty() {
            return Err("multi-rooted tree must have at least one partition".into());
        }
        if self.lowers.len() + 1 != self.partitions.len() {
            return Err("need one lower bound per partition after the first".into());
        }
        if let Some(w) = self.lowers.windows(2).find(|w| w[0] >= w[1]) {
            return Err(format!(
                "partition bounds out of order: {} >= {}",
                w[0], w[1]
            ));
        }
        for (i, p) in self.partitions.iter().enumerate() {
            p.tree.check_invariants()?;
            let lower = self.lower_bound(i);
            let upper = self.upper_bound(i);
            for (k, _) in p.tree.iter() {
                if let Some(lo) = lower {
                    if k.head_int() < lo {
                        return Err(format!("key {k} below partition {i} lower bound {lo}"));
                    }
                }
                if let Some(hi) = upper {
                    if k.head_int() >= hi {
                        return Err(format!("key {k} at/above partition {i} upper bound {hi}"));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Value;

    fn rec(v: i64) -> Record {
        Record::new(vec![Value::Int(v)])
    }

    fn loaded(n: i64, parts: usize) -> MrBTree {
        let boundaries: Vec<Key> = (1..parts as i64)
            .map(|i| Key::int(i * n / parts as i64))
            .collect();
        let nodes = vec![SocketId(0); parts];
        let mut t = MrBTree::range_partitioned(boundaries, nodes);
        for i in 0..n {
            insert(&mut t, i);
        }
        t
    }

    /// Insert the row for `i` under its key, in the partition it routes to.
    fn insert(t: &mut MrBTree, i: i64) {
        let key = Key::int(i);
        assert!(t.insert_new_in(t.partition_for(&key), key, rec(i).row()));
    }

    #[test]
    fn single_partition_roundtrip() {
        let mut t = MrBTree::new(SocketId(0));
        for i in 0..100 {
            insert(&mut t, i);
        }
        assert_eq!(t.len(), 100);
        assert_eq!(t.num_partitions(), 1);
        assert!(t.contains(&Key::int(50)));
        t.check_invariants().unwrap();
    }

    #[test]
    fn range_partitioning_routes_keys_to_the_right_partition() {
        let t = loaded(1000, 4);
        assert_eq!(t.num_partitions(), 4);
        assert_eq!(t.partition_for(&Key::int(0)), 0);
        assert_eq!(t.partition_for(&Key::int(249)), 0);
        assert_eq!(t.partition_for(&Key::int(250)), 1);
        assert_eq!(t.partition_for(&Key::int(999)), 3);
        // Every partition got roughly a quarter of the data.
        for i in 0..4 {
            assert_eq!(t.partition(i).tree.len(), 250);
        }
        t.check_invariants().unwrap();
    }

    #[test]
    fn split_moves_upper_range_to_new_partition() {
        let mut t = loaded(1000, 2);
        assert_eq!(t.num_partitions(), 2);
        let moved = t.split_partition(0, Key::int(100), SocketId(1)).unwrap();
        assert_eq!(moved, 400); // keys 100..500 move
        assert_eq!(t.num_partitions(), 3);
        assert_eq!(t.partition(1).memory_node, SocketId(1));
        assert_eq!(t.len(), 1000);
        t.check_invariants().unwrap();
        assert_eq!(t.partition_for(&Key::int(99)), 0);
        assert_eq!(t.partition_for(&Key::int(100)), 1);
        assert_eq!(t.partition_for(&Key::int(500)), 2);
    }

    #[test]
    fn split_rejects_out_of_range_boundaries() {
        let mut t = loaded(1000, 2);
        assert!(t.split_partition(1, Key::int(100), SocketId(0)).is_err());
        assert!(t.split_partition(0, Key::int(500), SocketId(0)).is_err());
        assert!(t.split_partition(5, Key::int(100), SocketId(0)).is_err());
        // Partitions route by key head: a wider bound is no boundary.
        assert!(matches!(
            t.split_partition(0, Key::ints(&[100, 1]), SocketId(0)),
            Err(StorageError::InvalidPartitionBoundary(_))
        ));
        assert_eq!(t.num_partitions(), 2);
        t.check_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "partition boundaries must be one-integer keys")]
    fn wider_boundaries_are_refused() {
        MrBTree::range_partitioned(vec![Key::ints(&[1, 2])], vec![SocketId(0); 2]);
    }

    #[test]
    fn merge_combines_adjacent_partitions() {
        let mut t = loaded(1000, 4);
        let moved = t.merge_with_next(1).unwrap();
        assert_eq!(moved, 250);
        assert_eq!(t.num_partitions(), 3);
        assert_eq!(t.len(), 1000);
        t.check_invariants().unwrap();
        // All keys still reachable.
        for i in (0..1000).step_by(37) {
            assert!(t.contains(&Key::int(i)));
        }
        assert!(t.merge_with_next(2).is_err());
    }

    #[test]
    fn rearrangement_is_a_split_plus_merge() {
        let mut t = loaded(1000, 4);
        // Move the 600..750 range from partition 2 into partition 3:
        // split partition 2 at 600, then merge the new middle piece right.
        t.split_partition(2, Key::int(600), SocketId(3)).unwrap();
        assert_eq!(t.num_partitions(), 5);
        t.merge_with_next(3).unwrap();
        assert_eq!(t.num_partitions(), 4);
        assert_eq!(t.len(), 1000);
        t.check_invariants().unwrap();
    }

    #[test]
    fn removal_and_iteration() {
        let mut t = loaded(100, 3);
        assert!(t.remove(&Key::int(42)).is_some());
        assert!(t.remove(&Key::int(42)).is_none());
        assert_eq!(t.len(), 99);
        let keys: Vec<i64> = t.iter().map(|(k, _)| k.head_int()).collect();
        assert_eq!(keys.len(), 99);
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn range_iter_spans_partitions_in_key_order() {
        let t = loaded(1000, 4);
        let keys = |from: Option<i64>, to: Option<i64>| -> Vec<i64> {
            let (from, to) = (from.map(Key::int), to.map(Key::int));
            t.range_iter(from.as_ref(), to.as_ref())
                .map(|(k, _)| k.head_int())
                .collect()
        };
        assert_eq!(keys(Some(240), Some(510)), (240..510).collect::<Vec<_>>());
        assert_eq!(keys(None, Some(3)), vec![0, 1, 2]);
        assert_eq!(keys(Some(997), None), vec![997, 998, 999]);
        assert_eq!(keys(Some(500), Some(500)), Vec::<i64>::new());
        assert_eq!(keys(Some(600), Some(100)), Vec::<i64>::new());
        assert_eq!(keys(None, None).len(), 1000);
    }

    #[test]
    fn memory_node_reassignment() {
        let mut t = loaded(100, 2);
        t.set_memory_node(1, SocketId(5));
        assert_eq!(t.partition(1).memory_node, SocketId(5));
    }
}
