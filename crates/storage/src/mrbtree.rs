//! Multi-rooted B+-tree: the physically partitioned index used by
//! physiological partitioning (PLP) and ATraPos.
//!
//! A multi-rooted B-tree partitions a table's key space into contiguous
//! ranges, each with its *own* B+-tree root (paper §III-A).  Because a
//! logical partition is only ever accessed by the worker thread it is
//! assigned to, accesses to a subtree need no latching.
//!
//! Repartitioning (paper §V-D) re-cuts this structure to new partition
//! bounds in one pass ([`MrBTree::recut`]), and its actions are cases of it:
//! * **split** adds a bound, dividing a partition in two;
//! * **merge** removes one, combining two adjacent partitions;
//! * a **rearrangement** moves one: a split plus a merge.

use crate::btree::{BTree, RowMut};
use crate::error::{StorageError, StorageResult};
use crate::record::{Key, Row};
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
    /// [`MrBTree::recut`]), so routing is one binary
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

    /// Inclusive lower bounds of partitions `1..`, strictly increasing.
    pub fn lowers(&self) -> &[i64] {
        &self.lowers
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
    /// Whether the key was there.
    #[inline]
    pub fn remove_in(&mut self, idx: usize, key: &Key) -> bool {
        debug_assert_eq!(idx, self.partition_for(key));
        self.partitions[idx].tree.remove(key)
    }

    /// Remove a key.  Whether it was there.
    pub fn remove(&mut self, key: &Key) -> bool {
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

    /// Re-cut the table to partitions whose lower bounds are `lowers`,
    /// partition `i` allocated on `nodes[i]`.  The bounds the old and the
    /// new partitions share cut the table into runs: a run that stays one
    /// partition keeps its tree, and every other run's rows are streamed
    /// once, by [`BTree::recut`], into its new partitions' trees.  Bounds
    /// out of order, or other than one node per partition, change nothing.
    ///
    /// Returns the number of records whose partition's lower bound changed.
    pub fn recut(&mut self, lowers: Vec<i64>, nodes: Vec<SocketId>) -> StorageResult<usize> {
        if nodes.len() != lowers.len() + 1 || lowers.windows(2).any(|w| w[0] >= w[1]) {
            let refused = format!("no re-cut to {lowers:?} on {} nodes", nodes.len());
            return Err(StorageError::InvalidPartitionBoundary(refused));
        }
        // Per run, where its old and its new partitions end.
        let ends: Vec<(usize, usize)> = (1..=lowers.len())
            .filter_map(|j| Some((self.lowers.binary_search(&lowers[j - 1]).ok()? + 1, j)))
            .chain([(self.partitions.len(), nodes.len())])
            .collect();
        let mut old = self.partitions.drain(..).map(|p| p.tree);
        let (mut trees, mut moved, mut start) = (Vec::with_capacity(nodes.len()), 0, (0, 0));
        for (i, j) in ends {
            let run: Vec<BTree> = old.by_ref().take(i - start.0).collect();
            let cuts = &lowers[start.1..j - 1];
            if run.len() == 1 && cuts.is_empty() {
                trees.extend(run);
            } else {
                // The rows that keep their lower bound lie below the run's
                // first old and first new inner bound: the shorter of the
                // first old and new trees, each a prefix of the run.
                let (rows, first) = (run.iter().map(BTree::len).sum::<usize>(), run[0].len());
                let parts = BTree::recut(run, cuts);
                moved += rows - first.min(parts[0].len());
                trees.extend(parts);
            }
            start = (i, j);
        }
        drop(old);
        let partitions = trees.into_iter().zip(nodes);
        self.partitions
            .extend(partitions.map(|(tree, memory_node)| PartitionTree { tree, memory_node }));
        self.lowers = lowers;
        Ok(moved)
    }

    /// Split partition `idx` at `boundary`, a one-integer key strictly
    /// inside its range.  The upper half becomes a new partition (inserted
    /// at `idx + 1`) allocated on `new_node`.
    ///
    /// Returns the number of records moved.
    pub fn split_partition(
        &mut self,
        idx: usize,
        boundary: Key,
        new_node: SocketId,
    ) -> StorageResult<usize> {
        if idx >= self.partitions.len() || boundary.len() != 1 {
            return Err(StorageError::InvalidPartitionBoundary(format!(
                "no split of partition {idx} at {boundary}"
            )));
        }
        let (mut lowers, mut nodes) = (self.lowers.clone(), self.memory_nodes());
        lowers.insert(idx, boundary.head_int());
        nodes.insert(idx + 1, new_node);
        self.recut(lowers, nodes)
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
        let (mut lowers, mut nodes) = (self.lowers.clone(), self.memory_nodes());
        lowers.remove(idx);
        nodes.remove(idx + 1);
        self.recut(lowers, nodes)
    }

    /// Where each partition is allocated, in partition order.
    pub fn memory_nodes(&self) -> Vec<SocketId> {
        self.partitions.iter().map(|p| p.memory_node).collect()
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
    use crate::btree::tests::shape_digest;
    use crate::btree::ROWS_COPIED;
    use crate::record::{Record, Value};
    use proptest::prelude::*;
    use std::collections::BTreeSet;

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
        assert!(t.remove(&Key::int(42)));
        assert!(!t.remove(&Key::int(42)));
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

    /// A re-cut to the bounds the table has moves its partitions to the
    /// nodes given and copies no row.
    #[test]
    fn memory_node_reassignment() {
        let mut t = loaded(100, 2);
        let nodes = vec![SocketId(0), SocketId(5)];
        assert_eq!(copies(|| assert_eq!(t.recut(vec![50], nodes), Ok(0))), 0);
        assert_eq!(t.partition(1).memory_node, SocketId(5));
    }

    /// Rows the builders of the current thread copy while `f` runs.
    fn copies(f: impl FnOnce()) -> usize {
        let before = ROWS_COPIED.with(|n| n.get());
        f();
        ROWS_COPIED.with(|n| n.get()) - before
    }

    /// A re-cut of four partitions to shifted bounds — two merges and three
    /// splits in one, as an adaptive plan's are — copies each row of the
    /// run it changes once and leaves the partition it keeps alone.
    #[test]
    fn a_recut_copies_the_rows_of_the_changed_runs_once() {
        let mut t = loaded(1000, 4);
        let kept = shape_digest(&t.partition(0).tree);
        let nodes = (0..5).map(SocketId).collect();
        let mut moved = 0;
        let copied = copies(|| moved = t.recut(vec![250, 400, 600, 700], nodes).unwrap());
        // Keys 250.. are one run, re-cut; keys 250..400 keep their bound.
        assert_eq!((copied, moved), (750, 600));
        assert_eq!(t.lowers(), [250, 400, 600, 700]);
        assert_eq!(t.memory_nodes(), (0..5).map(SocketId).collect::<Vec<_>>());
        assert_eq!(shape_digest(&t.partition(0).tree), kept);
        assert_eq!(t.len(), 1000);
        t.check_invariants().unwrap();
        // The same change one action at a time copies four times as much.
        let mut stepwise = loaded(1000, 4);
        let copied = copies(|| {
            stepwise.merge_with_next(1).unwrap();
            stepwise.merge_with_next(1).unwrap();
            for (idx, b) in [(1, 400), (2, 600), (3, 700)] {
                stepwise
                    .split_partition(idx, Key::int(b), SocketId(0))
                    .unwrap();
            }
        });
        assert_eq!(copied, 3_000);
        assert_eq!(stepwise.lowers(), t.lowers());
    }

    #[test]
    fn recut_refuses_bounds_out_of_order_or_a_node_count_off_by_one() {
        let mut t = loaded(100, 3);
        assert!(t.recut(vec![50, 50], vec![SocketId(0); 3]).is_err());
        assert!(t.recut(vec![50], vec![SocketId(0); 3]).is_err());
        assert_eq!(t.lowers(), [33, 66]);
        t.check_invariants().unwrap();
    }

    /// The node a split at `bound` allocates its new partition on.
    fn node_of(bound: i64) -> SocketId {
        SocketId(bound.rem_euclid(5) as u16)
    }

    proptest! {
        /// A table reshaped by inserts, removes, splits and merges, then
        /// re-cut to random bounds, is what the change's merges and then its
        /// splits, one step each in ascending order, leave: the same bounds,
        /// memory nodes, partition shapes, heap bytes and contents.  The
        /// re-cut copies the rows of the runs it changes once each and
        /// counts as moved the rows whose lower bound changed.
        #[test]
        fn a_recut_equals_its_merges_then_splits(
            bounds in prop::collection::btree_set(0i64..4_000, 0..6),
            edits in prop::collection::vec((0u8..5, 0i64..4_000), 0..40),
            keep in any::<u64>(),
            add in prop::collection::btree_set(0i64..4_000, 0..6),
        ) {
            let nodes = (0..=bounds.len()).map(|i| SocketId(i as u16)).collect();
            let mut t = MrBTree::range_partitioned(bounds.into_iter().map(Key::int).collect(), nodes);
            for (op, k) in edits {
                match op {
                    0 | 1 => (k..k + 300).for_each(|i| {
                        let key = Key::int(i);
                        t.insert_new_in(t.partition_for(&key), key, rec(i).row());
                    }),
                    2 => (k..k + 150).step_by(2).for_each(|i| {
                        t.remove(&Key::int(i));
                    }),
                    3 => {
                        let _ = t.split_partition(t.partition_for(&Key::int(k)), Key::int(k), node_of(k));
                    }
                    _ => {
                        let _ = t.merge_with_next(k as usize % t.num_partitions());
                    }
                }
            }
            let old: BTreeSet<i64> = t.lowers().iter().copied().collect();
            let new: BTreeSet<i64> = old
                .iter()
                .enumerate()
                .filter(|&(i, _)| keep >> (i % 64) & 1 == 1)
                .map(|(_, &b)| b)
                .chain(add)
                .collect();
            let nodes = std::iter::once(t.partition(0).memory_node)
                .chain(new.iter().map(|&b| match old.contains(&b) {
                    true => t.partition(t.partition_for(&Key::int(b))).memory_node,
                    false => node_of(b),
                }))
                .collect();
            let lower_of = |set: &BTreeSet<i64>, h: i64| set.range(..=h).next_back().copied();
            let shared: BTreeSet<i64> = old.intersection(&new).copied().collect();
            let changed: BTreeSet<Option<i64>> =
                old.symmetric_difference(&new).map(|&b| lower_of(&shared, b)).collect();
            let heads: Vec<i64> = t.iter().map(|(k, _)| k.head_int()).collect();
            let want_moved = heads.iter().filter(|&&h| lower_of(&old, h) != lower_of(&new, h)).count();
            let want_copied = heads.iter().filter(|&&h| changed.contains(&lower_of(&shared, h))).count();

            // Both sides are clones, as a clone trims the node vectors a
            // kept tree shows in its heap bytes.
            let (mut t, mut stepwise) = (t.clone(), t.clone());
            let mut moved = 0;
            let copied = copies(|| moved = t.recut(new.iter().copied().collect(), nodes).unwrap());
            prop_assert_eq!((copied, moved), (want_copied, want_moved));
            for &b in old.difference(&new) {
                let idx = stepwise.partition_for(&Key::int(b));
                stepwise.merge_with_next(idx - 1).unwrap();
            }
            for &b in new.difference(&old) {
                let idx = stepwise.partition_for(&Key::int(b));
                stepwise.split_partition(idx, Key::int(b), node_of(b)).unwrap();
            }
            t.check_invariants().map_err(TestCaseError::fail)?;
            prop_assert_eq!(t.lowers(), stepwise.lowers());
            prop_assert_eq!(t.memory_nodes(), stepwise.memory_nodes());
            for (got, want) in t.partitions().iter().zip(stepwise.partitions()) {
                let print = |p: &PartitionTree| (shape_digest(&p.tree), p.tree.heap_bytes());
                prop_assert_eq!(print(got), print(want));
            }
            prop_assert!(t.iter().map(|(k, r)| (k, r.to_record())).eq(stepwise.iter().map(|(k, r)| (k, r.to_record()))));
        }
    }
}
