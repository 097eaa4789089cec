//! A from-scratch in-memory B+-tree mapping [`Key`]s to [`Record`]s.
//!
//! This is the physical index structure underlying every table partition.
//! The multi-rooted B-tree of physiological partitioning
//! ([`crate::mrbtree::MrBTree`]) is a collection of these trees, one per
//! logical partition.
//!
//! Design notes:
//! * Classic B+-tree: records live only in leaves; internal nodes hold
//!   separator keys.
//! * Deletion is *lazy*: entries are removed from leaves without rebalancing
//!   (a common choice in real systems, e.g. PostgreSQL only reclaims empty
//!   pages asynchronously).  Lookups, scans, and inserts remain correct;
//!   structural compaction happens when a partition is rebuilt during
//!   repartitioning.
//! * `split_off` / `merge_from` implement the physical part of the
//!   ATraPos repartitioning actions (paper §V-D).

use crate::record::{Key, Record};
use serde::{Deserialize, Serialize};

/// Maximum number of keys in a node.
const ORDER: usize = 64;

/// A B+-tree from [`Key`] to [`Record`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BTree {
    root: Node,
    len: usize,
    /// Cached height (1 = a single leaf).  Index-probe costs are charged
    /// per level on every simulated access, so the height is maintained
    /// incrementally instead of walked each time: it only changes on a
    /// root split or a bulk rebuild (deletion is lazy and never shrinks
    /// the tree).
    height: usize,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
enum Node {
    Leaf(Leaf),
    Internal(Internal),
}

#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct Leaf {
    keys: Vec<Key>,
    values: Vec<Record>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Internal {
    /// Separator keys; `children[i]` holds keys `< keys[i]`,
    /// `children[i+1]` holds keys `>= keys[i]`.
    keys: Vec<Key>,
    children: Vec<Node>,
}

impl Default for BTree {
    fn default() -> Self {
        Self::new()
    }
}

impl BTree {
    /// An empty tree.
    pub fn new() -> Self {
        Self {
            root: Node::Leaf(Leaf::default()),
            len: 0,
            height: 1,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Height of the tree (1 = a single leaf).  Index-probe costs charged by
    /// the table layer scale with this.
    #[inline]
    pub fn height(&self) -> usize {
        debug_assert_eq!(self.height, self.walk_height());
        self.height
    }

    /// Height computed by walking the leftmost path (invariant check).
    fn walk_height(&self) -> usize {
        let mut h = 1;
        let mut node = &self.root;
        while let Node::Internal(internal) = node {
            h += 1;
            node = &internal.children[0];
        }
        h
    }

    /// Look up a key.
    pub fn get(&self, key: &Key) -> Option<&Record> {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf(leaf) => {
                    return leaf.keys.binary_search(key).ok().map(|i| &leaf.values[i]);
                }
                Node::Internal(internal) => {
                    node = &internal.children[internal.child_index(key)];
                }
            }
        }
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, key: &Key) -> Option<&mut Record> {
        let mut node = &mut self.root;
        loop {
            match node {
                Node::Leaf(leaf) => {
                    return match leaf.keys.binary_search(key) {
                        Ok(i) => Some(&mut leaf.values[i]),
                        Err(_) => None,
                    };
                }
                Node::Internal(internal) => {
                    let idx = internal.child_index(key);
                    node = &mut internal.children[idx];
                }
            }
        }
    }

    /// Whether the key is present.
    pub fn contains(&self, key: &Key) -> bool {
        self.get(key).is_some()
    }

    /// Insert a key/record pair.  Returns the previous record if the key was
    /// already present (the pair is replaced).
    pub fn insert(&mut self, key: Key, record: Record) -> Option<Record> {
        let (replaced, split) = self.root.insert(key, record);
        if let Some((sep, right)) = split {
            let old_root = std::mem::replace(&mut self.root, Node::Leaf(Leaf::default()));
            self.root = Node::Internal(Internal {
                keys: vec![sep],
                children: vec![old_root, right],
            });
            self.height += 1;
        }
        if replaced.is_none() {
            self.len += 1;
        }
        replaced
    }

    /// Remove a key.  Returns the removed record, if any.
    pub fn remove(&mut self, key: &Key) -> Option<Record> {
        let removed = self.root.remove(key);
        if removed.is_some() {
            self.len -= 1;
        }
        removed
    }

    /// Smallest key in the tree.
    pub fn min_key(&self) -> Option<&Key> {
        self.iter().next().map(|(k, _)| k)
    }

    /// Largest key in the tree: a rightmost descent that steps back over
    /// lazily emptied leaves.
    pub fn max_key(&self) -> Option<&Key> {
        self.root.max_key()
    }

    /// In-order iterator over `(key, record)` pairs.
    pub fn iter(&self) -> Iter<'_> {
        Iter::new(&self.root, None)
    }

    /// Lazy in-order cursor over the entries whose keys are in `[from, to)`
    /// (`None` bounds are unbounded): one descent to the leaf holding
    /// `from`, then a leaf-to-leaf walk that stops at the first key
    /// `>= to` — O(height + entries yielded), wherever the range starts.
    pub fn range_iter<'a, 'k>(
        &'a self,
        from: Option<&Key>,
        to: Option<&'k Key>,
    ) -> impl Iterator<Item = (&'a Key, &'a Record)> + use<'a, 'k> {
        Iter::new(&self.root, from).take_while(move |&(k, _)| to.is_none_or(|t| k < t))
    }

    /// Build a tree from key-sorted, duplicate-free pairs.
    pub fn bulk_load(pairs: Vec<(Key, Record)>) -> Self {
        debug_assert!(
            pairs.windows(2).all(|w| w[0].0 < w[1].0),
            "bulk_load requires sorted unique keys"
        );
        let len = pairs.len();
        if len == 0 {
            return Self::new();
        }
        // Fill leaves to ~3/4 of capacity.
        let per_leaf = (ORDER * 3 / 4).max(1);
        let mut leaves: Vec<(Key, Node)> = Vec::with_capacity(len / per_leaf + 1);
        let mut it = pairs.into_iter().peekable();
        while it.peek().is_some() {
            let chunk: Vec<(Key, Record)> = it.by_ref().take(per_leaf).collect();
            let first = chunk[0].0.clone();
            let (keys, values) = chunk.into_iter().unzip();
            leaves.push((first, Node::Leaf(Leaf { keys, values })));
        }
        // Build internal levels bottom-up.
        let mut height = 1;
        let mut level = leaves;
        while level.len() > 1 {
            height += 1;
            let per_node = (ORDER * 3 / 4).max(2);
            let mut next = Vec::with_capacity(level.len() / per_node + 1);
            let mut it = level.into_iter().peekable();
            while it.peek().is_some() {
                let chunk: Vec<(Key, Node)> = it.by_ref().take(per_node + 1).collect();
                let first = chunk[0].0.clone();
                let mut keys = Vec::with_capacity(chunk.len().saturating_sub(1));
                let mut children = Vec::with_capacity(chunk.len());
                for (i, (k, n)) in chunk.into_iter().enumerate() {
                    if i > 0 {
                        keys.push(k);
                    }
                    children.push(n);
                }
                next.push((first, Node::Internal(Internal { keys, children })));
            }
            level = next;
        }
        let root = level.into_iter().next().map(|(_, n)| n).unwrap();
        Self { root, len, height }
    }

    /// Split the tree at `boundary`: entries with keys `>= boundary` are
    /// removed from `self` and returned as a new tree.  This is the physical
    /// *split* repartitioning action.
    pub fn split_off(&mut self, boundary: &Key) -> BTree {
        let mut left = std::mem::take(self).into_pairs();
        let right = left.split_off(left.partition_point(|(k, _)| k < boundary));
        *self = BTree::bulk_load(left);
        BTree::bulk_load(right)
    }

    /// Merge all entries of `other` into `self`.  This is the physical
    /// *merge* repartitioning action.  Keys of `other` overwrite equal keys
    /// in `self` (the caller guarantees disjoint ranges in normal
    /// operation).
    pub fn merge_from(&mut self, other: BTree) {
        // When the ranges are disjoint and adjacent, a rebuild keeps the
        // result compact; otherwise plain inserts would work too.
        let mut all = std::mem::take(self).into_pairs();
        all.reserve(other.len);
        other.root.drain_into(&mut all);
        all.sort_by(|a, b| a.0.cmp(&b.0));
        all.dedup_by(|a, b| a.0 == b.0);
        *self = BTree::bulk_load(all);
    }

    /// Consume the tree into its `(key, record)` pairs in key order, moving
    /// (not cloning) every entry out of the leaves.
    fn into_pairs(self) -> Vec<(Key, Record)> {
        let mut out = Vec::with_capacity(self.len);
        self.root.drain_into(&mut out);
        out
    }

    /// Verify the B+-tree structural invariants (key order within nodes,
    /// separator correctness, length).  Used by tests.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut count = 0usize;
        let mut last: Option<&Key> = None;
        for (k, _) in self.iter() {
            if let Some(prev) = last {
                if prev >= k {
                    return Err(format!("keys out of order: {prev} >= {k}"));
                }
            }
            last = Some(k);
            count += 1;
        }
        if count != self.len {
            return Err(format!(
                "len mismatch: counted {count}, stored {}",
                self.len
            ));
        }
        if self.height != self.walk_height() {
            return Err(format!(
                "height mismatch: cached {}, actual {}",
                self.height,
                self.walk_height()
            ));
        }
        self.root.check(None, None)
    }
}

impl Internal {
    /// Index of the child that may contain `key`.
    #[inline]
    fn child_index(&self, key: &Key) -> usize {
        match self.keys.binary_search(key) {
            Ok(i) => i + 1,
            Err(i) => i,
        }
    }
}

impl Node {
    /// Insert, returning (replaced value, optional split: (separator, right sibling)).
    fn insert(&mut self, key: Key, record: Record) -> (Option<Record>, Option<(Key, Node)>) {
        match self {
            Node::Leaf(leaf) => match leaf.keys.binary_search(&key) {
                Ok(i) => {
                    let old = std::mem::replace(&mut leaf.values[i], record);
                    (Some(old), None)
                }
                Err(i) => {
                    leaf.keys.insert(i, key);
                    leaf.values.insert(i, record);
                    if leaf.keys.len() > ORDER {
                        let mid = leaf.keys.len() / 2;
                        let right_keys = leaf.keys.split_off(mid);
                        let right_vals = leaf.values.split_off(mid);
                        let sep = right_keys[0].clone();
                        (
                            None,
                            Some((
                                sep,
                                Node::Leaf(Leaf {
                                    keys: right_keys,
                                    values: right_vals,
                                }),
                            )),
                        )
                    } else {
                        (None, None)
                    }
                }
            },
            Node::Internal(internal) => {
                let idx = internal.child_index(&key);
                let (replaced, split) = internal.children[idx].insert(key, record);
                if let Some((sep, right)) = split {
                    internal.keys.insert(idx, sep);
                    internal.children.insert(idx + 1, right);
                    if internal.keys.len() > ORDER {
                        let mid = internal.keys.len() / 2;
                        let sep = internal.keys[mid].clone();
                        let right_keys = internal.keys.split_off(mid + 1);
                        internal.keys.pop(); // drop the separator itself
                        let right_children = internal.children.split_off(mid + 1);
                        return (
                            replaced,
                            Some((
                                sep,
                                Node::Internal(Internal {
                                    keys: right_keys,
                                    children: right_children,
                                }),
                            )),
                        );
                    }
                }
                (replaced, None)
            }
        }
    }

    /// Lazy removal: delete from the leaf without rebalancing.
    fn remove(&mut self, key: &Key) -> Option<Record> {
        match self {
            Node::Leaf(leaf) => match leaf.keys.binary_search(key) {
                Ok(i) => {
                    leaf.keys.remove(i);
                    Some(leaf.values.remove(i))
                }
                Err(_) => None,
            },
            Node::Internal(internal) => {
                let idx = internal.child_index(key);
                internal.children[idx].remove(key)
            }
        }
    }

    /// Largest key below this node, skipping lazily emptied leaves.
    fn max_key(&self) -> Option<&Key> {
        match self {
            Node::Leaf(leaf) => leaf.keys.last(),
            Node::Internal(internal) => internal.children.iter().rev().find_map(Node::max_key),
        }
    }

    /// Move every entry below this node into `out`, in key order.
    fn drain_into(self, out: &mut Vec<(Key, Record)>) {
        match self {
            Node::Leaf(leaf) => out.extend(leaf.keys.into_iter().zip(leaf.values)),
            Node::Internal(internal) => {
                for child in internal.children {
                    child.drain_into(out);
                }
            }
        }
    }

    /// Check node-local invariants recursively.
    fn check(&self, lower: Option<&Key>, upper: Option<&Key>) -> Result<(), String> {
        match self {
            Node::Leaf(leaf) => {
                if leaf.keys.len() != leaf.values.len() {
                    return Err("leaf keys/values length mismatch".into());
                }
                for k in &leaf.keys {
                    if let Some(lo) = lower {
                        if k < lo {
                            return Err(format!("leaf key {k} below lower bound {lo}"));
                        }
                    }
                    if let Some(hi) = upper {
                        if k >= hi {
                            return Err(format!("leaf key {k} not below upper bound {hi}"));
                        }
                    }
                }
                Ok(())
            }
            Node::Internal(internal) => {
                if internal.children.len() != internal.keys.len() + 1 {
                    return Err("internal children/keys arity mismatch".into());
                }
                if internal.keys.windows(2).any(|w| w[0] >= w[1]) {
                    return Err("internal separator keys out of order".into());
                }
                for (i, child) in internal.children.iter().enumerate() {
                    let lo = if i == 0 {
                        lower
                    } else {
                        Some(&internal.keys[i - 1])
                    };
                    let hi = if i == internal.keys.len() {
                        upper
                    } else {
                        Some(&internal.keys[i])
                    };
                    child.check(lo, hi)?;
                }
                Ok(())
            }
        }
    }
}

/// In-order cursor over a [`BTree`]: the one ordered-access primitive every
/// scan (full iteration, range scan, min key) goes through.
pub struct Iter<'a> {
    /// Stack of (internal node, next child index) plus the current leaf.
    stack: Vec<(&'a Internal, usize)>,
    leaf: Option<(&'a Leaf, usize)>,
}

#[cfg(test)]
thread_local! {
    /// Nodes the current thread's cursors have descended into (pins the
    /// scan complexity with a deterministic count instead of a wall clock).
    pub(crate) static NODE_VISITS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl<'a> Iter<'a> {
    /// A cursor at the first entry with key `>= from` (the very first entry
    /// when `from` is `None`).
    fn new(root: &'a Node, from: Option<&Key>) -> Self {
        let mut it = Iter {
            stack: Vec::new(),
            leaf: None,
        };
        it.seek(root, from);
        it
    }

    /// Descend from `node` to the leaf that holds the first key `>= from`
    /// (the leftmost leaf when `from` is `None`), remembering on the stack
    /// which sibling comes next at every level.  The leaf may hold no such
    /// key (a key gap, or a leaf emptied by lazy deletion): `next` moves on
    /// to the following leaf.
    // One descent per scan and one per leaf crossing.
    // lint: hot-path
    fn seek(&mut self, mut node: &'a Node, from: Option<&Key>) {
        loop {
            #[cfg(test)]
            NODE_VISITS.with(|n| n.set(n.get() + 1));
            match node {
                Node::Leaf(leaf) => {
                    let idx = from.map_or(0, |f| leaf.keys.partition_point(|k| k < f));
                    self.leaf = Some((leaf, idx));
                    return;
                }
                Node::Internal(internal) => {
                    let idx = from.map_or(0, |f| internal.child_index(f));
                    self.stack.push((internal, idx + 1));
                    node = &internal.children[idx];
                }
            }
        }
    }

    fn advance_to_next_leaf(&mut self) -> bool {
        while let Some((internal, next)) = self.stack.pop() {
            if next < internal.children.len() {
                self.stack.push((internal, next + 1));
                self.seek(&internal.children[next], None);
                return true;
            }
        }
        self.leaf = None;
        false
    }
}

impl<'a> Iterator for Iter<'a> {
    type Item = (&'a Key, &'a Record);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            match self.leaf {
                Some((leaf, idx)) if idx < leaf.keys.len() => {
                    self.leaf = Some((leaf, idx + 1));
                    return Some((&leaf.keys[idx], &leaf.values[idx]));
                }
                Some(_) => {
                    if !self.advance_to_next_leaf() {
                        return None;
                    }
                }
                None => return None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Value;

    fn rec(v: i64) -> Record {
        Record::new(vec![Value::Int(v), Value::Int(v * 10)])
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut t = BTree::new();
        for i in 0..500 {
            assert!(t.insert(Key::int(i), rec(i)).is_none());
        }
        assert_eq!(t.len(), 500);
        for i in 0..500 {
            assert_eq!(t.get(&Key::int(i)).unwrap().get(0).as_int(), i);
        }
        assert!(t.get(&Key::int(500)).is_none());
        t.check_invariants().unwrap();
    }

    #[test]
    fn inserts_in_reverse_and_random_order() {
        let mut t = BTree::new();
        for i in (0..300).rev() {
            t.insert(Key::int(i), rec(i));
        }
        // Pseudo-random order.
        for i in 0..300 {
            let k = (i * 7919) % 1000 + 1000;
            t.insert(Key::int(k), rec(k));
        }
        t.check_invariants().unwrap();
        assert!(t.height() >= 2);
        let keys: Vec<i64> = t.iter().map(|(k, _)| k.head_int()).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn insert_replaces_existing_key() {
        let mut t = BTree::new();
        t.insert(Key::int(1), rec(1));
        let old = t.insert(Key::int(1), rec(99));
        assert_eq!(old.unwrap().get(0).as_int(), 1);
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&Key::int(1)).unwrap().get(0).as_int(), 99);
    }

    #[test]
    fn remove_deletes_entries() {
        let mut t = BTree::new();
        for i in 0..200 {
            t.insert(Key::int(i), rec(i));
        }
        for i in (0..200).step_by(2) {
            assert!(t.remove(&Key::int(i)).is_some());
        }
        assert_eq!(t.len(), 100);
        for i in 0..200 {
            assert_eq!(t.contains(&Key::int(i)), i % 2 == 1);
        }
        assert!(t.remove(&Key::int(0)).is_none());
        t.check_invariants().unwrap();
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut t = BTree::new();
        t.insert(Key::int(5), rec(5));
        t.get_mut(&Key::int(5)).unwrap().set(1, Value::Int(777));
        assert_eq!(t.get(&Key::int(5)).unwrap().get(1).as_int(), 777);
        assert!(t.get_mut(&Key::int(6)).is_none());
    }

    #[test]
    fn range_scans_respect_bounds() {
        let mut t = BTree::new();
        for i in 0..100 {
            t.insert(Key::int(i), rec(i));
        }
        let (lo, hi) = (Key::int(10), Key::int(20));
        let got: Vec<i64> = t
            .range_iter(Some(&lo), Some(&hi))
            .map(|(k, _)| k.head_int())
            .collect();
        assert_eq!(got, (10..20).collect::<Vec<_>>());
        assert_eq!(t.range_iter(None, Some(&Key::int(3))).count(), 3);
        assert_eq!(t.range_iter(Some(&Key::int(97)), None).count(), 3);
        assert_eq!(t.range_iter(Some(&hi), Some(&lo)).count(), 0);
    }

    #[test]
    fn min_and_max_key_step_over_emptied_leaves() {
        let mut t = BTree::bulk_load((0..1000).map(|i| (Key::int(i), rec(i))).collect());
        for i in (0..200).chain(700..1000) {
            t.remove(&Key::int(i));
        }
        assert_eq!(t.min_key().unwrap().head_int(), 200);
        assert_eq!(t.max_key().unwrap().head_int(), 699);
        for i in 200..700 {
            t.remove(&Key::int(i));
        }
        assert!(t.min_key().is_none());
        assert!(t.max_key().is_none());
    }

    #[test]
    fn bulk_load_matches_incremental_inserts() {
        let pairs: Vec<(Key, Record)> = (0..1000).map(|i| (Key::int(i), rec(i))).collect();
        let bulk = BTree::bulk_load(pairs);
        assert_eq!(bulk.len(), 1000);
        bulk.check_invariants().unwrap();
        for i in 0..1000 {
            assert!(bulk.contains(&Key::int(i)));
        }
        assert_eq!(bulk.min_key().unwrap().head_int(), 0);
        assert_eq!(bulk.max_key().unwrap().head_int(), 999);
    }

    #[test]
    fn split_off_partitions_by_boundary() {
        let mut t = BTree::bulk_load((0..1000).map(|i| (Key::int(i), rec(i))).collect());
        let right = t.split_off(&Key::int(600));
        assert_eq!(t.len(), 600);
        assert_eq!(right.len(), 400);
        assert!(t.max_key().unwrap().head_int() < 600);
        assert!(right.min_key().unwrap().head_int() >= 600);
        t.check_invariants().unwrap();
        right.check_invariants().unwrap();
    }

    #[test]
    fn merge_from_combines_trees() {
        let mut a = BTree::bulk_load((0..500).map(|i| (Key::int(i), rec(i))).collect());
        let b = BTree::bulk_load((500..900).map(|i| (Key::int(i), rec(i))).collect());
        a.merge_from(b);
        assert_eq!(a.len(), 900);
        a.check_invariants().unwrap();
        assert!(a.contains(&Key::int(0)));
        assert!(a.contains(&Key::int(899)));
    }

    #[test]
    fn empty_tree_behaviour() {
        let t = BTree::new();
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
        assert!(t.min_key().is_none());
        assert!(t.max_key().is_none());
        assert_eq!(t.iter().count(), 0);
        t.check_invariants().unwrap();
    }

    #[test]
    fn split_then_merge_roundtrips() {
        let original: Vec<(Key, Record)> = (0..777).map(|i| (Key::int(i), rec(i))).collect();
        let mut t = BTree::bulk_load(original.clone());
        let right = t.split_off(&Key::int(300));
        t.merge_from(right);
        assert_eq!(t.len(), 777);
        let back: Vec<i64> = t.iter().map(|(k, _)| k.head_int()).collect();
        assert_eq!(back, (0..777).collect::<Vec<_>>());
    }
}
