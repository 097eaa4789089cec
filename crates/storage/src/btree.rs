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
//! * Every node keeps its keys in a [`KeyColumn`]: the keys plus a packed
//!   column of 8-byte order-preserving prefixes ([`Key::head_rank`]).  A
//!   probe binary-searches the 512-byte column and finishes with full key
//!   compares only where prefixes tie — Graefe & Larson's "poor man's
//!   normalized keys" (*B-tree indexes and CPU caches*, ICDE 2001).
//! * An insert above a node's last key takes the last slot (leaf) or the
//!   last child (internal node) without a search — the answer the search
//!   would give — so an ascending load goes straight down the right spine,
//!   as PostgreSQL's nbtree "fastpath" for rightmost-leaf inserts does.  An
//!   equal key still searches, so duplicates are found as before.
//! * Node vectors are sized to the node, not doubled: they grow straight to
//!   the most a node can hold.  A split copies the half it leaves behind
//!   into an exact-size vector and the growing right half keeps the full
//!   buffer, so an ascending load reallocates neither.
//! * Deletion is *lazy*: entries are removed from leaves without rebalancing
//!   (a common choice in real systems, e.g. PostgreSQL only reclaims empty
//!   pages asynchronously).  Lookups, scans, and inserts remain correct;
//!   structural compaction happens when a partition is rebuilt during
//!   repartitioning.
//! * `split_off` / `merge_from` implement the physical part of the
//!   ATraPos repartitioning actions (paper §V-D).

use crate::record::{Key, Record};
use std::cmp::Ordering;
use std::ops::Range;

/// Maximum number of keys in a node.
const ORDER: usize = 64;

/// Slots a node's key and value vectors grow to: `ORDER` keys plus the one
/// whose insert triggers the split.
const NODE_SLOTS: usize = ORDER + 1;

/// A B+-tree from [`Key`] to [`Record`].
#[derive(Debug, Clone)]
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

#[derive(Debug, Clone)]
enum Node {
    Leaf(Leaf),
    Internal(Internal),
}

#[derive(Debug, Clone, Default)]
struct Leaf {
    keys: KeyColumn,
    values: Vec<Record>,
}

#[derive(Debug, Clone)]
struct Internal {
    /// Separator keys; `children[i]` holds keys `< keys[i]`,
    /// `children[i+1]` holds keys `>= keys[i]`.
    keys: KeyColumn,
    children: Vec<Node>,
}

/// The sorted keys of one node, with a parallel packed column of their
/// [`Key::head_rank`]s.
///
/// A node's 64 keys span 40 cache lines; their ranks span 8.  Searches
/// therefore run on the ranks and go to the keys only for the run of slots
/// whose rank equals the probe's.  Ranks are *weakly* monotone in the keys
/// (`a <= b` implies `rank(a) <= rank(b)`): a smaller or larger rank
/// decides the order, an equal rank decides nothing, so equality — and the
/// order inside a run of ties — always comes from full key compares.  For
/// keys of one or two in-range integers every rank is unique and a search
/// costs at most one full compare; a node whose keys all tie (TPC-C order
/// lines sharing `(w_id, d_id)`) searches the keys directly.
#[derive(Debug, Clone, Default)]
pub struct KeyColumn {
    keys: Vec<Key>,
    /// `heads[i] == keys[i].head_rank()`.
    heads: Vec<i64>,
}

#[cfg(test)]
thread_local! {
    /// Full `Key` compares the current thread's node searches have made
    /// (pins the point-probe cost with a deterministic count).
    pub(crate) static FULL_COMPARES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// The one place a node search compares whole keys.
#[inline]
fn full_cmp(a: &Key, b: &Key) -> Ordering {
    #[cfg(test)]
    FULL_COMPARES.with(|n| n.set(n.get() + 1));
    a.cmp(b)
}

/// Make room for one more element of a node vector that holds at most
/// `slots`: grow straight to `slots`, never by doubling.
#[inline]
fn reserve_slot<T>(v: &mut Vec<T>, slots: usize) {
    if v.len() == v.capacity() {
        v.reserve_exact(slots.saturating_sub(v.len()).max(1));
    }
}

/// Split a node vector at `mid`: the left half moves into an exact-size
/// vector and the right half keeps the full buffer.  An ascending load
/// (every populate, every TPC-C order insert) never touches the left half
/// again, so spare slots there would stay empty for good, and keeps filling
/// the right half, which therefore never reallocates.
fn split_exact<T>(v: &mut Vec<T>, mid: usize) -> Vec<T> {
    let left = v.drain(..mid).collect();
    std::mem::replace(v, left)
}

impl KeyColumn {
    /// A column over `keys`, which must be sorted and duplicate-free.
    pub(crate) fn from_keys(keys: Vec<Key>) -> Self {
        let heads = keys.iter().map(Key::head_rank).collect();
        Self { keys, heads }
    }

    /// The keys, in order.
    #[inline]
    pub fn keys(&self) -> &[Key] {
        &self.keys
    }

    /// Number of keys.
    #[inline]
    fn len(&self) -> usize {
        self.keys.len()
    }

    /// The slots whose rank equals the probe's.  Every key before the run
    /// is smaller than `probe` and every key after it is greater, so a
    /// search only has to compare keys inside it.
    #[inline]
    fn rank_run(&self, probe: &Key) -> Range<usize> {
        let heads = self.heads.as_slice();
        // All ranks tie (or the node is empty): the column narrows nothing.
        if heads.first() == heads.last() {
            return 0..heads.len();
        }
        let rank = probe.head_rank();
        let lo = heads.partition_point(|&h| h < rank);
        let mut hi = lo;
        if heads.get(hi) == Some(&rank) {
            hi += 1;
            // Ranks are nearly always unique; only a tie pays a second
            // search for the end of the run.
            if heads.get(hi) == Some(&rank) {
                hi += 1 + heads[hi + 1..].partition_point(|&h| h == rank);
            }
        }
        lo..hi
    }

    /// `<[Key]>::binary_search`: the slot holding `probe`, or the slot it
    /// would be inserted at.
    // Once per node on every descent.
    // lint: hot-path
    #[inline]
    pub fn search(&self, probe: &Key) -> Result<usize, usize> {
        let run = self.rank_run(probe);
        let lo = run.start;
        self.keys[run]
            .binary_search_by(|k| full_cmp(k, probe))
            .map(|i| lo + i)
            .map_err(|i| lo + i)
    }

    /// The number of keys `<= probe`: the child of an internal node that
    /// may hold `probe`, or the range partition that owns it when the
    /// column holds partition lower bounds.
    #[inline]
    pub(crate) fn child_index(&self, probe: &Key) -> usize {
        match self.search(probe) {
            Ok(i) => i + 1,
            Err(i) => i,
        }
    }

    /// The first slot whose key is `>= probe` (which may be shorter than
    /// the stored keys: a range bound).
    // Once per node on every cursor descent.
    // lint: hot-path
    #[inline]
    pub fn lower_bound(&self, probe: &Key) -> usize {
        let run = self.rank_run(probe);
        run.start + self.keys[run].partition_point(|k| full_cmp(k, probe) == Ordering::Less)
    }

    /// Insert `key` at slot `i` (as returned by a failed [`Self::search`]).
    pub fn insert(&mut self, i: usize, key: Key) {
        reserve_slot(&mut self.keys, NODE_SLOTS);
        reserve_slot(&mut self.heads, NODE_SLOTS);
        self.heads.insert(i, key.head_rank());
        self.keys.insert(i, key);
    }

    /// Remove and return the key at slot `i`.
    pub fn remove(&mut self, i: usize) -> Key {
        self.heads.remove(i);
        self.keys.remove(i)
    }

    /// [`Self::search`] for an insert: a probe above the last key — every
    /// insert of an ascending load — goes to the end without a search.
    #[inline]
    fn insert_slot(&self, probe: &Key) -> Result<usize, usize> {
        match self.keys.last() {
            Some(last) if probe > last => Err(self.len()),
            _ => self.search(probe),
        }
    }

    /// Move the keys from slot `mid` on into a new column.
    pub fn split_off(&mut self, mid: usize) -> KeyColumn {
        KeyColumn {
            keys: split_exact(&mut self.keys, mid),
            heads: split_exact(&mut self.heads, mid),
        }
    }

    /// Consume the column into its keys.
    fn into_keys(self) -> Vec<Key> {
        self.keys
    }

    /// Verify that the keys are strictly increasing and the rank column
    /// matches them.
    pub fn check_invariants(&self) -> Result<(), String> {
        if let Some(w) = self.keys.windows(2).find(|w| w[0] >= w[1]) {
            return Err(format!("node keys out of order: {} >= {}", w[0], w[1]));
        }
        if self.heads.len() != self.keys.len()
            || self
                .keys
                .iter()
                .zip(&self.heads)
                .any(|(k, &h)| k.head_rank() != h)
        {
            return Err("rank column does not match the node's keys".into());
        }
        Ok(())
    }
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
    // One per simulated read action.
    // lint: hot-path
    pub fn get(&self, key: &Key) -> Option<&Record> {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf(leaf) => {
                    return leaf.keys.search(key).ok().map(|i| &leaf.values[i]);
                }
                Node::Internal(internal) => {
                    node = &internal.children[internal.child_index(key)];
                }
            }
        }
    }

    /// Mutable lookup.
    // One per simulated update / increment action.
    // lint: hot-path
    pub fn get_mut(&mut self, key: &Key) -> Option<&mut Record> {
        let mut node = &mut self.root;
        loop {
            match node {
                Node::Leaf(leaf) => {
                    return match leaf.keys.search(key) {
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
        self.insert_with(key, record, true)
    }

    /// Insert a key/record pair unless the key is already present: a
    /// present key leaves the tree untouched and hands `record` back.
    pub fn insert_new(&mut self, key: Key, record: Record) -> Result<(), Record> {
        self.insert_with(key, record, false).map_or(Ok(()), Err)
    }

    /// Insert; on a present key either replace its record or leave it.
    /// Returns the record that is not in the tree afterwards: the displaced
    /// one when replacing, `record` itself otherwise, `None` for a new key.
    fn insert_with(&mut self, key: Key, record: Record, replace: bool) -> Option<Record> {
        let (left_out, split) = self.root.insert(key, record, replace);
        if let Some((sep, right)) = split {
            let old_root = std::mem::replace(&mut self.root, Node::Leaf(Leaf::default()));
            self.root = Node::Internal(Internal {
                keys: KeyColumn::from_keys(vec![sep]),
                children: vec![old_root, right],
            });
            self.height += 1;
        }
        if left_out.is_none() {
            self.len += 1;
        }
        left_out
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
            let first = chunk[0].0;
            let (keys, values) = chunk.into_iter().unzip();
            let keys = KeyColumn::from_keys(keys);
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
                let first = chunk[0].0;
                let mut keys = Vec::with_capacity(chunk.len().saturating_sub(1));
                let mut children = Vec::with_capacity(chunk.len());
                for (i, (k, n)) in chunk.into_iter().enumerate() {
                    if i > 0 {
                        keys.push(k);
                    }
                    children.push(n);
                }
                let keys = KeyColumn::from_keys(keys);
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
        // Every pair is moved twice below, so a linear scan costs nothing
        // next to it — and node searches stay `KeyColumn`'s alone.
        let at = left.iter().take_while(|(k, _)| k < boundary).count();
        let right = left.split_off(at);
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
        // The stable sort keeps `self`'s pair ahead of `other`'s on an equal
        // key and `dedup_by` drops the later of the two, so swap first: the
        // survivor carries `other`'s record.
        all.sort_by_key(|a| a.0);
        all.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                std::mem::swap(later, kept);
            }
            same
        });
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
    /// rank columns matching their keys, separator correctness, length).
    /// Used by tests.
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
        self.keys.child_index(key)
    }
}

impl Node {
    /// Insert, returning (the record left out of the tree, as
    /// [`BTree::insert_with`] defines it; optional split: (separator, right
    /// sibling)).
    fn insert(
        &mut self,
        key: Key,
        record: Record,
        replace: bool,
    ) -> (Option<Record>, Option<(Key, Node)>) {
        match self {
            Node::Leaf(leaf) => match leaf.keys.insert_slot(&key) {
                Ok(i) if replace => (Some(std::mem::replace(&mut leaf.values[i], record)), None),
                Ok(_) => (Some(record), None),
                Err(i) => {
                    leaf.keys.insert(i, key);
                    reserve_slot(&mut leaf.values, NODE_SLOTS);
                    leaf.values.insert(i, record);
                    if leaf.keys.len() <= ORDER {
                        return (None, None);
                    }
                    let mid = leaf.keys.len() / 2;
                    let right = Leaf {
                        keys: leaf.keys.split_off(mid),
                        values: split_exact(&mut leaf.values, mid),
                    };
                    let sep = right.keys.keys()[0];
                    (None, Some((sep, Node::Leaf(right))))
                }
            },
            Node::Internal(internal) => {
                // `child_index`, with the right-spine shortcut.
                let idx = internal
                    .keys
                    .insert_slot(&key)
                    .map_or_else(|i| i, |i| i + 1);
                let (left_out, split) = internal.children[idx].insert(key, record, replace);
                let Some((sep, right)) = split else {
                    return (left_out, None);
                };
                internal.keys.insert(idx, sep);
                reserve_slot(&mut internal.children, NODE_SLOTS + 1);
                internal.children.insert(idx + 1, right);
                if internal.keys.len() <= ORDER {
                    return (left_out, None);
                }
                // The middle separator moves up; it stays in neither half.
                let mid = internal.keys.len() / 2;
                let mut keys = internal.keys.split_off(mid);
                let sep = keys.remove(0);
                let right = Internal {
                    keys,
                    children: split_exact(&mut internal.children, mid + 1),
                };
                (left_out, Some((sep, Node::Internal(right))))
            }
        }
    }

    /// Lazy removal: delete from the leaf without rebalancing.
    fn remove(&mut self, key: &Key) -> Option<Record> {
        match self {
            Node::Leaf(leaf) => match leaf.keys.search(key) {
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
            Node::Leaf(leaf) => leaf.keys.keys().last(),
            Node::Internal(internal) => internal.children.iter().rev().find_map(Node::max_key),
        }
    }

    /// Move every entry below this node into `out`, in key order.
    fn drain_into(self, out: &mut Vec<(Key, Record)>) {
        match self {
            Node::Leaf(leaf) => out.extend(leaf.keys.into_keys().into_iter().zip(leaf.values)),
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
                leaf.keys.check_invariants()?;
                for k in leaf.keys.keys() {
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
                internal.keys.check_invariants()?;
                let seps = internal.keys.keys();
                for (i, child) in internal.children.iter().enumerate() {
                    let lo = if i == 0 { lower } else { Some(&seps[i - 1]) };
                    let hi = if i == seps.len() {
                        upper
                    } else {
                        Some(&seps[i])
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
                    let idx = from.map_or(0, |f| leaf.keys.lower_bound(f));
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
                    return Some((&leaf.keys.keys()[idx], &leaf.values[idx]));
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
        t.get_mut(&Key::int(5)).unwrap().set(1, &Value::Int(777));
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

    /// `merge_from` keeps its documented side of an overlap: `other`'s.
    #[test]
    fn merge_from_keeps_the_other_trees_record_on_equal_keys() {
        let mut a = BTree::bulk_load((0..100).map(|i| (Key::int(i), rec(i))).collect());
        let b = BTree::bulk_load((50..150).map(|i| (Key::int(i), rec(i + 1_000))).collect());
        a.merge_from(b);
        assert_eq!(a.len(), 150);
        a.check_invariants().unwrap();
        for i in 0..150 {
            let want = if i < 50 { i } else { i + 1_000 };
            assert_eq!(a.get(&Key::int(i)).unwrap().get(0).as_int(), want);
        }
    }

    #[test]
    fn insert_new_leaves_a_present_key_alone() {
        let mut t = BTree::new();
        assert!(t.insert_new(Key::int(1), rec(1)).is_ok());
        let rejected = t.insert_new(Key::int(1), rec(99)).unwrap_err();
        assert_eq!(rejected.get(0).as_int(), 99);
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&Key::int(1)).unwrap().get(0).as_int(), 1);
    }

    /// The nodes of each level, left to right, root level first.
    fn levels(t: &BTree) -> Vec<Vec<&Node>> {
        let mut out = vec![vec![&t.root]];
        while let Some(Node::Internal(_)) = out.last().unwrap().first() {
            let next = out
                .last()
                .unwrap()
                .iter()
                .flat_map(|node| match node {
                    Node::Internal(internal) => internal.children.iter(),
                    Node::Leaf(_) => unreachable!("leaves share one level"),
                })
                .collect();
            out.push(next);
        }
        out
    }

    fn leaf(node: &Node) -> &Leaf {
        match node {
            Node::Leaf(leaf) => leaf,
            Node::Internal(_) => panic!("not a leaf"),
        }
    }

    /// The shape an ascending load builds: every split leaves a half-full
    /// node behind (32 keys, or 33 children) and the right spine holds the
    /// rest.  Heights change where that rule says, and nowhere else.
    #[test]
    fn ascending_inserts_leave_half_full_nodes_left_of_the_right_spine() {
        let cases = [
            (1, 1),
            (64, 1),
            (65, 2),
            (2_080, 2),
            (2_081, 2),
            (2_112, 2),
            (2_113, 3),
            (100_000, 4),
        ];
        for (n, height) in cases {
            let mut t = BTree::new();
            for i in 0..n {
                t.insert(Key::int(i), rec(i));
            }
            assert_eq!(t.height(), height, "n = {n}");
            let levels = levels(&t);
            let (leaves, internals) = levels.split_last().unwrap();
            let (last, rest) = leaves.split_last().unwrap();
            assert!(
                rest.iter().all(|l| leaf(l).keys.len() == ORDER / 2),
                "n = {n}"
            );
            let last_len = leaf(last).keys.len();
            if n <= ORDER as i64 {
                assert_eq!(last_len, n as usize);
            } else {
                assert!(
                    (ORDER / 2 + 1..=ORDER).contains(&last_len),
                    "n = {n}: {last_len}"
                );
            }
            for level in internals {
                let (_, rest) = level.split_last().unwrap();
                assert!(
                    rest.iter().all(|node| match node {
                        Node::Internal(internal) => internal.children.len() == ORDER / 2 + 1,
                        Node::Leaf(_) => false,
                    }),
                    "n = {n}"
                );
            }
        }
    }

    /// The capacity rule, pinned: the half a split leaves behind is trimmed
    /// to its length — an ascending load never touches it again — and only
    /// the right spine's leaf, which the load keeps filling, has spare
    /// slots, at most `NODE_SLOTS` (doubling vectors left about 2.06 slots
    /// per key).
    #[test]
    fn ascending_load_leaves_no_spare_leaf_capacity() {
        let mut t = BTree::new();
        for i in 0..10_000 {
            t.insert(Key::int(i), rec(i));
        }
        let levels = levels(&t);
        let (last, rest) = levels.last().unwrap().split_last().unwrap();
        let caps = |l: &Leaf| {
            [
                l.keys.keys.capacity(),
                l.keys.heads.capacity(),
                l.values.capacity(),
            ]
        };
        for node in rest {
            let l = leaf(node);
            assert_eq!(caps(l), [l.keys.len(); 3]);
        }
        let spine = caps(leaf(last));
        assert!(spine.iter().all(|&c| c <= NODE_SLOTS), "{spine:?}");
    }

    /// 64-bit FNV-1a.
    struct Fnv(u64);

    impl std::hash::Hasher for Fnv {
        fn write(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }

        fn finish(&self) -> u64 {
            self.0
        }
    }

    /// FNV-1a of a tree's shape: `len`, `height`, then every node in
    /// preorder — its separators or keys, a leaf's records, an internal
    /// node's child count.  Everything but vector capacity and the rank
    /// column, which the keys decide.
    fn shape_digest(t: &BTree) -> u64 {
        use std::hash::{Hash, Hasher};
        fn walk(node: &Node, h: &mut Fnv) {
            match node {
                Node::Leaf(leaf) => {
                    h.write_u8(0);
                    leaf.keys.keys().hash(h);
                    for r in &leaf.values {
                        h.write_usize(r.arity());
                        for c in 0..r.arity() {
                            match r.get(c) {
                                Value::Int(v) => (0u8, v).hash(h),
                                Value::Text(s) => (1u8, s).hash(h),
                            }
                        }
                    }
                }
                Node::Internal(internal) => {
                    h.write_u8(1);
                    internal.keys.keys().hash(h);
                    h.write_usize(internal.children.len());
                    for child in &internal.children {
                        walk(child, h);
                    }
                }
            }
        }
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        h.write_usize(t.len);
        h.write_usize(t.height);
        walk(&t.root, &mut h);
        h.finish()
    }

    /// Insert-built shapes, pinned by digests of the same trees built with
    /// a search on every insert: the right-spine shortcut must give every
    /// insert the slot the search gives.
    #[test]
    fn insert_built_shapes_are_pinned() {
        let mut ascending = BTree::new();
        for i in 0..10_000 {
            ascending.insert(Key::int(i), rec(i));
        }

        // Ascending runs, each followed by a rejected and a replacing
        // insert of the current maximum and three pseudo-random keys
        // (mostly below the run, some above it).
        let mut mixed = BTree::new();
        let (mut next, mut x) = (0i64, 0x9e37_79b9_7f4a_7c15u64);
        for round in 0..400 {
            for _ in 0..(round % 7 + 1) * 5 {
                next += 1 + round % 3;
                mixed.insert(Key::int(next), rec(next));
            }
            let max = *mixed.max_key().unwrap();
            assert!(mixed.insert_new(max, rec(-1)).is_err());
            assert!(mixed.insert(max, rec(max.head_int() * 2)).is_some());
            for _ in 0..3 {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let k = (x >> 33) as i64 % (next + 50);
                mixed.insert(Key::int(k), rec(k));
            }
        }
        mixed.check_invariants().unwrap();

        // TPC-C's order pattern: ten districts, each appending its next
        // order id in turn.
        let mut orders = BTree::new();
        for o in 0..1_000 {
            for d in 0..10 {
                orders.insert(Key::ints(&[d, o]), rec(o));
            }
        }
        orders.check_invariants().unwrap();

        assert_eq!(
            [&ascending, &mixed, &orders].map(shape_digest),
            [
                0xc5d2_0c1d_61a0_3dc2,
                0xf427_3f7f_f7cf_665b,
                0x3cd7_1543_aa50_ddde
            ]
        );
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
