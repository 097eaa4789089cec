//! A from-scratch in-memory B+-tree mapping [`Key`]s to rows.
//!
//! This is the physical index structure underlying every table partition.
//! The multi-rooted B-tree of physiological partitioning
//! ([`crate::mrbtree::MrBTree`]) is a collection of these trees, one per
//! logical partition.
//!
//! Design notes:
//! * Classic B+-tree: rows live only in leaves; internal nodes hold
//!   separator keys.
//! * Nodes store what differs, as Shore-MT's slotted pages do: a node keeps
//!   its keys in a [`KeyColumn`] — the components flat, at the tree's key
//!   width — and a leaf keeps all of its rows in one byte block, each in
//!   the [`Record`] layout, with one `u32` end offset per slot and one shape
//!   word for the leaf.  No node holds a [`Key`] or a [`Record`]; readers
//!   get a key by value and a row as a borrowed [`Row`], writers go through
//!   [`RowMut`].  Every key of a tree has one width and every row one
//!   shape (the table's schema); a key or row of another is a bug and
//!   panics.
//! * A column of keys two or more components wide also keeps a packed
//!   column of 8-byte order-preserving prefixes ([`Key::head_rank`]).  A
//!   probe binary-searches that column and finishes with full key compares
//!   only where prefixes tie — Graefe & Larson's "poor man's normalized
//!   keys" (*B-tree indexes and CPU caches*, ICDE 2001).  A column of
//!   one-integer keys is its own rank column and never compares whole keys.
//! * An insert above the last key of the rightmost leaf — every row of an
//!   ascending load — walks the right spine by last child and appends to
//!   that leaf with one compare, as PostgreSQL's nbtree "fastpath" for
//!   rightmost-leaf inserts does.  It is the slot a search would find, so
//!   it builds the very tree the general path builds.  Any other insert —
//!   into a lazily emptied rightmost leaf, one the insert splits, or below
//!   the maximum — takes the general path, a recursive descent that hands
//!   splits up.  That path, too, takes a node's last slot or child without
//!   a search when the key is above its last key; an equal key still
//!   searches, so duplicates are found as before.
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
//!   ATraPos repartitioning actions (paper §V-D).  Both rebuild by copying
//!   row bytes from leaf to leaf, with no allocation per row.

use crate::record::{write_cell, Key, Record, Row, Value};
use std::cmp::Ordering;
use std::ops::Range;

/// Maximum number of keys in a node.
const ORDER: usize = 64;

/// Slots a node's key and value vectors grow to: `ORDER` keys plus the one
/// whose insert triggers the split.
const NODE_SLOTS: usize = ORDER + 1;

/// A B+-tree from [`Key`] to rows.
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

/// A leaf: its keys, and its rows in one block.
#[derive(Debug, Clone, Default)]
struct Leaf {
    keys: KeyColumn,
    /// The rows in slot order, back to back, each in the [`Record`] layout.
    rows: Vec<u8>,
    /// `ends[i]` is where slot `i`'s row ends in `rows`; it starts where
    /// slot `i - 1`'s ends (slot 0 at 0).
    ends: Vec<u32>,
    /// The shape word every row of the leaf shares.
    shape: u64,
}

#[derive(Debug, Clone)]
struct Internal {
    /// Separator keys; `children[i]` holds keys `< keys[i]`,
    /// `children[i+1]` holds keys `>= keys[i]`.
    keys: KeyColumn,
    children: Vec<Node>,
}

/// The sorted keys of one node, stored flat at the node's key width, with
/// a parallel packed column of their [`Key::head_rank`]s when the keys
/// have two or more components.
///
/// A node's 64 one-integer keys span 8 cache lines, and their integers
/// order them exactly: the search is a binary search over the `i64`s.
/// Wider keys span more, so searches run on the ranks and go to the keys
/// only for the run of slots whose rank equals the probe's.  Ranks are
/// *weakly* monotone in the keys (`a <= b` implies `rank(a) <= rank(b)`):
/// a smaller or larger rank decides the order, an equal rank decides
/// nothing, so equality — and the order inside a run of ties — always
/// comes from full key compares.  For keys of two in-range integers every
/// rank is unique and a search costs at most one full compare; a node
/// whose keys all tie (TPC-C order lines sharing `(w_id, d_id)`) searches
/// the keys directly.
///
/// Probes may have any width: a range bound shorter than the stored keys
/// orders before every key it is a prefix of.
#[derive(Debug, Clone, Default)]
pub struct KeyColumn {
    /// Components per key, fixed by the first key (0 while there is none).
    width: usize,
    /// The keys' components, `width` per key, in key order.
    comps: Vec<i64>,
    /// `heads[i]` is key `i`'s `head_rank()` when `width >= 2`; empty for
    /// narrower columns.
    heads: Vec<i64>,
}

#[cfg(test)]
thread_local! {
    /// Full key compares the current thread's node searches have made
    /// (pins the point-probe cost with a deterministic count).
    pub(crate) static FULL_COMPARES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// The one place a node search compares whole keys, given as their
/// components.
#[inline]
fn full_cmp(a: &[i64], b: &[i64]) -> Ordering {
    #[cfg(test)]
    FULL_COMPARES.with(|n| n.set(n.get() + 1));
    a.cmp(b)
}

/// The slots of a weakly monotone rank column whose rank equals `rank`.
/// Every key before the run is smaller than the probe and every key after
/// it is greater, so a search only has to compare keys inside it.
#[inline]
fn rank_run(heads: &[i64], rank: i64) -> Range<usize> {
    // All ranks tie (or the column is empty): it narrows nothing.
    if heads.first() == heads.last() {
        return 0..heads.len();
    }
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

/// The node search over sorted keys with rank column `heads`: `cmp(i)`
/// orders key `i` against a probe of rank `rank`.  `Ok` is the slot that
/// compares equal, `Err` the first slot that compares greater.  Node
/// columns and a range partitioning's bounds both search through here.
#[inline]
fn ranked_search(
    heads: &[i64],
    rank: i64,
    cmp: impl Fn(usize) -> Ordering,
) -> Result<usize, usize> {
    let Range { start, end } = rank_run(heads, rank);
    let (mut lo, mut hi) = (start, end);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        match cmp(mid) {
            Ordering::Less => lo = mid + 1,
            Ordering::Greater => hi = mid,
            Ordering::Equal => return Ok(mid),
        }
    }
    Err(lo)
}

/// Make room for `need` more elements of a node vector that holds at most
/// `most`: grow straight to `most`, never by doubling.
#[inline]
fn reserve_slots<T>(v: &mut Vec<T>, need: usize, most: usize) {
    if v.capacity() - v.len() < need {
        v.reserve_exact(most.saturating_sub(v.len()).max(need));
    }
}

/// Insert `src` into `v` at `at`: an append, and one move of the tail if
/// there is one.
#[inline]
fn insert_slice<T: Copy>(v: &mut Vec<T>, at: usize, src: &[T]) {
    let tail = v.len() > at;
    v.extend_from_slice(src);
    if tail {
        v[at..].rotate_right(src.len());
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
    /// An empty column with room for exactly `n` keys of `width`
    /// components.
    fn with_capacity(width: usize, n: usize) -> Self {
        Self {
            width,
            comps: Vec::with_capacity(width * n),
            heads: Vec::with_capacity(if width >= 2 { n } else { 0 }),
        }
    }

    /// Number of keys.
    #[inline]
    fn len(&self) -> usize {
        if self.width >= 2 {
            self.heads.len()
        } else {
            self.comps.len()
        }
    }

    /// The components of key `i`.
    #[inline]
    fn comps_at(&self, i: usize) -> &[i64] {
        &self.comps[i * self.width..(i + 1) * self.width]
    }

    /// Key `i`.
    #[inline]
    fn key(&self, i: usize) -> Key {
        Key::ints(self.comps_at(i))
    }

    /// The keys, in order.
    pub fn keys(&self) -> impl ExactSizeIterator<Item = Key> + '_ {
        self.comps.chunks_exact(self.width.max(1)).map(Key::ints)
    }

    /// The last key.
    fn last(&self) -> Option<Key> {
        self.len().checked_sub(1).map(|i| self.key(i))
    }

    /// Panic unless `key` has the column's width; the first key sets it.
    #[inline]
    fn adopt_width(&mut self, key: &Key) {
        if self.width == 0 {
            self.width = key.len();
        }
        assert_eq!(
            key.len(),
            self.width,
            "a node column of {}-component keys got the key {key}",
            self.width
        );
    }

    /// Search for `probe`, ordering a key equal to it as `on_equal` says:
    /// `Equal` finds it (`Ok`), `Greater` stops before it and `Less` steps
    /// past it (both `Err`).
    // Once per node on every descent.
    // lint: hot-path
    #[inline]
    fn find(&self, probe: &Key, on_equal: Ordering) -> Result<usize, usize> {
        if self.width == 1 {
            // One-integer keys order exactly by their integer.  A longer
            // probe with the same head orders after the key it extends.
            let head = probe.head_int();
            let i = self.comps.partition_point(|&k| k < head);
            if self.comps.get(i) != Some(&head) {
                return Err(i);
            }
            return match if probe.len() > 1 {
                Ordering::Less
            } else {
                on_equal
            } {
                Ordering::Less => Err(i + 1),
                Ordering::Equal => Ok(i),
                Ordering::Greater => Err(i),
            };
        }
        let probe_comps = probe.comps();
        ranked_search(&self.heads, probe.head_rank(), |i| {
            full_cmp(self.comps_at(i), probe_comps).then(on_equal)
        })
    }

    /// `<[Key]>::binary_search`: the slot holding `probe`, or the slot it
    /// would be inserted at.
    #[inline]
    pub fn search(&self, probe: &Key) -> Result<usize, usize> {
        self.find(probe, Ordering::Equal)
    }

    /// The number of keys `<= probe`: the child of an internal node that
    /// may hold `probe`.
    #[inline]
    fn child_index(&self, probe: &Key) -> usize {
        self.find(probe, Ordering::Less).unwrap_or_else(|i| i)
    }

    /// The first slot whose key is `>= probe` (which may be shorter than
    /// the stored keys: a range bound).
    // Once per node on every cursor descent.
    // lint: hot-path
    #[inline]
    pub fn lower_bound(&self, probe: &Key) -> usize {
        self.find(probe, Ordering::Greater).unwrap_or_else(|i| i)
    }

    /// Insert `key` at slot `i` (as returned by a failed [`Self::search`]).
    pub fn insert(&mut self, i: usize, key: Key) {
        self.adopt_width(&key);
        let w = self.width;
        reserve_slots(&mut self.comps, w, NODE_SLOTS * w);
        insert_slice(&mut self.comps, i * w, key.comps());
        if w >= 2 {
            reserve_slots(&mut self.heads, 1, NODE_SLOTS);
            self.heads.insert(i, key.head_rank());
        }
    }

    /// Append `key`, which must sort after every key of the column, into
    /// room the column already has.
    fn push(&mut self, key: Key) {
        self.adopt_width(&key);
        self.comps.extend_from_slice(key.comps());
        if self.width >= 2 {
            self.heads.push(key.head_rank());
        }
    }

    /// Remove and return the key at slot `i`.
    pub fn remove(&mut self, i: usize) -> Key {
        let key = self.key(i);
        self.comps.drain(i * self.width..(i + 1) * self.width);
        if self.width >= 2 {
            self.heads.remove(i);
        }
        key
    }

    /// [`Self::search`] for an insert: a probe above the last key — an
    /// ascending load's insert that the append arm left to the general
    /// path, such as one that splits the rightmost leaf — goes to the end
    /// without a search.
    #[inline]
    fn insert_slot(&self, probe: &Key) -> Result<usize, usize> {
        let n = self.len();
        if n > 0 && probe.comps() > self.comps_at(n - 1) {
            return Err(n);
        }
        self.search(probe)
    }

    /// Move the keys from slot `mid` on into a new column.
    pub fn split_off(&mut self, mid: usize) -> KeyColumn {
        let heads = if self.width >= 2 {
            split_exact(&mut self.heads, mid)
        } else {
            Vec::new()
        };
        KeyColumn {
            width: self.width,
            comps: split_exact(&mut self.comps, mid * self.width),
            heads,
        }
    }

    /// Verify that the keys share one width, are strictly increasing, and
    /// that the rank column matches them.
    pub fn check_invariants(&self) -> Result<(), String> {
        let w = self.width;
        if w > crate::record::MAX_KEY_COMPONENTS || (w == 0 && !self.comps.is_empty()) {
            return Err(format!("node column of {w}-component keys"));
        }
        if self.comps.len() != w * self.len() {
            return Err(format!(
                "node column holds {} components for {} keys of width {w}",
                self.comps.len(),
                self.len()
            ));
        }
        let keys: Vec<Key> = self.keys().collect();
        if let Some(k) = keys.windows(2).find(|k| k[0] >= k[1]) {
            return Err(format!("node keys out of order: {} >= {}", k[0], k[1]));
        }
        let heads: Vec<i64> = if w >= 2 {
            keys.iter().map(Key::head_rank).collect()
        } else {
            Vec::new()
        };
        if heads != self.heads {
            return Err("rank column does not match the node's keys".into());
        }
        Ok(())
    }
}

/// Sorted whole keys of any widths, with their rank column: the lower
/// bounds of a range partitioning, which may be shorter than the table's
/// keys and change width from split to split.  They search like a node
/// column, through the same code; bounds that are all one integer wide
/// search their integers, as a column of one-integer keys does.
#[derive(Debug, Clone)]
pub(crate) struct Bounds {
    keys: Vec<Key>,
    /// `heads[i]` is `keys[i]`'s integer when every bound is one integer
    /// wide (`ints`), and its `head_rank()` otherwise.
    heads: Vec<i64>,
    ints: bool,
}

impl Bounds {
    /// Bounds over `keys`, which must be strictly increasing.
    pub(crate) fn new(keys: Vec<Key>) -> Self {
        let (ints, heads) = Self::heads_of(&keys);
        Self { keys, heads, ints }
    }

    /// What [`Self::index`] sets `ints` and `heads` to.
    fn heads_of(keys: &[Key]) -> (bool, Vec<i64>) {
        let ints = keys.iter().all(|k| k.len() == 1);
        let head: fn(&Key) -> i64 = if ints { Key::head_int } else { Key::head_rank };
        (ints, keys.iter().map(head).collect())
    }

    /// Recompute the search columns from the keys (tens of them, and only
    /// when a partitioning changes).
    fn index(&mut self) {
        (self.ints, self.heads) = Self::heads_of(&self.keys);
    }

    /// The bounds, in order.
    pub(crate) fn keys(&self) -> &[Key] {
        &self.keys
    }

    /// The number of bounds `<= probe`: the range partition that owns it.
    // Once per routed action and per loaded row of a partitioned table.
    // lint: hot-path
    #[inline]
    pub(crate) fn count_le(&self, probe: &Key) -> usize {
        if self.ints {
            // A one-integer bound is `<=` every probe its integer does not
            // exceed: a longer probe with the same head extends it.
            let head = probe.head_int();
            return self.heads.partition_point(|&b| b <= head);
        }
        let comps = probe.comps();
        ranked_search(&self.heads, probe.head_rank(), |i| {
            full_cmp(self.keys[i].comps(), comps).then(Ordering::Less)
        })
        .unwrap_or_else(|i| i)
    }

    /// Insert `key` at slot `i`.
    pub(crate) fn insert(&mut self, i: usize, key: Key) {
        self.keys.insert(i, key);
        self.index();
    }

    /// Remove the bound at slot `i`.
    pub(crate) fn remove(&mut self, i: usize) {
        self.keys.remove(i);
        self.index();
    }

    /// Verify that the bounds are strictly increasing and the search
    /// columns match them.
    pub(crate) fn check_invariants(&self) -> Result<(), String> {
        if let Some(w) = self.keys.windows(2).find(|w| w[0] >= w[1]) {
            return Err(format!("bounds out of order: {} >= {}", w[0], w[1]));
        }
        if Self::heads_of(&self.keys) != (self.ints, self.heads.clone()) {
            return Err("search columns do not match the bounds".into());
        }
        Ok(())
    }
}

impl Leaf {
    /// An empty leaf with room for exactly `n` keys of `width` components
    /// and `bytes` bytes of rows of shape `shape`.
    fn with_capacity(width: usize, n: usize, bytes: usize, shape: u64) -> Self {
        Self {
            keys: KeyColumn::with_capacity(width, n),
            rows: Vec::with_capacity(bytes),
            ends: Vec::with_capacity(n),
            shape,
        }
    }

    /// Number of rows.
    #[inline]
    fn len(&self) -> usize {
        self.ends.len()
    }

    /// Where slot `i`'s row lies in `rows`.
    #[inline]
    fn span(&self, i: usize) -> Range<usize> {
        self.span_start(i)..self.ends[i] as usize
    }

    /// Where slot `i`'s row starts (the end of the block for `i == len`).
    #[inline]
    fn span_start(&self, i: usize) -> usize {
        i.checked_sub(1).map_or(0, |p| self.ends[p] as usize)
    }

    /// The row in slot `i`.
    #[inline]
    fn row(&self, i: usize) -> Row<'_> {
        Row::from_parts(&self.rows[self.span(i)], self.shape)
    }

    /// Panic unless `row` has the leaf's shape; an empty leaf takes it.
    #[inline]
    fn adopt_shape(&mut self, row: Row<'_>) {
        if self.ends.is_empty() {
            self.shape = row.shape();
        }
        assert_eq!(
            row.shape(),
            self.shape,
            "a leaf of rows of shape {:#x} got a row of shape {:#x}",
            self.shape,
            row.shape()
        );
    }

    /// Shift the end offsets of slots `from..` by `delta` bytes.
    fn shift_ends(&mut self, from: usize, delta: isize) {
        for end in &mut self.ends[from..] {
            *end = end.wrapping_add_signed(delta as i32);
        }
    }

    /// Panic unless the row bytes still fit the `u32` offsets.
    fn check_block(&self) {
        assert!(
            u32::try_from(self.rows.len()).is_ok(),
            "a leaf holds under 4 GiB of rows"
        );
    }

    /// Insert `key` and `row` at slot `i`.
    fn insert(&mut self, i: usize, key: Key, row: Row<'_>) {
        self.adopt_shape(row);
        self.keys.insert(i, key);
        let bytes = row.bytes();
        // Room for the rest of the node's slots at this row's size.
        let most = NODE_SLOTS.saturating_sub(self.len()) * bytes.len() + self.rows.len();
        reserve_slots(&mut self.rows, bytes.len(), most);
        let at = self.span_start(i);
        insert_slice(&mut self.rows, at, bytes);
        self.check_block();
        reserve_slots(&mut self.ends, 1, NODE_SLOTS);
        self.ends.insert(i, (at + bytes.len()) as u32);
        self.shift_ends(i + 1, bytes.len() as isize);
    }

    /// Append `key` and `row` if `key` sorts after the leaf's last key and
    /// the leaf takes one more slot without a split.  Whether it did.
    #[inline]
    fn try_append(&mut self, key: Key, row: Row<'_>) -> bool {
        let n = self.len();
        if n == 0 || n >= ORDER || key.comps() <= self.keys.comps_at(n - 1) {
            return false;
        }
        self.insert(n, key, row);
        true
    }

    /// Replace the row in slot `i` with `row`, returning the old one.
    fn replace(&mut self, i: usize, row: Row<'_>) -> Record {
        self.adopt_shape(row);
        let old = self.row(i).to_record();
        let span = self.span(i);
        let delta = row.bytes().len() as isize - span.len() as isize;
        if delta > 0 {
            self.rows.reserve_exact(delta as usize);
        }
        self.rows.splice(span, row.bytes().iter().copied());
        self.check_block();
        self.shift_ends(i, delta);
        old
    }

    /// Remove slot `i`, returning its key's row.
    fn remove(&mut self, i: usize) -> Record {
        let span = self.span(i);
        let old = self.row(i).to_record();
        self.keys.remove(i);
        self.rows.drain(span.clone());
        self.ends.remove(i);
        self.shift_ends(i, -(span.len() as isize));
        old
    }

    /// Overwrite column `col` of the row in slot `i`.
    fn write(&mut self, i: usize, col: usize, v: &Value) {
        let at = self.span_start(i);
        let delta = write_cell(&mut self.rows, at, self.shape, col, v);
        if delta != 0 {
            self.check_block();
            self.shift_ends(i, delta);
        }
    }

    /// Move the slots from `mid` on into a new leaf.
    fn split_off(&mut self, mid: usize) -> Leaf {
        let cut = self.span_start(mid);
        let mut right = Leaf {
            keys: self.keys.split_off(mid),
            rows: split_exact(&mut self.rows, cut),
            ends: split_exact(&mut self.ends, mid),
            shape: self.shape,
        };
        right.shift_ends(0, -(cut as isize));
        right
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
    pub fn get(&self, key: &Key) -> Option<Row<'_>> {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf(leaf) => {
                    return leaf.keys.search(key).ok().map(|i| leaf.row(i));
                }
                Node::Internal(internal) => {
                    node = &internal.children[internal.keys.child_index(key)];
                }
            }
        }
    }

    /// Look up a key for writing.
    // One per simulated update / increment action.
    // lint: hot-path
    pub fn get_mut(&mut self, key: &Key) -> Option<RowMut<'_>> {
        let mut node = &mut self.root;
        loop {
            match node {
                Node::Leaf(leaf) => {
                    return match leaf.keys.search(key) {
                        Ok(slot) => Some(RowMut { leaf, slot }),
                        Err(_) => None,
                    };
                }
                Node::Internal(internal) => {
                    let idx = internal.keys.child_index(key);
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
        self.insert_row(key, record.row(), true).flatten()
    }

    /// Insert a key/record pair unless the key is already present: a
    /// present key leaves the tree untouched and hands `record` back.
    pub fn insert_new(&mut self, key: Key, record: Record) -> Result<(), Record> {
        match self.insert_row(key, record.row(), false) {
            None => Ok(()),
            Some(_) => Err(record),
        }
    }

    /// Copy `row` in under `key` unless the key is already present (which
    /// leaves the tree untouched).  Whether the row went in.
    pub fn insert_new_row(&mut self, key: Key, row: Row<'_>) -> bool {
        self.insert_row(key, row, false).is_none()
    }

    /// Copy `row` in under `key`; on a present key either replace its row
    /// or leave it.  `None` for a new key; for a present one, the displaced
    /// record when replacing.  A key the rightmost leaf can append is
    /// appended there without a descent; every other insert descends.
    fn insert_row(&mut self, key: Key, row: Row<'_>, replace: bool) -> Option<Option<Record>> {
        if self.root.rightmost_leaf().try_append(key, row) {
            self.len += 1;
            return None;
        }
        let split = match self.root.insert(key, row, replace) {
            Inserted::Present(displaced) => return Some(displaced),
            Inserted::New(split) => split,
        };
        if let Some((sep, right)) = split {
            let old_root = std::mem::replace(&mut self.root, Node::Leaf(Leaf::default()));
            let mut keys = KeyColumn::with_capacity(sep.len(), 1);
            keys.push(sep);
            self.root = Node::Internal(Internal {
                keys,
                children: vec![old_root, right],
            });
            self.height += 1;
        }
        self.len += 1;
        None
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
    pub fn min_key(&self) -> Option<Key> {
        self.iter().next().map(|(k, _)| k)
    }

    /// Largest key in the tree: a rightmost descent that steps back over
    /// lazily emptied leaves.
    pub fn max_key(&self) -> Option<Key> {
        self.root.max_key()
    }

    /// In-order iterator over `(key, row)` pairs.
    pub fn iter(&self) -> Iter<'_> {
        Iter::new(&self.root, None, None)
    }

    /// Lazy in-order cursor over the entries whose keys are in `[from, to)`
    /// (`None` bounds are unbounded): one descent to the leaf holding
    /// `from`, then a leaf-to-leaf walk that stops at the first key
    /// `>= to` — O(height + entries yielded), wherever the range starts.
    pub fn range_iter(&self, from: Option<&Key>, to: Option<&Key>) -> Iter<'_> {
        Iter::new(&self.root, from, to.copied())
    }

    /// Build a tree from key-sorted, duplicate-free pairs.
    pub fn bulk_load(pairs: Vec<(Key, Record)>) -> Self {
        debug_assert!(
            pairs.windows(2).all(|w| w[0].0 < w[1].0),
            "bulk_load requires sorted unique keys"
        );
        Self::build(pairs.iter().map(|(k, r)| (*k, r.row())))
    }

    /// Build a tree from key-sorted, duplicate-free entries, copying each
    /// row's bytes into its leaf's block.  Every leaf and internal node is
    /// filled to ~3/4 of capacity and every node vector is exact-size; the
    /// one scratch buffer serves every leaf.
    fn build<'r>(entries: impl Iterator<Item = (Key, Row<'r>)>) -> Self {
        let per_leaf = ORDER * 3 / 4;
        let mut entries = entries.peekable();
        let mut chunk: Vec<(Key, Row<'r>)> = Vec::with_capacity(per_leaf);
        let mut level: Vec<(Key, Node)> = Vec::new();
        let mut len = 0;
        while entries.peek().is_some() {
            chunk.clear();
            chunk.extend(entries.by_ref().take(per_leaf));
            let (first, row) = chunk[0];
            let bytes = chunk.iter().map(|(_, r)| r.bytes().len()).sum();
            let mut leaf = Leaf::with_capacity(first.len(), chunk.len(), bytes, row.shape());
            for &(key, row) in &chunk {
                leaf.adopt_shape(row);
                leaf.keys.push(key);
                leaf.rows.extend_from_slice(row.bytes());
                leaf.check_block();
                leaf.ends.push(leaf.rows.len() as u32);
            }
            len += chunk.len();
            level.push((first, Node::Leaf(leaf)));
        }
        if level.is_empty() {
            return Self::new();
        }
        // Build internal levels bottom-up.
        let mut height = 1;
        while level.len() > 1 {
            height += 1;
            let per_node = (ORDER * 3 / 4).max(2);
            let mut next = Vec::with_capacity(level.len() / (per_node + 1) + 1);
            let mut it = level.into_iter().peekable();
            while it.peek().is_some() {
                let chunk: Vec<(Key, Node)> = it.by_ref().take(per_node + 1).collect();
                let first = chunk[0].0;
                let mut keys = KeyColumn::with_capacity(first.len(), chunk.len() - 1);
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
        let root = level.pop().map(|(_, n)| n).expect("one root");
        Self { root, len, height }
    }

    /// Split the tree at `boundary`: entries with keys `>= boundary` are
    /// removed from `self` and returned as a new tree.  This is the physical
    /// *split* repartitioning action.
    pub fn split_off(&mut self, boundary: &Key) -> BTree {
        let old = std::mem::take(self);
        *self = BTree::build(old.range_iter(None, Some(boundary)));
        BTree::build(old.range_iter(Some(boundary), None))
    }

    /// Merge all entries of `other` into `self`.  This is the physical
    /// *merge* repartitioning action.  Keys of `other` overwrite equal keys
    /// in `self` (the caller guarantees disjoint ranges in normal
    /// operation).
    pub fn merge_from(&mut self, other: BTree) {
        // When the ranges are disjoint and adjacent, a rebuild keeps the
        // result compact; otherwise plain inserts would work too.
        let mine = std::mem::take(self);
        let (mut a, mut b) = (mine.iter().peekable(), other.iter().peekable());
        let merged = std::iter::from_fn(|| {
            let order = match (a.peek(), b.peek()) {
                (Some((ka, _)), Some((kb, _))) => ka.cmp(kb),
                (Some(_), None) => Ordering::Less,
                (None, _) => Ordering::Greater,
            };
            match order {
                Ordering::Less => a.next(),
                Ordering::Greater => b.next(),
                Ordering::Equal => {
                    a.next();
                    b.next()
                }
            }
        });
        *self = BTree::build(merged);
    }

    /// Verify the B+-tree structural invariants (key order and width
    /// within nodes, rank columns matching their keys, one row shape per
    /// leaf, separator correctness, length).  Used by tests.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut count = 0usize;
        let mut last: Option<Key> = None;
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

    /// Heap bytes of the tree's nodes: every node vector's capacity times
    /// its element size.
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        self.root.heap_bytes()
    }
}

/// A row of a leaf, open for writing: the one path updates take.
pub struct RowMut<'a> {
    leaf: &'a mut Leaf,
    slot: usize,
}

impl RowMut<'_> {
    /// The row as it stands.
    pub fn row(&self) -> Row<'_> {
        self.leaf.row(self.slot)
    }

    /// Integer in column `i`, or `None` on a text column.
    #[inline]
    pub fn int(&self, i: usize) -> Option<i64> {
        self.row().int(i)
    }

    /// Overwrite column `i` with `v`, which must have the column's type:
    /// an integer in place, a text by re-splicing the row in its leaf.
    // lint: hot-path
    #[inline]
    pub fn set(&mut self, i: usize, v: &Value) {
        self.leaf.write(self.slot, i, v);
    }
}

/// What [`Node::insert`] did.
enum Inserted {
    /// The key was present: the displaced record when replacing, `None`
    /// when the tree was left alone.
    Present(Option<Record>),
    /// The key went in; a split hands up (separator, right sibling).
    New(Option<(Key, Node)>),
}

impl Node {
    /// Insert `row` under `key`, replacing a present key's row or leaving
    /// it.
    fn insert(&mut self, key: Key, row: Row<'_>, replace: bool) -> Inserted {
        match self {
            Node::Leaf(leaf) => match leaf.keys.insert_slot(&key) {
                Ok(i) if replace => Inserted::Present(Some(leaf.replace(i, row))),
                Ok(_) => Inserted::Present(None),
                Err(i) => {
                    leaf.insert(i, key, row);
                    if leaf.len() <= ORDER {
                        return Inserted::New(None);
                    }
                    let right = leaf.split_off(leaf.len() / 2);
                    let sep = right.keys.key(0);
                    Inserted::New(Some((sep, Node::Leaf(right))))
                }
            },
            Node::Internal(internal) => {
                // `child_index`, with the right-spine shortcut.
                let idx = internal
                    .keys
                    .insert_slot(&key)
                    .map_or_else(|i| i, |i| i + 1);
                let split = match internal.children[idx].insert(key, row, replace) {
                    Inserted::New(Some(split)) => split,
                    done => return done,
                };
                let (sep, right) = split;
                internal.keys.insert(idx, sep);
                reserve_slots(&mut internal.children, 1, NODE_SLOTS + 1);
                internal.children.insert(idx + 1, right);
                if internal.keys.len() <= ORDER {
                    return Inserted::New(None);
                }
                // The middle separator moves up; it stays in neither half.
                let mid = internal.keys.len() / 2;
                let mut keys = internal.keys.split_off(mid);
                let sep = keys.remove(0);
                let right = Internal {
                    keys,
                    children: split_exact(&mut internal.children, mid + 1),
                };
                Inserted::New(Some((sep, Node::Internal(right))))
            }
        }
    }

    /// The last leaf below this node: the end of the right spine.
    #[inline]
    fn rightmost_leaf(&mut self) -> &mut Leaf {
        let mut node = self;
        loop {
            match node {
                Node::Leaf(leaf) => return leaf,
                Node::Internal(internal) => {
                    node = internal
                        .children
                        .last_mut()
                        .expect("an internal node has children");
                }
            }
        }
    }

    /// Lazy removal: delete from the leaf without rebalancing.
    fn remove(&mut self, key: &Key) -> Option<Record> {
        match self {
            Node::Leaf(leaf) => leaf.keys.search(key).ok().map(|i| leaf.remove(i)),
            Node::Internal(internal) => {
                let idx = internal.keys.child_index(key);
                internal.children[idx].remove(key)
            }
        }
    }

    /// Largest key below this node, skipping lazily emptied leaves.
    fn max_key(&self) -> Option<Key> {
        match self {
            Node::Leaf(leaf) => leaf.keys.last(),
            Node::Internal(internal) => internal.children.iter().rev().find_map(Node::max_key),
        }
    }

    /// Check node-local invariants recursively.
    fn check(&self, lower: Option<&Key>, upper: Option<&Key>) -> Result<(), String> {
        match self {
            Node::Leaf(leaf) => {
                if leaf.keys.len() != leaf.len() {
                    return Err("leaf keys/rows length mismatch".into());
                }
                leaf.keys.check_invariants()?;
                let ordered = leaf.ends.windows(2).all(|w| w[0] <= w[1]);
                if !ordered || leaf.ends.last().map_or(0, |&e| e as usize) != leaf.rows.len() {
                    return Err("leaf row offsets do not tile its block".into());
                }
                for (i, k) in leaf.keys.keys().enumerate() {
                    let row = leaf.row(i);
                    if row.bytes().len() < 8 * row.arity() {
                        return Err(format!("leaf row under key {k} is shorter than its cells"));
                    }
                    if lower.is_some_and(|lo| k < *lo) {
                        return Err(format!("leaf key {k} below lower bound"));
                    }
                    if upper.is_some_and(|hi| k >= *hi) {
                        return Err(format!("leaf key {k} not below upper bound"));
                    }
                }
                Ok(())
            }
            Node::Internal(internal) => {
                if internal.children.len() != internal.keys.len() + 1 {
                    return Err("internal children/keys arity mismatch".into());
                }
                internal.keys.check_invariants()?;
                let seps: Vec<Key> = internal.keys.keys().collect();
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

    /// Heap bytes of the vectors of this node and every node below it.
    #[cfg(test)]
    fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let column = |k: &KeyColumn| (k.comps.capacity() + k.heads.capacity()) * size_of::<i64>();
        match self {
            Node::Leaf(leaf) => {
                column(&leaf.keys) + leaf.rows.capacity() + leaf.ends.capacity() * size_of::<u32>()
            }
            Node::Internal(internal) => {
                column(&internal.keys)
                    + internal.children.capacity() * size_of::<Node>()
                    + internal
                        .children
                        .iter()
                        .map(Node::heap_bytes)
                        .sum::<usize>()
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
    /// The exclusive upper bound (`None` = unbounded), compared on the
    /// slot's components before its key is built.
    to: Option<Key>,
}

#[cfg(test)]
thread_local! {
    /// Nodes the current thread's cursors have descended into (pins the
    /// scan complexity with a deterministic count instead of a wall clock).
    pub(crate) static NODE_VISITS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl<'a> Iter<'a> {
    /// A cursor at the first entry with key `>= from` (the very first entry
    /// when `from` is `None`) that ends before the first key `>= to`.
    fn new(root: &'a Node, from: Option<&Key>, to: Option<Key>) -> Self {
        let mut it = Iter {
            stack: Vec::new(),
            leaf: None,
            to,
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
                    let idx = from.map_or(0, |f| internal.keys.child_index(f));
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

impl<'a> Iter<'a> {
    /// The next slot in key order below the upper bound: its leaf and
    /// index.
    #[inline]
    fn next_slot(&mut self) -> Option<(&'a Leaf, usize)> {
        loop {
            match self.leaf {
                Some((leaf, idx)) if idx < leaf.len() => {
                    if self
                        .to
                        .is_some_and(|to| leaf.keys.comps_at(idx) >= to.comps())
                    {
                        self.leaf = None;
                        return None;
                    }
                    self.leaf = Some((leaf, idx + 1));
                    return Some((leaf, idx));
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

    /// The rows alone: no key is built.
    pub fn rows(self) -> Rows<'a> {
        Rows(self)
    }
}

impl<'a> Iterator for Iter<'a> {
    type Item = (Key, Row<'a>);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        self.next_slot()
            .map(|(leaf, idx)| (leaf.keys.key(idx), leaf.row(idx)))
    }
}

/// The rows of an [`Iter`], in key order.
pub struct Rows<'a>(Iter<'a>);

impl<'a> Iterator for Rows<'a> {
    type Item = Row<'a>;

    #[inline]
    fn next(&mut self) -> Option<Row<'a>> {
        self.0.next_slot().map(|(leaf, idx)| leaf.row(idx))
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
    /// per key).  A column of one-integer keys keeps no rank column.
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
                l.keys.comps.capacity(),
                l.ends.capacity(),
                l.rows.capacity() / 16,
                l.keys.heads.capacity(),
            ]
        };
        for node in rest {
            let l = leaf(node);
            assert_eq!(caps(l), [l.len(), l.len(), l.len(), 0]);
        }
        let spine = caps(leaf(last));
        assert!(spine[..3].iter().all(|&c| c <= NODE_SLOTS), "{spine:?}");
        assert_eq!(spine[3], 0);
    }

    /// Memory, pinned by a count: 200 k ascending five-integer rows under
    /// one-integer keys cost at most 58 heap bytes each — 8 of key, 40 of
    /// row, 4 of end offset, and the node structs their parents hold —
    /// where a leaf of `Key`s and `Record`s cost over 120.
    #[test]
    fn ascending_five_int_rows_cost_at_most_58_bytes_each() {
        const ROWS: i64 = 200_000;
        let mut t = BTree::new();
        for i in 0..ROWS {
            t.insert(Key::int(i), Record::ints(&[i, i, i, i, i]));
        }
        let per_row = t.heap_bytes() as f64 / ROWS as f64;
        assert!(per_row <= 58.0, "{per_row:.2} B per row");
    }

    /// A key of another width than the tree's is a bug, named as one.
    #[test]
    #[should_panic(expected = "a node column of 1-component keys got the key (1,2)")]
    fn a_key_of_another_width_panics() {
        let mut t = BTree::new();
        t.insert(Key::int(1), rec(1));
        t.insert(Key::ints(&[1, 2]), rec(2));
    }

    /// So is a row of another shape than the leaf's.
    #[test]
    #[should_panic(expected = "a leaf of rows of shape")]
    fn a_row_of_another_shape_panics() {
        let mut t = BTree::new();
        t.insert(Key::int(1), rec(1));
        t.insert(Key::int(2), Record::ints(&[2]));
    }

    /// Text writes re-splice the slot's bytes in the leaf's block: a text
    /// that grows, shrinks or empties moves the rows behind it and the
    /// later text column of its own row, and leaves the other rows alone.
    #[test]
    fn text_writes_resplice_the_leaf_block() {
        let row = |i: i64, a: &str, b: &str| {
            Record::new(vec![
                Value::Int(i),
                Value::from(a),
                Value::Int(-i),
                Value::from(b),
            ])
        };
        let mut t = BTree::new();
        for i in 0..40 {
            t.insert(Key::int(i), row(i, "ab", "cd"));
        }
        for (i, a) in [(3, "a much longer text"), (4, ""), (5, "ü"), (39, "tail")] {
            t.get_mut(&Key::int(i)).unwrap().set(1, &Value::from(a));
            assert_eq!(t.get(&Key::int(i)).unwrap().to_record(), row(i, a, "cd"));
        }
        t.get_mut(&Key::int(6))
            .unwrap()
            .set(3, &Value::from("last column"));
        t.get_mut(&Key::int(6)).unwrap().set(2, &Value::Int(7));
        t.check_invariants().unwrap();
        for (k, r) in t.iter() {
            let i = k.head_int();
            let want = match i {
                3 => row(i, "a much longer text", "cd"),
                4 => row(i, "", "cd"),
                5 => row(i, "ü", "cd"),
                6 => Record::new(vec![
                    Value::Int(6),
                    Value::from("ab"),
                    Value::Int(7),
                    Value::from("last column"),
                ]),
                39 => row(i, "tail", "cd"),
                _ => row(i, "ab", "cd"),
            };
            assert_eq!(r.to_record(), want, "key {i}");
        }
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

    /// What hashing the node's keys as a `[Key]` slice feeds the hasher.
    fn hash_keys(keys: &KeyColumn, h: &mut Fnv) {
        use std::hash::{Hash, Hasher};
        h.write_usize(keys.len());
        for k in keys.keys() {
            k.hash(h);
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
                    hash_keys(&leaf.keys, h);
                    for r in (0..leaf.len()).map(|i| leaf.row(i)) {
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
                    hash_keys(&internal.keys, h);
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

    /// Insert-built shapes and the heap bytes of their nodes, pinned by the
    /// same trees built with a search on every insert: the right-spine
    /// shortcuts must give every insert the slot the search gives, and
    /// every node vector the capacity it had.
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
            let max = mixed.max_key().unwrap();
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

        // Three-int keys over rows whose text runs 0 to 60 bytes, loaded
        // ascending: a row longer than the ones before it outgrows the
        // bytes its leaf reserved.
        let mut texts = BTree::new();
        for i in 0..6_000i64 {
            let text = "t".repeat((i * 37 % 61) as usize);
            let row = Record::new(vec![Value::Int(i), Value::from(text), Value::Int(-i)]);
            texts.insert(Key::ints(&[i / 1_000, i / 10 % 100, i % 10]), row);
        }
        texts.check_invariants().unwrap();

        // Ascending runs after removes lazily emptied the rightmost leaf
        // (and the one before it): the next run starts in the gap, then
        // above everything the tree ever held.
        let mut emptied = BTree::new();
        for i in 0..5_000 {
            emptied.insert(Key::int(i), rec(i));
        }
        for i in 4_900..5_000 {
            emptied.remove(&Key::int(i));
        }
        for i in 4_950..7_000 {
            emptied.insert(Key::int(i), rec(i));
        }
        for i in (6_000..7_000).rev() {
            emptied.remove(&Key::int(i));
        }
        for i in 7_000..7_500 {
            emptied.insert(Key::int(i), rec(i));
        }
        emptied.check_invariants().unwrap();

        let trees = [&ascending, &mixed, &orders, &texts, &emptied];
        assert_eq!(
            trees.map(shape_digest),
            [
                0xc5d2_0c1d_61a0_3dc2,
                0xf427_3f7f_f7cf_665b,
                0x3cd7_1543_aa50_ddde,
                0x8a24_b07a_77d2_4864,
                0x4dbf_7e1e_9df4_ad02,
            ]
        );
        assert_eq!(
            trees.map(BTree::heap_bytes),
            [327_916, 415_072, 513_664, 580_415, 248_332]
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
