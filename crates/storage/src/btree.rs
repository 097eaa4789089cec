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
//!   the [`Record`] layout, with one shape word for the leaf.  Rows with no
//!   text cell all have one length, `8 × cells`, so such a leaf finds slot
//!   `i` at `i × 8 × cells` and keeps no offsets; a leaf of text rows keeps
//!   one `u32` end offset per slot.  No node holds a [`Key`] or a
//!   [`Record`]; readers get a key by value and a row as a borrowed
//!   [`Row`], writers go through [`RowMut`].  Every key of a tree has one
//!   width and every row one shape (the table's schema); a key or row of
//!   another is a bug and panics.
//! * The tree stores a row's bytes as they come and lends them back with
//!   the key cells the row kept apart, taken from the slot's key: a table
//!   hands in rows whose key cells are lent from the key (see
//!   `Row::lend_key`), so each key is stored once, in the key column.
//!   The tree itself knows nothing of schemas: a row that keeps no cells
//!   apart is stored whole.
//! * Keys order by their integers, and nothing else is stored to order
//!   them: a column of one-integer keys is binary-searched over its
//!   `i64`s and never compares whole keys; a column of W = 2, 3 or 4
//!   components is searched by one branch-free binary search compiled
//!   for W, which compares whole keys `⌈log₂ n⌉ + 1` times in a node of
//!   `n`, each compare unrolled over the W components.  Every search first
//!   loads one component per cache line of the node's keys, so that a
//!   node out of cache pays its misses at once, not one per halving step.
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
//! * Node vectors are sized to the node, not doubled.  An append at a
//!   node's end — every row of an ascending load — grows them straight to
//!   the most a node can hold; an insert inside a node grows its vectors
//!   by an eighth, since a leaf filled out of order rarely fills.  A split
//!   copies the half it leaves behind into an exact-size vector and the
//!   growing right half keeps the full buffer, so an ascending load
//!   reallocates neither.
//! * Deletion is *lazy*: entries are removed from leaves without rebalancing
//!   (a common choice in real systems, e.g. PostgreSQL only reclaims empty
//!   pages asynchronously).  Lookups, scans, and inserts remain correct;
//!   structural compaction happens when a partition is rebuilt during
//!   repartitioning.
//! * `recut` implements the physical part of every ATraPos repartitioning
//!   (paper §V-D): it streams a run of old trees' rows in key order, cut on
//!   key heads, into one builder per new key range — the builder
//!   `bulk_load` uses, which copies each row's bytes once, with no
//!   allocation per row.  The walk drops each old leaf once its rows are
//!   copied and each internal node once its children are handed on, so a
//!   repartitioning never holds two copies of the rows it moves.

use crate::record::{cmp_prefix, fixed_len, prefix_width, write_cell, Key, Record, Row};
use std::cmp::Ordering;
use std::ops::Range;

/// Maximum number of keys in a node.
const ORDER: usize = 64;

/// Key components in a 64-byte cache line.
const LINE_COMPS: usize = 64 / std::mem::size_of::<i64>();

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
    /// For rows with a text cell, `ends[i]` is where slot `i`'s row ends in
    /// `rows`; it starts where slot `i - 1`'s ends (slot 0 at 0).  Empty
    /// for rows without one: they all have the leaf's stride.
    ends: Vec<u32>,
    /// The shape word every row of the leaf shares.  Without a text cell it
    /// fixes the stride: slot `i` starts at `i × 8 × cells`.
    shape: u64,
}

#[derive(Debug, Clone)]
struct Internal {
    /// Separator keys; `children[i]` holds keys `< keys[i]`,
    /// `children[i+1]` holds keys `>= keys[i]`.
    keys: KeyColumn,
    children: Vec<Node>,
}

/// The sorted keys of one node, stored flat at the node's key width.
///
/// A node's 64 one-integer keys span 8 cache lines, and their integers
/// order them exactly: the search is a binary search over the `i64`s.
/// Wider keys are searched by one branch-free binary search over their
/// components, compiled for each width, that halves to the end with no
/// early exit, as `slice::binary_search_by` does: its loop count depends
/// only on the node's size, each step picks a half with a conditional
/// move, not a branch, and each compare is unrolled over the width.
///
/// Probes may have any width: a range bound shorter than the stored keys
/// orders before every key it is a prefix of.
#[derive(Debug, Clone, Default)]
pub struct KeyColumn {
    /// Components per key, fixed by the first key (0 while there is none).
    width: usize,
    /// The keys' components, `width` per key, in key order.
    comps: Vec<i64>,
}

#[cfg(test)]
thread_local! {
    /// Full key compares the current thread's node searches have made
    /// (pins the point-probe cost with a deterministic count).
    pub(crate) static FULL_COMPARES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// [`KeyColumn::halving_search`]'s whole-key compare: slice order.
#[cfg(test)]
fn full_cmp(a: &[i64], b: &[i64]) -> Ordering {
    FULL_COMPARES.with(|n| n.set(n.get() + 1));
    a.cmp(b)
}

/// Make room for `need` more elements of a node vector that holds at most
/// `most`, to insert them at `at`; never by doubling.  An append at the end
/// grows `v` straight to `most` — an ascending load appends again soon —
/// and an insert inside it grows `v` by an eighth, at least by `need` and
/// at most to `most`.
#[inline]
fn reserve_slots<T>(v: &mut Vec<T>, at: usize, need: usize, most: usize) {
    if v.capacity() - v.len() < need {
        let most = if at < v.len() {
            most.min(v.len() + v.len() / 8)
        } else {
            most
        };
        v.reserve_exact(most.saturating_sub(v.len()).max(need));
    }
}

/// Insert `src` into `v`, a node vector that holds at most `most`, at
/// `at`: room as [`reserve_slots`] makes it, an append, and one move of the
/// tail if there is one.
#[inline]
fn insert_slice<T: Copy>(v: &mut Vec<T>, at: usize, src: &[T], most: usize) {
    let tail = v.len() > at;
    reserve_slots(v, at, src.len(), most);
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
        }
    }

    /// Number of keys.
    #[inline]
    fn len(&self) -> usize {
        // Widths run from 1 to `MAX_KEY_COMPONENTS`: each arm divides by a
        // constant, a multiply rather than a `div`.
        let n = self.comps.len();
        match self.width {
            0 | 1 => n,
            2 => n / 2,
            3 => n / 3,
            4 => n / 4,
            w => n / w,
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
        // Each load of a binary search decides the next, so a node whose
        // keys are not cached pays one miss after another.  One load per
        // cache line first, none depending on another, lets those misses
        // overlap; the search then finds its lines cached.
        std::hint::black_box(self.comps.iter().step_by(LINE_COMPS).fold(0, |a, &k| a ^ k));
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
        match self.width {
            2 => self.halving::<2>(probe, on_equal),
            3 => self.halving::<3>(probe, on_equal),
            4 => self.halving::<4>(probe, on_equal),
            // Width 0: a column that has no key yet.
            _ => Err(0),
        }
    }

    /// [`Self::find`] on a column of `W`-component keys, `W` from 2:
    /// `slice::binary_search_by` over the keys, stepping through `comps`
    /// in components so that no multiply sits between one compare and the
    /// next load.  It halves until one key is left and then compares that
    /// one: `⌈log₂ n⌉ + 1` whole-key compares over `n` keys, whatever
    /// prefix they share.
    // Once per node of two-or-more-integer keys on every descent.
    // lint: hot-path
    #[inline]
    fn halving<const W: usize>(&self, probe: &Key, on_equal: Ordering) -> Result<usize, usize> {
        let n = self.comps.len() / W;
        if n == 0 {
            return Err(0);
        }
        let cmp = self.cmp_with::<W>(probe, on_equal);
        // `base` is the first component of key `slot`.
        let (mut slot, mut base, mut size) = (0, 0, n);
        while size > 1 {
            let half = size / 2;
            let greater = cmp(base + half * W) == Ordering::Greater;
            slot = std::hint::select_unpredictable(greater, slot, slot + half);
            base = std::hint::select_unpredictable(greater, base, base + half * W);
            size -= half;
        }
        match cmp(base) {
            Ordering::Equal => Ok(slot),
            Ordering::Less => Err(slot + 1),
            Ordering::Greater => Err(slot),
        }
    }

    /// The search [`Self::halving`] replaced, kept as its reference: the
    /// same halving over any width, comparing keys as slices.
    #[cfg(test)]
    fn halving_search(&self, probe: &[i64], on_equal: Ordering) -> Result<usize, usize> {
        let (w, n) = (self.width, self.len());
        if n == 0 {
            return Err(0);
        }
        let cmp = |at: usize| full_cmp(&self.comps[at..at + w], probe).then(on_equal);
        // `base` is the first component of key `slot`.
        let (mut slot, mut base, mut size) = (0, 0, n);
        while size > 1 {
            let half = size / 2;
            let greater = cmp(base + half * w) == Ordering::Greater;
            slot = std::hint::select_unpredictable(greater, slot, slot + half);
            base = std::hint::select_unpredictable(greater, base, base + half * w);
            size -= half;
        }
        match cmp(base) {
            Ordering::Equal => Ok(slot),
            Ordering::Less => Err(slot + 1),
            Ordering::Greater => Err(slot),
        }
    }

    /// The whole-key compare of a column of `W`-component keys, `W` from
    /// 2: the key starting at component `at` against `probe`, in slice
    /// order, `on_equal` for an equal key.  It is [`cmp_prefix`] unrolled
    /// over `W` components.  A shorter probe is padded with `i64::MIN`,
    /// which no component is below, so every compare takes all `W`, and a
    /// key the probe is a prefix of still orders by the widths: `Greater`.
    // Once per whole-key compare of a node search.
    // lint: hot-path
    #[inline(always)]
    fn cmp_with<const W: usize>(
        &self,
        probe: &Key,
        on_equal: Ordering,
    ) -> impl Fn(usize) -> Ordering + '_ {
        let plen = probe.len();
        let p: [i64; W] =
            std::array::from_fn(|i| if i < plen { probe.slots()[i] } else { i64::MIN });
        let tie = W.cmp(&plen).then(on_equal);
        move |at| {
            #[cfg(test)]
            FULL_COMPARES.with(|n| n.set(n.get() + 1));
            let key: &[i64; W] = self.comps[at..at + W].try_into().expect("W components");
            cmp_prefix(key, &p, W, tie)
        }
    }

    /// Whether `probe` sorts after the last key (`false` for an empty
    /// column): one compare at the column's width.
    #[inline]
    fn sorts_after_last(&self, probe: &Key) -> bool {
        match self.width {
            // A longer probe with the same head orders after the key.
            1 => self
                .comps
                .last()
                .is_some_and(|&last| (probe.head_int(), probe.len()) > (last, 1)),
            2 => self.last_is_below::<2>(probe),
            3 => self.last_is_below::<3>(probe),
            4 => self.last_is_below::<4>(probe),
            _ => false,
        }
    }

    /// [`Self::sorts_after_last`] on a column of `W`-component keys.
    #[inline]
    fn last_is_below<const W: usize>(&self, probe: &Key) -> bool {
        self.comps
            .len()
            .checked_sub(W)
            .is_some_and(|at| self.cmp_with::<W>(probe, Ordering::Greater)(at) == Ordering::Less)
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
        insert_slice(&mut self.comps, i * w, key.comps(), NODE_SLOTS * w);
    }

    /// Append `key`, which must sort after every key of the column, into
    /// room the column already has.
    fn push(&mut self, key: Key) {
        self.adopt_width(&key);
        self.comps.extend_from_slice(key.comps());
    }

    /// Remove and return the key at slot `i`.
    pub fn remove(&mut self, i: usize) -> Key {
        let key = self.key(i);
        self.comps.drain(i * self.width..(i + 1) * self.width);
        key
    }

    /// [`Self::search`] for an insert: a probe above the last key — an
    /// ascending load's insert that the append arm left to the general
    /// path, such as one that splits the rightmost leaf — goes to the end
    /// without a search.
    #[inline]
    fn insert_slot(&self, probe: &Key) -> Result<usize, usize> {
        if self.sorts_after_last(probe) {
            return Err(self.len());
        }
        self.search(probe)
    }

    /// Move the keys from slot `mid` on into a new column.
    pub fn split_off(&mut self, mid: usize) -> KeyColumn {
        KeyColumn {
            width: self.width,
            comps: split_exact(&mut self.comps, mid * self.width),
        }
    }

    /// Verify that the keys share one width and are strictly increasing.
    pub fn check_invariants(&self) -> Result<(), String> {
        let w = self.width;
        if w > crate::record::MAX_KEY_COMPONENTS || (w == 0 && !self.comps.is_empty()) {
            return Err(format!("node column of {w}-component keys"));
        }
        if !self.comps.len().is_multiple_of(w) {
            return Err(format!(
                "node column holds {} components, not a whole number of keys of width {w}",
                self.comps.len()
            ));
        }
        let keys: Vec<Key> = self.keys().collect();
        if let Some(k) = keys.windows(2).find(|k| k[0] >= k[1]) {
            return Err(format!("node keys out of order: {} >= {}", k[0], k[1]));
        }
        Ok(())
    }
}

impl Leaf {
    /// An empty leaf with room for exactly `n` keys of `width` components
    /// and `bytes` bytes of rows of shape `shape`.
    fn with_capacity(width: usize, n: usize, bytes: usize, shape: u64) -> Self {
        let ends = if fixed_len(shape).is_some() { 0 } else { n };
        Self {
            keys: KeyColumn::with_capacity(width, n),
            rows: Vec::with_capacity(bytes),
            ends: Vec::with_capacity(ends),
            shape,
        }
    }

    /// Number of rows.
    #[inline]
    fn len(&self) -> usize {
        self.keys.len()
    }

    /// Where slot `i`'s row lies in `rows`.
    #[inline]
    fn span(&self, i: usize) -> Range<usize> {
        match fixed_len(self.shape) {
            Some(stride) => i * stride..(i + 1) * stride,
            None => self.span_start(i)..self.ends[i] as usize,
        }
    }

    /// Where slot `i`'s row starts (the end of the block for `i == len`).
    #[inline]
    fn span_start(&self, i: usize) -> usize {
        match fixed_len(self.shape) {
            Some(stride) => i * stride,
            None => i.checked_sub(1).map_or(0, |p| self.ends[p] as usize),
        }
    }

    /// The row in slot `i`, its key cells lent from the slot's key.
    // Once per row a read, an update or a scan touches.
    // lint: hot-path
    #[inline]
    fn row(&self, i: usize) -> Row<'_> {
        let prefix = &self.keys.comps_at(i)[..prefix_width(self.shape)];
        Row::from_parts(prefix, &self.rows[self.span(i)], self.shape)
    }

    /// Panic unless `row` has the leaf's shape; an empty leaf takes it.  The
    /// key cells `row` keeps apart are not stored — the leaf lends `key`'s
    /// leading components in their place — so they must be those
    /// components (checked in debug builds).
    #[inline]
    fn adopt(&mut self, key: &Key, row: Row<'_>) {
        if self.len() == 0 {
            self.shape = row.shape();
        }
        assert_eq!(
            row.shape(),
            self.shape,
            "a leaf of rows of shape {:#x} got a row of shape {:#x}",
            self.shape,
            row.shape()
        );
        debug_assert!(
            key.comps().starts_with(row.prefix()),
            "a row with key cells {:?} filed under the key {key}",
            row.prefix()
        );
    }

    /// Shift the end offsets of slots `from..` by `delta` bytes.
    fn shift_ends(&mut self, from: usize, delta: isize) {
        for end in &mut self.ends[from..] {
            *end = end.wrapping_add_signed(delta as i32);
        }
    }

    /// Insert `key` and `row` at slot `i`.
    fn insert(&mut self, i: usize, key: Key, row: Row<'_>) {
        self.adopt(&key, row);
        let n = self.len();
        self.keys.insert(i, key);
        let bytes = row.bytes();
        // Room for the rest of the node's slots at this row's size.
        let most = NODE_SLOTS.saturating_sub(n) * bytes.len() + self.rows.len();
        let at = self.span_start(i);
        insert_slice(&mut self.rows, at, bytes, most);
        if fixed_len(self.shape).is_none() {
            assert!(
                u32::try_from(self.rows.len()).is_ok(),
                "a leaf holds under 4 GiB of rows"
            );
            insert_slice(&mut self.ends, i, &[at as u32], NODE_SLOTS);
            self.shift_ends(i, bytes.len() as isize);
        }
    }

    /// Append `key` and `row` if `key` sorts after the leaf's last key and
    /// the leaf takes one more slot without a split.  Whether it did.
    #[inline]
    fn try_append(&mut self, key: Key, row: Row<'_>) -> bool {
        let n = self.len();
        if n >= ORDER || !self.keys.sorts_after_last(&key) {
            return false;
        }
        self.insert(n, key, row);
        true
    }

    /// Remove slot `i` and its row.
    fn remove(&mut self, i: usize) {
        let span = self.span(i);
        self.keys.remove(i);
        self.rows.drain(span.clone());
        if fixed_len(self.shape).is_none() {
            self.ends.remove(i);
            self.shift_ends(i, -(span.len() as isize));
        }
    }

    /// Overwrite integer column `col` of the row in slot `i` in place; a
    /// key cell the leaf keeps in its key column is not writable.
    fn write(&mut self, i: usize, col: usize, v: i64) {
        let stored = col
            .checked_sub(prefix_width(self.shape))
            .unwrap_or_else(|| panic!("column {col} is a key column"));
        let at = self.span_start(i);
        write_cell(&mut self.rows, at, self.shape, stored, v);
    }

    /// Move the slots from `mid` on into a new leaf.
    fn split_off(&mut self, mid: usize) -> Leaf {
        let cut = self.span_start(mid);
        // A leaf of fixed-stride rows has no end offsets to split.
        let ends = mid.min(self.ends.len());
        let mut right = Leaf {
            keys: self.keys.split_off(mid),
            rows: split_exact(&mut self.rows, cut),
            ends: split_exact(&mut self.ends, ends),
            shape: self.shape,
        };
        right.shift_ends(0, -(cut as isize));
        right
    }

    /// Verify that the rows tile the block: `len × stride` bytes without
    /// a text cell, else one end offset per slot, in order, the last at
    /// the block's end.
    fn check_block(&self) -> Result<(), String> {
        let tiled = match fixed_len(self.shape) {
            Some(stride) => self.ends.is_empty() && self.rows.len() == self.len() * stride,
            None => {
                self.ends.len() == self.len()
                    && self.ends.windows(2).all(|w| w[0] <= w[1])
                    && self.ends.last().map_or(0, |&e| e as usize) == self.rows.len()
            }
        };
        tiled
            .then_some(())
            .ok_or_else(|| "leaf rows do not tile its block".into())
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
    /// already present: it is read out, removed, and the pair inserted in
    /// its place.
    pub fn insert(&mut self, key: Key, record: Record) -> Option<Record> {
        if self.insert_new_row(key, record.row()) {
            return None;
        }
        let old = self.get(&key).map(|row| row.to_record());
        self.remove(&key);
        self.insert_new_row(key, record.row());
        old
    }

    /// Insert a key/record pair unless the key is already present: a
    /// present key leaves the tree untouched and hands `record` back.
    pub fn insert_new(&mut self, key: Key, record: Record) -> Result<(), Record> {
        if self.insert_new_row(key, record.row()) {
            Ok(())
        } else {
            Err(record)
        }
    }

    /// Copy `row` in under `key` unless the key is already present (which
    /// leaves the tree untouched).  Whether the row went in.  A key the
    /// rightmost leaf can append is appended there without a descent;
    /// every other insert descends.
    pub fn insert_new_row(&mut self, key: Key, row: Row<'_>) -> bool {
        if self.root.rightmost_leaf().try_append(key, row) {
            self.len += 1;
            return true;
        }
        let split = match self.root.insert(key, row) {
            Inserted::Present => return false,
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
        true
    }

    /// Remove a key and its row, which is dropped where it lies: nothing
    /// is copied out.  Whether the key was there.
    pub fn remove(&mut self, key: &Key) -> bool {
        let removed = self.root.remove(key);
        if removed {
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

    /// Build a tree from key-sorted, duplicate-free pairs; keys out of
    /// order panic.
    pub fn bulk_load(pairs: Vec<(Key, Record)>) -> Self {
        let mut tree = Builder::new();
        for (key, record) in pairs {
            tree.push(key, record.row());
        }
        tree.finish()
    }

    /// Re-cut a run of trees at `cuts`, strictly ascending key heads: part
    /// `i` of the result holds the rows whose key head lies in
    /// `[cuts[i - 1], cuts[i])`, the first part unbounded below and the
    /// last above.  The trees must hold disjoint key ranges in ascending
    /// order.  This is the physical part of every repartitioning action — a
    /// split is one tree and one cut, a merge two trees and none: one pass
    /// over the old leaves copies each row once into its part's builder and
    /// drops each leaf once its rows are copied.
    pub fn recut(trees: Vec<BTree>, cuts: &[i64]) -> Vec<BTree> {
        let mut parts = Vec::with_capacity(cuts.len() + 1);
        let mut part = Builder::new();
        for tree in trees {
            let mut rows = Entries::new(tree);
            while let Some(key) = rows.peek() {
                let head = key[0];
                while cuts.get(parts.len()).is_some_and(|&cut| head >= cut) {
                    parts.push(std::mem::replace(&mut part, Builder::new()).finish());
                }
                rows.copy_into(&mut part);
            }
        }
        parts.push(part.finish());
        parts.resize_with(cuts.len() + 1, BTree::new);
        parts
    }

    /// Verify the B+-tree structural invariants (key order and width
    /// within nodes, one row shape per leaf and rows that tile its block,
    /// separator correctness, length).  Used by tests.
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

    /// Overwrite integer column `i` with `v` in place: the row keeps its
    /// length.  Panics on a text column or a key cell the leaf keeps in its
    /// key column.
    // lint: hot-path
    #[inline]
    pub fn set(&mut self, i: usize, v: i64) {
        self.leaf.write(self.slot, i, v);
    }
}

/// What [`Node::insert`] did.
enum Inserted {
    /// The key was present; the tree was left alone.
    Present,
    /// The key went in; a split hands up (separator, right sibling).
    New(Option<(Key, Node)>),
}

impl Node {
    /// Insert `row` under `key` unless the key is present.
    fn insert(&mut self, key: Key, row: Row<'_>) -> Inserted {
        match self {
            Node::Leaf(leaf) => match leaf.keys.insert_slot(&key) {
                Ok(_) => Inserted::Present,
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
                let split = match internal.children[idx].insert(key, row) {
                    Inserted::New(Some(split)) => split,
                    done => return done,
                };
                let (sep, right) = split;
                internal.keys.insert(idx, sep);
                reserve_slots(&mut internal.children, idx + 1, 1, NODE_SLOTS + 1);
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

    /// Lazy removal: delete from the leaf without rebalancing.  Whether
    /// the key was there.
    fn remove(&mut self, key: &Key) -> bool {
        match self {
            Node::Leaf(leaf) => leaf.keys.search(key).map(|i| leaf.remove(i)).is_ok(),
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
                leaf.keys.check_invariants()?;
                leaf.check_block()?;
                for (i, k) in leaf.keys.keys().enumerate() {
                    let row = leaf.row(i);
                    if row.bytes().len() < 8 * row.cells() {
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
        let column = |k: &KeyColumn| k.comps.capacity() * size_of::<i64>();
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

/// Rows of a leaf a build makes, and children of an internal node it makes
/// less one: ~3/4 of a node, leaving room for inserts to come.
const BUILT: usize = ORDER * 3 / 4;

/// Makes a tree from rows handed in one at a time in strictly ascending
/// key order: the one way a tree is built whole, by [`BTree::bulk_load`]
/// and by the repartitioning primitive [`BTree::recut`].  Filled left to
/// right, leaves hold `BUILT` rows and internal nodes `BUILT + 1` children;
/// the last node of each level holds the rest.  Each row's bytes are
/// copied once, and every node vector ends exact-size.  A node is closed as
/// soon as it is full, so the builder holds one open node per level besides
/// the tree it has closed.
struct Builder {
    /// The leaf being filled.  It is closed when the row after its last
    /// arrives, so it is empty only before the first row.
    leaf: Leaf,
    /// The open internal node of each level, the one above the leaves
    /// first.
    levels: Vec<Level>,
    len: usize,
}

/// The open internal node of one level of a [`Builder`].
struct Level {
    /// The first key below the node.
    first: Key,
    keys: KeyColumn,
    children: Vec<Node>,
}

impl Level {
    /// Take the open node out, its vectors trimmed to what it holds.
    fn close(&mut self) -> (Key, Node) {
        let mut keys = std::mem::take(&mut self.keys);
        let mut children = std::mem::take(&mut self.children);
        keys.comps.shrink_to_fit();
        children.shrink_to_fit();
        (self.first, Node::Internal(Internal { keys, children }))
    }
}

#[cfg(test)]
thread_local! {
    /// Rows the current thread's builders have copied in (pins what a
    /// repartitioning copies with a deterministic count).
    pub(crate) static ROWS_COPIED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl Builder {
    fn new() -> Self {
        Self {
            leaf: Leaf::default(),
            levels: Vec::new(),
            len: 0,
        }
    }

    /// Copy `row` in under `key`, which must sort after every key before
    /// it.
    #[inline]
    fn push(&mut self, key: Key, row: Row<'_>) {
        #[cfg(test)]
        ROWS_COPIED.with(|n| n.set(n.get() + 1));
        let n = self.leaf.len();
        if n > 0 {
            let last = self.leaf.keys.comps_at(n - 1);
            assert!(
                last < key.comps(),
                "a tree is built from strictly ascending keys, but {key} came after {}",
                Key::ints(last)
            );
        }
        if n == 0 || n == BUILT {
            // Room for a full leaf of rows as long as this one.
            let bytes = BUILT * row.bytes().len();
            self.close_leaf(Leaf::with_capacity(key.len(), BUILT, bytes, row.shape()));
        }
        self.leaf.insert(self.leaf.len(), key, row);
        self.len += 1;
    }

    /// Hand the open leaf, if it holds a row, up to the level above,
    /// trimmed to what it holds, and open `next` in its place.
    fn close_leaf(&mut self, next: Leaf) {
        let mut leaf = std::mem::replace(&mut self.leaf, next);
        if leaf.len() == 0 {
            return;
        }
        leaf.keys.comps.shrink_to_fit();
        leaf.rows.shrink_to_fit();
        leaf.ends.shrink_to_fit();
        self.hand_up(0, leaf.keys.key(0), Node::Leaf(leaf));
    }

    /// Hand `node`, whose first key is `first`, to the open node of level
    /// `at`; a node that fills is closed and handed up in turn.
    fn hand_up(&mut self, at: usize, first: Key, node: Node) {
        if at == self.levels.len() {
            self.levels.push(Level {
                first,
                keys: KeyColumn::default(),
                children: Vec::new(),
            });
        }
        let level = &mut self.levels[at];
        if level.children.is_empty() {
            level.first = first;
            level.keys = KeyColumn::with_capacity(first.len(), BUILT);
            level.children = Vec::with_capacity(BUILT + 1);
        } else {
            level.keys.push(first);
        }
        level.children.push(node);
        if level.children.len() == BUILT + 1 {
            let (first, node) = level.close();
            self.hand_up(at + 1, first, node);
        }
    }

    /// The tree: each level's last node closed, from the leaves up, until
    /// the top level holds one node, the root.  (A level that closed a
    /// node has one above it, so the top level holds all it was handed.)
    fn finish(mut self) -> BTree {
        if self.len == 0 {
            return BTree::new();
        }
        self.close_leaf(Leaf::default());
        let mut at = 0;
        loop {
            let top = at + 1 == self.levels.len();
            let level = &mut self.levels[at];
            if top && level.children.len() == 1 {
                let root = level.children.pop().expect("the level's one node");
                return BTree {
                    root,
                    len: self.len,
                    height: at + 1,
                };
            }
            if !level.children.is_empty() {
                let (first, node) = level.close();
                self.hand_up(at + 1, first, node);
            }
            at += 1;
        }
    }
}

/// The entries of a tree in key order, taken from its leaves as they come
/// out of the tree one at a time: each leaf is dropped once its last row
/// is copied, and each internal node once its last child is handed on, so
/// a rebuild never holds the old tree and the new one whole.
struct Entries {
    /// Per level of the old tree, the children not yet handed on.
    stack: Vec<std::vec::IntoIter<Node>>,
    leaf: Leaf,
    /// The slot of `leaf` that comes next.
    at: usize,
}

impl Entries {
    fn new(tree: BTree) -> Self {
        Self {
            stack: vec![vec![tree.root].into_iter()],
            leaf: Leaf::default(),
            at: 0,
        }
    }

    /// The next entry's key components, or `None` past the last entry.
    #[inline]
    fn peek(&mut self) -> Option<&[i64]> {
        while self.at == self.leaf.len() {
            // The copied leaf goes before the next one comes out.
            drop(std::mem::take(&mut self.leaf));
            self.at = 0;
            self.leaf = self.next_leaf()?;
        }
        Some(self.leaf.keys.comps_at(self.at))
    }

    /// The next leaf in key order, lazily emptied ones too.
    fn next_leaf(&mut self) -> Option<Leaf> {
        loop {
            match self.stack.last_mut()?.next() {
                Some(Node::Leaf(leaf)) => return Some(leaf),
                Some(Node::Internal(internal)) => self.stack.push(internal.children.into_iter()),
                None => {
                    self.stack.pop();
                }
            }
        }
    }

    /// Copy the entry [`Self::peek`] found into `to`, and step past it.
    #[inline]
    fn copy_into(&mut self, to: &mut Builder) {
        to.push(self.leaf.keys.key(self.at), self.leaf.row(self.at));
        self.at += 1;
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
pub(crate) mod tests {
    use super::*;
    use crate::record::Value;
    use proptest::prelude::*;

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
            assert!(t.remove(&Key::int(i)));
        }
        assert_eq!(t.len(), 100);
        for i in 0..200 {
            assert_eq!(t.contains(&Key::int(i)), i % 2 == 1);
        }
        assert!(!t.remove(&Key::int(0)));
        t.check_invariants().unwrap();
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut t = BTree::new();
        t.insert(Key::int(5), rec(5));
        t.get_mut(&Key::int(5)).unwrap().set(1, 777);
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
    fn recut_cuts_a_tree_at_its_bounds() {
        let t = BTree::bulk_load((0..1000).map(|i| (Key::int(i), rec(i))).collect());
        let parts = BTree::recut(vec![t], &[600, 700, 2_000]);
        let lens: Vec<usize> = parts.iter().map(BTree::len).collect();
        assert_eq!(lens, [600, 100, 300, 0]);
        assert_eq!(parts[0].max_key().unwrap().head_int(), 599);
        assert_eq!(parts[1].min_key().unwrap().head_int(), 600);
        assert_eq!(parts[2].min_key().unwrap().head_int(), 700);
        for part in &parts {
            part.check_invariants().unwrap();
        }
    }

    #[test]
    fn recut_joins_a_run_of_trees() {
        let a = BTree::bulk_load((0..500).map(|i| (Key::int(i), rec(i))).collect());
        let b = BTree::bulk_load((500..900).map(|i| (Key::int(i), rec(i))).collect());
        let [joined] = <[BTree; 1]>::try_from(BTree::recut(vec![a, BTree::new(), b], &[])).unwrap();
        assert_eq!(joined.len(), 900);
        joined.check_invariants().unwrap();
        assert!(joined.contains(&Key::int(0)));
        assert!(joined.contains(&Key::int(899)));
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

    /// Slots each vector of a leaf has room for: keys, end offsets and
    /// rows (at the leaf's mean row length).
    fn slot_caps(l: &Leaf) -> [usize; 3] {
        let row_len = l.rows.len() / l.len();
        [
            l.keys.comps.capacity() / l.keys.width,
            l.ends.capacity(),
            l.rows.capacity() / row_len,
        ]
    }

    /// `n` rows under the keys `0, step, 2 × step, ...`, inserted in
    /// ascending order; the rows hold a two-byte text cell when `text`.
    fn ascending(n: i64, step: i64, text: bool) -> BTree {
        let mut t = BTree::new();
        for i in (0..n).map(|i| i * step) {
            let row = if text {
                Record::new(vec![Value::Int(i), Value::from("ab")])
            } else {
                rec(i)
            };
            t.insert(Key::int(i), row);
        }
        t
    }

    /// The capacity rule, pinned: the half a split leaves behind is trimmed
    /// to its length — an ascending load never touches it again — and only
    /// the right spine's leaf, which the load keeps filling, has spare
    /// slots, at most `NODE_SLOTS` (doubling vectors left about 2.06 slots
    /// per key).  A leaf of all-integer rows holds no end offsets at all,
    /// and one of text rows exactly one per row.
    #[test]
    fn ascending_load_leaves_no_spare_leaf_capacity() {
        for text in [false, true] {
            let t = ascending(10_000, 1, text);
            let levels = levels(&t);
            let (last, rest) = levels.last().unwrap().split_last().unwrap();
            let ends = |l: &Leaf| if text { l.len() } else { 0 };
            for node in rest {
                let l = leaf(node);
                assert_eq!(slot_caps(l), [l.len(), ends(l), l.len()], "text {text}");
            }
            let spine = leaf(last);
            let caps = slot_caps(spine);
            assert!(caps.iter().all(|&c| c <= NODE_SLOTS), "{caps:?}");
            assert_eq!(caps[1] > 0, text, "{caps:?}");
        }
    }

    /// The growth rule, pinned: an insert inside a leaf grows its vectors
    /// by an eighth, not straight to a full node as an append does.  One
    /// insert inside each leaf an ascending load left exact-size leaves it
    /// room for at most `len + len/8 + 1` slots.
    #[test]
    fn an_insert_inside_a_leaf_grows_it_by_an_eighth() {
        for text in [false, true] {
            let mut t = ascending(10_000, 2, text);
            let firsts: Vec<Key> = levels(&t)
                .last()
                .unwrap()
                .iter()
                .map(|node| leaf(node).keys.key(0))
                .collect();
            let (_, inside) = firsts.split_last().unwrap();
            for k in inside {
                let k = k.head_int() + 1;
                let row = if text {
                    Record::new(vec![Value::Int(k), Value::from("cd")])
                } else {
                    rec(k)
                };
                assert!(t.insert_new(Key::int(k), row).is_ok());
            }
            t.check_invariants().unwrap();
            let levels = levels(&t);
            let (_, rest) = levels.last().unwrap().split_last().unwrap();
            assert_eq!(rest.len(), inside.len());
            for node in rest {
                let l = leaf(node);
                let (len, most) = (l.len(), l.len() + l.len() / 8 + 1);
                assert_eq!(len, ORDER / 2 + 1, "text {text}");
                let caps = slot_caps(l);
                assert!(
                    caps.iter().all(|&c| c <= most) && (caps[1] > 0) == text,
                    "text {text}: {len} rows in room for {caps:?}"
                );
            }
        }
    }

    /// Memory, pinned by a count: 200 k ascending five-integer rows under
    /// one-integer keys cost at most 54 heap bytes each — 8 of key, 40 of
    /// row, and the node structs their parents hold, with no end offset —
    /// where a leaf of `Key`s and `Record`s cost over 120.
    #[test]
    fn ascending_five_int_rows_cost_at_most_54_bytes_each() {
        const ROWS: i64 = 200_000;
        let mut t = BTree::new();
        for i in 0..ROWS {
            t.insert(Key::int(i), Record::ints(&[i, i, i, i, i]));
        }
        let per_row = t.heap_bytes() as f64 / ROWS as f64;
        assert!(per_row <= 54.0, "{per_row:.2} B per row");
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

    /// An integer write goes in place: the leaf's row block keeps its
    /// length and its slot offsets, the written row its texts, and every
    /// other row its bytes.
    #[test]
    fn integer_writes_keep_the_leaf_block_in_place() {
        let row = |i: i64, a: i64| {
            Record::new(vec![
                Value::Int(i),
                Value::from("ab"),
                Value::Int(a),
                Value::from("cd"),
            ])
        };
        let mut t = BTree::new();
        for i in 0..40 {
            t.insert(Key::int(i), row(i, -i));
        }
        let block = |t: &BTree| match &t.root {
            Node::Leaf(leaf) => (leaf.rows.len(), leaf.ends.clone()),
            Node::Internal(_) => panic!("40 rows fit one leaf"),
        };
        let before = block(&t);
        let written = [0, 3, 4, 39];
        for i in written {
            t.get_mut(&Key::int(i)).unwrap().set(2, i * 100 + 1);
        }
        assert_eq!(block(&t), before);
        t.check_invariants().unwrap();
        for (k, r) in t.iter() {
            let i = k.head_int();
            let a = if written.contains(&i) {
                i * 100 + 1
            } else {
                -i
            };
            assert_eq!(r.to_record(), row(i, a), "key {i}");
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
    /// node's child count.  Everything but vector capacity.
    pub(crate) fn shape_digest(t: &BTree) -> u64 {
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
            [278_344, 247_994, 370_752, 523_879, 210_584]
        );
    }

    /// The reference the streaming [`Builder`] must match: a rebuild that
    /// takes the entries in chunks of 48 rows per leaf, then each level in
    /// chunks of 49 children, every vector sized to its chunk.
    fn reference_build<'r>(entries: impl Iterator<Item = (Key, Row<'r>)>) -> BTree {
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
                leaf.insert(leaf.len(), key, row);
            }
            len += chunk.len();
            level.push((first, Node::Leaf(leaf)));
        }
        if level.is_empty() {
            return BTree::new();
        }
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
        BTree { root, len, height }
    }

    /// The reference re-cut: each part's range of every tree's cursor, in
    /// turn, rebuilt.
    fn reference_recut(trees: &[BTree], cuts: &[i64]) -> Vec<BTree> {
        let bounds: Vec<Option<Key>> = std::iter::once(None)
            .chain(cuts.iter().map(|&c| Some(Key::int(c))))
            .chain([None])
            .collect();
        bounds
            .windows(2)
            .map(|w| {
                let (from, to) = (w[0].as_ref(), w[1].as_ref());
                reference_build(trees.iter().flat_map(|t| t.range_iter(from, to)))
            })
            .collect()
    }

    /// Panic unless `got` is `want` node for node: the same shape digest,
    /// heap bytes, height and length.
    fn assert_same_tree(got: &BTree, want: &BTree, case: &str) {
        let print = |t: &BTree| (shape_digest(t), t.heap_bytes(), t.height(), t.len());
        assert_eq!(print(got), print(want), "{case}");
    }

    /// A tree built by inserts of `keys` in order; a row holds its key plus
    /// `salt`, and with `text` a text cell of 0 to 60 bytes.
    fn tree_of(keys: impl Iterator<Item = i64>, text: bool, salt: i64) -> BTree {
        let mut t = BTree::new();
        for k in keys {
            let row = if text {
                let text = "t".repeat((k * 37 + salt).rem_euclid(61) as usize);
                Record::new(vec![Value::Int(k + salt), Value::from(text)])
            } else {
                rec(k + salt)
            };
            t.insert(Key::int(k), row);
        }
        t
    }

    /// Every built tree is the reference rebuild's, node for node, for
    /// integer and text rows: bulk loads across the sizes where a level
    /// fills or gains a node, cuts below, at and above every key of a tree
    /// whose leaves lazy deletion emptied, and re-cuts of runs of one to
    /// four trees, empty ones too, at zero to four cuts.
    #[test]
    fn built_trees_match_the_reference_rebuild() {
        for text in [false, true] {
            let sizes: &[i64] = if text {
                &[0, 1, 47, 48, 49, 97, 2_352, 2_353, 2_401]
            } else {
                &[
                    0, 1, 47, 48, 49, 96, 97, 2_352, 2_353, 2_400, 2_401, 115_248, 115_249,
                ]
            };
            for &n in sizes {
                let t = tree_of(0..n, text, 0);
                let pairs: Vec<(Key, Record)> = t.iter().map(|(k, r)| (k, r.to_record())).collect();
                let case = format!("bulk_load of {n}, text {text}");
                assert_same_tree(&BTree::bulk_load(pairs), &reference_build(t.iter()), &case);
            }

            // Keys 0, 2, .., 598; removes empty the leaves over 100..=260.
            let mut gappy = tree_of((0..300).map(|i| i * 2), text, 0);
            for k in (100..=260).chain((400..500).step_by(3)) {
                gappy.remove(&Key::int(k));
            }
            let check = |trees: &[BTree], cuts: &[i64]| {
                let case = format!("cut of {} trees at {cuts:?}, text {text}", trees.len());
                let got = BTree::recut(trees.to_vec(), cuts);
                assert_same_trees(&got, &reference_recut(trees, cuts), &case);
            };
            for b in -1..=600 {
                check(std::slice::from_ref(&gappy), &[b]);
            }
            let big = tree_of(0..5_000, text, 0);
            for b in [-1, 0, 1, 2_352, 2_353, 2_500, 4_999, 5_000] {
                check(std::slice::from_ref(&big), &[b]);
            }
            // Runs of one to four trees, with an empty one, at zero to four
            // cuts below, inside, between and above them.
            let run = [
                gappy.clone(),
                BTree::new(),
                tree_of(600..3_000, text, 7),
                tree_of((1_500..5_000).map(|i| i * 2), text, 3),
            ];
            let cuts: [&[i64]; 6] = [
                &[],
                &[-1],
                &[300],
                &[600, 3_000],
                &[0, 301, 599, 2_999],
                &[2_352, 5_000, 9_999, 10_000],
            ];
            for trees in (1..=run.len()).flat_map(|n| run.windows(n)) {
                for cuts in cuts {
                    check(trees, cuts);
                }
            }
        }
    }

    /// Panic unless the parts are the reference's, tree for tree.
    fn assert_same_trees(got: &[BTree], want: &[BTree], case: &str) {
        assert_eq!(got.len(), want.len(), "{case}");
        for (i, (got, want)) in got.iter().zip(want).enumerate() {
            assert_same_tree(got, want, &format!("{case}, part {i}"));
        }
    }

    /// A bulk load checks its keys in every build: two swapped pairs would
    /// leave a tree whose lookups miss keys it counts.
    #[test]
    #[should_panic(
        expected = "a tree is built from strictly ascending keys, but (100) came after (101)"
    )]
    fn bulk_load_of_unsorted_keys_panics() {
        let mut pairs: Vec<(Key, Record)> = (0..200).map(|i| (Key::int(i), rec(i))).collect();
        pairs.swap(100, 101);
        BTree::bulk_load(pairs);
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
        let t = BTree::bulk_load(original.clone());
        let halves = BTree::recut(vec![t], &[300]);
        let t = BTree::recut(halves, &[]).pop().unwrap();
        assert_eq!(t.len(), 777);
        let back: Vec<i64> = t.iter().map(|(k, _)| k.head_int()).collect();
        assert_eq!(back, (0..777).collect::<Vec<_>>());
    }

    /// A key component: mostly from a narrow range, so that keys share
    /// prefixes and probes hit stored keys, sometimes an extreme.
    fn comp() -> impl Strategy<Value = i64> {
        prop_oneof![8 => -3i64..=3, 1 => Just(i64::MIN), 1 => Just(i64::MAX)]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The per-width search finds what the slice-order reference finds,
        /// and the append check agrees with slice order: columns of 1–4
        /// components and 0–70 keys, probes of 1–4 components (range bounds
        /// shorter than the keys and probes longer than them), under each
        /// `on_equal`.
        #[test]
        fn the_per_width_search_matches_the_slice_order_reference(
            width in 1usize..=4,
            raw in prop::collection::vec(prop::collection::vec(comp(), 4..=4), 0..=70),
            probes in prop::collection::vec(prop::collection::vec(comp(), 1..=4), 1..16),
        ) {
            let mut keys: Vec<Vec<i64>> = raw.into_iter().map(|k| k[..width].to_vec()).collect();
            keys.sort();
            keys.dedup();
            let column = KeyColumn { width, comps: keys.concat() };
            column.check_invariants().unwrap();
            for probe in probes.iter().map(|p| Key::ints(p)) {
                prop_assert_eq!(
                    column.sorts_after_last(&probe),
                    keys.last().is_some_and(|last| probe.comps() > &last[..]),
                    "width {}, probe {}", width, probe
                );
                for on_equal in [Ordering::Less, Ordering::Equal, Ordering::Greater] {
                    prop_assert_eq!(
                        column.find(&probe, on_equal),
                        column.halving_search(probe.comps(), on_equal),
                        "width {}, probe {}, on_equal {:?}", width, probe, on_equal
                    );
                }
            }
        }
    }
}
