//! Values, records, and keys.
//!
//! A row is one 8-byte little-endian cell per column, then the UTF-8 bytes
//! of its text columns.  An integer cell is the value; a text cell is the
//! `offset << 32 | len` of its bytes in that tail.  A [`Record`] owns one
//! row in a single exact-size heap block; a [`Row`] borrows one, wherever
//! its bytes live — a record, a stack buffer `with_row` packed from
//! borrowed [`Cell`]s, or a slot of a B+-tree leaf, which keeps all of its
//! rows back to back in one block and their key cells only in its key
//! column.  A packed row never changes length: `write_cell`, the one
//! path that writes into packed rows, overwrites one integer cell in place.
//! A [`Key`] is up to four inline integers with no heap part at all.

use crate::schema::{ColumnType, Schema};
use std::cmp::Ordering;
use std::fmt;

/// A single column value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// 64-bit signed integer.
    Int(i64),
    /// Variable-length string.
    Text(String),
}

impl Value {
    /// The column type this value belongs to.
    pub fn column_type(&self) -> ColumnType {
        match self {
            Value::Int(_) => ColumnType::Int,
            Value::Text(_) => ColumnType::Text,
        }
    }

    /// Extract an integer, panicking on type mismatch (used by workloads
    /// that know their schema).
    pub fn as_int(&self) -> i64 {
        match self {
            Value::Int(v) => *v,
            other => panic!("expected Int, got {other:?}"),
        }
    }

    /// Extract a string slice.
    pub fn as_text(&self) -> &str {
        match self {
            Value::Text(v) => v,
            other => panic!("expected Text, got {other:?}"),
        }
    }

    /// Approximate in-memory size in bytes.
    pub fn size_bytes(&self) -> u64 {
        match self {
            Value::Int(_) => 8,
            Value::Text(s) => s.len() as u64,
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Text(v) => write!(f, "'{v}'"),
        }
    }
}

/// A borrowed column value: what a row is packed from without owning its
/// text first (see [`Record::from_cells`] and [`Table::load_cells`]).
///
/// [`Table::load_cells`]: crate::Table::load_cells
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cell<'a> {
    /// 64-bit signed integer.
    Int(i64),
    /// Text, borrowed.
    Text(&'a str),
}

/// A column value a row can be packed from: a [`Cell`], an integer, or an
/// owned [`Value`].
pub trait AsCell {
    /// The value, borrowed.
    fn as_cell(&self) -> Cell<'_>;
}

impl AsCell for Cell<'_> {
    #[inline]
    fn as_cell(&self) -> Cell<'_> {
        *self
    }
}

impl AsCell for i64 {
    #[inline]
    fn as_cell(&self) -> Cell<'_> {
        Cell::Int(*self)
    }
}

impl AsCell for Value {
    #[inline]
    fn as_cell(&self) -> Cell<'_> {
        match self {
            Value::Int(v) => Cell::Int(*v),
            Value::Text(s) => Cell::Text(s),
        }
    }
}

/// Most components a key can have.  Four covers every key of the built-in
/// workloads (the widest are TPC-C's `(w_id, d_id, o_id, ol_number)`
/// order-line range bounds); [`Schema::new`] refuses a wider primary key.
pub const MAX_KEY_COMPONENTS: usize = 4;

/// A (possibly composite) key: one to [`MAX_KEY_COMPONENTS`] integers, the
/// primary-key column values in key order.
///
/// A key is plain `Copy` data with no heap part, so constructing, passing
/// and hashing one on the per-action hot path never allocates.  Unused
/// slots of `vals` are always zero.
#[derive(Clone, Copy)]
pub struct Key {
    len: u8,
    vals: [i64; MAX_KEY_COMPONENTS],
}

impl fmt::Debug for Key {
    /// The debug form is pinned: `tests/workload_spec.rs` digests the debug
    /// form of generated transactions, keys included, against streams
    /// recorded when the inline integers were one arm (`Ints`) of two.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Key { len, vals } = self;
        write!(f, "Key(Ints {{ len: {len}, vals: {vals:?} }})")
    }
}

impl Key {
    /// A single-integer key (the common case for the microbenchmarks and
    /// TATP).
    #[inline]
    pub fn int(v: i64) -> Self {
        let mut vals = [0i64; MAX_KEY_COMPONENTS];
        vals[0] = v;
        Key { len: 1, vals }
    }

    /// A composite integer key (e.g. TPC-C `(w_id, d_id, o_id)`).
    #[inline]
    pub fn ints(vs: &[i64]) -> Self {
        assert!(
            (1..=MAX_KEY_COMPONENTS).contains(&vs.len()),
            "a key has 1 to {MAX_KEY_COMPONENTS} components, got {}",
            vs.len()
        );
        let mut vals = [0i64; MAX_KEY_COMPONENTS];
        vals[..vs.len()].copy_from_slice(vs);
        Key {
            len: vs.len() as u8,
            vals,
        }
    }

    /// The components, in key order.
    #[inline]
    pub(crate) fn comps(&self) -> &[i64] {
        &self.vals[..self.len as usize]
    }

    /// All [`MAX_KEY_COMPONENTS`] slots: the components, then zeros.
    #[inline]
    pub(crate) fn slots(&self) -> &[i64; MAX_KEY_COMPONENTS] {
        &self.vals
    }

    /// First component.
    #[inline]
    pub fn head_int(&self) -> i64 {
        self.vals[0]
    }

    /// Number of components.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the key has no components (never true for constructed keys).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Slice order of `a[..m]` and `b[..m]`, then `tie` where they agree:
/// `a[..n].cmp(&b[..p])` is `cmp_prefix(a, b, min(n, p), n.cmp(&p))`.
/// Unrolled over the `W` components with no early exit: one step per
/// component, the first difference before `m` deciding.
#[inline(always)]
pub(crate) fn cmp_prefix<const W: usize>(
    a: &[i64; W],
    b: &[i64; W],
    m: usize,
    tie: Ordering,
) -> Ordering {
    let mut ord = tie;
    for i in (0..W).rev() {
        let here = if i < m {
            a[i].cmp(&b[i])
        } else {
            Ordering::Equal
        };
        ord = here.then(ord);
    }
    ord
}

impl PartialEq for Key {
    /// The lengths and the zero-padded slots: unused slots are always
    /// zero, so equal slots mean equal components.
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.vals == other.vals
    }
}

impl Eq for Key {}

impl PartialOrd for Key {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    /// Lexicographic over components; a proper prefix sorts first.
    // lint: hot-path
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        let shared = self.len.min(other.len) as usize;
        cmp_prefix(&self.vals, &other.vals, shared, self.len.cmp(&other.len))
    }
}

impl std::hash::Hash for Key {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // The byte stream is a contract, not a choice: it is what
        // `derive(Hash)` fed the hasher when a key was a `Vec` of
        // `enum { Int(i64), .. }` — the slice length prefix, then per
        // component the `isize` discriminant 0 and the value.  The
        // centralized lock manager picks a bucket from this hash with a
        // fixed-key hasher, so the stream decides the simulated bucket
        // contention and with it every recorded result.
        state.write_usize(self.len());
        for &v in self.comps() {
            state.write_isize(0);
            state.write_i64(v);
        }
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.comps().iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

/// Most columns a record — and so a table — can have: the width of the
/// text-column mask in a record's shape word.  [`Schema::new`] refuses a
/// wider table.
pub const MAX_COLUMNS: usize = 32;

/// Bytes per column cell.
const CELL: usize = 8;

/// Where a shape word's key-prefix width starts.  A shape word holds the
/// text mask of the row's stored cells in bits 0..32, the number of stored
/// cells in bits 32..40, and from bit 40 the number of leading integer
/// cells kept outside the row's bytes (0 for a record).
const PREFIX_SHIFT: u32 = 40;

/// The number of leading key cells a row of shape `shape` keeps outside
/// its bytes.
#[inline]
pub(crate) fn prefix_width(shape: u64) -> usize {
    (shape >> PREFIX_SHIFT) as usize
}

/// The one byte length every row of shape `shape` has when its stored
/// cells hold no text — 8 per cell — or `None` when one is text.
#[inline]
pub(crate) fn fixed_len(shape: u64) -> Option<usize> {
    (shape as u32 == 0).then_some(CELL * (shape >> 32) as u8 as usize)
}

/// A tuple: one value per column of the table schema.
///
/// # Row layout
///
/// A row is one exact-size heap block, `bytes`: first `8 × arity`
/// little-endian cells, one per column, then the UTF-8 bytes of the text
/// columns in column order.  An `Int` cell is the value itself; a `Text`
/// cell is `offset << 32 | len` of its bytes within that tail.  `shape`
/// holds the arity in its high 32 bits and a mask of the text columns in
/// its low 32.  So an all-integer row owns exactly `8 × arity` heap bytes,
/// there is no per-column heap block, and the record is 24 bytes inline.
///
/// A `Record` is the owned row: what transaction specs carry, and what
/// `Table::load` and a bare `BTree` take.  A table insert takes a borrowed
/// [`Row`] (a spec's record lends its own), a load of cells packs its row
/// on the stack, and a delete hands nothing back.  Every row, owned or
/// borrowed, is laid out by one packer, so a row has the same bytes
/// however it was built.  The B+-tree stores no `Record`: a leaf copies
/// the row's bytes into its one row block and lends them out as a
/// [`Row`].  A table's leaf stores each key once: its rows drop their
/// first `w` cells, the primary key, which the leaf's key column already
/// holds.  What is left, `bytes[8w..]`, is itself a row in this layout —
/// `arity − w` cells, the text mask shifted down by `w` — since text cells
/// locate their bytes from the start of the text tail.
///
/// The layout is canonical — a row's values decide every byte — so
/// equality is byte equality.  The `Debug` form is that of the `Vec<Value>`
/// this layout replaced (`Record { values: [...] }`): generated-stream
/// digests pin it.
#[derive(Clone, PartialEq)]
pub struct Record {
    bytes: Box<[u8]>,
    shape: u64,
}

/// A borrowed row: its leading key cells, when they are kept apart, and
/// the bytes of the rest in the [`Record`] layout, wherever they live — a
/// record's own block (with no key cells apart) or a slot of a B+-tree
/// leaf's row block (with the slot's key components from the leaf's key
/// column).  Every accessor sees the full row.
#[derive(Clone, Copy)]
pub struct Row<'a> {
    /// Columns `0..prefix.len()`: integer cells not held in `bytes`.
    prefix: &'a [i64],
    /// The other columns, laid out as a row of their own.
    bytes: &'a [u8],
    /// The shape word of `bytes`, with the prefix width on top.
    shape: u64,
}

/// Panic unless `arity` columns fit a record.
fn check_arity(arity: usize) {
    assert!(
        arity <= MAX_COLUMNS,
        "a record has at most {MAX_COLUMNS} columns, got {arity}"
    );
}

impl Record {
    /// Pack `values` into a fresh block.  The argument's buffer is dropped,
    /// never shrunk and reused: its 32-byte slots would stay behind as
    /// heap holes.
    pub fn new(values: Vec<Value>) -> Self {
        Self::from_cells(&values)
    }

    /// An all-integer row, built straight into its block.
    pub fn ints(values: &[i64]) -> Self {
        Self::from_cells(values)
    }

    /// The row of `cells`, packed straight into its one exact-size block.
    pub fn from_cells<C: AsCell>(cells: &[C]) -> Self {
        let mut bytes = vec![0; packed_len(cells)].into_boxed_slice();
        let shape = pack_into(cells, &mut bytes);
        Self { bytes, shape }
    }

    /// The row this record holds, borrowed.
    #[inline]
    pub fn row(&self) -> Row<'_> {
        Row::from_parts(&[], &self.bytes, self.shape)
    }

    /// Number of columns.
    #[inline]
    pub fn arity(&self) -> usize {
        self.row().arity()
    }

    /// Value of column `i`.
    pub fn get(&self, i: usize) -> Value {
        self.row().get(i)
    }

    /// Integer in column `i`, or `None` on a text column.  Never allocates.
    #[inline]
    pub fn int(&self, i: usize) -> Option<i64> {
        self.row().int(i)
    }

    /// Extract the primary key of this record according to `schema`.
    pub fn key(&self, schema: &Schema) -> Key {
        self.row().key(schema)
    }

    /// Whether the record matches the schema's column count and types.
    pub fn conforms_to(&self, schema: &Schema) -> bool {
        self.row().conforms_to(schema)
    }

    /// Approximate in-memory size in bytes: 8 per integer plus the text
    /// bytes.
    pub fn size_bytes(&self) -> u64 {
        self.row().size_bytes()
    }

    /// Heap bytes the row owns — all of them in its one block.
    #[cfg(test)]
    fn heap_bytes(&self) -> usize {
        self.bytes.len()
    }
}

impl<'a> Row<'a> {
    /// A row of key cells `prefix` and the rest in `bytes`, laid out as
    /// `shape` says; `prefix` must be as wide as `shape`'s prefix.
    #[inline]
    pub(crate) fn from_parts(prefix: &'a [i64], bytes: &'a [u8], shape: u64) -> Self {
        debug_assert_eq!(prefix.len(), prefix_width(shape));
        Self {
            prefix,
            bytes,
            shape,
        }
    }

    /// The row with its first `key.len()` columns — integer cells holding
    /// `key` — taken from `key` instead of its bytes: `bytes()` is then the
    /// rest of the row, what a leaf stores beside its key column.  The row
    /// must keep no cells apart yet.
    #[inline]
    pub(crate) fn lend_key<'k>(self, key: &'k [i64]) -> Row<'k>
    where
        'a: 'k,
    {
        let w = key.len();
        debug_assert!(self.prefix.is_empty() && (0..w).all(|c| self.int(c) == Some(key[c])));
        let mask = self.shape as u32 as u64;
        Row::from_parts(
            key,
            &self.bytes[CELL * w..],
            (w as u64) << PREFIX_SHIFT | ((self.cells() - w) as u64) << 32 | mask >> w,
        )
    }

    /// The row's stored bytes, in the [`Record`] layout: every column but
    /// the key cells kept apart.
    #[inline]
    pub(crate) fn bytes(&self) -> &'a [u8] {
        self.bytes
    }

    /// The key cells kept apart from the bytes.
    #[inline]
    pub(crate) fn prefix(&self) -> &'a [i64] {
        self.prefix
    }

    /// The shape word of the stored bytes: the prefix width, the number of
    /// stored cells and their text-column mask.
    #[inline]
    pub(crate) fn shape(&self) -> u64 {
        self.shape
    }

    /// Number of cells in the stored bytes.
    #[inline]
    pub(crate) fn cells(&self) -> usize {
        (self.shape >> 32) as u8 as usize
    }

    /// Number of columns.
    #[inline]
    pub fn arity(&self) -> usize {
        self.prefix.len() + self.cells()
    }

    /// The text-column mask of the full row.
    #[inline]
    fn text_mask(&self) -> u64 {
        (self.shape as u32 as u64) << self.prefix.len()
    }

    /// The shape word of the full row, as [`shape_of`] gives it.
    #[inline]
    fn full_shape(&self) -> u64 {
        (self.arity() as u64) << 32 | self.text_mask()
    }

    /// The type of column `i` (in range).
    #[inline]
    fn column_type(&self, i: usize) -> ColumnType {
        if self.text_mask() >> i & 1 == 1 {
            ColumnType::Text
        } else {
            ColumnType::Int
        }
    }

    /// The raw cell of column `i`: a key cell kept apart is an integer.
    #[inline]
    fn cell(&self, i: usize) -> u64 {
        assert!(
            i < self.arity(),
            "column {i} of a {}-column record",
            self.arity()
        );
        match i.checked_sub(self.prefix.len()) {
            Some(stored) => read_cell(self.bytes, stored),
            None => self.prefix[i] as u64,
        }
    }

    /// The bytes of the text columns, in column order.
    #[inline]
    fn text_tail(&self) -> &'a [u8] {
        &self.bytes[CELL * self.cells()..]
    }

    /// The text a text column's `cell` points at.
    fn text(&self, cell: u64) -> &'a str {
        let start = (cell >> 32) as usize;
        let len = cell as u32 as usize;
        std::str::from_utf8(&self.text_tail()[start..start + len]).expect("packed from a str")
    }

    /// Value of column `i`.
    pub fn get(&self, i: usize) -> Value {
        let cell = self.cell(i);
        match self.column_type(i) {
            ColumnType::Text => Value::Text(self.text(cell).to_owned()),
            ColumnType::Int => Value::Int(cell as i64),
        }
    }

    /// Integer in column `i`, or `None` on a text column.  Never allocates.
    // lint: hot-path
    #[inline]
    pub fn int(&self, i: usize) -> Option<i64> {
        let cell = self.cell(i);
        (self.column_type(i) == ColumnType::Int).then_some(cell as i64)
    }

    /// The columns, in order.
    fn values(self) -> impl Iterator<Item = Value> + 'a {
        (0..self.arity()).map(move |i| self.get(i))
    }

    /// Extract the primary key of this row according to `schema`: its
    /// leading integer columns.
    pub fn key(&self, schema: &Schema) -> Key {
        let n = schema.primary_key.len();
        let mut vals = [0i64; MAX_KEY_COMPONENTS];
        for (col, slot) in vals[..n].iter_mut().enumerate() {
            *slot = self.int(col).expect("primary-key columns are Int");
        }
        Key { len: n as u8, vals }
    }

    /// Whether the row matches the schema's column count and types.
    pub fn conforms_to(&self, schema: &Schema) -> bool {
        self.full_shape() == shape_of(schema)
    }

    /// Approximate in-memory size in bytes: 8 per integer plus the text
    /// bytes.
    pub fn size_bytes(&self) -> u64 {
        let texts = self.text_mask().count_ones() as usize;
        (CELL * (self.arity() - texts) + self.text_tail().len()) as u64
    }

    /// An owned copy of the full row: one exact-size block.
    pub fn to_record(&self) -> Record {
        let mut bytes = Vec::with_capacity(CELL * self.prefix.len() + self.bytes.len());
        for v in self.prefix {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        bytes.extend_from_slice(self.bytes);
        Record {
            bytes: bytes.into_boxed_slice(),
            shape: self.full_shape(),
        }
    }
}

impl PartialEq for Row<'_> {
    /// Rows are equal when their values are, wherever their key cells are
    /// kept: the cells of the full row, then the text tail.
    fn eq(&self, other: &Self) -> bool {
        self.full_shape() == other.full_shape()
            && (0..self.arity()).all(|i| self.cell(i) == other.cell(i))
            && self.text_tail() == other.text_tail()
    }
}

/// The shape word of the rows `schema` describes: arity high, text-column
/// mask low.  Two rows conform to one schema exactly when their shape
/// words are equal.
pub(crate) fn shape_of(schema: &Schema) -> u64 {
    let mask = (0..)
        .zip(&schema.columns)
        .filter(|(_, c)| c.ty == ColumnType::Text)
        .fold(0u64, |mask, (i, _)| mask | 1 << i);
    (schema.columns.len() as u64) << 32 | mask
}

/// Bytes of the stack buffer [`with_row`] packs into: every all-integer
/// row fits, and so does a row of a few columns and a short text or two.
const STACK_ROW: usize = CELL * MAX_COLUMNS;

/// Hand `f` the row of `cells`, packed on the stack when it fits 256
/// bytes (on the heap otherwise) — for loaders that copy rows straight
/// into leaves, with no block per row.  An all-integer row always fits,
/// and packs at the cost of copying its integers.
#[inline]
pub(crate) fn with_row<C: AsCell, R>(cells: &[C], f: impl FnOnce(Row<'_>) -> R) -> R {
    let len = packed_len(cells);
    let mut stack = [0; STACK_ROW];
    let mut heap = Vec::new();
    // One call of `f`, so a loader's body is inlined once.  An all-integer
    // row has at most `STACK_ROW` bytes, so it never takes the heap arm.
    let bytes = match stack.get_mut(..len) {
        Some(bytes) => bytes,
        None => {
            heap.resize(len, 0);
            &mut heap[..]
        }
    };
    let shape = pack_into(cells, bytes);
    f(Row::from_parts(&[], bytes, shape))
}

/// The byte length of the row of `cells`.  Panics past [`MAX_COLUMNS`]
/// cells or 4 GiB of text.
#[inline]
fn packed_len<C: AsCell>(cells: &[C]) -> usize {
    check_arity(cells.len());
    let text_bytes: usize = cells
        .iter()
        .map(|c| match c.as_cell() {
            Cell::Int(_) => 0,
            Cell::Text(s) => s.len(),
        })
        .sum();
    assert!(
        u32::try_from(text_bytes).is_ok(),
        "a record holds under 4 GiB of text"
    );
    CELL * cells.len() + text_bytes
}

/// Lay the row of `cells` out in `out`, exactly [`packed_len`] bytes, and
/// return its shape word.  This is the one packer: every row, owned or
/// borrowed, gets its bytes here.
#[inline]
fn pack_into<C: AsCell>(cells: &[C], out: &mut [u8]) -> u64 {
    let (head, mut tail) = out.split_at_mut(CELL * cells.len());
    let (mut mask, mut offset) = (0u64, 0u64);
    for (i, (slot, c)) in head.chunks_exact_mut(CELL).zip(cells).enumerate() {
        let cell = match c.as_cell() {
            Cell::Int(x) => x as u64,
            Cell::Text(s) => {
                mask |= 1 << i;
                let (bytes, rest) = std::mem::take(&mut tail).split_at_mut(s.len());
                bytes.copy_from_slice(s.as_bytes());
                tail = rest;
                let cell = offset << 32 | s.len() as u64;
                offset += s.len() as u64;
                cell
            }
        };
        slot.copy_from_slice(&cell.to_le_bytes());
    }
    debug_assert!(tail.is_empty(), "a row packs to its packed length");
    (cells.len() as u64) << 32 | mask
}

/// The cell of column `i` of a row laid out from `bytes[0]`.
#[inline]
fn read_cell(bytes: &[u8], i: usize) -> u64 {
    let at = CELL * i;
    u64::from_le_bytes(bytes[at..at + CELL].try_into().expect("8-byte cell"))
}

/// Overwrite stored integer cell `i` of the row of shape `shape` that
/// starts at `rows[at]` with `v`, in place; the row may be followed by
/// others.  Key cells kept apart are no part of it: cell `i` is column
/// `i + prefix_width(shape)`.  Panics on a text cell.  This is the one
/// write path of packed rows, and it never changes a row's length: no text
/// is written after a row is packed.
pub(crate) fn write_cell(rows: &mut [u8], at: usize, shape: u64, i: usize, v: i64) {
    let shape = shape & ((1 << PREFIX_SHIFT) - 1);
    let row = Row::from_parts(&[], &rows[at..], shape);
    assert!(
        row.int(i).is_some(),
        "stored cell {i} is a Text cell, not Int"
    );
    let c = at + CELL * i;
    rows[c..c + CELL].copy_from_slice(&v.to_le_bytes());
}

impl From<Vec<Value>> for Record {
    fn from(values: Vec<Value>) -> Self {
        Record::new(values)
    }
}

impl fmt::Debug for Record {
    /// The derived form of `struct Record { values: Vec<Value> }`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.row().fmt(f)
    }
}

impl fmt::Debug for Row<'_> {
    /// The [`Record`] form of the same row.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Values<'a>(Row<'a>);
        impl fmt::Debug for Values<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_list().entries(self.0.values()).finish()
            }
        }
        f.debug_struct("Record")
            .field("values", &Values(*self))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, ColumnType};
    use proptest::prelude::*;

    #[test]
    fn integer_keys_order_numerically() {
        assert!(Key::int(-5) < Key::int(3));
        assert!(Key::int(3) < Key::int(30));
        assert_eq!(Key::int(7), Key::int(7));
    }

    #[test]
    fn composite_keys_order_lexicographically() {
        assert!(Key::ints(&[1, 5]) < Key::ints(&[2, 0]));
        assert!(Key::ints(&[1, 5]) < Key::ints(&[1, 6]));
        assert!(Key::ints(&[1]) < Key::ints(&[1, 0]));
    }

    #[test]
    fn keys_are_copy() {
        fn assert_copy<T: Copy>() {}
        assert_copy::<Key>();
    }

    /// The centralized lock manager's bucket choice — hence every recorded
    /// simulated number — hangs on the bytes `Key` feeds a hasher.  The
    /// constant was recorded when keys were a `Vec` of tagged components.
    #[test]
    fn key_hash_stream_is_pinned() {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        Key::ints(&[7, 9]).hash(&mut h);
        assert_eq!(h.finish(), 0x0ea0_7877_7df2_7325);
    }

    #[test]
    fn record_key_extraction_follows_schema() {
        let schema = Schema::new(
            "t",
            vec![
                Column::new("a", ColumnType::Int),
                Column::new("c", ColumnType::Int),
                Column::new("b", ColumnType::Text),
            ],
            vec![0, 1],
        );
        let r = Record::new(vec![Value::Int(9), Value::Int(1), Value::from("x")]);
        assert_eq!(r.key(&schema), Key::ints(&[9, 1]));
        assert!(r.conforms_to(&schema));
        let bad = Record::new(vec![Value::Int(1), Value::Int(2), Value::Int(9)]);
        assert!(!bad.conforms_to(&schema));
    }

    /// A row whose key cells are lent from its key is the same row: every
    /// accessor sees the full row, its stored bytes are the record's from
    /// the first non-key cell on, and writes through them land where the
    /// record's would.
    #[test]
    fn a_row_with_lent_key_cells_reads_as_the_full_row() {
        let schema = Schema::new(
            "t",
            vec![
                Column::new("w", ColumnType::Int),
                Column::new("d", ColumnType::Int),
                Column::new("s", ColumnType::Text),
                Column::new("n", ColumnType::Int),
                Column::new("t", ColumnType::Text),
            ],
            vec![0, 1],
        );
        let record = Record::new(vec![
            Value::Int(3),
            Value::Int(-7),
            Value::from("naïve"),
            Value::Int(42),
            Value::from("tail"),
        ]);
        let key = record.key(&schema);
        let lent = record.row().lend_key(key.comps());
        assert_eq!(lent.bytes(), &record.bytes[16..]);
        assert_eq!((lent.arity(), lent.cells()), (5, 3));
        assert_eq!(lent, record.row());
        assert!(lent.conforms_to(&schema));
        assert_eq!(lent.key(&schema), key);
        assert_eq!(lent.size_bytes(), record.size_bytes());
        assert_eq!(lent.to_record(), record);
        assert_eq!(format!("{lent:?}"), format!("{record:?}"));
        for c in 0..5 {
            assert_eq!(lent.get(c), record.get(c));
            assert_eq!(lent.int(c), record.int(c));
        }
        // An integer write to column 3 is one to stored cell 1, in place.
        let mut stored = lent.bytes().to_vec();
        write_cell(&mut stored, 0, lent.shape(), 1, -42);
        assert_eq!(stored.len(), lent.bytes().len());
        let written = Row::from_parts(key.comps(), &stored, lent.shape());
        let want = Record::new(vec![
            Value::Int(3),
            Value::Int(-7),
            Value::from("naïve"),
            Value::Int(-42),
            Value::from("tail"),
        ]);
        assert_eq!(written.to_record(), want);
        // A row with other values differs, wherever its cells are kept.
        assert_ne!(written, record.row());
    }

    #[test]
    fn value_accessors_and_sizes() {
        assert_eq!(Value::Int(5).as_int(), 5);
        assert_eq!(Value::from("abc").as_text(), "abc");
        assert_eq!(Value::from("abcd").size_bytes(), 4);
        let r = Record::new(vec![Value::Int(1), Value::from("abcd")]);
        assert_eq!(r.size_bytes(), 12);
    }

    /// The `Debug` forms of five rows, recorded when a record was a derived
    /// `struct Record { values: Vec<Value> }`.  Generated-stream digests
    /// hang on them.
    #[test]
    fn record_forms_are_pinned() {
        let rows = [
            (
                Record::ints(&[7, 70, -3]),
                "Record { values: [Int(7), Int(70), Int(-3)] }",
            ),
            (
                Record::new(vec![
                    Value::Int(42),
                    Value::Text(format!("{:015}", 42)),
                    Value::Int(0),
                    Value::Int(42),
                    Value::Int(42),
                ]),
                r#"Record { values: [Int(42), Text("000000000000042"), Int(0), Int(42), Int(42)] }"#,
            ),
            (
                Record::new(vec![Value::Int(1), Value::from(""), Value::Int(2)]),
                r#"Record { values: [Int(1), Text(""), Int(2)] }"#,
            ),
            (
                Record::new(vec![Value::Int(5), Value::from("naïve \u{1F980} ü\"q\\")]),
                r#"Record { values: [Int(5), Text("naïve 🦀 ü\"q\\")] }"#,
            ),
            (
                Record::ints(&[i64::MIN, i64::MAX, 0]),
                "Record { values: [Int(-9223372036854775808), Int(9223372036854775807), Int(0)] }",
            ),
        ];
        for (record, debug) in rows {
            assert_eq!(format!("{record:?}"), debug);
        }
        let empty_text = Record::new(vec![Value::Int(1), Value::from(""), Value::Int(2)]);
        assert_eq!(
            format!("{empty_text:#?}"),
            "Record {\n    values: [\n        Int(\n            1,\n        ),\n        \
             Text(\n            \"\",\n        ),\n        Int(\n            2,\n        ),\n    ],\n}"
        );
    }

    /// Memory, pinned by a count: a row owns one heap block of exactly
    /// `8 × arity` bytes plus its text, however it was built.
    #[test]
    fn a_row_owns_one_exact_block() {
        assert!(std::mem::size_of::<Record>() <= 24);
        assert_eq!(Record::ints(&[1, 2, 3, 4, 5]).heap_bytes(), 40);
        let tatp = Record::new(vec![
            Value::Int(1),
            Value::from("000000000000001"),
            Value::Int(1),
            Value::Int(1),
            Value::Int(1),
        ]);
        assert_eq!(tatp.heap_bytes(), 5 * 8 + 15);
        // A caller's buffer with spare capacity is copied out, not kept.
        let mut spare = Vec::with_capacity(64);
        spare.extend([Value::Int(1), Value::Int(2), Value::Int(3)]);
        assert_eq!(Record::new(spare).heap_bytes(), 24);
    }

    /// Text of `len` characters, some of them multi-byte, from `seed`.
    fn text(seed: i64, len: usize) -> String {
        "aü🦀 z"
            .chars()
            .cycle()
            .skip(seed.rem_euclid(5) as usize)
            .take(len)
            .collect()
    }

    /// The components of a key of 1–4 components: mostly from a narrow
    /// range, so that keys share prefixes, sometimes an extreme.
    fn key_comps() -> impl Strategy<Value = Vec<i64>> {
        let comp = prop_oneof![8 => -2i64..=2, 1 => Just(i64::MIN), 1 => Just(i64::MAX)];
        prop::collection::vec(comp, 1..=MAX_KEY_COMPONENTS)
    }

    proptest! {
        /// Every way to build a row packs it to the bytes and shape of
        /// `Record::new`: `Record::from_cells` and `with_row` of borrowed
        /// cells, and `with_row` of the owned values — over rows of 1–32
        /// cells mixing integers with empty texts, short ones and ones that
        /// push the row past the stack buffer `with_row` packs into.
        #[test]
        fn every_packing_path_lays_a_row_out_as_record_new(
            raw in prop::collection::vec((0u8..4, any::<i64>(), 0usize..12), 1..=32),
        ) {
            let values: Vec<Value> = raw
                .iter()
                .map(|&(kind, v, len)| match kind {
                    0 | 1 => Value::Int(v),
                    2 => Value::Text(text(v, len)),
                    _ => Value::Text(text(v, STACK_ROW + 16 * len)),
                })
                .collect();
            let cells: Vec<Cell<'_>> = values.iter().map(AsCell::as_cell).collect();
            let want = Record::new(values.clone());
            let owned = Record::from_cells(&cells);
            prop_assert_eq!((&owned.bytes, owned.shape), (&want.bytes, want.shape));
            for row in [
                with_row(&cells, |row| (row.bytes().to_vec(), row.shape())),
                with_row(&values, |row| (row.bytes().to_vec(), row.shape())),
            ] {
                prop_assert_eq!((&row.0[..], row.1), (&want.bytes[..], want.shape));
            }
            prop_assert_eq!(format!("{owned:?}"), format!("{want:?}"));
        }

        /// `Key`'s `==` and `cmp` are slice order of the components, over
        /// keys of mixed widths: a proper prefix sorts first, and a zero
        /// component is not an unused slot.
        #[test]
        fn keys_compare_as_their_component_slices(
            comps in prop::collection::vec(key_comps(), 1..24),
        ) {
            for a in &comps {
                for b in &comps {
                    let (ka, kb) = (Key::ints(a), Key::ints(b));
                    prop_assert_eq!(ka.cmp(&kb), a.cmp(b));
                    prop_assert_eq!(ka == kb, a == b);
                    prop_assert_eq!(ka.partial_cmp(&kb), Some(a.cmp(b)));
                }
            }
        }
    }

    /// An all-integer row packs from plain integers exactly as from the
    /// values it stands for.
    #[test]
    fn integers_pack_as_their_values() {
        let ints = [i64::MIN, -1, 0, 7, i64::MAX];
        let values: Vec<Value> = ints.iter().map(|&v| Value::Int(v)).collect();
        assert_eq!(Record::ints(&ints), Record::new(values));
        with_row(&ints, |row| {
            assert_eq!(row.to_record(), Record::ints(&ints))
        });
    }

    #[test]
    #[should_panic(expected = "at most 32 columns")]
    fn a_record_holds_at_most_max_columns() {
        assert_eq!(Record::ints(&[0; MAX_COLUMNS]).arity(), MAX_COLUMNS);
        let _ = Record::ints(&[0; MAX_COLUMNS + 1]);
    }
}
