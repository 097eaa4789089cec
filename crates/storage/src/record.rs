//! Values, records, and keys.
//!
//! A row is one 8-byte little-endian cell per column, then the UTF-8 bytes
//! of its text columns.  An integer cell is the value; a text cell is the
//! `offset << 32 | len` of its bytes in that tail.  A [`Record`] owns one
//! row in a single exact-size heap block; a [`Row`] borrows one, wherever
//! its bytes live — a record, or a slot of a B+-tree leaf, which keeps all
//! of its rows back to back in one block.  `write_cell` is the one path
//! that writes into packed rows.  A [`Key`] is up to four inline integers
//! with no heap part at all.

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

    /// First component.
    #[inline]
    pub fn head_int(&self) -> i64 {
        self.vals[0]
    }

    /// An order-preserving 64-bit prefix of the key, for the packed column
    /// B+-tree nodes search before they touch a full key: the first
    /// component in the high 32 bits, the second clamped to `[0, 2³²)` in
    /// the low 32 (absent = 0).  Whatever does not fit saturates — a first
    /// component outside `i32` takes the whole rank to `i64::MIN`/`MAX` —
    /// so the rank is only *weakly* monotone:
    /// `a <= b` implies `a.head_rank() <= b.head_rank()`, and nothing more.
    /// Unequal ranks order their keys; equal ranks say nothing, so equality
    /// is always decided by a full `Key` compare.
    #[inline]
    pub fn head_rank(&self) -> i64 {
        const LOW_MAX: i64 = u32::MAX as i64;
        // An absent second component is a zero slot.
        let (head, low) = (self.vals[0], self.vals[1]);
        match i32::try_from(head) {
            Ok(h) => (i64::from(h) << 32) | low.clamp(0, LOW_MAX),
            Err(_) if head < 0 => i64::MIN,
            Err(_) => i64::MAX,
        }
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

impl PartialEq for Key {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.comps() == other.comps()
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
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.comps().cmp(other.comps())
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
/// A `Record` is the owned row at the API edge — what inserts take, what
/// a delete hands back, what transaction specs carry.  The B+-tree stores
/// no `Record`: a leaf copies the same bytes into its one row block and
/// lends them out as a [`Row`].
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

/// A borrowed row: the bytes of one [`Record`]'s layout, wherever they
/// live — a record's own block or a slot of a B+-tree leaf's row block.
#[derive(Clone, Copy, PartialEq)]
pub struct Row<'a> {
    bytes: &'a [u8],
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
        Self::pack(&values)
    }

    /// An all-integer row, built straight into its block.
    pub fn ints(values: &[i64]) -> Self {
        with_int_row(values, |row| row.to_record())
    }

    fn pack(values: &[Value]) -> Self {
        check_arity(values.len());
        let text_bytes: usize = values
            .iter()
            .map(|v| match v {
                Value::Int(_) => 0,
                Value::Text(s) => s.len(),
            })
            .sum();
        assert!(
            u32::try_from(text_bytes).is_ok(),
            "a record holds under 4 GiB of text"
        );
        let mut bytes = Vec::with_capacity(CELL * values.len() + text_bytes);
        let (mut mask, mut offset) = (0u64, 0u64);
        for (i, v) in values.iter().enumerate() {
            let cell = match v {
                Value::Int(x) => *x as u64,
                Value::Text(s) => {
                    mask |= 1 << i;
                    let cell = offset << 32 | s.len() as u64;
                    offset += s.len() as u64;
                    cell
                }
            };
            bytes.extend_from_slice(&cell.to_le_bytes());
        }
        for v in values {
            if let Value::Text(s) = v {
                bytes.extend_from_slice(s.as_bytes());
            }
        }
        Self {
            bytes: bytes.into_boxed_slice(),
            shape: (values.len() as u64) << 32 | mask,
        }
    }

    /// The row this record holds, borrowed.
    #[inline]
    pub fn row(&self) -> Row<'_> {
        Row {
            bytes: &self.bytes,
            shape: self.shape,
        }
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

    /// Overwrite column `i`.  A value of the column's type is written into
    /// the block as a leaf writes it (`write_cell`); a value of the other
    /// type repacks the row.
    pub fn set(&mut self, i: usize, v: &Value) {
        if self.row().column_type(i) == v.column_type() {
            let mut bytes = std::mem::take(&mut self.bytes).into_vec();
            write_cell(&mut bytes, 0, self.shape, i, v);
            self.bytes = bytes.into_boxed_slice();
        } else {
            let mut values: Vec<Value> = self.row().values().collect();
            values[i] = v.clone();
            *self = Self::pack(&values);
        }
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
    /// A row over `bytes`, laid out as `shape` says.
    #[inline]
    pub(crate) fn from_parts(bytes: &'a [u8], shape: u64) -> Self {
        Self { bytes, shape }
    }

    /// The row's bytes, in the [`Record`] layout.
    #[inline]
    pub(crate) fn bytes(&self) -> &'a [u8] {
        self.bytes
    }

    /// The row's shape word: arity high, text-column mask low.
    #[inline]
    pub(crate) fn shape(&self) -> u64 {
        self.shape
    }

    /// Number of columns.
    #[inline]
    pub fn arity(&self) -> usize {
        (self.shape >> 32) as usize
    }

    /// The type of column `i` (in range).
    #[inline]
    fn column_type(&self, i: usize) -> ColumnType {
        if self.shape >> i & 1 == 1 {
            ColumnType::Text
        } else {
            ColumnType::Int
        }
    }

    /// The raw cell of column `i`.
    #[inline]
    fn cell(&self, i: usize) -> u64 {
        assert!(
            i < self.arity(),
            "column {i} of a {}-column record",
            self.arity()
        );
        read_cell(self.bytes, i)
    }

    /// The text a text column's `cell` points at.
    fn text(&self, cell: u64) -> &'a str {
        let start = CELL * self.arity() + (cell >> 32) as usize;
        let len = cell as u32 as usize;
        std::str::from_utf8(&self.bytes[start..start + len]).expect("packed from a str")
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

    /// Extract the primary key of this row according to `schema`.
    pub fn key(&self, schema: &Schema) -> Key {
        let pk = &schema.primary_key;
        let mut vals = [0i64; MAX_KEY_COMPONENTS];
        for (slot, &col) in vals[..pk.len()].iter_mut().zip(pk) {
            *slot = self.int(col).expect("primary-key columns are Int");
        }
        Key {
            len: pk.len() as u8,
            vals,
        }
    }

    /// Whether the row matches the schema's column count and types.
    pub fn conforms_to(&self, schema: &Schema) -> bool {
        self.shape == shape_of(schema)
    }

    /// Approximate in-memory size in bytes: 8 per integer plus the text
    /// bytes.
    pub fn size_bytes(&self) -> u64 {
        let texts = (self.shape as u32).count_ones() as usize;
        let text_bytes = self.bytes.len() - CELL * self.arity();
        (CELL * (self.arity() - texts) + text_bytes) as u64
    }

    /// An owned copy: one exact-size block.
    pub fn to_record(&self) -> Record {
        Record {
            bytes: self.bytes.into(),
            shape: self.shape,
        }
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

/// Hand `f` the all-integer row of `values`, packed on the stack — for
/// loaders that copy rows straight into leaves.
#[inline]
pub(crate) fn with_int_row<R>(values: &[i64], f: impl FnOnce(Row<'_>) -> R) -> R {
    check_arity(values.len());
    let mut bytes = [0; CELL * MAX_COLUMNS];
    for (cell, v) in bytes.chunks_exact_mut(CELL).zip(values) {
        cell.copy_from_slice(&v.to_le_bytes());
    }
    f(Row::from_parts(
        &bytes[..CELL * values.len()],
        (values.len() as u64) << 32,
    ))
}

/// The cell of column `i` of a row laid out from `bytes[0]`.
#[inline]
fn read_cell(bytes: &[u8], i: usize) -> u64 {
    let at = CELL * i;
    u64::from_le_bytes(bytes[at..at + CELL].try_into().expect("8-byte cell"))
}

/// Overwrite column `i` of the row of shape `shape` that starts at
/// `rows[at]` with `v`, which must have the column's type; the row may be
/// followed by others.  An integer goes in place.  A text re-splices the
/// row's tail — bytes after the row shift with it — and moves the offsets
/// of the text columns behind it.  Returns the change in the row's length.
/// This is the one write path of packed rows: a [`Record`]'s block and a
/// leaf's row block alike.
pub(crate) fn write_cell(rows: &mut Vec<u8>, at: usize, shape: u64, i: usize, v: &Value) -> isize {
    let row = Row::from_parts(&rows[at..], shape);
    let cell = row.cell(i);
    let put = |rows: &mut Vec<u8>, col: usize, cell: u64| {
        let c = at + CELL * col;
        rows[c..c + CELL].copy_from_slice(&cell.to_le_bytes());
    };
    match (row.column_type(i), v) {
        (ColumnType::Int, Value::Int(x)) => {
            put(rows, i, *x as u64);
            0
        }
        (ColumnType::Text, Value::Text(s)) => {
            let arity = row.arity();
            let (offset, old_len) = (cell >> 32, cell as u32 as usize);
            let start = at + CELL * arity + offset as usize;
            let delta = s.len() as isize - old_len as isize;
            if delta > 0 {
                rows.reserve_exact(delta as usize);
            }
            rows.splice(start..start + old_len, s.bytes());
            put(rows, i, offset << 32 | s.len() as u64);
            for j in i + 1..arity {
                if shape >> j & 1 == 1 {
                    let moved = read_cell(&rows[at..], j).wrapping_add_signed((delta as i64) << 32);
                    put(rows, j, moved);
                }
            }
            delta
        }
        (ty, v) => panic!("column {i} is a {ty:?} column, not {:?}", v.column_type()),
    }
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
    fn head_rank_packs_two_components_and_saturates() {
        assert_eq!(Key::int(5).head_rank(), 5 << 32);
        assert_eq!(Key::int(-1).head_rank(), -1 << 32);
        assert_eq!(Key::ints(&[7, 9]).head_rank(), (7 << 32) | 9);
        // Components past the second do not count; a second one is clamped.
        assert_eq!(Key::ints(&[7, 9, 3, 1]).head_rank(), (7 << 32) | 9);
        assert_eq!(Key::ints(&[7, -4]).head_rank(), Key::int(7).head_rank());
        assert_eq!(
            Key::ints(&[7, 1 << 40]).head_rank(),
            (7 << 32) | 0xFFFF_FFFF
        );
        // What does not fit saturates, keeping the order weakly.
        assert_eq!(Key::int(i64::from(i32::MAX) + 1).head_rank(), i64::MAX);
        assert_eq!(Key::int(i64::from(i32::MIN) - 1).head_rank(), i64::MIN);
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
                Column::new("b", ColumnType::Text),
                Column::new("c", ColumnType::Int),
            ],
            vec![2, 0],
        );
        let r = Record::new(vec![Value::Int(1), Value::from("x"), Value::Int(9)]);
        assert_eq!(r.key(&schema), Key::ints(&[9, 1]));
        assert!(r.conforms_to(&schema));
        let bad = Record::new(vec![Value::Int(1), Value::Int(2), Value::Int(9)]);
        assert!(!bad.conforms_to(&schema));
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
        let mut tatp = Record::new(vec![
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
        // An integer write stays in place; a text write rebuilds exactly.
        tatp.set(2, &Value::Int(9));
        assert_eq!(tatp.heap_bytes(), 5 * 8 + 15);
        tatp.set(1, &Value::from("ü"));
        assert_eq!(tatp.heap_bytes(), 5 * 8 + 2);
        assert_eq!(tatp.get(1), Value::from("ü"));
        assert_eq!(tatp.int(2), Some(9));
    }

    #[test]
    #[should_panic(expected = "at most 32 columns")]
    fn a_record_holds_at_most_max_columns() {
        assert_eq!(Record::ints(&[0; MAX_COLUMNS]).arity(), MAX_COLUMNS);
        let _ = Record::ints(&[0; MAX_COLUMNS + 1]);
    }
}
