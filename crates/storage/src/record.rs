//! Values, records, and keys.

use crate::schema::{ColumnType, Schema};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// A single column value.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
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

/// One key component as it is serialized (`{"Int": v}`).
#[derive(Serialize, Deserialize)]
enum KeyComponent {
    Int(i64),
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
    fn comps(&self) -> &[i64] {
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

impl serde::ser::Serialize for Key {
    fn to_value(&self) -> serde::Value {
        let comps: Vec<KeyComponent> = self.comps().iter().map(|&v| KeyComponent::Int(v)).collect();
        serde::ser::Serialize::to_value(&comps)
    }
}

impl serde::de::Deserialize for Key {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let comps = <Vec<KeyComponent> as serde::de::Deserialize>::from_value(v)?;
        if !(1..=MAX_KEY_COMPONENTS).contains(&comps.len()) {
            return Err(serde::Error::new(format!(
                "a key has 1 to {MAX_KEY_COMPONENTS} components, got {}",
                comps.len()
            )));
        }
        let ints: Vec<i64> = comps.iter().map(|KeyComponent::Int(v)| *v).collect();
        Ok(Key::ints(&ints))
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

/// A tuple: one value per column of the table schema.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Record {
    values: Vec<Value>,
}

impl Record {
    /// Build a record from values.
    pub fn new(values: Vec<Value>) -> Self {
        Self { values }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Column values.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Value of column `i`.
    pub fn get(&self, i: usize) -> &Value {
        &self.values[i]
    }

    /// Overwrite column `i`.
    pub fn set(&mut self, i: usize, v: Value) {
        self.values[i] = v;
    }

    /// Extract the primary key of this record according to `schema`.
    pub fn key(&self, schema: &Schema) -> Key {
        let pk = &schema.primary_key;
        let mut vals = [0i64; MAX_KEY_COMPONENTS];
        for (slot, &col) in vals[..pk.len()].iter_mut().zip(pk) {
            *slot = self.values[col].as_int();
        }
        Key {
            len: pk.len() as u8,
            vals,
        }
    }

    /// Whether the record matches the schema's column count and types.
    pub fn conforms_to(&self, schema: &Schema) -> bool {
        self.values.len() == schema.columns.len()
            && self
                .values
                .iter()
                .zip(&schema.columns)
                .all(|(v, c)| v.column_type() == c.ty)
    }

    /// Approximate in-memory size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.values.iter().map(Value::size_bytes).sum()
    }
}

impl From<Vec<Value>> for Record {
    fn from(values: Vec<Value>) -> Self {
        Record::new(values)
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

    #[test]
    fn key_json_round_trips_and_rejects_what_a_key_cannot_be() {
        let json = serde::json::to_string(&Key::ints(&[7, 9]));
        assert_eq!(json, r#"[{"Int":7},{"Int":9}]"#);
        for comps in [&[3][..], &[7, 9], &[1, -2, 3], &[1, 2, 3, i64::MAX]] {
            let key = Key::ints(comps);
            let back: Key = serde::json::from_str(&serde::json::to_string(&key)).unwrap();
            assert_eq!(back, key);
            assert_eq!(back.len(), comps.len());
        }
        for bad in [
            "[]",
            r#"[{"Text":"a"}]"#,
            r#"[{"Int":1},{"Int":2},{"Int":3},{"Int":4},{"Int":5}]"#,
        ] {
            assert!(serde::json::from_str::<Key>(bad).is_err(), "{bad}");
        }
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
}
