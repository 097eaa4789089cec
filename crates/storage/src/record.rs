//! Values, records, and keys.

use crate::schema::{ColumnType, Schema};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// A single column value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// 64-bit signed integer.
    Int(i64),
    /// Variable-length string.
    Text(String),
    /// 64-bit float (ordered by total order; never used in keys by the
    /// built-in workloads).
    Double(f64),
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Int(a), Int(b)) => a.cmp(b),
            (Text(a), Text(b)) => a.cmp(b),
            (Double(a), Double(b)) => a.total_cmp(b),
            // Heterogeneous comparisons order by type tag; they only occur
            // if a caller mixes key shapes, which the tables reject anyway.
            (Int(_), _) => Ordering::Less,
            (_, Int(_)) => Ordering::Greater,
            (Text(_), _) => Ordering::Less,
            (_, Text(_)) => Ordering::Greater,
        }
    }
}

impl Value {
    /// The column type this value belongs to.
    pub fn column_type(&self) -> ColumnType {
        match self {
            Value::Int(_) => ColumnType::Int,
            Value::Text(_) => ColumnType::Text,
            Value::Double(_) => ColumnType::Double,
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

    /// Extract a float.
    pub fn as_double(&self) -> f64 {
        match self {
            Value::Double(v) => *v,
            Value::Int(v) => *v as f64,
            other => panic!("expected Double, got {other:?}"),
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
            Value::Int(_) | Value::Double(_) => 8,
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

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Text(v) => write!(f, "'{v}'"),
            Value::Double(v) => write!(f, "{v}"),
        }
    }
}

/// A (possibly composite) key: the primary-key column values in key order.
///
/// All-integer keys of up to four components — every key of the built-in
/// workloads, from TATP subscriber ids to TPC-C's
/// `(w_id, d_id, o_id, ol_number)` order-line range bounds — are stored
/// inline with no heap allocation, so constructing, cloning, and hashing
/// them on the per-action hot path is allocation-free.
/// Anything else (text components, wider composites) falls back to a
/// general heap-backed representation.  Constructors normalize, so equal
/// keys always use the same representation.
#[derive(Debug, Clone)]
pub struct Key(KeyRepr);

#[derive(Debug, Clone)]
enum KeyRepr {
    /// Up to four integer components, stored inline.
    Ints { len: u8, vals: [i64; INLINE_INTS] },
    /// General composite key.
    General(Vec<KeyValue>),
}

/// Maximum number of components of the inline all-integer representation.
/// Four covers every key of the built-in workloads (the widest are TPC-C's
/// `(w_id, d_id, o_id, ol_number)` order-line range bounds).
const INLINE_INTS: usize = 4;

/// A borrowed view of one key component, used to compare and hash keys
/// uniformly across representations.  The variant order matches
/// [`KeyValue`] so ordering agrees with the historical derived order
/// (integers sort before text).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum CompRef<'a> {
    /// Integer component.
    Int(i64),
    /// Text component.
    Text(&'a str),
}

/// Key-safe value (hashable); floats are not allowed in keys.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize, Hash)]
pub enum KeyValue {
    /// Integer key component.
    Int(i64),
    /// Text key component.
    Text(String),
}

impl From<Value> for KeyValue {
    fn from(v: Value) -> Self {
        match v {
            Value::Int(i) => KeyValue::Int(i),
            Value::Text(s) => KeyValue::Text(s),
            Value::Double(_) => panic!("floating-point values cannot be used as keys"),
        }
    }
}

impl From<KeyValue> for Value {
    fn from(v: KeyValue) -> Self {
        match v {
            KeyValue::Int(i) => Value::Int(i),
            KeyValue::Text(s) => Value::Text(s),
        }
    }
}

impl Key {
    /// Build a key from raw values.
    pub fn from(values: Vec<Value>) -> Self {
        assert!(!values.is_empty(), "keys must have at least one component");
        if values.len() <= INLINE_INTS && values.iter().all(|v| matches!(v, Value::Int(_))) {
            let mut vals = [0i64; INLINE_INTS];
            for (i, v) in values.iter().enumerate() {
                vals[i] = match v {
                    Value::Int(x) => *x,
                    _ => unreachable!(),
                };
            }
            return Key(KeyRepr::Ints {
                len: values.len() as u8,
                vals,
            });
        }
        Key(KeyRepr::General(
            values.into_iter().map(KeyValue::from).collect(),
        ))
    }

    /// A single-integer key (the common case for the microbenchmarks and
    /// TATP).  Allocation-free.
    #[inline]
    pub fn int(v: i64) -> Self {
        let mut vals = [0i64; INLINE_INTS];
        vals[0] = v;
        Key(KeyRepr::Ints { len: 1, vals })
    }

    /// A composite integer key (e.g. TPC-C `(w_id, d_id, o_id)`).
    /// Allocation-free up to four components.
    pub fn ints(vs: &[i64]) -> Self {
        assert!(!vs.is_empty());
        if vs.len() <= INLINE_INTS {
            let mut vals = [0i64; INLINE_INTS];
            vals[..vs.len()].copy_from_slice(vs);
            Key(KeyRepr::Ints {
                len: vs.len() as u8,
                vals,
            })
        } else {
            Key(KeyRepr::General(
                vs.iter().map(|&v| KeyValue::Int(v)).collect(),
            ))
        }
    }

    /// Key components, materialized (keys with inline integer storage have
    /// no `KeyValue` slice to borrow).
    pub fn components(&self) -> Vec<KeyValue> {
        (0..self.len())
            .map(|i| match self.comp(i) {
                CompRef::Int(v) => KeyValue::Int(v),
                CompRef::Text(s) => KeyValue::Text(s.to_string()),
            })
            .collect()
    }

    /// Borrow component `i`.
    #[inline]
    fn comp(&self, i: usize) -> CompRef<'_> {
        match &self.0 {
            KeyRepr::Ints { len, vals } => {
                assert!(i < *len as usize, "key component out of range");
                CompRef::Int(vals[i])
            }
            KeyRepr::General(vs) => match &vs[i] {
                KeyValue::Int(v) => CompRef::Int(*v),
                KeyValue::Text(s) => CompRef::Text(s),
            },
        }
    }

    /// First component as an integer (panics if not an int key).
    #[inline]
    pub fn head_int(&self) -> i64 {
        match self.comp(0) {
            CompRef::Int(v) => v,
            CompRef::Text(s) => panic!("expected Int key head, got Text({s:?})"),
        }
    }

    /// An order-preserving 64-bit prefix of the key, for the packed column
    /// B+-tree nodes search before they touch a full key: the first
    /// component in the high 32 bits, the second clamped to `[0, 2³²)` in
    /// the low 32 (absent = 0).  Whatever does not fit saturates — a first
    /// component outside `i32` takes the whole rank to `i64::MIN`/`MAX`, a
    /// text component is the maximum of its field (text sorts after every
    /// integer) — so the rank is only *weakly* monotone:
    /// `a <= b` implies `a.head_rank() <= b.head_rank()`, and nothing more.
    /// Unequal ranks order their keys; equal ranks say nothing, so equality
    /// is always decided by a full `Key` compare.
    #[inline]
    pub fn head_rank(&self) -> i64 {
        const LOW_MAX: i64 = u32::MAX as i64;
        let (head, low) = match &self.0 {
            KeyRepr::Ints { len, vals } => (vals[0], if *len > 1 { vals[1] } else { 0 }),
            KeyRepr::General(vs) => (
                match &vs[0] {
                    KeyValue::Int(v) => *v,
                    KeyValue::Text(_) => return i64::MAX,
                },
                match vs.get(1) {
                    None => 0,
                    Some(KeyValue::Int(v)) => *v,
                    Some(KeyValue::Text(_)) => LOW_MAX,
                },
            ),
        };
        match i32::try_from(head) {
            Ok(h) => (i64::from(h) << 32) | low.clamp(0, LOW_MAX),
            Err(_) if head < 0 => i64::MIN,
            Err(_) => i64::MAX,
        }
    }

    /// Number of components.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.0 {
            KeyRepr::Ints { len, .. } => *len as usize,
            KeyRepr::General(vs) => vs.len(),
        }
    }

    /// Whether the key has no components (never true for constructed keys).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate encoded size in bytes.
    pub fn size_bytes(&self) -> u64 {
        (0..self.len())
            .map(|i| match self.comp(i) {
                CompRef::Int(_) => 8,
                CompRef::Text(s) => s.len() as u64,
            })
            .sum()
    }
}

impl PartialEq for Key {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        // The all-int inline × inline case is the hot path (B-tree probes,
        // lock-table lookups); compare it without the component indirection.
        match (&self.0, &other.0) {
            (KeyRepr::Ints { len: la, vals: va }, KeyRepr::Ints { len: lb, vals: vb }) => {
                la == lb && va[..*la as usize] == vb[..*lb as usize]
            }
            _ => {
                self.len() == other.len() && (0..self.len()).all(|i| self.comp(i) == other.comp(i))
            }
        }
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
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // Lexicographic over components, exactly as the historical
        // `Vec<KeyValue>` derive ordered keys.
        match (&self.0, &other.0) {
            (KeyRepr::Ints { len: la, vals: va }, KeyRepr::Ints { len: lb, vals: vb }) => {
                va[..*la as usize].cmp(&vb[..*lb as usize])
            }
            _ => {
                let (n, m) = (self.len(), other.len());
                for i in 0..n.min(m) {
                    match self.comp(i).cmp(&other.comp(i)) {
                        Ordering::Equal => continue,
                        ne => return ne,
                    }
                }
                n.cmp(&m)
            }
        }
    }
}

impl std::hash::Hash for Key {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Feed the hasher exactly the bytes the historical
        // `derive(Hash)` over `Vec<KeyValue>` fed it: the length prefix
        // followed by each component's derived hash.  Lock-manager bucket
        // assignment is derived from this hash with a fixed-key hasher, so
        // preserving the byte stream preserves the simulated bucket
        // contention (and therefore the simulation results) bit for bit.
        match &self.0 {
            KeyRepr::General(vs) => vs.hash(state),
            KeyRepr::Ints { len, vals } => {
                let n = *len as usize;
                // `<[T]>::hash` length prefix (`write_length_prefix`
                // defaults to `write_usize`; the std hashers don't
                // override it).
                state.write_usize(n);
                for v in &vals[..n] {
                    KeyValue::Int(*v).hash(state);
                }
            }
        }
    }
}

impl serde::ser::Serialize for Key {
    fn to_value(&self) -> serde::Value {
        // Same external shape as the historical transparent newtype over
        // `Vec<KeyValue>`: an array of externally tagged components.
        serde::Value::Array(
            (0..self.len())
                .map(|i| match self.comp(i) {
                    CompRef::Int(v) => serde::ser::Serialize::to_value(&KeyValue::Int(v)),
                    CompRef::Text(s) => {
                        serde::ser::Serialize::to_value(&KeyValue::Text(s.to_string()))
                    }
                })
                .collect(),
        )
    }
}

impl serde::de::Deserialize for Key {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let comps = <Vec<KeyValue> as serde::de::Deserialize>::from_value(v)?;
        if comps.is_empty() {
            return Err(serde::Error::new("keys must have at least one component"));
        }
        Ok(Key::from(comps.into_iter().map(Value::from).collect()))
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for i in 0..self.len() {
            if i > 0 {
                write!(f, ",")?;
            }
            match self.comp(i) {
                CompRef::Int(x) => write!(f, "{x}")?,
                CompRef::Text(s) => write!(f, "'{s}'")?,
            }
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
        Key::from(
            schema
                .primary_key
                .iter()
                .map(|&i| self.values[i].clone())
                .collect(),
        )
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
        let text = |s: &str| Value::from(s);
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
        assert_eq!(
            Key::from(vec![text("a"), Value::Int(1)]).head_rank(),
            i64::MAX
        );
        assert_eq!(
            Key::from(vec![Value::Int(7), text("a")]).head_rank(),
            (7 << 32) | 0xFFFF_FFFF
        );
    }

    #[test]
    #[should_panic(expected = "floating-point")]
    fn float_keys_are_rejected() {
        let _ = Key::from(vec![Value::Double(1.5)]);
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
        assert_eq!(Value::Double(2.5).as_double(), 2.5);
        assert_eq!(Value::from("abcd").size_bytes(), 4);
        let r = Record::new(vec![Value::Int(1), Value::from("abcd")]);
        assert_eq!(r.size_bytes(), 12);
    }

    #[test]
    fn doubles_order_totally() {
        assert!(Value::Double(f64::NEG_INFINITY) < Value::Double(0.0));
        assert!(Value::Double(1.0) < Value::Double(f64::INFINITY));
    }
}
