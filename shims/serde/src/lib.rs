//! A self-contained, offline stand-in for the `serde` + `serde_json` stack.
//!
//! The build environment of this repository has no access to crates.io, so
//! this crate provides the subset of the serde data model the workspace
//! actually uses: a JSON-style [`Value`] tree, [`ser::Serialize`] /
//! [`de::Deserialize`] traits defined directly over that tree, derive
//! macros (re-exported from `serde_derive`), and a [`json`] module with
//! text parsing and printing.  The external representation matches
//! serde_json's defaults (externally tagged enums, structs as objects), so
//! scenario files written here stay readable and portable.
//!
//! Intentional simplifications relative to real serde:
//!
//! * Deserialization is owned-only (`Deserialize` has no lifetime).
//! * Maps serialize as arrays of `[key, value]` pairs, which round-trips
//!   non-string keys without a string-encoding convention.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

pub use serde_derive::{Deserialize, Serialize};

/// A JSON value: the serialization data model.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// Boolean.
    Bool(bool),
    /// Signed integer (covers every integer field in the workspace).
    Int(i64),
    /// Unsigned integer that does not fit `i64`.
    UInt(u64),
    /// Floating point.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Value>),
    /// Object with preserved key order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Borrow as an object field list.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// Borrow as an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Look up a field of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()
            .and_then(|fields| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v))
    }
}

/// Find `key` in an object field list (helper used by derived code).
pub fn get_field<'a>(fields: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Serialization/deserialization error.
#[derive(Debug, Clone, PartialEq)]
pub struct Error {
    msg: String,
}

impl Error {
    /// Build an error with a message.
    pub fn new(msg: impl Into<String>) -> Self {
        Self { msg: msg.into() }
    }

    /// "expected X" helper.
    pub fn expected(what: &str, got: &Value) -> Self {
        let kind = match got {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) | Value::UInt(_) => "integer",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        };
        Self::new(format!("expected {what}, got {kind}"))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.msg)
    }
}

impl std::error::Error for Error {}

/// Serialization half of the data model.
pub mod ser {
    use super::Value;

    /// Convert `self` into a [`Value`] tree.
    pub trait Serialize {
        /// The value representation of `self`.
        fn to_value(&self) -> Value;
    }
}

/// Deserialization half of the data model.
pub mod de {
    use super::{Error, Value};

    /// Rebuild `Self` from a [`Value`] tree.
    pub trait Deserialize: Sized {
        /// Parse `Self` out of `v`.
        fn from_value(v: &Value) -> Result<Self, Error>;
    }
}

use de::Deserialize as De;
use ser::Serialize as Ser;

// ---------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------

macro_rules! int_impl {
    ($($t:ty),*) => {$(
        impl Ser for $t {
            fn to_value(&self) -> Value {
                let v = *self as i128;
                if let Ok(i) = i64::try_from(v) { Value::Int(i) } else { Value::UInt(*self as u64) }
            }
        }
        impl De for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Int(i) => <$t>::try_from(*i)
                        .map_err(|_| Error::new(format!("integer {i} out of range"))),
                    Value::UInt(u) => <$t>::try_from(*u)
                        .map_err(|_| Error::new(format!("integer {u} out of range"))),
                    // Accept whole-valued floats, but only when the value is
                    // exactly representable in the target type — a bare cast
                    // would silently saturate (1e300 → MAX, -1.0 → 0 for
                    // unsigned targets).
                    Value::Float(f) if f.fract() == 0.0 => {
                        let i = *f as i128;
                        if i as f64 == *f && i != i128::MAX {
                            <$t>::try_from(i)
                                .map_err(|_| Error::new(format!("integer {f} out of range")))
                        } else {
                            Err(Error::new(format!("integer {f} out of range")))
                        }
                    }
                    other => Err(Error::expected("integer", other)),
                }
            }
        }
    )*};
}

int_impl!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

macro_rules! float_impl {
    ($($t:ty),*) => {$(
        impl Ser for $t {
            fn to_value(&self) -> Value {
                Value::Float(*self as f64)
            }
        }
        impl De for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Float(f) => Ok(*f as $t),
                    Value::Int(i) => Ok(*i as $t),
                    Value::UInt(u) => Ok(*u as $t),
                    other => Err(Error::expected("number", other)),
                }
            }
        }
    )*};
}

float_impl!(f32, f64);

impl Ser for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl De for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::expected("bool", other)),
        }
    }
}

impl Ser for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl De for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(Error::expected("string", other)),
        }
    }
}

impl Ser for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Ser> Ser for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: De> De for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => Ok(Some(T::from_value(other)?)),
        }
    }
}

impl<T: Ser> Ser for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Ser::to_value).collect())
    }
}

impl<T: De> De for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_array()
            .ok_or_else(|| Error::expected("array", v))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

impl<T: Ser> Ser for VecDeque<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Ser::to_value).collect())
    }
}

impl<T: De> De for VecDeque<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(Vec::<T>::from_value(v)?.into())
    }
}

impl<T: Ser, const N: usize> Ser for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Ser::to_value).collect())
    }
}

impl<T: De + fmt::Debug, const N: usize> De for [T; N] {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let items = Vec::<T>::from_value(v)?;
        let len = items.len();
        items
            .try_into()
            .map_err(|_| Error::new(format!("expected array of length {N}, got {len}")))
    }
}

macro_rules! tuple_impl {
    ($(($($t:ident : $i:tt),+))*) => {$(
        impl<$($t: Ser),+> Ser for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$i.to_value()),+])
            }
        }
        impl<$($t: De),+> De for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let items = v.as_array().ok_or_else(|| Error::expected("array (tuple)", v))?;
                let expect = [$($i),+].len();
                if items.len() != expect {
                    return Err(Error::new(format!(
                        "expected tuple of {expect} elements, got {}", items.len()
                    )));
                }
                Ok(($($t::from_value(&items[$i])?,)+))
            }
        }
    )*};
}

tuple_impl! {
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
}

impl<K: Ser, V: Ser> Ser for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Array(
            self.iter()
                .map(|(k, v)| Value::Array(vec![k.to_value(), v.to_value()]))
                .collect(),
        )
    }
}

impl<K: De + Ord, V: De> De for BTreeMap<K, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(Vec::<(K, V)>::from_value(v)?.into_iter().collect())
    }
}

impl<T: Ser + ?Sized> Ser for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

// ---------------------------------------------------------------------
// JSON text
// ---------------------------------------------------------------------

/// JSON parsing and printing over [`Value`].
pub mod json {
    use super::{de::Deserialize, ser::Serialize, Error, Value};

    /// Serialize to compact JSON text.
    pub fn to_string<T: Serialize + ?Sized>(value: &T) -> String {
        let mut out = String::new();
        write_value(&mut out, &value.to_value(), None, 0);
        out
    }

    /// Serialize to human-readable, indented JSON text.
    pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> String {
        let mut out = String::new();
        write_value(&mut out, &value.to_value(), Some(2), 0);
        out
    }

    /// Parse a value of type `T` from JSON text.
    pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
        T::from_value(&parse(text)?)
    }

    /// Parse JSON text into a [`Value`] tree.
    pub fn parse(text: &str) -> Result<Value, Error> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(Error::new(format!("trailing characters at byte {}", p.pos)));
        }
        Ok(v)
    }

    fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
        match v {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(i) => out.push_str(&i.to_string()),
            Value::UInt(u) => out.push_str(&u.to_string()),
            Value::Float(f) => {
                if f.is_finite() {
                    // `{:?}` prints the shortest representation that parses
                    // back to the same f64 (round-trip safe).
                    out.push_str(&format!("{f:?}"));
                } else {
                    // JSON has no Infinity/NaN; null matches serde_json.
                    out.push_str("null");
                }
            }
            Value::Str(s) => write_string(out, s),
            Value::Array(items) => write_seq(
                out,
                items.iter(),
                items.len(),
                '[',
                ']',
                indent,
                depth,
                |out, item, indent, depth| {
                    write_value(out, item, indent, depth);
                },
            ),
            Value::Object(fields) => write_seq(
                out,
                fields.iter(),
                fields.len(),
                '{',
                '}',
                indent,
                depth,
                |out, (k, v), indent, depth| {
                    write_string(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    write_value(out, v, indent, depth);
                },
            ),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn write_seq<I: Iterator>(
        out: &mut String,
        items: I,
        len: usize,
        open: char,
        close: char,
        indent: Option<usize>,
        depth: usize,
        mut write_item: impl FnMut(&mut String, I::Item, Option<usize>, usize),
    ) {
        out.push(open);
        if len == 0 {
            out.push(close);
            return;
        }
        for (i, item) in items.enumerate() {
            if i > 0 {
                out.push(',');
            }
            if let Some(width) = indent {
                out.push('\n');
                out.push_str(&" ".repeat(width * (depth + 1)));
            }
            write_item(out, item, indent, depth + 1);
        }
        if let Some(width) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(width * depth));
        }
        out.push(close);
    }

    fn write_string(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl Parser<'_> {
        fn skip_ws(&mut self) {
            while self
                .bytes
                .get(self.pos)
                .is_some_and(|b| b.is_ascii_whitespace())
            {
                self.pos += 1;
            }
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn eat(&mut self, b: u8) -> Result<(), Error> {
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(Error::new(format!(
                    "expected '{}' at byte {}",
                    b as char, self.pos
                )))
            }
        }

        fn eat_keyword(&mut self, kw: &str) -> bool {
            if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
                self.pos += kw.len();
                true
            } else {
                false
            }
        }

        fn value(&mut self) -> Result<Value, Error> {
            match self.peek() {
                Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
                Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
                Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
                Some(b'"') => Ok(Value::Str(self.string()?)),
                Some(b'[') => {
                    self.pos += 1;
                    let mut items = Vec::new();
                    self.skip_ws();
                    if self.peek() == Some(b']') {
                        self.pos += 1;
                        return Ok(Value::Array(items));
                    }
                    loop {
                        self.skip_ws();
                        items.push(self.value()?);
                        self.skip_ws();
                        match self.peek() {
                            Some(b',') => self.pos += 1,
                            Some(b']') => {
                                self.pos += 1;
                                return Ok(Value::Array(items));
                            }
                            _ => {
                                return Err(Error::new(format!(
                                    "expected ',' or ']' at byte {}",
                                    self.pos
                                )))
                            }
                        }
                    }
                }
                Some(b'{') => {
                    self.pos += 1;
                    let mut fields = Vec::new();
                    self.skip_ws();
                    if self.peek() == Some(b'}') {
                        self.pos += 1;
                        return Ok(Value::Object(fields));
                    }
                    loop {
                        self.skip_ws();
                        let key = self.string()?;
                        self.skip_ws();
                        self.eat(b':')?;
                        self.skip_ws();
                        let value = self.value()?;
                        fields.push((key, value));
                        self.skip_ws();
                        match self.peek() {
                            Some(b',') => self.pos += 1,
                            Some(b'}') => {
                                self.pos += 1;
                                return Ok(Value::Object(fields));
                            }
                            _ => {
                                return Err(Error::new(format!(
                                    "expected ',' or '}}' at byte {}",
                                    self.pos
                                )))
                            }
                        }
                    }
                }
                Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
                _ => Err(Error::new(format!("unexpected input at byte {}", self.pos))),
            }
        }

        fn hex_escape(&self, at: usize) -> Result<u32, Error> {
            let hex = self
                .bytes
                .get(at..at + 4)
                .ok_or_else(|| Error::new("truncated \\u escape"))?;
            u32::from_str_radix(
                std::str::from_utf8(hex).map_err(|_| Error::new("bad \\u escape"))?,
                16,
            )
            .map_err(|_| Error::new("bad \\u escape"))
        }

        fn string(&mut self) -> Result<String, Error> {
            self.eat(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    None => return Err(Error::new("unterminated string")),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        match self.peek() {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'n') => out.push('\n'),
                            Some(b'r') => out.push('\r'),
                            Some(b't') => out.push('\t'),
                            Some(b'u') => {
                                let code = self.hex_escape(self.pos + 1)?;
                                self.pos += 4;
                                // Standard JSON encoders emit non-BMP
                                // characters as UTF-16 surrogate pairs.
                                let code = if (0xD800..0xDC00).contains(&code) {
                                    if self.bytes.get(self.pos + 1..self.pos + 3)
                                        != Some(b"\\u".as_slice())
                                    {
                                        return Err(Error::new("lone \\u surrogate"));
                                    }
                                    let low = self.hex_escape(self.pos + 3)?;
                                    if !(0xDC00..0xE000).contains(&low) {
                                        return Err(Error::new("bad \\u surrogate pair"));
                                    }
                                    self.pos += 6;
                                    0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                                } else {
                                    code
                                };
                                out.push(
                                    char::from_u32(code)
                                        .ok_or_else(|| Error::new("bad \\u code point"))?,
                                );
                            }
                            _ => return Err(Error::new("bad escape")),
                        }
                        self.pos += 1;
                    }
                    Some(_) => {
                        // Advance over one UTF-8 character.
                        let rest = std::str::from_utf8(&self.bytes[self.pos..])
                            .map_err(|_| Error::new("invalid UTF-8"))?;
                        let c = rest.chars().next().expect("non-empty");
                        out.push(c);
                        self.pos += c.len_utf8();
                    }
                }
            }
        }

        fn number(&mut self) -> Result<Value, Error> {
            let start = self.pos;
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
            let mut is_float = false;
            if self.peek() == Some(b'.') {
                is_float = true;
                self.pos += 1;
                while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                    self.pos += 1;
                }
            }
            if matches!(self.peek(), Some(b'e') | Some(b'E')) {
                is_float = true;
                self.pos += 1;
                if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                    self.pos += 1;
                }
                while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                    self.pos += 1;
                }
            }
            let text = std::str::from_utf8(&self.bytes[start..self.pos])
                .map_err(|_| Error::new("invalid number"))?;
            if is_float {
                text.parse::<f64>()
                    .map(Value::Float)
                    .map_err(|_| Error::new(format!("invalid number '{text}'")))
            } else if let Ok(i) = text.parse::<i64>() {
                Ok(Value::Int(i))
            } else if let Ok(u) = text.parse::<u64>() {
                Ok(Value::UInt(u))
            } else {
                text.parse::<f64>()
                    .map(Value::Float)
                    .map_err(|_| Error::new(format!("invalid number '{text}'")))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip_through_json_text() {
        let v = vec![(1u64, -5i64), (2, 7)];
        let text = json::to_string(&v);
        let back: Vec<(u64, i64)> = json::from_str(&text).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn floats_round_trip_exactly() {
        for f in [0.1, 1.0 / 3.0, -2.5e-9, 1e300] {
            let text = json::to_string(&f);
            let back: f64 = json::from_str(&text).unwrap();
            assert_eq!(back, f);
        }
    }

    #[test]
    fn strings_escape_and_parse() {
        let s = "a \"quoted\"\nline\twith \\ unicode é".to_string();
        let text = json::to_string(&s);
        let back: String = json::from_str(&text).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn out_of_range_floats_do_not_saturate_integers() {
        // -1.0 must not become 0u64, 1e300 must not become MAX.
        assert!(json::from_str::<u64>("-1.0").is_err());
        assert!(json::from_str::<u16>("1e300").is_err());
        assert!(json::from_str::<i64>("1.5").is_err());
        assert_eq!(json::from_str::<u64>("42.0").unwrap(), 42);
        assert_eq!(json::from_str::<i32>("-7.0").unwrap(), -7);
    }

    #[test]
    fn surrogate_pair_escapes_parse() {
        let back: String = json::from_str("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(back, "😀");
        assert!(json::from_str::<String>("\"\\ud83d\"").is_err());
        assert!(json::from_str::<String>("\"\\ud83d\\u0041\"").is_err());
    }

    #[test]
    fn maps_serialize_as_pair_arrays() {
        let mut m = BTreeMap::new();
        m.insert((1i64, 2i64), 3.5f64);
        let text = json::to_string(&m);
        assert_eq!(text, "[[[1,2],3.5]]");
        let back: BTreeMap<(i64, i64), f64> = json::from_str(&text).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn pretty_output_is_indented_and_parses() {
        let v = Value::Object(vec![
            ("a".into(), Value::Int(1)),
            (
                "b".into(),
                Value::Array(vec![Value::Bool(true), Value::Null]),
            ),
        ]);
        let mut out = String::new();
        // Round-trip through the pretty printer.
        struct Raw(Value);
        impl ser::Serialize for Raw {
            fn to_value(&self) -> Value {
                self.0.clone()
            }
        }
        out.push_str(&json::to_string_pretty(&Raw(v.clone())));
        assert!(out.contains("\n  \"a\": 1"));
        assert_eq!(json::parse(&out).unwrap(), v);
    }
}
