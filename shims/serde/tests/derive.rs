//! The derive macros, one type of each shape they support, with the exact
//! JSON text each produces pinned: serde_json's external representation.

use serde::de::Deserialize as De;
use serde::ser::Serialize as Ser;
use serde::{json, Deserialize, Serialize};

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Point {
    x: i64,
    label: String,
    note: Option<u32>,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Id(u32);

#[derive(Debug, PartialEq, Serialize, Deserialize)]
enum Shape {
    Empty,
    Tagged(Id),
    Rect { w: u32, h: Option<u32> },
}

fn round_trip<T: Ser + De + PartialEq + std::fmt::Debug>(value: T, text: &str) {
    assert_eq!(json::to_string(&value), text);
    assert_eq!(json::from_str::<T>(text).unwrap(), value);
}

#[test]
fn named_structs_are_objects_in_field_order() {
    round_trip(
        Point {
            x: -3,
            label: "a\"b".into(),
            note: Some(7),
        },
        r#"{"x":-3,"label":"a\"b","note":7}"#,
    );
    round_trip(
        Point {
            x: 0,
            label: String::new(),
            note: None,
        },
        r#"{"x":0,"label":"","note":null}"#,
    );
}

#[test]
fn newtype_structs_are_transparent() {
    round_trip(Id(42), "42");
}

#[test]
fn enums_are_externally_tagged() {
    round_trip(Shape::Empty, r#""Empty""#);
    round_trip(Shape::Tagged(Id(5)), r#"{"Tagged":5}"#);
    round_trip(
        Shape::Rect { w: 2, h: Some(3) },
        r#"{"Rect":{"w":2,"h":3}}"#,
    );
}

#[test]
fn an_absent_option_field_reads_as_none() {
    let p: Point = json::from_str(r#"{"x":1,"label":"l"}"#).unwrap();
    assert_eq!(p.note, None);
    let r: Shape = json::from_str(r#"{"Rect":{"w":4}}"#).unwrap();
    assert_eq!(r, Shape::Rect { w: 4, h: None });
}

#[test]
fn a_missing_required_field_is_an_error_naming_it() {
    let err = json::from_str::<Point>(r#"{"label":"l"}"#).unwrap_err();
    assert!(err.to_string().contains("'x'"), "{err}");
    let err = json::from_str::<Shape>(r#"{"Rect":{"h":1}}"#).unwrap_err();
    assert!(err.to_string().contains("'w'"), "{err}");
}

#[test]
fn an_unknown_variant_is_an_error_naming_it() {
    for text in [r#""Circle""#, r#"{"Circle":1}"#] {
        let err = json::from_str::<Shape>(text).unwrap_err();
        assert!(err.to_string().contains("'Circle'"), "{err}");
    }
}
