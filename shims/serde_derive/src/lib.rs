//! Derive macros for the offline `serde` shim.
//!
//! Implements `#[derive(Serialize)]` and `#[derive(Deserialize)]` for the
//! type shapes used in this workspace — named-field structs, newtype
//! structs, and enums with unit, newtype, and struct variants, none of them
//! generic — by walking the raw token stream (no `syn`/`quote`; the build
//! environment has no network access to fetch them).
//!
//! The generated representation matches serde_json's defaults: structs are
//! objects, newtype structs are transparent, enums are externally tagged.
//! No `#[serde(...)]` attribute is accepted.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Derive `serde::ser::Serialize`.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item).parse().expect("generated impl parses")
}

/// Derive `serde::de::Deserialize`.
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item)
        .parse()
        .expect("generated impl parses")
}

// ---------------------------------------------------------------------
// A minimal item model
// ---------------------------------------------------------------------

enum Shape {
    /// Named fields.
    Named(Vec<String>),
    /// One unnamed field.
    Newtype,
    /// No fields (enum variants only).
    Unit,
}

struct Variant {
    name: String,
    shape: Shape,
}

struct Item {
    name: String,
    kind: Kind,
}

enum Kind {
    Struct(Shape),
    Enum(Vec<Variant>),
}

// ---------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;

    skip_attrs(&tokens, &mut i);
    skip_visibility(&tokens, &mut i);

    let keyword = expect_ident(&tokens, &mut i);
    let name = expect_ident(&tokens, &mut i);
    let kind = match keyword.as_str() {
        "struct" => Kind::Struct(parse_struct_body(&name, tokens.get(i))),
        "enum" => Kind::Enum(parse_enum_body(&name, tokens.get(i))),
        other => panic!("serde derive: expected struct or enum, got '{other}'"),
    };
    Item { name, kind }
}

fn skip_attrs(tokens: &[TokenTree], i: &mut usize) {
    while let Some(TokenTree::Punct(p)) = tokens.get(*i) {
        if p.as_char() != '#' || !matches!(tokens.get(*i + 1), Some(TokenTree::Group(_))) {
            break;
        }
        *i += 2;
    }
}

fn skip_visibility(tokens: &[TokenTree], i: &mut usize) {
    if let Some(TokenTree::Ident(id)) = tokens.get(*i) {
        if id.to_string() == "pub" {
            *i += 1;
            if let Some(TokenTree::Group(g)) = tokens.get(*i) {
                if g.delimiter() == Delimiter::Parenthesis {
                    *i += 1;
                }
            }
        }
    }
}

fn expect_ident(tokens: &[TokenTree], i: &mut usize) -> String {
    match tokens.get(*i) {
        Some(TokenTree::Ident(id)) => {
            *i += 1;
            id.to_string()
        }
        other => panic!("serde derive: expected identifier, got {other:?}"),
    }
}

/// The fields of a struct or variant body: `{ .. }` or `( .. )`.
fn parse_fields(owner: &str, body: &proc_macro::Group) -> Shape {
    let inner: Vec<TokenTree> = body.stream().into_iter().collect();
    match body.delimiter() {
        Delimiter::Brace => Shape::Named(parse_named_fields(&inner)),
        Delimiter::Parenthesis if count_tuple_slots(&inner) == 1 => Shape::Newtype,
        _ => panic!("serde derive: {owner} must have named fields or exactly one unnamed field"),
    }
}

fn parse_struct_body(name: &str, body: Option<&TokenTree>) -> Shape {
    match body {
        Some(TokenTree::Group(g)) => parse_fields(name, g),
        other => panic!("serde derive: {name} is generic or has no body ({other:?})"),
    }
}

fn parse_named_fields(tokens: &[TokenTree]) -> Vec<String> {
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        skip_attrs(tokens, &mut i);
        if i >= tokens.len() {
            break;
        }
        skip_visibility(tokens, &mut i);
        let name = expect_ident(tokens, &mut i);
        // ':'
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => panic!("serde derive: expected ':' after field '{name}', got {other:?}"),
        }
        // Skip the type: everything until a comma at angle-bracket depth 0.
        let mut depth = 0i32;
        while i < tokens.len() {
            match &tokens[i] {
                TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
        fields.push(name);
    }
    fields
}

fn count_tuple_slots(tokens: &[TokenTree]) -> usize {
    if tokens.is_empty() {
        return 0;
    }
    let mut slots = 1;
    let mut depth = 0i32;
    for t in tokens {
        match t {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => slots += 1,
            _ => {}
        }
    }
    slots
}

fn parse_enum_body(name: &str, body: Option<&TokenTree>) -> Vec<Variant> {
    let group = match body {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g,
        other => panic!("serde derive: {name} is generic or has no body ({other:?})"),
    };
    let inner: Vec<TokenTree> = group.stream().into_iter().collect();
    let mut variants = Vec::new();
    let mut j = 0;
    while j < inner.len() {
        skip_attrs(&inner, &mut j);
        if j >= inner.len() {
            break;
        }
        let vn = expect_ident(&inner, &mut j);
        let shape = match inner.get(j) {
            Some(TokenTree::Group(g)) => {
                j += 1;
                parse_fields(&format!("{name}::{vn}"), g)
            }
            _ => Shape::Unit,
        };
        // Skip to the next variant (past the separating comma).
        while j < inner.len() {
            if let TokenTree::Punct(p) = &inner[j] {
                if p.as_char() == ',' {
                    j += 1;
                    break;
                }
            }
            j += 1;
        }
        variants.push(Variant { name: vn, shape });
    }
    variants
}

// ---------------------------------------------------------------------
// Code generation
// ---------------------------------------------------------------------

fn gen_serialize(item: &Item) -> String {
    let body = match &item.kind {
        Kind::Struct(Shape::Named(fields)) => {
            let mut s =
                String::from("let mut fields: Vec<(String, ::serde::Value)> = Vec::new();\n");
            for f in fields {
                s.push_str(&format!(
                    "fields.push((\"{f}\".to_string(), ::serde::ser::Serialize::to_value(&self.{f})));\n"
                ));
            }
            s.push_str("::serde::Value::Object(fields)");
            s
        }
        Kind::Struct(_) => "::serde::ser::Serialize::to_value(&self.0)".to_string(),
        Kind::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let name = &v.name;
                match &v.shape {
                    Shape::Unit => arms.push_str(&format!(
                        "Self::{name} => ::serde::Value::Str(\"{name}\".to_string()),\n"
                    )),
                    Shape::Newtype => arms.push_str(&format!(
                        "Self::{name}(x0) => ::serde::Value::Object(vec![(\"{name}\".to_string(), ::serde::ser::Serialize::to_value(x0))]),\n"
                    )),
                    Shape::Named(fields) => {
                        let mut inner = String::from(
                            "let mut vfields: Vec<(String, ::serde::Value)> = Vec::new();\n",
                        );
                        for f in fields {
                            inner.push_str(&format!(
                                "vfields.push((\"{f}\".to_string(), ::serde::ser::Serialize::to_value({f})));\n"
                            ));
                        }
                        arms.push_str(&format!(
                            "Self::{name} {{ {} }} => {{ {inner} ::serde::Value::Object(vec![(\"{name}\".to_string(), ::serde::Value::Object(vfields))]) }},\n",
                            fields.join(", ")
                        ));
                    }
                }
            }
            format!("match self {{\n{arms}}}")
        }
    };
    format!(
        "impl ::serde::ser::Serialize for {} {{\n fn to_value(&self) -> ::serde::Value {{\n{body}\n}}\n}}",
        item.name
    )
}

/// Deserialization of one named field from an object binding.  An absent
/// key first tries `Value::Null` (so `Option<T>` fields default to `None`,
/// matching serde_json's external representation); only if that also fails
/// is the missing-field error reported.
fn field_from_object(field: &str, obj_binding: &str, context: &str) -> String {
    format!(
        "{field}: match ::serde::get_field({obj_binding}, \"{field}\") {{\n\
         Some(v) => ::serde::de::Deserialize::from_value(v)?,\n\
         None => ::serde::de::Deserialize::from_value(&::serde::Value::Null)\n\
         .map_err(|_| ::serde::Error::new(\"missing field '{field}' in {context}\"))?,\n\
         }},\n"
    )
}

fn gen_deserialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.kind {
        Kind::Struct(Shape::Named(fields)) => {
            let mut s = format!(
                "let obj = v.as_object().ok_or_else(|| ::serde::Error::expected(\"object for {name}\", v))?;\n"
            );
            s.push_str("Ok(Self {\n");
            for f in fields {
                s.push_str(&field_from_object(f, "obj", name));
            }
            s.push_str("})");
            s
        }
        Kind::Struct(_) => "Ok(Self(::serde::de::Deserialize::from_value(v)?))".to_string(),
        Kind::Enum(variants) => {
            let mut unit_arms = String::new();
            let mut tagged_arms = String::new();
            for v in variants {
                let vn = &v.name;
                match &v.shape {
                    Shape::Unit => {
                        unit_arms.push_str(&format!("\"{vn}\" => return Ok(Self::{vn}),\n"));
                        // Also accept the tagged-object form {"Variant": null}.
                        tagged_arms.push_str(&format!(
                            "\"{vn}\" => return Ok(Self::{vn}),\n"
                        ));
                    }
                    Shape::Newtype => tagged_arms.push_str(&format!(
                        "\"{vn}\" => return Ok(Self::{vn}(::serde::de::Deserialize::from_value(payload)?)),\n"
                    )),
                    Shape::Named(fields) => {
                        let mut inner = format!(
                            "let vobj = payload.as_object().ok_or_else(|| ::serde::Error::expected(\"object for {name}::{vn}\", payload))?;\n"
                        );
                        inner.push_str(&format!("return Ok(Self::{vn} {{\n"));
                        for f in fields {
                            inner.push_str(&field_from_object(f, "vobj", &format!("{name}::{vn}")));
                        }
                        inner.push_str("});\n");
                        tagged_arms.push_str(&format!("\"{vn}\" => {{\n{inner}}}\n"));
                    }
                }
            }
            format!(
                "match v {{\n\
                 ::serde::Value::Str(tag) => {{\n\
                 match tag.as_str() {{\n{unit_arms}\
                 other => return Err(::serde::Error::new(format!(\"unknown variant '{{other}}' of {name}\"))),\n\
                 }}\n\
                 }}\n\
                 ::serde::Value::Object(fields) if fields.len() == 1 => {{\n\
                 let (tag, payload) = &fields[0];\n\
                 let _ = payload;\n\
                 match tag.as_str() {{\n{tagged_arms}\
                 other => return Err(::serde::Error::new(format!(\"unknown variant '{{other}}' of {name}\"))),\n\
                 }}\n\
                 }}\n\
                 other => Err(::serde::Error::expected(\"enum {name} (string or single-key object)\", other)),\n\
                 }}"
            )
        }
    };
    format!(
        "impl ::serde::de::Deserialize for {name} {{\n fn from_value(v: &::serde::Value) -> Result<Self, ::serde::Error> {{\n{body}\n}}\n}}"
    )
}
