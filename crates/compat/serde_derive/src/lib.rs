//! `#[derive(Serialize)]` / `#[derive(Deserialize)]` for the local serde shim.
//!
//! Implemented without `syn`/`quote` (the build must work offline): the input token
//! stream is parsed by hand into just enough shape information — type name, struct
//! fields, enum variants — and the generated impl is rendered as a string and re-parsed.
//!
//! Supported input shapes (all the workspace needs):
//! * structs with named fields (including empty `{}` structs and unit structs),
//! * enums with unit, tuple, and struct variants.
//!
//! Generic types are rejected with a clear compile error.
//!
//! Supported field attributes: `#[serde(default)]` — on deserialisation a missing (or
//! explicitly `null`) field resolves to `Default::default()` instead of erroring, which
//! is how new manifest fields stay loadable from artifacts written before the field
//! existed.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// One named struct field plus the serde attributes this shim understands.
struct Field {
    name: String,
    /// `#[serde(default)]`: deserialise a missing/null field as `Default::default()`.
    default: bool,
}

enum VariantKind {
    Unit,
    Tuple(usize),
    Struct(Vec<Field>),
}

struct Variant {
    name: String,
    kind: VariantKind,
}

enum Shape {
    Struct { fields: Vec<Field> },
    TupleStruct { arity: usize },
    Enum { variants: Vec<Variant> },
}

struct Parsed {
    name: String,
    shape: Shape,
}

/// Skips any number of `#[...]` attribute token pairs starting at `i`.
fn skip_attrs(tokens: &[TokenTree], i: &mut usize) {
    scan_attrs(tokens, i);
}

/// Skips any number of `#[...]` attribute token pairs starting at `i`, reporting whether
/// a `#[serde(default)]` was among them.
fn scan_attrs(tokens: &[TokenTree], i: &mut usize) -> bool {
    let mut has_default = false;
    while *i + 1 < tokens.len() {
        match (&tokens[*i], &tokens[*i + 1]) {
            (TokenTree::Punct(p), TokenTree::Group(g))
                if p.as_char() == '#' && g.delimiter() == Delimiter::Bracket =>
            {
                has_default |= attr_is_serde_default(g);
                *i += 2;
            }
            _ => break,
        }
    }
    has_default
}

/// Whether a `[...]` attribute body is `serde(default)`.
fn attr_is_serde_default(group: &proc_macro::Group) -> bool {
    let tokens: Vec<TokenTree> = group.stream().into_iter().collect();
    match tokens.as_slice() {
        [TokenTree::Ident(name), TokenTree::Group(args)]
            if name.to_string() == "serde" && args.delimiter() == Delimiter::Parenthesis =>
        {
            args.stream()
                .into_iter()
                .any(|t| matches!(&t, TokenTree::Ident(id) if id.to_string() == "default"))
        }
        _ => false,
    }
}

/// Skips a `pub` / `pub(...)` visibility qualifier starting at `i`.
fn skip_vis(tokens: &[TokenTree], i: &mut usize) {
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

/// Advances `i` past the current item up to (and past) the next comma at angle-bracket
/// depth zero. Groups are single trees, so only `<`/`>` need explicit depth tracking.
fn skip_past_comma(tokens: &[TokenTree], i: &mut usize) {
    let mut angle: i32 = 0;
    while *i < tokens.len() {
        if let TokenTree::Punct(p) = &tokens[*i] {
            match p.as_char() {
                '<' => angle += 1,
                '>' => angle -= 1,
                ',' if angle == 0 => {
                    *i += 1;
                    return;
                }
                _ => {}
            }
        }
        *i += 1;
    }
}

/// Counts top-level comma-separated items inside a tuple-variant parenthesis group.
fn count_tuple_fields(group: &proc_macro::Group) -> usize {
    let tokens: Vec<TokenTree> = group.stream().into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut count = 1;
    let mut angle: i32 = 0;
    let mut trailing_comma = false;
    for t in &tokens {
        if let TokenTree::Punct(p) = t {
            match p.as_char() {
                '<' => angle += 1,
                '>' => angle -= 1,
                ',' if angle == 0 => {
                    count += 1;
                    trailing_comma = true;
                    continue;
                }
                _ => {}
            }
        }
        trailing_comma = false;
    }
    if trailing_comma {
        count -= 1;
    }
    count
}

/// Extracts named fields (and their serde attributes) from a brace group
/// (`{ a: T, #[serde(default)] pub b: U, ... }`).
fn parse_named_fields(group: &proc_macro::Group) -> Vec<Field> {
    let tokens: Vec<TokenTree> = group.stream().into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let default = scan_attrs(&tokens, &mut i);
        skip_vis(&tokens, &mut i);
        match tokens.get(i) {
            Some(TokenTree::Ident(id)) => {
                fields.push(Field {
                    name: id.to_string(),
                    default,
                });
                i += 1;
                // Expect `:` then the type.
                skip_past_comma(&tokens, &mut i);
            }
            Some(_) => i += 1,
            None => break,
        }
    }
    fields
}

fn parse_variants(group: &proc_macro::Group) -> Vec<Variant> {
    let tokens: Vec<TokenTree> = group.stream().into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        skip_attrs(&tokens, &mut i);
        let name = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            Some(_) => {
                i += 1;
                continue;
            }
            None => break,
        };
        i += 1;
        let kind = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                VariantKind::Tuple(count_tuple_fields(g))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                VariantKind::Struct(parse_named_fields(g))
            }
            _ => VariantKind::Unit,
        };
        variants.push(Variant { name, kind });
        skip_past_comma(&tokens, &mut i);
    }
    variants
}

fn parse_input(input: TokenStream, trait_name: &str) -> Parsed {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    skip_attrs(&tokens, &mut i);
    skip_vis(&tokens, &mut i);
    let keyword = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        _ => panic!("derive({trait_name}): expected `struct` or `enum`"),
    };
    i += 1;
    let name = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        _ => panic!("derive({trait_name}): expected a type name"),
    };
    i += 1;
    if let Some(TokenTree::Punct(p)) = tokens.get(i) {
        if p.as_char() == '<' {
            panic!("derive({trait_name}): generic types are not supported by the serde shim (type `{name}`)");
        }
    }
    // A parenthesis group directly after the name means a tuple struct.
    let tuple_body = match tokens.get(i) {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => Some(g.clone()),
        _ => None,
    };
    let body = tokens.iter().skip(i).find_map(|t| match t {
        TokenTree::Group(g) if g.delimiter() == Delimiter::Brace => Some(g.clone()),
        _ => None,
    });
    let shape = match (keyword.as_str(), body) {
        ("struct", Some(g)) => Shape::Struct {
            fields: parse_named_fields(&g),
        },
        ("struct", None) => match tuple_body {
            Some(g) => Shape::TupleStruct {
                arity: count_tuple_fields(&g),
            },
            None => Shape::Struct { fields: Vec::new() }, // unit struct
        },
        ("enum", Some(g)) => Shape::Enum {
            variants: parse_variants(&g),
        },
        _ => panic!("derive({trait_name}): unsupported input shape for `{name}`"),
    };
    Parsed { name, shape }
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let parsed = parse_input(input, "Serialize");
    let name = &parsed.name;
    let body = match &parsed.shape {
        Shape::Struct { fields } => {
            let entries: Vec<String> = fields
                .iter()
                .map(|f| {
                    let f = &f.name;
                    format!("(\"{f}\".to_string(), ::serde::Serialize::to_json(&self.{f}))")
                })
                .collect();
            format!("::serde::Json::Object(vec![{}])", entries.join(", "))
        }
        // Match real serde: a newtype struct serialises as its inner value, a wider
        // tuple struct as an array.
        Shape::TupleStruct { arity: 1 } => "::serde::Serialize::to_json(&self.0)".to_string(),
        Shape::TupleStruct { arity } => {
            let elems: Vec<String> = (0..*arity)
                .map(|k| format!("::serde::Serialize::to_json(&self.{k})"))
                .collect();
            format!("::serde::Json::Array(vec![{}])", elems.join(", "))
        }
        Shape::Enum { variants } => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| {
                    let vname = &v.name;
                    match &v.kind {
                        VariantKind::Unit => format!(
                            "{name}::{vname} => ::serde::Json::Str(\"{vname}\".to_string())"
                        ),
                        VariantKind::Tuple(1) => format!(
                            "{name}::{vname}(f0) => ::serde::Json::Object(vec![(\"{vname}\".to_string(), ::serde::Serialize::to_json(f0))])"
                        ),
                        VariantKind::Tuple(n) => {
                            let binders: Vec<String> =
                                (0..*n).map(|k| format!("f{k}")).collect();
                            let elems: Vec<String> = (0..*n)
                                .map(|k| format!("::serde::Serialize::to_json(f{k})"))
                                .collect();
                            format!(
                                "{name}::{vname}({}) => ::serde::Json::Object(vec![(\"{vname}\".to_string(), ::serde::Json::Array(vec![{}]))])",
                                binders.join(", "),
                                elems.join(", ")
                            )
                        }
                        VariantKind::Struct(fields) => {
                            let binders: Vec<String> =
                                fields.iter().map(|f| f.name.clone()).collect();
                            let binders = binders.join(", ");
                            let entries: Vec<String> = fields
                                .iter()
                                .map(|f| {
                                    let f = &f.name;
                                    format!(
                                        "(\"{f}\".to_string(), ::serde::Serialize::to_json({f}))"
                                    )
                                })
                                .collect();
                            format!(
                                "{name}::{vname} {{ {binders} }} => ::serde::Json::Object(vec![(\"{vname}\".to_string(), ::serde::Json::Object(vec![{}]))])",
                                entries.join(", ")
                            )
                        }
                    }
                })
                .collect();
            format!("match self {{ {} }}", arms.join(", "))
        }
    };
    let out = format!(
        "impl ::serde::Serialize for {name} {{\n    fn to_json(&self) -> ::serde::Json {{ {body} }}\n}}"
    );
    out.parse().expect("serde_derive generated invalid Rust")
}

/// Renders the initialiser expression of one named struct field inside a generated
/// `from_json`.  `#[serde(default)]` fields treat a missing entry (which
/// `::serde::de::field` resolves to `null`) or an explicit `null` as
/// `Default::default()`.
fn field_init(field: &Field, ty: &str, source: &str) -> String {
    let f = &field.name;
    if field.default {
        format!(
            "{f}: match ::serde::de::field({source}, \"{ty}\", \"{f}\")? {{ \
             ::serde::Json::Null => ::core::default::Default::default(), \
             __f => ::serde::Deserialize::from_json(__f)? }}"
        )
    } else {
        format!(
            "{f}: ::serde::Deserialize::from_json(::serde::de::field({source}, \"{ty}\", \"{f}\")?)?"
        )
    }
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let parsed = parse_input(input, "Deserialize");
    let name = &parsed.name;
    let body = match &parsed.shape {
        Shape::Struct { fields } if fields.is_empty() => {
            // Unit / empty struct: serialised as `{}`; accept any node.
            format!("let _ = __v; Ok({name} {{}})")
        }
        Shape::Struct { fields } => {
            let inits: Vec<String> = fields.iter().map(|f| field_init(f, name, "__v")).collect();
            format!("Ok({name} {{ {} }})", inits.join(", "))
        }
        // Match the Serialize direction: a newtype struct is its inner value, a wider
        // tuple struct an array.
        Shape::TupleStruct { arity: 1 } => {
            format!("Ok({name}(::serde::Deserialize::from_json(__v)?))")
        }
        Shape::TupleStruct { arity } => {
            let elems: Vec<String> = (0..*arity)
                .map(|k| format!("::serde::Deserialize::from_json(&__items[{k}])?"))
                .collect();
            format!(
                "let __items = ::serde::de::tuple(__v, \"{name}\", {arity})?;\n        Ok({name}({}))",
                elems.join(", ")
            )
        }
        Shape::Enum { variants } => {
            let unit_arms: Vec<String> = variants
                .iter()
                .filter(|v| matches!(v.kind, VariantKind::Unit))
                .map(|v| format!("\"{0}\" => Ok({name}::{0}),", v.name))
                .collect();
            let data_arms: Vec<String> = variants
                .iter()
                .filter_map(|v| {
                    let vname = &v.name;
                    match &v.kind {
                        VariantKind::Unit => None,
                        VariantKind::Tuple(1) => Some(format!(
                            "\"{vname}\" => Ok({name}::{vname}(::serde::Deserialize::from_json(__val)?)),"
                        )),
                        VariantKind::Tuple(n) => {
                            let elems: Vec<String> = (0..*n)
                                .map(|k| format!("::serde::Deserialize::from_json(&__items[{k}])?"))
                                .collect();
                            Some(format!(
                                "\"{vname}\" => {{ let __items = ::serde::de::tuple(__val, \"{name}::{vname}\", {n})?; Ok({name}::{vname}({})) }},",
                                elems.join(", ")
                            ))
                        }
                        VariantKind::Struct(fields) => {
                            let ty = format!("{name}::{vname}");
                            let inits: Vec<String> = fields
                                .iter()
                                .map(|f| field_init(f, &ty, "__val"))
                                .collect();
                            Some(format!(
                                "\"{vname}\" => Ok({name}::{vname} {{ {} }}),",
                                inits.join(", ")
                            ))
                        }
                    }
                })
                .collect();
            format!(
                "match __v {{\n            \
                 ::serde::Json::Str(__s) => match __s.as_str() {{\n                \
                 {unit}\n                \
                 __other => Err(::serde::de::unknown_variant(\"{name}\", __other)),\n            \
                 }},\n            \
                 ::serde::Json::Object(__entries) if __entries.len() == 1 => {{\n                \
                 let (__k, __val) = &__entries[0];\n                \
                 match __k.as_str() {{\n                    \
                 {data}\n                    \
                 __other => Err(::serde::de::unknown_variant(\"{name}\", __other)),\n                \
                 }}\n            \
                 }},\n            \
                 __other => Err(::serde::de::unexpected(\"{name}\", \"an enum value\", __other)),\n        \
                 }}",
                unit = unit_arms.join("\n                "),
                data = data_arms.join("\n                    "),
            )
        }
    };
    let out = format!(
        "impl<'de> ::serde::Deserialize<'de> for {name} {{\n    \
         fn from_json(__v: &::serde::Json) -> Result<Self, ::serde::DeError> {{\n        \
         {body}\n    }}\n}}"
    );
    out.parse().expect("serde_derive generated invalid Rust")
}
