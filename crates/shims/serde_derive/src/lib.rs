//! Offline drop-in stand-in for the `serde_derive` crate.
//!
//! Implements `#[derive(Serialize)]` / `#[derive(Deserialize)]` against
//! the sibling `serde` shim's value-tree model, parsing the input token
//! stream by hand (no `syn`/`quote` in the offline environment).
//!
//! Supported shapes — exactly what this workspace derives on:
//! named-field structs, one-field newtype structs, and enums whose
//! variants are unit or named-field. Supported attributes:
//! `#[serde(default)]`, `#[serde(default = "path")]`,
//! `#[serde(skip_serializing_if = "path")]` on fields and
//! `#[serde(rename_all = "lowercase")]` on enums. Anything else is a
//! deliberate compile-time panic so new usage is noticed.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item)
        .parse()
        .expect("generated Serialize impl parses")
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item)
        .parse()
        .expect("generated Deserialize impl parses")
}

// ---------------------------------------------------------------------
// Input model and parsing.
// ---------------------------------------------------------------------

enum DefaultKind {
    /// `#[serde(default)]` — `Default::default()`.
    Std,
    /// `#[serde(default = "path")]` — call `path()`.
    Path(String),
}

struct Field {
    name: String,
    default: Option<DefaultKind>,
    skip_if: Option<String>,
}

struct Variant {
    name: String,
    /// `None` for a unit variant, field list for a named-field variant.
    fields: Option<Vec<Field>>,
}

enum Item {
    Struct {
        name: String,
        fields: Vec<Field>,
    },
    Newtype {
        name: String,
    },
    Enum {
        name: String,
        lowercase: bool,
        variants: Vec<Variant>,
    },
}

fn is_ident(t: &TokenTree, s: &str) -> bool {
    matches!(t, TokenTree::Ident(id) if id.to_string() == s)
}

fn is_punct(t: &TokenTree, c: char) -> bool {
    matches!(t, TokenTree::Punct(p) if p.as_char() == c)
}

fn ident_string(t: &TokenTree) -> String {
    match t {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("serde shim derive: expected identifier, found `{other}`"),
    }
}

/// Strips the surrounding quotes of a string-literal token.
fn literal_string(t: &TokenTree) -> String {
    let raw = match t {
        TokenTree::Literal(l) => l.to_string(),
        other => panic!("serde shim derive: expected string literal, found `{other}`"),
    };
    let stripped = raw
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .unwrap_or_else(|| panic!("serde shim derive: expected plain string literal, found {raw}"));
    stripped.to_string()
}

/// The `key` / `key = "value"` pairs of a `#[serde(...)]` attribute, or
/// an empty list for any other attribute (doc comments etc.).
fn serde_attr_pairs(bracket: &TokenStream) -> Vec<(String, Option<String>)> {
    let toks: Vec<TokenTree> = bracket.clone().into_iter().collect();
    if toks.len() != 2 || !is_ident(&toks[0], "serde") {
        return Vec::new();
    }
    let TokenTree::Group(inner) = &toks[1] else {
        return Vec::new();
    };
    let items: Vec<TokenTree> = inner.stream().into_iter().collect();
    let mut pairs = Vec::new();
    let mut i = 0;
    while i < items.len() {
        let key = ident_string(&items[i]);
        i += 1;
        let mut val = None;
        if i < items.len() && is_punct(&items[i], '=') {
            val = Some(literal_string(&items[i + 1]));
            i += 2;
        }
        pairs.push((key, val));
        if i < items.len() && is_punct(&items[i], ',') {
            i += 1;
        }
    }
    pairs
}

/// Consumes leading attributes, returning their serde pairs.
fn take_attrs(toks: &[TokenTree], i: &mut usize) -> Vec<(String, Option<String>)> {
    let mut pairs = Vec::new();
    while *i + 1 < toks.len() && is_punct(&toks[*i], '#') {
        if let TokenTree::Group(g) = &toks[*i + 1] {
            pairs.extend(serde_attr_pairs(&g.stream()));
        }
        *i += 2;
    }
    pairs
}

/// Consumes an optional `pub` / `pub(...)` visibility.
fn skip_visibility(toks: &[TokenTree], i: &mut usize) {
    if *i < toks.len() && is_ident(&toks[*i], "pub") {
        *i += 1;
        if *i < toks.len() {
            if let TokenTree::Group(g) = &toks[*i] {
                if g.delimiter() == Delimiter::Parenthesis {
                    *i += 1;
                }
            }
        }
    }
}

/// Consumes a type, honouring `<...>` nesting, up to a top-level comma.
fn skip_type(toks: &[TokenTree], i: &mut usize) {
    let mut depth = 0i32;
    while *i < toks.len() {
        match &toks[*i] {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                *i += 1;
                return;
            }
            _ => {}
        }
        *i += 1;
    }
}

fn parse_named_fields(stream: TokenStream) -> Vec<Field> {
    let toks: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let mut default = None;
        let mut skip_if = None;
        for (key, val) in take_attrs(&toks, &mut i) {
            match (key.as_str(), val) {
                ("default", None) => default = Some(DefaultKind::Std),
                ("default", Some(p)) => default = Some(DefaultKind::Path(p)),
                ("skip_serializing_if", Some(p)) => skip_if = Some(p),
                (other, _) => {
                    panic!("serde shim derive: unsupported field attribute `{other}`")
                }
            }
        }
        skip_visibility(&toks, &mut i);
        let name = ident_string(&toks[i]);
        i += 1;
        assert!(
            is_punct(&toks[i], ':'),
            "serde shim derive: expected `:` after field `{name}`"
        );
        i += 1;
        skip_type(&toks, &mut i);
        fields.push(Field {
            name,
            default,
            skip_if,
        });
    }
    fields
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let toks: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        take_attrs(&toks, &mut i);
        let name = ident_string(&toks[i]);
        i += 1;
        let mut fields = None;
        if i < toks.len() {
            if let TokenTree::Group(g) = &toks[i] {
                match g.delimiter() {
                    Delimiter::Brace => {
                        fields = Some(parse_named_fields(g.stream()));
                        i += 1;
                    }
                    other => panic!(
                        "serde shim derive: unsupported {other:?}-delimited data on variant `{name}`"
                    ),
                }
            }
        }
        if i < toks.len() && is_punct(&toks[i], ',') {
            i += 1;
        }
        variants.push(Variant { name, fields });
    }
    variants
}

fn parse_item(input: TokenStream) -> Item {
    let toks: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    let container_attrs = take_attrs(&toks, &mut i);
    let mut lowercase = false;
    for (key, val) in container_attrs {
        match (key.as_str(), val.as_deref()) {
            ("rename_all", Some("lowercase")) => lowercase = true,
            (other, v) => {
                panic!("serde shim derive: unsupported container attribute `{other}` = {v:?}")
            }
        }
    }
    skip_visibility(&toks, &mut i);
    let kind = ident_string(&toks[i]);
    i += 1;
    let name = ident_string(&toks[i]);
    i += 1;
    if i < toks.len() && is_punct(&toks[i], '<') {
        panic!("serde shim derive: generic type `{name}` is not supported");
    }
    let Some(TokenTree::Group(body)) = toks.get(i) else {
        panic!("serde shim derive: expected a body for `{name}`");
    };
    match (kind.as_str(), body.delimiter()) {
        ("struct", Delimiter::Brace) => Item::Struct {
            name,
            fields: parse_named_fields(body.stream()),
        },
        ("struct", Delimiter::Parenthesis) => {
            let inner: Vec<TokenTree> = body.stream().into_iter().collect();
            let commas = inner.iter().filter(|t| is_punct(t, ',')).count();
            assert!(
                commas == 0 || (commas == 1 && is_punct(inner.last().expect("non-empty"), ',')),
                "serde shim derive: only one-field tuple structs are supported, `{name}` has more"
            );
            Item::Newtype { name }
        }
        ("enum", Delimiter::Brace) => Item::Enum {
            name,
            lowercase,
            variants: parse_variants(body.stream()),
        },
        (k, d) => panic!("serde shim derive: unsupported item `{k}` with {d:?} body"),
    }
}

// ---------------------------------------------------------------------
// Code generation.
// ---------------------------------------------------------------------

fn variant_tag(v: &Variant, lowercase: bool) -> String {
    if lowercase {
        v.name.to_lowercase()
    } else {
        v.name.clone()
    }
}

fn gen_serialize(item: &Item) -> String {
    let header = "#[automatically_derived]\n#[allow(clippy::all)]\n";
    match item {
        Item::Struct { name, fields } => {
            let mut body =
                String::from("let mut fields: Vec<(String, serde::Value)> = Vec::new();\n");
            for f in fields {
                let n = &f.name;
                let push = format!(
                    "fields.push((\"{n}\".to_string(), serde::Serialize::to_value(&self.{n})));"
                );
                match &f.skip_if {
                    Some(path) => body.push_str(&format!("if !{path}(&self.{n}) {{ {push} }}\n")),
                    None => {
                        body.push_str(&push);
                        body.push('\n');
                    }
                }
            }
            body.push_str("serde::Value::Map(fields)");
            format!(
                "{header}impl serde::Serialize for {name} {{\n\
                 fn to_value(&self) -> serde::Value {{\n{body}\n}}\n}}"
            )
        }
        Item::Newtype { name } => format!(
            "{header}impl serde::Serialize for {name} {{\n\
             fn to_value(&self) -> serde::Value {{ serde::Serialize::to_value(&self.0) }}\n}}"
        ),
        Item::Enum {
            name,
            lowercase,
            variants,
        } => {
            let mut arms = String::new();
            for v in variants {
                let tag = variant_tag(v, *lowercase);
                match &v.fields {
                    None => arms.push_str(&format!(
                        "{name}::{v} => serde::Value::Str(\"{tag}\".to_string()),\n",
                        v = v.name
                    )),
                    Some(fs) => {
                        let binds: Vec<&str> = fs.iter().map(|f| f.name.as_str()).collect();
                        let pushes: Vec<String> = fs
                            .iter()
                            .map(|f| {
                                format!(
                                    "(\"{n}\".to_string(), serde::Serialize::to_value({n}))",
                                    n = f.name
                                )
                            })
                            .collect();
                        arms.push_str(&format!(
                            "{name}::{v} {{ {binds} }} => serde::Value::Map(vec![(\"{tag}\".to_string(), serde::Value::Map(vec![{pushes}]))]),\n",
                            v = v.name,
                            binds = binds.join(", "),
                            pushes = pushes.join(", ")
                        ));
                    }
                }
            }
            format!(
                "{header}impl serde::Serialize for {name} {{\n\
                 fn to_value(&self) -> serde::Value {{\nmatch self {{\n{arms}}}\n}}\n}}"
            )
        }
    }
}

/// The expression rebuilding one field from map entries `m`.
fn field_expr(owner: &str, f: &Field) -> String {
    let n = &f.name;
    let fallback = match &f.default {
        Some(DefaultKind::Std) => "Default::default()".to_string(),
        Some(DefaultKind::Path(p)) => format!("{p}()"),
        None => format!("return Err(serde::Error::custom(\"{owner}: missing field `{n}`\"))"),
    };
    format!(
        "{n}: match serde::map_get(m, \"{n}\") {{\n\
         Some(fv) => serde::Deserialize::from_value(fv)?,\n\
         None => {fallback},\n\
         }}"
    )
}

fn gen_deserialize(item: &Item) -> String {
    let header = "#[automatically_derived]\n#[allow(clippy::all)]\n";
    match item {
        Item::Struct { name, fields } => {
            let inits: Vec<String> = fields.iter().map(|f| field_expr(name, f)).collect();
            format!(
                "{header}impl serde::Deserialize for {name} {{\n\
                 fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {{\n\
                 let m = v.as_map().ok_or_else(|| serde::Error::custom(\"{name}: expected map\"))?;\n\
                 Ok({name} {{\n{inits}\n}})\n}}\n}}",
                inits = inits.join(",\n")
            )
        }
        Item::Newtype { name } => format!(
            "{header}impl serde::Deserialize for {name} {{\n\
             fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {{\n\
             Ok({name}(serde::Deserialize::from_value(v)?))\n}}\n}}"
        ),
        Item::Enum {
            name,
            lowercase,
            variants,
        } => {
            let units: Vec<&Variant> = variants.iter().filter(|v| v.fields.is_none()).collect();
            let datas: Vec<&Variant> = variants.iter().filter(|v| v.fields.is_some()).collect();

            let str_arm = {
                let mut arms = String::new();
                for v in &units {
                    arms.push_str(&format!(
                        "\"{tag}\" => Ok({name}::{v}),\n",
                        tag = variant_tag(v, *lowercase),
                        v = v.name
                    ));
                }
                format!(
                    "serde::Value::Str(s) => match s.as_str() {{\n{arms}\
                     other => Err(serde::Error::custom(format!(\"{name}: unknown variant `{{other}}`\"))),\n}},\n"
                )
            };

            let map_arm = if datas.is_empty() {
                String::new()
            } else {
                let mut arms = String::new();
                for v in &datas {
                    let fs = v.fields.as_ref().expect("data variant has fields");
                    let owner = format!("{name}::{v}", v = v.name);
                    let inits: Vec<String> = fs.iter().map(|f| field_expr(&owner, f)).collect();
                    arms.push_str(&format!(
                        "\"{tag}\" => {{\n\
                         let m = inner.as_map().ok_or_else(|| serde::Error::custom(\"{owner}: expected map\"))?;\n\
                         Ok({owner} {{\n{inits}\n}})\n}}\n",
                        tag = variant_tag(v, *lowercase),
                        inits = inits.join(",\n")
                    ));
                }
                format!(
                    "serde::Value::Map(entries) if entries.len() == 1 => {{\n\
                     let (tag, inner) = &entries[0];\n\
                     match tag.as_str() {{\n{arms}\
                     other => Err(serde::Error::custom(format!(\"{name}: unknown variant `{{other}}`\"))),\n}}\n}},\n"
                )
            };

            format!(
                "{header}impl serde::Deserialize for {name} {{\n\
                 fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {{\n\
                 match v {{\n{str_arm}{map_arm}\
                 _ => Err(serde::Error::custom(\"{name}: expected variant tag\")),\n\
                 }}\n}}\n}}"
            )
        }
    }
}
