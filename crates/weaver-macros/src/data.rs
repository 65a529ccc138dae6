//! Expansion of `#[derive(WeaverData)]`.
//!
//! Parses the type definition with the shared `weaver-syntax` scanner (no
//! `syn` dependency) and emits the seven codec impls as source text.

use crate::error::MacroError;
use proc_macro::TokenStream;
use weaver_syntax::{lex, render_type, Cursor, Tok, TokKind};

/// One field of a struct or variant.
struct Field {
    /// `None` for tuple fields.
    name: Option<String>,
    ty: String,
}

impl Field {
    /// `self.name` / `self.0`.
    fn access(&self, i: usize) -> String {
        match &self.name {
            Some(n) => format!("self.{n}"),
            None => format!("self.{i}"),
        }
    }
    /// Local binding used in decode paths.
    fn binding(&self, i: usize) -> String {
        match &self.name {
            Some(n) => n.clone(),
            None => format!("f{i}"),
        }
    }
    /// JSON object key.
    fn json_key(&self, i: usize) -> String {
        match &self.name {
            Some(n) => n.clone(),
            None => format!("{i}"),
        }
    }
}

#[derive(PartialEq, Clone, Copy)]
enum Shape {
    Named,
    Tuple,
    Unit,
}

struct Variant {
    name: String,
    shape: Shape,
    fields: Vec<Field>,
}

/// One parsed generic type parameter: `T` plus its original bounds text.
struct TypeParam {
    name: String,
    bounds: String,
}

pub fn expand(input: TokenStream) -> Result<TokenStream, MacroError> {
    let src = input.to_string();
    let toks = lex(&src).map_err(|e| MacroError::new(format!("derive(WeaverData): {e}")))?;
    let mut c = Cursor::new(&toks);

    // Attributes and visibility.
    loop {
        match c.peek() {
            Some(t) if t.is_punct("#") => {
                c.next();
                if !c.skip_balanced() {
                    return Err(MacroError::new("derive(WeaverData): malformed attribute"));
                }
            }
            Some(t) if t.is_ident("pub") => {
                c.next();
                if c.peek().is_some_and(|t| t.is_punct("(")) {
                    c.skip_balanced();
                }
            }
            _ => break,
        }
    }

    let is_enum = match c.peek() {
        Some(t) if t.is_ident("struct") => false,
        Some(t) if t.is_ident("enum") => true,
        Some(t) if t.is_ident("union") => {
            return Err(MacroError::new("WeaverData cannot be derived for unions"))
        }
        _ => {
            return Err(MacroError::new(
                "WeaverData can only be derived for structs and enums",
            ))
        }
    };
    c.next();
    let name = c
        .eat_any_ident()
        .ok_or_else(|| MacroError::new("derive(WeaverData): expected a type name"))?
        .text
        .clone();

    let params = parse_generics(&mut c)?;
    if c.peek().is_some_and(|t| t.is_ident("where")) {
        return Err(MacroError::new(
            "derive(WeaverData): `where` clauses are not supported; put bounds on the parameters",
        ));
    }

    let impls = if is_enum {
        let body = c
            .take_group()
            .ok_or_else(|| MacroError::new("derive(WeaverData): expected an enum body"))?;
        let variants = parse_variants(body)?;
        if variants.is_empty() {
            return Err(MacroError::new(
                "WeaverData cannot be derived for empty enums",
            ));
        }
        expand_enum(&name, &variants)
    } else {
        let (shape, fields) = match c.peek() {
            Some(t) if t.is_punct("{") => {
                let body = c
                    .take_group()
                    .ok_or_else(|| MacroError::new("derive(WeaverData): unbalanced struct body"))?;
                (Shape::Named, parse_fields(body, Shape::Named)?)
            }
            Some(t) if t.is_punct("(") => {
                let body = c
                    .take_group()
                    .ok_or_else(|| MacroError::new("derive(WeaverData): unbalanced struct body"))?;
                (Shape::Tuple, parse_fields(body, Shape::Tuple)?)
            }
            Some(t) if t.is_punct(";") => (Shape::Unit, Vec::new()),
            _ => {
                return Err(MacroError::new(
                    "derive(WeaverData): expected a struct body",
                ))
            }
        };
        expand_struct(&name, shape, &fields)
    };

    let output = render_impls(&name, &params, &impls);
    output.parse().map_err(|e| {
        MacroError::new(format!(
            "derive(WeaverData): generated code failed to parse: {e}"
        ))
    })
}

/// Parses `<T, U: Clone>` after the type name, if present.
fn parse_generics(c: &mut Cursor<'_>) -> Result<Vec<TypeParam>, MacroError> {
    let mut params = Vec::new();
    if !c.peek().is_some_and(|t| t.is_punct("<")) {
        return Ok(params);
    }
    c.next();
    loop {
        match c.peek() {
            None => return Err(MacroError::new("derive(WeaverData): unbalanced generics")),
            Some(t) if t.is_punct(">") => {
                c.next();
                break;
            }
            Some(t) if t.kind == TokKind::Lifetime => {
                return Err(MacroError::new(
                    "derive(WeaverData): lifetime parameters are not supported (wire data is owned)",
                ));
            }
            Some(t) if t.is_ident("const") => {
                return Err(MacroError::new(
                    "derive(WeaverData): const generics are not supported",
                ));
            }
            Some(_) => {
                let pname = c
                    .eat_any_ident()
                    .ok_or_else(|| {
                        MacroError::new("derive(WeaverData): expected a type parameter")
                    })?
                    .text
                    .clone();
                let mut bound_toks: Vec<Tok> = Vec::new();
                if c.eat_punct(":") {
                    let mut angle = 0i32;
                    while let Some(t) = c.peek() {
                        if angle == 0 && (t.is_punct(",") || t.is_punct(">")) {
                            break;
                        }
                        if t.is_punct("<") {
                            angle += 1;
                        } else if t.is_punct(">") {
                            angle -= 1;
                        }
                        bound_toks.push(t.clone());
                        c.next();
                    }
                }
                c.eat_punct(",");
                params.push(TypeParam {
                    name: pname,
                    bounds: render_type(&bound_toks),
                });
            }
        }
    }
    Ok(params)
}

/// Skips any `#[...]` attributes (doc comments included) at the cursor.
fn skip_attrs(c: &mut Cursor<'_>) -> Result<(), MacroError> {
    while c.peek().is_some_and(|t| t.is_punct("#")) {
        c.next();
        if !c.skip_balanced() {
            return Err(MacroError::new("derive(WeaverData): malformed attribute"));
        }
    }
    Ok(())
}

/// Parses the fields of a named or tuple body (delimiters already removed).
fn parse_fields(body: &[Tok], shape: Shape) -> Result<Vec<Field>, MacroError> {
    let mut fields = Vec::new();
    let mut c = Cursor::new(body);
    while !c.at_end() {
        skip_attrs(&mut c)?;
        if c.at_end() {
            break;
        }
        if c.eat_ident("pub") && c.peek().is_some_and(|t| t.is_punct("(")) {
            c.skip_balanced();
        }
        let name = if shape == Shape::Named {
            let n = c
                .eat_any_ident()
                .ok_or_else(|| MacroError::new("derive(WeaverData): expected a field name"))?
                .text
                .clone();
            if !c.eat_punct(":") {
                return Err(MacroError::new(
                    "derive(WeaverData): expected `:` after field name",
                ));
            }
            Some(n)
        } else {
            None
        };
        // Type runs to the next top-level comma.
        let start = c.pos();
        let mut angle = 0i32;
        while let Some(t) = c.peek() {
            if angle == 0 && t.is_punct(",") {
                break;
            }
            if t.is_punct("<") {
                angle += 1;
            } else if t.is_punct(">") {
                angle -= 1;
            }
            if t.kind == TokKind::Open {
                c.skip_balanced();
            } else {
                c.next();
            }
        }
        let ty_toks = &body[start..c.pos()];
        if ty_toks.is_empty() {
            return Err(MacroError::new("derive(WeaverData): expected a field type"));
        }
        fields.push(Field {
            name,
            ty: render_type(ty_toks),
        });
        c.eat_punct(",");
    }
    Ok(fields)
}

/// Parses the variants of an enum body (delimiters already removed).
fn parse_variants(body: &[Tok]) -> Result<Vec<Variant>, MacroError> {
    let mut variants = Vec::new();
    let mut c = Cursor::new(body);
    while !c.at_end() {
        skip_attrs(&mut c)?;
        if c.at_end() {
            break;
        }
        let vname = c
            .eat_any_ident()
            .ok_or_else(|| MacroError::new("derive(WeaverData): expected a variant name"))?
            .text
            .clone();
        let (shape, fields) = match c.peek() {
            Some(t) if t.is_punct("(") => {
                let inner = c
                    .take_group()
                    .ok_or_else(|| MacroError::new("derive(WeaverData): unbalanced variant"))?;
                (Shape::Tuple, parse_fields(inner, Shape::Tuple)?)
            }
            Some(t) if t.is_punct("{") => {
                let inner = c
                    .take_group()
                    .ok_or_else(|| MacroError::new("derive(WeaverData): unbalanced variant"))?;
                (Shape::Named, parse_fields(inner, Shape::Named)?)
            }
            _ => (Shape::Unit, Vec::new()),
        };
        if c.peek().is_some_and(|t| t.is_punct("=")) {
            return Err(MacroError::new(
                "derive(WeaverData): explicit discriminants are not supported \
                 (wire discriminants come from declaration order)",
            ));
        }
        c.eat_punct(",");
        variants.push(Variant {
            name: vname,
            shape,
            fields,
        });
    }
    Ok(variants)
}

struct StructImpls {
    wire_encode: String,
    wire_decode: String,
    tagged_encode: String,
    tagged_decode: String,
    to_json: String,
    from_json: String,
}

/// Builds `Name { a: a, b: b }`, `Name(f0, f1)`, or `Name`.
fn construct_expr(path: &str, shape: Shape, fields: &[Field]) -> String {
    match shape {
        Shape::Named => {
            let pairs: Vec<String> = fields
                .iter()
                .enumerate()
                .map(|(i, f)| format!("{}: {}", f.json_key(i), f.binding(i)))
                .collect();
            format!("{path} {{ {} }}", pairs.join(", "))
        }
        Shape::Tuple => {
            let bindings: Vec<String> = fields
                .iter()
                .enumerate()
                .map(|(i, f)| f.binding(i))
                .collect();
            format!("{path}({})", bindings.join(", "))
        }
        Shape::Unit => path.to_string(),
    }
}

/// Builds a match pattern binding every field.
fn pattern_expr(path: &str, shape: Shape, fields: &[Field]) -> String {
    match shape {
        Shape::Named => {
            let names: Vec<String> = fields
                .iter()
                .enumerate()
                .map(|(i, f)| f.binding(i))
                .collect();
            format!("{path} {{ {} }}", names.join(", "))
        }
        Shape::Tuple => {
            let bindings: Vec<String> = fields
                .iter()
                .enumerate()
                .map(|(i, f)| f.binding(i))
                .collect();
            format!("{path}({})", bindings.join(", "))
        }
        Shape::Unit => path.to_string(),
    }
}

fn expand_struct(name: &str, shape: Shape, fields: &[Field]) -> StructImpls {
    let is_named = shape == Shape::Named;

    let wire_encode: String = fields
        .iter()
        .enumerate()
        .map(|(i, f)| {
            format!(
                "::weaver_codec::wire::Encode::encode(&{}, buf);\n",
                f.access(i)
            )
        })
        .collect();

    let wire_decode = {
        let reads: String = fields
            .iter()
            .enumerate()
            .map(|(i, f)| {
                format!(
                    "let {} = <{} as ::weaver_codec::wire::Decode>::decode(r)?;\n",
                    f.binding(i),
                    f.ty
                )
            })
            .collect();
        let construct = construct_expr(name, shape, fields);
        format!("{reads}::std::result::Result::Ok({construct})")
    };

    let tagged_encode: String = fields
        .iter()
        .enumerate()
        .map(|(i, f)| {
            format!(
                "::weaver_codec::tagged::TaggedField::emit(&{}, {}u32, buf);\n",
                f.access(i),
                i + 1
            )
        })
        .collect();

    let tagged_decode = {
        let inits: String = fields
            .iter()
            .enumerate()
            .map(|(i, f)| {
                format!(
                    "let mut {}: {} = ::weaver_codec::tagged::TaggedField::empty();\n",
                    f.binding(i),
                    f.ty
                )
            })
            .collect();
        let arms: String = fields
            .iter()
            .enumerate()
            .map(|(i, f)| {
                format!(
                    "{}u32 => ::weaver_codec::tagged::TaggedField::merge(&mut {}, key, r)?,\n",
                    i + 1,
                    f.binding(i)
                )
            })
            .collect();
        let construct = construct_expr(name, shape, fields);
        format!(
            "{inits}
            while !r.is_empty() {{
                let key = ::weaver_codec::tagged::read_key(r)?;
                match key.field {{
                    {arms}
                    _ => ::weaver_codec::tagged::skip_value(r, key.wire_type)?,
                }}
            }}
            ::std::result::Result::Ok({construct})"
        )
    };

    let to_json = if is_named {
        let inserts: String = fields
            .iter()
            .enumerate()
            .map(|(i, f)| {
                format!(
                    "map.insert({:?}.to_string(), ::weaver_codec::json::ToJson::to_json(&{}));\n",
                    f.json_key(i),
                    f.access(i)
                )
            })
            .collect();
        format!(
            "let mut map = ::std::collections::BTreeMap::new();
            {inserts}
            ::weaver_codec::json::JsonValue::Object(map)"
        )
    } else if fields.is_empty() {
        "::weaver_codec::json::JsonValue::Array(::std::vec::Vec::new())".to_string()
    } else {
        let items: Vec<String> = fields
            .iter()
            .enumerate()
            .map(|(i, f)| format!("::weaver_codec::json::ToJson::to_json(&{})", f.access(i)))
            .collect();
        format!(
            "::weaver_codec::json::JsonValue::Array(vec![{}])",
            items.join(", ")
        )
    };

    let from_json = if is_named {
        let reads: String = fields
            .iter()
            .enumerate()
            .map(|(i, f)| {
                let key = f.json_key(i);
                format!(
                    "let {} = <{} as ::weaver_codec::json::FromJson>::from_json_field(
                        obj.get({key:?}), {key:?},
                    )?;\n",
                    f.binding(i),
                    f.ty
                )
            })
            .collect();
        let construct = construct_expr(name, shape, fields);
        format!(
            "let obj = v.as_object()?;
            {reads}
            ::std::result::Result::Ok({construct})"
        )
    } else {
        let n = fields.len();
        let reads: String = fields
            .iter()
            .enumerate()
            .map(|(i, f)| {
                format!(
                    "let {} = <{} as ::weaver_codec::json::FromJson>::from_json(&arr[{i}])?;\n",
                    f.binding(i),
                    f.ty
                )
            })
            .collect();
        let construct = construct_expr(name, shape, fields);
        format!(
            "let arr = v.as_array()?;
            if arr.len() != {n}usize {{
                return ::std::result::Result::Err(
                    ::weaver_codec::error::DecodeError::JsonType {{
                        expected: \"tuple array of matching arity\",
                    }},
                );
            }}
            {reads}
            ::std::result::Result::Ok({construct})"
        )
    };

    StructImpls {
        wire_encode,
        wire_decode,
        tagged_encode,
        tagged_decode,
        to_json,
        from_json,
    }
}

fn expand_enum(name: &str, variants: &[Variant]) -> StructImpls {
    let wire_encode = {
        let arms: String = variants
            .iter()
            .enumerate()
            .map(|(idx, v)| {
                let pat = pattern_expr(&format!("{name}::{}", v.name), v.shape, &v.fields);
                let writes: String = v
                    .fields
                    .iter()
                    .enumerate()
                    .map(|(i, f)| {
                        format!(
                            "::weaver_codec::wire::Encode::encode({}, buf);\n",
                            f.binding(i)
                        )
                    })
                    .collect();
                format!(
                    "{pat} => {{
                        ::weaver_codec::varint::write_uvarint(buf, {idx}u64);
                        {writes}
                    }}\n"
                )
            })
            .collect();
        format!("match self {{ {arms} }}")
    };

    let wire_decode = {
        let arms: String = variants
            .iter()
            .enumerate()
            .map(|(idx, v)| {
                let reads: String = v
                    .fields
                    .iter()
                    .enumerate()
                    .map(|(i, f)| {
                        format!(
                            "let {} = <{} as ::weaver_codec::wire::Decode>::decode(r)?;\n",
                            f.binding(i),
                            f.ty
                        )
                    })
                    .collect();
                let construct = construct_expr(&format!("{name}::{}", v.name), v.shape, &v.fields);
                format!(
                    "{idx}u64 => {{
                        {reads}
                        ::std::result::Result::Ok({construct})
                    }}\n"
                )
            })
            .collect();
        format!(
            "let disc = ::weaver_codec::varint::read_uvarint(r)?;
            match disc {{
                {arms}
                other => ::std::result::Result::Err(
                    ::weaver_codec::error::DecodeError::UnknownVariant {{
                        type_name: {name:?},
                        discriminant: other,
                    }},
                ),
            }}"
        )
    };

    // Tagged layout for enums: field 1 = discriminant (always present),
    // field 2 = length-delimited payload carrying the variant's own fields
    // as a nested message numbered from 1.
    let tagged_encode = {
        let arms: String = variants
            .iter()
            .enumerate()
            .map(|(idx, v)| {
                let pat = pattern_expr(&format!("{name}::{}", v.name), v.shape, &v.fields);
                let emits: String = v
                    .fields
                    .iter()
                    .enumerate()
                    .map(|(i, f)| {
                        format!(
                            "::weaver_codec::tagged::TaggedField::emit({}, {}u32, &mut payload);\n",
                            f.binding(i),
                            i + 1
                        )
                    })
                    .collect();
                format!(
                    "{pat} => {{
                        ::weaver_codec::tagged::write_key(
                            buf, 1, ::weaver_codec::tagged::WireType::Varint,
                        );
                        ::weaver_codec::varint::write_uvarint(buf, {idx}u64);
                        let mut payload = ::std::vec::Vec::new();
                        let _ = &mut payload;
                        {emits}
                        ::weaver_codec::tagged::write_key(
                            buf, 2, ::weaver_codec::tagged::WireType::LengthDelimited,
                        );
                        ::weaver_codec::varint::write_uvarint(buf, payload.len() as u64);
                        buf.extend_from_slice(&payload);
                    }}\n"
                )
            })
            .collect();
        format!("match self {{ {arms} }}")
    };

    let tagged_decode = {
        let arms: String = variants
            .iter()
            .enumerate()
            .map(|(idx, v)| {
                let inits: String = v
                    .fields
                    .iter()
                    .enumerate()
                    .map(|(i, f)| {
                        format!(
                            "let mut {}: {} = ::weaver_codec::tagged::TaggedField::empty();\n",
                            f.binding(i),
                            f.ty
                        )
                    })
                    .collect();
                let field_arms: String = v
                    .fields
                    .iter()
                    .enumerate()
                    .map(|(i, f)| {
                        format!(
                            "{}u32 => ::weaver_codec::tagged::TaggedField::merge(&mut {}, key, r)?,\n",
                            i + 1,
                            f.binding(i)
                        )
                    })
                    .collect();
                let construct =
                    construct_expr(&format!("{name}::{}", v.name), v.shape, &v.fields);
                format!(
                    "{idx}u64 => {{
                        {inits}
                        let mut r = ::weaver_codec::reader::Reader::new(&payload);
                        let r = &mut r;
                        while !r.is_empty() {{
                            let key = ::weaver_codec::tagged::read_key(r)?;
                            match key.field {{
                                {field_arms}
                                _ => ::weaver_codec::tagged::skip_value(r, key.wire_type)?,
                            }}
                        }}
                        ::std::result::Result::Ok({construct})
                    }}\n"
                )
            })
            .collect();
        format!(
            "let mut disc: u64 = 0;
            let mut payload: ::std::vec::Vec<u8> = ::std::vec::Vec::new();
            while !r.is_empty() {{
                let key = ::weaver_codec::tagged::read_key(r)?;
                match key.field {{
                    1 => ::weaver_codec::tagged::TaggedField::merge(&mut disc, key, r)?,
                    2 => {{
                        if key.wire_type != ::weaver_codec::tagged::WireType::LengthDelimited {{
                            return ::std::result::Result::Err(
                                ::weaver_codec::error::DecodeError::WireTypeMismatch {{
                                    field: 2,
                                    found: key.wire_type as u8,
                                }},
                            );
                        }}
                        let len = r.read_len()?;
                        payload = r.read_bytes(len)?.to_vec();
                    }}
                    _ => ::weaver_codec::tagged::skip_value(r, key.wire_type)?,
                }}
            }}
            match disc {{
                {arms}
                other => ::std::result::Result::Err(
                    ::weaver_codec::error::DecodeError::UnknownVariant {{
                        type_name: {name:?},
                        discriminant: other,
                    }},
                ),
            }}"
        )
    };

    let to_json = {
        let arms: String = variants
            .iter()
            .map(|v| {
                let vname = &v.name;
                let pat = pattern_expr(&format!("{name}::{vname}"), v.shape, &v.fields);
                let tag_insert = format!(
                    "let mut map = ::std::collections::BTreeMap::new();
                     map.insert(
                        \"$type\".to_string(),
                        ::weaver_codec::json::JsonValue::String({vname:?}.to_string()),
                     );"
                );
                match v.shape {
                    Shape::Unit => format!(
                        "{pat} => {{
                            {tag_insert}
                            ::weaver_codec::json::JsonValue::Object(map)
                        }}\n"
                    ),
                    Shape::Named => {
                        let inserts: String = v
                            .fields
                            .iter()
                            .enumerate()
                            .map(|(i, f)| {
                                format!(
                                    "map.insert({:?}.to_string(), \
                                     ::weaver_codec::json::ToJson::to_json({}));\n",
                                    f.json_key(i),
                                    f.binding(i)
                                )
                            })
                            .collect();
                        format!(
                            "{pat} => {{
                                {tag_insert}
                                {inserts}
                                ::weaver_codec::json::JsonValue::Object(map)
                            }}\n"
                        )
                    }
                    Shape::Tuple => {
                        let items: Vec<String> = v
                            .fields
                            .iter()
                            .enumerate()
                            .map(|(i, f)| {
                                format!("::weaver_codec::json::ToJson::to_json({})", f.binding(i))
                            })
                            .collect();
                        format!(
                            "{pat} => {{
                                {tag_insert}
                                map.insert(
                                    \"$fields\".to_string(),
                                    ::weaver_codec::json::JsonValue::Array(vec![{}]),
                                );
                                ::weaver_codec::json::JsonValue::Object(map)
                            }}\n",
                            items.join(", ")
                        )
                    }
                }
            })
            .collect();
        format!("match self {{ {arms} }}")
    };

    let from_json = {
        let arms: String = variants
            .iter()
            .map(|v| {
                let vname = &v.name;
                let construct =
                    construct_expr(&format!("{name}::{vname}"), v.shape, &v.fields);
                match v.shape {
                    Shape::Unit => {
                        format!("{vname:?} => ::std::result::Result::Ok({construct}),\n")
                    }
                    Shape::Named => {
                        let reads: String = v
                            .fields
                            .iter()
                            .enumerate()
                            .map(|(i, f)| {
                                let key = f.json_key(i);
                                format!(
                                    "let {} = <{} as ::weaver_codec::json::FromJson>::from_json_field(
                                        obj.get({key:?}), {key:?},
                                    )?;\n",
                                    f.binding(i),
                                    f.ty
                                )
                            })
                            .collect();
                        format!(
                            "{vname:?} => {{
                                {reads}
                                ::std::result::Result::Ok({construct})
                            }}\n"
                        )
                    }
                    Shape::Tuple => {
                        let n = v.fields.len();
                        let reads: String = v
                            .fields
                            .iter()
                            .enumerate()
                            .map(|(i, f)| {
                                format!(
                                    "let {} = <{} as ::weaver_codec::json::FromJson>::from_json(&arr[{i}])?;\n",
                                    f.binding(i),
                                    f.ty
                                )
                            })
                            .collect();
                        format!(
                            "{vname:?} => {{
                                let arr = v.get(\"$fields\")?.as_array()?;
                                if arr.len() != {n}usize {{
                                    return ::std::result::Result::Err(
                                        ::weaver_codec::error::DecodeError::JsonType {{
                                            expected: \"variant field array of matching arity\",
                                        }},
                                    );
                                }}
                                {reads}
                                ::std::result::Result::Ok({construct})
                            }}\n"
                        )
                    }
                }
            })
            .collect();
        format!(
            "let obj = v.as_object()?;
            let tag = v.get(\"$type\")?.as_str()?;
            let _ = obj;
            match tag {{
                {arms}
                _ => ::std::result::Result::Err(
                    ::weaver_codec::error::DecodeError::JsonType {{
                        expected: \"a known enum variant name in $type\",
                    }},
                ),
            }}"
        )
    };

    StructImpls {
        wire_encode,
        wire_decode,
        tagged_encode,
        tagged_decode,
        to_json,
        from_json,
    }
}

/// Assembles the seven trait impls with the codec bounds added to every
/// type parameter (`Default` included: a derived type's tagged default
/// value is its `Default`). `TaggedField` comes from the codec's blanket
/// impl over `TaggedValue`.
fn render_impls(name: &str, params: &[TypeParam], impls: &StructImpls) -> String {
    const BOUNDS: &str = "::weaver_codec::wire::Encode + ::weaver_codec::wire::Decode \
                          + ::weaver_codec::tagged::TaggedField + ::weaver_codec::json::ToJson \
                          + ::weaver_codec::json::FromJson + ::std::default::Default";
    let (impl_generics, ty_generics) = if params.is_empty() {
        (String::new(), String::new())
    } else {
        let decls: Vec<String> = params
            .iter()
            .map(|p| {
                if p.bounds.is_empty() {
                    format!("{}: {BOUNDS}", p.name)
                } else {
                    format!("{}: {} + {BOUNDS}", p.name, p.bounds)
                }
            })
            .collect();
        let names: Vec<&str> = params.iter().map(|p| p.name.as_str()).collect();
        (
            format!("<{}>", decls.join(", ")),
            format!("<{}>", names.join(", ")),
        )
    };
    let this = format!("{name}{ty_generics}");
    let StructImpls {
        wire_encode,
        wire_decode,
        tagged_encode,
        tagged_decode,
        to_json,
        from_json,
    } = impls;

    format!(
        "impl{impl_generics} ::weaver_codec::wire::Encode for {this} {{
            fn encode(&self, buf: &mut ::std::vec::Vec<u8>) {{
                let _ = buf;
                {wire_encode}
            }}
        }}

        impl{impl_generics} ::weaver_codec::wire::Decode for {this} {{
            fn decode(
                r: &mut ::weaver_codec::reader::Reader<'_>,
            ) -> ::std::result::Result<Self, ::weaver_codec::error::DecodeError> {{
                let _ = &r;
                {wire_decode}
            }}
        }}

        impl{impl_generics} ::weaver_codec::tagged::TaggedEncode for {this} {{
            fn encode_tagged(&self, buf: &mut ::std::vec::Vec<u8>) {{
                let _ = buf;
                {tagged_encode}
            }}
        }}

        impl{impl_generics} ::weaver_codec::tagged::TaggedDecode for {this} {{
            fn decode_tagged(
                r: &mut ::weaver_codec::reader::Reader<'_>,
            ) -> ::std::result::Result<Self, ::weaver_codec::error::DecodeError> {{
                let _ = &r;
                {tagged_decode}
            }}
        }}

        impl{impl_generics} ::weaver_codec::tagged::TaggedValue for {this} {{
            const WIRE: ::weaver_codec::tagged::WireType =
                ::weaver_codec::tagged::WireType::LengthDelimited;

            fn write_value(&self, buf: &mut ::std::vec::Vec<u8>) {{
                let mut body = ::std::vec::Vec::new();
                ::weaver_codec::tagged::TaggedEncode::encode_tagged(self, &mut body);
                ::weaver_codec::varint::write_uvarint(buf, body.len() as u64);
                buf.extend_from_slice(&body);
            }}

            fn read_value(
                r: &mut ::weaver_codec::reader::Reader<'_>,
            ) -> ::std::result::Result<Self, ::weaver_codec::error::DecodeError> {{
                r.enter()?;
                let len = r.read_len()?;
                let body = r.read_bytes(len)?;
                let mut inner = ::weaver_codec::reader::Reader::new(body);
                let out = <Self as ::weaver_codec::tagged::TaggedDecode>::decode_tagged(&mut inner)?;
                r.leave();
                ::std::result::Result::Ok(out)
            }}

            fn is_default_value(&self) -> bool {{
                // Message-typed values always use explicit presence.
                false
            }}

            fn default_value() -> Self {{
                ::std::default::Default::default()
            }}
        }}

        impl{impl_generics} ::weaver_codec::json::ToJson for {this} {{
            fn to_json(&self) -> ::weaver_codec::json::JsonValue {{
                {to_json}
            }}
        }}

        impl{impl_generics} ::weaver_codec::json::FromJson for {this} {{
            fn from_json(
                v: &::weaver_codec::json::JsonValue,
            ) -> ::std::result::Result<Self, ::weaver_codec::error::DecodeError> {{
                let _ = v;
                {from_json}
            }}
        }}"
    )
}
