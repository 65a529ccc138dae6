//! Expansion of the two data derives: `#[derive(WeaverData)]` (the
//! non-versioned wire codec) and `#[derive(TaggedData)]` (the
//! protobuf-shaped baseline).
//!
//! Both parse the type definition with the shared `weaver-syntax`
//! scanner (no `syn` dependency) and emit their format's impls as source
//! text. A struct is handled as an enum's single variant without a
//! discriminant, so every format has one code path for both.

use crate::error::MacroError;
use proc_macro::TokenStream;
use weaver_syntax::{lex, render_type, Cursor, Tok, TokKind};

/// The format one derive emits.
#[derive(Clone, Copy)]
pub enum Format {
    /// `Encode` + `Decode`.
    Wire,
    /// `TaggedEncode` + `TaggedDecode` + `TaggedValue`.
    Tagged,
}

impl Format {
    fn derive_name(self) -> &'static str {
        match self {
            Format::Wire => "WeaverData",
            Format::Tagged => "TaggedData",
        }
    }

    /// What every type parameter is bounded by: the format's own traits.
    fn bounds(self) -> &'static str {
        match self {
            Format::Wire => "::weaver_codec::wire::Encode + ::weaver_codec::wire::Decode",
            Format::Tagged => "::weaver_codec::tagged::TaggedField",
        }
    }
}

/// One field of a struct or variant.
struct Field {
    /// `None` for tuple fields.
    name: Option<String>,
    ty: String,
}

/// The local every generated pattern binds field `i` to (never a field's
/// own name, which could shadow a generated local such as `buf`).
fn binding(i: usize) -> String {
    format!("f{i}")
}

#[derive(PartialEq, Clone, Copy)]
enum Shape {
    Named,
    Tuple,
    Unit,
}

/// An enum variant, or a struct's body (with an empty name).
struct Variant {
    name: String,
    shape: Shape,
    fields: Vec<Field>,
}

impl Variant {
    /// Builds `Path { a: .., b: .. }`, `Path(.., ..)` or `Path`, taking each
    /// field's value from `value`.
    fn construct(&self, path: &str, value: impl Fn(usize) -> String) -> String {
        let parts: Vec<String> = self
            .fields
            .iter()
            .enumerate()
            .map(|(i, f)| match &f.name {
                Some(n) => format!("{n}: {}", value(i)),
                None => value(i),
            })
            .collect();
        match self.shape {
            Shape::Named => format!("{path} {{ {} }}", parts.join(", ")),
            Shape::Tuple => format!("{path}({})", parts.join(", ")),
            Shape::Unit => path.to_string(),
        }
    }

    /// The pattern (and the expression) with field `i` bound to
    /// [`binding`]`(i)`.
    fn bound(&self, path: &str) -> String {
        self.construct(path, binding)
    }

    /// Concatenates `line` over the fields.
    fn each(&self, line: impl Fn(usize, &Field) -> String) -> String {
        self.fields
            .iter()
            .enumerate()
            .map(|(i, f)| line(i, f))
            .collect()
    }
}

/// One parsed generic type parameter: `T` plus its original bounds text.
struct TypeParam {
    name: String,
    bounds: String,
}

/// A parsed struct or enum.
struct Data {
    name: String,
    params: Vec<TypeParam>,
    is_enum: bool,
    /// The enum's variants in declaration order, or the struct's one body.
    variants: Vec<Variant>,
}

impl Data {
    /// `Name::Variant` for an enum, `Name` for a struct.
    fn path(&self, v: &Variant) -> String {
        if self.is_enum {
            format!("{}::{}", self.name, v.name)
        } else {
            self.name.clone()
        }
    }

    /// `match self { .. }` with one arm per variant, each built by `body`
    /// from the variant's index (its discriminant) and the variant itself.
    fn match_self(&self, body: impl Fn(usize, &Variant) -> String) -> String {
        let arms: String = self
            .variants
            .iter()
            .enumerate()
            .map(|(idx, v)| format!("{} => {{ {} }}\n", v.bound(&self.path(v)), body(idx, v)))
            .collect();
        format!("match self {{ {arms} }}")
    }

    /// A struct's one decode body, or a match of an enum's discriminant
    /// expression `disc` onto each variant's body.
    fn match_discriminant(&self, disc: &str, body: impl Fn(&Variant) -> String) -> String {
        if !self.is_enum {
            return body(&self.variants[0]);
        }
        let arms: String = self
            .variants
            .iter()
            .enumerate()
            .map(|(idx, v)| format!("{idx}u64 => {{ {} }}\n", body(v)))
            .collect();
        format!(
            "match {disc} {{
                {arms}
                other => ::std::result::Result::Err(
                    ::weaver_codec::error::DecodeError::UnknownVariant {{
                        type_name: {:?},
                        discriminant: other,
                    }},
                ),
            }}",
            self.name
        )
    }

    /// Renders `impl<..> trait for Name<..> { items }` with `bounds` added
    /// to every type parameter.
    fn render_impl(&self, bounds: &str, trait_path: &str, items: &str) -> String {
        let decls: Vec<String> = self
            .params
            .iter()
            .map(|p| match p.bounds.as_str() {
                "" => format!("{}: {bounds}", p.name),
                own => format!("{}: {own} + {bounds}", p.name),
            })
            .collect();
        let names: Vec<&str> = self.params.iter().map(|p| p.name.as_str()).collect();
        // Empty `<>` is valid on both sides, so non-generic types need no
        // special case.
        format!(
            "impl<{}> {trait_path} for {}<{}> {{ {items} }}\n",
            decls.join(", "),
            self.name,
            names.join(", ")
        )
    }
}

pub fn expand(input: TokenStream, format: Format) -> Result<TokenStream, MacroError> {
    let derive = format.derive_name();
    let data =
        parse(&input.to_string()).map_err(|e| MacroError::new(format!("derive({derive}): {e}")))?;
    let impls: String = match format {
        Format::Wire => wire_impls(&data),
        Format::Tagged => tagged_impls(&data),
    }
    .iter()
    .map(|(trait_path, items)| data.render_impl(format.bounds(), trait_path, items))
    .collect();
    impls.parse().map_err(|e| {
        MacroError::new(format!(
            "derive({derive}): generated code failed to parse: {e}"
        ))
    })
}

fn parse(src: &str) -> Result<Data, String> {
    let toks = lex(src).map_err(|e| e.to_string())?;
    let mut c = Cursor::new(&toks);

    // Attributes and visibility.
    loop {
        match c.peek() {
            Some(t) if t.is_punct("#") => {
                c.next();
                if !c.skip_balanced() {
                    return Err("malformed attribute".into());
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
        Some(t) if t.is_ident("union") => return Err("cannot be derived for unions".into()),
        _ => return Err("can only be derived for structs and enums".into()),
    };
    c.next();
    let name = c
        .eat_any_ident()
        .ok_or("expected a type name")?
        .text
        .clone();

    let params = parse_generics(&mut c)?;
    if c.peek().is_some_and(|t| t.is_ident("where")) {
        return Err("`where` clauses are not supported; put bounds on the parameters".into());
    }

    let variants = if is_enum {
        let body = c.take_group().ok_or("expected an enum body")?;
        let variants = parse_variants(body)?;
        if variants.is_empty() {
            return Err("cannot be derived for empty enums".into());
        }
        variants
    } else {
        let shape = match c.peek() {
            Some(t) if t.is_punct("{") => Shape::Named,
            Some(t) if t.is_punct("(") => Shape::Tuple,
            Some(t) if t.is_punct(";") => Shape::Unit,
            _ => return Err("expected a struct body".into()),
        };
        let fields = match shape {
            Shape::Unit => Vec::new(),
            _ => parse_fields(c.take_group().ok_or("unbalanced struct body")?, shape)?,
        };
        vec![Variant {
            name: String::new(),
            shape,
            fields,
        }]
    };
    Ok(Data {
        name,
        params,
        is_enum,
        variants,
    })
}

/// Parses `<T, U: Clone>` after the type name, if present.
fn parse_generics(c: &mut Cursor<'_>) -> Result<Vec<TypeParam>, String> {
    let mut params = Vec::new();
    if !c.peek().is_some_and(|t| t.is_punct("<")) {
        return Ok(params);
    }
    c.next();
    loop {
        match c.peek() {
            None => return Err("unbalanced generics".into()),
            Some(t) if t.is_punct(">") => {
                c.next();
                break;
            }
            Some(t) if t.kind == TokKind::Lifetime => {
                return Err("lifetime parameters are not supported (wire data is owned)".into());
            }
            Some(t) if t.is_ident("const") => {
                return Err("const generics are not supported".into());
            }
            Some(_) => {
                let pname = c
                    .eat_any_ident()
                    .ok_or("expected a type parameter")?
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
fn skip_attrs(c: &mut Cursor<'_>) -> Result<(), String> {
    while c.peek().is_some_and(|t| t.is_punct("#")) {
        c.next();
        if !c.skip_balanced() {
            return Err("malformed attribute".into());
        }
    }
    Ok(())
}

/// Parses the fields of a named or tuple body (delimiters already removed).
fn parse_fields(body: &[Tok], shape: Shape) -> Result<Vec<Field>, String> {
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
                .ok_or("expected a field name")?
                .text
                .clone();
            if !c.eat_punct(":") {
                return Err("expected `:` after field name".into());
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
            return Err("expected a field type".into());
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
fn parse_variants(body: &[Tok]) -> Result<Vec<Variant>, String> {
    let mut variants = Vec::new();
    let mut c = Cursor::new(body);
    while !c.at_end() {
        skip_attrs(&mut c)?;
        if c.at_end() {
            break;
        }
        let vname = c
            .eat_any_ident()
            .ok_or("expected a variant name")?
            .text
            .clone();
        let shape = match c.peek() {
            Some(t) if t.is_punct("(") => Shape::Tuple,
            Some(t) if t.is_punct("{") => Shape::Named,
            _ => Shape::Unit,
        };
        let fields = match shape {
            Shape::Unit => Vec::new(),
            _ => parse_fields(c.take_group().ok_or("unbalanced variant")?, shape)?,
        };
        if c.peek().is_some_and(|t| t.is_punct("=")) {
            return Err("explicit discriminants are not supported \
                 (wire discriminants come from declaration order)"
                .into());
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

/// The non-versioned format: fields in declaration order, an enum's
/// variant index first.
fn wire_impls(data: &Data) -> Vec<(&'static str, String)> {
    let encode = data.match_self(|idx, v| {
        let disc = if data.is_enum {
            format!("::weaver_codec::varint::write_uvarint(buf, {idx}u64);")
        } else {
            String::new()
        };
        let writes = v.each(|i, _| {
            format!(
                "::weaver_codec::wire::Encode::encode({}, buf);\n",
                binding(i)
            )
        });
        format!("{disc}\n{writes}")
    });
    // Exact: the discriminant's varint width plus the fields.
    let size_hint = data.match_self(|idx, v| {
        let disc = if data.is_enum {
            format!("::weaver_codec::varint::uvarint_len({idx}u64)")
        } else {
            "0usize".to_string()
        };
        let fields =
            v.each(|i, _| format!(" + ::weaver_codec::wire::Encode::size_hint({})", binding(i)));
        format!("{disc}{fields}")
    });
    let decode = data.match_discriminant("::weaver_codec::varint::read_uvarint(r)?", |v| {
        let reads = v.each(|i, f| {
            format!(
                "let {} = <{} as ::weaver_codec::wire::Decode>::decode(r)?;\n",
                binding(i),
                f.ty
            )
        });
        format!(
            "{reads}::std::result::Result::Ok({})",
            v.bound(&data.path(v))
        )
    });
    vec![
        (
            "::weaver_codec::wire::Encode",
            format!(
                "fn encode(&self, buf: &mut ::std::vec::Vec<u8>) {{
                    let _ = &buf;
                    {encode}
                }}

                fn size_hint(&self) -> usize {{
                    {size_hint}
                }}"
            ),
        ),
        (
            "::weaver_codec::wire::Decode",
            format!(
                "fn decode(
                    r: &mut ::weaver_codec::reader::Reader<'_>,
                ) -> ::std::result::Result<Self, ::weaver_codec::error::DecodeError> {{
                    let _ = &r;
                    {decode}
                }}"
            ),
        ),
    ]
}

/// The tagged format. A struct is a message whose fields are numbered from
/// 1 in declaration order. An enum is a message with field 1 = discriminant
/// (always present) and field 2 = a length-delimited payload carrying the
/// variant's own fields as a nested message numbered from 1.
fn tagged_impls(data: &Data) -> Vec<(&'static str, String)> {
    let encode = data.match_self(|idx, v| {
        let out = if data.is_enum { "&mut payload" } else { "buf" };
        let emits = v.each(|i, _| {
            format!(
                "::weaver_codec::tagged::TaggedField::emit({}, {}u32, {out});\n",
                binding(i),
                i + 1
            )
        });
        if !data.is_enum {
            return emits;
        }
        format!(
            "::weaver_codec::tagged::write_key(buf, 1, ::weaver_codec::tagged::WireType::Varint);
            ::weaver_codec::varint::write_uvarint(buf, {idx}u64);
            let mut payload = ::std::vec::Vec::new();
            let _ = &mut payload;
            {emits}
            ::weaver_codec::tagged::write_key(
                buf, 2, ::weaver_codec::tagged::WireType::LengthDelimited,
            );
            ::weaver_codec::varint::write_uvarint(buf, payload.len() as u64);
            buf.extend_from_slice(&payload);"
        )
    });

    // Decodes the fields of `v` from the message body in `r`.
    let message = |v: &Variant| {
        let slots = v.each(|i, f| {
            format!(
                "let mut {}: {} = ::weaver_codec::tagged::TaggedField::empty();\n",
                binding(i),
                f.ty
            )
        });
        let arms = v.each(|i, _| {
            format!(
                "{}u32 => ::weaver_codec::tagged::TaggedField::merge(&mut {}, key, r)?,\n",
                i + 1,
                binding(i)
            )
        });
        let construct = v.bound(&data.path(v));
        format!(
            "{slots}
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
    let decode = if data.is_enum {
        let variants = data.match_discriminant("disc", |v| {
            format!(
                "let mut r = ::weaver_codec::reader::Reader::new(&payload);
                let r = &mut r;
                {}",
                message(v)
            )
        });
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
            {variants}"
        )
    } else {
        message(&data.variants[0])
    };

    // What an absent message decodes to: the first variant (discriminant
    // 0), every field at its own default.
    let first = &data.variants[0];
    let default = first.construct(&data.path(first), |_| {
        "::weaver_codec::tagged::TaggedField::empty()".into()
    });
    vec![
        (
            "::weaver_codec::tagged::TaggedEncode",
            format!(
                "fn encode_tagged(&self, buf: &mut ::std::vec::Vec<u8>) {{
                    let _ = &buf;
                    {encode}
                }}"
            ),
        ),
        (
            "::weaver_codec::tagged::TaggedDecode",
            format!(
                "fn decode_tagged(
                    r: &mut ::weaver_codec::reader::Reader<'_>,
                ) -> ::std::result::Result<Self, ::weaver_codec::error::DecodeError> {{
                    let _ = &r;
                    {decode}
                }}"
            ),
        ),
        (
            "::weaver_codec::tagged::TaggedValue",
            format!(
                "const WIRE: ::weaver_codec::tagged::WireType =
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
                    let out =
                        <Self as ::weaver_codec::tagged::TaggedDecode>::decode_tagged(&mut inner)?;
                    r.leave();
                    ::std::result::Result::Ok(out)
                }}

                fn is_default_value(&self) -> bool {{
                    // Message-typed values always use explicit presence.
                    false
                }}

                fn default_value() -> Self {{
                    {default}
                }}"
            ),
        ),
    ]
}
