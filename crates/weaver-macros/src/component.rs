//! Expansion of `#[component]` on a trait.
//!
//! For a trait `Hello` this generates:
//!
//! * the trait itself, with `Send + Sync + 'static` supertraits added;
//! * `HelloClient`, a stub implementing `Hello` by marshaling arguments and
//!   calling through a `weaver_core::client::ClientHandle`;
//! * `impl weaver_core::component::ComponentInterface for dyn Hello`, which
//!   carries the component name, the method table, the client factory, and
//!   the server-side dispatcher.
//!
//! Implementation note: this crate deliberately has no dependency on `syn`.
//! The component grammar is restricted enough (trait + `fn` signatures, no
//! default bodies) that the shared scanner in `weaver-syntax` covers it, and
//! the trait itself is re-emitted by splicing the original source text —
//! only the supertrait list and `#[routed]` markers are edited.

use crate::error::MacroError;
use proc_macro::TokenStream;
use weaver_syntax::{lex, parse_fn_sig, Cursor, FnSig, TokKind};

struct Method {
    name: String,
    /// Payload arguments (excluding `&self` and the context argument):
    /// `(name, type)` pairs.
    args: Vec<(String, String)>,
    /// `T` from `Result<T, WeaverError>`.
    ok_type: String,
    routed: bool,
}

pub fn expand(attr_args: TokenStream, input: TokenStream) -> Result<TokenStream, MacroError> {
    let src = input.to_string();
    let toks = lex(&src).map_err(|e| MacroError::new(format!("#[component]: {e}")))?;

    let explicit_name = parse_attr_args(attr_args)?;

    let mut c = Cursor::new(&toks);

    // Skip outer attributes and visibility to the `trait` keyword.
    loop {
        match c.peek() {
            Some(t) if t.is_punct("#") => {
                c.next();
                if !c.skip_balanced() {
                    return Err(MacroError::new("#[component]: malformed attribute"));
                }
            }
            Some(t) if t.is_ident("pub") => {
                c.next();
                // `pub(crate)` etc.
                if c.peek().is_some_and(|t| t.is_punct("(")) {
                    c.skip_balanced();
                }
            }
            Some(t) if t.is_ident("unsafe") || t.is_ident("auto") => {
                return Err(MacroError::new(
                    "#[component] traits must be plain safe traits",
                ));
            }
            Some(t) if t.is_ident("trait") => break,
            _ => {
                return Err(MacroError::new(
                    "#[component] can only be applied to a trait",
                ))
            }
        }
    }
    c.next(); // `trait`
    let trait_ident = c
        .eat_any_ident()
        .ok_or_else(|| MacroError::new("#[component]: expected a trait name"))?
        .text
        .clone();
    if c.peek().is_some_and(|t| t.is_punct("<")) {
        return Err(MacroError::new(
            "#[component] traits cannot have generic parameters",
        ));
    }

    // Everything up to `{` is the (possibly empty) supertrait list.
    let has_supertraits = c.peek().is_some_and(|t| t.is_punct(":"));
    if !c.skip_to_punct("{") {
        return Err(MacroError::new("#[component]: expected a trait body"));
    }
    let body_open = c.pos();
    let body = c
        .take_group()
        .ok_or_else(|| MacroError::new("#[component]: unbalanced trait body"))?;

    // Parse the trait items, recording which byte ranges hold `#[routed]`
    // attributes so they can be stripped from the re-emitted source.
    let mut methods = Vec::new();
    let mut routed_spans: Vec<(usize, usize)> = Vec::new();
    let mut b = Cursor::new(body);
    while !b.at_end() {
        let mut routed = false;
        // Item attributes (doc comments arrive as `#[doc = "…"]`).
        while b.peek().is_some_and(|t| t.is_punct("#")) {
            let attr_start = b.peek().map(|t| t.lo).unwrap_or(0);
            b.next();
            let group = b
                .take_group()
                .ok_or_else(|| MacroError::new("#[component]: malformed attribute"))?;
            if group.len() == 1 && group[0].is_ident("routed") {
                routed = true;
                let attr_end = b.peek_at(0).map(|t| t.lo).unwrap_or(src.len());
                // Remove from `#` through just before the next token.
                routed_spans.push((attr_start, attr_end.min(src.len())));
            }
        }
        let Some(t) = b.peek() else { break };
        if !t.is_ident("fn") {
            return Err(MacroError::new(format!(
                "#[component] traits may only contain methods (unexpected `{}`)",
                t.text
            )));
        }
        let sig = parse_fn_sig(&mut b).ok_or_else(|| {
            MacroError::new("#[component]: could not parse method signature (arguments must be simple identifiers)")
        })?;
        match b.peek() {
            Some(t) if t.is_punct(";") => {
                b.next();
            }
            Some(t) if t.is_punct("{") => {
                return Err(MacroError::new(format!(
                    "#[component] trait methods cannot have default bodies (`{}`)",
                    sig.name
                )));
            }
            _ => {
                return Err(MacroError::new(format!(
                    "#[component]: expected `;` after method `{}`",
                    sig.name
                )))
            }
        }
        methods.push(validate_method(sig, routed)?);
    }

    if methods.is_empty() {
        return Err(MacroError::new(
            "a #[component] trait must declare at least one method",
        ));
    }

    // Re-emit the trait: original source with `#[routed]` spans removed and
    // the supertraits spliced in before the body brace.
    let brace_lo = toks[body_open].lo;
    let supertrait_text = if has_supertraits {
        "+ ::std::marker::Send + ::std::marker::Sync + 'static "
    } else {
        ": ::std::marker::Send + ::std::marker::Sync + 'static "
    };
    let mut trait_text = String::new();
    let mut pos = 0usize;
    for &(lo, hi) in &routed_spans {
        if lo >= brace_lo {
            break;
        }
        trait_text.push_str(&src[pos..lo]);
        pos = hi;
    }
    trait_text.push_str(&src[pos..brace_lo]);
    trait_text.push_str(supertrait_text);
    pos = brace_lo;
    for &(lo, hi) in &routed_spans {
        if lo < brace_lo {
            continue;
        }
        trait_text.push_str(&src[pos..lo]);
        pos = hi;
    }
    trait_text.push_str(&src[pos..]);

    // Splice the `<method>_start` scatter-gather variants into the trait
    // body, just before its closing brace. Each default runs the blocking
    // method eagerly — correct for co-located implementations, overridden
    // by the generated client stub to put the call on the wire without
    // waiting. They are provided methods, not wire methods: they do not
    // appear in METHODS or the dispatcher.
    let close = trait_text
        .rfind('}')
        .ok_or_else(|| MacroError::new("#[component]: malformed trait body"))?;
    trait_text.insert_str(close, &start_defaults(&methods));

    let generated = generate(&trait_ident, explicit_name.as_deref(), &methods);
    let output = format!("{trait_text}\n{generated}");
    output
        .parse()
        .map_err(|e| MacroError::new(format!("#[component]: generated code failed to parse: {e}")))
}

/// Parses the attribute arguments: empty or `name = "pkg.Hello"`.
fn parse_attr_args(args: TokenStream) -> Result<Option<String>, MacroError> {
    let src = args.to_string();
    if src.trim().is_empty() {
        return Ok(None);
    }
    let toks = lex(&src).map_err(|e| MacroError::new(format!("#[component] arguments: {e}")))?;
    let mut c = Cursor::new(&toks);
    if c.eat_ident("name") && c.eat_punct("=") {
        if let Some(t) = c.peek() {
            if t.kind == TokKind::Str && c.peek_at(1).is_none() {
                let text = &t.text;
                if text.starts_with('"') && text.ends_with('"') && text.len() >= 2 {
                    return Ok(Some(text[1..text.len() - 1].to_string()));
                }
            }
        }
    }
    Err(MacroError::new(
        "unsupported #[component] argument; expected `name = \"…\"`",
    ))
}

fn validate_method(sig: FnSig, routed: bool) -> Result<Method, MacroError> {
    if sig.receiver() != Some("&self") {
        return Err(MacroError::new(format!(
            "component methods must take `&self` (components are shared, replicated agents): `{}`",
            sig.name
        )));
    }
    let rest = sig.non_receiver_args();
    match rest.first() {
        Some(ctx) if ctx.by_ref => {}
        _ => {
            return Err(MacroError::new(format!(
                "component methods must take `ctx: &CallContext` as their first argument: `{}`",
                sig.name
            )))
        }
    }
    let mut args = Vec::new();
    for arg in &rest[1..] {
        if arg.by_ref {
            return Err(MacroError::new(format!(
                "component method arguments must be owned values (they may cross a process \
                 boundary): `{}: {}`",
                arg.name, arg.ty
            )));
        }
        args.push((arg.name.clone(), arg.ty.clone()));
    }
    if routed && args.is_empty() {
        return Err(MacroError::new(format!(
            "#[routed] methods need at least one argument to use as the routing key: `{}`",
            sig.name
        )));
    }
    let ok_type = sig
        .ret
        .as_deref()
        .and_then(extract_result_ok)
        .ok_or_else(|| {
            MacroError::new(format!(
                "component methods must return Result<T, WeaverError>: `{}`",
                sig.name
            ))
        })?;
    Ok(Method {
        name: sig.name,
        args,
        ok_type,
        routed,
    })
}

/// Extracts `T` from a rendered `Result<T, E>` return type.
fn extract_result_ok(ty: &str) -> Option<String> {
    let toks = lex(ty).ok()?;
    // Find the `Result` path segment followed by `<`.
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("Result") && toks.get(i + 1).is_some_and(|t| t.is_punct("<")) {
            break;
        }
        // Only path prefixes (`::`, `std`, `result`) may precede it.
        if !(toks[i].kind == TokKind::Ident || toks[i].is_punct(":")) {
            return None;
        }
        i += 1;
    }
    if i >= toks.len() {
        return None;
    }
    // Take the tokens of the first generic argument at angle depth 1.
    let mut depth = 0i32;
    let mut start = None;
    let mut j = i + 1;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct("<") {
            depth += 1;
            if depth == 1 {
                start = Some(j + 1);
            }
        } else if t.is_punct(">") {
            depth -= 1;
            if depth == 0 {
                return Some(weaver_syntax::render_type(&toks[start?..j]));
            }
        } else if t.is_punct(",") && depth == 1 {
            return Some(weaver_syntax::render_type(&toks[start?..j]));
        } else if t.kind == TokKind::Open {
            // Balanced `()`/`[]` inside the type: skip whole.
            let mut d = 0usize;
            while j < toks.len() {
                match toks[j].kind {
                    TokKind::Open => d += 1,
                    TokKind::Close => {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        j += 1;
    }
    None
}

/// Emits the provided `<method>_start` trait methods spliced into the
/// re-emitted trait body: non-blocking variants returning a typed
/// `CallFuture`, defaulting to eager (local) execution.
fn start_defaults(methods: &[Method]) -> String {
    methods
        .iter()
        .map(|m| {
            let arg_pairs: String = m
                .args
                .iter()
                .map(|(name, ty)| format!(", {name}: {ty}"))
                .collect();
            let arg_names: String = m.args.iter().map(|(name, _)| format!(", {name}")).collect();
            format!(
                "\n    /// Starts `{name}` without waiting for the result.\n\
                 \x20   ///\n\
                 \x20   /// Remote placements put the request in flight and return \
                 immediately;\n\
                 \x20   /// this default (used for co-located calls) runs the method \
                 eagerly.\n\
                 \x20   /// Gather with `CallFuture::wait` or `weaver_core::fanout::join_all`.\n\
                 \x20   fn {name}_start(
        &self,
        ctx: &::weaver_core::context::CallContext{arg_pairs}
    ) -> ::weaver_core::fanout::CallFuture<{ok}> {{
        ::weaver_core::fanout::CallFuture::ready(self.{name}(ctx{arg_names}))
    }}\n",
                name = m.name,
                ok = m.ok_type,
            )
        })
        .collect()
}

/// Emits the client struct, its trait impl, and the `ComponentInterface`
/// impl, mirroring the layout documented at the top of this module.
fn generate(trait_ident: &str, explicit_name: Option<&str>, methods: &[Method]) -> String {
    let client_ident = format!("{trait_ident}Client");
    let name_expr = match explicit_name {
        Some(n) => format!("{n:?}"),
        None => format!("::std::concat!(::std::module_path!(), \".\", {trait_ident:?})",),
    };

    let method_specs: String = methods
        .iter()
        .map(|m| {
            format!(
                "::weaver_core::component::MethodSpec {{ name: {:?}, routed: {} }},\n",
                m.name, m.routed
            )
        })
        .collect();

    let client_methods: String = methods
        .iter()
        .enumerate()
        .map(|(idx, m)| {
            let arg_pairs: String = m
                .args
                .iter()
                .map(|(name, ty)| format!(", {name}: {ty}"))
                .collect();
            let encodes: String = m
                .args
                .iter()
                .map(|(name, _)| {
                    format!("::weaver_codec::wire::Encode::encode(&{name}, &mut args);\n")
                })
                .collect();
            let hints: String = m
                .args
                .iter()
                .map(|(name, _)| format!(" + ::weaver_codec::wire::Encode::size_hint(&{name})"))
                .collect();
            let routing = if m.routed {
                format!(
                    "::std::option::Option::Some(::weaver_core::routing_key(&{}))",
                    m.args[0].0
                )
            } else {
                "::std::option::Option::None".to_string()
            };
            format!(
                "fn {name}(
                    &self,
                    ctx: &::weaver_core::context::CallContext{arg_pairs}
                ) -> ::std::result::Result<{ok}, ::weaver_core::error::WeaverError> {{
                    let mut args = ::std::vec::Vec::with_capacity(0usize{hints});
                    {encodes}
                    let reply = self.handle.call(ctx, {idx}u32, {routing}, args)?;
                    ::weaver_core::client::decode_reply::<{ok}>(&reply)
                }}

                fn {name}_start(
                    &self,
                    ctx: &::weaver_core::context::CallContext{arg_pairs}
                ) -> ::weaver_core::fanout::CallFuture<{ok}> {{
                    let mut args = ::std::vec::Vec::with_capacity(0usize{hints});
                    {encodes}
                    let route = self.handle.call_start(ctx, {idx}u32, {routing}, args);
                    ::weaver_core::fanout::CallFuture::from_route(
                        route,
                        ::weaver_core::client::decode_reply::<{ok}>,
                    )
                }}\n",
                name = m.name,
                ok = m.ok_type,
            )
        })
        .collect();

    let dispatch_arms: String = methods
        .iter()
        .enumerate()
        .map(|(idx, m)| {
            let decodes: String = m
                .args
                .iter()
                .map(|(name, ty)| {
                    format!(
                        "let {name} = <{ty} as ::weaver_codec::wire::Decode>::decode(&mut r)
                            .map_err(::weaver_core::error::WeaverError::from)?;\n"
                    )
                })
                .collect();
            let arg_names: String = m.args.iter().map(|(name, _)| format!(", {name}")).collect();
            format!(
                "{idx}u32 => {{
                    let mut r = ::weaver_codec::reader::Reader::new(args);
                    let _ = &mut r;
                    {decodes}
                    let ret = this.{name}(ctx{arg_names});
                    ::std::result::Result::Ok(::weaver_core::client::encode_reply(&ret))
                }}\n",
                name = m.name,
            )
        })
        .collect();

    format!(
        "/// Generated client stub: marshals arguments and calls through the
/// runtime. Local (co-located) calls never construct one of these —
/// the runtime hands out the implementation `Arc` directly.
#[doc(hidden)]
pub struct {client_ident} {{
    handle: ::weaver_core::client::ClientHandle,
}}

impl {trait_ident} for {client_ident} {{
    {client_methods}
}}

impl ::weaver_core::component::ComponentInterface for dyn {trait_ident} {{
    const NAME: &'static str = {name_expr};

    const METHODS: &'static [::weaver_core::component::MethodSpec] = &[
        {method_specs}
    ];

    fn client(handle: ::weaver_core::client::ClientHandle) -> ::std::sync::Arc<Self> {{
        ::std::sync::Arc::new({client_ident} {{ handle }})
    }}

    fn dispatch(
        this: &Self,
        method: u32,
        ctx: &::weaver_core::context::CallContext,
        args: &[u8],
    ) -> ::std::result::Result<::std::vec::Vec<u8>, ::weaver_core::error::WeaverError>
    {{
        match method {{
            {dispatch_arms}
            other => ::std::result::Result::Err(
                ::weaver_core::error::WeaverError::UnknownMethod {{
                    component: <Self as ::weaver_core::component::ComponentInterface>::NAME
                        .to_string(),
                    method: other,
                }},
            ),
        }}
    }}
}}\n"
    )
}
