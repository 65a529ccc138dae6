//! The code generator (§4.2 of the paper).
//!
//! The paper's runtime "inspects the `Implements[T]` embeddings in a
//! program's source code, computes the set of all component interfaces and
//! implementations, then generates code to marshal and unmarshal arguments
//! … and to execute these methods as remote procedure calls. The generated
//! code is compiled along with the developer's code into a single binary."
//!
//! In Rust the natural vehicle for that step is procedural macros, which run
//! at exactly the same point in the build:
//!
//! * [`macro@derive(WeaverData)`](derive_weaver_data) — implements the
//!   paper's non-versioned `Encode`/`Decode` pair for an application type:
//!   the one format the runtime speaks, and what every component argument
//!   and reply needs.
//!
//! * [`macro@derive(TaggedData)`](derive_tagged_data) — the opt-in
//!   baseline format: the protobuf-shaped `TaggedEncode`/`TaggedDecode`
//!   pair the gRPC-like baseline speaks. A type derives it only if the
//!   baseline encodes it.
//!
//! * [`macro@component`] — the component interface generator. Applied to a
//!   trait, it emits the client stub (marshal arguments, call through a
//!   `ClientHandle`, unmarshal the reply), the server-side dispatcher
//!   (unmarshal, invoke the implementation, marshal the reply), and the
//!   `ComponentInterface` glue the runtime uses to treat the trait as a
//!   deployable unit. Methods annotated `#[routed]` hash their first
//!   argument into a routing key for Slicer-style affinity routing (§5.2).
//!
//! Generated code refers to the runtime crates by their crate names
//! (`::weaver_codec`, `::weaver_core`), so any crate using these macros must
//! depend on both.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod component;
mod data;
mod error;

use proc_macro::TokenStream;

/// Derives the non-versioned `Encode` and `Decode` for a struct or enum.
///
/// Field order is the wire order and an enum's discriminant is its
/// variant's declaration index — exactly the invariants the paper's atomic
/// rollouts let the custom format rely on.
///
/// Accepts named-field, tuple and unit structs, and enums whose variants
/// have unit, tuple, or named fields. Type parameters are bounded by
/// `Encode + Decode`.
#[proc_macro_derive(WeaverData)]
pub fn derive_weaver_data(input: TokenStream) -> TokenStream {
    data::expand(input, data::Format::Wire).unwrap_or_else(|e| e.to_compile_error())
}

/// Derives the protobuf-shaped `TaggedEncode`, `TaggedDecode` and
/// `TaggedValue` for a struct or enum.
///
/// Field numbers are assigned from declaration order starting at 1. An enum
/// is a message of its discriminant (field 1) and its variant's fields
/// (field 2). A field that is absent on the wire decodes to its type's
/// default: a message-typed field to its first variant with every field at
/// its own default, so the type needs no `Default`. Type parameters are
/// bounded by `TaggedField`.
#[proc_macro_derive(TaggedData)]
pub fn derive_tagged_data(input: TokenStream) -> TokenStream {
    data::expand(input, data::Format::Tagged).unwrap_or_else(|e| e.to_compile_error())
}

/// Declares a trait as a component interface.
///
/// ```ignore
/// #[weaver::component]
/// pub trait Hello {
///     fn greet(&self, ctx: &CallContext, name: String) -> Result<String, WeaverError>;
/// }
/// ```
///
/// Every method must take `&self`, then a context argument (any `&`-reference
/// type, conventionally `&CallContext`), then owned `WeaverData` arguments,
/// and return `Result<T, WeaverError>`.
///
/// Accepted attribute arguments:
///
/// * `#[component(name = "pkg.Hello")]` — overrides the registered component
///   name (defaults to `"<module path>.<TraitName>"`).
///
/// Accepted method attributes:
///
/// * `#[routed]` — route calls by the hash of the first argument (affinity
///   routing, §5.2). The first argument must implement `Hash`.
#[proc_macro_attribute]
pub fn component(args: TokenStream, input: TokenStream) -> TokenStream {
    component::expand(args, input).unwrap_or_else(|e| e.to_compile_error())
}
