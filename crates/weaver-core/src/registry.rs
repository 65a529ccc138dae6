//! The component registry: every component compiled into the binary.
//!
//! Because the whole application ships as one binary and is deployed
//! atomically, every process of a deployment has the *same* registry. Ids
//! are assigned by sorting registrations by name, so they are deterministic
//! regardless of registration order — which is what lets the wire protocol
//! and the proclet↔manager protocol identify components by small integers.

use std::any::Any;
use std::collections::HashMap;
use std::sync::Arc;

use crate::client::ClientHandle;
use crate::component::{Component, ComponentInterface, MethodSpec};
use crate::context::{CallContext, InitContext};
use crate::error::WeaverError;

/// A type-erased dispatcher: `(method, ctx, args) -> reply`.
pub type DispatchFn =
    Arc<dyn Fn(u32, &CallContext, &[u8]) -> Result<Vec<u8>, WeaverError> + Send + Sync>;

/// A running component instance, type-erased for the runtime's tables.
///
/// Cache-line aligned: each stripe of [`crate::instance::LiveComponents`]
/// holds its own `Arc` of an instance, and a call clones its stripe's, so
/// no two of those reference counts may share a line.
#[repr(align(64))]
pub struct ErasedInstance {
    /// Server-side dispatcher closing over the implementation.
    pub dispatch: DispatchFn,
    /// The `Arc<I>` interface pointer, behind `Any` for typed local access.
    pub iface_any: Arc<dyn Any + Send + Sync>,
    /// True when `init` acquired no component reference: the instance holds
    /// no stub, so none of its methods can make a nested call.
    pub leaf: bool,
}

impl std::fmt::Debug for ErasedInstance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ErasedInstance")
            .field("leaf", &self.leaf)
            .finish_non_exhaustive()
    }
}

impl Clone for ErasedInstance {
    fn clone(&self) -> Self {
        ErasedInstance {
            dispatch: Arc::clone(&self.dispatch),
            iface_any: Arc::clone(&self.iface_any),
            leaf: self.leaf,
        }
    }
}

type Constructor =
    Box<dyn Fn(&InitContext<'_>) -> Result<ErasedInstance, WeaverError> + Send + Sync>;

/// One registered component.
pub struct Registration {
    /// Component name (`ComponentInterface::NAME`).
    pub name: &'static str,
    /// Method table.
    pub methods: &'static [MethodSpec],
    constructor: Constructor,
}

impl Registration {
    /// Constructs a fresh replica of this component.
    pub fn construct(&self, ctx: &InitContext<'_>) -> Result<ErasedInstance, WeaverError> {
        (self.constructor)(ctx)
    }
}

/// Builder: register every component, then [`RegistryBuilder::build`].
#[derive(Default)]
pub struct RegistryBuilder {
    regs: Vec<Registration>,
}

impl RegistryBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers component implementation `C`.
    ///
    /// # Panics
    ///
    /// Panics if another implementation already claimed the same interface —
    /// one implementation per interface per binary, caught at startup.
    pub fn register<C: Component>(mut self) -> Self {
        let name = <C::Interface as ComponentInterface>::NAME;
        assert!(
            self.regs.iter().all(|r| r.name != name),
            "component {name:?} registered twice"
        );
        let constructor: Constructor = Box::new(|init: &InitContext<'_>| {
            let instance = Arc::new(C::init(init)?);
            let iface: Arc<C::Interface> = C::into_interface(instance);
            let iface_for_dispatch = Arc::clone(&iface);
            let dispatch: DispatchFn = Arc::new(move |method, ctx, args| {
                <C::Interface as ComponentInterface>::dispatch(
                    &iface_for_dispatch,
                    method,
                    ctx,
                    args,
                )
            });
            Ok(ErasedInstance {
                dispatch,
                iface_any: Arc::new(iface),
                leaf: init.acquisitions() == 0,
            })
        });
        self.regs.push(Registration {
            name,
            methods: <C::Interface as ComponentInterface>::METHODS,
            constructor,
        });
        self
    }

    /// Finalizes the registry, assigning deterministic ids.
    pub fn build(mut self) -> ComponentRegistry {
        self.regs.sort_by_key(|r| r.name);
        let by_name = self
            .regs
            .iter()
            .enumerate()
            .map(|(i, r)| (r.name, i as u32))
            .collect();
        ComponentRegistry {
            regs: self.regs,
            by_name,
        }
    }
}

/// The finalized, immutable registry shared by every part of the runtime.
pub struct ComponentRegistry {
    regs: Vec<Registration>,
    by_name: HashMap<&'static str, u32>,
}

impl ComponentRegistry {
    /// Number of registered components.
    pub fn len(&self) -> usize {
        self.regs.len()
    }

    /// True when no components are registered.
    pub fn is_empty(&self) -> bool {
        self.regs.is_empty()
    }

    /// Resolves a component name to its id.
    pub fn id_of(&self, name: &str) -> Result<u32, WeaverError> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| WeaverError::UnknownComponent { name: name.into() })
    }

    /// Looks up a registration by id.
    pub fn get(&self, id: u32) -> Result<&Registration, WeaverError> {
        self.regs
            .get(id as usize)
            .ok_or_else(|| WeaverError::UnknownComponent {
                name: format!("#{id}"),
            })
    }

    /// Iterates registrations in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &Registration)> {
        self.regs.iter().enumerate().map(|(i, r)| (i as u32, r))
    }

    /// All component names in id order.
    pub fn names(&self) -> Vec<&'static str> {
        self.regs.iter().map(|r| r.name).collect()
    }

    /// Builds a typed client handle for interface `I` over `router`.
    pub fn client_handle<I: ComponentInterface + ?Sized>(
        &self,
        router: Arc<dyn crate::client::CallRouter>,
    ) -> Result<ClientHandle, WeaverError> {
        self.remote_handle(self.id_of(I::NAME)?, router)
    }

    /// Builds the client handle through which every call to component `id`
    /// goes via `router`: how each deployer resolves a remote reference.
    pub fn remote_handle(
        &self,
        id: u32,
        router: Arc<dyn crate::client::CallRouter>,
    ) -> Result<ClientHandle, WeaverError> {
        let registration = self.get(id)?;
        Ok(ClientHandle::new(
            crate::client::TargetInfo {
                component_id: id,
                name: registration.name,
                methods: registration.methods,
            },
            router,
        ))
    }
}
