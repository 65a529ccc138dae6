//! Hand-written gRPC-style client stubs for every service.

use std::sync::Arc;
use std::time::Duration;

use boutique::components::Frontend;
use boutique::types::{CartItem, CartView, HomeView, OrderResult, PlaceOrderRequest, ProductView};
use weaver_codec::tagged::{decode_message, encode_message, TaggedDecode, TaggedEncode};
use weaver_core::context::CallContext;
use weaver_core::error::WeaverError;
use weaver_transport::{Endpoint, GrpcLikeFraming, Pool, RequestHeader, Status};

use crate::messages::*;
use crate::services::ServiceId;

/// Default per-call timeout for baseline RPCs.
const CALL_TIMEOUT: Duration = Duration::from_secs(30);

/// A connection-pooled stub for one remote service.
pub struct Stub {
    pool: Arc<Pool<GrpcLikeFraming>>,
    addr: Endpoint,
    service: ServiceId,
}

impl Stub {
    /// Creates a stub for `service` at `addr`, sharing `pool`.
    pub fn new(pool: Arc<Pool<GrpcLikeFraming>>, addr: Endpoint, service: ServiceId) -> Stub {
        Stub {
            pool,
            addr,
            service,
        }
    }

    /// Unary call: encode the request message, ship it, decode the reply.
    pub fn call<Req: TaggedEncode, Resp: TaggedDecode>(
        &self,
        ctx: &CallContext,
        method: u32,
        request: &Req,
    ) -> Result<Resp, WeaverError> {
        if ctx.expired() {
            return Err(WeaverError::DeadlineExceeded);
        }
        let header = RequestHeader {
            component: self.service as u32,
            method,
            version: ctx.version,
            deadline_nanos: ctx
                .remaining()
                .map_or(0, |d| d.as_nanos().min(u128::from(u64::MAX)) as u64),
            trace_id: ctx.trace_id,
            span_id: ctx.span_id,
            routing: None,
            // The gRPC-shaped baseline has no retry layer, so it never
            // keys requests.
            idempotency: None,
            attempt: 0,
        };
        let args = encode_message(request);
        let timeout = ctx.remaining().unwrap_or(CALL_TIMEOUT);
        let body = self
            .pool
            .call(self.addr, &header, &args, Some(timeout))
            .map_err(WeaverError::from)?;
        match body.status {
            Status::Ok => Ok(decode_message(&body.payload)?),
            Status::Error => {
                let status: RpcStatus = decode_message(&body.payload)?;
                Err(WeaverError::App {
                    code: status.code,
                    message: status.message,
                })
            }
        }
    }
}

macro_rules! unary {
    ($(#[$doc:meta])* $fn_name:ident, $method:expr, $req:ty => $resp:ty) => {
        $(#[$doc])*
        pub fn $fn_name(
            &self,
            ctx: &CallContext,
            request: &$req,
        ) -> Result<$resp, WeaverError> {
            self.stub.call(ctx, $method, request)
        }
    };
}

/// Client for the catalog service.
pub struct CatalogClient {
    stub: Stub,
}

impl CatalogClient {
    /// Wraps a stub.
    pub fn new(stub: Stub) -> Self {
        CatalogClient { stub }
    }
    unary!(/// Lists the catalog.
        list_products, 0, ListProductsRequest => ListProductsResponse);
    unary!(/// Fetches one product.
        get_product, 1, GetProductRequest => GetProductResponse);
}

/// Client for the currency service.
pub struct CurrencyClient {
    stub: Stub,
}

impl CurrencyClient {
    /// Wraps a stub.
    pub fn new(stub: Stub) -> Self {
        CurrencyClient { stub }
    }
    unary!(/// Supported currencies.
        get_supported, 0, GetSupportedRequest => GetSupportedResponse);
    unary!(/// Converts money.
        convert, 1, ConvertRequest => ConvertResponse);
}

/// Client for the cart service.
pub struct CartClient {
    stub: Stub,
}

impl CartClient {
    /// Wraps a stub.
    pub fn new(stub: Stub) -> Self {
        CartClient { stub }
    }
    unary!(/// Adds an item.
        add_item, 0, AddItemRequest => Empty);
    unary!(/// Reads the cart.
        get_cart, 1, GetCartRequest => GetCartResponse);
    unary!(/// Empties the cart.
        empty_cart, 2, GetCartRequest => Empty);
}

/// Client for the recommendation service.
pub struct RecommendationClient {
    stub: Stub,
}

impl RecommendationClient {
    /// Wraps a stub.
    pub fn new(stub: Stub) -> Self {
        RecommendationClient { stub }
    }
    unary!(/// Lists recommendations.
        list, 0, ListRecommendationsRequest => ListRecommendationsResponse);
}

/// Client for the shipping service.
pub struct ShippingClient {
    stub: Stub,
}

impl ShippingClient {
    /// Wraps a stub.
    pub fn new(stub: Stub) -> Self {
        ShippingClient { stub }
    }
    unary!(/// Quotes shipping.
        get_quote, 0, GetQuoteRequest => GetQuoteResponse);
    unary!(/// Ships an order.
        ship_order, 1, ShipOrderRequest => ShipOrderResponse);
}

/// Client for the payment service.
pub struct PaymentClient {
    stub: Stub,
}

impl PaymentClient {
    /// Wraps a stub.
    pub fn new(stub: Stub) -> Self {
        PaymentClient { stub }
    }
    unary!(/// Charges a card.
        charge, 0, ChargeRequest => ChargeResponse);
}

/// Client for the email service.
pub struct EmailClient {
    stub: Stub,
}

impl EmailClient {
    /// Wraps a stub.
    pub fn new(stub: Stub) -> Self {
        EmailClient { stub }
    }
    unary!(/// Sends a confirmation.
        send_confirmation, 0, SendConfirmationRequest => SendConfirmationResponse);
}

/// Client for the ads service.
pub struct AdsClient {
    stub: Stub,
}

impl AdsClient {
    /// Wraps a stub.
    pub fn new(stub: Stub) -> Self {
        AdsClient { stub }
    }
    unary!(/// Fetches ads.
        get_ads, 0, GetAdsRequest => GetAdsResponse);
}

/// Client for the checkout service.
pub struct CheckoutClient {
    stub: Stub,
}

impl CheckoutClient {
    /// Wraps a stub.
    pub fn new(stub: Stub) -> Self {
        CheckoutClient { stub }
    }
    unary!(/// Places an order.
        place_order, 0, PlaceOrderRpcRequest => PlaceOrderResponse);
}

/// Client for the frontend service. Implements the boutique's `Frontend`
/// trait, so the shared load generator drives the baseline stack unchanged.
pub struct BaselineFrontend {
    stub: Stub,
}

impl BaselineFrontend {
    /// Wraps a stub.
    pub fn new(stub: Stub) -> Self {
        BaselineFrontend { stub }
    }
}

impl Frontend for BaselineFrontend {
    fn home(
        &self,
        ctx: &CallContext,
        user_id: String,
        currency: String,
    ) -> Result<HomeView, WeaverError> {
        let resp: HomeResponse = self.stub.call(ctx, 0, &HomeRequest { user_id, currency })?;
        Ok(resp.view)
    }

    fn browse_product(
        &self,
        ctx: &CallContext,
        user_id: String,
        product_id: String,
        currency: String,
    ) -> Result<ProductView, WeaverError> {
        let resp: BrowseProductResponse = self.stub.call(
            ctx,
            1,
            &BrowseProductRequest {
                user_id,
                product_id,
                currency,
            },
        )?;
        Ok(resp.view)
    }

    fn add_to_cart(
        &self,
        ctx: &CallContext,
        user_id: String,
        product_id: String,
        quantity: u32,
    ) -> Result<(), WeaverError> {
        let _: Empty = self.stub.call(
            ctx,
            2,
            &AddToCartRequest {
                user_id,
                product_id,
                quantity,
            },
        )?;
        Ok(())
    }

    fn view_cart(
        &self,
        ctx: &CallContext,
        user_id: String,
        currency: String,
    ) -> Result<CartView, WeaverError> {
        let resp: ViewCartResponse =
            self.stub
                .call(ctx, 3, &ViewCartRequest { user_id, currency })?;
        Ok(resp.view)
    }

    fn place_order(
        &self,
        ctx: &CallContext,
        request: PlaceOrderRequest,
    ) -> Result<OrderResult, WeaverError> {
        let resp: PlaceOrderResponse = self.stub.call(ctx, 4, &PlaceOrderRpcRequest { request })?;
        Ok(resp.order)
    }
}

/// Convenience: fetch a user's cart as plain items.
pub fn cart_items(
    client: &CartClient,
    ctx: &CallContext,
    user_id: &str,
) -> Result<Vec<CartItem>, WeaverError> {
    Ok(client
        .get_cart(
            ctx,
            &GetCartRequest {
                user_id: user_id.to_string(),
            },
        )?
        .items)
}
