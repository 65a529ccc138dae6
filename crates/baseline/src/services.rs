//! The ten microservice servers and the deployment that wires them up.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use boutique::logic::ads::AdServer;
use boutique::logic::cart::CartStore;
use boutique::logic::catalog::CatalogStore;
use boutique::logic::currency::CurrencyConverter;
use boutique::logic::email::EmailSender;
use boutique::logic::payment::PaymentProcessor;
use boutique::logic::recommend::recommend;
use boutique::logic::shipping::ShippingService;
use boutique::types::{CartView, HomeView, Money, OrderItem, OrderResult, ProductView};
use weaver_codec::tagged::{decode_message, encode_message, TaggedDecode, TaggedEncode};
use weaver_core::context::CallContext;
use weaver_core::error::WeaverError;
use weaver_transport::{
    Endpoint, GrpcLikeFraming, Pool, RequestHeader, ResponseBody, RpcHandler, Server, Status,
};

use crate::client::*;
use crate::messages::*;

/// Stable service ids (stand-ins for gRPC service paths).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum ServiceId {
    /// productcatalogservice
    Catalog = 0,
    /// currencyservice
    Currency = 1,
    /// cartservice
    Cart = 2,
    /// recommendationservice
    Recommendation = 3,
    /// shippingservice
    Shipping = 4,
    /// paymentservice
    Payment = 5,
    /// emailservice
    Email = 6,
    /// adservice
    Ads = 7,
    /// checkoutservice
    Checkout = 8,
    /// frontend
    Frontend = 9,
}

fn weaver_error_to_status(e: &WeaverError) -> RpcStatus {
    match e {
        WeaverError::App { code, message } => RpcStatus {
            code: if *code == 0 { 2 } else { *code },
            message: message.clone(),
        },
        other => RpcStatus {
            code: 2,
            message: other.to_string(),
        },
    }
}

/// Wraps one unary method: decode, run, encode — with gRPC-status errors.
fn unary<Req, Resp>(args: &[u8], f: impl FnOnce(Req) -> Result<Resp, WeaverError>) -> ResponseBody
where
    Req: TaggedDecode,
    Resp: TaggedEncode,
{
    let outcome = decode_message::<Req>(args)
        .map_err(WeaverError::from)
        .and_then(f);
    match outcome {
        Ok(resp) => ResponseBody {
            status: Status::Ok,
            payload: encode_message(&resp).into(),
        },
        Err(e) => ResponseBody {
            status: Status::Error,
            payload: encode_message(&weaver_error_to_status(&e)).into(),
        },
    }
}

fn unknown_method(service: &str, method: u32) -> ResponseBody {
    ResponseBody {
        status: Status::Error,
        payload: encode_message(&RpcStatus {
            code: 12, // UNIMPLEMENTED
            message: format!("unknown method {method} on {service}"),
        })
        .into(),
    }
}

fn ctx_from_header(header: &RequestHeader) -> CallContext {
    CallContext {
        deadline: (header.deadline_nanos > 0).then(|| {
            std::time::Instant::now() + std::time::Duration::from_nanos(header.deadline_nanos)
        }),
        trace_id: header.trace_id,
        span_id: header.span_id,
        version: header.version,
        caller: "",
    }
}

// --------------------------------------------------------------------------
// Leaf services.
// --------------------------------------------------------------------------

struct CatalogHandler {
    store: CatalogStore,
}

impl RpcHandler for CatalogHandler {
    fn handle(&self, header: &RequestHeader, args: &[u8]) -> ResponseBody {
        match header.method {
            0 => unary(args, |_req: ListProductsRequest| {
                Ok(ListProductsResponse {
                    products: self.store.list().to_vec(),
                })
            }),
            1 => unary(args, |req: GetProductRequest| {
                self.store
                    .get(&req.id)
                    .cloned()
                    .map(|product| GetProductResponse { product })
                    .ok_or_else(|| WeaverError::App {
                        code: 5,
                        message: format!("no product with id {:?}", req.id),
                    })
            }),
            m => unknown_method("catalog", m),
        }
    }
}

struct CurrencyHandler {
    converter: CurrencyConverter,
}

impl RpcHandler for CurrencyHandler {
    fn handle(&self, header: &RequestHeader, args: &[u8]) -> ResponseBody {
        match header.method {
            0 => unary(args, |_req: GetSupportedRequest| {
                Ok(GetSupportedResponse {
                    codes: self.converter.supported(),
                })
            }),
            1 => unary(args, |req: ConvertRequest| {
                self.converter
                    .convert(&req.from, &req.to_code)
                    .map(|money| ConvertResponse { money })
                    .ok_or_else(|| WeaverError::App {
                        code: 3,
                        message: format!("cannot convert to {}", req.to_code),
                    })
            }),
            m => unknown_method("currency", m),
        }
    }
}

struct CartHandler {
    store: CartStore,
}

impl RpcHandler for CartHandler {
    fn handle(&self, header: &RequestHeader, args: &[u8]) -> ResponseBody {
        match header.method {
            0 => unary(args, |req: AddItemRequest| {
                if req.item.product_id.is_empty() {
                    return Err(WeaverError::App {
                        code: 3,
                        message: "cart item needs a product id".into(),
                    });
                }
                self.store.add_item(&req.user_id, req.item);
                Ok(Empty {})
            }),
            1 => unary(args, |req: GetCartRequest| {
                Ok(GetCartResponse {
                    items: self.store.get_cart(&req.user_id),
                })
            }),
            2 => unary(args, |req: GetCartRequest| {
                self.store.empty_cart(&req.user_id);
                Ok(Empty {})
            }),
            m => unknown_method("cart", m),
        }
    }
}

struct ShippingHandler {
    service: ShippingService,
}

impl RpcHandler for ShippingHandler {
    fn handle(&self, header: &RequestHeader, args: &[u8]) -> ResponseBody {
        match header.method {
            0 => unary(args, |req: GetQuoteRequest| {
                Ok(GetQuoteResponse {
                    cost: self.service.quote(&req.address, &req.items),
                })
            }),
            1 => unary(args, |req: ShipOrderRequest| {
                if req.items.is_empty() {
                    return Err(WeaverError::App {
                        code: 3,
                        message: "cannot ship an empty order".into(),
                    });
                }
                Ok(ShipOrderResponse {
                    tracking_id: self.service.ship(&req.address, &req.items),
                })
            }),
            m => unknown_method("shipping", m),
        }
    }
}

struct PaymentHandler {
    processor: PaymentProcessor,
}

impl RpcHandler for PaymentHandler {
    fn handle(&self, header: &RequestHeader, args: &[u8]) -> ResponseBody {
        match header.method {
            0 => unary(args, |req: ChargeRequest| {
                self.processor
                    .charge(&req.amount, &req.credit_card)
                    .map(|transaction_id| ChargeResponse { transaction_id })
                    .map_err(|e| WeaverError::App {
                        code: 402,
                        message: e.to_string(),
                    })
            }),
            m => unknown_method("payment", m),
        }
    }
}

struct EmailHandler {
    sender: EmailSender,
}

impl RpcHandler for EmailHandler {
    fn handle(&self, header: &RequestHeader, args: &[u8]) -> ResponseBody {
        match header.method {
            0 => unary(args, |req: SendConfirmationRequest| {
                if !req.email.contains('@') {
                    return Err(WeaverError::App {
                        code: 3,
                        message: format!("invalid email address {:?}", req.email),
                    });
                }
                Ok(SendConfirmationResponse {
                    body: self.sender.send_confirmation(&req.email, &req.order),
                })
            }),
            m => unknown_method("email", m),
        }
    }
}

struct AdsHandler {
    server: AdServer,
}

impl RpcHandler for AdsHandler {
    fn handle(&self, header: &RequestHeader, args: &[u8]) -> ResponseBody {
        match header.method {
            0 => unary(args, |req: GetAdsRequest| {
                Ok(GetAdsResponse {
                    ads: self.server.ads_for(&req.categories, 2),
                })
            }),
            m => unknown_method("ads", m),
        }
    }
}

// --------------------------------------------------------------------------
// Services with downstream dependencies.
// --------------------------------------------------------------------------

struct RecommendationHandler {
    catalog: CatalogClient,
}

impl RpcHandler for RecommendationHandler {
    fn handle(&self, header: &RequestHeader, args: &[u8]) -> ResponseBody {
        let ctx = ctx_from_header(header);
        match header.method {
            0 => unary(args, |req: ListRecommendationsRequest| {
                let catalog = self
                    .catalog
                    .list_products(&ctx, &ListProductsRequest {})?
                    .products;
                Ok(ListRecommendationsResponse {
                    products: recommend(&req.user_id, &req.product_ids, &catalog, 4)
                        .into_iter()
                        .cloned()
                        .collect(),
                })
            }),
            m => unknown_method("recommendation", m),
        }
    }
}

struct CheckoutHandler {
    cart: CartClient,
    catalog: CatalogClient,
    currency: CurrencyClient,
    shipping: ShippingClient,
    payment: PaymentClient,
    email: EmailClient,
    orders: AtomicU64,
}

impl CheckoutHandler {
    fn place_order(
        &self,
        ctx: &CallContext,
        req: PlaceOrderRpcRequest,
    ) -> Result<PlaceOrderResponse, WeaverError> {
        let request = req.request;
        let cart_items = cart_items(&self.cart, ctx, &request.user_id)?;
        if cart_items.is_empty() {
            return Err(WeaverError::App {
                code: 9,
                message: "cart is empty".into(),
            });
        }
        let mut items = Vec::with_capacity(cart_items.len());
        let mut items_total = Money::new(request.user_currency.clone(), 0, 0);
        for line in &cart_items {
            let product = self
                .catalog
                .get_product(
                    ctx,
                    &GetProductRequest {
                        id: line.product_id.clone(),
                    },
                )?
                .product;
            let unit = self
                .currency
                .convert(
                    ctx,
                    &ConvertRequest {
                        from: product.price,
                        to_code: request.user_currency.clone(),
                    },
                )?
                .money;
            let line_total = unit.times(line.quantity);
            items_total = items_total
                .checked_add(&line_total)
                .ok_or_else(|| WeaverError::internal("currency mismatch pricing cart"))?;
            items.push(OrderItem {
                item: line.clone(),
                cost: unit,
            });
        }
        let quote = self
            .shipping
            .get_quote(
                ctx,
                &GetQuoteRequest {
                    address: request.address.clone(),
                    items: cart_items.clone(),
                },
            )?
            .cost;
        let shipping_cost = self
            .currency
            .convert(
                ctx,
                &ConvertRequest {
                    from: quote,
                    to_code: request.user_currency.clone(),
                },
            )?
            .money;
        let total = items_total
            .checked_add(&shipping_cost)
            .ok_or_else(|| WeaverError::internal("currency mismatch totaling order"))?;
        let _txn = self.payment.charge(
            ctx,
            &ChargeRequest {
                amount: total.clone(),
                credit_card: request.credit_card.clone(),
            },
        )?;
        let tracking = self
            .shipping
            .ship_order(
                ctx,
                &ShipOrderRequest {
                    address: request.address.clone(),
                    items: cart_items.clone(),
                },
            )?
            .tracking_id;
        let _: Empty = self.cart.empty_cart(
            ctx,
            &GetCartRequest {
                user_id: request.user_id.clone(),
            },
        )?;
        let seq = self.orders.fetch_add(1, Ordering::Relaxed);
        let order = OrderResult {
            order_id: format!("order-{seq:010}"),
            shipping_tracking_id: tracking,
            shipping_cost,
            shipping_address: request.address,
            items,
            total,
        };
        let _ = self.email.send_confirmation(
            ctx,
            &SendConfirmationRequest {
                email: request.email,
                order: order.clone(),
            },
        );
        Ok(PlaceOrderResponse { order })
    }
}

impl RpcHandler for CheckoutHandler {
    fn handle(&self, header: &RequestHeader, args: &[u8]) -> ResponseBody {
        let ctx = ctx_from_header(header);
        match header.method {
            0 => unary(args, |req: PlaceOrderRpcRequest| {
                self.place_order(&ctx, req)
            }),
            m => unknown_method("checkout", m),
        }
    }
}

struct FrontendHandler {
    catalog: CatalogClient,
    currency: CurrencyClient,
    cart: CartClient,
    recommendations: RecommendationClient,
    shipping: ShippingClient,
    ads: AdsClient,
    checkout: CheckoutClient,
}

impl FrontendHandler {
    fn convert(
        &self,
        ctx: &CallContext,
        money: Money,
        currency: &str,
    ) -> Result<Money, WeaverError> {
        if money.currency_code == currency {
            return Ok(money);
        }
        Ok(self
            .currency
            .convert(
                ctx,
                &ConvertRequest {
                    from: money,
                    to_code: currency.to_string(),
                },
            )?
            .money)
    }

    fn home(&self, ctx: &CallContext, req: HomeRequest) -> Result<HomeResponse, WeaverError> {
        let mut products = self
            .catalog
            .list_products(ctx, &ListProductsRequest {})?
            .products;
        for product in &mut products {
            product.price = self.convert(ctx, std::mem::take(&mut product.price), &req.currency)?;
        }
        let cart = cart_items(&self.cart, ctx, &req.user_id)?;
        let ad = self
            .ads
            .get_ads(ctx, &GetAdsRequest { categories: vec![] })?
            .ads
            .into_iter()
            .next();
        Ok(HomeResponse {
            view: HomeView {
                products,
                ad,
                cart_size: cart.iter().map(|i| i.quantity).sum(),
                currency: req.currency,
            },
        })
    }

    fn browse(
        &self,
        ctx: &CallContext,
        req: BrowseProductRequest,
    ) -> Result<BrowseProductResponse, WeaverError> {
        let mut product = self
            .catalog
            .get_product(
                ctx,
                &GetProductRequest {
                    id: req.product_id.clone(),
                },
            )?
            .product;
        product.price = self.convert(ctx, std::mem::take(&mut product.price), &req.currency)?;
        let recommendations = self
            .recommendations
            .list(
                ctx,
                &ListRecommendationsRequest {
                    user_id: req.user_id,
                    product_ids: vec![req.product_id],
                },
            )?
            .products;
        let ad = self
            .ads
            .get_ads(
                ctx,
                &GetAdsRequest {
                    categories: product.categories.clone(),
                },
            )?
            .ads
            .into_iter()
            .next();
        Ok(BrowseProductResponse {
            view: ProductView {
                product,
                recommendations,
                ad,
            },
        })
    }

    fn view_cart(
        &self,
        ctx: &CallContext,
        req: ViewCartRequest,
    ) -> Result<ViewCartResponse, WeaverError> {
        let cart = cart_items(&self.cart, ctx, &req.user_id)?;
        let mut items = Vec::with_capacity(cart.len());
        let mut total = Money::new(req.currency.clone(), 0, 0);
        for line in &cart {
            let product = self
                .catalog
                .get_product(
                    ctx,
                    &GetProductRequest {
                        id: line.product_id.clone(),
                    },
                )?
                .product;
            let unit = self.convert(ctx, product.price, &req.currency)?;
            total = total
                .checked_add(&unit.times(line.quantity))
                .ok_or_else(|| WeaverError::internal("currency mismatch in cart view"))?;
            items.push(OrderItem {
                item: line.clone(),
                cost: unit,
            });
        }
        let shipping_cost = if cart.is_empty() {
            Money::new(req.currency.clone(), 0, 0)
        } else {
            let quote = self
                .shipping
                .get_quote(
                    ctx,
                    &GetQuoteRequest {
                        address: Default::default(),
                        items: cart.clone(),
                    },
                )?
                .cost;
            self.convert(ctx, quote, &req.currency)?
        };
        total = total
            .checked_add(&shipping_cost)
            .ok_or_else(|| WeaverError::internal("currency mismatch adding shipping"))?;
        let recommendations = self
            .recommendations
            .list(
                ctx,
                &ListRecommendationsRequest {
                    user_id: req.user_id,
                    product_ids: cart.into_iter().map(|i| i.product_id).collect(),
                },
            )?
            .products;
        Ok(ViewCartResponse {
            view: CartView {
                items,
                shipping_cost,
                total,
                recommendations,
            },
        })
    }
}

impl RpcHandler for FrontendHandler {
    fn handle(&self, header: &RequestHeader, args: &[u8]) -> ResponseBody {
        let ctx = ctx_from_header(header);
        match header.method {
            0 => unary(args, |req: HomeRequest| self.home(&ctx, req)),
            1 => unary(args, |req: BrowseProductRequest| self.browse(&ctx, req)),
            2 => unary(args, |req: AddToCartRequest| {
                // Validate the product exists, then add.
                let _ = self.catalog.get_product(
                    &ctx,
                    &GetProductRequest {
                        id: req.product_id.clone(),
                    },
                )?;
                let _: Empty = self.cart.add_item(
                    &ctx,
                    &AddItemRequest {
                        user_id: req.user_id,
                        item: boutique::types::CartItem {
                            product_id: req.product_id,
                            quantity: req.quantity,
                        },
                    },
                )?;
                Ok(Empty {})
            }),
            3 => unary(args, |req: ViewCartRequest| self.view_cart(&ctx, req)),
            4 => unary(args, |req: PlaceOrderRpcRequest| {
                if req.request.user_id.is_empty() {
                    return Err(WeaverError::App {
                        code: 3,
                        message: "missing user id".into(),
                    });
                }
                self.checkout.place_order(&ctx, &req)
            }),
            m => unknown_method("frontend", m),
        }
    }
}

// --------------------------------------------------------------------------
// Deployment wiring.
// --------------------------------------------------------------------------

/// Names the service a re-executed child serves (its [`ServiceId`] number).
pub const ENV_SERVICE: &str = "WEAVER_BASELINE_SERVICE";
/// The endpoints of the services started before the child, which include
/// every service it calls: comma-separated `<service id>=<endpoint>`.
const ENV_ROUTES: &str = "WEAVER_BASELINE_ROUTES";
/// Handler threads of each server of a spawned deployment.
pub const SERVICE_WORKERS: usize = 8;

impl ServiceId {
    /// Every service, each one after the services it calls: the order a
    /// deployment starts them in.
    const START_ORDER: [ServiceId; 10] = [
        ServiceId::Catalog,
        ServiceId::Currency,
        ServiceId::Cart,
        ServiceId::Shipping,
        ServiceId::Payment,
        ServiceId::Email,
        ServiceId::Ads,
        ServiceId::Recommendation,
        ServiceId::Checkout,
        ServiceId::Frontend,
    ];
}

/// Builds `service`'s handler; `stub` dials each service it calls.
fn handler(service: ServiceId, stub: impl Fn(ServiceId) -> Stub) -> Arc<dyn RpcHandler> {
    match service {
        ServiceId::Catalog => Arc::new(CatalogHandler {
            store: CatalogStore::seeded(),
        }),
        ServiceId::Currency => Arc::new(CurrencyHandler {
            converter: CurrencyConverter::seeded(),
        }),
        ServiceId::Cart => Arc::new(CartHandler {
            store: CartStore::new(),
        }),
        ServiceId::Shipping => Arc::new(ShippingHandler {
            service: ShippingService::new(),
        }),
        ServiceId::Payment => Arc::new(PaymentHandler {
            processor: PaymentProcessor::new(),
        }),
        ServiceId::Email => Arc::new(EmailHandler {
            sender: EmailSender::new(),
        }),
        ServiceId::Ads => Arc::new(AdsHandler {
            server: AdServer::seeded(),
        }),
        ServiceId::Recommendation => Arc::new(RecommendationHandler {
            catalog: CatalogClient::new(stub(ServiceId::Catalog)),
        }),
        ServiceId::Checkout => Arc::new(CheckoutHandler {
            cart: CartClient::new(stub(ServiceId::Cart)),
            catalog: CatalogClient::new(stub(ServiceId::Catalog)),
            currency: CurrencyClient::new(stub(ServiceId::Currency)),
            shipping: ShippingClient::new(stub(ServiceId::Shipping)),
            payment: PaymentClient::new(stub(ServiceId::Payment)),
            email: EmailClient::new(stub(ServiceId::Email)),
            orders: AtomicU64::new(0),
        }),
        ServiceId::Frontend => Arc::new(FrontendHandler {
            catalog: CatalogClient::new(stub(ServiceId::Catalog)),
            currency: CurrencyClient::new(stub(ServiceId::Currency)),
            cart: CartClient::new(stub(ServiceId::Cart)),
            recommendations: RecommendationClient::new(stub(ServiceId::Recommendation)),
            shipping: ShippingClient::new(stub(ServiceId::Shipping)),
            ads: AdsClient::new(stub(ServiceId::Ads)),
            checkout: CheckoutClient::new(stub(ServiceId::Checkout)),
        }),
    }
}

/// In a child started by [`BaselineDeployment::spawn`], serves one service
/// and exits; everywhere else returns at once. Call it first in `main`.
///
/// The child binds `127.0.0.1:0`, writes its endpoint as one line on
/// stdout, and serves until its stdin closes, so a parent that dies leaves
/// no orphan behind.
pub fn maybe_service() {
    let Some(service) = std::env::var_os(ENV_SERVICE) else {
        return;
    };
    let fail = |what: String| -> ! {
        eprintln!("baseline service: {what}");
        std::process::exit(2);
    };
    let service = service
        .to_str()
        .and_then(|id| id.parse::<u32>().ok())
        .and_then(|id| ServiceId::START_ORDER.into_iter().find(|s| *s as u32 == id))
        .unwrap_or_else(|| fail(format!("{ENV_SERVICE} names no service")));
    let mut routes = HashMap::new();
    for route in std::env::var(ENV_ROUTES)
        .unwrap_or_default()
        .split_terminator(',')
    {
        let parsed = route
            .split_once('=')
            .and_then(|(id, addr)| Some((id.parse::<u32>().ok()?, addr.parse::<Endpoint>().ok()?)));
        let (id, addr) = parsed.unwrap_or_else(|| fail(format!("bad route {route:?}")));
        routes.insert(id, addr);
    }

    let pool = Arc::new(Pool::new());
    let handler = handler(service, |dep| {
        let addr = routes.get(&(dep as u32)).copied();
        let addr = addr.unwrap_or_else(|| fail(format!("{service:?} has no route to {dep:?}")));
        Stub::new(Arc::clone(&pool), addr, dep)
    });
    let server = Server::<GrpcLikeFraming>::bind("127.0.0.1:0", SERVICE_WORKERS, handler)
        .unwrap_or_else(|e| fail(format!("{service:?} cannot bind: {e}")));
    let mut stdout = std::io::stdout();
    if writeln!(stdout, "{}", server.endpoint())
        .and_then(|()| stdout.flush())
        .is_err()
    {
        fail("cannot write the endpoint".into());
    }
    let _ = std::io::copy(&mut std::io::stdin(), &mut std::io::sink());
    std::process::exit(0);
}

/// A running baseline deployment: ten services on loopback TCP.
pub struct BaselineDeployment {
    /// Kept alive, one per service, the servers of an in-process
    /// deployment or the children of a spawned one; dropping shuts every
    /// service down.
    servers: Vec<Server<GrpcLikeFraming>>,
    children: Vec<Child>,
    addrs: HashMap<u32, Endpoint>,
    pool: Arc<Pool<GrpcLikeFraming>>,
}

impl BaselineDeployment {
    fn empty() -> BaselineDeployment {
        BaselineDeployment {
            servers: Vec::new(),
            children: Vec::new(),
            addrs: HashMap::new(),
            pool: Arc::new(Pool::new()),
        }
    }

    /// Starts all ten services in this process, each with `workers`
    /// handler threads.
    pub fn start(workers: usize) -> Result<BaselineDeployment, WeaverError> {
        let mut deployment = BaselineDeployment::empty();
        for service in ServiceId::START_ORDER {
            let handler = handler(service, |dep| deployment.stub(dep));
            let server = Server::<GrpcLikeFraming>::bind("127.0.0.1:0", workers, handler)
                .map_err(WeaverError::from)?;
            deployment.addrs.insert(service as u32, server.endpoint());
            deployment.servers.push(server);
        }
        Ok(deployment)
    }

    /// Starts each of the ten services in a child process of its own, with
    /// [`SERVICE_WORKERS`] handler threads: one container per microservice.
    /// The children re-execute the current binary, whose `main` must call
    /// [`maybe_service`] first.
    pub fn spawn() -> Result<BaselineDeployment, WeaverError> {
        let exe = std::env::current_exe().map_err(|e| WeaverError::internal(e.to_string()))?;
        let mut deployment = BaselineDeployment::empty();
        for service in ServiceId::START_ORDER {
            let routes: Vec<String> = deployment
                .addrs
                .iter()
                .map(|(id, addr)| format!("{id}={addr}"))
                .collect();
            let mut child = Command::new(&exe)
                .env(ENV_SERVICE, (service as u32).to_string())
                .env(ENV_ROUTES, routes.join(","))
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .spawn()
                .map_err(|e| WeaverError::internal(format!("spawn {service:?}: {e}")))?;
            let stdout = child.stdout.take().expect("stdout is piped");
            // Owned from here on, so an error below still stops it.
            deployment.children.push(child);
            let mut line = String::new();
            BufReader::new(stdout)
                .read_line(&mut line)
                .map_err(|e| WeaverError::internal(format!("{service:?} endpoint: {e}")))?;
            let addr = line.trim().parse::<Endpoint>().map_err(|_| {
                WeaverError::internal(format!("{service:?} exited before it bound"))
            })?;
            deployment.addrs.insert(service as u32, addr);
        }
        Ok(deployment)
    }

    fn stub(&self, service: ServiceId) -> Stub {
        Stub::new(Arc::clone(&self.pool), self.addr(service), service)
    }

    /// Address of a service.
    pub fn addr(&self, service: ServiceId) -> Endpoint {
        self.addrs[&(service as u32)]
    }

    /// A frontend client implementing the boutique `Frontend` trait.
    pub fn frontend(&self) -> Arc<BaselineFrontend> {
        Arc::new(BaselineFrontend::new(self.stub(ServiceId::Frontend)))
    }

    /// Number of running services.
    pub fn service_count(&self) -> usize {
        self.servers.len() + self.children.len()
    }
}

impl Drop for BaselineDeployment {
    fn drop(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use boutique::components::Frontend;
    use boutique::loadgen::{self, test_address};
    use boutique::logic::payment::test_card;
    use boutique::types::PlaceOrderRequest;

    #[test]
    fn full_checkout_over_grpc_like_stack() {
        let deployment = BaselineDeployment::start(2).unwrap();
        assert_eq!(deployment.service_count(), 10);
        let frontend = deployment.frontend();
        let ctx = CallContext::root(1);

        let home = frontend.home(&ctx, "alice".into(), "EUR".into()).unwrap();
        assert!(home.products.len() >= 12);
        assert_eq!(home.products[0].price.currency_code, "EUR");

        frontend
            .add_to_cart(&ctx, "alice".into(), "OLJCESPC7Z".into(), 2)
            .unwrap();
        let cart = frontend
            .view_cart(&ctx, "alice".into(), "USD".into())
            .unwrap();
        assert_eq!(cart.items.len(), 1);

        let order = frontend
            .place_order(
                &ctx,
                PlaceOrderRequest {
                    user_id: "alice".into(),
                    user_currency: "USD".into(),
                    address: test_address(),
                    email: "alice@example.com".into(),
                    credit_card: test_card(),
                },
            )
            .unwrap();
        assert!(order.order_id.starts_with("order-"));
        assert_eq!(order.items.len(), 1);

        let cart = frontend
            .view_cart(&ctx, "alice".into(), "USD".into())
            .unwrap();
        assert!(cart.items.is_empty());
    }

    #[test]
    fn errors_travel_as_grpc_status() {
        let deployment = BaselineDeployment::start(2).unwrap();
        let frontend = deployment.frontend();
        let ctx = CallContext::root(1);
        let err = frontend
            .browse_product(&ctx, "u".into(), "NO-SUCH".into(), "USD".into())
            .unwrap_err();
        match err {
            WeaverError::App { code, message } => {
                assert_eq!(code, 5);
                assert!(message.contains("NO-SUCH"));
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn loadgen_drives_baseline_stack() {
        let deployment = BaselineDeployment::start(4).unwrap();
        let frontend = deployment.frontend();
        let report = loadgen::run_load(
            frontend,
            &loadgen::LoadOptions {
                workers: 2,
                duration: std::time::Duration::from_millis(200),
                ..Default::default()
            },
        );
        assert!(report.requests > 5, "requests {}", report.requests);
        assert_eq!(report.error_rate(), 0.0, "errors {}", report.errors);
    }

    #[test]
    fn declined_card_is_a_clean_402() {
        let deployment = BaselineDeployment::start(2).unwrap();
        let frontend = deployment.frontend();
        let ctx = CallContext::root(1);
        frontend
            .add_to_cart(&ctx, "bob".into(), "6E92ZMYYFZ".into(), 1)
            .unwrap();
        let mut card = test_card();
        card.number = "1234".into();
        let err = frontend
            .place_order(
                &ctx,
                PlaceOrderRequest {
                    user_id: "bob".into(),
                    user_currency: "USD".into(),
                    address: test_address(),
                    email: "bob@example.com".into(),
                    credit_card: card,
                },
            )
            .unwrap_err();
        match err {
            WeaverError::App { code, .. } => assert_eq!(code, 402),
            other => panic!("unexpected error {other}"),
        }
    }
}
