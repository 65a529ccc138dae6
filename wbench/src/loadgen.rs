//! The benchmark's own load generator.
//!
//! `boutique::loadgen::run_load` does three shared atomic read-modify-writes
//! and one shared bucketed `Histogram::record` per request (visible in a
//! 7 µs colocated request, and its buckets step 2–4 %), draws its inputs
//! while the clock runs, and checks no reply. This one
//!
//! * pre-generates each client's operation sequence from the seed, so the
//!   program under test sees identical inputs on every commit;
//! * keeps a cart model per user (each user belongs to one client, so a
//!   user's requests are serial) and checks every reply against it;
//! * records exact latencies in a pre-sized per-thread `Vec<u32>`;
//! * keeps its client threads alive and parked between phases, so the OS
//!   ledger can be read while every thread still exists.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use boutique::components::Frontend;
use boutique::loadgen::{test_address, Zipf};
use boutique::logic::payment::test_card;
use boutique::types::{OrderItem, PlaceOrderRequest};
use weaver_core::context::CallContext;

/// Deployment version every workload deploys at.
pub const VERSION: u64 = 1;
/// Per-request deadline.
const DEADLINE: Duration = Duration::from_secs(10);
/// Operations generated per client; a run that outlasts them wraps around.
const SEQUENCE_LEN: usize = 1 << 18;
/// A timed phase is cut into windows of this length and reports the median
/// window: on a shared two-CPU host, seconds in which something else held a
/// CPU then cost a window each instead of shifting the whole run's result.
pub const WINDOW: Duration = Duration::from_secs(1);

pub const PRODUCTS: [&str; 9] = [
    "OLJCESPC7Z",
    "66VCHSJNUP",
    "1YMWWN1N4O",
    "L9ECAV7KIM",
    "2ZYFJ3GM2N",
    "0PUK6V6EV0",
    "LS4PSXUNUM",
    "9SIQT8TOJO",
    "6E92ZMYYFZ",
];
pub const CURRENCIES: [&str; 5] = ["USD", "EUR", "JPY", "GBP", "CAD"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Home,
    Browse,
    AddToCart,
    ViewCart,
    Checkout,
}

impl OpKind {
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Home => "home",
            OpKind::Browse => "browse_product",
            OpKind::AddToCart => "add_to_cart",
            OpKind::ViewCart => "view_cart",
            OpKind::Checkout => "place_order",
        }
    }
}

/// One pre-generated request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub kind: OpKind,
    pub user: u16,
    pub product: u8,
    pub currency: u8,
    pub quantity: u8,
}

/// Relative weights of the five operations.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub home: u32,
    pub browse: u32,
    pub add_to_cart: u32,
    pub view_cart: u32,
    pub checkout: u32,
}

/// What a workload's clients send.
#[derive(Debug, Clone, Copy)]
pub struct Traffic {
    pub mix: Mix,
    /// Users per client.
    pub users: u16,
    /// Zipf exponent of user popularity; `None` draws users uniformly.
    pub zipf: Option<f64>,
}

/// The operation sequence of one client: a pure function of its arguments.
pub fn generate(seed: u64, client: usize, traffic: &Traffic) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(
        seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(client as u64 + 1),
    );
    let zipf = traffic.zipf.map(|s| Zipf::new(u64::from(traffic.users), s));
    let mix = &traffic.mix;
    let total = mix.home + mix.browse + mix.add_to_cart + mix.view_cart + mix.checkout;
    (0..SEQUENCE_LEN)
        .map(|_| {
            let user = match &zipf {
                Some(z) => (z.sample(&mut rng) - 1) as u16,
                None => rng.gen_range(0..traffic.users),
            };
            let pick = rng.gen_range(0..total);
            let kind = if pick < mix.home {
                OpKind::Home
            } else if pick < mix.home + mix.browse {
                OpKind::Browse
            } else if pick < mix.home + mix.browse + mix.add_to_cart {
                OpKind::AddToCart
            } else if pick < total - mix.checkout {
                OpKind::ViewCart
            } else {
                OpKind::Checkout
            };
            Op {
                kind,
                user,
                product: rng.gen_range(0..PRODUCTS.len() as u8),
                currency: rng.gen_range(0..CURRENCIES.len() as u8),
                quantity: rng.gen_range(1..4u8),
            }
        })
        .collect()
}

/// A checkout of `user`'s cart, paid in `currency` with the test card.
pub fn order_request(user: String, currency: &str) -> PlaceOrderRequest {
    PlaceOrderRequest {
        user_id: user,
        user_currency: currency.to_string(),
        address: test_address(),
        email: "someone@example.com".into(),
        credit_card: test_card(),
    }
}

/// The context of an untraced request sent at `now`.
pub fn untraced(now: Instant) -> CallContext {
    CallContext {
        deadline: Some(now + DEADLINE),
        trace_id: 0,
        span_id: 0,
        version: VERSION,
        caller: "",
    }
}

/// A benchmark-side root span: one request as its client saw it.
#[derive(Debug, Clone, Copy)]
pub struct RootSpan {
    pub op: OpKind,
    pub client: u8,
    /// The id child spans inside the deployment carry (0 when untraced).
    pub trace_id: u64,
    /// Nanoseconds since the phase began.
    pub start_ns: u64,
    pub end_ns: u64,
}

/// What the main thread asks its parked clients to do next.
#[derive(Clone)]
enum Command {
    /// A new deployment: forget the cart model and start the sequence over.
    Reset,
    /// `count` unrecorded requests.
    Warm {
        frontend: Arc<dyn Frontend>,
        count: u64,
    },
    /// Closed loop for `windows` windows from `start`.
    Timed {
        frontend: Arc<dyn Frontend>,
        start: Instant,
        windows: u32,
        /// Latency slots to reserve.
        expect: usize,
        /// Root contexts carry a trace id and root spans are kept.
        traced: bool,
    },
    /// Open loop: request `i` is due at `start + i * interval` and timed
    /// from that instant whenever it was actually sent.
    Paced {
        frontend: Arc<dyn Frontend>,
        start: Instant,
        seconds: f64,
        interval: Duration,
    },
}

/// What one client did in one phase.
#[derive(Debug, Default)]
pub struct PhaseResult {
    pub attempted: u64,
    /// Errors, refusals and replies that contradict the cart model.
    pub failed: u64,
    pub first_failure: Option<String>,
    /// Successful `place_order` calls.
    pub checkouts: u64,
    /// Of the successful requests, in completion order.
    pub latencies_ns: Vec<u32>,
    /// Timed phases only: `marks[k]` latencies were recorded when window
    /// `k` ended. A request belongs to the window it completed in.
    pub marks: Vec<usize>,
    /// Paced phases only: how long after its due time each request left.
    pub late_ns: Vec<u32>,
    /// Traced phases only.
    pub spans: Vec<RootSpan>,
    /// Traced phases only: the order id of every successful checkout.
    pub order_ids: Vec<String>,
    /// When the last request completed, from the phase's `start`.
    pub elapsed: Duration,
}

/// The merged outcome of a phase across clients.
#[derive(Debug, Default)]
pub struct PhaseSummary {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    pub checkouts: u64,
    /// Timed phases: the sorted latencies of each complete window, all
    /// clients together.
    pub windows: Vec<Vec<u32>>,
    /// Paced phases: every latency, sorted.
    pub latencies_ns: Vec<u32>,
    /// Sorted.
    pub late_ns: Vec<u32>,
    pub spans: Vec<RootSpan>,
    pub order_ids: Vec<String>,
    /// Until the slowest client finished.
    pub elapsed: Duration,
}

impl PhaseSummary {
    fn merge(results: Vec<PhaseResult>) -> PhaseSummary {
        let mut summary = PhaseSummary::default();
        for r in results {
            summary.attempted += r.attempted;
            summary.failed += r.failed;
            summary.first_failure = summary.first_failure.or(r.first_failure);
            summary.checkouts += r.checkouts;
            if r.marks.is_empty() {
                summary.latencies_ns.extend(r.latencies_ns);
            } else {
                summary.windows.resize(r.marks.len(), Vec::new());
                let mut from = 0;
                for (window, &to) in summary.windows.iter_mut().zip(&r.marks) {
                    window.extend(&r.latencies_ns[from..to]);
                    from = to;
                }
            }
            summary.late_ns.extend(r.late_ns);
            summary.spans.extend(r.spans);
            summary.order_ids.extend(r.order_ids);
            summary.elapsed = summary.elapsed.max(r.elapsed);
        }
        summary.windows.iter_mut().for_each(|w| w.sort_unstable());
        summary.latencies_ns.sort_unstable();
        summary.late_ns.sort_unstable();
        summary
    }

    pub fn completed(&self) -> u64 {
        self.attempted - self.failed
    }
}

/// One closed-loop virtual client: its sequence, its users, their carts.
struct Client {
    index: u8,
    ops: Vec<Op>,
    next: usize,
    users: Vec<String>,
    /// The model: per user, `(product, quantity)` lines in insertion order,
    /// quantities of one product merged, emptied by checkout.
    carts: Vec<Vec<(u8, u32)>>,
}

impl Client {
    fn new(index: usize, ops: Vec<Op>, users: u16) -> Client {
        Client {
            index: index as u8,
            ops,
            next: 0,
            users: (0..users).map(|u| format!("user-{index}-{u}")).collect(),
            carts: vec![Vec::new(); usize::from(users)],
        }
    }

    fn reset(&mut self) {
        self.next = 0;
        self.carts.iter_mut().for_each(Vec::clear);
    }

    /// Sends the next request and checks its reply. Returns the operation
    /// actually sent (a checkout of an empty cart is sent as an add, so no
    /// generated request fails by construction) and what was wrong, if
    /// anything.
    fn request(
        &mut self,
        frontend: &dyn Frontend,
        ctx: &CallContext,
    ) -> (OpKind, Result<Option<String>, String>) {
        let op = self.ops[self.next];
        self.next = (self.next + 1) % self.ops.len();
        let user = self.users[usize::from(op.user)].clone();
        let cart = &mut self.carts[usize::from(op.user)];
        let product = PRODUCTS[usize::from(op.product)];
        let currency = CURRENCIES[usize::from(op.currency)];
        let kind = match op.kind {
            OpKind::Checkout if cart.is_empty() => OpKind::AddToCart,
            kind => kind,
        };
        let lines_match = |items: &[OrderItem], cart: &[(u8, u32)]| {
            items.len() == cart.len()
                && items.iter().zip(cart).all(|(item, &(p, q))| {
                    item.item.product_id == PRODUCTS[usize::from(p)] && item.item.quantity == q
                })
        };
        let outcome = match kind {
            OpKind::Home => frontend
                .home(ctx, user, currency.to_string())
                .map_err(|e| e.to_string())
                .and_then(|view| {
                    let in_cart: u32 = cart.iter().map(|&(_, q)| q).sum();
                    let priced = view
                        .products
                        .iter()
                        .all(|p| p.price.currency_code == currency);
                    if view.products.len() >= 12 && priced && view.cart_size == in_cart {
                        Ok(None)
                    } else {
                        Err(format!(
                            "home: {} products, priced in {currency}: {priced}, cart {} (model {in_cart})",
                            view.products.len(),
                            view.cart_size
                        ))
                    }
                }),
            OpKind::Browse => frontend
                .browse_product(ctx, user, product.to_string(), currency.to_string())
                .map_err(|e| e.to_string())
                .and_then(|view| {
                    if view.product.id == product
                        && view.product.price.currency_code == currency
                        && view.recommendations.iter().all(|r| r.id != product)
                    {
                        Ok(None)
                    } else {
                        Err(format!("browse_product {product}: got {}", view.product.id))
                    }
                }),
            OpKind::AddToCart => {
                let quantity = u32::from(op.quantity);
                frontend
                    .add_to_cart(ctx, user, product.to_string(), quantity)
                    .map_err(|e| e.to_string())
                    .map(|()| {
                        match cart.iter_mut().find(|(p, _)| *p == op.product) {
                            Some((_, q)) => *q += quantity,
                            None => cart.push((op.product, quantity)),
                        }
                        None
                    })
            }
            OpKind::ViewCart => frontend
                .view_cart(ctx, user, currency.to_string())
                .map_err(|e| e.to_string())
                .and_then(|view| {
                    if lines_match(&view.items, cart) && view.total.currency_code == currency {
                        Ok(None)
                    } else {
                        Err(format!(
                            "view_cart: {} lines, model has {}",
                            view.items.len(),
                            cart.len()
                        ))
                    }
                }),
            OpKind::Checkout => frontend
                .place_order(
                    ctx,
                    order_request(user, currency),
                )
                .map_err(|e| e.to_string())
                .and_then(|order| {
                    // Whatever the reply says, the saga emptied the cart or
                    // failed; a later view_cart of this user checks which.
                    let matches = lines_match(&order.items, cart) && !order.order_id.is_empty();
                    cart.clear();
                    if matches {
                        Ok(Some(order.order_id))
                    } else {
                        Err(format!("place_order: {} items", order.items.len()))
                    }
                }),
        };
        (kind, outcome)
    }

    fn run(&mut self, command: Command) -> PhaseResult {
        let mut result = PhaseResult::default();
        let tally = |result: &mut PhaseResult, outcome: Result<Option<String>, String>| {
            result.attempted += 1;
            match outcome {
                Ok(order_id) => result.checkouts += u64::from(order_id.is_some()),
                Err(why) => {
                    result.failed += 1;
                    result.first_failure.get_or_insert(why);
                }
            }
        };
        let nanos = |d: Duration| d.as_nanos().min(u128::from(u32::MAX)) as u32;
        match command {
            Command::Reset => self.reset(),
            Command::Warm { frontend, count } => {
                for _ in 0..count {
                    let (_, outcome) = self.request(&*frontend, &untraced(Instant::now()));
                    tally(&mut result, outcome);
                }
            }
            Command::Timed {
                frontend,
                start,
                windows,
                expect,
                traced,
            } => {
                result.latencies_ns.reserve_exact(expect);
                if traced {
                    result.spans.reserve_exact(expect);
                }
                let end = start + WINDOW * windows;
                let mut window_end = start + WINDOW;
                wait_until(start);
                let mut now = Instant::now();
                while now < end {
                    let ctx = if traced {
                        CallContext::root(VERSION).with_timeout(DEADLINE)
                    } else {
                        untraced(now)
                    };
                    let (kind, outcome) = self.request(&*frontend, &ctx);
                    let done = Instant::now();
                    while done >= window_end {
                        result.marks.push(result.latencies_ns.len());
                        window_end += WINDOW;
                    }
                    if outcome.is_ok() {
                        result.latencies_ns.push(nanos(done - now));
                    }
                    if traced {
                        if let Ok(Some(order_id)) = &outcome {
                            result.order_ids.push(order_id.clone());
                        }
                        result.spans.push(RootSpan {
                            op: kind,
                            client: self.index,
                            trace_id: ctx.trace_id,
                            start_ns: (now - start).as_nanos() as u64,
                            end_ns: (done - start).as_nanos() as u64,
                        });
                    }
                    tally(&mut result, outcome);
                    now = done;
                }
                // A client whose last request ended exactly at the phase's
                // end has not seen the last boundary yet.
                result
                    .marks
                    .resize(windows as usize, result.latencies_ns.len());
                result.elapsed = now - start;
            }
            Command::Paced {
                frontend,
                start,
                seconds,
                interval,
            } => {
                let count = (seconds / interval.as_secs_f64()) as u32;
                result.latencies_ns.reserve_exact(count as usize);
                result.late_ns.reserve_exact(count as usize);
                for i in 0..count {
                    let due = start + interval * i;
                    wait_until(due);
                    let sent = Instant::now();
                    let (_, outcome) = self.request(&*frontend, &untraced(sent));
                    let done = Instant::now();
                    if outcome.is_ok() {
                        result.latencies_ns.push(nanos(done - due));
                        result.late_ns.push(nanos(sent - due));
                    }
                    tally(&mut result, outcome);
                    result.elapsed = done - start;
                }
            }
        }
        result
    }
}

/// Sleeps to within 100 µs of `instant`, then spins: a sleeping thread wakes
/// up to a timer slack late, which an open-loop schedule would count as the
/// system's delay.
fn wait_until(instant: Instant) {
    loop {
        let left = instant.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return;
        }
        if left > Duration::from_micros(100) {
            std::thread::sleep(left - Duration::from_micros(100));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// The client threads (`wbench-client-N`), parked until told what to do.
pub struct Clients {
    links: Vec<(Sender<Command>, Receiver<PhaseResult>)>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Clients {
    /// Generates every client's sequence from `seed` and starts the threads.
    pub fn start(count: usize, seed: u64, traffic: &Traffic) -> Clients {
        let mut links = Vec::new();
        let mut threads = Vec::new();
        for index in 0..count {
            let mut client = Client::new(index, generate(seed, index, traffic), traffic.users);
            let (command_tx, command_rx) = channel::<Command>();
            let (result_tx, result_rx) = channel();
            let thread = std::thread::Builder::new()
                .name(format!("wbench-client-{index}"))
                .spawn(move || {
                    for command in command_rx {
                        if result_tx.send(client.run(command)).is_err() {
                            break;
                        }
                    }
                })
                .expect("spawn client thread");
            links.push((command_tx, result_rx));
            threads.push(thread);
        }
        Clients { links, threads }
    }

    /// Runs one command on every client and waits for all of them. On
    /// return the client threads are parked again.
    fn all(&self, command: Command) -> PhaseSummary {
        for (tx, _) in &self.links {
            tx.send(command.clone()).expect("client thread alive");
        }
        self.collect()
    }

    fn collect(&self) -> PhaseSummary {
        PhaseSummary::merge(
            self.links
                .iter()
                .map(|(_, rx)| rx.recv().expect("client thread alive"))
                .collect(),
        )
    }

    pub fn reset(&self) {
        self.all(Command::Reset);
    }

    /// `count` unrecorded requests per client.
    pub fn warm(&self, frontend: &Arc<dyn Frontend>, count: u64) -> PhaseSummary {
        self.all(Command::Warm {
            frontend: Arc::clone(frontend),
            count,
        })
    }

    /// A closed-loop phase of `windows` windows. `expect_qps` sizes the
    /// latency vectors so that recording does not reallocate. `at_boundary`
    /// runs on the calling thread at the start of the phase and at the end
    /// of every window, `windows + 1` times in all: there the caller reads
    /// the counters it wants per window.
    pub fn timed(
        &self,
        frontend: &Arc<dyn Frontend>,
        windows: u32,
        expect_qps: f64,
        traced: bool,
        mut at_boundary: impl FnMut(),
    ) -> PhaseSummary {
        let start = Instant::now() + Duration::from_millis(2);
        let seconds = (WINDOW * windows).as_secs_f64();
        let command = Command::Timed {
            frontend: Arc::clone(frontend),
            start,
            windows,
            expect: (expect_qps * seconds * 1.5 / self.links.len() as f64) as usize + 1024,
            traced,
        };
        for (tx, _) in &self.links {
            tx.send(command.clone()).expect("client thread alive");
        }
        for k in 0..=windows {
            std::thread::sleep((start + WINDOW * k).saturating_duration_since(Instant::now()));
            at_boundary();
        }
        self.collect()
    }

    /// An open-loop phase at `rate` requests per second over all clients.
    pub fn paced(&self, frontend: &Arc<dyn Frontend>, seconds: f64, rate: f64) -> PhaseSummary {
        self.all(Command::Paced {
            frontend: Arc::clone(frontend),
            start: Instant::now() + Duration::from_millis(2),
            seconds,
            interval: Duration::from_secs_f64(self.links.len() as f64 / rate),
        })
    }

    /// Ends the client threads and waits for them.
    pub fn stop(self) {
        drop(self.links);
        for thread in self.threads {
            thread.join().expect("client thread panicked");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRAFFIC: Traffic = Traffic {
        mix: Mix {
            home: 30,
            browse: 35,
            add_to_cart: 15,
            view_cart: 10,
            checkout: 10,
        },
        users: 256,
        zipf: None,
    };

    #[test]
    fn sequences_depend_on_seed_and_client_only() {
        assert_eq!(generate(1, 0, &TRAFFIC), generate(1, 0, &TRAFFIC));
        assert_ne!(generate(1, 0, &TRAFFIC), generate(2, 0, &TRAFFIC));
        assert_ne!(generate(1, 0, &TRAFFIC), generate(1, 1, &TRAFFIC));
    }

    #[test]
    fn mix_weights_are_respected() {
        let ops = generate(7, 0, &TRAFFIC);
        let share = |kind| ops.iter().filter(|o| o.kind == kind).count() as f64 / ops.len() as f64;
        assert!((share(OpKind::Home) - 0.30).abs() < 0.01);
        assert!((share(OpKind::Checkout) - 0.10).abs() < 0.01);
        assert!(ops
            .iter()
            .all(|o| o.user < 256 && (1..4).contains(&o.quantity)));
    }

    #[test]
    fn zipf_users_are_skewed() {
        let skewed = Traffic {
            zipf: Some(1.1),
            ..TRAFFIC
        };
        let ops = generate(3, 0, &skewed);
        let hottest = ops.iter().filter(|o| o.user == 0).count() as f64 / ops.len() as f64;
        assert!(hottest > 0.1, "hottest user draws {hottest}");
    }

    #[test]
    fn model_accepts_a_correct_deployment_and_catches_a_lost_cart() {
        use weaver_runtime::{SingleMode, SingleProcess};
        let app = SingleProcess::deploy(boutique::registry(), SingleMode::Marshaled, VERSION);
        let frontend: Arc<dyn Frontend> = app.get::<dyn Frontend>().expect("frontend");
        let clients = Clients::start(2, 5, &TRAFFIC);
        let warm = clients.warm(&frontend, 2_000);
        assert_eq!(
            (warm.attempted, warm.failed),
            (4_000, 0),
            "{:?}",
            warm.first_failure
        );
        assert!(warm.checkouts > 0);

        // The carts vanish behind the model's back: replies must now fail.
        app.crash_component("boutique.CartService").expect("crash");
        let after = clients.warm(&frontend, 2_000);
        assert!(after.failed > 0, "a lost cart went unnoticed");
        clients.stop();
    }
}
