//! Seeded chaos testing over any fault-injectable deployment.
//!
//! The action *sequence* is a pure function of [`ChaosOptions`]: the
//! [`ChaosSchedule`] generator draws from a seeded RNG and nothing else, so
//! the same options always produce the same actions, in order. The runner
//! merely applies that sequence on a background thread while the test body
//! issues requests. Logs serialize to a line-based text format (a
//! [`weaver_codec::linelog`] [`Record`]) and can be [`replay`]ed verbatim
//! against a fresh deployment — any chaos-found failure becomes a
//! deterministic regression test.

use std::str::SplitWhitespace;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use weaver_codec::linelog::{self, Record};
use weaver_runtime::{ComponentFault, FaultInjectable};

/// One chaos action, recorded for post-mortem analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaosAction {
    /// The component's instance was dropped; next call re-constructs it.
    Crash(String),
    /// The component was marked down.
    Down(String),
    /// The component got injected latency.
    Delay(String, Duration),
    /// The component's next call was failed.
    FailNext(String),
    /// All faults on the component were cleared.
    Heal(String),
}

/// Chaos loop tunables.
#[derive(Debug, Clone)]
pub struct ChaosOptions {
    /// RNG seed: the action *sequence* is reproducible per seed (exact
    /// interleaving with the workload still depends on scheduling).
    pub seed: u64,
    /// Components eligible for chaos.
    pub targets: Vec<String>,
    /// Delay between actions.
    pub interval: Duration,
    /// Fraction of actions that are heals (the system must also recover).
    pub heal_fraction: f64,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        ChaosOptions {
            seed: 0xC4A05,
            targets: Vec::new(),
            interval: Duration::from_millis(5),
            heal_fraction: 0.4,
        }
    }
}

/// The seed for CI chaos runs: `WEAVER_CHAOS_SEED` when set (the chaos job
/// runs the suite under several fixed seeds), else `default`.
pub fn seed_from_env(default: u64) -> u64 {
    std::env::var("WEAVER_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// The deterministic action generator behind [`ChaosRunner`].
///
/// Separated from the runner so tests (and the replay machinery) can
/// enumerate the exact sequence a seed produces without a deployment or a
/// background thread.
pub struct ChaosSchedule {
    rng: StdRng,
    targets: Vec<String>,
    heal_fraction: f64,
}

impl ChaosSchedule {
    /// Builds the generator for `options`.
    ///
    /// # Panics
    ///
    /// Panics if `options.targets` is empty — chaos with no targets is a
    /// test-authoring bug.
    pub fn new(options: &ChaosOptions) -> Self {
        assert!(!options.targets.is_empty(), "chaos needs target components");
        ChaosSchedule {
            rng: StdRng::seed_from_u64(options.seed),
            targets: options.targets.clone(),
            heal_fraction: options.heal_fraction,
        }
    }

    /// Draws the next action.
    pub fn next_action(&mut self) -> ChaosAction {
        let target = self.targets[self.rng.gen_range(0..self.targets.len())].clone();
        if self.rng.gen_bool(self.heal_fraction) {
            return ChaosAction::Heal(target);
        }
        match self.rng.gen_range(0..4u8) {
            0 => ChaosAction::Crash(target),
            1 => ChaosAction::Down(target),
            2 => ChaosAction::Delay(target, Duration::from_micros(self.rng.gen_range(50..500))),
            _ => ChaosAction::FailNext(target),
        }
    }

    /// The first `n` actions `options` would produce.
    pub fn generate(options: &ChaosOptions, n: usize) -> Vec<ChaosAction> {
        let mut schedule = Self::new(options);
        (0..n).map(|_| schedule.next_action()).collect()
    }
}

/// Applies one action to a deployment.
pub fn apply(deployment: &dyn FaultInjectable, action: &ChaosAction) {
    match action {
        ChaosAction::Crash(target) => {
            let _ = deployment.crash_component(target);
        }
        ChaosAction::Down(target) => deployment.inject_fault(
            target,
            ComponentFault {
                down: true,
                ..Default::default()
            },
        ),
        ChaosAction::Delay(target, delay) => deployment.inject_fault(
            target,
            ComponentFault {
                delay: *delay,
                ..Default::default()
            },
        ),
        ChaosAction::FailNext(target) => deployment.inject_fault(
            target,
            ComponentFault {
                fail_next: 1,
                ..Default::default()
            },
        ),
        ChaosAction::Heal(target) => deployment.inject_fault(target, ComponentFault::default()),
    }
}

/// Replays a recorded action log verbatim against `deployment`, pacing by
/// `interval`, and returns the applied actions (necessarily equal to the
/// input — the return value exists so regression tests can assert the
/// byte-for-byte round trip explicitly).
pub fn replay(
    deployment: &dyn FaultInjectable,
    actions: &[ChaosAction],
    interval: Duration,
) -> Vec<ChaosAction> {
    let mut applied = Vec::with_capacity(actions.len());
    for action in actions {
        apply(deployment, action);
        applied.push(action.clone());
        if !interval.is_zero() {
            std::thread::sleep(interval);
        }
    }
    applied
}

/// The line-log form ([`weaver_codec::linelog`]):
///
/// ```text
/// crash boutique.CartService
/// delay boutique.Frontend 250
/// down boutique.CheckoutService
/// fail-next boutique.CartService
/// heal boutique.Frontend
/// ```
///
/// Delays are in integer microseconds.
impl Record for ChaosAction {
    fn to_line(&self) -> String {
        match self {
            ChaosAction::Crash(t) => format!("crash {t}"),
            ChaosAction::Down(t) => format!("down {t}"),
            ChaosAction::Delay(t, d) => format!("delay {t} {}", d.as_micros()),
            ChaosAction::FailNext(t) => format!("fail-next {t}"),
            ChaosAction::Heal(t) => format!("heal {t}"),
        }
    }

    fn from_line(verb: &str, fields: &mut SplitWhitespace<'_>) -> Result<Self, String> {
        let target = linelog::field(fields, "target")?;
        match verb {
            "crash" => Ok(ChaosAction::Crash(target)),
            "down" => Ok(ChaosAction::Down(target)),
            "fail-next" => Ok(ChaosAction::FailNext(target)),
            "heal" => Ok(ChaosAction::Heal(target)),
            "delay" => Ok(ChaosAction::Delay(
                target,
                Duration::from_micros(linelog::field(fields, "micros")?),
            )),
            other => Err(format!("unknown verb {other:?}")),
        }
    }
}

/// Drives chaos actions against a deployment on a background thread.
///
/// Dropping the runner (including via a panicking test body) stops the loop
/// **and heals every target**, so a failed chaos test cannot leak injected
/// faults into later tests sharing the deployment. `stop()` additionally
/// returns the action log.
pub struct ChaosRunner {
    stop: Arc<AtomicBool>,
    log: Arc<Mutex<Vec<ChaosAction>>>,
    thread: Option<std::thread::JoinHandle<()>>,
    deployment: Arc<dyn FaultInjectable>,
    targets: Vec<String>,
}

impl ChaosRunner {
    /// Starts injecting faults into `deployment` per `options`.
    ///
    /// # Panics
    ///
    /// Panics if `options.targets` is empty — chaos with no targets is a
    /// test-authoring bug.
    pub fn start(deployment: Arc<dyn FaultInjectable>, options: ChaosOptions) -> ChaosRunner {
        let mut schedule = ChaosSchedule::new(&options);
        let stop = Arc::new(AtomicBool::new(false));
        let log = Arc::new(Mutex::new(Vec::new()));
        let thread = {
            let stop = Arc::clone(&stop);
            let log = Arc::clone(&log);
            let deployment = Arc::clone(&deployment);
            let interval = options.interval;
            std::thread::Builder::new()
                .name("weaver-chaos".into())
                .spawn(move || {
                    while !stop.load(Ordering::SeqCst) {
                        let action = schedule.next_action();
                        apply(&*deployment, &action);
                        log.lock().push(action);
                        std::thread::sleep(interval);
                    }
                })
                .expect("failed to spawn chaos thread")
        };
        ChaosRunner {
            stop,
            log,
            thread: Some(thread),
            deployment,
            targets: options.targets,
        }
    }

    /// Stops the chaos loop, heals every target, and returns the action log.
    pub fn stop(mut self) -> Vec<ChaosAction> {
        self.halt_and_heal();
        std::mem::take(&mut *self.log.lock())
    }

    /// Actions taken so far (the loop keeps running).
    pub fn actions_so_far(&self) -> usize {
        self.log.lock().len()
    }

    fn halt_and_heal(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        for target in &self.targets {
            self.deployment
                .inject_fault(target, ComponentFault::default());
        }
    }
}

impl Drop for ChaosRunner {
    fn drop(&mut self) {
        // Heal on drop too: a panicking test body must not leak `down`
        // faults into subsequent tests sharing the deployment.
        self.halt_and_heal();
    }
}

/// Retries `op` until it succeeds or `deadline` passes — the standard
/// "system recovers after chaos" assertion. Polls with exponential backoff
/// from 2 ms up to a 50 ms cap; the failure message carries the attempt
/// count and the last error.
pub fn eventually<T, E: std::fmt::Display>(
    deadline: Duration,
    mut op: impl FnMut() -> Result<T, E>,
) -> Result<T, String> {
    let end = std::time::Instant::now() + deadline;
    let mut backoff = Duration::from_millis(2);
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if std::time::Instant::now() >= end => {
                return Err(format!(
                    "did not recover within {deadline:?} ({attempts} attempts; last error: {e})"
                ));
            }
            Err(_) => {
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(Duration::from_millis(50));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn options(seed: u64) -> ChaosOptions {
        ChaosOptions {
            seed,
            targets: vec!["a.X".into(), "b.Y".into(), "c.Z".into()],
            ..Default::default()
        }
    }

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let a = ChaosSchedule::generate(&options(7), 200);
        let b = ChaosSchedule::generate(&options(7), 200);
        assert_eq!(a, b);
        assert_ne!(a, ChaosSchedule::generate(&options(8), 200));
    }

    #[test]
    fn log_round_trips_through_text() {
        let actions = ChaosSchedule::generate(&options(0xC4A05), 100);
        let text = linelog::serialize(&actions);
        let parsed: Vec<ChaosAction> = linelog::parse(&text).unwrap();
        assert_eq!(parsed, actions);
        // Round trip is byte-for-byte stable.
        assert_eq!(linelog::serialize(&parsed), text);
    }

    #[test]
    fn parse_skips_comments_and_rejects_junk() {
        let parse = linelog::parse::<ChaosAction>;
        let parsed = parse("# fixture\n\ncrash a.X\ndelay b.Y 250\n").unwrap();
        assert_eq!(
            parsed,
            vec![
                ChaosAction::Crash("a.X".into()),
                ChaosAction::Delay("b.Y".into(), Duration::from_micros(250)),
            ]
        );
        assert!(parse("explode a.X\n").is_err());
        assert!(parse("crash\n").is_err());
        assert!(parse("delay a.X\n").is_err());
        assert!(parse("crash a.X trailing\n").is_err());
    }

    #[test]
    fn eventually_reports_attempts_and_last_error() {
        let mut calls = 0;
        let err = eventually(Duration::from_millis(30), || -> Result<(), String> {
            calls += 1;
            Err(format!("attempt {calls} failed"))
        })
        .unwrap_err();
        assert!(err.contains("attempts"), "{err}");
        assert!(err.contains("failed"), "{err}");
        assert!(calls >= 2, "should have retried, got {calls} calls");
    }

    #[test]
    fn eventually_succeeds_mid_backoff() {
        let mut calls = 0;
        let v = eventually(Duration::from_secs(5), || {
            calls += 1;
            if calls < 4 {
                Err("not yet")
            } else {
                Ok(42)
            }
        })
        .unwrap();
        assert_eq!(v, 42);
        assert_eq!(calls, 4);
    }
}
