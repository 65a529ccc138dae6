//! Chaos determinism: the action sequence is a pure function of the seed,
//! logs round-trip through the text format, replay reproduces a recorded
//! log byte-for-byte, and dropping a runner heals its targets.

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use weaver_codec::linelog;
use weaver_core::error::WeaverError;
use weaver_runtime::{ComponentFault, FaultInjectable};
use weaver_testing::{replay, ChaosAction, ChaosOptions, ChaosRunner, ChaosSchedule};

/// A deployment double recording every fault application, so tests can
/// assert exactly what chaos did without a real component graph.
#[derive(Default)]
struct RecordingDeployment {
    events: Mutex<Vec<String>>,
}

impl RecordingDeployment {
    fn events(&self) -> Vec<String> {
        self.events.lock().clone()
    }
}

impl FaultInjectable for RecordingDeployment {
    fn inject_fault(&self, component: &str, fault: ComponentFault) {
        let event = if fault.down {
            format!("down {component}")
        } else if fault.fail_next > 0 {
            format!("fail-next {component}")
        } else if !fault.delay.is_zero() {
            format!("delay {component} {}", fault.delay.as_micros())
        } else {
            format!("heal {component}")
        };
        self.events.lock().push(event);
    }

    fn crash_component(&self, component: &str) -> Result<(), WeaverError> {
        self.events.lock().push(format!("crash {component}"));
        Ok(())
    }
}

fn options(seed: u64) -> ChaosOptions {
    ChaosOptions {
        seed,
        targets: vec![
            "boutique.CartService".into(),
            "boutique.ProductCatalog".into(),
            "boutique.PaymentService".into(),
        ],
        interval: Duration::from_millis(1),
        heal_fraction: 0.4,
    }
}

#[test]
fn runner_log_matches_pure_schedule() {
    let deployment = Arc::new(RecordingDeployment::default());
    let runner = ChaosRunner::start(deployment.clone(), options(99));
    while runner.actions_so_far() < 25 {
        std::thread::sleep(Duration::from_millis(2));
    }
    let log = runner.stop();
    // The runner's log is exactly a prefix of the pure generator's output:
    // the background thread adds timing, never actions.
    let expected = ChaosSchedule::generate(&options(99), log.len());
    assert_eq!(log, expected);
    // And every logged action was actually applied, in order (the trailing
    // heals come from stop()).
    let applied = deployment.events();
    let from_log: Vec<String> = linelog::parse::<ChaosAction>(&linelog::serialize(&log))
        .unwrap()
        .iter()
        .map(|a| match a {
            ChaosAction::Crash(t) => format!("crash {t}"),
            ChaosAction::Down(t) => format!("down {t}"),
            ChaosAction::Delay(t, d) => format!("delay {t} {}", d.as_micros()),
            ChaosAction::FailNext(t) => format!("fail-next {t}"),
            ChaosAction::Heal(t) => format!("heal {t}"),
        })
        .collect();
    assert_eq!(&applied[..from_log.len()], &from_log[..]);
}

#[test]
fn same_seed_identical_logs_across_runs() {
    let run = |seed| {
        let deployment = Arc::new(RecordingDeployment::default());
        let runner = ChaosRunner::start(deployment, options(seed));
        while runner.actions_so_far() < 30 {
            std::thread::sleep(Duration::from_millis(2));
        }
        runner.stop()
    };
    let a = run(1234);
    let b = run(1234);
    let common = a.len().min(b.len());
    assert!(common >= 30);
    assert_eq!(a[..common], b[..common], "same seed must not diverge");
    let c = run(1235);
    let common = a.len().min(c.len());
    assert_ne!(
        a[..common],
        c[..common],
        "different seeds should diverge within 30 actions"
    );
}

#[test]
fn golden_log_fixture_still_generated() {
    // Regression pin: if the RNG, the action distribution, or the decision
    // order ever changes, previously-recorded chaos logs stop reproducing
    // the failures they captured. This fixture freezes seed 0xC4A05's first
    // 40 actions; regenerate it ONLY for an intentional generator change
    // (and say so in the commit), via `linelog::serialize(&ChaosSchedule::
    // generate(&options, 40))`.
    let golden = include_str!("golden/chaos-seed-0xc4a05.log");
    let generated = linelog::serialize(&ChaosSchedule::generate(&options(0xC4A05), 40));
    assert_eq!(generated, golden, "chaos generator drifted from golden log");
}

#[test]
fn replay_reproduces_log_byte_for_byte() {
    // Record a run...
    let source = Arc::new(RecordingDeployment::default());
    let runner = ChaosRunner::start(source, options(0xC4A05));
    while runner.actions_so_far() < 20 {
        std::thread::sleep(Duration::from_millis(2));
    }
    let log = runner.stop();
    let text = linelog::serialize(&log);

    // ...then replay the serialized form against a fresh deployment.
    let fresh = Arc::new(RecordingDeployment::default());
    let parsed: Vec<ChaosAction> = linelog::parse(&text).unwrap();
    let applied = replay(&*fresh, &parsed, Duration::ZERO);
    assert_eq!(
        linelog::serialize(&applied),
        text,
        "replay diverged from log"
    );
    // The fresh deployment saw exactly the recorded actions.
    assert_eq!(fresh.events().len(), log.len());
}

#[test]
fn dropping_runner_heals_targets() {
    let deployment = Arc::new(RecordingDeployment::default());
    {
        let runner = ChaosRunner::start(deployment.clone(), options(5));
        while runner.actions_so_far() < 5 {
            std::thread::sleep(Duration::from_millis(2));
        }
        // Dropped without stop() — the panicking-test path.
    }
    let events = deployment.events();
    for target in options(5).targets {
        assert_eq!(
            events.iter().rev().find(|e| e.ends_with(&target)).cloned(),
            Some(format!("heal {target}")),
            "drop left {target} unhealed; events: {events:?}"
        );
    }
}
