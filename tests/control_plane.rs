//! The control plane as unit tests (paper §5.3): membership interleavings on
//! the deterministic driver, and the migration executor on an in-memory
//! host that fails at each step in turn.
//!
//! Delivery order and crashes are seeded by `WEAVER_CHAOS_SEED` (the chaos
//! job runs this file at several seeds), except where a test pins its own.

use std::collections::BTreeMap;

use weaver_codec::linelog;
use weaver_placement::ComponentPlacement;
use weaver_routing::SliceAssignment;
use weaver_runtime::control::{self, ControlPlane, Event, MigratedRange, Migration};
use weaver_testing::{seed_from_env, ControlDriver, FailPoint, ModelHost, ModelState, TraceRecord};
use weaver_transport::in_slice;

/// Group 0 (component 0) calls group 1 (component 1, routed).
fn plane() -> ControlPlane {
    ControlPlane::new(vec![vec![0], vec![1]], vec![1], None)
}

/// Both groups deployed at `replicas` each and settled.
fn deployed(seed: u64, crash_rate: f64, replicas: u32) -> ControlDriver {
    let mut driver = ControlDriver::new(plane(), seed, crash_rate);
    for group in 0..2 {
        driver.step(Event::Scale { group, replicas });
    }
    driver.settle();
    driver
}

/// The scale-down ordering bug, reproduced deterministically: retiring a
/// replica sends it `Shutdown` before the install that stops others routing
/// to it, so on this seed a proclet reads its `Shutdown` while a caller
/// still routes to it at the older epoch.
///
/// This asserts the violation is *found*. ROADMAP item 4(a) (fence, drain
/// and export the leaving replica, commit, then shut down; the owner's
/// check answers stale callers, so no acknowledgement round) inverts the
/// assertion.
#[test]
fn driver_finds_shutdown_before_reroute_on_scale_down() {
    let mut driver = deployed(7, 0.0, 3);
    driver.step(Event::Scale {
        group: 1,
        replicas: 1,
    });
    driver.settle();
    println!("{}", driver.trace_text());
    assert!(
        !driver.violations().is_empty(),
        "no proclet routed to a replica told to exit:\n{}",
        driver.trace_text()
    );
    // The plane itself still converges once every message is read.
    driver.converged().unwrap();
}

/// 3 → 1 → 3 without waiting: the retired incarnations' late exits must
/// not tear down the ones that replaced them, in any delivery order.
#[test]
fn stale_exits_do_not_tear_down_their_successors() {
    let seed = seed_from_env(0x5CA1E);
    for run in 0..32 {
        let mut driver = deployed(seed + run, 0.0, 3);
        for replicas in [1, 3] {
            driver.step(Event::Scale { group: 1, replicas });
        }
        driver.settle();
        let context = || format!("seed {}:\n{}", seed + run, driver.trace_text());
        assert_eq!(driver.plane().registered(1), 3, "{}", context());
        assert_eq!(driver.live(1), 3, "{}", context());
        driver
            .converged()
            .unwrap_or_else(|e| panic!("{e}; {}", context()));
    }
}

/// Proclets crash at seeded points while deploying and scaling: once the
/// messages stop, every live proclet is current, registered and routing at
/// the ingress epoch.
#[test]
fn membership_converges_under_seeded_crashes() {
    let seed = seed_from_env(0xC4A05);
    for run in 0..16 {
        let mut driver = deployed(seed + run, 0.05, 2);
        driver.step(Event::Scale {
            group: 1,
            replicas: 3,
        });
        driver.settle();
        driver
            .converged()
            .unwrap_or_else(|e| panic!("seed {}: {e}\n{}", seed + run, driver.trace_text()));
    }
}

#[test]
fn the_trace_is_a_pure_function_of_the_seed() {
    let run = |seed| {
        let mut driver = deployed(seed, 0.1, 3);
        driver.step(Event::Scale {
            group: 0,
            replicas: 1,
        });
        driver.settle();
        driver.trace_text()
    };
    let text = run(11);
    assert_eq!(text, run(11));
    assert_ne!(text, run(12));
    let parsed: Vec<TraceRecord> = linelog::parse(&text).unwrap();
    assert_eq!(linelog::serialize(&parsed), text, "trace round-trips");
}

const REPLICAS: u32 = 3;

/// Three replicas, each holding the keys a uniform assignment routes to it.
fn spread() -> ModelState {
    let assignment = SliceAssignment::uniform(REPLICAS, 4);
    let mut keys = vec![BTreeMap::new(); REPLICAS as usize];
    for i in 0..48u64 {
        let key = i * (u64::MAX / 48) + 7;
        let owner = assignment.replica_for(key).unwrap();
        keys[owner as usize].insert(key, i + 1);
    }
    ModelState {
        keys,
        assignment: Some(assignment),
        ..Default::default()
    }
}

/// The two migration shapes, built by the runtime's constructors: a
/// colocation (every other replica's keyspace onto replica 0, component
/// frozen) and a slice rebalance (each replica's first slice to the next
/// replica, key ranges frozen).
fn migrations(state: &ModelState) -> Vec<(&'static str, Migration)> {
    let current = state.assignment.clone().unwrap();
    let colocate = Migration::placement_move(
        1,
        ComponentPlacement::Colocated,
        REPLICAS,
        Some(current.clone()),
        Some((1, 2)),
    );
    let mut planned = current.clone();
    for replica in 0..REPLICAS {
        let first = current.slices.iter().position(|s| s.replica == replica);
        planned.slices[first.unwrap()].replica = (replica + 1) % REPLICAS;
    }
    planned.version += 1;
    let rebalance = Migration::rebalance(1, &current, planned, Some((1, 2))).unwrap();
    vec![("colocate", colocate), ("rebalance", rebalance)]
}

/// After a committed migration every key lives where the new assignment
/// routes it, with its value, and nothing is frozen.
fn check_committed(before: &ModelState, after: &ModelState) -> Result<(), String> {
    let assignment = after.assignment.as_ref().unwrap();
    let flatten = |s: &ModelState| -> BTreeMap<u64, u64> {
        s.keys.iter().flatten().map(|(&k, &v)| (k, v)).collect()
    };
    if flatten(before) != flatten(after) {
        return Err("keys or values changed".into());
    }
    for (replica, keys) in after.keys.iter().enumerate() {
        if let Some(&key) = keys
            .keys()
            .find(|&&k| assignment.replica_for(k) != Some(replica as u32))
        {
            return Err(format!("key {key:#x} stranded on replica {replica}"));
        }
    }
    if !after.frozen.is_empty() || after.epoch != before.epoch + 1 {
        return Err(format!(
            "frozen {:?}, epoch {} → {}",
            after.frozen, before.epoch, after.epoch
        ));
    }
    Ok(())
}

/// After an aborted migration: nothing committed, nothing left frozen, and
/// every replica still holds every key it held, with its value. A
/// destination may also hold copies of keys that a transfer completed
/// before the failure handed it; the old assignment never routes there.
fn check_aborted(before: &ModelState, after: &ModelState) -> Result<(), String> {
    let routing = |s: &ModelState| (s.assignment.clone(), s.placement, s.epoch, s.frozen.clone());
    if routing(before) != routing(after) {
        return Err(format!("committed or left frozen: {after:?}"));
    }
    for (replica, (held, holds)) in before.keys.iter().zip(&after.keys).enumerate() {
        if let Some(key) = held.keys().find(|&k| holds.get(k) != held.get(k)) {
            return Err(format!("replica {replica} lost key {key:#x}"));
        }
        let copied = |(key, value): (&u64, &u64)| {
            held.contains_key(key) || before.keys.iter().any(|keys| keys.get(key) == Some(value))
        };
        if let Some((key, _)) = holds.iter().find(|&entry| !copied(entry)) {
            return Err(format!("replica {replica} holds key {key:#x} from nowhere"));
        }
    }
    Ok(())
}

/// `state` plus, at each transfer's destination, a copy of what its source
/// holds in the range.
fn with_copies(state: &ModelState, transfers: &[MigratedRange]) -> ModelState {
    let mut out = state.clone();
    for t in transfers {
        let range = state.keys[t.from as usize]
            .iter()
            .filter(|&(&key, _)| in_slice(t.start, t.end, key));
        out.keys[t.to as usize].extend(range);
    }
    out
}

/// Each migration shape failed at each step in turn. An aborted migration
/// gives every exported blob back to its source, even when the destination
/// stays unreachable; the only trace it leaves is the copies the transfers
/// that completed before the failure left at their destinations.
#[test]
fn executor_changes_no_routed_state_when_any_step_fails() {
    let before = spread();
    for (shape, migration) in migrations(&before) {
        let transfers = migration.transfers.len();
        let unreachable = FailPoint::Replica(migration.transfers[0].to);
        let mut rows = vec![None, Some(FailPoint::Drain), Some(FailPoint::Commit)];
        rows.push(Some(unreachable));
        for k in 1..=transfers {
            rows.push(Some(FailPoint::Export(k)));
            rows.push(Some(FailPoint::Import(k)));
        }
        for fail in rows {
            let host = ModelHost::new(before.clone());
            host.fail_at(fail);
            let result = control::execute(&host, migration.clone());
            let after = host.state();
            let Some(fail) = fail else {
                let (epoch, moved) = result.unwrap();
                assert_eq!(epoch, before.epoch + 1, "{shape}");
                assert!(moved.iter().any(|t| t.entries > 0), "{shape}: {moved:?}");
                check_committed(&before, &after).unwrap_or_else(|e| panic!("{shape}: {e}"));
                println!("{shape} fail=None: committed");
                continue;
            };
            assert!(result.is_err(), "{shape} {fail:?} committed");
            check_aborted(&before, &after).unwrap_or_else(|e| panic!("{shape} {fail:?}: {e}"));
            let completed = match fail {
                FailPoint::Drain | FailPoint::Replica(_) => 0,
                FailPoint::Export(k) | FailPoint::Import(k) => k - 1,
                FailPoint::Commit => transfers,
            };
            let expected = with_copies(&before, &migration.transfers[..completed]);
            assert_eq!(after, expected, "{shape} {fail:?}");
            println!("{shape} fail={fail:?}: state intact, {completed} copies left");
        }
    }
}

#[test]
fn seeded_migrations_commit_whole_or_keep_every_key() {
    let seed = seed_from_env(0xE1EC);
    let mut driver = ControlDriver::new(plane(), seed, 0.0);
    let before = spread();
    for _ in 0..24 {
        for (shape, migration) in migrations(&before) {
            let host = ModelHost::new(before.clone());
            let result = driver.migrate(&host, migration);
            let after = host.state();
            let verdict = match result {
                Ok(_) => check_committed(&before, &after),
                Err(_) => check_aborted(&before, &after),
            };
            verdict.unwrap_or_else(|e| panic!("{shape}: {e}\n{}", driver.trace_text()));
        }
    }
    assert_eq!(driver.trace().len(), 48);
}
