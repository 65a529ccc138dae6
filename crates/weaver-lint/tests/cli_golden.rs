//! End-to-end CLI tests: run the real `weaver-lint` binary over the
//! fixtures and assert the rendered diagnostics byte-for-byte, plus the
//! `--check` exit-code contract (rule class `Ln` exits `10 + n`, mixed
//! classes exit 9, warnings-only exits 0) and the SARIF rendering.

use std::path::Path;
use std::process::Command;

use weaver_codec::json::JsonValue;
use weaver_lint::diag::RULE_INFO;

fn bin() -> Command {
    // Integration tests run with the package root as cwd, so fixture
    // paths inside the diagnostics match the checked-in expectations.
    Command::new(env!("CARGO_BIN_EXE_weaver-lint"))
}

/// Runs `weaver-lint --root tests/fixtures/<name> --check` and returns
/// (stdout, exit code).
fn run_fixture(name: &str) -> (String, i32) {
    let out = bin()
        .args(["--root", &format!("tests/fixtures/{name}"), "--check"])
        .output()
        .expect("run weaver-lint");
    (
        String::from_utf8(out.stdout).expect("utf8 stdout"),
        out.status.code().expect("exit code"),
    )
}

fn expected(name: &str) -> String {
    std::fs::read_to_string(Path::new("tests/fixtures").join(name).join("expected.txt"))
        .expect("read expected.txt")
}

#[test]
fn single_rule_fixtures_render_exactly_and_exit_with_their_class() {
    // (fixture, exit code): rule Ln exits 10 + n under --check.
    for (name, code) in [
        ("l1_wire", 11),
        ("l2_cycle", 12),
        ("l3_routed", 13),
        ("l4_guard", 14),
        ("l4_wait", 14),
        ("l4_alias", 14),
        ("l5_missing", 15),
        ("l7_saga", 17),
        ("l8_breaking", 18),
        ("l8_v1", 18),
    ] {
        let (stdout, exit) = run_fixture(name);
        assert_eq!(stdout, expected(name), "fixture {name}: stdout drifted");
        assert_eq!(exit, code, "fixture {name}: wrong exit code");
    }
}

#[test]
fn mixed_rule_fixture_exits_nine() {
    let (stdout, exit) = run_fixture("l6_deadlock");
    assert_eq!(stdout, expected("l6_deadlock"));
    assert_eq!(exit, 9, "L2+L4+L6 errors must exit 9 (mixed classes)");
}

#[test]
fn rollout_safe_changes_exit_clean() {
    let (stdout, exit) = run_fixture("l8_safe");
    assert_eq!(stdout, expected("l8_safe"));
    assert_eq!(exit, 0, "warnings-only runs pass --check");
}

#[test]
fn sarif_output_is_wellformed() {
    let out = bin()
        .args(["--root", "tests/fixtures/l4_guard", "--format", "sarif"])
        .output()
        .expect("run weaver-lint");
    let sarif = String::from_utf8(out.stdout).expect("utf8 stdout");
    assert!(sarif.contains("\"version\":\"2.1.0\""), "{sarif}");
    assert!(sarif.contains("\"ruleId\":\"L4\""), "{sarif}");
    assert!(sarif.contains("tests/fixtures/l4_guard/comp.rs"), "{sarif}");
    // Errors still fail the run in SARIF mode (CI uploads, then gates).
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn json_outputs_parse_as_json() {
    let run = |args: &[&str]| {
        let out = bin()
            .args(["--root", "tests/fixtures/l4_guard"])
            .args(args)
            .output()
            .expect("run weaver-lint");
        assert_eq!(out.status.code(), Some(1), "the L4 error fails the run");
        String::from_utf8(out.stdout).expect("utf8 stdout")
    };
    let parse = |text: &str| JsonValue::parse(text).unwrap_or_else(|e| panic!("{e}: {text}"));

    let report = parse(run(&["--format", "json"]).trim_end());
    let [finding] = report.as_array().unwrap() else {
        panic!("one finding expected: {report:?}");
    };
    assert_eq!(finding.get("rule").unwrap().as_str(), Ok("L4"));
    assert_eq!(finding.get("line").unwrap().as_number(), Ok(29.0));
    assert_eq!(
        finding.get("file").unwrap().as_str(),
        Ok("tests/fixtures/l4_guard/comp.rs")
    );

    let sarif = parse(run(&["--format", "sarif"]).trim_end());
    assert_eq!(sarif.get("version").unwrap().as_str(), Ok("2.1.0"));
    let run0 = &sarif.get("runs").unwrap().as_array().unwrap()[0];
    let result = &run0.get("results").unwrap().as_array().unwrap()[0];
    assert_eq!(result.get("ruleId").unwrap().as_str(), Ok("L4"));
    let region = result.get("locations").unwrap().as_array().unwrap()[0]
        .get("physicalLocation")
        .and_then(|l| l.get("region"))
        .unwrap();
    assert_eq!(region.get("startLine").unwrap().as_number(), Ok(29.0));
    let declared: Vec<&str> = run0
        .get("tool")
        .and_then(|t| t.get("driver"))
        .and_then(|d| d.get("rules"))
        .and_then(|r| r.as_array())
        .unwrap()
        .iter()
        .map(|r| r.get("id").and_then(JsonValue::as_str).unwrap())
        .collect();
    for (id, _) in RULE_INFO {
        assert!(
            declared.contains(id),
            "rule {id} not declared: {declared:?}"
        );
    }

    // `--graph` prints its document on a line of its own, before the findings.
    let out = run(&["--graph", "--format", "json"]);
    let (graph, findings) = out.split_once('\n').expect("two lines");
    let edges = parse(graph);
    let edges = edges.get("edges").unwrap().as_array().unwrap();
    assert!(
        edges.iter().any(
            |e| e.get("callee").unwrap().as_str() == Ok("fixture.Warehouse")
                && e.get("method").unwrap().as_str() == Ok("pick")
        ),
        "{graph}"
    );
    assert_eq!(parse(findings.trim_end()), report);
}

#[test]
fn update_lock_migrates_v1_to_v2() {
    // Copy the v1 fixture into a temp dir, run --update-lock, and check
    // the lock comes out format 2 with the drift recorded as a bump.
    let tmp = std::env::temp_dir().join(format!("weaver-lint-migrate-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("mkdir");
    std::fs::copy("tests/fixtures/l8_v1/comp.rs", tmp.join("comp.rs")).expect("copy comp");
    std::fs::copy(
        "tests/fixtures/l8_v1/weaver-api.lock",
        tmp.join("weaver-api.lock"),
    )
    .expect("copy lock");
    let out = bin()
        .args(["--root", tmp.to_str().unwrap(), "--update-lock"])
        .output()
        .expect("run weaver-lint");
    assert!(out.status.success());
    let lock = std::fs::read_to_string(tmp.join("weaver-api.lock")).expect("read lock");
    assert!(lock.contains("format 2"), "{lock}");
    // The v1 lock recorded version 1 with a stale hash: the signature
    // change must surface as a version bump, not vanish silently.
    assert!(lock.contains("component fixture.Rates version 2"), "{lock}");
    assert!(lock.contains("arg u64"), "{lock}");
    std::fs::remove_dir_all(&tmp).ok();
}
