//! Runs the built binary the way the driver does, for one second a run, and
//! holds what it prints to `../BENCHMARK.json`: every workload named there
//! runs without a failed request, and every metric named there comes back
//! under its name, with its unit and a finite value. A change that renames a
//! metric, drops one, or breaks a placement fails here before it fails in
//! the driver.

use std::collections::BTreeMap;
use std::process::Command;

use weaver_codec::json::JsonValue;

fn benchmark_json() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    JsonValue::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
        .expect("BENCHMARK.json parses")
}

/// `name -> unit` of the entries under `key`.
fn declared(doc: &JsonValue, key: &'static str) -> BTreeMap<String, String> {
    let entries = doc.get(key).and_then(JsonValue::as_array).expect(key);
    entries
        .iter()
        .map(|e| {
            let field = |f| e.get(f).and_then(JsonValue::as_str).expect(f).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// One driver-style run; returns the parsed last line of its output and
/// what it wrote to standard error (the first failed request, if any).
fn run(workload: &str, trace: &str) -> (JsonValue, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_wbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            trace,
        ])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run wbench");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} --trace {trace}: {}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let line = stdout.lines().last().expect("a last line");
    (
        JsonValue::parse(line).expect("last line is JSON"),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

fn check(workload: &str, trace: &str, expected: &BTreeMap<String, String>) {
    let (line, stderr) = run(workload, trace);
    let what = format!("{workload} --trace {trace}: {stderr}");
    let keys: Vec<&str> = line
        .as_object()
        .expect("object")
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(
        keys,
        ["attempted", "correct", "failed", "metrics"],
        "{what}"
    );
    assert_eq!(
        line.get("correct").and_then(JsonValue::as_bool),
        Ok(true),
        "{what}"
    );
    assert_eq!(
        line.get("failed").and_then(JsonValue::as_number),
        Ok(0.0),
        "{what}"
    );
    assert!(
        line.get("attempted")
            .and_then(JsonValue::as_number)
            .expect("attempted")
            >= 1.0
    );
    let metrics = line
        .get("metrics")
        .and_then(JsonValue::as_object)
        .expect("metrics");
    let reported: BTreeMap<String, String> = metrics
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(JsonValue::as_number).ok();
            assert!(
                value.is_some_and(f64::is_finite),
                "{what}: {name} is {value:?}"
            );
            let unit = m.get("unit").and_then(JsonValue::as_str).expect("unit");
            (name.clone(), unit.to_string())
        })
        .collect();
    assert_eq!(&reported, expected, "{what}");
}

/// One test, so that the runs do not compete for the two CPUs.
#[test]
fn output_matches_benchmark_json() {
    let doc = benchmark_json();
    let end_to_end = declared(&doc, "end_to_end");
    let workloads = doc
        .get("workloads")
        .and_then(JsonValue::as_array)
        .expect("workloads");
    for workload in workloads {
        let name = workload
            .get("name")
            .and_then(JsonValue::as_str)
            .expect("name");
        check(name, "0", &end_to_end);
    }
    // The traced pass on one placement without sockets and one with.
    let per_layer = declared(&doc, "per_layer");
    check("colocated_mix", "1", &per_layer);
    check("tcp_browse", "1", &per_layer);
}
