//! One schema for everything the benchmark reports: the metric rows of
//! `result.json`, the driver's one-line summary, percentile rules, and
//! `wbench compare`, which applies the bounds of `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use weaver_codec::json::JsonValue;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// How many observations the value summarises (requests, probe
    /// iterations, spans; 1 for a single reading).
    pub samples: u64,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64, samples: u64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
            samples,
        }
    }
}

/// Nearest-rank percentile of ascending `sorted`: the smallest sample with
/// at least `q` of all samples at or below it. `None` unless at least ten
/// samples lie beyond it — fewer, and the "percentile" is a handful of
/// outliers that no two runs share.
pub fn percentile<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
    (rank + 10 <= sorted.len()).then(|| sorted[rank - 1])
}

/// Median of unsorted values (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile of two or more values, placed as Python's
/// `statistics.quantiles(values, n=4)` places them.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quartile = |i: usize| {
        let m = v.len() + 1;
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (quartile(1), quartile(3))
}

/// Distance between the quartiles as a share of the median; zero for fewer
/// than two values.
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// What one process run measured: every row of `result.json`.
#[derive(Debug)]
pub struct Report {
    seed: u64,
    seconds: u32,
    commit: String,
    /// `(workload, pass, metric)`, pass being `e2e` or `layers`.
    pub rows: Vec<(&'static str, &'static str, Metric)>,
}

fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The commit measured, where the checkout is a git repository.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

pub fn object(fields: impl IntoIterator<Item = (&'static str, JsonValue)>) -> JsonValue {
    JsonValue::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

impl Report {
    pub fn new(seed: u64, seconds: u32) -> Report {
        Report {
            seed,
            seconds,
            commit: commit(),
            rows: Vec::new(),
        }
    }

    pub fn to_json(&self) -> JsonValue {
        let rows = self
            .rows
            .iter()
            .map(|(workload, pass, m)| {
                object([
                    ("workload", JsonValue::String(workload.to_string())),
                    ("pass", JsonValue::String(pass.to_string())),
                    ("metric", JsonValue::String(m.name.clone())),
                    ("unit", JsonValue::String(m.unit.to_string())),
                    ("value", JsonValue::Number(m.value)),
                    ("samples", JsonValue::Number(m.samples as f64)),
                ])
            })
            .collect();
        object([
            ("commit", JsonValue::String(self.commit.clone())),
            ("host_cpus", JsonValue::Number(host_cpus() as f64)),
            // Two client threads need two CPUs: on fewer, every number
            // measures the scheduler and compares with nothing.
            ("comparable", JsonValue::Bool(host_cpus() >= 2)),
            ("seed", JsonValue::Number(self.seed as f64)),
            ("seconds", JsonValue::Number(f64::from(self.seconds))),
            ("rows", JsonValue::Array(rows)),
        ])
    }
}

/// Where run artifacts go: `target/wbench/` under the working directory.
pub fn artifact(name: &str) -> std::io::Result<PathBuf> {
    let dir = Path::new("target").join("wbench");
    std::fs::create_dir_all(&dir)?;
    Ok(dir.join(name))
}

/// The line the driver reads: the metrics of one workload and pass.
pub fn driver_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| {
            let entry = object([
                ("value", JsonValue::Number(m.value)),
                ("unit", JsonValue::String(m.unit.to_string())),
            ]);
            (m.name.clone(), entry)
        })
        .collect();
    object([
        ("correct", JsonValue::Bool(correct)),
        ("attempted", JsonValue::Number(attempted as f64)),
        ("failed", JsonValue::Number(failed as f64)),
        ("metrics", JsonValue::Object(metrics)),
    ])
    .to_string_compact()
}

/// An end-to-end metric's entry in `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

pub fn parse_bounds(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let doc = JsonValue::parse(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let parse = |entry: &JsonValue| {
        Ok::<Bound, weaver_codec::DecodeError>(Bound {
            name: entry.get("name")?.as_str()?.to_string(),
            higher_is_better: entry.get("better")?.as_str()? == "higher",
            bound: entry.get("bound")?.as_number()?,
        })
    };
    doc.get("end_to_end")
        .and_then(JsonValue::as_array)
        .and_then(|entries| entries.iter().map(parse).collect())
        .map_err(|e| format!("BENCHMARK.json: {e}"))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The runs of one side disagree by more than the bound, so "no worse
    /// than the bound" cannot be shown either way.
    Unresolved,
}

/// Judges `change` against `base` (each the values of repeated runs).
/// Returns the verdict, how much worse the change's median is as a share of
/// the base's (negative when better), and the wider of the two spreads.
pub fn judge(bound: &Bound, base: &[f64], change: &[f64]) -> (Verdict, f64, f64) {
    let (b, c) = (median(base), median(change));
    let worse = if bound.higher_is_better { b - c } else { c - b } / b.abs();
    let spread = spread(base).max(spread(change));
    let verdict = if worse > bound.bound.max(spread) {
        Verdict::Regressed
    } else if spread > bound.bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (verdict, worse, spread)
}

/// `(workload, metric) -> values` over the end-to-end rows of several
/// `result.json` files.
fn load_side(paths: &str) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let mut values: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for path in paths.split(',') {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let row = |row: &JsonValue| {
            Ok::<_, weaver_codec::DecodeError>((
                row.get("pass")?.as_str()? == "e2e",
                row.get("workload")?.as_str()?.to_string(),
                row.get("metric")?.as_str()?.to_string(),
                row.get("value")?.as_number()?,
            ))
        };
        let doc = JsonValue::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let rows = doc
            .get("rows")
            .and_then(JsonValue::as_array)
            .map_err(|e| format!("{path}: {e}"))?;
        for r in rows {
            let (e2e, workload, metric, value) = row(r).map_err(|e| format!("{path}: {e}"))?;
            if e2e {
                values.entry((workload, metric)).or_default().push(value);
            }
        }
    }
    Ok(values)
}

/// `wbench compare BASE CHANGE`: each side one `result.json` or several
/// joined by commas (their medians are compared). Prints one line per
/// workload × end-to-end metric and returns whether none regressed.
pub fn compare(base: &str, change: &str) -> Result<bool, String> {
    let bounds = parse_bounds(
        &std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?,
    )?;
    let (base, change) = (load_side(base)?, load_side(change)?);
    let mut out = String::new();
    let mut clean = true;
    for ((workload, metric), b) in &base {
        let Some(bound) = bounds.iter().find(|x| &x.name == metric) else {
            continue;
        };
        let Some(c) = change.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let (verdict, worse, spread) = judge(bound, b, c);
        clean &= verdict != Verdict::Regressed;
        let word = match verdict {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        };
        writeln!(
            out,
            "{workload:<14} {metric:<15} {word:<10} base {:>12.3} change {:>12.3} worse by {:>+6.1}% spread {:>4.1}% bound {:.0}%",
            median(b),
            median(c),
            worse * 100.0,
            spread * 100.0,
            bound.bound * 100.0
        )
        .expect("write to string");
    }
    print!("{out}");
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u32> = (1..=1000).collect();
        assert_eq!(percentile(&v, 0.5), Some(500));
        assert_eq!(percentile(&v, 0.99), Some(990));
        assert_eq!(percentile(&v, 0.001), Some(1));
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        let v: Vec<u32> = (1..=999).collect();
        // rank 990 of 999 leaves nine beyond.
        assert_eq!(percentile(&v, 0.99), None);
        assert_eq!(percentile(&v, 0.5), Some(500));
        assert_eq!(percentile(&(1..=20).collect::<Vec<u32>>(), 0.5), Some(10));
        assert_eq!(percentile(&(1..=19).collect::<Vec<u32>>(), 0.5), None);
        assert_eq!(percentile::<u32>(&[], 0.5), None);
    }

    #[test]
    fn spread_matches_python_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) = [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 11, 13], n=4) = [10.0, 11.0, 13.0]
        assert!((spread(&[13.0, 10.0, 11.0]) - 3.0 / 11.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), 0.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    fn bound(higher_is_better: bool) -> Bound {
        Bound {
            name: "m".into(),
            higher_is_better,
            bound: 0.10,
        }
    }

    #[test]
    fn bounds_respect_direction() {
        let lower = bound(false);
        assert_eq!(judge(&lower, &[100.0], &[109.0]).0, Verdict::Ok);
        assert_eq!(judge(&lower, &[100.0], &[111.0]).0, Verdict::Regressed);
        assert_eq!(judge(&lower, &[100.0], &[50.0]).0, Verdict::Ok);
        let higher = bound(true);
        assert_eq!(judge(&higher, &[100.0], &[91.0]).0, Verdict::Ok);
        assert_eq!(judge(&higher, &[100.0], &[89.0]).0, Verdict::Regressed);
        assert_eq!(judge(&higher, &[100.0], &[200.0]).0, Verdict::Ok);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_the_regression_exceeds_it() {
        let lower = bound(false);
        // Base runs span 30 % of their median.
        let base = [85.0, 100.0, 115.0];
        assert_eq!(judge(&lower, &base, &[100.0]).0, Verdict::Unresolved);
        assert_eq!(judge(&lower, &base, &[120.0]).0, Verdict::Unresolved);
        assert_eq!(judge(&lower, &base, &[140.0]).0, Verdict::Regressed);
    }

    #[test]
    fn reads_bounds_from_benchmark_json() {
        let text = r#"{"end_to_end": [
            {"name": "qps", "unit": "1/s", "better": "higher", "bound": 0.1},
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}"#;
        let bounds = parse_bounds(text).expect("parses");
        assert_eq!(bounds.len(), 2);
        assert!(bounds[0].higher_is_better && !bounds[1].higher_is_better);
        assert_eq!(bounds[1].bound, 0.25);
        assert!(parse_bounds("{}").is_err());
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let line = driver_line(true, 10, 0, &[Metric::new("qps", "1/s", 1234.5678, 10)]);
        let doc = JsonValue::parse(&line).expect("valid json");
        let keys: Vec<_> = doc.as_object().expect("object").keys().cloned().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let qps = doc.get("metrics").and_then(|m| m.get("qps")).expect("qps");
        assert_eq!(
            qps.get("value").and_then(JsonValue::as_number),
            Ok(1234.5678)
        );
        assert_eq!(qps.get("unit").and_then(JsonValue::as_str), Ok("1/s"));
    }
}
