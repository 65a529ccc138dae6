//! Diagnostics and their text/JSON/SARIF renderings.

use std::fmt::Write as _;
use std::path::PathBuf;

use weaver_codec::json::JsonValue;

/// Every rule the linter can emit, with a one-line description — the
/// rule metadata block of the SARIF report, and the source of truth for
/// `--check`'s per-rule exit codes (rule `Ln` exits `10 + n`).
pub const RULE_INFO: &[(&str, &str)] = &[
    ("L1", "component boundary payloads must derive WeaverData"),
    ("L2", "the component call graph must be acyclic"),
    ("L3", "#[routed] methods need a hashable routing key"),
    (
        "L4",
        "no lock guard may be held across a component call or gather",
    ),
    (
        "L5",
        "every component must be fingerprinted in weaver-api.lock",
    ),
    (
        "L6",
        "cross-component lock acquisition must follow one global order",
    ),
    (
        "L7",
        "saga forward steps need registered, keyed compensations",
    ),
    (
        "L8",
        "API schema changes must be rollout-safe or version-bumped",
    ),
];

/// How bad a finding is. Errors fail the lint run (exit 1); warnings
/// are reported but don't.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// A violated invariant.
    Error,
    /// A suspicious-but-tolerable finding (e.g. a stale lock entry).
    Warning,
}

impl Severity {
    fn as_str(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

/// One lint finding, anchored to a source location.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Rule identifier (`L1`…`L5`).
    pub rule: &'static str,
    /// Severity of the finding.
    pub severity: Severity,
    /// File the finding is anchored to.
    pub file: PathBuf,
    /// 1-based line.
    pub line: u32,
    /// What's wrong.
    pub message: String,
    /// How to fix it.
    pub help: String,
}

impl Diagnostic {
    /// Renders rustc-style:
    ///
    /// ```text
    /// error[L2]: component call graph contains a cycle: a -> b -> a
    ///   --> crates/app/src/a.rs:10
    ///   = help: break the cycle ...
    /// ```
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}[{}]: {}",
            self.severity.as_str(),
            self.rule,
            self.message
        );
        let _ = writeln!(out, "  --> {}:{}", self.file.display(), self.line);
        let _ = writeln!(out, "  = help: {}", self.help);
        out
    }

    /// Renders one JSON object.
    pub fn render_json(&self) -> JsonValue {
        object([
            ("rule", text(self.rule)),
            ("severity", text(self.severity.as_str())),
            ("file", text(self.file.display().to_string())),
            ("line", JsonValue::Number(f64::from(self.line))),
            ("message", text(&self.message)),
            ("help", text(&self.help)),
        ])
    }
}

/// Renders a full diagnostic list as a JSON array.
pub fn render_json_report(diags: &[Diagnostic]) -> String {
    JsonValue::Array(diags.iter().map(Diagnostic::render_json).collect()).to_string_compact()
}

/// Renders the diagnostics as a SARIF 2.1.0 log with one run, so CI can
/// upload the findings as code-scanning annotations. The layout follows
/// the SARIF spec's minimum viable producer.
pub fn render_sarif(diags: &[Diagnostic]) -> String {
    let rules = RULE_INFO
        .iter()
        .map(|(id, desc)| object([("id", text(*id)), ("shortDescription", message(desc))]))
        .collect();
    let results = diags
        .iter()
        .map(|d| {
            // SARIF regions are 1-based; clamp our "whole file" line 0.
            let line = JsonValue::Number(f64::from(d.line.max(1)));
            let uri = d.file.display().to_string().replace('\\', "/");
            let help = format!("{} (help: {})", d.message, d.help);
            let location = object([(
                "physicalLocation",
                object([
                    ("artifactLocation", object([("uri", text(uri))])),
                    ("region", object([("startLine", line)])),
                ]),
            )]);
            object([
                ("ruleId", text(d.rule)),
                ("level", text(d.severity.as_str())),
                ("message", message(&help)),
                ("locations", JsonValue::Array(vec![location])),
            ])
        })
        .collect();
    let info_uri = text("https://example.invalid/weaver-lint");
    let driver = object([
        ("name", text("weaver-lint")),
        ("informationUri", info_uri),
        ("rules", JsonValue::Array(rules)),
    ]);
    let run = object([
        ("tool", object([("driver", driver)])),
        ("results", JsonValue::Array(results)),
    ]);
    let schema = text("https://json.schemastore.org/sarif-2.1.0.json");
    object([
        ("$schema", schema),
        ("version", text("2.1.0")),
        ("runs", JsonValue::Array(vec![run])),
    ])
    .to_string_compact()
}

/// A JSON object of `fields`.
pub(crate) fn object<const N: usize>(fields: [(&str, JsonValue); N]) -> JsonValue {
    JsonValue::Object(fields.map(|(k, v)| (k.to_string(), v)).into())
}

/// A JSON string.
pub(crate) fn text(s: impl Into<String>) -> JsonValue {
    JsonValue::String(s.into())
}

/// SARIF's message shape: `{"text": s}`.
fn message(s: &str) -> JsonValue {
    object([("text", text(s))])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sarif_rendering_carries_rules_and_results() {
        let d = Diagnostic {
            rule: "L4",
            severity: Severity::Error,
            file: PathBuf::from("src/a.rs"),
            line: 0,
            message: "guard across call".to_string(),
            help: "drop it".to_string(),
        };
        let sarif = render_sarif(&[d]);
        assert!(sarif.contains("\"version\":\"2.1.0\""));
        assert!(sarif.contains("\"ruleId\":\"L4\""));
        // All eight rules are declared even when only one fired.
        for (id, _) in RULE_INFO {
            assert!(sarif.contains(&format!("\"id\":\"{id}\"")), "missing {id}");
        }
        // Line 0 (whole-file findings) is clamped to SARIF's 1-based regions.
        assert!(sarif.contains("\"startLine\":1"));
    }

    #[test]
    fn text_rendering_is_rustc_shaped() {
        let d = Diagnostic {
            rule: "L2",
            severity: Severity::Error,
            file: PathBuf::from("src/a.rs"),
            line: 7,
            message: "cycle".to_string(),
            help: "break it".to_string(),
        };
        let text = d.render_text();
        assert!(text.starts_with("error[L2]: cycle"));
        assert!(text.contains("--> src/a.rs:7"));
        assert!(text.contains("= help: break it"));
    }
}
