//! Line-oriented replay logs: one record per line, `verb field field…`.
//!
//! The rebalance controller, the placement controller and the chaos
//! schedule each record what they did as text a human can read in a CI
//! artifact and a test can replay verbatim. They share this one format:
//! whitespace-separated fields (none ever contains whitespace, so nothing
//! needs quoting), blank lines and `#` comments ignored on the way in so
//! multi-round logs can annotate rounds. A type opts in by implementing
//! [`Record`]; its unit tests exercise [`serialize`] and [`parse`].

use std::fmt::Display;
use std::path::PathBuf;
use std::str::{FromStr, SplitWhitespace};

/// A value with a one-line `verb field…` text form.
pub trait Record: Sized {
    /// This record's line, without the trailing newline.
    fn to_line(&self) -> String;

    /// Rebuilds a record from its verb and the fields after it. Fields
    /// left unconsumed are a trailing-token error in [`parse`], which also
    /// prefixes every error with the line number.
    fn from_line(verb: &str, fields: &mut SplitWhitespace<'_>) -> Result<Self, String>;
}

/// The next field parsed as `T`; `what` names it in the error.
pub fn field<T: FromStr<Err: Display>>(
    fields: &mut SplitWhitespace<'_>,
    what: &str,
) -> Result<T, String> {
    let token = fields.next().ok_or_else(|| format!("missing {what}"))?;
    token
        .parse()
        .map_err(|e| format!("bad {what} {token:?}: {e}"))
}

/// Serializes records one per line, in order.
pub fn serialize<T: Record>(records: &[T]) -> String {
    records.iter().map(|r| r.to_line() + "\n").collect()
}

/// Parses the [`serialize`] form back into records, skipping blank lines
/// and `#` comments.
pub fn parse<T: Record>(text: &str) -> Result<Vec<T>, String> {
    let mut records = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut fields = line.split_whitespace();
        let verb = fields.next().unwrap_or_default();
        let record = T::from_line(verb, &mut fields).and_then(|record| match fields.next() {
            Some(extra) => Err(format!("trailing token {extra:?}")),
            None => Ok(record),
        });
        records.push(record.map_err(|e| format!("line {}: {e} in {line:?}", i + 1))?);
    }
    Ok(records)
}

/// Writes `text` to `target/<dir>/<name>.log` under the workspace root so
/// CI can upload it as an artifact when a test fails. Best effort: returns
/// the path on success, `None` if the filesystem refused.
pub fn write_artifact(dir: &str, name: &str, text: &str) -> Option<PathBuf> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)?
        .join("target")
        .join(dir);
    std::fs::create_dir_all(&dir).ok()?;
    let path = dir.join(format!("{name}.log"));
    std::fs::write(&path, text).ok()?;
    Some(path)
}
