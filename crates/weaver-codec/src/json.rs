//! A self-contained JSON implementation: value model, writer and
//! recursive-descent parser.
//!
//! JSON is no wire format here. Reports, configuration and tool output
//! (benchmark reports, `weaver-lint`'s JSON and SARIF) read and write
//! [`JsonValue`]; application data travels in the crate's binary formats.
//!
//! The implementation is strict RFC 8259 JSON on the parse side (with a
//! nesting-depth limit) and always emits valid JSON on the write side.

use std::collections::BTreeMap;

use crate::error::DecodeError;
use crate::reader::MAX_DEPTH;

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number. Stored as `f64`, as JavaScript consumers do:
    /// 64-bit integers above 2^53 lose precision.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object. Keeps insertion order irrelevant by using a `BTreeMap`,
    /// making output deterministic.
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Serializes the value to a compact JSON string.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::with_capacity(64);
        write_value(self, &mut out);
        out
    }

    /// Parses a JSON document, requiring the whole input to be one value.
    pub fn parse(input: &str) -> Result<JsonValue, DecodeError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.parse_value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(DecodeError::TrailingBytes(p.bytes.len() - p.pos));
        }
        Ok(v)
    }

    /// Returns the value as an `f64` if it is a number.
    pub fn as_number(&self) -> Result<f64, DecodeError> {
        match self {
            JsonValue::Number(n) => Ok(*n),
            _ => Err(DecodeError::JsonType { expected: "number" }),
        }
    }

    /// Returns the value as a `&str` if it is a string.
    pub fn as_str(&self) -> Result<&str, DecodeError> {
        match self {
            JsonValue::String(s) => Ok(s),
            _ => Err(DecodeError::JsonType { expected: "string" }),
        }
    }

    /// Returns the value as a bool if it is one.
    pub fn as_bool(&self) -> Result<bool, DecodeError> {
        match self {
            JsonValue::Bool(b) => Ok(*b),
            _ => Err(DecodeError::JsonType { expected: "bool" }),
        }
    }

    /// Returns the value as an array if it is one.
    pub fn as_array(&self) -> Result<&[JsonValue], DecodeError> {
        match self {
            JsonValue::Array(a) => Ok(a),
            _ => Err(DecodeError::JsonType { expected: "array" }),
        }
    }

    /// Returns the value as an object if it is one.
    pub fn as_object(&self) -> Result<&BTreeMap<String, JsonValue>, DecodeError> {
        match self {
            JsonValue::Object(o) => Ok(o),
            _ => Err(DecodeError::JsonType { expected: "object" }),
        }
    }

    /// Fetches a required object key.
    pub fn get(&self, key: &'static str) -> Result<&JsonValue, DecodeError> {
        self.as_object()?
            .get(key)
            .ok_or(DecodeError::JsonMissingKey(key))
    }
}

fn write_value(v: &JsonValue, out: &mut String) {
    match v {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(true) => out.push_str("true"),
        JsonValue::Bool(false) => out.push_str("false"),
        JsonValue::Number(n) => write_number(*n, out),
        JsonValue::String(s) => write_string(s, out),
        JsonValue::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        JsonValue::Object(map) => {
            out.push('{');
            for (i, (k, val)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_value(val, out);
            }
            out.push('}');
        }
    }
}

fn write_number(n: f64, out: &mut String) {
    if !n.is_finite() {
        // JSON has no NaN/Inf; emit null like lenient encoders do.
        out.push_str("null");
        return;
    }
    if n == n.trunc() && n.abs() < 1e15 {
        // Integral values print without a fractional part.
        out.push_str(&format!("{}", n as i64));
    } else {
        out.push_str(&format!("{n}"));
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, expected: &'static str) -> DecodeError {
        DecodeError::JsonSyntax {
            offset: self.pos,
            expected,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8, what: &'static str) -> Result<(), DecodeError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn parse_value(&mut self) -> Result<JsonValue, DecodeError> {
        if self.depth >= MAX_DEPTH {
            return Err(DecodeError::DepthLimitExceeded);
        }
        match self.peek().ok_or_else(|| self.err("a JSON value"))? {
            b'n' => self.parse_keyword(b"null", JsonValue::Null),
            b't' => self.parse_keyword(b"true", JsonValue::Bool(true)),
            b'f' => self.parse_keyword(b"false", JsonValue::Bool(false)),
            b'"' => Ok(JsonValue::String(self.parse_string()?)),
            b'[' => self.parse_array(),
            b'{' => self.parse_object(),
            b'-' | b'0'..=b'9' => self.parse_number(),
            _ => Err(self.err("a JSON value")),
        }
    }

    fn parse_keyword(&mut self, kw: &[u8], value: JsonValue) -> Result<JsonValue, DecodeError> {
        if self.bytes[self.pos..].starts_with(kw) {
            self.pos += kw.len();
            Ok(value)
        } else {
            Err(self.err("keyword"))
        }
    }

    fn parse_array(&mut self) -> Result<JsonValue, DecodeError> {
        self.expect(b'[', "'['")?;
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => break,
                _ => return Err(self.err("',' or ']'")),
            }
        }
        self.depth -= 1;
        Ok(JsonValue::Array(items))
    }

    fn parse_object(&mut self) -> Result<JsonValue, DecodeError> {
        self.expect(b'{', "'{'")?;
        self.depth += 1;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(JsonValue::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':', "':'")?;
            self.skip_ws();
            let value = self.parse_value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => break,
                _ => return Err(self.err("',' or '}'")),
            }
        }
        self.depth -= 1;
        Ok(JsonValue::Object(map))
    }

    fn parse_string(&mut self) -> Result<String, DecodeError> {
        self.expect(b'"', "'\"'")?;
        let mut out = String::new();
        loop {
            match self.bump().ok_or_else(|| self.err("closing '\"'"))? {
                b'"' => return Ok(out),
                b'\\' => {
                    match self.bump().ok_or_else(|| self.err("escape char"))? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0c}'),
                        b'u' => {
                            let hi = self.parse_hex4()?;
                            let c = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair: a following \uXXXX low half.
                                if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                    return Err(self.err("low surrogate"));
                                }
                                let lo = self.parse_hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err(self.err("valid low surrogate"));
                                }
                                let code = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                                char::from_u32(code).ok_or(DecodeError::InvalidUtf8)?
                            } else if (0xdc00..0xe000).contains(&hi) {
                                return Err(self.err("high surrogate first"));
                            } else {
                                char::from_u32(hi).ok_or(DecodeError::InvalidUtf8)?
                            };
                            out.push(c);
                        }
                        _ => return Err(self.err("valid escape")),
                    }
                }
                b if b < 0x20 => return Err(self.err("no raw control chars")),
                b if b < 0x80 => out.push(b as char),
                b => {
                    // Multi-byte UTF-8: validate by re-slicing.
                    let start = self.pos - 1;
                    let width = match b {
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        0xf0..=0xf7 => 4,
                        _ => return Err(DecodeError::InvalidUtf8),
                    };
                    if start + width > self.bytes.len() {
                        return Err(DecodeError::InvalidUtf8);
                    }
                    let s = std::str::from_utf8(&self.bytes[start..start + width])
                        .map_err(|_| DecodeError::InvalidUtf8)?;
                    out.push_str(s);
                    self.pos = start + width;
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, DecodeError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self.bump().ok_or_else(|| self.err("4 hex digits"))?;
            let d = match b {
                b'0'..=b'9' => u32::from(b - b'0'),
                b'a'..=b'f' => u32::from(b - b'a' + 10),
                b'A'..=b'F' => u32::from(b - b'A' + 10),
                _ => return Err(self.err("hex digit")),
            };
            v = (v << 4) | d;
        }
        Ok(v)
    }

    fn parse_number(&mut self) -> Result<JsonValue, DecodeError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: either a single 0 or [1-9][0-9]*.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("digit")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("fraction digit"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("exponent digit"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        // The scanned range is ASCII digits/signs, guaranteed UTF-8.
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| DecodeError::InvalidUtf8)?;
        let n: f64 = text.parse().map_err(|_| DecodeError::JsonSyntax {
            offset: start,
            expected: "a finite number",
        })?;
        Ok(JsonValue::Number(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> JsonValue {
        JsonValue::parse(s).unwrap()
    }

    #[test]
    fn parse_scalars() {
        assert_eq!(parse("null"), JsonValue::Null);
        assert_eq!(parse("true"), JsonValue::Bool(true));
        assert_eq!(parse("false"), JsonValue::Bool(false));
        assert_eq!(parse("0"), JsonValue::Number(0.0));
        assert_eq!(parse("-3.5e2"), JsonValue::Number(-350.0));
        assert_eq!(parse("\"hi\""), JsonValue::String("hi".into()));
    }

    #[test]
    fn parse_containers() {
        assert_eq!(parse("[]"), JsonValue::Array(vec![]));
        assert_eq!(parse("{}"), JsonValue::Object(BTreeMap::new()));
        let v = parse(r#"{"a": [1, 2], "b": {"c": null}}"#);
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(v.get("b").unwrap().get("c").unwrap(), &JsonValue::Null);
    }

    #[test]
    fn roundtrip_via_text() {
        let v = parse(r#"{"name":"wid\"get","price":9.99,"tags":["a","b"],"ok":true}"#);
        let text = v.to_string_compact();
        assert_eq!(parse(&text), v);
    }

    #[test]
    fn string_escapes() {
        let v = parse(r#""line\nbreak\ttabA\\\"""#);
        assert_eq!(v, JsonValue::String("line\nbreak\ttabA\\\"".into()));
        // Writer escapes control characters back out.
        let text = v.to_string_compact();
        assert!(text.contains("\\n"));
        assert!(text.contains("\\t"));
    }

    #[test]
    fn surrogate_pairs() {
        let v = parse(r#""🎉""#);
        assert_eq!(v, JsonValue::String("🎉".into()));
        // Lone surrogate is an error.
        assert!(JsonValue::parse(r#""\ud83c""#).is_err());
        assert!(JsonValue::parse(r#""\udf89""#).is_err());
    }

    #[test]
    fn unicode_passthrough() {
        let v = parse("\"héllo 🎉\"");
        assert_eq!(v, JsonValue::String("héllo 🎉".into()));
        assert_eq!(parse(&v.to_string_compact()), v);
    }

    #[test]
    fn syntax_errors() {
        for bad in [
            "", "{", "[1,", "[1 2]", "{\"a\"}", "{\"a\":}", "tru", "01", "1.", "1e", "+1", "'x'",
            "[1,]", "{,}", "\"\x01\"",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn trailing_input_rejected() {
        assert!(matches!(
            JsonValue::parse("1 2"),
            Err(DecodeError::TrailingBytes(_))
        ));
    }

    #[test]
    fn whitespace_tolerated() {
        assert_eq!(parse(" \t\n{ \"a\" : 1 } \r\n"), parse(r#"{"a":1}"#));
    }

    #[test]
    fn deep_nesting_rejected() {
        let s = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        assert_eq!(JsonValue::parse(&s), Err(DecodeError::DepthLimitExceeded));
        let ok = "[".repeat(MAX_DEPTH - 1) + &"]".repeat(MAX_DEPTH - 1);
        assert!(JsonValue::parse(&ok).is_ok());
    }

    #[test]
    fn integral_numbers_print_without_fraction() {
        assert_eq!(JsonValue::Number(5.0).to_string_compact(), "5");
        assert_eq!(JsonValue::Number(-2.0).to_string_compact(), "-2");
        assert_eq!(JsonValue::Number(2.5).to_string_compact(), "2.5");
    }

    #[test]
    fn nonfinite_numbers_become_null() {
        assert_eq!(JsonValue::Number(f64::NAN).to_string_compact(), "null");
        assert_eq!(JsonValue::Number(f64::INFINITY).to_string_compact(), "null");
    }

    #[test]
    fn type_errors_reported() {
        assert_eq!(
            parse("1").as_bool(),
            Err(DecodeError::JsonType { expected: "bool" })
        );
        assert_eq!(
            parse("[]").as_str(),
            Err(DecodeError::JsonType { expected: "string" })
        );
        assert_eq!(
            parse("{}").as_array(),
            Err(DecodeError::JsonType { expected: "array" })
        );
    }

    #[test]
    fn missing_key_error() {
        let v = parse(r#"{"a":1}"#);
        assert_eq!(v.get("b"), Err(DecodeError::JsonMissingKey("b")));
    }
}
