//! A minimal JSON reader for the service's own wire format.
//!
//! The build environment has no network crates and no `serde_json`; the
//! service emits JSON by hand (same style as [`crate::report`]) and this
//! module parses it back — for the CLI client, the integration tests, and
//! anything else that consumes the API. It is a strict recursive-descent
//! parser over the JSON subset the service produces: objects, arrays,
//! strings with the common escapes, `f64` numbers, booleans and null.
//!
//! # Example
//!
//! ```
//! use malec_serve::json::parse;
//!
//! let v = parse(r#"{"job": 3, "state": "done", "cells": [1, 2]}"#).unwrap();
//! assert_eq!(v.get("job").and_then(|j| j.as_u64()), Some(3));
//! assert_eq!(v.get("state").and_then(|s| s.as_str()), Some("done"));
//! assert_eq!(v.get("cells").and_then(|c| c.as_array()).map(Vec::len), Some(2));
//! ```

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Clone, PartialEq, Debug)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`; integral values up to 2^53 are
    /// exact, far beyond any id or counter the API serves).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object (key order is not preserved; the API never relies on it).
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as an unsigned integer, if this is a
    /// non-negative integral number small enough (< 2^53) for the `f64`
    /// representation to be exact.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n < 9_007_199_254_740_992.0 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    #[cfg(test)]
    pub(crate) fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The members, if this is an object.
    fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Object member lookup (`None` for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|o| o.get(key))
    }
}

/// A parse failure with a byte offset.
#[derive(Clone, Debug)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input where it went wrong.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
///
/// # Errors
///
/// Returns a [`JsonError`] locating the first syntax problem.
pub fn parse(input: &str) -> Result<Value, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after the document"));
    }
    Ok(v)
}

/// Maximum container nesting. The parser recurses once per `{`/`[`, so
/// without a bound a body like `[[[[…` — one byte per level — overflows
/// the thread stack long before any size limit trips. The service's own
/// documents nest 3–4 levels; 128 is generous headroom while keeping the
/// worst-case recursion depth trivially stack-safe.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Current container nesting depth (bounded by [`MAX_DEPTH`]).
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            message: message.into(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, JsonError> {
        let rest = self.bytes.get(self.pos..).unwrap_or_default();
        if rest.starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    /// Bumps the nesting depth on container entry; errors instead of
    /// recursing past [`MAX_DEPTH`] (the guard against stack overflow on
    /// adversarial `[[[[…` bodies).
    fn enter(&mut self) -> Result<(), JsonError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        Ok(())
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.eat(b'{')?;
        self.enter()?;
        let mut members = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Object(members));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.eat(b'[')?;
        self.enter()?;
        let mut elements = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Array(elements));
        }
        loop {
            self.skip_ws();
            elements.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Array(elements));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            // The service never emits surrogate pairs
                            // (escapes cover only control characters).
                            let c = char::from_u32(hex)
                                .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8 passes through untouched: find the
                    // char at this byte offset and copy it whole.
                    let rest = self.bytes.get(self.pos..).unwrap_or_default();
                    let s = std::str::from_utf8(rest)
                        .map_err(|_| self.err("string is not valid UTF-8"))?;
                    let Some(c) = s.chars().next() else {
                        return Err(self.err("unterminated string"));
                    };
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+')) {
            self.pos += 1;
        }
        // A `-` consumed inside an exponent (`1e-3`) is part of the number
        // too; the digit loop above stops at it, so pick it up and continue.
        if matches!(self.peek(), Some(b'-'))
            && matches!(self.bytes.get(self.pos - 1), Some(b'e' | b'E'))
        {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = self
            .bytes
            .get(start..self.pos)
            .and_then(|t| std::str::from_utf8(t).ok())
            .ok_or_else(|| self.err("bad number"))?;
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| self.err(format!("bad number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_service_shapes() {
        let v = parse(
            r#"{
  "bench": "malec_scenario_sweep",
  "wall_seconds": 0.1234,
  "replay_matches_generator": true,
  "cells": [
    {"config": "MALEC", "cycles": 12345, "digest": "0x0123456789abcdef"},
    {"config": "Base1ldst", "cycles": 23456, "digest": "0xfedcba9876543210"}
  ],
  "nothing": null
}"#,
        )
        .expect("parses");
        assert_eq!(
            v.get("bench").and_then(Value::as_str),
            Some("malec_scenario_sweep")
        );
        assert_eq!(v.get("wall_seconds").and_then(Value::as_f64), Some(0.1234));
        assert_eq!(
            v.get("replay_matches_generator").and_then(Value::as_bool),
            Some(true)
        );
        let cells = v.get("cells").and_then(Value::as_array).expect("array");
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[1].get("cycles").and_then(Value::as_u64), Some(23456));
        assert_eq!(v.get("nothing"), Some(&Value::Null));
    }

    #[test]
    fn escapes_roundtrip() {
        let v = parse(r#""a\"b\\c\ndA""#).expect("parses");
        assert_eq!(v.as_str(), Some("a\"b\\c\ndA"));
    }

    #[test]
    fn numbers_parse() {
        for (doc, want) in [
            ("0", 0.0),
            ("-12", -12.0),
            ("3.5", 3.5),
            ("1e3", 1000.0),
            ("2.5e-2", 0.025),
        ] {
            assert_eq!(parse(doc).expect(doc).as_f64(), Some(want), "{doc}");
        }
        // Beyond 2^53 the f64 representation stops being exact, so as_u64
        // refuses rather than silently rounding.
        assert_eq!(parse("18446744073709551616").unwrap().as_u64(), None);
    }

    #[test]
    fn rejects_malformed_documents() {
        for doc in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "\"unterminated",
            "tru",
            "1 2",
            "{\"a\": }",
            "nul",
        ] {
            assert!(parse(doc).is_err(), "`{doc}` must be rejected");
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        // One byte per recursion level: without the depth guard, 100k open
        // brackets overflow a worker thread's stack. With it, this is a
        // clean parse error.
        for open in ["[", "{\"k\":"] {
            let doc = open.repeat(100_000);
            let err = parse(&doc).expect_err("must error, never crash");
            assert!(err.message.contains("nesting"), "{err}");
        }
        // Nesting at the limit still parses.
        let ok = format!("{}1{}", "[".repeat(128), "]".repeat(128));
        assert!(parse(&ok).is_ok(), "128 levels are within the bound");
        let too_deep = format!("{}1{}", "[".repeat(129), "]".repeat(129));
        assert!(parse(&too_deep).is_err());
    }

    #[test]
    fn unicode_passthrough() {
        let v = parse("\"caf\u{e9} — ✓\"").expect("parses");
        assert_eq!(v.as_str(), Some("café — ✓"));
    }

    /// The request-path hardening conversions: every site that used to
    /// index or `expect` on request-derived bytes must now answer these
    /// adversarial documents with a clean `Err`, never a panic.
    #[test]
    fn truncated_documents_error_cleanly() {
        // literal(): keyword cut at end of input (the old unchecked
        // `bytes[pos..]` slice site).
        for doc in ["t", "tru", "fals", "n", "nul"] {
            assert!(parse(doc).is_err(), "{doc:?} must be a parse error");
        }
        // number(): a bare sign parses no digits (the old
        // `expect("ASCII digits")` site must surface `bad number`).
        for doc in ["-", "-e", "1e", "."] {
            let err = parse(doc).expect_err("bad number must error");
            assert!(
                err.message.contains("number") || err.message.contains("character"),
                "{err}"
            );
        }
        // string(): escapes and quotes cut at end of input (the old
        // `expect("peeked a byte")` neighborhood).
        for doc in ["\"", "\"\\", "\"\\u", "\"\\u00", "\"abc"] {
            assert!(parse(doc).is_err(), "{doc:?} must be a parse error");
        }
    }
}
