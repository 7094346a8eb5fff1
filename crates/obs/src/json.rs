//! The workspace's one JSON implementation: a value type, a parser, a
//! 2-space pretty writer, and the string escaper every hand-built reply
//! line uses. The serve wire protocol, the bench reports, and the
//! `tnet-trace/v1` export all go through here (DESIGN.md §12).
//!
//! Parser policy — every bad input is a [`JsonError`], never a panic:
//!
//! - nesting deeper than [`MAX_DEPTH`] containers is rejected, so a
//!   hostile `[[[…]]]` cannot overflow the stack;
//! - a duplicate object key is rejected, so no document reads two ways;
//! - a number that overflows `f64` to ±infinity (`1e309`) is rejected:
//!   JSON has no infinities, and one non-finite weight poisons every
//!   bin boundary downstream;
//! - strings take the full escape set, `\uXXXX` surrogate pairs
//!   included (a lone surrogate decodes to U+FFFD).

use std::collections::BTreeMap;
use std::fmt::{self, Write};

/// Deepest accepted nesting: a value may sit inside at most this many
/// arrays/objects. The deepest document the workspace writes (a trace
/// span tree, two levels per span) stays far below it.
pub const MAX_DEPTH: usize = 64;

/// A JSON value. Objects use a `BTreeMap` so serialization order is
/// deterministic — report diffs must come from numbers, not key
/// shuffles.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

/// Why a document failed to parse; the message names the byte offset
/// or the offending token.
#[derive(Clone, Debug, PartialEq)]
pub struct JsonError(String);

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for JsonError {}

fn err<T>(message: impl Into<String>) -> Result<T, JsonError> {
    Err(JsonError(message.into()))
}

impl Json {
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The JSON type name, for "expected X, got Y" messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }

    /// Serializes with 2-space indentation and a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent + 1);
        let close = "  ".repeat(indent);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            // JSON has no infinities or NaN; `null` keeps the document
            // parseable.
            Json::Num(n) if !n.is_finite() => out.push_str("null"),
            Json::Num(n) => {
                // Integers print without a trailing `.0`; everything else
                // keeps enough digits to round-trip the measurements.
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Json::Str(s) => write_quoted(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&pad);
                    item.write(out, indent + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                out.push_str(&close);
                out.push(']');
            }
            Json::Obj(map) => {
                if map.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in map.iter().enumerate() {
                    out.push_str(&pad);
                    write_quoted(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                    out.push_str(if i + 1 < map.len() { ",\n" } else { "\n" });
                }
                out.push_str(&close);
                out.push('}');
            }
        }
    }

    /// Parses one JSON document. Whitespace may surround the value;
    /// anything else after it is an error.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser { text, pos: 0 };
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != text.len() {
            return err(format!("trailing bytes after value at {}", p.pos));
        }
        Ok(v)
    }
}

/// `s` as a quoted JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_quoted(&mut out, s);
    out
}

/// The escaper: appends `s` to `out` as a quoted JSON string literal.
fn write_quoted(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------- parser

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return err(format!("JSON nested deeper than {MAX_DEPTH} levels"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.keyword("true", Json::Bool(true)),
            Some(b'f') => self.keyword("false", Json::Bool(false)),
            Some(b'n') => self.keyword("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(_) => {
                let c = self.text[self.pos..].chars().next().unwrap_or('?');
                err(format!("unexpected character {c:?} at byte {}", self.pos))
            }
            None => err("unexpected end of input"),
        }
    }

    fn keyword(&mut self, word: &str, val: Json) -> Result<Json, JsonError> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(val)
        } else {
            err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            Ok(_) => err(format!("number `{text}` overflows to infinity")),
            Err(_) => err(format!("bad number `{text}`")),
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let hex = self
            .text
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| JsonError("truncated \\u escape".into()))?;
        if !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
            return err(format!("bad \\u escape {hex:?}"));
        }
        self.pos += 4;
        Ok(u32::from_str_radix(hex, 16).unwrap_or(0xFFFD))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one go.
            let rest = &self.text[self.pos..];
            let run = rest.find(['"', '\\']).unwrap_or(rest.len());
            out.push_str(&rest[..run]);
            self.pos += run;
            match self.peek() {
                None => return err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => {}
            }
            // A backslash escape.
            self.pos += 1;
            let esc = self
                .peek()
                .ok_or_else(|| JsonError("unterminated escape".into()))?;
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'n' => out.push('\n'),
                b't' => out.push('\t'),
                b'r' => out.push('\r'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'u' => {
                    let mut code = self.hex4()?;
                    if (0xD800..0xDC00).contains(&code) && self.text[self.pos..].starts_with("\\u")
                    {
                        let save = self.pos;
                        self.pos += 2;
                        let low = self.hex4()?;
                        if (0xDC00..0xE000).contains(&low) {
                            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                        } else {
                            self.pos = save;
                        }
                    }
                    out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                }
                _ => {
                    let c = self.text[self.pos - 1..].chars().next().unwrap_or('?');
                    return err(format!("bad escape character {c:?}"));
                }
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value(depth + 1)?;
            if fields.contains_key(&key) {
                return err(format!("duplicate key {key:?}"));
            }
            fields.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        let v = Json::obj([
            ("name", Json::Str("fsg".into())),
            ("wall_ms", Json::Num(12.5)),
            ("iso_tests", Json::Num(20.0)),
            ("exact", Json::Bool(true)),
            (
                "items",
                Json::Arr(vec![Json::Num(1.0), Json::Null, Json::Str("x".into())]),
            ),
        ]);
        let text = v.pretty();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, v);
    }

    /// The writer's bytes for plain (escape-free) content are pinned:
    /// committed `BENCH_*.json` files and trace exports must not churn.
    #[test]
    fn pretty_output_is_pinned() {
        let v = Json::obj([
            ("schema", Json::Str("tnet-bench-miners/v1".into())),
            ("smoke", Json::Bool(false)),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(BTreeMap::new())),
            (
                "rows",
                Json::Arr(vec![
                    Json::obj([("wall_ms", Json::Num(12.5)), ("n", Json::Num(-3.0))]),
                    Json::Null,
                ]),
            ),
            ("big", Json::Num(1e15)),
            ("ratio", Json::Num(0.1)),
        ]);
        let want = "{\n  \"big\": 1000000000000000,\n  \"empty_arr\": [],\n  \
                    \"empty_obj\": {},\n  \"ratio\": 0.1,\n  \"rows\": [\n    {\n      \
                    \"n\": -3,\n      \"wall_ms\": 12.5\n    },\n    null\n  ],\n  \
                    \"schema\": \"tnet-bench-miners/v1\",\n  \"smoke\": false\n}\n";
        assert_eq!(v.pretty(), want);
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "",
            "{\"a\": }",
            "[1, 2",
            "{} trailing",
            "\"unterminated",
            "\"bad \\q escape\"",
            "\"\\u12\"",
            "tru",
            "-",
            "{1: 2}",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn overflowing_numbers_are_rejected() {
        for bad in ["1e309", "-1e309", "[1, 2e400]", "{\"weight\": 1e309}"] {
            let e = Json::parse(bad).unwrap_err();
            assert!(e.to_string().contains("infinity"), "{bad}: {e}");
        }
        // Underflow to zero and the largest finite value are fine.
        assert_eq!(Json::parse("1e-400").unwrap(), Json::Num(0.0));
        assert_eq!(
            Json::parse("1.7976931348623157e308").unwrap(),
            Json::Num(f64::MAX)
        );
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        let e = Json::parse(r#"{"op":"ping","op":"stats"}"#).unwrap_err();
        assert!(e.to_string().contains("duplicate key \"op\""), "{e}");
        // Same key at different levels is not a duplicate.
        assert!(Json::parse(r#"{"a":{"a":1}}"#).is_ok());
    }

    /// Input echoed into a message is Debug-escaped, so every error
    /// stays one line (the CLI's one-line-stderr contract).
    #[test]
    fn error_messages_are_one_line() {
        for bad in [
            "{\"a\\nb\": 1, \"a\\nb\": 2}",
            "{\"a\nb\": 1, \"a\nb\": 2}",
            "\"\\u12\n4\"",
            "\"\\\n\"",
            "[1, \u{b}]",
        ] {
            let e = Json::parse(bad).unwrap_err().to_string();
            assert!(!e.contains('\n'), "{bad:?}: {e:?}");
        }
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nest = |d: usize| format!("{}1{}", "[".repeat(d), "]".repeat(d));
        assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
        for d in [MAX_DEPTH + 1, 200_000] {
            let e = Json::parse(&nest(d)).unwrap_err();
            assert!(e.to_string().contains("nested deeper"), "{e}");
        }
        let obj = format!("{}1{}", "{\"k\":".repeat(200_000), "}".repeat(200_000));
        assert!(Json::parse(&obj).is_err());
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = Json::parse(r#""a\"b\\c\nd\u0041\/\b\f\r\t""#).unwrap();
        assert_eq!(v, Json::Str("a\"b\\c\ndA/\u{8}\u{c}\r\t".to_string()));
        let s = "a\"b\\c\nd\u{1}é\u{1F69A}";
        assert_eq!(quote(s), "\"a\\\"b\\\\c\\nd\\u0001é\u{1F69A}\"");
        assert_eq!(Json::parse(&quote(s)).unwrap(), Json::Str(s.to_string()));
        // Escaped surrogate pairs combine; a lone surrogate is replaced.
        assert_eq!(
            Json::parse(r#""\ud83d\ude9a""#).unwrap(),
            Json::Str("\u{1F69A}".into())
        );
        assert_eq!(
            Json::parse(r#""\ud83dx""#).unwrap(),
            Json::Str("\u{FFFD}x".into())
        );
        // Keys go through the same escaper.
        let v = Json::Obj([(s.to_string(), Json::Null)].into_iter().collect());
        assert_eq!(Json::parse(&v.pretty()).unwrap(), v);
    }
}
