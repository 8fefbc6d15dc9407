//! A minimal JSON value, recursive-descent parser and writer.
//!
//! Exists so that telemetry exports, round-trip tests and the bench
//! artifacts can read and write JSON without an external dependency (no
//! registry mirror is reachable from the build environment — see
//! `vendor/`). Supports the full JSON grammar except `\u` surrogate pairs,
//! which none of our exports produce.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, held as `f64`.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Key order is preserved as written; duplicate keys are
    /// kept (lookup returns the first).
    Obj(Vec<(String, Json)>),
}

/// A parse failure: byte offset and a short message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: &'static str,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

impl Json {
    /// Parses `input` as a single JSON document (trailing whitespace
    /// allowed, trailing garbage rejected).
    pub fn parse(input: &str) -> Result<Json, ParseError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(value)
    }

    /// Object field lookup (first match); `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The boolean, if this is `true`/`false`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// An object from `(key, value)` pairs, in order.
    pub fn obj<'k>(fields: impl IntoIterator<Item = (&'k str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Renders the value as JSON text in the layout of the `BENCH_*.json`
    /// artifacts: a top-level container puts one member per line, and so
    /// does an array of containers directly beneath it (one row per line);
    /// everything deeper stays on its row's line. [`Json::parse`] reads the
    /// text back to an equal value.
    pub fn write(&self) -> String {
        let mut out = String::new();
        self.write_at(&mut out, 0);
        out
    }

    fn write_at(&self, out: &mut String, depth: usize) {
        let members: Vec<(Option<&str>, &Json)> = match self {
            Json::Null => return out.push_str("null"),
            Json::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => return out.push_str(&number(*n)),
            Json::Str(s) => return out.push_str(&quote(s)),
            Json::Arr(items) => items.iter().map(|v| (None, v)).collect(),
            Json::Obj(fields) => fields.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
        };
        let is_obj = matches!(self, Json::Obj(_));
        let rows = !is_obj
            && members
                .iter()
                .any(|(_, v)| matches!(v, Json::Arr(_) | Json::Obj(_)));
        let multiline = !members.is_empty() && (depth == 0 || (depth == 1 && rows));
        let indent = |d: usize| format!("\n{}", "  ".repeat(d));
        let (first, between, last) = if multiline {
            let inner = indent(depth + 1);
            (inner.clone(), format!(",{inner}"), indent(depth))
        } else {
            let pad = if is_obj && !members.is_empty() {
                " "
            } else {
                ""
            };
            (pad.to_string(), ", ".to_string(), pad.to_string())
        };
        out.push(if is_obj { '{' } else { '[' });
        out.push_str(&first);
        for (i, (key, v)) in members.into_iter().enumerate() {
            if i > 0 {
                out.push_str(&between);
            }
            if let Some(k) = key {
                let _ = write!(out, "{}: ", quote(k));
            }
            v.write_at(out, depth + 1);
        }
        out.push_str(&last);
        out.push(if is_obj { '}' } else { ']' });
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(n as f64)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

/// JSON string literal with escaping.
pub(crate) fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number literal: Rust's shortest-round-trip `{}` format is valid
/// JSON for finite values; non-finite values (which [`crate::observe`]
/// already filters) degrade to 0 rather than emitting invalid tokens.
pub(crate) fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &'static str) -> ParseError {
        ParseError {
            offset: self.pos,
            message,
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

    fn expect_byte(&mut self, byte: u8, message: &'static str) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn literal(&mut self, word: &'static str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect_byte(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect_byte(b'{', "expected '{'")?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':', "expected ':' after object key")?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect_byte(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy runs of plain bytes in one go.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("\\u escape is not a scalar value"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse(" false ").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::Num(42.0));
        assert_eq!(Json::parse("-2.5e2").unwrap(), Json::Num(-250.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(r#"{"a": [1, {"b": "x"}, null], "c": true}"#).unwrap();
        let arr = v.get("a").and_then(Json::as_array).unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].get("b").and_then(Json::as_str), Some("x"));
        assert_eq!(arr[2], Json::Null);
        assert_eq!(v.get("c").and_then(Json::as_bool), Some(true));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn unescapes_strings() {
        let v = Json::parse(r#""a\"b\\c\ndA""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndA"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "\"open",
            "01x",
            "nul",
            "[1] extra",
            "{'a': 1}",
        ] {
            assert!(Json::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    fn arr<T: Into<Json>>(items: Vec<T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }

    #[test]
    fn written_values_parse_back_equal() {
        let v = Json::obj([
            ("schema", "hd-bench/x/v1".into()),
            ("none", Json::Null),
            ("flags", arr(vec![true, false])),
            ("ints", arr(vec![0usize, 7, 35908])),
            ("fracs", arr(vec![0.25, -2.5e-7, 6.36, 1.0 / 3.0, 1e300])),
            ("escapes", "q\" b\\ n\n t\t r\r c\u{1} é".into()),
            ("empty", Json::obj([])),
            ("nothing", Json::Arr(vec![])),
            (
                "rows",
                arr(vec![
                    Json::obj([
                        ("id", "serial".into()),
                        ("requested", Some(1usize).into()),
                        ("inner", Json::obj([("deep", arr(vec![Json::Null]))])),
                    ]),
                    Json::obj([("requested", None::<usize>.into())]),
                ]),
            ),
        ]);
        let text = v.write();
        assert_eq!(Json::parse(&text).unwrap(), v, "{text}");
        let nan = Json::Num(f64::NAN).write();
        assert_eq!(Json::parse(&nan).unwrap(), Json::Num(0.0));
    }

    #[test]
    fn writes_the_artifact_layout() {
        let row = Json::obj([("a", 1usize.into()), ("s", arr(vec![0.5]))]);
        let v = Json::obj([
            ("bench", "b".into()),
            ("rows", arr(vec![row])),
            ("memory", Json::obj([("n", 2usize.into())])),
            ("empty", Json::Arr(vec![])),
        ]);
        assert_eq!(
            v.write(),
            "{\n  \"bench\": \"b\",\n  \"rows\": [\n    { \"a\": 1, \"s\": [0.5] }\n  ],\n  \
             \"memory\": { \"n\": 2 },\n  \"empty\": []\n}"
        );
    }

    #[test]
    fn empty_containers() {
        assert_eq!(Json::parse("[]").unwrap(), Json::Arr(vec![]));
        assert_eq!(Json::parse("{ }").unwrap(), Json::Obj(vec![]));
    }
}
