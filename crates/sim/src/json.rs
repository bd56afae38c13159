//! A minimal JSON value — build, render, parse — with no external
//! dependencies.
//!
//! The telemetry plane ([`crate::metrics`]) and the bench exporter emit
//! JSON/JSONL; the CI schema validator parses it back. The workspace's
//! dependency policy (see DESIGN.md) keeps serialization hand-rolled, so
//! this module is the single shared implementation: a [`Value`] tree, a
//! writer that escapes strings per RFC 8259, and a recursive-descent
//! parser sufficient for round-tripping our own output (and any sane
//! JSON document).
//!
//! Numbers are stored as `f64`; counters in this codebase stay far below
//! 2^53, where that representation is exact.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (integers render without a fractional part).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// Insertion-ordered object (we never need hashing, and stable order
    /// makes output diffable).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Shorthand for building an object from `(key, value)` pairs.
    pub fn obj(pairs: Vec<(&str, Value)>) -> Value {
        Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up a key in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders compactly (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Renders with `indent`-space indentation (human-readable files).
    pub fn render_pretty(&self, indent: usize) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(indent), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(x) => write_num(out, *x),
            Value::Str(s) => write_escaped(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    newline_indent(out, indent, depth);
                }
                out.push(']');
            }
            Value::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                if !pairs.is_empty() {
                    newline_indent(out, indent, depth);
                }
                out.push('}');
            }
        }
    }
}

impl From<u64> for Value {
    fn from(x: u64) -> Value {
        Value::Num(x as f64)
    }
}

impl From<usize> for Value {
    fn from(x: usize) -> Value {
        Value::Num(x as f64)
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Value {
        Value::Num(x)
    }
}

impl From<bool> for Value {
    fn from(x: bool) -> Value {
        Value::Bool(x)
    }
}

impl From<&str> for Value {
    fn from(x: &str) -> Value {
        Value::Str(x.to_string())
    }
}

impl From<String> for Value {
    fn from(x: String) -> Value {
        Value::Str(x)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(w) = indent {
        out.push('\n');
        for _ in 0..w * depth {
            out.push(' ');
        }
    }
}

fn write_num(out: &mut String, x: f64) {
    if !x.is_finite() {
        // JSON has no NaN/Inf; null is the conventional stand-in.
        out.push_str("null");
    } else if x == x.trunc() && x.abs() < 9e15 {
        out.push_str(&format!("{}", x as i64));
    } else {
        out.push_str(&format!("{x}"));
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Walks a document and records every non-finite number with its path
/// (e.g. `$.latency.p99` or `$.entries[3]`). JSON has no `inf`/`NaN` —
/// [`Value::render`] writes them as `null`, silently changing the
/// document's type structure — so exporters and schema validators call
/// this before (respectively after) the file exists. Empty `errs`
/// growth means the document is clean.
pub fn check_finite(v: &Value, path: &str, errs: &mut Vec<String>) {
    match v {
        Value::Num(x) if !x.is_finite() => {
            errs.push(format!("{path}: non-finite number {x}"));
        }
        Value::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                check_finite(item, &format!("{path}[{i}]"), errs);
            }
        }
        Value::Obj(pairs) => {
            for (k, item) in pairs {
                check_finite(item, &format!("{path}.{k}"), errs);
            }
        }
        _ => {}
    }
}

/// Parses a JSON document. Errors carry a byte offset and message.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

/// A JSON parse failure: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure in the input.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            at: self.pos,
            msg: msg.to_string(),
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

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid utf-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogates would need pairing; our own output
                            // never emits them, so map to the replacement
                            // character rather than failing the document.
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_values() {
        let v = Value::obj(vec![
            ("name", "scan \"retry\"\n".into()),
            ("count", 42u64.into()),
            ("ratio", 0.5.into()),
            ("ok", true.into()),
            ("none", Value::Null),
            (
                "items",
                Value::Arr(vec![1u64.into(), 2u64.into(), Value::Arr(vec![])]),
            ),
            ("empty", Value::Obj(vec![])),
        ]);
        let compact = v.render();
        assert_eq!(parse(&compact).unwrap(), v);
        let pretty = v.render_pretty(2);
        assert_eq!(parse(&pretty).unwrap(), v);
    }

    #[test]
    fn renders_integers_without_exponent() {
        assert_eq!(Value::from(1_000_000u64).render(), "1000000");
        assert_eq!(Value::from(0u64).render(), "0");
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let v = parse(" { \"a\" : [ 1 , -2.5e1 ] , \"s\" : \"x\\u0041\\n\" } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1], Value::Num(-25.0));
        assert_eq!(v.get("s").unwrap().as_str().unwrap(), "xA\n");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} extra").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn accessors() {
        let v = parse("{\"x\": 3, \"s\": \"hi\"}").unwrap();
        assert_eq!(v.get("x").unwrap().as_num(), Some(3.0));
        assert_eq!(v.get("s").unwrap().as_str(), Some("hi"));
        assert!(v.get("missing").is_none());
        assert!(v.get("x").unwrap().as_str().is_none());
    }

    /// Deterministic splitmix64 — the test is a seeded fuzzer, not a
    /// statistical one, so reproducibility beats entropy.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        }

        fn string(&mut self) -> String {
            // Bias hard toward the characters the escaper must handle.
            const POOL: &[char] = &[
                '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{1f}', 'a', 'é', '→', '𝄞', ' ', '/',
            ];
            let len = (self.next() % 12) as usize;
            (0..len)
                .map(|_| POOL[(self.next() as usize) % POOL.len()])
                .collect()
        }

        fn value(&mut self, depth: usize) -> Value {
            let reach = if depth == 0 { 6 } else { 4 };
            match self.next() % reach {
                0 => Value::Null,
                1 => Value::Bool(self.next().is_multiple_of(2)),
                2 => match self.next() % 3 {
                    // Integers (the dominant case in telemetry), small
                    // floats, and floats needing shortest-round-trip.
                    0 => Value::Num((self.next() % 1_000_000) as f64),
                    1 => Value::Num((self.next() % 1000) as f64 / 8.0),
                    _ => Value::Num(f64::from_bits(
                        // Clamp the exponent into the finite range.
                        (self.next() & 0x3fff_ffff_ffff_ffff) | 0x3ff0_0000_0000_0000,
                    )),
                },
                3 => Value::Str(self.string()),
                4 => {
                    let len = (self.next() % 5) as usize;
                    Value::Arr((0..len).map(|_| self.value(depth + 1)).collect())
                }
                _ => {
                    let len = (self.next() % 5) as usize;
                    Value::Obj(
                        (0..len)
                            .map(|i| (format!("k{i}_{}", self.string()), self.value(depth + 1)))
                            .collect(),
                    )
                }
            }
        }
    }

    #[test]
    fn fuzzed_values_round_trip_through_render_and_parse() {
        let mut g = Gen(0xb41c_5eed);
        for case in 0..500 {
            let v = g.value(0);
            let mut errs = Vec::new();
            check_finite(&v, "$", &mut errs);
            assert!(errs.is_empty(), "generator only makes finite numbers");
            let compact = v.render();
            assert_eq!(
                parse(&compact).unwrap(),
                v,
                "case {case}: compact round trip of {compact}"
            );
            let pretty = v.render_pretty(2);
            assert_eq!(
                parse(&pretty).unwrap(),
                v,
                "case {case}: pretty round trip of {pretty}"
            );
        }
    }

    #[test]
    fn check_finite_names_the_offending_path() {
        let v = Value::obj(vec![
            ("ok", 1u64.into()),
            ("latency", Value::obj(vec![("p99", Value::Num(f64::NAN))])),
            (
                "series",
                Value::Arr(vec![0u64.into(), Value::Num(f64::INFINITY)]),
            ),
        ]);
        let mut errs = Vec::new();
        check_finite(&v, "$", &mut errs);
        assert_eq!(errs.len(), 2, "{errs:?}");
        assert!(errs[0].contains("$.latency.p99"), "{errs:?}");
        assert!(errs[1].contains("$.series[1]"), "{errs:?}");
        // The renderer's stand-in for non-finite numbers is null — the
        // type change check_finite exists to catch before it happens.
        assert_eq!(Value::Num(f64::NAN).render(), "null");
    }
}
