//! A minimal JSON value, parser, and writer for the `forayd` line protocol.
//!
//! The workspace builds without network access, so there is no `serde`;
//! this module implements exactly the JSON subset the protocol needs:
//!
//! * values: `null`, booleans, **integers** (i64), strings, arrays,
//!   objects;
//! * objects preserve insertion order (the writer is deterministic);
//! * non-integer numbers are rejected at parse time with a typed error —
//!   nothing in the protocol is a float, and refusing them early keeps
//!   cache keys and golden tests exact.
//!
//! Parsing is a single-pass recursive descent with a depth limit (a
//! malicious `[[[[...` line must not blow the daemon's stack).

use std::fmt;

/// Maximum nesting depth the parser accepts.
const MAX_DEPTH: u32 = 64;

/// A parsed JSON value (integer-only numbers; see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (the protocol has no floats).
    Int(i64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

/// A parse failure: byte offset plus reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input line.
    pub offset: usize,
    /// Human-readable reason.
    pub reason: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.reason)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses one complete JSON value; trailing non-whitespace is an error.
    ///
    /// # Errors
    ///
    /// [`JsonError`] with the byte offset of the first problem.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser { src: input, pos: 0 };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.src.len() {
            return Err(p.err("trailing characters after the value"));
        }
        Ok(value)
    }

    /// Looks a key up in an object (`None` for absent keys or non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The integer payload as `u64`, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_i64().and_then(|n| u64::try_from(n).ok())
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Renders the value as compact JSON (no whitespace), deterministically.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(n) => out.push_str(&n.to_string()),
            Json::Str(s) => write_json_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Writes `s` as a quoted, escaped JSON string.
pub fn write_json_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Convenience: an object from `(key, value)` pairs.
pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, reason: &str) -> JsonError {
        JsonError { offset: self.pos, reason: reason.to_owned() }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.src.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self, depth: u32) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(self.err("non-integer numbers are not part of the protocol"));
        }
        let text = &self.src[start..self.pos];
        text.parse::<i64>().map(Json::Int).map_err(|_| JsonError {
            offset: start,
            reason: format!("`{text}` is not a valid integer"),
        })
    }

    /// Parses a string in one pass: each run of bytes that are not `"`,
    /// `\` or a control character is appended in one step, so a line's
    /// cost is linear in its length.
    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let rest = &self.src.as_bytes()[self.pos..];
            let run = rest.iter().position(|&c| c == b'"' || c == b'\\' || c < 0x20);
            let end = self.pos + run.unwrap_or(rest.len());
            // The run ends at an ASCII byte or at the end of the input, so
            // both of its ends are character boundaries.
            out.push_str(&self.src[self.pos..end]);
            self.pos = end;
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
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .src
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            // Four hex digits: `from_str_radix` alone
                            // would also take a leading `+`.
                            let code = Some(hex)
                                .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            // Surrogates are rejected rather than paired:
                            // the protocol never emits them.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("raw control character in string")),
            }
        }
    }

    fn array(&mut self, depth: u32) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self, depth: u32) -> Result<Json, JsonError> {
        self.expect(b'{')?;
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
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_round_trip() {
        for line in [
            "null",
            "true",
            "false",
            "0",
            "-42",
            "9007199254740993",
            "\"hi\"",
            "[]",
            "[1,2,3]",
            "{}",
            "{\"a\":1,\"b\":[true,null],\"c\":{\"d\":\"e\"}}",
        ] {
            let v = Json::parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(v.render(), line, "round trip of {line}");
            // Re-parsing the render is a fixpoint.
            assert_eq!(Json::parse(&v.render()).unwrap(), v);
        }
    }

    #[test]
    fn whitespace_and_escapes_parse() {
        let v = Json::parse(" { \"k\" : [ 1 , \"a\\n\\\"b\\u0041\" ] } ").unwrap();
        assert_eq!(
            v.get("k").unwrap(),
            &Json::Arr(vec![Json::Int(1), Json::Str("a\n\"bA".to_owned())])
        );
        // Escapes re-render escaped.
        assert_eq!(Json::Str("a\nb\"".to_owned()).render(), "\"a\\nb\\\"\"");
        assert_eq!(Json::Str("\u{1}".to_owned()).render(), "\"\\u0001\"");
    }

    #[test]
    fn malformed_inputs_get_typed_errors() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "1.5",
            "1e3",
            "\"unterminated",
            "\"bad \\q escape\"",
            "[1] trailing",
            "nan",
            "+1",
            "00x",
            "\u{1}",
        ] {
            let err = Json::parse(bad).unwrap_err();
            assert!(!err.reason.is_empty(), "{bad:?} -> {err}");
        }
        // Deep nesting is bounded, not a stack overflow.
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        assert!(Json::parse(&deep).unwrap_err().reason.contains("deep"));
    }

    #[test]
    fn a_unicode_escape_is_exactly_four_hex_digits() {
        for bad in ["\"\\u+041\"", "\"\\u-041\"", "\"\\u 041\""] {
            assert_eq!(Json::parse(bad).unwrap_err().reason, "bad \\u escape", "{bad}");
        }
        assert_eq!(Json::parse("\"\\u0041\"").unwrap(), Json::Str("A".to_owned()));
    }

    #[test]
    fn accessors_are_typed() {
        let v = Json::parse("{\"s\":\"x\",\"n\":3,\"b\":true,\"neg\":-1}").unwrap();
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("neg").and_then(Json::as_i64), Some(-1));
        assert_eq!(v.get("neg").and_then(Json::as_u64), None, "negative is not a u64");
        assert_eq!(v.get("b").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Int(1).get("x"), None, "non-objects have no keys");
    }

    /// Long plain runs alternate with escapes, and multi-byte characters
    /// sit at both edges of every run.
    #[test]
    fn long_runs_between_escapes_parse_exactly() {
        let run = "for (i = 0; i < n; i++) { a[i] = i; } ".repeat(100);
        let escapes = [
            ("\\n", "\n"),
            ("\\\"", "\""),
            ("\\u0041", "A"),
            ("\\u00e9", "é"),
            ("\\u0001", "\u{1}"),
            ("\\\\", "\\"),
            ("\\/", "/"),
        ];
        let edges = ["é", "→", "世", "😀"];
        let (mut line, mut want) = (String::from("\""), String::new());
        for i in 0..64 {
            let (escaped, plain) = escapes[i % escapes.len()];
            let edge = edges[i % edges.len()];
            for (out, esc) in [(&mut line, escaped), (&mut want, plain)] {
                out.push_str(edge);
                out.push_str(&run);
                out.push_str(edge);
                out.push_str(esc);
            }
        }
        line.push('"');
        let parsed = Json::parse(&line).unwrap();
        assert_eq!(parsed.as_str(), Some(want.as_str()));
        assert_eq!(Json::parse(&parsed.render()).unwrap(), parsed, "the writer's escapes too");
        // A raw control character ends a run as an error, not as text.
        let raw = format!("\"{run}\u{1f}{run}\"");
        assert_eq!(Json::parse(&raw).unwrap_err().offset, 1 + run.len());
    }

    #[test]
    fn unicode_survives_the_round_trip() {
        let v = Json::parse("\"héllo → 世界\"").unwrap();
        assert_eq!(v.as_str(), Some("héllo → 世界"));
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
    }
}
