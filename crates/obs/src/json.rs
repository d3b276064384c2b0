//! A minimal std-only JSON value and recursive-descent parser.
//!
//! The vendored `serde` is a derive stand-in, not a parser, so everything
//! in the workspace that must *read* JSON — the Chrome-trace validator in
//! [`crate::chrome`], the `svt-serve` request bodies — goes through this
//! module. It parses the full JSON grammar (objects keep document order,
//! numbers are `f64`) and is deliberately small. Request bodies are
//! untrusted, so the parser rejects malformed text with a positioned
//! error rather than guessing, and rejects nesting deeper than
//! [`MAX_DEPTH`] before its recursion can exhaust a thread's stack.
//!
//! # Examples
//!
//! ```
//! use svt_obs::json::JsonValue;
//!
//! let doc = JsonValue::parse(r#"{"edit": {"dx_nm": -120.5, "ok": true}}"#)?;
//! let edit = doc.get("edit").expect("object field");
//! assert_eq!(edit.get("dx_nm").and_then(JsonValue::as_f64), Some(-120.5));
//! assert_eq!(edit.get("ok").and_then(JsonValue::as_bool), Some(true));
//! # Ok::<(), String>(())
//! ```

/// The deepest array/object nesting [`JsonValue::parse`] accepts. The
/// parser recurses once per level, so this bounds its stack use; the
/// documents the workspace reads nest at most four deep.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always carried as `f64`).
    Number(f64),
    /// A string, with escapes resolved.
    String(String),
    /// An array, document order.
    Array(Vec<JsonValue>),
    /// An object as `(key, value)` pairs, document order (duplicate keys
    /// are kept; [`JsonValue::get`] returns the first).
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses a complete JSON document (trailing bytes are an error).
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax error, with its byte
    /// offset; nesting deeper than [`MAX_DEPTH`] is one.
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        JsonParser::new(text).parse_document()
    }

    /// The value of an object field, if this is an object containing it.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if this is a number
    /// that is one (no fractional part, not negative).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            JsonValue::Number(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The items, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The fields, if this is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(fields) => Some(fields),
            _ => None,
        }
    }
}

/// Escapes a string for embedding inside a JSON string literal.
#[must_use]
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonParser<'a> {
    fn new(text: &'a str) -> JsonParser<'a> {
        JsonParser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn parse_document(mut self) -> Result<JsonValue, String> {
        let value = self.parse_value(0)?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(format!("trailing bytes at offset {}", self.pos));
        }
        Ok(value)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_string())
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek()? == byte {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at offset {}",
                char::from(byte),
                self.pos
            ))
        }
    }

    /// Parses the value at the cursor, `depth` arrays and objects deep.
    fn parse_value(&mut self, depth: usize) -> Result<JsonValue, String> {
        match self.peek()? {
            b'{' | b'[' if depth == MAX_DEPTH => {
                let at = self.pos;
                Err(format!(
                    "nesting deeper than {MAX_DEPTH} levels at offset {at}"
                ))
            }
            b'{' => self.parse_object(depth + 1),
            b'[' => self.parse_array(depth + 1),
            b'"' => Ok(JsonValue::String(self.parse_string()?)),
            b't' => self.parse_literal("true", JsonValue::Bool(true)),
            b'f' => self.parse_literal("false", JsonValue::Bool(false)),
            b'n' => self.parse_literal("null", JsonValue::Null),
            _ => self.parse_number(),
        }
    }

    fn parse_literal(&mut self, lit: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at offset {}", self.pos))
        }
    }

    fn parse_number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(JsonValue::Number)
            .ok_or_else(|| format!("invalid number at offset {start}"))
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = self
                .bytes
                .get(self.pos)
                .copied()
                .ok_or("unterminated string")?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = self
                        .bytes
                        .get(self.pos)
                        .copied()
                        .ok_or("unterminated escape")?;
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
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("invalid \\u escape")?;
                            self.pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("invalid escape `\\{}`", char::from(other))),
                    }
                }
                _ => {
                    // Multi-byte UTF-8: copy the full sequence through.
                    let len = match b {
                        0xF0..=0xF7 => 4,
                        0xE0..=0xEF => 3,
                        0xC0..=0xDF => 2,
                        _ => 1,
                    };
                    let start = self.pos - 1;
                    self.pos = start + len;
                    let chunk = self
                        .bytes
                        .get(start..self.pos)
                        .and_then(|s| std::str::from_utf8(s).ok())
                        .ok_or("invalid UTF-8 in string")?;
                    out.push_str(chunk);
                }
            }
        }
    }

    fn parse_array(&mut self, depth: usize) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.parse_value(depth)?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(format!("expected `,` or `]` at offset {}", self.pos)),
            }
        }
    }

    fn parse_object(&mut self, depth: usize) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.expect(b':')?;
            let value = self.parse_value(depth)?;
            fields.push((key, value));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at offset {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents_with_accessors() {
        let doc = JsonValue::parse(
            r#"{"type": "resize", "row": 3, "dx": -1.5, "tags": ["a", "b"], "on": false, "none": null}"#,
        )
        .unwrap();
        assert_eq!(doc.get("type").and_then(JsonValue::as_str), Some("resize"));
        assert_eq!(doc.get("row").and_then(JsonValue::as_u64), Some(3));
        assert_eq!(doc.get("dx").and_then(JsonValue::as_f64), Some(-1.5));
        assert_eq!(doc.get("dx").and_then(JsonValue::as_u64), None, "negative");
        assert_eq!(doc.get("on").and_then(JsonValue::as_bool), Some(false));
        assert_eq!(doc.get("none"), Some(&JsonValue::Null));
        assert_eq!(
            doc.get("tags")
                .and_then(JsonValue::as_array)
                .map(<[_]>::len),
            Some(2)
        );
        assert!(doc.get("missing").is_none());
        assert_eq!(doc.as_object().map(<[_]>::len), Some(6));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "tru", "1 2", "{\"a\": 01x}"] {
            assert!(JsonValue::parse(bad).is_err(), "`{bad}` must not parse");
        }
    }

    #[test]
    fn nesting_past_the_depth_bound_is_an_error_not_a_stack_overflow() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(JsonValue::parse(&nested(MAX_DEPTH)).is_ok());
        // A mebibyte of openers would overflow any thread's stack.
        for doc in [
            "[".repeat(1 << 20),
            "{\"a\":".repeat(1 << 18),
            nested(MAX_DEPTH + 1),
        ] {
            let err = JsonValue::parse(&doc).unwrap_err();
            assert!(err.contains(&format!("deeper than {MAX_DEPTH}")), "{err}");
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "we\"ird\\na\nme\twith\u{1F600}";
        let doc = format!("{{\"k\": \"{}\"}}", escape_json(original));
        let parsed = JsonValue::parse(&doc).unwrap();
        assert_eq!(parsed.get("k").and_then(JsonValue::as_str), Some(original));
    }

    #[test]
    fn control_characters_escape_as_unicode() {
        assert_eq!(escape_json("a\u{1}b"), "a\\u0001b");
        let doc = JsonValue::parse("{\"k\": \"a\\u0001b\"}").unwrap();
        assert_eq!(doc.get("k").and_then(JsonValue::as_str), Some("a\u{1}b"));
    }
}
