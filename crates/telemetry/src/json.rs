//! A hand-rolled JSON writer and reader.
//!
//! The build environment has no registry access, so there is no serde;
//! this module is the workspace's JSON substrate instead. The writer
//! ([`JsonObject`]) builds the documents the workspace emits —
//! telemetry snapshots and Chrome traces — and the reader
//! ([`parse`]) exists so tests (and CI smokes) can validate those
//! documents structurally instead of by fragile string matching.
//!
//! Scope is deliberately small: objects preserve insertion order, numbers
//! are `f64` (with `u64` written exactly when integral), and non-finite
//! floats serialize as `null` (JSON has no NaN/Infinity).

use std::fmt;
use std::fmt::Write as _;

/// Escapes `s` as the *inside* of a JSON string literal.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Formats an `f64` as a JSON number token (`null` for non-finite values,
/// which JSON cannot carry).
#[must_use]
pub fn number(v: f64) -> String {
    if v.is_finite() {
        // Rust's shortest-roundtrip formatting is valid JSON for every
        // finite float (optional sign, digits, optional fraction and
        // exponent).
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// An order-preserving JSON object builder.
///
/// ```
/// use memstream_telemetry::json::JsonObject;
///
/// let doc = JsonObject::new()
///     .field_str("schema", "demo v1")
///     .field_u64("cells", 600)
///     .field_object("rates", JsonObject::new().field_f64("cold", 1.5));
/// assert_eq!(
///     doc.render(),
///     r#"{"schema":"demo v1","cells":600,"rates":{"cold":1.5}}"#
/// );
/// ```
#[derive(Debug, Clone, Default)]
pub struct JsonObject {
    fields: Vec<(String, String)>,
}

impl JsonObject {
    /// An empty object.
    #[must_use]
    pub fn new() -> Self {
        JsonObject::default()
    }

    fn push(mut self, name: &str, rendered: String) -> Self {
        self.fields.push((name.to_owned(), rendered));
        self
    }

    /// Appends a string field.
    #[must_use]
    pub fn field_str(self, name: &str, value: &str) -> Self {
        self.push(name, format!("\"{}\"", escape(value)))
    }

    /// Appends an integer field (written exactly).
    #[must_use]
    pub fn field_u64(self, name: &str, value: u64) -> Self {
        self.push(name, value.to_string())
    }

    /// Appends a float field (`null` when non-finite).
    #[must_use]
    pub fn field_f64(self, name: &str, value: f64) -> Self {
        self.push(name, number(value))
    }

    /// Appends a boolean field.
    #[must_use]
    pub fn field_bool(self, name: &str, value: bool) -> Self {
        self.push(name, value.to_string())
    }

    /// Appends a nested object field.
    #[must_use]
    pub fn field_object(self, name: &str, value: JsonObject) -> Self {
        let rendered = value.render();
        self.push(name, rendered)
    }

    /// Appends an array of integers (each written exactly).
    #[must_use]
    pub fn field_array_u64(self, name: &str, values: &[u64]) -> Self {
        let body = values
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(",");
        self.push(name, format!("[{body}]"))
    }

    /// Appends an array of objects (each rendered compactly).
    #[must_use]
    pub fn field_array_of_objects(
        self,
        name: &str,
        values: impl IntoIterator<Item = JsonObject>,
    ) -> Self {
        let body = values
            .into_iter()
            .map(|o| o.render())
            .collect::<Vec<_>>()
            .join(",");
        self.push(name, format!("[{body}]"))
    }

    /// Renders compactly (no whitespace).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, rendered)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", escape(name), rendered);
        }
        out.push('}');
        out
    }

    /// Renders with one top-level field per line (nested objects stay
    /// compact) and a trailing newline, so diffs of checked-in
    /// documents stay line-oriented.
    #[must_use]
    pub fn render_pretty(&self) -> String {
        let mut out = String::from("{\n");
        for (i, (name, rendered)) in self.fields.iter().enumerate() {
            let _ = write!(out, "  \"{}\": {}", escape(name), rendered);
            out.push_str(if i + 1 < self.fields.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("}\n");
        out
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (also produced for non-finite numbers by the writer).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, in document order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Member `key` of an object (`None` for other variants).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as an exact unsigned integer, if it is one.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Number(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= u64::MAX as f64 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }
}

/// Where and why a parse failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What the parser expected.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON document (surrounding whitespace allowed, nothing
/// else trailing).
///
/// # Errors
///
/// [`JsonError`] with the byte offset of the first violation.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(err(pos, "end of document"));
    }
    Ok(value)
}

fn err(offset: usize, expected: &str) -> JsonError {
    JsonError {
        offset,
        message: format!("expected {expected}"),
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(b' ' | b'\t' | b'\n' | b'\r') = bytes.get(*pos) {
        *pos += 1;
    }
}

fn eat(bytes: &[u8], pos: &mut usize, token: &str) -> Result<(), JsonError> {
    if bytes[*pos..].starts_with(token.as_bytes()) {
        *pos += token.len();
        Ok(())
    } else {
        Err(err(*pos, token))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'n') => eat(bytes, pos, "null").map(|()| Json::Null),
        Some(b't') => eat(bytes, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => eat(bytes, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::String),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'-' | b'0'..=b'9') => parse_number(bytes, pos),
        _ => Err(err(*pos, "a JSON value")),
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while matches!(
        bytes.get(*pos),
        Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    ) {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Number)
        .ok_or_else(|| err(start, "a number"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    eat(bytes, pos, "\"")?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err(*pos, "closing quote")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| err(*pos, "four hex digits"))?;
                        // Surrogate pairs are out of scope for this
                        // writer's own output; map them to U+FFFD.
                        out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(err(*pos, "an escape character")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Multi-byte UTF-8 passes through untouched: find the
                // char at this byte offset and copy it whole.
                let rest =
                    std::str::from_utf8(&bytes[*pos..]).map_err(|_| err(*pos, "valid UTF-8"))?;
                let c = rest.chars().next().expect("non-empty rest");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    eat(bytes, pos, "[")?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            _ => return Err(err(*pos, "',' or ']'")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    eat(bytes, pos, "{")?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Object(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        eat(bytes, pos, ":")?;
        let value = parse_value(bytes, pos)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Object(fields));
            }
            _ => return Err(err(*pos, "',' or '}'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_output_parses_back_structurally() {
        let doc = JsonObject::new()
            .field_str("name", "grid \"cold\"\nrun\tA\\B")
            .field_u64("cells", u64::MAX)
            .field_f64("rate", 1234.5678)
            .field_f64("bad", f64::NAN)
            .field_bool("quick", true)
            .field_object("nested", JsonObject::new().field_f64("x", 1e-9));
        for text in [doc.render(), doc.render_pretty()] {
            let parsed = parse(&text).expect("writer emits valid JSON");
            assert_eq!(
                parsed.get("name").and_then(Json::as_str),
                Some("grid \"cold\"\nrun\tA\\B")
            );
            // u64::MAX exceeds f64 precision; it must still be a number.
            assert!(parsed.get("cells").and_then(Json::as_f64).is_some());
            assert_eq!(parsed.get("rate").and_then(Json::as_f64), Some(1234.5678));
            assert_eq!(parsed.get("bad"), Some(&Json::Null));
            assert_eq!(parsed.get("quick"), Some(&Json::Bool(true)));
            assert_eq!(
                parsed
                    .get("nested")
                    .and_then(|n| n.get("x"))
                    .and_then(Json::as_f64),
                Some(1e-9)
            );
        }
    }

    #[test]
    fn exact_integers_survive_as_u64() {
        let parsed = parse(r#"{"n": 9007199254740991}"#).unwrap();
        assert_eq!(
            parsed.get("n").and_then(Json::as_u64),
            Some(9007199254740991)
        );
        assert_eq!(
            parse(r#"{"n": 1.5}"#)
                .unwrap()
                .get("n")
                .and_then(Json::as_u64),
            None
        );
        assert_eq!(
            parse(r#"{"n": -2}"#)
                .unwrap()
                .get("n")
                .and_then(Json::as_u64),
            None
        );
    }

    #[test]
    fn arrays_and_nesting_parse() {
        let parsed = parse(r#" [1, "two", [true, null], {"k": 3e2}] "#).unwrap();
        let Json::Array(items) = &parsed else {
            panic!("expected array")
        };
        assert_eq!(items.len(), 4);
        assert_eq!(items[3].get("k").and_then(Json::as_f64), Some(300.0));
    }

    #[test]
    fn malformed_documents_are_rejected_with_offsets() {
        for text in [
            "",
            "{",
            r#"{"a"}"#,
            r#"{"a": 1,}"#,
            "[1 2]",
            "nul",
            r#""unterminated"#,
            r#"{"a": 1} trailing"#,
            "--5",
        ] {
            let e = parse(text).expect_err(text);
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn unicode_and_escapes_round_trip() {
        let parsed = parse(r#"{"s": "café — näive"}"#).unwrap();
        assert_eq!(parsed.get("s").and_then(Json::as_str), Some("café — näive"));
    }
}
