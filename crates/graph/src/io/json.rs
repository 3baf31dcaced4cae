//! A minimal JSON reader and writer, shared by the JSON-lines dataset
//! format and the `bgpq-net` wire protocol.
//!
//! The workspace is dependency-free, so instead of `serde_json` this module
//! provides just enough JSON to parse one dataset record per line: objects,
//! arrays, strings (with escapes), numbers (kept as `i64` when they are
//! integral so node attributes round-trip as [`crate::Value::Int`]), booleans
//! and `null`. Errors carry a byte offset which the JSONL loader combines
//! with its line number. The writer side ([`write_json`] / [`Json::render`])
//! emits exactly what the parser accepts, so protocol payloads and dataset
//! records are encoded and decoded by one implementation.

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without a fraction or exponent, in `i64` range.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in key order of the input (duplicate keys keep the last).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds a string value (convenience for protocol encoders).
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Builds an object from `(key, value)` pairs, in order.
    pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Looks up a key of an object (`None` for absent keys or non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, when it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// The value as an `i64`, when it is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The value as an `f64`, coercing integers.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Float(x) => Some(*x),
            Json::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The value as a `bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array items, when this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes this value into a compact JSON string (see [`write_json`]).
    pub fn render(&self) -> String {
        let mut out = String::new();
        write_json(&mut out, self);
        out
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A short name for the value's JSON type, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Int(_) | Json::Float(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }
}

/// A JSON syntax error: what went wrong and the byte offset where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Description of the problem.
    pub message: String,
    /// Byte offset into the parsed text.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

/// Parses one complete JSON value; trailing non-whitespace is an error.
pub fn parse_json(text: &str) -> std::result::Result<Json, JsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters after JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: impl Into<String>) -> JsonError {
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

    fn expect(&mut self, byte: u8) -> std::result::Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected {:?}", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> std::result::Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected {word:?}")))
        }
    }

    fn value(&mut self) -> std::result::Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.error(format!("unexpected character {:?}", c as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn object(&mut self) -> std::result::Result<Json, JsonError> {
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
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> std::result::Result<Json, JsonError> {
        self.expect(b'[')?;
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
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> std::result::Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of plain bytes up to the next quote or backslash
            // in one piece, validating only that run: the scan stays linear
            // in the string's length however long the rest of the document.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(self.bytes.len() - self.pos);
            let plain = std::str::from_utf8(&self.bytes[self.pos..self.pos + run])
                .map_err(|_| self.error("invalid UTF-8 in string"))?;
            out.push_str(plain);
            self.pos += run;
            let Some(c) = self.peek() else {
                return Err(self.error("unterminated string"));
            };
            self.pos += 1;
            if c == b'"' {
                return Ok(out);
            }
            let Some(esc) = self.peek() else {
                return Err(self.error("unterminated escape"));
            };
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
                b'u' => out.push(self.unicode_escape()?),
                other => return Err(self.error(format!("bad escape \\{}", other as char))),
            }
        }
    }

    fn unicode_escape(&mut self) -> std::result::Result<char, JsonError> {
        let unit = self.hex4()?;
        // Surrogate pairs: a high surrogate must be followed by \u and a low
        // surrogate; everything else maps directly.
        if (0xD800..0xDC00).contains(&unit) {
            if self.peek() == Some(b'\\') {
                self.pos += 1;
                self.expect(b'u')?;
                let low = self.hex4()?;
                if (0xDC00..0xE000).contains(&low) {
                    let c = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                    return char::from_u32(c).ok_or_else(|| self.error("bad surrogate pair"));
                }
            }
            return Err(self.error("lone high surrogate"));
        }
        char::from_u32(unit).ok_or_else(|| self.error("bad \\u escape"))
    }

    fn hex4(&mut self) -> std::result::Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.error("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.error("bad \\u escape"))?;
        let unit = u32::from_str_radix(hex, 16).map_err(|_| self.error("bad \\u escape digits"))?;
        self.pos = end;
        Ok(unit)
    }

    fn number(&mut self) -> std::result::Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut integral = true;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    integral = false;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if integral {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.error(format!("invalid number {text:?}")))
    }
}

/// Renders a finite float as a JSON number token that reloads as a float:
/// whole values keep a decimal point (`7.0`, not `7`, which would reload as
/// an integer). Returns `None` for non-finite values — JSON has no
/// representation for them, so writers must reject rather than emit an
/// unparseable `NaN`/`inf` token.
pub fn json_float_token(x: f64) -> Option<String> {
    if !x.is_finite() {
        return None;
    }
    if x.fract() == 0.0 {
        Some(format!("{x:.1}"))
    } else {
        Some(x.to_string())
    }
}

/// Serializes `value` compactly (no whitespace) into `out`. The output
/// parses back to an equal [`Json`] with one documented exception: JSON has
/// no token for non-finite floats, so `NaN`/`±inf` are written as `null`
/// rather than producing an unparseable document — encoders that must not
/// lose them should reject such values up front (see [`json_float_token`]).
pub fn write_json(out: &mut String, value: &Json) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Int(i) => out.push_str(&i.to_string()),
        Json::Float(x) => match json_float_token(*x) {
            Some(token) => out.push_str(&token),
            None => out.push_str("null"),
        },
        Json::Str(s) => write_json_string(out, s),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json(out, item);
            }
            out.push(']');
        }
        Json::Obj(fields) => {
            out.push('{');
            for (i, (key, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json_string(out, key);
                out.push(':');
                write_json(out, item);
            }
            out.push('}');
        }
    }
}

/// Writes `s` as a JSON string literal (with the required escapes) into
/// `out`.
pub fn write_json_string(out: &mut String, s: &str) {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse_json("null").unwrap(), Json::Null);
        assert_eq!(parse_json("true").unwrap(), Json::Bool(true));
        assert_eq!(parse_json("false").unwrap(), Json::Bool(false));
        assert_eq!(parse_json("42").unwrap(), Json::Int(42));
        assert_eq!(parse_json("-7").unwrap(), Json::Int(-7));
        assert_eq!(parse_json("2.5").unwrap(), Json::Float(2.5));
        assert_eq!(parse_json("1e3").unwrap(), Json::Float(1000.0));
        assert_eq!(parse_json("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse_json(r#"{"a": [1, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(v.get("c").and_then(Json::as_str), Some("x"));
        match v.get("a").unwrap() {
            Json::Arr(items) => {
                assert_eq!(items[0], Json::Int(1));
                assert_eq!(items[1].get("b"), Some(&Json::Null));
            }
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = parse_json(r#""a\"b\\c\nd\u00e9\u0041""#).unwrap();
        assert_eq!(v, Json::Str("a\"b\\c\ndéA".into()));
        let surrogate = parse_json(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(surrogate, Json::Str("😀".into()));

        let mut out = String::new();
        write_json_string(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, r#""a\"b\\c\nd\u0001""#);
        assert_eq!(
            parse_json(&out).unwrap(),
            Json::Str("a\"b\\c\nd\u{1}".into())
        );
    }

    #[test]
    fn unicode_text_passes_through() {
        let v = parse_json("\"héllo wörld 日本\"").unwrap();
        assert_eq!(v, Json::Str("héllo wörld 日本".into()));
    }

    #[test]
    fn errors_carry_offsets() {
        let err = parse_json("{\"a\": }").unwrap_err();
        assert_eq!(err.offset, 6);
        assert!(parse_json("").is_err());
        assert!(parse_json("[1, 2").is_err());
        assert!(parse_json("{\"a\" 1}").is_err());
        assert!(parse_json("tru").is_err());
        assert!(parse_json("1 2").unwrap_err().message.contains("trailing"));
        assert!(parse_json("\"\\ud800x\"").is_err());
    }

    /// The accept/reject table of the string scanner, with the offsets the
    /// character-at-a-time scanner reported.
    #[test]
    fn string_rejections_keep_their_messages_and_offsets() {
        for (text, message, offset) in [
            ("\"abc", "unterminated string", 4),
            ("\"abc\\", "unterminated escape", 5),
            ("\"ab\\x\"", "bad escape \\x", 5),
            ("\"\\ud800x\"", "lone high surrogate", 7),
            ("\"\\ud800\\u0041\"", "lone high surrogate", 13),
            ("\"\\u12\"", "truncated \\u escape", 3),
            ("\"\\uzzzz\"", "bad \\u escape digits", 3),
        ] {
            let err = parse_json(text).unwrap_err();
            assert_eq!(
                (err.message.as_str(), err.offset),
                (message, offset),
                "{text}"
            );
        }
        // Raw control characters and a bare slash are accepted as before.
        assert_eq!(parse_json("\"a\tb/\"").unwrap(), Json::str("a\tb/"));
    }

    /// A string-heavy document of more than 8 MB — one long string, then
    /// many short ones, ASCII and multi-byte, with escapes at the start, the
    /// end and both sides of every plain run. A scanner that re-validates
    /// the rest of the document per character needs ~10^13 byte visits for
    /// this and cannot finish inside any test timeout.
    #[test]
    fn large_string_heavy_documents_parse_in_linear_time() {
        let mut long = String::new();
        while long.len() < 5 << 20 {
            long.push_str("\"plain ascii run\\héllo wörld 日本\n😀\"\ttail\u{1}");
        }
        let shorts = [
            "", "a", "\"", "é", "\\é\\", "日本", "x\ny", "😀\"", "\"q\"", "ascii",
        ];
        let items: Vec<Json> = (0..400_000)
            .map(|i| Json::str(shorts[i % shorts.len()]))
            .collect();
        let value = Json::obj([("long", Json::str(long)), ("shorts", Json::Arr(items))]);
        let text = value.render();
        assert!(text.len() >= 8 << 20, "only {} bytes", text.len());
        let parsed = parse_json(&text).unwrap();
        assert_eq!(parsed, value);
        assert_eq!(parsed.render(), text);
    }

    #[test]
    fn duplicate_keys_keep_the_last() {
        let v = parse_json(r#"{"a": 1, "a": 2}"#).unwrap();
        assert_eq!(v.get("a"), Some(&Json::Int(2)));
    }

    #[test]
    fn writer_round_trips() {
        let value = Json::obj([
            ("type", Json::str("query")),
            ("n", Json::Int(-42)),
            ("x", Json::Float(2.5)),
            ("whole", Json::Float(7.0)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            (
                "items",
                Json::Arr(vec![Json::Int(1), Json::str("a\"b\nc"), Json::Arr(vec![])]),
            ),
            ("empty", Json::Obj(vec![])),
        ]);
        let text = value.render();
        assert_eq!(parse_json(&text).unwrap(), value);
        // Whole floats keep their decimal point so they reload as floats.
        assert!(text.contains("\"whole\":7.0"));
        // Compact: no spaces outside strings.
        assert!(!text.replace("a\\\"b\\nc", "").contains(' '));
    }

    #[test]
    fn writer_maps_non_finite_floats_to_null() {
        assert_eq!(Json::Float(f64::NAN).render(), "null");
        assert_eq!(Json::Float(f64::INFINITY).render(), "null");
    }

    #[test]
    fn typed_accessors() {
        assert_eq!(Json::Int(-3).as_i64(), Some(-3));
        assert_eq!(Json::Str("x".into()).as_i64(), None);
        assert_eq!(Json::Int(2).as_f64(), Some(2.0));
        assert_eq!(Json::Float(0.5).as_f64(), Some(0.5));
        assert_eq!(Json::Bool(true).as_bool(), Some(true));
        assert_eq!(Json::Int(1).as_bool(), None);
        assert_eq!(
            Json::Arr(vec![Json::Null]).as_arr().map(<[_]>::len),
            Some(1)
        );
        assert_eq!(Json::Null.as_arr(), None);
    }

    #[test]
    fn accessors() {
        assert_eq!(Json::Int(3).as_u64(), Some(3));
        assert_eq!(Json::Int(-3).as_u64(), None);
        assert_eq!(Json::Null.as_u64(), None);
        assert_eq!(Json::Str("x".into()).as_str(), Some("x"));
        assert_eq!(Json::Bool(true).as_str(), None);
        assert_eq!(Json::Null.get("k"), None);
        assert_eq!(Json::Arr(vec![]).type_name(), "array");
        assert_eq!(Json::Obj(vec![]).type_name(), "object");
        assert_eq!(Json::Float(1.0).type_name(), "number");
    }
}
