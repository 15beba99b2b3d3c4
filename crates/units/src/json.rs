//! Dependency-free JSON: the workspace's serialization substrate.
//!
//! The simulation's data-plumbing contract (reports, configurations,
//! benchmark records) is JSON, but the build must work with no external
//! crates. This module provides a small, strict JSON document model with a
//! parser and writer, plus [`ToJson`]/[`FromJson`] traits every workspace
//! type that crosses a tooling boundary implements by hand.
//!
//! Numbers round-trip exactly: `f64` values are written with Rust's
//! shortest-round-trip formatting, and integers that fit `u64`/`i64` are
//! kept in integer form so 64-bit seeds and counters survive unscathed.
//!
//! # Examples
//!
//! ```
//! use picocube_units::json::{Json, ToJson, FromJson};
//!
//! let doc = Json::parse(r#"{"nodes": 256, "ratio": 0.925}"#).unwrap();
//! assert_eq!(doc.get("nodes").and_then(Json::as_u64), Some(256));
//!
//! let v: Vec<f64> = vec![1.5, -2.0];
//! let back = Vec::<f64>::from_json(&v.to_json()).unwrap();
//! assert_eq!(back, v);
//! ```

use std::fmt;

/// A JSON document: the usual six shapes, with integers kept exact.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer that fits `u64` (written without a decimal
    /// point, so 64-bit seeds round-trip exactly).
    UInt(u64),
    /// A negative integer that fits `i64`.
    Int(i64),
    /// Any other finite number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

/// A parse or conversion failure, with a human-readable explanation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
}

impl JsonError {
    /// Creates an error with the given message.
    pub fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses a JSON document from text.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] on malformed input, trailing garbage, or
    /// arrays and objects nested deeper than 128 levels.
    pub fn parse(text: &str) -> Result<Self, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError::new(format!("trailing characters at byte {pos}")));
        }
        Ok(value)
    }

    /// Looks up a key in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `f64` if it is any numeric shape.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::UInt(u) => Some(u as f64),
            Json::Int(i) => Some(i as f64),
            Json::Num(x) => Some(x),
            _ => None,
        }
    }

    /// The value as `u64` if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::UInt(u) => Some(u),
            Json::Int(i) => u64::try_from(i).ok(),
            _ => None,
        }
    }

    /// The value as `&str` if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The elements if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Serializes to compact JSON text (via `to_string()`).
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        write_value(self, &mut out);
        f.write_str(&out)
    }
}

fn write_value(v: &Json, out: &mut String) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(true) => out.push_str("true"),
        Json::Bool(false) => out.push_str("false"),
        Json::UInt(u) => out.push_str(&u.to_string()),
        Json::Int(i) => out.push_str(&i.to_string()),
        Json::Num(x) => {
            if x.is_finite() {
                // Rust's shortest round-trip formatting; force a decimal
                // marker so the value re-parses as Num, not an integer.
                let s = format!("{x}");
                out.push_str(&s);
                if !s.contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            } else {
                // JSON has no Inf/NaN; null is the least-bad encoding.
                out.push_str("null");
            }
        }
        Json::Str(s) => write_string(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Json::Obj(pairs) => {
            out.push('{');
            for (i, (k, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_value(item, out);
            }
            out.push('}');
        }
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
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// The deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so hostile input must not choose the depth;
/// the workspace's own documents nest fewer than ten levels.
const MAX_DEPTH: usize = 128;

/// Parses one value whose enclosing arrays and objects number `depth`.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'[' | b'{')) && depth == MAX_DEPTH {
        return Err(JsonError::new(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {pos}"
        )));
    }
    match bytes.get(*pos) {
        None => Err(JsonError::new("unexpected end of input")),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(JsonError::new(format!("expected ',' or ']' at byte {pos}"))),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(JsonError::new(format!("expected ':' at byte {pos}")));
                }
                *pos += 1;
                let value = parse_value(bytes, pos, depth + 1)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => {
                        return Err(JsonError::new(format!(
                            "expected ',' or '}}' at byte {pos}"
                        )))
                    }
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: Json,
) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(JsonError::new(format!("invalid literal at byte {pos}")))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(JsonError::new(format!("expected string at byte {pos}")));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(JsonError::new("unterminated string")),
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
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| JsonError::new("truncated \\u escape"))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| JsonError::new("non-ascii \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| JsonError::new("bad \\u escape"))?;
                        // Surrogate pairs are not produced by our writer;
                        // map lone surrogates to the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(JsonError::new(format!("bad escape at byte {pos}"))),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is &str, so it is valid;
                // degrade to the replacement character rather than panic).
                let start = *pos;
                *pos += 1;
                while *pos < bytes.len() && (bytes[*pos] & 0xC0) == 0x80 {
                    *pos += 1;
                }
                match std::str::from_utf8(&bytes[start..*pos]) {
                    Ok(s) => out.push_str(s),
                    Err(_) => out.push('\u{fffd}'),
                }
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut float = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).unwrap_or("");
    if text.is_empty() || text == "-" {
        return Err(JsonError::new(format!("expected value at byte {start}")));
    }
    if !float {
        if let Ok(u) = text.parse::<u64>() {
            return Ok(Json::UInt(u));
        }
        if let Ok(i) = text.parse::<i64>() {
            return Ok(Json::Int(i));
        }
    }
    // A literal past the f64 range (`1e309`) would parse as infinity, which
    // the encoder writes as `null`: reject it, so every decoded number
    // encodes back to one.
    match text.parse::<f64>() {
        Ok(x) if x.is_finite() => Ok(Json::Num(x)),
        Ok(_) => Err(JsonError::new(format!("number {text:?} is out of range"))),
        Err(_) => Err(JsonError::new(format!("invalid number {text:?}"))),
    }
}

/// Conversion into the JSON document model.
pub trait ToJson {
    /// Builds the JSON representation of `self`.
    fn to_json(&self) -> Json;
}

/// Conversion out of the JSON document model.
pub trait FromJson: Sized {
    /// Rebuilds `Self` from its JSON representation.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] when the document has the wrong shape.
    fn from_json(value: &Json) -> Result<Self, JsonError>;
}

/// Fetches a required object field, with a shape-describing error.
///
/// # Errors
///
/// Returns [`JsonError`] when the key is absent or `value` is not an object.
pub fn field<'a>(value: &'a Json, key: &str) -> Result<&'a Json, JsonError> {
    value
        .get(key)
        .ok_or_else(|| JsonError::new(format!("missing field {key:?}")))
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl FromJson for f64 {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        value
            .as_f64()
            .ok_or_else(|| JsonError::new("expected number"))
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        value
            .as_bool()
            .ok_or_else(|| JsonError::new("expected bool"))
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        value
            .as_str()
            .map(str::to_owned)
            .ok_or_else(|| JsonError::new("expected string"))
    }
}

macro_rules! json_uint {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::UInt(u64::from(*self))
            }
        }
        impl FromJson for $t {
            fn from_json(value: &Json) -> Result<Self, JsonError> {
                let u = value.as_u64().ok_or_else(|| JsonError::new("expected integer"))?;
                <$t>::try_from(u).map_err(|_| JsonError::new("integer out of range"))
            }
        }
    )*};
}

json_uint!(u8, u16, u32, u64);

impl ToJson for usize {
    fn to_json(&self) -> Json {
        Json::UInt(*self as u64)
    }
}

impl FromJson for usize {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let u = value
            .as_u64()
            .ok_or_else(|| JsonError::new("expected integer"))?;
        usize::try_from(u).map_err(|_| JsonError::new("integer out of range"))
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        value
            .as_arr()
            .ok_or_else(|| JsonError::new("expected array"))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        match value {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        match value.as_arr() {
            Some([a, b]) => Ok((A::from_json(a)?, B::from_json(b)?)),
            _ => Err(JsonError::new("expected 2-element array")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in [
            "null", "true", "false", "0", "42", "-7", "1.5", "-2.25e3", "\"hi\"",
        ] {
            let v = Json::parse(text).unwrap();
            assert_eq!(Json::parse(&v.to_string()).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn u64_survives_exactly() {
        let big = u64::MAX - 3;
        let v = Json::parse(&big.to_string()).unwrap();
        assert_eq!(v.as_u64(), Some(big));
        assert_eq!(v.to_string(), big.to_string());
    }

    #[test]
    fn f64_shortest_form_round_trips() {
        for x in [0.1, 6e-6, 1.0 / 3.0, f64::MIN_POSITIVE, 1e300, -0.0] {
            let v = Json::Num(x);
            let back = Json::parse(&v.to_string()).unwrap();
            assert_eq!(back.as_f64(), Some(x), "{x}");
        }
    }

    #[test]
    fn numbers_past_the_f64_range_are_rejected() {
        for text in ["1e309", "-1e309", "[1.0,1e400]"] {
            let err = Json::parse(text).expect_err(text);
            assert!(err.message.contains("out of range"), "{text}: {err}");
        }
        // An integer past u64 stays a finite float, as before.
        let v = Json::parse("18446744073709551616").unwrap();
        assert_eq!(v.as_f64(), Some(18446744073709551616.0));
    }

    #[test]
    fn nested_structure_round_trips() {
        let text = r#"{"a":[1,2,{"b":null}],"c":"x\ny \"quoted\" é","d":{"e":[]}}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
        assert_eq!(v.get("c").and_then(Json::as_str), Some("x\ny \"quoted\" é"));
    }

    #[test]
    fn whitespace_and_errors() {
        assert!(Json::parse(" { \"k\" : [ 1 , 2 ] } ").is_ok());
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "tru",
            "1 2",
            "\"unterminated",
            "{\"a\":}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn hostile_nesting_is_an_error_not_a_stack_overflow() {
        for (open, close) in [("[", "]"), ("{\"a\":", "}")] {
            let err = Json::parse(&open.repeat(100_000)).unwrap_err();
            assert!(err.message.contains("128 levels"), "{err}");
            let nested = |levels: usize| {
                Json::parse(&format!("{}1{}", open.repeat(levels), close.repeat(levels)))
            };
            assert!(nested(MAX_DEPTH).is_ok(), "{open}: the limit itself parses");
            let err = nested(MAX_DEPTH + 1).unwrap_err();
            let at = open.len() * MAX_DEPTH;
            assert!(err.message.ends_with(&format!("at byte {at}")), "{err}");
        }
    }

    #[test]
    fn containers_round_trip() {
        let v: Vec<(String, f64)> = vec![("a".into(), 1.0), ("b".into(), -2.5)];
        assert_eq!(Vec::<(String, f64)>::from_json(&v.to_json()).unwrap(), v);
        let o: Option<u64> = None;
        assert_eq!(Option::<u64>::from_json(&o.to_json()).unwrap(), None);
        assert_eq!(
            Option::<u64>::from_json(&Some(9u64).to_json()).unwrap(),
            Some(9)
        );
    }

    #[test]
    fn integers_written_without_decimal_point_nums_with() {
        assert_eq!(Json::UInt(5).to_string(), "5");
        assert_eq!(Json::Num(5.0).to_string(), "5.0");
        assert_eq!(Json::parse("5.0").unwrap(), Json::Num(5.0));
        assert_eq!(Json::parse("5").unwrap(), Json::UInt(5));
    }
}
