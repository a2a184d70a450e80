//! Minimal JSON support for the workspace.
//!
//! The build environment has no network access, so `serde`/`serde_json`
//! are unavailable; this crate provides the small surface the workspace
//! needs instead: a JSON [`Json`] value model, a strict parser and a
//! writer, [`ToJson`]/[`FromJson`] conversion traits, and declarative
//! macros ([`impl_json_struct!`], [`impl_json_enum!`]) that generate
//! field-by-field conversions for plain structs and C-like enums.
//!
//! It is used for two things:
//!
//! - round-tripping configuration structs (`GpuConfig`, `RegLessConfig`,
//!   `RegionConfig`, …) through JSON, and
//! - persisting simulation reports in the experiment harness's
//!   `results/cache/` sweep cache.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::sync::Arc;

#[cfg(test)]
mod reference;

/// A parsed JSON value.
///
/// Object keys keep their insertion order (serialization is deterministic);
/// lookups are linear, which is fine for the small objects used here.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A signed integer (also used for unsigned values up to `i64::MAX`).
    Int(i64),
    /// An unsigned integer above `i64::MAX`.
    Uint(u64),
    /// A floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
    /// Pre-rendered compact JSON text, written verbatim (in the spirit of
    /// serde_json's `RawValue`). It is write-only: the parser never
    /// produces it, so a `Raw` never equals the parsed tree its text
    /// spells. Whoever builds one vouches that the text is exactly one
    /// valid JSON value; a pretty writer splices it unindented.
    Raw(Arc<str>),
}

/// Error produced by parsing or by [`FromJson`] conversions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description of what went wrong.
    pub message: String,
}

impl JsonError {
    /// A new error with the given message.
    pub fn new(message: impl Into<String>) -> Self {
        JsonError {
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
    /// Look up a field of an object.
    ///
    /// # Errors
    ///
    /// Fails if `self` is not an object or lacks the field.
    pub fn field(&self, name: &str) -> Result<&Json, JsonError> {
        match self {
            Json::Obj(pairs) => pairs
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| JsonError::new(format!("missing field `{name}`"))),
            other => Err(JsonError::new(format!(
                "expected object with field `{name}`, got {}",
                other.kind()
            ))),
        }
    }

    /// Like [`Json::field`] but returns `None` for a missing field (still
    /// failing on non-objects). Lets readers tolerate older cache entries.
    ///
    /// # Errors
    ///
    /// Fails if `self` is not an object.
    pub fn field_opt(&self, name: &str) -> Result<Option<&Json>, JsonError> {
        match self {
            Json::Obj(pairs) => Ok(pairs.iter().find(|(k, _)| k == name).map(|(_, v)| v)),
            other => Err(JsonError::new(format!(
                "expected object with field `{name}`, got {}",
                other.kind()
            ))),
        }
    }

    /// The string this value holds, moved out.
    ///
    /// # Errors
    ///
    /// Fails, as `String::from_json` does, if `self` is not a string.
    pub fn into_string(self) -> Result<String, JsonError> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(JsonError::new(format!(
                "expected string, got {}",
                other.kind()
            ))),
        }
    }

    /// The value's type name, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Int(_) | Json::Uint(_) => "integer",
            Json::Float(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
            Json::Raw(_) => "raw",
        }
    }

    /// Serialize without whitespace.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    /// Append [`Json::to_string_compact`]'s text to `out`, so a caller can
    /// render into a buffer it reuses.
    pub fn write_compact(&self, out: &mut String) {
        self.write(out, None, 0);
    }

    /// Serialize with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            if let Some(n) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', n * depth));
            }
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => push_i64(out, *i),
            Json::Uint(u) => push_u64(out, *u),
            Json::Float(x) => push_f64(out, *x),
            Json::Str(s) => write_escaped(out, s),
            Json::Raw(text) => out.push_str(text),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline(out, depth);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                newline(out, depth);
                out.push('}');
            }
        }
    }

    /// Parse a JSON document (must consume all non-whitespace input).
    ///
    /// # Errors
    ///
    /// Fails on malformed JSON or trailing garbage.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser { text, pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(JsonError::new(format!(
                "trailing characters at byte {}",
                p.pos
            )));
        }
        Ok(v)
    }
}

/// Append the decimal digits of `v`, without allocating.
fn push_u64(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut start = buf.len();
    loop {
        start -= 1;
        buf[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[start..]).expect("ascii digits"));
}

fn push_i64(out: &mut String, v: i64) {
    if v < 0 {
        out.push('-');
    }
    push_u64(out, v.unsigned_abs());
}

/// Append `x` so that it always round-trips and never loses the fact that
/// it is a float (integral floats get a `.0`). JSON has no NaN or
/// infinity, so those are written as `null`; no report produces them.
fn push_f64(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push_str("null");
        return;
    }
    let start = out.len();
    // Writing into a `String` cannot fail.
    let _ = fmt::Write::write_fmt(out, format_args!("{x}"));
    if !out.as_bytes()[start..]
        .iter()
        .any(|b| matches!(b, b'.' | b'e' | b'E'))
    {
        out.push_str(".0");
    }
}

/// Append `s` as a JSON string literal, exactly as [`Json::Str`] is
/// written. Only `"`, `\` and control characters need escapes, and all are
/// ASCII, so the text between them is copied in whole runs.
pub fn write_escaped(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            out.push_str("\\u00");
            out.push(char::from(HEX[usize::from(b >> 4)]));
            out.push(char::from(HEX[usize::from(b & 0xf)]));
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::new(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(JsonError::new(format!(
                "invalid literal at byte {}",
                self.pos
            )))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(JsonError::new(format!(
                "unexpected `{}` at byte {}",
                c as char, self.pos
            ))),
            None => Err(JsonError::new("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
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
                _ => {
                    return Err(JsonError::new(format!(
                        "expected `,` or `]` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => {
                    return Err(JsonError::new(format!(
                        "expected `,` or `}}` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    /// A string literal. The text between the quotes, escapes and the end
    /// is copied one whole run at a time: runs end only at the ASCII bytes
    /// `"` and `\`, so each is a slice of the (valid UTF-8) input.
    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let run = self.pos;
            while !matches!(self.peek(), Some(b'"' | b'\\') | None) {
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            let Some(b) = self.peek() else {
                return Err(JsonError::new("unterminated string"));
            };
            self.pos += 1;
            if b == b'"' {
                return Ok(out);
            }
            let Some(esc) = self.peek() else {
                return Err(JsonError::new("unterminated escape"));
            };
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'u' => {
                    let hex = self
                        .text
                        .get(self.pos..self.pos + 4)
                        .ok_or_else(|| JsonError::new("bad \\u escape"))?;
                    let code = u32::from_str_radix(hex, 16)
                        .map_err(|_| JsonError::new("bad \\u escape"))?;
                    self.pos += 4;
                    // Surrogate pairs are not needed by our writers; map
                    // lone surrogates to the replacement char.
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                }
                other => return Err(JsonError::new(format!("bad escape `\\{}`", other as char))),
            }
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
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = &self.text[start..self.pos];
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::Uint(u));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| JsonError::new(format!("bad number `{text}`")))
    }
}

/// Conversion into a [`Json`] value.
pub trait ToJson {
    /// The JSON representation of `self`.
    fn to_json(&self) -> Json;
}

/// Conversion from a [`Json`] value.
pub trait FromJson: Sized {
    /// Reconstruct a value.
    ///
    /// # Errors
    ///
    /// Fails when the value has the wrong shape.
    fn from_json(v: &Json) -> Result<Self, JsonError>;
}

/// Serialize any [`ToJson`] value without whitespace (mirrors
/// `serde_json::to_string`).
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().to_string_compact()
}

/// Serialize any [`ToJson`] value with indentation (mirrors
/// `serde_json::to_string_pretty`).
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().to_string_pretty()
}

/// Parse and convert in one step (mirrors `serde_json::from_str`).
///
/// # Errors
///
/// Fails on malformed JSON or a shape mismatch.
pub fn from_str<T: FromJson>(text: &str) -> Result<T, JsonError> {
    T::from_json(&Json::parse(text)?)
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl FromJson for Json {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(v.clone())
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Bool(b) => Ok(*b),
            other => Err(JsonError::new(format!(
                "expected bool, got {}",
                other.kind()
            ))),
        }
    }
}

macro_rules! int_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            #[allow(clippy::cast_lossless, irrefutable_let_patterns)]
            fn to_json(&self) -> Json {
                let v = *self;
                // Irrefutable for the narrow types; u64/usize values above
                // `i64::MAX` keep full precision via the Uint arm.
                if let Ok(i) = i64::try_from(v) {
                    Json::Int(i)
                } else {
                    Json::Uint(v as u64)
                }
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                match v {
                    Json::Int(i) => <$t>::try_from(*i)
                        .map_err(|_| JsonError::new(format!("{} out of range for {}", i, stringify!($t)))),
                    Json::Uint(u) => <$t>::try_from(*u)
                        .map_err(|_| JsonError::new(format!("{} out of range for {}", u, stringify!($t)))),
                    other => Err(JsonError::new(format!(
                        "expected integer, got {}", other.kind()
                    ))),
                }
            }
        }
    )*};
}
int_json!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Float(*self)
    }
}

impl FromJson for f64 {
    #[allow(clippy::cast_precision_loss)]
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Float(x) => Ok(*x),
            Json::Int(i) => Ok(*i as f64),
            Json::Uint(u) => Ok(*u as f64),
            other => Err(JsonError::new(format!(
                "expected number, got {}",
                other.kind()
            ))),
        }
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Str(s) => Ok(s.clone()),
            other => Err(JsonError::new(format!(
                "expected string, got {}",
                other.kind()
            ))),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Arr(items) => items.iter().map(T::from_json).collect(),
            other => Err(JsonError::new(format!(
                "expected array, got {}",
                other.kind()
            ))),
        }
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            None => Json::Null,
            Some(v) => v.to_json(),
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson + Default + Copy, const N: usize> FromJson for [T; N] {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let items: Vec<T> = Vec::from_json(v)?;
        if items.len() != N {
            return Err(JsonError::new(format!(
                "expected array of length {N}, got {}",
                items.len()
            )));
        }
        let mut out = [T::default(); N];
        out.copy_from_slice(&items);
        Ok(out)
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Arr(items) if items.len() == 2 => {
                Ok((A::from_json(&items[0])?, B::from_json(&items[1])?))
            }
            other => Err(JsonError::new(format!(
                "expected pair, got {}",
                other.kind()
            ))),
        }
    }
}

/// Generate [`ToJson`]/[`FromJson`] for a struct with named public fields,
/// serialized as an object keyed by field name (serde's default layout).
///
/// ```
/// #[derive(PartialEq, Debug)]
/// struct Point { x: i64, y: i64 }
/// regless_json::impl_json_struct!(Point { x, y });
///
/// let p = Point { x: 3, y: -1 };
/// let text = regless_json::to_string(&p);
/// assert_eq!(text, r#"{"x":3,"y":-1}"#);
/// assert_eq!(regless_json::from_str::<Point>(&text).unwrap(), p);
/// ```
#[macro_export]
macro_rules! impl_json_struct {
    ($name:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::ToJson for $name {
            fn to_json(&self) -> $crate::Json {
                $crate::Json::Obj(vec![
                    $((stringify!($field).to_string(), $crate::ToJson::to_json(&self.$field)),)+
                ])
            }
        }
        impl $crate::FromJson for $name {
            fn from_json(v: &$crate::Json) -> Result<Self, $crate::JsonError> {
                Ok($name {
                    $($field: $crate::FromJson::from_json(v.field(stringify!($field))?)?,)+
                })
            }
        }
    };
}

/// Generate [`ToJson`]/[`FromJson`] for a C-like enum, serialized as the
/// variant name string (serde's default layout for unit variants).
///
/// ```
/// #[derive(PartialEq, Debug)]
/// enum Mode { Fast, Slow }
/// regless_json::impl_json_enum!(Mode { Fast, Slow });
///
/// assert_eq!(regless_json::to_string(&Mode::Fast), r#""Fast""#);
/// assert_eq!(regless_json::from_str::<Mode>(r#""Slow""#).unwrap(), Mode::Slow);
/// ```
#[macro_export]
macro_rules! impl_json_enum {
    ($name:ident { $($variant:ident),+ $(,)? }) => {
        impl $crate::ToJson for $name {
            fn to_json(&self) -> $crate::Json {
                match self {
                    $($name::$variant => $crate::Json::Str(stringify!($variant).to_string()),)+
                }
            }
        }
        impl $crate::FromJson for $name {
            fn from_json(v: &$crate::Json) -> Result<Self, $crate::JsonError> {
                match v {
                    $($crate::Json::Str(s) if s == stringify!($variant) => Ok($name::$variant),)+
                    other => Err($crate::JsonError::new(format!(
                        "unknown {} variant: {:?}", stringify!($name), other
                    ))),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for v in [
            Json::Null,
            Json::Bool(true),
            Json::Int(-42),
            Json::Uint(u64::MAX),
        ] {
            let text = v.to_string_compact();
            assert_eq!(Json::parse(&text).unwrap(), v);
        }
        let f = Json::Float(1.5e-3);
        assert_eq!(Json::parse(&f.to_string_compact()).unwrap(), f);
        // Integral floats keep their floatness through a round trip.
        assert_eq!(Json::Float(2.0).to_string_compact(), "2.0");
    }

    #[test]
    fn strings_escape_and_round_trip() {
        let s = Json::Str("a \"quote\"\nnewline\ttab \\ slash ünïcøde".to_string());
        assert_eq!(Json::parse(&s.to_string_compact()).unwrap(), s);
    }

    #[test]
    fn nested_values_round_trip() {
        let v = Json::Obj(vec![
            ("xs".into(), Json::Arr(vec![Json::Int(1), Json::Int(2)])),
            (
                "nested".into(),
                Json::Obj(vec![("ok".into(), Json::Bool(true))]),
            ),
            ("none".into(), Json::Null),
        ]);
        for text in [v.to_string_compact(), v.to_string_pretty()] {
            assert_eq!(Json::parse(&text).unwrap(), v);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "1 2", "nul", "\"unterminated"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn struct_macro_round_trips() {
        #[derive(PartialEq, Debug)]
        struct Demo {
            count: usize,
            scale: f64,
            label: String,
            flags: Vec<bool>,
        }
        impl_json_struct!(Demo {
            count,
            scale,
            label,
            flags
        });

        let d = Demo {
            count: 7,
            scale: 0.25,
            label: "x".into(),
            flags: vec![true, false],
        };
        let text = to_string(&d);
        assert_eq!(from_str::<Demo>(&text).unwrap(), d);
        // Missing fields are reported by name.
        let err = from_str::<Demo>(r#"{"count":7}"#).unwrap_err();
        assert!(err.message.contains("scale"), "{err}");
    }

    #[test]
    fn enum_macro_round_trips() {
        #[derive(PartialEq, Debug)]
        enum Mode {
            Fast,
            Slow,
        }
        impl_json_enum!(Mode { Fast, Slow });
        for m in [Mode::Fast, Mode::Slow] {
            let text = to_string(&m);
            assert_eq!(from_str::<Mode>(&text).unwrap(), m);
        }
        assert!(from_str::<Mode>(r#""Medium""#).is_err());
    }

    /// Seeded xorshift64* source for the random-tree property below.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn string(&mut self) -> String {
            // Escapes, every control-char class, DEL, and 2-, 3- and
            // 4-byte UTF-8, mixed with plain ASCII runs.
            const POOL: &[char] = &[
                'a', 'Z', '0', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{8}', '\u{c}',
                '\u{1f}', '\u{7f}', 'é', 'ø', '€', '中', '😀',
            ];
            let len = self.below(12);
            (0..len)
                .map(|_| POOL[self.below(POOL.len() as u64) as usize])
                .collect()
        }

        /// A finite float that round-trips: integral, exponent-range,
        /// subnormal, extreme, or arbitrary bits.
        fn float(&mut self) -> f64 {
            let x = match self.below(7) {
                0 => (self.below(2_000) as f64) - 1_000.0,
                1 => 1.5e-7,
                2 => 1e21 * (self.below(9) + 1) as f64,
                3 => [5e-324, f64::MIN_POSITIVE, f64::MAX, -0.0][self.below(4) as usize],
                4 => 1e300,
                _ => f64::from_bits(self.next()),
            };
            if x.is_finite() {
                x
            } else {
                0.25
            }
        }

        /// A random tree; `Uint` only above `i64::MAX` (smaller values
        /// parse back as `Int`), and no non-finite floats, so that every
        /// tree round-trips through the parser.
        fn tree(&mut self, depth: u32) -> Json {
            let leaf = depth == 0 || self.below(3) == 0;
            match self.below(if leaf { 6 } else { 8 }) {
                0 => Json::Null,
                1 => Json::Bool(self.below(2) == 1),
                2 => Json::Int(match self.below(4) {
                    0 => i64::MIN,
                    1 => i64::MAX,
                    _ => self.next() as i64 >> self.below(64),
                }),
                3 => Json::Uint(match self.below(2) {
                    0 => u64::MAX,
                    _ => (1 << 63) | self.next(),
                }),
                4 => Json::Float(self.float()),
                5 => Json::Str(self.string()),
                6 => Json::Arr((0..self.below(5)).map(|_| self.tree(depth - 1)).collect()),
                _ => Json::Obj(
                    (0..self.below(5))
                        .map(|_| (self.string(), self.tree(depth - 1)))
                        .collect(),
                ),
            }
        }
    }

    #[test]
    fn writer_matches_the_reference_model_and_round_trips() {
        let mut rng = Rng(0x5eed_0f15_0a7e_5100);
        for case in 0..2_000 {
            let tree = rng.tree(4);
            let compact = tree.to_string_compact();
            let pretty = tree.to_string_pretty();
            assert_eq!(compact, reference::to_string_compact(&tree), "case {case}");
            assert_eq!(pretty, reference::to_string_pretty(&tree), "case {case}");
            assert_eq!(Json::parse(&compact).as_ref(), Ok(&tree), "case {case}");
            assert_eq!(Json::parse(&pretty).as_ref(), Ok(&tree), "case {case}");
        }
    }

    #[test]
    fn writer_edge_cases_match_the_reference_model() {
        let edges = Json::Arr(vec![
            Json::Int(i64::MIN),
            Json::Int(0),
            Json::Uint(u64::MAX),
            Json::Float(2.0),
            Json::Float(-0.0),
            Json::Float(1e300),
            Json::Float(5e-324),
            Json::Float(f64::NAN),
            Json::Float(f64::INFINITY),
            Json::Float(f64::NEG_INFINITY),
            Json::Str("\"\\\n\r\t\u{0}\u{1}\u{1f} ünïcøde 😀".to_string()),
        ]);
        let text = edges.to_string_compact();
        assert_eq!(text, reference::to_string_compact(&edges));
        assert!(
            text.starts_with("[-9223372036854775808,0,18446744073709551615,2.0,-0.0,1000"),
            "{text}"
        );
        assert!(text.contains(",null,null,null,"), "{text}");
        assert!(
            text.ends_with(r#""\"\\\n\r\t\u0000\u0001\u001f ünïcøde 😀"]"#),
            "{text}"
        );
    }

    #[test]
    fn raw_text_is_spliced_verbatim() {
        let inner = Json::Obj(vec![
            ("cycles".into(), Json::Int(42)),
            ("ipc".into(), Json::Float(1.5)),
        ]);
        let raw = Json::Raw(inner.to_string_compact().into());
        let outer = |v: Json| Json::Obj(vec![("id".into(), Json::Int(1)), ("report".into(), v)]);
        assert_eq!(
            outer(raw.clone()).to_string_compact(),
            outer(inner.clone()).to_string_compact()
        );
        assert_eq!(
            Json::parse(&outer(raw).to_string_compact()).unwrap(),
            outer(inner)
        );
    }

    /// A random string of ASCII runs (up to 40 bytes, so the parser's
    /// run copy spans many bytes), characters that need escapes, every
    /// control character, DEL and 2-, 3- and 4-byte UTF-8.
    fn mixed_string(rng: &mut Rng) -> String {
        const WIDE: &[char] = &['é', 'ø', '€', '中', '\u{fffd}', '😀', '\u{10ffff}'];
        let mut s = String::new();
        for _ in 0..rng.below(8) {
            match rng.below(5) {
                0 => {
                    let len = rng.below(41);
                    s.extend((0..len).map(|_| char::from(b' ' + rng.below(95) as u8)));
                }
                1 => s.push(['"', '\\', '/'][rng.below(3) as usize]),
                2 => s.push(char::from(rng.below(0x20) as u8)),
                3 => s.push('\u{7f}'),
                _ => s.push(WIDE[rng.below(WIDE.len() as u64) as usize]),
            }
        }
        s
    }

    /// A JSON literal that spells `s`, each character written raw (when
    /// JSON allows it) or through one of the escapes that decode to it.
    fn spell(rng: &mut Rng, s: &str) -> String {
        let mut text = String::from("\"");
        for c in s.chars() {
            let short = match c {
                '"' => Some("\\\""),
                '\\' => Some("\\\\"),
                '/' => Some("\\/"),
                '\n' => Some("\\n"),
                '\r' => Some("\\r"),
                '\t' => Some("\\t"),
                '\u{8}' => Some("\\b"),
                '\u{c}' => Some("\\f"),
                _ => None,
            };
            // RFC 8259 allows every character raw except `"`, `\` and
            // the control characters below U+0020.
            let code = u32::from(c);
            let raw_ok = code >= 0x20 && !matches!(c, '"' | '\\');
            match (rng.below(3), short) {
                (0, _) if raw_ok => text.push(c),
                (1, Some(e)) => text.push_str(e),
                _ if code <= 0xffff => {
                    let hex = if rng.below(2) == 0 {
                        format!("\\u{code:04x}")
                    } else {
                        format!("\\u{code:04X}")
                    };
                    text.push_str(&hex);
                }
                _ => text.push(c),
            }
        }
        text.push('"');
        text
    }

    #[test]
    fn strings_round_trip_through_every_spelling() {
        let mut rng = Rng(0x0dd_ba11_5eed_cafe);
        for case in 0..5_000 {
            let s = mixed_string(&mut rng);
            let v = Json::Str(s.clone());
            let compact = v.to_string_compact();
            assert_eq!(compact, reference::to_string_compact(&v), "case {case}");
            assert_eq!(Json::parse(&compact).as_ref(), Ok(&v), "case {case}: {s:?}");
            let spelled = spell(&mut rng, &s);
            assert_eq!(
                Json::parse(&spelled).as_ref(),
                Ok(&v),
                "case {case}: {spelled:?}"
            );
        }
    }

    #[test]
    fn malformed_strings_keep_their_error_messages() {
        for (text, message) in [
            ("\"", "unterminated string"),
            ("\"abc", "unterminated string"),
            ("\"a\\\"", "unterminated string"),
            ("[\"é€😀", "unterminated string"),
            ("\"abc\\", "unterminated escape"),
            ("\"\\u12\"", "bad \\u escape"),
            ("\"\\u12", "bad \\u escape"),
            ("\"\\uzzzz\"", "bad \\u escape"),
            ("\"\\u-123\"", "bad \\u escape"),
            ("\"\\x\"", "bad escape `\\x`"),
            ("\"ab\\'\"", "bad escape `\\'`"),
            ("{\"k\\q\":1}", "bad escape `\\q`"),
        ] {
            assert_eq!(Json::parse(text), Err(JsonError::new(message)), "{text:?}");
        }
    }

    #[test]
    fn u64_precision_is_preserved() {
        let big = u64::MAX - 3;
        let text = to_string(&big);
        assert_eq!(from_str::<u64>(&text).unwrap(), big);
    }
}
