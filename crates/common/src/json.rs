//! A minimal JSON document model and serializer.
//!
//! The experiment harnesses emit machine-readable results; this module
//! replaces the `serde`/`serde_json` dependency with a self-contained
//! equivalent so the workspace builds with **zero registry dependencies**
//! (the build environment has no network access to crates.io).
//!
//! Supported surface — deliberately only what the workspace uses:
//!
//! - [`Value`]: null / bool / integer / float / string / array / object,
//! - [`Map`]: an insertion-ordered string→[`Value`] map,
//! - [`json!`](crate::json!): a literal macro accepting arbitrary Rust
//!   expressions in value position,
//! - [`Value::to_string`](core::fmt::Display) (compact) and
//!   [`Value::pretty`] (2-space indent, `serde_json`-style),
//! - [`parse`]: the inverse — a strict parser whose output round-trips
//!   the serializer exactly (snapshot restore depends on this).
//!
//! # Examples
//!
//! ```
//! use cosmos_common::json::{json, Value};
//! let v = json!({"name": "dfs", "ipc": 0.25, "rows": [1, 2, 3]});
//! assert_eq!(v["name"].as_str(), Some("dfs"));
//! assert_eq!(v["rows"][2].as_u64(), Some(3));
//! assert!(v.pretty().contains("\"ipc\": 0.25"));
//! ```

pub use crate::json;

/// An insertion-ordered JSON object.
///
/// Iteration and serialization follow insertion order, which keeps emitted
/// documents deterministic and in the order the harness built them.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Map {
    entries: Vec<(String, Value)>,
}

impl Map {
    /// Creates an empty map.
    pub const fn new() -> Self {
        Self {
            entries: Vec::new(),
        }
    }

    /// Inserts `value` under `key`, replacing (in place) any existing entry.
    /// Returns the previous value, if any.
    pub fn insert(&mut self, key: impl Into<String>, value: Value) -> Option<Value> {
        let key = key.into();
        match self.entries.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => Some(core::mem::replace(v, value)),
            None => {
                self.entries.push((key, value));
                None
            }
        }
    }

    /// Looks up a key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Looks up a key for mutation.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
        self.entries
            .iter_mut()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }
}

impl core::ops::Index<&str> for Map {
    type Output = Value;

    #[expect(
        clippy::panic,
        reason = "std Index contract requires a panic on a missing key"
    )]
    fn index(&self, key: &str) -> &Value {
        self.get(key)
            .unwrap_or_else(|| panic!("no key {key:?} in JSON object"))
    }
}

impl FromIterator<(String, Value)> for Map {
    fn from_iter<I: IntoIterator<Item = (String, Value)>>(iter: I) -> Self {
        let mut map = Map::new();
        for (k, v) in iter {
            map.insert(k, v);
        }
        map
    }
}

/// A JSON document node.
///
/// Equality is *numeric* across the integer variants: `Int(5)` equals
/// `UInt(5)` (JSON itself has a single number type; the split exists only
/// so `u64` counters serialize without loss). Floats never equal integers.
#[derive(Clone, Debug)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A signed integer.
    Int(i64),
    /// An unsigned integer (kept separate so `u64` counters round-trip).
    UInt(u64),
    /// A double. Non-finite values serialize as `null` (JSON has no NaN).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object.
    Object(Map),
}

impl Value {
    /// The value as `f64` (any numeric variant).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Int(i) => Some(i as f64),
            Value::UInt(u) => Some(u as f64),
            Value::Float(f) => Some(f),
            _ => None,
        }
    }

    /// The value as `u64` (non-negative integer variants).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::Int(i) => u64::try_from(i).ok(),
            Value::UInt(u) => Some(u),
            _ => None,
        }
    }

    /// The value as `i64`.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Value::Int(i) => Some(i),
            Value::UInt(u) => i64::try_from(u).ok(),
            _ => None,
        }
    }

    /// The value as `bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as `&str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The value as an object.
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Looks up `key` if this is an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|m| m.get(key))
    }

    /// Serializes with 2-space indentation (like `to_string_pretty`).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(i) => out.push_str(&i.to_string()),
            Value::UInt(u) => out.push_str(&u.to_string()),
            Value::Float(f) if f.is_finite() => {
                // `{:?}` keeps a trailing `.0` on whole floats, matching the
                // conventional JSON rendering of a float-typed field.
                out.push_str(&format!("{f:?}"));
            }
            Value::Float(_) => out.push_str("null"),
            Value::Str(s) => write_escaped(out, s),
            Value::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent.map(|d| d + 1));
                    item.write(out, indent.map(|d| d + 1));
                }
                newline_indent(out, indent);
                out.push(']');
            }
            Value::Object(map) => {
                if map.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent.map(|d| d + 1));
                    write_escaped(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent.map(|d| d + 1));
                }
                newline_indent(out, indent);
                out.push('}');
            }
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::UInt(a), Value::UInt(b)) => a == b,
            (Value::Int(a), Value::UInt(b)) | (Value::UInt(b), Value::Int(a)) => {
                u64::try_from(*a) == Ok(*b)
            }
            (Value::Float(a), Value::Float(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Array(a), Value::Array(b)) => a == b,
            (Value::Object(a), Value::Object(b)) => a == b,
            _ => false,
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>) {
    if let Some(depth) = indent {
        out.push('\n');
        for _ in 0..depth {
            out.push_str("  ");
        }
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
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl core::fmt::Display for Value {
    /// Compact (no-whitespace) serialization.
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None);
        f.write_str(&out)
    }
}

impl core::ops::Index<&str> for Value {
    type Output = Value;

    fn index(&self, key: &str) -> &Value {
        &self.as_object().expect("indexing a non-object JSON value")[key]
    }
}

impl core::ops::Index<usize> for Value {
    type Output = Value;

    fn index(&self, i: usize) -> &Value {
        &self.as_array().expect("indexing a non-array JSON value")[i]
    }
}

macro_rules! from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(x: $t) -> Value {
                Value::Int(x as i64)
            }
        }
    )*};
}
from_int!(i8, i16, i32, i64);

macro_rules! from_uint {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(x: $t) -> Value {
                Value::UInt(x as u64)
            }
        }
    )*};
}
from_uint!(u8, u16, u32, u64, usize);

impl From<f64> for Value {
    fn from(x: f64) -> Value {
        Value::Float(x)
    }
}

impl From<f32> for Value {
    fn from(x: f32) -> Value {
        // Round-trip through the decimal shortest representation so `0.09f32`
        // serializes as `0.09`, not `0.09000000357627869`.
        Value::Float(x.to_string().parse().unwrap_or(x as f64))
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

impl From<Map> for Value {
    fn from(x: Map) -> Value {
        Value::Object(x)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(x: Vec<T>) -> Value {
        Value::Array(x.into_iter().map(Into::into).collect())
    }
}

/// Builds a [`Value`] from a JSON-like literal.
///
/// Object keys are string literals; values are nested literals or arbitrary
/// Rust expressions (anything convertible to [`Value`] via `From`).
///
/// # Examples
///
/// ```
/// use cosmos_common::json::json;
/// let ipc = 0.5;
/// let v = json!({"kernel": "bfs", "ipc": ipc, "norm": ipc / 0.25});
/// assert_eq!(v["norm"].as_f64(), Some(2.0));
/// ```
#[macro_export]
macro_rules! json {
    (null) => { $crate::json::Value::Null };
    ([ $($tt:tt)* ]) => {{
        #[allow(unused_mut)]
        let mut items = ::std::vec::Vec::<$crate::json::Value>::new();
        $crate::json_items!(items () $($tt)*);
        $crate::json::Value::Array(items)
    }};
    ({ $($tt:tt)* }) => {{
        #[allow(unused_mut)]
        let mut map = $crate::json::Map::new();
        $crate::json_entries!(map $($tt)*);
        $crate::json::Value::Object(map)
    }};
    ($other:expr) => { $crate::json::Value::from($other) };
}

/// Internal: accumulates array elements (tt-muncher, splits on top-level
/// commas so elements may be arbitrary expressions).
#[doc(hidden)]
#[macro_export]
macro_rules! json_items {
    ($vec:ident ()) => {};
    ($vec:ident ($($buf:tt)+)) => {
        // `extend` rather than `push`: a `Vec::new()` followed by pushes in
        // the same expansion trips clippy::vec_init_then_push at every call
        // site, and the macro cannot know its element count up front.
        $vec.extend([$crate::json!($($buf)+)]);
    };
    ($vec:ident ($($buf:tt)+) , $($rest:tt)*) => {
        $vec.extend([$crate::json!($($buf)+)]);
        $crate::json_items!($vec () $($rest)*);
    };
    ($vec:ident ($($buf:tt)*) $next:tt $($rest:tt)*) => {
        $crate::json_items!($vec ($($buf)* $next) $($rest)*);
    };
}

/// Internal: parses `"key": value` object entries.
#[doc(hidden)]
#[macro_export]
macro_rules! json_entries {
    ($map:ident) => {};
    ($map:ident $key:literal : $($rest:tt)+) => {
        $crate::json_entry_value!($map $key () $($rest)+);
    };
}

/// Internal: accumulates one entry's value tokens up to a top-level comma.
#[doc(hidden)]
#[macro_export]
macro_rules! json_entry_value {
    ($map:ident $key:literal ($($buf:tt)+)) => {
        $map.insert($key, $crate::json!($($buf)+));
    };
    ($map:ident $key:literal ($($buf:tt)+) , $($rest:tt)*) => {
        $map.insert($key, $crate::json!($($buf)+));
        $crate::json_entries!($map $($rest)*);
    };
    ($map:ident $key:literal ($($buf:tt)*) $next:tt $($rest:tt)*) => {
        $crate::json_entry_value!($map $key ($($buf)* $next) $($rest)*);
    };
}

/// A parse failure: what went wrong and the byte offset it happened at.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description of the failure.
    pub message: String,
    /// Byte offset into the input where the failure was detected.
    pub offset: usize,
}

impl core::fmt::Display for ParseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parses a JSON document into a [`Value`].
///
/// Strict: exactly one top-level value, no trailing garbage, no comments,
/// no trailing commas. Numbers parse back into the same variants the
/// serializer emits — an unsigned integer literal becomes [`Value::UInt`],
/// a negative one [`Value::Int`], and anything with a fraction or exponent
/// [`Value::Float`] (Rust's shortest-representation float formatting
/// guarantees `parse(v.to_string()) == v` for finite floats).
///
/// # Examples
///
/// ```
/// use cosmos_common::json::{json, parse};
/// let v = json!({"a": 1, "b": [2.5, "x"], "c": null});
/// assert_eq!(parse(&v.to_string()).unwrap(), v);
/// assert_eq!(parse(&v.pretty()).unwrap(), v);
/// assert!(parse("{\"a\": }").is_err());
/// ```
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after top-level value"));
    }
    Ok(value)
}

/// Recursion guard: deeper nesting than any document this workspace emits.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
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

    /// Consumes `lit` (used after its first byte has been peeked).
    fn literal(&mut self, lit: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{lit}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.pos += 1; // consume `[`
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.pos += 1; // consume `{`
        let mut map = Map::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected string key in object"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.err("expected `:` after object key"));
            }
            self.pos += 1;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.pos += 1; // consume opening `"`
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let c = self.unicode_escape()?;
                            out.push(c);
                            continue; // unicode_escape consumed its digits
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => {
                    return Err(self.err("unescaped control character in string"));
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is &str, so slicing at
                    // the next char boundary is safe).
                    let rest = &self.bytes[self.pos..];
                    let s = core::str::from_utf8(rest).map_err(|_| self.err("invalid UTF-8"))?;
                    let c = s
                        .chars()
                        .next()
                        .expect("rest is non-empty: pos < bytes.len() in this branch");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Parses the 4 hex digits after `\u` (surrogate pairs supported).
    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        let hi = self.hex4()?;
        if (0xD800..0xDC00).contains(&hi) {
            // High surrogate: require a following `\uXXXX` low surrogate.
            if self.bytes[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let lo = self.hex4()?;
                if (0xDC00..0xE000).contains(&lo) {
                    let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    return char::from_u32(c).ok_or_else(|| self.err("invalid surrogate pair"));
                }
            }
            return Err(self.err("unpaired surrogate in \\u escape"));
        }
        char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(c @ b'0'..=b'9') => (c - b'0') as u32,
                Some(c @ b'a'..=b'f') => (c - b'a' + 10) as u32,
                Some(c @ b'A'..=b'F') => (c - b'A' + 10) as u32,
                _ => return Err(self.err("expected 4 hex digits after \\u")),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            return Err(self.err("expected digit"));
        }
        // Leading zero may not be followed by more digits (strict JSON).
        if self.peek() == Some(b'0')
            && matches!(self.bytes.get(self.pos + 1), Some(c) if c.is_ascii_digit())
        {
            return Err(self.err("leading zeros are not allowed"));
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.err("expected digit after decimal point"));
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.err("expected digit in exponent"));
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = core::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number");
        if !is_float {
            if negative {
                if let Ok(i) = text.parse::<i64>() {
                    return Ok(Value::Int(i));
                }
            } else if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
            // Integer literal outside 64-bit range: fall through to float.
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| self.err(format!("invalid number `{text}`")))
    }
}

/// Field-extraction helpers for hand-written deserializers: the snapshot
/// envelope, the serve protocol and counter structs. They centralize the
/// error phrasing, so every missing or mistyped field reports its key
/// ("field `tags`: expected an array of u64") instead of a bare `None`.
pub mod codec {
    use super::{Map, Value};

    /// The value as an object.
    pub fn obj<'a>(v: &'a Value, what: &str) -> Result<&'a Map, String> {
        v.as_object()
            .ok_or_else(|| format!("{what}: expected a JSON object"))
    }

    /// The named field of an object.
    pub fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
        v.get(key).ok_or_else(|| format!("missing field `{key}`"))
    }

    /// A `u64` field.
    pub fn u64_field(v: &Value, key: &str) -> Result<u64, String> {
        field(v, key)?
            .as_u64()
            .ok_or_else(|| format!("field `{key}`: expected a u64"))
    }

    /// A `usize` field.
    pub fn usize_field(v: &Value, key: &str) -> Result<usize, String> {
        u64_field(v, key).and_then(|x| {
            usize::try_from(x).map_err(|_| format!("field `{key}`: value {x} overflows usize"))
        })
    }

    /// A string field.
    pub fn str_field<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
        field(v, key)?
            .as_str()
            .ok_or_else(|| format!("field `{key}`: expected a string"))
    }

    /// An array field decoded element-wise as `u64`.
    pub fn u64_array(v: &Value, key: &str) -> Result<Vec<u64>, String> {
        let arr = field(v, key)?
            .as_array()
            .ok_or_else(|| format!("field `{key}`: expected an array"))?;
        arr.iter()
            .map(|x| {
                x.as_u64()
                    .ok_or_else(|| format!("field `{key}`: expected an array of u64"))
            })
            .collect()
    }

    /// Encodes an iterator of `u64`-convertible integers as a JSON array.
    pub fn from_u64s(xs: impl IntoIterator<Item = u64>) -> Value {
        Value::Array(xs.into_iter().map(Value::UInt).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars() {
        assert_eq!(json!(null).to_string(), "null");
        assert_eq!(json!(true).to_string(), "true");
        assert_eq!(json!(3u64).to_string(), "3");
        assert_eq!(json!(-7).to_string(), "-7");
        assert_eq!(json!(1.5).to_string(), "1.5");
        assert_eq!(json!(1.0).to_string(), "1.0");
        assert_eq!(json!("hi").to_string(), "\"hi\"");
        assert_eq!(json!(f64::NAN).to_string(), "null");
    }

    #[test]
    fn f32_values_round_trip_decimally() {
        assert_eq!(json!(0.09f32).to_string(), "0.09");
        assert_eq!(json!(0.35f32).to_string(), "0.35");
    }

    #[test]
    fn arrays_and_expressions() {
        let x = 4;
        let v = json!([1, x + 1, "s", [true]]);
        assert_eq!(v.to_string(), "[1,5,\"s\",[true]]");
        assert_eq!(v[1].as_i64(), Some(5));
        assert_eq!(json!([]).to_string(), "[]");
    }

    #[test]
    fn objects_nested_and_ordered() {
        let t = (2u64, 3u64);
        let v = json!({
            "b": 1,
            "a": {"x": t.0 + t.1, "y": [1, 2]},
            "s": "str",
        });
        // Insertion order is preserved (not sorted).
        assert_eq!(
            v.to_string(),
            "{\"b\":1,\"a\":{\"x\":5,\"y\":[1,2]},\"s\":\"str\"}"
        );
        assert_eq!(v["a"]["x"].as_u64(), Some(5));
    }

    #[test]
    fn pretty_matches_two_space_style() {
        let v = json!({"a": 1, "b": [true, null]});
        assert_eq!(
            v.pretty(),
            "{\n  \"a\": 1,\n  \"b\": [\n    true,\n    null\n  ]\n}"
        );
        assert_eq!(json!({}).pretty(), "{}");
    }

    #[test]
    fn map_insert_replaces_in_place() {
        let mut m = Map::new();
        m.insert("k", json!(1));
        m.insert("j", json!(2));
        assert_eq!(m.insert("k", json!(3)), Some(json!(1)));
        assert_eq!(Value::Object(m).to_string(), "{\"k\":3,\"j\":2}");
    }

    #[test]
    fn string_escaping() {
        let v = json!("a\"b\\c\nd\u{1}");
        assert_eq!(v.to_string(), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn vec_of_values_converts() {
        let rows = vec![json!(1), json!("x")];
        let v = json!({"rows": rows});
        assert_eq!(v.to_string(), "{\"rows\":[1,\"x\"]}");
    }

    #[test]
    fn index_by_key_and_position() {
        let v = json!({"rows": [{"k": "bfs"}]});
        assert_eq!(v["rows"][0]["k"].as_str(), Some("bfs"));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parse_round_trips_compact_and_pretty() {
        let v = json!({
            "name": "fig02",
            "count": 18_446_744_073_709_551_615u64,
            "neg": -42,
            "pi": (std::f64::consts::PI),
            "tiny": 1e-300,
            "flags": [true, false, null],
            "nested": {"s": "a\"b\\c\nd\u{1}", "empty": [], "obj": {}},
        });
        assert_eq!(parse(&v.to_string()).unwrap(), v);
        assert_eq!(parse(&v.pretty()).unwrap(), v);
    }

    #[test]
    fn parse_number_variants_match_serializer() {
        assert_eq!(parse("7").unwrap(), Value::UInt(7));
        assert_eq!(parse("-7").unwrap(), Value::Int(-7));
        assert_eq!(parse("7.0").unwrap(), Value::Float(7.0));
        assert_eq!(parse("1.5e3").unwrap(), Value::Float(1500.0));
        // u64::MAX stays exact; beyond it degrades to float.
        assert_eq!(
            parse("18446744073709551615").unwrap(),
            Value::UInt(u64::MAX)
        );
        assert!(matches!(
            parse("18446744073709551616").unwrap(),
            Value::Float(_)
        ));
    }

    #[test]
    fn parse_float_bit_exact_round_trip() {
        for f in [0.1, 1.0 / 3.0, f64::MIN_POSITIVE, f64::MAX, -2.5e-10] {
            let s = Value::Float(f).to_string();
            assert_eq!(parse(&s).unwrap(), Value::Float(f), "{s}");
        }
    }

    #[test]
    fn parse_unicode_escapes() {
        assert_eq!(parse(r#""Aé""#).unwrap(), json!("Aé"));
        // Surrogate pair for U+1F600.
        assert_eq!(parse(r#""😀""#).unwrap(), json!("😀"));
        assert!(parse(r#""\ud83d""#).is_err(), "unpaired surrogate");
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "{a: 1}",
            "01",
            "1.",
            "1e",
            "tru",
            "\"unterminated",
            "[1] trailing",
            "nan",
            "+1",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn parse_errors_carry_offsets() {
        let err = parse("{\"key\": !}").unwrap_err();
        assert_eq!(err.offset, 8);
        assert!(err.to_string().contains("byte 8"), "{err}");
    }

    #[test]
    fn parse_accepts_whitespace_everywhere() {
        let v = parse(" \t\n{ \"a\" : [ 1 , 2 ] , \"b\" : { } } \r\n").unwrap();
        assert_eq!(v, json!({"a": [1, 2], "b": {}}));
    }
}
