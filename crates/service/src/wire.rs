//! Hand-rolled JSON for the service wire format.
//!
//! The workspace's vendored-deps policy (no crates.io) rules out `serde`,
//! and the service's payloads are small and flat, so this module
//! implements exactly the JSON subset the wire needs, as one reader and
//! one writer:
//!
//! * `Reader` is a pull reader over the text: `Reader::item` reads the
//!   value at the cursor, scalars whole and containers by their opening
//!   bracket, which `Reader::items` and `Reader::members` then walk and
//!   `Reader::skip` checks without keeping. Object keys and strings are
//!   borrowed from the input unless they hold an escape. The job decoders
//!   in [`crate::api`] read request bodies with it straight into job
//!   specs, and [`Json::parse`] builds the [`Json`] value tree with it, so
//!   both share every syntax rule, byte offset and message, and the
//!   64-level depth limit.
//! * `WriteJson` appends a value's text to a `String`, and `ObjectWriter`
//!   writes an object member by member. Results are rendered with them
//!   straight into the response body; [`Json::encode`] writes the tree
//!   with the same scalar and string rules. Object keys keep their
//!   written order, so equal values encode to byte-identical text — the
//!   property the load generator's bit-identity check and the cache
//!   acceptance test rely on.
//!
//! Numbers are split into [`Json::Int`] (`i64`, exact — seeds and counts)
//! and [`Json::Float`] (`f64`, shortest-roundtrip encoding). Floats always
//! encode with a `.` or exponent so they re-parse as floats; non-finite
//! floats encode as `null` (JSON has no spelling for them).

use std::borrow::Cow;
use std::fmt::{self, Write as _};

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without fraction or exponent, kept exact.
    Int(i64),
    /// A fractional or exponent number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, members in input order. Parsing keeps duplicate keys;
    /// [`Json::get`] returns the first member with the key.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on objects (first match), `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The integer payload, if this is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The integer payload as a `u64`, if integral and non-negative.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// The numeric payload as `f64` (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Parses one JSON document (trailing garbage is an error).
    ///
    /// # Errors
    ///
    /// [`WireError`] with a byte offset and message on malformed input,
    /// nesting beyond 64 levels, or lone surrogates in `\u` escapes.
    pub fn parse(text: &str) -> Result<Json, WireError> {
        Reader::new(text).document(|r| r.json(0))
    }

    /// Encodes the value as compact JSON text (deterministic: equal values
    /// produce byte-identical output).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    /// The text [`Reader`] reads back to this value, for the adapters
    /// that decode a tree by reading its text. It equals
    /// [`Json::encode`] except that infinite floats are spelled `1e999`
    /// and `-1e999`, which read back as infinity like any overflowing
    /// number. NaN cannot come from parsing and still encodes as `null`.
    pub(crate) fn encode_for_reader(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, true);
        out
    }

    fn write(&self, out: &mut String, spell_infinity: bool) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => b.write_json(out),
            Json::Int(i) => i.write_json(out),
            Json::Float(x) if spell_infinity && x.is_infinite() => {
                out.push_str(if *x > 0.0 { "1e999" } else { "-1e999" })
            }
            Json::Float(x) => x.write_json(out),
            Json::Str(s) => s.as_str().write_json(out),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out, spell_infinity);
                }
                out.push(']');
            }
            Json::Object(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    key.as_str().write_json(out);
                    out.push(':');
                    value.write(out, spell_infinity);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.encode())
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::Str(s)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}

impl From<i64> for Json {
    fn from(i: i64) -> Self {
        Json::Int(i)
    }
}

impl From<usize> for Json {
    fn from(i: usize) -> Self {
        Json::Int(i as i64)
    }
}

impl From<u64> for Json {
    fn from(i: u64) -> Self {
        Json::Int(i as i64)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Self {
        Json::Float(x)
    }
}

/// A value the writer can append as JSON text. Unsigned integers are
/// written as their `i64` cast, as [`Json::from`] stores them; `f32`s
/// widen exactly to `f64`.
pub(crate) trait WriteJson {
    /// Appends this value's JSON text to `out`.
    fn write_json(&self, out: &mut String);
}

impl WriteJson for Json {
    fn write_json(&self, out: &mut String) {
        self.write(out, false);
    }
}

impl WriteJson for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl WriteJson for i64 {
    fn write_json(&self, out: &mut String) {
        // Digits are produced last first into a stack buffer.
        let mut digits = [0u8; 20];
        let mut n = self.unsigned_abs();
        let mut at = digits.len();
        loop {
            at -= 1;
            digits[at] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        if *self < 0 {
            out.push('-');
        }
        out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
    }
}

impl WriteJson for u64 {
    fn write_json(&self, out: &mut String) {
        (*self as i64).write_json(out);
    }
}

impl WriteJson for usize {
    fn write_json(&self, out: &mut String) {
        (*self as i64).write_json(out);
    }
}

impl WriteJson for f64 {
    fn write_json(&self, out: &mut String) {
        if !self.is_finite() {
            out.push_str("null");
            return;
        }
        let start = out.len();
        write!(out, "{self}").expect("writing to a String cannot fail");
        // `5f64` displays as "5"; force a float spelling so the value
        // round-trips as Float, not Int.
        if !out[start..].contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    }
}

impl WriteJson for f32 {
    fn write_json(&self, out: &mut String) {
        f64::from(*self).write_json(out);
    }
}

impl WriteJson for str {
    fn write_json(&self, out: &mut String) {
        out.push('"');
        let mut run = 0;
        for (i, byte) in self.bytes().enumerate() {
            let escape = match byte {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0x08 => "\\b",
                0x0C => "\\f",
                0x00..=0x1F => "",
                _ => continue,
            };
            out.push_str(&self[run..i]);
            if escape.is_empty() {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                out.push_str("\\u00");
                out.push(HEX[usize::from(byte >> 4)] as char);
                out.push(HEX[usize::from(byte & 15)] as char);
            } else {
                out.push_str(escape);
            }
            run = i + 1;
        }
        out.push_str(&self[run..]);
        out.push('"');
    }
}

impl<T: WriteJson + ?Sized> WriteJson for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: WriteJson> WriteJson for [T] {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.write_json(out);
        }
        out.push(']');
    }
}

/// Writes one JSON object into a buffer, member by member, in call
/// order; [`ObjectWriter::end`] closes it.
pub(crate) struct ObjectWriter<'o> {
    out: &'o mut String,
    empty: bool,
}

impl<'o> ObjectWriter<'o> {
    /// Opens an object at the end of `out`.
    pub(crate) fn new(out: &'o mut String) -> Self {
        out.push('{');
        ObjectWriter { out, empty: true }
    }

    /// Writes the member separator and `key`, and returns the buffer the
    /// member's value is to be appended to.
    pub(crate) fn key(&mut self, key: &str) -> &mut String {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        key.write_json(self.out);
        self.out.push(':');
        self.out
    }

    /// Writes one member.
    pub(crate) fn field(&mut self, key: &str, value: impl WriteJson) -> &mut Self {
        value.write_json(self.key(key));
        self
    }

    /// Closes the object.
    pub(crate) fn end(self) {
        self.out.push('}');
    }
}

/// A JSON syntax error with its byte offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for WireError {}

/// Maximum nesting depth the reader accepts.
const MAX_DEPTH: usize = 64;

/// What [`Reader::item`] found at the cursor: a whole scalar, or the
/// start of a container, whose opening bracket is still unread.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Item<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without fraction or exponent that fits an `i64`.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string, borrowed from the input unless it held an escape.
    Str(Cow<'a, str>),
    /// An array: walk it with [`Reader::items`] or pass it to
    /// [`Reader::skip_item`].
    Array,
    /// An object: walk it with [`Reader::members`] or pass it to
    /// [`Reader::skip_item`].
    Object,
}

impl Item<'_> {
    /// The numeric payload as `f64` (integers widen), as
    /// [`Json::as_f64`].
    pub(crate) fn as_f64(&self) -> Option<f64> {
        match self {
            Item::Int(i) => Some(*i as f64),
            Item::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The integer payload as a `u64`, if integral and non-negative, as
    /// [`Json::as_u64`].
    pub(crate) fn as_u64(&self) -> Option<u64> {
        match self {
            Item::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }
}

/// Powers of ten that are exact in an `f64`.
const POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// A pull reader over one JSON document.
///
/// Values are read at a depth — the document's top value is at 0, a
/// container's elements one deeper — and [`Reader::item`] refuses any
/// value deeper than 64. A walk callback must consume exactly one value
/// per call, by [`Reader::item`] (plus [`Reader::skip_item`] or a walk of
/// a container) or by [`Reader::skip`].
pub(crate) struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub(crate) fn new(text: &'a str) -> Self {
        Reader { text, pos: 0 }
    }

    /// Reads the whole text as one document: `value` reads the top value
    /// (at depth 0); only whitespace may follow it.
    ///
    /// # Errors
    ///
    /// The first syntax error in the text, or the one `value` returns.
    pub(crate) fn document<T>(
        mut self,
        value: impl FnOnce(&mut Self) -> Result<T, WireError>,
    ) -> Result<T, WireError> {
        self.skip_ws();
        let value = value(&mut self)?;
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(self.err("trailing characters after JSON value"));
        }
        Ok(value)
    }

    fn err(&self, message: &str) -> WireError {
        WireError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), WireError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", byte as char)))
        }
    }

    fn literal(&mut self, text: &str) -> Result<(), WireError> {
        if self.text.as_bytes()[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected {text:?}")))
        }
    }

    /// Reads the value at the cursor, which sits at `depth`: a scalar
    /// whole, a container only as far as knowing its kind.
    ///
    /// # Errors
    ///
    /// A syntax error in a scalar, or nesting deeper than 64.
    pub(crate) fn item(&mut self, depth: usize) -> Result<Item<'a>, WireError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null").map(|()| Item::Null),
            Some(b't') => self.literal("true").map(|()| Item::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| Item::Bool(false)),
            Some(b'"') => Ok(Item::Str(self.string()?)),
            Some(b'[') => Ok(Item::Array),
            Some(b'{') => Ok(Item::Object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Finishes a value [`Reader::item`] returned: a container at `depth`
    /// is read to its end and checked; a scalar is already read.
    ///
    /// # Errors
    ///
    /// The first syntax error inside the container.
    pub(crate) fn skip_item(&mut self, item: Item<'a>, depth: usize) -> Result<(), WireError> {
        match item {
            Item::Array => self.items(|r| r.skip(depth + 1)),
            Item::Object => self.members(|r, _| r.skip(depth + 1)),
            _ => Ok(()),
        }
    }

    /// Reads and checks the value at the cursor, keeping nothing.
    ///
    /// # Errors
    ///
    /// The first syntax error in the value.
    pub(crate) fn skip(&mut self, depth: usize) -> Result<(), WireError> {
        let item = self.item(depth)?;
        self.skip_item(item, depth)
    }

    /// Walks the array at the cursor, after [`Reader::item`] returned
    /// [`Item::Array`]: `item` reads each element, one level deeper than
    /// the array.
    ///
    /// # Errors
    ///
    /// The first syntax error, or the first error `item` returns.
    pub(crate) fn items(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), WireError>,
    ) -> Result<(), WireError> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    /// Walks the object at the cursor, after [`Reader::item`] returned
    /// [`Item::Object`]: `member` gets each key, duplicates included, and
    /// reads its value, one level deeper than the object.
    ///
    /// # Errors
    ///
    /// The first syntax error, or the first error `member` returns.
    pub(crate) fn members(
        &mut self,
        mut member: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), WireError>,
    ) -> Result<(), WireError> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            member(self, key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    /// Reads the value at the cursor (at `depth`) into a [`Json`] tree.
    fn json(&mut self, depth: usize) -> Result<Json, WireError> {
        Ok(match self.item(depth)? {
            Item::Null => Json::Null,
            Item::Bool(b) => Json::Bool(b),
            Item::Int(i) => Json::Int(i),
            Item::Float(x) => Json::Float(x),
            Item::Str(s) => Json::Str(s.into_owned()),
            Item::Array => {
                let mut items = Vec::new();
                self.items(|r| {
                    items.push(r.json(depth + 1)?);
                    Ok(())
                })?;
                Json::Array(items)
            }
            Item::Object => {
                let mut members = Vec::new();
                self.members(|r, key| {
                    members.push((key.into_owned(), r.json(depth + 1)?));
                    Ok(())
                })?;
                Json::Object(members)
            }
        })
    }

    /// Reads a string; it is borrowed from the input up to its first
    /// escape, and copied from there on.
    fn string(&mut self) -> Result<Cow<'a, str>, WireError> {
        self.expect(b'"')?;
        let start = self.pos;
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Borrowed(&self.text[start..self.pos - 1]));
                }
                Some(b'\\') => break,
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => self.pos += 1,
            }
        }
        let mut out = self.text[start..self.pos].to_string();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
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
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let c = self.unicode_escape()?;
                            out.push(c);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Copy the run up to the next quote, backslash or
                    // control byte: all ASCII, so the run ends on a
                    // character boundary of the (valid UTF-8) input.
                    let run = self.pos;
                    while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[run..self.pos]);
                }
            }
        }
    }

    /// Parses the 4 hex digits after `\u` (the `u` is already consumed),
    /// combining surrogate pairs.
    fn unicode_escape(&mut self) -> Result<char, WireError> {
        let first = self.hex4()?;
        if (0xD800..0xDC00).contains(&first) {
            // High surrogate: a low surrogate escape must follow.
            if self.peek() == Some(b'\\') && self.text.as_bytes().get(self.pos + 1) == Some(&b'u') {
                self.pos += 2;
                let low = self.hex4()?;
                if !(0xDC00..0xE000).contains(&low) {
                    return Err(self.err("expected low surrogate"));
                }
                let c = 0x10000 + ((first - 0xD800) << 10) + (low - 0xDC00);
                return char::from_u32(c).ok_or_else(|| self.err("invalid surrogate pair"));
            }
            return Err(self.err("lone high surrogate"));
        }
        if (0xDC00..0xE000).contains(&first) {
            return Err(self.err("lone low surrogate"));
        }
        char::from_u32(first).ok_or_else(|| self.err("invalid \\u escape"))
    }

    fn hex4(&mut self) -> Result<u32, WireError> {
        let mut value = 0u32;
        for _ in 0..4 {
            let digit = match self.peek() {
                Some(c @ b'0'..=b'9') => (c - b'0') as u32,
                Some(c @ b'a'..=b'f') => (c - b'a' + 10) as u32,
                Some(c @ b'A'..=b'F') => (c - b'A' + 10) as u32,
                _ => return Err(self.err("expected 4 hex digits")),
            };
            value = value * 16 + digit;
            self.pos += 1;
        }
        Ok(value)
    }

    /// Reads a number. Integers of up to 18 digits, and floats without
    /// an exponent whose digits form an integer `m ≤ 2⁵³` over at most
    /// 22 fraction digits, are computed from their digits: `m / 10^k` is
    /// one correctly rounded division of two exact `f64`s, so it equals
    /// `str::parse`. Everything else is left to `str::parse`.
    fn number(&mut self) -> Result<Item<'a>, WireError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        self.pos += usize::from(negative);
        let int_start = self.pos;
        let int_digits = self.digits()?;
        if int_digits > 1 && self.text.as_bytes()[int_start] == b'0' {
            return Err(self.err("leading zero"));
        }
        let mut fraction = 0..0;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let from = self.pos;
            self.digits()?;
            fraction = from..self.pos;
        }
        let mut exponent = false;
        if matches!(self.peek(), Some(b'e' | b'E')) {
            exponent = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        let bytes = self.text.as_bytes();
        let value = |digits: &[u8]| {
            digits
                .iter()
                .fold(0u64, |m, &d| m * 10 + u64::from(d - b'0'))
        };
        let text = &self.text[start..self.pos];
        if fraction.is_empty() && !exponent {
            if int_digits <= 18 {
                let m = value(&bytes[int_start..int_start + int_digits]) as i64;
                return Ok(Item::Int(if negative { -m } else { m }));
            }
            // Integers overflowing i64 fall back to f64 rather than
            // erroring (matches common JSON parsers; precision loss is
            // the caller's lookout at that magnitude).
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Item::Int(i));
            }
        } else if !exponent && int_digits + fraction.len() <= 19 && fraction.len() < POW10.len() {
            let m = value(&bytes[int_start..int_start + int_digits])
                * 10u64.pow(fraction.len() as u32)
                + value(&bytes[fraction.clone()]);
            if m <= 1 << 53 {
                let x = m as f64 / POW10[fraction.len()];
                return Ok(Item::Float(if negative { -x } else { x }));
            }
        }
        text.parse::<f64>()
            .map(Item::Float)
            .map_err(|_| self.err("number out of range"))
    }

    fn digits(&mut self) -> Result<usize, WireError> {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected digits"));
        }
        Ok(self.pos - start)
    }
}

/// Convenience constructor for object literals.
pub fn object(members: Vec<(&str, Json)>) -> Json {
    Json::Object(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Json) {
        let text = v.encode();
        let back = Json::parse(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
        assert_eq!(&back, v, "{text}");
    }

    #[test]
    fn scalars_roundtrip() {
        for v in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::Int(0),
            Json::Int(-1),
            Json::Int(i64::MAX),
            Json::Int(i64::MIN),
            Json::Float(0.5),
            Json::Float(-1.25e-9),
            Json::Float(5.0),
            Json::Str(String::new()),
            Json::Str("hello \"world\"\n\t\\ \u{1F600} \u{7}".to_string()),
        ] {
            roundtrip(&v);
        }
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(&Json::Array(vec![]));
        roundtrip(&object(vec![]));
        roundtrip(&object(vec![
            ("a", Json::Array(vec![Json::Int(1), Json::Null])),
            ("b", object(vec![("nested", Json::Bool(false))])),
            ("weird key \" \\", Json::Float(1e300)),
        ]));
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let v =
            Json::parse(" { \"a\" : [ 1 , 2.5 , \"\\u0041\\u00e9\\ud83d\\ude00\" ] } ").unwrap();
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[2].as_str(),
            Some("Aé😀")
        );
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[0].as_i64(), Some(1));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "01",
            "1.",
            "\"\\q\"",
            "\"\\ud800\"",
            "1 2",
            "nan",
            "+1",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&deep).is_err(), "depth limit");
    }

    #[test]
    fn floats_never_reparse_as_ints() {
        let text = Json::Float(5.0).encode();
        assert_eq!(text, "5.0");
        assert_eq!(Json::parse(&text).unwrap(), Json::Float(5.0));
        assert_eq!(Json::Float(f64::NAN).encode(), "null");
    }

    #[test]
    fn encoding_is_deterministic() {
        let v = object(vec![("b", Json::Int(1)), ("a", Json::Int(2))]);
        assert_eq!(v.encode(), "{\"b\":1,\"a\":2}", "insertion order kept");
        assert_eq!(v.encode(), v.clone().encode());
    }

    #[test]
    fn reader_borrows_plain_strings_and_copies_escaped_ones() {
        let mut keys = Vec::new();
        Reader::new(r#"{"plain":"a b","esc\"aped":"x\ny"}"#)
            .document(|r| {
                assert_eq!(r.item(0)?, Item::Object);
                r.members(|r, key| {
                    let value = r.item(1)?;
                    keys.push((matches!(key, Cow::Borrowed(_)), key.into_owned()));
                    match value {
                        Item::Str(s) => keys.push((matches!(s, Cow::Borrowed(_)), s.into_owned())),
                        other => panic!("{other:?}"),
                    }
                    Ok(())
                })
            })
            .unwrap();
        assert_eq!(
            keys,
            [
                (true, "plain".to_string()),
                (true, "a b".to_string()),
                (false, "esc\"aped".to_string()),
                (false, "x\ny".to_string()),
            ]
        );
    }

    #[test]
    fn reader_numbers_match_str_parse_bit_for_bit() {
        let texts = [
            "0",
            "-0",
            "7",
            "-12",
            "999999999999999999",
            "9223372036854775807",
            "-9223372036854775808",
            "9223372036854775808",
            "123456789012345678901234",
            "0.0",
            "-0.0",
            "0.1",
            "0.25",
            "-1.5",
            "3.4028235",
            "0.30000000000000004",
            "9007199254740993.0",
            "9007199254740992.5",
            "900719925474099.3",
            "1.0000000000000000000001",
            "0.0000000000000000000001",
            "0.00000000000000000000001",
            "123.456e3",
            "1e400",
            "-1e400",
            "2.5E-3",
            "1e-400",
            "4.9406564584124654e-324",
        ];
        for text in texts {
            let item = Reader::new(text).document(|r| r.item(0)).unwrap();
            match text.parse::<i64>() {
                Ok(i) if !text.contains(['.', 'e', 'E']) => {
                    assert_eq!(item, Item::Int(i), "{text}")
                }
                _ => {
                    let Item::Float(x) = item else {
                        panic!("{text}: {item:?}")
                    };
                    assert_eq!(
                        x.to_bits(),
                        text.parse::<f64>().unwrap().to_bits(),
                        "{text}"
                    );
                }
            }
        }
        // Every f32 on a grid, spelled as the writer spells it and as a
        // short decimal, reads back as str::parse reads it.
        for i in 0..20_000u32 {
            let x = f32::from_bits(0x3000_0000 + i * 40_503);
            for text in [
                Json::Float(f64::from(x)).encode(),
                format!("{:?}", i as f64 / 997.0),
            ] {
                let Item::Float(y) = Reader::new(&text).document(|r| r.item(0)).unwrap() else {
                    panic!("{text}")
                };
                assert_eq!(
                    y.to_bits(),
                    text.parse::<f64>().unwrap().to_bits(),
                    "{text}"
                );
            }
        }
    }

    #[test]
    fn skipping_checks_syntax_and_depth() {
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Reader::new(&deep(65)).document(|r| r.skip(0)).is_ok());
        let err = Reader::new(&deep(66)).document(|r| r.skip(0)).unwrap_err();
        assert_eq!((err.offset, err.message.as_str()), (65, "nesting too deep"));
        assert_eq!(Json::parse(&deep(66)).unwrap_err(), err);
        let err = Reader::new("{\"a\":[1,{\"b\":tru}]}").document(|r| r.skip(0));
        assert_eq!(
            err.unwrap_err().to_string(),
            "invalid JSON at byte 13: expected \"true\""
        );
    }

    #[test]
    fn writer_matches_the_tree_encoder() {
        let mut out = String::new();
        let mut o = ObjectWriter::new(&mut out);
        o.field("i", -42i64)
            .field("u", 7u64)
            .field("x", 5.0f64)
            .field("nan", f64::NAN)
            .field("f", [0.1f32, -2.5].as_slice())
            .field("s", "q\"\u{1}\u{7f}é");
        o.key("nested").push_str("{}");
        o.end();
        let tree = object(vec![
            ("i", Json::Int(-42)),
            ("u", Json::Int(7)),
            ("x", Json::Float(5.0)),
            ("nan", Json::Float(f64::NAN)),
            (
                "f",
                Json::Array(vec![Json::Float(f64::from(0.1f32)), Json::Float(-2.5)]),
            ),
            ("s", Json::Str("q\"\u{1}\u{7f}é".into())),
            ("nested", object(vec![])),
        ]);
        assert_eq!(out, tree.encode());
        for i in [0, 1, -1, 9, 10, 99, 100, i64::MAX, i64::MIN] {
            assert_eq!(Json::Int(i).encode(), i.to_string());
        }
    }

    #[test]
    fn reader_text_spells_infinity() {
        let tree = Json::Array(vec![
            Json::Float(f64::INFINITY),
            Json::Float(f64::NEG_INFINITY),
        ]);
        assert_eq!(tree.encode(), "[null,null]");
        assert_eq!(Json::parse(&tree.encode_for_reader()).unwrap(), tree);
    }
}
