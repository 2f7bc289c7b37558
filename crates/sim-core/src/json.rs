//! Minimal JSON value type, parser, and writers.
//!
//! The workspace exchanges small, trusted documents (scenario files, metric
//! dumps, bench records), so a compact recursive-descent parser over a value
//! enum is all that is needed. Object key order is preserved on parse and
//! emit, which keeps serialized output stable for byte-level comparisons.
//!
//! Large per-record exports (traces, decision logs, span logs) skip the
//! value tree: [`ObjWriter`] appends each object straight into one output
//! `String`, byte-for-byte as [`Json`]'s compact form would print it.

use std::cell::RefCell;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Insertion-ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse a complete JSON document. Trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut p = Parser {
            text,
            bytes,
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != bytes.len() {
            return Err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Look up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(v) => Some(v),
            _ => None,
        }
    }

    /// Serialize with two-space indentation, for human-facing artifacts.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => write_pairs(out, pairs),
        }
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(pairs) if !pairs.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    write_str(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
            other => other.write(out),
        }
    }
}

/// Compact serialization (no whitespace). Integral numbers are written
/// without a fractional part so counters survive a round-trip textually.
/// `json.to_string()` comes for free via `ToString`.
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

#[inline]
fn write_num(out: &mut String, n: f64) {
    if n.is_finite() && n.fract() == 0.0 && n.abs() < EXACT_INT_LIMIT as f64 {
        // `-0.0 as i64` is 0, so negative zero prints as `0`.
        let i = n as i64;
        if i < 0 {
            out.push('-');
        }
        write_digits(out, i.unsigned_abs());
    } else if n.is_finite() {
        write_fraction(out, n);
    } else {
        // JSON has no Inf/NaN; null is the conventional stand-in.
        out.push_str("null");
    }
}

/// Longest float text the memo keeps; longer ones are formatted each time.
const MEMO_TEXT: usize = 24;
const MEMO_SLOTS: usize = 128;
type MemoSlot = (u64, u8, [u8; MEMO_TEXT]);

thread_local! {
    /// Recently printed non-integral floats and their text, direct-mapped
    /// by bit pattern. Key 0 (`0.0`, integral) marks an empty slot.
    static MEMO: RefCell<[MemoSlot; MEMO_SLOTS]> =
        const { RefCell::new([(0, 0, [0; MEMO_TEXT]); MEMO_SLOTS]) };
}

/// Print a finite, non-integral `n` in its shortest round-trip form
/// (`f64`'s `Display`). Exports repeat the same sampled values many
/// times (a VCPU's pressure holds for a whole sampling period), and
/// `Display` costs about ten times a copy, so each text is memoized.
fn write_fraction(out: &mut String, n: f64) {
    let bits = n.to_bits();
    let slot = (bits.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 57) as usize;
    MEMO.with_borrow_mut(|memo| {
        let (key, len, text) = &mut memo[slot];
        if *key == bits {
            // SAFETY: the slot holds a copy of `Display` output for these
            // exact bits, which is ASCII.
            out.push_str(unsafe { std::str::from_utf8_unchecked(&text[..usize::from(*len)]) });
            return;
        }
        let start = out.len();
        let _ = write!(out, "{n}");
        let printed = &out.as_bytes()[start..];
        if printed.len() <= MEMO_TEXT {
            *key = bits;
            *len = printed.len() as u8;
            text[..printed.len()].copy_from_slice(printed);
        }
    });
}

/// Integers below this print as their exact decimal (every such value is
/// exact in an `f64`); larger ones go through [`write_num`] like any float.
const EXACT_INT_LIMIT: u64 = 9_000_000_000_000_000;

#[inline]
fn write_u64(out: &mut String, v: u64) {
    if v < EXACT_INT_LIMIT {
        write_digits(out, v);
    } else {
        write_num(out, v as f64);
    }
}

/// `"00"`, `"01"`, …, `"99"`: the two digits of each value below 100.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Append the decimal digits of `v`, two per step, straight into `out`'s
/// spare capacity; no `core::fmt` and no UTF-8 re-validation.
#[inline]
fn write_digits(out: &mut String, mut v: u64) {
    let n = v.checked_ilog10().unwrap_or(0) as usize + 1;
    out.reserve(n);
    // SAFETY: `reserve` left at least `n` spare bytes, each of the `n`
    // positions below `len + n` is written exactly once with an ASCII
    // digit, and only then does the length grow, so `out` stays UTF-8.
    unsafe {
        let bytes = out.as_mut_vec();
        let len = bytes.len();
        let start = bytes.as_mut_ptr().add(len);
        let mut end = start.add(n);
        while v >= 100 {
            let pair = (v % 100) as usize * 2;
            v /= 100;
            end = end.sub(2);
            std::ptr::copy_nonoverlapping(DIGIT_PAIRS.as_ptr().add(pair), end, 2);
        }
        if v >= 10 {
            end = end.sub(2);
            std::ptr::copy_nonoverlapping(DIGIT_PAIRS.as_ptr().add(v as usize * 2), end, 2);
        } else {
            end = end.sub(1);
            *end = b'0' + v as u8;
        }
        debug_assert_eq!(end, start);
        bytes.set_len(len + n);
    }
}

/// Whether `b` must be escaped inside a JSON string.
#[inline]
fn needs_escape(b: u8) -> bool {
    b < 0x20 || b == b'"' || b == b'\\'
}

/// Write `s` as a JSON string: one scan, then one copy when no byte needs
/// an escape (the common case), else [`write_escaped`].
#[inline]
fn write_str(out: &mut String, s: &str) {
    if s.bytes().any(needs_escape) {
        write_escaped(out, s);
    } else {
        out.reserve(s.len() + 2);
        out.push('"');
        out.push_str(s);
        out.push('"');
    }
}

/// Escape `s` as a JSON string. Runs of bytes that need no escape are
/// copied as one slice; every escaped byte is ASCII, so each slice
/// boundary is a char boundary.
#[cold]
fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let esc = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if esc.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(esc);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

fn write_pairs(out: &mut String, pairs: &[(String, Json)]) {
    out.push('{');
    for (i, (k, v)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_str(out, k);
        out.push(':');
        v.write(out);
    }
    out.push('}');
}

/// Streaming writer for one compact JSON object.
///
/// Each field appends straight into the caller's `String`, with the same
/// bytes [`Json`]'s `Display` prints for the equivalent tree: integers
/// below 9e15 as exact decimals and larger ones through the float rule,
/// floats in shortest round-trip form (integral ones without a fraction,
/// NaN and infinities as `null`), strings with the same escapes. Keys are
/// static identifiers written verbatim, so they must need no escaping.
pub struct ObjWriter<'a> {
    out: &'a mut String,
    empty: bool,
}

impl ObjWriter<'_> {
    /// Append one object to `out`: `{`, the fields `fill` writes, `}`.
    #[inline]
    pub fn write(out: &mut String, fill: impl FnOnce(&mut ObjWriter<'_>)) {
        out.push('{');
        fill(&mut ObjWriter { out, empty: true });
        out.push('}');
    }

    /// Append the field head `,"key":` (no comma before the first field)
    /// after one capacity check, and return the output for the value.
    #[inline]
    fn key(&mut self, key: &'static str) -> &mut String {
        debug_assert!(
            !key.bytes().any(needs_escape),
            "object key {key:?} needs escaping"
        );
        let comma = usize::from(!self.empty);
        self.empty = false;
        let head = comma + key.len() + 3;
        self.out.reserve(head);
        // SAFETY: `reserve` left at least `head` spare bytes, and exactly
        // `head` are written below before the length grows: ASCII
        // punctuation around the bytes of `key`, itself a `&str`, so the
        // string stays UTF-8.
        unsafe {
            let bytes = self.out.as_mut_vec();
            let len = bytes.len();
            let at = bytes.as_mut_ptr().add(len);
            *at = b',';
            *at.add(comma) = b'"';
            std::ptr::copy_nonoverlapping(key.as_ptr(), at.add(comma + 1), key.len());
            *at.add(comma + 1 + key.len()) = b'"';
            *at.add(comma + 2 + key.len()) = b':';
            bytes.set_len(len + head);
        }
        self.out
    }

    #[inline]
    pub fn u64(&mut self, key: &'static str, v: u64) -> &mut Self {
        write_u64(self.key(key), v);
        self
    }

    /// An integer field, or `null` for `None`.
    #[inline]
    pub fn opt_u64(&mut self, key: &'static str, v: Option<u64>) -> &mut Self {
        match v {
            Some(v) => self.u64(key, v),
            None => self.null(key),
        }
    }

    #[inline]
    pub fn f64(&mut self, key: &'static str, v: f64) -> &mut Self {
        write_num(self.key(key), v);
        self
    }

    #[inline]
    pub fn str(&mut self, key: &'static str, v: &str) -> &mut Self {
        write_str(self.key(key), v);
        self
    }

    #[inline]
    pub fn bool(&mut self, key: &'static str, v: bool) -> &mut Self {
        self.key(key).push_str(if v { "true" } else { "false" });
        self
    }

    #[inline]
    pub fn null(&mut self, key: &'static str) -> &mut Self {
        self.key(key).push_str("null");
        self
    }

    /// A nested object holding caller-supplied key/value pairs (keys are
    /// escaped, values printed as [`Json`]).
    pub fn pairs(&mut self, key: &'static str, pairs: &[(String, Json)]) -> &mut Self {
        write_pairs(self.key(key), pairs);
        self
    }

    /// A nested object whose fields `fill` writes.
    #[inline]
    pub fn object(
        &mut self,
        key: &'static str,
        fill: impl FnOnce(&mut ObjWriter<'_>),
    ) -> &mut Self {
        ObjWriter::write(self.key(key), fill);
        self
    }

    /// An array with one object per item, its fields written by `fill`.
    #[inline]
    pub fn array<T>(
        &mut self,
        key: &'static str,
        items: impl IntoIterator<Item = T>,
        mut fill: impl FnMut(&mut ObjWriter<'_>, T),
    ) -> &mut Self {
        let out = self.key(key);
        out.push('[');
        for (i, item) in items.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            ObjWriter::write(out, |w| fill(w, item));
        }
        out.push(']');
        self
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
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
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
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
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
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
                            let cp = self.hex4()?;
                            // Surrogate pairs: join, or replace when lone.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    let combined = 0x10000
                                        + ((cp - 0xD800) << 10)
                                        + (lo.wrapping_sub(0xDC00) & 0x3FF);
                                    char::from_u32(combined).unwrap_or('\u{FFFD}')
                                } else {
                                    '\u{FFFD}'
                                }
                            } else {
                                char::from_u32(cp).unwrap_or('\u{FFFD}')
                            };
                            out.push(c);
                            continue;
                        }
                        other => {
                            return Err(format!(
                                "bad escape {:?} at byte {}",
                                other.map(|c| c as char),
                                self.pos
                            ))
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash. Both
                    // are ASCII, so the run ends on a char boundary.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        if self.pos + 4 > self.bytes.len() {
            return Err("truncated \\u escape".into());
        }
        let hex =
            std::str::from_utf8(&self.bytes[self.pos..self.pos + 4]).map_err(|e| e.to_string())?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| format!("bad \\u escape '{hex}'"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, String> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number '{text}' at byte {start}"))
    }
}

/// Convenience constructors for building documents.
impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::Num(v as f64)
    }
}

impl From<u32> for Json {
    fn from(v: u32) -> Self {
        Json::Num(v as f64)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::Num(v as f64)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Self {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-2.5e2").unwrap(), Json::Num(-250.0));
        assert_eq!(
            Json::parse(r#""a\nbA""#).unwrap(),
            Json::Str("a\nbA".into())
        );
    }

    #[test]
    fn parses_nested_document() {
        let doc = r#"{"a": [1, 2, {"b": "x"}], "c": {}, "d": []}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[2]
                .get("b")
                .unwrap()
                .as_str(),
            Some("x")
        );
        assert_eq!(v.get("c").unwrap().as_object().unwrap().len(), 0);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse(r#"{"a" 1}"#).is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn round_trips_compact() {
        let doc = r#"{"name":"vm \"0\"","n":3,"f":0.25,"ok":true,"xs":[1,2,3],"none":null}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.to_string(), doc);
        let again = Json::parse(&v.to_string()).unwrap();
        assert_eq!(again, v);
    }

    #[test]
    fn integers_written_without_fraction() {
        let v = Json::Obj(vec![
            ("big".into(), Json::from(123_456_789_012_u64)),
            ("half".into(), Json::from(0.5)),
        ]);
        assert_eq!(v.to_string(), r#"{"big":123456789012,"half":0.5}"#);
    }

    #[test]
    fn pretty_output_is_parseable() {
        let v = Json::parse(r#"{"a":[1,{"b":2}],"c":"x"}"#).unwrap();
        let pretty = v.to_string_pretty();
        assert!(pretty.contains("  \"a\""));
        assert_eq!(Json::parse(&pretty).unwrap(), v);
    }

    #[test]
    fn surrogate_pairs_decode() {
        let v = Json::parse(r#""😀""#).unwrap();
        assert_eq!(v.as_str(), Some("😀"));
        let escaped = Json::parse("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(escaped.as_str(), Some("😀"));
    }

    /// The char-at-a-time escaper the run-copying `write_str` replaced.
    fn oracle_write_str(s: &str) -> String {
        let mut out = String::from('"');
        for c in s.chars() {
            match c {
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

    #[test]
    fn write_str_matches_char_escaper() {
        let every_ascii: String = (0u8..0x80).map(char::from).collect();
        let cases = [
            String::new(),
            every_ascii.clone(),
            every_ascii.chars().rev().collect(),
            format!("ü{every_ascii}😀\u{80}\u{7ff}\u{800}\u{ffff}\u{10ffff}"),
            "\u{1f}\"\\ü".repeat(3),
        ];
        for s in &cases {
            let mut out = String::new();
            write_str(&mut out, s);
            assert_eq!(out, oracle_write_str(s), "{s:?}");
        }
    }

    #[test]
    fn obj_writer_matches_tree_on_edge_values() {
        let ints = [
            0,
            (1u64 << 53) - 1,
            8_999_999_999_999_999,
            9_000_000_000_000_000,
            (1u64 << 53) + 1,
            u64::MAX,
        ];
        let floats = [
            2.0,
            0.1,
            -0.0,
            -3.5e-300,
            1e300,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let strs = [
            "",
            "plain",
            "q\"uote",
            "back\\slash",
            "\u{0}\u{1}\u{1f}\n\r\t\u{7f}",
            "ünï©ødé 😀",
            "a\"ü\\😀\u{8}z",
        ];
        for &v in &ints {
            let mut out = String::new();
            ObjWriter::write(&mut out, |w| {
                w.u64("v", v).opt_u64("some", Some(v)).opt_u64("none", None);
            });
            let tree = Json::Obj(vec![
                ("v".into(), Json::from(v)),
                ("some".into(), Json::from(v)),
                ("none".into(), Json::Null),
            ]);
            assert_eq!(out, tree.to_string(), "{v}");
        }
        for &v in &floats {
            let mut out = String::new();
            ObjWriter::write(&mut out, |w| {
                w.f64("x", v);
            });
            assert_eq!(
                out,
                Json::Obj(vec![("x".into(), Json::Num(v))]).to_string(),
                "{v}"
            );
        }
        for &v in &strs {
            let pairs = vec![
                (v.to_string(), Json::from(v)),
                ("b".into(), Json::Bool(false)),
            ];
            let mut out = String::new();
            ObjWriter::write(&mut out, |w| {
                w.str("s", v)
                    .bool("t", true)
                    .null("n")
                    .pairs("p", &pairs)
                    .object("o", |o| {
                        o.str("s", v);
                    })
                    .array("a", [v, v], |a, x| {
                        a.str("s", x);
                    })
                    .array("e", std::iter::empty::<u64>(), |_, _| {});
            });
            let tree = Json::Obj(vec![
                ("s".into(), Json::from(v)),
                ("t".into(), Json::Bool(true)),
                ("n".into(), Json::Null),
                ("p".into(), Json::Obj(pairs.clone())),
                ("o".into(), Json::Obj(vec![("s".into(), Json::from(v))])),
                (
                    "a".into(),
                    Json::Arr(vec![Json::Obj(vec![("s".into(), Json::from(v))]); 2]),
                ),
                ("e".into(), Json::Arr(vec![])),
            ]);
            assert_eq!(out, tree.to_string(), "{v:?}");
            assert_eq!(
                Json::parse(&out).unwrap().get("s").unwrap().as_str(),
                Some(v)
            );
        }
        let mut out = String::new();
        ObjWriter::write(&mut out, |_| {});
        assert_eq!(out, "{}");
    }

    /// The `core::fmt` number printers the digit-pair path and the float
    /// memo replaced.
    fn oracle_write_num(out: &mut String, n: f64) {
        if n.is_finite() && n.fract() == 0.0 && n.abs() < EXACT_INT_LIMIT as f64 {
            let _ = write!(out, "{}", n as i64);
        } else if n.is_finite() {
            let _ = write!(out, "{n}");
        } else {
            out.push_str("null");
        }
    }

    fn oracle_write_u64(out: &mut String, v: u64) {
        if v < EXACT_INT_LIMIT {
            let _ = write!(out, "{v}");
        } else {
            oracle_write_num(out, v as f64);
        }
    }

    /// `v` through `ObjWriter::u64`/`opt_u64` and `Json`'s `Display` must
    /// print the oracle's bytes.
    fn check_u64(v: u64) {
        let mut want = String::new();
        oracle_write_u64(&mut want, v);
        let want = format!("{{\"a\":{want},\"b\":{want}}}");
        let mut out = String::new();
        ObjWriter::write(&mut out, |w| {
            w.u64("a", v).opt_u64("b", Some(v));
        });
        assert_eq!(out, want, "{v}");
        let tree = Json::Obj(vec![
            ("a".into(), Json::from(v)),
            ("b".into(), Json::from(v)),
        ]);
        assert_eq!(tree.to_string(), want, "{v}");
    }

    /// `n` through `ObjWriter::f64` and `Json`'s `Display` must print the
    /// oracle's bytes.
    fn check_f64(n: f64) {
        let mut want = String::new();
        oracle_write_num(&mut want, n);
        let want = format!("{{\"x\":{want}}}");
        let mut out = String::new();
        ObjWriter::write(&mut out, |w| {
            w.f64("x", n);
        });
        assert_eq!(out, want, "{n:?}");
        assert_eq!(
            Json::Obj(vec![("x".into(), Json::Num(n))]).to_string(),
            want
        );
    }

    #[test]
    fn number_printers_match_fmt_oracle_at_every_boundary() {
        let mut ints = vec![0, 2u64.pow(53) - 1, 2u64.pow(53), 2u64.pow(53) + 1];
        ints.extend([EXACT_INT_LIMIT - 1, EXACT_INT_LIMIT, u64::MAX]);
        for k in 1..=15 {
            let p = 10u64.pow(k);
            ints.extend([p - 1, p, p + 1]);
        }
        for &v in &ints {
            check_u64(v);
            check_f64(v as f64);
            check_f64(-(v as f64));
        }
        let two53 = 2f64.powi(53);
        for n in [
            0.0,
            -0.0,
            -1.0,
            two53,
            -two53,
            -8.999999999999999e15,
            9e15,
            -9e15,
        ] {
            check_f64(n);
        }
    }

    #[test]
    fn number_printers_match_fmt_oracle_on_a_random_sweep() {
        let mut rng = crate::SimRng::seed_from(20_261_020);
        for _ in 0..100_000 {
            // Every magnitude from one digit to twenty.
            let v = rng.next_u64() >> rng.range(0..64u32);
            check_u64(v);
            check_f64(v as f64);
            check_f64(-((v >> 11) as f64));
            // Non-integral values, drawn from a small pool so that most
            // hit the memo and some collide in it.
            let x = (v % 600) as f64 / 7.0 + 1e-3;
            check_f64(x);
            check_f64(f64::from_bits(v));
        }
    }

    #[test]
    fn key_order_preserved() {
        let v = Json::parse(r#"{"z":1,"a":2,"m":3}"#).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["z", "a", "m"]);
    }
}
