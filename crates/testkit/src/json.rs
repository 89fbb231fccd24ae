//! A tiny JSON value type with a streaming writer and a parser.
//!
//! Replaces `serde_json` for the workspace's needs: emitting mapping
//! audits, stats, and bench reports, and parsing `confanon scan
//! --record` ground-truth files. Object member order is preserved
//! (insertion order), which keeps emitted reports deterministic.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// All numbers are carried as `f64`; integers up to 2^53 round-trip
    /// exactly and are printed without a fractional part.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}
macro_rules! from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Self { Json::Num(v as f64) }
        }
    )*};
}
from_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

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

impl Json {
    /// An empty object, to be filled with [`Json::set`].
    pub fn obj() -> Self {
        Json::Obj(Vec::new())
    }

    /// Inserts (or replaces) an object member; panics on non-objects.
    pub fn set(&mut self, key: &str, value: impl Into<Json>) -> &mut Self {
        let Json::Obj(members) = self else {
            panic!("Json::set on non-object");
        };
        let value = value.into();
        if let Some(slot) = members.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            members.push((key.to_string(), value));
        }
        self
    }

    /// Builder-style [`Json::set`].
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Self {
        self.set(key, value);
        self
    }

    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Mutable object member lookup (for tests that corrupt documents
    /// in place to exercise validators).
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Json> {
        match self {
            Json::Obj(members) => members.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Moves the member [`Json::get`] finds out of the object, leaving
    /// `null` in its place, so a reader can keep its strings without
    /// copying them.
    pub fn take(&mut self, key: &str) -> Option<Json> {
        self.get_mut(key).map(|v| std::mem::replace(v, Json::Null))
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
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
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
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn members(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Compact serialization.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        JsonWriter::compact(&mut out).value(self);
        out
    }

    /// Pretty serialization with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        JsonWriter::pretty(&mut out).value(self);
        out
    }

    /// Parses a JSON document (the whole input must be one value).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
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
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_compact())
    }
}

/// A streaming JSON writer: the one formatter behind
/// [`Json::to_string_compact`] and [`Json::to_string_pretty`], which
/// also writes a document straight from a caller's own fields, with no
/// [`Json`] tree in between. The caller opens and closes containers in
/// order and names each object member with [`JsonWriter::key`] before
/// writing its value; the bytes are those of the equivalent tree.
pub struct JsonWriter<'a> {
    out: &'a mut String,
    /// Spaces per nesting level; `None` writes compact JSON.
    indent: Option<usize>,
    depth: usize,
    /// The innermost open container holds no item yet.
    empty: bool,
    /// A key was just written, so the next value follows it directly.
    keyed: bool,
}

impl<'a> JsonWriter<'a> {
    /// A writer appending compact JSON to `out`.
    pub fn compact(out: &'a mut String) -> Self {
        JsonWriter::new(out, None)
    }

    /// A writer appending JSON with two-space indentation to `out`.
    pub fn pretty(out: &'a mut String) -> Self {
        JsonWriter::new(out, Some(2))
    }

    fn new(out: &'a mut String, indent: Option<usize>) -> Self {
        JsonWriter {
            out,
            indent,
            depth: 0,
            empty: true,
            keyed: false,
        }
    }

    /// Opens an object.
    pub fn begin_object(&mut self) {
        self.open('{');
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) {
        self.close('}');
    }

    /// Opens an array.
    pub fn begin_array(&mut self) {
        self.open('[');
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) {
        self.close(']');
    }

    /// Names the next member of the innermost object; the member's
    /// value is written next, through the returned writer.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.item();
        write_string(self.out, key);
        self.out.push_str(if self.indent.is_some() { ": " } else { ":" });
        self.keyed = true;
        self
    }

    /// Writes a string value.
    pub fn string(&mut self, s: &str) {
        self.item();
        write_string(self.out, s);
    }

    /// Writes a number value, as [`Json::Num`] prints it.
    pub fn number(&mut self, n: f64) {
        self.item();
        write_number(self.out, n);
    }

    /// Writes a whole value.
    pub fn value(&mut self, v: &Json) {
        match v {
            Json::Null => self.literal("null"),
            Json::Bool(b) => self.literal(if *b { "true" } else { "false" }),
            Json::Num(n) => self.number(*n),
            Json::Str(s) => self.string(s),
            Json::Arr(items) => {
                self.begin_array();
                for item in items {
                    self.value(item);
                }
                self.end_array();
            }
            Json::Obj(members) => {
                self.begin_object();
                for (k, v) in members {
                    self.key(k).value(v);
                }
                self.end_object();
            }
        }
    }

    fn literal(&mut self, text: &str) {
        self.item();
        self.out.push_str(text);
    }

    /// What precedes a value or key: nothing right after a key or at the
    /// top level, else the separator and, when pretty, a line break and
    /// the indentation.
    fn item(&mut self) {
        if std::mem::take(&mut self.keyed) || self.depth == 0 {
            return;
        }
        if !std::mem::take(&mut self.empty) {
            self.out.push(',');
        }
        self.line_break(self.depth);
    }

    fn open(&mut self, c: char) {
        self.item();
        self.out.push(c);
        self.depth += 1;
        self.empty = true;
    }

    fn close(&mut self, c: char) {
        self.depth -= 1;
        if !self.empty {
            self.line_break(self.depth);
        }
        self.out.push(c);
        self.empty = false;
    }

    fn line_break(&mut self, depth: usize) {
        const SPACES: &str = "                                ";
        if let Some(w) = self.indent {
            self.out.push('\n');
            let mut n = w * depth;
            while n > 0 {
                let k = n.min(SPACES.len());
                self.out.push_str(&SPACES[..k]);
                n -= k;
            }
        }
    }
}

fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        // JSON has no Inf/NaN; null is the conventional stand-in.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9_007_199_254_740_992.0 {
        let _ = fmt::write(out, format_args!("{}", n as i64));
    } else {
        let _ = fmt::write(out, format_args!("{n}"));
    }
}

/// Writes `s` quoted, copying each run with nothing to escape in one
/// piece. Every byte that needs an escape is ASCII, so the runs split
/// on character boundaries.
fn write_string(out: &mut String, s: &str) {
    out.push('"');
    let mut kept = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0C => "\\f",
            0..=0x1F => "",
            _ => continue,
        };
        out.push_str(&s[kept..i]);
        if escape.is_empty() {
            let _ = fmt::write(out, format_args!("\\u{:04x}", b));
        } else {
            out.push_str(escape);
        }
        kept = i + 1;
    }
    out.push_str(&s[kept..]);
    out.push('"');
}

/// A parse error with byte offset context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    pub offset: usize,
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected {lit:?}")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.bytes.get(self.pos) {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.eat("null").map(|()| Json::Null),
            Some(b't') => self.eat("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.eat("false").map(|()| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(&c) => Err(self.err(&format!("unexpected byte {:?}", c as char))),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.pos += 1; // '{'
        let mut members = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            if self.bytes.get(self.pos) != Some(&b'"') {
                return Err(self.err("expected string key in object"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.bytes.get(self.pos) != Some(&b':') {
                return Err(self.err("expected ':' after object key"));
            }
            self.pos += 1;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    /// Parses a string, copying each run up to the next quote or
    /// escape in one piece. Both are ASCII, so every run ends on a
    /// character boundary.
    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(self.bytes.len() - self.pos);
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            match self.bytes.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    self.pos += 1;
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| self.err("dangling escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            let ch = if (0xD800..0xDC00).contains(&cp) {
                                // High surrogate: require the low half.
                                self.eat("\\u")?;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let c = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(c)
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(ch.ok_or_else(|| self.err("invalid \\u escape"))?);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        let chunk = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let s = std::str::from_utf8(chunk).map_err(|_| self.err("bad \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(&format!("invalid number {text:?}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_shapes() {
        let mut obj = Json::obj();
        obj.set("name", "corp-router")
            .set("lines", 42u64)
            .set("ratio", 0.5)
            .set("ok", true)
            .set("tags", vec!["a", "b"])
            .set("none", Json::Null);
        assert_eq!(
            obj.to_string_compact(),
            r#"{"name":"corp-router","lines":42,"ratio":0.5,"ok":true,"tags":["a","b"],"none":null}"#
        );
    }

    #[test]
    fn pretty_indents_two_spaces() {
        let v = Json::obj().with("a", 1u64).with("b", Json::Arr(vec![Json::Num(2.0)]));
        assert_eq!(
            v.to_string_pretty(),
            "{\n  \"a\": 1,\n  \"b\": [\n    2\n  ]\n}"
        );
    }

    #[test]
    fn escapes_round_trip() {
        let s = "line1\nline2\t\"quoted\" \\ slash \u{1F600} \u{07}";
        let v = Json::Str(s.to_string());
        let text = v.to_string_compact();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn parses_nested_document() {
        let text = r#"
            { "asns": ["701", "1239"],
              "ips": [],
              "nested": { "x": -1.5e3, "y": null, "ok": false } }
        "#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.get("asns").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(v.get("ips").unwrap().as_array().unwrap(), &[]);
        let nested = v.get("nested").unwrap();
        assert_eq!(nested.get("x").unwrap().as_f64(), Some(-1500.0));
        assert_eq!(nested.get("y"), Some(&Json::Null));
        assert_eq!(nested.get("ok").unwrap().as_bool(), Some(false));
    }

    #[test]
    fn surrogate_pair_parses() {
        let v = Json::parse(r#""😀""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1F600}"));
    }

    #[test]
    fn integers_round_trip_exactly() {
        for n in [0u64, 1, 4_294_967_296, 9_007_199_254_740_991] {
            let text = Json::from(n).to_string_compact();
            assert_eq!(text, n.to_string());
            assert_eq!(Json::parse(&text).unwrap().as_u64(), Some(n));
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse(r#"{"a":}"#).is_err());
        assert!(Json::parse("[1,2,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse(r#""\q""#).is_err());
    }

    #[test]
    fn round_trips_arbitrary_trees() {
        let docs = [
            r#"{"a":[1,2,{"b":"c"}],"d":null}"#,
            r#"[[[]],{},"",0]"#,
            r#"{"k":"A\n"}"#,
        ];
        for d in docs {
            let v = Json::parse(d).unwrap();
            assert_eq!(Json::parse(&v.to_string_compact()).unwrap(), v);
            assert_eq!(Json::parse(&v.to_string_pretty()).unwrap(), v);
        }
    }

    /// The char-by-char string parser the bulk one replaced.
    fn reference_string(p: &mut Parser) -> Result<String, JsonError> {
        p.pos += 1;
        let mut out = String::new();
        loop {
            match p.bytes.get(p.pos) {
                None => return Err(p.err("unterminated string")),
                Some(b'"') => {
                    p.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    p.pos += 1;
                    let esc = *p.bytes.get(p.pos).ok_or_else(|| p.err("dangling escape"))?;
                    p.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let cp = p.hex4()?;
                            let ch = if (0xD800..0xDC00).contains(&cp) {
                                p.eat("\\u")?;
                                let low = p.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(p.err("invalid low surrogate"));
                                }
                                let c = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(c)
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(ch.ok_or_else(|| p.err("invalid \\u escape"))?);
                        }
                        _ => return Err(p.err("unknown escape")),
                    }
                }
                Some(_) => {
                    let start = p.pos;
                    p.pos += 1;
                    while p.bytes.get(p.pos).is_some_and(|b| b & 0xC0 == 0x80) {
                        p.pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&p.bytes[start..p.pos]).unwrap());
                }
            }
        }
    }

    /// The tree writer the streaming one replaced: one `char` at a time
    /// through a string, `write_seq` for containers.
    fn reference_write(v: &Json, out: &mut String, indent: Option<usize>, depth: usize) {
        fn string(out: &mut String, s: &str) {
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    '\u{08}' => out.push_str("\\b"),
                    '\u{0C}' => out.push_str("\\f"),
                    c if (c as u32) < 0x20 => {
                        let _ = fmt::write(out, format_args!("\\u{:04x}", c as u32));
                    }
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        let seq = |out: &mut String, open: char, close: char, items: Vec<(Option<&str>, &Json)>| {
            out.push(open);
            if items.is_empty() {
                out.push(close);
                return;
            }
            for (i, (key, item)) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if let Some(w) = indent {
                    out.push('\n');
                    out.extend(std::iter::repeat_n(' ', w * (depth + 1)));
                }
                if let Some(k) = key {
                    string(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                }
                reference_write(item, out, indent, depth + 1);
            }
            if let Some(w) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', w * depth));
            }
            out.push(close);
        };
        match v {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => string(out, s),
            Json::Arr(items) => seq(out, '[', ']', items.iter().map(|i| (None, i)).collect()),
            Json::Obj(members) => seq(
                out,
                '{',
                '}',
                members.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
            ),
        }
    }

    /// Strings that exercise every way a run can meet an escape.
    const TRICKY: [&str; 12] = [
        "",
        "plain run",
        "\"starts with a quote",
        "ends with a backslash\\",
        "mid\ndle",
        "\\\"\n\t\r\u{08}\u{0C}",
        "é\"ü\\中",
        "\u{01}raw\u{1F}controls\u{7F}",
        "\u{1F600} beside \n an escape \u{1F600}",
        "tab\tand/slash",
        "\u{85} C1 and é",
        "x",
    ];

    #[test]
    fn string_parser_matches_the_char_by_char_parser() {
        let mut cases: Vec<String> = TRICKY
            .iter()
            .map(|&s| reference_to_string(&Json::from(s), None))
            .collect();
        cases.extend(
            [
                "\"\\u00e9A\\u00E9\"",
                "\"\\ud83d\\ude00 beside 😀\\n\\ud83d\\ude00\"",
                "\"é\\\"ü\\\\中\"",
                "\"raw \u{01} control byte\"",
                "\"raw\ttab and \u{7F} DEL\"",
                r#""\/\b\f""#,
                r#""unterminated"#,
                r#""dangling \"#,
                r#""bad \q escape""#,
                r#""lone \ud83d high""#,
                r#""bad \ud83dA low""#,
                r#""short \u12""#,
                r#""\"\"\"""#,
                r#""trailing text" 1"#,
            ]
            .map(str::to_string),
        );
        for text in &cases {
            let mut got = Parser {
                text,
                bytes: text.as_bytes(),
                pos: 0,
            };
            let mut want = Parser {
                text,
                bytes: text.as_bytes(),
                pos: 0,
            };
            assert_eq!(got.string(), reference_string(&mut want), "{text:?}");
            assert_eq!(got.pos, want.pos, "{text:?}");
        }
        for s in TRICKY {
            let doc = format!("{{\"k\": [{}]}}", reference_to_string(&Json::from(s), None));
            let want = Json::obj().with("k", Json::Arr(vec![Json::from(s)]));
            assert_eq!(Json::parse(&doc).unwrap(), want, "{doc:?}");
        }
    }

    fn reference_to_string(v: &Json, indent: Option<usize>) -> String {
        let mut out = String::new();
        reference_write(v, &mut out, indent, 0);
        out
    }

    #[test]
    fn writer_matches_the_tree_writer() {
        let strings = || Json::Arr(TRICKY.iter().map(|&s| Json::from(s)).collect());
        let mut doc = Json::obj()
            .with("strings", strings())
            .with("empty_arr", Json::Arr(vec![]))
            .with("empty_obj", Json::obj())
            .with(
                "nested",
                Json::Arr(vec![
                    Json::obj(),
                    Json::Arr(vec![Json::Arr(vec![])]),
                    strings(),
                ]),
            )
            .with(
                "numbers",
                Json::Arr([0.0, -1.5, f64::NAN, 1e300].map(Json::Num).to_vec()),
            )
            .with(
                "flags",
                Json::Arr(vec![Json::Null, Json::Bool(true), Json::Bool(false)]),
            );
        for key in TRICKY {
            doc.set(key, key);
        }
        let deep = (0..20).fold(Json::from("leaf"), |inner, _| Json::Arr(vec![inner]));
        for v in [doc, deep, Json::from("top"), Json::Null, Json::Arr(vec![])] {
            assert_eq!(v.to_string_compact(), reference_to_string(&v, None));
            assert_eq!(v.to_string_pretty(), reference_to_string(&v, Some(2)));
            if !has_nan(&v) {
                assert_eq!(Json::parse(&v.to_string_pretty()).unwrap(), v);
            }
        }
    }

    fn has_nan(v: &Json) -> bool {
        match v {
            Json::Num(n) => n.is_nan(),
            Json::Arr(items) => items.iter().any(has_nan),
            Json::Obj(members) => members.iter().any(|(_, v)| has_nan(v)),
            _ => false,
        }
    }

    #[test]
    fn streamed_document_equals_its_tree() {
        let mut out = String::new();
        let mut w = JsonWriter::pretty(&mut out);
        w.begin_object();
        w.key("name").string("r\"1");
        w.key("list").begin_array();
        for s in TRICKY {
            w.string(s);
        }
        w.end_array();
        w.key("empty").begin_object();
        w.end_object();
        w.key("tree").value(&Json::obj().with("n", 7u64));
        w.key("n").number(42.0);
        w.end_object();
        let tree = Json::obj()
            .with("name", "r\"1")
            .with(
                "list",
                Json::Arr(TRICKY.iter().map(|&s| Json::from(s)).collect()),
            )
            .with("empty", Json::obj())
            .with("tree", Json::obj().with("n", 7u64))
            .with("n", 42u64);
        assert_eq!(out, tree.to_string_pretty());
    }
}
