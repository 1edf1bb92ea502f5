//! A minimal, dependency-free JSON value model with a deterministic
//! emitter and a strict recursive-descent parser.
//!
//! Exists because manifests must round-trip (serialize → deserialize →
//! equal) and serialize *byte-identically* across runs, and the sanctioned
//! dependency set has no JSON crate. Scope: exactly what [`crate::manifest`]
//! emits — objects with ordered keys, arrays, strings, bools, null, and
//! numbers split into unsigned/signed integers (exact `u64`/`i64`
//! round-trip; seeds are arbitrary 64-bit values) and floats.

use std::fmt;

/// A JSON value. Objects keep insertion order (determinism).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A non-negative integer (exact; distinct from `Num` so 64-bit
    /// seeds and byte counters survive round-trips).
    UInt(u64),
    /// A negative integer (exact).
    Int(i64),
    /// A float. Emitted with a decimal point or exponent so it parses
    /// back as `Num`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The value as `u64` (from `UInt`, or a non-negative `Int`).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::UInt(u) => Some(u),
            Json::Int(i) if i >= 0 => Some(i as u64),
            _ => None,
        }
    }

    /// The value as `f64` (any numeric variant).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::UInt(u) => Some(u as f64),
            Json::Int(i) => Some(i as f64),
            Json::Num(f) => Some(f),
            _ => None,
        }
    }

    /// The value as `bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The value as an object's key/value list.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(o) => Some(o),
            _ => None,
        }
    }

    /// Looks up `key` in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(u) => out.push_str(&u.to_string()),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Num(f) => write_f64(*f, out),
            Json::Str(s) => write_string(s, out),
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
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a complete JSON document (trailing non-whitespace is an
    /// error).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(v)
    }
}

/// Compact deterministic serialization (no whitespace, fixed field
/// order); `to_string()` comes from this impl.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

/// Emits a float so it always parses back into [`Json::Num`]: Rust's
/// shortest round-trip `Display`, with `.0` appended when it would
/// otherwise look like an integer.
fn write_f64(f: f64, out: &mut String) {
    assert!(f.is_finite(), "manifests must not contain NaN/inf: {f}");
    let s = format!("{f}");
    out.push_str(&s);
    if !s.contains(['.', 'e', 'E']) {
        out.push_str(".0");
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

/// A parse failure with its byte offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset in the input.
    pub pos: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// How deep arrays and objects may nest. Manifests and snapshots nest
/// a handful of levels; the cap turns a hostile `[[[[…` into an error
/// instead of a stack overflow in the recursive descent.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            pos: self.pos,
            msg: msg.to_string(),
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err("arrays and objects nest too deep"));
                }
                self.depth += 1;
                let v = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(&format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
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
                _ => return Err(self.err("expected ',' or ']' in array")),
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
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: a run of plain bytes.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?;
                out.push_str(chunk);
            }
            match self.peek() {
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
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Surrogate pairs (emitted only by foreign
                            // producers; we still accept them).
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if !self.bytes[self.pos..].starts_with(b"\\u") {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 2;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let combined = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(combined)
                                    .ok_or_else(|| self.err("invalid surrogate pair"))?
                            } else {
                                char::from_u32(cp).ok_or_else(|| self.err("invalid \\u escape"))?
                            };
                            out.push(c);
                            continue; // hex4 already advanced pos
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !is_float {
            if text.starts_with('-') {
                // i64::from_str accepts the full range incl. i64::MIN,
                // whose magnitude a negate-after-parse would overflow.
                if let Ok(i) = text.parse::<i64>() {
                    return Ok(Json::Int(i));
                }
            } else if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(&format!("invalid number '{text}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Json) {
        let s = v.to_string();
        let back = Json::parse(&s).unwrap_or_else(|e| panic!("parse of {s}: {e}"));
        assert_eq!(&back, v, "round-trip through {s}");
    }

    #[test]
    fn scalars_roundtrip() {
        for v in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::UInt(0),
            Json::UInt(u64::MAX),
            Json::Int(-42),
            Json::Int(i64::MIN),
            Json::Num(0.5),
            Json::Num(1.0),
            Json::Num(-3.25e-7),
            Json::Str("plain".into()),
            Json::Str("esc \"\\ \n\t\r \u{0001} ünïcode 🦀".into()),
        ] {
            roundtrip(&v);
        }
    }

    #[test]
    fn u64_seeds_survive_exactly() {
        // The classic f64-corruption case: > 2^53.
        let seed = 0xDEAD_BEEF_CAFE_F00Du64;
        let v = Json::UInt(seed);
        assert_eq!(Json::parse(&v.to_string()).unwrap().as_u64(), Some(seed));
    }

    #[test]
    fn float_always_reparses_as_float() {
        let s = Json::Num(2.0).to_string();
        assert_eq!(s, "2.0");
        assert_eq!(Json::parse(&s).unwrap(), Json::Num(2.0));
    }

    #[test]
    fn containers_roundtrip() {
        let v = Json::Obj(vec![
            ("a".into(), Json::Arr(vec![Json::UInt(1), Json::Null])),
            (
                "nested".into(),
                Json::Obj(vec![("k".into(), Json::Str("v".into()))]),
            ),
            ("empty_arr".into(), Json::Arr(vec![])),
            ("empty_obj".into(), Json::Obj(vec![])),
        ]);
        roundtrip(&v);
        assert_eq!(
            v.get("nested")
                .and_then(|n| n.get("k"))
                .and_then(Json::as_str),
            Some("v")
        );
    }

    #[test]
    fn object_order_is_preserved() {
        let parsed = Json::parse(r#"{"z":1,"a":2}"#).unwrap();
        let keys: Vec<&str> = parsed
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, vec!["z", "a"]);
    }

    #[test]
    fn whitespace_tolerated() {
        let v = Json::parse(" { \"a\" : [ 1 , 2 ] , \"b\" : null } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn surrogate_pair_parses() {
        let v = Json::parse(r#""🦀""#).unwrap();
        assert_eq!(v.as_str(), Some("🦀"));
    }

    #[test]
    fn malformed_inputs_error() {
        for bad in [
            "",
            "{",
            "[1,",
            "\"unterminated",
            "{\"a\":}",
            "nulx",
            "01x",
            "[1] trailing",
            "{\"a\":1,}",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted malformed: {bad}");
        }
    }

    #[test]
    fn nesting_past_the_cap_is_an_error() {
        let nest = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.msg.contains("too deep"), "{err}");
        assert!(Json::parse(&"{\"a\":".repeat(1 << 20)).is_err());
    }
}
