//! A minimal JSON writer *and parser* so the experiment harness can
//! emit machine-readable results — and the serving layer can read the
//! same subset back — without a serialization dependency (the shapes
//! are flat: objects of scalars and arrays of rows).
//!
//! The parser accepts standard JSON (including escapes and exponents
//! the writer never produces) and is hardened for untrusted input: it
//! enforces a nesting-depth limit so a hostile request cannot overflow
//! the stack of a server thread.

use std::fmt::Write as _;

/// A JSON value (the subset the harness needs).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// Null.
    Null,
    /// Boolean.
    Bool(bool),
    /// Integer (kept separate from floats to avoid formatting noise).
    Int(i128),
    /// Float; non-finite values serialize as null per JSON rules.
    Float(f64),
    /// String (escaped on output).
    Str(String),
    /// Array.
    Array(Vec<Json>),
    /// Object with insertion-ordered keys.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Build an object from key/value pairs.
    pub fn obj<I: IntoIterator<Item = (&'static str, Json)>>(pairs: I) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Serialize to a compact JSON string.
    pub fn render(&self) -> String {
        let mut s = String::with_capacity(RENDER_CAPACITY);
        self.write(&mut s);
        s
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // i64 formats without i128's wide divisions; wider values
            // keep the i128 path.
            Json::Int(i) => {
                let _ = match i64::try_from(*i) {
                    Ok(i) => write!(out, "{i}"),
                    Err(_) => write!(out, "{i}"),
                };
            }
            Json::Float(f) => {
                if f.is_finite() {
                    let _ = write!(out, "{f}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_str(out, s),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Object(pairs) => write_object(out, pairs.iter().map(|(k, v)| (k.as_str(), v))),
        }
    }
}

/// The buffer [`Json::render`] starts with: a served reply line (an
/// eval's value, work counters and flags) fits without regrowing.
const RENDER_CAPACITY: usize = 256;

/// Render an object from borrowed keys: the bytes of the
/// [`Json::Object`] holding the same pairs, with no key copied.
pub fn render_object<'a>(pairs: impl IntoIterator<Item = (&'a str, &'a Json)>) -> String {
    let mut out = String::with_capacity(RENDER_CAPACITY);
    write_object(&mut out, pairs);
    out
}

fn write_object<'a>(out: &mut String, pairs: impl IntoIterator<Item = (&'a str, &'a Json)>) {
    out.push('{');
    for (i, (k, v)) in pairs.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_str(out, k);
        out.push(':');
        v.write(out);
    }
    out.push('}');
}

/// Write `s` as a JSON string.  Bytes that need no escape are copied in
/// runs, so a string with nothing to escape is one copy.  Every escaped
/// byte is ASCII, so run boundaries fall on character boundaries.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
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
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Maximum container nesting the parser accepts.  Untrusted input
/// beyond this depth is rejected instead of recursing further.
const MAX_DEPTH: usize = 128;

impl Json {
    /// Parse a complete JSON document (one value, optionally surrounded
    /// by whitespace).  Integers without a fraction or exponent parse as
    /// [`Json::Int`] (falling back to [`Json::Float`] when they exceed
    /// i128); everything else numeric parses as [`Json::Float`].
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Look up a key in an object (`None` for missing keys and for
    /// non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The integer payload, if this is an integer.
    pub fn as_int(&self) -> Option<i128> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The value as `u64`, if this is a non-negative integer in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The numeric payload (integer or float) as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
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

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
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
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
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
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
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

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH}"));
        }
        match self.peek() {
            None => Err("unexpected end of input".into()),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(format!("unexpected {:?} at byte {}", c as char, self.pos)),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        let mut run_start = self.pos;
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    out.push_str(&self.text[run_start..self.pos]);
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    out.push_str(&self.text[run_start..self.pos]);
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_string())?;
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
                        c => {
                            return Err(format!(
                                "bad escape \\{} at byte {}",
                                c as char,
                                self.pos - 1
                            ))
                        }
                    }
                    run_start = self.pos;
                }
                Some(c) if c < 0x20 => {
                    return Err(format!("raw control byte {c:#04x} in string"));
                }
                Some(_) => self.pos += 1,
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err("truncated \\u escape".into());
        }
        let hex = &self.text[self.pos..end];
        let v = u32::from_str_radix(hex, 16).map_err(|_| format!("bad \\u escape {hex:?}"))?;
        self.pos = end;
        Ok(v)
    }

    fn unicode_escape(&mut self) -> Result<char, String> {
        let hi = self.hex4()?;
        if (0xD800..=0xDBFF).contains(&hi) {
            // High surrogate: a low surrogate must follow.
            if self.bytes[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let lo = self.hex4()?;
                if !(0xDC00..=0xDFFF).contains(&lo) {
                    return Err(format!("invalid low surrogate {lo:#06x}"));
                }
                let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                return char::from_u32(c).ok_or_else(|| format!("bad code point {c:#x}"));
            }
            return Err("lone high surrogate".into());
        }
        if (0xDC00..=0xDFFF).contains(&hi) {
            return Err("lone low surrogate".into());
        }
        char::from_u32(hi).ok_or_else(|| format!("bad code point {hi:#x}"))
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(format!("expected digits at byte {}", self.pos));
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(format!("expected fraction digits at byte {}", self.pos));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(format!("expected exponent digits at byte {}", self.pos));
            }
        }
        let token = &self.text[start..self.pos];
        if is_float {
            token
                .parse::<f64>()
                .map(Json::Float)
                .map_err(|e| format!("bad number {token:?}: {e}"))
        } else {
            // Digit runs wider than i128 (e.g. the decimal expansion of
            // a large float) degrade to Float instead of failing.
            match token.parse::<i128>() {
                Ok(i) => Ok(Json::Int(i)),
                Err(_) => token
                    .parse::<f64>()
                    .map(Json::Float)
                    .map_err(|e| format!("bad number {token:?}: {e}")),
            }
        }
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Int(v as i128)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::Int(v.into())
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(v.into())
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Float(v)
    }
}
impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Int(v as i128)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::Int(-7).render(), "-7");
        assert_eq!(Json::Float(1.5).render(), "1.5");
        assert_eq!(Json::Float(f64::NAN).render(), "null");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(Json::Str("a\"b\\c\nd".into()).render(), r#""a\"b\\c\nd""#);
        assert_eq!(Json::Str("\u{1}".into()).render(), "\"\\u0001\"");
    }

    #[test]
    fn rendering_keeps_the_bytes_of_the_per_character_writer() {
        // Pinned bytes: every escape class in keys and strings, and
        // integers at and beyond the i64 range.
        let j = Json::Object(vec![
            (
                "q\"b\\c\u{1}é".into(),
                Json::Str("v\"\\\n\r\t\u{0}\u{1f}\u{7f}é😀".into()),
            ),
            ("min".into(), Json::Int(i128::from(i64::MIN))),
            ("max".into(), Json::Int(i128::from(i64::MAX))),
            ("wide".into(), Json::Int(i128::from(u64::MAX) + 1)),
            ("neg_wide".into(), Json::Int(i128::MIN)),
            (
                "list".into(),
                Json::Array(vec![
                    Json::Str("\u{8}\u{c}".into()),
                    Json::Float(-1.5),
                    Json::Null,
                    Json::Bool(false),
                ]),
            ),
            (
                "é\t".into(),
                Json::Object(vec![("".into(), Json::Str(String::new()))]),
            ),
        ]);
        let expected = "{\"q\\\"b\\\\c\\u0001é\":\"v\\\"\\\\\\n\\r\\t\\u0000\\u001f\u{7f}é😀\",\
            \"min\":-9223372036854775808,\"max\":9223372036854775807,\
            \"wide\":18446744073709551616,\
            \"neg_wide\":-170141183460469231731687303715884105728,\
            \"list\":[\"\\u0008\\u000c\",-1.5,null,false],\"é\\t\":{\"\":\"\"}}";
        assert_eq!(j.render(), expected);
        let Json::Object(pairs) = &j else {
            unreachable!()
        };
        let borrowed = render_object(pairs.iter().map(|(k, v)| (k.as_str(), v)));
        assert_eq!(borrowed, expected);
    }

    #[test]
    fn nested_structures_render() {
        let j = Json::obj([
            ("n", Json::from(14u32)),
            ("speedup", Json::from(6.47)),
            ("tags", Json::Array(vec!["a".into(), "b".into()])),
        ]);
        assert_eq!(j.render(), r#"{"n":14,"speedup":6.47,"tags":["a","b"]}"#);
    }

    #[test]
    fn empty_containers() {
        assert_eq!(Json::Array(vec![]).render(), "[]");
        assert_eq!(Json::Object(vec![]).render(), "{}");
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("-42").unwrap(), Json::Int(-42));
        assert_eq!(Json::parse("0").unwrap(), Json::Int(0));
        assert_eq!(Json::parse("1.5").unwrap(), Json::Float(1.5));
        assert_eq!(Json::parse("2e3").unwrap(), Json::Float(2000.0));
        assert_eq!(Json::parse("-1.25e-2").unwrap(), Json::Float(-0.0125));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parses_strings_with_escapes() {
        assert_eq!(
            Json::parse(r#""a\"b\\c\nd\te\u0041""#).unwrap(),
            Json::Str("a\"b\\c\nd\teA".into())
        );
        assert_eq!(Json::parse(r#""\u00e9""#).unwrap(), Json::Str("é".into()));
        // Surrogate pair: U+1F600.
        assert_eq!(
            Json::parse(r#""\ud83d\ude00""#).unwrap(),
            Json::Str("😀".into())
        );
        // Raw multibyte UTF-8 passes through.
        assert_eq!(Json::parse("\"héllo\"").unwrap(), Json::Str("héllo".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let j = Json::parse(r#" { "a" : [1, 2.5, "x"], "b": {"c": null}, "d": true } "#).unwrap();
        assert_eq!(j.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(j.get("a").unwrap().as_array().unwrap()[0].as_int(), Some(1));
        assert_eq!(j.get("b").unwrap().get("c"), Some(&Json::Null));
        assert_eq!(j.get("d").unwrap().as_bool(), Some(true));
        assert_eq!(j.get("missing"), None);
    }

    #[test]
    fn accessors_discriminate() {
        assert_eq!(Json::Int(7).as_u64(), Some(7));
        assert_eq!(Json::Int(-7).as_u64(), None);
        assert_eq!(Json::Int(7).as_f64(), Some(7.0));
        assert_eq!(Json::Float(1.5).as_f64(), Some(1.5));
        assert_eq!(Json::Str("x".into()).as_str(), Some("x"));
        assert_eq!(Json::Str("x".into()).as_int(), None);
        assert_eq!(Json::Null.get("k"), None);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "nul",
            "truefalse",
            "1 2",
            "[1,]",
            "[1 2]",
            "{\"a\" 1}",
            "{\"a\":}",
            "{a:1}",
            "\"unterminated",
            "\"bad \\q escape\"",
            "\"\\ud800\"",
            "\"\\ud800\\u0041\"",
            "01e",
            "-",
            "1.",
            "1e",
            "{",
            "[",
            "\u{1}",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn rejects_excessive_nesting() {
        let deep = "[".repeat(500) + &"]".repeat(500);
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        // A depth well under the limit is fine.
        let ok = "[".repeat(64) + "1" + &"]".repeat(64);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn oversized_integers_degrade_to_float() {
        let big = "9".repeat(60);
        match Json::parse(&big).unwrap() {
            Json::Float(f) => assert!(f > 9e58 && f < 2e60),
            other => panic!("expected Float, got {other:?}"),
        }
        // Large floats render as bare digit runs; they must round-trip.
        let rendered = Json::Float(-3.2e180).render();
        assert_eq!(Json::parse(&rendered).unwrap(), Json::Float(-3.2e180));
    }

    #[test]
    fn render_parse_round_trips_handwritten_values() {
        for j in [
            Json::Null,
            Json::Bool(false),
            Json::Int(i128::from(i64::MAX)),
            Json::Float(0.125),
            Json::Str("newline\nquote\" backslash\\ unicode é".into()),
            Json::Array(vec![Json::Int(1), Json::Str("two".into()), Json::Null]),
            Json::obj([
                ("empty", Json::Object(vec![])),
                ("list", Json::Array(vec![Json::Bool(true)])),
            ]),
        ] {
            assert_eq!(Json::parse(&j.render()).unwrap(), j, "{}", j.render());
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Semantic equality: the writer renders `Float(2.0)` as `2`, which
    /// reads back as `Int(2)`, so numbers compare by value.
    fn equivalent(a: &Json, b: &Json) -> bool {
        match (a, b) {
            (Json::Int(x), Json::Float(f)) | (Json::Float(f), Json::Int(x)) => *x as f64 == *f,
            (Json::Array(xs), Json::Array(ys)) => {
                xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| equivalent(x, y))
            }
            (Json::Object(xs), Json::Object(ys)) => {
                xs.len() == ys.len()
                    && xs
                        .iter()
                        .zip(ys)
                        .all(|((ka, va), (kb, vb))| ka == kb && equivalent(va, vb))
            }
            _ => a == b,
        }
    }

    fn arb_json() -> impl Strategy<Value = Json> {
        let leaf = prop_oneof![
            Just(Json::Null),
            any::<bool>().prop_map(Json::Bool),
            any::<i64>().prop_map(|i| Json::Int(i128::from(i))),
            // Finite floats only: NaN/infinity render as null by design.
            prop::num::f64::NORMAL.prop_map(Json::Float),
            "[a-zA-Z0-9 \\\\\"\n\t\u{e9}]{0,12}".prop_map(Json::Str),
        ];
        leaf.prop_recursive(4, 32, 6, |inner| {
            prop_oneof![
                prop::collection::vec(inner.clone(), 0..6).prop_map(Json::Array),
                prop::collection::vec(("[a-z]{1,6}", inner), 0..6).prop_map(Json::Object),
            ]
        })
    }

    proptest! {
        #[test]
        fn render_then_parse_round_trips(j in arb_json()) {
            let text = j.render();
            let back = Json::parse(&text).unwrap();
            prop_assert!(equivalent(&back, &j), "{text} reparsed as {:?}", back);
            // Rendering is a fixed point after one round trip.
            prop_assert_eq!(back.render(), Json::parse(&back.render()).unwrap().render());
        }

        #[test]
        fn parser_never_panics_on_arbitrary_input(s in "\\PC{0,64}") {
            let _ = Json::parse(&s);
        }
    }
}
