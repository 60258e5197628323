//! A minimal hand-rolled JSON writer (and reader).
//!
//! The workspace builds hermetically with no external crates (see
//! `DESIGN.md`), so there is no serde. Experiment results that need a
//! machine-readable form use this module instead: a small value tree with
//! a spec-compliant serializer. A matching recursive-descent parser
//! ([`Json::parse`]) reads exported documents back — for the export-schema
//! gate (`crates/bench/tests/export_schemas.rs`) and the `benchmark/`
//! package — and accepts exactly the documents this writer produces plus
//! ordinary whitespace.
//!
//! # Example
//!
//! ```
//! use gcopss_sim::json::Json;
//!
//! let j = Json::obj([
//!     ("system", Json::str("gcopss")),
//!     ("delivered", Json::from(12345u64)),
//!     ("mean_ms", Json::from(8.51)),
//! ]);
//! assert_eq!(
//!     j.to_string(),
//!     r#"{"system":"gcopss","delivered":12345,"mean_ms":8.51}"#
//! );
//! ```

use std::fmt;

/// A JSON value tree.
///
/// Numbers keep their integer/float distinction so `u64` counters are
/// emitted exactly (no `1.2e19` precision loss). Non-finite floats have no
/// JSON representation and serialize as `null`.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A signed integer.
    Int(i64),
    /// An unsigned integer.
    UInt(u64),
    /// A float; NaN and infinities serialize as `null`.
    Float(f64),
    /// A string (escaped on output).
    Str(String),
    /// An ordered array.
    Array(Vec<Json>),
    /// An object; key order is preserved as given.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Builds a string value.
    #[must_use]
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Builds an array from any iterator of values.
    #[must_use]
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Array(items.into_iter().collect())
    }

    /// Builds an object from `(key, value)` pairs, preserving order.
    #[must_use]
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Parses a JSON document (the whole input must be one value plus
    /// optional surrounding whitespace).
    ///
    /// Numbers without `.`/`e` parse as [`Json::UInt`]/[`Json::Int`]; the
    /// rest as [`Json::Float`]. Escapes are limited to what
    /// [`Json::write_to`] emits (`\" \\ \/ \n \r \t \b \f \uXXXX`,
    /// including surrogate pairs).
    ///
    /// # Errors
    ///
    /// Returns a message with the byte offset of the first syntax error.
    pub fn parse(input: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object field lookup (`None` for non-objects or missing keys).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements of an array (`None` otherwise).
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The string payload (`None` otherwise).
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric value as `u64` — from [`Json::UInt`], a non-negative
    /// [`Json::Int`], or a whole non-negative [`Json::Float`].
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(u) => Some(*u),
            Json::Int(i) => u64::try_from(*i).ok(),
            Json::Float(f) if f.fract() == 0.0 && *f >= 0.0 && *f <= u64::MAX as f64 => {
                Some(*f as u64)
            }
            _ => None,
        }
    }

    /// Numeric value as `f64` (`None` for non-numbers).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::UInt(u) => Some(*u as f64),
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Serializes into `out`.
    pub fn write_to(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = fmt::Write::write_fmt(out, format_args!("{i}"));
            }
            Json::UInt(u) => {
                let _ = fmt::Write::write_fmt(out, format_args!("{u}"));
            }
            Json::Float(f) => {
                if f.is_finite() {
                    // Rust's shortest-roundtrip Display for f64 is valid JSON
                    // except that it omits a fraction for whole numbers
                    // ("3" not "3.0") — still valid JSON.
                    let _ = fmt::Write::write_fmt(out, format_args!("{f}"));
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Array(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write_to(out);
                }
                out.push(']');
            }
            Json::Object(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write_to(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.bytes.get(self.pos) {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return Err(self.err("unterminated escape"));
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
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: a following \uXXXX low half.
                                self.eat(b'\\')?;
                                self.eat(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let cp =
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(cp)
                            } else {
                                char::from_u32(hi)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                // Multi-byte UTF-8 continuation bytes pass through verbatim
                // (the input is a &str, so the sequence is valid).
                _ => {
                    let start = self.pos - 1;
                    let mut end = self.pos;
                    while end < self.bytes.len() && self.bytes[end] & 0xC0 == 0x80 {
                        end += 1;
                    }
                    self.pos = end;
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..end])
                            .map_err(|_| self.err("invalid utf-8"))?,
                    );
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        let Some(hex) = self.bytes.get(self.pos..end) else {
            return Err(self.err("truncated \\u escape"));
        };
        let s = std::str::from_utf8(hex).map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        let neg = self.bytes.get(self.pos) == Some(&b'-');
        if neg {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' if self.pos > start => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if float {
            s.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| self.err("invalid number"))
        } else if neg {
            s.parse::<i64>()
                .map(Json::Int)
                .map_err(|_| self.err("invalid number"))
        } else {
            s.parse::<u64>()
                .map(Json::UInt)
                .map_err(|_| self.err("invalid number"))
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.write_to(&mut s);
        f.write_str(&s)
    }
}

/// Assembles a standard results document: `schema` tag, experiment name
/// and seed first (so every `results/*.json` file is self-describing),
/// then the experiment-specific `fields` in the order given.
///
/// Every exporter in the workspace funnels through this one builder — one
/// writer, one escaping path.
#[must_use]
pub fn results_doc(
    schema: &str,
    exp: &str,
    seed: u64,
    fields: impl IntoIterator<Item = (&'static str, Json)>,
) -> Json {
    let mut pairs = vec![
        ("schema".to_string(), Json::str(schema)),
        ("exp".to_string(), Json::str(exp)),
        ("seed".to_string(), Json::UInt(seed)),
    ];
    pairs.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
    Json::Object(pairs)
}

/// Serializes `doc` to `path`, creating parent directories as needed.
///
/// # Errors
///
/// Propagates filesystem errors (directory not creatable, disk full, …).
pub fn write_results(path: &str, doc: &Json) -> std::io::Result<()> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    std::fs::write(path, doc.to_string())
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::UInt(v)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::UInt(v as u64)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::UInt(u64::from(v))
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Float(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_owned())
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
    fn scalars() {
        assert_eq!(Json::Null.to_string(), "null");
        assert_eq!(Json::Bool(true).to_string(), "true");
        assert_eq!(Json::Int(-7).to_string(), "-7");
        assert_eq!(Json::UInt(u64::MAX).to_string(), "18446744073709551615");
        assert_eq!(Json::Float(8.51).to_string(), "8.51");
        assert_eq!(Json::Float(3.0).to_string(), "3");
        assert_eq!(Json::Float(f64::NAN).to_string(), "null");
        assert_eq!(Json::Float(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn string_escaping() {
        assert_eq!(Json::str("a\"b\\c\nd").to_string(), r#""a\"b\\c\nd""#);
        assert_eq!(Json::str("\u{1}").to_string(), "\"\\u0001\"");
        assert_eq!(Json::str("héllo").to_string(), "\"héllo\"");
    }

    #[test]
    fn containers() {
        let j = Json::obj([
            ("xs", Json::arr([Json::from(1u64), Json::from(2u64)])),
            ("empty", Json::arr([])),
            ("nested", Json::obj([("k", Json::Null)])),
        ]);
        assert_eq!(j.to_string(), r#"{"xs":[1,2],"empty":[],"nested":{"k":null}}"#);
    }

    #[test]
    fn object_preserves_key_order() {
        let j = Json::obj([("z", Json::from(1u64)), ("a", Json::from(2u64))]);
        assert_eq!(j.to_string(), r#"{"z":1,"a":2}"#);
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let j = Json::obj([
            ("schema", Json::str("gcopss-test-v1")),
            ("neg", Json::Int(-42)),
            ("big", Json::UInt(u64::MAX)),
            ("f", Json::Float(8.51)),
            ("esc", Json::str("a\"b\\c\nd\t\u{1}é")),
            ("nul", Json::Null),
            ("flag", Json::Bool(false)),
            (
                "entries",
                Json::arr([
                    Json::obj([("id", Json::str("x/y")), ("median_ns", Json::from(157u64))]),
                    Json::arr([]),
                ]),
            ),
        ]);
        let text = j.to_string();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, j);
        assert_eq!(back.to_string(), text);
    }

    #[test]
    fn parse_accepts_whitespace_and_rejects_garbage() {
        let j = Json::parse(" {\n \"a\" : [ 1 , 2.5 ] ,\t\"b\": \"\\u00e9\\ud83d\\ude00\" }\n").unwrap();
        assert_eq!(j.get("a").unwrap().as_array().unwrap()[0].as_u64(), Some(1));
        assert_eq!(j.get("a").unwrap().as_array().unwrap()[1].as_f64(), Some(2.5));
        assert_eq!(j.get("b").unwrap().as_str(), Some("é😀"));
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse(r#""\q""#).is_err());
        assert!(Json::parse(r#""\ud800""#).is_err(), "lone high surrogate");
    }

    #[test]
    fn parse_reads_export_document_shapes() {
        // The shapes the export-schema gate walks: objects nested inside
        // arrays inside objects (runs -> series -> frames -> streams), empty
        // containers, and floats in either notation.
        let text = r#"{"runs":[{"label":"rp-adaptive","series":{"tick_ns":250000000,
            "frames":[{"t_ns":1,"counters":{},"per_node":[],
                       "streams":{"rolls":2,"windowed":{"rate":1e-9},"sketches":[]}}]}}],
            "coverage":9.5E-1,"big":2.5e+3,"neg":-1.5e-3}"#;
        let j = Json::parse(text).unwrap();
        let run = &j.get("runs").unwrap().as_array().unwrap()[0];
        let frames = run.get("series").unwrap().get("frames").unwrap();
        let frame = &frames.as_array().unwrap()[0];
        assert_eq!(frame.get("counters"), Some(&Json::Object(vec![])));
        assert_eq!(frame.get("per_node"), Some(&Json::arr([])));
        let streams = frame.get("streams").unwrap();
        assert_eq!(streams.get("rolls").unwrap().as_u64(), Some(2));
        let windowed = streams.get("windowed").unwrap();
        assert_eq!(windowed.get("rate"), Some(&Json::Float(1e-9)));
        assert_eq!(j.get("coverage").unwrap().as_f64(), Some(0.95));
        assert_eq!(j.get("big").unwrap().as_u64(), Some(2500));
        assert_eq!(j.get("neg").unwrap().as_f64(), Some(-0.0015));
        // The writer never emits an exponent (tiny floats come back as
        // plain decimals) and prints whole floats without a fraction (2.5e+3
        // comes back as the integer 2500), so the text is the fixed point.
        assert_eq!(Json::Float(1e-9).to_string(), "0.000000001");
        let written = j.to_string();
        assert_eq!(Json::parse(&written).unwrap().to_string(), written);
    }

    #[test]
    fn accessors() {
        let j = Json::parse(r#"{"u":3,"i":-3,"f":3.0,"s":"x"}"#).unwrap();
        assert_eq!(j.get("u").unwrap().as_u64(), Some(3));
        assert_eq!(j.get("i").unwrap().as_u64(), None);
        assert_eq!(j.get("i").unwrap().as_f64(), Some(-3.0));
        assert_eq!(j.get("f").unwrap().as_u64(), Some(3));
        assert_eq!(j.get("s").unwrap().as_u64(), None);
        assert!(j.get("missing").is_none());
        assert!(Json::Null.get("k").is_none());
    }

    #[test]
    fn results_doc_leads_with_schema_exp_seed() {
        let doc = results_doc(
            "gcopss-test-v1",
            "exp_x",
            42,
            [("rows", Json::arr([Json::from(1u64)]))],
        );
        assert_eq!(
            doc.to_string(),
            r#"{"schema":"gcopss-test-v1","exp":"exp_x","seed":42,"rows":[1]}"#
        );
    }
}
