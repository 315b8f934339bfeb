//! The workspace's one JSON reader and writer: the daemon's
//! line-delimited RPC, the trace JSONL of [`crate::jsonl`], and the
//! ledger's result lines all go through it.
//!
//! The workspace builds offline without `serde`, so nothing can derive
//! serializers; every document here is small and flat (objects of
//! numbers, strings, booleans, short arrays), so a hand-rolled codec is
//! the honest cost. Parsing is total: malformed input yields a
//! [`JsonError`], never a panic; depth is bounded so hostile nesting
//! cannot blow the stack; and the grammar is RFC 8259's — numbers as
//! `-? (0 | [1-9][0-9]*) (.[0-9]+)? ([eE][+-]?[0-9]+)?`, `\u` followed by
//! exactly four hex digits.
//!
//! Numbers are kept as `f64`. Every value the workspace transports
//! (payloads, counters, sequence numbers, trace times — in practice far
//! below 2⁵³) is exactly representable; [`Value::as_u64`] round-trips
//! integers in that range losslessly and refuses the rest.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Maximum nesting the parser accepts.
pub(crate) const MAX_DEPTH: usize = 32;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object. Sorted keys — deterministic output for tests and logs.
    Object(BTreeMap<String, Value>),
}

/// Parse failures. The payload is a human-readable position hint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(pub String);

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

impl Value {
    /// Builds an object from key/value pairs.
    #[must_use]
    pub fn object(pairs: impl IntoIterator<Item = (&'static str, Value)>) -> Value {
        Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// `self["key"]` for objects, `None` otherwise.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The string content, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The number as `u64`, if this is a non-negative integral number no
    /// larger than 2⁵³ — above it an `f64` no longer holds every integer.
    /// `1.0` reads as 1.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= 2f64.powi(53) => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// The number as `f64`, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(x) => Some(*x),
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Serializes to compact JSON (no whitespace, sorted object keys).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Number(x) => {
                if x.fract() == 0.0 && x.abs() <= 2f64.powi(53) {
                    let _ = write!(out, "{}", *x as i64);
                } else {
                    let _ = write!(out, "{x}");
                }
            }
            Value::String(s) => write_string(out, s),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Value::Object(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<u64> for Value {
    fn from(x: u64) -> Value {
        Value::Number(x as f64)
    }
}

impl From<u32> for Value {
    fn from(x: u32) -> Value {
        Value::Number(f64::from(x))
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::String(s.to_string())
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
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
}

/// Parses one JSON document; trailing non-whitespace is an error.
///
/// # Errors
///
/// [`JsonError`] on any malformed input.
pub fn parse(text: &str) -> Result<Value, JsonError> {
    let mut p = Parser { text, bytes: text.as_bytes(), pos: 0 };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> JsonError {
        JsonError(format!("{what} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// Takes `b` if it is next.
    fn eat(&mut self, b: u8) -> bool {
        let next = self.peek() == Some(b);
        if next {
            self.pos += 1;
        }
        next
    }

    /// Takes a run of ASCII digits; how many.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("bad literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.eat(b']') {
                    return Ok(Value::Array(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    if self.eat(b']') {
                        return Ok(Value::Array(items));
                    }
                    if !self.eat(b',') {
                        return Err(self.err("expected ',' or ']'"));
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut map = BTreeMap::new();
                self.skip_ws();
                if self.eat(b'}') {
                    return Ok(Value::Object(map));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    map.insert(key, self.value(depth + 1)?);
                    self.skip_ws();
                    if self.eat(b'}') {
                        return Ok(Value::Object(map));
                    }
                    if !self.eat(b',') {
                        return Err(self.err("expected ',' or '}'"));
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    /// `-? (0 | [1-9][0-9]*) (.[0-9]+)? ([eE][+-]?[0-9]+)?`, nothing else:
    /// no leading zeros, no bare `.`, no digits-free fraction or exponent.
    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        self.eat(b'-');
        let int_ok = match self.peek() {
            Some(b'0') => {
                self.pos += 1;
                true
            }
            _ => self.digits() > 0,
        };
        let frac_ok = !self.eat(b'.') || self.digits() > 0;
        let exp_ok = !(self.eat(b'e') || self.eat(b'E')) || {
            let _ = self.eat(b'+') || self.eat(b'-');
            self.digits() > 0
        };
        if !(int_ok && frac_ok && exp_ok) {
            return Err(self.err("bad number"));
        }
        let x: f64 = self.text[start..self.pos].parse().map_err(|_| self.err("bad number"))?;
        if x.is_finite() {
            Ok(Value::Number(x))
        } else {
            Err(self.err("non-finite number"))
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            // Exactly four hex digits: no sign, no space.
                            let code = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|hex| {
                                    hex.iter().try_fold(0u32, |code, &digit| {
                                        Some(code << 4 | char::from(digit).to_digit(16)?)
                                    })
                                })
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            // Surrogates map to the replacement character;
                            // nothing in the workspace emits them.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character")),
                Some(_) => {
                    // A run of plain characters, copied at once: `"`, `\`
                    // and control bytes never occur inside a UTF-8
                    // sequence, so the run ends on a char boundary.
                    let start = self.pos;
                    while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_the_rpc_shapes() {
        let v = Value::object([
            ("op", Value::from("publish")),
            ("payload", Value::from(123u64)),
            ("flag", Value::from(true)),
            ("note", Value::from("a \"quoted\"\nline")),
            ("items", Value::Array(vec![Value::from(1u64), Value::Null])),
        ]);
        let text = v.to_json();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn integers_survive_exactly() {
        for x in [0u64, 1, 999, 1 << 40, (1 << 53)] {
            let text = Value::from(x).to_json();
            assert_eq!(parse(&text).unwrap().as_u64(), Some(x), "{x}");
        }
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
        assert_eq!(parse("-3").unwrap().as_u64(), None);
        assert_eq!(parse("1.0").unwrap().as_u64(), Some(1), "an integral float is an integer");
        assert_eq!(parse("9007199254740994").unwrap().as_u64(), None, "above 2^53");
    }

    #[test]
    fn malformed_inputs_error_not_panic() {
        for bad in [
            "",
            "{",
            "}",
            "[1,",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "{\"a\" 1}",
            "1 2",
            "nul",
            "\u{1}",
            "\"\\q\"",
            "\"\\u12\"",
            "[1]]",
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn numbers_follow_the_rfc_grammar() {
        for good in ["0", "-0", "7", "-12", "0.5", "-0.25", "1e3", "1E+3", "2e-2", "10.75e1"] {
            assert!(parse(good).is_ok(), "{good:?}");
        }
        for bad in
            ["01", "-01", "00", "1.", "-.5", ".5", "+1", "-", "1e", "1e+", "1.e3", "0x10", "1e999"]
        {
            assert!(parse(bad).is_err(), "{bad:?}");
            assert!(parse(&format!("[{bad}]")).is_err(), "[{bad}]");
            assert!(parse(&format!("{{\"k\":{bad}}}")).is_err(), "{{\"k\":{bad}}}");
        }
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert_eq!(parse(r#""\u0041""#).unwrap(), Value::from("A"));
        assert_eq!(parse(r#""\u00e9\u00E9""#).unwrap(), Value::from("éé"));
        // `u32::from_str_radix` would read a sign or accept fewer digits.
        for bad in [r#""\u+041""#, r#""\u-041""#, r#""\u 041""#, r#""\u041""#, r#""\u004g""#] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn depth_is_bounded() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(20) + &"]".repeat(20);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn escapes_and_unicode_round_trip() {
        let v = Value::String("tab\there ünïcode \u{1F600} \\ end \u{1}".to_string());
        assert_eq!(parse(&v.to_json()).unwrap(), v);
        assert_eq!(parse("\"\\u0041\"").unwrap(), Value::String("A".to_string()));
    }

    use proptest::prelude::*;

    proptest! {
        /// The stricter grammar still takes back everything the writer
        /// emits: finite numbers of any magnitude, strings of any
        /// characters, nested arrays and objects.
        #[test]
        fn the_reader_takes_everything_the_writer_emits(
            bits in proptest::collection::vec(any::<u64>(), 0..24),
            chars in proptest::collection::vec(any::<u32>(), 0..64),
        ) {
            let text: String =
                chars.iter().filter_map(|&c| char::from_u32(c % 0x11_0000)).collect();
            let numbers: Vec<Value> = bits
                .iter()
                .map(|&b| f64::from_bits(b))
                .filter(|x| x.is_finite())
                .chain(bits.iter().map(|&b| (b >> 11) as f64))
                .map(Value::Number)
                .collect();
            let doc = Value::object([
                ("numbers", Value::Array(numbers)),
                ("text", Value::from(&*text)),
                ("null", Value::Null),
                ("nested", Value::Array(vec![Value::object([("k", Value::from(&*text))])])),
            ]);
            prop_assert_eq!(parse(&doc.to_json()), Ok(doc));
        }
    }
}
