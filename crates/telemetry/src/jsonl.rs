//! Dependency-free JSONL serialization for trace records.
//!
//! One record per line, as a flat object tagged by `"event"`:
//!
//! ```text
//! {"time":2000,"node":1,"event":"Parked","sender":0,"seq":2,"entry":4,"threshold":2}
//! ```
//!
//! The parser accepts the subset of JSON this writer produces — objects,
//! arrays, strings with simple escapes, booleans, `null`, and
//! *non-negative integers* (trace values are all unsigned; floats would
//! silently lose `u64` precision, so they are rejected instead).

use std::fmt::Write as _;

use crate::event::{TraceEvent, TraceRecord};

/// A parse failure: the offending line (1-based) and what went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number within the parsed text.
    pub line: usize,
    /// Human-readable cause.
    pub msg: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(msg: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError { line: 1, msg: msg.into() })
}

/// Serializes one record as a single JSON line (no trailing newline).
#[must_use]
pub fn write_record(rec: &TraceRecord) -> String {
    let mut s = String::with_capacity(96);
    let _ = write!(
        s,
        "{{\"time\":{},\"node\":{},\"event\":\"{}\"",
        rec.time,
        rec.node,
        rec.event.name()
    );
    match &rec.event {
        TraceEvent::Sent { sender, seq, keys, key_vals } => {
            let _ = write!(s, ",\"sender\":{sender},\"seq\":{seq},\"keys\":");
            write_u64_array(&mut s, keys.iter().map(|&k| u64::from(k)));
            s.push_str(",\"key_vals\":");
            write_u64_array(&mut s, key_vals.iter().copied());
        }
        TraceEvent::Received { sender, seq } | TraceEvent::Refetched { sender, seq } => {
            let _ = write!(s, ",\"sender\":{sender},\"seq\":{seq}");
        }
        TraceEvent::Parked { sender, seq, entry, threshold } => {
            let _ = write!(
                s,
                ",\"sender\":{sender},\"seq\":{seq},\"entry\":{entry},\"threshold\":{threshold}"
            );
        }
        TraceEvent::Woken { sender, seq, entry } => {
            let _ = write!(s, ",\"sender\":{sender},\"seq\":{seq},\"entry\":{entry}");
        }
        TraceEvent::Delivered { sender, seq, blocked_for, alert4, alert5, violation } => {
            let _ = write!(
                s,
                ",\"sender\":{sender},\"seq\":{seq},\"blocked_for\":{blocked_for},\
                 \"alert4\":{alert4},\"alert5\":{alert5},\"violation\":{violation}"
            );
        }
        TraceEvent::Alert { alg, sender, seq, suspects } => {
            let _ = write!(
                s,
                ",\"alg\":{alg},\"sender\":{sender},\"seq\":{seq},\"suspects\":{suspects}"
            );
        }
        TraceEvent::SnapshotTaken | TraceEvent::SnapshotRestored => {}
    }
    s.push('}');
    s
}

fn write_u64_array(s: &mut String, vals: impl Iterator<Item = u64>) {
    s.push('[');
    for (i, v) in vals.enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{v}");
    }
    s.push(']');
}

/// Serializes records as JSONL (one line each, trailing newline).
#[must_use]
pub fn write_jsonl(records: &[TraceRecord]) -> String {
    let mut s = String::with_capacity(records.len() * 96);
    for rec in records {
        s.push_str(&write_record(rec));
        s.push('\n');
    }
    s
}

// --- Minimal JSON value parser -----------------------------------------

/// The JSON subset the trace format uses.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Json {
    Null,
    Bool(bool),
    Num(u64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

/// Maximum nesting the parser accepts (trace lines nest two deep); a
/// hostile line cannot recurse the stack away.
const MAX_DEPTH: usize = 32;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Self { bytes: text.as_bytes(), pos: 0 }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        if depth > MAX_DEPTH {
            return err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.pos));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c.is_ascii_digit() => self.number(),
            Some(c) => err(format!("unexpected '{}' at byte {}", c as char, self.pos)),
            None => err("unexpected end of input"),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.') | Some(b'e') | Some(b'E')) {
            return err("floating-point numbers are not part of the trace format");
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are ASCII");
        match text.parse::<u64>() {
            Ok(v) => Ok(Json::Num(v)),
            Err(_) => err(format!("number out of range at byte {start}")),
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| ParseError { line: 1, msg: "unterminated escape".into() })?;
                    self.pos += 1;
                    out.push(match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        other => return err(format!("unsupported escape '\\{}'", other as char)),
                    });
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte sequences are
                    // copied verbatim).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| ParseError { line: 1, msg: "invalid UTF-8".into() })?;
                    let ch = rest.chars().next().expect("non-empty");
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

// --- Record reconstruction ---------------------------------------------

pub(crate) fn field<'a>(obj: &'a [(String, Json)], key: &str) -> Result<&'a Json, ParseError> {
    obj.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| ParseError { line: 1, msg: format!("missing field \"{key}\"") })
}

pub(crate) fn get_u64(obj: &[(String, Json)], key: &str) -> Result<u64, ParseError> {
    match field(obj, key)? {
        Json::Num(v) => Ok(*v),
        _ => err(format!("field \"{key}\" must be an unsigned integer")),
    }
}

fn get_u32(obj: &[(String, Json)], key: &str) -> Result<u32, ParseError> {
    u32::try_from(get_u64(obj, key)?)
        .map_err(|_| ParseError { line: 1, msg: format!("field \"{key}\" exceeds u32") })
}

fn get_bool(obj: &[(String, Json)], key: &str) -> Result<bool, ParseError> {
    match field(obj, key)? {
        Json::Bool(v) => Ok(*v),
        _ => err(format!("field \"{key}\" must be a boolean")),
    }
}

fn get_u64_array(obj: &[(String, Json)], key: &str) -> Result<Vec<u64>, ParseError> {
    match field(obj, key)? {
        Json::Arr(items) => items
            .iter()
            .map(|item| match item {
                Json::Num(v) => Ok(*v),
                _ => err(format!("field \"{key}\" must hold unsigned integers")),
            })
            .collect(),
        _ => err(format!("field \"{key}\" must be an array")),
    }
}

/// Parses one line into its raw key/value fields (shared with the
/// stamped-record parser in [`crate::viz`]).
pub(crate) fn parse_object(line: &str) -> Result<Vec<(String, Json)>, ParseError> {
    let mut p = Parser::new(line);
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return err(format!("trailing garbage at byte {}", p.pos));
    }
    match value {
        Json::Obj(obj) => Ok(obj),
        _ => err("a trace line must be a JSON object"),
    }
}

/// Parses one JSONL line into a record.
pub fn parse_line(line: &str) -> Result<TraceRecord, ParseError> {
    let obj = parse_object(line)?;
    record_from_obj(&obj)
}

/// Rebuilds a [`TraceRecord`] from parsed fields, ignoring any keys the
/// event does not use (stamped records carry extra correlation fields).
pub(crate) fn record_from_obj(obj: &[(String, Json)]) -> Result<TraceRecord, ParseError> {
    let time = get_u64(obj, "time")?;
    let node = get_u32(obj, "node")?;
    let Json::Str(tag) = field(obj, "event")? else {
        return err("field \"event\" must be a string");
    };
    let event = match tag.as_str() {
        "Sent" => {
            let keys = get_u64_array(obj, "keys")?
                .into_iter()
                .map(|v| {
                    u32::try_from(v)
                        .map_err(|_| ParseError { line: 1, msg: "key entry exceeds u32".into() })
                })
                .collect::<Result<Vec<u32>, _>>()?;
            TraceEvent::Sent {
                sender: get_u32(obj, "sender")?,
                seq: get_u64(obj, "seq")?,
                keys,
                key_vals: get_u64_array(obj, "key_vals")?,
            }
        }
        "Received" => {
            TraceEvent::Received { sender: get_u32(obj, "sender")?, seq: get_u64(obj, "seq")? }
        }
        "Parked" => TraceEvent::Parked {
            sender: get_u32(obj, "sender")?,
            seq: get_u64(obj, "seq")?,
            entry: get_u32(obj, "entry")?,
            threshold: get_u64(obj, "threshold")?,
        },
        "Woken" => TraceEvent::Woken {
            sender: get_u32(obj, "sender")?,
            seq: get_u64(obj, "seq")?,
            entry: get_u32(obj, "entry")?,
        },
        "Delivered" => TraceEvent::Delivered {
            sender: get_u32(obj, "sender")?,
            seq: get_u64(obj, "seq")?,
            blocked_for: get_u64(obj, "blocked_for")?,
            alert4: get_bool(obj, "alert4")?,
            alert5: get_bool(obj, "alert5")?,
            violation: get_bool(obj, "violation")?,
        },
        "Alert" => TraceEvent::Alert {
            alg: u8::try_from(get_u64(obj, "alg")?)
                .map_err(|_| ParseError { line: 1, msg: "field \"alg\" exceeds u8".into() })?,
            sender: get_u32(obj, "sender")?,
            seq: get_u64(obj, "seq")?,
            suspects: get_u32(obj, "suspects")?,
        },
        "Refetched" => {
            TraceEvent::Refetched { sender: get_u32(obj, "sender")?, seq: get_u64(obj, "seq")? }
        }
        "SnapshotTaken" => TraceEvent::SnapshotTaken,
        "SnapshotRestored" => TraceEvent::SnapshotRestored,
        other => return err(format!("unknown event \"{other}\"")),
    };
    Ok(TraceRecord { time, node, event })
}

/// Parses a whole JSONL document, skipping blank lines. Errors carry the
/// offending 1-based line number.
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceRecord>, ParseError> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        out.push(parse_line(line).map_err(|e| ParseError { line: i + 1, msg: e.msg })?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<TraceRecord> {
        vec![
            TraceRecord {
                time: 1000,
                node: 0,
                event: TraceEvent::Sent {
                    sender: 0,
                    seq: 1,
                    keys: vec![3, 11],
                    key_vals: vec![1, 1],
                },
            },
            TraceRecord { time: 2000, node: 1, event: TraceEvent::Received { sender: 0, seq: 1 } },
            TraceRecord {
                time: 2000,
                node: 1,
                event: TraceEvent::Parked { sender: 0, seq: 2, entry: 3, threshold: 2 },
            },
            TraceRecord {
                time: 2500,
                node: 1,
                event: TraceEvent::Woken { sender: 0, seq: 2, entry: 3 },
            },
            TraceRecord {
                time: 2500,
                node: 1,
                event: TraceEvent::Delivered {
                    sender: 0,
                    seq: 2,
                    blocked_for: 500,
                    alert4: true,
                    alert5: false,
                    violation: true,
                },
            },
            TraceRecord {
                time: 2500,
                node: 1,
                event: TraceEvent::Alert { alg: 4, sender: 0, seq: 2, suspects: 7 },
            },
            TraceRecord { time: 3000, node: 2, event: TraceEvent::Refetched { sender: 0, seq: 1 } },
            TraceRecord { time: 4000, node: 2, event: TraceEvent::SnapshotTaken },
            TraceRecord { time: 5000, node: 2, event: TraceEvent::SnapshotRestored },
        ]
    }

    #[test]
    fn round_trip_preserves_every_variant() {
        let records = sample_records();
        let text = write_jsonl(&records);
        assert_eq!(text.lines().count(), records.len());
        let parsed = parse_jsonl(&text).expect("own output must parse");
        assert_eq!(parsed, records);
    }

    #[test]
    fn blank_lines_are_skipped() {
        let records = sample_records();
        let text = format!("\n{}\n\n", write_jsonl(&records));
        assert_eq!(parse_jsonl(&text).unwrap(), records);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let good = write_record(&sample_records()[0]);
        let text = format!("{good}\nnot json\n");
        let e = parse_jsonl(&text).unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn rejects_floats_and_negatives() {
        assert!(parse_line(r#"{"time":1.5,"node":0,"event":"SnapshotTaken"}"#).is_err());
        assert!(parse_line(r#"{"time":-1,"node":0,"event":"SnapshotTaken"}"#).is_err());
    }

    #[test]
    fn rejects_hostile_nesting_without_overflowing_the_stack() {
        for open in ["[", "{\"k\":"] {
            let line = format!("{{\"t\":{}", open.repeat(2_000_000));
            let e = parse_line(&line).unwrap_err();
            assert!(e.msg.contains("nesting"), "{}", e.msg);
        }
        // The limit leaves ordinary nesting alone.
        let nested = format!("{{\"t\":{}{}}}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse_object(&nested).is_ok());
        let over = format!("{{\"t\":{}{}}}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse_object(&over).is_err());
    }

    #[test]
    fn rejects_missing_fields_and_unknown_events() {
        assert!(parse_line(r#"{"time":1,"node":0,"event":"Received","sender":3}"#).is_err());
        assert!(parse_line(r#"{"time":1,"node":0,"event":"Vanished"}"#).is_err());
        assert!(parse_line(r#"{"time":1,"node":0}"#).is_err());
        assert!(parse_line("[1,2,3]").is_err());
    }

    #[test]
    fn string_escapes_round_trip() {
        let mut p = Parser::new(r#""a\"b\\c\nd""#);
        assert_eq!(p.string().unwrap(), "a\"b\\c\nd");
    }
}
