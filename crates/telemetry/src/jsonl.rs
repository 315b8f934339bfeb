//! Dependency-free JSONL serialization for trace records.
//!
//! One record per line, as a flat object tagged by `"event"`:
//!
//! ```text
//! {"time":2000,"node":1,"event":"Parked","sender":0,"seq":2,"entry":4,"threshold":2}
//! ```
//!
//! Lines are read with the workspace's one JSON reader, [`crate::json`],
//! and every integer field through [`Value::as_u64`]. Against the
//! trace-only parser this module used to carry, that changes two
//! answers:
//!
//! * an integer field now accepts an integral number written as a float
//!   (`1.0` reads as 1);
//! * an integer field now refuses values above 2⁵³, the last integer an
//!   `f64` holds exactly, instead of reading any `u64`. Real traces stay
//!   far below it (microsecond times, counters, sequence numbers).

use std::fmt::Write as _;

use crate::event::{TraceEvent, TraceRecord};
use crate::json::{self, Value};

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

// --- Record reconstruction ---------------------------------------------

/// Parses one line into its JSON object.
fn parse_object(line: &str) -> Result<Value, ParseError> {
    match json::parse(line) {
        Ok(object @ Value::Object(_)) => Ok(object),
        Ok(_) => err("a trace line must be a JSON object"),
        Err(e) => err(e.to_string()),
    }
}

fn field<'a>(obj: &'a Value, key: &str) -> Result<&'a Value, ParseError> {
    obj.get(key).ok_or_else(|| ParseError { line: 1, msg: format!("missing field \"{key}\"") })
}

fn must_be(key: &str, what: &str) -> ParseError {
    ParseError { line: 1, msg: format!("field \"{key}\" must be {what}") }
}

fn get_u64(obj: &Value, key: &str) -> Result<u64, ParseError> {
    field(obj, key)?.as_u64().ok_or_else(|| must_be(key, "an unsigned integer"))
}

fn get_u32(obj: &Value, key: &str) -> Result<u32, ParseError> {
    u32::try_from(get_u64(obj, key)?)
        .map_err(|_| ParseError { line: 1, msg: format!("field \"{key}\" exceeds u32") })
}

fn get_bool(obj: &Value, key: &str) -> Result<bool, ParseError> {
    field(obj, key)?.as_bool().ok_or_else(|| must_be(key, "a boolean"))
}

fn get_u64_array(obj: &Value, key: &str) -> Result<Vec<u64>, ParseError> {
    match field(obj, key)? {
        Value::Array(items) => items
            .iter()
            .map(|item| item.as_u64().ok_or_else(|| must_be(key, "unsigned integers")))
            .collect(),
        _ => Err(must_be(key, "an array")),
    }
}

/// Parses one JSONL line into a record.
pub fn parse_line(line: &str) -> Result<TraceRecord, ParseError> {
    let obj = parse_object(line)?;
    record_from_obj(&obj)
}

/// Rebuilds a [`TraceRecord`] from a parsed object, ignoring any keys the
/// event does not use.
fn record_from_obj(obj: &Value) -> Result<TraceRecord, ParseError> {
    let time = get_u64(obj, "time")?;
    let node = get_u32(obj, "node")?;
    let Some(tag) = field(obj, "event")?.as_str() else {
        return Err(must_be("event", "a string"));
    };
    let event = match tag {
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
        let nested =
            format!("{{\"t\":{}{}}}", "[".repeat(json::MAX_DEPTH), "]".repeat(json::MAX_DEPTH));
        assert!(parse_object(&nested).is_ok());
        let over = "[".repeat(json::MAX_DEPTH + 1) + &"]".repeat(json::MAX_DEPTH + 1);
        let over = format!("{{\"t\":{over}}}");
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
    fn integer_fields_read_through_as_u64() {
        let line = |time: &str| format!(r#"{{"time":{time},"node":0,"event":"SnapshotTaken"}}"#);
        assert_eq!(parse_line(&line("1.0")).unwrap().time, 1, "an integral float is accepted");
        assert_eq!(parse_line(&line("9007199254740992")).unwrap().time, 1 << 53);
        assert!(parse_line(&line("9007199254740994")).is_err(), "above 2^53 is refused");
    }

    #[test]
    fn every_line_the_trace_writer_emits_is_json() {
        let mut records = sample_records();
        records.push(TraceRecord {
            time: 1 << 52,
            node: u32::MAX,
            event: TraceEvent::Sent {
                sender: u32::MAX,
                seq: 1 << 52,
                keys: vec![],
                key_vals: vec![],
            },
        });
        for record in records {
            let line = write_record(&record);
            assert!(matches!(json::parse(&line), Ok(Value::Object(_))), "{line}");
            assert_eq!(parse_line(&line).unwrap(), record);
        }
    }
}
