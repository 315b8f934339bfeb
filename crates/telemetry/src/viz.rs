//! Cross-process trace correlation: stamped records, the shared
//! `--viz-json` stream format, and the global timeline merge.
//!
//! A single-process trace orders itself; a *cluster* trace does not.
//! Each producer (simulator node or daemon process) therefore stamps
//! every record with `(node, incarnation, lsn)`:
//!
//! * `incarnation` — the producer's restart count (bumped on every
//!   restore), so records from a crashed incarnation can never be
//!   confused with its successor's;
//! * `lsn` — a per-`(node, incarnation)` log sequence number starting at 0,
//!   giving each producer's stream a total order independent of clock
//!   quality.
//!
//! On the wire a stamped record is one JSONL line — the ordinary
//! [`crate::jsonl`] encoding with `"incarnation"` and `"lsn"` spliced after
//! `"node"`:
//!
//! ```text
//! {"time":2000,"node":1,"incarnation":0,"lsn":7,"event":"Received","sender":0,"seq":1}
//! ```
//!
//! (`lsn`, not `seq`: `seq` already names the *message* sequence inside
//! event bodies.) Unstamped parsers still accept these lines — field
//! lookup is by key and unknown keys are ignored — so every existing
//! trace consumer keeps working.
//!
//! [`merge_timelines`] joins per-producer streams into one globally
//! ordered timeline: per-producer order is `(incarnation, lsn)`, streams are
//! interleaved by timestamp (stable, so equal-time records keep producer
//! order), and a final causal pass keyed by `MessageId = (sender, seq)`
//! buffers any record that references a message whose `Sent` has not
//! appeared yet — the merged timeline never shows an effect before its
//! cause, whatever the producers' clock skew. The merge is a pure
//! function of its inputs: identical per-node streams (for example, a
//! simulator run and its daemon replay) merge to byte-identical output.

use std::collections::HashMap;

use crate::event::{TraceEvent, TraceRecord};
use crate::jsonl::{self, write_record, ParseError};

/// One trace record plus its cross-process correlation stamp.
#[derive(Debug, Clone, PartialEq)]
pub struct StampedRecord {
    /// Producer incarnation (0 for the first boot, +1 per restore).
    pub incarnation: u64,
    /// Per-`(node, incarnation)` log sequence number, from 0.
    pub lsn: u64,
    /// The underlying record (`record.node` identifies the producer).
    pub record: TraceRecord,
}

/// Serializes one stamped record as a single JSON line.
#[must_use]
pub fn write_stamped(rec: &StampedRecord) -> String {
    let base = write_record(&rec.record);
    let idx = base.find(",\"event\"").expect("write_record always emits an event tag");
    format!("{}{},\"lsn\":{}{}", &base[..idx], format_stamp(rec.incarnation), rec.lsn, &base[idx..])
}

fn format_stamp(incarnation: u64) -> String {
    format!(",\"incarnation\":{incarnation}")
}

/// Serializes stamped records as JSONL (one line each, trailing newline).
#[must_use]
pub fn write_stamped_jsonl(records: &[StampedRecord]) -> String {
    let mut s = String::with_capacity(records.len() * 112);
    for rec in records {
        s.push_str(&write_stamped(rec));
        s.push('\n');
    }
    s
}

/// Parses one stamped JSONL line.
pub fn parse_stamped(line: &str) -> Result<StampedRecord, ParseError> {
    let object = jsonl::parse_object(line)?;
    let incarnation = jsonl::get_u64(&object, "incarnation")?;
    let lsn = jsonl::get_u64(&object, "lsn")?;
    let record = jsonl::record_from_obj(&object)?;
    Ok(StampedRecord { incarnation, lsn, record })
}

/// Parses a stamped JSONL document, skipping blank lines. Errors carry
/// the offending 1-based line number.
pub fn parse_stamped_jsonl(text: &str) -> Result<Vec<StampedRecord>, ParseError> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        out.push(parse_stamped(line).map_err(|e| ParseError { line: i + 1, msg: e.msg })?);
    }
    Ok(out)
}

/// The message a record refers to, if any (`SnapshotTaken`/`Restored`
/// are process-local and carry none).
#[must_use]
pub fn message_id(event: &TraceEvent) -> Option<(u32, u64)> {
    match *event {
        TraceEvent::Sent { sender, seq, .. }
        | TraceEvent::Received { sender, seq }
        | TraceEvent::Parked { sender, seq, .. }
        | TraceEvent::Woken { sender, seq, .. }
        | TraceEvent::Delivered { sender, seq, .. }
        | TraceEvent::Alert { sender, seq, .. }
        | TraceEvent::Refetched { sender, seq } => Some((sender, seq)),
        TraceEvent::SnapshotTaken | TraceEvent::SnapshotRestored => None,
    }
}

/// Merges per-producer stamped streams into one global timeline.
///
/// 1. Each input stream is sorted by `(incarnation, lsn)` — its producer's
///    emission order across incarnations.
/// 2. Streams are concatenated in the order given and stably sorted by
///    `record.time`, so equal timestamps keep producer order.
/// 3. A causal pass walks the result: a record referencing message
///    `(sender, seq)` whose `Sent` has not yet appeared is buffered and
///    flushed (in buffered order) immediately after that `Sent`. Records
///    whose `Sent` never appears — truncated rings, partial captures —
///    are appended at the end in `(time, node, incarnation, lsn)` order rather
///    than dropped.
#[must_use]
pub fn merge_timelines(streams: &[Vec<StampedRecord>]) -> Vec<StampedRecord> {
    let mut all: Vec<StampedRecord> = Vec::with_capacity(streams.iter().map(Vec::len).sum());
    for stream in streams {
        let mut s = stream.clone();
        s.sort_by_key(|r| (r.incarnation, r.lsn));
        all.extend(s);
    }
    all.sort_by_key(|r| r.record.time);

    let mut seen_sent: HashMap<(u32, u64), ()> = HashMap::new();
    let mut waiting: HashMap<(u32, u64), Vec<StampedRecord>> = HashMap::new();
    let mut out = Vec::with_capacity(all.len());
    for rec in all {
        match message_id(&rec.record.event) {
            Some(id) => {
                if matches!(rec.record.event, TraceEvent::Sent { .. }) {
                    seen_sent.insert(id, ());
                    out.push(rec);
                    if let Some(held) = waiting.remove(&id) {
                        out.extend(held);
                    }
                } else if seen_sent.contains_key(&id) {
                    out.push(rec);
                } else {
                    waiting.entry(id).or_default().push(rec);
                }
            }
            None => out.push(rec),
        }
    }
    // Orphans: their cause never appeared (trace truncation). Keep them,
    // deterministically ordered.
    let mut orphans: Vec<StampedRecord> = waiting.into_values().flatten().collect();
    orphans.sort_by_key(|r| (r.record.time, r.record.node, r.incarnation, r.lsn));
    out.extend(orphans);
    out
}

/// Overwrites the `violation` verdicts of the trailing `Delivered`
/// records with an oracle's verdict stream, aligning from the **end**.
///
/// Ring sinks drop the *oldest* records on overflow, so when a trace
/// retains fewer deliveries than the oracle classified, the retained
/// ones are the most recent — the last `min(len)` verdicts apply. Live
/// producers (daemons) have no oracle and emit `violation: false`; this
/// is how a recorded run's ground truth is grafted onto their streams so
/// a simulator trace and its live replay compare byte-for-byte.
pub fn patch_verdicts(records: &mut [TraceRecord], verdicts: &[bool]) {
    let delivered: Vec<usize> = records
        .iter()
        .enumerate()
        .filter(|(_, r)| matches!(r.event, TraceEvent::Delivered { .. }))
        .map(|(i, _)| i)
        .collect();
    let n = delivered.len().min(verdicts.len());
    for (idx, verdict) in
        delivered[delivered.len() - n..].iter().zip(&verdicts[verdicts.len() - n..])
    {
        if let TraceEvent::Delivered { violation, .. } = &mut records[*idx].event {
            *violation = *verdict;
        }
    }
}

/// [`patch_verdicts`] over stamped records.
pub fn patch_stamped_verdicts(records: &mut [StampedRecord], verdicts: &[bool]) {
    let delivered: Vec<usize> = records
        .iter()
        .enumerate()
        .filter(|(_, r)| matches!(r.record.event, TraceEvent::Delivered { .. }))
        .map(|(i, _)| i)
        .collect();
    let n = delivered.len().min(verdicts.len());
    for (idx, verdict) in
        delivered[delivered.len() - n..].iter().zip(&verdicts[verdicts.len() - n..])
    {
        if let TraceEvent::Delivered { violation, .. } = &mut records[*idx].record.event {
            *violation = *verdict;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(time: u64, node: u32, event: TraceEvent) -> TraceRecord {
        TraceRecord { time, node, event }
    }

    fn stamped(incarnation: u64, lsn: u64, r: TraceRecord) -> StampedRecord {
        StampedRecord { incarnation, lsn, record: r }
    }

    #[test]
    fn stamped_lines_round_trip_and_stay_backward_parseable() {
        let s = stamped(
            2,
            7,
            rec(
                2000,
                1,
                TraceEvent::Sent { sender: 1, seq: 3, keys: vec![0, 5], key_vals: vec![4, 2] },
            ),
        );
        let line = write_stamped(&s);
        assert!(line.starts_with(
            "{\"time\":2000,\"node\":1,\"incarnation\":2,\"lsn\":7,\"event\":\"Sent\""
        ));
        assert_eq!(parse_stamped(&line).unwrap(), s);
        // The unstamped parser ignores the stamp fields.
        assert_eq!(crate::jsonl::parse_line(&line).unwrap(), s.record);
    }

    #[test]
    fn stamped_jsonl_round_trips() {
        let records = vec![
            stamped(0, 0, rec(10, 0, TraceEvent::SnapshotTaken)),
            stamped(0, 1, rec(20, 0, TraceEvent::Received { sender: 1, seq: 1 })),
            stamped(1, 0, rec(30, 0, TraceEvent::SnapshotRestored)),
        ];
        let text = write_stamped_jsonl(&records);
        assert_eq!(parse_stamped_jsonl(&text).unwrap(), records);
        let e = parse_stamped_jsonl("{\"time\":1,\"node\":0,\"event\":\"SnapshotTaken\"}\n")
            .unwrap_err();
        assert!(e.msg.contains("incarnation"), "unstamped line must be rejected: {e}");
    }

    #[test]
    fn merge_orders_by_time_then_restores_causal_edges() {
        // Node 1's clock runs ahead: it logs the Received at t=5 even
        // though node 0's Sent is logged at t=9.
        let node0 = vec![stamped(
            0,
            0,
            rec(9, 0, TraceEvent::Sent { sender: 0, seq: 1, keys: vec![2], key_vals: vec![1] }),
        )];
        let node1 = vec![
            stamped(0, 0, rec(5, 1, TraceEvent::Received { sender: 0, seq: 1 })),
            stamped(
                0,
                1,
                rec(
                    6,
                    1,
                    TraceEvent::Delivered {
                        sender: 0,
                        seq: 1,
                        blocked_for: 0,
                        alert4: false,
                        alert5: false,
                        violation: false,
                    },
                ),
            ),
        ];
        let merged = merge_timelines(&[node0, node1]);
        let kinds: Vec<&'static str> = merged.iter().map(|r| r.record.event.name()).collect();
        assert_eq!(kinds, ["Sent", "Received", "Delivered"]);
        // Buffered records keep their relative order after the flush.
        assert_eq!(merged[1].record.time, 5);
        assert_eq!(merged[2].record.time, 6);
    }

    #[test]
    fn merge_keeps_orphans_and_is_deterministic() {
        let node0 = vec![stamped(0, 0, rec(4, 0, TraceEvent::Received { sender: 9, seq: 9 }))];
        let node1 = vec![stamped(0, 0, rec(2, 1, TraceEvent::SnapshotTaken))];
        let a = merge_timelines(&[node0.clone(), node1.clone()]);
        let b = merge_timelines(&[node0, node1]);
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
        // The orphaned Received survives, after the resolvable records.
        assert_eq!(a[1].record.node, 0);
    }

    #[test]
    fn merge_respects_incarnation_then_lsn_within_a_producer() {
        // Same timestamps; producer order must come from (incarnation, lsn).
        let node0 = vec![
            stamped(1, 0, rec(50, 0, TraceEvent::SnapshotRestored)),
            stamped(0, 1, rec(50, 0, TraceEvent::SnapshotTaken)),
            stamped(0, 0, rec(50, 0, TraceEvent::SnapshotTaken)),
        ];
        let merged = merge_timelines(&[node0]);
        let stamps: Vec<(u64, u64)> = merged.iter().map(|r| (r.incarnation, r.lsn)).collect();
        assert_eq!(stamps, [(0, 0), (0, 1), (1, 0)]);
    }

    #[test]
    fn verdicts_align_from_the_end() {
        let delivered = |seq| TraceEvent::Delivered {
            sender: 0,
            seq,
            blocked_for: 0,
            alert4: false,
            alert5: false,
            violation: false,
        };
        // Trace kept 3 deliveries; the oracle classified 5 — the last 3
        // verdicts apply.
        let mut records = vec![
            rec(1, 0, delivered(1)),
            rec(2, 0, TraceEvent::SnapshotTaken),
            rec(3, 0, delivered(2)),
            rec(4, 0, delivered(3)),
        ];
        patch_verdicts(&mut records, &[true, true, false, true, false]);
        let flags: Vec<bool> = records
            .iter()
            .filter_map(|r| match r.event {
                TraceEvent::Delivered { violation, .. } => Some(violation),
                _ => None,
            })
            .collect();
        assert_eq!(flags, [false, true, false]);
    }
}
