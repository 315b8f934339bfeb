//! Trace replay and causal alert explanation.
//!
//! The paper's Algorithm 4 alert (and the simulator's exact-checker
//! violation flag) says *that* a delivery may have jumped a missing
//! predecessor; this module reconstructs *which* one and *why* it was
//! invisible. Replaying `Sent`/`Delivered`/`Snapshot*` records rebuilds,
//! per node, exactly the state the protocol had: the `R`-entry clock, the
//! per-entry increment log (who advanced each entry to which value), the
//! delivered set, and a true vector timestamp per message (derived purely
//! from event order — no oracle data rides in the trace). For each
//! flagged delivery `m` at node `k` the replay then names:
//!
//! * the **missing predecessors** — every `(sender, seq)` in `m`'s causal
//!   past not yet delivered at `k`;
//! * per missing predecessor `p`, the **covering messages** — deliveries
//!   at `k` concurrent with `p` whose increments advanced `p`'s `K`
//!   entries, i.e. the concrete Bloom-filter collision that let the guard
//!   pass without `p` (values up to `p`'s own stamp heights);
//! * the **in-flight count `X`** at that instant — sent but undelivered-
//!   at-`k` messages, the `X` in `P_error = (1-(1-1/R)^{K·X})^K`.
//!
//! Crash recovery is honoured: `SnapshotTaken` checkpoints the replay
//! state and `SnapshotRestored` rolls back to it and re-applies the
//! node's own WAL'd sends, mirroring the engine's restore path, so
//! post-recovery flags replay against the same state the checker saw.

use std::collections::{HashMap, HashSet};
use std::fmt;

use crate::event::{TraceEvent, TraceRecord};

/// Which deliveries to explain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExplainMode {
    /// Every delivery the exact checker flagged (`violation` set) —
    /// simulator traces.
    Violations,
    /// Every delivery with an Algorithm 4 alert (`alert4` set) — works on
    /// live traces, where no oracle exists and alerts may be false
    /// alarms.
    Alerts,
}

/// One concurrent message that advanced a covered entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Covering {
    /// Originating node of the covering message.
    pub sender: u32,
    /// Its sequence number.
    pub seq: u64,
    /// The clock entry its delivery advanced.
    pub entry: u32,
    /// The entry value after that delivery's increment.
    pub value: u64,
}

/// One missing predecessor and the traffic that masked it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MissingStory {
    /// Originating node of the missing message.
    pub sender: u32,
    /// Its sequence number.
    pub seq: u64,
    /// When it was sent (absent if its `Sent` fell out of the ring).
    pub sent_time: Option<u64>,
    /// Its `K` clock entries (empty if unknown).
    pub keys: Vec<u32>,
    /// Concurrent deliveries at the explaining node whose increments
    /// covered those entries.
    pub covering: Vec<Covering>,
}

/// The reconstructed causal story of one flagged delivery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Explanation {
    /// Node the delivery happened at.
    pub node: u32,
    /// Delivery time (trace units).
    pub time: u64,
    /// Originating node of the delivered message.
    pub sender: u32,
    /// Its sequence number.
    pub seq: u64,
    /// Algorithm 4 alert flag on the delivery.
    pub alert4: bool,
    /// Algorithm 5 alert flag on the delivery.
    pub alert5: bool,
    /// Exact-checker violation flag on the delivery.
    pub violation: bool,
    /// Missing predecessors with their covering sets (empty for a false
    /// alarm: nothing was actually missing).
    pub missing: Vec<MissingStory>,
    /// Concurrent deliveries that advanced the delivered message's *own*
    /// sender entries up to its stamp heights — the coverage Algorithm 4
    /// reacted to, meaningful even when nothing is missing.
    pub self_covering: Vec<Covering>,
    /// Messages in flight (sent, not yet delivered here) at the instant
    /// of delivery — the measured `X` of the error model.
    pub inflight_x: u32,
}

impl fmt::Display for Explanation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut flags = Vec::new();
        if self.violation {
            flags.push("exact violation");
        }
        if self.alert4 {
            flags.push("Alg-4 alert");
        }
        if self.alert5 {
            flags.push("Alg-5 alert");
        }
        writeln!(
            f,
            "p{}#{} delivered at node {} (t={}) [{}], in-flight X = {}",
            self.sender,
            self.seq,
            self.node,
            self.time,
            flags.join(", "),
            self.inflight_x
        )?;
        if self.missing.is_empty() {
            writeln!(
                f,
                "  no causal predecessor was missing — false alarm from concurrent traffic:"
            )?;
            for c in &self.self_covering {
                writeln!(
                    f,
                    "    p{}#{} advanced entry {} to {} (covering p{}'s key entries)",
                    c.sender, c.seq, c.entry, c.value, self.sender
                )?;
            }
        }
        for m in &self.missing {
            let sent = match m.sent_time {
                Some(t) => format!("sent t={t}"),
                None => "send not in trace".to_string(),
            };
            writeln!(
                f,
                "  missing predecessor p{}#{} ({}, keys {:?}):",
                m.sender, m.seq, sent, m.keys
            )?;
            if m.covering.is_empty() {
                writeln!(f, "    (no concurrent increment recorded on its entries)")?;
            }
            for c in &m.covering {
                writeln!(
                    f,
                    "    covered on entry {} by concurrent p{}#{} (advanced it to {})",
                    c.entry, c.sender, c.seq, c.value
                )?;
            }
        }
        Ok(())
    }
}

/// The outcome of explaining a whole trace.
#[derive(Debug, Clone, Default)]
pub struct ExplainReport {
    /// One entry per flagged delivery, in trace order.
    pub explanations: Vec<Explanation>,
    /// Deliveries replayed.
    pub deliveries: u64,
    /// Deliveries with the violation flag.
    pub violations: u64,
    /// Deliveries with the Algorithm 4 flag.
    pub alerts4: u64,
    /// Flagged deliveries that could not be explained because the
    /// message's `Sent` record was not in the trace (ring overflow).
    pub skipped_unknown: u64,
    /// `SnapshotRestored` records with no prior checkpoint in the trace.
    pub skipped_restores: u64,
}

/// A message's reconstructed identity card.
struct MsgInfo {
    sender: u32,
    seq: u64,
    sent_time: u64,
    keys: Vec<u32>,
    key_vals: Vec<u64>,
    /// True vector timestamp (indexed by node id), derived at `Sent`.
    tvc: Vec<u64>,
}

/// Replay state of one node.
#[derive(Clone, Default)]
struct NodeState {
    /// The `R`-entry probabilistic clock.
    clock: Vec<u64>,
    /// Per entry: `(message index, value after its increment)`, in
    /// delivery order.
    entry_log: Vec<Vec<(usize, u64)>>,
    /// Messages delivered here (own sends count as delivered).
    delivered: HashSet<(u32, u64)>,
    /// True vector clock (indexed by node id).
    tvc: Vec<u64>,
    /// Own sends observed so far (the WAL'd durable sequence).
    sent: u64,
}

fn grow(v: &mut Vec<u64>, len: usize) {
    if v.len() < len {
        v.resize(len, 0);
    }
}

impl NodeState {
    fn apply_own_send(&mut self, node: u32, seq: u64, msg_idx: Option<usize>, msgs: &[MsgInfo]) {
        grow(&mut self.tvc, node as usize + 1);
        self.tvc[node as usize] += 1;
        self.delivered.insert((node, seq));
        if let Some(idx) = msg_idx {
            for &x in &msgs[idx].keys {
                let e = x as usize;
                grow(&mut self.clock, e + 1);
                if self.entry_log.len() <= e {
                    self.entry_log.resize_with(e + 1, Vec::new);
                }
                self.clock[e] += 1;
                self.entry_log[e].push((idx, self.clock[e]));
            }
        }
    }

    fn apply_delivery(&mut self, msg_idx: usize, msgs: &[MsgInfo]) {
        let m = &msgs[msg_idx];
        self.delivered.insert((m.sender, m.seq));
        grow(&mut self.tvc, m.tvc.len());
        for (mine, theirs) in self.tvc.iter_mut().zip(&m.tvc) {
            *mine = (*mine).max(*theirs);
        }
        for &x in &m.keys {
            let e = x as usize;
            grow(&mut self.clock, e + 1);
            if self.entry_log.len() <= e {
                self.entry_log.resize_with(e + 1, Vec::new);
            }
            self.clock[e] += 1;
            self.entry_log[e].push((msg_idx, self.clock[e]));
        }
    }
}

/// Whether message `c` is in the causal past of `p` (per reconstructed
/// true vector timestamps).
fn in_past(p: &MsgInfo, c: &MsgInfo) -> bool {
    p.tvc.get(c.sender as usize).copied().unwrap_or(0) >= c.seq
}

/// Collects concurrent increments at `st` on `keys`, up to `key_vals`
/// bounds, excluding `exclude_idx` and anything in `relative_to`'s past.
fn covering_on(
    st: &NodeState,
    msgs: &[MsgInfo],
    keys: &[u32],
    key_vals: &[u64],
    relative_to: &MsgInfo,
    exclude_idx: usize,
) -> Vec<Covering> {
    let mut out = Vec::new();
    for (i, &x) in keys.iter().enumerate() {
        let e = x as usize;
        let bound = key_vals.get(i).copied().unwrap_or(u64::MAX);
        let Some(log) = st.entry_log.get(e) else { continue };
        for &(c_idx, value) in log {
            if value > bound || c_idx == exclude_idx {
                continue;
            }
            let c = &msgs[c_idx];
            if in_past(relative_to, c) {
                continue;
            }
            out.push(Covering { sender: c.sender, seq: c.seq, entry: x, value });
        }
    }
    out
}

/// Replays a merged trace and explains every flagged delivery.
///
/// `records` must be time-sorted with each node's emission order
/// preserved on ties (what the simulator's and cluster's trace drains
/// produce). Flagged deliveries whose `Sent` record is absent (ring
/// overflow) are counted in [`ExplainReport::skipped_unknown`] rather
/// than mis-explained.
#[must_use]
pub fn explain(records: &[TraceRecord], mode: ExplainMode) -> ExplainReport {
    let mut report = ExplainReport::default();
    let mut msgs: Vec<MsgInfo> = Vec::new();
    let mut by_id: HashMap<(u32, u64), usize> = HashMap::new();
    let mut nodes: HashMap<u32, NodeState> = HashMap::new();
    let mut checkpoints: HashMap<u32, NodeState> = HashMap::new();

    for rec in records {
        match &rec.event {
            TraceEvent::Sent { sender, seq, keys, key_vals } => {
                let st = nodes.entry(rec.node).or_default();
                grow(&mut st.tvc, *sender as usize + 1);
                // tvc[self] tracks the send count; assignment self-heals
                // over gaps left by ring overflow.
                st.tvc[*sender as usize] = *seq;
                st.sent = st.sent.max(*seq);
                st.delivered.insert((*sender, *seq));
                let idx = msgs.len();
                msgs.push(MsgInfo {
                    sender: *sender,
                    seq: *seq,
                    sent_time: rec.time,
                    keys: keys.clone(),
                    key_vals: key_vals.clone(),
                    tvc: st.tvc.clone(),
                });
                by_id.insert((*sender, *seq), idx);
                // The send stamped its own entries: the sender's clock at
                // those entries *is* the stamp (assignment mirrors
                // `stamp_send`, staying exact across restores).
                for (i, &x) in keys.iter().enumerate() {
                    let e = x as usize;
                    grow(&mut st.clock, e + 1);
                    if st.entry_log.len() <= e {
                        st.entry_log.resize_with(e + 1, Vec::new);
                    }
                    st.clock[e] = key_vals.get(i).copied().unwrap_or(st.clock[e] + 1);
                    st.entry_log[e].push((idx, st.clock[e]));
                }
            }
            TraceEvent::Delivered { sender, seq, blocked_for: _, alert4, alert5, violation } => {
                report.deliveries += 1;
                report.violations += u64::from(*violation);
                report.alerts4 += u64::from(*alert4);
                let selected = match mode {
                    ExplainMode::Violations => *violation,
                    ExplainMode::Alerts => *alert4,
                };
                let Some(&idx) = by_id.get(&(*sender, *seq)) else {
                    // Unknown message (its Sent fell out of the ring):
                    // keep the delivered set honest, skip the story.
                    if selected {
                        report.skipped_unknown += 1;
                    }
                    nodes.entry(rec.node).or_default().delivered.insert((*sender, *seq));
                    continue;
                };
                let st = nodes.entry(rec.node).or_default();
                if selected {
                    let m = &msgs[idx];
                    let mut missing = Vec::new();
                    for (l, &need_raw) in m.tvc.iter().enumerate() {
                        let l = l as u32;
                        let need =
                            if l == m.sender { need_raw.saturating_sub(1) } else { need_raw };
                        for s in 1..=need {
                            if st.delivered.contains(&(l, s)) {
                                continue;
                            }
                            let (sent_time, keys, covering) = match by_id.get(&(l, s)) {
                                Some(&p_idx) => {
                                    let p = &msgs[p_idx];
                                    let cov =
                                        covering_on(st, &msgs, &p.keys, &p.key_vals, p, p_idx);
                                    (Some(p.sent_time), p.keys.clone(), cov)
                                }
                                None => (None, Vec::new(), Vec::new()),
                            };
                            missing.push(MissingStory {
                                sender: l,
                                seq: s,
                                sent_time,
                                keys,
                                covering,
                            });
                        }
                    }
                    let self_covering = covering_on(st, &msgs, &m.keys, &m.key_vals, m, idx);
                    let inflight_x = msgs
                        .iter()
                        .enumerate()
                        .filter(|(i, c)| {
                            *i != idx
                                && c.sent_time <= rec.time
                                && !st.delivered.contains(&(c.sender, c.seq))
                        })
                        .count() as u32;
                    report.explanations.push(Explanation {
                        node: rec.node,
                        time: rec.time,
                        sender: *sender,
                        seq: *seq,
                        alert4: *alert4,
                        alert5: *alert5,
                        violation: *violation,
                        missing,
                        self_covering,
                        inflight_x,
                    });
                }
                st.apply_delivery(idx, &msgs);
            }
            TraceEvent::SnapshotTaken => {
                let st = nodes.entry(rec.node).or_default().clone();
                checkpoints.insert(rec.node, st);
            }
            TraceEvent::SnapshotRestored => {
                let Some(cp) = checkpoints.get(&rec.node) else {
                    report.skipped_restores += 1;
                    continue;
                };
                let st = nodes.entry(rec.node).or_default();
                // Roll back to the checkpoint, then replay the WAL'd own
                // sends the crash wiped from volatile state — exactly the
                // engine's restore path.
                let durable = st.sent;
                let mut fresh = cp.clone();
                for s in (cp.sent + 1)..=durable {
                    let idx = by_id.get(&(rec.node, s)).copied();
                    fresh.apply_own_send(rec.node, s, idx, &msgs);
                }
                fresh.sent = durable;
                *st = fresh;
            }
            TraceEvent::Received { .. }
            | TraceEvent::Parked { .. }
            | TraceEvent::Woken { .. }
            | TraceEvent::Alert { .. }
            | TraceEvent::Refetched { .. } => {}
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(time: u64, node: u32, event: TraceEvent) -> TraceRecord {
        TraceRecord { time, node, event }
    }

    /// Hand-built collision: node 0 sends m1 on entries {0,1}; node 1
    /// delivers it and sends m2 (so m1 ∈ past(m2)) on entries {2,3};
    /// node 2 first delivers two concurrent messages covering entries 0
    /// and 1, then delivers m2 while m1 is still missing — a violation
    /// whose story must name m1 and the two covering messages.
    fn collision_trace() -> Vec<TraceRecord> {
        vec![
            // Concurrent senders 3 and 4 cover m1's entries at node 2.
            rec(
                10,
                3,
                TraceEvent::Sent { sender: 3, seq: 1, keys: vec![0, 5], key_vals: vec![1, 1] },
            ),
            rec(
                11,
                4,
                TraceEvent::Sent { sender: 4, seq: 1, keys: vec![1, 6], key_vals: vec![1, 1] },
            ),
            rec(
                20,
                0,
                TraceEvent::Sent { sender: 0, seq: 1, keys: vec![0, 1], key_vals: vec![1, 1] },
            ),
            // Node 1 delivers m1 and replies.
            rec(
                30,
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
            rec(
                31,
                1,
                TraceEvent::Sent { sender: 1, seq: 1, keys: vec![2, 3], key_vals: vec![1, 1] },
            ),
            // Node 2: concurrent coverage first, then the jump.
            rec(
                40,
                2,
                TraceEvent::Delivered {
                    sender: 3,
                    seq: 1,
                    blocked_for: 0,
                    alert4: false,
                    alert5: false,
                    violation: false,
                },
            ),
            rec(
                41,
                2,
                TraceEvent::Delivered {
                    sender: 4,
                    seq: 1,
                    blocked_for: 0,
                    alert4: false,
                    alert5: false,
                    violation: false,
                },
            ),
            rec(
                50,
                2,
                TraceEvent::Delivered {
                    sender: 1,
                    seq: 1,
                    blocked_for: 0,
                    alert4: false,
                    alert5: false,
                    violation: true,
                },
            ),
        ]
    }

    #[test]
    fn violation_story_names_missing_and_covering() {
        let report = explain(&collision_trace(), ExplainMode::Violations);
        assert_eq!(report.deliveries, 4);
        assert_eq!(report.violations, 1);
        assert_eq!(report.skipped_unknown, 0);
        assert_eq!(report.explanations.len(), 1);
        let e = &report.explanations[0];
        assert_eq!((e.node, e.sender, e.seq), (2, 1, 1));
        assert_eq!(e.missing.len(), 1, "exactly m1 is missing");
        let story = &e.missing[0];
        assert_eq!((story.sender, story.seq), (0, 1));
        assert_eq!(story.sent_time, Some(20));
        let mut coverers: Vec<(u32, u32)> =
            story.covering.iter().map(|c| (c.sender, c.entry)).collect();
        coverers.sort_unstable();
        assert_eq!(coverers, vec![(3, 0), (4, 1)], "both concurrent covers are named");
        // m1 was sent at t=20 and never delivered at node 2: in flight.
        assert!(e.inflight_x >= 1);
        let text = e.to_string();
        assert!(text.contains("missing predecessor p0#1"), "{text}");
        assert!(text.contains("covered on entry 0 by concurrent p3#1"), "{text}");
    }

    #[test]
    fn causal_past_is_excluded_from_covering() {
        // m1's own sender increments (from its Sent at node 0) are logged
        // at node 0, not node 2, and node 1's delivery of m1 is at node
        // 1 — so nothing in m1's past can appear; this asserts the
        // related invariant that m2 itself never covers its own missing
        // predecessor at node 2.
        let report = explain(&collision_trace(), ExplainMode::Violations);
        let story = &report.explanations[0].missing[0];
        assert!(story.covering.iter().all(|c| (c.sender, c.seq) != (1, 1)));
        assert!(story.covering.iter().all(|c| (c.sender, c.seq) != (0, 1)));
    }

    #[test]
    fn alerts_mode_explains_false_alarms() {
        // Same shape, but the flagged delivery carries alert4 without a
        // violation and nothing is actually missing: node 2 delivers m1
        // late, after concurrent traffic covered its entries.
        let mut t = collision_trace();
        t.truncate(3); // keep the three Sents
        t.push(rec(
            40,
            2,
            TraceEvent::Delivered {
                sender: 3,
                seq: 1,
                blocked_for: 0,
                alert4: false,
                alert5: false,
                violation: false,
            },
        ));
        t.push(rec(
            41,
            2,
            TraceEvent::Delivered {
                sender: 4,
                seq: 1,
                blocked_for: 0,
                alert4: false,
                alert5: false,
                violation: false,
            },
        ));
        t.push(rec(
            50,
            2,
            TraceEvent::Delivered {
                sender: 0,
                seq: 1,
                blocked_for: 0,
                alert4: true,
                alert5: false,
                violation: false,
            },
        ));
        let report = explain(&t, ExplainMode::Alerts);
        assert_eq!(report.explanations.len(), 1);
        let e = &report.explanations[0];
        assert!(e.missing.is_empty(), "false alarm: nothing missing");
        let mut covers: Vec<(u32, u32)> =
            e.self_covering.iter().map(|c| (c.sender, c.entry)).collect();
        covers.sort_unstable();
        assert_eq!(covers, vec![(3, 0), (4, 1)], "the covering traffic is still named");
        assert!(e.to_string().contains("false alarm"), "{e}");
    }

    #[test]
    fn snapshot_restore_rolls_back_delivered_state() {
        // Node 2 snapshots, delivers m_a, then restores: m_a must count
        // as missing again for a later flagged delivery that depends on
        // it.
        let t = vec![
            rec(5, 2, TraceEvent::SnapshotTaken),
            rec(
                10,
                3,
                TraceEvent::Sent { sender: 3, seq: 1, keys: vec![0, 1], key_vals: vec![1, 1] },
            ),
            rec(
                20,
                2,
                TraceEvent::Delivered {
                    sender: 3,
                    seq: 1,
                    blocked_for: 0,
                    alert4: false,
                    alert5: false,
                    violation: false,
                },
            ),
            // Node 1 delivers m_a and replies (m_a ∈ past(reply)).
            rec(
                25,
                1,
                TraceEvent::Delivered {
                    sender: 3,
                    seq: 1,
                    blocked_for: 0,
                    alert4: false,
                    alert5: false,
                    violation: false,
                },
            ),
            rec(
                26,
                1,
                TraceEvent::Sent { sender: 1, seq: 1, keys: vec![2, 3], key_vals: vec![1, 1] },
            ),
            // Crash + restore wipes node 2's delivery of m_a...
            rec(30, 2, TraceEvent::SnapshotRestored),
            // Concurrent cover for m_a's entries arrives post-restore.
            rec(
                35,
                4,
                TraceEvent::Sent { sender: 4, seq: 1, keys: vec![0, 1], key_vals: vec![1, 1] },
            ),
            rec(
                40,
                2,
                TraceEvent::Delivered {
                    sender: 4,
                    seq: 1,
                    blocked_for: 0,
                    alert4: false,
                    alert5: false,
                    violation: false,
                },
            ),
            // ...so delivering the reply now jumps m_a again.
            rec(
                50,
                2,
                TraceEvent::Delivered {
                    sender: 1,
                    seq: 1,
                    blocked_for: 0,
                    alert4: false,
                    alert5: false,
                    violation: true,
                },
            ),
        ];
        let report = explain(&t, ExplainMode::Violations);
        assert_eq!(report.skipped_restores, 0);
        assert_eq!(report.explanations.len(), 1);
        let e = &report.explanations[0];
        assert_eq!(e.missing.len(), 1);
        assert_eq!((e.missing[0].sender, e.missing[0].seq), (3, 1));
        // Only the post-restore cover survives the rollback.
        assert_eq!(e.missing[0].covering.len(), 2, "p4#1 on entries 0 and 1");
        assert!(e.missing[0].covering.iter().all(|c| c.sender == 4));
    }

    #[test]
    fn own_send_replay_after_restore_restores_the_wal() {
        // Node 0 snapshots, sends twice, restores: its send count and
        // clock must survive (the WAL replay), so a fresh send continues
        // the sequence rather than reusing stamp heights.
        let t = vec![
            rec(5, 0, TraceEvent::SnapshotTaken),
            rec(
                10,
                0,
                TraceEvent::Sent { sender: 0, seq: 1, keys: vec![0, 1], key_vals: vec![1, 1] },
            ),
            rec(
                20,
                0,
                TraceEvent::Sent { sender: 0, seq: 2, keys: vec![0, 1], key_vals: vec![2, 2] },
            ),
            rec(30, 0, TraceEvent::SnapshotRestored),
            rec(
                40,
                0,
                TraceEvent::Sent { sender: 0, seq: 3, keys: vec![0, 1], key_vals: vec![3, 3] },
            ),
            // Node 1 delivers only #3 — #1 and #2 are missing, and the
            // trace must still know them after the restore.
            rec(
                50,
                1,
                TraceEvent::Delivered {
                    sender: 0,
                    seq: 3,
                    blocked_for: 0,
                    alert4: false,
                    alert5: false,
                    violation: true,
                },
            ),
        ];
        let report = explain(&t, ExplainMode::Violations);
        assert_eq!(report.explanations.len(), 1);
        let missing: Vec<u64> = report.explanations[0].missing.iter().map(|m| m.seq).collect();
        assert_eq!(missing, vec![1, 2]);
    }

    #[test]
    fn unknown_sent_is_skipped_not_misexplained() {
        let t = vec![rec(
            50,
            1,
            TraceEvent::Delivered {
                sender: 0,
                seq: 9,
                blocked_for: 0,
                alert4: false,
                alert5: false,
                violation: true,
            },
        )];
        let report = explain(&t, ExplainMode::Violations);
        assert!(report.explanations.is_empty());
        assert_eq!(report.skipped_unknown, 1);
    }
}
