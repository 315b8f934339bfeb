//! The typed lifecycle-event vocabulary.
//!
//! Events are deliberately self-contained plain data — message identity
//! is the raw `(sender, seq)` pair and clock coordinates are raw entry
//! indices/values — so the crate stays dependency-free and a trace can be
//! interpreted long after the process (and its key assignment) is gone.
//! The [`crate::explain`] replayer reconstructs true vector timestamps
//! purely from `Sent`/`Delivered` ordering; nothing heavier needs to ride
//! on the wire.

/// One lifecycle event at one node.
///
/// Message-bearing variants identify the message by its origin:
/// `sender` is the originating node id and `seq` its per-sender sequence
/// number (1-based), matching `MessageId` display form `p<sender>#<seq>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// The node broadcast a message.
    Sent {
        /// Originating node (equals the record's `node`).
        sender: u32,
        /// Per-sender sequence number, starting at 1.
        seq: u64,
        /// The sender's `K` clock entries.
        keys: Vec<u32>,
        /// Stamp values on those entries *after* the send increment —
        /// `key_vals[i]` is the stamp at entry `keys[i]`.
        key_vals: Vec<u64>,
    },
    /// A message arrived (post-dedup, pre-classification).
    Received {
        /// Originating node of the message.
        sender: u32,
        /// Its sequence number.
        seq: u64,
    },
    /// The message's delivery guard failed; it parked on one clock entry.
    Parked {
        /// Originating node of the message.
        sender: u32,
        /// Its sequence number.
        seq: u64,
        /// The clock entry (wake channel) it waits on.
        entry: u32,
        /// The value that entry must reach to re-check the guard.
        threshold: u64,
    },
    /// A delivery advanced the entry a parked message waited on.
    Woken {
        /// Originating node of the message.
        sender: u32,
        /// Its sequence number.
        seq: u64,
        /// The entry whose advance woke it.
        entry: u32,
    },
    /// The message was handed to the application.
    Delivered {
        /// Originating node of the message.
        sender: u32,
        /// Its sequence number.
        seq: u64,
        /// Time spent blocked in the pending set (trace time units).
        blocked_for: u64,
        /// Algorithm 4 (instant coverage) alert raised.
        alert4: bool,
        /// Algorithm 5 (recent-list witness) alert raised.
        alert5: bool,
        /// Ground-truth causal violation (simulator oracle only; always
        /// `false` in live traces, which have no oracle).
        violation: bool,
    },
    /// A detector fired on a delivery (one event per algorithm).
    Alert {
        /// Which detector: 4 (instant) or 5 (recent list).
        alg: u8,
        /// Originating node of the delivered message.
        sender: u32,
        /// Its sequence number.
        seq: u64,
        /// Concurrency proxy: messages still pending at this node when
        /// the alert fired.
        suspects: u32,
    },
    /// A missing message was re-fetched via anti-entropy.
    Refetched {
        /// Originating node of the message.
        sender: u32,
        /// Its sequence number.
        seq: u64,
    },
    /// The node checkpointed its durable state.
    SnapshotTaken,
    /// The node restored from its last checkpoint (crash recovery).
    SnapshotRestored,
}

impl TraceEvent {
    /// The event's JSONL tag.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::Sent { .. } => "Sent",
            TraceEvent::Received { .. } => "Received",
            TraceEvent::Parked { .. } => "Parked",
            TraceEvent::Woken { .. } => "Woken",
            TraceEvent::Delivered { .. } => "Delivered",
            TraceEvent::Alert { .. } => "Alert",
            TraceEvent::Refetched { .. } => "Refetched",
            TraceEvent::SnapshotTaken => "SnapshotTaken",
            TraceEvent::SnapshotRestored => "SnapshotRestored",
        }
    }
}

/// A timestamped event at a node.
///
/// `time` is whatever clock the emitting layer runs on — virtual
/// microseconds in the simulator, wall-clock microseconds since the
/// Unix epoch in the daemon. Merged traces must be sorted by
/// `time` with each node's emission order preserved on ties.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Emission time (layer-defined unit).
    pub time: u64,
    /// The node the event happened at.
    pub node: u32,
    /// The event itself.
    pub event: TraceEvent,
}
