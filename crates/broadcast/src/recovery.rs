//! Anti-entropy recovery (paper §4.2).
//!
//! The paper *assumes* "a recovery procedure does exist (e.g.,
//! anti-entropy)" and contributes the detectors that decide when to run
//! it. This module supplies that procedure: every process keeps a
//! [`MessageStore`] of recently seen messages (gossip and UDP stacks
//! already do, §4.2.1); when a process suspects trouble — an Algorithm 4/5
//! alert, or a pending message stuck past the propagation window — it
//! sends a [`SyncRequest`] carrying its dedup windows (per sender: a
//! contiguous prefix plus the exceptions beyond it, so a probe's size
//! follows senders and gaps, not history), and any peer answers with the
//! recent messages outside them, at most [`SYNC_REPLY_MAX`] at a time.
//! Replaying the response through `PcbProcess::on_receive` is idempotent
//! thanks to duplicate suppression.
//!
//! Between processes the exchange is two byte forms, [`encode_probe`] and
//! [`encode_reply`], each decoded totally and within the memory its
//! bytes pay for.

use std::collections::VecDeque;

use bytes::{BufMut, Bytes};
use pcb_clock::{AssignmentPolicy, ClusterConfig, KeySpace, ProcessId, StampPool, StampPoolStats};

use crate::dedup::{put_windows, take_windows, windows_contain, DedupFilter, SeenWindows};
use crate::message::{Message, MessageId};
use crate::snapshot::take_epoch;
use crate::wire::{
    finish, put_uvar, take_array, take_len_prefixed, take_uvar, DeltaDecoder, ListReader,
    ListWriter, Payload, WireError,
};

/// Recovery-health counters shared by every layer that reports them:
/// the simulator's `RunMetrics` and [`crate::EndpointStatus`] embed this
/// one struct, and [`Counters::merge`] is the single aggregation rule for
/// both sim replication pooling and cluster-wide status totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Anti-entropy sync probes issued.
    pub sync_requests: u64,
    /// Sync probes that reached a live, reachable peer and were served.
    pub sync_served: u64,
    /// Messages re-fetched through anti-entropy.
    pub refetched: u64,
    /// Durable snapshots taken.
    pub snapshots_taken: u64,
    /// Recoveries that resumed from a durable snapshot.
    pub snapshot_restores: u64,
}

impl Counters {
    /// Adds another set of counters into this one.
    pub fn merge(&mut self, other: &Counters) {
        self.sync_requests += other.sync_requests;
        self.sync_served += other.sync_served;
        self.refetched += other.refetched;
        self.snapshots_taken += other.snapshots_taken;
        self.snapshot_restores += other.snapshot_restores;
    }

    /// The counts accumulated since `base` was read.
    #[must_use]
    pub fn since(&self, base: &Counters) -> Counters {
        Counters {
            sync_requests: self.sync_requests.saturating_sub(base.sync_requests),
            sync_served: self.sync_served.saturating_sub(base.sync_served),
            refetched: self.refetched.saturating_sub(base.refetched),
            snapshots_taken: self.snapshots_taken.saturating_sub(base.snapshots_taken),
            snapshot_restores: self.snapshot_restores.saturating_sub(base.snapshot_restores),
        }
    }
}

/// Bounded store of recently seen messages, retained for `window` time
/// units, used to answer anti-entropy requests. It keeps no index by id:
/// its callers insert each message once (the endpoint stores a message
/// at its delivery, or when it arrives off the wire), and a sync reply
/// reads it front to back anyway.
#[derive(Debug)]
pub struct MessageStore<P> {
    window: u64,
    entries: VecDeque<(u64, Message<P>)>,
    /// Per-sender reconstruction stamps for the delta wire format: the
    /// store is the long-lived per-node receive state, so it is where
    /// delta chains are resolved (see [`MessageStore::decode_pooled`]).
    codec: DeltaDecoder<P>,
    /// Recycled stamp buffers closing the ingest loop: eviction retires
    /// the stamps of aged-out messages here, and frame decode (plus the
    /// endpoint's pooled broadcast path) draws from it, so the
    /// steady-state stamp lifecycle never touches the allocator.
    pool: StampPool,
}

impl<P: Clone> Clone for MessageStore<P> {
    /// Clones the retained messages and codec state. The stamp pool does
    /// **not** travel: cloning would alias its free buffers (every recycled
    /// stamp would gain a sharer, defeating in-place reuse on both sides),
    /// so the clone starts with an empty pool and re-warms on its own.
    fn clone(&self) -> Self {
        Self {
            window: self.window,
            entries: self.entries.clone(),
            codec: self.codec.clone(),
            pool: StampPool::new(),
        }
    }
}

impl<P> MessageStore<P> {
    /// A store retaining messages for `window` time units (size it to a
    /// few propagation delays, like the Algorithm 5 list).
    #[must_use]
    pub fn new(window: u64) -> Self {
        Self {
            window,
            entries: VecDeque::new(),
            codec: DeltaDecoder::default(),
            pool: StampPool::new(),
        }
    }

    /// Exclusive access to the recycled-stamp pool, so the endpoint's
    /// send path can draw its broadcast stamps from the same free list
    /// the eviction sweep feeds.
    pub fn stamp_pool_mut(&mut self) -> &mut StampPool {
        &mut self.pool
    }

    /// Hit/miss counters of the ingest stamp pool.
    #[must_use]
    pub fn stamp_pool_stats(&self) -> StampPoolStats {
        self.pool.stats()
    }

    /// The per-sender delta reconstruction state (for inspection).
    #[must_use]
    pub fn codec(&self) -> &DeltaDecoder<P> {
        &self.codec
    }

    /// Drops every per-sender reconstruction stamp
    /// ([`DeltaDecoder::clear`]). Must be called when the store crosses a
    /// crash/restore boundary: a delta arriving after restore must fail
    /// with `MissingDeltaBase` (forcing an anti-entropy full-frame
    /// re-fetch) rather than silently reconstruct against a pre-crash
    /// base that no longer matches the sender's chain.
    pub fn reset_codec(&mut self) {
        self.codec.clear();
    }

    /// Evicts what `now` has aged out, then records a message (own
    /// broadcasts *and* deliveries both belong here — a peer may be
    /// missing either). Not idempotent: a caller inserts each message
    /// once, or the store holds (and serves) it once per insert.
    pub fn insert(&mut self, now: u64, message: Message<P>) {
        self.evict(now);
        self.entries.push_back((now, message));
    }

    /// Number of retained messages (after the last eviction).
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The retained message with `id`, by a scan (tests only).
    #[cfg(test)]
    pub(crate) fn get(&self, id: MessageId) -> Option<&Message<P>> {
        self.iter().find(|m| m.id() == id)
    }

    /// Iterates over retained messages, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Message<P>> {
        self.entries.iter().map(|(_, m)| m)
    }

    /// Retained `(insert_time, message)` pairs, oldest first — the
    /// store's full state, for durable snapshots.
    pub fn entries(&self) -> impl Iterator<Item = (u64, &Message<P>)> {
        self.entries.iter().map(|(t, m)| (*t, m))
    }

    /// The retention window this store was built with.
    #[must_use]
    pub fn window(&self) -> u64 {
        self.window
    }

    /// Rebuilds a store from snapshotted [`MessageStore::entries`] (which
    /// are in insertion order). A repeated id is kept as often as it is
    /// listed: the snapshot decoder refuses such a list.
    #[must_use]
    pub fn from_entries(window: u64, entries: impl IntoIterator<Item = (u64, Message<P>)>) -> Self {
        let mut store = Self::new(window);
        for (at, message) in entries {
            store.insert(at, message);
        }
        store
    }

    /// Drops every retained message at or below the stability
    /// `frontier` ([`is_stable`]) — messages no member can ever ask for
    /// again — keeping the rest in their order. The time window stays the
    /// fallback for what the frontier cannot vouch for. Returns how many
    /// messages left.
    pub fn prune(&mut self, frontier: &[u64]) -> usize {
        if !self.entries.iter().any(|(_, m)| is_stable(frontier, m.id())) {
            return 0;
        }
        let before = self.entries.len();
        for _ in 0..before {
            let (at, m) = self.entries.pop_front().expect("one pop per entry held");
            if is_stable(frontier, m.id()) {
                self.retire(m);
            } else {
                self.entries.push_back((at, m));
            }
        }
        before - self.entries.len()
    }

    fn evict(&mut self, now: u64) {
        let horizon = now.saturating_sub(self.window);
        while self.entries.front().is_some_and(|(t, _)| *t < horizon) {
            if let Some((_, m)) = self.entries.pop_front() {
                self.retire(m);
            }
        }
    }

    /// Retires a message's stamp into the pool. At steady state the store
    /// holds the last live reference (deliveries were consumed, the
    /// codec's reconstruction stamp moved on), so the buffer recycles; a
    /// still-shared stamp is just dropped.
    fn retire(&mut self, message: Message<P>) {
        let (_, _, stamp, _) = message.into_parts();
        self.pool.recycle(stamp);
    }
}

/// Whether `id` is at or below the stability `frontier`: indexed by
/// sender, the sequence number up to which every member has delivered
/// that sender's messages and made them durable. A sender beyond the
/// frontier's length has nothing stable.
#[must_use]
pub fn is_stable(frontier: &[u64], id: MessageId) -> bool {
    frontier.get(id.sender().index()).is_some_and(|&stable| id.seq() <= stable)
}

/// Most messages one [`SyncResponse`] carries. A reply is one transport
/// frame, and a frame the transport cannot fragment is lost whole — the
/// requester would time out and ask for the same oversized answer again.
/// Bounded, the requester's next probe carries advanced windows and
/// fetches the rest.
pub const SYNC_REPLY_MAX: usize = 1024;

/// Anti-entropy request: "here is what I have seen; send me the rest".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyncRequest {
    /// The requester's seen-set (delivered or pending), as
    /// [`DedupFilter::export_windows`] produces it: ascending by sender,
    /// each exception list ascending.
    pub windows: SeenWindows,
}

impl SyncRequest {
    /// Builds a request from the ids the requester holds.
    #[must_use]
    pub fn new(known: impl IntoIterator<Item = MessageId>) -> Self {
        let mut seen = DedupFilter::new();
        for id in known {
            seen.insert(id);
        }
        Self { windows: seen.export_windows() }
    }
}

/// Anti-entropy response: the recent messages the requester was missing.
#[derive(Debug, Clone)]
pub struct SyncResponse<P> {
    /// Missing messages, oldest first; replay them through
    /// `PcbProcess::on_receive`.
    pub messages: Vec<Message<P>>,
}

impl<P: Payload> MessageStore<P> {
    /// Decodes a wire frame (full or delta) against this store's
    /// per-sender reconstruction stamps, the stamp drawn from the store's
    /// recycle pool. The result is **not** retained: the endpoint stores
    /// a frame once its ordering core has accepted it.
    ///
    /// # Errors
    ///
    /// Any [`WireError`], exactly as [`DeltaDecoder::decode`].
    /// [`WireError::MissingDeltaBase`] means the store has no base for the
    /// delta chain (late joiner, or the chain head was lost) — issue a
    /// sync request; peers re-serve messages in a self-contained list,
    /// each sender's first one a full frame.
    pub fn decode_pooled(&mut self, frame: Bytes) -> Result<Message<P>, WireError> {
        self.codec.decode_pooled(frame, &mut self.pool)
    }
}

/// Appends an anti-entropy probe, the prober and its dedup windows:
/// `uvar from | uvar count | count × (uvar sender | uvar prefix | uvar n
/// | n × uvar seq)`.
pub fn encode_probe(
    out: &mut impl BufMut,
    from: ProcessId,
    windows: &[(ProcessId, u64, Vec<u64>)],
) {
    put_uvar(out, from.index() as u64);
    put_windows(out, windows);
}

/// Decodes a probe that fills `bytes` exactly.
///
/// # Errors
///
/// [`WireError::BadWindows`] for windows not in exported form (senders
/// strictly ascending, each exception list strictly ascending and beyond
/// its prefix), and any other [`WireError`] on malformed bytes.
pub fn decode_probe(mut bytes: &[u8]) -> Result<(ProcessId, SeenWindows), WireError> {
    let from = ProcessId::new(take_uvar(&mut bytes)? as usize);
    let windows = take_windows(&mut bytes)?;
    finish(bytes)?;
    Ok((from, windows))
}

/// Appends a cluster configuration: `uvar epoch | uvar R | uvar K | u8
/// policy`.
pub fn put_config(out: &mut impl BufMut, config: &ClusterConfig) {
    for v in [config.epoch, config.space.r() as u64, config.space.k() as u64] {
        put_uvar(out, v);
    }
    out.put_u8(config.policy.wire_code());
}

/// Takes what [`put_config`] wrote.
///
/// # Errors
///
/// [`WireError::BadKeys`] for an epoch of 2⁶³ or more (a frame tag
/// carries it doubled), an invalid `(R, K)` or an unknown policy, and
/// [`WireError::Truncated`] when the bytes end first.
pub fn take_config(cur: &mut &[u8]) -> Result<ClusterConfig, WireError> {
    let epoch = take_epoch(cur)?;
    let (r, k) = (take_uvar(cur)? as usize, take_uvar(cur)? as usize);
    let space = KeySpace::new(r, k).map_err(|e| WireError::BadKeys(e.to_string()))?;
    let [code] = take_array(cur)?;
    let policy = AssignmentPolicy::from_wire_code(code)
        .ok_or_else(|| WireError::BadKeys(format!("unknown assignment policy {code}")))?;
    Ok(ClusterConfig { epoch, space, policy })
}

/// Fewest bytes a reply's message takes: its length varint and the
/// smallest frame (version, tag, sender, seq, back, count, payload
/// length and checksum — a delta with no changes and no payload).
const REPLY_ENTRY_MIN_BYTES: usize = 1 + 15;

/// Appends a sync reply, the replier's configuration and the messages as
/// one [`ListWriter`] list: `config | uvar count | count × (uvar len |
/// frame)`, the config as [`put_config`] writes it.
pub fn encode_reply<P: Payload>(
    out: &mut impl BufMut,
    config: &ClusterConfig,
    messages: &[Message<P>],
) {
    put_config(out, config);
    put_uvar(out, messages.len() as u64);
    let mut list = ListWriter::default();
    for message in messages {
        let frame = list.encode(message);
        put_uvar(out, frame.len() as u64);
        out.put_slice(&frame);
    }
}

/// Decodes a reply that fills `bytes` exactly: at most
/// [`SYNC_REPLY_MAX`] messages, read by one [`ListReader`] under its
/// entry budget.
///
/// # Errors
///
/// [`WireError::LongReply`] for a count above [`SYNC_REPLY_MAX`], before
/// anything is reserved for it, and any other [`WireError`] on malformed
/// bytes or frames.
pub fn decode_reply<P: Payload>(
    bytes: &Bytes,
) -> Result<(ClusterConfig, Vec<Message<P>>), WireError> {
    let mut cur: &[u8] = bytes;
    let config = take_config(&mut cur)?;
    let count = take_uvar(&mut cur)? as usize;
    if count > SYNC_REPLY_MAX {
        return Err(WireError::LongReply(count));
    }
    let mut messages = Vec::with_capacity(count.min(cur.len() / REPLY_ENTRY_MIN_BYTES));
    let mut list = ListReader::default();
    for _ in 0..count {
        messages.push(list.decode(bytes.slice(take_len_prefixed(bytes, &mut cur)?))?);
    }
    finish(cur)?;
    Ok((config, messages))
}

impl<P: Clone> MessageStore<P> {
    /// Answers a [`SyncRequest`] from this store: the retained messages
    /// outside the requester's windows, oldest first, at most
    /// [`SYNC_REPLY_MAX`] of them.
    #[must_use]
    pub fn handle_sync(&self, request: &SyncRequest) -> SyncResponse<P> {
        SyncResponse {
            messages: self
                .iter()
                .filter(|m| !windows_contain(&request.windows, m.id()))
                .take(SYNC_REPLY_MAX)
                .cloned()
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PcbProcess, ProcessStats};
    use pcb_clock::{KeySet, KeySpace, ProcessId};

    fn proc(id: usize, entries: &[usize]) -> PcbProcess<&'static str> {
        let space = KeySpace::new(4, 2).unwrap();
        PcbProcess::new(ProcessId::new(id), KeySet::from_entries(space, entries).unwrap())
    }

    #[test]
    fn store_insert_get_evict() {
        let mut a = proc(0, &[0, 1]);
        let mut store: MessageStore<&'static str> = MessageStore::new(10);
        let m1 = a.broadcast("one");
        let m2 = a.broadcast("two");
        store.insert(0, m1.clone());
        store.insert(5, m2.clone());
        assert_eq!(store.len(), 2);
        assert_eq!(store.get(m1.id()).unwrap().payload(), &"one");
        assert!(store.get(MessageId::new(ProcessId::new(9), 1)).is_none());
        // t = 20: the t=0 entry falls outside the window.
        store.insert(20, a.broadcast("three"));
        assert!(store.get(m1.id()).is_none());
        assert!(store.get(m2.id()).is_none(), "t=5 also expired at t=20");
        assert_eq!(store.len(), 1);
        assert!(!store.is_empty());
    }

    #[test]
    fn every_insert_is_retained_until_its_time_ages_out() {
        let mut a = proc(0, &[0, 1]);
        let mut store: MessageStore<&'static str> = MessageStore::new(10);
        let m1 = a.broadcast("one");
        store.insert(0, m1.clone());
        store.insert(3, m1.clone());
        let held = |store: &MessageStore<&'static str>| {
            store.entries().map(|(t, m)| (t, m.id().seq())).collect::<Vec<_>>()
        };
        assert_eq!(held(&store), [(0, 1), (3, 1)], "no dedup by id: one copy per insert");
        // Push the window forward: each copy leaves at its own time.
        let m2 = a.broadcast("two");
        store.insert(11, m2.clone());
        assert_eq!(held(&store), [(3, 1), (11, 2)], "t=0 aged out at t=11, t=3 did not");
        store.insert(20, a.broadcast("three"));
        assert_eq!(held(&store), [(11, 2), (20, 3)]);
        // An evicted id may be inserted again (e.g. re-fetched via sync).
        store.insert(21, m1.clone());
        assert_eq!(store.get(m1.id()).unwrap().payload(), &"one");
        let roundtrip = MessageStore::from_entries(
            store.window(),
            store.entries().map(|(t, m)| (t, m.clone())).collect::<Vec<_>>(),
        );
        assert_eq!(held(&roundtrip), held(&store), "a restore keeps every entry and its time");
    }

    #[test]
    fn sync_returns_only_missing() {
        let mut a = proc(0, &[0, 1]);
        let mut store = MessageStore::new(1000);
        let m1 = a.broadcast("one");
        let m2 = a.broadcast("two");
        store.insert(0, m1.clone());
        store.insert(1, m2.clone());

        let resp = store.handle_sync(&SyncRequest::new([m1.id()]));
        assert_eq!(resp.messages.len(), 1);
        assert_eq!(resp.messages[0].id(), m2.id());

        let all = store.handle_sync(&SyncRequest::new([]));
        assert_eq!(all.messages.len(), 2);
        let none = store.handle_sync(&SyncRequest::new([m1.id(), m2.id()]));
        assert!(none.messages.is_empty());
    }

    #[test]
    fn reply_is_bounded_and_the_next_probe_fetches_the_rest() {
        let mut a = proc(0, &[0, 1]);
        let mut store = MessageStore::new(u64::MAX / 2);
        let total = SYNC_REPLY_MAX + 10;
        for t in 0..total {
            store.insert(t as u64, a.broadcast("m"));
        }
        let first = store.handle_sync(&SyncRequest::new([]));
        assert_eq!(first.messages.len(), SYNC_REPLY_MAX);
        assert_eq!(first.messages[0].id().seq(), 1, "oldest first");
        // The requester replays the reply; its windows advance past it.
        let rest = store.handle_sync(&SyncRequest::new(first.messages.iter().map(Message::id)));
        let seqs: Vec<u64> = rest.messages.iter().map(|m| m.id().seq()).collect();
        assert_eq!(seqs, (SYNC_REPLY_MAX as u64 + 1..=total as u64).collect::<Vec<_>>());
    }

    #[test]
    fn lost_message_recovered_by_anti_entropy() {
        // p_a broadcasts m1 then m2. p_b gets both (and keeps a store).
        // p_k loses m1: m2 blocks. Anti-entropy from p_b unblocks it.
        let mut p_a = proc(0, &[0, 1]);
        let mut p_b = proc(1, &[1, 2]);
        let mut p_k = proc(2, &[2, 3]);
        let mut b_store: MessageStore<&'static str> = MessageStore::new(1000);

        let m1 = p_a.broadcast("m1");
        let m2 = p_a.broadcast("m2");
        for d in p_b.on_receive(m1.clone(), 0).into_iter().chain(p_b.on_receive(m2.clone(), 1)) {
            b_store.insert(1, d.message);
        }

        // m1 lost on the way to p_k; m2 arrives and blocks.
        assert!(p_k.on_receive(m2.clone(), 2).is_empty());
        assert_eq!(p_k.pending_len(), 1);
        assert!(p_k.oldest_pending_age(60).is_some_and(|age| age >= 50));

        // Stuck past the propagation window: ask p_b for what we miss.
        let request = SyncRequest { windows: p_k.seen_windows() };
        let response = b_store.handle_sync(&request);
        assert_eq!(response.messages.len(), 1, "only m1 is missing");

        let mut delivered = Vec::new();
        for m in response.messages {
            delivered.extend(p_k.on_receive(m, 61));
        }
        let order: Vec<&str> = delivered.iter().map(|d| *d.message.payload()).collect();
        assert_eq!(order, ["m1", "m2"], "replay flushes the blocked message too");
        assert_eq!(p_k.pending_len(), 0);
    }

    #[test]
    fn replaying_a_sync_response_is_idempotent() {
        let mut p_a = proc(0, &[0, 1]);
        let mut p_k = proc(2, &[2, 3]);
        let mut store = MessageStore::new(1000);
        let m1 = p_a.broadcast("m1");
        store.insert(0, m1.clone());

        assert_eq!(p_k.on_receive(m1, 0).len(), 1);
        // A redundant sync (e.g. two peers answered) delivers nothing new.
        let resp = store.handle_sync(&SyncRequest::new([]));
        let mut extra = 0;
        for m in resp.messages {
            extra += p_k.on_receive(m, 1).len();
        }
        assert_eq!(extra, 0);
        let ProcessStats { duplicates, delivered, .. } = p_k.stats();
        assert_eq!(duplicates, 1);
        assert_eq!(delivered, 1);
    }

    #[test]
    fn decode_pooled_resolves_the_delta_chain_and_retains_nothing() {
        use crate::wire::{self, DeltaEncoder};
        use bytes::Bytes;

        let space = KeySpace::new(8, 2).unwrap();
        let mut sender: PcbProcess<Bytes> =
            PcbProcess::new(ProcessId::new(0), KeySet::from_entries(space, &[1, 3]).unwrap());
        let msgs: Vec<_> =
            (0..6u64).map(|i| sender.broadcast(Bytes::from(i.to_be_bytes().to_vec()))).collect();
        let mut encoder = DeltaEncoder::default(); // one full, then deltas

        let mut store: MessageStore<Bytes> = MessageStore::new(1000);
        let frames: Vec<Bytes> = msgs.iter().map(|m| encoder.encode(m)).collect();

        // The store misses the chain head: the first delta names its base.
        match store.decode_pooled(frames[1].clone()) {
            Err(WireError::MissingDeltaBase { sender, base_seq }) => {
                assert_eq!((sender, base_seq), (0, 1));
            }
            other => panic!("expected MissingDeltaBase, got {other:?}"),
        }
        // Refetch the full frame (what a sync peer re-serves), then the
        // rest of the chain decodes. Retaining is the caller's decision.
        store.decode_pooled(wire::encode_full(&msgs[0])).unwrap();
        for (t, frame) in frames.iter().enumerate().skip(1) {
            let m = store.decode_pooled(frame.clone()).unwrap();
            assert_eq!(wire::encode_full(&m), wire::encode_full(&msgs[t]));
            store.insert(t as u64, m);
        }
        let held: Vec<(u64, u64)> = store.entries().map(|(t, m)| (t, m.id().seq())).collect();
        let inserted: Vec<(u64, u64)> = (1..msgs.len() as u64).map(|t| (t, t + 1)).collect();
        assert_eq!(held, inserted, "one entry per insert, in insert order, at its time");
        assert_eq!(store.codec().tracked_senders(), 1);
        assert_eq!(store.get(msgs[5].id()).unwrap().timestamp(), msgs[5].timestamp());
    }

    #[test]
    fn eviction_recycles_stamps_into_the_decode_pool() {
        use crate::wire::DeltaEncoder;
        use bytes::Bytes;

        let space = KeySpace::new(8, 2).unwrap();
        let mut sender: PcbProcess<Bytes> =
            PcbProcess::new(ProcessId::new(0), KeySet::from_entries(space, &[1, 3]).unwrap());
        let mut encoder = DeltaEncoder::default();
        // Window of 4 ticks, one frame per tick: after warm-up every
        // decode is preceded by an eviction that retired a stamp whose
        // only remaining owner was the store.
        let mut store: MessageStore<Bytes> = MessageStore::new(4);
        for t in 0..200u64 {
            let m = sender.broadcast(Bytes::from_static(b"x"));
            let frame = encoder.encode(&m);
            drop(m); // the transport copy dies; only the store retains it
            let decoded = store.decode_pooled(frame).unwrap();
            store.insert(t, decoded);
        }
        let stats = store.stamp_pool_stats();
        assert!(
            stats.hits > 150,
            "steady-state decode must reuse evicted stamp buffers: {stats:?}"
        );
        assert!(stats.misses < 20, "only warm-up may allocate: {stats:?}");
    }

    #[test]
    fn a_store_that_only_receives_holds_at_most_the_pool_cap() {
        // Frames decoded against some other pool (the daemon's own chain
        // decoder) still retire into this store's pool on eviction; the
        // send path that would draw them back out never runs here.
        let mut sender = proc(0, &[0, 1]);
        let mut store: MessageStore<&'static str> = MessageStore::new(4);
        for t in 0..100_000u64 {
            store.insert(t, sender.broadcast("x"));
        }
        assert!(store.len() <= 5);
        let pool = store.stamp_pool_mut();
        assert_eq!(pool.len(), StampPool::MAX_FREE, "every stamp retired, at most the cap kept");
        assert_eq!(pool.stats(), StampPoolStats::default(), "nothing was ever drawn");
    }

    #[test]
    fn prune_drops_exactly_what_the_frontier_covers_and_keeps_the_index() {
        let (mut a, mut b) = (proc(0, &[0, 1]), proc(1, &[1, 2]));
        let mut store: MessageStore<&'static str> = MessageStore::new(1_000);
        let mut ids = Vec::new();
        for t in 0..6 {
            let m = if t % 2 == 0 { a.broadcast("a") } else { b.broadcast("b") };
            ids.push(m.id());
            store.insert(t, m);
        }
        // Sender 0 sent seqs 1..=3, sender 1 seqs 1..=3; the frontier
        // covers 0:≤2 and 1:≤1, and says nothing about sender 7.
        assert_eq!(store.prune(&[2, 1]), 3);
        assert_eq!(store.prune(&[2, 1]), 0, "pruning again finds nothing");
        let left: Vec<_> = store.iter().map(|m| (m.id().sender().index(), m.id().seq())).collect();
        assert_eq!(left, [(1, 2), (0, 3), (1, 3)], "survivors keep their order");
        for id in &ids {
            assert_eq!(store.get(*id).map(Message::id), (!is_stable(&[2, 1], *id)).then_some(*id));
        }
        // Positions stay consistent for what comes after.
        let late = a.broadcast("late");
        store.insert(7, late.clone());
        assert_eq!(store.get(late.id()).unwrap().payload(), &"late");
        assert!(!is_stable(&[], late.id()), "an empty frontier covers nothing");
        assert_eq!(store.prune(&[u64::MAX; 2]), 4);
        assert!(store.is_empty());
    }

    #[test]
    fn cloned_store_starts_with_a_cold_pool() {
        // Cloning the pool would alias its free buffers (both sides would
        // see every stamp as shared and never recycle); the clone must
        // start cold instead.
        let mut store: MessageStore<&'static str> = MessageStore::new(2);
        let mut p = proc(0, &[0, 1]);
        for t in 0..50 {
            store.insert(t, p.broadcast("m"));
        }
        let copy = store.clone();
        assert_eq!(copy.len(), store.len());
        assert_eq!(copy.stamp_pool_stats(), pcb_clock::StampPoolStats::default());
    }

    #[test]
    fn probe_windows_decode_only_in_exported_form() {
        let probe = |windows: SeenWindows| {
            let mut out = Vec::new();
            encode_probe(&mut out, ProcessId::new(0), &windows);
            decode_probe(&out)
        };
        let sorted = vec![(ProcessId::new(1), 4, vec![6, 9]), (ProcessId::new(3), 0, vec![])];
        assert_eq!(probe(sorted.clone()), Ok((ProcessId::new(0), sorted)));
        for bad in [
            // Senders out of order, or repeated: `handle_sync` binary-searches them.
            vec![(ProcessId::new(3), 0, vec![]), (ProcessId::new(1), 4, vec![])],
            vec![(ProcessId::new(1), 0, vec![]), (ProcessId::new(1), 4, vec![])],
            // Exceptions out of order, repeated, or inside the prefix.
            vec![(ProcessId::new(1), 4, vec![9, 6])],
            vec![(ProcessId::new(1), 4, vec![6, 6])],
            vec![(ProcessId::new(1), 4, vec![4])],
        ] {
            assert_eq!(probe(bad.clone()), Err(WireError::BadWindows), "{bad:?}");
        }
    }

    #[test]
    fn probes_and_replies_round_trip_and_refuse_a_cut_or_a_tail() {
        let space = KeySpace::new(16, 2).unwrap();
        let mut a =
            PcbProcess::new(ProcessId::new(2), KeySet::from_entries(space, &[3, 9]).unwrap());
        let messages: Vec<Message<u32>> = (0..4).map(|i| a.broadcast(7 + i)).collect();
        let config = ClusterConfig::genesis(space).reconfigured(space);
        let mut reply = Vec::new();
        encode_reply(&mut reply, &config, &messages);
        let (back_config, back) = decode_reply::<u32>(&Bytes::from(reply.clone())).unwrap();
        assert_eq!(back_config, config);
        let ids = |ms: &[Message<u32>]| -> Vec<_> {
            ms.iter().map(|m| (m.id(), m.timestamp().clone(), *m.payload())).collect()
        };
        assert_eq!(ids(&back), ids(&messages));
        let windows = vec![(ProcessId::new(2), 3, vec![5, 9])];
        let mut probe = Vec::new();
        encode_probe(&mut probe, ProcessId::new(1), &windows);
        assert_eq!(decode_probe(&probe), Ok((ProcessId::new(1), windows)));
        for cut in 0..reply.len() {
            assert!(decode_reply::<u32>(&Bytes::from(reply[..cut].to_vec())).is_err(), "{cut}");
        }
        for cut in 0..probe.len() {
            assert!(decode_probe(&probe[..cut]).is_err(), "{cut}");
        }
        reply.push(0);
        probe.push(0);
        assert_eq!(decode_reply::<u32>(&Bytes::from(reply)).err(), Some(WireError::Truncated));
        assert_eq!(decode_probe(&probe), Err(WireError::Truncated));
    }
}
