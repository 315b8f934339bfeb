//! Crash-durable process snapshots.
//!
//! A [`ProcessSnapshot`] captures everything a `PcbProcess` needs to
//! survive a crash: identity, key set, clock vector, sequence counter,
//! the compressed dedup state, lifetime stats, and the anti-entropy
//! [`MessageStore`](crate::recovery::MessageStore) contents. A recovered
//! node restores from its last snapshot and catches up through
//! anti-entropy.
//!
//! Two pieces of state are deliberately **not** snapshotted:
//!
//! * The pending queue. Messages received but not yet delivered are lost
//!   with the crash; because they were never delivered, the dedup state
//!   in the snapshot does not claim them, so anti-entropy re-fetches them
//!   — losing the buffer costs a re-fetch, never a message.
//! * The Algorithm 5 recent list. It only witnesses deliveries inside a
//!   short window; by the time a node restarts, every entry would have
//!   expired anyway. The detector restarts empty (briefly less sensitive,
//!   never unsafe).
//!
//! The sequence counter in the snapshot may lag the true number of sends
//! (broadcasts after the last snapshot). Pair the snapshot with a
//! write-ahead durable sequence number and call
//! `PcbProcess::replay_own_sends` after restoring, so the clock re-applies
//! those send increments and never re-issues an already-used stamp height.
//!
//! For any [`Payload`] the snapshot has a wire encoding ([`encode_snapshot`]
//! / [`decode_snapshot`]) with the same hardening as message frames:
//! version byte, trailing [`crate::wire::checksum64`], total decoding.
//! There is one blob layout. The stored messages are one self-contained
//! wire list ([`crate::wire::ListWriter`]): each sender's first stored
//! message a full frame, its later ones deltas against the one before,
//! so a store costs what its stamps changed. The cluster tail (epoch,
//! assignment policy, previous-epoch drain state) is always written,
//! genesis included.

use bytes::{BufMut, Bytes, BytesMut};
use pcb_clock::{AssignmentPolicy, ClusterConfig, KeySet, KeySpace, ProcessId, Timestamp};

use crate::dedup::{put_windows, take_windows, SeenWindows};
use crate::message::{Message, MessageId};
use crate::process::{PcbConfig, ProcessStats};
use crate::wire::{self, Payload, WireError};

/// Old-epoch remnant captured when a snapshot lands mid-reconfiguration:
/// the drain process's geometry and clock, so a restore can rebuild it
/// and finish absorbing stragglers instead of losing them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrevEpochSnapshot {
    /// The old configuration's epoch number (frames stamped with it still
    /// route to the drain process).
    pub epoch: u64,
    /// The endpoint's key set in the old `(R, K)` space.
    pub keys: KeySet,
    /// The old-geometry clock vector at snapshot time.
    pub clock: Timestamp,
}

/// Everything needed to rebuild a `PcbProcess` (and its message store)
/// after a crash. Produced by `PcbProcess::snapshot`, consumed by
/// `PcbProcess::restore`.
#[derive(Debug, Clone)]
pub struct ProcessSnapshot<P> {
    /// The endpoint's process id.
    pub id: ProcessId,
    /// The endpoint's key set `f(p_i)`.
    pub keys: KeySet,
    /// The endpoint's configuration.
    pub config: PcbConfig,
    /// The cluster configuration in force at snapshot time.
    /// `PcbProcess::snapshot` fills in genesis; hosts that track the
    /// config plane (the `Endpoint`) overwrite it before persisting.
    pub cluster: ClusterConfig,
    /// Old-epoch drain state when the snapshot lands mid-reconfiguration.
    pub prev: Option<PrevEpochSnapshot>,
    /// The clock vector at snapshot time.
    pub clock: Timestamp,
    /// The last sequence number used at snapshot time.
    pub seq: u64,
    /// Compressed dedup state: `(sender, prefix, exceptions)` windows.
    pub seen: SeenWindows,
    /// Lifetime counters at snapshot time.
    pub stats: ProcessStats,
    /// Retention window of the message store.
    pub store_window: u64,
    /// Retained `(insert_time, message)` pairs, oldest first.
    pub store: Vec<(u64, Message<P>)>,
}

/// The blob format. Bytes 1 (wire-v2 frames, no cluster tail), 2 (the
/// tail only while the config plane was active), 3 (wire-v3 frames in
/// the store), 4 (wire-v5 frames) and 5 (wire-v6 frames, each stored
/// message a full frame) are retired and refuse as
/// [`WireError::BadVersion`].
const BLOB_VERSION: u8 = 6;
/// Fewest bytes a stored message takes: its time and length varints, and
/// the smallest frame (version, tag, sender, seq, back, count, payload
/// length and checksum — a delta with no changes and no payload).
const STORED_MIN_BYTES: usize = 2 + 15;
/// The one flag bit: a `recent_window` follows. Any other set bit refuses.
const FLAG_RECENT_WINDOW: u8 = 0b100;

/// Encodes a snapshot to a self-contained durable blob (version byte,
/// varint fields, trailing [`crate::wire::checksum64`]).
#[must_use]
pub fn encode_snapshot<P: Payload>(snapshot: &ProcessSnapshot<P>) -> Bytes {
    let mut buf = BytesMut::with_capacity(64 + snapshot.store.len() * 64);
    buf.put_u8(BLOB_VERSION);
    wire::put_uvar(&mut buf, snapshot.id.index() as u64);
    put_keys(&mut buf, &snapshot.keys);
    match snapshot.config.recent_window {
        None => buf.put_u8(0),
        Some(window) => {
            buf.put_u8(FLAG_RECENT_WINDOW);
            wire::put_uvar(&mut buf, window);
        }
    }
    wire::put_uvar(&mut buf, snapshot.seq);
    put_entries(&mut buf, &snapshot.clock);
    put_windows(&mut buf, &snapshot.seen);
    let s = &snapshot.stats;
    for counter in [s.sent, s.delivered, s.duplicates, s.instant_alerts, s.recent_alerts] {
        wire::put_uvar(&mut buf, counter);
    }
    wire::put_uvar(&mut buf, s.max_pending as u64);
    wire::put_uvar(&mut buf, snapshot.store_window);
    wire::put_uvar(&mut buf, snapshot.store.len() as u64);
    let mut list = wire::ListWriter::default();
    for (at, message) in &snapshot.store {
        wire::put_uvar(&mut buf, *at);
        let frame = list.encode(message);
        wire::put_uvar(&mut buf, frame.len() as u64);
        buf.put_slice(&frame);
    }
    wire::put_uvar(&mut buf, snapshot.cluster.epoch);
    buf.put_u8(snapshot.cluster.policy.wire_code());
    match &snapshot.prev {
        None => buf.put_u8(0),
        Some(prev) => {
            buf.put_u8(1);
            wire::put_uvar(&mut buf, prev.epoch);
            put_keys(&mut buf, &prev.keys);
            put_entries(&mut buf, &prev.clock);
        }
    }
    wire::seal(buf)
}

/// Appends a key set as `uvar R | uvar K | u128 set_id` (little-endian),
/// as snapshots and join grants carry it.
pub fn put_keys(buf: &mut impl BufMut, keys: &KeySet) {
    wire::put_uvar(buf, keys.space().r() as u64);
    wire::put_uvar(buf, keys.space().k() as u64);
    buf.put_u128_le(keys.set_id());
}

/// Takes a key set [`put_keys`] wrote.
///
/// # Errors
///
/// [`WireError::BadKeys`] for an invalid `(R, K, set_id)`, and
/// [`WireError::Truncated`] when the bytes end first.
pub fn take_keys(cur: &mut &[u8]) -> Result<KeySet, WireError> {
    let r = wire::take_uvar(cur)? as usize;
    let k = wire::take_uvar(cur)? as usize;
    let set_id = u128::from_le_bytes(wire::take_array(cur)?);
    let space = KeySpace::new(r, k).map_err(|e| WireError::BadKeys(e.to_string()))?;
    KeySet::from_set_id(space, set_id).map_err(|e| WireError::BadKeys(e.to_string()))
}

/// A clock vector: its length, then its entries.
fn put_entries(buf: &mut BytesMut, clock: &Timestamp) {
    wire::put_uvar(buf, clock.len() as u64);
    for &entry in clock.entries() {
        wire::put_uvar(buf, entry);
    }
}

fn take_entries(cur: &mut &[u8]) -> Result<Timestamp, WireError> {
    let len = wire::take_uvar(cur)? as usize;
    if len > cur.len() {
        // Each entry costs at least one byte; reject absurd lengths
        // before allocating.
        return Err(WireError::Truncated);
    }
    let mut entries = Vec::with_capacity(len);
    for _ in 0..len {
        entries.push(wire::take_uvar(cur)?);
    }
    Ok(Timestamp::from_entries(entries))
}

/// A config epoch, refused at 2⁶³ and above: frames carry it as
/// `epoch · 2 + kind` in a `u64`.
pub(crate) fn take_epoch(cur: &mut &[u8]) -> Result<u64, WireError> {
    let epoch = wire::take_uvar(cur)?;
    if epoch >= 1 << 63 {
        return Err(WireError::BadKeys(format!("config epoch {epoch} does not fit a frame tag")));
    }
    Ok(epoch)
}

/// Decodes a blob produced by [`encode_snapshot`].
///
/// # Errors
///
/// Any [`WireError`] on malformed input; decoding never panics. The
/// version byte is checked before the checksum, so a retired format
/// reports [`WireError::BadVersion`].
pub fn decode_snapshot<P: Payload>(blob: Bytes) -> Result<ProcessSnapshot<P>, WireError> {
    match blob.first() {
        None => return Err(WireError::Truncated),
        Some(&BLOB_VERSION) => {}
        Some(&version) => return Err(WireError::BadVersion(version)),
    }
    let body = wire::checksum_verified(&blob)?;
    let mut cur = &body[1..]; // version, already checked
    let id = ProcessId::new(wire::take_uvar(&mut cur)? as usize);
    let keys = take_keys(&mut cur)?;
    let [flags] = wire::take_array(&mut cur)?;
    if flags & !FLAG_RECENT_WINDOW != 0 {
        return Err(WireError::BadDelta(format!("unknown snapshot flags {flags:#04x}")));
    }
    let recent_window =
        if flags & FLAG_RECENT_WINDOW != 0 { Some(wire::take_uvar(&mut cur)?) } else { None };
    let config =
        // `trace_capacity` and `estimators` are local observability
        // knobs, not protocol state — they are not wire-encoded; a
        // decoded endpoint starts with tracing and estimators off until
        // its host reconfigures them.
        PcbConfig { recent_window, trace_capacity: 0, estimators: false };
    let seq = wire::take_uvar(&mut cur)?;
    let clock = take_entries(&mut cur)?;
    let seen = take_windows(&mut cur)?;
    let stats = ProcessStats {
        sent: wire::take_uvar(&mut cur)?,
        delivered: wire::take_uvar(&mut cur)?,
        duplicates: wire::take_uvar(&mut cur)?,
        instant_alerts: wire::take_uvar(&mut cur)?,
        recent_alerts: wire::take_uvar(&mut cur)?,
        max_pending: wire::take_uvar(&mut cur)? as usize,
    };
    let store_window = wire::take_uvar(&mut cur)?;
    let store_count = wire::take_uvar(&mut cur)? as usize;
    if store_count > cur.len() {
        return Err(WireError::Truncated);
    }
    // Room for no more messages than the bytes left could hold: a forged
    // count would otherwise claim a message slot, tens of bytes, per
    // byte behind it.
    let mut store = Vec::with_capacity(store_count.min(cur.len() / STORED_MIN_BYTES));
    let mut list = wire::ListReader::default();
    for _ in 0..store_count {
        let at = wire::take_uvar(&mut cur)?;
        // One new sharer of the blob per stored message: the handle the
        // frame decoder narrows to the payload.
        let frame = blob.slice(wire::take_len_prefixed(body, &mut cur)?);
        store.push((at, list.decode(frame)?));
    }
    // The store keeps no index by id: an id listed twice would be held,
    // and served, twice.
    let mut ids: Vec<MessageId> = store.iter().map(|(_, m)| m.id()).collect();
    ids.sort_unstable();
    if let Some(pair) = ids.windows(2).find(|pair| pair[0] == pair[1]) {
        return Err(WireError::BadDelta(format!("stored message {:?} repeats", pair[0])));
    }
    let epoch = take_epoch(&mut cur)?;
    let [code] = wire::take_array(&mut cur)?;
    let policy = AssignmentPolicy::from_wire_code(code)
        .ok_or_else(|| WireError::BadKeys(format!("unknown assignment policy {code}")))?;
    let cluster = ClusterConfig { epoch, space: keys.space(), policy };
    let prev = match wire::take_array(&mut cur)? {
        [0] => None,
        [1] => Some(PrevEpochSnapshot {
            epoch: take_epoch(&mut cur)?,
            keys: take_keys(&mut cur)?,
            clock: take_entries(&mut cur)?,
        }),
        [other] => return Err(WireError::BadDelta(format!("bad prev-epoch marker {other}"))),
    };
    Ok(ProcessSnapshot {
        id,
        keys,
        config,
        cluster,
        prev,
        clock,
        seq,
        seen,
        stats,
        store_window,
        store,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::MessageStore;
    use crate::PcbProcess;
    use pcb_clock::{KeySet, KeySpace};

    fn space() -> KeySpace {
        KeySpace::new(8, 2).unwrap()
    }

    fn proc<P>(id: usize, entries: &[usize]) -> PcbProcess<P> {
        PcbProcess::new(ProcessId::new(id), KeySet::from_entries(space(), entries).unwrap())
    }

    fn populated() -> (PcbProcess<Bytes>, MessageStore<Bytes>) {
        populated_with(|i| Bytes::from(vec![i]))
    }

    /// A process whose store holds 4 messages delivered from another
    /// and 3 of its own, the `i`-th payload `payload(i)`.
    fn populated_with<P: Clone>(payload: impl Fn(u8) -> P) -> (PcbProcess<P>, MessageStore<P>) {
        let mut a = proc(0, &[0, 1]);
        let mut b = proc(1, &[2, 3]);
        let mut store = MessageStore::new(1_000);
        for i in 0..4u8 {
            let m = a.broadcast(payload(i));
            for d in b.on_receive(m, u64::from(i)) {
                store.insert(u64::from(i), d.message);
            }
        }
        for i in 0..3u8 {
            store.insert(10, b.broadcast(payload(0x10 + i)));
        }
        (b, store)
    }

    /// A `u32` payload is its four big-endian bytes: a full frame, a
    /// delta chain and a snapshot of `u32` messages are byte for byte
    /// those of the same messages with `Bytes` payloads, and decode back.
    #[test]
    fn u32_payloads_encode_as_their_four_big_endian_bytes() {
        let index = |i: u8| 0x0101_0101 * u32::from(i);
        let (b, store) = populated_with(index);
        let (twin, twin_store) = populated_with(|i| Bytes::from(index(i).to_be_bytes().to_vec()));
        let messages: Vec<&Message<u32>> = store.iter().skip(4).collect();
        let twins: Vec<&Message<Bytes>> = twin_store.iter().skip(4).collect();
        assert_eq!(wire::encode_full(messages[0]), wire::encode_full(twins[0]));
        let (mut chain, mut twin_chain) =
            (wire::DeltaEncoder::default(), wire::DeltaEncoder::default());
        for (m, t) in messages.iter().zip(&twins) {
            assert_eq!(chain.encode(*m), twin_chain.encode(*t));
        }
        assert_eq!((chain.fulls_emitted(), chain.deltas_emitted()), (1, 2));
        let blob = encode_snapshot(&b.snapshot(&store));
        assert_eq!(blob, encode_snapshot(&twin.snapshot(&twin_store)));
        let back = decode_snapshot::<u32>(blob).unwrap();
        let payloads: Vec<u32> = back.store.iter().map(|(_, m)| *m.payload()).collect();
        assert_eq!(payloads, store.iter().map(|m| *m.payload()).collect::<Vec<_>>());
        let mut short = twin.snapshot(&twin_store);
        short.store[0].1 = short.store[0].1.clone().map(|_| Bytes::from_static(&[1, 2, 3]));
        assert_eq!(
            decode_snapshot::<u32>(encode_snapshot(&short)).err(),
            Some(WireError::BadPayload(3))
        );
    }

    #[test]
    fn snapshot_roundtrips_through_the_wire_codec() {
        let (b, store) = populated();
        let snap = b.snapshot(&store);
        let blob = encode_snapshot(&snap);
        let back = decode_snapshot::<Bytes>(blob).unwrap();
        assert_eq!(back.id, snap.id);
        assert_eq!(back.keys, snap.keys);
        assert_eq!(back.clock, snap.clock);
        assert_eq!(back.seq, snap.seq);
        assert_eq!(back.seen, snap.seen);
        assert_eq!(back.stats, snap.stats);
        assert_eq!(back.store_window, snap.store_window);
        assert_eq!(back.store.len(), snap.store.len());
        for ((at_a, m_a), (at_b, m_b)) in snap.store.iter().zip(&back.store) {
            assert_eq!(at_a, at_b);
            assert_eq!(m_a.id(), m_b.id());
            assert_eq!(m_a.timestamp(), m_b.timestamp());
            assert_eq!(m_a.payload(), m_b.payload());
        }
        assert_eq!(back.cluster, ClusterConfig::genesis(space()));
        assert!(back.prev.is_none());

        // `recent_window` is the only flag: every other bit, set and
        // re-sealed, is refused rather than ignored.
        let sealed = encode_snapshot(&snap);
        let flags_at = 4 + 16; // version, id, R, K (one byte each here), set id
        assert_eq!(sealed[flags_at] & !FLAG_RECENT_WINDOW, 0);
        for bit in (0..8).map(|i| 1u8 << i).filter(|&bit| bit != FLAG_RECENT_WINDOW) {
            let mut bytes = sealed[..sealed.len() - 8].to_vec();
            bytes[flags_at] |= bit;
            let mut body = BytesMut::new();
            body.put_slice(&bytes);
            assert!(
                matches!(decode_snapshot::<Bytes>(wire::seal(body)), Err(WireError::BadDelta(_))),
                "flag bit {bit:#04x} must refuse"
            );
        }
    }

    #[test]
    fn retired_versions_refuse_before_the_checksum() {
        let (b, store) = populated();
        let blob = encode_snapshot(&b.snapshot(&store));
        for version in [1u8, 2, 3, 4, 5] {
            let mut old = blob.to_vec();
            old[0] = version;
            let err = decode_snapshot::<Bytes>(Bytes::from(old)).unwrap_err();
            assert_eq!(err, WireError::BadVersion(version));
        }
    }

    #[test]
    fn restore_resumes_protocol_state() {
        let (b, store) = populated();
        let snap = b.snapshot(&store);
        let (restored, rstore) = PcbProcess::restore(snap);
        assert_eq!(restored.id(), b.id());
        assert_eq!(restored.clock().entries(), b.clock().entries());
        assert_eq!(restored.stats(), b.stats());
        assert_eq!(rstore.len(), store.len());
        assert_eq!(restored.pending_len(), 0, "pending is not snapshotted");
        // Dedup state survives: a stored message replayed in is a duplicate.
        let mut restored = restored;
        let old = rstore.iter().next().unwrap().clone();
        assert!(restored.on_receive(old, 11).is_empty());
        assert_eq!(restored.stats().duplicates, b.stats().duplicates + 1);
    }

    #[test]
    fn replay_own_sends_advances_clock_and_seq() {
        let (mut b, store) = populated();
        let snap = b.snapshot(&store);
        // Two more sends after the snapshot; only the WAL seq survives.
        let durable_seq = b.broadcast(Bytes::new()).id().seq();
        let durable_seq = b.broadcast(Bytes::new()).id().seq().max(durable_seq);
        let (mut restored, _) = PcbProcess::restore(snap);
        assert_eq!(restored.replay_own_sends(durable_seq), 2);
        assert_eq!(restored.clock().entries(), b.clock().entries());
        assert_eq!(restored.stats().sent, b.stats().sent);
        // The next broadcast uses a fresh seq, never a pre-crash one.
        assert_eq!(restored.broadcast(Bytes::new()).id().seq(), durable_seq + 1);
        assert_eq!(restored.replay_own_sends(durable_seq), 0, "replay is idempotent");
    }

    #[test]
    fn reconfigured_snapshot_roundtrips_cluster_and_prev_state() {
        let (b, store) = populated();
        let mut snap = b.snapshot(&store);
        let old_space = space();
        let new_space = KeySpace::new(12, 2).unwrap();
        snap.cluster = ClusterConfig::genesis(old_space).reconfigured(new_space);
        // The current keys/clock must live in the cluster's space for a
        // real mid-drain snapshot; emulate the migrated state.
        snap.keys = snap.cluster.migrate_keys(&snap.keys).unwrap();
        snap.clock = Timestamp::from_entries(snap.cluster.project(snap.clock.entries()));
        snap.prev = Some(PrevEpochSnapshot {
            epoch: 0,
            keys: KeySet::from_entries(old_space, &[2, 3]).unwrap(),
            clock: Timestamp::from_entries(vec![4, 0, 3, 3, 0, 0, 0, 0]),
        });
        let blob = encode_snapshot(&snap);
        assert_eq!(blob[0], BLOB_VERSION);
        let back = decode_snapshot::<Bytes>(blob.clone()).unwrap();
        assert_eq!(back.cluster, snap.cluster);
        assert_eq!(back.prev, snap.prev);
        assert_eq!(back.keys, snap.keys);
        assert_eq!(back.clock, snap.clock);
        // Mutation and truncation sweeps must reject.
        for i in (0..blob.len()).step_by(7) {
            let mut bytes = blob.to_vec();
            bytes[i] ^= 0x41;
            assert!(decode_snapshot::<Bytes>(Bytes::from(bytes)).is_err(), "mutation at byte {i}");
        }
        for len in (0..blob.len()).step_by(11) {
            assert!(decode_snapshot::<Bytes>(blob.slice(0..len)).is_err(), "truncation to {len}");
        }
    }

    #[test]
    fn snapshot_decoding_rejects_mutations() {
        let (b, store) = populated();
        let blob = encode_snapshot(&b.snapshot(&store));
        for i in (0..blob.len()).step_by(7) {
            let mut bytes = blob.to_vec();
            bytes[i] ^= 0x41;
            assert!(decode_snapshot::<Bytes>(Bytes::from(bytes)).is_err(), "mutation at byte {i}");
        }
        for len in (0..blob.len()).step_by(11) {
            assert!(decode_snapshot::<Bytes>(blob.slice(0..len)).is_err(), "truncation to {len}");
        }
    }
}
