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
//! For byte payloads the snapshot has a wire encoding ([`encode_snapshot`]
//! / [`decode_snapshot`]) with the same hardening as message frames:
//! version byte, trailing [`crate::wire::checksum64`], total decoding.

use bytes::{BufMut, Bytes, BytesMut};
use pcb_clock::{AssignmentPolicy, ClusterConfig, KeySet, KeySpace, ProcessId, Timestamp};

use crate::dedup::SeenWindows;
use crate::message::Message;
use crate::process::{PcbConfig, ProcessStats};
use crate::wire::{self, WireError};

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

const SNAPSHOT_VERSION: u8 = 1;
/// Version 2 appends the cluster configuration (epoch, policy) and the
/// optional previous-epoch drain state, and stores messages as v3/v4
/// frames so their config epochs survive. Emitted only when the config
/// plane is active (epoch > 0 or mid-drain) — a never-reconfigured
/// cluster keeps producing byte-identical version-1 blobs.
const SNAPSHOT_VERSION_EPOCH: u8 = 2;

/// Encodes a snapshot with byte payloads to a self-contained durable
/// blob (version byte, varint fields, trailing [`crate::wire::checksum64`]).
#[must_use]
pub fn encode_snapshot(snapshot: &ProcessSnapshot<Bytes>) -> Bytes {
    let epoch_plane = snapshot.cluster.epoch > 0 || snapshot.prev.is_some();
    let mut buf = BytesMut::with_capacity(64 + snapshot.store.len() * 64);
    buf.put_u8(if epoch_plane { SNAPSHOT_VERSION_EPOCH } else { SNAPSHOT_VERSION });
    wire::put_uvar(&mut buf, snapshot.id.index() as u64);
    let space = snapshot.keys.space();
    wire::put_uvar(&mut buf, space.r() as u64);
    wire::put_uvar(&mut buf, space.k() as u64);
    buf.put_u128_le(snapshot.keys.set_id());
    // Bits 0 and 1 are reserved: they once carried `detect_instant` and
    // `dedup`, are always written as 1 so the bytes on disk do not
    // change, and are ignored on read.
    let flags = 0b011 | u8::from(snapshot.config.recent_window.is_some()) << 2;
    buf.put_u8(flags);
    if let Some(window) = snapshot.config.recent_window {
        wire::put_uvar(&mut buf, window);
    }
    wire::put_uvar(&mut buf, snapshot.seq);
    wire::put_uvar(&mut buf, snapshot.clock.len() as u64);
    for &entry in snapshot.clock.entries() {
        wire::put_uvar(&mut buf, entry);
    }
    wire::put_uvar(&mut buf, snapshot.seen.len() as u64);
    for (sender, prefix, exceptions) in &snapshot.seen {
        wire::put_uvar(&mut buf, sender.index() as u64);
        wire::put_uvar(&mut buf, *prefix);
        wire::put_uvar(&mut buf, exceptions.len() as u64);
        for &seq in exceptions {
            wire::put_uvar(&mut buf, seq);
        }
    }
    let s = &snapshot.stats;
    for counter in [s.sent, s.delivered, s.duplicates, s.instant_alerts, s.recent_alerts] {
        wire::put_uvar(&mut buf, counter);
    }
    wire::put_uvar(&mut buf, s.max_pending as u64);
    wire::put_uvar(&mut buf, snapshot.store_window);
    wire::put_uvar(&mut buf, snapshot.store.len() as u64);
    for (at, message) in &snapshot.store {
        wire::put_uvar(&mut buf, *at);
        // v1 keeps the historical v2-frame encoding byte-for-byte; the
        // epoch-plane format stores full v3/v4 frames so each message's
        // config epoch survives the roundtrip.
        let frame = if epoch_plane { wire::encode_full(message) } else { wire::encode(message) };
        wire::put_uvar(&mut buf, frame.len() as u64);
        buf.put_slice(&frame);
    }
    if epoch_plane {
        wire::put_uvar(&mut buf, snapshot.cluster.epoch);
        buf.put_u8(snapshot.cluster.policy.wire_code());
        match &snapshot.prev {
            None => buf.put_u8(0),
            Some(prev) => {
                buf.put_u8(1);
                wire::put_uvar(&mut buf, prev.epoch);
                let space = prev.keys.space();
                wire::put_uvar(&mut buf, space.r() as u64);
                wire::put_uvar(&mut buf, space.k() as u64);
                buf.put_u128_le(prev.keys.set_id());
                wire::put_uvar(&mut buf, prev.clock.len() as u64);
                for &entry in prev.clock.entries() {
                    wire::put_uvar(&mut buf, entry);
                }
            }
        }
    }
    wire::seal(buf)
}

/// Decodes a blob produced by [`encode_snapshot`].
///
/// # Errors
///
/// Any [`WireError`] on malformed input; decoding never panics.
pub fn decode_snapshot(blob: Bytes) -> Result<ProcessSnapshot<Bytes>, WireError> {
    if blob.is_empty() {
        return Err(WireError::Truncated);
    }
    let version = blob[0];
    if version != SNAPSHOT_VERSION && version != SNAPSHOT_VERSION_EPOCH {
        return Err(WireError::BadVersion(version));
    }
    let body = wire::checksum_verified(&blob)?;
    let mut cur = &body[1..]; // version, already checked
    let id = ProcessId::new(wire::take_uvar(&mut cur)? as usize);
    let r = wire::take_uvar(&mut cur)? as usize;
    let k = wire::take_uvar(&mut cur)? as usize;
    let set_id = u128::from_le_bytes(wire::take_array(&mut cur)?);
    let space = KeySpace::new(r, k).map_err(|e| WireError::BadKeys(e.to_string()))?;
    let keys = KeySet::from_set_id(space, set_id).map_err(|e| WireError::BadKeys(e.to_string()))?;
    let [flags] = wire::take_array(&mut cur)?;
    let recent_window = if flags & 0b100 != 0 { Some(wire::take_uvar(&mut cur)?) } else { None };
    let config =
        // `trace_capacity` and `estimators` are local observability
        // knobs, not protocol state — they are not wire-encoded; a
        // decoded endpoint starts with tracing and estimators off until
        // its host reconfigures them.
        PcbConfig { recent_window, trace_capacity: 0, estimators: false };
    let seq = wire::take_uvar(&mut cur)?;
    let clock_len = wire::take_uvar(&mut cur)? as usize;
    if clock_len > cur.len() {
        // Each entry costs at least one byte; reject absurd lengths
        // before allocating.
        return Err(WireError::Truncated);
    }
    let mut entries = Vec::with_capacity(clock_len);
    for _ in 0..clock_len {
        entries.push(wire::take_uvar(&mut cur)?);
    }
    let clock = Timestamp::from_entries(entries);
    let seen_count = wire::take_uvar(&mut cur)? as usize;
    if seen_count > cur.len() {
        return Err(WireError::Truncated);
    }
    let mut seen = Vec::with_capacity(seen_count);
    for _ in 0..seen_count {
        let sender = ProcessId::new(wire::take_uvar(&mut cur)? as usize);
        let prefix = wire::take_uvar(&mut cur)?;
        let n_exc = wire::take_uvar(&mut cur)? as usize;
        if n_exc > cur.len() {
            return Err(WireError::Truncated);
        }
        let mut exceptions = Vec::with_capacity(n_exc);
        for _ in 0..n_exc {
            exceptions.push(wire::take_uvar(&mut cur)?);
        }
        seen.push((sender, prefix, exceptions));
    }
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
    let mut store = Vec::with_capacity(store_count);
    for _ in 0..store_count {
        let at = wire::take_uvar(&mut cur)?;
        // One new sharer of the blob per stored message: the handle the
        // frame decoder narrows to the payload.
        let frame = blob.slice(wire::take_len_prefixed(body, &mut cur)?);
        store.push((at, wire::decode(frame)?));
    }
    let (cluster, prev) = if version == SNAPSHOT_VERSION_EPOCH {
        let epoch = wire::take_uvar(&mut cur)?;
        let [code] = wire::take_array(&mut cur)?;
        let policy = AssignmentPolicy::from_wire_code(code)
            .ok_or_else(|| WireError::BadKeys(format!("unknown assignment policy {code}")))?;
        let cluster = ClusterConfig { epoch, space, policy };
        let [marker] = wire::take_array(&mut cur)?;
        let prev = match marker {
            0 => None,
            1 => {
                let prev_epoch = wire::take_uvar(&mut cur)?;
                let prev_r = wire::take_uvar(&mut cur)? as usize;
                let prev_k = wire::take_uvar(&mut cur)? as usize;
                let prev_set_id = u128::from_le_bytes(wire::take_array(&mut cur)?);
                let prev_space =
                    KeySpace::new(prev_r, prev_k).map_err(|e| WireError::BadKeys(e.to_string()))?;
                let prev_keys = KeySet::from_set_id(prev_space, prev_set_id)
                    .map_err(|e| WireError::BadKeys(e.to_string()))?;
                let prev_len = wire::take_uvar(&mut cur)? as usize;
                if prev_len > cur.len() {
                    return Err(WireError::Truncated);
                }
                let mut prev_entries = Vec::with_capacity(prev_len);
                for _ in 0..prev_len {
                    prev_entries.push(wire::take_uvar(&mut cur)?);
                }
                Some(PrevEpochSnapshot {
                    epoch: prev_epoch,
                    keys: prev_keys,
                    clock: Timestamp::from_entries(prev_entries),
                })
            }
            other => return Err(WireError::BadDelta(format!("bad prev-epoch marker {other}"))),
        };
        (cluster, prev)
    } else {
        (ClusterConfig::genesis(space), None)
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

    fn proc(id: usize, entries: &[usize]) -> PcbProcess<Bytes> {
        PcbProcess::new(ProcessId::new(id), KeySet::from_entries(space(), entries).unwrap())
    }

    fn populated() -> (PcbProcess<Bytes>, MessageStore<Bytes>) {
        let mut a = proc(0, &[0, 1]);
        let mut b = proc(1, &[2, 3]);
        let mut store: MessageStore<Bytes> = MessageStore::new(1_000);
        for i in 0..4u8 {
            let m = a.broadcast(Bytes::from(vec![i]));
            for d in b.on_receive(m, u64::from(i)) {
                store.insert(u64::from(i), d.message);
            }
        }
        for i in 0..3u8 {
            store.insert(10, b.broadcast(Bytes::from(vec![0x10 + i])));
        }
        (b, store)
    }

    #[test]
    fn snapshot_roundtrips_through_the_wire_codec() {
        let (b, store) = populated();
        let snap = b.snapshot(&store);
        let blob = encode_snapshot(&snap);
        let back = decode_snapshot(blob).unwrap();
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

        // The two reserved flag bits (once `detect_instant` and `dedup`)
        // are ignored on read: a re-sealed blob with both cleared decodes
        // to the same config and still restores an exactly-once process.
        let sealed = encode_snapshot(&snap);
        let flags_at = 4 + 16; // version, id, R, K (one byte each here), set id
        assert_eq!(sealed[flags_at] & 0b011, 0b011, "reserved bits are written as 1");
        let mut body = BytesMut::new();
        body.put_slice(&sealed[..flags_at]);
        body.put_u8(sealed[flags_at] & !0b011);
        body.put_slice(&sealed[flags_at + 1..sealed.len() - 8]);
        let cleared = decode_snapshot(wire::seal(body)).unwrap();
        assert_eq!(cleared.config, snap.config);
        let (mut restored, rstore) = PcbProcess::restore(cleared);
        let old = rstore.iter().next().unwrap().clone();
        assert!(restored.on_receive(old, 11).is_empty(), "a duplicate id is still dropped");
        assert_eq!(restored.stats().duplicates, snap.stats.duplicates + 1);
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
    fn epoch_plane_snapshot_roundtrips_cluster_and_prev_state() {
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
        assert_eq!(blob[0], SNAPSHOT_VERSION_EPOCH);
        let back = decode_snapshot(blob.clone()).unwrap();
        assert_eq!(back.cluster, snap.cluster);
        assert_eq!(back.prev, snap.prev);
        assert_eq!(back.keys, snap.keys);
        assert_eq!(back.clock, snap.clock);
        // Hardened like v1: mutation and truncation sweeps must reject.
        for i in (0..blob.len()).step_by(7) {
            let mut bytes = blob.to_vec();
            bytes[i] ^= 0x41;
            assert!(decode_snapshot(Bytes::from(bytes)).is_err(), "mutation at byte {i}");
        }
        for len in (0..blob.len()).step_by(11) {
            assert!(decode_snapshot(blob.slice(0..len)).is_err(), "truncation to {len}");
        }
    }

    #[test]
    fn genesis_snapshot_keeps_the_version1_encoding() {
        let (b, store) = populated();
        let snap = b.snapshot(&store);
        let blob = encode_snapshot(&snap);
        assert_eq!(blob[0], SNAPSHOT_VERSION, "epoch 0 must stay on the v1 blob format");
        let back = decode_snapshot(blob).unwrap();
        assert_eq!(back.cluster, ClusterConfig::genesis(space()));
        assert!(back.prev.is_none());
    }

    #[test]
    fn snapshot_decoding_rejects_mutations() {
        let (b, store) = populated();
        let blob = encode_snapshot(&b.snapshot(&store));
        for i in (0..blob.len()).step_by(7) {
            let mut bytes = blob.to_vec();
            bytes[i] ^= 0x41;
            assert!(decode_snapshot(Bytes::from(bytes)).is_err(), "mutation at byte {i}");
        }
        for len in (0..blob.len()).step_by(11) {
            assert!(decode_snapshot(blob.slice(0..len)).is_err(), "truncation to {len}");
        }
    }
}
