//! Byte forms for what crosses a process boundary around one node: a
//! step (`(now_us, Input)`), a join grant, a node spec, and the `u32`
//! payload rewrites the wire and snapshot codecs need.
//!
//! * [`encode_step`]/[`decode_step`] give each `(now_us, Input)` a
//!   self-contained byte form. A received frame travels as a standalone
//!   full wire frame ([`pcb_broadcast::wire`]), and a sync reply's
//!   messages as one wire list ([`wire::ListWriter`]): per sender a full
//!   frame, then deltas against that sender's previous message in the
//!   reply. Either way a receiver reconstructs bit-identical stamps, key
//!   sets, and payloads from the step's bytes alone. The daemon's
//!   anti-entropy probes and replies travel in this form.
//! * [`encode_node_spec`]/[`decode_node_spec`] carry the constructor
//!   arguments (keys, protocol config, recovery timing) into a node's
//!   state directory, for a process that shares no memory with whoever
//!   wrote it.
//!
//! Everything decodes totally: corrupt or truncated bytes produce an
//! [`ExportError`], never a panic.

use bytes::Bytes;
use pcb_broadcast::endpoint::{Input, RecoveryTimingUs};
use pcb_broadcast::{
    wire, JoinGrant, Message, PcbConfig, ProcessSnapshot, SeenWindows, WireError, SYNC_REPLY_MAX,
};
use pcb_clock::{AssignmentPolicy, ClusterConfig, KeySet, KeySpace, ProcessId};

/// Errors decoding exported bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExportError {
    /// Bytes ended before the structure was complete.
    Truncated,
    /// Unknown step kind byte.
    BadKind(u8),
    /// An embedded frame decoded, but its payload is not the `u32` arena
    /// index every replayed message carries.
    BadPayload,
    /// An embedded wire frame failed to decode.
    Wire(WireError),
    /// Key-set reconstruction from `(R, K, set_id)` failed.
    Keys(String),
    /// A sync request's dedup windows are not in exported form: senders
    /// strictly ascending, each exception list strictly ascending and
    /// beyond its prefix.
    BadWindows,
    /// A sync reply of more messages than a store ever answers with
    /// ([`SYNC_REPLY_MAX`]).
    LongReply(usize),
}

impl std::fmt::Display for ExportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

impl std::error::Error for ExportError {}

/// Constructor arguments for one node, in serializable form.
#[derive(Debug, Clone)]
pub struct NodeSpec {
    /// This node's index.
    pub node: u32,
    /// Cluster size.
    pub n: u32,
    /// The node's key set.
    pub keys: KeySet,
    /// Protocol configuration.
    pub pcb_config: PcbConfig,
    /// Recovery/anti-entropy timing.
    pub timing: RecoveryTimingUs,
}

// ---- primitive readers ------------------------------------------------

struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ExportError> {
        if self.0.len() < n {
            return Err(ExportError::Truncated);
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, ExportError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ExportError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, ExportError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn u128(&mut self) -> Result<u128, ExportError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().expect("16 bytes")))
    }

    /// Capacity for `count` announced elements of at least `min_bytes`
    /// each: never more than the bytes left could hold, so a forged count
    /// cannot claim memory the input does not pay for.
    fn capacity(&self, count: usize, min_bytes: usize) -> usize {
        count.min(self.0.len() / min_bytes)
    }

    fn done(&self) -> Result<(), ExportError> {
        if self.0.is_empty() {
            Ok(())
        } else {
            Err(ExportError::Truncated)
        }
    }
}

// ---- message <-> wire frame ------------------------------------------

/// A replayed message as the wire codecs take it: the `u32` arena
/// payload as 4 big-endian bytes, everything else untouched.
#[must_use]
pub fn message_to_bytes(message: &Message<u32>) -> Message<Bytes> {
    message.clone().map(|v| Bytes::from(v.to_be_bytes().to_vec()))
}

/// The inverse of [`message_to_bytes`], for a message any wire decoder
/// produced.
///
/// # Errors
///
/// [`ExportError::BadPayload`] if the payload is not a 4-byte arena index.
pub fn message_from_bytes(message: Message<Bytes>) -> Result<Message<u32>, ExportError> {
    let payload: [u8; 4] =
        message.payload().as_ref().try_into().map_err(|_| ExportError::BadPayload)?;
    Ok(message.map(move |_| u32::from_be_bytes(payload)))
}

/// Encodes a replayed message as a standalone full wire frame.
#[must_use]
pub fn message_to_wire(message: &Message<u32>) -> Bytes {
    wire::encode_full(&message_to_bytes(message))
}

/// Decodes a standalone wire frame back into a replayed message.
///
/// # Errors
///
/// [`ExportError::Wire`] for undecodable bytes, [`ExportError::BadPayload`]
/// if the payload is not a 4-byte arena index.
pub fn message_from_wire(frame: Bytes) -> Result<Message<u32>, ExportError> {
    message_from_bytes(wire::decode(frame).map_err(ExportError::Wire)?)
}

/// Rewrites a replayed-node snapshot to byte payloads so it can pass
/// through [`pcb_broadcast::encode_snapshot`] for on-disk persistence.
#[must_use]
pub fn snapshot_to_wire(s: &ProcessSnapshot<u32>) -> ProcessSnapshot<Bytes> {
    // Every payload in one buffer, each message a 4-byte window of it:
    // two allocations a snapshot, however many messages the store holds.
    let mut arena = Vec::with_capacity(4 * s.store.len());
    for (_, m) in &s.store {
        arena.extend_from_slice(&m.payload().to_be_bytes());
    }
    let arena = Bytes::from(arena);
    ProcessSnapshot {
        id: s.id,
        keys: s.keys.clone(),
        config: s.config.clone(),
        cluster: s.cluster,
        prev: s.prev.clone(),
        clock: s.clock.clone(),
        seq: s.seq,
        seen: s.seen.clone(),
        stats: s.stats,
        store_window: s.store_window,
        store: s
            .store
            .iter()
            .enumerate()
            .map(|(i, (t, m))| (*t, m.clone().map(|_| arena.slice(4 * i..4 * i + 4))))
            .collect(),
    }
}

/// Rewrites a decoded on-disk snapshot back to `u32` payloads.
///
/// # Errors
///
/// [`ExportError::BadPayload`] if any stored payload is not a 4-byte
/// arena index.
pub fn snapshot_from_wire(s: ProcessSnapshot<Bytes>) -> Result<ProcessSnapshot<u32>, ExportError> {
    let mut store = Vec::with_capacity(s.store.len());
    for (t, m) in s.store {
        let payload: [u8; 4] =
            m.payload().as_ref().try_into().map_err(|_| ExportError::BadPayload)?;
        store.push((t, m.map(move |_| u32::from_be_bytes(payload))));
    }
    Ok(ProcessSnapshot {
        id: s.id,
        keys: s.keys,
        config: s.config,
        cluster: s.cluster,
        prev: s.prev,
        clock: s.clock,
        seq: s.seq,
        seen: s.seen,
        stats: s.stats,
        store_window: s.store_window,
        store,
    })
}

// ---- step codec -------------------------------------------------------

const STEP_FRAME: u8 = 0;
const STEP_SYNC_REQUEST: u8 = 1;
const STEP_SYNC_RESPONSE: u8 = 2;
const STEP_TICK: u8 = 3;
const STEP_BROADCAST: u8 = 4;
const STEP_CRASH: u8 = 5;
const STEP_RESTORE: u8 = 6;
const STEP_RECONFIGURE: u8 = 7;
const STEP_LEAVE: u8 = 8;
const STEP_JOIN: u8 = 9;
const STEP_STABLE_FRONTIER: u8 = 10;

/// Fewest bytes one window of a sync request occupies: sender, prefix,
/// exception count.
const WINDOW_MIN_BYTES: usize = 4 + 8 + 4;
/// Fewest bytes one embedded frame occupies: its length prefix and the
/// checksum trailer every wire frame ends with.
const FRAME_MIN_BYTES: usize = 4 + 8;

fn put_config(out: &mut Vec<u8>, config: &ClusterConfig) {
    out.extend_from_slice(&config.epoch.to_le_bytes());
    out.extend_from_slice(&(config.space.r() as u32).to_le_bytes());
    out.extend_from_slice(&(config.space.k() as u32).to_le_bytes());
    out.push(config.policy.wire_code());
}

/// Reads a cluster configuration. An epoch of 2⁶³ or more is refused:
/// wire frames carry it as `epoch · 2 + kind` in a `u64`.
fn read_config(r: &mut Reader<'_>) -> Result<ClusterConfig, ExportError> {
    let epoch = r.u64()?;
    if epoch >= 1 << 63 {
        return Err(ExportError::BadKind(STEP_RECONFIGURE));
    }
    let space = KeySpace::new(r.u32()? as usize, r.u32()? as usize)
        .map_err(|_| ExportError::BadKind(STEP_RECONFIGURE))?;
    let policy =
        AssignmentPolicy::from_wire_code(r.u8()?).ok_or(ExportError::BadKind(STEP_RECONFIGURE))?;
    Ok(ClusterConfig { epoch, space, policy })
}

fn put_frame(out: &mut Vec<u8>, frame: &[u8]) {
    out.extend_from_slice(&(frame.len() as u32).to_le_bytes());
    out.extend_from_slice(frame);
}

/// Serializes one replay step.
#[must_use]
pub fn encode_step(now_us: u64, input: &Input<u32>) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    out.extend_from_slice(&now_us.to_le_bytes());
    match input {
        Input::FrameReceived(message) => {
            out.push(STEP_FRAME);
            put_frame(&mut out, &message_to_wire(message));
        }
        Input::SyncRequest { from, windows } => {
            out.push(STEP_SYNC_REQUEST);
            out.extend_from_slice(&(from.index() as u32).to_le_bytes());
            out.extend_from_slice(&(windows.len() as u32).to_le_bytes());
            for (sender, prefix, exceptions) in windows {
                out.extend_from_slice(&(sender.index() as u32).to_le_bytes());
                out.extend_from_slice(&prefix.to_le_bytes());
                out.extend_from_slice(&(exceptions.len() as u32).to_le_bytes());
                for seq in exceptions {
                    out.extend_from_slice(&seq.to_le_bytes());
                }
            }
        }
        Input::SyncResponse { messages, config } => {
            out.push(STEP_SYNC_RESPONSE);
            put_config(&mut out, config);
            out.extend_from_slice(&(messages.len() as u32).to_le_bytes());
            let mut list = wire::ListWriter::default();
            for message in messages {
                put_frame(&mut out, &list.encode(&message_to_bytes(message)));
            }
        }
        Input::Tick => out.push(STEP_TICK),
        Input::Broadcast(payload) => {
            out.push(STEP_BROADCAST);
            out.extend_from_slice(&payload.to_le_bytes());
        }
        Input::Crash => out.push(STEP_CRASH),
        Input::Restore => out.push(STEP_RESTORE),
        Input::Reconfigure(config) => {
            out.push(STEP_RECONFIGURE);
            put_config(&mut out, config);
        }
        Input::Leave => out.push(STEP_LEAVE),
        Input::Join(grant) => {
            out.push(STEP_JOIN);
            let blob = encode_join_grant(grant);
            out.extend_from_slice(&(blob.len() as u32).to_le_bytes());
            out.extend_from_slice(&blob);
        }
        Input::StableFrontier(frontier) => {
            out.push(STEP_STABLE_FRONTIER);
            out.extend_from_slice(&(frontier.len() as u32).to_le_bytes());
            for seq in frontier {
                out.extend_from_slice(&seq.to_le_bytes());
            }
        }
    }
    out
}

/// Reads a sync request's dedup windows, accepting only the exported
/// form `MessageStore::handle_sync` searches: senders strictly ascending,
/// each exception list strictly ascending and beyond its prefix.
fn read_windows(r: &mut Reader<'_>) -> Result<SeenWindows, ExportError> {
    let count = r.u32()? as usize;
    let mut windows: SeenWindows = Vec::with_capacity(r.capacity(count, WINDOW_MIN_BYTES));
    for _ in 0..count {
        let sender = ProcessId::new(r.u32()? as usize);
        if windows.last().is_some_and(|(last, _, _)| *last >= sender) {
            return Err(ExportError::BadWindows);
        }
        let prefix = r.u64()?;
        let gaps = r.u32()? as usize;
        let mut exceptions = Vec::with_capacity(r.capacity(gaps, 8));
        let mut floor = prefix;
        for _ in 0..gaps {
            let seq = r.u64()?;
            if seq <= floor {
                return Err(ExportError::BadWindows);
            }
            floor = seq;
            exceptions.push(seq);
        }
        windows.push((sender, prefix, exceptions));
    }
    Ok(windows)
}

fn read_frame(r: &mut Reader<'_>) -> Result<Bytes, ExportError> {
    let len = r.u32()? as usize;
    Ok(Bytes::from(r.take(len)?))
}

/// Deserializes one replay step.
///
/// # Errors
///
/// [`ExportError`] on malformed bytes; never panics.
pub fn decode_step(bytes: &[u8]) -> Result<(u64, Input<u32>), ExportError> {
    let mut r = Reader(bytes);
    let now_us = r.u64()?;
    let kind = r.u8()?;
    let input = match kind {
        STEP_FRAME => Input::FrameReceived(message_from_wire(read_frame(&mut r)?)?),
        STEP_SYNC_REQUEST => {
            let from = ProcessId::new(r.u32()? as usize);
            Input::SyncRequest { from, windows: read_windows(&mut r)? }
        }
        STEP_SYNC_RESPONSE => {
            let config = read_config(&mut r)?;
            let count = r.u32()? as usize;
            if count > SYNC_REPLY_MAX {
                return Err(ExportError::LongReply(count));
            }
            let mut messages = Vec::with_capacity(r.capacity(count, FRAME_MIN_BYTES));
            let mut list = wire::ListReader::default();
            for _ in 0..count {
                let message = list.decode(read_frame(&mut r)?).map_err(ExportError::Wire)?;
                messages.push(message_from_bytes(message)?);
            }
            Input::SyncResponse { messages, config }
        }
        STEP_TICK => Input::Tick,
        STEP_BROADCAST => Input::Broadcast(r.u32()?),
        STEP_CRASH => Input::Crash,
        STEP_RESTORE => Input::Restore,
        STEP_RECONFIGURE => Input::Reconfigure(read_config(&mut r)?),
        STEP_LEAVE => Input::Leave,
        STEP_JOIN => {
            let len = r.u32()? as usize;
            let blob = r.take(len)?;
            Input::Join(Box::new(decode_join_grant(blob)?))
        }
        STEP_STABLE_FRONTIER => {
            let count = r.u32()? as usize;
            let mut frontier = Vec::with_capacity(r.capacity(count, 8));
            for _ in 0..count {
                frontier.push(r.u64()?);
            }
            Input::StableFrontier(frontier)
        }
        other => return Err(ExportError::BadKind(other)),
    };
    r.done()?;
    Ok((now_us, input))
}

// ---- join grant codec -------------------------------------------------

/// Serializes a snapshot-assisted join grant, as the step codec carries
/// it inside `Input::Join`.
#[must_use]
pub fn encode_join_grant(grant: &JoinGrant<u32>) -> Vec<u8> {
    let mut out = Vec::with_capacity(128);
    out.extend_from_slice(&(grant.id.index() as u32).to_le_bytes());
    out.extend_from_slice(&(grant.keys.space().r() as u32).to_le_bytes());
    out.extend_from_slice(&(grant.keys.space().k() as u32).to_le_bytes());
    out.extend_from_slice(&grant.keys.set_id().to_le_bytes());
    put_config(&mut out, &grant.config);
    let blob = pcb_broadcast::encode_snapshot(&snapshot_to_wire(&grant.snapshot));
    out.extend_from_slice(&(blob.len() as u32).to_le_bytes());
    out.extend_from_slice(&blob);
    out
}

/// Deserializes a join grant.
///
/// # Errors
///
/// [`ExportError`] on malformed bytes; never panics.
pub fn decode_join_grant(bytes: &[u8]) -> Result<JoinGrant<u32>, ExportError> {
    let mut r = Reader(bytes);
    let id = ProcessId::new(r.u32()? as usize);
    let (kr, kk) = (r.u32()? as usize, r.u32()? as usize);
    let set_id = r.u128()?;
    let space = KeySpace::new(kr, kk).map_err(|e| ExportError::Keys(e.to_string()))?;
    let keys = KeySet::from_set_id(space, set_id).map_err(|e| ExportError::Keys(e.to_string()))?;
    let config = read_config(&mut r)?;
    let len = r.u32()? as usize;
    let blob = Bytes::from(r.take(len)?.to_vec());
    r.done()?;
    let wire = pcb_broadcast::decode_snapshot(blob).map_err(ExportError::Wire)?;
    let snapshot = snapshot_from_wire(wire)?;
    Ok(JoinGrant { id, keys, config, snapshot })
}

// ---- node spec codec --------------------------------------------------

/// Serializes the constructor arguments for one replayed node.
#[must_use]
pub fn encode_node_spec(spec: &NodeSpec) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(&spec.node.to_le_bytes());
    out.extend_from_slice(&spec.n.to_le_bytes());
    out.extend_from_slice(&(spec.keys.space().r() as u32).to_le_bytes());
    out.extend_from_slice(&(spec.keys.space().k() as u32).to_le_bytes());
    out.extend_from_slice(&spec.keys.set_id().to_le_bytes());
    // The two `1` bytes are reserved: they once carried `detect_instant`
    // and `dedup`, keep the spec's byte layout, and are ignored on read.
    out.push(1);
    out.push(u8::from(spec.pcb_config.recent_window.is_some()));
    out.extend_from_slice(&spec.pcb_config.recent_window.unwrap_or(0).to_le_bytes());
    out.push(1);
    out.extend_from_slice(&(spec.pcb_config.trace_capacity as u64).to_le_bytes());
    out.push(u8::from(spec.pcb_config.estimators));
    for v in [
        spec.timing.stale_after_us,
        spec.timing.poll_every_us,
        spec.timing.store_window_us,
        spec.timing.snapshot_every_us,
        spec.timing.sync_timeout_us,
    ] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Deserializes a [`NodeSpec`].
///
/// # Errors
///
/// [`ExportError`] on malformed bytes or an invalid key set.
pub fn decode_node_spec(bytes: &[u8]) -> Result<NodeSpec, ExportError> {
    let mut r = Reader(bytes);
    let node = r.u32()?;
    let n = r.u32()?;
    let (kr, kk) = (r.u32()? as usize, r.u32()? as usize);
    let set_id = r.u128()?;
    let space = KeySpace::new(kr, kk).map_err(|e| ExportError::Keys(e.to_string()))?;
    let keys = KeySet::from_set_id(space, set_id).map_err(|e| ExportError::Keys(e.to_string()))?;
    r.u8()?; // reserved
    let has_recent = r.u8()? != 0;
    let recent_window = r.u64()?;
    r.u8()?; // reserved
    let trace_capacity = r.u64()? as usize;
    let estimators = r.u8()? != 0;
    let timing = RecoveryTimingUs {
        stale_after_us: r.u64()?,
        poll_every_us: r.u64()?,
        store_window_us: r.u64()?,
        snapshot_every_us: r.u64()?,
        sync_timeout_us: r.u64()?,
    };
    r.done()?;
    Ok(NodeSpec {
        node,
        n,
        keys,
        pcb_config: PcbConfig {
            recent_window: has_recent.then_some(recent_window),
            trace_capacity,
            estimators,
        },
        timing,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcb_broadcast::Endpoint;

    fn sample_message() -> Message<u32> {
        let space = KeySpace::new(16, 2).unwrap();
        let keys = KeySet::from_entries(space, &[3, 9]).unwrap();
        let mut ep = Endpoint::new(ProcessId::new(2), keys, PcbConfig::default(), None);
        let outs = ep.handle(Input::Broadcast(77), 1_000);
        outs.into_iter()
            .find_map(|o| match o {
                pcb_broadcast::Output::SendFrame(m) => Some(m),
                _ => None,
            })
            .expect("broadcast emits a frame")
    }

    #[test]
    fn step_codec_round_trips_every_kind() {
        let m = sample_message();
        let steps: Vec<(u64, Input<u32>)> = vec![
            (1, Input::FrameReceived(m.clone())),
            (
                2,
                Input::SyncRequest {
                    from: ProcessId::new(4),
                    windows: vec![
                        (ProcessId::new(1), 0, vec![9]),
                        (m.id().sender(), m.id().seq(), vec![]),
                    ],
                },
            ),
            (
                3,
                Input::SyncResponse {
                    messages: vec![m.clone(), m.clone()],
                    config: ClusterConfig::genesis(m.keys().space()),
                },
            ),
            (
                4,
                Input::SyncResponse {
                    messages: Vec::new(),
                    config: ClusterConfig::genesis(m.keys().space()).reconfigured(m.keys().space()),
                },
            ),
            (5, Input::Tick),
            (6, Input::Broadcast(123)),
            (7, Input::Crash),
            (8, Input::Restore),
            (
                9,
                Input::Reconfigure(
                    ClusterConfig::genesis(m.keys().space())
                        .reconfigured(KeySpace::new(32, 2).unwrap()),
                ),
            ),
            (10, Input::Leave),
            (11, {
                let space = KeySpace::new(16, 2).unwrap();
                let keys = KeySet::from_entries(space, &[3, 9]).unwrap();
                let mut sponsor =
                    Endpoint::new(ProcessId::new(2), keys, PcbConfig::default(), None);
                let _ = sponsor.handle(Input::Broadcast(5), 10);
                let grant = sponsor
                    .join_grant(ProcessId::new(11), KeySet::from_entries(space, &[1, 4]).unwrap());
                Input::Join(Box::new(grant))
            }),
            (12, Input::StableFrontier(vec![])),
            (13, Input::StableFrontier(vec![4, 0, u64::MAX])),
        ];
        for (now, input) in steps {
            let bytes = encode_step(now, &input);
            let (now2, input2) = decode_step(&bytes).unwrap();
            assert_eq!(now, now2);
            // Inputs lack PartialEq; compare via a second encode.
            assert_eq!(bytes, encode_step(now2, &input2), "{input:?}");
        }
    }

    /// A full reply from one sender at R = 100 — each message stamped
    /// after a delivery from another node, so the stamps move outside
    /// the sender's own keys too — is one full frame and 1 023 deltas.
    #[test]
    fn a_reply_is_one_chain_per_sender() {
        let space = KeySpace::new(100, 4).unwrap();
        let keys = |entries| KeySet::from_entries(space, entries).unwrap();
        let mut a =
            Endpoint::new(ProcessId::new(0), keys(&[3, 9, 40, 77]), PcbConfig::default(), None);
        let mut b =
            Endpoint::new(ProcessId::new(1), keys(&[1, 4, 52, 98]), PcbConfig::default(), None);
        let sent = |ep: &mut Endpoint<u32>, payload: u32| {
            ep.handle(Input::Broadcast(payload), 1_000)
                .into_iter()
                .find_map(|o| match o {
                    pcb_broadcast::Output::SendFrame(m) => Some(m),
                    _ => None,
                })
                .expect("broadcast emits a frame")
        };
        let messages: Vec<Message<u32>> = (0..SYNC_REPLY_MAX as u32)
            .map(|i| {
                let from_b = sent(&mut b, i);
                let _ = a.handle(Input::FrameReceived(from_b), 1_000);
                sent(&mut a, i)
            })
            .collect();
        let config = ClusterConfig::genesis(space);
        let step = encode_step(0, &Input::SyncResponse { messages: messages.clone(), config });
        // now_us, kind, config (17 bytes), count; then `u32 len | frame`.
        let mut frames = &step[8 + 1 + 17 + 4..];
        let mut kinds = Vec::new();
        while !frames.is_empty() {
            let len = u32::from_le_bytes(frames[..4].try_into().unwrap()) as usize;
            kinds.push(frames[5] & 1);
            frames = &frames[4 + len..];
        }
        assert_eq!(kinds.len(), SYNC_REPLY_MAX);
        assert_eq!(kinds.iter().filter(|&&kind| kind == 0).count(), 1, "one full frame");
        // 31 bytes a message, length prefix included; as standalone full
        // frames it was ≈ 150.
        assert!(step.len() < 32 * SYNC_REPLY_MAX, "{} bytes", step.len());
        let Ok((_, Input::SyncResponse { messages: back, .. })) = decode_step(&step) else {
            panic!("a reply decodes");
        };
        for (got, want) in back.iter().zip(&messages) {
            assert_eq!(
                (got.id(), got.timestamp(), got.payload()),
                (want.id(), want.timestamp(), want.payload())
            );
        }
        // One message more than a store answers with is refused.
        let mut long = step.clone();
        long[26..30].copy_from_slice(&(SYNC_REPLY_MAX as u32 + 1).to_le_bytes());
        assert_eq!(decode_step(&long).err(), Some(ExportError::LongReply(SYNC_REPLY_MAX + 1)));
    }

    #[test]
    fn step_codec_is_total() {
        let bytes = encode_step(9, &Input::FrameReceived(sample_message()));
        for cut in 0..bytes.len() {
            assert!(decode_step(&bytes[..cut]).is_err(), "cut={cut}");
        }
        let mut bad = bytes.clone();
        bad[8] = 99; // unknown kind
        assert!(matches!(decode_step(&bad), Err(ExportError::BadKind(99))));
    }

    #[test]
    fn config_epochs_a_frame_tag_cannot_carry_are_refused() {
        let genesis = ClusterConfig::genesis(KeySpace::new(8, 2).unwrap());
        for (epoch, fits) in [((1 << 63) - 1, true), (1 << 63, false), (u64::MAX, false)] {
            let step = encode_step(1, &Input::Reconfigure(ClusterConfig { epoch, ..genesis }));
            match decode_step(&step) {
                Ok((_, Input::Reconfigure(back))) => assert!(fits && back.epoch == epoch),
                other => assert!(!fits && matches!(other, Err(ExportError::BadKind(_))), "{epoch}"),
            }
        }
    }

    #[test]
    fn sync_request_windows_decode_only_in_exported_form() {
        let from = ProcessId::new(0);
        let step = |windows| encode_step(1, &Input::SyncRequest { from, windows });
        let sorted = vec![(ProcessId::new(1), 4, vec![6, 9]), (ProcessId::new(3), 0, vec![])];
        assert!(decode_step(&step(sorted)).is_ok());
        for bad in [
            // Senders out of order, or repeated: `handle_sync` binary-searches them.
            vec![(ProcessId::new(3), 0, vec![]), (ProcessId::new(1), 4, vec![])],
            vec![(ProcessId::new(1), 0, vec![]), (ProcessId::new(1), 4, vec![])],
            // Exceptions out of order, repeated, or inside the prefix.
            vec![(ProcessId::new(1), 4, vec![9, 6])],
            vec![(ProcessId::new(1), 4, vec![6, 6])],
            vec![(ProcessId::new(1), 4, vec![4])],
        ] {
            assert_eq!(
                decode_step(&step(bad.clone())).err(),
                Some(ExportError::BadWindows),
                "{bad:?}"
            );
        }
    }

    /// A probe names senders and gaps, not history: after 10 in-order
    /// deliveries or 10⁵, the same bytes go out.
    #[test]
    fn probe_size_is_independent_of_how_much_was_ever_delivered() {
        let space = KeySpace::new(16, 2).unwrap();
        let timing = RecoveryTimingUs {
            stale_after_us: 1_000,
            poll_every_us: 250,
            store_window_us: 2_000,
            snapshot_every_us: u64::MAX / 2,
            sync_timeout_us: 4_000,
        };
        let probe_bytes = |deliveries: u64| {
            let keys = |entries| KeySet::from_entries(space, entries).unwrap();
            let config = PcbConfig::default;
            let mut a = Endpoint::new(ProcessId::new(0), keys(&[3, 9]), config(), None);
            let mut b = Endpoint::new(ProcessId::new(1), keys(&[1, 4]), config(), Some(timing));
            let mut now = 0;
            for i in 0..deliveries {
                now += 100;
                let frame = a
                    .handle(Input::Broadcast(i as u32), now)
                    .into_iter()
                    .find_map(|o| match o {
                        pcb_broadcast::Output::SendFrame(m) => Some(m),
                        _ => None,
                    })
                    .expect("broadcast emits a frame");
                let outs = b.handle(Input::FrameReceived(frame), now);
                assert!(outs.iter().any(|o| matches!(o, pcb_broadcast::Output::Deliver(_))));
            }
            assert_eq!(b.stats().delivered, deliveries);
            // Idle past `stale_after_us`: the quiescence probe fires.
            let windows = b
                .handle(Input::Tick, now + timing.stale_after_us)
                .into_iter()
                .find_map(|o| match o {
                    pcb_broadcast::Output::RequestSync { windows } => Some(windows),
                    _ => None,
                })
                .expect("idle probe");
            encode_step(0, &Input::SyncRequest { from: b.id(), windows }).len()
        };
        assert_eq!(probe_bytes(100_000), probe_bytes(10));
    }

    #[test]
    fn join_grant_codec_round_trips_and_rejects_truncation() {
        let space = KeySpace::new(16, 2).unwrap();
        let keys = KeySet::from_entries(space, &[3, 9]).unwrap();
        let mut sponsor = Endpoint::new(ProcessId::new(0), keys, PcbConfig::default(), None);
        let _ = sponsor.handle(Input::Broadcast(0), 10);
        let _ = sponsor.handle(Input::Broadcast(1), 20);
        let grant =
            sponsor.join_grant(ProcessId::new(6), KeySet::from_entries(space, &[1, 4]).unwrap());
        let bytes = encode_join_grant(&grant);
        let back = decode_join_grant(&bytes).unwrap();
        assert_eq!(back.id, grant.id);
        assert_eq!(back.keys, grant.keys);
        assert_eq!(back.config, grant.config);
        assert_eq!(back.snapshot.clock, grant.snapshot.clock);
        assert_eq!(back.snapshot.store.len(), grant.snapshot.store.len());
        assert_eq!(bytes, encode_join_grant(&back), "re-encode is the identity");
        for cut in 0..bytes.len() {
            assert!(decode_join_grant(&bytes[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn node_spec_round_trips() {
        let space = KeySpace::new(10, 3).unwrap();
        let spec = NodeSpec {
            node: 4,
            n: 9,
            keys: KeySet::from_entries(space, &[1, 5, 7]).unwrap(),
            pcb_config: PcbConfig {
                recent_window: Some(12_345),
                trace_capacity: 64,
                estimators: true,
            },
            timing: RecoveryTimingUs::default(),
        };
        let bytes = encode_node_spec(&spec);
        let back = decode_node_spec(&bytes).unwrap();
        assert_eq!(back.node, 4);
        assert_eq!(back.n, 9);
        assert_eq!(back.keys, spec.keys);
        assert_eq!(back.pcb_config, spec.pcb_config);
        assert_eq!(back.timing, spec.timing);
        for cut in 0..bytes.len() {
            assert!(decode_node_spec(&bytes[..cut]).is_err(), "cut={cut}");
        }
    }
}
