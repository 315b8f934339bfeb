//! Byte forms for what the recorder replays around one node: a step
//! (`(now_us, Input)`) and a join grant.
//!
//! * [`encode_step`]/[`decode_step`] give each `(now_us, Input)` a
//!   self-contained byte form. A received frame travels as a standalone
//!   full wire frame ([`pcb_broadcast::wire`]); a sync probe and a sync
//!   reply in the byte forms a daemon sends its peers
//!   ([`pcb_broadcast::encode_probe`], [`pcb_broadcast::encode_reply`]),
//!   the reply's messages one wire list: per sender a full frame, then
//!   deltas against that sender's previous message in the reply. Either
//!   way a receiver reconstructs bit-identical stamps, key sets, and
//!   payloads from the step's bytes alone.
//! * [`encode_join_grant`]/[`decode_join_grant`] carry a
//!   snapshot-assisted join inside `Input::Join`.
//!
//! The wire and snapshot codecs take `u32` payloads as they are, so
//! nothing here rewrites one. [`snapshot_to_wire`]/[`snapshot_from_wire`]
//! and the [`NodeSpec`] re-export are kept only for the benchmark
//! (`ledger/`), which links them.
//!
//! Everything decodes totally: corrupt or truncated bytes produce an
//! [`ExportError`], never a panic.

use bytes::Bytes;
use pcb_broadcast::endpoint::Input;
use pcb_broadcast::snapshot::{put_keys, take_keys};
use pcb_broadcast::{
    decode_probe, decode_reply, decode_snapshot, encode_probe, encode_reply, encode_snapshot,
    put_config, take_config, wire, DeltaDecoder, JoinGrant, ProcessSnapshot, WireError,
};
use pcb_clock::ProcessId;

/// The node spec, at the path the benchmark imports it from.
pub use pcb_broadcast::NodeSpec;

/// Errors decoding exported bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExportError {
    /// Bytes ended before the structure was complete.
    Truncated,
    /// Unknown step kind byte.
    BadKind(u8),
    /// An embedded wire frame, probe, reply, key set, configuration or
    /// snapshot failed to decode.
    Wire(WireError),
}

impl std::fmt::Display for ExportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

impl std::error::Error for ExportError {}

impl From<WireError> for ExportError {
    fn from(e: WireError) -> Self {
        ExportError::Wire(e)
    }
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

    /// Everything not read yet: the probe or reply a step ends with.
    fn rest(&mut self) -> &'a [u8] {
        std::mem::take(&mut self.0)
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

// ---- snapshots, for the benchmark ---------------------------------------

/// Rewrites a snapshot to byte payloads, each `u32` as its 4 big-endian
/// bytes. Kept for the benchmark, which encodes what this returns.
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

/// The inverse of [`snapshot_to_wire`], for a snapshot decoded with byte
/// payloads. Kept for the benchmark.
///
/// # Errors
///
/// [`WireError::BadPayload`] if a stored payload is not 4 bytes.
pub fn snapshot_from_wire(s: ProcessSnapshot<Bytes>) -> Result<ProcessSnapshot<u32>, ExportError> {
    let mut store = Vec::with_capacity(s.store.len());
    for (t, m) in s.store {
        let payload = <[u8; 4]>::try_from(m.payload().as_ref())
            .map_err(|_| WireError::BadPayload(m.payload().len()))?;
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

/// Serializes one replay step.
#[must_use]
pub fn encode_step(now_us: u64, input: &Input<u32>) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    out.extend_from_slice(&now_us.to_le_bytes());
    match input {
        Input::FrameReceived(message) => {
            out.push(STEP_FRAME);
            let frame = wire::encode_full(message);
            out.extend_from_slice(&(frame.len() as u32).to_le_bytes());
            out.extend_from_slice(&frame);
        }
        Input::SyncRequest { from, windows } => {
            out.push(STEP_SYNC_REQUEST);
            encode_probe(&mut out, *from, windows);
        }
        Input::SyncResponse { messages, config } => {
            out.push(STEP_SYNC_RESPONSE);
            encode_reply(&mut out, config, messages);
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
        STEP_FRAME => {
            let len = r.u32()? as usize;
            // A fresh decoder holds no base: a full frame or nothing.
            Input::FrameReceived(DeltaDecoder::default().decode(Bytes::from(r.take(len)?))?)
        }
        STEP_SYNC_REQUEST => {
            let (from, windows) = decode_probe(r.rest())?;
            Input::SyncRequest { from, windows }
        }
        STEP_SYNC_RESPONSE => {
            let (config, messages) = decode_reply(&Bytes::from(r.rest()))?;
            Input::SyncResponse { messages, config }
        }
        STEP_TICK => Input::Tick,
        STEP_BROADCAST => Input::Broadcast(r.u32()?),
        STEP_CRASH => Input::Crash,
        STEP_RESTORE => Input::Restore,
        STEP_RECONFIGURE => Input::Reconfigure(take_config(&mut r.0)?),
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
/// it inside `Input::Join`: `uvar id | keys | config | snapshot blob`,
/// the keys as [`put_keys`] and the configuration as [`put_config`]
/// write them.
#[must_use]
pub fn encode_join_grant(grant: &JoinGrant<u32>) -> Vec<u8> {
    let mut out = Vec::with_capacity(128);
    wire::put_uvar(&mut out, grant.id.index() as u64);
    put_keys(&mut out, &grant.keys);
    put_config(&mut out, &grant.config);
    out.extend_from_slice(&encode_snapshot(&grant.snapshot));
    out
}

/// Deserializes a join grant.
///
/// # Errors
///
/// [`ExportError`] on malformed bytes; never panics.
pub fn decode_join_grant(mut bytes: &[u8]) -> Result<JoinGrant<u32>, ExportError> {
    let id = ProcessId::new(wire::take_uvar(&mut bytes)? as usize);
    let keys = take_keys(&mut bytes)?;
    let config = take_config(&mut bytes)?;
    let snapshot = decode_snapshot(Bytes::from(bytes))?;
    Ok(JoinGrant { id, keys, config, snapshot })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcb_broadcast::endpoint::RecoveryTimingUs;
    use pcb_broadcast::{Endpoint, Message, PcbConfig, SYNC_REPLY_MAX};
    use pcb_clock::{ClusterConfig, KeySet, KeySpace};

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
        let mut messages: Vec<Message<u32>> = (0..=SYNC_REPLY_MAX as u32)
            .map(|i| {
                let from_b = sent(&mut b, i);
                let _ = a.handle(Input::FrameReceived(from_b), 1_000);
                sent(&mut a, i)
            })
            .collect();
        let one_more = messages.pop().expect("SYNC_REPLY_MAX + 1 messages");
        let config = ClusterConfig::genesis(space);
        let step = encode_step(0, &Input::SyncResponse { messages: messages.clone(), config });
        // now_us, kind, config (epoch, R, K, policy: 4 bytes), the count
        // (2 bytes); then `uvar len | frame`.
        let mut frames = &step[8 + 1 + 4 + 2..];
        let mut kinds = Vec::new();
        while !frames.is_empty() {
            let len = wire::take_uvar(&mut frames).unwrap() as usize;
            kinds.push(frames[1] & 1);
            frames = &frames[len..];
        }
        assert_eq!(kinds.len(), SYNC_REPLY_MAX);
        assert_eq!(kinds.iter().filter(|&&kind| kind == 0).count(), 1, "one full frame");
        // 28 bytes a message, length prefix included; as standalone full
        // frames it was ≈ 150.
        assert!(step.len() < 29 * SYNC_REPLY_MAX, "{} bytes", step.len());
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
        messages.push(one_more);
        let long = encode_step(0, &Input::SyncResponse { messages, config });
        let refused = ExportError::Wire(WireError::LongReply(SYNC_REPLY_MAX + 1));
        assert_eq!(decode_step(&long).err(), Some(refused));
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
                other => {
                    let refused = matches!(other, Err(ExportError::Wire(WireError::BadKeys(_))));
                    assert!(!fits && refused, "{epoch}");
                }
            }
        }
    }

    /// A probe names senders and gaps, not history: after 10⁵ in-order
    /// deliveries it is the probe after 10, but for the two bytes the
    /// sender's prefix, a varint, grew by.
    #[test]
    fn probe_size_follows_senders_and_gaps_not_history() {
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
        assert_eq!(probe_bytes(100_000), probe_bytes(10) + 2);
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
}
