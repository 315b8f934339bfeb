//! Differential test for the endpoint's ingest paths.
//!
//! One seeded stream of 2 000 wire frames — six causally chained senders,
//! each sender's delta chain in order but the senders reordered against
//! each other so about a third of the arrivals have to park, with
//! duplicate frames, one delta against a missing base and one corrupted
//! frame injected — goes into three twin endpoints:
//!
//! * `handle_wire(frame)`, the wire path;
//! * `handle(Input::FrameReceived(..))` fed by a standalone
//!   `DeltaDecoder`, the path the simulator shell and the daemons take;
//! * the `handle_wire_batch` shim the frozen ledger links, which must be
//!   nothing but `handle_wire` per frame.
//!
//! All three must emit the same outputs and report the same `status()`,
//! store size aside. The wire paths must hold identical stores; the
//! `FrameReceived` twin holds the same messages except those still
//! parked (only the wire path retains a frame while it waits).
//!
//! A second test crashes a receiver in the middle of a delta stream:
//! pre-crash reconstruction stamps must not decode post-restore deltas.

use bytes::Bytes;
use pcb_broadcast::endpoint::{Endpoint, EndpointStatus, Input, Output, RecoveryTimingUs};
use pcb_broadcast::{
    wire, DeltaDecoder, DeltaEncoder, MessageId, PcbConfig, PcbProcess, WireError,
};
use pcb_clock::{AssignmentPolicy, ClusterConfig, KeyAssigner, KeySet, KeySpace, ProcessId};

const SENDERS: usize = 6;
const FRAMES: usize = 2_000;
const STEP_US: u64 = 1_000;
/// Steps each sender's stream lags behind its send time at the receiver:
/// constant per sender (its delta chain stays in order), different across
/// senders (causally later messages overtake earlier ones).
const LAGS: [u64; SENDERS] = [1, 1, 2, 2, 3, 6];

fn space() -> KeySpace {
    KeySpace::new(32, 3).unwrap()
}

fn key_sets() -> Vec<KeySet> {
    KeyAssigner::new(space(), AssignmentPolicy::UniformRandom, 20).assign_n(SENDERS + 1).unwrap()
}

fn receiver(keys: &KeySet) -> Endpoint<Bytes> {
    let timing = RecoveryTimingUs {
        stale_after_us: 20 * STEP_US,
        poll_every_us: 5 * STEP_US,
        // No eviction: the twins stamp a parked message at different
        // times (arrival vs delivery), so their windows would differ.
        store_window_us: u64::MAX / 2,
        snapshot_every_us: 150 * STEP_US,
        sync_timeout_us: 60 * STEP_US,
    };
    Endpoint::new(ProcessId::new(SENDERS), keys.clone(), PcbConfig::default(), Some(timing))
}

/// The arrival stream as `(now_us, frame)`, in arrival order.
fn trace(keys: &[KeySet]) -> Vec<(u64, Bytes)> {
    let mut senders: Vec<PcbProcess<Bytes>> =
        (0..SENDERS).map(|i| PcbProcess::new(ProcessId::new(i), keys[i].clone())).collect();
    let mut encoders: Vec<DeltaEncoder> = (0..SENDERS).map(|_| DeltaEncoder::default()).collect();
    // Each chain restarts with a full frame every eighth message.
    let mut sent = [0u64; SENDERS];
    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    // (arrival step, send order, frame)
    let mut arrivals: Vec<(u64, usize, Bytes)> = Vec::new();
    let mut stale_delta: Option<Bytes> = None;
    let mut corrupted = false;
    let mut order = 0;
    for step in 0u64.. {
        if arrivals.len() >= FRAMES {
            break;
        }
        let s = (next() % SENDERS as u64) as usize;
        let message = senders[s].broadcast(Bytes::from(step.to_le_bytes().to_vec()));
        // The senders hear each other at once, so every message depends
        // on everything sent before it.
        for (o, other) in senders.iter_mut().enumerate() {
            if o != s {
                assert_eq!(other.on_receive(message.clone(), step).len(), 1);
            }
        }
        if sent[s] % 8 == 0 {
            encoders[s].force_full();
        }
        sent[s] += 1;
        let frame = encoders[s].encode(&message);
        let arrival = step + LAGS[s];
        let is_full = frame[1] == 0;
        arrivals.push((arrival, order, frame.clone()));
        order += 1;
        if is_full && next() % 2 == 0 {
            // The transport duplicates a full frame back to back: it
            // decodes again (same base) and the ordering core drops it.
            // One duplicate is damaged in flight instead: the checksum
            // refuses it, state untouched.
            let mut copy = frame.to_vec();
            if step >= 1_000 && !corrupted {
                corrupted = true;
                let middle = copy.len() / 2;
                copy[middle] ^= 0x40;
            }
            arrivals.push((arrival, order, Bytes::from(copy)));
            order += 1;
        }
        if !is_full && step == 300 {
            stale_delta = Some(frame);
        } else if step == 700 {
            // A delta replayed long after its base moved on: the decoder
            // refuses it, state untouched, on every path alike.
            arrivals.push((arrival, order, stale_delta.take().expect("a delta by step 300")));
            order += 1;
        }
    }
    arrivals.sort_by_key(|&(arrival, order, _)| (arrival, order));
    arrivals.into_iter().map(|(arrival, _, frame)| (arrival * STEP_US, frame)).collect()
}

fn digest(outs: &[Output<Bytes>]) -> Vec<String> {
    outs.iter().map(|o| format!("{o:?}")).collect()
}

fn store_of(ep: &Endpoint<Bytes>) -> Vec<(u64, MessageId)> {
    ep.store().entries().map(|(at, m)| (at, m.id())).collect()
}

fn sorted_ids(ep: &Endpoint<Bytes>, keep: impl Fn(MessageId) -> bool) -> Vec<MessageId> {
    let mut ids: Vec<MessageId> =
        ep.store().iter().map(|m| m.id()).filter(|&id| keep(id)).collect();
    ids.sort_unstable();
    ids
}

#[test]
fn every_ingest_path_agrees_on_a_reordered_stream() {
    let keys = key_sets();
    let frames = trace(&keys[..SENDERS]);
    assert_eq!(frames.len(), FRAMES);

    // The sequential wire path and, in lockstep, a standalone decoder
    // feeding `FrameReceived` into a twin.
    let mut wire = receiver(&keys[SENDERS]);
    let mut plain = receiver(&keys[SENDERS]);
    let mut decoder = DeltaDecoder::new();
    let mut wire_out: Vec<String> = Vec::new();
    let mut wire_errors = Vec::new();
    let mut delivered = std::collections::HashSet::new();
    let (mut parked, mut decoded, mut most_waiting) = (0u32, 0u32, 0);
    for (index, (now_us, frame)) in frames.iter().enumerate() {
        let waiting = wire.pending_len();
        let outs = match (wire.handle_wire(frame.clone(), *now_us), decoder.decode(frame.clone())) {
            (Ok(outs), Ok(message)) => {
                decoded += 1;
                if wire.pending_len() > waiting {
                    parked += 1;
                    // Retained as it parks, stamped with its arrival.
                    assert_eq!(store_of(&wire).last(), Some(&(*now_us, message.id())));
                }
                let plain_outs = plain.handle(Input::FrameReceived(message), *now_us);
                assert_eq!(digest(&plain_outs), digest(&outs), "frame {index}");
                outs
            }
            (Err(error), Err(same)) => {
                assert_eq!(error, same, "frame {index}");
                wire_errors.push((index, error));
                Vec::new()
            }
            (wire, plain) => panic!("frame {index}: wire path {wire:?}, decoder {plain:?}"),
        };
        delivered.extend(outs.iter().filter_map(|o| match o {
            Output::Deliver(d) => Some(d.message.id()),
            _ => None,
        }));
        wire_out.extend(digest(&outs));
        assert_eq!(status_but_store(&plain), status_but_store(&wire), "frame {index}");
        // Same messages retained, except those still waiting: only the
        // wire path stores a frame before it delivers.
        assert_eq!(wire.store().len(), plain.store().len() + wire.pending_len(), "frame {index}");
        assert_eq!(wire.status().store_retained, wire.store().len());
        most_waiting = most_waiting.max(wire.pending_len());
        if index % 64 == 0 || index + 1 == FRAMES {
            assert_eq!(
                sorted_ids(&wire, |id| delivered.contains(&id)),
                sorted_ids(&plain, |_| true),
                "frame {index}"
            );
        }
    }
    let share = f64::from(parked) / f64::from(decoded);
    assert!((0.2..0.5).contains(&share), "about a third of arrivals park, got {share:.2}");
    assert!(most_waiting >= 3, "arrivals queue up behind a late sender");
    assert!(wire.stats().duplicates >= 50, "duplicates reached the ordering core");
    assert!(
        matches!(
            wire_errors[..],
            [(_, WireError::MissingDeltaBase { .. }), (_, WireError::ChecksumMismatch)]
        ),
        "exactly the stale delta and the damaged frame are refused: {wire_errors:?}"
    );
    assert_eq!(wire.pending_len(), 0, "the stream is complete, everything delivers");
    assert_eq!(wire.stats().delivered + wire.stats().duplicates, u64::from(decoded));

    // The shim the frozen ledger links: whatever `set_parallel` is
    // told, `handle_wire_batch` is `handle_wire` per frame.
    let mut shim = receiver(&keys[SENDERS]);
    shim.set_parallel(8);
    let mut out = Vec::new();
    let mut errors = Vec::new();
    for (chunk_index, chunk) in frames.chunks(256).enumerate() {
        let (outs, errs) = shim.handle_wire_batch(chunk);
        out.extend(digest(&outs));
        errors.extend(errs.into_iter().map(|(i, e)| (chunk_index * 256 + i, e)));
    }
    assert_eq!(out, wire_out);
    assert_eq!(errors, wire_errors);
    assert_eq!(format!("{:?}", shim.status()), format!("{:?}", wire.status()));
    assert_eq!(store_of(&shim), store_of(&wire));
}

/// Every status field but the store's size, which the ingest paths are
/// allowed to disagree on while frames wait.
fn status_but_store(ep: &Endpoint<Bytes>) -> String {
    format!("{:?}", EndpointStatus { store_retained: 0, ..ep.status() })
}

/// `(id, instant_alert, recent_alert)` of every delivery in `outs`.
fn deliveries(outs: &[Output<Bytes>]) -> Vec<(MessageId, bool, bool)> {
    outs.iter()
        .filter_map(|o| match o {
            Output::Deliver(d) => Some((d.message.id(), d.instant_alert, d.recent_alert)),
            _ => None,
        })
        .collect()
}

#[test]
fn crash_mid_delta_stream_restores_bit_identically() {
    // One sender, eleven messages, delta-encoded with full frames only
    // at the cadence boundary — the stream crossing the crash is deltas.
    let keys = key_sets();
    let mut sender = PcbProcess::<Bytes>::new(ProcessId::new(0), keys[0].clone());
    let mut enc = DeltaEncoder::default(); // frame 0 full, the rest deltas
    let pool: Vec<_> =
        (0..11).map(|i| sender.broadcast(Bytes::from(format!("m{i}").into_bytes()))).collect();
    let frames: Vec<Bytes> = pool.iter().map(|m| enc.encode(m)).collect();

    // Reference receiver: never crashes, decodes the whole chain.
    let mut reference = receiver(&keys[SENDERS]);
    let mut reference_deliveries = Vec::new();
    for (i, frame) in frames.iter().enumerate() {
        let outs = reference.handle_wire(frame.clone(), 10 + i as u64 * 10).unwrap();
        reference_deliveries.extend(deliveries(&outs));
    }
    assert_eq!(reference_deliveries.len(), 11);

    // Crashing receiver: delivers the first six, snapshots, crashes.
    let snapshot_at = 150 * STEP_US;
    let mut rec = receiver(&keys[SENDERS]);
    let mut rec_deliveries = Vec::new();
    for (i, frame) in frames.iter().take(6).enumerate() {
        let outs = rec.handle_wire(frame.clone(), 10 + i as u64 * 10).unwrap();
        rec_deliveries.extend(deliveries(&outs));
    }
    let outs = rec.handle(Input::Tick, snapshot_at);
    assert!(outs.iter().any(|o| matches!(o, Output::SnapshotReady { .. })));
    let _ = rec.handle(Input::Crash, snapshot_at + 1);

    // Frames 6..9 arrive while crashed: dropped before decoding, so the
    // codec is not even consulted.
    let tracked = rec.store().codec().tracked_senders();
    for (i, frame) in frames.iter().enumerate().take(10).skip(6) {
        let outs = rec.handle_wire(frame.clone(), snapshot_at + 2 + i as u64).unwrap();
        assert!(outs.is_empty(), "crashed endpoint is deaf");
    }
    assert_eq!(rec.store().codec().tracked_senders(), tracked, "codec untouched while deaf");

    let _ = rec.handle(Input::Restore, snapshot_at + 100);

    // The pre-crash reconstruction stamp (from frame 5) is gone: the
    // next delta must refuse to decode rather than silently reconstruct
    // against a base this incarnation never saw.
    let err = rec.handle_wire(frames[10].clone(), snapshot_at + 200).unwrap_err();
    assert!(
        matches!(err, WireError::MissingDeltaBase { .. }),
        "stale delta base must be refused after restore, got {err:?}"
    );

    // Anti-entropy: re-fetch the gap (6..=9) as typed messages and the
    // refused frame as a standalone full frame.
    let refetch: Vec<_> = pool[6..10].to_vec();
    let outs = rec.handle(
        Input::SyncResponse { messages: refetch, config: ClusterConfig::genesis(space()) },
        snapshot_at + 300,
    );
    rec_deliveries.extend(deliveries(&outs));
    let outs = rec.handle_wire(wire::encode_full(&pool[10]), snapshot_at + 400).unwrap();
    rec_deliveries.extend(deliveries(&outs));

    // The full frame re-primed the chain: a subsequent delta decodes.
    let m11 = sender.broadcast(Bytes::from_static(b"m11"));
    let outs = rec.handle_wire(enc.encode(&m11), snapshot_at + 500).unwrap();
    assert_eq!(deliveries(&outs).len(), 1, "delta chain re-primed by the full frame");

    assert_eq!(
        rec_deliveries, reference_deliveries,
        "crash + restore + re-fetch converges to the no-crash delivery sequence"
    );
}
