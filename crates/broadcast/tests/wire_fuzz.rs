//! Fuzz-style hardening tests for the wire codec: arbitrary byte
//! mutations of a valid frame either decode to a well-formed message or
//! return a `WireError` — never panic, never alias a different
//! `MessageId`. The checksum every sealed artefact shares is tested on
//! its own below, over inputs that straddle its 8-byte word boundary.

use bytes::Bytes;
use pcb_broadcast::wire::checksum64;
use pcb_broadcast::{decode, encode_full, PcbProcess};
use pcb_clock::{AssignmentPolicy, KeyAssigner, KeySpace, ProcessId};
use proptest::prelude::*;

fn frame(sender: usize, warmup: usize, payload: Vec<u8>) -> (Bytes, pcb_broadcast::MessageId) {
    let space = KeySpace::new(32, 3).unwrap();
    let mut assigner = KeyAssigner::new(space, AssignmentPolicy::UniformRandom, sender as u64 + 1);
    let mut process = PcbProcess::new(ProcessId::new(sender), assigner.next_set().unwrap());
    for _ in 0..warmup {
        let _ = process.broadcast(Bytes::new());
    }
    let m = process.broadcast(Bytes::from(payload));
    (encode_full(&m), m.id())
}

/// `body` followed by its little-endian digest, as frames, fragments,
/// snapshots, datagrams and the WAL all seal themselves.
fn sealed(body: &[u8]) -> Vec<u8> {
    let mut out = body.to_vec();
    out.extend_from_slice(&checksum64(body).to_le_bytes());
    out
}

fn verifies(sealed: &[u8]) -> bool {
    sealed.len() >= 8 && {
        let (body, trailer) = sealed.split_at(sealed.len() - 8);
        checksum64(body).to_le_bytes() == trailer
    }
}

/// Every single-byte substitution (by `xor`), every truncation, every
/// one-byte extension and every swap of two differing neighbours of the
/// sealed `body` must stop it verifying.
fn every_small_edit_is_rejected(body: &[u8], xor: u8) -> Result<(), String> {
    let good = sealed(body);
    prop_assert!(verifies(&good));
    for i in 0..good.len() {
        let mut bad = good.clone();
        bad[i] ^= xor;
        prop_assert!(!verifies(&bad), "substitution at {i} of {}", good.len());
        prop_assert!(!verifies(&good[..i]), "truncation to {i} of {}", good.len());
        if i + 1 < good.len() && good[i] != good[i + 1] {
            bad[i] ^= xor;
            bad.swap(i, i + 1);
            prop_assert!(!verifies(&bad), "swap at {i} of {}", good.len());
        }
    }
    let mut longer = good;
    longer.push(0);
    for byte in 0..=255 {
        *longer.last_mut().expect("just pushed") = byte;
        prop_assert!(!verifies(&longer), "extension by {byte:#04x}");
    }
    Ok(())
}

/// Pinned digests: a change to the function fails here first, before it
/// silently orphans every snapshot and WAL on disk.
#[test]
fn checksum_known_answers() {
    assert_eq!(checksum64(b""), 0x1568_85d0_0281_8198, "empty");
    assert_eq!(checksum64(b"pcb-wal"), 0xdfdf_3a36_949e_9d41, "7 bytes: tail only");
    let ramp: Vec<u8> = (0u8..64).collect();
    assert_eq!(checksum64(&ramp), 0x1e15_5b9c_9cc3_17e3, "64 bytes: whole words only");
}

proptest! {
    /// Random bodies of 0..=300 bytes, and of each their first 0..=17
    /// bytes too, so every case crosses the 8-byte word boundary with and
    /// without a tail.
    #[test]
    fn checksum_rejects_every_small_edit(
        body in proptest::collection::vec(any::<u8>(), 0..301),
        xor in 1u8..=255,
    ) {
        for len in (0..=body.len().min(17)).chain([body.len()]) {
            every_small_edit_is_rejected(&body[..len], xor)?;
        }
    }

    /// Any single-byte substitution is caught: the checksum step is a
    /// bijection per word, so a one-byte change cannot collide.
    #[test]
    fn single_byte_substitution_always_errors(
        sender in 0usize..32,
        warmup in 0usize..20,
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        pos_seed in any::<usize>(),
        xor in 1u8..=255,
    ) {
        let (bytes, _) = frame(sender, warmup, payload);
        let mut mutated = bytes.to_vec();
        let pos = pos_seed % mutated.len();
        mutated[pos] ^= xor;
        prop_assert!(decode(Bytes::from(mutated)).is_err());
    }

    /// Arbitrary multi-byte mutations (substitutions, truncation, and
    /// appended garbage) never panic; on the off chance one decodes, it
    /// must reproduce the original identity, not alias another stream.
    #[test]
    fn random_mutations_never_panic_or_alias(
        sender in 0usize..32,
        warmup in 0usize..20,
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        mutations in proptest::collection::vec((any::<usize>(), any::<u8>()), 0..12),
        cut in any::<usize>(),
        tail in proptest::collection::vec(any::<u8>(), 0..16),
    ) {
        let (bytes, id) = frame(sender, warmup, payload);
        let mut mutated = bytes.to_vec();
        for (pos, byte) in mutations {
            let pos = pos % mutated.len();
            mutated[pos] = byte;
        }
        mutated.truncate(1 + cut % mutated.len());
        mutated.extend_from_slice(&tail);
        if let Ok(message) = decode(Bytes::from(mutated.clone())) {
            prop_assert_eq!(
                message.id(), id,
                "mutated frame decoded to a different message id"
            );
            prop_assert_eq!(mutated, bytes.to_vec(), "only the identical frame may decode");
        }
    }

    /// Pure garbage never panics.
    #[test]
    fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode(Bytes::from(bytes));
    }
}

// ---- behind the checksum ------------------------------------------------
//
// Everything above damages a sealed frame, so the checksum answers first.
// Below, the damaged body is re-sealed with a valid digest: what refuses
// (or accepts) it is the decoders' own bounds logic on the slice cursor.

use std::sync::Arc;

use pcb_broadcast::{
    decode_snapshot, encode_snapshot, DeltaDecoder, DeltaEncoder, Message, MessageId, PcbConfig,
    PrevEpochSnapshot, ProcessSnapshot, ProcessStats, WireError,
};
use pcb_clock::{ClusterConfig, KeySet, StampPool, Timestamp};

fn resealed(body: &[u8]) -> Bytes {
    Bytes::from(sealed(body))
}

fn unhex(hex: &str) -> Bytes {
    let digit = |c: u8| (c as char).to_digit(16).expect("hex digit") as u8;
    Bytes::from(
        hex.as_bytes().chunks(2).map(|p| digit(p[0]) << 4 | digit(p[1])).collect::<Vec<_>>(),
    )
}

/// Three messages of sender 3 in an (8, 2) space, written out in full so
/// the frames below can be checked against the bytes by eye.
fn golden_messages(epoch: u64) -> Vec<Message<Bytes>> {
    let space = KeySpace::new(8, 2).unwrap();
    let keys = Arc::new(KeySet::from_entries(space, &[1, 5]).unwrap());
    let message = |seq: u64, stamp: [u64; 8], payload: &'static [u8]| {
        Message::new(
            MessageId::new(ProcessId::new(3), seq),
            Arc::clone(&keys),
            Timestamp::from_entries(stamp.to_vec()),
            Bytes::from_static(payload),
        )
        .with_epoch(epoch)
    };
    vec![
        message(1, [0, 1, 0, 0, 0, 1, 0, 0], b"a"),
        message(2, [0, 2, 0, 300, 0, 2, 0, 0], b"pcb"),
        message(3, [0, 3, 0, 300, 0, 3, 0, 1], b""),
    ]
}

const GOLDEN_FULL: &str =
    "0500030208020a000000000000000000000000000000000200ac020002000003706362354d4d7cfb4114f3";
/// `DeltaEncoder::new(32)` over the three messages: full, delta, delta.
/// The first delta's changes read `01 e1 a4 02 01`: entry 1 up by 1, then
/// entry 3 up by 300 (gap 1, increase field all ones, varint 292), then
/// entry 5 up by 1; the second's `01 03 01`: entries 1, 5 and 7 up by 1.
const GOLDEN_CHAIN: [&str; 3] = [
    "0500030108020a00000000000000000000000000000000010000000100000161109f4a78cb635d69",
    "05010302010301e1a4020103706362f72ea760302311de",
    "0501030301030103010089b500c9c3ce5d63",
];
/// The same chain at config epoch 7: tags 14 (full) and 15 (delta), each
/// frame one byte shorter than the retired `04 kind 07` header made it.
const GOLDEN_CHAIN_EPOCH7: [&str; 3] = [
    "050e030108020a00000000000000000000000000000000010000000100000161a49ce02e7916738c",
    "050f0302010301e1a4020103706362bc40694f0ba13a29",
    "050f0303010301030100f70169fe5af72b32",
];
/// A mid-reconfiguration snapshot: epoch 1 in force, the epoch-0 drain
/// state kept, one stored message from each epoch.
const GOLDEN_SNAPSHOT: &str = "04030c020a00000000000000000000000000000004fa01030c000300ac0200030001000000000201020204060303000304010002058827020a280500030108020a00000000000000000000000000000000010000000100000161109f4a78cb635d69142b0502030208020a000000000000000000000000000000000200ac0200020000037063625fd2991e5bbf4cdb0100010008020a00000000000000000000000000000008000300ac0200030001fe8c4002bcb2d3c7";

/// The same artefacts as the version-3 codec wrote them (two varints per
/// delta change, `base_seq` itself): every one refuses by its version.
const V3_FULL: &str =
    "0300030208020a000000000000000000000000000000000200ac02000200000370636234dfa12c095823f9";
const V3_CHAIN: [&str; 3] = [
    "0300030108020a00000000000000000000000000000000010000000100000161c40f3b1f4c47ad03",
    "030103020103010101ac02010103706362774b23b71cc02315",
    "03010303020301010301010100aa1408e2b830bb53",
];
const V3_CHAIN_EPOCH7: [&str; 3] = [
    "030e030108020a000000000000000000000000000000000100000001000001614a9a9d38baf174a5",
    "030f03020103010101ac020101037063623a514b8a25a35a78",
    "030f0303020301010301010100128209c79058d3a6",
];
const V3_SNAPSHOT: &str = "03030c020a00000000000000000000000000000004fa01030c000300ac0200030001000000000201020204060303000304010002058827020a280300030108020a00000000000000000000000000000000010000000100000161c40f3b1f4c47ad03142b0302030208020a000000000000000000000000000000000200ac0200020000037063628085e2f16e4a56a40100010008020a00000000000000000000000000000008000300ac0200030001b3c8059049f1d8f7";

fn golden_snapshot() -> ProcessSnapshot<Bytes> {
    let space = KeySpace::new(8, 2).unwrap();
    let keys = KeySet::from_entries(space, &[1, 5]).unwrap();
    let (epoch0, epoch1) = (golden_messages(0), golden_messages(1));
    let cluster = ClusterConfig::genesis(space).reconfigured(KeySpace::new(12, 2).unwrap());
    let old_clock = Timestamp::from_entries(vec![0, 3, 0, 300, 0, 3, 0, 1]);
    ProcessSnapshot {
        id: ProcessId::new(3),
        keys: cluster.migrate_keys(&keys).unwrap(),
        config: PcbConfig { recent_window: Some(250), trace_capacity: 0, estimators: false },
        cluster,
        prev: Some(PrevEpochSnapshot { epoch: 0, keys, clock: old_clock }),
        clock: Timestamp::from_entries(vec![0, 3, 0, 300, 0, 3, 0, 1, 0, 0, 0, 0]),
        seq: 3,
        seen: vec![(ProcessId::new(1), 2, vec![4, 6]), (ProcessId::new(3), 3, vec![])],
        stats: ProcessStats {
            sent: 3,
            delivered: 4,
            duplicates: 1,
            instant_alerts: 0,
            recent_alerts: 2,
            max_pending: 5,
        },
        store_window: 5000,
        store: vec![(10, epoch0[0].clone()), (20, epoch1[1].clone())],
    }
}

fn assert_is(got: &Message<Bytes>, want: &Message<Bytes>) {
    assert_eq!(got.id(), want.id());
    assert_eq!(got.epoch(), want.epoch());
    assert_eq!(got.keys(), want.keys());
    assert_eq!(got.timestamp(), want.timestamp());
    assert_eq!(got.payload(), want.payload());
}

/// Bytes → message. The vectors were re-pinned when the delta change list
/// went to one byte per change (frames version 5, snapshots version 4);
/// a full frame's body has not changed a byte since the slice cursor. The
/// encoders emit exactly these bytes, and the decoders read them — honest
/// or forged — exactly as pinned. The version-3 vectors refuse.
#[test]
fn golden_frames_encode_and_decode_as_pinned() {
    for frame in [V3_FULL].iter().chain(&V3_CHAIN).chain(&V3_CHAIN_EPOCH7) {
        assert_eq!(decode(unhex(frame)).unwrap_err(), WireError::BadVersion(3));
        assert_eq!(DeltaDecoder::new().decode(unhex(frame)).unwrap_err(), WireError::BadVersion(3));
    }
    assert_eq!(decode_snapshot(unhex(V3_SNAPSHOT)).unwrap_err(), WireError::BadVersion(3));

    let plain = golden_messages(0);
    assert_eq!(encode_full(&plain[1]), unhex(GOLDEN_FULL));
    assert_is(&decode(unhex(GOLDEN_FULL)).unwrap(), &plain[1]);
    for (epoch, chain) in [(0, GOLDEN_CHAIN), (7, GOLDEN_CHAIN_EPOCH7)] {
        let messages = golden_messages(epoch);
        let (mut encoder, mut decoder) = (DeltaEncoder::new(32), DeltaDecoder::new());
        for (message, frame) in messages.iter().zip(chain) {
            assert_eq!(encoder.encode(message), unhex(frame));
            assert_is(&decoder.decode(unhex(frame)).unwrap(), message);
        }
        // A delta is not standalone.
        assert_eq!(
            decode(unhex(chain[1])).unwrap_err(),
            WireError::MissingDeltaBase { sender: 3, base_seq: 1 }
        );
    }

    // Forged bodies under a valid checksum, each against a decoder that
    // holds frame 1 of the chain: `(body, what it decoded to)`.
    let after_first = |body: &[u8]| {
        let mut decoder = DeltaDecoder::new();
        decoder.decode(unhex(GOLDEN_CHAIN[0])).unwrap();
        decoder
            .decode(resealed(body))
            .map(|m| (m.id().seq(), m.timestamp().entries().to_vec(), m.payload().to_vec()))
    };
    let delta = unhex(GOLDEN_CHAIN[1]);
    let delta = &delta[..delta.len() - 8];
    let with = |at: usize, byte: u8| {
        let mut body = delta.to_vec();
        body[at] = byte;
        body
    };
    // The body: 05 01 | sender 03 | seq 02 | back 01 | count 03 | changes
    // 01 e1 a4 02 01 | payload 03 "pcb". A padded varint (seq as 0x82
    // 0x00) is read like the canonical one.
    let padded = [&delta[..3], &[0x82, 0x00], &delta[4..]].concat();
    assert_eq!(after_first(&padded), Ok((2, vec![0, 2, 0, 300, 0, 2, 0, 0], b"pcb".to_vec())));
    // No changes at all: the base's stamp under a new sequence number,
    // eight behind it.
    assert_eq!(
        after_first(&[5, 1, 3, 9, 8, 0, 1, b'z']),
        Ok((9, vec![0, 1, 0, 0, 0, 1, 0, 0], b"z".to_vec()))
    );
    // A forged gap that stays inside R moves the increases with it …
    assert_eq!(
        after_first(&with(7, 0xe0)),
        Ok((2, vec![0, 2, 300, 0, 1, 1, 0, 0], b"pcb".to_vec()))
    );
    // … one that leaves R, a count above R, a count above the bytes left,
    // a base that is not behind the frame and a payload length the frame
    // does not hold are refused.
    assert_eq!(after_first(&with(7, 0xe7)), Err(WireError::BadDelta("entry 9 past R = 8".into())));
    let escaped_gap = [&delta[..7], &[0xff, 0x00], &delta[9..]].concat();
    assert_eq!(after_first(&escaped_gap), Err(WireError::BadDelta("entry 33 past R = 8".into())));
    assert_eq!(after_first(&with(5, 9)), Err(WireError::BadDelta("9 changes for R = 8".into())));
    assert_eq!(after_first(&[5, 1, 3, 2, 1, 5, 1, 1, 0]), Err(WireError::Truncated));
    assert_eq!(after_first(&with(4, 0)), Err(WireError::BadDelta("back 0 out of 1..=2".into())));
    assert_eq!(after_first(&with(4, 3)), Err(WireError::BadDelta("back 3 out of 1..=2".into())));
    assert_eq!(after_first(&with(delta.len() - 4, 4)), Err(WireError::Truncated));
    // One change, its escape varints forged: cut short, past 64 bits, and
    // an index, increase or counter that a u64 cannot hold.
    let head = [5, 1, 3, 2, 1, 1];
    assert_eq!(after_first(&[&head[..], &[0xe1, 0x80]].concat()), Err(WireError::Truncated));
    assert_eq!(after_first(&[&head[..], &[0x1f, 0x80]].concat()), Err(WireError::Truncated));
    let one_change = |change: &[u8]| after_first(&[&head[..], change, &[0]].concat());
    let u64_max = [&[0xff; 9][..], &[0x01]].concat();
    assert_eq!(one_change(&[&[0x1f][..], &[0xff; 10]].concat()), Err(WireError::VarintOverflow));
    let index_overflow = WireError::BadDelta("entry index overflow".into());
    assert_eq!(one_change(&[&[0x1f][..], &u64_max].concat()), Err(index_overflow));
    let increase_overflow = WireError::BadDelta("entry increase overflow".into());
    assert_eq!(one_change(&[&[0xe1][..], &u64_max].concat()), Err(increase_overflow));
    // Entry 1 holds 1: the largest increase, u64::MAX − 8 + 8, overflows it.
    let rise = [&[0xe1][..], &[0xf7], &[0xff; 8], &[0x01]].concat();
    assert_eq!(one_change(&rise), Err(WireError::BadDelta("entry counter overflow".into())));
    // … and the same escape on entry 0, which holds 0, is read in full.
    let rise = [&[0xe0][..], &rise[1..]].concat();
    assert_eq!(one_change(&rise), Ok((2, vec![u64::MAX, 1, 0, 0, 0, 1, 0, 0], vec![])));
    // Bytes behind the payload of a full frame are ignored, as ever.
    let full = unhex(GOLDEN_FULL);
    let trailing = [&full[..full.len() - 8], &[0xde, 0xad]].concat();
    assert_is(&decode(resealed(&trailing)).unwrap(), &plain[1]);

    let snapshot = golden_snapshot();
    assert_eq!(encode_snapshot(&snapshot), unhex(GOLDEN_SNAPSHOT));
    let back = decode_snapshot(unhex(GOLDEN_SNAPSHOT)).unwrap();
    assert_eq!(
        (back.id, &back.keys, &back.config, back.cluster, &back.prev, &back.clock, back.seq),
        (
            snapshot.id,
            &snapshot.keys,
            &snapshot.config,
            snapshot.cluster,
            &snapshot.prev,
            &snapshot.clock,
            snapshot.seq
        )
    );
    assert_eq!((&back.seen, back.stats, back.store_window), (&snapshot.seen, snapshot.stats, 5000));
    assert_eq!(back.store.len(), snapshot.store.len());
    for ((at, got), (want_at, want)) in back.store.iter().zip(&snapshot.store) {
        assert_eq!(at, want_at);
        assert_is(got, want);
    }
}

/// A chain of `count` frames from one sender at `epoch`, the first full
/// and the rest deltas, with its messages.
fn chain(sender: usize, count: usize, epoch: u64, payload: &[u8]) -> Vec<(Message<Bytes>, Bytes)> {
    let space = KeySpace::new(32, 3).unwrap();
    let mut assigner = KeyAssigner::new(space, AssignmentPolicy::UniformRandom, sender as u64 + 1);
    let mut process = PcbProcess::new(ProcessId::new(sender), assigner.next_set().unwrap());
    let mut encoder = DeltaEncoder::new(64);
    (0..count)
        .map(|_| {
            let message = process.broadcast(Bytes::from(payload.to_vec())).with_epoch(epoch);
            let frame = encoder.encode(&message);
            (message, frame)
        })
        .collect()
}

/// Every truncation of `body` and, at every position, the substitutions
/// that matter to a varint reader (zero, the largest single byte, a bare
/// continuation bit, all ones) and to a change byte (the gap field all
/// ones, the increase field all ones, both), plus one random `xor` — so
/// every count, gap, increase, escape and payload length in the body
/// gets forged in turn.
fn damaged(body: &[u8], xor: u8) -> Vec<Vec<u8>> {
    let mut out: Vec<Vec<u8>> = (0..body.len()).map(|len| body[..len].to_vec()).collect();
    for at in 0..body.len() {
        for byte in [0x00, 0x7f, 0x80, 0xff, 0x1f, 0xe0, body[at] ^ xor] {
            if byte != body[at] {
                let mut bad = body.to_vec();
                bad[at] = byte;
                out.push(bad);
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Full and delta frames at epoch 0 and above, damaged behind a valid checksum:
    /// decoding is total; a refusal leaves the decoder's reconstruction
    /// state as it was and hands the stamp it drew back to the pool; an
    /// acceptance has the stamp length of the space and a payload that
    /// lies inside the frame.
    #[test]
    fn resealed_damage_meets_the_cursors_own_bounds(
        sender in 0usize..40,
        length in 2usize..6,
        // Half the cases at epoch 0 (one-byte tags), half above.
        epoch in (0u64..600).prop_map(|pick| pick.saturating_sub(300)),
        payload in proptest::collection::vec(any::<u8>(), 0..24),
        xor in 1u8..=255,
    ) {
        let frames = chain(sender, length, epoch, &payload);
        let mut primed = DeltaDecoder::new();
        for (_, frame) in &frames[..length - 1] {
            primed.decode(frame.clone()).unwrap();
        }
        let state = format!("{primed:?}");
        // The last frame is a delta on the primed base; the first is full.
        for (message, frame) in [&frames[length - 1], &frames[0]] {
            let body = &frame[..frame.len() - 8];
            let mut pool = StampPool::new();
            pool.recycle(Timestamp::zero(32));
            for bad in damaged(body, xor) {
                let mut decoder = primed.clone();
                match decoder.decode_pooled(resealed(&bad), &mut pool) {
                    Err(_) => {
                        prop_assert_eq!(&format!("{decoder:?}"), &state, "refusal of {:?} moved state", bad);
                        prop_assert_eq!(pool.len(), 1, "refusal of {:?} kept the pooled stamp", bad);
                    }
                    Ok(decoded) => {
                        // A forged `R` (0x20 → 0x1f) can name another
                        // valid space; the stamp always fits the keys'.
                        prop_assert_eq!(decoded.timestamp().len(), decoded.keys().space().r());
                        let payload = decoded.payload();
                        prop_assert!(
                            payload.is_empty() || bad.windows(payload.len()).any(|w| w == &payload[..])
                        );
                        pool.recycle(decoded.into_parts().2);
                        // The base may share the stamp; top the pool up.
                        if pool.is_empty() {
                            pool.recycle(Timestamp::zero(32));
                        }
                    }
                }
                // One-shot decode of the same bytes is total too.
                let _ = decode(resealed(&bad));
            }
            // Undamaged, it still decodes to what was sent.
            let mut decoder = primed.clone();
            let decoded = decoder.decode(frame.clone()).unwrap();
            prop_assert_eq!(decoded.id(), message.id());
            prop_assert_eq!(decoded.timestamp(), message.timestamp());
            prop_assert_eq!(decoded.payload(), message.payload());
            prop_assert_eq!(decoded.epoch(), epoch);
        }
    }

    /// The snapshot, damaged behind a valid checksum: total.
    #[test]
    fn resealed_snapshot_damage_is_refused_or_read_never_a_panic(xor in 1u8..=255) {
        let blob = unhex(GOLDEN_SNAPSHOT);
        for bad in damaged(&blob[..blob.len() - 8], xor) {
            if let Ok(snapshot) = decode_snapshot(resealed(&bad)) {
                prop_assert!(snapshot.store.len() <= 2, "a count the input never paid for");
            }
        }
    }
}
