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

use std::rc::Rc;

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
    let keys = Rc::new(KeySet::from_entries(space, &[1, 5]).unwrap());
    let message = |seq: u64, stamp: [u64; 8], payload: &'static [u8]| {
        Message::new(
            MessageId::new(ProcessId::new(3), seq),
            Rc::clone(&keys),
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
    "0600030208020a000000000000000000000000000000000200ac0200020000037063625c6241c343e97a05";
/// `DeltaEncoder::default()` over the three messages: full, delta, delta.
/// The first delta's change list reads `81 c0 0a 58 68`, low bit first:
/// parameters `1` (k_gap 0) and `0000001` (k_rise 6); remainders
/// `000000`, `110101` (299 mod 64 = 43) and `000000`; quotients `01 1`,
/// `01 00001` (299 >> 6 = 4) and `01 1`: entries 1, 3 and 5 up by 1, 300
/// and 1. The second's `1b 1b`: parameters `1 1`, quotients `01 1`,
/// `0001 1` and `01 1`: entries 1, 5 and 7 up by 1.
const GOLDEN_CHAIN: [&str; 3] = [
    "0600030108020a000000000000000000000000000000000100000001000001611ab54987a0dcd264",
    "06010302010381c00a58680370636200007a542dd67ddf",
    "0601030301031b1b000391ab166c99d4fc",
];
/// The same chain at config epoch 7: tags 14 (full) and 15 (delta).
const GOLDEN_CHAIN_EPOCH7: [&str; 3] = [
    "060e030108020a00000000000000000000000000000000010000000100000161faf298323959361f",
    "060f0302010381c00a5868037063628ccd2b6e96ab65d5",
    "060f030301031b1b00242861abe3a3be2b",
];
/// A mid-reconfiguration snapshot: epoch 1 in force, the epoch-0 drain
/// state kept, stored messages from both epochs. The store is one list:
/// sender 3's epoch-0 message and its first epoch-1 message are full
/// frames (another epoch starts another chain), the second epoch-1 one
/// is `GOLDEN_CHAIN[2]`'s delta at tag 3 (`1e 11 06 03 03 03 01 03 1b1b
/// 00 …`: stored at 30, 17 bytes).
const GOLDEN_SNAPSHOT: &str = "06030c020a00000000000000000000000000000004fa01030c000300ac0200030001000000000201020204060303000304010002058827030a280600030108020a000000000000000000000000000000000100000001000001611ab54987a0dcd264142b0602030208020a000000000000000000000000000000000200ac020002000003706362e44c37e1b1001b1f1e110603030301031b1b00c9e0469b7c730a440100010008020a00000000000000000000000000000008000300ac020003000126d05d3a9184d980";
/// The two-message snapshot as blob version 5 wrote it, every stored
/// message a full frame: refuses by its version.
const SNAPSHOT_V5: &str = "05030c020a00000000000000000000000000000004fa01030c000300ac0200030001000000000201020204060303000304010002058827020a280600030108020a000000000000000000000000000000000100000001000001611ab54987a0dcd264142b0602030208020a000000000000000000000000000000000200ac020002000003706362e44c37e1b1001b1f0100010008020a00000000000000000000000000000008000300ac02000300011501c9f7504b93fa";

/// The same artefacts as the version-5 codec wrote them (one byte per
/// delta change): every one refuses by its version.
const V5_FULL: &str =
    "0500030208020a000000000000000000000000000000000200ac020002000003706362354d4d7cfb4114f3";
const V5_CHAIN: [&str; 3] = [
    "0500030108020a00000000000000000000000000000000010000000100000161109f4a78cb635d69",
    "05010302010301e1a4020103706362f72ea760302311de",
    "0501030301030103010089b500c9c3ce5d63",
];
const V5_CHAIN_EPOCH7: [&str; 3] = [
    "050e030108020a00000000000000000000000000000000010000000100000161a49ce02e7916738c",
    "050f0302010301e1a4020103706362bc40694f0ba13a29",
    "050f0303010301030100f70169fe5af72b32",
];
const V5_SNAPSHOT: &str = "04030c020a00000000000000000000000000000004fa01030c000300ac0200030001000000000201020204060303000304010002058827020a280500030108020a00000000000000000000000000000000010000000100000161109f4a78cb635d69142b0502030208020a000000000000000000000000000000000200ac0200020000037063625fd2991e5bbf4cdb0100010008020a00000000000000000000000000000008000300ac0200030001fe8c4002bcb2d3c7";

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
        store: vec![(10, epoch0[0].clone()), (20, epoch1[1].clone()), (30, epoch1[2].clone())],
    }
}

fn assert_is(got: &Message<Bytes>, want: &Message<Bytes>) {
    assert_eq!(got.id(), want.id());
    assert_eq!(got.epoch(), want.epoch());
    assert_eq!(got.keys(), want.keys());
    assert_eq!(got.timestamp(), want.timestamp());
    assert_eq!(got.payload(), want.payload());
}

/// A change list written field by field, low bit first: `(value, width)`
/// pairs, each value below `2^width`.
fn bits(fields: &[(u64, u32)]) -> Vec<u8> {
    let (mut out, mut acc, mut len) = (Vec::new(), 0u128, 0);
    for &(value, width) in fields {
        acc |= u128::from(value) << len;
        len += width;
        while len >= 8 {
            out.push(acc as u8);
            acc >>= 8;
            len -= 8;
        }
    }
    if len > 0 {
        out.push(acc as u8);
    }
    out
}

/// `q ≤ 63` in unary: `q` zeros, then a one.
fn unary(q: u32) -> (u64, u32) {
    (1 << q, q + 1)
}

/// Bytes → message. The frame vectors were re-pinned when the delta
/// change list went to Golomb–Rice codes (frames version 6); a full
/// frame's body has not changed a byte since the slice cursor. The
/// snapshot was re-pinned when its store became a chained list
/// (snapshots version 6). The encoders emit exactly these bytes, and the
/// decoders read them — honest or forged — exactly as pinned. The older
/// vectors refuse by their version.
#[test]
fn golden_frames_encode_and_decode_as_pinned() {
    for frame in [V5_FULL].iter().chain(&V5_CHAIN).chain(&V5_CHAIN_EPOCH7) {
        assert_eq!(decode(unhex(frame)).unwrap_err(), WireError::BadVersion(5));
        assert_eq!(DeltaDecoder::new().decode(unhex(frame)).unwrap_err(), WireError::BadVersion(5));
    }
    assert_eq!(decode_snapshot::<Bytes>(unhex(V5_SNAPSHOT)).unwrap_err(), WireError::BadVersion(4));
    assert_eq!(decode_snapshot::<Bytes>(unhex(SNAPSHOT_V5)).unwrap_err(), WireError::BadVersion(5));

    let plain = golden_messages(0);
    assert_eq!(encode_full(&plain[1]), unhex(GOLDEN_FULL));
    assert_is(&decode(unhex(GOLDEN_FULL)).unwrap(), &plain[1]);
    for (epoch, chain) in [(0, GOLDEN_CHAIN), (7, GOLDEN_CHAIN_EPOCH7)] {
        let messages = golden_messages(epoch);
        let (mut encoder, mut decoder) = (DeltaEncoder::default(), DeltaDecoder::new());
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
    // holds frame 1 of the chain, stamp [0, 1, 0, 0, 0, 1, 0, 0]:
    // `(body, what it decoded to)`.
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
    // The body: 06 01 | sender 03 | seq 02 | back 01 | count 03 | changes
    // 81 c0 0a 58 68 | payload 03 "pcb". The `bits` helper writes that
    // change list field by field. A padded varint (seq as 0x82 0x00) is
    // read like the canonical one.
    let list = |gap_quotients: [u32; 3]| {
        let [a, b, c] = gap_quotients;
        let remainders = [(0, 6), (43, 6), (0, 6)];
        let quotients = [unary(a), unary(0), unary(b), unary(4), unary(c), unary(0)];
        bits(&[&[unary(0), unary(6)][..], &remainders, &quotients].concat())
    };
    assert_eq!(list([1, 1, 1]), delta[6..11]);
    let padded = [&delta[..3], &[0x82, 0x00], &delta[4..]].concat();
    assert_eq!(after_first(&padded), Ok((2, vec![0, 2, 0, 300, 0, 2, 0, 0], b"pcb".to_vec())));
    // No changes at all: the base's stamp under a new sequence number,
    // eight behind it.
    assert_eq!(
        after_first(&[6, 1, 3, 9, 8, 0, 1, b'z']),
        Ok((9, vec![0, 1, 0, 0, 0, 1, 0, 0], b"z".to_vec()))
    );
    // A forged gap that stays inside R moves the increases with it …
    let head = [6, 1, 3, 2, 1];
    let forged = |count: u8, list: &[u8], tail: &[u8]| [&head[..], &[count], list, tail].concat();
    assert_eq!(
        after_first(&forged(3, &list([2, 1, 1]), b"\x03pcb")),
        Ok((2, vec![0, 1, 1, 0, 300, 1, 1, 0], b"pcb".to_vec()))
    );
    // … one that leaves R, a count above R, a count above what the bytes
    // left can hold, a base that is not behind the frame and a payload
    // length the frame does not hold are refused.
    let past_r = WireError::BadDelta("entry 9 past R = 8".into());
    assert_eq!(after_first(&forged(3, &list([1, 1, 5]), b"\x03pcb")), Err(past_r));
    assert_eq!(after_first(&with(5, 9)), Err(WireError::BadDelta("9 changes for R = 8".into())));
    assert_eq!(after_first(&forged(8, &[0x03], &[0])), Err(WireError::Truncated));
    assert_eq!(after_first(&with(4, 0)), Err(WireError::BadDelta("back 0 out of 1..=2".into())));
    assert_eq!(after_first(&with(4, 3)), Err(WireError::BadDelta("back 3 out of 1..=2".into())));
    assert_eq!(after_first(&with(delta.len() - 4, 4)), Err(WireError::Truncated));

    // One change, its Rice fields forged. A unary run — a parameter's or
    // a quotient's — that reaches the end of the frame, and a remainder
    // the frame cuts short, are truncated.
    let one_change = |fields: &[(u64, u32)]| after_first(&forged(1, &bits(fields), &[0]));
    assert_eq!(after_first(&forged(1, &[0x00; 12], &[])), Err(WireError::Truncated));
    assert_eq!(after_first(&forged(1, &[0x03, 0x00, 0x00], &[])), Err(WireError::Truncated));
    let cut = after_first(&forged(1, &bits(&[unary(0), unary(40), (0, 20)]), &[]));
    assert_eq!(cut, Err(WireError::Truncated));
    // A parameter past 63, and a gap parameter past ⌊log2 R⌋ (63
    // included), name themselves.
    let parameter = |k: u32| one_change(&[(0, k), (1, 1), unary(0), unary(0), unary(0)]);
    let past_63 = WireError::BadDelta("rice parameter 64 past 63".into());
    assert_eq!(parameter(64), Err(past_63));
    for k in [4, 63] {
        let refused = WireError::BadDelta(format!("gap parameter {k} for R = 8"));
        assert_eq!(parameter(k), Err(refused));
    }
    // Rise parameter 63: a remainder of 63 bits under a quotient of 1 is
    // the largest rise a u64 holds, read in full on entry 0 (holding 0);
    // a quotient of 2 leaves the u64, and so does a rise of u64::MAX
    // once it becomes an increase.
    let rise = |gap: u32, q: u32, low: u64| {
        one_change(&[unary(0), unary(63), (low, 63), unary(gap), unary(q)])
    };
    assert_eq!(rise(0, 1, 5), Ok((2, vec![(1 << 63) + 6, 1, 0, 0, 0, 1, 0, 0], vec![])));
    assert_eq!(rise(0, 1, (1 << 63) - 2), Ok((2, vec![u64::MAX, 1, 0, 0, 0, 1, 0, 0], vec![])));
    let increase_overflow = WireError::BadDelta("entry increase overflow".into());
    assert_eq!(rise(0, 2, 0), Err(increase_overflow.clone()));
    assert_eq!(rise(0, 1, (1 << 63) - 1), Err(increase_overflow));
    // Rise parameter 57, the widest remainder one load reads, behind
    // enough payload that the decoder reads it ahead of the frame's end.
    let low = (1 << 57) - 3;
    let fields = [unary(0), unary(57), (low, 57), unary(0), unary(1)];
    let payload = [&[16][..], &[7; 16]].concat();
    assert_eq!(
        after_first(&forged(1, &bits(&fields), &payload)),
        Ok((2, vec![(1 << 58) - 2, 1, 0, 0, 0, 1, 0, 0], vec![7; 16]))
    );
    // Entry 1 holds 1: the largest increase, u64::MAX, overflows it.
    let counter_overflow = WireError::BadDelta("entry counter overflow".into());
    assert_eq!(rise(1, 1, (1 << 63) - 2), Err(counter_overflow));
    // Bytes behind the payload of a full frame are ignored, as ever.
    let full = unhex(GOLDEN_FULL);
    let trailing = [&full[..full.len() - 8], &[0xde, 0xad]].concat();
    assert_is(&decode(resealed(&trailing)).unwrap(), &plain[1]);

    let snapshot = golden_snapshot();
    assert_eq!(encode_snapshot(&snapshot), unhex(GOLDEN_SNAPSHOT));
    let back = decode_snapshot::<Bytes>(unhex(GOLDEN_SNAPSHOT)).unwrap();
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
    let mut encoder = DeltaEncoder::default();
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
/// continuation bit, all ones) and to a change list's bits (eight zeros
/// that lengthen a unary run or empty a remainder, runs of ones that end
/// quotients early), plus one random `xor` — so every count, parameter,
/// remainder, quotient and payload length in the body gets forged in
/// turn.
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
            if let Ok(snapshot) = decode_snapshot::<Bytes>(resealed(&bad)) {
                prop_assert!(snapshot.store.len() <= 3, "a count the input never paid for");
            }
        }
    }
}
