//! Differential tests for the delta wire codec: delivery under
//! delta-compressed frames must be **bit-identical** to delivery under
//! full frames, on every trace.
//!
//! Two replay paths share one arrival permutation:
//!
//! 1. *full* — every message ships as a standalone full frame;
//! 2. *delta* — every sender runs a [`DeltaEncoder`] (a full stamp at
//!    every forced restart, deltas in between); the receiver's [`DeltaDecoder`]
//!    reconstructs, falling back to an on-demand full frame whenever a
//!    permuted arrival references a base it has not decoded yet —
//!    exactly the refetch/late-joiner path.
//!
//! Both paths feed the same [`PcbProcess`] logic, and the orders (and
//! re-encoded wire bytes) of everything delivered must match. A proptest
//! property then round-trips arbitrary stamp sequences — including gaps
//! and regressions that force the full-frame fallback — through the
//! codec pair.

use std::rc::Rc;

use bytes::Bytes;
use pcb_broadcast::wire::{DeltaDecoder, DeltaEncoder, ListReader, ListWriter};
use pcb_broadcast::{wire, Message, MessageId, PcbProcess, WireError};
use pcb_clock::{KeySet, KeySpace, ProcessId, Timestamp};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Picks `k` distinct entries of `0..r` uniformly (partial Fisher-Yates).
fn random_keys(rng: &mut StdRng, r: usize, k: usize) -> KeySet {
    let mut entries: Vec<usize> = (0..r).collect();
    for i in 0..k {
        let j = rng.random_range(i..r);
        entries.swap(i, j);
    }
    entries.truncate(k);
    entries.sort_unstable();
    let space = KeySpace::new(r, k).expect("valid space");
    KeySet::from_entries(space, &entries).expect("entries in range")
}

fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = rng.random_range(0..=i);
        items.swap(i, j);
    }
}

/// Generates a causally rich pool: before each send the sender catches
/// up on a random prefix of everything broadcast so far, so stamps carry
/// cross-sender dependencies. Returns the messages **in send order**
/// (the order each sender's `DeltaEncoder` sees them) plus a random
/// arrival permutation of pool indices.
fn generate_pool(
    seed: u64,
    senders: usize,
    per_sender: usize,
    space: KeySpace,
) -> (Vec<Message<Bytes>>, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut procs: Vec<PcbProcess<Bytes>> = (0..senders)
        .map(|i| PcbProcess::new(ProcessId::new(i), random_keys(&mut rng, space.r(), space.k())))
        .collect();
    let mut pool: Vec<Message<Bytes>> = Vec::new();
    let mut caught_up = vec![0usize; senders];
    let mut quota = vec![per_sender; senders];
    for step in 0..senders * per_sender {
        let mut s = rng.random_range(0..senders);
        while quota[s] == 0 {
            s = (s + 1) % senders;
        }
        quota[s] -= 1;
        while caught_up[s] < pool.len() && rng.random_bool(0.7) {
            let m = pool[caught_up[s]].clone();
            caught_up[s] += 1;
            let _ = procs[s].on_receive(m, step as u64);
        }
        let payload = Bytes::from((step as u64).to_be_bytes().to_vec());
        pool.push(procs[s].broadcast(payload));
    }
    let mut arrival: Vec<usize> = (0..pool.len()).collect();
    shuffle(&mut rng, &mut arrival);
    (pool, arrival)
}

/// Replays `arrival` through a fresh receiver, decoding each message
/// from the frame produced by `frame_for`. On [`WireError::MissingDeltaBase`]
/// the receiver refetches the standalone full frame — the anti-entropy
/// path — and retries nothing: the full frame *is* the message.
fn replay(
    space: KeySpace,
    pool: &[Message<Bytes>],
    arrival: &[usize],
    mut frame_for: impl FnMut(usize) -> Bytes,
) -> Vec<MessageId> {
    let keys = KeySet::from_entries(space, &(0..space.k()).collect::<Vec<_>>()).unwrap();
    // The highest id that still fits the u32 wire/trace encoding — the
    // checked conversion refuses anything wider (no silent truncation).
    let mut process: PcbProcess<Bytes> = PcbProcess::new(ProcessId::new(u32::MAX as usize), keys);
    let mut decoder = DeltaDecoder::new();
    let mut order = Vec::new();
    for (t, &i) in arrival.iter().enumerate() {
        let decoded = match decoder.decode(frame_for(i)) {
            Ok(m) => m,
            Err(WireError::MissingDeltaBase { .. }) => {
                decoder.decode(wire::encode_full(&pool[i])).expect("full frame is standalone")
            }
            Err(e) => panic!("decode failed: {e}"),
        };
        // Reconstruction is exact: the decoded message re-encodes to the
        // same full frame as the original.
        assert_eq!(
            wire::encode_full(&decoded),
            wire::encode_full(&pool[i]),
            "lossy reconstruction"
        );
        for d in process.on_receive(decoded, t as u64) {
            order.push(d.message.id());
        }
    }
    order
}

#[test]
fn delta_and_full_frames_deliver_bit_identically() {
    // ≥ 20 seeded traces over a colliding and a roomy key space.
    for (r, k) in [(8, 2), (100, 4)] {
        let space = KeySpace::new(r, k).unwrap();
        for seed in 0..12u64 {
            let senders = 2 + (seed as usize % 4);
            let (pool, arrival) = generate_pool(seed, senders, 8, space);

            // Path 1: every arrival is a standalone full frame.
            let full_order = replay(space, &pool, &arrival, |i| wire::encode_full(&pool[i]));

            // Path 2: per-sender delta chains encoded in send order
            // (frames fixed before the permutation is applied).
            // Each chain restarts with a full frame every fourth message.
            let mut encoders: std::collections::HashMap<usize, (DeltaEncoder, u64)> =
                std::collections::HashMap::new();
            let frames: Vec<Bytes> = pool
                .iter()
                .map(|m| {
                    let (encoder, sent) = encoders.entry(m.sender().index()).or_default();
                    if *sent % 4 == 0 {
                        encoder.force_full();
                    }
                    *sent += 1;
                    encoder.encode(m)
                })
                .collect();
            let deltas: u64 = encoders.values().map(|(encoder, _)| encoder.deltas_emitted()).sum();
            assert!(deltas > 0, "seed {seed}: the chain must actually emit deltas");
            let delta_order = replay(space, &pool, &arrival, |i| frames[i].clone());

            assert_eq!(
                full_order, delta_order,
                "seed {seed} ({r},{k}): delivery order diverged under delta frames"
            );
            assert_eq!(full_order.len(), pool.len(), "seed {seed}: everything delivers");
        }
    }
}

/// Builds a raw message with an arbitrary stamp — no protocol involved,
/// so sequences can jump, stall, or regress at will.
fn raw_message(sender: usize, seq: u64, entries: Vec<u64>, keys: &Rc<KeySet>) -> Message<Bytes> {
    Message::new(
        MessageId::new(ProcessId::new(sender), seq),
        Rc::clone(keys),
        Timestamp::from_entries(entries),
        Bytes::from(seq.to_be_bytes().to_vec()),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Round-trips an arbitrary stamp sequence — including gaps (big
    /// jumps), stalls, and outright regressions that force the encoder's
    /// full-frame fallback — through `DeltaEncoder`/`DeltaDecoder`.
    #[test]
    fn arbitrary_stamp_sequences_roundtrip(
        r in 2usize..24,
        full_every in 1u64..9,
        steps in proptest::collection::vec(
            (proptest::collection::vec(0u64..1 << 40, 0..24), any::<bool>()),
            1..32,
        ),
    ) {
        let space = KeySpace::new(r, 1).unwrap();
        let keys = Rc::new(KeySet::from_entries(space, &[0]).unwrap());
        let mut encoder = DeltaEncoder::default();
        let mut decoder = DeltaDecoder::new();
        let mut entries = vec![0u64; r];
        let frames = steps.len() as u64;
        for (seq, (noise, force)) in steps.into_iter().enumerate() {
            // Mutate some prefix of the stamp: absolute overwrites, so
            // values can regress as well as jump — both must fall back
            // to a full frame, silently.
            for (e, v) in entries.iter_mut().zip(noise) {
                *e = v;
            }
            // A restart every `full_every` frames, and at random.
            if force || (seq as u64).is_multiple_of(full_every) {
                encoder.force_full();
            }
            let m = raw_message(7, seq as u64 + 1, entries.clone(), &keys);
            let frame = encoder.encode(&m);
            let back = decoder.decode(frame).expect("in-order chain always decodes");
            prop_assert_eq!(wire::encode_full(&back), wire::encode_full(&m));
        }
        // Every restart is a full frame, fallbacks come on top.
        prop_assert!(encoder.fulls_emitted() >= frames.div_ceil(full_every));
    }

    /// Any change set round-trips: a base of up to 2 000 entries of any
    /// size, any share of them changed, each by up to `u64::MAX − base`
    /// (with the largest increase drawn below `2^scale`, so small and huge
    /// Rice parameters both come up). The frame the encoder picks is never
    /// longer than the message's full frame.
    #[test]
    fn any_change_set_roundtrips_and_never_outgrows_its_full_frame(
        r in 1usize..=2000,
        seed in any::<u64>(),
        percent in 0u64..=100,
        scale in 1u32..=64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let space = KeySpace::new(r, 1).unwrap();
        let keys = Rc::new(KeySet::from_entries(space, &[0]).unwrap());
        let base: Vec<u64> =
            (0..r).map(|_| rng.random::<u64>() >> rng.random_range(0..=64u32).min(63)).collect();
        let next: Vec<u64> = base
            .iter()
            .map(|&old| {
                let room = (u64::MAX - old).min(u64::MAX >> (64 - scale));
                if room == 0 || rng.random_range(0..100u64) >= percent {
                    old
                } else {
                    old + rng.random_range(1..=room)
                }
            })
            .collect();
        let mut encoder = DeltaEncoder::default();
        let mut decoder = DeltaDecoder::new();
        for (seq, entries) in [(1, base), (2, next)] {
            let m = raw_message(5, seq, entries, &keys);
            let frame = encoder.encode(&m);
            let full = wire::encode_full(&m);
            prop_assert!(frame.len() <= full.len(), "{} B against {} B", frame.len(), full.len());
            let back = decoder.decode(frame).expect("in-order chain always decodes");
            prop_assert_eq!(wire::encode_full(&back), full);
        }
    }

    /// Up to four senders' messages interleaved in any order, each
    /// sender's own in send order with any entries rising between them,
    /// round-trip through `ListWriter`/`ListReader` — a list as a sync
    /// reply or a snapshot's store carries it — with exactly one full
    /// frame per sender: its first in the list.
    #[test]
    fn interleaved_lists_roundtrip_with_one_chain_per_sender(
        r in 2usize..24,
        picks in proptest::collection::vec(
            (0usize..4, proptest::collection::vec((0usize..24, 1u64..1 << 20), 0..6)),
            1..64,
        ),
    ) {
        let space = KeySpace::new(r, 1).unwrap();
        let keys = Rc::new(KeySet::from_entries(space, &[0]).unwrap());
        let (mut stamps, mut seqs) = (vec![vec![0u64; r]; 4], [0u64; 4]);
        let list: Vec<Message<Bytes>> = picks
            .into_iter()
            .map(|(sender, rises)| {
                for (entry, rise) in rises {
                    stamps[sender][entry % r] += rise;
                }
                seqs[sender] += 1;
                raw_message(sender, seqs[sender], stamps[sender].clone(), &keys)
            })
            .collect();
        let mut writer = ListWriter::default();
        let frames: Vec<Bytes> = list.iter().map(|m| writer.encode(m)).collect();
        let mut reader = ListReader::<Bytes>::default();
        for (message, frame) in list.iter().zip(&frames) {
            let back = reader.decode(frame.clone()).map_err(|e| format!("listed: {e}"))?;
            prop_assert_eq!(wire::encode_full(&back), wire::encode_full(message));
        }
        let fulls = frames.iter().filter(|frame| frame[1] & 1 == 0).count();
        prop_assert_eq!(fulls, seqs.iter().filter(|&&sent| sent > 0).count());
    }

    /// A decoder joining the chain late decodes nothing until a full
    /// frame arrives, then tracks the stream exactly.
    #[test]
    fn late_joiner_only_needs_one_full_frame(
        r in 2usize..16,
        n in 2usize..20,
        join_at in 0usize..20,
    ) {
        let join_at = join_at % n;
        let space = KeySpace::new(r, 1).unwrap();
        let keys = Rc::new(KeySet::from_entries(space, &[0]).unwrap());
        let mut encoder = DeltaEncoder::default(); // one full, then deltas forever
        let mut entries = vec![0u64; r];
        let frames: Vec<(Message<Bytes>, Bytes)> = (0..n)
            .map(|seq| {
                entries[seq % r] += 1 + seq as u64;
                let m = raw_message(3, seq as u64 + 1, entries.clone(), &keys);
                let f = encoder.encode(&m);
                (m, f)
            })
            .collect();
        // The joiner misses the first `join_at` frames entirely.
        let mut decoder = DeltaDecoder::new();
        for (i, (m, frame)) in frames.iter().enumerate().skip(join_at) {
            match decoder.decode(frame.clone()) {
                Ok(back) => prop_assert_eq!(wire::encode_full(&back), wire::encode_full(m)),
                Err(WireError::MissingDeltaBase { .. }) => {
                    prop_assert!(
                        i == join_at && join_at > 0,
                        "only the first frame after joining may miss its base"
                    );
                    // Refetch: the standalone full frame re-seeds the chain.
                    let back = decoder.decode(wire::encode_full(m)).unwrap();
                    prop_assert_eq!(wire::encode_full(&back), wire::encode_full(m));
                }
                Err(e) => return Err(format!("decode failed: {e}")),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// A frame's sender id is whatever its bytes claim, and anyone can
    /// compute the checksum: 10⁵ full frames from as many forged senders
    /// must leave the decoder holding at most its cap of reconstruction
    /// stamps, every one of them still decoding, and a genuine chain that
    /// was tracked before the flood decoding its deltas throughout.
    #[test]
    fn forged_sender_ids_cannot_grow_the_decoder(
        first in 1usize..1 << 40,
        stride in 1usize..1 << 40,
    ) {
        const FORGED: usize = 100_000;
        let space = KeySpace::new(4, 1).unwrap();
        let keys = Rc::new(KeySet::from_entries(space, &[2]).unwrap());
        let mut decoder = DeltaDecoder::new();
        let mut encoder = DeltaEncoder::default(); // one full, then deltas forever
        let mut genuine_seq = 0u64;
        let mut genuine = |decoder: &mut DeltaDecoder| {
            genuine_seq += 1;
            let m = raw_message(0, genuine_seq, vec![0, 0, genuine_seq, 0], &keys);
            let back = decoder.decode(encoder.encode(&m)).map_err(|e| format!("genuine: {e}"))?;
            prop_assert_eq!(wire::encode_full(&back), wire::encode_full(&m));
            Ok(())
        };
        genuine(&mut decoder)?;
        for i in 0..FORGED {
            let forged = raw_message(first + i * stride, 1, vec![1, 0, 0, 0], &keys);
            let back = decoder.decode(wire::encode_full(&forged)).map_err(|e| format!("forged: {e}"))?;
            prop_assert_eq!(back.id(), forged.id());
            if i % 1_000 == 0 {
                genuine(&mut decoder)?;
                prop_assert!(decoder.tracked_senders() <= DeltaDecoder::MAX_TRACKED_SENDERS);
            }
        }
        prop_assert_eq!(decoder.tracked_senders(), DeltaDecoder::MAX_TRACKED_SENDERS);
        // Past the cap a new sender seeded no base: its delta is a
        // refetch, not a reconstruction against someone else's stamp.
        let late = raw_message(first + (FORGED - 1) * stride, 2, vec![2, 0, 0, 0], &keys);
        let mut late_encoder = DeltaEncoder::default();
        let _ = late_encoder.encode(&raw_message(late.sender().index(), 1, vec![1, 0, 0, 0], &keys));
        let delta = late_encoder.encode(&late);
        prop_assert!(matches!(decoder.decode(delta), Err(WireError::MissingDeltaBase { .. })));
        genuine(&mut decoder)?;
    }
}
