//! Forged counts and random bytes behind a valid checksum, at the frame
//! and snapshot decoders. The slice cursor bounds every count by the bytes
//! left before anything is sized by it, so a body that announces four
//! billion stamp entries, delta changes, dedup windows or stored messages
//! — or whose tail is noise, or whose Rice-coded change list runs on or
//! stops short, or whose chained store is a wide full frame and a run of
//! tiny deltas — must be refused or read without claiming memory its few
//! bytes never paid for.

use bytes::Bytes;
use pcb_bench::alloc::{counted, CountingAlloc};
use pcb_bench::forge::{resealed, snapshot_holding, wide_chain};
use std::rc::Rc;
use std::sync::{Mutex, PoisonError};

use pcb_broadcast::{
    decode, decode_snapshot, encode_snapshot, DeltaDecoder, DeltaEncoder, Message, MessageId,
    MessageStore, PcbProcess,
};
use pcb_clock::{KeySet, KeySpace, ProcessId, Timestamp};
use proptest::prelude::*;

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// As `step_fuzz`: heap bytes a decode may claim per input byte (varint
/// stamps widen to `u64`s, every stored message owns a stamp and a key
/// set), plus a flat allowance.
const CEILING_PER_BYTE: u64 = 64;
const CEILING_FLAT: u64 = 16 * 1024;

/// LEB128 of `u32::MAX`: what a forged count, length or index says.
const FOUR_BILLION: [u8; 5] = [0xff, 0xff, 0xff, 0xff, 0x0f];

/// A full frame of sender 7 with every entry at 0, and a delta on it
/// that raises all 16 entries by up to `2^scale`: a change list with a
/// remainder in every field and quotients of every length.
fn rice_artefacts(seed: u64, scale: u32) -> (Bytes, Bytes) {
    let space = KeySpace::new(16, 1).expect("valid space");
    let keys = Rc::new(KeySet::from_entries(space, &[0]).expect("keys"));
    let message = |seq: u64, entries: Vec<u64>| {
        Message::new(
            MessageId::new(ProcessId::new(7), seq),
            Rc::clone(&keys),
            Timestamp::from_entries(entries),
            Bytes::new(),
        )
    };
    let mut state = seed | 1;
    let rises = (0..16)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            1 + (state >> (64 - scale))
        })
        .collect();
    let mut encoder = DeltaEncoder::default();
    (encoder.encode(&message(1, vec![0; 16])), encoder.encode(&message(2, rises)))
}

/// A full frame, a delta on it, and a snapshot holding both messages.
fn artefacts(sender: usize, payload: &[u8]) -> (Bytes, Bytes, Bytes) {
    let space = KeySpace::new(16, 2).expect("valid space");
    let keys = KeySet::from_entries(space, &[3, 9]).expect("keys");
    let mut process = PcbProcess::new(ProcessId::new(sender), keys);
    let mut encoder = DeltaEncoder::default();
    let mut store = MessageStore::new(1_000);
    let mut frames = Vec::new();
    for at in 0..2 {
        let message = process.broadcast(Bytes::from(payload.to_vec()));
        frames.push(encoder.encode(&message));
        store.insert(at, message);
    }
    let delta = frames.pop().expect("two frames");
    let full = frames.pop().expect("two frames");
    (full, delta, encode_snapshot(&process.snapshot(&store)))
}

/// Forged chained stores, each with whether it decodes: a `MAX_R` full
/// frame and minimal deltas behind it, cut after every frame up to the
/// twelfth and at 1 001 (a full frame pays for itself and five such
/// deltas at six stamp entries a byte), a delta whose sender has no
/// frame earlier in the list, and a chain restarted by a full frame at a
/// seq it already stored (the store keeps no index by id, so each copy
/// would be held and served).
fn forged_stores() -> Vec<(String, Bytes, bool)> {
    let chain = wide_chain(5, 1_001, &Bytes::new());
    let mut stores: Vec<(String, Bytes, bool)> = (1..=12)
        .chain([1_001])
        .map(|len| {
            let store = snapshot_holding(&chain[..len], len as u64);
            (format!("{len} frames of one chain"), store, len <= 6)
        })
        .collect();
    stores.push((
        "12 frames under a count of 1 001".into(),
        snapshot_holding(&chain[..12], 1_001),
        false,
    ));
    let stranger = wide_chain(6, 2, &Bytes::new()).pop().expect("two frames");
    stores.push((
        "a delta with no base".into(),
        snapshot_holding(&[chain[0].clone(), stranger], 2),
        false,
    ));
    let restarted = [chain[0].clone(), chain[1].clone(), chain[0].clone()];
    stores.push((
        "a chain restarted at a stored seq".into(),
        snapshot_holding(&restarted, 3),
        false,
    ));
    stores
}

fn within_ceiling<T>(
    what: &str,
    input: &Bytes,
    decode: impl FnOnce(Bytes) -> T,
) -> Result<(), String> {
    let (_, claimed, _) = counted(|| decode(input.clone()));
    let ceiling = CEILING_PER_BYTE * input.len() as u64 + CEILING_FLAT;
    if claimed > ceiling {
        return Err(format!(
            "{what}: decoding {} bytes allocated {claimed} B, ceiling {ceiling} B: {input:?}",
            input.len()
        ));
    }
    Ok(())
}

/// The allocation counter is process-wide: a test holds this while it
/// counts, so no other test thread's allocations land in its tally.
static COUNTING: Mutex<()> = Mutex::new(());

#[test]
fn a_forged_chained_store_is_refused_within_the_ceiling() {
    let _counting = COUNTING.lock().unwrap_or_else(PoisonError::into_inner);
    // Refused past its fifth delta, or for a missing base, and decoded
    // within the ceiling anyway.
    for (what, blob, decodes) in forged_stores() {
        if let Err(verdict) = within_ceiling(&what, &blob, decode_snapshot::<Bytes>) {
            panic!("{verdict}");
        }
        assert_eq!(decode_snapshot::<Bytes>(blob).is_ok(), decodes, "{what}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn a_forged_count_claims_nothing_the_input_does_not_pay_for(
        sender in 0usize..64,
        payload in proptest::collection::vec(any::<u8>(), 0..40),
        noise in proptest::collection::vec(any::<u8>(), 0..256),
        keep in any::<usize>(),
    ) {
        let _counting = COUNTING.lock().unwrap_or_else(PoisonError::into_inner);
        let (full, delta, snapshot) = artefacts(sender, &payload);
        let mut primed = DeltaDecoder::new();
        primed.decode(full.clone()).expect("own full frame decodes");
        let check = |what: &str, forged: &Bytes| match what {
            "snapshot" => within_ceiling(what, forged, decode_snapshot::<Bytes>),
            "full" => within_ceiling(what, forged, decode),
            _ => {
                let mut decoder = primed.clone();
                within_ceiling(what, forged, move |frame| decoder.decode(frame))
            }
        };
        for (what, artefact) in [("full", &full), ("delta", &delta), ("snapshot", &snapshot)] {
            let body = &artefact[..artefact.len() - 8];
            // Every field of every body in turn says four billion, the
            // rest of the body left as it was, then everything behind it
            // cut off.
            for at in 1..body.len() {
                for rest in [&body[at + 1..], &[][..]] {
                    let forged = resealed(&[&body[..at], &FOUR_BILLION, rest].concat());
                    let verdict = check(what, &forged);
                    prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
                }
            }
            // Random bytes behind a real prefix of the body (none of it,
            // some, or all), resealed: the decoders, the delta one holding
            // a base, meet arbitrary input from any point of a valid one.
            let prefix = &body[..keep % (body.len() + 1)];
            let verdict = check(what, &resealed(&[prefix, &noise].concat()));
            prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
        }
        // A Rice change list of every shape behind a real delta header:
        // the real list, then noise, a unary run of zeros to the end, and
        // all ones (every quotient and parameter 0), each from any byte
        // of the list on.
        let (full, delta) = rice_artefacts(keep as u64, 1 + keep as u32 % 60);
        let mut primed = DeltaDecoder::new();
        primed.decode(full).expect("own full frame decodes");
        primed.clone().decode(delta.clone()).expect("own delta decodes");
        let body = &delta[..delta.len() - 8];
        // 06 01 | sender | seq | back | count: the list starts at byte 6.
        for at in 6..body.len() {
            for tail in [&noise[..], &[0x00; 64][..], &[0xff; 64][..]] {
                let forged = resealed(&[&body[..at], tail].concat());
                let mut decoder = primed.clone();
                let verdict = within_ceiling("rice", &forged, move |frame| decoder.decode(frame));
                prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
            }
        }
    }
}
