//! Hostile bytes at the step codec — the recorder's replay format.
//! Daemons no longer exchange steps: the probes and replies they send
//! each other, which a step's sync arms embed, are fuzzed at the daemon's
//! socket in `datagram_fuzz.rs`. `decode_step` must be total (an error,
//! never a panic) and must not claim memory its input does not pay for: a
//! count field is a few bytes, and it used to reserve 16 MB before
//! reading one element.

use std::sync::{Mutex, PoisonError};

use bytes::Bytes;
use pcb_bench::alloc::{counted, CountingAlloc};
use pcb_bench::forge::{snapshot_holding, wide_chain};
use pcb_broadcast::endpoint::{Endpoint, Input, Output};
use pcb_broadcast::wire::put_uvar;
use pcb_broadcast::{encode_snapshot, Message, PcbConfig, SeenWindows, WireError, SYNC_REPLY_MAX};
use pcb_clock::{ClusterConfig, KeySet, KeySpace, ProcessId};
use pcb_sim::export::{decode_step, encode_join_grant, encode_step, ExportError};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// The step tag of [`Input::StableFrontier`].
const STEP_STABLE_FRONTIER: u8 = 10;

/// Heap bytes a decode may claim per input byte, plus a flat allowance.
/// An honest step decodes into a few times its size (varint stamps widen
/// to `u64`s, every message owns its key set); a forged count under the
/// old pre-allocation claimed a million times its 17 bytes.
const CEILING_PER_BYTE: u64 = 64;
const CEILING_FLAT: u64 = 16 * 1024;

fn space() -> KeySpace {
    KeySpace::new(16, 2).expect("valid space")
}

fn messages(count: usize) -> Vec<Message<u32>> {
    let keys = KeySet::from_entries(space(), &[3, 9]).expect("keys");
    let mut sender = Endpoint::new(ProcessId::new(2), keys, PcbConfig::default(), None);
    (0..count)
        .map(|i| {
            let outs = sender.handle(Input::Broadcast(i as u32), 1_000 + i as u64);
            outs.into_iter()
                .find_map(|o| match o {
                    Output::SendFrame(m) => Some(m),
                    _ => None,
                })
                .expect("broadcast emits a frame")
        })
        .collect()
}

fn windows(rng: &mut StdRng) -> SeenWindows {
    let mut sender = 0;
    (0..rng.random_range(0..6usize))
        .map(|_| {
            sender += rng.random_range(1..4usize);
            let prefix = rng.random_range(0..1_000u64);
            let mut seq = prefix;
            let exceptions = (0..rng.random_range(0..5usize))
                .map(|_| {
                    seq += rng.random_range(1..9u64);
                    seq
                })
                .collect();
            (ProcessId::new(sender), prefix, exceptions)
        })
        .collect()
}

/// A well-formed sync request, sync response or stability frontier,
/// then damaged: left alone, truncated, a bit flipped, or four bytes
/// overwritten with `0xff` — wherever that lands on a count, it announces
/// four billion elements.
fn hostile_step(rng: &mut StdRng) -> Vec<u8> {
    let input = match rng.random_range(0..3u32) {
        0 => Input::SyncRequest { from: ProcessId::new(1), windows: windows(rng) },
        1 => Input::SyncResponse {
            messages: messages(rng.random_range(0..4usize)),
            config: ClusterConfig::genesis(space()),
        },
        _ => Input::StableFrontier(
            (0..rng.random_range(0..6usize)).map(|_| rng.random_range(0..1_000u64)).collect(),
        ),
    };
    let mut bytes = encode_step(rng.random_range(0..1_000_000u64), &input);
    match rng.random_range(0..4u32) {
        0 => {}
        1 => bytes.truncate(rng.random_range(0..=bytes.len())),
        2 => {
            let at = rng.random_range(0..bytes.len());
            bytes[at] ^= 1 << rng.random_range(0..8u32);
        }
        _ => {
            let at = rng.random_range(9..bytes.len() - 1);
            let end = (at + 4).min(bytes.len());
            bytes[at..end].fill(0xff);
        }
    }
    bytes
}

/// An empty sync request, response or stability frontier whose count —
/// the last field, a varint in the first two and a `u32` in the third —
/// says `count` with nothing behind it.
fn forged_count(input: &Input<u32>, count: u64) -> Vec<u8> {
    let mut bytes = encode_step(0, input);
    if matches!(input, Input::StableFrontier(_)) {
        let at = bytes.len() - 4;
        bytes[at..].copy_from_slice(&(count as u32).to_le_bytes());
    } else {
        bytes.pop();
        put_uvar(&mut bytes, count);
    }
    bytes
}

/// A sync response step whose count field says `count` and whose list
/// holds `frames`.
fn reply_of(frames: &[Bytes], count: usize) -> Vec<u8> {
    let config = ClusterConfig::genesis(space());
    let mut bytes = forged_count(&Input::SyncResponse { messages: vec![], config }, count as u64);
    for frame in frames {
        put_uvar(&mut bytes, frame.len() as u64);
        bytes.extend_from_slice(frame);
    }
    bytes
}

/// A join step whose grant carries `blob` as its snapshot: a real grant's
/// step with the blob swapped in (it ends the grant) and the step's length
/// field fixed.
fn join_holding(blob: &Bytes) -> Vec<u8> {
    let keys = KeySet::from_entries(space(), &[3, 9]).expect("keys");
    let sponsor: Endpoint<u32> =
        Endpoint::new(ProcessId::new(2), keys.clone(), PcbConfig::default(), None);
    let grant = sponsor.join_grant(ProcessId::new(4), keys);
    let own = encode_snapshot(&grant.snapshot);
    let body = encode_join_grant(&grant);
    let step = encode_step(0, &Input::Join(Box::new(grant)));
    let mut forged_grant = body[..body.len() - own.len()].to_vec();
    forged_grant.extend_from_slice(blob);
    let mut forged = step[..step.len() - body.len() - 4].to_vec();
    forged.extend_from_slice(&(forged_grant.len() as u32).to_le_bytes());
    forged.extend_from_slice(&forged_grant);
    forged
}

/// Forged chained replies, each with whether it decodes: a `MAX_R` full
/// frame and minimal deltas behind it, cut after every frame up to the
/// twelfth and at 1 001 (a full frame pays for itself and five such
/// deltas at six stamp entries a byte); a delta whose sender has no
/// frame earlier in the list; a reply one message longer than a store
/// answers with; and a join grant whose snapshot stores a chain, then the
/// same chain restarted by a full frame at a seq it already stored (the
/// store keeps no index by id, so each copy would be held and served).
fn forged_lists() -> Vec<(String, Vec<u8>, bool)> {
    let payload = Bytes::from_static(&[0, 0, 0, 1]);
    let chain = wide_chain(5, 1_001, &payload);
    let mut lists: Vec<(String, Vec<u8>, bool)> = (1..=12)
        .chain([1_001])
        .map(|len| (format!("{len} frames of one chain"), reply_of(&chain[..len], len), len <= 6))
        .collect();
    lists.push(("12 frames under a count of 1 001".into(), reply_of(&chain[..12], 1_001), false));
    let stranger = wide_chain(6, 2, &payload).pop().expect("two frames");
    lists.push(("a delta with no base".into(), reply_of(&[chain[0].clone(), stranger], 2), false));
    let config = ClusterConfig::genesis(space());
    let long = Input::SyncResponse { messages: messages(SYNC_REPLY_MAX + 1), config };
    lists.push(("a long reply".into(), encode_step(0, &long), false));
    let stored = snapshot_holding(&chain[..2], 2);
    lists.push(("a join storing one chain".into(), join_holding(&stored), true));
    let restarted = snapshot_holding(&[chain[0].clone(), chain[1].clone(), chain[0].clone()], 3);
    lists.push(("a join storing a chain restarted".into(), join_holding(&restarted), false));
    lists
}

fn decode_within_ceiling(bytes: &[u8]) -> Result<(), String> {
    let (_, claimed, outcome) = counted(|| decode_step(bytes).map(drop));
    let ceiling = CEILING_PER_BYTE * bytes.len() as u64 + CEILING_FLAT;
    if claimed > ceiling {
        return Err(format!(
            "decoding {} bytes ({outcome:?}) allocated {claimed} B, ceiling {ceiling} B: {bytes:?}",
            bytes.len()
        ));
    }
    Ok(())
}

/// The allocation counter is process-wide: a test holds this while it
/// counts, so no other test thread's allocations land in its tally.
static COUNTING: Mutex<()> = Mutex::new(());

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn decode_step_is_total_and_claims_no_more_than_its_input_pays_for(seed in any::<u64>()) {
        let _counting = COUNTING.lock().unwrap_or_else(PoisonError::into_inner);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut noise: Vec<u8> =
            (0..rng.random_range(0..200usize)).map(|_| rng.random_range(0..=u8::MAX)).collect();
        // Steer a share of the noise into the three arms that read a count.
        if noise.len() > 8 && rng.random_bool(0.5) {
            noise[8] = [1, 2, STEP_STABLE_FRONTIER][rng.random_range(0..3usize)];
        }
        let request = Input::SyncRequest { from: ProcessId::new(0), windows: vec![] };
        let response =
            Input::SyncResponse { messages: vec![], config: ClusterConfig::genesis(space()) };
        let frontier = Input::StableFrontier(vec![]);
        let forged = [
            forged_count(&request, u64::MAX),
            forged_count(&response, u64::MAX),
            forged_count(&frontier, u64::from(u32::MAX)),
        ];
        prop_assert_eq!(forged[0].len(), 20);
        prop_assert_eq!(forged[1].len(), 23);
        prop_assert_eq!(forged[2].len(), 13);
        prop_assert_eq!(forged[2][8], STEP_STABLE_FRONTIER);
        for bytes in &forged {
            prop_assert!(decode_step(bytes).is_err());
        }
        for bytes in forged.into_iter().chain([noise, hostile_step(&mut rng)]) {
            let verdict = decode_within_ceiling(&bytes);
            prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
        }
    }
}

#[test]
fn a_forged_chained_list_is_refused_within_the_ceiling() {
    let _counting = COUNTING.lock().unwrap_or_else(PoisonError::into_inner);
    // Refused past its fifth delta, for a missing base or for its
    // length, and decoded within the ceiling anyway.
    let lists = forged_lists();
    for (what, bytes, decodes) in &lists {
        if let Err(verdict) = decode_within_ceiling(bytes) {
            panic!("{what}: {verdict}");
        }
        assert_eq!(decode_step(bytes).is_ok(), *decodes, "{what}");
    }
    let (_, long, _) = lists.iter().find(|(what, _, _)| what == "a long reply").expect("listed");
    let refused = ExportError::Wire(WireError::LongReply(SYNC_REPLY_MAX + 1));
    assert_eq!(decode_step(long).err(), Some(refused));
}
