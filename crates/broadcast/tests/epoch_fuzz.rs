//! Fuzz-style hardening for the config-epoch plane's wire surface:
//! frames at a non-zero config epoch round-trip exactly, arbitrary
//! truncation and padding never panic, and an endpoint handed a frame
//! from an epoch it neither runs nor drains — or a valid frame whose
//! `(R, K)` is not its epoch's — refuses it with its state untouched.

use bytes::Bytes;
use pcb_broadcast::endpoint::{Endpoint, Input, Output};
use pcb_broadcast::{decode, encode_full, PcbConfig, PcbProcess};
use pcb_clock::{AssignmentPolicy, KeyAssigner, KeySpace, ProcessId};
use proptest::prelude::*;

fn keys(owner: usize) -> pcb_clock::KeySet {
    let space = KeySpace::new(32, 3).unwrap();
    let mut assigner = KeyAssigner::new(space, AssignmentPolicy::UniformRandom, owner as u64 + 1);
    assigner.next_set().unwrap()
}

/// A valid frame in a non-zero epoch: a real broadcast re-stamped.
fn epoch_frame(sender: usize, warmup: usize, payload: Vec<u8>, epoch: u64) -> Bytes {
    let mut process = PcbProcess::new(ProcessId::new(sender), keys(sender));
    for _ in 0..warmup {
        let _ = process.broadcast(Bytes::new());
    }
    encode_full(&process.broadcast(Bytes::from(payload)).with_epoch(epoch))
}

proptest! {
    /// Every non-zero epoch survives the frame tag round-trip, along
    /// with the message identity it fences.
    #[test]
    fn epoch_frames_roundtrip(
        sender in 0usize..32,
        warmup in 0usize..16,
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        epoch in 1u64..=u64::MAX / 2,
    ) {
        let mut process = PcbProcess::new(ProcessId::new(sender), keys(sender));
        for _ in 0..warmup {
            let _ = process.broadcast(Bytes::new());
        }
        let message = process.broadcast(Bytes::from(payload)).with_epoch(epoch);
        let back = decode(encode_full(&message)).expect("valid epoch frame must decode");
        prop_assert_eq!(back.epoch(), epoch);
        prop_assert_eq!(back.id(), message.id());
        prop_assert_eq!(back.payload(), message.payload());
    }

    /// Truncating an epoch frame anywhere, or appending garbage, never
    /// panics; only the byte-identical frame may decode.
    #[test]
    fn epoch_frame_truncation_and_padding_never_panic(
        sender in 0usize..32,
        warmup in 0usize..16,
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        epoch in 1u64..=u64::MAX / 2,
        cut in any::<usize>(),
        tail in proptest::collection::vec(any::<u8>(), 0..16),
    ) {
        let bytes = epoch_frame(sender, warmup, payload, epoch);
        let mut mutated = bytes.to_vec();
        mutated.truncate(1 + cut % mutated.len());
        mutated.extend_from_slice(&tail);
        if decode(Bytes::from(mutated.clone())).is_ok() {
            prop_assert_eq!(mutated, bytes.to_vec(), "only the identical frame may decode");
        }
    }

    /// An endpoint receiving a frame stamped with a config epoch it
    /// neither runs nor drains refuses it: nothing delivers, nothing
    /// enters the pending queue, the refusal counter ticks — and the
    /// same broadcast in the endpoint's own epoch still delivers, so
    /// the refusal left the machine fully live.
    #[test]
    fn cross_epoch_refusal_leaves_state_untouched(
        payload in proptest::collection::vec(any::<u8>(), 0..32),
        epoch in 1u64..u64::MAX,
    ) {
        let mut receiver: Endpoint<Bytes> =
            Endpoint::new(ProcessId::new(0), keys(0), PcbConfig::default(), None);
        let mut sender = PcbProcess::new(ProcessId::new(1), keys(1));
        let message = sender.broadcast(Bytes::from(payload));

        let before = receiver.status();
        let outputs =
            receiver.handle(Input::FrameReceived(message.clone().with_epoch(epoch)), 1_000);
        prop_assert!(
            outputs.iter().all(|o| !matches!(o, Output::Deliver(_))),
            "a cross-epoch frame must not deliver"
        );
        let after = receiver.status();
        prop_assert_eq!(after.cross_epoch_refused, before.cross_epoch_refused + 1);
        prop_assert_eq!(after.config_epoch, before.config_epoch);
        prop_assert_eq!(after.stats.delivered, before.stats.delivered);
        prop_assert_eq!(after.pending, before.pending);

        let outputs = receiver.handle(Input::FrameReceived(message), 2_000);
        prop_assert!(
            outputs.iter().any(|o| matches!(o, Output::Deliver(_))),
            "the refusal must not have poisoned the endpoint"
        );
    }

    /// A valid current-epoch frame from another `(R, K)` geometry — a
    /// stamp of the wrong length, or the right length under a foreign key
    /// space — decodes fine and must then be refused by the endpoint, not
    /// abort it: `handle_wire` never panics on it and counts the refusal.
    #[test]
    fn wrong_geometry_frames_are_refused_by_handle_wire(
        r in 1usize..=64,
        k_seed in any::<usize>(),
        set_seed in any::<u64>(),
        warmup in 0usize..8,
        payload in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        let space = KeySpace::new(r, 1 + k_seed % r.min(6)).unwrap();
        prop_assume!(space != keys(0).space());
        let set_id = u128::from(set_seed) % space.combination_count();
        let mut sender =
            PcbProcess::new(ProcessId::new(1), pcb_clock::KeySet::from_set_id(space, set_id).unwrap());
        for _ in 0..warmup {
            let _ = sender.broadcast(Bytes::new());
        }
        let frame = encode_full(&sender.broadcast(Bytes::from(payload)));

        let mut receiver: Endpoint<Bytes> =
            Endpoint::new(ProcessId::new(0), keys(0), PcbConfig::default(), None);
        let before = receiver.status();
        let outputs = receiver.handle_wire(frame, 1_000).expect("a valid frame decodes");
        prop_assert!(outputs.iter().all(|o| !matches!(o, Output::Deliver(_))));
        let after = receiver.status();
        prop_assert_eq!(after.geometry_refused, before.geometry_refused + 1);
        prop_assert_eq!(after.stats, before.stats);
        prop_assert_eq!(after.pending, before.pending);
        prop_assert_eq!(after.clock, before.clock);
    }
}
