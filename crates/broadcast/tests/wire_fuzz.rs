//! Fuzz-style hardening tests for the wire codec: arbitrary byte
//! mutations of a valid frame either decode to a well-formed message or
//! return a `WireError` — never panic, never alias a different
//! `MessageId`. The checksum every sealed artefact shares is tested on
//! its own below, over inputs that straddle its 8-byte word boundary.

use bytes::Bytes;
use pcb_broadcast::wire::checksum64;
use pcb_broadcast::{decode, encode, PcbProcess};
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
    (encode(&m), m.id())
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
