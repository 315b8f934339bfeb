//! Inputs the decoder fuzz suites forge (`step_fuzz`, `frame_fuzz`).

use std::rc::Rc;

use bytes::Bytes;
use pcb_broadcast::wire::{self, checksum64};
use pcb_broadcast::{encode_snapshot, DeltaEncoder, Message, MessageId, MessageStore, PcbProcess};
use pcb_clock::{KeySet, KeySpace, ProcessId, Timestamp};

/// One unbroken chain of `sender`'s messages `1..=count` at
/// `R = MAX_R` (K = 1), each carrying `payload`: a 2 KB full frame, then
/// deltas of a few bytes plus the payload that each raise entry 0 and
/// decode into 2 048 stamp entries — the widest stamp the fewest bytes
/// can claim.
#[must_use]
pub fn wide_chain(sender: usize, count: u64, payload: &Bytes) -> Vec<Bytes> {
    let space = KeySpace::new(KeySpace::MAX_R, 1).expect("valid space");
    let keys = Rc::new(KeySet::from_entries(space, &[0]).expect("keys"));
    let mut encoder = DeltaEncoder::default();
    (1..=count)
        .map(|seq| {
            let mut entries = vec![0; KeySpace::MAX_R];
            entries[0] = seq;
            encoder.encode(&Message::new(
                MessageId::new(ProcessId::new(sender), seq),
                Rc::clone(&keys),
                Timestamp::from_entries(entries),
                payload.clone(),
            ))
        })
        .collect()
}

/// `body` followed by its checksum: a forged frame or blob that passes
/// the integrity check.
#[must_use]
pub fn resealed(body: &[u8]) -> Bytes {
    let mut out = body.to_vec();
    out.extend_from_slice(&checksum64(body).to_le_bytes());
    Bytes::from(out)
}

/// A snapshot blob whose store count says `count` and whose store list
/// holds `frames`, each stored at time 0: the blob of an empty store with
/// the list spliced in front of its three-byte genesis tail.
///
/// # Panics
///
/// Never for the empty store it starts from.
#[must_use]
pub fn snapshot_holding(frames: &[Bytes], count: u64) -> Bytes {
    let space = KeySpace::new(16, 2).expect("valid space");
    let keys = KeySet::from_entries(space, &[3, 9]).expect("keys");
    let process: PcbProcess<Bytes> = PcbProcess::new(ProcessId::new(1), keys);
    let empty = encode_snapshot(&process.snapshot(&MessageStore::new(1_000)));
    let body = &empty[..empty.len() - 8];
    // … | uvar store count (0) | uvar epoch (0) | policy | no prev epoch
    let (head, tail) = body.split_at(body.len() - 4);
    assert_eq!(tail[0], 0, "an empty store");
    let mut forged = head.to_vec();
    wire::put_uvar(&mut forged, count);
    for frame in frames {
        forged.push(0);
        wire::put_uvar(&mut forged, frame.len() as u64);
        forged.extend_from_slice(frame);
    }
    forged.extend_from_slice(&tail[1..]);
    resealed(&forged)
}
