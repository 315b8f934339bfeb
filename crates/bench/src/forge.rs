//! Inputs the decoder fuzz suites forge (`step_fuzz`, `frame_fuzz`).

use std::sync::Arc;

use bytes::Bytes;
use pcb_broadcast::{DeltaEncoder, Message, MessageId};
use pcb_clock::{KeySet, KeySpace, ProcessId, Timestamp};

/// One unbroken chain of `sender`'s messages `1..=count` at
/// `R = MAX_R` (K = 1), each carrying `payload`: a 2 KB full frame, then
/// deltas of a few bytes plus the payload that each raise entry 0 and
/// decode into 2 048 stamp entries — the widest stamp the fewest bytes
/// can claim.
#[must_use]
pub fn wide_chain(sender: usize, count: u64, payload: &Bytes) -> Vec<Bytes> {
    let space = KeySpace::new(KeySpace::MAX_R, 1).expect("valid space");
    let keys = Arc::new(KeySet::from_entries(space, &[0]).expect("keys"));
    let mut encoder = DeltaEncoder::default();
    (1..=count)
        .map(|seq| {
            let mut entries = vec![0; KeySpace::MAX_R];
            entries[0] = seq;
            encoder.encode(&Message::new(
                MessageId::new(ProcessId::new(sender), seq),
                Arc::clone(&keys),
                Timestamp::from_entries(entries),
                payload.clone(),
            ))
        })
        .collect()
}
