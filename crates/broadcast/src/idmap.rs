//! The one hasher behind the receive path's id-keyed maps.
//!
//! The per-sender and per-id maps an arrival touches —
//! [`crate::wire::DeltaDecoder`]'s reconstruction stamps,
//! [`crate::recovery::MessageStore`]'s id index and
//! [`crate::dedup::DedupFilter`]'s windows — are keyed by one or two
//! small integers. SipHash, `HashMap`'s default, costs more than the
//! lookup it guards and seeds itself per process, so iteration order (and
//! with it rehash timing and allocation counts) differs run to run.
//! [`IdHasher`] is a fixed multiply-mix per integer written: cheap, and
//! the same on every run.
//!
//! A fixed hasher gives up SipHash's protection against keys crafted to
//! collide, so it belongs only on maps whose size outside input cannot
//! grow without bound: the decoder caps its tracked senders, the store
//! holds one retention window, and the dedup filter keeps one window per
//! sender the ordering core accepted.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed by [`IdHasher`].
pub(crate) type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// Odd 64-bit constant (2⁶⁴ / φ): multiplying by it is a bijection that
/// carries every input bit into the high half.
const MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// Multiply-mix hasher for keys made of a few integers.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, value: u64) {
        self.0 = (self.0.rotate_left(26) ^ value).wrapping_mul(MIX);
    }

    fn write_u32(&mut self, value: u32) {
        self.write_u64(u64::from(value));
    }

    fn write_usize(&mut self, value: usize) {
        self.write_u64(value as u64);
    }

    fn finish(&self) -> u64 {
        // The table indexes buckets by the low bits and tags them by the
        // top seven; the multiply leaves the low bits the weakest, so
        // fold the high half down.
        self.0 ^ (self.0 >> 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MessageId;
    use pcb_clock::ProcessId;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(value: &T) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(value)
    }

    #[test]
    fn same_key_same_hash_and_neighbours_spread() {
        let id = |sender, seq| MessageId::new(ProcessId::new(sender), seq);
        assert_eq!(hash_of(&id(3, 9)), hash_of(&id(3, 9)));
        // Dense senders × consecutive sequence numbers — the real key
        // population — must not pile into a few buckets of a small table.
        let mut buckets = [0u32; 64];
        for sender in 0..16 {
            for seq in 1..=64 {
                buckets[(hash_of(&id(sender, seq)) & 63) as usize] += 1;
            }
        }
        let max = buckets.iter().copied().max().unwrap();
        assert!(max <= 32, "1024 keys over 64 buckets, fullest holds {max}");
    }
}
