//! MTU-aware datagram fragmentation for wire frames.
//!
//! UDP transports cannot assume a frame fits one datagram: a full
//! frame carries all `R` timestamp entries plus the payload, and an
//! anti-entropy `SyncResponse` ships many frames at once. This module
//! splits an opaque byte blob into self-describing, individually
//! checksummed datagrams and reassembles them on the far side:
//!
//! ```text
//! u8   version (= 1)
//! uvar frame id      -- sender-local, monotone per (sender, receiver)
//! uvar fragment index
//! uvar fragment count
//! uvar payload length, payload bytes   -- this fragment's slice
//! u64  checksum (LE)                   -- `wire::checksum64` over every preceding byte
//! ```
//!
//! The checksum makes decoding *total*: arbitrary or truncated bytes
//! yield a [`FragmentError`], never a panic and never a mis-decoded
//! frame — corruption at the datagram layer is indistinguishable from
//! loss, and the §4.2 anti-entropy path re-fetches whatever the frame
//! carried. Fragment ids are only unique per sender, so a receiver keeps
//! one [`Reassembler`] per peer (the UDP transport does exactly that).
//!
//! Reassembly state is bounded on both axes: a partial frame whose last
//! fragment never arrives is evicted after a timeout, and the partial
//! table itself is capped (oldest evicted first), so a hostile or
//! severely lossy peer cannot grow memory without bound.

use std::collections::HashMap;

use bytes::{BufMut, Bytes, BytesMut};

use crate::wire::{checksum_verified, put_uvar, seal, take_len_prefixed, take_uvar, WireError};

/// Datagram-layer format version.
const FRAG_VERSION: u8 = 1;

/// Smallest MTU the fragmenter accepts: header worst case plus room for
/// at least a few payload bytes per datagram.
pub const MIN_MTU: usize = 64;

/// Conservative localhost/ethernet default (IPv6 minimum link MTU minus
/// IP + UDP headers, rounded down).
pub const DEFAULT_MTU: usize = 1400;

/// Hard cap on fragments per frame (with [`DEFAULT_MTU`] this bounds a
/// frame at ~1.4 MB — far above any wire frame or sync batch we ship).
pub const MAX_FRAGMENTS: u64 = 1024;

/// Worst-case header + trailer bytes of one datagram: version byte,
/// three 10-byte uvars (frame id, index, count), a 5-byte length uvar,
/// and the 8-byte checksum.
const HEADER_WORST_CASE: usize = 1 + 10 + 10 + 10 + 5 + 8;

/// The largest frame [`fragment`] splits at this `mtu`: [`MAX_FRAGMENTS`]
/// datagrams, each with the worst-case header taken out.
#[must_use]
pub fn max_frame_len(mtu: usize) -> usize {
    MAX_FRAGMENTS as usize * mtu.saturating_sub(HEADER_WORST_CASE)
}

/// Errors decoding or assembling datagrams.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FragmentError {
    /// Truncated or corrupted datagram (failed checksum, bad varint).
    Wire(WireError),
    /// Unknown datagram version byte.
    BadVersion(u8),
    /// Structurally invalid header: zero count, index out of range, or a
    /// count disagreeing with earlier fragments of the same frame.
    BadHeader,
    /// A frame would need more than [`MAX_FRAGMENTS`] datagrams.
    TooManyFragments {
        /// Fragments the frame would need.
        needed: u64,
    },
    /// `mtu` below [`MIN_MTU`].
    MtuTooSmall {
        /// The rejected value.
        mtu: usize,
    },
}

impl From<WireError> for FragmentError {
    fn from(e: WireError) -> Self {
        FragmentError::Wire(e)
    }
}

impl std::fmt::Display for FragmentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FragmentError::Wire(e) => write!(f, "datagram decode: {e:?}"),
            FragmentError::BadVersion(v) => write!(f, "unknown datagram version {v}"),
            FragmentError::BadHeader => write!(f, "inconsistent fragment header"),
            FragmentError::TooManyFragments { needed } => {
                write!(f, "frame needs {needed} fragments (cap {MAX_FRAGMENTS})")
            }
            FragmentError::MtuTooSmall { mtu } => write!(f, "mtu {mtu} below minimum {MIN_MTU}"),
        }
    }
}

impl std::error::Error for FragmentError {}

/// One decoded datagram header plus its payload slice.
#[derive(Debug, Clone)]
struct Datagram {
    frame_id: u64,
    index: u64,
    count: u64,
    payload: Bytes,
}

fn encode_one(frame_id: u64, index: u64, count: u64, payload: &[u8]) -> Bytes {
    let mut buf = BytesMut::with_capacity(HEADER_WORST_CASE + payload.len());
    buf.put_u8(FRAG_VERSION);
    put_uvar(&mut buf, frame_id);
    put_uvar(&mut buf, index);
    put_uvar(&mut buf, count);
    put_uvar(&mut buf, payload.len() as u64);
    buf.put_slice(payload);
    seal(buf)
}

fn decode_one(datagram: &Bytes) -> Result<Datagram, FragmentError> {
    let body = checksum_verified(datagram)?;
    let (&version, mut cur) = body.split_first().ok_or(WireError::Truncated)?;
    if version != FRAG_VERSION {
        return Err(FragmentError::BadVersion(version));
    }
    let frame_id = take_uvar(&mut cur)?;
    let index = take_uvar(&mut cur)?;
    let count = take_uvar(&mut cur)?;
    let payload = take_len_prefixed(body, &mut cur)?;
    if count == 0 || count > MAX_FRAGMENTS || index >= count {
        return Err(FragmentError::BadHeader);
    }
    Ok(Datagram { frame_id, index, count, payload: datagram.slice(payload) })
}

/// Splits `frame` into datagrams of at most `mtu` bytes each, tagged
/// with the caller's `frame_id` (must be unique per sender while the
/// frame can still be in flight — a monotone counter is the easy way).
///
/// A frame that fits yields exactly one datagram; the empty frame yields
/// one empty-payload datagram so presence survives the trip.
///
/// # Errors
///
/// [`FragmentError::MtuTooSmall`] below [`MIN_MTU`];
/// [`FragmentError::TooManyFragments`] if the frame cannot fit the cap.
pub fn fragment(frame_id: u64, frame: &Bytes, mtu: usize) -> Result<Vec<Bytes>, FragmentError> {
    let mut out = Vec::new();
    fragment_into(frame_id, frame, mtu, &mut out)?;
    Ok(out)
}

/// [`fragment`] writing into a caller-provided vector (cleared first),
/// so a steady-state sender reuses one fragment list instead of
/// allocating a fresh `Vec` per frame.
///
/// # Errors
///
/// Same conditions as [`fragment`]; on error `out` is left empty.
pub fn fragment_into(
    frame_id: u64,
    frame: &Bytes,
    mtu: usize,
    out: &mut Vec<Bytes>,
) -> Result<(), FragmentError> {
    out.clear();
    if mtu < MIN_MTU {
        return Err(FragmentError::MtuTooSmall { mtu });
    }
    let budget = mtu - HEADER_WORST_CASE;
    let count = frame.len().div_ceil(budget).max(1) as u64;
    if count > MAX_FRAGMENTS {
        return Err(FragmentError::TooManyFragments { needed: count });
    }
    out.reserve(count as usize);
    for index in 0..count {
        let start = index as usize * budget;
        let end = (start + budget).min(frame.len());
        out.push(encode_one(frame_id, index, count, &frame[start..end]));
    }
    Ok(())
}

/// In-progress frame: which fragments arrived and their payloads.
#[derive(Debug)]
struct Partial {
    first_seen_us: u64,
    count: u64,
    have: u64,
    slots: Vec<Option<Bytes>>,
}

/// Per-peer reassembly buffer: feed datagrams in any order (duplicated,
/// reordered, interleaved across frames) and get whole frames back.
#[derive(Debug)]
pub struct Reassembler {
    timeout_us: u64,
    max_partials: usize,
    partials: HashMap<u64, Partial>,
}

impl Reassembler {
    /// `timeout_us` bounds how long an incomplete frame is kept waiting
    /// for its missing fragments; `max_partials` caps concurrent
    /// incomplete frames (oldest evicted first).
    #[must_use]
    pub fn new(timeout_us: u64, max_partials: usize) -> Self {
        Self {
            timeout_us: timeout_us.max(1),
            max_partials: max_partials.max(1),
            partials: HashMap::new(),
        }
    }

    /// Accepts one datagram at `now_us`; returns the whole frame when
    /// this datagram completes it. Duplicates are ignored; a datagram
    /// whose header disagrees with earlier fragments of the same frame
    /// id resets that frame (the old partial was stale or corrupt).
    ///
    /// # Errors
    ///
    /// [`FragmentError`] for undecodable bytes; reassembly state is
    /// untouched in that case, exactly as if the datagram were lost.
    pub fn accept(
        &mut self,
        now_us: u64,
        datagram: &Bytes,
    ) -> Result<Option<Bytes>, FragmentError> {
        let d = decode_one(datagram)?;
        self.evict(now_us);
        if d.count == 1 {
            // Single-datagram fast path: no state to keep.
            self.partials.remove(&d.frame_id);
            return Ok(Some(d.payload));
        }
        let partial = self.partials.entry(d.frame_id).or_insert_with(|| Partial {
            first_seen_us: now_us,
            count: d.count,
            have: 0,
            slots: vec![None; d.count as usize],
        });
        if partial.count != d.count {
            // A frame id wrapped onto a stale partial: start over.
            *partial = Partial {
                first_seen_us: now_us,
                count: d.count,
                have: 0,
                slots: vec![None; d.count as usize],
            };
        }
        let slot = &mut partial.slots[d.index as usize];
        if slot.is_none() {
            *slot = Some(d.payload);
            partial.have += 1;
        }
        if partial.have < partial.count {
            return Ok(None);
        }
        let partial = self.partials.remove(&d.frame_id).expect("just completed");
        let total: usize = partial.slots.iter().map(|s| s.as_ref().map_or(0, Bytes::len)).sum();
        let mut frame = BytesMut::with_capacity(total);
        for slot in partial.slots {
            frame.put_slice(&slot.expect("complete partial has every slot"));
        }
        Ok(Some(frame.freeze()))
    }

    /// Incomplete frames currently buffered.
    #[must_use]
    pub fn partials(&self) -> usize {
        self.partials.len()
    }

    /// Drops timed-out partials, then enforces the table cap.
    fn evict(&mut self, now_us: u64) {
        let timeout = self.timeout_us;
        self.partials.retain(|_, p| now_us.saturating_sub(p.first_seen_us) < timeout);
        while self.partials.len() >= self.max_partials {
            let oldest = self
                .partials
                .iter()
                .min_by_key(|(id, p)| (p.first_seen_us, **id))
                .map(|(id, _)| *id)
                .expect("non-empty over cap");
            self.partials.remove(&oldest);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob(len: usize) -> Bytes {
        Bytes::from((0..len).map(|i| (i % 251) as u8).collect::<Vec<u8>>())
    }

    #[test]
    fn round_trip_in_order() {
        let frame = blob(10_000);
        let datagrams = fragment(7, &frame, DEFAULT_MTU).unwrap();
        assert!(datagrams.len() > 1);
        assert!(datagrams.iter().all(|d| d.len() <= DEFAULT_MTU));
        let mut r = Reassembler::new(1_000_000, 16);
        let mut got = None;
        for d in &datagrams {
            if let Some(frame) = r.accept(0, d).unwrap() {
                got = Some(frame);
            }
        }
        assert_eq!(got.unwrap(), frame);
        assert_eq!(r.partials(), 0);
    }

    #[test]
    fn round_trip_reordered_and_duplicated() {
        let frame = blob(5_000);
        let mut datagrams = fragment(3, &frame, 256).unwrap();
        datagrams.reverse();
        let dup = datagrams[1].clone();
        datagrams.insert(3, dup);
        let mut r = Reassembler::new(1_000_000, 16);
        let mut done = Vec::new();
        for d in &datagrams {
            if let Some(frame) = r.accept(0, d).unwrap() {
                done.push(frame);
            }
        }
        assert_eq!(done.len(), 1, "duplicates complete a frame only once");
        assert_eq!(done[0], frame);
    }

    #[test]
    fn mtu_boundary_golden() {
        // Golden: payload budget for the default MTU, and the exact
        // fragment counts at the boundary. A change to the header layout
        // must show up here deliberately.
        let budget = DEFAULT_MTU - HEADER_WORST_CASE;
        assert_eq!(budget, 1356);
        for (len, want) in [
            (0usize, 1usize),
            (1, 1),
            (budget, 1),
            (budget + 1, 2),
            (2 * budget, 2),
            (2 * budget + 1, 3),
        ] {
            let datagrams = fragment(1, &blob(len), DEFAULT_MTU).unwrap();
            assert_eq!(datagrams.len(), want, "len={len}");
            assert!(datagrams.iter().all(|d| d.len() <= DEFAULT_MTU), "len={len}");
        }
    }

    #[test]
    fn truncated_and_corrupted_datagrams_error_never_panic() {
        let frame = blob(4_000);
        let datagrams = fragment(9, &frame, 512).unwrap();
        let mut r = Reassembler::new(1_000_000, 16);
        for d in &datagrams {
            // Every truncation of every datagram must fail cleanly.
            for cut in 0..d.len() {
                let t = d.slice(0..cut);
                assert!(r.accept(0, &t).is_err(), "cut={cut}");
            }
            // Every single-byte corruption must be caught by the checksum
            // (or a structural error) — never mis-decoded.
            for pos in 0..d.len() {
                let mut bytes = d.to_vec();
                bytes[pos] ^= 0x5a;
                assert!(r.accept(0, &Bytes::from(bytes)).is_err(), "pos={pos}");
            }
        }
        // The pristine datagrams still assemble afterwards.
        let mut got = None;
        for d in &datagrams {
            if let Some(f) = r.accept(0, d).unwrap() {
                got = Some(f);
            }
        }
        assert_eq!(got.unwrap(), frame);
    }

    #[test]
    fn stale_partials_time_out_and_table_is_capped() {
        let mut r = Reassembler::new(1_000, 4);
        // Feed first-of-two fragments for many distinct frames.
        for id in 0..10u64 {
            let datagrams = fragment(id, &blob(3_000), 1400).unwrap();
            assert!(r.accept(id, &datagrams[0]).unwrap().is_none());
            assert!(r.partials() <= 4, "cap enforced");
        }
        // Time passes; everything below the timeout horizon is dropped.
        let datagrams = fragment(99, &blob(3_000), 1400).unwrap();
        assert!(r.accept(5_000, &datagrams[0]).unwrap().is_none());
        assert_eq!(r.partials(), 1, "only the fresh partial survives");
    }

    #[test]
    fn mtu_and_fragment_caps_are_enforced() {
        assert!(matches!(
            fragment(0, &blob(10), MIN_MTU - 1),
            Err(FragmentError::MtuTooSmall { .. })
        ));
        let budget = MIN_MTU - HEADER_WORST_CASE;
        let too_big = blob((MAX_FRAGMENTS as usize + 1) * budget);
        assert!(matches!(
            fragment(0, &too_big, MIN_MTU),
            Err(FragmentError::TooManyFragments { .. })
        ));
    }

    #[test]
    fn empty_frame_survives() {
        let datagrams = fragment(0, &Bytes::new(), DEFAULT_MTU).unwrap();
        assert_eq!(datagrams.len(), 1);
        let mut r = Reassembler::new(1_000, 4);
        assert_eq!(r.accept(0, &datagrams[0]).unwrap().unwrap(), Bytes::new());
    }
}
