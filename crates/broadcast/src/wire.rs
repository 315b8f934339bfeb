//! Compact wire format for broadcast messages.
//!
//! The paper's argument is about *control-information bytes on the wire*,
//! so the library ships a real codec rather than hand-waving sizes — one
//! frame layout, in two kinds:
//!
//! ```text
//! u8 6 | uvar tag | body | u64 checksum      tag = config_epoch · 2 + kind
//!
//! full body (kind 0): standalone, self-describing
//!   uvar sender | uvar seq | uvar R | uvar K
//!   u128 set_id (16 bytes, LE)            -- the key set, not its expansion
//!   uvar × R entries                      -- LEB128; small counters stay small
//!   uvar payload_len, payload
//!
//! delta body (kind 1): relative to the sender's frame `base_seq = seq − back`
//!   uvar sender | uvar seq | uvar back | uvar count   -- 1 ≤ back ≤ seq
//!   change list, when count > 0           -- bits, below
//!   uvar payload_len, payload
//!
//! change list: bits, low bit of each byte first, zero-padded to a byte.
//! Change i has a gap g_i (entries skipped since the previous change)
//! and a rise r_i (its increase − 1), each Golomb–Rice coded:
//!   unary k_gap | unary k_rise            -- ⌊log2 mean⌋ of this frame's
//!                                         --   gaps / rises, 0 below 1
//!   count × (g_i mod 2^k_gap : k_gap bits | r_i mod 2^k_rise : k_rise bits)
//!   count × (unary g_i >> k_gap | unary r_i >> k_rise)
//! unary q: q zeros, then a one
//! ```
//!
//! The checksum is [`checksum64`] over every preceding byte. With fresh
//! clocks a full frame's stamp costs ~1 byte per entry, approaching the
//! paper's "few integer timestamps"; entries grow logarithmically with
//! traffic. Decoding recomputes the key set from `set_id` via Algorithm 3.
//! A delta's change list costs what its changes carry: the Rice
//! parameters follow each frame's own mean gap and rise, so a live chain
//! — the sender's own `K` entries up by one per send, what it delivered
//! in between by one per delivery — pays five to six bits a change at
//! 28 changes in `R = 100`, and a chain whose entries rise by 8 or more
//! between sends pays a few bits more, not an escape varint per change.
//! The remainders sit at fixed offsets and the quotients in one bit
//! vector, so the decoder reads the quotients by set-bit iteration, a
//! word at a time, instead of bit by bit.
//!
//! A *delta* exists because Algorithm 1 changes only the sender's `K`
//! entries between consecutive sends (plus whatever its delivery rule
//! incremented), so a frame rarely needs all `R` entries. It omits `R`,
//! `K`, `set_id` and the unchanged entries: the decoder reconstructs the
//! stamp from its per-sender *reconstruction stamp* — the `(seq,
//! timestamp, keys)` of the sender's last decoded frame. Because the
//! stamp for a given `(sender, seq)` is unique, any frame whose stored
//! `seq` equals `base_seq` is a valid base, in or out of order. A delta
//! against an unknown base fails with [`WireError::MissingDeltaBase`];
//! the caller re-fetches the message through anti-entropy.
//! [`DeltaEncoder`] emits a full frame only where a chain starts: the
//! first frame, a forced restart, an epoch change, a regressed stamp or
//! sequence number (e.g. after a crash-restore), or a delta that could
//! be larger. A chain is never restarted on a schedule; whoever owns the
//! channel knows when a receiver lost the base, and restarts it then (the
//! daemon's links do at a fence). Version bytes 2, 3, 4 and 5 are
//! retired layouts and refuse as [`WireError::BadVersion`].
//!
//! A *list* — a sync reply, a snapshot's store — is self-contained:
//! [`ListWriter`] writes each sender's messages in it as a chain of its
//! own, the first full, and [`ListReader`] decodes them with a fresh
//! [`DeltaDecoder`], so no state crosses lists and a late joiner
//! bootstraps from one. Because a delta decodes into a whole stamp, the
//! reader holds a list to [`LIST_ENTRIES_PER_BYTE`] stamp entries per
//! frame byte, and the writer keeps to it by falling back to a full
//! frame.
//!
//! The tag's *config epoch* names the `(R, K)` configuration the stamp was
//! drawn in (see `pcb_clock::ClusterConfig`). At epoch 0 the tag is the
//! single byte 0 or 1, so a cluster that never reconfigures pays nothing
//! for the plane. A delta frame is only sound against a base of the
//! *same* epoch (the geometry may differ across epochs), so a cross-epoch
//! delta fails with [`WireError::MissingDeltaBase`], state untouched, and
//! recovers through the same refetch path. A decoded epoch is
//! below 2⁶³ by construction, and the codecs that read an epoch from
//! other input (the step codec, the snapshot tail) refuse larger ones, so
//! `epoch · 2 + kind` never wraps.
//!
//! The trailing [`checksum64`] makes in-flight corruption *detected*,
//! never delivered. It folds the frame in eight bytes at a time: each step
//! `x ↦ mix((x ⊕ word) · odd)` is a bijection of the state for a fixed
//! word and of the word for a fixed state, so any substitution confined
//! to one word — in particular any single-byte one — is guaranteed to
//! change the digest; the length is folded in first, so a frame and its
//! zero-padded extension differ too. Decoding is total — arbitrary bytes
//! either yield a well-formed message or a [`WireError`], never a panic.

use std::marker::PhantomData;
use std::ops::Range;
use std::rc::Rc;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use pcb_clock::{KeySet, KeySpace, ProcessId, StampPool, Timestamp};

use crate::idmap::IdMap;
use crate::message::{Message, MessageId};

const FRAME_VERSION: u8 = 6;
const KIND_FULL: u64 = 0;
const KIND_DELTA: u64 = 1;
const CHECKSUM_LEN: usize = 8;

/// Errors decoding a wire frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Frame ended before the structure was complete.
    Truncated,
    /// Unknown format version byte.
    BadVersion(u8),
    /// The trailing [`checksum64`] digest does not match the frame body: the
    /// frame was corrupted in flight and must be discarded (anti-entropy
    /// re-fetches it).
    ChecksumMismatch,
    /// A varint exceeded 64 bits.
    VarintOverflow,
    /// `(R, K)` or `set_id` failed validation.
    BadKeys(String),
    /// A delta frame referenced a base stamp this decoder does not hold
    /// (late joiner, evicted state, or frames lost in flight). Recover by
    /// re-fetching the message via anti-entropy, whose reply is a
    /// self-contained list.
    MissingDeltaBase {
        /// Sender index whose reconstruction stamp is missing or stale.
        sender: usize,
        /// The sequence number the delta was encoded against.
        base_seq: u64,
    },
    /// A delta frame's entry indices or counts are inconsistent with the
    /// reconstruction stamp (e.g. an index past `R`).
    BadDelta(String),
    /// A payload of this many bytes is not one of the [`Payload`] type
    /// being decoded (a `u32` is four).
    BadPayload(usize),
    /// A probe's dedup windows are not in exported form: senders
    /// strictly ascending, each exception list strictly ascending and
    /// beyond its prefix.
    BadWindows,
    /// A sync reply of more messages than a store ever answers with
    /// ([`crate::SYNC_REPLY_MAX`]).
    LongReply(usize),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated => write!(f, "frame truncated"),
            Self::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            Self::ChecksumMismatch => write!(f, "frame checksum mismatch"),
            Self::VarintOverflow => write!(f, "varint exceeds 64 bits"),
            Self::BadKeys(msg) => write!(f, "invalid key material: {msg}"),
            Self::MissingDeltaBase { sender, base_seq } => {
                write!(f, "no reconstruction stamp for sender {sender} at seq {base_seq}")
            }
            Self::BadDelta(msg) => write!(f, "invalid delta frame: {msg}"),
            Self::BadPayload(len) => write!(f, "a {len}-byte payload is not of the payload type"),
            Self::BadWindows => write!(f, "dedup windows not strictly ascending"),
            Self::LongReply(count) => write!(f, "sync reply of {count} messages"),
        }
    }
}

impl std::error::Error for WireError {}

/// Odd multiplier of the checksum's word step (2⁶⁴ / φ).
const CHECKSUM_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// One checksum step: a bijection of `state` for fixed `word` and of
/// `word` for fixed `state` (xor, odd multiply and xor-shift all are).
#[inline]
fn checksum_step(state: u64, word: u64) -> u64 {
    let mixed = (state ^ word).wrapping_mul(CHECKSUM_MUL);
    mixed ^ (mixed >> 32)
}

/// The 64-bit checksum that seals every frame, fragment, snapshot, outer
/// datagram and WAL record: a multiply-mix over little-endian 8-byte
/// words, the trailing `len % 8` bytes gathered into one zero-padded
/// word, seeded with the length. It detects corruption; it is not a MAC —
/// anyone can compute it.
#[must_use]
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut state = checksum_step(0xcbf2_9ce4_8422_2325, bytes.len() as u64);
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let word = u64::from_le_bytes(word.try_into().expect("chunks_exact yields 8 bytes"));
        state = checksum_step(state, word);
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut word = 0u64;
        for (i, &byte) in tail.iter().enumerate() {
            word |= u64::from(byte) << (8 * i);
        }
        state = checksum_step(state, word);
    }
    // Final avalanche, so the low digest bytes depend on every word.
    let mixed = (state ^ (state >> 29)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    mixed ^ (mixed >> 32)
}

/// Appends the [`checksum64`] digest of everything written so far.
pub(crate) fn seal(mut buf: BytesMut) -> Bytes {
    let digest = checksum64(&buf);
    buf.put_u64_le(digest);
    buf.freeze()
}

/// Verifies the trailing digest and returns the frame body in front of
/// it. Every decoder below reads that slice through a `&mut &[u8]` cursor
/// — the slice shrinks from the front as fields are taken — and leaves
/// the owned [`Bytes`] alone until the payload is cut out of it, once.
pub(crate) fn checksum_verified(frame: &[u8]) -> Result<&[u8], WireError> {
    if frame.len() < 1 + CHECKSUM_LEN {
        return Err(WireError::Truncated);
    }
    let (body, trailer) = frame.split_at(frame.len() - CHECKSUM_LEN);
    let expected = u64::from_le_bytes(trailer.try_into().expect("checksum is 8 bytes"));
    if checksum64(body) != expected {
        return Err(WireError::ChecksumMismatch);
    }
    Ok(body)
}

/// Appends `v` as a LEB128 varint: seven value bits a byte, low group
/// first, the high bit set on every byte but the last. The workspace's
/// one varint encoder (frames, fragments, snapshots, UDP datagrams).
#[inline]
pub fn put_uvar(out: &mut impl BufMut, mut v: u64) {
    while v >= 0x80 {
        out.put_u8(v as u8 | 0x80);
        v >>= 7;
    }
    out.put_u8(v as u8);
}

/// Takes one LEB128 varint off the front of `buf` — the workspace's one
/// varint decoder. A value below 128 is a single byte and is answered
/// here, inlined into the caller's loop; anything longer goes through
/// the out-of-line tail.
///
/// # Errors
///
/// [`WireError::Truncated`] when the input ends on a continuation bit,
/// [`WireError::VarintOverflow`] when the value does not fit 64 bits (an
/// eleventh byte, or more than the top bit in the tenth). `buf` is then
/// left somewhere inside the bad varint.
#[inline]
pub fn take_uvar(buf: &mut &[u8]) -> Result<u64, WireError> {
    match buf.split_first() {
        Some((&byte, rest)) if byte < 0x80 => {
            *buf = rest;
            Ok(u64::from(byte))
        }
        _ => leb128_tail(buf),
    }
}

/// The general case behind [`take_uvar`]: up to ten bytes.
fn leb128_tail(buf: &mut &[u8]) -> Result<u64, WireError> {
    let mut v: u64 = 0;
    for shift in (0..64).step_by(7) {
        let (&byte, rest) = buf.split_first().ok_or(WireError::Truncated)?;
        *buf = rest;
        let group = u64::from(byte & 0x7F);
        if shift == 63 && group > 0x01 {
            // Nine continuation bytes already consumed 63 bits, so only
            // one value bit remains. Anything else in the tenth byte
            // would be silently shifted out — reject instead of
            // truncating the value.
            return Err(WireError::VarintOverflow);
        }
        v |= group << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(WireError::VarintOverflow)
}

/// Refuses, as [`WireError::Truncated`], bytes left behind a form that
/// must fill its input.
///
/// # Errors
///
/// As above, when `rest` is not empty.
pub fn finish(rest: &[u8]) -> Result<(), WireError> {
    if rest.is_empty() {
        Ok(())
    } else {
        Err(WireError::Truncated)
    }
}

/// Takes `N` fixed bytes off the front of `buf`.
#[inline]
pub fn take_array<const N: usize>(buf: &mut &[u8]) -> Result<[u8; N], WireError> {
    let (head, rest) = buf.split_first_chunk::<N>().ok_or(WireError::Truncated)?;
    *buf = rest;
    Ok(*head)
}

/// Locates the length-prefixed byte string at the front of `cur` as a
/// range of `body`, of which `cur` is the unread suffix — so the caller
/// can cut it out of the buffer it owns ([`narrowed`]) after the borrow
/// has ended.
#[inline]
pub(crate) fn take_len_prefixed(body: &[u8], cur: &mut &[u8]) -> Result<Range<usize>, WireError> {
    let len = take_uvar(cur)? as usize;
    if cur.len() < len {
        return Err(WireError::Truncated);
    }
    let start = body.len() - cur.len();
    *cur = &cur[len..];
    Ok(start..start + len)
}

/// Narrows an owned buffer to `at` in place: the one cut that turns a
/// frame into its payload. No new sharer, so no reference-count traffic.
#[inline]
pub(crate) fn narrowed(mut buf: Bytes, at: Range<usize>) -> Bytes {
    buf.truncate(at.end);
    buf.advance(at.start);
    buf
}

/// A message payload the codecs carry: on the wire `uvar len | bytes`.
/// A `Bytes` payload is its own bytes; a `u32` — the arena index the
/// daemon and the simulator publish — is its four big-endian bytes, so a
/// frame, a list or a snapshot of `u32` messages is byte for byte the one
/// its `Bytes` twin makes.
pub trait Payload: Clone {
    /// Bytes the payload occupies behind its length prefix.
    fn wire_len(&self) -> usize;
    /// Appends those bytes.
    fn put(&self, buf: &mut BytesMut);
    /// The payload at `at` of `frame`, a buffer the caller gives up.
    ///
    /// # Errors
    ///
    /// [`WireError::BadPayload`] for a length the type cannot take.
    fn take(frame: Bytes, at: Range<usize>) -> Result<Self, WireError>;
}

impl Payload for Bytes {
    #[inline]
    fn wire_len(&self) -> usize {
        self.len()
    }

    #[inline]
    fn put(&self, buf: &mut BytesMut) {
        buf.put_slice(self);
    }

    #[inline]
    fn take(frame: Bytes, at: Range<usize>) -> Result<Self, WireError> {
        Ok(narrowed(frame, at))
    }
}

impl Payload for u32 {
    #[inline]
    fn wire_len(&self) -> usize {
        4
    }

    #[inline]
    fn put(&self, buf: &mut BytesMut) {
        buf.put_slice(&self.to_be_bytes());
    }

    #[inline]
    fn take(frame: Bytes, at: Range<usize>) -> Result<Self, WireError> {
        let len = at.len();
        <[u8; 4]>::try_from(&frame[at])
            .map(u32::from_be_bytes)
            .map_err(|_| WireError::BadPayload(len))
    }
}

/// Opens a frame: the version byte and the `epoch · 2 + kind` tag. Epochs
/// read from input are bounded where they enter (module docs) and the
/// config plane only counts up by one, so a larger one is a bug here,
/// not hostile input.
fn put_header(buf: &mut BytesMut, epoch: u64, kind: u64) {
    assert!(epoch < 1 << 63, "config epoch {epoch} does not fit the frame tag");
    buf.put_u8(FRAME_VERSION);
    put_uvar(buf, epoch << 1 | kind);
}

fn put_full_body<P: Payload>(buf: &mut BytesMut, message: &Message<P>) {
    put_uvar(buf, message.sender().index() as u64);
    put_uvar(buf, message.id().seq());
    let space = message.keys().space();
    put_uvar(buf, space.r() as u64);
    put_uvar(buf, space.k() as u64);
    buf.put_u128_le(message.keys().set_id());
    for &entry in message.timestamp().entries() {
        put_uvar(buf, entry);
    }
    put_uvar(buf, message.payload().wire_len() as u64);
    message.payload().put(buf);
}

/// Capacity hint covering a full frame in one allocation: header and id
/// varints plus checksum (≤ 48 bytes), every stamp entry at its fixed
/// 8-byte upper bound, and the payload verbatim.
fn full_frame_capacity<P: Payload>(message: &Message<P>) -> usize {
    48 + message.timestamp().wire_size() + message.payload().wire_len()
}

/// Encodes a message as a standalone *full* frame (all `R` entries) —
/// the first frame of every chain, live or in a list, and what a
/// [`DeltaDecoder`] records as the sender's reconstruction base.
#[must_use]
pub fn encode_full<P: Payload>(message: &Message<P>) -> Bytes {
    let mut buf = BytesMut::with_capacity(full_frame_capacity(message));
    put_header(&mut buf, message.epoch(), KIND_FULL);
    put_full_body(&mut buf, message);
    seal(buf)
}

/// A checksum-verified frame, opened behind its header.
struct Opened<'a> {
    /// Everything in front of the checksum: the ranges the body decoders
    /// locate index it, and the frame it came from.
    body: &'a [u8],
    /// The kind's own fields, behind the version byte and the tag.
    cur: &'a [u8],
    epoch: u64,
    delta: bool,
}

/// Checks the version byte first (so foreign formats report
/// [`WireError::BadVersion`]), then the checksum, then reads the tag.
fn open(frame: &[u8]) -> Result<Opened<'_>, WireError> {
    match frame.first() {
        None => return Err(WireError::Truncated),
        Some(&FRAME_VERSION) => {}
        Some(&version) => return Err(WireError::BadVersion(version)),
    }
    let body = checksum_verified(frame)?;
    let mut cur = &body[1..];
    let tag = take_uvar(&mut cur)?;
    Ok(Opened { body, cur, epoch: tag >> 1, delta: tag & 1 == KIND_DELTA })
}

/// A message whose payload is still a range of the frame it was decoded
/// from: what the body decoders return while they only borrow the frame.
type Located = Message<Range<usize>>;

/// Decodes a full body from `cur`, the unread suffix of `body`. The
/// entries are read straight into a stamp drawn from `pool`, and a sender
/// in `known` whose base already carries the frame's key set shares it
/// instead of unranking `set_id` again — so a decoder with warm state
/// decodes the full frame that restarts a chain without heap traffic too.
/// One-shot callers pass an empty map and pool and allocate both.
fn decode_full_body(
    body: &[u8],
    mut cur: &[u8],
    known: &IdMap<usize, Reconstruction>,
    pool: &mut StampPool,
) -> Result<Located, WireError> {
    let sender = take_uvar(&mut cur)? as usize;
    let seq = take_uvar(&mut cur)?;
    let r = take_uvar(&mut cur)? as usize;
    let k = take_uvar(&mut cur)? as usize;
    let set_id = u128::from_le_bytes(take_array(&mut cur)?);
    let space = KeySpace::new(r, k).map_err(|e| WireError::BadKeys(e.to_string()))?;
    let keys = match known.get(&sender) {
        Some(base) if base.keys.space() == space && base.keys.set_id() == set_id => {
            Rc::clone(&base.keys)
        }
        _ => Rc::new(
            KeySet::from_set_id(space, set_id).map_err(|e| WireError::BadKeys(e.to_string()))?,
        ),
    };
    // Every entry is at least one byte, so a frame too short for `R`
    // entries is refused before a stamp of that length is drawn.
    if cur.len() < r {
        return Err(WireError::Truncated);
    }
    // The payload is located inside the fill too, so any error behind
    // the draw hands the buffer back to the pool.
    let (stamp, payload) = pool.stamp_with(r, |entries| {
        for entry in entries {
            *entry = take_uvar(&mut cur)?;
        }
        take_len_prefixed(body, &mut cur)
    })?;
    Ok(Message::new(MessageId::new(ProcessId::new(sender), seq), keys, stamp, payload))
}

/// Decodes a standalone (full) frame.
///
/// # Errors
///
/// Any [`WireError`] on malformed input; decoding never panics. The
/// version byte is checked first (so foreign formats report
/// [`WireError::BadVersion`]), then the trailing checksum, then the body.
/// A *delta* frame is not standalone: it reports
/// [`WireError::MissingDeltaBase`] here — use [`DeltaDecoder`] (which
/// keeps per-sender reconstruction stamps) to decode delta streams.
pub fn decode(frame: Bytes) -> Result<Message<Bytes>, WireError> {
    let Opened { body, mut cur, epoch, delta } = open(&frame)?;
    if delta {
        let (sender, _, base_seq) = delta_header(&mut cur)?;
        return Err(WireError::MissingDeltaBase { sender, base_seq });
    }
    let located = decode_full_body(body, cur, &IdMap::default(), &mut StampPool::new())?;
    Ok(located.with_epoch(epoch).map(|at| narrowed(frame, at)))
}

/// Takes `(sender, seq, base_seq)` off a delta body whose header is
/// already behind the cursor, leaving it at the change list. The frame
/// carries `back = seq − base_seq`; a base that is the frame itself or
/// lies before sequence number 0 is refused.
fn delta_header(cur: &mut &[u8]) -> Result<(usize, u64, u64), WireError> {
    let sender = take_uvar(cur)? as usize;
    let seq = take_uvar(cur)?;
    let back = take_uvar(cur)?;
    if back == 0 || back > seq {
        return Err(WireError::BadDelta(format!("back {back} out of 1..={seq}")));
    }
    Ok((sender, seq, seq - back))
}

/// The largest Rice parameter: a value's remainder is at most a `u64`'s
/// 64 bits less one, since a parameter is `⌊log2 mean⌋` of `u64`s.
const MAX_PARAMETER: u64 = 63;

/// The Rice parameter of values summing to `sum` over `count > 0` of
/// them: `⌊log2 mean⌋`, or 0 when the mean is below 1 — the largest `k`
/// with `count · 2^k ≤ sum`, found without a 128-bit division. Below 64,
/// since every value fits a `u64`.
fn rice_parameter(sum: u128, count: usize) -> u32 {
    let count = count as u128;
    if sum < count {
        return 0;
    }
    let k = sum.ilog2() - count.ilog2();
    if count << k > sum {
        k - 1
    } else {
        k
    }
}

/// Writes bits low first into zeroed bytes, a register's worth at a time,
/// so no byte is read back while a write to it is still in flight.
struct BitSink<'a> {
    out: &'a mut [u8],
    /// Bytes written out so far, eight at a time.
    done: usize,
    /// The `len < 64` bits not yet written out.
    acc: u64,
    len: u32,
}

impl<'a> BitSink<'a> {
    fn new(out: &'a mut [u8]) -> Self {
        Self { out, done: 0, acc: 0, len: 0 }
    }

    /// Appends the `width ≤ ONE_LOAD_BITS` low bits of `value`; any bit
    /// above them must be clear.
    #[inline]
    fn put(&mut self, value: u64, width: u32) {
        self.acc |= value << self.len;
        self.len += width;
        if self.len >= 64 {
            self.flush_word();
            self.len -= 64;
            // The bits the shift above pushed out of the register.
            self.acc = value >> (width - self.len);
        }
    }

    /// Appends `q` zeros.
    #[inline]
    fn skip(&mut self, q: u64) {
        let mut left = q;
        while u64::from(self.len) + left >= 64 {
            left -= u64::from(64 - self.len);
            self.flush_word();
            self.acc = 0;
            self.len = 0;
        }
        self.len += left as u32;
    }

    fn flush_word(&mut self) {
        self.out[self.done..self.done + 8].copy_from_slice(&self.acc.to_le_bytes());
        self.done += 8;
    }

    /// Writes out the last bits; returns the bytes the stream took.
    fn finish(self) -> usize {
        let tail = self.len.div_ceil(8) as usize;
        self.out[self.done..self.done + tail].copy_from_slice(&self.acc.to_le_bytes()[..tail]);
        self.done + tail
    }
}

/// Appends the change list of `changed`, `(index, increase ≥ 1)` pairs
/// in index order: each change's gap (entries skipped since the previous
/// change) and rise (`increase − 1`) Golomb–Rice coded with the frame's
/// own parameters, remainders first at fixed offsets, then every
/// quotient in unary (module docs). Nothing for an empty list.
fn put_changes(buf: &mut BytesMut, changed: &[(usize, u64)]) {
    let Some(&(last, _)) = changed.last() else { return };
    let count = changed.len();
    // The gaps and the changes together cover entries 0..=last.
    let gaps = (last + 1 - count) as u128;
    let rises: u128 = changed.iter().map(|&(_, increase)| u128::from(increase - 1)).sum();
    let (k_gap, k_rise) = (rice_parameter(gaps, count), rice_parameter(rises, count));
    let coded = || {
        let mut next = 0;
        changed.iter().map(move |&(index, increase)| {
            let gap = (index - next) as u64;
            next = index + 1;
            (gap, increase - 1)
        })
    };
    // Each kind's quotients sum to below 2·count, since 2^(k + 1)
    // exceeds the mean: two stop bits and four quotient bits a change
    // bound the unary part.
    let start = buf.len();
    let most = (k_gap + k_rise + 2) as usize + count * (k_gap + k_rise + 6) as usize;
    buf.resize(start + most.div_ceil(8), 0);
    let mut bits = BitSink::new(&mut buf[start..]);
    for k in [k_gap, k_rise] {
        bits.skip(u64::from(k));
        bits.put(1, 1);
    }
    // The low `k ≤ 63` bits of `value`.
    let low = |value: u64, k: u32| value & ((1 << k) - 1);
    for (gap, rise) in coded() {
        if k_gap + k_rise <= ONE_LOAD_BITS {
            bits.put(low(gap, k_gap) | low(rise, k_rise) << k_gap, k_gap + k_rise);
        } else {
            for (value, k) in [(gap, k_gap), (rise, k_rise)] {
                let half = k.min(32);
                bits.put(low(value, half), half);
                bits.put(low(value, k) >> half, k - half);
            }
        }
    }
    for (gap, rise) in coded() {
        for q in [gap >> k_gap, rise >> k_rise] {
            bits.skip(q);
            bits.put(1, 1);
        }
    }
    let used = bits.finish();
    buf.truncate(start + used);
}

/// The eight bytes of `bytes` from byte `from` on, little-endian; bytes
/// past the end read as zero.
#[inline]
fn word_at(bytes: &[u8], from: usize) -> u64 {
    match bytes.get(from..from + 8) {
        Some(word) => u64::from_le_bytes(word.try_into().expect("8 bytes")),
        // Gathered byte by byte: a call here would cost the callers'
        // loops their registers.
        None => bytes.iter().skip(from).rev().fold(0, |word, &byte| word << 8 | u64::from(byte)),
    }
}

/// The widest field one [`word_at`] load always holds whole: a field
/// starts anywhere in its first byte.
const ONE_LOAD_BITS: u32 = 57;

/// The `width ≤ 64` bits of `bytes` from bit `at` on, low bit first: one
/// load up to `ONE_LOAD_BITS`, two past it.
fn bits_at(bytes: &[u8], at: usize, width: u32) -> u64 {
    let load = |at: usize, width: u32| (word_at(bytes, at / 8) >> (at % 8)) & ((1 << width) - 1);
    if width <= ONE_LOAD_BITS {
        load(at, width)
    } else {
        load(at, 32) | load(at + 32, width - 32) << 32
    }
}

/// The unary quotients of a change list, read a 64-bit word at a time:
/// each quotient ends at the word's lowest set bit, which is then
/// cleared.
struct Quotients<'a> {
    bytes: &'a [u8],
    /// Bit offset in `bytes` of `word`'s bit 0, a byte boundary.
    base: usize,
    /// The bits from `base` on that no quotient has consumed yet.
    word: u64,
    /// Bit offset where the next quotient's zeros start.
    next: usize,
}

impl<'a> Quotients<'a> {
    fn new(bytes: &'a [u8], start: usize) -> Self {
        let base = start / 8 * 8;
        let word = word_at(bytes, start / 8) >> (start % 8) << (start % 8);
        Self { bytes, base, word, next: start }
    }

    /// The next quotient: the zeros up to the next set bit; `None` when
    /// no set bit is left in `bytes`.
    #[inline]
    fn take(&mut self) -> Option<u64> {
        while self.word == 0 {
            self.base += 64;
            if self.base >= self.bytes.len() * 8 {
                return None;
            }
            self.word = word_at(self.bytes, self.base / 8);
        }
        let at = self.base + self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        let q = at - self.next;
        self.next = at + 1;
        Some(q as u64)
    }

    /// Bytes the change list took: up to its last stop bit, rounded up.
    fn bytes_read(&self) -> usize {
        self.next.div_ceil(8)
    }
}

/// A delta's change list, its parameters read and its size checked
/// against the bytes left, before any stamp is drawn for it.
#[derive(Clone, Copy)]
struct ChangeList {
    count: usize,
    k_gap: u32,
    k_rise: u32,
}

/// Why a change list does not apply — without the allocation a
/// [`WireError`]'s message needs, so the decode loop carries none.
enum Refusal {
    Truncated,
    IncreaseOverflow,
    PastR(u64),
    CounterOverflow,
}

impl Refusal {
    fn named(self, r: usize) -> WireError {
        let bad = |why: String| WireError::BadDelta(why);
        match self {
            Self::Truncated => WireError::Truncated,
            Self::IncreaseOverflow => bad("entry increase overflow".into()),
            Self::PastR(index) => bad(format!("entry {index} past R = {r}")),
            Self::CounterOverflow => bad("entry counter overflow".into()),
        }
    }
}

impl ChangeList {
    /// Reads the parameters of `count ≤ r` changes at the front of `list`.
    /// A gap parameter the encoder cannot have chosen — it is at most
    /// `⌊log2 R⌋`, a mean gap being below `R` — and a list that cannot
    /// fit the bytes left (every change takes its two remainders and two
    /// stop bits at least) refuse.
    fn open(list: &[u8], count: usize, r: usize) -> Result<Self, WireError> {
        if count == 0 {
            return Ok(Self { count, k_gap: 0, k_rise: 0 });
        }
        let mut params = Quotients::new(list, 0);
        let mut parameter = || match params.take() {
            None => Err(WireError::Truncated),
            Some(k) if k > MAX_PARAMETER => {
                Err(WireError::BadDelta(format!("rice parameter {k} past {MAX_PARAMETER}")))
            }
            Some(k) => Ok(k as u32),
        };
        let (k_gap, k_rise) = (parameter()?, parameter()?);
        if 1 << k_gap > r {
            return Err(WireError::BadDelta(format!("gap parameter {k_gap} for R = {r}")));
        }
        let least = (k_gap + k_rise + 2) as usize + count * (k_gap + k_rise + 2) as usize;
        if least > list.len() * 8 {
            return Err(WireError::Truncated);
        }
        Ok(Self { count, k_gap, k_rise })
    }

    /// Adds each change's increase to its entry of `entries`; returns the
    /// bytes of `list` the changes took.
    #[inline]
    fn apply(self, list: &[u8], entries: &mut [u64]) -> Result<usize, Refusal> {
        let width = (self.k_gap + self.k_rise) as usize;
        // The last change's remainders start at bit 2 + (count − 1) · width.
        let last_load = (2 + self.count * width) / 8 + 8;
        if width <= ONE_LOAD_BITS as usize && last_load <= list.len() {
            self.apply_with::<true>(list, entries)
        } else {
            self.apply_with::<false>(list, entries)
        }
    }

    /// [`ChangeList::apply`], compiled once for the common list (`FAST`),
    /// whose two remainders share one load and whose remainder block
    /// ends at least eight bytes before the frame does, so no load runs
    /// off the end, and once for every other list.
    #[inline]
    fn apply_with<const FAST: bool>(
        self,
        list: &[u8],
        entries: &mut [u64],
    ) -> Result<usize, Refusal> {
        let Self { count, k_gap, k_rise } = self;
        if count == 0 {
            return Ok(0);
        }
        let width = (k_gap + k_rise) as usize;
        // Remainders start behind the two parameters' unary codes.
        let mut at = width + 2;
        let mut unary = Quotients::new(list, at + count * width);
        let rise_limit = u64::MAX >> k_rise;
        let (gap_scale, rise_scale) = (1 << k_gap, 1 << k_rise);
        // Index of the next entry a zero gap would name.
        let mut next = 0u64;
        // The reader's state stays in locals through the loop: a change's
        // two stop bits are nearly always both in the word at hand, and
        // only when they are not does the state go through `unary`, one
        // quotient at a time. Kept in `unary` throughout, it stayed in
        // memory and cost the loop a sixth of its time.
        let (mut word, mut base, mut stop) = (unary.word, unary.base, unary.next);
        let (mut ahead, mut held) = (0u64, 0usize);
        for _ in 0..count {
            let rest = word & word.wrapping_sub(1);
            let (gap_q, rise_q) = if rest != 0 {
                let gap_stop = base + word.trailing_zeros() as usize;
                let rise_stop = base + rest.trailing_zeros() as usize;
                word = rest & (rest - 1);
                let pair = ((gap_stop - stop) as u64, (rise_stop - gap_stop - 1) as u64);
                stop = rise_stop + 1;
                pair
            } else {
                (unary.word, unary.base, unary.next) = (word, base, stop);
                let pair = (unary.take(), unary.take());
                (word, base, stop) = (unary.word, unary.base, unary.next);
                (pair.0.ok_or(Refusal::Truncated)?, pair.1.ok_or(Refusal::Truncated)?)
            };
            let (gap_low, rise_low) = if FAST {
                // Remainders are read ahead, 57 bits or more per load.
                if held < width {
                    let bytes = &list[at / 8..at / 8 + 8];
                    ahead = u64::from_le_bytes(bytes.try_into().expect("8 bytes")) >> (at % 8);
                    held = 64 - at % 8;
                }
                let lows = ahead & ((1 << width) - 1);
                ahead >>= width;
                held -= width;
                (lows & ((1 << k_gap) - 1), lows >> k_gap)
            } else {
                let rise_at = at + k_gap as usize;
                (bits_at(list, at, k_gap), bits_at(list, rise_at, k_rise))
            };
            at += width;
            if rise_q > rise_limit {
                return Err(Refusal::IncreaseOverflow);
            }
            // `R` is at most `KeySpace::MAX_R` = 2¹¹, and so is `2^k_gap`:
            // with a quotient below the list's length in bits the index
            // cannot overflow, and one past `R` is refused below.
            let index = next + gap_q * gap_scale + gap_low;
            let rise = rise_q * rise_scale + rise_low;
            let Some(entry) = entries.get_mut(index as usize) else {
                return Err(Refusal::PastR(index));
            };
            // `entry + rise + 1` fits a `u64` exactly when this holds.
            if rise >= !*entry {
                return Err(if rise == u64::MAX {
                    Refusal::IncreaseOverflow
                } else {
                    Refusal::CounterOverflow
                });
            }
            *entry += rise + 1;
            next = index + 1;
        }
        unary.next = stop;
        Ok(unary.bytes_read())
    }
}

/// Per-sender stateful encoder producing delta chains.
///
/// One encoder per sending process. Each call diffs the outgoing stamp
/// against the previous frame's stamp and ships only the changed entries
/// — amortized `K` varints instead of `R`. A standalone full frame is
/// emitted only where a chain starts: for the first message, after
/// [`DeltaEncoder::force_full`], on a change of config epoch, whenever
/// the stamp or the sequence number regressed (a crash-restore replay),
/// and whenever a delta could be larger than the full frame (see
/// `FULL_FLOOR`). Nothing restarts the chain on a schedule: resync is
/// the owner's call, made where it knows a receiver lost the base — the
/// daemon's link fence, or a [`ListWriter`]'s budget.
#[derive(Debug, Clone, Default)]
pub struct DeltaEncoder {
    last: Option<(u64, Timestamp)>,
    /// Config epoch of the `last` base stamp. A delta is only sound
    /// against a base of the same epoch (the geometry may differ), so an
    /// epoch change forces the next frame full.
    last_epoch: u64,
    fulls: u64,
    deltas: u64,
    /// Changed-entry list reused across frames, so the steady-state diff
    /// pass allocates nothing once it has grown to the working set.
    scratch: Vec<(usize, u64)>,
}

impl DeltaEncoder {
    /// Forces the next frame to be a standalone full frame. Call after
    /// restoring from a snapshot (the replayed stamp may regress) or when
    /// a receiver lost the chain (a fenced link).
    pub fn force_full(&mut self) {
        self.last = None;
    }

    /// Encodes the sender's next message, choosing delta or full.
    #[must_use]
    pub fn encode<P: Payload>(&mut self, message: &Message<P>) -> Bytes {
        let ts = message.timestamp();
        if self.last_epoch == message.epoch() {
            if let Some((base_seq, base)) = &self.last {
                if let Some(frame) = encode_delta(message, *base_seq, base, &mut self.scratch) {
                    self.deltas += 1;
                    self.last = Some((message.id().seq(), ts.clone()));
                    return frame;
                }
            }
        }
        self.fulls += 1;
        self.last = Some((message.id().seq(), ts.clone()));
        self.last_epoch = message.epoch();
        encode_full(message)
    }

    /// Standalone full frames emitted so far.
    #[must_use]
    pub fn fulls_emitted(&self) -> u64 {
        self.fulls
    }

    /// Delta frames emitted so far.
    #[must_use]
    pub fn deltas_emitted(&self) -> u64 {
        self.deltas
    }
}

/// What a full frame spends, beyond one byte per entry, that a delta does
/// not: `uvar R` and `uvar K` (a byte each at least) and the 16-byte
/// `set_id`. Both kinds share the header, sender, seq, payload and
/// checksum, so a delta whose `back`, `count` and change list fit in
/// `R + FULL_FLOOR` bytes is never the larger frame. A change costs its
/// remainders, two stop bits and its quotients — a byte or less until
/// its rise reaches the hundreds — so deltas fit up to all `R` entries
/// changed, and only a list of large rises falls back.
/// `tests::delta_fallback_is_sized_against_the_full_frame` pins both
/// sides.
const FULL_FLOOR: usize = 18;

/// Encodes `message` as a delta against `(base_seq, base)`, or `None` if
/// a delta is impossible (length mismatch, regressed entries, a
/// sequence number not past the base) or could outgrow the full frame.
/// `changed` is caller scratch, overwritten here and reused across
/// frames.
fn encode_delta<P: Payload>(
    message: &Message<P>,
    base_seq: u64,
    base: &Timestamp,
    changed: &mut Vec<(usize, u64)>,
) -> Option<Bytes> {
    let ts = message.timestamp();
    let seq = message.id().seq();
    if ts.len() != base.len() || seq <= base_seq {
        return None;
    }
    changed.clear();
    for (i, (&new, &old)) in ts.entries().iter().zip(base.entries()).enumerate() {
        if new < old {
            return None; // stamp regressed; only a full frame is sound
        }
        if new > old {
            changed.push((i, new - old));
        }
    }
    let mut buf = BytesMut::with_capacity(32 + changed.len() * 4 + message.payload().wire_len());
    put_header(&mut buf, message.epoch(), KIND_DELTA);
    put_uvar(&mut buf, message.sender().index() as u64);
    put_uvar(&mut buf, seq);
    let own = buf.len();
    put_uvar(&mut buf, seq - base_seq);
    put_uvar(&mut buf, changed.len() as u64);
    put_changes(&mut buf, changed);
    if buf.len() - own > ts.len() + FULL_FLOOR {
        return None;
    }
    put_uvar(&mut buf, message.payload().wire_len() as u64);
    message.payload().put(&mut buf);
    Some(seal(buf))
}

/// Per-sender reconstruction stamp: the last decoded frame's identity,
/// timestamp, and key set for one sender.
#[derive(Debug, Clone)]
struct Reconstruction {
    seq: u64,
    epoch: u64,
    stamp: Timestamp,
    keys: Rc<KeySet>,
}

/// Stateful decoder for delta chains (also accepts full frames, which
/// refresh its per-sender reconstruction stamps).
///
/// Correctness does not depend on arrival order: the stamp attached to a
/// given `(sender, seq)` is unique, so any stored stamp whose `seq`
/// matches a delta's `base_seq` reconstructs the exact original vector.
/// A delta whose base is unknown fails with
/// [`WireError::MissingDeltaBase`] and leaves the decoder state
/// untouched; the caller re-fetches a full frame.
///
/// The sender id of a frame is whatever its bytes claim, so the decoder
/// tracks at most [`DeltaDecoder::MAX_TRACKED_SENDERS`] of them: past the
/// cap a full frame from a new sender still decodes, it just seeds no
/// base, and that sender's deltas take the `MissingDeltaBase` path.
///
/// `P` is the [`Payload`] type it decodes into; the state is the same
/// for every `P`.
#[derive(Debug, Clone)]
pub struct DeltaDecoder<P = Bytes> {
    stamps: IdMap<usize, Reconstruction>,
    payload: PhantomData<fn() -> P>,
}

impl<P> Default for DeltaDecoder<P> {
    fn default() -> Self {
        Self { stamps: IdMap::default(), payload: PhantomData }
    }
}

impl DeltaDecoder {
    /// Most senders with a live reconstruction stamp (one `R`-entry
    /// stamp each): what forged sender ids can make a decoder hold.
    pub const MAX_TRACKED_SENDERS: usize = 4096;

    /// A decoder of `Bytes` payloads with no reconstruction state (a
    /// late joiner); [`Default`] makes one for any payload type.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl<P> DeltaDecoder<P> {
    /// Number of senders with a live reconstruction stamp.
    #[must_use]
    pub fn tracked_senders(&self) -> usize {
        self.stamps.len()
    }

    /// Decodes any frame, full or delta, updating the sender's
    /// reconstruction stamp on success.
    ///
    /// # Errors
    ///
    /// Any [`WireError`]; notably [`WireError::MissingDeltaBase`] for a
    /// delta whose base stamp this decoder has never seen.
    pub fn decode(&mut self, frame: Bytes) -> Result<Message<P>, WireError>
    where
        P: Payload,
    {
        self.decode_pooled(frame, &mut StampPool::new())
    }

    /// [`DeltaDecoder::decode`] with the decoded stamp drawn from `pool`:
    /// a warm pool (fed by whoever retires old stamps, e.g.
    /// [`crate::recovery::MessageStore`] eviction) makes the steady-state
    /// decode path allocation-free. Behaviour is otherwise identical —
    /// the pool only changes where the stamp's storage comes from.
    ///
    /// # Errors
    ///
    /// Exactly as [`DeltaDecoder::decode`].
    pub fn decode_pooled(
        &mut self,
        frame: Bytes,
        pool: &mut StampPool,
    ) -> Result<Message<P>, WireError>
    where
        P: Payload,
    {
        let Opened { body, cur, epoch, delta } = open(&frame)?;
        let located = if delta {
            self.decode_delta_body(body, cur, epoch, pool)?
        } else {
            let full = decode_full_body(body, cur, &self.stamps, pool)?.with_epoch(epoch);
            self.seed(&full);
            full
        };
        // The one cut: the frame handle we own becomes the payload.
        let payload = P::take(frame, located.payload().clone())?;
        Ok(located.map(|_| payload))
    }

    /// Records a full frame's stamp as its sender's reconstruction base
    /// (a sender past the cap seeds none).
    fn seed(&mut self, message: &Located) {
        let sender = message.sender().index();
        if self.stamps.len() >= DeltaDecoder::MAX_TRACKED_SENDERS
            && !self.stamps.contains_key(&sender)
        {
            return;
        }
        self.stamps.insert(
            sender,
            Reconstruction {
                seq: message.id().seq(),
                epoch: message.epoch(),
                stamp: message.timestamp().clone(),
                keys: message.keys_shared(),
            },
        );
    }

    /// Reconstructs the delta whose `(sender, seq, base_seq)` header
    /// starts `cur`, the unread suffix of `body`, against the sender's
    /// stored base, and
    /// advances that base to the new frame in place. The base must match
    /// both `base_seq` *and* the frame's config `epoch` — a cross-epoch
    /// delta refuses with [`WireError::MissingDeltaBase`], state untouched,
    /// exactly like an unknown base: the full-frame refetch path covers
    /// both.
    fn decode_delta_body(
        &mut self,
        body: &[u8],
        mut cur: &[u8],
        epoch: u64,
        pool: &mut StampPool,
    ) -> Result<Located, WireError> {
        let (sender, seq, base_seq) = delta_header(&mut cur)?;
        let base = self
            .stamps
            .get_mut(&sender)
            .filter(|base| base.seq == base_seq && base.epoch == epoch)
            .ok_or(WireError::MissingDeltaBase { sender, base_seq })?;
        let r = base.stamp.len();
        let count = take_uvar(&mut cur)? as usize;
        if count > r {
            return Err(WireError::BadDelta(format!("{count} changes for R = {r}")));
        }
        let list = ChangeList::open(cur, count, r)?;
        // One copy of the base into a pooled stamp, increments applied
        // where they land; any error hands the buffer back to the pool.
        let (stamp, payload) = pool.stamp_with(r, |entries| {
            entries.copy_from_slice(base.stamp.entries());
            let read = list.apply(cur, entries).map_err(|refusal| refusal.named(r))?;
            cur = &cur[read..];
            take_len_prefixed(body, &mut cur)
        })?;
        base.seq = seq;
        base.stamp = stamp.clone();
        Ok(Message::new(
            MessageId::new(ProcessId::new(sender), seq),
            Rc::clone(&base.keys),
            stamp,
            payload,
        )
        .with_epoch(epoch))
    }

    /// Drops every reconstruction stamp, returning the decoder to the
    /// late-joiner state: the next delta from any sender fails with
    /// [`WireError::MissingDeltaBase`] until a full frame re-primes it.
    /// Called across a crash-restore — pre-crash bases must never
    /// reconstruct post-restore deltas.
    pub fn clear(&mut self) {
        self.stamps.clear();
    }
}

/// Stamp entries a list may decode into per byte of its frames: the
/// bound [`ListReader`] enforces and [`ListWriter`] keeps to.
///
/// A full frame pays at least one byte per entry; a delta names only
/// what changed, so a 15-byte delta against an `R`-entry base decodes
/// into `R` entries — 16 KiB at `KeySpace::MAX_R`. Without a bound, one
/// `MAX_R` full frame and a thousand minimal deltas behind it would claim
/// 16 MB from 17 KB. At six entries a byte, the stamps a list decodes
/// into take at most 6 × 8 = 48 heap bytes per input byte, which leaves
/// 16 of the 64 bytes per input byte the decoders are held to
/// (`bench/tests/{step,frame}_fuzz.rs`) for what each message costs
/// beside its entries: the shared stamp's header (40 B) and its slot in
/// the caller's list, over at least 15 bytes of frame. An honest list
/// stays far below it: a delta in a sync reply at `R = 100` carries
/// ≈ 3.4 entries a byte, and a full frame under one.
pub const LIST_ENTRIES_PER_BYTE: u64 = 6;

/// Stamp entries decoded against frame bytes read, over one list.
#[derive(Debug, Clone, Copy, Default)]
struct ListBudget {
    entries: u64,
    bytes: u64,
}

impl ListBudget {
    /// Whether a frame of `len` bytes decoding into `r` entries keeps the
    /// list within [`LIST_ENTRIES_PER_BYTE`]. A full frame always does,
    /// once the list before it did: it pays at least a byte per entry.
    fn admits(self, r: usize, len: usize) -> bool {
        self.entries + r as u64 <= LIST_ENTRIES_PER_BYTE * (self.bytes + len as u64)
    }

    fn spend(&mut self, r: usize, len: usize) {
        self.entries += r as u64;
        self.bytes += len as u64;
    }
}

/// Writes one self-contained list of messages — a sync reply, a
/// snapshot's store — as per-sender delta chains.
///
/// A sender's first message in the list is a full frame; each later one
/// is a delta against that sender's previous message in the same list,
/// unless [`DeltaEncoder`] falls back to full (a regressed stamp or
/// sequence number, another epoch) or the delta would take the list past
/// [`LIST_ENTRIES_PER_BYTE`]. A [`ListReader`] with no other state
/// decodes the frames in the order they were written. The caller frames
/// them (a length prefix each) and keeps whatever rides beside them.
#[derive(Debug, Default)]
pub struct ListWriter {
    /// One chain per sender, at most [`DeltaDecoder::MAX_TRACKED_SENDERS`]
    /// of them (what a reader keeps bases for); past that a new sender's
    /// messages are all full frames.
    chains: IdMap<usize, DeltaEncoder>,
    budget: ListBudget,
}

impl ListWriter {
    /// The frame that carries `message` as the list's next entry.
    #[must_use]
    pub fn encode<P: Payload>(&mut self, message: &Message<P>) -> Bytes {
        let sender = message.sender().index();
        let r = message.timestamp().len();
        let frame = if self.chains.len() < DeltaDecoder::MAX_TRACKED_SENDERS
            || self.chains.contains_key(&sender)
        {
            let chain = self.chains.entry(sender).or_default();
            let frame = chain.encode(message);
            if self.budget.admits(r, frame.len()) {
                frame
            } else {
                chain.force_full();
                chain.encode(message)
            }
        } else {
            encode_full(message)
        };
        self.budget.spend(r, frame.len());
        frame
    }
}

/// Reads one list a [`ListWriter`] wrote, frame by frame, in order.
///
/// A fresh reader holds no base, so a delta whose sender has no earlier
/// frame in the list fails with [`WireError::MissingDeltaBase`], and no
/// state crosses lists: a lost, repeated or reordered list cannot
/// desynchronise another. The reader refuses, with
/// [`WireError::BadDelta`], the frame that takes the list past
/// [`LIST_ENTRIES_PER_BYTE`] stamp entries per frame byte.
#[derive(Debug)]
pub struct ListReader<P = Bytes> {
    decoder: DeltaDecoder<P>,
    budget: ListBudget,
}

impl<P> Default for ListReader<P> {
    fn default() -> Self {
        Self { decoder: DeltaDecoder::default(), budget: ListBudget::default() }
    }
}

impl<P: Payload> ListReader<P> {
    /// Decodes the list's next frame.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] the frame earns from a [`DeltaDecoder`], and
    /// [`WireError::BadDelta`] past the list's entry budget.
    pub fn decode(&mut self, frame: Bytes) -> Result<Message<P>, WireError> {
        let len = frame.len();
        let message = self.decoder.decode(frame)?;
        let r = message.timestamp().len();
        if !self.budget.admits(r, len) {
            return Err(WireError::BadDelta(format!(
                "list past {LIST_ENTRIES_PER_BYTE} stamp entries per byte"
            )));
        }
        self.budget.spend(r, len);
        Ok(message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcb_clock::{AssignmentPolicy, KeyAssigner};

    fn sample(payload: &'static [u8]) -> Message<Bytes> {
        let space = KeySpace::new(100, 4).unwrap();
        let mut assigner = KeyAssigner::new(space, AssignmentPolicy::UniformRandom, 5);
        let keys = assigner.next_set().unwrap();
        let mut process = crate::PcbProcess::new(ProcessId::new(3), keys);
        for _ in 0..9 {
            let _ = process.broadcast(Bytes::new());
        }
        process.broadcast(Bytes::from_static(payload))
    }

    /// A full frame's bytes other than the payload: the control
    /// information Figures 3–6 are ultimately about.
    fn control_bytes(message: &Message<Bytes>) -> usize {
        encode_full(message).len() - message.payload().len()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let original = sample(b"hello wire");
        let decoded = decode(encode_full(&original)).unwrap();
        assert_eq!(decoded.id(), original.id());
        assert_eq!(decoded.keys(), original.keys());
        assert_eq!(decoded.timestamp(), original.timestamp());
        assert_eq!(decoded.payload(), original.payload());
    }

    #[test]
    fn empty_payload_roundtrips() {
        let original = sample(b"");
        let decoded = decode(encode_full(&original)).unwrap();
        assert_eq!(decoded.payload().len(), 0);
    }

    #[test]
    fn fresh_clock_stamp_is_one_byte_per_entry() {
        // Early in a run, every counter is < 128: the encoded stamp is
        // R bytes + small header, far below the fixed 8·R accounting.
        let size = control_bytes(&sample(b""));
        assert!(size < 100 + 40, "control size {size} should be ≈ R + header for small counters");
        assert!(size > 100, "must still carry all R entries");
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(matches!(decode(Bytes::new()), Err(WireError::Truncated)));
        assert!(matches!(decode(Bytes::from_static(&[9, 0, 0])), Err(WireError::BadVersion(9))));
        // Truncated mid-set-id.
        let m = sample(b"x");
        let full = encode_full(&m);
        let cut = full.slice(0..8);
        assert!(matches!(decode(cut), Err(WireError::Truncated)));
    }

    #[test]
    fn retired_versions_refuse_before_the_checksum() {
        // Bytes 2 (the old full-only frame), 3 (two varints per delta
        // change, and `base_seq` itself), 4 (the old epoch frame) and 5
        // (one byte per delta change) are foreign formats now, whatever
        // follows and however sealed.
        let frame = encode_full(&sample(b"old"));
        for version in [2u8, 3, 4, 5] {
            let mut old = frame.to_vec();
            old[0] = version;
            let mut resealed = BytesMut::new();
            resealed.put_slice(&old[..old.len() - CHECKSUM_LEN]);
            for bytes in [Bytes::from(old), seal(resealed)] {
                assert_eq!(decode(bytes.clone()).unwrap_err(), WireError::BadVersion(version));
                let mut decoder = DeltaDecoder::new();
                assert_eq!(decoder.decode(bytes).unwrap_err(), WireError::BadVersion(version));
            }
        }
    }

    #[test]
    fn decode_rejects_bad_keyspace() {
        let mut buf = BytesMut::new();
        put_header(&mut buf, 0, KIND_FULL);
        put_uvar(&mut buf, 0); // sender
        put_uvar(&mut buf, 1); // seq
        put_uvar(&mut buf, 4); // r
        put_uvar(&mut buf, 9); // k > r
        buf.put_u128_le(0);
        let err = decode(seal(buf)).unwrap_err();
        assert!(matches!(err, WireError::BadKeys(_)));
    }

    #[test]
    fn decode_rejects_out_of_range_set_id() {
        let mut buf = BytesMut::new();
        put_header(&mut buf, 0, KIND_FULL);
        put_uvar(&mut buf, 0);
        put_uvar(&mut buf, 1);
        put_uvar(&mut buf, 4); // r
        put_uvar(&mut buf, 2); // k -> C(4,2) = 6 sets
        buf.put_u128_le(6); // out of range
        for _ in 0..4 {
            put_uvar(&mut buf, 0);
        }
        put_uvar(&mut buf, 0);
        let err = decode(seal(buf)).unwrap_err();
        assert!(matches!(err, WireError::BadKeys(_)));
    }

    #[test]
    fn varint_boundaries() {
        // Either side of every length change, through both sinks.
        for (v, len) in [
            (0u64, 1),
            (1, 1),
            (127, 1),
            (128, 2),
            ((1 << 14) - 1, 2),
            (1 << 14, 3),
            (u64::MAX >> 1, 9),
            (u64::MAX, 10),
        ] {
            let mut buf = BytesMut::new();
            put_uvar(&mut buf, v);
            let mut vec = Vec::new();
            put_uvar(&mut vec, v);
            assert_eq!(&buf[..], &vec[..]);
            assert_eq!(vec.len(), len, "{v} takes {len} bytes");
            vec.push(0xEE);
            let mut cur = &vec[..];
            assert_eq!(take_uvar(&mut cur), Ok(v));
            assert_eq!(cur, [0xEE], "the cursor stops right behind the varint");
        }
    }

    #[test]
    fn frame_freeze_is_zero_copy() {
        // Sealing a frame must adopt the build buffer's allocation, and
        // fanning the frame out (clone per receiver) must share it: the
        // visible bytes keep one address through the whole chain.
        let mut buf = BytesMut::with_capacity(64);
        buf.put_slice(b"frame body bytes");
        let built_at = buf.as_ptr();
        let sealed = seal(buf);
        assert_eq!(sealed.as_ptr(), built_at, "freeze must not copy the frame");
        let fanned_out = sealed.clone();
        assert_eq!(fanned_out.as_ptr(), sealed.as_ptr(), "clones must share storage");
        assert_eq!(fanned_out.len(), sealed.len());
    }

    #[test]
    fn varint_overflow_detected() {
        // 10 continuation bytes push past 64 bits.
        assert_eq!(take_uvar(&mut &[0xFF; 11][..]), Err(WireError::VarintOverflow));
    }

    #[test]
    fn varint_rejects_truncated_continuation() {
        // Every byte promises another, then the input ends — the last
        // byte of the input carries a continuation bit.
        assert_eq!(take_uvar(&mut &[][..]), Err(WireError::Truncated));
        for len in 1..=9usize {
            assert_eq!(take_uvar(&mut &[0x80u8; 9][..len]), Err(WireError::Truncated), "len {len}");
        }
        assert_eq!(take_uvar(&mut &[0x05, 0x80][1..]), Err(WireError::Truncated));
    }

    #[test]
    fn varint_rejects_overlong_tenth_byte() {
        // Nine continuation bytes consume 63 bits; the tenth byte may
        // carry only the final bit. The old decoder silently dropped the
        // upper bits here, decoding [0x80×9, 0x02] as 0.
        let overlong = [&[0x80u8; 9][..], &[0x02]].concat();
        assert_eq!(take_uvar(&mut &overlong[..]), Err(WireError::VarintOverflow));
        // 0x01 in the tenth byte is legal: it is u64's top bit.
        let max = [&[0xFFu8; 9][..], &[0x01]].concat();
        assert_eq!(take_uvar(&mut &max[..]), Ok(u64::MAX));
    }

    #[test]
    fn varint_rejects_high_bit_set_final_byte() {
        // Tenth byte keeps the continuation bit set: the value never
        // terminates inside 64 bits.
        let endless = [&[0x80u8; 9][..], &[0x81]].concat();
        assert_eq!(take_uvar(&mut &endless[..]), Err(WireError::VarintOverflow));
    }

    #[test]
    fn varint_accepts_padded_encodings_like_the_parent() {
        // LEB128 does not forbid leading-zero groups and neither decoder
        // ever did: 0x80 0x00 is 0. Pinned so the fast path cannot start
        // refusing what the general path accepts.
        assert_eq!(take_uvar(&mut &[0x80, 0x00][..]), Ok(0));
        assert_eq!(take_uvar(&mut &[0xFF, 0x80, 0x00][..]), Ok(127));
    }

    #[test]
    fn len_prefixed_ranges_index_the_body_and_narrowing_keeps_the_storage() {
        let body = [9u8, 9, 3, b'a', b'b', b'c', 7];
        let mut cur = &body[2..];
        let at = take_len_prefixed(&body, &mut cur).unwrap();
        assert_eq!(at, 3..6);
        assert_eq!(cur, [7], "the cursor moves past the bytes it located");
        // A length the input does not pay for is refused, nothing sliced.
        assert_eq!(take_len_prefixed(&body, &mut &body[6..]), Err(WireError::Truncated));
        assert_eq!(take_array::<2>(&mut &body[6..]), Err(WireError::Truncated));
        let owned = Bytes::from(body.to_vec());
        let base = owned.as_ptr();
        let cut = narrowed(owned, at);
        assert_eq!(&cut[..], b"abc");
        assert_eq!(cut.as_ptr(), base.wrapping_add(3), "narrowing never copies");
    }

    #[test]
    fn a_body_shorter_than_its_header_is_truncated_not_a_panic() {
        // Sealed bodies that end at the version byte, inside the tag, or
        // right behind it (full and delta).
        let v = FRAME_VERSION;
        for body in [&[v][..], &[v, 0x80], &[v, 0], &[v, 1]] {
            let mut buf = BytesMut::new();
            buf.put_slice(body);
            let frame = seal(buf);
            assert_eq!(decode(frame.clone()).unwrap_err(), WireError::Truncated, "{body:?}");
            let delta = DeltaDecoder::new().decode(frame).unwrap_err();
            assert_eq!(delta, WireError::Truncated, "{body:?}");
        }
    }

    #[test]
    fn decode_surfaces_varint_overflow_in_header() {
        // A frame whose seq field is an overlong varint must error, not
        // silently decode a truncated sequence number.
        let mut buf = BytesMut::new();
        put_header(&mut buf, 0, KIND_FULL);
        put_uvar(&mut buf, 0); // sender
        buf.put_slice(&[0xFF; 9]);
        buf.put_u8(0x7F); // seq: ten bytes, junk in the tenth
        let err = decode(seal(buf)).unwrap_err();
        assert_eq!(err, WireError::VarintOverflow);
    }

    #[test]
    fn any_single_byte_substitution_is_rejected() {
        // The checksum step is a bijection per word position, so every
        // substitution must surface as an error (checksum mismatch, or
        // bad-version for byte 0) — never decode as a different message.
        let frame = encode_full(&sample(b"chaos payload"));
        for i in 0..frame.len() {
            for delta in [0x01u8, 0x80, 0xFF] {
                let mut bytes = frame.to_vec();
                bytes[i] ^= delta;
                assert!(
                    decode(Bytes::from(bytes)).is_err(),
                    "substitution at byte {i} (xor {delta:#04x}) must be rejected"
                );
            }
        }
    }

    #[test]
    fn truncation_at_every_length_is_rejected() {
        let frame = encode_full(&sample(b"abc"));
        for len in 0..frame.len() {
            assert!(decode(frame.slice(0..len)).is_err(), "prefix of {len} bytes must fail");
        }
        assert!(decode(frame).is_ok());
    }

    #[test]
    fn wire_size_beats_fixed_accounting_and_vector_clocks() {
        let m = sample(b"");
        let encoded = control_bytes(&m);
        // Fixed accounting: 8 bytes × 100 entries + ids.
        assert!(encoded < m.control_overhead());
        // A vector clock for N = 1000 would be ≥ 1000 bytes even varint-encoded.
        assert!(encoded < 1000);
    }

    /// A stream of `n` messages from one sender whose clock also absorbs
    /// deliveries (so deltas touch more than the sender's own keys).
    fn stream(n: usize) -> Vec<Message<Bytes>> {
        let space = KeySpace::new(100, 4).unwrap();
        let mut assigner = KeyAssigner::new(space, AssignmentPolicy::UniformRandom, 7);
        let keys_a = assigner.next_set().unwrap();
        let keys_b = assigner.next_set().unwrap();
        let mut a = crate::PcbProcess::new(ProcessId::new(0), keys_a);
        let mut b = crate::PcbProcess::new(ProcessId::new(1), keys_b);
        (0..n)
            .map(|i| {
                if i % 3 == 2 {
                    // Interleave a delivery so a's next stamp moves
                    // entries outside its own key set too.
                    let m = b.broadcast(Bytes::new());
                    let _ = a.on_receive(m, i as u64);
                }
                a.broadcast(Bytes::from(vec![i as u8; i % 5]))
            })
            .collect()
    }

    /// The `epoch · 2 + kind` tag behind a frame's version byte.
    fn tag(frame: &[u8]) -> u64 {
        take_uvar(&mut &frame[1..]).unwrap()
    }

    fn kind(frame: &[u8]) -> u64 {
        tag(frame) & 1
    }

    fn assert_same(decoded: &Message<Bytes>, original: &Message<Bytes>) {
        assert_eq!(decoded.id(), original.id());
        assert_eq!(decoded.keys(), original.keys());
        assert_eq!(decoded.timestamp(), original.timestamp());
        assert_eq!(decoded.payload(), original.payload());
    }

    #[test]
    fn full_frame_is_standalone() {
        let original = sample(b"standalone");
        let decoded = decode(encode_full(&original)).unwrap();
        assert_same(&decoded, &original);
        let mut fresh = DeltaDecoder::new();
        assert_same(&fresh.decode(encode_full(&original)).unwrap(), &original);
    }

    #[test]
    fn delta_chain_roundtrips_and_shrinks() {
        let originals = stream(60);
        let mut enc = DeltaEncoder::default();
        let mut dec = DeltaDecoder::new();
        let full_len = encode_full(&originals[5]).len();
        for original in &originals {
            let frame = enc.encode(original);
            if kind(&frame) == KIND_DELTA {
                assert!(
                    frame.len() < full_len / 2,
                    "delta frame ({} B) should be far below full ({full_len} B)",
                    frame.len()
                );
            }
            assert_same(&dec.decode(frame).unwrap(), original);
        }
        assert_eq!(enc.fulls_emitted(), 1, "nothing but the first frame starts the chain");
        assert_eq!(enc.deltas_emitted(), 59);
        assert_eq!(dec.tracked_senders(), 1);
    }

    #[test]
    fn clear_forces_missing_delta_base() {
        let originals = stream(6);
        let mut enc = DeltaEncoder::default();
        let mut dec = DeltaDecoder::new();
        for original in &originals[..4] {
            assert_same(&dec.decode(enc.encode(original)).unwrap(), original);
        }
        dec.clear();
        assert_eq!(dec.tracked_senders(), 0);
        // The next delta must refuse — its base died with the clear.
        let delta = enc.encode(&originals[4]);
        assert_eq!(kind(&delta), KIND_DELTA, "the encoder keeps emitting deltas");
        assert!(matches!(dec.decode(delta), Err(WireError::MissingDeltaBase { .. })));
        // A full frame re-primes the chain.
        assert_same(&dec.decode(encode_full(&originals[5])).unwrap(), &originals[5]);
    }

    #[test]
    fn late_joiner_recovers_via_full_frame() {
        let originals = stream(10);
        let mut enc = DeltaEncoder::default();
        let frames: Vec<Bytes> = originals.iter().map(|m| enc.encode(m)).collect();
        // A late joiner misses the first full frame and sees only deltas.
        let mut dec = DeltaDecoder::new();
        let err = dec.decode(frames[4].clone()).unwrap_err();
        assert!(
            matches!(err, WireError::MissingDeltaBase { sender: 0, base_seq } if base_seq == 4),
            "got {err:?}"
        );
        assert_eq!(dec.tracked_senders(), 0, "a failed delta must not corrupt state");
        // Anti-entropy re-serves the message as a standalone full frame …
        assert_same(&dec.decode(encode_full(&originals[4]).clone()).unwrap(), &originals[4]);
        // … and the live delta stream resumes from there.
        for (original, frame) in originals.iter().zip(&frames).skip(5) {
            assert_same(&dec.decode(frame.clone()).unwrap(), original);
        }
    }

    #[test]
    fn force_full_restarts_the_chain() {
        let originals = stream(6);
        let mut enc = DeltaEncoder::default();
        let _ = enc.encode(&originals[0]);
        let _ = enc.encode(&originals[1]);
        enc.force_full();
        let frame = enc.encode(&originals[2]);
        assert_eq!(kind(&frame), KIND_FULL, "force_full must emit a standalone frame");
        assert_eq!(enc.fulls_emitted(), 2);
    }

    #[test]
    fn regressed_stamp_falls_back_to_full() {
        // A crash-restore can replay an older stamp; a delta would need a
        // negative increase, so the encoder must emit a full frame.
        let originals = stream(6);
        let mut enc = DeltaEncoder::default();
        let _ = enc.encode(&originals[5]);
        let frame = enc.encode(&originals[0]);
        assert_eq!(kind(&frame), KIND_FULL);
        assert_same(&decode(frame).unwrap(), &originals[0]);
    }

    #[test]
    fn delta_frame_substitutions_are_rejected() {
        let originals = stream(4);
        let mut enc = DeltaEncoder::default();
        let mut frames: Vec<Bytes> = originals.iter().map(|m| enc.encode(m)).collect();
        let delta = frames.pop().unwrap();
        assert_eq!(kind(&delta), KIND_DELTA);
        for i in 0..delta.len() {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut primed = DeltaDecoder::new();
                for f in &frames {
                    let _ = primed.decode(f.clone()).unwrap();
                }
                let mut bytes = delta.to_vec();
                bytes[i] ^= flip;
                assert!(
                    primed.decode(Bytes::from(bytes)).is_err(),
                    "substitution at byte {i} (xor {flip:#04x}) must be rejected"
                );
            }
        }
    }

    #[test]
    fn delta_truncation_at_every_length_is_rejected() {
        let originals = stream(3);
        let mut enc = DeltaEncoder::default();
        let frames: Vec<Bytes> = originals.iter().map(|m| enc.encode(m)).collect();
        let delta = frames.last().unwrap();
        assert_eq!(kind(delta), KIND_DELTA);
        for len in 0..delta.len() {
            let mut primed = DeltaDecoder::new();
            for f in &frames[..frames.len() - 1] {
                let _ = primed.decode(f.clone()).unwrap();
            }
            assert!(primed.decode(delta.slice(0..len)).is_err(), "prefix of {len} bytes");
        }
    }

    #[test]
    fn steady_state_delta_meets_the_size_budget() {
        // Acceptance bar: amortized wire size at (R=100, K=4) steady
        // state against the full-vector frame. It reads 0.171 with one
        // full frame starting the chain; with a full frame every 32nd it
        // read 0.192 with Rice-coded changes (0.195 at one byte per
        // change, 0.237 at two varints per change). The bar is 0.192
        // plus 0.03.
        let originals = stream(256);
        let mut enc = DeltaEncoder::default();
        let steady = &originals[64..];
        let chain: usize = steady.iter().map(|m| enc.encode(m).len()).sum();
        let full: usize = steady.iter().map(|m| encode_full(m).len()).sum();
        let ratio = chain as f64 / full as f64;
        assert!(ratio <= 0.222, "amortized delta ratio {ratio:.3} must be ≤ 0.222");
    }

    /// Sender 3's message `seq` with an arbitrary stamp and no payload.
    fn raw(seq: u64, entries: &[u64]) -> Message<Bytes> {
        let space = KeySpace::new(entries.len(), 1).unwrap();
        let keys = Rc::new(KeySet::from_entries(space, &[0]).unwrap());
        let id = MessageId::new(ProcessId::new(3), seq);
        Message::new(id, keys, Timestamp::from_entries(entries.to_vec()), Bytes::new())
    }

    /// Bytes the change list of `base → next` (seq 1 → 2) takes: the
    /// delta's length over that of a delta with no changes at all.
    fn change_list_bytes(base: &[u64], next: &[u64]) -> usize {
        let base_stamp = Timestamp::from_entries(base.to_vec());
        let delta = |entries| encode_delta(&raw(2, entries), 1, &base_stamp, &mut Vec::new());
        delta(next).unwrap().len() - delta(base).unwrap().len()
    }

    /// `base` and then `next` through a fresh encoder and decoder: the
    /// second frame's kind, and its length against its full frame's.
    fn second_frame(base: &[u64], next: &[u64]) -> (u64, usize, usize) {
        let (mut encoder, mut decoder) = (DeltaEncoder::default(), DeltaDecoder::new());
        let (first, second) = (raw(1, base), raw(2, next));
        assert_same(&decoder.decode(encoder.encode(&first)).unwrap(), &first);
        let frame = encoder.encode(&second);
        assert_same(&decoder.decode(frame.clone()).unwrap(), &second);
        (kind(&frame), frame.len(), encode_full(&second).len())
    }

    #[test]
    fn a_change_list_costs_its_rice_code() {
        // 28 changes (a mesh delta's shape): gap 30, then 27 gaps of 1
        // (mean 2.0: k_gap 1), increases 1–7 (rises 0–6, mean 3.0:
        // k_rise 1). 4 parameter bits, 56 remainder bits, 56 stop bits,
        // 15 gap and 36 rise quotient bits: 167 bits, 21 bytes (28 at one
        // byte per change).
        let mut next = vec![5u64; 100];
        for i in 0..28 {
            next[30 + 2 * i] += 1 + i as u64 % 7;
        }
        assert_eq!(change_list_bytes(&[5; 100], &next), 21);
        assert_eq!(second_frame(&[5; 100], &next).0, KIND_DELTA);
        // 8 changes (a daemon delta's shape): gaps 3 then 10 (mean 9.1:
        // k_gap 3), every rise 0 (k_rise 0): 5 parameter bits, 3
        // remainder and 2 stop bits a change, and a quotient bit for each
        // gap of 10: 52 bits, 7 bytes.
        let mut next = vec![0u64; 100];
        for i in 0..8 {
            next[3 + 11 * i] = 1;
        }
        assert_eq!(change_list_bytes(&[0; 100], &next), 7);
        // One change: two parameter and two stop bits, so one byte with
        // room for four more. Gap 2 and rise 2 (k 1 each) take 10 bits,
        // gap 199 (k_gap 7) 19, and a rise of u64::MAX − 1 (k_rise 63,
        // quotient 1) 131: 65 of them the parameters' unary codes.
        let one = |at: usize, by: u64| {
            let mut next = vec![0u64; 200];
            next[at] = by;
            change_list_bytes(&[0; 200], &next)
        };
        let sizes = [one(0, 1), one(1, 1), one(2, 1), one(0, 4), one(2, 3), one(199, 1)];
        assert_eq!(sizes, [1, 1, 1, 1, 2, 3]);
        assert_eq!(one(0, u64::MAX), 17);
        // Each round-trips, up to the largest increase a u64 holds, and
        // on either side of the one-load remainder width.
        for (at, by) in [
            (0, 1),
            (31, 1),
            (0, 8),
            (31, 8),
            (159, 9),
            (199, u64::MAX),
            (0, 1 << 63),
            (0, (1 << 63) + 1),
            (7, 1 << 57),
            (7, (1 << 58) + 3),
        ] {
            let mut next = vec![0u64; 200];
            next[at] = by;
            assert_eq!(second_frame(&[0; 200], &next).0, KIND_DELTA, "{at} by {by}");
        }
    }

    /// Sender 0 of `n` over (100, 4), delivering `n − 1` messages of
    /// random other senders before each of its `sends` sends, through a
    /// default `DeltaEncoder` and back: (full frames, deltas, bytes of
    /// change list in all the deltas).
    fn density(n: usize, sends: usize) -> (u64, u64, usize) {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let space = KeySpace::new(100, 4).unwrap();
        let mut assigner = KeyAssigner::new(space, AssignmentPolicy::UniformRandom, n as u64);
        let mut procs: Vec<crate::PcbProcess<Bytes>> = (0..n)
            .map(|i| crate::PcbProcess::new(ProcessId::new(i), assigner.next_set().unwrap()))
            .collect();
        let mut rng = StdRng::seed_from_u64(n as u64);
        let (mut encoder, mut decoder) = (DeltaEncoder::default(), DeltaDecoder::new());
        let mut list_bytes = 0;
        for _ in 0..sends {
            for _ in 1..n {
                let m = procs[rng.random_range(1..n)].broadcast(Bytes::new());
                let _ = procs[0].on_receive(m, 0);
            }
            let m = procs[0].broadcast(Bytes::new());
            let frame = encoder.encode(&m);
            assert_same(&decoder.decode(frame.clone()).unwrap(), &m);
            if kind(&frame) == KIND_DELTA {
                // Behind the header: the list, `uvar 0` (the payload
                // length) and the checksum.
                let mut cur = &frame[1..];
                for _ in 0..5 {
                    take_uvar(&mut cur).unwrap();
                }
                list_bytes += cur.len() - 1 - CHECKSUM_LEN;
            }
        }
        (encoder.fulls_emitted(), encoder.deltas_emitted(), list_bytes)
    }

    #[test]
    fn change_lists_follow_the_density_of_their_changes() {
        // Bytes of change list per delta, by senders: 8.2 at 3, 20.6 at
        // 16 and 68.0 at 200; one byte per change took 9.7 and 34.3, and
        // at 200 a full frame every time (203 B a frame against 86 B
        // now): most entries rise by 8 or more between two sends, and
        // each such rise cost an escape varint.
        // One full frame starts each chain, nothing restarts it.
        for (n, list_bytes) in [(3, 519), (16, 1295), (200, 4282)] {
            assert_eq!(density(n, 64), (1, 63, list_bytes), "{n} senders");
        }
    }

    #[test]
    fn delta_fallback_is_sized_against_the_full_frame() {
        // Every entry of R = 100 up by one: 2 + 100 · 2 bits, 26 bytes
        // of changes against the full frame's 100 of entries alone.
        let (kind_all, delta_len, full_len) = second_frame(&[0; 100], &[1; 100]);
        assert_eq!(kind_all, KIND_DELTA);
        assert_eq!(full_len - delta_len, 100 + 18 - 2 - 26);
        // R = 16, every entry up by 2¹² + 1: rises 2¹² (k_rise 12,
        // quotient 1), gaps 0: 14 + 16 · 15 bits, 32 bytes. With `back`
        // and `count` that is R + FULL_FLOOR = 34 bytes exactly, so the
        // delta still goes out, shorter than its full frame (whose
        // entries take two bytes each).
        let (kind_at, delta_len, full_len) = second_frame(&[0; 16], &[4097; 16]);
        assert_eq!(kind_at, KIND_DELTA);
        assert_eq!(full_len - delta_len, 16 + 18 + 16 - 34);
        // Up by 2¹³ + 1: one more remainder bit a change, 34 bytes of
        // changes, and the delta could outgrow the full frame: it falls
        // back.
        assert_eq!(second_frame(&[0; 16], &[8193; 16]).0, KIND_FULL);
        // A sequence number not past the base falls back too: a delta
        // can only point backwards.
        let mut encoder = DeltaEncoder::default();
        let _ = encoder.encode(&raw(5, &[0, 0]));
        assert_eq!(kind(&encoder.encode(&raw(5, &[1, 0]))), KIND_FULL);
        assert_eq!(kind(&encoder.encode(&raw(3, &[2, 0]))), KIND_FULL);
        assert_eq!(kind(&encoder.encode(&raw(4, &[3, 0]))), KIND_DELTA);
    }

    #[test]
    fn a_delta_names_a_base_strictly_behind_it() {
        // `back` is 1 on a live chain; 0 (the frame itself) or more than
        // `seq` (a base before sequence number 0) refuses, state untouched.
        let base = raw(4, &[0, 0]);
        let mut primed = DeltaDecoder::new();
        let _ = primed.decode(encode_full(&base)).unwrap();
        let state = format!("{primed:?}");
        let forged = |seq: u64, back: u64| {
            let mut buf = BytesMut::new();
            put_header(&mut buf, 0, KIND_DELTA);
            // One change: parameters 0 and 0 (bits 0 and 1), then gap 0
            // (bit 2) and rise 1 (a zero, bit 4): entry 0 up by 2.
            buf.put_slice(&[3, seq as u8, back as u8, 1, 0x17, 0]);
            seal(buf)
        };
        for (seq, back) in [(4, 0), (4, 5), (0, 1)] {
            let refused = WireError::BadDelta(format!("back {back} out of 1..={seq}"));
            assert_eq!(decode(forged(seq, back)).unwrap_err(), refused);
            assert_eq!(primed.decode(forged(seq, back)).unwrap_err(), refused);
            assert_eq!(format!("{primed:?}"), state);
        }
        // A base 0 entries back from seq 4 is seq 4 - 4 = 0: not held.
        let missing = WireError::MissingDeltaBase { sender: 3, base_seq: 0 };
        assert_eq!(primed.decode(forged(4, 4)).unwrap_err(), missing);
        // Two back from seq 6 is the held base: entry 0 rises by 2.
        let decoded = primed.decode(forged(6, 2)).unwrap();
        assert_eq!((decoded.id().seq(), decoded.timestamp().entries()), (6, &[2, 0][..]));
    }

    #[test]
    fn config_epoch_rides_in_the_tag() {
        // Epoch 7 is tag 14 (full) or 15 (delta): still one byte, so the
        // frame is exactly as long as its epoch-0 twin.
        let plain = sample(b"epoch payload");
        let original = plain.clone().with_epoch(7);
        let frame = encode_full(&original);
        assert_eq!(frame[..2], [FRAME_VERSION, 0x0e]);
        assert_eq!(frame.len(), encode_full(&plain).len());
        let decoded = decode(frame).unwrap();
        assert_same(&decoded, &original);
        assert_eq!(decoded.epoch(), 7);
        // The largest epoch a tag can carry fills its ten bytes.
        let last = plain.with_epoch(u64::MAX >> 1);
        let frame = encode_full(&last);
        assert_eq!(tag(&frame), u64::MAX - 1);
        assert_eq!(decode(frame).unwrap().epoch(), u64::MAX >> 1);
    }

    #[test]
    fn epoch_delta_chain_roundtrips_with_its_epoch() {
        let originals: Vec<_> = stream(20).into_iter().map(|m| m.with_epoch(3)).collect();
        let mut enc = DeltaEncoder::default();
        let mut dec = DeltaDecoder::new();
        let mut saw_delta = false;
        for (i, original) in originals.iter().enumerate() {
            // Restarts at frames 8 and 16: epoch-3 full frames mid-chain.
            if i % 8 == 0 {
                enc.force_full();
            }
            let frame = enc.encode(original);
            assert_eq!(tag(&frame) >> 1, 3);
            saw_delta |= kind(&frame) == KIND_DELTA;
            let decoded = dec.decode(frame).unwrap();
            assert_same(&decoded, original);
            assert_eq!(decoded.epoch(), 3);
        }
        assert!(saw_delta, "the chain must exercise epoch-3 delta frames");
    }

    #[test]
    fn epoch_change_forces_a_full_frame() {
        let originals = stream(6);
        let mut enc = DeltaEncoder::default();
        let _ = enc.encode(&originals[0].clone().with_epoch(1));
        let mid = enc.encode(&originals[1].clone().with_epoch(1));
        assert_eq!(kind(&mid), KIND_DELTA, "same-epoch stream keeps using deltas");
        let cross = enc.encode(&originals[2].clone().with_epoch(2));
        assert_eq!(tag(&cross), 2 << 1 | KIND_FULL, "an epoch bump must restart the chain");
    }

    #[test]
    fn cross_epoch_delta_is_refused_with_state_untouched() {
        let originals = stream(4);
        let mut dec = DeltaDecoder::new();
        // Prime the decoder with an epoch-1 full frame.
        let base = originals[0].clone().with_epoch(1);
        let _ = dec.decode(encode_full(&base)).unwrap();
        // A delta claiming epoch 2 against that (sender, seq) base must
        // refuse — the stamp lives in a different geometry.
        let wrong = originals[1].clone().with_epoch(2);
        let delta =
            encode_delta(&wrong, base.id().seq(), base.timestamp(), &mut Vec::new()).unwrap();
        assert_eq!(tag(&delta), 2 << 1 | KIND_DELTA);
        assert!(matches!(dec.decode(delta), Err(WireError::MissingDeltaBase { .. })));
        // State untouched: the same delta at the right epoch still decodes.
        let right = originals[1].clone().with_epoch(1);
        let delta =
            encode_delta(&right, base.id().seq(), base.timestamp(), &mut Vec::new()).unwrap();
        assert_same(&dec.decode(delta).unwrap(), &right);
    }

    #[test]
    fn epoch_frame_corruption_and_truncation_are_rejected() {
        let originals: Vec<_> = stream(4).into_iter().map(|m| m.with_epoch(9)).collect();
        let mut enc = DeltaEncoder::default();
        let frames: Vec<Bytes> = originals.iter().map(|m| enc.encode(m)).collect();
        for frame in [&frames[0], frames.last().unwrap()] {
            for len in 0..frame.len() {
                let mut primed = DeltaDecoder::new();
                for f in &frames[..frames.len() - 1] {
                    let _ = primed.decode(f.clone()).unwrap();
                }
                assert!(primed.decode(frame.slice(0..len)).is_err(), "prefix of {len} bytes");
            }
            for i in 0..frame.len() {
                for flip in [0x01u8, 0x80, 0xFF] {
                    let mut primed = DeltaDecoder::new();
                    for f in &frames[..frames.len() - 1] {
                        let _ = primed.decode(f.clone()).unwrap();
                    }
                    let mut bytes = frame.to_vec();
                    bytes[i] ^= flip;
                    assert!(
                        primed.decode(Bytes::from(bytes)).is_err(),
                        "substitution at byte {i} (xor {flip:#04x}) must be rejected"
                    );
                }
            }
        }
    }

    #[test]
    fn decoded_message_flows_through_a_receiver() {
        // Wire-decoded messages are protocol-equivalent to in-memory ones.
        let space = KeySpace::new(8, 2).unwrap();
        let mut assigner = KeyAssigner::new(space, AssignmentPolicy::DistinctRandom, 1);
        let mut tx = crate::PcbProcess::new(ProcessId::new(0), assigner.next_set().unwrap());
        let mut rx = crate::PcbProcess::new(ProcessId::new(1), assigner.next_set().unwrap());
        let m = tx.broadcast(Bytes::from_static(b"payload"));
        let decoded = decode(encode_full(&m)).unwrap();
        let out = rx.on_receive(decoded, 0);
        assert_eq!(out.len(), 1);
        assert_eq!(&out[0].message.payload()[..], b"payload");
    }

    /// Sender 3 over (8, 1), its first entry at `seq`, the rest at 0.
    fn rising(seq: u64) -> Message<Bytes> {
        raw(seq, &[seq, 0, 0, 0, 0, 0, 0, 0])
    }

    #[test]
    fn a_list_chains_each_sender_and_needs_no_other_state() {
        // Sender 0 at R = 100 and sender 3 at R = 8, interleaved.
        let list: Vec<Message<Bytes>> =
            stream(12).into_iter().zip((1..=12).map(rising)).flat_map(|(a, b)| [a, b]).collect();
        let mut writer = ListWriter::default();
        let frames: Vec<Bytes> = list.iter().map(|m| writer.encode(m)).collect();
        let kinds: Vec<u64> = frames.iter().map(|f| kind(f)).collect();
        assert_eq!(kinds[..2], [KIND_FULL, KIND_FULL], "each sender's first message is full");
        assert!(kinds[2..].iter().all(|&k| k == KIND_DELTA), "{kinds:?}");
        let mut reader = ListReader::default();
        for (message, frame) in list.iter().zip(&frames) {
            assert_same(&reader.decode(frame.clone()).unwrap(), message);
        }
        // A reader holds nothing but its own list: without sender 0's
        // first frame, its next one has no base.
        let mut reader = ListReader::default();
        assert_same(&reader.decode(frames[1].clone()).unwrap(), &list[1]);
        assert_eq!(
            reader.decode(frames[2].clone()).unwrap_err(),
            WireError::MissingDeltaBase { sender: 0, base_seq: 1 }
        );
    }

    #[test]
    fn a_list_of_more_senders_than_a_reader_tracks_still_decodes() {
        // Two messages from each of MAX_TRACKED_SENDERS + 1 senders: a
        // reader seeds no base for the last sender, so the writer sends
        // that sender's second message full too.
        let senders = DeltaDecoder::MAX_TRACKED_SENDERS + 1;
        let message = |sender: usize, seq: u64| {
            let m = rising(seq);
            let id = MessageId::new(ProcessId::new(sender), seq);
            Message::new(id, m.keys_shared(), m.timestamp().clone(), Bytes::new())
        };
        let list: Vec<Message<Bytes>> =
            (1..=2).flat_map(|seq| (0..senders).map(move |s| message(s, seq))).collect();
        let mut writer = ListWriter::default();
        let frames: Vec<Bytes> = list.iter().map(|m| writer.encode(m)).collect();
        assert_eq!(kind(&frames[2 * senders - 2]), KIND_DELTA);
        assert_eq!(kind(&frames[2 * senders - 1]), KIND_FULL);
        let mut reader = ListReader::default();
        for (message, frame) in list.iter().zip(&frames) {
            assert_same(&reader.decode(frame.clone()).unwrap(), message);
        }
    }

    #[test]
    fn a_list_keeps_to_its_entry_budget() {
        // At R = MAX_R a one-change delta is 16 bytes for 2 048 entries,
        // 128 entries a byte. A full frame (2 080 bytes) pays for itself
        // and five such deltas at six entries a byte, with 672 entries to
        // spare; the writer restarts the chain with a full frame where a
        // delta would cross, so every third restart buys a sixth delta.
        let r = KeySpace::MAX_R;
        let messages: Vec<Message<Bytes>> = (1..=40u64)
            .map(|seq| {
                let mut entries = vec![0; r];
                entries[0] = seq;
                raw(seq, &entries)
            })
            .collect();
        let mut writer = ListWriter::default();
        let frames: Vec<Bytes> = messages.iter().map(|m| writer.encode(m)).collect();
        let (mut entries, mut bytes) = (0, 0);
        let fulls: Vec<usize> = (0..40).filter(|&at| kind(&frames[at]) == KIND_FULL).collect();
        assert_eq!(fulls, [0, 6, 12, 19, 25, 31, 38]);
        for frame in &frames {
            entries += r as u64;
            bytes += frame.len() as u64;
            assert!(entries <= LIST_ENTRIES_PER_BYTE * bytes);
        }
        let mut reader = ListReader::default();
        for (message, frame) in messages.iter().zip(&frames) {
            assert_same(&reader.decode(frame.clone()).unwrap(), message);
        }
        // The same messages as one unbroken chain: the reader refuses the
        // sixth delta, the frame that takes the list past its budget.
        let (mut chain, mut reader) = (DeltaEncoder::default(), ListReader::<Bytes>::default());
        let verdicts: Vec<_> = messages.iter().map(|m| reader.decode(chain.encode(m))).collect();
        assert!(verdicts[..6].iter().all(Result::is_ok));
        assert_eq!(
            verdicts[6].as_ref().unwrap_err(),
            &WireError::BadDelta("list past 6 stamp entries per byte".into())
        );
    }
}
