//! One peer's reliable in-order frame channel, as a state machine with
//! no IO: no socket, no address, no clock.
//!
//! A [`Link`] is everything [`crate::udp`] does per remote address. On
//! the send side: numbering, the window, head-only retransmission, the
//! queue behind it, the fence and the re-offer at a peer's restart, and
//! the give-up. On the receive side: epochs, the holdback and
//! reassembly. And between the two: the ack policy, coalescing,
//! fragmentation, and the datagram header and trailer, so the bytes a
//! link emits are the bytes that go on the wire (their layout is in
//! [`crate::udp`]'s module doc).
//!
//! Its inputs are [`Link::send`], [`Link::on_datagram`] and the timed
//! work of [`Link::poll`], each given the time by its caller. It writes
//! what it produces into a caller-owned [`Sink`]: the datagrams for the
//! peer back to back in one reused buffer, the [`Event`]s it surfaced,
//! and the counters. [`Link::next_deadline_us`] says when it next has
//! timed work. The socket shell ([`crate::UdpTransport`]) keeps one link
//! per address and puts each datagram on the wire as it is; the tests
//! put two links on a network of their own that decides every
//! datagram's fate.

use std::collections::{BTreeMap, VecDeque};

use bytes::Bytes;
use pcb_broadcast::wire::{checksum64, put_uvar, take_uvar};
use pcb_broadcast::{fragment_into, max_frame_len, Reassembler};

use crate::udp::{UdpConfig, UdpStats};

/// Worst-case outer framing around one frame or fragment: kind byte,
/// two epochs (four varints of a 32-bit half each), the cumulative ack
/// and the sequence number, checksum trailer.
pub(crate) const OUTER_OVERHEAD: usize = 1 + 4 * 5 + 10 + 10 + 8;
/// Outer datagram kind: one whole frame.
pub(crate) const KIND_FRAME: u8 = 0;
/// Outer datagram kind: nothing but the header's cumulative ack.
pub(crate) const KIND_ACK: u8 = 1;
/// Outer datagram kind: several whole frames under one header and one
/// checksum — that many small frames per syscall instead of one.
pub(crate) const KIND_COALESCED: u8 = 2;
/// Outer datagram kind: one fragment of a frame too large for a datagram.
pub(crate) const KIND_FRAGMENT: u8 = 3;
/// Worst-case per-entry framing inside a coalesced body (seq + length).
const COALESCE_ENTRY_OVERHEAD: usize = 10 + 3;

/// Something a link surfaced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A complete frame arrived, in the peer's send order.
    Frame(Bytes),
    /// The send side opened a new epoch: a give-up, or the peer
    /// restarted ([`crate::UdpEvent::Fenced`] says what the owner owes
    /// it).
    Fenced,
}

/// What links produce, kept by their owner and reused across calls: no
/// datagram allocates.
#[derive(Debug, Default, Clone)]
pub struct Sink {
    /// Datagrams, back to back, in the order they are to leave.
    bytes: Vec<u8>,
    /// Where each datagram in `bytes` ends.
    ends: Vec<usize>,
    /// What the links surfaced, in order.
    pub events: Vec<Event>,
    /// Counters, summed over every link that wrote here.
    pub stats: UdpStats,
}

impl Sink {
    /// The datagrams written since the last [`Self::clear_datagrams`],
    /// in the order they are to leave.
    pub fn datagrams(&self) -> impl Iterator<Item = &[u8]> {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let datagram = &self.bytes[start..end];
            start = end;
            datagram
        })
    }

    /// Forgets the datagrams once they have left, keeping the buffers.
    pub fn clear_datagrams(&mut self) {
        self.bytes.clear();
        self.ends.clear();
    }
}

/// The epoch a process incarnation starts every link at: the incarnation
/// in the high half (shifted by one, so the first is not 0, which means
/// "nothing heard"), per-peer fences counting in the low half.
#[must_use]
pub fn epoch_base(incarnation: u64) -> u64 {
    (incarnation + 1) << 32
}

/// The process incarnation an epoch was issued under.
fn incarnation_of(epoch: u64) -> u64 {
    epoch >> 32
}

/// Whether `datagram` may open a link: well formed and carrying frames.
/// A lone ack from an address nothing was ever sent to acknowledges
/// nothing, and an unknown kind says nothing: neither may claim a link.
#[must_use]
pub fn opens(datagram: &[u8]) -> bool {
    parse_outer(datagram).is_some_and(|outer| carries_frames(outer.kind))
}

fn carries_frames(kind: u8) -> bool {
    matches!(kind, KIND_FRAME | KIND_COALESCED | KIND_FRAGMENT)
}

/// A frame awaiting acknowledgement. Only a link's oldest one is ever
/// retransmitted, so `retries` is non-zero on that head frame alone.
#[derive(Debug, Clone)]
struct OutFrame {
    frame: Bytes,
    sent_at_us: u64,
    rto_us: u64,
    retries: u32,
}

/// One peer's reliable in-order frame channel (see the module doc).
#[derive(Debug, Clone)]
pub struct Link {
    cfg: UdpConfig,
    // Send side.
    send_epoch: u64,
    next_seq: u64,
    unacked: BTreeMap<u64, OutFrame>,
    queued: VecDeque<Bytes>,
    unreachable: bool,
    // Receive side.
    /// Highest incarnation any datagram from the peer named, acks
    /// included (`0`: never heard from).
    remote_incarnation: u64,
    /// Epoch of the peer's frame stream being received (`0`: none yet).
    remote_epoch: u64,
    expect: u64,
    holdback: BTreeMap<u64, Bytes>,
    reassembler: Reassembler,
    // Acknowledging the receive side.
    /// Frames taken since a datagram of ours last left for the peer.
    ack_owed: u32,
    /// The earliest the first of them can have arrived (delay base): the
    /// poll before the one that read it.
    ack_since_us: u64,
    /// A duplicate, a gap or an epoch change was seen: the sender is
    /// retransmitting or renumbering, so the ack leaves with this poll.
    ack_now: bool,
    /// When the owner last polled. Whatever it reads next arrived after
    /// this, and an owed ack's delay counts from here: an owner that was
    /// descheduled for longer than the delay acknowledges at once instead
    /// of adding the delay to a wait the sender's retransmit timer has
    /// been counting all along.
    last_poll_us: u64,
    // Coalescing buffer: whole frames sent since the last flush, as
    // `(seq, frame)`, awaiting that flush or the size trigger.
    pending: Vec<(u64, Bytes)>,
    /// Coalesced body bytes `pending` would occupy (entry overheads
    /// included), checked against the MTU budget by the size trigger.
    pending_bytes: usize,
    /// Scratch fragment list, reused across [`fragment_into`] calls.
    frag_scratch: Vec<Bytes>,
}

impl Link {
    /// A link whose send side starts at `epoch` ([`epoch_base`] of the
    /// owner's incarnation), created by an owner that last polled at
    /// `last_poll_us`.
    #[must_use]
    pub fn new(epoch: u64, cfg: &UdpConfig, last_poll_us: u64) -> Self {
        Link {
            cfg: cfg.clone(),
            send_epoch: epoch,
            next_seq: 1,
            unacked: BTreeMap::new(),
            queued: VecDeque::new(),
            unreachable: false,
            remote_incarnation: 0,
            remote_epoch: 0,
            expect: 1,
            holdback: BTreeMap::new(),
            reassembler: Reassembler::new(cfg.reassembly_timeout_us, cfg.window),
            ack_owed: 0,
            ack_since_us: 0,
            ack_now: false,
            last_poll_us,
            pending: Vec::new(),
            pending_bytes: 0,
            frag_scratch: Vec::new(),
        }
    }

    /// The largest frame one datagram carries whole.
    fn whole_frame_max(&self) -> usize {
        self.cfg.mtu - OUTER_OVERHEAD
    }

    /// The longest an owed ack waits for a datagram to ride on.
    fn ack_delay_us(&self) -> u64 {
        self.cfg.rto_initial_us / 2
    }

    /// Queues `frame` for reliable in-order delivery: numbered and parked
    /// for the next flush while the window is open, held in the queue
    /// while it is full or the head frame is being retransmitted. A frame
    /// too large to fragment is refused and counted
    /// ([`UdpStats::oversize_refused`]): numbered, it could never leave,
    /// and would stall everything behind it until the give-up.
    pub fn send(&mut self, frame: Bytes, now_us: u64, out: &mut Sink) {
        if frame.len() > max_frame_len(self.whole_frame_max()) {
            out.stats.oversize_refused += 1;
            return;
        }
        out.stats.frames_sent += 1;
        if self.queued.is_empty() && self.may_send() {
            let seq = self.number(frame.clone(), now_us);
            self.transmit_first(seq, frame, out);
        } else {
            self.queued.push_back(frame);
        }
    }

    /// The timed work at `now_us`: ships what was sent since the last
    /// flush, retransmits an overdue head frame (or gives the peer up),
    /// promotes queued frames into a freed window, and sends the ack
    /// nothing carried.
    pub fn poll(&mut self, now_us: u64, out: &mut Sink) {
        // First, so these datagrams acknowledge what the owner just read.
        self.flush(out);
        if let Some(&head) = self.unacked.keys().next() {
            self.retry(head, now_us, out);
        }
        self.promote_queued(now_us, out);
        // Last: whatever left above took its ack along.
        if self.ack_due(now_us) {
            self.ship(KIND_ACK, out, |_| {});
        }
        self.last_poll_us = now_us;
    }

    /// The earliest time [`Self::poll`] has timed work to do, if any.
    #[must_use]
    pub fn next_deadline_us(&self) -> Option<u64> {
        // Only the head frame's timer is live (see `retry`): one behind
        // it may be long expired, and would make this a deadline in the
        // past, turning the owner's wait into a spin.
        let retry = self.unacked.first_key_value().map(|(_, f)| f.sent_at_us + f.rto_us);
        let ack = (self.ack_owed > 0).then(|| self.ack_since_us + self.ack_delay_us());
        retry.into_iter().chain(ack).min()
    }

    /// Opens a new send epoch: numbering restarts at 1 and whatever was
    /// numbered in the old epoch — in flight, or parked in the coalescing
    /// buffer, which holds in-flight frames — leaves it. With `reoffer`
    /// those frames go back to the head of the queue in send order, for
    /// the next `promote_queued` to ship under the new numbering;
    /// without, they and the queue behind them are abandoned
    /// (anti-entropy owns the gap). Either way the owner is told.
    fn fence(&mut self, reoffer: bool, out: &mut Sink) {
        self.send_epoch += 1;
        self.next_seq = 1;
        self.pending.clear();
        self.pending_bytes = 0;
        let outstanding = std::mem::take(&mut self.unacked);
        if reoffer {
            for frame in outstanding.into_values().rev() {
                self.queued.push_front(frame.frame);
            }
        } else {
            self.queued.clear();
        }
        out.events.push(Event::Fenced);
    }

    /// Whether a frame may go out now: the window has room, and the head
    /// frame is not being retransmitted. A peer that let a whole timeout
    /// pass in silence is probed with that one frame, and the ack that
    /// releases it reopens the window.
    fn may_send(&self) -> bool {
        self.unacked.len() < self.cfg.window
            && self.unacked.first_key_value().is_none_or(|(_, head)| head.retries == 0)
    }

    /// Numbers `frame` as the next one of the current send epoch and
    /// starts its retransmit clock.
    fn number(&mut self, frame: Bytes, now_us: u64) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let rto_us = self.cfg.rto_initial_us;
        self.unacked.insert(seq, OutFrame { frame, sent_at_us: now_us, rto_us, retries: 0 });
        seq
    }

    /// Retransmits frame `seq` once its timer has run out, or gives up on
    /// the peer once it has exhausted its retries. `poll` asks this of the
    /// head frame alone: the receiver holds back everything behind a
    /// hole, so only the head can move the stream on; the frames behind
    /// it wait for the ack that releases it, and one whose timer ran out
    /// meanwhile is the next head and leaves at once.
    fn retry(&mut self, seq: u64, now_us: u64, out: &mut Sink) {
        let Some(head) = self.unacked.get_mut(&seq) else { return };
        if now_us < head.sent_at_us + head.rto_us {
            return;
        }
        if head.retries < self.cfg.max_retries {
            head.retries += 1;
            head.sent_at_us = now_us;
            head.rto_us = (head.rto_us * 2).min(self.cfg.rto_max_us);
            out.stats.retransmits += 1;
            let frame = head.frame.clone();
            self.transmit_frame(seq, &frame, out);
            return;
        }
        out.stats.give_ups += 1;
        self.fence(false, out);
        if !self.unreachable {
            self.unreachable = true;
            out.stats.peer_down += 1;
        }
    }

    fn promote_queued(&mut self, now_us: u64, out: &mut Sink) {
        while self.may_send() {
            let Some(frame) = self.queued.pop_front() else { break };
            let seq = self.number(frame.clone(), now_us);
            self.transmit_frame(seq, &frame, out);
        }
    }

    /// Whether a standalone ack has to leave now: asked for at once,
    /// every second unacknowledged frame, or one that has waited the
    /// delay for a datagram to ride on.
    fn ack_due(&self, now_us: u64) -> bool {
        self.ack_now
            || self.ack_owed >= 2
            || (self.ack_owed == 1
                && now_us.saturating_sub(self.ack_since_us) >= self.ack_delay_us())
    }

    /// Takes one datagram the peer sent, read at `now_us`.
    pub fn on_datagram(&mut self, datagram: &[u8], now_us: u64, out: &mut Sink) {
        let Some(outer) = parse_outer(datagram) else {
            out.stats.decode_errors += 1;
            return;
        };
        let carries_frames = carries_frames(outer.kind);
        if !(carries_frames || outer.kind == KIND_ACK) {
            out.stats.decode_errors += 1;
            return;
        }
        if self.unreachable {
            self.unreachable = false;
            out.stats.peer_up += 1;
        }

        // Who is speaking. Only a restart takes the peer's receive state
        // with it, and every datagram names the incarnation — an ack too,
        // so a peer that only listens is found out by its first one. The
        // peer's own fence (low half) leaves what it has acknowledged
        // intact — and answering a fence with a fence would never end,
        // each side's next datagram raising the other's epoch again. A
        // peer heard for the first time has no earlier incarnation to
        // compare with, and nothing sent in this epoch means nothing to
        // renumber.
        let incarnation = incarnation_of(outer.epoch);
        if incarnation < self.remote_incarnation {
            // A straggler from a process that has since restarted: what
            // it acknowledges, the new one never received.
            out.stats.decode_errors += 1;
            return;
        }
        if incarnation > self.remote_incarnation {
            let known = self.remote_incarnation != 0;
            self.remote_incarnation = incarnation;
            if known && self.next_seq > 1 {
                out.stats.peer_restarts += 1;
                // Re-offered only whole: behind a frame the dead process
                // acknowledged, the rest continue what it took with it.
                let whole = self.unacked.first_key_value().is_some_and(|(&seq, _)| seq == 1);
                self.fence(whole, out);
            }
        }

        // What it has received from us. An ack for any other epoch is
        // ignored; a cumulative below what was already released (a
        // reordered early ack) releases nothing.
        if outer.ack_epoch == self.send_epoch
            && self.unacked.first_key_value().is_some_and(|(&seq, _)| seq <= outer.cumulative)
        {
            self.unacked.retain(|&seq, _| seq > outer.cumulative);
        }
        if !carries_frames {
            return;
        }

        // What it sends us.
        if outer.epoch < self.remote_epoch {
            out.stats.decode_errors += 1;
            return;
        }
        if outer.epoch > self.remote_epoch {
            // New incarnation, or the peer's own fence: the old sequence
            // space is dead, and a sender that renumbered wants to hear at
            // once where the new stream stands (a first contact renumbers
            // nothing).
            out.stats.epoch_resets += 1;
            self.ack_now |= self.remote_epoch != 0;
            self.remote_epoch = outer.epoch;
            self.expect = 1;
            self.holdback.clear();
            self.reassembler = Reassembler::new(self.cfg.reassembly_timeout_us, self.cfg.window);
        }
        // Every frame-carrying body opens with a varint: the sequence
        // number, or a coalesced datagram's entry count.
        let mut body = outer.body;
        let Ok(first) = take_uvar(&mut body) else {
            out.stats.decode_errors += 1;
            return;
        };
        match outer.kind {
            KIND_FRAME => {
                if self.wants(first) {
                    self.take(first, Bytes::from(body), out);
                }
            }
            KIND_COALESCED => {
                // A truncated entry list keeps whatever decoded before
                // the damage; a forged count runs out of bytes, not time.
                out.stats.coalesced_received += 1;
                for _ in 0..first {
                    let Some((seq, frame)) = take_coalesced_entry(&mut body) else {
                        out.stats.decode_errors += 1;
                        break;
                    };
                    if self.wants(seq) {
                        self.take(seq, Bytes::from(frame), out);
                    }
                }
            }
            _ => {
                if self.wants(first) {
                    match self.reassembler.accept(now_us, &Bytes::from(body)) {
                        Ok(Some(frame)) => {
                            out.stats.frames_reassembled += 1;
                            self.take(first, frame, out);
                        }
                        Ok(None) => {}
                        Err(_) => {
                            out.stats.decode_errors += 1;
                            return;
                        }
                    }
                }
            }
        }
        // A gap that closed, or one still open: the sender is recovering
        // from a loss, so tell it now where the stream stands.
        while let Some(frame) = self.holdback.remove(&self.expect) {
            self.expect += 1;
            self.ack_now = true;
            surface(out, frame);
        }
        self.ack_now |= !self.holdback.is_empty();
    }

    /// Whether frame `seq` of the current receive epoch is still wanted.
    /// One that was delivered or is already held back is a duplicate —
    /// the sender is retransmitting because an ack of ours was lost —
    /// and asks for an immediate ack.
    fn wants(&mut self, seq: u64) -> bool {
        let wanted = seq >= self.expect && !self.holdback.contains_key(&seq);
        self.ack_now |= !wanted;
        wanted
    }

    /// Takes one wanted frame numbered `seq`: it surfaces at once when it
    /// is the next one expected, and waits in the holdback when it is
    /// ahead. Either way the sender is owed an ack for it, counted from
    /// the last poll, before which it cannot have arrived.
    fn take(&mut self, seq: u64, frame: Bytes, out: &mut Sink) {
        if self.ack_owed == 0 {
            self.ack_since_us = self.last_poll_us;
        }
        self.ack_owed += 1;
        if seq == self.expect {
            self.expect += 1;
            surface(out, frame);
        } else {
            self.holdback.insert(seq, frame);
        }
    }

    /// First transmission of a frame: the only path allowed to coalesce.
    /// Retransmits and promotions go through [`Self::transmit_frame`]
    /// and ship at once, one frame per datagram.
    fn transmit_first(&mut self, seq: u64, frame: Bytes, out: &mut Sink) {
        if frame.len() > self.whole_frame_max() {
            // A multi-fragment frame already fills datagrams on its own;
            // coalescing could only split or overflow it.
            self.transmit_frame(seq, &frame, out);
            return;
        }
        // Small frame: park it in the coalescing buffer until the size
        // trigger or the next flush ships it.
        let entry = COALESCE_ENTRY_OVERHEAD + frame.len();
        if !self.pending.is_empty() && self.pending_bytes + entry > self.whole_frame_max() {
            self.flush(out);
        }
        self.pending.push((seq, frame));
        self.pending_bytes += entry;
    }

    /// Ships the coalescing buffer now. A lone entry goes out as a plain
    /// [`KIND_FRAME`] datagram, so the coalesced kind only ever appears
    /// when it packs two or more frames. Owners flush at the end of a
    /// turn, once every frame the turn produced was sent, and before they
    /// wait; [`Self::poll`] flushes too.
    pub fn flush(&mut self, out: &mut Sink) {
        if self.pending.is_empty() {
            return;
        }
        let mut entries = std::mem::take(&mut self.pending);
        self.pending_bytes = 0;
        if let [(seq, frame)] = entries.as_slice() {
            self.transmit_frame(*seq, frame, out);
        } else {
            out.stats.coalesced_sent += 1;
            self.ship(KIND_COALESCED, out, |body| put_coalesced_body(body, &entries));
        }
        // Hand the drained vector back: steady-state buffering never
        // reallocates.
        entries.clear();
        self.pending = entries;
    }

    /// Puts frame `seq` on the wire by itself: whole in one datagram when
    /// it fits, else one datagram per fragment. `send` refused anything
    /// too large to fragment.
    fn transmit_frame(&mut self, seq: u64, frame: &Bytes, out: &mut Sink) {
        let inner_mtu = self.whole_frame_max();
        if frame.len() <= inner_mtu {
            self.ship(KIND_FRAME, out, |body| {
                put_uvar(body, seq);
                body.extend_from_slice(frame);
            });
            return;
        }
        let mut fragments = std::mem::take(&mut self.frag_scratch);
        if fragment_into(seq, frame, inner_mtu, &mut fragments).is_ok() {
            for frag in &fragments {
                out.stats.fragments_sent += 1;
                self.ship(KIND_FRAGMENT, out, |body| {
                    put_uvar(body, seq);
                    body.extend_from_slice(frag);
                });
            }
        }
        fragments.clear();
        self.frag_scratch = fragments;
    }

    /// Writes one datagram into `out`: the header every kind shares, then
    /// whatever `body` appends, then the trailer. The header acknowledges
    /// the reverse stream, so whatever ack the peer was owed has now left.
    fn ship(&mut self, kind: u8, out: &mut Sink, body: impl FnOnce(&mut Vec<u8>)) {
        let start = out.bytes.len();
        open_outer(&mut out.bytes, kind, self.send_epoch, (self.remote_epoch, self.expect - 1));
        body(&mut out.bytes);
        seal_outer(&mut out.bytes, start);
        out.ends.push(out.bytes.len());
        out.stats.bytes_sent += (out.bytes.len() - start) as u64;
        if kind == KIND_ACK {
            out.stats.acks_sent += 1;
        } else if self.ack_owed > 0 || self.ack_now {
            out.stats.acks_piggybacked += 1;
        }
        self.ack_owed = 0;
        self.ack_now = false;
    }
}

/// Hands the owner a frame whose turn has come.
fn surface(out: &mut Sink, frame: Bytes) {
    out.stats.frames_received += 1;
    out.events.push(Event::Frame(frame));
}

/// An epoch as two varints, incarnation then fences: two bytes for the
/// life of most processes, where the `u64` they pack into costs five or
/// more.
fn put_epoch(out: &mut Vec<u8>, epoch: u64) {
    put_uvar(out, epoch >> 32);
    put_uvar(out, epoch & 0xffff_ffff);
}

fn take_epoch(buf: &mut &[u8]) -> Option<u64> {
    let incarnation = u32::try_from(take_uvar(buf).ok()?).ok()?;
    let fences = u32::try_from(take_uvar(buf).ok()?).ok()?;
    Some(u64::from(incarnation) << 32 | u64::from(fences))
}

/// Appends the header every kind shares to `out`. `ack` is
/// `(epoch, cumulative)` of the reverse stream.
pub(crate) fn open_outer(out: &mut Vec<u8>, kind: u8, epoch: u64, ack: (u64, u64)) {
    out.push(kind);
    put_epoch(out, epoch);
    put_epoch(out, ack.0);
    put_uvar(out, ack.1);
}

/// Appends the [`checksum64`] trailer over the datagram that starts at
/// `start` in `out`.
pub(crate) fn seal_outer(out: &mut Vec<u8>, start: usize) {
    let sum = checksum64(&out[start..]);
    out.extend_from_slice(&sum.to_le_bytes());
}

fn put_coalesced_body(out: &mut Vec<u8>, entries: &[(u64, Bytes)]) {
    put_uvar(out, entries.len() as u64);
    for (seq, frame) in entries {
        put_uvar(out, *seq);
        put_uvar(out, frame.len() as u64);
        out.extend_from_slice(frame);
    }
}

/// Takes one `uvar seq | uvar len | frame` entry off the front of a
/// coalesced body. The length is checked against the bytes that are
/// there before anything is sliced, let alone allocated.
fn take_coalesced_entry<'a>(body: &mut &'a [u8]) -> Option<(u64, &'a [u8])> {
    let seq = take_uvar(body).ok()?;
    let len = usize::try_from(take_uvar(body).ok()?).ok()?;
    if body.len() < len {
        return None;
    }
    let (frame, rest) = body.split_at(len);
    *body = rest;
    Some((seq, frame))
}

/// An outer datagram's header, checksum verified, and the kind's body.
struct Outer<'a> {
    kind: u8,
    /// The sender's send epoch towards us.
    epoch: u64,
    /// Our epoch the sender acknowledges, and how far.
    ack_epoch: u64,
    cumulative: u64,
    body: &'a [u8],
}

/// Splits an outer datagram into header and body, verifying the
/// trailer. Total: any malformed input is `None`. The body borrows from
/// the datagram — no copy until a frame is actually wanted.
fn parse_outer(datagram: &[u8]) -> Option<Outer<'_>> {
    let (payload, trailer) = datagram.split_at(datagram.len().checked_sub(8)?);
    let expect = u64::from_le_bytes(trailer.try_into().ok()?);
    if checksum64(payload) != expect {
        return None;
    }
    let (&kind, mut rest) = payload.split_first()?;
    let epoch = take_epoch(&mut rest)?;
    let ack_epoch = take_epoch(&mut rest)?;
    let cumulative = take_uvar(&mut rest).ok()?;
    Some(Outer { kind, epoch, ack_epoch, cumulative, body: rest })
}

#[cfg(test)]
mod enumerate;
#[cfg(test)]
pub(crate) mod net;
#[cfg(test)]
mod tests;
