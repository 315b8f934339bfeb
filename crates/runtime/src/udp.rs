//! Real-socket UDP transport with reliable in-order frame delivery.
//!
//! This module moves frames between *processes*, over actual
//! `UdpSocket`s. UDP gives us datagram boundaries and nothing else, so
//! the transport layers the minimum machinery the protocol needs on top:
//!
//! - **One layer of framing** — a frame that fits a datagram rides in it
//!   whole, alone ([`KIND_FRAME`]) or packed with its neighbours
//!   ([`KIND_COALESCED`]); only a frame larger than the MTU is split by
//!   [`pcb_broadcast::fragment`] and reassembled per peer
//!   ([`KIND_FRAGMENT`]).
//! - **Reliability** — every frame gets a per-peer sequence number;
//!   receivers hold back out-of-order frames, so only the oldest
//!   unacknowledged frame of a link can move its stream on, and that
//!   head frame is the only one a sender retransmits, on a capped
//!   exponential backoff until a cumulative ack covers it. While it is
//!   being retransmitted (the peer let a whole timeout pass in silence)
//!   nothing else goes to that peer: further frames queue, the ack that
//!   releases the head reopens the window in the same poll, and a frame
//!   behind it whose timer ran out meanwhile is the next head and leaves
//!   at once.
//! - **Acks ride along** — every datagram, whatever its kind, names the
//!   highest in-order sequence number received on the reverse stream. A
//!   standalone [`KIND_ACK`] leaves only when no datagram did within
//!   half of `rto_initial_us` (counted from the poll before the one
//!   that read the frame, so a stalled owner adds nothing to it), on
//!   every second unacknowledged frame, and at once on a duplicate, a
//!   gap — open or just closed — or an epoch change, so neither loss
//!   recovery nor the send window ever waits on the timer.
//! - **Epochs** — each process incarnation stamps its datagrams with an
//!   epoch: the incarnation in the high half, this side's fences towards
//!   that peer in the low half. A receiver that sees a higher epoch
//!   resets its expectations, so a restarted peer's fresh sequence space
//!   is never confused with the dead one's. If the *incarnation* rose —
//!   on any datagram, a lone ack included — the peer also lost what it
//!   had received from us, so the send side is fenced too: a new send
//!   epoch, numbering from 1 again — the restarted peer would otherwise
//!   hold everything back, waiting for a sequence number 1 that was
//!   acknowledged to its previous life. What was still outstanding or
//!   queued goes with the old epoch if the peer acknowledged any of it:
//!   those frames continue a stream whose start died with that process,
//!   which is no use to an owner that chains state from frame to frame
//!   (a delta chain). An epoch held from its first frame, nothing of it
//!   acknowledged, is offered again whole under the new numbering. Every
//!   fence is surfaced as [`UdpEvent::Fenced`]: whatever the owner
//!   layered on the in-order stream has to start over on that link.
//!   Messages lost across a reset are recovered by the protocol's own
//!   anti-entropy (§4.2), not the transport.
//! - **Liveness** — a head frame that exhausts its retries marks the
//!   peer unreachable (counted in [`UdpStats::peer_down`], and in
//!   [`UdpStats::peer_up`] when it answers again) and fences the send
//!   side the same way, except that the outstanding queue is abandoned
//!   (again: anti-entropy owns the gap). A dead peer is probed, not
//!   flooded: it costs one datagram per timeout until the give-up, and
//!   one per timeout of the next epoch's head after it, whatever the
//!   owner keeps sending it.
//! - **Fault injection** — every outbound datagram passes through a
//!   [`SocketShim`]. A daemon's passes everything; tests install link
//!   faults on it to drop, duplicate, delay or corrupt traffic
//!   deterministically, whole frames and single fragments alike, without
//!   touching iptables.
//!
//! Every datagram has the same header and trailer (`uvar` is a LEB128
//! varint, an epoch is two of them, incarnation then fences):
//!
//! ```text
//! u8    kind
//! epoch sender's send epoch towards this peer
//! epoch the peer's epoch being acknowledged (0 0: nothing heard yet)
//! uvar  cumulative ack: every sequence number ≤ this arrived in that epoch
//! ...   body, by kind:
//!         0 frame      uvar seq | frame bytes
//!         1 ack        (empty)
//!         2 coalesced  uvar count | count × (uvar seq | uvar len | frame bytes)
//!         3 fragment   uvar seq | one `pcb_broadcast::fragment` datagram
//! u64   `checksum64` of everything before it, little endian
//! ```
//!
//! The API is a poll loop, not callbacks: the owner calls
//! [`UdpTransport::poll`] with the current monotonic time and receives
//! two kinds of [`UdpEvent`]: the frames that completed, and the links
//! that fenced. Peer health is a counter, not an event. That keeps
//! the transport single-threaded and testable with synthetic clocks.
//! Frames sent between two polls share datagrams; they leave at the
//! next [`UdpTransport::flush`] or poll, whichever comes first, so an
//! owner flushes before it waits ([`crate::ready::wait`]) and nothing is
//! held across the wait.

use std::collections::{BTreeMap, BinaryHeap, HashMap, VecDeque};
use std::io::ErrorKind;
use std::net::{SocketAddr, UdpSocket};
use std::os::fd::{AsRawFd, RawFd};

use bytes::Bytes;
use pcb_broadcast::wire::{checksum64, put_uvar, take_uvar};
use pcb_broadcast::{fragment_into, max_frame_len, Reassembler, MIN_MTU};
use pcb_sim::LinkFaults;
use pcb_telemetry::Row;

use crate::shim::SocketShim;

/// Worst-case outer framing around one frame or fragment: kind byte,
/// two epochs (four varints of a 32-bit half each), the cumulative ack
/// and the sequence number, checksum trailer.
const OUTER_OVERHEAD: usize = 1 + 4 * 5 + 10 + 10 + 8;
/// Outer datagram kind: one whole frame.
const KIND_FRAME: u8 = 0;
/// Outer datagram kind: nothing but the header's cumulative ack.
const KIND_ACK: u8 = 1;
/// Outer datagram kind: several whole frames under one header and one
/// checksum — that many small frames per syscall instead of one.
const KIND_COALESCED: u8 = 2;
/// Outer datagram kind: one fragment of a frame too large for a datagram.
const KIND_FRAGMENT: u8 = 3;
/// Worst-case per-entry framing inside a coalesced body (seq + length).
const COALESCE_ENTRY_OVERHEAD: usize = 10 + 3;

/// Tuning knobs for [`UdpTransport`].
#[derive(Debug, Clone)]
pub struct UdpConfig {
    /// Maximum datagram size put on the wire, bytes. Frames larger than
    /// this (minus overhead) are fragmented.
    pub mtu: usize,
    /// First retransmit timeout, µs. Half of it is the longest an
    /// acknowledgement waits for a datagram to ride on.
    pub rto_initial_us: u64,
    /// Backoff cap for the retransmit timeout, µs.
    pub rto_max_us: u64,
    /// Retransmit attempts before a frame is abandoned and the peer is
    /// declared unreachable.
    pub max_retries: u32,
    /// Frames in flight per peer before further sends queue.
    pub window: usize,
    /// How long a partially reassembled frame may wait for its missing
    /// fragments, µs.
    pub reassembly_timeout_us: u64,
}

impl Default for UdpConfig {
    fn default() -> Self {
        UdpConfig {
            mtu: pcb_broadcast::DEFAULT_MTU,
            rto_initial_us: 25_000,
            rto_max_us: 800_000,
            max_retries: 8,
            window: 64,
            reassembly_timeout_us: 2_000_000,
        }
    }
}

/// Something the transport surfaced from a [`UdpTransport::poll`] pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UdpEvent {
    /// A complete frame arrived, in per-peer send order.
    Frame {
        /// Sender's socket address.
        from: SocketAddr,
        /// The frame exactly as the peer passed it to
        /// [`UdpTransport::send`].
        frame: Bytes,
    },
    /// The send side towards this peer opened a new epoch — a give-up,
    /// or the peer restarted. Frames sent before may never have arrived
    /// (or arrived at a process that no longer exists), so state the
    /// owner chained from frame to frame on this link starts over: the
    /// frames it sends from now on are the new epoch's, and only an
    /// epoch the peer had acknowledged none of is offered to it again.
    Fenced(SocketAddr),
}

/// Transport counters, surfaced through [`UdpStats::rows`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UdpStats {
    /// Frames accepted by [`UdpTransport::send`].
    pub frames_sent: u64,
    /// Complete frames handed to the owner.
    pub frames_received: u64,
    /// Frame retransmissions.
    pub retransmits: u64,
    /// Frames abandoned after exhausting retries.
    pub give_ups: u64,
    /// Standalone ack datagrams transmitted.
    pub acks_sent: u64,
    /// Owed acknowledgements that left on a datagram carrying frames.
    pub acks_piggybacked: u64,
    /// Datagrams read off the socket.
    pub datagrams_received: u64,
    /// Datagram bytes handed to the socket (UDP payload; the 28 bytes of
    /// IP and UDP header per datagram are the kernel's).
    pub bytes_sent: u64,
    /// Datagrams discarded as malformed, corrupt, or stale-epoch.
    pub decode_errors: u64,
    /// Fragment datagrams put on the wire (first transmissions and
    /// retransmissions alike); whole-frame datagrams are not fragments.
    pub fragments_sent: u64,
    /// Frames completed by the per-peer reassembler.
    pub frames_reassembled: u64,
    /// Peers declared unreachable after exhausting retries.
    pub peer_down: u64,
    /// Previously unreachable peers that answered again.
    pub peer_up: u64,
    /// Receive-stream resets forced by a higher remote epoch (peer
    /// restart or post-give-up fence).
    pub epoch_resets: u64,
    /// Coalesced datagrams put on the wire (each packing ≥ 2 frames).
    pub coalesced_sent: u64,
    /// Coalesced datagrams received and unpacked.
    pub coalesced_received: u64,
    /// Send-side fences caused by a peer's incarnation rising (it
    /// restarted and lost what it had received), distinct from
    /// `give_ups`.
    pub peer_restarts: u64,
    /// Frames refused by [`UdpTransport::send`] as too large to fragment.
    pub oversize_refused: u64,
}

impl UdpStats {
    /// The transport's rows for every metric sink, all `udp_`-named (see
    /// `EndpointStatus::rows`). Exhaustive destructure, no `..`: a new
    /// counter does not compile until it has a row.
    #[must_use]
    pub fn rows(&self) -> Vec<Row> {
        let UdpStats {
            frames_sent,
            frames_received,
            retransmits,
            give_ups,
            acks_sent,
            acks_piggybacked,
            datagrams_received,
            bytes_sent,
            decode_errors,
            fragments_sent,
            frames_reassembled,
            peer_down,
            peer_up,
            epoch_resets,
            coalesced_sent,
            coalesced_received,
            peer_restarts,
            oversize_refused,
        } = *self;
        vec![
            Row::counter("udp_frames_sent", "Reliable frames sent.", frames_sent),
            Row::counter("udp_frames_received", "Complete frames received.", frames_received),
            Row::counter("udp_retransmits", "Frame retransmissions.", retransmits),
            Row::counter("udp_give_ups", "Frames abandoned after exhausting retries.", give_ups),
            Row::counter("udp_acks_sent", "Standalone transport acks transmitted.", acks_sent),
            Row::counter(
                "udp_acks_piggybacked",
                "Owed acks that rode on a datagram carrying frames.",
                acks_piggybacked,
            ),
            Row::counter("udp_datagrams_received", "Datagrams read.", datagrams_received),
            Row::counter("udp_bytes_sent", "Datagram bytes handed to the socket.", bytes_sent),
            Row::counter("udp_decode_errors", "Datagrams discarded as malformed.", decode_errors),
            Row::counter("udp_fragments_sent", "Fragment datagrams sent.", fragments_sent),
            Row::counter("udp_frames_reassembled", "Frames reassembled.", frames_reassembled),
            Row::counter("udp_peer_down", "Peers declared unreachable.", peer_down),
            Row::counter("udp_peer_up", "Unreachable peers that answered again.", peer_up),
            Row::counter("udp_epoch_resets", "Receive streams fenced by epoch.", epoch_resets),
            Row::counter("udp_coalesced_sent", "Coalesced datagrams sent.", coalesced_sent),
            Row::counter(
                "udp_coalesced_received",
                "Coalesced datagrams received.",
                coalesced_received,
            ),
            Row::counter(
                "udp_peer_restarts",
                "Send sides fenced by a peer restart.",
                peer_restarts,
            ),
            Row::counter(
                "udp_oversize_refused",
                "Frames refused as too large to fragment.",
                oversize_refused,
            ),
        ]
    }
}

/// A frame awaiting acknowledgement. Only a peer's oldest one is ever
/// retransmitted, so `retries` is non-zero on that head frame alone.
#[derive(Debug)]
struct OutFrame {
    frame: Bytes,
    sent_at_us: u64,
    rto_us: u64,
    retries: u32,
}

/// Everything the transport tracks about one remote address.
#[derive(Debug)]
struct PeerState {
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
    // Coalescing buffer: whole frames sent since the last flush, as
    // `(seq, frame)`, awaiting that flush or the size trigger.
    pending: Vec<(u64, Bytes)>,
    /// Coalesced body bytes `pending` would occupy (entry overheads
    /// included), checked against the MTU budget by the size trigger.
    pending_bytes: usize,
}

impl PeerState {
    fn new(epoch: u64, cfg: &UdpConfig) -> Self {
        PeerState {
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
            pending: Vec::new(),
            pending_bytes: 0,
        }
    }

    /// Opens a new send epoch towards this peer: numbering restarts at 1
    /// and whatever was numbered in the old epoch — in flight, or parked
    /// in the coalescing buffer, which holds in-flight frames — leaves
    /// it. With `reoffer` those frames go back to the head of the queue
    /// in send order, for the next `promote_queued` to ship under the
    /// new numbering; without, they and the queue behind them are
    /// abandoned (anti-entropy owns the gap).
    fn fence(&mut self, reoffer: bool) {
        self.send_epoch += 1;
        self.next_seq = 1;
        self.pending.clear();
        self.pending_bytes = 0;
        let outstanding = std::mem::take(&mut self.unacked);
        if reoffer {
            for out in outstanding.into_values().rev() {
                self.queued.push_front(out.frame);
            }
        } else {
            self.queued.clear();
        }
    }

    /// Whether a frame may go out to this peer now: the window has room,
    /// and the head frame is not being retransmitted. A peer that let a
    /// whole timeout pass in silence is probed with that one frame, and
    /// the ack that releases it reopens the window.
    fn may_send(&self, window: usize) -> bool {
        self.unacked.len() < window
            && self.unacked.first_key_value().is_none_or(|(_, head)| head.retries == 0)
    }

    /// Numbers `frame` as the next one of the current send epoch and
    /// starts its retransmit clock.
    fn number(&mut self, frame: Bytes, now_us: u64, rto_us: u64) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.unacked.insert(seq, OutFrame { frame, sent_at_us: now_us, rto_us, retries: 0 });
        seq
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

    /// Takes one wanted frame numbered `seq`, which arrived some time
    /// after `since_us`: it comes straight back when it is the next one
    /// expected, and waits in the holdback when it is ahead. Either way
    /// the sender is owed an ack for it.
    fn take(&mut self, seq: u64, frame: Bytes, since_us: u64) -> Option<Bytes> {
        if self.ack_owed == 0 {
            self.ack_since_us = since_us;
        }
        self.ack_owed += 1;
        if seq == self.expect {
            self.expect += 1;
            return Some(frame);
        }
        self.holdback.insert(seq, frame);
        None
    }

    /// Whether a standalone ack has to leave now: asked for at once,
    /// every second unacknowledged frame, or one that has waited `delay`
    /// for a datagram to ride on.
    fn ack_due(&self, now_us: u64, delay_us: u64) -> bool {
        self.ack_now
            || self.ack_owed >= 2
            || (self.ack_owed == 1 && now_us.saturating_sub(self.ack_since_us) >= delay_us)
    }
}

/// The process incarnation an epoch was issued under
/// ([`UdpTransport::bind`] puts it in the high half; per-peer fences
/// count in the low half).
fn incarnation_of(epoch: u64) -> u64 {
    epoch >> 32
}

/// A datagram the shim held back, waiting for its release time.
#[derive(Debug)]
struct Delayed {
    due_us: u64,
    tie: u64,
    to: SocketAddr,
    datagram: Vec<u8>,
}

impl PartialEq for Delayed {
    fn eq(&self, other: &Self) -> bool {
        self.due_us == other.due_us && self.tie == other.tie
    }
}
impl Eq for Delayed {}
impl PartialOrd for Delayed {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Delayed {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse order: BinaryHeap is a max-heap, we want earliest due.
        (other.due_us, other.tie).cmp(&(self.due_us, self.tie))
    }
}

/// Reliable fragmenting datagram channel over a real UDP socket.
pub struct UdpTransport {
    socket: UdpSocket,
    cfg: UdpConfig,
    /// Epoch base for this process incarnation. Per-peer fences add to
    /// it, so restarts must raise the base by more than any plausible
    /// fence count — [`UdpTransport::bind`] shifts the incarnation into
    /// the high bits.
    epoch_base: u64,
    peers: HashMap<SocketAddr, PeerState>,
    shim: SocketShim,
    delayed: BinaryHeap<Delayed>,
    delay_tie: u64,
    stats: UdpStats,
    /// Receive staging buffer, reused across datagrams (`mem::take`n
    /// around the socket borrow — never reallocated at steady state).
    recv_buf: Vec<u8>,
    /// Outbound datagram staging buffer, reused across builds.
    dgram_buf: Vec<u8>,
    /// Scratch fragment list, reused across [`fragment_into`] calls.
    frag_scratch: Vec<Bytes>,
    /// Scratch peer-address list for the per-poll sweeps
    /// (retransmit/promote/flush walk addresses while mutating peers).
    addr_scratch: Vec<SocketAddr>,
    /// When [`Self::poll`] last ran. Whatever the next one reads arrived
    /// after this, and an owed ack's delay counts from here: an owner
    /// that was descheduled for longer than the delay acknowledges at
    /// once instead of adding the delay to a wait the sender's
    /// retransmit timer has been counting all along.
    last_poll_us: u64,
}

/// The socket, for an owner to wait on ([`crate::ready::wait`]).
impl AsRawFd for UdpTransport {
    fn as_raw_fd(&self) -> RawFd {
        self.socket.as_raw_fd()
    }
}

impl UdpTransport {
    /// Binds a non-blocking socket on `addr`. `incarnation` must grow by
    /// one each time the owning process restarts (persisted by the
    /// daemon); `shim_seed` fixes the fault-injection stream.
    pub fn bind(
        addr: SocketAddr,
        incarnation: u64,
        cfg: UdpConfig,
        shim_seed: u64,
    ) -> std::io::Result<Self> {
        assert!(
            cfg.mtu >= MIN_MTU + OUTER_OVERHEAD,
            "mtu {} leaves no room under the {} byte outer overhead",
            cfg.mtu,
            OUTER_OVERHEAD
        );
        let socket = UdpSocket::bind(addr)?;
        socket.set_nonblocking(true)?;
        Ok(UdpTransport {
            socket,
            cfg,
            epoch_base: (incarnation + 1) << 32,
            peers: HashMap::new(),
            shim: SocketShim::new(shim_seed),
            delayed: BinaryHeap::new(),
            delay_tie: 0,
            stats: UdpStats::default(),
            recv_buf: vec![0u8; 65_536],
            dgram_buf: Vec::new(),
            frag_scratch: Vec::new(),
            addr_scratch: Vec::new(),
            last_poll_us: 0,
        })
    }

    /// The address the socket actually bound (port 0 resolves here).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.socket.local_addr()
    }

    /// Installs (or clears) deterministic link faults on the send path.
    pub fn set_faults(&mut self, faults: Option<LinkFaults>) {
        self.shim.set_faults(faults);
    }

    /// Transport counters plus shim verdict totals.
    pub fn stats(&self) -> (UdpStats, (u64, u64, u64, u64, u64)) {
        (self.stats, self.shim.stats())
    }

    /// The largest frame one datagram carries whole.
    fn whole_frame_max(&self) -> usize {
        self.cfg.mtu - OUTER_OVERHEAD
    }

    /// The longest an owed ack waits for a datagram to ride on.
    fn ack_delay_us(&self) -> u64 {
        self.cfg.rto_initial_us / 2
    }

    /// Queues `frame` for reliable in-order delivery to `peer`: numbered
    /// and parked for the next flush while the window is open, held in
    /// the queue while it is full or the peer's head frame is being
    /// retransmitted. A frame too large to fragment is refused and
    /// counted ([`UdpStats::oversize_refused`]): numbered, it could never
    /// leave, and would stall everything behind it until the give-up.
    pub fn send(&mut self, peer: SocketAddr, frame: Bytes, now_us: u64) {
        if frame.len() > max_frame_len(self.whole_frame_max()) {
            self.stats.oversize_refused += 1;
            return;
        }
        self.stats.frames_sent += 1;
        let state =
            self.peers.entry(peer).or_insert_with(|| PeerState::new(self.epoch_base, &self.cfg));
        if state.queued.is_empty() && state.may_send(self.cfg.window) {
            let seq = state.number(frame.clone(), now_us, self.cfg.rto_initial_us);
            self.transmit_first(peer, seq, frame, now_us);
        } else {
            state.queued.push_back(frame);
        }
    }

    /// Drives the transport: releases shim-delayed datagrams, drains the
    /// socket, ships what was sent since the last flush, retransmits
    /// overdue head frames, promotes queued traffic into freed windows,
    /// and sends the acks nothing carried. Returns completed frames and
    /// fenced links.
    pub fn poll(&mut self, now_us: u64) -> Vec<UdpEvent> {
        let mut events = Vec::new();
        self.poll_into(now_us, &mut events);
        events
    }

    /// [`Self::poll`] appending into a caller-provided vector (cleared
    /// first), so a steady-state poll loop reuses one event buffer
    /// instead of allocating per pass.
    pub fn poll_into(&mut self, now_us: u64, events: &mut Vec<UdpEvent>) {
        self.poll_ready_into(now_us, true, events);
    }

    /// [`Self::poll_into`] for an owner whose wait ([`crate::ready::wait`])
    /// said whether the socket has anything to read: unless `readable`,
    /// the drain is skipped — it would only meet `EAGAIN` — and the timed
    /// work runs as ever.
    pub fn poll_ready_into(&mut self, now_us: u64, readable: bool, events: &mut Vec<UdpEvent>) {
        events.clear();
        self.flush_delayed(now_us);
        if readable {
            self.drain_socket(now_us, events);
        }
        // After the drain, so these datagrams acknowledge what it read.
        self.flush(now_us);
        self.retransmit_overdue(now_us, events);
        self.promote_queued(now_us);
        // Last: whatever left for a peer above took its ack along.
        self.flush_due_acks(now_us);
        self.last_poll_us = now_us;
    }

    /// Ships every peer's coalescing buffer now. Owners call this at the
    /// end of a turn, once every frame the turn produced was sent, and
    /// before they wait.
    pub fn flush(&mut self, now_us: u64) {
        let mut addrs = std::mem::take(&mut self.addr_scratch);
        addrs.extend(self.peers.iter().filter(|(_, s)| !s.pending.is_empty()).map(|(a, _)| *a));
        for &addr in &addrs {
            self.flush_coalesced(addr, now_us);
        }
        addrs.clear();
        self.addr_scratch = addrs;
    }

    /// Earliest time at which [`Self::poll`] has timed work to do, if
    /// any — after a [`Self::flush`], the owner can wait until then.
    pub fn next_deadline_us(&self) -> Option<u64> {
        let delayed = self.delayed.peek().map(|d| d.due_us);
        // Only a head frame's timer is live (see `retransmit_overdue`):
        // one behind it may be long expired, and would make this a
        // deadline in the past, turning the owner's wait into a spin.
        let retry = self
            .peers
            .values()
            .filter_map(|p| p.unacked.first_key_value())
            .map(|(_, f)| f.sent_at_us + f.rto_us)
            .min();
        let ack = self
            .peers
            .values()
            .filter(|p| p.ack_owed > 0)
            .map(|p| p.ack_since_us + self.ack_delay_us())
            .min();
        [delayed, retry, ack].into_iter().flatten().min()
    }

    fn flush_delayed(&mut self, now_us: u64) {
        while self.delayed.peek().is_some_and(|d| d.due_us <= now_us) {
            let d = self.delayed.pop().expect("peeked");
            self.put_on_socket(&d.datagram, d.to);
        }
    }

    fn drain_socket(&mut self, now_us: u64, events: &mut Vec<UdpEvent>) {
        // Take the staging buffer out of `self` so the datagram can be
        // handled by `&mut self` methods without copying it first.
        let mut buf = std::mem::take(&mut self.recv_buf);
        loop {
            let (len, from) = match self.socket.recv_from(&mut buf) {
                Ok(pair) => pair,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                // Linux surfaces ICMP port-unreachable as a recv error on
                // connected-ish paths; skip and keep draining.
                Err(_) => continue,
            };
            self.stats.datagrams_received += 1;
            self.handle_datagram(from, &buf[..len], now_us, events);
        }
        self.recv_buf = buf;
    }

    fn handle_datagram(
        &mut self,
        from: SocketAddr,
        datagram: &[u8],
        now_us: u64,
        events: &mut Vec<UdpEvent>,
    ) {
        let Some(outer) = parse_outer(datagram) else {
            self.stats.decode_errors += 1;
            return;
        };
        let carries_frames = matches!(outer.kind, KIND_FRAME | KIND_COALESCED | KIND_FRAGMENT);
        // Only frames make a peer. A lone ack from an address nothing was
        // ever sent to acknowledges nothing, and an unknown kind says
        // nothing: neither may claim a `PeerState` every `poll` then walks.
        let known_peer_ack = outer.kind == KIND_ACK && self.peers.contains_key(&from);
        if !(carries_frames || known_peer_ack) {
            self.stats.decode_errors += 1;
            return;
        }
        let state =
            self.peers.entry(from).or_insert_with(|| PeerState::new(self.epoch_base, &self.cfg));
        if state.unreachable {
            state.unreachable = false;
            self.stats.peer_up += 1;
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
        if incarnation > state.remote_incarnation {
            let known = state.remote_incarnation != 0;
            state.remote_incarnation = incarnation;
            if known && state.next_seq > 1 {
                self.stats.peer_restarts += 1;
                // Re-offered only whole: behind a frame the dead process
                // acknowledged, the rest continue what it took with it.
                let whole = state.unacked.first_key_value().is_some_and(|(&seq, _)| seq == 1);
                state.fence(whole);
                events.push(UdpEvent::Fenced(from));
            }
        }

        // What it has received from us. An ack for any other epoch is
        // ignored; a cumulative below what was already released (a
        // reordered early ack) releases nothing.
        if outer.ack_epoch == state.send_epoch
            && state.unacked.first_key_value().is_some_and(|(&seq, _)| seq <= outer.cumulative)
        {
            state.unacked.retain(|&seq, _| seq > outer.cumulative);
        }
        if !carries_frames {
            return;
        }

        // What it sends us.
        if outer.epoch < state.remote_epoch {
            self.stats.decode_errors += 1;
            return;
        }
        if outer.epoch > state.remote_epoch {
            // New incarnation, or the peer's own fence: the old sequence
            // space is dead, and a sender that renumbered wants to hear at
            // once where the new stream stands (a first contact renumbers
            // nothing).
            self.stats.epoch_resets += 1;
            state.ack_now |= state.remote_epoch != 0;
            state.remote_epoch = outer.epoch;
            state.expect = 1;
            state.holdback.clear();
            state.reassembler = Reassembler::new(self.cfg.reassembly_timeout_us, self.cfg.window);
        }
        // Every frame-carrying body opens with a varint: the sequence
        // number, or a coalesced datagram's entry count.
        let mut body = outer.body;
        let Ok(first) = take_uvar(&mut body) else {
            self.stats.decode_errors += 1;
            return;
        };
        match outer.kind {
            KIND_FRAME => {
                if state.wants(first) {
                    let ready = state.take(first, Bytes::from(body), self.last_poll_us);
                    Self::surface(&mut self.stats, events, from, ready);
                }
            }
            KIND_COALESCED => {
                // A truncated entry list keeps whatever decoded before
                // the damage; a forged count runs out of bytes, not time.
                self.stats.coalesced_received += 1;
                for _ in 0..first {
                    let Some((seq, frame)) = take_coalesced_entry(&mut body) else {
                        self.stats.decode_errors += 1;
                        break;
                    };
                    if state.wants(seq) {
                        let ready = state.take(seq, Bytes::from(frame), self.last_poll_us);
                        Self::surface(&mut self.stats, events, from, ready);
                    }
                }
            }
            _ => {
                if state.wants(first) {
                    match state.reassembler.accept(now_us, &Bytes::from(body)) {
                        Ok(Some(frame)) => {
                            self.stats.frames_reassembled += 1;
                            let ready = state.take(first, frame, self.last_poll_us);
                            Self::surface(&mut self.stats, events, from, ready);
                        }
                        Ok(None) => {}
                        Err(_) => {
                            self.stats.decode_errors += 1;
                            return;
                        }
                    }
                }
            }
        }
        // A gap that closed, or one still open: the sender is recovering
        // from a loss, so tell it now where the stream stands.
        while let Some(frame) = state.holdback.remove(&state.expect) {
            state.expect += 1;
            state.ack_now = true;
            Self::surface(&mut self.stats, events, from, Some(frame));
        }
        state.ack_now |= !state.holdback.is_empty();
    }

    /// Hands the owner a frame whose turn has come, if `ready` holds one.
    fn surface(
        stats: &mut UdpStats,
        events: &mut Vec<UdpEvent>,
        from: SocketAddr,
        ready: Option<Bytes>,
    ) {
        if let Some(frame) = ready {
            stats.frames_received += 1;
            events.push(UdpEvent::Frame { from, frame });
        }
    }

    /// Retransmits each peer's oldest unacknowledged frame once its timer
    /// has run out. The receiver holds back everything behind a hole, so
    /// that frame is the only one that can move its stream on; the frames
    /// behind it wait for the ack that releases it, and one whose timer
    /// ran out meanwhile is the next head and leaves at once. A head that
    /// exhausts its retries gives up on the peer.
    fn retransmit_overdue(&mut self, now_us: u64, events: &mut Vec<UdpEvent>) {
        let mut addrs = std::mem::take(&mut self.addr_scratch);
        addrs.extend(self.peers.keys().copied());
        for &addr in &addrs {
            let state = self.peers.get_mut(&addr).expect("known peer");
            let Some(mut head) = state.unacked.first_entry() else { continue };
            let seq = *head.key();
            let out = head.get_mut();
            if now_us < out.sent_at_us + out.rto_us {
                continue;
            }
            if out.retries < self.cfg.max_retries {
                out.retries += 1;
                out.sent_at_us = now_us;
                out.rto_us = (out.rto_us * 2).min(self.cfg.rto_max_us);
                self.stats.retransmits += 1;
                let frame = out.frame.clone();
                self.transmit_frame(addr, seq, &frame, now_us);
                continue;
            }
            self.stats.give_ups += 1;
            state.fence(false);
            events.push(UdpEvent::Fenced(addr));
            if !state.unreachable {
                state.unreachable = true;
                self.stats.peer_down += 1;
            }
        }
        addrs.clear();
        self.addr_scratch = addrs;
    }

    fn promote_queued(&mut self, now_us: u64) {
        let mut addrs = std::mem::take(&mut self.addr_scratch);
        addrs.extend(self.peers.keys().copied());
        for &addr in &addrs {
            loop {
                let state = self.peers.get_mut(&addr).expect("known peer");
                if !state.may_send(self.cfg.window) {
                    break;
                }
                let Some(frame) = state.queued.pop_front() else { break };
                let seq = state.number(frame.clone(), now_us, self.cfg.rto_initial_us);
                self.transmit_frame(addr, seq, &frame, now_us);
            }
        }
        addrs.clear();
        self.addr_scratch = addrs;
    }

    /// Sends the acks that are due and that nothing carried.
    fn flush_due_acks(&mut self, now_us: u64) {
        let delay = self.ack_delay_us();
        let mut due = std::mem::take(&mut self.addr_scratch);
        due.extend(self.peers.iter().filter(|(_, s)| s.ack_due(now_us, delay)).map(|(a, _)| *a));
        for &addr in &due {
            self.ship(addr, KIND_ACK, now_us, |_| {});
        }
        due.clear();
        self.addr_scratch = due;
    }

    /// First transmission of a frame: the only path allowed to coalesce.
    /// Retransmits and promotions go through [`Self::transmit_frame`]
    /// and ship at once, one frame per datagram.
    fn transmit_first(&mut self, to: SocketAddr, seq: u64, frame: Bytes, now_us: u64) {
        if frame.len() > self.whole_frame_max() {
            // A multi-fragment frame already fills datagrams on its own;
            // coalescing could only split or overflow it.
            self.transmit_frame(to, seq, &frame, now_us);
            return;
        }
        // Small frame: park it in the peer's coalescing buffer until the
        // size trigger or the next flush ships it.
        let entry = COALESCE_ENTRY_OVERHEAD + frame.len();
        let budget = self.whole_frame_max();
        let state = self.peers.get_mut(&to).expect("send created the peer");
        if !state.pending.is_empty() && state.pending_bytes + entry > budget {
            self.flush_coalesced(to, now_us);
        }
        let state = self.peers.get_mut(&to).expect("send created the peer");
        state.pending.push((seq, frame));
        state.pending_bytes += entry;
    }

    /// Ships `to`'s coalescing buffer now. A lone entry goes out as a
    /// plain [`KIND_FRAME`] datagram, so the coalesced kind only ever
    /// appears when it packs two or more frames.
    fn flush_coalesced(&mut self, to: SocketAddr, now_us: u64) {
        let Some(state) = self.peers.get_mut(&to) else { return };
        if state.pending.is_empty() {
            return;
        }
        let mut entries = std::mem::take(&mut state.pending);
        state.pending_bytes = 0;
        if let [(seq, frame)] = entries.as_slice() {
            self.transmit_frame(to, *seq, frame, now_us);
        } else {
            self.stats.coalesced_sent += 1;
            self.ship(to, KIND_COALESCED, now_us, |out| put_coalesced_body(out, &entries));
        }
        // Hand the drained vector back so steady-state buffering never
        // reallocates.
        entries.clear();
        if let Some(state) = self.peers.get_mut(&to) {
            if state.pending.capacity() < entries.capacity() {
                state.pending = entries;
            }
        }
    }

    /// Puts frame `seq` on the wire by itself: whole in one datagram when
    /// it fits, else one datagram per fragment. `send` refused anything
    /// too large to fragment.
    fn transmit_frame(&mut self, to: SocketAddr, seq: u64, frame: &Bytes, now_us: u64) {
        let inner_mtu = self.whole_frame_max();
        if frame.len() <= inner_mtu {
            self.ship(to, KIND_FRAME, now_us, |out| {
                put_uvar(out, seq);
                out.extend_from_slice(frame);
            });
            return;
        }
        let mut fragments = std::mem::take(&mut self.frag_scratch);
        if fragment_into(seq, frame, inner_mtu, &mut fragments).is_ok() {
            for frag in &fragments {
                self.stats.fragments_sent += 1;
                self.ship(to, KIND_FRAGMENT, now_us, |out| {
                    put_uvar(out, seq);
                    out.extend_from_slice(frag);
                });
            }
        }
        fragments.clear();
        self.frag_scratch = fragments;
    }

    /// Builds one datagram for `to` in the staging buffer — the header
    /// every kind shares, then whatever `body` appends, then the trailer
    /// — and ships it through the shim. The header acknowledges the
    /// reverse stream, so whatever ack `to` was owed has now left.
    fn ship(&mut self, to: SocketAddr, kind: u8, now_us: u64, body: impl FnOnce(&mut Vec<u8>)) {
        let Some(state) = self.peers.get_mut(&to) else { return };
        let mut buf = std::mem::take(&mut self.dgram_buf);
        open_outer(&mut buf, kind, state.send_epoch, (state.remote_epoch, state.expect - 1));
        body(&mut buf);
        seal_outer(&mut buf);
        if kind == KIND_ACK {
            self.stats.acks_sent += 1;
        } else if state.ack_owed > 0 || state.ack_now {
            self.stats.acks_piggybacked += 1;
        }
        state.ack_owed = 0;
        state.ack_now = false;
        self.shimmed_send(to, &buf, now_us);
        self.dgram_buf = buf;
    }

    /// Applies the shim verdict to one outbound datagram. The clean path
    /// (send now, unmodified) writes straight from the caller's buffer;
    /// only corrupted or delayed copies allocate.
    fn shimmed_send(&mut self, to: SocketAddr, datagram: &[u8], now_us: u64) {
        if self.shim.passthrough() {
            self.put_on_socket(datagram, to);
            return;
        }
        let verdict = self.shim.judge();
        for (i, &offset) in verdict.offsets_us.iter().enumerate() {
            let corrupt = verdict.corrupt && i == 0;
            if offset == 0 && !corrupt {
                self.put_on_socket(datagram, to);
                continue;
            }
            let mut copy = datagram.to_vec();
            if corrupt {
                // Flip a checksum byte: always detected, never mis-decoded.
                let last = copy.len() - 1;
                copy[last] ^= 0xff;
            }
            if offset == 0 {
                self.put_on_socket(&copy, to);
            } else {
                self.delay_tie += 1;
                self.delayed.push(Delayed {
                    due_us: now_us + offset,
                    tie: self.delay_tie,
                    to,
                    datagram: copy,
                });
            }
        }
    }

    /// The one place a datagram meets the socket.
    fn put_on_socket(&mut self, datagram: &[u8], to: SocketAddr) {
        self.stats.bytes_sent += datagram.len() as u64;
        let _ = self.socket.send_to(datagram, to);
    }
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

/// Starts a datagram in `out` (cleared first): the header every kind
/// shares. `ack` is `(epoch, cumulative)` of the reverse stream.
fn open_outer(out: &mut Vec<u8>, kind: u8, epoch: u64, ack: (u64, u64)) {
    out.clear();
    out.push(kind);
    put_epoch(out, epoch);
    put_epoch(out, ack.0);
    put_uvar(out, ack.1);
}

/// Appends the [`checksum64`] trailer that closes every outer datagram.
fn seal_outer(out: &mut Vec<u8>) {
    let sum = checksum64(out);
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
mod tests {
    use super::*;
    use std::net::{IpAddr, Ipv4Addr};

    fn loopback() -> SocketAddr {
        SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), 0)
    }

    fn pair(cfg: UdpConfig) -> (UdpTransport, UdpTransport, SocketAddr, SocketAddr) {
        let a = UdpTransport::bind(loopback(), 0, cfg.clone(), 1).expect("bind a");
        let b = UdpTransport::bind(loopback(), 0, cfg, 2).expect("bind b");
        let addr_a = a.local_addr().expect("addr a");
        let addr_b = b.local_addr().expect("addr b");
        (a, b, addr_a, addr_b)
    }

    /// Pumps both ends until `want` frames arrived at `b` or time runs out.
    fn pump(a: &mut UdpTransport, b: &mut UdpTransport, want: usize, budget_ms: u64) -> Vec<Bytes> {
        let start = std::time::Instant::now();
        let mut got = Vec::new();
        while got.len() < want && start.elapsed().as_millis() < u128::from(budget_ms) {
            let now_us = start.elapsed().as_micros() as u64;
            let _ = a.poll(now_us);
            for ev in b.poll(now_us) {
                if let UdpEvent::Frame { frame, .. } = ev {
                    got.push(frame);
                }
            }
            std::thread::sleep(std::time::Duration::from_micros(300));
        }
        got
    }

    #[test]
    fn frames_arrive_in_order_over_a_clean_link() {
        let (mut a, mut b, _, addr_b) = pair(UdpConfig::default());
        for i in 0..50u32 {
            a.send(addr_b, Bytes::from(i.to_be_bytes().to_vec()), 0);
        }
        let got = pump(&mut a, &mut b, 50, 2_000);
        assert_eq!(got.len(), 50);
        for (i, frame) in got.iter().enumerate() {
            assert_eq!(frame.as_ref(), (i as u32).to_be_bytes());
        }
    }

    #[test]
    fn a_poll_told_the_socket_is_not_readable_leaves_it_alone() {
        let (mut a, mut b, _, addr_b) = pair(UdpConfig::default());
        a.send(addr_b, Bytes::from_static(b"hello"), 0);
        a.flush(0);
        let mut events = Vec::new();
        let ready = crate::ready::wait([(b.as_raw_fd(), false)], None).expect("wait");
        assert_eq!(ready, [true]);
        b.poll_ready_into(0, false, &mut events);
        assert!(events.is_empty());
        assert_eq!(b.stats().0.datagrams_received, 0, "not read");
        // It is still there for the poll that is told to read.
        b.poll_ready_into(0, true, &mut events);
        assert!(matches!(&events[..], [UdpEvent::Frame { frame, .. }] if frame == &b"hello"[..]));
    }

    #[test]
    fn large_frames_fragment_and_reassemble() {
        let (mut a, mut b, _, addr_b) = pair(UdpConfig::default());
        let big: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
        a.send(addr_b, Bytes::from(big.clone()), 0);
        let got = pump(&mut a, &mut b, 1, 2_000);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].as_ref(), big.as_slice());
    }

    #[test]
    fn heavy_shim_faults_do_not_break_ordered_delivery() {
        let cfg = UdpConfig { rto_initial_us: 5_000, ..UdpConfig::default() };
        let (mut a, mut b, _, addr_b) = pair(cfg);
        a.set_faults(Some(LinkFaults {
            drop: 0.25,
            dup: 0.25,
            reorder: 0.25,
            reorder_extra_ms: 2.0,
            corrupt: 0.10,
        }));
        // Every fifth frame is three MTUs long, the size of a sync reply
        // or a join grant: each of its fragments is dropped, duplicated,
        // delayed or corrupted on its own, and the frame must still
        // reassemble, in its place in the stream.
        let frame = |i: u32| -> Bytes {
            if i.is_multiple_of(5) {
                let large = (0..3 * pcb_broadcast::DEFAULT_MTU).map(|j| (i as usize + j) as u8);
                Bytes::from(large.collect::<Vec<u8>>())
            } else {
                Bytes::from(i.to_be_bytes().to_vec())
            }
        };
        for i in 0..80u32 {
            a.send(addr_b, frame(i), 0);
        }
        let got = pump(&mut a, &mut b, 80, 8_000);
        assert_eq!(got.len(), 80, "lossy link must still deliver everything");
        for (i, got) in got.iter().enumerate() {
            assert_eq!(*got, frame(i as u32), "order broken at {i}");
        }
        assert_eq!(b.stats().0.frames_reassembled, 16, "every large frame, reassembled once");
    }

    #[test]
    fn silent_peer_is_declared_unreachable_then_recovers() {
        let cfg = UdpConfig {
            rto_initial_us: 2_000,
            rto_max_us: 8_000,
            max_retries: 3,
            ..UdpConfig::default()
        };
        let (mut a, mut b, _, addr_b) = pair(cfg);
        // b never polls: a's retries exhaust.
        a.send(addr_b, Bytes::from(vec![1, 2, 3]), 0);
        let start = std::time::Instant::now();
        while a.stats().0.peer_down == 0 && start.elapsed().as_millis() < 3_000 {
            let now_us = start.elapsed().as_micros() as u64;
            let _ = a.poll(now_us);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(a.stats().0.peer_down, 1, "peer should be declared unreachable");
        assert!(a.peers[&addr_b].unreachable);

        // Drain the retransmits that accumulated in b's kernel buffer
        // while it was "dead" — they belong to the abandoned epoch.
        for _ in 0..20 {
            let now_us = start.elapsed().as_micros() as u64;
            let _ = b.poll(now_us);
            std::thread::sleep(std::time::Duration::from_micros(200));
        }

        // New traffic after recovery flows again under the bumped epoch.
        let now_us = start.elapsed().as_micros() as u64;
        a.send(addr_b, Bytes::from(vec![9, 9]), now_us);
        let start2 = std::time::Instant::now();
        let mut got = Vec::new();
        let revived = |a: &UdpTransport| a.stats().0.peer_up > 0;
        while (got.is_empty() || !revived(&a)) && start2.elapsed().as_millis() < 3_000 {
            let now_us = start.elapsed().as_micros() as u64;
            let _ = a.poll(now_us);
            for ev in b.poll(now_us) {
                if let UdpEvent::Frame { frame, .. } = ev {
                    got.push(frame);
                }
            }
            std::thread::sleep(std::time::Duration::from_micros(300));
        }
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].as_ref(), [9, 9]);
        assert_eq!(a.stats().0.peer_up, 1, "ack from the revived peer should count it up");
        assert!(!a.peers[&addr_b].unreachable);
    }

    #[test]
    fn give_up_drops_queued_frames_with_the_dead_epoch() {
        let cfg = UdpConfig {
            rto_initial_us: 2_000,
            rto_max_us: 8_000,
            max_retries: 3,
            // One frame in flight, so the two behind it are guaranteed
            // to be still queued when the give-up fires.
            window: 1,
            ..UdpConfig::default()
        };
        let (mut a, mut b, _, addr_b) = pair(cfg);
        // One frame ships and exhausts its retries while b stays silent.
        a.send(addr_b, Bytes::from(vec![b'X']), 0);
        // Two more wait behind it for the window.
        a.send(addr_b, Bytes::from(vec![b'Y']), 0);
        a.send(addr_b, Bytes::from(vec![b'Z']), 0);
        a.flush(0);

        let start = std::time::Instant::now();
        while a.stats().0.peer_down == 0 && start.elapsed().as_millis() < 3_000 {
            let now_us = start.elapsed().as_micros() as u64;
            let _ = a.poll(now_us);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(a.stats().0.peer_down, 1, "peer should be declared unreachable");
        assert!(a.stats().0.give_ups >= 1);

        // Drain the dead-epoch retransmits from b's kernel buffer.
        for _ in 0..20 {
            let now_us = start.elapsed().as_micros() as u64;
            let _ = b.poll(now_us);
            std::thread::sleep(std::time::Duration::from_micros(200));
        }

        // The revived peer gets fresh traffic under the bumped epoch.
        // The frames queued at give-up time belonged to the dead epoch
        // and must never surface — anti-entropy owns that gap.
        let now_us = start.elapsed().as_micros() as u64;
        a.send(addr_b, Bytes::from(vec![b'W']), now_us);
        let start2 = std::time::Instant::now();
        let mut got = Vec::new();
        while start2.elapsed().as_millis() < 3_000 {
            let now_us = start.elapsed().as_micros() as u64;
            let _ = a.poll(now_us);
            for ev in b.poll(now_us) {
                if let UdpEvent::Frame { frame, .. } = ev {
                    got.push(frame);
                }
            }
            if got.iter().any(|f| f.as_ref() == [b'W']) {
                break;
            }
            std::thread::sleep(std::time::Duration::from_micros(300));
        }
        assert!(got.iter().any(|f| f.as_ref() == [b'W']), "post-recovery frame should arrive");
        assert!(
            !got.iter().any(|f| f.as_ref() == [b'Y'] || f.as_ref() == [b'Z']),
            "frames queued at give-up time leaked into the new epoch"
        );
    }

    /// A timeout and retry budget short enough for a synthetic clock.
    fn probing_cfg() -> UdpConfig {
        UdpConfig {
            rto_initial_us: 2_000,
            rto_max_us: 8_000,
            max_retries: 3,
            ..UdpConfig::default()
        }
    }

    /// Polls `a` every millisecond of the synthetic clock from `from_us`
    /// until `done`, checking after every poll that the next deadline is
    /// still ahead; returns the clock at the end.
    fn step_until(
        a: &mut UdpTransport,
        from_us: u64,
        mut done: impl FnMut(&UdpTransport) -> bool,
    ) -> u64 {
        let mut now_us = from_us;
        while !done(a) {
            assert!(now_us < 1_000_000, "never done");
            now_us += 1_000;
            let _ = a.poll(now_us);
            if let Some(deadline) = a.next_deadline_us() {
                assert!(deadline > now_us, "a deadline already past: {deadline} at {now_us}");
            }
        }
        now_us
    }

    #[test]
    fn a_silent_peer_gets_one_retransmit_per_timeout_not_a_window() {
        let cfg = probing_cfg();
        let (mut a, _b, _, addr_b) = pair(cfg.clone());
        // A full window in flight to a peer that never reads.
        for frame in byte_frames(0..cfg.window as u8) {
            a.send(addr_b, frame, 0);
        }
        a.flush(0);
        assert_eq!(a.peers[&addr_b].unacked.len(), cfg.window);
        step_until(&mut a, 0, |a| a.stats().0.give_ups > 0);
        // Retransmitting every frame on its own timer cost window ×
        // max_retries here (192): the receiver can only take the head.
        let (stats, _) = a.stats();
        assert_eq!(stats.retransmits, u64::from(cfg.max_retries));
        assert_eq!((stats.give_ups, stats.peer_down), (1, 1));
        assert!(a.peers[&addr_b].unacked.is_empty(), "the give-up fence abandons the window");
    }

    /// Two frames in flight to a silent `b` and the head retransmitted
    /// once: the peer let a whole timeout pass. Returns the clock.
    fn head_retrying(a: &mut UdpTransport, addr_b: SocketAddr) -> u64 {
        for frame in byte_frames(0..2) {
            a.send(addr_b, frame, 0);
        }
        a.flush(0);
        let now_us = step_until(a, 0, |a| a.stats().0.retransmits == 1);
        assert_eq!(
            a.peers[&addr_b].unacked.values().map(|f| f.retries).collect::<Vec<_>>(),
            [1, 0]
        );
        now_us
    }

    #[test]
    fn while_the_head_retries_new_frames_wait_in_the_queue() {
        let cfg = probing_cfg();
        let (mut a, _b, _, addr_b) = pair(cfg.clone());
        let t = head_retrying(&mut a, addr_b);
        let sent = a.stats().0.bytes_sent;
        for frame in byte_frames(2..5) {
            a.send(addr_b, frame, t);
        }
        a.flush(t);
        let _ = a.poll(t);
        assert_eq!(a.stats().0.bytes_sent, sent, "nothing new left for a silent peer");
        assert_eq!((a.peers[&addr_b].unacked.len(), a.peers[&addr_b].queued.len()), (2, 3));
        // The frame behind the head timed out long ago; the deadline is
        // the head's, doubled once, not that one's.
        assert_eq!(a.next_deadline_us(), Some(t + 2 * cfg.rto_initial_us));
        // Through the give-up the queue is held, the head alone retried.
        step_until(&mut a, t, |a| a.stats().0.give_ups > 0);
        assert_eq!(a.stats().0.retransmits, u64::from(cfg.max_retries));
    }

    #[test]
    fn the_ack_that_releases_the_head_sends_the_queue_in_the_same_poll() {
        let (mut a, mut b, _, addr_b) = pair(probing_cfg());
        let t = head_retrying(&mut a, addr_b);
        for frame in byte_frames(2..6) {
            a.send(addr_b, frame, t);
        }
        // The peer answers: it reads both frames (one coalesced datagram)
        // and the retransmission, and acknowledges them at once.
        let at_b = read_datagrams(&mut b, t, 2);
        assert_eq!(at_b.len(), 2);
        assert_eq!(b.stats().0.acks_sent, 1);
        // One poll reads the ack and ships all four queued frames.
        let _ = read_datagrams(&mut a, t, 1);
        assert!(a.peers[&addr_b].queued.is_empty());
        assert_eq!(a.peers[&addr_b].unacked.keys().copied().collect::<Vec<_>>(), [3, 4, 5, 6]);
        let frames = read_datagrams(&mut b, t, 6)
            .into_iter()
            .filter_map(|e| match e {
                UdpEvent::Frame { frame, .. } => Some(frame),
                UdpEvent::Fenced(_) => None,
            })
            .collect::<Vec<_>>();
        assert_eq!(frames, byte_frames(2..6), "in order, each once");
        assert_eq!(a.stats().0.retransmits, 1);
    }

    #[test]
    fn restarted_sender_epoch_resets_the_receive_stream() {
        let cfg = UdpConfig::default();
        let b_addr;
        let mut b;
        {
            let (mut a, b2, _, addr_b) = pair(cfg.clone());
            b = b2;
            b_addr = addr_b;
            a.send(b_addr, Bytes::from(vec![1]), 0);
            a.send(b_addr, Bytes::from(vec![2]), 0);
            let got = pump(&mut a, &mut b, 2, 2_000);
            assert_eq!(got.len(), 2);
        }
        // "Restart": a new transport, higher incarnation, fresh seq space.
        let mut a2 = UdpTransport::bind(loopback(), 1, cfg, 3).expect("bind a2");
        a2.send(b_addr, Bytes::from(vec![7]), 0);
        let got = pump(&mut a2, &mut b, 1, 2_000);
        assert_eq!(got.len(), 1, "fresh epoch must not be mistaken for replay");
        assert_eq!(got[0].as_ref(), [7]);
    }

    /// Polls both ends at one frozen instant of the synthetic clock until
    /// `done` holds, collecting the frames each end received (`a`'s
    /// first). Loopback queues a datagram on the receiving socket inside
    /// `send_to`, so this spins without sleeping; and because the clock
    /// never advances, no retransmit timer can fire — whatever arrives
    /// was sent exactly once.
    fn settle(
        a: &mut UdpTransport,
        b: &mut UdpTransport,
        now_us: u64,
        mut done: impl FnMut(&UdpTransport, &UdpTransport, &[Bytes], &[Bytes]) -> bool,
    ) -> (Vec<Bytes>, Vec<Bytes>) {
        let frames = |events: Vec<UdpEvent>| {
            events.into_iter().filter_map(|e| match e {
                UdpEvent::Frame { frame, .. } => Some(frame),
                _ => None,
            })
        };
        let (mut at_a, mut at_b) = (Vec::new(), Vec::new());
        for _ in 0..100_000 {
            at_a.extend(frames(a.poll(now_us)));
            at_b.extend(frames(b.poll(now_us)));
            if done(a, b, &at_a, &at_b) {
                break;
            }
            std::hint::spin_loop();
        }
        (at_a, at_b)
    }

    fn outstanding(t: &UdpTransport, peer: SocketAddr) -> usize {
        t.peers.get(&peer).map_or(0, |p| p.unacked.len() + p.queued.len())
    }

    fn byte_frames(range: std::ops::Range<u8>) -> Vec<Bytes> {
        range.map(|i| Bytes::from(vec![i])).collect()
    }

    /// One whole-frame datagram, as `ship` builds it.
    fn frame_datagram(epoch: u64, ack: (u64, u64), seq: u64, frame: &[u8]) -> Vec<u8> {
        let mut raw = Vec::new();
        open_outer(&mut raw, KIND_FRAME, epoch, ack);
        put_uvar(&mut raw, seq);
        raw.extend_from_slice(frame);
        seal_outer(&mut raw);
        raw
    }

    /// A standalone ack for `(epoch, cumulative)` whose own epoch is left
    /// at zero — it names no incarnation, so it can only ever be read for
    /// what it acknowledges.
    fn build_ack_into(out: &mut Vec<u8>, epoch: u64, cumulative: u64) {
        open_outer(out, KIND_ACK, 0, (epoch, cumulative));
        seal_outer(out);
    }

    /// Polls `t` on a frozen clock until it has read `want` datagrams.
    fn read_datagrams(t: &mut UdpTransport, now_us: u64, want: u64) -> Vec<UdpEvent> {
        let mut events = Vec::new();
        for _ in 0..100_000 {
            events.extend(t.poll(now_us));
            if t.stats().0.datagrams_received >= want {
                break;
            }
        }
        assert_eq!(t.stats().0.datagrams_received, want);
        events
    }

    #[test]
    fn restarted_receiver_resyncs_without_a_give_up() {
        // A window of 4 so the restart finds frames in every send-side
        // state: in flight, parked in the coalescing buffer, and queued.
        let cfg = UdpConfig { window: 4, ..UdpConfig::default() };
        let (mut a, mut b, addr_a, addr_b) = pair(cfg.clone());
        // B is a known peer of A (one frame back), and six frames A→B
        // are delivered and acknowledged.
        b.send(addr_a, Bytes::from_static(b"hello"), 0);
        b.flush(0);
        let (at_a, _) = settle(&mut a, &mut b, 0, |_, _, at_a, _| !at_a.is_empty());
        assert_eq!(at_a, [Bytes::from_static(b"hello")]);
        let mut at_b = Vec::new();
        for batch in [0..4, 4..6] {
            // The window is 4; and two frames or more are acknowledged at
            // once, where a lone one would wait for a clock that is frozen.
            for frame in byte_frames(batch) {
                a.send(addr_b, frame, 0);
            }
            a.flush(0);
            at_b.extend(settle(&mut a, &mut b, 0, |a, _, _, _| outstanding(a, addr_b) == 0).1);
        }
        assert_eq!(at_b, byte_frames(0..6));

        // B dies. A keeps sending: two frames flushed to the dead socket,
        // two parked in the coalescing buffer, two queued behind the
        // window.
        drop(b);
        for (i, frame) in byte_frames(6..12).into_iter().enumerate() {
            a.send(addr_b, frame, 0);
            if i == 1 {
                a.flush(0);
            }
        }
        assert_eq!(outstanding(&a, addr_b), 6);

        // B′: same address, next incarnation, nothing remembered. It
        // speaks first; A has one more frame to send.
        let mut b2 = UdpTransport::bind(addr_b, 1, cfg, 3).expect("rebind b");
        b2.send(addr_a, Bytes::from_static(b"back"), 0);
        b2.flush(0);
        a.send(addr_b, Bytes::from(vec![12]), 0);
        let (at_a, at_b) = settle(&mut a, &mut b2, 0, |a, _, at_a, _| {
            !at_a.is_empty() && outstanding(a, addr_b) == 0
        });
        assert_eq!(at_a, [Bytes::from_static(b"back")]);
        // B's previous life acknowledged frames 1–6: the seven behind
        // them continue a stream whose start it took with it, and go with
        // the old epoch from every send-side state alike.
        assert!(at_b.is_empty(), "frames of the old stream surfaced: {at_b:?}");
        let (stats, _) = a.stats();
        assert_eq!(stats.peer_restarts, 1);
        assert_eq!((stats.give_ups, stats.retransmits), (0, 0), "the clock never moved");
        assert_eq!(a.peers[&addr_b].send_epoch, a.epoch_base + 1);
        // The new epoch numbers from 1, and B′ takes it from there.
        for frame in byte_frames(13..15) {
            a.send(addr_b, frame, 0);
        }
        a.flush(0);
        let (_, at_b) = settle(&mut a, &mut b2, 0, |a, _, _, _| outstanding(a, addr_b) == 0);
        assert_eq!(at_b, byte_frames(13..15));
        assert_eq!(b2.stats().0.frames_received, 2);
    }

    #[test]
    fn restart_after_a_give_up_is_offered_the_whole_new_epoch() {
        let cfg = probing_cfg();
        let (mut a, mut b, addr_a, addr_b) = pair(cfg.clone());
        // B is known to A (it spoke once), then dies.
        b.send(addr_a, Bytes::from_static(b"hello"), 0);
        b.flush(0);
        let _ = read_datagrams(&mut a, 0, 1);
        drop(b);
        // A frame to the dead B exhausts its retries. The three sent
        // after the give-up open the next epoch at 1, and the dead B
        // acknowledged none of them.
        a.send(addr_b, Bytes::from_static(b"lost"), 0);
        a.flush(0);
        let t = step_until(&mut a, 0, |a| a.stats().0.give_ups == 1);
        for frame in byte_frames(1..4) {
            a.send(addr_b, frame, t);
        }
        a.flush(t);

        // B′ speaks, and gets that epoch whole, in order, once.
        let mut b2 = UdpTransport::bind(addr_b, 1, cfg, 3).expect("rebind b");
        b2.send(addr_a, Bytes::from_static(b"back"), t);
        b2.flush(t);
        let (at_a, at_b) = settle(&mut a, &mut b2, t, |a, _, _, at_b| {
            at_b.len() >= 3 && outstanding(a, addr_b) == 0
        });
        assert_eq!(at_a, [Bytes::from_static(b"back")]);
        assert_eq!(at_b, byte_frames(1..4));
        assert_eq!(a.stats().0.peer_restarts, 1);
        assert_eq!(b2.stats().0.frames_received, 3);
    }

    #[test]
    fn reordered_stale_ack_does_not_fence() {
        let (mut a, mut b, addr_a, addr_b) = pair(UdpConfig::default());
        b.send(addr_a, Bytes::from_static(b"hello"), 0);
        b.flush(0);
        for frame in byte_frames(0..5) {
            a.send(addr_b, frame, 0);
        }
        a.flush(0);
        let (_, at_b) = settle(&mut a, &mut b, 0, |a, _, at_a, _| {
            !at_a.is_empty() && outstanding(a, addr_b) == 0
        });
        assert_eq!(at_b, byte_frames(0..5));
        // Two more leave A; B has not read them yet.
        for frame in byte_frames(5..7) {
            a.send(addr_b, frame, 0);
        }
        a.flush(0);
        // Acks B sent early in this epoch ("nothing of yours delivered
        // yet", then "three delivered") surface late, after the ack for
        // all five. They look exactly like a restarted listener's — which
        // is why a regressed ack is not taken as a restart signal.
        let epoch = a.peers[&addr_b].send_epoch;
        let seen = a.stats().0.datagrams_received;
        let mut raw = Vec::new();
        for cumulative in [0, 3] {
            build_ack_into(&mut raw, epoch, cumulative);
            b.socket.send_to(&raw, addr_a).expect("loopback send");
        }
        for _ in 0..100_000 {
            let _ = a.poll(0);
            if a.stats().0.datagrams_received >= seen + 2 {
                break;
            }
        }
        assert_eq!(a.stats().0.datagrams_received, seen + 2, "both stale acks were read");
        assert_eq!(a.stats().0.peer_restarts, 0);
        assert_eq!(a.peers[&addr_b].send_epoch, epoch);
        assert_eq!(a.peers[&addr_b].unacked.len(), 2, "stale acks release nothing");
        let (_, at_b) = settle(&mut a, &mut b, 0, |a, _, _, _| outstanding(a, addr_b) == 0);
        assert_eq!(at_b, byte_frames(5..7));
        assert_eq!(a.stats().0.retransmits, 0);
    }

    #[test]
    fn peer_that_refenced_after_a_give_up_converges_without_a_counter_fence() {
        let cfg = UdpConfig {
            rto_initial_us: 1_000,
            rto_max_us: 1_000,
            max_retries: 2,
            ..UdpConfig::default()
        };
        let (mut a, mut b, addr_a, addr_b) = pair(cfg);
        // Two frames each way: a pair is acknowledged at once, a lone
        // frame's ack would wait for a clock this test keeps still.
        for tag in [1u8, 2] {
            a.send(addr_b, Bytes::from(vec![b'a', tag]), 0);
            b.send(addr_a, Bytes::from(vec![b'b', tag]), 0);
        }
        a.flush(0);
        b.flush(0);
        let (at_a, at_b) = settle(&mut a, &mut b, 0, |a, b, _, _| {
            outstanding(a, addr_b) == 0 && outstanding(b, addr_a) == 0
        });
        assert_eq!((at_a.len(), at_b.len()), (2, 2));

        // B stops reading; A's frame exhausts its retries on the
        // synthetic clock and A fences its send side by itself.
        a.send(addr_b, Bytes::from_static(b"lost"), 0);
        a.flush(0);
        let mut now_us = 0;
        while a.stats().0.peer_down == 0 && now_us < 100_000 {
            now_us += 1_000;
            let _ = a.poll(now_us);
        }
        assert_eq!(a.stats().0.peer_down, 1);
        let fenced = a.peers[&addr_b].send_epoch;
        assert_eq!(incarnation_of(fenced), incarnation_of(fenced - 1), "a fence, not a restart");

        // B reads again: the abandoned frame's copies are still in its
        // socket buffer (one delivery), then traffic resumes both ways.
        // A's higher epoch resets B's receive stream and nothing else —
        // B's send side, and A's in answer, keep their epochs however
        // many frames cross.
        let b_epoch = b.peers[&addr_a].send_epoch;
        for round in 0..3u8 {
            a.send(addr_b, Bytes::from(vec![b'a', round]), now_us);
            b.send(addr_a, Bytes::from(vec![b'b', round]), now_us);
        }
        a.flush(now_us);
        b.flush(now_us);
        let (at_a, at_b) = settle(&mut a, &mut b, now_us, |a, b, _, _| {
            outstanding(a, addr_b) == 0 && outstanding(b, addr_a) == 0
        });
        let expect = |tag: u8| (0..3u8).map(|r| Bytes::from(vec![tag, r])).collect::<Vec<_>>();
        assert_eq!(at_a, expect(b'b'));
        assert_eq!(at_b[at_b.len() - 3..], expect(b'a')[..]);
        assert!(at_b[..at_b.len() - 3].iter().all(|f| f.as_ref() == b"lost"));
        assert_eq!(a.peers[&addr_b].send_epoch, fenced);
        assert_eq!(b.peers[&addr_a].send_epoch, b_epoch);
        assert_eq!((a.stats().0.peer_restarts, b.stats().0.peer_restarts), (0, 0));
        assert_eq!(b.stats().0.epoch_resets, 2, "first contact, then A's fence");
    }

    #[test]
    fn oversize_frame_is_refused_and_counted_not_numbered() {
        let cfg = UdpConfig { mtu: MIN_MTU + OUTER_OVERHEAD, ..UdpConfig::default() };
        let limit = max_frame_len(MIN_MTU);
        let (mut a, mut b, _, addr_b) = pair(cfg);
        a.send(addr_b, Bytes::from(vec![7u8; limit + 1]), 0);
        assert_eq!(a.stats().0.oversize_refused, 1);
        assert_eq!(a.stats().0.frames_sent, 0);
        assert_eq!(a.next_deadline_us(), None, "nothing was numbered, nothing retries");
        // The stream behind it is not stalled.
        a.send(addr_b, Bytes::from(vec![8u8; 100]), 0);
        let (_, at_b) = settle(&mut a, &mut b, 0, |_, _, _, at_b| !at_b.is_empty());
        assert_eq!(at_b, [Bytes::from(vec![8u8; 100])]);
    }

    #[test]
    fn corrupt_datagrams_are_counted_not_delivered() {
        let raw = frame_datagram(1 << 32, (0, 0), 1, &[0u8; 8]);
        let mut bad = raw.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x40;
        assert!(parse_outer(&raw).is_some());
        assert!(parse_outer(&bad).is_none());
        assert!(parse_outer(&raw[..raw.len() - 1]).is_none());
        assert!(parse_outer(&[]).is_none());
    }

    #[test]
    fn coalesced_body_roundtrips_entry_by_entry() {
        let entries =
            vec![(3u64, Bytes::from(vec![1, 2, 3])), (4, Bytes::from(vec![9])), (5, Bytes::new())];
        let mut raw = Vec::new();
        open_outer(&mut raw, KIND_COALESCED, 7 << 32 | 2, (9 << 32, 300));
        put_coalesced_body(&mut raw, &entries);
        seal_outer(&mut raw);
        let outer = parse_outer(&raw).expect("sealed datagram parses");
        assert_eq!(
            (outer.kind, outer.epoch, outer.ack_epoch, outer.cumulative),
            (KIND_COALESCED, 7 << 32 | 2, 9 << 32, 300)
        );
        let mut body = outer.body;
        assert_eq!(take_uvar(&mut body), Ok(3));
        for (seq, frame) in &entries {
            let (got_seq, got_frame) = take_coalesced_entry(&mut body).expect("entry within count");
            assert_eq!(got_seq, *seq);
            assert_eq!(got_frame, frame.as_ref());
        }
        assert!(body.is_empty(), "no trailing bytes after the last entry");
        assert!(take_coalesced_entry(&mut body).is_none());
    }

    #[test]
    fn small_frame_bursts_coalesce_into_fewer_datagrams() {
        let (mut a, mut b, _, addr_b) = pair(UdpConfig::default());
        for i in 0..40u32 {
            a.send(addr_b, Bytes::from(i.to_be_bytes().to_vec()), 0);
        }
        let got = pump(&mut a, &mut b, 40, 2_000);
        assert_eq!(got.len(), 40);
        for (i, frame) in got.iter().enumerate() {
            assert_eq!(frame.as_ref(), (i as u32).to_be_bytes());
        }
        let (sent, _) = a.stats();
        let (recv, _) = b.stats();
        assert!(sent.coalesced_sent > 0, "a burst of tiny frames must pack");
        assert!(recv.coalesced_received >= 1);
        assert!(
            sent.coalesced_sent >= recv.coalesced_received.saturating_sub(1),
            "receiver cannot unpack more than was packed"
        );
    }

    #[test]
    fn explicit_flush_ships_buffered_frames_without_waiting() {
        let (mut a, mut b, _, addr_b) = pair(UdpConfig::default());
        for i in 0..5u32 {
            a.send(addr_b, Bytes::from(i.to_be_bytes().to_vec()), 0);
        }
        assert_eq!(a.stats().0.bytes_sent, 0, "nothing leaves before the flush");
        a.flush(0);
        let got = pump(&mut a, &mut b, 5, 2_000);
        assert_eq!(got.len(), 5);
        let (sent, _) = a.stats();
        assert_eq!(sent.coalesced_sent, 1, "one packed datagram carries all five");
    }

    #[test]
    fn coalescing_and_plain_peers_interoperate_both_ways() {
        let mut plain =
            UdpTransport::bind(loopback(), 0, UdpConfig::default(), 11).expect("bind plain");
        let mut packed =
            UdpTransport::bind(loopback(), 0, UdpConfig::default(), 12).expect("bind packed");
        let addr_plain = plain.local_addr().expect("addr");
        let addr_packed = packed.local_addr().expect("addr");

        // A sender that flushes after every frame never packs: one frame
        // per datagram, as a transport before coalescing sent them.
        for i in 0..30u32 {
            plain.send(addr_packed, Bytes::from(i.to_be_bytes().to_vec()), 0);
            plain.flush(0);
            packed.send(addr_plain, Bytes::from((100 + i).to_be_bytes().to_vec()), 0);
        }
        packed.flush(0);
        let (to_plain, to_packed) =
            settle(&mut plain, &mut packed, 0, |_, _, to_plain, to_packed| {
                to_plain.len() == 30 && to_packed.len() == 30
            });
        assert_eq!(to_packed.len(), 30);
        assert_eq!(to_plain.len(), 30);
        for (i, frame) in to_packed.iter().enumerate() {
            assert_eq!(frame.as_ref(), (i as u32).to_be_bytes());
        }
        for (i, frame) in to_plain.iter().enumerate() {
            assert_eq!(frame.as_ref(), (100 + i as u32).to_be_bytes());
        }
        let (plain_stats, _) = plain.stats();
        assert_eq!(plain_stats.coalesced_sent, 0, "a sender flushing every frame never packs");
        assert!(packed.stats().0.coalesced_sent > 0, "one flush after thirty frames packs");
    }

    #[test]
    fn lossy_link_with_coalescing_still_delivers_in_order() {
        let cfg = UdpConfig { rto_initial_us: 5_000, ..UdpConfig::default() };
        let (mut a, mut b, _, addr_b) = pair(cfg);
        a.set_faults(Some(LinkFaults {
            drop: 0.25,
            dup: 0.20,
            reorder: 0.20,
            reorder_extra_ms: 2.0,
            corrupt: 0.10,
        }));
        for i in 0..60u32 {
            a.send(addr_b, Bytes::from(i.to_be_bytes().to_vec()), 0);
        }
        let got = pump(&mut a, &mut b, 60, 8_000);
        assert_eq!(got.len(), 60, "coalesced traffic must survive the shim");
        for (i, frame) in got.iter().enumerate() {
            assert_eq!(frame.as_ref(), (i as u32).to_be_bytes(), "order broken at {i}");
        }
    }

    #[test]
    fn listen_only_peer_restart_is_found_by_its_ack() {
        let cfg = UdpConfig::default();
        let (mut a, mut b, _, addr_b) = pair(cfg.clone());
        // B only ever listens. Its acks are all A hears from it — and
        // they name its incarnation.
        for frame in byte_frames(0..4) {
            a.send(addr_b, frame, 0);
        }
        a.flush(0);
        let (_, at_b) = settle(&mut a, &mut b, 0, |a, _, _, _| outstanding(a, addr_b) == 0);
        assert_eq!(at_b, byte_frames(0..4));
        assert_eq!(b.stats().0.frames_sent, 0);
        assert_eq!(a.peers[&addr_b].remote_incarnation, 1);
        assert_eq!(a.peers[&addr_b].remote_epoch, 0, "no frame stream from B, ever");

        // B dies; two frames go to the dead socket. B′ binds the same
        // address under the next incarnation and still only listens.
        drop(b);
        for frame in byte_frames(4..6) {
            a.send(addr_b, frame, 0);
        }
        a.flush(0);
        let mut b2 = UdpTransport::bind(addr_b, 1, cfg, 3).expect("rebind b");
        // The next frame reaches B′ numbered 7 where it expects 1: held
        // back, and acknowledged at once as the gap it is. That ack is
        // B′'s first word, its incarnation is higher, and A fences in the
        // same poll. What it held follows frames 1–4, which B's previous
        // life acknowledged, so it goes with the old epoch.
        a.send(addr_b, Bytes::from(vec![6]), 0);
        a.flush(0);
        let (_, at_b) = settle(&mut a, &mut b2, 0, |a, _, _, _| outstanding(a, addr_b) == 0);
        assert!(at_b.is_empty(), "frames of the old stream surfaced: {at_b:?}");
        let (stats, _) = a.stats();
        assert_eq!(stats.peer_restarts, 1);
        assert_eq!((stats.give_ups, stats.retransmits), (0, 0), "the clock never moved");
        assert_eq!(a.peers[&addr_b].send_epoch, a.epoch_base + 1);
        // The new epoch reaches B′ from 1.
        for frame in byte_frames(7..9) {
            a.send(addr_b, frame, 0);
        }
        a.flush(0);
        let (_, at_b) = settle(&mut a, &mut b2, 0, |a, _, _, _| outstanding(a, addr_b) == 0);
        assert_eq!(at_b, byte_frames(7..9));
        assert_eq!(b2.stats().0.frames_sent, 0, "B′ never said anything but acks");
    }

    #[test]
    fn ack_or_unknown_kind_from_a_stranger_creates_no_state() {
        let (mut a, _, addr_a, _) = pair(UdpConfig::default());
        let stranger = UdpSocket::bind(loopback()).expect("bind stranger");
        let mut raw = Vec::new();
        // A well-formed ack for an epoch A could have issued.
        build_ack_into(&mut raw, a.epoch_base, 3);
        stranger.send_to(&raw, addr_a).expect("loopback send");
        // The same with an incarnation of its own.
        open_outer(&mut raw, KIND_ACK, 5 << 32, (a.epoch_base, 3));
        seal_outer(&mut raw);
        stranger.send_to(&raw, addr_a).expect("loopback send");
        // A kind nobody defined, sealed correctly.
        open_outer(&mut raw, 9, 1 << 32, (0, 0));
        raw.extend_from_slice(b"whatever");
        seal_outer(&mut raw);
        stranger.send_to(&raw, addr_a).expect("loopback send");
        let events = read_datagrams(&mut a, 0, 3);
        assert!(events.is_empty());
        assert!(a.peers.is_empty(), "nothing was ever sent to or framed by that address");
        assert_eq!(a.stats().0.decode_errors, 3);
        assert_eq!(a.next_deadline_us(), None);

        // A frame is how a peer introduces itself.
        let hello = frame_datagram(1 << 32, (0, 0), 1, b"hello");
        stranger.send_to(&hello, addr_a).expect("loopback send");
        let events = read_datagrams(&mut a, 0, 4);
        let from = stranger.local_addr().expect("addr");
        assert_eq!(events, [UdpEvent::Frame { from, frame: Bytes::from_static(b"hello") }]);
        assert_eq!(a.peers.len(), 1);
    }

    #[test]
    fn symmetric_traffic_sends_no_standalone_acks() {
        let (mut a, mut b, addr_a, addr_b) = pair(UdpConfig::default());
        const ROUNDS: u8 = 50;
        let (mut at_a, mut at_b) = (Vec::new(), Vec::new());
        for round in 0..ROUNDS {
            a.send(addr_b, Bytes::from(vec![b'a', round]), 0);
            b.send(addr_a, Bytes::from(vec![b'b', round]), 0);
            a.flush(0);
            b.flush(0);
            let want = usize::from(round) + 1;
            let (more_a, more_b) = settle(&mut a, &mut b, 0, |a, b, _, _| {
                a.stats().0.frames_received as usize == want
                    && b.stats().0.frames_received as usize == want
            });
            at_a.extend(more_a);
            at_b.extend(more_b);
        }
        assert_eq!(at_a, (0..ROUNDS).map(|r| Bytes::from(vec![b'b', r])).collect::<Vec<_>>());
        assert_eq!(at_b, (0..ROUNDS).map(|r| Bytes::from(vec![b'a', r])).collect::<Vec<_>>());
        for (t, peer) in [(&a, addr_b), (&b, addr_a)] {
            let (stats, _) = t.stats();
            assert_eq!(stats.acks_sent, 0, "every ack had a frame to ride on");
            assert_eq!(stats.acks_piggybacked, u64::from(ROUNDS) - 1);
            assert_eq!(stats.retransmits, 0);
            // All but the last frame were acknowledged by the next one
            // coming the other way.
            assert_eq!(outstanding(t, peer), 1);
        }
    }

    #[test]
    fn one_way_traffic_acks_every_second_frame_or_after_the_delay() {
        let cfg = UdpConfig::default();
        let delay = cfg.rto_initial_us / 2;
        let (mut a, mut b, _, addr_b) = pair(cfg);
        const FRAMES: u64 = 20;
        for i in 0..FRAMES {
            // One frame per datagram, each read before the next leaves.
            a.send(addr_b, Bytes::from(vec![i as u8]), 0);
            a.flush(0);
            let _ = settle(&mut a, &mut b, 0, |_, b, _, _| b.stats().0.frames_received == i + 1);
        }
        let _ = settle(&mut a, &mut b, 0, |a, _, _, _| outstanding(a, addr_b) == 0);
        assert_eq!(outstanding(&a, addr_b), 0);
        assert_eq!(b.stats().0.acks_sent, FRAMES / 2, "one ack per two datagrams");

        // A lone frame's ack waits for company, but not past the delay —
        // counted from the last poll that did not find it yet.
        let t0 = 1_000;
        let _ = b.poll(t0);
        a.send(addr_b, Bytes::from_static(b"odd one"), t0);
        a.flush(t0);
        let _ = settle(&mut a, &mut b, t0, |_, b, _, _| b.stats().0.frames_received == FRAMES + 1);
        assert_eq!(b.stats().0.acks_sent, FRAMES / 2);
        assert_eq!(b.next_deadline_us(), Some(t0 + delay));
        let _ = b.poll(t0 + delay - 1);
        assert_eq!(b.stats().0.acks_sent, FRAMES / 2, "not before the delay has passed");
        let _ = b.poll(t0 + delay);
        assert_eq!(b.stats().0.acks_sent, FRAMES / 2 + 1, "and no later");
        assert_eq!(b.next_deadline_us(), None);
        let _ = settle(&mut a, &mut b, t0 + delay, |a, _, _, _| outstanding(a, addr_b) == 0);
        assert_eq!(outstanding(&a, addr_b), 0);
        assert_eq!(a.stats().0.retransmits, 0, "the delay is half of the first timeout");

        // An owner that was away for most of the sender's timeout does not
        // add the delay on top: the frame may have been waiting in the
        // socket since the last poll, so its ack is overdue already.
        let t1 = t0 + delay;
        a.send(addr_b, Bytes::from_static(b"late read"), t1);
        a.flush(t1);
        let t2 = t1 + 20_000;
        let _ = settle(&mut a, &mut b, t2, |a, _, _, _| outstanding(a, addr_b) == 0);
        assert_eq!(outstanding(&a, addr_b), 0);
        assert_eq!(b.stats().0.acks_sent, FRAMES / 2 + 2);
        assert_eq!(a.stats().0.retransmits, 0);
    }

    #[test]
    fn duplicate_and_gap_are_acknowledged_at_once() {
        let (mut a, b, addr_a, addr_b) = pair(UdpConfig::default());
        let epoch = b.epoch_base;
        let send = |seq: u64, frame: &[u8]| {
            b.socket.send_to(&frame_datagram(epoch, (0, 0), seq, frame), addr_a).expect("send");
        };
        let acks = |a: &UdpTransport| a.stats().0.acks_sent;
        // Frame 2 before frame 1: held back, and the gap acknowledged in
        // the same poll — a lone frame in order would have waited.
        send(2, b"two");
        assert!(read_datagrams(&mut a, 0, 1).is_empty());
        assert_eq!(acks(&a), 1);
        assert_eq!(a.peers[&addr_b].holdback.len(), 1);
        // Frame 1 closes the gap: both surface, and the sender hears of it.
        send(1, b"one");
        let events = read_datagrams(&mut a, 0, 2);
        let frames =
            [&b"one"[..], b"two"].map(|f| UdpEvent::Frame { from: addr_b, frame: f.into() });
        assert_eq!(events, frames);
        assert_eq!(acks(&a), 2);
        // A retransmission of something already delivered means the ack
        // was lost: repeat it now.
        send(1, b"one");
        assert!(read_datagrams(&mut a, 0, 3).is_empty());
        assert_eq!(acks(&a), 3);
        // So does a copy of something still held back.
        send(4, b"four");
        send(4, b"four");
        assert!(read_datagrams(&mut a, 0, 5).is_empty());
        assert_eq!(a.peers[&addr_b].holdback.len(), 1);
        assert_eq!(a.stats().0.frames_received, 2);
        assert_eq!(a.stats().0.decode_errors, 0);
    }

    #[test]
    fn one_way_burst_never_waits_on_the_ack_timer() {
        let cfg = UdpConfig::default();
        let delay = cfg.rto_initial_us / 2;
        let (mut a, mut b, _, addr_b) = pair(cfg);
        const BURST: usize = 2_000;
        for i in 0..BURST as u32 {
            a.send(addr_b, Bytes::from(i.to_be_bytes().to_vec()), 0);
        }
        // The clock creeps one microsecond a round: the ack delay never
        // comes, so every window that opens was opened by an ack sent for
        // the frames themselves.
        let mut got = Vec::new();
        let mut now_us = 0;
        while got.len() < BURST && now_us < delay {
            now_us += 1;
            a.flush(now_us);
            let _ = a.poll(now_us);
            got.extend(b.poll(now_us).into_iter().filter_map(|e| match e {
                UdpEvent::Frame { frame, .. } => Some(frame),
                _ => None,
            }));
        }
        assert_eq!(got.len(), BURST, "stalled at {now_us} µs, before any ack timer could fire");
        for (i, frame) in got.iter().enumerate() {
            assert_eq!(frame.as_ref(), (i as u32).to_be_bytes(), "order broken at {i}");
        }
        assert_eq!(a.stats().0.retransmits, 0);
        assert!(b.stats().0.acks_sent <= BURST as u64 / 2);
    }

    #[test]
    fn a_frame_that_fits_rides_in_one_layer_of_framing() {
        let (mut a, mut b, _, addr_b) = pair(UdpConfig::default());
        let frame = Bytes::from(vec![0x5a; 40]);
        a.send(addr_b, frame.clone(), 0);
        a.flush(0);
        let (_, at_b) = settle(&mut a, &mut b, 0, |_, _, _, at_b| !at_b.is_empty());
        assert_eq!(at_b, [frame]);
        // kind, two epochs of two one-byte varints, cumulative, seq, the
        // frame, the checksum: 15 bytes around it, no fragment header.
        assert_eq!(a.stats().0.bytes_sent, 1 + 2 + 2 + 1 + 1 + 40 + 8);
        assert_eq!(a.stats().0.fragments_sent, 0);
        assert_eq!(b.stats().0.frames_reassembled, 0);
        assert_eq!(b.peers.values().map(|p| p.reassembler.partials()).sum::<usize>(), 0);
    }
}
