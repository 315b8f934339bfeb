//! Real-socket UDP transport with reliable in-order frame delivery.
//!
//! The in-memory [`crate::transport`] router moves frames between
//! threads; this module moves them between *processes*, over actual
//! `UdpSocket`s. UDP gives us datagram boundaries and nothing else, so
//! the transport layers the minimum machinery the protocol needs on top:
//!
//! - **Fragmentation** — frames larger than the MTU are split by
//!   [`pcb_broadcast::fragment`] and reassembled per peer.
//! - **Reliability** — every frame gets a per-peer sequence number;
//!   receivers hold back out-of-order frames and return cumulative acks;
//!   senders retransmit on a capped exponential backoff.
//! - **Epochs** — each process incarnation stamps its datagrams with an
//!   epoch: the incarnation in the high half, this side's fences towards
//!   that peer in the low half. A receiver that sees a higher epoch
//!   resets its expectations, so a restarted peer's fresh sequence space
//!   is never confused with the dead one's. If the *incarnation* rose,
//!   the peer also lost what it had received from us, so the send side
//!   is fenced too: a new send epoch, numbering from 1 again, and every
//!   frame still outstanding or queued offered again under it — the
//!   restarted peer would otherwise hold everything back, waiting for a
//!   sequence number 1 that was acknowledged to its previous life.
//!   Messages lost across a reset are recovered by the protocol's own
//!   anti-entropy (§4.2), not the transport.
//! - **Liveness** — a frame that exhausts its retries marks the peer
//!   unreachable, surfaces a [`UdpEvent::PeerDown`] and fences the send
//!   side the same way, except that the outstanding queue is abandoned
//!   (again: anti-entropy owns the gap).
//! - **Fault injection** — every outbound datagram passes through a
//!   [`SocketShim`], so a recorded chaos plan can drop, duplicate, delay
//!   or corrupt traffic deterministically without touching iptables.
//!
//! The API is a poll loop, not callbacks: the owner calls
//! [`UdpTransport::poll`] with the current monotonic time and receives
//! the frames that completed plus peer health transitions. That keeps
//! the transport single-threaded and testable with synthetic clocks.

use std::collections::{BTreeMap, BinaryHeap, HashMap, VecDeque};
use std::io::ErrorKind;
use std::net::{SocketAddr, UdpSocket};

use bytes::Bytes;
use pcb_broadcast::wire::checksum64;
use pcb_broadcast::{fragment_into, max_frame_len, Reassembler, MIN_MTU};
use pcb_sim::LinkFaults;
use pcb_telemetry::Row;

use crate::shim::SocketShim;

/// Outer datagram overhead: kind byte, epoch, sequence, checksum trailer.
const OUTER_OVERHEAD: usize = 1 + 8 + 8 + 8;
/// Outer datagram kind: a data fragment.
const KIND_DATA: u8 = 0;
/// Outer datagram kind: a cumulative acknowledgement.
const KIND_ACK: u8 = 1;
/// Outer datagram kind: several coalesced data fragments. Body is
/// `count` (the outer `arg`) repetitions of
/// `[u64 seq LE | u16 len LE | len fragment bytes]` under one epoch and
/// one checksum — `count` small frames per syscall instead of one.
const KIND_COALESCED: u8 = 2;
/// Per-entry framing bytes inside a coalesced body (seq + length).
const COALESCE_ENTRY_OVERHEAD: usize = 8 + 2;

/// Tuning knobs for [`UdpTransport`].
#[derive(Debug, Clone)]
pub struct UdpConfig {
    /// Maximum datagram size put on the wire, bytes. Frames larger than
    /// this (minus overhead) are fragmented.
    pub mtu: usize,
    /// First retransmit timeout, µs.
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
    /// How long a small frame may linger in the per-peer coalescing
    /// buffer waiting for companions, µs. Buffered frames flush early
    /// whenever the next frame would overflow the MTU budget (the size
    /// trigger); this deadline bounds the latency a lone frame pays.
    /// `0` disables coalescing — every frame ships immediately as plain
    /// [`KIND_DATA`] datagrams, byte-identical to older peers.
    pub coalesce_delay_us: u64,
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
            coalesce_delay_us: 500,
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
        /// The reassembled frame exactly as the peer passed it to
        /// [`UdpTransport::send`].
        frame: Bytes,
    },
    /// A frame to `peer` exhausted its retries; outstanding traffic to
    /// it was abandoned.
    PeerDown(SocketAddr),
    /// A previously unreachable peer answered again.
    PeerUp(SocketAddr),
}

/// Transport counters, surfaced through [`UdpStats::rows`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UdpStats {
    /// Frames accepted by [`UdpTransport::send`].
    pub frames_sent: u64,
    /// Complete frames handed to the owner.
    pub frames_received: u64,
    /// Datagram retransmissions.
    pub retransmits: u64,
    /// Frames abandoned after exhausting retries.
    pub give_ups: u64,
    /// Acks transmitted.
    pub acks_sent: u64,
    /// Datagrams read off the socket.
    pub datagrams_received: u64,
    /// Datagrams discarded as malformed, corrupt, or stale-epoch.
    pub decode_errors: u64,
    /// Fragment datagrams put on the wire (first transmissions and
    /// retransmissions alike).
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
            datagrams_received,
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
            Row::counter("udp_retransmits", "Datagram retransmissions.", retransmits),
            Row::counter("udp_give_ups", "Frames abandoned after exhausting retries.", give_ups),
            Row::counter("udp_acks_sent", "Transport acks transmitted.", acks_sent),
            Row::counter("udp_datagrams_received", "Datagrams read.", datagrams_received),
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

/// A frame awaiting acknowledgement.
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
    remote_epoch: u64,
    expect: u64,
    holdback: BTreeMap<u64, Bytes>,
    reassembler: Reassembler,
    // Coalescing buffer: single-fragment frames awaiting the
    // size-or-deadline flush, as `(seq, fragment datagram)`.
    pending: Vec<(u64, Bytes)>,
    /// Coalesced body bytes `pending` would occupy (entry overheads
    /// included), checked against the MTU budget by the size trigger.
    pending_bytes: usize,
    /// When the oldest buffered frame entered `pending` (deadline base).
    pending_since_us: u64,
}

impl PeerState {
    fn new(epoch: u64, cfg: &UdpConfig) -> Self {
        PeerState {
            send_epoch: epoch,
            next_seq: 1,
            unacked: BTreeMap::new(),
            queued: VecDeque::new(),
            unreachable: false,
            remote_epoch: 0,
            expect: 1,
            holdback: BTreeMap::new(),
            reassembler: Reassembler::new(cfg.reassembly_timeout_us, cfg.window),
            pending: Vec::new(),
            pending_bytes: 0,
            pending_since_us: 0,
        }
    }

    /// Opens a new send epoch towards this peer: numbering restarts at 1
    /// and whatever was numbered in the old epoch — in flight, or parked
    /// in the coalescing buffer, which holds fragments of in-flight
    /// frames — leaves it. With `reoffer` those frames go back to the
    /// head of the queue in send order, for the next `promote_queued` to
    /// ship under the new numbering (the peer restarted: it wants them,
    /// and dedup absorbs any it already had); without, they and the
    /// queue behind them are abandoned (the peer is unreachable:
    /// anti-entropy owns the gap).
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

    /// True if `peer` is currently considered unreachable.
    pub fn unreachable(&self, peer: SocketAddr) -> bool {
        self.peers.get(&peer).is_some_and(|p| p.unreachable)
    }

    /// Queues `frame` for reliable in-order delivery to `peer`. A frame
    /// too large to fragment is refused and counted
    /// ([`UdpStats::oversize_refused`]): numbered, it could never leave,
    /// and would stall everything behind it until the give-up.
    pub fn send(&mut self, peer: SocketAddr, frame: Bytes, now_us: u64) {
        if frame.len() > max_frame_len(self.cfg.mtu - OUTER_OVERHEAD) {
            self.stats.oversize_refused += 1;
            return;
        }
        self.stats.frames_sent += 1;
        let cfg = self.cfg.clone();
        let state = self.peers.entry(peer).or_insert_with(|| PeerState::new(self.epoch_base, &cfg));
        if state.queued.is_empty() && state.unacked.len() < cfg.window {
            let seq = state.next_seq;
            state.next_seq += 1;
            state.unacked.insert(
                seq,
                OutFrame {
                    frame: frame.clone(),
                    sent_at_us: now_us,
                    rto_us: cfg.rto_initial_us,
                    retries: 0,
                },
            );
            let epoch = state.send_epoch;
            self.transmit_first(peer, epoch, seq, &frame, now_us);
        } else {
            state.queued.push_back(frame);
        }
    }

    /// Drives the transport: releases shim-delayed datagrams, drains the
    /// socket, flushes coalescing buffers past their deadline,
    /// retransmits overdue frames, promotes queued traffic into freed
    /// windows. Returns completed frames and health transitions.
    pub fn poll(&mut self, now_us: u64) -> Vec<UdpEvent> {
        let mut events = Vec::new();
        self.poll_into(now_us, &mut events);
        events
    }

    /// [`Self::poll`] appending into a caller-provided vector (cleared
    /// first), so a steady-state poll loop reuses one event buffer
    /// instead of allocating per pass.
    pub fn poll_into(&mut self, now_us: u64, events: &mut Vec<UdpEvent>) {
        events.clear();
        self.flush_delayed(now_us);
        self.drain_socket(now_us, events);
        self.flush_due_coalesced(now_us);
        self.retransmit_overdue(now_us, events);
        self.promote_queued(now_us);
    }

    /// Flushes every peer's coalescing buffer immediately, regardless of
    /// deadline — owners call this at the end of a send burst when they
    /// know no companions are coming.
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
    /// any — the owner can sleep until then.
    pub fn next_deadline_us(&self) -> Option<u64> {
        let delayed = self.delayed.peek().map(|d| d.due_us);
        let retry = self
            .peers
            .values()
            .flat_map(|p| p.unacked.values())
            .map(|f| f.sent_at_us + f.rto_us)
            .min();
        let coalesce = self
            .peers
            .values()
            .filter(|p| !p.pending.is_empty())
            .map(|p| p.pending_since_us + self.cfg.coalesce_delay_us)
            .min();
        [delayed, retry, coalesce].into_iter().flatten().min()
    }

    fn flush_delayed(&mut self, now_us: u64) {
        while self.delayed.peek().is_some_and(|d| d.due_us <= now_us) {
            let d = self.delayed.pop().expect("peeked");
            let _ = self.socket.send_to(&d.datagram, d.to);
        }
    }

    fn drain_socket(&mut self, now_us: u64, events: &mut Vec<UdpEvent>) {
        // Take the staging buffer out of `self` so the datagram can be
        // handled by `&mut self` methods without copying it first — the
        // old `to_vec` here was one allocation per datagram.
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
        let Some((kind, epoch, arg, body)) = parse_outer(datagram) else {
            self.stats.decode_errors += 1;
            return;
        };
        let cfg = self.cfg.clone();
        let state = self.peers.entry(from).or_insert_with(|| PeerState::new(self.epoch_base, &cfg));
        if state.unreachable {
            state.unreachable = false;
            self.stats.peer_up += 1;
            events.push(UdpEvent::PeerUp(from));
        }
        match kind {
            KIND_DATA | KIND_COALESCED => {
                if epoch < state.remote_epoch {
                    self.stats.decode_errors += 1;
                    return;
                }
                if epoch > state.remote_epoch {
                    // New incarnation, or the peer's own fence: the old
                    // sequence space is dead.
                    self.stats.epoch_resets += 1;
                    // Only a restart takes the peer's receive state with
                    // it. Its own fence (low half) leaves what it has
                    // acknowledged intact — and answering a fence with a
                    // fence would never end, each side's next datagram
                    // raising the other's epoch again. A peer heard for
                    // the first time has no earlier incarnation to
                    // compare with, and nothing sent in this epoch means
                    // nothing to renumber.
                    let restarted = state.remote_epoch != 0
                        && incarnation_of(epoch) > incarnation_of(state.remote_epoch);
                    state.remote_epoch = epoch;
                    state.expect = 1;
                    state.holdback.clear();
                    state.reassembler = Reassembler::new(cfg.reassembly_timeout_us, cfg.window);
                    if restarted && state.next_seq > 1 {
                        self.stats.peer_restarts += 1;
                        state.fence(true);
                    }
                }
                if kind == KIND_DATA {
                    if !Self::accept_fragment(state, &mut self.stats, now_us, arg, body) {
                        return;
                    }
                } else {
                    // `arg` is the entry count; a truncated entry list
                    // keeps whatever decoded before the damage.
                    self.stats.coalesced_received += 1;
                    let mut rest = body;
                    for _ in 0..arg {
                        let Some((seq, frag, tail)) = split_coalesced_entry(rest) else {
                            self.stats.decode_errors += 1;
                            break;
                        };
                        rest = tail;
                        let _ = Self::accept_fragment(state, &mut self.stats, now_us, seq, frag);
                    }
                }
                while let Some(frame) = state.holdback.remove(&state.expect) {
                    state.expect += 1;
                    self.stats.frames_received += 1;
                    events.push(UdpEvent::Frame { from, frame });
                }
                // One cumulative ack per datagram — a coalesced burst is
                // acknowledged with a single reply.
                let (ack_epoch, cumulative) = (state.remote_epoch, state.expect - 1);
                self.ship_ack(from, ack_epoch, cumulative, now_us);
            }
            KIND_ACK => {
                if epoch != state.send_epoch {
                    return;
                }
                let cumulative = arg;
                state.unacked.retain(|&seq, _| seq > cumulative);
            }
            _ => {
                self.stats.decode_errors += 1;
            }
        }
    }

    /// Feeds one `(seq, fragment)` pair into `state`'s reassembler and
    /// holdback. Returns `false` for an undecodable fragment.
    fn accept_fragment(
        state: &mut PeerState,
        stats: &mut UdpStats,
        now_us: u64,
        seq: u64,
        frag: &[u8],
    ) -> bool {
        if seq >= state.expect && !state.holdback.contains_key(&seq) {
            match state.reassembler.accept(now_us, &Bytes::from(frag.to_vec())) {
                Ok(Some(frame)) => {
                    stats.frames_reassembled += 1;
                    state.holdback.insert(seq, frame);
                }
                Ok(None) => {}
                Err(_) => {
                    stats.decode_errors += 1;
                    return false;
                }
            }
        }
        true
    }

    fn retransmit_overdue(&mut self, now_us: u64, events: &mut Vec<UdpEvent>) {
        let cfg = self.cfg.clone();
        let mut addrs = std::mem::take(&mut self.addr_scratch);
        addrs.extend(self.peers.keys().copied());
        for &addr in &addrs {
            let state = self.peers.get_mut(&addr).expect("known peer");
            let overdue: Vec<u64> = state
                .unacked
                .iter()
                .filter(|(_, f)| now_us >= f.sent_at_us + f.rto_us)
                .map(|(&seq, _)| seq)
                .collect();
            let mut gave_up = false;
            let mut resend: Vec<(u64, u64, Bytes)> = Vec::new();
            for seq in overdue {
                let state = self.peers.get_mut(&addr).expect("known peer");
                let Some(out) = state.unacked.get_mut(&seq) else { continue };
                if out.retries >= cfg.max_retries {
                    gave_up = true;
                    break;
                }
                out.retries += 1;
                out.sent_at_us = now_us;
                out.rto_us = (out.rto_us * 2).min(cfg.rto_max_us);
                self.stats.retransmits += 1;
                resend.push((state.send_epoch, seq, out.frame.clone()));
            }
            for (epoch, seq, frame) in resend {
                self.transmit_frame(addr, epoch, seq, &frame, now_us);
            }
            if gave_up {
                self.stats.give_ups += 1;
                let state = self.peers.get_mut(&addr).expect("known peer");
                state.fence(false);
                if !state.unreachable {
                    state.unreachable = true;
                    self.stats.peer_down += 1;
                    events.push(UdpEvent::PeerDown(addr));
                }
            }
        }
        addrs.clear();
        self.addr_scratch = addrs;
    }

    fn promote_queued(&mut self, now_us: u64) {
        let cfg = self.cfg.clone();
        let mut addrs = std::mem::take(&mut self.addr_scratch);
        addrs.extend(self.peers.keys().copied());
        for &addr in &addrs {
            loop {
                let state = self.peers.get_mut(&addr).expect("known peer");
                if state.unacked.len() >= cfg.window {
                    break;
                }
                let Some(frame) = state.queued.pop_front() else { break };
                let seq = state.next_seq;
                state.next_seq += 1;
                state.unacked.insert(
                    seq,
                    OutFrame {
                        frame: frame.clone(),
                        sent_at_us: now_us,
                        rto_us: cfg.rto_initial_us,
                        retries: 0,
                    },
                );
                let epoch = state.send_epoch;
                self.transmit_frame(addr, epoch, seq, &frame, now_us);
            }
        }
        addrs.clear();
        self.addr_scratch = addrs;
    }

    /// First transmission of a frame: the only path allowed to coalesce.
    /// Retransmits and promotions go through [`Self::transmit_frame`]
    /// and always ship plain [`KIND_DATA`], so a peer that never learned
    /// the coalesced kind still converges via retries.
    fn transmit_first(&mut self, to: SocketAddr, epoch: u64, seq: u64, frame: &Bytes, now_us: u64) {
        if self.cfg.coalesce_delay_us == 0 {
            self.transmit_frame(to, epoch, seq, frame, now_us);
            return;
        }
        let inner_mtu = self.cfg.mtu - OUTER_OVERHEAD;
        let mut fragments = std::mem::take(&mut self.frag_scratch);
        // `send` refused anything too large to fragment.
        if fragment_into(seq, frame, inner_mtu, &mut fragments).is_ok() {
            if fragments.len() == 1 {
                // Small frame: park it in the peer's coalescing buffer
                // until the size trigger or the deadline flushes it.
                let frag = fragments.pop().expect("single fragment");
                self.buffer_coalesced(to, seq, frag, now_us);
            } else {
                // A multi-fragment frame already fills datagrams on its
                // own; coalescing could only split or overflow it.
                for frag in &fragments {
                    self.stats.fragments_sent += 1;
                    self.ship_data(to, epoch, seq, frag, now_us);
                }
            }
        }
        fragments.clear();
        self.frag_scratch = fragments;
    }

    /// Parks one single-fragment frame in `to`'s coalescing buffer,
    /// flushing first if the addition would overflow the MTU budget.
    fn buffer_coalesced(&mut self, to: SocketAddr, seq: u64, frag: Bytes, now_us: u64) {
        let budget = self.cfg.mtu - OUTER_OVERHEAD;
        let entry = COALESCE_ENTRY_OVERHEAD + frag.len();
        let state = self.peers.get_mut(&to).expect("send created the peer");
        if !state.pending.is_empty() && state.pending_bytes + entry > budget {
            self.flush_coalesced(to, now_us);
        }
        let state = self.peers.get_mut(&to).expect("send created the peer");
        if state.pending.is_empty() {
            state.pending_since_us = now_us;
        }
        state.pending.push((seq, frag));
        state.pending_bytes += entry;
    }

    /// Ships `to`'s coalescing buffer now. A lone entry goes out as a
    /// plain [`KIND_DATA`] datagram — byte-identical to a non-coalescing
    /// sender — so the coalesced kind only ever appears when it packs
    /// two or more frames.
    fn flush_coalesced(&mut self, to: SocketAddr, now_us: u64) {
        let Some(state) = self.peers.get_mut(&to) else { return };
        if state.pending.is_empty() {
            return;
        }
        let entries = std::mem::take(&mut state.pending);
        state.pending_bytes = 0;
        let epoch = state.send_epoch;
        self.stats.fragments_sent += entries.len() as u64;
        if let [(seq, frag)] = entries.as_slice() {
            self.ship_data(to, epoch, *seq, frag, now_us);
        } else {
            self.stats.coalesced_sent += 1;
            let mut buf = std::mem::take(&mut self.dgram_buf);
            build_coalesced_into(&mut buf, epoch, &entries);
            self.shimmed_send(to, &buf, now_us);
            self.dgram_buf = buf;
        }
        // Hand the drained vector back so steady-state buffering never
        // reallocates.
        if let Some(state) = self.peers.get_mut(&to) {
            if state.pending.capacity() < entries.capacity() {
                let mut entries = entries;
                entries.clear();
                state.pending = entries;
            }
        }
    }

    /// Flushes every coalescing buffer whose oldest frame has waited at
    /// least the configured delay.
    fn flush_due_coalesced(&mut self, now_us: u64) {
        let delay = self.cfg.coalesce_delay_us;
        if delay == 0 {
            return;
        }
        let mut due = std::mem::take(&mut self.addr_scratch);
        due.extend(
            self.peers
                .iter()
                .filter(|(_, s)| {
                    !s.pending.is_empty() && now_us.saturating_sub(s.pending_since_us) >= delay
                })
                .map(|(addr, _)| *addr),
        );
        for &addr in &due {
            self.flush_coalesced(addr, now_us);
        }
        due.clear();
        self.addr_scratch = due;
    }

    /// Fragments `frame` and pushes every fragment datagram through the
    /// shim to the socket (or the delay queue).
    fn transmit_frame(&mut self, to: SocketAddr, epoch: u64, seq: u64, frame: &Bytes, now_us: u64) {
        let inner_mtu = self.cfg.mtu - OUTER_OVERHEAD;
        let mut fragments = std::mem::take(&mut self.frag_scratch);
        // `send` refused anything too large to fragment.
        if fragment_into(seq, frame, inner_mtu, &mut fragments).is_ok() {
            for frag in &fragments {
                self.stats.fragments_sent += 1;
                self.ship_data(to, epoch, seq, frag, now_us);
            }
        }
        fragments.clear();
        self.frag_scratch = fragments;
    }

    /// Builds one [`KIND_DATA`] datagram in the staging buffer and ships
    /// it through the shim.
    fn ship_data(&mut self, to: SocketAddr, epoch: u64, seq: u64, frag: &[u8], now_us: u64) {
        let mut buf = std::mem::take(&mut self.dgram_buf);
        build_data_into(&mut buf, epoch, seq, frag);
        self.shimmed_send(to, &buf, now_us);
        self.dgram_buf = buf;
    }

    /// Builds one [`KIND_ACK`] datagram in the staging buffer and ships
    /// it through the shim.
    fn ship_ack(&mut self, to: SocketAddr, epoch: u64, cumulative: u64, now_us: u64) {
        self.stats.acks_sent += 1;
        let mut buf = std::mem::take(&mut self.dgram_buf);
        build_ack_into(&mut buf, epoch, cumulative);
        self.shimmed_send(to, &buf, now_us);
        self.dgram_buf = buf;
    }

    /// Applies the shim verdict to one outbound datagram. The clean path
    /// (send now, unmodified) writes straight from the caller's buffer;
    /// only corrupted or delayed copies allocate.
    fn shimmed_send(&mut self, to: SocketAddr, datagram: &[u8], now_us: u64) {
        if self.shim.passthrough() {
            let _ = self.socket.send_to(datagram, to);
            return;
        }
        let verdict = self.shim.judge();
        for (i, &offset) in verdict.offsets_us.iter().enumerate() {
            let corrupt = verdict.corrupt && i == 0;
            if offset == 0 && !corrupt {
                let _ = self.socket.send_to(datagram, to);
                continue;
            }
            let mut copy = datagram.to_vec();
            if corrupt {
                // Flip a checksum byte: always detected, never mis-decoded.
                let last = copy.len() - 1;
                copy[last] ^= 0xff;
            }
            if offset == 0 {
                let _ = self.socket.send_to(&copy, to);
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
}

/// Appends the [`checksum64`] trailer that closes every outer datagram.
fn seal_outer(out: &mut Vec<u8>) {
    let sum = checksum64(out);
    out.extend_from_slice(&sum.to_le_bytes());
}

fn build_data_into(out: &mut Vec<u8>, epoch: u64, seq: u64, frag: &[u8]) {
    out.clear();
    out.push(KIND_DATA);
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(frag);
    seal_outer(out);
}

fn build_ack_into(out: &mut Vec<u8>, epoch: u64, cumulative: u64) {
    out.clear();
    out.push(KIND_ACK);
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&cumulative.to_le_bytes());
    seal_outer(out);
}

fn build_coalesced_into(out: &mut Vec<u8>, epoch: u64, entries: &[(u64, Bytes)]) {
    out.clear();
    out.push(KIND_COALESCED);
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    for (seq, frag) in entries {
        debug_assert!(
            frag.len() <= usize::from(u16::MAX),
            "fragment exceeds the entry length field"
        );
        out.extend_from_slice(&seq.to_le_bytes());
        out.extend_from_slice(&(frag.len() as u16).to_le_bytes());
        out.extend_from_slice(frag);
    }
    seal_outer(out);
}

/// Splits one `[u64 seq | u16 len | fragment]` entry off the front of a
/// coalesced body, returning `(seq, fragment, rest)`.
fn split_coalesced_entry(body: &[u8]) -> Option<(u64, &[u8], &[u8])> {
    if body.len() < COALESCE_ENTRY_OVERHEAD {
        return None;
    }
    let seq = u64::from_le_bytes(body[..8].try_into().ok()?);
    let len = usize::from(u16::from_le_bytes(body[8..10].try_into().ok()?));
    let rest = &body[COALESCE_ENTRY_OVERHEAD..];
    if rest.len() < len {
        return None;
    }
    Some((seq, &rest[..len], &rest[len..]))
}

/// Splits an outer datagram into `(kind, epoch, seq-or-cumulative,
/// body)`, verifying the trailer. Total: any malformed input is `None`.
/// The body borrows from the datagram — no copy until a fragment is
/// actually accepted.
fn parse_outer(datagram: &[u8]) -> Option<(u8, u64, u64, &[u8])> {
    if datagram.len() < OUTER_OVERHEAD {
        return None;
    }
    let (payload, trailer) = datagram.split_at(datagram.len() - 8);
    let expect = u64::from_le_bytes(trailer.try_into().ok()?);
    if checksum64(payload) != expect {
        return None;
    }
    let kind = payload[0];
    let epoch = u64::from_le_bytes(payload[1..9].try_into().ok()?);
    let arg = u64::from_le_bytes(payload[9..17].try_into().ok()?);
    Some((kind, epoch, arg, &payload[17..]))
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
        for i in 0..80u32 {
            a.send(addr_b, Bytes::from(i.to_be_bytes().to_vec()), 0);
        }
        let got = pump(&mut a, &mut b, 80, 8_000);
        assert_eq!(got.len(), 80, "lossy link must still deliver everything");
        for (i, frame) in got.iter().enumerate() {
            assert_eq!(frame.as_ref(), (i as u32).to_be_bytes(), "order broken at {i}");
        }
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
        let mut down = false;
        while !down && start.elapsed().as_millis() < 3_000 {
            let now_us = start.elapsed().as_micros() as u64;
            down = a.poll(now_us).iter().any(|e| matches!(e, UdpEvent::PeerDown(_)));
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(down, "peer should be declared unreachable");
        assert!(a.unreachable(addr_b));

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
        let mut up = false;
        while got.is_empty() && start2.elapsed().as_millis() < 3_000 {
            let now_us = start.elapsed().as_micros() as u64;
            up |= a.poll(now_us).iter().any(|e| matches!(e, UdpEvent::PeerUp(_)));
            for ev in b.poll(now_us) {
                if let UdpEvent::Frame { frame, .. } = ev {
                    got.push(frame);
                }
            }
            std::thread::sleep(std::time::Duration::from_micros(300));
        }
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].as_ref(), [9, 9]);
        assert!(up, "ack from the revived peer should raise PeerUp");
        assert!(!a.unreachable(addr_b));
    }

    #[test]
    fn give_up_drops_parked_coalesced_frames_with_the_dead_epoch() {
        let cfg = UdpConfig {
            rto_initial_us: 2_000,
            rto_max_us: 8_000,
            max_retries: 3,
            // Park small frames essentially forever so the coalescing
            // buffer is guaranteed non-empty when the give-up fires.
            coalesce_delay_us: 60_000_000,
            ..UdpConfig::default()
        };
        let (mut a, mut b, _, addr_b) = pair(cfg);
        // A multi-fragment frame bypasses the coalescing buffer, ships
        // immediately, and exhausts its retries while b stays silent.
        a.send(addr_b, Bytes::from(vec![0xAB; 5_000]), 0);
        // Two small frames sit parked behind it.
        a.send(addr_b, Bytes::from(vec![b'Y']), 0);
        a.send(addr_b, Bytes::from(vec![b'Z']), 0);

        let start = std::time::Instant::now();
        let mut down = false;
        while !down && start.elapsed().as_millis() < 3_000 {
            let now_us = start.elapsed().as_micros() as u64;
            down = a.poll(now_us).iter().any(|e| matches!(e, UdpEvent::PeerDown(_)));
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(down, "peer should be declared unreachable");
        assert!(a.stats().0.give_ups >= 1);

        // Drain the dead-epoch retransmits from b's kernel buffer.
        for _ in 0..20 {
            let now_us = start.elapsed().as_micros() as u64;
            let _ = b.poll(now_us);
            std::thread::sleep(std::time::Duration::from_micros(200));
        }

        // The revived peer gets fresh traffic under the bumped epoch.
        // The frames parked at give-up time belonged to the dead epoch
        // and must never surface — anti-entropy owns that gap.
        let now_us = start.elapsed().as_micros() as u64;
        a.send(addr_b, Bytes::from(vec![b'W'; 5_000]), now_us);
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
            if got.iter().any(|f| f.as_ref() == [b'W'; 5_000]) {
                break;
            }
            std::thread::sleep(std::time::Duration::from_micros(300));
        }
        assert!(
            got.iter().any(|f| f.as_ref() == [b'W'; 5_000]),
            "post-recovery frame should arrive"
        );
        assert!(
            !got.iter().any(|f| f.as_ref() == [b'Y'] || f.as_ref() == [b'Z']),
            "frames parked at give-up time leaked into the new incarnation"
        );
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

    #[test]
    fn restarted_receiver_resyncs_without_a_give_up() {
        // A window of 4 so the restart finds frames in every send-side
        // state: in flight, parked in the coalescing buffer, and queued.
        let cfg = UdpConfig { window: 4, ..UdpConfig::default() };
        let (mut a, mut b, addr_a, addr_b) = pair(cfg.clone());
        // B is a known peer of A (one frame back), and five frames A→B
        // are delivered and acknowledged.
        b.send(addr_a, Bytes::from_static(b"hello"), 0);
        b.flush(0);
        let (at_a, _) = settle(&mut a, &mut b, 0, |_, _, at_a, _| !at_a.is_empty());
        assert_eq!(at_a, [Bytes::from_static(b"hello")]);
        let mut at_b = Vec::new();
        for frame in byte_frames(0..5) {
            // One at a time: the window is 4.
            a.send(addr_b, frame, 0);
            a.flush(0);
            at_b.extend(settle(&mut a, &mut b, 0, |a, _, _, _| outstanding(a, addr_b) == 0).1);
        }
        assert_eq!(at_b, byte_frames(0..5));

        // B dies. A keeps sending: two frames flushed to the dead socket,
        // two parked in the coalescing buffer, two queued behind the
        // window.
        drop(b);
        for (i, frame) in byte_frames(5..11).into_iter().enumerate() {
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
        a.send(addr_b, Bytes::from(vec![11]), 0);
        let (at_a, at_b) = settle(&mut a, &mut b2, 0, |_, _, _, at_b| at_b.len() >= 7);
        assert_eq!(at_a, [Bytes::from_static(b"back")]);
        assert_eq!(at_b, byte_frames(5..12), "everything outstanding, in order, nothing twice");
        let (stats, _) = a.stats();
        assert_eq!(stats.peer_restarts, 1);
        assert_eq!((stats.give_ups, stats.retransmits), (0, 0), "the clock never moved");
        // Nothing further is in flight, and nothing arrives a second time.
        let (_, more) = settle(&mut a, &mut b2, 0, |a, _, _, _| outstanding(a, addr_b) == 0);
        assert!(more.is_empty(), "re-offered frames arrived twice: {more:?}");
        assert_eq!(b2.stats().0.frames_received, 7);
    }

    #[test]
    fn reordered_stale_ack_does_not_fence() {
        let cfg = UdpConfig { coalesce_delay_us: 0, ..UdpConfig::default() };
        let (mut a, mut b, addr_a, addr_b) = pair(cfg);
        b.send(addr_a, Bytes::from_static(b"hello"), 0);
        for frame in byte_frames(0..5) {
            a.send(addr_b, frame, 0);
        }
        let (_, at_b) = settle(&mut a, &mut b, 0, |a, _, at_a, _| {
            !at_a.is_empty() && outstanding(a, addr_b) == 0
        });
        assert_eq!(at_b, byte_frames(0..5));
        // Two more leave A; B has not read them yet.
        for frame in byte_frames(5..7) {
            a.send(addr_b, frame, 0);
        }
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
            coalesce_delay_us: 0,
            ..UdpConfig::default()
        };
        let (mut a, mut b, addr_a, addr_b) = pair(cfg);
        a.send(addr_b, Bytes::from_static(b"a1"), 0);
        b.send(addr_a, Bytes::from_static(b"b1"), 0);
        let (at_a, at_b) = settle(&mut a, &mut b, 0, |a, b, _, _| {
            outstanding(a, addr_b) == 0 && outstanding(b, addr_a) == 0
        });
        assert_eq!((at_a.len(), at_b.len()), (1, 1));

        // B stops reading; A's frame exhausts its retries on the
        // synthetic clock and A fences its send side by itself.
        a.send(addr_b, Bytes::from_static(b"lost"), 0);
        let mut now_us = 0;
        let mut down = false;
        while !down && now_us < 100_000 {
            now_us += 1_000;
            down = a.poll(now_us).iter().any(|e| matches!(e, UdpEvent::PeerDown(_)));
        }
        assert!(down);
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
        let mut raw = Vec::new();
        build_data_into(&mut raw, 1 << 32, 1, &[0u8; 8]);
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
        build_coalesced_into(&mut raw, 7, &entries);
        let (kind, epoch, count, mut body) = parse_outer(&raw).expect("sealed datagram parses");
        assert_eq!((kind, epoch, count), (KIND_COALESCED, 7, 3));
        for (seq, frag) in &entries {
            let (got_seq, got_frag, rest) =
                split_coalesced_entry(body).expect("entry within count");
            assert_eq!(got_seq, *seq);
            assert_eq!(got_frag, frag.as_ref());
            body = rest;
        }
        assert!(body.is_empty(), "no trailing bytes after the last entry");
        assert!(split_coalesced_entry(body).is_none());
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
        let cfg = UdpConfig { coalesce_delay_us: 60_000_000, ..UdpConfig::default() };
        let (mut a, mut b, _, addr_b) = pair(cfg);
        for i in 0..5u32 {
            a.send(addr_b, Bytes::from(i.to_be_bytes().to_vec()), 0);
        }
        // With an hour-long deadline nothing would ship on its own.
        a.flush(0);
        let got = pump(&mut a, &mut b, 5, 2_000);
        assert_eq!(got.len(), 5);
        let (sent, _) = a.stats();
        assert_eq!(sent.coalesced_sent, 1, "one packed datagram carries all five");
    }

    #[test]
    fn coalescing_and_plain_peers_interoperate_both_ways() {
        // `coalesce_delay_us: 0` is the wire behaviour of a peer built
        // before the coalesced kind existed: plain KIND_DATA only.
        let old = UdpConfig { coalesce_delay_us: 0, ..UdpConfig::default() };
        let mut plain = UdpTransport::bind(loopback(), 0, old, 11).expect("bind plain");
        let mut packed =
            UdpTransport::bind(loopback(), 0, UdpConfig::default(), 12).expect("bind packed");
        let addr_plain = plain.local_addr().expect("addr");
        let addr_packed = packed.local_addr().expect("addr");

        for i in 0..30u32 {
            plain.send(addr_packed, Bytes::from(i.to_be_bytes().to_vec()), 0);
            packed.send(addr_plain, Bytes::from((100 + i).to_be_bytes().to_vec()), 0);
        }
        let to_packed = pump(&mut plain, &mut packed, 30, 3_000);
        let to_plain = pump(&mut packed, &mut plain, 30, 3_000);
        assert_eq!(to_packed.len(), 30);
        assert_eq!(to_plain.len(), 30);
        for (i, frame) in to_packed.iter().enumerate() {
            assert_eq!(frame.as_ref(), (i as u32).to_be_bytes());
        }
        for (i, frame) in to_plain.iter().enumerate() {
            assert_eq!(frame.as_ref(), (100 + i as u32).to_be_bytes());
        }
        let (plain_stats, _) = plain.stats();
        assert_eq!(plain_stats.coalesced_sent, 0, "a zero-delay sender never packs");
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
}
