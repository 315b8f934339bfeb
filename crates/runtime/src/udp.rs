//! Real-socket UDP transport with reliable in-order frame delivery.
//!
//! This module moves frames between *processes*, over actual
//! `UdpSocket`s. UDP gives us datagram boundaries and nothing else, so
//! the transport layers the minimum machinery the protocol needs on top:
//!
//! - **One layer of framing** — a frame that fits a datagram rides in it
//!   whole, alone (`KIND_FRAME`) or packed with its neighbours
//!   (`KIND_COALESCED`); only a frame larger than the MTU is split by
//!   [`pcb_broadcast::fragment`] and reassembled per peer
//!   (`KIND_FRAGMENT`).
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
//!   standalone `KIND_ACK` leaves only when no datagram did within
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
//! - **One link per peer, one socket shell** — everything above, per
//!   remote address, is a [`Link`]: a state machine with no socket, no
//!   address and no clock, which writes its datagrams into a reused
//!   [`Sink`]. [`UdpTransport`] is the shell around them: the socket,
//!   the map from address to link, the receive loop, `send_to`, and the
//!   earliest deadline over all links. Tests drive two links over a
//!   network of their own that gives every datagram its fate.
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

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::io::ErrorKind;
use std::net::{SocketAddr, UdpSocket};
use std::os::fd::{AsRawFd, RawFd};

use bytes::Bytes;
use pcb_broadcast::MIN_MTU;
use pcb_telemetry::Row;

use crate::link::{self, epoch_base, Event, Link, Sink, OUTER_OVERHEAD};

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

/// Reliable fragmenting datagram channel over a real UDP socket: one
/// [`Link`] per remote address, and the socket.
pub struct UdpTransport {
    socket: UdpSocket,
    cfg: UdpConfig,
    /// Epoch base for this process incarnation ([`epoch_base`]).
    epoch_base: u64,
    links: HashMap<SocketAddr, Link>,
    /// What the links wrote, put on the wire and handed on after every
    /// call; its counters are the transport's.
    sink: Sink,
    /// Receive staging buffer, reused across datagrams.
    recv_buf: Vec<u8>,
    /// When [`Self::poll`] last ran: a link created by what the next one
    /// reads counts an owed ack's delay from here, as the others do.
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
    /// daemon). `_seed` is unused: it seeded the socket fault shim, which
    /// is gone, and stays until the benchmark's caller stops passing it
    /// (ROADMAP item 1); every other caller passes `0`.
    pub fn bind(
        addr: SocketAddr,
        incarnation: u64,
        cfg: UdpConfig,
        _seed: u64,
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
            epoch_base: epoch_base(incarnation),
            links: HashMap::new(),
            sink: Sink::default(),
            recv_buf: vec![0u8; 65_536],
            last_poll_us: 0,
        })
    }

    /// The address the socket actually bound (port 0 resolves here).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.socket.local_addr()
    }

    /// Transport counters, as a one-element tuple: `stats().0` is how
    /// callers read them when a second element stood beside them (the
    /// socket shim's verdict totals), and the benchmark still does.
    pub fn stats(&self) -> (UdpStats,) {
        (self.sink.stats,)
    }

    /// Queues `frame` for reliable in-order delivery to `peer`
    /// ([`Link::send`]): it leaves at the next [`Self::flush`] or poll.
    pub fn send(&mut self, peer: SocketAddr, frame: Bytes, now_us: u64) {
        let link = self
            .links
            .entry(peer)
            .or_insert_with(|| Link::new(self.epoch_base, &self.cfg, self.last_poll_us));
        link.send(frame, now_us, &mut self.sink);
        transmit(&self.socket, &mut self.sink, peer);
    }

    /// Drives the transport: drains the socket, then lets every link do
    /// its timed work ([`Link::poll`]). Returns completed frames and
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
        if readable {
            self.drain_socket(now_us, events);
        }
        // After the drain, so these datagrams acknowledge what it read.
        for (&addr, link) in &mut self.links {
            link.poll(now_us, &mut self.sink);
            transmit(&self.socket, &mut self.sink, addr);
            hand_on(&mut self.sink, addr, events);
        }
        self.last_poll_us = now_us;
    }

    /// Ships every link's coalescing buffer now ([`Link::flush`]). Owners
    /// call this at the end of a turn, once every frame the turn produced
    /// was sent, and before they wait. The time is not needed: a flush
    /// numbers nothing.
    pub fn flush(&mut self, _now_us: u64) {
        for (&addr, link) in &mut self.links {
            link.flush(&mut self.sink);
            transmit(&self.socket, &mut self.sink, addr);
        }
    }

    /// Earliest time at which [`Self::poll`] has timed work to do, if
    /// any — after a [`Self::flush`], the owner can wait until then.
    pub fn next_deadline_us(&self) -> Option<u64> {
        self.links.values().filter_map(Link::next_deadline_us).min()
    }

    fn drain_socket(&mut self, now_us: u64, events: &mut Vec<UdpEvent>) {
        loop {
            let (len, from) = match self.socket.recv_from(&mut self.recv_buf) {
                Ok(pair) => pair,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                // Linux surfaces ICMP port-unreachable as a recv error on
                // connected-ish paths; skip and keep draining.
                Err(_) => continue,
            };
            self.sink.stats.datagrams_received += 1;
            let datagram = &self.recv_buf[..len];
            // Only frames make a peer ([`link::opens`]): nothing else may
            // claim a link every poll then walks.
            let link = match self.links.entry(from) {
                Entry::Occupied(known) => known.into_mut(),
                Entry::Vacant(new) if link::opens(datagram) => {
                    new.insert(Link::new(self.epoch_base, &self.cfg, self.last_poll_us))
                }
                Entry::Vacant(_) => {
                    self.sink.stats.decode_errors += 1;
                    continue;
                }
            };
            link.on_datagram(datagram, now_us, &mut self.sink);
            hand_on(&mut self.sink, from, events);
        }
    }
}

/// Puts the datagrams a link wrote into `sink` on the wire to `to`.
fn transmit(socket: &UdpSocket, sink: &mut Sink, to: SocketAddr) {
    for datagram in sink.datagrams() {
        let _ = socket.send_to(datagram, to);
    }
    sink.clear_datagrams();
}

/// Hands what the link to `peer` surfaced on to the owner.
fn hand_on(sink: &mut Sink, peer: SocketAddr, events: &mut Vec<UdpEvent>) {
    events.extend(sink.events.drain(..).map(|event| match event {
        Event::Frame(frame) => UdpEvent::Frame { from: peer, frame },
        Event::Fenced => UdpEvent::Fenced(peer),
    }));
}

#[cfg(test)]
mod tests {
    //! The socket shell. What a link does is tested over the test
    //! network in `link`; these send real datagrams over loopback, at a
    //! frozen clock.

    use super::*;
    use crate::link::{open_outer, seal_outer, KIND_ACK, KIND_FRAME};
    use pcb_broadcast::wire::put_uvar;
    use std::net::{IpAddr, Ipv4Addr};

    fn loopback() -> SocketAddr {
        SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), 0)
    }

    fn pair() -> (UdpTransport, UdpTransport, SocketAddr) {
        let a = UdpTransport::bind(loopback(), 0, UdpConfig::default(), 0).expect("bind a");
        let b = UdpTransport::bind(loopback(), 0, UdpConfig::default(), 0).expect("bind b");
        let addr_b = b.local_addr().expect("addr b");
        (a, b, addr_b)
    }

    /// Polls `t` at time 0 until it has read `want` datagrams. Loopback
    /// queues a datagram on the receiving socket inside `send_to`, so
    /// this spins without sleeping.
    fn read_datagrams(t: &mut UdpTransport, want: u64) -> Vec<UdpEvent> {
        let mut events = Vec::new();
        for _ in 0..100_000 {
            events.extend(t.poll(0));
            if t.stats().0.datagrams_received >= want {
                break;
            }
        }
        assert_eq!(t.stats().0.datagrams_received, want);
        events
    }

    #[test]
    fn frames_cross_the_socket_shell_whole_packed_and_fragmented() {
        let (mut a, mut b, addr_b) = pair();
        let big = Bytes::from((0..20_000u32).map(|i| (i % 251) as u8).collect::<Vec<u8>>());
        let frames = [Bytes::from_static(b"one"), Bytes::from_static(b"two"), big];
        for frame in &frames {
            a.send(addr_b, frame.clone(), 0);
        }
        a.flush(0);
        // Two small frames in one packed datagram, then the fragments.
        let datagrams = 1 + a.stats().0.fragments_sent;
        let events = read_datagrams(&mut b, datagrams);
        let from = a.local_addr().expect("addr a");
        let want = frames.map(|frame| UdpEvent::Frame { from, frame });
        assert_eq!(events, want);
        // The acks that left with that poll release everything.
        read_datagrams(&mut a, 1);
        assert_eq!(a.next_deadline_us(), None);
        assert_eq!(a.links[&addr_b].next_deadline_us(), None);
    }

    #[test]
    fn a_poll_told_the_socket_is_not_readable_leaves_it_alone() {
        let (mut a, mut b, addr_b) = pair();
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
    fn ack_or_unknown_kind_from_a_stranger_creates_no_state() {
        let (mut a, _, _) = pair();
        let addr_a = a.local_addr().expect("addr a");
        let stranger = UdpSocket::bind(loopback()).expect("bind stranger");
        let send = |kind: u8, epoch: u64, ack: (u64, u64), body: &[u8]| {
            let mut raw = Vec::new();
            open_outer(&mut raw, kind, epoch, ack);
            raw.extend_from_slice(body);
            seal_outer(&mut raw, 0);
            stranger.send_to(&raw, addr_a).expect("loopback send");
        };
        // A well-formed ack for an epoch A could have issued, naming no
        // incarnation; the same with an incarnation of its own; a kind
        // nobody defined, sealed correctly.
        send(KIND_ACK, 0, (a.epoch_base, 3), &[]);
        send(KIND_ACK, 5 << 32, (a.epoch_base, 3), &[]);
        send(9, 1 << 32, (0, 0), b"whatever");
        let events = read_datagrams(&mut a, 3);
        assert!(events.is_empty());
        assert!(a.links.is_empty(), "nothing was ever sent to or framed by that address");
        assert_eq!(a.stats().0.decode_errors, 3);
        assert_eq!(a.next_deadline_us(), None);

        // A frame is how a peer introduces itself.
        let mut hello = Vec::new();
        put_uvar(&mut hello, 1);
        hello.extend_from_slice(b"hello");
        send(KIND_FRAME, 1 << 32, (0, 0), &hello);
        let events = read_datagrams(&mut a, 4);
        let from = stranger.local_addr().expect("addr");
        assert_eq!(events, [UdpEvent::Frame { from, frame: Bytes::from_static(b"hello") }]);
        assert_eq!(a.links.len(), 1);
    }
}
