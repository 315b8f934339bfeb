//! A test network between two [`Link`]s, in synthetic time.
//!
//! Test code only: `link.rs` declares this module under `#[cfg(test)]`.
//!
//! Each end is a link, the sink it writes into and what it surfaced.
//! Every datagram an end emits gets a [`Fate`] on its way to the other:
//! it arrives, is lost, arrives twice, arrives after the next one, or
//! arrives with a checksum byte flipped. The [`Weather`] of a direction
//! picks the fates, or leaves them to the caller (the enumerator in
//! `enumerate.rs` branches on each). An end takes a *turn* as the socket
//! shell does: it reads everything in flight towards it, then polls.
//! Nothing here reads a clock; `now_us` moves only when a test moves it.

use std::collections::VecDeque;

use bytes::Bytes;

use super::{epoch_base, Event, Link, Sink};
use crate::udp::{UdpConfig, UdpStats};

/// The first end.
pub(crate) const A: usize = 0;
/// The second end.
pub(crate) const B: usize = 1;

/// What the network does with one datagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fate {
    Deliver,
    Drop,
    Duplicate,
    /// Arrives after the next datagram in its direction (or at the next
    /// read, if none follows).
    Late,
    /// Arrives with its last checksum byte flipped: always detected.
    Corrupt,
}

/// How a direction picks its datagrams' fates.
#[derive(Debug, Clone)]
pub(crate) enum Weather {
    /// Everything arrives, in order.
    Clear,
    /// Everything is lost.
    Cut,
    /// Fates drawn from a seeded generator at these rates, per mille.
    Storm { state: u64, drop: u64, dup: u64, late: u64, corrupt: u64 },
    /// The caller picks: datagrams wait in [`Net::fresh`].
    Held,
}

impl Weather {
    fn pick(&mut self) -> Option<Fate> {
        match self {
            Weather::Clear => Some(Fate::Deliver),
            Weather::Cut => Some(Fate::Drop),
            Weather::Held => None,
            Weather::Storm { state, drop, dup, late, corrupt } => {
                // splitmix64: a fixed stream per seed.
                *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = *state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                let roll = (z ^ (z >> 31)) % 1000;
                let fates = [
                    (*drop, Fate::Drop),
                    (*dup, Fate::Duplicate),
                    (*late, Fate::Late),
                    (*corrupt, Fate::Corrupt),
                ];
                let mut floor = 0;
                for (rate, fate) in fates {
                    floor += rate;
                    if roll < floor {
                        return Some(fate);
                    }
                }
                Some(Fate::Deliver)
            }
        }
    }
}

/// One end: a link, its sink, and what it surfaced in this life.
#[derive(Debug, Clone)]
pub(crate) struct End {
    pub(crate) link: Link,
    pub(crate) sink: Sink,
    pub(crate) events: Vec<Event>,
    pub(crate) incarnation: u64,
}

impl End {
    fn new(incarnation: u64, cfg: &UdpConfig, now_us: u64) -> End {
        let link = Link::new(epoch_base(incarnation), cfg, now_us);
        End { link, sink: Sink::default(), events: Vec::new(), incarnation }
    }
}

/// Two links and the network between them.
#[derive(Debug, Clone)]
pub(crate) struct Net {
    pub(crate) cfg: UdpConfig,
    pub(crate) ends: [End; 2],
    pub(crate) now_us: u64,
    /// Per destination, the datagrams in flight, in arrival order.
    pub(crate) wire: [VecDeque<Vec<u8>>; 2],
    /// Per destination, a datagram that arrives after the next one.
    pub(crate) late: [Option<Vec<u8>>; 2],
    /// Per destination, how fates are picked.
    pub(crate) weather: [Weather; 2],
    /// Datagrams whose fate the caller picks, with their destination.
    pub(crate) fresh: VecDeque<(usize, Vec<u8>)>,
}

impl Net {
    /// Two fresh ends of incarnation 0 under `cfg`, clear weather, time 0.
    pub(crate) fn new(cfg: UdpConfig) -> Net {
        let ends = [End::new(0, &cfg, 0), End::new(0, &cfg, 0)];
        Net {
            cfg,
            ends,
            now_us: 0,
            wire: [VecDeque::new(), VecDeque::new()],
            late: [None, None],
            weather: [Weather::Clear, Weather::Clear],
            fresh: VecDeque::new(),
        }
    }

    /// `end`'s counters.
    pub(crate) fn stats(&self, end: usize) -> UdpStats {
        self.ends[end].sink.stats
    }

    /// The owner of `end` hands its link a frame.
    pub(crate) fn send(&mut self, end: usize, frame: impl Into<Bytes>) {
        let e = &mut self.ends[end];
        e.link.send(frame.into(), self.now_us, &mut e.sink);
        self.route(end);
    }

    /// The owner of `end` flushes at the end of its turn.
    pub(crate) fn flush(&mut self, end: usize) {
        let e = &mut self.ends[end];
        e.link.flush(&mut e.sink);
        self.route(end);
    }

    /// `end` does its timed work. Its next deadline is never in the past
    /// afterwards: the owner's wait would spin.
    pub(crate) fn poll(&mut self, end: usize) {
        let (e, now_us) = (&mut self.ends[end], self.now_us);
        e.link.poll(now_us, &mut e.sink);
        if let Some(deadline) = e.link.next_deadline_us() {
            assert!(deadline > now_us, "a deadline already past: {deadline} at {now_us}");
        }
        self.route(end);
    }

    /// The next datagram towards `to` reaches its link; `false` if none
    /// is in flight.
    pub(crate) fn deliver(&mut self, to: usize) -> bool {
        let Some(datagram) = self.wire[to].pop_front().or_else(|| self.late[to].take()) else {
            return false;
        };
        let e = &mut self.ends[to];
        e.sink.stats.datagrams_received += 1;
        e.link.on_datagram(&datagram, self.now_us, &mut e.sink);
        self.route(to);
        true
    }

    /// One turn of `end`, as the socket shell takes it: everything in
    /// flight towards it, then a poll. Returns the datagrams read.
    pub(crate) fn read(&mut self, end: usize) -> usize {
        let mut read = 0;
        while self.deliver(end) {
            read += 1;
        }
        self.poll(end);
        read
    }

    /// Whether any datagram is still on its way.
    pub(crate) fn in_flight(&self) -> bool {
        self.wire.iter().any(|w| !w.is_empty()) || self.late.iter().any(Option::is_some)
    }

    /// Turns of both ends at a frozen clock until nothing is in flight:
    /// no timer can fire, so whatever arrives was sent exactly once.
    pub(crate) fn settle(&mut self) {
        for _ in 0..10_000 {
            self.read(A);
            self.read(B);
            if !self.in_flight() {
                return;
            }
        }
        panic!("the network never settled");
    }

    /// The earliest deadline of either end.
    pub(crate) fn next_deadline_us(&self) -> Option<u64> {
        self.ends.iter().filter_map(|e| e.link.next_deadline_us()).min()
    }

    /// Moves the clock to the earliest deadline, where both ends take a
    /// turn, and settles; `false` when neither end has one.
    pub(crate) fn tick(&mut self) -> bool {
        let Some(at) = self.next_deadline_us() else { return false };
        self.now_us = self.now_us.max(at);
        self.settle();
        true
    }

    /// `end` restarts: a fresh link of the next incarnation, nothing
    /// remembered. Datagrams already on their way still arrive.
    pub(crate) fn restart(&mut self, end: usize) {
        let incarnation = self.ends[end].incarnation + 1;
        self.ends[end] = End::new(incarnation, &self.cfg, self.now_us);
    }

    /// The frames `end` surfaced in this life, in order.
    pub(crate) fn frames(&self, end: usize) -> Vec<Bytes> {
        self.ends[end]
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Frame(frame) => Some(frame.clone()),
                Event::Fenced => None,
            })
            .collect()
    }

    /// How many times `end`'s link fenced in this life.
    pub(crate) fn fences(&self, end: usize) -> usize {
        self.ends[end].events.iter().filter(|e| **e == Event::Fenced).count()
    }

    /// Puts `datagram` on its way to `to` as it is: forged, or a replay.
    pub(crate) fn inject(&mut self, to: usize, datagram: Vec<u8>) {
        self.wire[to].push_back(datagram);
    }

    /// Sends `datagram` towards `to` with the given fate.
    pub(crate) fn place(&mut self, to: usize, mut datagram: Vec<u8>, fate: Fate) {
        match fate {
            Fate::Deliver => self.arrive(to, datagram),
            Fate::Drop => {}
            Fate::Duplicate => {
                self.arrive(to, datagram.clone());
                self.arrive(to, datagram);
            }
            Fate::Late => match self.late[to].take() {
                // One is held already: this one is its "next".
                Some(held) => {
                    self.wire[to].push_back(datagram);
                    self.wire[to].push_back(held);
                }
                None => self.late[to] = Some(datagram),
            },
            Fate::Corrupt => {
                if let Some(last) = datagram.last_mut() {
                    *last ^= 0xff;
                }
                self.arrive(to, datagram);
            }
        }
    }

    /// `datagram` joins the queue towards `to`; a late one waiting there
    /// follows it.
    fn arrive(&mut self, to: usize, datagram: Vec<u8>) {
        self.wire[to].push_back(datagram);
        if let Some(held) = self.late[to].take() {
            self.wire[to].push_back(held);
        }
    }

    /// Takes what `from`'s link wrote: its events into its log, its
    /// datagrams onto the network towards the other end.
    fn route(&mut self, from: usize) {
        let to = 1 - from;
        let e = &mut self.ends[from];
        e.events.append(&mut e.sink.events);
        let datagrams: Vec<Vec<u8>> = e.sink.datagrams().map(<[u8]>::to_vec).collect();
        e.sink.clear_datagrams();
        for datagram in datagrams {
            match self.weather[to].pick() {
                Some(fate) => self.place(to, datagram, fate),
                None => self.fresh.push_back((to, datagram)),
            }
        }
    }
}
