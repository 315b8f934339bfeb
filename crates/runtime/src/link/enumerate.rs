//! Every schedule of two links in a small scope, checked.
//!
//! Test code only: `link.rs` declares this module under `#[cfg(test)]`.
//!
//! Two ends exchange up to a few frames each way over [`Net`]. From each
//! state the search takes every enabled step: an owner sends its next
//! frame, or its next two, and flushes; an end takes its turn (reads
//! everything in flight towards it, then polls); the clock moves to the
//! earliest deadline and the ends due poll; or one end restarts. Every
//! datagram an end emits meets every fate in turn: it arrives, is lost,
//! arrives twice, or arrives after the next one — a fault budget bounds
//! how many may not simply arrive, and a datagram may also sit in flight
//! while the clock moves on. (A corrupt datagram is a lost one with a
//! counter bumped.) At most one restart of either end or one give-up
//! happens on a path. States are hashed, times counted from now, so each
//! is explored once.
//!
//! Over that, an owner on each end sends its frames as a delta chain
//! (`daemon::LiveFrames`: a full frame first and after every `Fenced`,
//! a delta on the frame before otherwise) and decodes the other's. Each
//! step checks:
//! - within one receive epoch, frames surface in send order, each once;
//! - a gap in what a receiver surfaced from one sender's life was
//!   preceded by a `Fenced` at the sender, between the first missing
//!   frame and the one after the gap;
//! - the chain never meets a delta without its base, except right after
//!   a `Fenced` its own end was told of;
//! - once a link has retransmitted, the peer stays silent and the link
//!   has not fenced, it emits at most one datagram per initial timeout;
//! - no poll leaves a deadline in the past ([`Net::poll`] asserts it).
//!
//! And from every state the network heals — everything in flight
//! arrives, the clock moves only to deadlines — and within one maximum
//! plus one initial timeout both links fall quiet, with every frame an
//! owner sent since it was last told `Fenced` surfaced at the other end.

use std::collections::HashSet;
use std::hash::{DefaultHasher, Hash, Hasher};

use super::net::{Fate, Net, Weather, A, B};
use super::{Event, Link};
use crate::udp::UdpConfig;

/// The most frames one owner may send in a scope.
const MAX_FRAMES: usize = 8;
/// A frame's base byte when it stands alone.
const FULL: u8 = 0xff;

/// What one enumeration covers.
#[derive(Debug, Clone, Copy)]
struct Scope {
    /// Frames each end's owner sends, over all its lives.
    frames: [u8; 2],
    /// Datagrams on a path whose fate is not simply to arrive.
    faults: u8,
}

/// Short timers and a window of two, so that a frame queues.
fn cfg() -> UdpConfig {
    UdpConfig {
        rto_initial_us: 1_000,
        rto_max_us: 4_000,
        max_retries: 2,
        window: 2,
        ..UdpConfig::default()
    }
}

/// One step of a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// The owner of an end sends its next frames, one or two, and
    /// flushes: its turn produced them.
    Send(usize, u8),
    /// An end takes its turn: it reads everything in flight towards it,
    /// then polls.
    Turn(usize),
    /// The clock moves to the earliest deadline; the ends due poll.
    Tick,
    Restart(usize),
    Fate(Fate),
}

/// One end's owner: the chain it sends, and what it surfaced.
#[derive(Debug, Clone, Default)]
struct Owner {
    life: u8,
    /// Frames sent, over all lives: the next one's index.
    sent: u8,
    /// `Fenced` events told, over all lives.
    fences: u8,
    /// This life has sent a frame: the next may be a delta.
    chained: bool,
    /// A `Fenced` came since the last frame sent: the next stands alone.
    restart_chain: bool,
    /// Per frame index, the life that sent it and the fences told before.
    sent_in: [(u8, u8); MAX_FRAMES],
    /// The last frame surfaced in this life, `(life, index)`, and the
    /// receive epoch it came in.
    last: Option<(u8, u8, u64)>,
    /// The chain decoder's base, `(life, index)`.
    base: Option<(u8, u8)>,
    /// A `Fenced` since the last frame surfaced in this life.
    told: bool,
    /// The other owner's frames surfaced by any life of this end.
    got: u32,
    /// This end's link has retransmitted since the peer was last heard
    /// and the link last fenced; when it last emitted since.
    probing: Option<Option<u64>>,
}

#[derive(Debug, Clone)]
struct World {
    net: Net,
    owners: [Owner; 2],
    faults_left: u8,
    /// Restarts and give-ups so far.
    upsets: u8,
}

impl World {
    fn new(scope: Scope) -> World {
        let mut net = Net::new(cfg());
        net.weather = [Weather::Held, Weather::Held];
        World { net, owners: Default::default(), faults_left: scope.faults, upsets: 0 }
    }

    /// Everything that decides what happens next, hashed. Times count
    /// from now: two states a time shift apart behave alike.
    fn key(&self) -> u64 {
        let now_us = self.net.now_us;
        let mut h = DefaultHasher::new();
        (&self.net.wire, &self.net.late, &self.net.fresh).hash(&mut h);
        for end in &self.net.ends {
            end.incarnation.hash(&mut h);
            hash_link(&end.link, now_us, &mut h);
        }
        for owner in &self.owners {
            let probing = owner.probing.map(|last| last.map(|t| now_us - t));
            (&owner.sent_in[..usize::from(owner.sent)], probing).hash(&mut h);
            let Owner { life, sent, fences, chained, restart_chain, last, base, told, got, .. } =
                owner;
            (life, sent, fences, chained, restart_chain, last, base, told, got).hash(&mut h);
        }
        (self.faults_left, self.upsets).hash(&mut h);
        h.finish()
    }

    /// The steps enabled here: a fate for the oldest fresh datagram while
    /// there is one, else every action.
    fn steps(&self, scope: Scope) -> Vec<Step> {
        if let Some((to, _)) = self.net.fresh.front() {
            let mut fates = vec![Step::Fate(Fate::Deliver)];
            if self.faults_left > 0 {
                fates.extend([Step::Fate(Fate::Drop), Step::Fate(Fate::Duplicate)]);
                if self.net.late[*to].is_none() {
                    fates.push(Step::Fate(Fate::Late));
                }
            }
            return fates;
        }
        let mut steps = Vec::new();
        for x in [A, B] {
            let left = scope.frames[x] - self.owners[x].sent;
            steps.extend((1..=left.min(2)).map(|frames| Step::Send(x, frames)));
            if !self.net.wire[x].is_empty() || self.net.late[x].is_some() {
                steps.push(Step::Turn(x));
            }
            if self.upsets == 0 {
                steps.push(Step::Restart(x));
            }
        }
        if self.net.next_deadline_us().is_some() {
            steps.push(Step::Tick);
        }
        steps
    }

    fn step(&mut self, step: Step) -> Result<(), String> {
        let before = [self.net.stats(A), self.net.stats(B)];
        let mut restarted = [false; 2];
        match step {
            Step::Send(x, frames) => {
                for _ in 0..frames {
                    self.send(x);
                }
                self.net.flush(x);
            }
            Step::Turn(x) => {
                // Datagram by datagram, so each frame is checked against
                // the receive epoch it surfaced in.
                while self.net.deliver(x) {
                    self.take_events(x)?;
                }
                self.net.poll(x);
            }
            Step::Tick => {
                let at = self.net.next_deadline_us().expect("a tick has a deadline");
                self.net.now_us = at;
                for x in [A, B] {
                    if self.net.ends[x].link.next_deadline_us() == Some(at) {
                        self.net.poll(x);
                    }
                }
            }
            Step::Restart(x) => {
                self.net.restart(x);
                let owner = &mut self.owners[x];
                *owner = Owner {
                    life: owner.life + 1,
                    sent: owner.sent,
                    fences: owner.fences,
                    sent_in: owner.sent_in,
                    got: owner.got,
                    ..Owner::default()
                };
                self.upsets += 1;
                restarted[x] = true;
            }
            Step::Fate(fate) => {
                let (to, datagram) = self.net.fresh.pop_front().expect("a fate has a datagram");
                if fate != Fate::Deliver {
                    self.faults_left -= 1;
                }
                self.net.place(to, datagram, fate);
            }
        }
        for x in [A, B] {
            self.take_events(x)?;
            let after = self.net.stats(x);
            self.upsets += u8::try_from(after.give_ups - before[x].give_ups).expect("few");
            if matches!(step, Step::Fate(_)) || restarted[x] {
                continue;
            }
            let heard = after.datagrams_received > before[x].datagrams_received;
            let emitted = self.net.fresh.iter().filter(|(to, _)| *to != x).count();
            let retransmitted = after.retransmits > before[x].retransmits;
            self.silence(x, heard, emitted, retransmitted)?;
        }
        Ok(())
    }

    fn take_events(&mut self, x: usize) -> Result<(), String> {
        for event in std::mem::take(&mut self.net.ends[x].events) {
            self.surfaced(x, event)?;
        }
        Ok(())
    }

    /// The owner of `x` sends its next frame: `[end, life, index, base]`.
    fn send(&mut self, x: usize) {
        let owner = &mut self.owners[x];
        let index = owner.sent;
        let base = if owner.chained && !owner.restart_chain { index - 1 } else { FULL };
        owner.sent += 1;
        owner.chained = true;
        owner.restart_chain = false;
        owner.sent_in[usize::from(index)] = (owner.life, owner.fences);
        let frame = vec![u8::try_from(x).expect("two ends"), owner.life, index, base];
        self.net.send(x, frame);
    }

    /// The owner of `x` takes what its link surfaced.
    fn surfaced(&mut self, x: usize, event: Event) -> Result<(), String> {
        let frame = match event {
            Event::Fenced => {
                let owner = &mut self.owners[x];
                owner.fences += 1;
                owner.restart_chain = true;
                owner.told = true;
                owner.probing = None;
                return Ok(());
            }
            Event::Frame(frame) => frame,
        };
        let [from, life, index, base] = frame[..] else { return Err(format!("frame {frame:?}")) };
        assert_eq!(usize::from(from), 1 - x, "a frame of the wrong end");
        let epoch = self.net.ends[x].link.remote_epoch;
        let sender = &self.owners[1 - x];
        let owner = &self.owners[x];
        if let Some((last_life, last, last_epoch)) = owner.last {
            if last_epoch == epoch && (last_life, last) >= (life, index) {
                return Err(format!(
                    "end {x} surfaced {life}/{index} after {last_life}/{last} in one epoch"
                ));
            }
            let missing = usize::from(last) + 1;
            if last_life == life
                && index > last + 1
                && sender.sent_in[usize::from(index)].1 <= sender.sent_in[missing].1
            {
                return Err(format!(
                    "end {x} skipped from {last} to {index} with no Fenced at {}",
                    1 - x
                ));
            }
        }
        let chained = base == FULL || owner.base == Some((life, base));
        if !chained && !owner.told {
            return Err(format!("end {x} met delta {life}/{index} without its base {base}"));
        }
        let owner = &mut self.owners[x];
        if chained {
            owner.base = Some((life, index));
        }
        owner.last = Some((life, index, epoch));
        owner.told = false;
        owner.got |= 1 << index;
        Ok(())
    }

    /// A peer that let a whole timeout pass is probed, not flooded: once
    /// `x`'s link retransmits, until it hears from the peer or fences,
    /// what it emits is one datagram at a time, an initial timeout apart.
    fn silence(&mut self, x: usize, heard: bool, emitted: usize, retx: bool) -> Result<(), String> {
        let now_us = self.net.now_us;
        let owner = &mut self.owners[x];
        if heard {
            owner.probing = None;
        }
        if retx && owner.probing.is_none() {
            owner.probing = Some(None);
        }
        let Some(last) = owner.probing else { return Ok(()) };
        if emitted == 0 {
            return Ok(());
        }
        let rto = cfg().rto_initial_us;
        if emitted > 1 || last.is_some_and(|t| now_us - t < rto) {
            return Err(format!(
                "end {x} sent {emitted} at {now_us}, last at {last:?}, to a silent peer"
            ));
        }
        owner.probing = Some(Some(now_us));
        Ok(())
    }

    /// The network heals here: everything arrives, the clock moves only
    /// to deadlines. Both links must fall quiet within a maximum plus an
    /// initial timeout, every frame sent since the sender was last told
    /// `Fenced` surfaced at the other end.
    fn heal(mut self) -> Result<(), String> {
        let cfg = cfg();
        let by_us = self.net.now_us + cfg.rto_max_us + cfg.rto_initial_us;
        self.net.weather = [Weather::Clear, Weather::Clear];
        loop {
            let step = if let Some(x) = [A, B]
                .into_iter()
                .find(|&x| !self.net.wire[x].is_empty() || self.net.late[x].is_some())
            {
                Step::Turn(x)
            } else if let Some(at) = self.net.next_deadline_us() {
                if at > by_us {
                    return Err(format!("not quiet by {by_us}: a deadline at {at}"));
                }
                Step::Tick
            } else {
                break;
            };
            self.step(step)?;
        }
        for x in [A, B] {
            let link = &self.net.ends[x].link;
            assert!(link.unacked.is_empty() && link.queued.is_empty(), "quiet with frames out");
            let (sender, receiver) = (&self.owners[x], &self.owners[1 - x]);
            for index in 0..sender.sent {
                let current = sender.sent_in[usize::from(index)] == (sender.life, sender.fences);
                if current && receiver.got & 1 << index == 0 {
                    return Err(format!(
                        "frame {index} of end {x} never arrived, no Fenced said so"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Hashes the state of `link` that decides what it does next, its times
/// counted back from `now_us`. The reassembler is left out: no frame in
/// a scope is large enough to fragment.
fn hash_link(link: &Link, now_us: u64, h: &mut impl Hasher) {
    (link.send_epoch, link.next_seq, link.unreachable, &link.queued).hash(h);
    for (seq, frame) in &link.unacked {
        (seq, &frame.frame, now_us - frame.sent_at_us, frame.rto_us, frame.retries).hash(h);
    }
    (link.remote_incarnation, link.remote_epoch, link.expect, &link.holdback).hash(h);
    let since = (link.ack_owed > 0).then(|| now_us - link.ack_since_us);
    (link.ack_owed, link.ack_now, since, now_us - link.last_poll_us).hash(h);
    (&link.pending, link.pending_bytes).hash(h);
}

/// Depth-first over every schedule of `scope`, each state once.
struct Search {
    scope: Scope,
    seen: HashSet<u64>,
    path: Vec<Step>,
}

impl Search {
    fn explore(&mut self, world: &World) -> Result<(), String> {
        if !self.seen.insert(world.key()) {
            return Ok(());
        }
        if world.net.fresh.is_empty() {
            world.clone().heal().map_err(|e| format!("healing after {:?}: {e}", self.path))?;
        }
        for step in world.steps(self.scope) {
            let mut next = world.clone();
            self.path.push(step);
            next.step(step).map_err(|e| format!("{e}\n  after {:?}", self.path))?;
            if next.upsets <= 1 {
                self.explore(&next)?;
            }
            self.path.pop();
        }
        Ok(())
    }
}

/// A panic (a deadline in the past) names the schedule that led there.
impl Drop for Search {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("schedule: {:?}", self.path);
        }
    }
}

/// Explores `scope`; returns the number of distinct states.
fn check(scope: Scope) -> usize {
    let mut search = Search { scope, seen: HashSet::new(), path: Vec::new() };
    if let Err(violation) = search.explore(&World::new(scope)) {
        panic!("{violation}");
    }
    search.seen.len()
}

#[test]
fn every_schedule_of_a_small_scope_keeps_the_link_properties() {
    // Two frames one way and acks the other, then one frame each way;
    // one datagram of any fate.
    let states =
        check(Scope { frames: [2, 0], faults: 1 }) + check(Scope { frames: [1, 1], faults: 1 });
    assert!(states > 50_000, "the scope shrank to {states} states");
}

#[test]
#[ignore = "run in release with --include-ignored"]
fn every_schedule_of_the_full_scope_keeps_the_link_properties() {
    // Three frames one way and two the other, every datagram arriving
    // (when the schedule lets it); then two and one, one datagram of any
    // fate.
    let states =
        check(Scope { frames: [3, 2], faults: 0 }) + check(Scope { frames: [2, 1], faults: 1 });
    assert!(states > 5_000_000, "the scope shrank to {states} states");
}
