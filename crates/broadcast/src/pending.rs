//! Entry-indexed wake-up engine for the pending queue.
//!
//! The paper's pending list is rescanned from the front after every
//! delivery (`O(P)` per delivery, `O(P²)` per cascade; `pcb_clock::spec`
//! keeps that rescan as the specification). This module replaces the
//! rescan with an index keyed by what each blocked message is actually
//! waiting for:
//!
//! * Every blocked message is registered on exactly **one** clock entry —
//!   the first entry whose Algorithm 2 wait-condition fails — together
//!   with the local value that entry must reach
//!   ([`pcb_clock::ProbClock::deliverability_gap`]).
//! * Each entry keeps its waiters in a min-heap ordered by that required
//!   threshold, so a delivery (which advances exactly the sender's `K`
//!   entries) wakes only the waiters whose threshold was just crossed —
//!   not every message that happens to share the entry.
//! * Woken messages resume their gap scan from the entry they were
//!   blocked on (sound because the wait-condition is monotone in the
//!   local clock), re-registering on the next blocked entry or moving to
//!   the ready heap.
//! * The ready heap is ordered by arrival ticket, which reproduces the
//!   rescan's delivery order exactly: the rescan always delivers the
//!   lowest-queue-index deliverable message, and since deliverability is
//!   monotone both repeatedly pick the minimum-arrival deliverable
//!   message. The differential test in `tests/differential.rs` replays
//!   identical traces through the specification and this index and
//!   asserts identical delivery orders.
//!
//! Per-message cost across its whole pending lifetime: one `O(R)` gap
//! scan amortized over all re-checks (the scan cursor only moves right),
//! plus `O(log W)` heap traffic per re-registration, where `W` is the
//! number of waiters on one entry. A delivery's wake-up cost is
//! proportional to the number of *actually unblocked* waiters on its `K`
//! entries, not to the pending-queue length. An arrival deliverable where
//! it lands, with nothing older ready, pays one gap scan and nothing else
//! ([`WakeupIndex::admit`]): no slot, no ticket, no ready-heap traffic.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use pcb_clock::{Gap, ProbClock};

use crate::message::Message;

/// Counters describing the index's work — the observable difference
/// between `O(waiters-on-K-entries)` wake-ups and an `O(P)` rescan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WakeupStats {
    /// Gap evaluations performed (insert + every wake re-check). The
    /// rescan's equivalent is its guard evaluations; the ratio of the two
    /// is the measured speedup.
    pub gap_checks: u64,
    /// Waiters popped from entry heaps by clock advances.
    pub wakeups: u64,
    /// Messages that were deliverable on arrival (never waited).
    pub ready_on_arrival: u64,
    /// Largest number of waiters woken by a single delivery.
    pub max_wake_fanout: u64,
    /// High-water mark of concurrently indexed (pending) messages.
    pub max_pending: usize,
}

/// Where [`WakeupIndex::insert`] routed a new arrival — the
/// observable fact a tracer wants: did the message wait, and if so on
/// which clock entry and for which local value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertVerdict {
    /// Deliverable on arrival; it went straight to the ready heap.
    Ready,
    /// Blocked: parked on `entry` until the local clock reaches `required`.
    Parked {
        /// Clock entry the message is registered on.
        entry: usize,
        /// Local value that entry must reach before the next re-check.
        required: u64,
    },
}

/// What [`WakeupIndex::admit`] did with an arrival.
#[derive(Debug)]
pub enum Admission<P> {
    /// Deliverable with nothing older ready: the caller delivers it now.
    Deliver(Message<P>),
    /// Indexed, as [`WakeupIndex::insert`] reports it.
    Indexed(InsertVerdict),
}

/// A pending message plus its bookkeeping.
#[derive(Debug, Clone)]
struct Slot<P> {
    arrived: u64,
    ticket: u64,
    /// Resume point for the gap scan; strictly increases across
    /// re-registrations, bounding total scan work at `O(R)` per message.
    scan_from: usize,
    /// The caller's flag from [`WakeupIndex::admit`].
    retained: bool,
    message: Message<P>,
}

/// A per-entry waiter heap: min-heap of `(required, ticket, slot)`.
type WaiterHeap = BinaryHeap<Reverse<(u64, u64, usize)>>;

/// The entry-indexed pending set. Owns the blocked messages; the caller
/// owns the clock and reports which entries each delivery advanced.
#[derive(Debug, Clone)]
pub struct WakeupIndex<P> {
    slots: Vec<Option<Slot<P>>>,
    free: Vec<usize>,
    /// Per clock entry: the entry's waiter heap.
    waiters: Vec<WaiterHeap>,
    /// Min-heap of `(ticket, slot)` messages whose guard passed.
    ready: BinaryHeap<Reverse<(u64, usize)>>,
    next_ticket: u64,
    len: usize,
    stats: WakeupStats,
}

impl<P> WakeupIndex<P> {
    /// An empty index over a clock of `r` entries.
    #[must_use]
    pub fn new(r: usize) -> Self {
        Self {
            slots: Vec::new(),
            free: Vec::new(),
            waiters: vec![BinaryHeap::new(); r],
            ready: BinaryHeap::new(),
            next_ticket: 0,
            len: 0,
            stats: WakeupStats::default(),
        }
    }

    /// Number of messages currently indexed (waiting or ready).
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Work counters.
    #[must_use]
    pub fn stats(&self) -> WakeupStats {
        self.stats
    }

    /// Age of the oldest indexed message relative to `now`.
    #[must_use]
    pub fn oldest_age(&self, now: u64) -> Option<u64> {
        self.slots.iter().flatten().map(|slot| now.saturating_sub(slot.arrived)).max()
    }

    /// Every message currently indexed (waiting or ready), in slot order.
    /// Used by snapshotting to subtract still-pending ids from the
    /// durable seen-set.
    pub fn iter_messages(&self) -> impl Iterator<Item = &Message<P>> {
        self.slots.iter().flatten().map(|slot| &slot.message)
    }

    /// Indexes a newly arrived message, classifying it against `clock`:
    /// deliverable messages go to the ready heap (pop them with
    /// [`WakeupIndex::pop_ready`]), blocked ones onto their first blocked
    /// entry's waiter heap. Reports which, so tracers can emit `Parked {
    /// entry, threshold }` events without re-deriving the gap.
    pub fn insert(&mut self, at: u64, message: Message<P>, clock: &ProbClock) -> InsertVerdict {
        self.queue(at, false, message, clock)
    }

    /// [`WakeupIndex::insert`] for a caller that delivers a ready arrival
    /// itself: with nothing older ready, a deliverable arrival comes back
    /// unindexed (no slot, ticket or ready-heap traffic) and a blocked one
    /// parks on the entry its one guard call named. `retained` rides in
    /// the slot until [`WakeupIndex::pop_ready_entry`] hands it back.
    pub fn admit(
        &mut self,
        at: u64,
        message: Message<P>,
        retained: bool,
        clock: &ProbClock,
    ) -> Admission<P> {
        if !self.ready.is_empty() {
            // Behind the older ready messages: ticket order is delivery order.
            return Admission::Indexed(self.queue(at, retained, message, clock));
        }
        self.stats.gap_checks += 1;
        match clock.deliverability_gap_from(message.timestamp(), message.keys(), 0) {
            Gap::Ready => {
                self.stats.ready_on_arrival += 1;
                self.stats.max_pending = self.stats.max_pending.max(self.len + 1);
                Admission::Deliver(message)
            }
            Gap::Blocked { entry, required } => {
                let ticket = self.next_ticket;
                let index = self.occupy(at, entry, retained, message);
                self.waiters[entry].push(Reverse((required, ticket, index)));
                Admission::Indexed(InsertVerdict::Parked { entry, required })
            }
            Gap::Never => unreachable!("probabilistic guard never yields Never"),
        }
    }

    /// Puts a new arrival in a free slot under the next ticket.
    fn occupy(&mut self, at: u64, scan_from: usize, retained: bool, message: Message<P>) -> usize {
        let slot = Slot { arrived: at, ticket: self.next_ticket, scan_from, retained, message };
        self.next_ticket += 1;
        let index = self.free.pop().unwrap_or(self.slots.len());
        if index == self.slots.len() {
            self.slots.push(None);
        }
        self.slots[index] = Some(slot);
        self.len += 1;
        self.stats.max_pending = self.stats.max_pending.max(self.len);
        index
    }

    /// Indexes a new arrival under the next ticket, from a full gap scan.
    fn queue(&mut self, at: u64, kept: bool, m: Message<P>, clock: &ProbClock) -> InsertVerdict {
        let index = self.occupy(at, 0, kept, m);
        let verdict = self.classify(index, clock);
        if verdict == InsertVerdict::Ready {
            self.stats.ready_on_arrival += 1;
        }
        verdict
    }

    /// Routes slot `index` by its current gap; reports where it went. The
    /// scan resumes where the last one stopped.
    fn classify(&mut self, index: usize, clock: &ProbClock) -> InsertVerdict {
        let slot = self.slots[index].as_mut().expect("classify on live slot");
        self.stats.gap_checks += 1;
        let gap = clock.deliverability_gap_from(
            slot.message.timestamp(),
            slot.message.keys(),
            slot.scan_from,
        );
        match gap {
            Gap::Ready => {
                self.ready.push(Reverse((slot.ticket, index)));
                InsertVerdict::Ready
            }
            Gap::Blocked { entry, required } => {
                debug_assert!(entry >= slot.scan_from, "gap scan moved left");
                slot.scan_from = entry;
                self.waiters[entry].push(Reverse((required, slot.ticket, index)));
                InsertVerdict::Parked { entry, required }
            }
            Gap::Never => unreachable!("probabilistic guard never yields Never"),
        }
    }

    /// Reacts to the clock advancing on `channels` (the sender's key set
    /// of the message just delivered): wakes exactly the waiters whose
    /// required threshold is now met and re-classifies them.
    pub fn on_clock_advance<I>(&mut self, channels: I, clock: &ProbClock)
    where
        I: IntoIterator<Item = usize>,
    {
        self.on_clock_advance_with(channels, clock, |_, _| {});
    }

    /// [`WakeupIndex::on_clock_advance`] with a per-wake callback: for
    /// each waiter whose threshold was crossed, `on_woken` sees the
    /// message and the entry it was parked on *before* re-classification
    /// (the message may park again on a later entry or become ready).
    pub fn on_clock_advance_with<I, F>(&mut self, channels: I, clock: &ProbClock, mut on_woken: F)
    where
        I: IntoIterator<Item = usize>,
        F: FnMut(&Message<P>, usize),
    {
        let local = clock.entries();
        let mut fanout = 0u64;
        for channel in channels {
            while let Some(&Reverse((required, _, slot))) = self.waiters[channel].peek() {
                if local[channel] < required {
                    break;
                }
                self.waiters[channel].pop();
                // A popped waiter may be a ghost of a slot re-registered
                // elsewhere? No: each live slot is registered in exactly
                // one heap, so the slot is live and parked right here.
                fanout += 1;
                let message = &self.slots[slot].as_ref().expect("woken slot is live").message;
                on_woken(message, channel);
                self.classify(slot, clock);
            }
        }
        self.stats.wakeups += fanout;
        self.stats.max_wake_fanout = self.stats.max_wake_fanout.max(fanout);
    }

    /// Removes and returns the ready message with the smallest arrival
    /// ticket — the exact message the paper's front-to-back rescan would
    /// deliver next. Deliverability is monotone, so ready entries never
    /// need re-validation.
    pub fn pop_ready(&mut self) -> Option<Message<P>> {
        self.pop_ready_entry().map(|(_, message, _)| message)
    }

    /// [`WakeupIndex::pop_ready`] that also returns the message's arrival
    /// time, so callers can report how long it sat blocked, and the
    /// `retained` flag it was admitted with.
    pub fn pop_ready_entry(&mut self) -> Option<(u64, Message<P>, bool)> {
        let Reverse((_, index)) = self.ready.pop()?;
        let slot = self.slots[index].take().expect("ready slot is live");
        self.free.push(index);
        self.len -= 1;
        Some((slot.arrived, slot.message, slot.retained))
    }

    /// Throws away all index structure and re-classifies every pending
    /// message from scratch. Needed after a non-monotone clock change
    /// (state installation may overwrite the vector arbitrarily), where
    /// resume points and parked thresholds are no longer trustworthy.
    pub fn rebuild(&mut self, clock: &ProbClock) {
        for heap in &mut self.waiters {
            heap.clear();
        }
        self.ready.clear();
        for index in 0..self.slots.len() {
            if let Some(slot) = self.slots[index].as_mut() {
                slot.scan_from = 0;
                self.classify(index, clock);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcb_clock::{KeySet, KeySpace, ProcessId};
    use std::rc::Rc;

    use crate::message::MessageId;

    fn space() -> KeySpace {
        KeySpace::new(4, 2).unwrap()
    }

    fn msg(sender: usize, seq: u64, keys: &[usize], ts: pcb_clock::Timestamp) -> Message<()> {
        Message::new(
            MessageId::new(ProcessId::new(sender), seq),
            Rc::new(KeySet::from_entries(space(), keys).unwrap()),
            ts,
            (),
        )
    }

    #[test]
    fn ready_message_pops_immediately() {
        let clock = ProbClock::new(space());
        let mut sender = ProbClock::new(space());
        let keys = [0, 1];
        let ts = sender.stamp_send(&KeySet::from_entries(space(), &keys).unwrap());

        let mut index = WakeupIndex::new(4);
        index.insert(0, msg(0, 1, &keys, ts), &clock);
        assert_eq!(index.len(), 1);
        assert!(index.pop_ready().is_some());
        assert!(index.is_empty());
        assert_eq!(index.stats().ready_on_arrival, 1);
    }

    #[test]
    fn admit_delivers_in_place_only_when_nothing_older_is_ready() {
        let clock = ProbClock::new(space());
        let mut sender = ProbClock::new(space());
        let f = KeySet::from_entries(space(), &[0, 1]).unwrap();
        let (ts1, ts2) = (sender.stamp_send(&f), sender.stamp_send(&f));
        let g = KeySet::from_entries(space(), &[2, 3]).unwrap();
        let other = ProbClock::new(space()).stamp_send(&g);

        let mut index = WakeupIndex::new(4);
        // Nothing ready: a deliverable arrival comes straight back, a
        // blocked one parks, and both count as pending for their instant.
        assert!(matches!(
            index.admit(0, msg(0, 1, &[0, 1], ts1), true, &clock),
            Admission::Deliver(_)
        ));
        let parked = index.admit(1, msg(0, 2, &[0, 1], ts2), true, &clock);
        assert!(matches!(parked, Admission::Indexed(InsertVerdict::Parked { .. })));
        assert_eq!(
            (index.len(), index.stats().max_pending, index.stats().ready_on_arrival),
            (1, 1, 1)
        );

        // An older message waiting on the ready heap: a ready arrival
        // queues behind it instead of overtaking it.
        let mut index = WakeupIndex::new(4);
        index.insert(0, msg(2, 1, &[2, 3], other.clone()), &clock);
        let queued = index.admit(1, msg(3, 1, &[2, 3], other), true, &clock);
        assert!(matches!(queued, Admission::Indexed(InsertVerdict::Ready)));
        let order: Vec<_> = std::iter::from_fn(|| index.pop_ready_entry())
            .map(|(_, m, retained)| (m.id().sender().index(), retained))
            .collect();
        assert_eq!(order, [(2, false), (3, true)], "ticket order, each with its flag");
        assert_eq!(index.stats().ready_on_arrival, 2);
    }

    #[test]
    fn blocked_message_wakes_on_threshold() {
        let mut clock = ProbClock::new(space());
        let f = KeySet::from_entries(space(), &[1, 2]).unwrap();
        let mut sender = ProbClock::new(space());
        let ts1 = sender.stamp_send(&f);
        let ts2 = sender.stamp_send(&f);

        let mut index = WakeupIndex::new(4);
        index.insert(0, msg(1, 2, &[1, 2], ts2), &clock);
        assert!(index.pop_ready().is_none(), "FIFO gap blocks the second send");

        index.insert(1, msg(1, 1, &[1, 2], ts1), &clock);
        let first = index.pop_ready().expect("first send is ready");
        assert_eq!(first.id().seq(), 1);

        clock.record_delivery(&f);
        index.on_clock_advance(f.iter(), &clock);
        let second = index.pop_ready().expect("threshold crossed");
        assert_eq!(second.id().seq(), 2);
        assert!(index.is_empty());
        assert!(index.stats().wakeups >= 1);
    }

    #[test]
    fn same_entry_waiters_wake_selectively() {
        // Three FIFO sends from one sender, arriving in reverse: each
        // delivery must wake exactly the next message in the chain, not
        // every waiter parked on the shared entries.
        let mut clock = ProbClock::new(space());
        let f = KeySet::from_entries(space(), &[0, 1]).unwrap();
        let mut sender = ProbClock::new(space());
        let stamps: Vec<_> = (0..3).map(|_| sender.stamp_send(&f)).collect();

        let mut index = WakeupIndex::new(4);
        for (k, ts) in stamps.iter().enumerate().rev() {
            index.insert(0, msg(0, k as u64 + 1, &[0, 1], ts.clone()), &clock);
        }
        let mut order = Vec::new();
        while let Some(m) = index.pop_ready() {
            clock.record_delivery(m.keys());
            let keys: Vec<usize> = m.keys().iter().collect();
            order.push(m.id().seq());
            index.on_clock_advance(keys, &clock);
        }
        assert_eq!(order, vec![1, 2, 3]);
        // Selective wake-up: each delivery woke exactly one waiter.
        assert_eq!(index.stats().max_wake_fanout, 1);
    }

    #[test]
    fn oldest_age_tracks_arrivals() {
        let clock = ProbClock::new(space());
        let f = KeySet::from_entries(space(), &[1, 2]).unwrap();
        let mut sender = ProbClock::new(space());
        let _ = sender.stamp_send(&f);
        let ts2 = sender.stamp_send(&f);

        let mut index = WakeupIndex::new(4);
        assert_eq!(index.oldest_age(100), None);
        index.insert(10, msg(1, 2, &[1, 2], ts2), &clock);
        assert_eq!(index.oldest_age(100), Some(90));
    }

    #[test]
    fn rebuild_reclassifies_after_clock_overwrite() {
        let mut clock = ProbClock::new(space());
        let f = KeySet::from_entries(space(), &[1, 2]).unwrap();
        let mut sender = ProbClock::new(space());
        let _ = sender.stamp_send(&f);
        let ts2 = sender.stamp_send(&f);

        let mut index = WakeupIndex::new(4);
        index.insert(0, msg(1, 2, &[1, 2], ts2), &clock);
        assert!(index.pop_ready().is_none());

        // Snapshot install: vector jumps forward without any delivery.
        clock.reset_to(pcb_clock::Timestamp::from_entries(vec![0, 1, 1, 0]));
        index.rebuild(&clock);
        assert!(index.pop_ready().is_some(), "rebuild sees the new vector");
    }
}
