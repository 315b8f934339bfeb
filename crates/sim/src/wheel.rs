//! A hierarchical timing wheel with **exact** `(time, tie)` ordering —
//! a drop-in replacement for the engine's binary-heap event queue.
//!
//! # Layout
//!
//! The wheel files by *tick*: `time >> 6`, one tick = 64 µs. Six levels of
//! 64 slots each; a slot at level `L` spans `64^L` ticks, so the wheel
//! covers deltas up to `64^6 − 1` ticks (≈ 50 days of virtual time);
//! rarer events beyond the horizon sit in an overflow list that is
//! re-filed when it becomes due. Each slot stores its events in a
//! contiguous array whose capacity is recycled (drained slots swap their
//! storage with the ready/cascade scratch vectors), so at steady state a
//! push→pop cycle touches no allocator, and — unlike a linked slab, where
//! every cascade chases node pointers through random memory — filing and
//! draining are sequential scans. Per-level occupancy bitmaps make
//! finding the next non-empty slot `O(1)`.
//!
//! A tick rather than a µs instant per level-0 slot is the cost trade: on
//! the paper's traffic (≈ 2.6 events per tick) one minimum search serves
//! a whole tick instead of almost every pop, and a 100 ms receive event
//! is filed twice (level 1, then 0) instead of three times.
//!
//! # Why ordering stays exact
//!
//! Timer wheels are usually *approximate* (they fire whole slots). Three
//! properties restore the heap's exact `(time, tie)` order:
//!
//! 1. **A level-0 slot holds exactly one tick.** All events stored at
//!    level 0 have a tick delta below 64 from the cursor's tick, and two
//!    ticks in the same slot are congruent mod 64 — so they would differ
//!    by ≥ 64. Contradiction; the ticks are equal. A drained level-0 slot
//!    is sorted by `(time, tie)` into `ready`, and a push that lands in
//!    the tick being drained is inserted into `ready` at its sorted
//!    position (its tie is the largest, so it goes after every queued
//!    event of its time).
//! 2. **A tick drains whole.** The minimum search compares ticks, and on
//!    equal ticks the *highest* level wins: a same-tick event still
//!    waiting at level ≥ 1 cascades down into the level-0 slot before
//!    that slot drains, so no event of a drained tick is left behind.
//! 3. **`cur` stays a lower bound.** Each search advances `cur` to the
//!    exact global minimum, taken from per-slot cached minimum times
//!    (cheap: at most three candidate slots per level — the first
//!    occupied slot after the cursor, the cursor slot itself, and the
//!    first wrapped slot — are comparable by their cached minima).
//!    Higher-level slots are cascaded one level down only when they hold
//!    the minimum tick, so every node sinks through at most `LEVELS − 1`
//!    cascades.
//!
//! The same argument bounds slot residency: events in one slot at level
//! `L` always lie within a single `64^(L+1)`-tick block (two occupants of
//! one slot from different blocks would differ by ≥ `64^(L+1)` ticks, but
//! every resident's tick lies less than `64^(L+1)` after the cursor's).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A tick is `1 << TICK_BITS` µs: the span of one level-0 slot.
const TICK_BITS: u32 = 6;
const SLOT_BITS: u32 = 6;
const SLOTS: usize = 1 << SLOT_BITS;
const LEVELS: usize = 6;
/// Tick deltas at or beyond `64^LEVELS` go to the overflow list.
const WHEEL_HORIZON: u64 = 1 << (SLOT_BITS * LEVELS as u32);

struct Ev<T> {
    time: u64,
    tie: u64,
    payload: T,
}

/// The hierarchical timing wheel. Use through [`EventQueue`] unless you
/// specifically want the wheel-only API.
pub struct TimingWheel<T> {
    /// Per-slot event arrays (`LEVELS × SLOTS`), append-ordered.
    slots: Vec<Vec<Ev<T>>>,
    /// Exact minimum event time per slot (`u64::MAX` when empty). Kept
    /// exact because slots are only ever emptied wholesale.
    slot_min: [u64; LEVELS * SLOTS],
    occ: [u64; LEVELS],
    /// Lower bound on every contained event; advanced to each popped
    /// event's time.
    cur: u64,
    tie: u64,
    len: usize,
    /// Events whose tick lay `WHEEL_HORIZON` or more after `cur`'s at
    /// insertion.
    overflow: Vec<Ev<T>>,
    overflow_min: u64,
    /// Drained level-0 slot (the events of `cur`'s tick), sorted by
    /// `(time, tie)` descending and consumed from the back; its emptied
    /// storage is swapped back into the next drained slot.
    ready: Vec<Ev<T>>,
    /// Scratch for cascading a higher-level slot: swapped with the slot,
    /// drained sequentially, kept for the next cascade.
    cascade: Vec<Ev<T>>,
}

impl<T> Default for TimingWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TimingWheel<T> {
    /// An empty wheel at virtual time zero.
    #[must_use]
    pub fn new() -> Self {
        Self {
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            slot_min: [u64::MAX; LEVELS * SLOTS],
            occ: [0; LEVELS],
            cur: 0,
            tie: 0,
            len: 0,
            overflow: Vec::new(),
            overflow_min: u64::MAX,
            ready: Vec::new(),
            cascade: Vec::new(),
        }
    }

    /// Number of queued events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total event storage retained across slots and scratch buffers
    /// (diagnostics: bounded — not growing with throughput — once the
    /// capacity recycling reaches steady state).
    #[must_use]
    fn slab_len(&self) -> usize {
        self.slots.iter().map(Vec::capacity).sum::<usize>()
            + self.ready.capacity()
            + self.cascade.capacity()
            + self.overflow.capacity()
    }

    /// Schedules `payload` at `time`. Times must be monotone with respect
    /// to the last popped event (the discrete-event contract, asserted in
    /// debug builds); a past time is not ordered in release builds.
    pub fn push(&mut self, time: u64, payload: T) {
        debug_assert!(
            time >= self.cur,
            "wheel requires monotone event times: push {time} < cur {}",
            self.cur
        );
        self.tie += 1;
        let ev = Ev { time, tie: self.tie, payload };
        if !self.ready.is_empty() && time >> TICK_BITS == self.cur >> TICK_BITS {
            // The tick being drained: after every queued event of its
            // time (its tie is the largest), before every later one.
            let at = self.ready.partition_point(|e| e.time > time);
            self.ready.insert(at, ev);
        } else {
            self.file(ev);
        }
        self.len += 1;
    }

    /// Removes and returns the earliest event as `(time, payload)`;
    /// exact `(time, insertion-order)` ordering, byte-identical to a
    /// `BinaryHeap` min-queue on `(time, tie)`.
    pub fn pop(&mut self) -> Option<(u64, T)> {
        loop {
            if let Some(ev) = self.ready.pop() {
                self.len -= 1;
                return Some((ev.time, ev.payload));
            }
            if self.len == 0 {
                return None;
            }
            let (best_time, best) = self.min_candidate();
            if !self.overflow.is_empty() && self.overflow_min >> TICK_BITS <= best_time >> TICK_BITS
            {
                // The minimum tick sits beyond the wheel horizon: advance
                // to it and re-file the overflow (rare; only when virtual
                // time leaps past the horizon).
                self.cur = self.overflow_min.min(best_time);
                self.overflow_min = u64::MAX;
                let overflow = std::mem::take(&mut self.overflow);
                for ev in overflow {
                    self.file(ev);
                }
                continue;
            }
            let (level, slot) = best.expect("non-empty wheel has a candidate slot");
            debug_assert!(best_time >= self.cur, "wheel cursor moved past an event");
            self.cur = best_time;
            let idx = level * SLOTS + slot;
            self.slot_min[idx] = u64::MAX;
            self.occ[level] &= !(1u64 << slot);
            if level == 0 {
                // One tick per level-0 slot, all of it here (module
                // docs): sorting by (time, tie) reproduces heap order.
                // Descending, because `ready` pops from the back; the
                // drained slot inherits `ready`'s emptied storage.
                std::mem::swap(&mut self.slots[idx], &mut self.ready);
                self.ready.sort_unstable_by_key(|e| std::cmp::Reverse((e.time, e.tie)));
            } else {
                // Cascade the whole slot one (or more) levels down; the
                // minimum tick lands in level 0 at the cursor. Re-filing
                // never targets the slot being drained (module docs), so
                // swapping it out is safe.
                let mut batch = std::mem::take(&mut self.cascade);
                std::mem::swap(&mut self.slots[idx], &mut batch);
                for ev in batch.drain(..) {
                    self.file(ev);
                }
                self.cascade = batch;
            }
        }
    }

    /// Exact minimum event time in the wheel proper, plus the
    /// highest-level slot holding its tick, from at most three cached slot
    /// minima per level (see module docs).
    fn min_candidate(&self) -> (u64, Option<(usize, usize)>) {
        let mut best_time = u64::MAX;
        let mut best_tick = u64::MAX;
        let mut best = None;
        for level in 0..LEVELS {
            let bits = self.occ[level];
            if bits == 0 {
                continue;
            }
            let pos =
                ((self.cur >> (TICK_BITS + SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as u32;
            // Region s > pos: current block, minimal slot = first bit.
            // Region s == pos: current or wrapped block (cached min tells).
            // Region s < pos: wrapped block, minimal slot = first bit.
            let at = bits & (1u64 << pos);
            let above = if pos + 1 < 64 { bits & (!0u64 << (pos + 1)) } else { 0 };
            let below = bits & !(!0u64 << pos);
            for cand in [at, above, below] {
                if cand != 0 {
                    let s = cand.trailing_zeros() as usize;
                    let m = self.slot_min[level * SLOTS + s];
                    best_time = best_time.min(m);
                    // `<=`: on equal ticks the *highest* level must win,
                    // so same-tick events cascade down and merge into one
                    // level-0 slot before it drains — the drain sort needs
                    // the whole tick together to reproduce heap order.
                    if m >> TICK_BITS <= best_tick {
                        best_tick = m >> TICK_BITS;
                        best = Some((level, s));
                    }
                }
            }
        }
        (best_time, best)
    }

    /// Files an event into the wheel (or overflow) by its tick delta from
    /// `cur`'s tick.
    fn file(&mut self, ev: Ev<T>) {
        let tick = ev.time >> TICK_BITS;
        let delta = tick.saturating_sub(self.cur >> TICK_BITS);
        if delta >= WHEEL_HORIZON {
            self.overflow_min = self.overflow_min.min(ev.time);
            self.overflow.push(ev);
            return;
        }
        // Smallest level whose slot span covers the delta: bit length / 6.
        let level =
            if delta == 0 { 0 } else { ((64 - delta.leading_zeros() - 1) / SLOT_BITS) as usize };
        let slot = ((tick >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        let idx = level * SLOTS + slot;
        self.occ[level] |= 1u64 << slot;
        let m = &mut self.slot_min[idx];
        *m = (*m).min(ev.time);
        self.slots[idx].push(ev);
    }
}

impl<T> std::fmt::Debug for TimingWheel<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimingWheel")
            .field("len", &self.len)
            .field("cur", &self.cur)
            .field("retained", &self.slab_len())
            .field("overflow", &self.overflow.len())
            .finish()
    }
}

/// Which event-queue implementation a simulation runs on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Scheduler {
    /// Hierarchical timing wheel with capacity-recycled slot arrays
    /// (default).
    #[default]
    Wheel,
    /// The original `BinaryHeap` — kept as the differential baseline.
    Heap,
}

struct HeapEv<T> {
    time: u64,
    tie: u64,
    payload: T,
}

impl<T> PartialEq for HeapEv<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.tie == other.tie
    }
}
impl<T> Eq for HeapEv<T> {}
impl<T> Ord for HeapEv<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-queue on (time, tie) through a max-heap: reverse.
        (other.time, other.tie).cmp(&(self.time, self.tie))
    }
}
impl<T> PartialOrd for HeapEv<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The simulator's event queue: a [`TimingWheel`] or the legacy
/// `BinaryHeap`, selected by [`Scheduler`]. Both pop in exactly the same
/// `(time, insertion-order)` sequence; the differential tests and golden
/// tables certify bit-identical simulations.
pub struct EventQueue<T>(QueueImpl<T>);

enum QueueImpl<T> {
    // Boxed: the wheel's inline occupancy/minimum arrays are ~3 KB,
    // which would otherwise bloat every queue by the larger variant.
    Wheel(Box<TimingWheel<T>>),
    Heap { heap: BinaryHeap<HeapEv<T>>, tie: u64 },
}

impl<T> EventQueue<T> {
    /// An empty queue on the chosen scheduler.
    #[must_use]
    pub fn new(scheduler: Scheduler) -> Self {
        match scheduler {
            Scheduler::Wheel => Self(QueueImpl::Wheel(Box::default())),
            Scheduler::Heap => Self(QueueImpl::Heap { heap: BinaryHeap::new(), tie: 0 }),
        }
    }

    /// Schedules `payload` at `time`.
    pub fn push(&mut self, time: u64, payload: T) {
        match &mut self.0 {
            QueueImpl::Wheel(wheel) => wheel.push(time, payload),
            QueueImpl::Heap { heap, tie } => {
                *tie += 1;
                heap.push(HeapEv { time, tie: *tie, payload });
            }
        }
    }

    /// Removes and returns the earliest `(time, payload)`.
    pub fn pop(&mut self) -> Option<(u64, T)> {
        match &mut self.0 {
            QueueImpl::Wheel(wheel) => wheel.pop(),
            QueueImpl::Heap { heap, .. } => heap.pop().map(|ev| (ev.time, ev.payload)),
        }
    }

    /// Number of queued events.
    #[must_use]
    pub fn len(&self) -> usize {
        match &self.0 {
            QueueImpl::Wheel(wheel) => wheel.len(),
            QueueImpl::Heap { heap, .. } => heap.len(),
        }
    }

    /// Whether no events are queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> std::fmt::Debug for EventQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            QueueImpl::Wheel(wheel) => wheel.fmt(f),
            QueueImpl::Heap { heap, .. } => {
                f.debug_struct("HeapQueue").field("len", &heap.len()).finish()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A wheel and the heap baseline fed the same pushes; every pop must
    /// agree.
    struct Twin {
        wheel: TimingWheel<u32>,
        heap: EventQueue<u32>,
    }

    impl Twin {
        fn new() -> Self {
            Self { wheel: TimingWheel::new(), heap: EventQueue::new(Scheduler::Heap) }
        }

        fn push(&mut self, time: u64, payload: u32) {
            self.wheel.push(time, payload);
            self.heap.push(time, payload);
        }

        fn pop(&mut self) -> Option<(u64, u32)> {
            let popped = self.wheel.pop();
            assert_eq!(popped, self.heap.pop());
            popped
        }

        fn drain(&mut self) {
            while self.pop().is_some() {}
            assert!(self.wheel.is_empty());
        }
    }

    /// Reference model: pops must match a (time, tie) min-heap exactly.
    fn drive(pushes: &[(u64, u32)]) {
        let mut twin = Twin::new();
        for &(t, v) in pushes {
            twin.push(t, v);
        }
        twin.drain();
    }

    /// Deterministic xorshift stream.
    fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    #[test]
    fn same_slot_preserves_insertion_order() {
        drive(&[(5, 1), (5, 2), (5, 3), (5, 4)]);
    }

    #[test]
    fn cross_level_insertion_keeps_tie_order() {
        // An early insert lands at level 1 and cascades; a later insert
        // of the same time goes straight to level 0. Drain order must
        // still follow insertion ties.
        let mut wheel = TimingWheel::new();
        wheel.push(100, "early-via-level1");
        wheel.push(0, "now");
        assert_eq!(wheel.pop(), Some((0, "now")));
        // After popping t=0, cur=0; t=100 still at level 1.
        wheel.push(100, "late-direct");
        wheel.push(40, "mid");
        assert_eq!(wheel.pop(), Some((40, "mid")));
        assert_eq!(wheel.pop(), Some((100, "early-via-level1")));
        assert_eq!(wheel.pop(), Some((100, "late-direct")));
        assert_eq!(wheel.pop(), None);
    }

    #[test]
    fn wrapped_slots_and_level_boundaries() {
        let mut pushes = Vec::new();
        // Exercise slot wrap (63 -> 64), level boundaries, far deltas.
        for (i, t) in
            [0u64, 63, 64, 65, 127, 128, 4095, 4096, 4097, 262_143, 262_144].into_iter().enumerate()
        {
            pushes.push((t, i as u32));
            pushes.push((t, 100 + i as u32));
        }
        drive(&pushes);
    }

    #[test]
    fn pseudo_random_workload_matches_heap() {
        // Interleaved pushes and pops with monotone push times (the
        // discrete-event contract).
        let mut next = xorshift(0x2545F4914F6CDD1D);
        let mut twin = Twin::new();
        let mut now = 0u64;
        let mut pending = 0usize;
        for i in 0..50_000u32 {
            let burst = (next() % 4) as usize;
            for j in 0..burst {
                // Mixed deltas: mostly small, occasionally huge (level 3+).
                let r = next();
                let delta = match r % 10 {
                    0..=5 => r % 64,
                    6..=7 => r % 4096,
                    8 => r % 262_144,
                    _ => r % 100_000_000,
                };
                twin.push(now + delta, i * 10 + j as u32);
                pending += 1;
            }
            if pending > 0 && !next().is_multiple_of(3) {
                now = twin.pop().expect("pending > 0").0;
                pending -= 1;
            }
        }
        twin.drain();
    }

    #[test]
    fn overflow_beyond_horizon_is_refilled() {
        let mut wheel = TimingWheel::new();
        let far = (WHEEL_HORIZON << TICK_BITS) * 3 + 17;
        wheel.push(far, 1u32);
        wheel.push(far, 2);
        wheel.push(5, 0);
        assert_eq!(wheel.pop(), Some((5, 0)));
        assert_eq!(wheel.pop(), Some((far, 1)));
        assert_eq!(wheel.pop(), Some((far, 2)));
        assert_eq!(wheel.pop(), None);
        assert!(wheel.is_empty());
    }

    #[test]
    fn the_last_tick_pops() {
        // The overflow re-file must not spin once the overflow is empty,
        // even where an empty overflow's `u64::MAX` shares the minimum's
        // tick.
        drive(&[(u64::MAX, 1), (u64::MAX - 5, 2), (u64::MAX, 3)]);
    }

    #[test]
    fn storage_stops_growing_at_steady_state() {
        // Warm up for one full level-0 revolution (64 ticks): until then
        // each newly reached tick slot may still take its first storage.
        let revolution = (SLOTS as u64) << TICK_BITS;
        let mut wheel = TimingWheel::new();
        for round in 0..revolution {
            wheel.push(round, round as u32);
            assert_eq!(wheel.pop(), Some((round, round as u32)));
        }
        let settled = wheel.slab_len();
        for round in revolution..revolution + 10_000 {
            wheel.push(round, round as u32);
            assert_eq!(wheel.pop(), Some((round, round as u32)));
        }
        assert_eq!(
            wheel.slab_len(),
            settled,
            "retained storage must stabilize, not grow with throughput"
        );
    }

    #[test]
    fn push_at_current_instant_during_drain() {
        let mut wheel = TimingWheel::new();
        wheel.push(10, 1u32);
        wheel.push(10, 2);
        assert_eq!(wheel.pop(), Some((10, 1)));
        // Same-instant push while the slot's drain is mid-flight.
        wheel.push(10, 3);
        assert_eq!(wheel.pop(), Some((10, 2)));
        assert_eq!(wheel.pop(), Some((10, 3)));
        assert_eq!(wheel.pop(), None);
    }

    #[test]
    fn same_tick_split_across_levels_drains_in_heap_order() {
        // Tick 100 is 100 ticks ahead of tick 0: level 1. Once the cursor
        // sits at tick 50 it is 50 ticks ahead: level 0. Both orders of
        // the two times, and equal times, must pop as the heap does.
        let tick = 1u64 << TICK_BITS;
        for (early, late) in [(100 * tick + 40, 100 * tick + 5), (100 * tick + 5, 100 * tick + 40)]
            .into_iter()
            .chain([(100 * tick + 9, 100 * tick + 9)])
        {
            let mut twin = Twin::new();
            twin.push(early, 1);
            twin.push(0, 0);
            twin.push(50 * tick, 2);
            assert_eq!(twin.pop(), Some((0, 0)));
            assert_eq!(twin.pop(), Some((50 * tick, 2)));
            twin.push(late, 3);
            twin.push(late + tick, 4);
            twin.drain();
        }
    }

    #[test]
    fn push_into_the_draining_tick_lands_in_sorted_position() {
        let mut twin = Twin::new();
        for (time, payload) in [(10, 1), (20, 2), (30, 3), (20, 4)] {
            twin.push(time, payload);
        }
        assert_eq!(twin.pop(), Some((10, 1)));
        // `ready` still holds 20, 20, 30 of tick 0. Push before, between,
        // at equal times and after them, and into the next tick.
        for (time, payload) in [(10, 5), (15, 6), (20, 7), (25, 8), (30, 9), (63, 10), (64, 11)] {
            twin.push(time, payload);
        }
        assert_eq!(twin.pop(), Some((10, 5)));
        twin.push(12, 12);
        twin.drain();
    }

    #[test]
    fn paper_shaped_stream_matches_heap() {
        // The paper's §5.4 traffic: Poisson sends (one every 5 ms on
        // average here), each fanning out to 199 receive events at
        // 100 ± 20 ms, pops interleaved with the pushes they cause.
        let mut next = xorshift(0x9E37_79B9_7F4A_7C15);
        const SEND: u32 = u32::MAX;
        let mut twin = Twin::new();
        twin.push(0, SEND);
        let mut sends = 0u32;
        while let Some((now, payload)) = twin.pop() {
            if payload != SEND || sends == 400 {
                continue;
            }
            sends += 1;
            let unit = (next() >> 11) as f64 / (1u64 << 53) as f64;
            twin.push(now + (-(1.0 - unit).ln() * 5_000.0) as u64, SEND);
            for receiver in 0..199 {
                twin.push(now + 80_000 + next() % 40_001, sends * 1000 + receiver);
            }
        }
        assert_eq!(sends, 400);
    }
}
