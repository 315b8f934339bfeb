//! A hierarchical timing wheel with **exact** `(time, tie)` ordering —
//! a drop-in replacement for the engine's binary-heap event queue.
//!
//! # Layout
//!
//! Six levels of 64 slots each. A slot at level `L` spans `64^L` µs, so
//! the wheel covers deltas up to `64^6 − 1` µs (≈ 19 hours of virtual
//! time); rarer events beyond the horizon sit in an overflow list that is
//! re-filed when it becomes due. Each slot stores its events in a
//! contiguous array whose capacity is recycled (drained slots swap their
//! storage with the ready/cascade scratch vectors), so at steady state a
//! push→pop cycle touches no allocator, and — unlike a linked slab, where
//! every cascade chases node pointers through random memory — filing and
//! draining are sequential scans. Per-level occupancy bitmaps make
//! finding the next non-empty slot `O(1)`.
//!
//! # Why ordering stays exact
//!
//! Timer wheels are usually *approximate* (they fire whole slots). Two
//! properties restore the heap's exact `(time, tie)` order:
//!
//! 1. **A level-0 slot holds exactly one instant.** All events stored at
//!    level 0 have `time − cur < 64`, and two times in the same slot are
//!    congruent mod 64 — so they would differ by ≥ 64. Contradiction;
//!    the times are equal. Draining a level-0 slot therefore only needs
//!    a sort by insertion tie to reproduce heap order, and pushes that
//!    land at the instant currently being drained carry strictly larger
//!    ties, so appending them to a fresh slot list keeps order.
//! 2. **`cur` advances to exact minima.** Each pop computes the exact
//!    global minimum from per-slot cached minimum times (cheap: at most
//!    three candidate slots per level — the first occupied slot after the
//!    cursor, the cursor slot itself, and the first wrapped slot — are
//!    comparable by their cached minima). Higher-level slots are cascaded
//!    one level down only when they hold that minimum, so every node
//!    sinks through at most `LEVELS − 1` cascades.
//!
//! The same argument bounds slot residency: events in one slot at level
//! `L` always lie within a single `64^(L+1)` block (two occupants of one
//! slot from different blocks would differ by ≥ `64^(L+1)`, but every
//! resident satisfies `time − cur < 64^(L+1)`).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

const SLOT_BITS: u32 = 6;
const SLOTS: usize = 1 << SLOT_BITS;
const LEVELS: usize = 6;
/// Deltas at or beyond `64^LEVELS` µs go to the overflow list.
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
    /// Events with `time − cur ≥ WHEEL_HORIZON` at insertion.
    overflow: Vec<Ev<T>>,
    overflow_min: u64,
    /// Drained level-0 slot, sorted by `(time, tie)` descending and
    /// consumed from the back; its emptied storage is swapped back into
    /// the next drained slot.
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
    pub fn slab_len(&self) -> usize {
        self.slots.iter().map(Vec::capacity).sum::<usize>()
            + self.ready.capacity()
            + self.cascade.capacity()
            + self.overflow.capacity()
    }

    /// Schedules `payload` at `time`. Times must be monotone with respect
    /// to the last popped event (the discrete-event contract); a past
    /// time is filed at the cursor's instant in release builds.
    pub fn push(&mut self, time: u64, payload: T) {
        debug_assert!(
            time >= self.cur,
            "wheel requires monotone event times: push {time} < cur {}",
            self.cur
        );
        self.tie += 1;
        self.file(Ev { time, tie: self.tie, payload });
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
            if self.overflow_min <= best_time {
                // The global minimum sits beyond the wheel horizon:
                // advance to it and re-file the overflow (rare; only when
                // virtual time leaps by hours).
                self.cur = self.overflow_min;
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
                // One instant per level-0 slot: sorting by tie alone
                // reproduces heap order ((time, tie) for safety).
                // Descending, because `ready` pops from the back; the
                // drained slot inherits `ready`'s emptied storage.
                std::mem::swap(&mut self.slots[idx], &mut self.ready);
                self.ready.sort_unstable_by_key(|e| std::cmp::Reverse((e.time, e.tie)));
            } else {
                // Cascade the whole slot one (or more) levels down; the
                // minimum event lands in level 0 at the cursor. Re-filing
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

    /// Exact minimum event time in the wheel proper plus its slot, from
    /// at most three cached slot minima per level (see module docs).
    fn min_candidate(&self) -> (u64, Option<(usize, usize)>) {
        let mut best_time = u64::MAX;
        let mut best = None;
        for level in 0..LEVELS {
            let bits = self.occ[level];
            if bits == 0 {
                continue;
            }
            let pos = ((self.cur >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as u32;
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
                    // `<=`: on equal minima the *highest* level must win,
                    // so same-time events cascade down and merge into one
                    // level-0 slot before it drains — the tie sort needs
                    // them together to reproduce insertion order.
                    if m <= best_time {
                        best_time = m;
                        best = Some((level, s));
                    }
                }
            }
        }
        (best_time, best)
    }

    /// Files an event into the wheel (or overflow) by its delta from `cur`.
    fn file(&mut self, ev: Ev<T>) {
        let delta = ev.time.saturating_sub(self.cur);
        if delta >= WHEEL_HORIZON {
            self.overflow_min = self.overflow_min.min(ev.time);
            self.overflow.push(ev);
            return;
        }
        // Smallest level whose slot span covers the delta: bit length / 6.
        let level =
            if delta == 0 { 0 } else { ((64 - delta.leading_zeros() - 1) / SLOT_BITS) as usize };
        let slot = ((ev.time >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
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

    /// Reference model: pops must match a (time, tie) min-heap exactly.
    fn drive(pushes: &[(u64, u32)]) {
        let mut wheel = TimingWheel::new();
        let mut heap = EventQueue::new(Scheduler::Heap);
        for &(t, v) in pushes {
            wheel.push(t, v);
            heap.push(t, v);
        }
        loop {
            let a = wheel.pop();
            let b = heap.pop();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
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
        // Deterministic LCG; interleaved pushes and pops with monotone
        // push times (the discrete-event contract).
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut wheel = TimingWheel::new();
        let mut heap = EventQueue::new(Scheduler::Heap);
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
                wheel.push(now + delta, i * 10 + j as u32);
                heap.push(now + delta, i * 10 + j as u32);
                pending += 1;
            }
            if pending > 0 && next() % 3 != 0 {
                let a = wheel.pop();
                let b = heap.pop();
                assert_eq!(a, b, "divergence at step {i}");
                now = a.expect("pending > 0").0;
                pending -= 1;
            }
        }
        loop {
            let a = wheel.pop();
            let b = heap.pop();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn overflow_beyond_horizon_is_refilled() {
        let mut wheel = TimingWheel::new();
        let far = WHEEL_HORIZON * 3 + 17;
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
    fn storage_stops_growing_at_steady_state() {
        let mut wheel = TimingWheel::new();
        for round in 0..1000u64 {
            wheel.push(round, round as u32);
            assert_eq!(wheel.pop(), Some((round, round as u32)));
        }
        let settled = wheel.slab_len();
        for round in 1000..10_000u64 {
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
}
