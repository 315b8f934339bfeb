//! Per-process wake table for the simulation engine.
//!
//! The engine used to rescan a process's whole pending vector after
//! every delivery (`O(P)` per delivery, quadratic per cascade). This
//! table mirrors `pcb-broadcast`'s entry-indexed wake-up engine, but
//! generically over [`pcb_broadcast::Discipline`] wake channels and with
//! message *indices* instead of owned messages: each blocked message
//! parks on one channel with the threshold that channel must reach
//! ([`pcb_broadcast::Discipline::wait_gap`]); a delivery wakes only the
//! waiters whose threshold its advanced channels crossed.
//!
//! Classification (asking the discipline where a message blocks) stays in
//! the engine, which owns the discipline and the message arena; the table
//! only stores the verdicts. Ready messages pop in arrival-ticket order,
//! reproducing the legacy front-to-back rescan's delivery order exactly.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A message waiting in the table: arena index plus arrival time.
pub type PendingMsg = (u32, u64);

/// Work counters, aggregated into the run metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct WakeStats {
    /// Gap classifications performed (arrivals + wake re-checks). The
    /// legacy engine's equivalent was one `is_deliverable` per pending
    /// message per scan restart.
    pub gap_checks: u64,
    /// Waiters popped from channel heaps by deliveries.
    pub wakeups: u64,
}

/// A parked waiter, min-heap-ordered: `(required, ticket, msg, arrived)`.
type Waiter = Reverse<(u64, u64, u32, u64)>;

/// Entry-indexed pending set keyed by discipline wake channels.
#[derive(Debug, Clone)]
pub struct WakeTable {
    /// Per channel: min-heap of waiters by required threshold.
    waiters: Vec<BinaryHeap<Waiter>>,
    /// Min-heap of `(ticket, msg, arrived)` whose guard passed.
    ready: BinaryHeap<Reverse<(u64, u32, u64)>>,
    /// Messages no future delivery can unblock (`Gap::Never`): kept only
    /// for the end-of-run stuck accounting.
    dead: Vec<PendingMsg>,
    next_ticket: u64,
    len: usize,
    stats: WakeStats,
}

impl WakeTable {
    /// An empty table over `channels` wake channels (at least one slot is
    /// kept so disciplines using the default catch-all channel work).
    #[must_use]
    pub fn new(channels: usize) -> Self {
        Self {
            waiters: (0..channels.max(1)).map(|_| BinaryHeap::new()).collect(),
            ready: BinaryHeap::new(),
            dead: Vec::new(),
            next_ticket: 0,
            len: 0,
            stats: WakeStats::default(),
        }
    }

    /// Messages currently held (waiting, ready, or dead).
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table holds nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Work counters.
    #[must_use]
    pub fn stats(&self) -> WakeStats {
        self.stats
    }

    /// Issues the arrival ticket for a new message. Tickets order the
    /// ready heap, so they must be drawn once per arrival, before the
    /// first classification.
    pub fn ticket(&mut self) -> u64 {
        let t = self.next_ticket;
        self.next_ticket += 1;
        t
    }

    /// Records a classification verdict: parks the message on `channel`
    /// until its value reaches `required`.
    pub fn park(&mut self, channel: usize, required: u64, ticket: u64, msg: u32, arrived: u64) {
        self.stats.gap_checks += 1;
        self.waiters[channel].push(Reverse((required, ticket, msg, arrived)));
        self.len += 1;
    }

    /// Records a classification verdict: the message is deliverable.
    pub fn make_ready(&mut self, ticket: u64, msg: u32, arrived: u64) {
        self.stats.gap_checks += 1;
        self.ready.push(Reverse((ticket, msg, arrived)));
        self.len += 1;
    }

    /// Records a classification verdict — deliverable — for a message the
    /// caller will deliver at once instead of queueing. Only sound while
    /// nothing is queued ready (the message would be the next
    /// [`WakeTable::pop_ready`] anyway); otherwise returns `false` and
    /// records nothing, and the caller files the verdict as usual.
    pub fn pass_ready(&mut self) -> bool {
        let pass = self.ready.is_empty();
        // A branch, not `+= u64::from(pass)`: rustc 1.95.0 at opt-level 3
        // drops that add once this inlines (the release-mode pin caught it).
        if pass {
            self.stats.gap_checks += 1;
        }
        pass
    }

    /// Records a classification verdict: the message can never be
    /// delivered (stale stamp). It stays accounted as pending.
    pub fn kill(&mut self, msg: u32, arrived: u64) {
        self.stats.gap_checks += 1;
        self.dead.push((msg, arrived));
        self.len += 1;
    }

    /// Pops the ready message with the smallest arrival ticket — the
    /// message the legacy front-to-back rescan would deliver next.
    ///
    /// `#[inline]`, like [`WakeTable::pop_woken`]: the two are the engine's
    /// drain loop, and without the attribute whether they inline into it
    /// depends on which codegen unit rustc files this module under, which
    /// edits to other crates can move (measured: 14 % of `sim-paper`).
    #[inline]
    pub fn pop_ready(&mut self) -> Option<PendingMsg> {
        let Reverse((_, msg, arrived)) = self.ready.pop()?;
        self.len -= 1;
        Some((msg, arrived))
    }

    /// Pops every waiter on `channel` whose threshold `value` now meets,
    /// appending `(ticket, msg, arrived)` to `woken` for the caller to
    /// re-classify (the channel a waiter parked on is its resume hint).
    #[inline]
    pub fn pop_woken(&mut self, channel: usize, value: u64, woken: &mut Vec<(u64, u32, u64)>) {
        while let Some(&Reverse((required, ticket, msg, arrived))) = self.waiters[channel].peek() {
            if value < required {
                break;
            }
            self.waiters[channel].pop();
            self.len -= 1;
            self.stats.wakeups += 1;
            woken.push((ticket, msg, arrived));
        }
    }

    /// Iterates the held messages without draining (final stuck/liveness
    /// accounting).
    pub fn pending_msgs(&self) -> impl Iterator<Item = PendingMsg> + '_ {
        self.waiters
            .iter()
            .flat_map(|h| h.iter().map(|&Reverse((_, _, m, a))| (m, a)))
            .chain(self.ready.iter().map(|&Reverse((_, m, a))| (m, a)))
            .chain(self.dead.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ready_pops_in_ticket_order() {
        let mut table = WakeTable::new(2);
        let t1 = table.ticket();
        let t2 = table.ticket();
        table.make_ready(t2, 20, 0);
        table.make_ready(t1, 10, 0);
        assert_eq!(table.pop_ready(), Some((10, 0)));
        assert_eq!(table.pop_ready(), Some((20, 0)));
        assert_eq!(table.pop_ready(), None);
    }

    #[test]
    fn pass_ready_only_while_nothing_is_queued_ready() {
        let mut table = WakeTable::new(1);
        assert!(table.pass_ready(), "nothing queued: the arrival is next anyway");
        assert_eq!((table.len(), table.stats().gap_checks), (0, 1));
        let t = table.ticket();
        table.make_ready(t, 10, 0);
        assert!(!table.pass_ready(), "an earlier arrival is queued and must pop first");
        assert_eq!(table.stats().gap_checks, 2, "a refused pass records nothing");
    }

    #[test]
    fn wake_pops_only_crossed_thresholds() {
        let mut table = WakeTable::new(2);
        let t1 = table.ticket();
        let t2 = table.ticket();
        table.park(0, 1, t1, 10, 0);
        table.park(0, 5, t2, 20, 0);
        let mut woken = Vec::new();
        table.pop_woken(0, 1, &mut woken);
        assert_eq!(woken, vec![(t1, 10, 0)]);
        assert_eq!(table.len(), 1, "the threshold-5 waiter stays parked");
        assert_eq!(table.stats().wakeups, 1);
    }

    #[test]
    fn pending_msgs_sees_all_classes() {
        let mut table = WakeTable::new(1);
        let t1 = table.ticket();
        let t2 = table.ticket();
        table.park(0, 3, t1, 1, 0);
        table.make_ready(t2, 2, 0);
        table.kill(3, 0);
        let mut all: Vec<u32> = table.pending_msgs().map(|(m, _)| m).collect();
        all.sort_unstable();
        assert_eq!(all, vec![1, 2, 3]);
        assert_eq!(table.len(), 3);
    }
}
