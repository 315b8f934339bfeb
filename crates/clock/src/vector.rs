//! Classical per-process vector clocks (Fidge/Mattern), used by the exact
//! causal-broadcast baseline and by the simulator's ground-truth oracle.
//!
//! Entry `j` of the vector managed by `p_i` counts the number of messages
//! broadcast by `p_j`, to the knowledge of `p_i` (paper §2). This is the
//! `(N, N, 1)` point of the paper's design space and the proven-minimal
//! structure for exact causal delivery.

use std::cmp::Ordering;
use std::fmt;

use crate::ProcessId;

/// Outcome of comparing two vector timestamps under Lamport's
/// happened-before relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CausalRelation {
    /// Identical vectors.
    Equal,
    /// Left happened before right.
    Before,
    /// Right happened before left.
    After,
    /// Neither dominates: concurrent events.
    Concurrent,
}

impl fmt::Display for CausalRelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Self::Equal => "equal",
            Self::Before => "before",
            Self::After => "after",
            Self::Concurrent => "concurrent",
        };
        f.write_str(s)
    }
}

/// A classical vector clock over a fixed universe of `N` processes.
///
/// ```
/// use pcb_clock::{CausalRelation, ProcessId, VectorClock};
/// let mut a = VectorClock::new(3);
/// let ts1 = a.stamp_send(ProcessId::new(0));
/// let mut b = VectorClock::new(3);
/// assert!(b.is_deliverable(&ts1, ProcessId::new(0)));
/// b.record_delivery(&ts1, ProcessId::new(0));
/// let ts2 = b.stamp_send(ProcessId::new(1));
/// assert_eq!(ts1.compare(&ts2), CausalRelation::Before);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct VectorClock {
    counters: Vec<u64>,
}

impl VectorClock {
    /// A zeroed clock for `n` processes.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self { counters: vec![0; n] }
    }

    /// Wraps raw counters.
    #[must_use]
    pub fn from_counters(counters: Vec<u64>) -> Self {
        Self { counters }
    }

    /// Number of processes tracked, `N`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// Whether the universe is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    /// Raw counters, indexed by process.
    #[must_use]
    pub fn counters(&self) -> &[u64] {
        &self.counters
    }

    /// This process's own send count within the stamp.
    #[must_use]
    pub fn get(&self, pid: ProcessId) -> u64 {
        self.counters[pid.index()]
    }

    /// Broadcast-send: increments the sender's own entry and returns the
    /// timestamp to attach (Schiper-style broadcast vector clock, where the
    /// entry counts *messages*, not all events).
    ///
    /// # Panics
    ///
    /// Panics if `sender` is outside the universe.
    pub fn stamp_send(&mut self, sender: ProcessId) -> VectorClock {
        self.counters[sender.index()] += 1;
        self.clone()
    }

    /// Exact causal-delivery guard: `ts[j] == V[j] + 1` for the sender and
    /// `ts[k] <= V[k]` for every other process.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    #[must_use]
    pub fn is_deliverable(&self, ts: &VectorClock, sender: ProcessId) -> bool {
        assert_eq!(self.len(), ts.len(), "vector clock length mismatch");
        let j = sender.index();
        if ts.counters[j] != self.counters[j] + 1 {
            return false;
        }
        self.counters
            .iter()
            .zip(&ts.counters)
            .enumerate()
            .all(|(idx, (mine, theirs))| idx == j || theirs <= mine)
    }

    /// Records a delivery: merges the message stamp into the local view.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn record_delivery(&mut self, ts: &VectorClock, sender: ProcessId) {
        assert_eq!(self.len(), ts.len(), "vector clock length mismatch");
        let _ = sender;
        for (mine, theirs) in self.counters.iter_mut().zip(&ts.counters) {
            *mine = (*mine).max(*theirs);
        }
    }

    /// Component-wise maximum, in place.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn merge_max(&mut self, other: &VectorClock) {
        assert_eq!(self.len(), other.len(), "vector clock length mismatch");
        for (mine, theirs) in self.counters.iter_mut().zip(&other.counters) {
            *mine = (*mine).max(*theirs);
        }
    }

    /// Compares two stamps under happened-before.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    #[must_use]
    pub fn compare(&self, other: &VectorClock) -> CausalRelation {
        assert_eq!(self.len(), other.len(), "vector clock length mismatch");
        let mut less = false;
        let mut greater = false;
        for (a, b) in self.counters.iter().zip(&other.counters) {
            match a.cmp(b) {
                Ordering::Less => less = true,
                Ordering::Greater => greater = true,
                Ordering::Equal => {}
            }
        }
        match (less, greater) {
            (false, false) => CausalRelation::Equal,
            (true, false) => CausalRelation::Before,
            (false, true) => CausalRelation::After,
            (true, true) => CausalRelation::Concurrent,
        }
    }

    /// Whether `self` dominates `other` component-wise (`self >= other`).
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    #[must_use]
    pub fn dominates(&self, other: &VectorClock) -> bool {
        matches!(self.compare(other), CausalRelation::Equal | CausalRelation::After)
    }

    /// Wire size in bytes of this stamp — the `O(N)` overhead the paper's
    /// mechanism avoids.
    #[must_use]
    pub fn wire_size(&self) -> usize {
        self.counters.len() * std::mem::size_of::<u64>()
    }
}

impl fmt::Display for VectorClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<")?;
        for (i, c) in self.counters.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ">")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P0: ProcessId = ProcessId::new(0);
    const P1: ProcessId = ProcessId::new(1);
    const P2: ProcessId = ProcessId::new(2);

    #[test]
    fn send_increments_own_entry() {
        let mut vc = VectorClock::new(3);
        let ts = vc.stamp_send(P1);
        assert_eq!(ts.counters(), &[0, 1, 0]);
        assert_eq!(vc.get(P1), 1);
    }

    #[test]
    fn fifo_gap_blocks_delivery() {
        let mut sender = VectorClock::new(2);
        let m1 = sender.stamp_send(P0);
        let m2 = sender.stamp_send(P0);
        let mut rx = VectorClock::new(2);
        assert!(!rx.is_deliverable(&m2, P0));
        assert!(rx.is_deliverable(&m1, P0));
        rx.record_delivery(&m1, P0);
        assert!(rx.is_deliverable(&m2, P0));
        rx.record_delivery(&m2, P0);
        assert_eq!(rx.counters(), &[2, 0]);
    }

    #[test]
    fn causal_dependency_blocks_delivery() {
        let mut a = VectorClock::new(3);
        let m = a.stamp_send(P0);
        let mut b = VectorClock::new(3);
        b.record_delivery(&m, P0);
        let m_prime = b.stamp_send(P1);

        let mut c = VectorClock::new(3);
        assert!(!c.is_deliverable(&m_prime, P1), "m' depends on undelivered m");
        c.record_delivery(&m, P0);
        assert!(c.is_deliverable(&m_prime, P1));
    }

    #[test]
    fn duplicate_and_stale_rejected() {
        let mut sender = VectorClock::new(2);
        let m1 = sender.stamp_send(P0);
        let mut rx = VectorClock::new(2);
        rx.record_delivery(&m1, P0);
        assert!(!rx.is_deliverable(&m1, P0), "already-delivered message is stale");
    }

    #[test]
    fn compare_relations() {
        let a = VectorClock::from_counters(vec![1, 0]);
        let b = VectorClock::from_counters(vec![1, 1]);
        let c = VectorClock::from_counters(vec![0, 1]);
        assert_eq!(a.compare(&b), CausalRelation::Before);
        assert_eq!(b.compare(&a), CausalRelation::After);
        assert_eq!(a.compare(&c), CausalRelation::Concurrent);
        assert_eq!(a.compare(&a), CausalRelation::Equal);
        assert!(b.dominates(&a));
        assert!(!a.dominates(&b));
    }

    #[test]
    fn merge_max_is_lub() {
        let mut a = VectorClock::from_counters(vec![3, 0, 1]);
        let b = VectorClock::from_counters(vec![1, 2, 1]);
        a.merge_max(&b);
        assert_eq!(a.counters(), &[3, 2, 1]);
        assert!(a.dominates(&b));
    }

    #[test]
    fn three_process_diamond() {
        // p0 sends m; p1 and p2 both deliver then send; their messages are
        // concurrent with each other but after m.
        let mut p0 = VectorClock::new(3);
        let m = p0.stamp_send(P0);
        let mut p1 = VectorClock::new(3);
        let mut p2 = VectorClock::new(3);
        p1.record_delivery(&m, P0);
        p2.record_delivery(&m, P0);
        let m1 = p1.stamp_send(P1);
        let m2 = p2.stamp_send(P2);
        assert_eq!(m.compare(&m1), CausalRelation::Before);
        assert_eq!(m.compare(&m2), CausalRelation::Before);
        assert_eq!(m1.compare(&m2), CausalRelation::Concurrent);
    }

    #[test]
    fn display_formats() {
        let vc = VectorClock::from_counters(vec![1, 2]);
        assert_eq!(vc.to_string(), "<1,2>");
        assert_eq!(CausalRelation::Concurrent.to_string(), "concurrent");
    }

    #[test]
    fn wire_size_linear_in_n() {
        assert_eq!(VectorClock::new(1000).wire_size(), 8000);
    }
}
