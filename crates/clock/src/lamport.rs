//! Lamport scalar clocks — the `(N, 1, 1)` extreme of the design space.
//!
//! Provided both as a standalone scalar implementation (for comparison
//! benches and teaching examples) and, equivalently, as the `(R, K) =
//! (1, 1)` instantiation of [`crate::ProbClock`]; the equivalence is
//! checked by tests here.

/// A scalar logical clock (Lamport 1978).
///
/// ```
/// use pcb_clock::LamportClock;
/// let mut a = LamportClock::new();
/// let t1 = a.tick();
/// let mut b = LamportClock::new();
/// b.observe(t1);
/// assert!(b.tick() > t1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LamportClock {
    counter: u64,
}

impl LamportClock {
    /// A clock at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Current value without advancing.
    #[must_use]
    pub fn current(&self) -> u64 {
        self.counter
    }

    /// Advances for a local or send event and returns the new stamp.
    pub fn tick(&mut self) -> u64 {
        self.counter += 1;
        self.counter
    }

    /// Incorporates a received stamp: `C := max(C, received)`; callers
    /// conventionally `tick()` afterwards for the delivery event.
    pub fn observe(&mut self, received: u64) {
        self.counter = self.counter.max(received);
    }

    /// Receive-and-tick convenience: `C := max(C, received) + 1`.
    pub fn observe_and_tick(&mut self, received: u64) -> u64 {
        self.observe(received);
        self.tick()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KeySet, KeySpace, ProbClock};

    #[test]
    fn ticks_are_strictly_increasing() {
        let mut c = LamportClock::new();
        let a = c.tick();
        let b = c.tick();
        assert!(b > a);
        assert_eq!(c.current(), 2);
    }

    #[test]
    fn observe_takes_max() {
        let mut c = LamportClock::new();
        c.tick();
        c.observe(10);
        assert_eq!(c.current(), 10);
        c.observe(3);
        assert_eq!(c.current(), 10);
        assert_eq!(c.observe_and_tick(12), 13);
    }

    #[test]
    fn happened_before_implies_smaller_stamp() {
        // Classic property: e1 -> e2 implies C(e1) < C(e2).
        let mut a = LamportClock::new();
        let send = a.tick();
        let mut b = LamportClock::new();
        for _ in 0..5 {
            b.tick();
        }
        let deliver = b.observe_and_tick(send);
        assert!(send < deliver);
    }

    #[test]
    fn prob_clock_r1_k1_matches_scalar_semantics() {
        // The (1,1) ProbClock blocks message t until t-1 sends have been
        // locally recorded — a scalar "global sequence" discipline, which
        // is what the paper means by the Lamport extreme.
        let space = KeySpace::lamport();
        let key = KeySet::from_set_id(space, 0).unwrap();
        let mut sender = ProbClock::new(space);
        let stamps: Vec<_> = (0..3).map(|_| sender.stamp_send(&key)).collect();

        let mut rx = ProbClock::new(space);
        assert!(rx.is_deliverable(&stamps[0], &key));
        assert!(!rx.is_deliverable(&stamps[1], &key));
        rx.record_delivery(&key);
        assert!(rx.is_deliverable(&stamps[1], &key));
        rx.record_delivery(&key);
        assert!(rx.is_deliverable(&stamps[2], &key));
    }
}
