//! An op-based PN-counter — the contrast case: increments and decrements
//! commute, so this CRDT converges under *any* delivery order and does
//! not need causal broadcast at all. Including it makes the experiments
//! honest: causal ordering is a per-datatype requirement, not a blanket
//! one (paper §1's applications differ in exactly this way).

/// Counter operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterOp {
    /// Add `1..` to the counter.
    Increment(u64),
    /// Subtract `1..` from the counter.
    Decrement(u64),
}

/// A PN-counter replica.
///
/// ```
/// use pcb_crdt::{Counter, CounterOp};
/// let mut a = Counter::new();
/// let op = a.increment(5);
/// let mut b = Counter::new();
/// b.apply(&op);
/// b.apply(&CounterOp::Decrement(2));
/// assert_eq!(b.value(), 3);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter {
    increments: u64,
    decrements: u64,
}

impl Counter {
    /// A zeroed counter.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Local increment; applies immediately and returns the op to
    /// broadcast.
    pub fn increment(&mut self, by: u64) -> CounterOp {
        let op = CounterOp::Increment(by);
        self.apply(&op);
        op
    }

    /// Local decrement; applies immediately and returns the op to
    /// broadcast.
    pub fn decrement(&mut self, by: u64) -> CounterOp {
        let op = CounterOp::Decrement(by);
        self.apply(&op);
        op
    }

    /// Applies a (local or remote) operation.
    pub fn apply(&mut self, op: &CounterOp) {
        match op {
            CounterOp::Increment(by) => self.increments += by,
            CounterOp::Decrement(by) => self.decrements += by,
        }
    }

    /// Current value (may be negative).
    #[must_use]
    pub fn value(&self) -> i128 {
        i128::from(self.increments) - i128::from(self.decrements)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commutes_under_any_order() {
        let ops = [
            CounterOp::Increment(3),
            CounterOp::Decrement(1),
            CounterOp::Increment(4),
            CounterOp::Decrement(2),
        ];
        let mut forward = Counter::new();
        for op in &ops {
            forward.apply(op);
        }
        let mut backward = Counter::new();
        for op in ops.iter().rev() {
            backward.apply(op);
        }
        assert_eq!(forward, backward);
        assert_eq!(forward.value(), 4);
    }

    #[test]
    fn can_go_negative() {
        let mut c = Counter::new();
        c.decrement(10);
        c.increment(3);
        assert_eq!(c.value(), -7);
    }
}
