//! Per-node trace sinks: a fixed-capacity ring behind a nullable handle.
//!
//! Cost model, from cheapest to dearest:
//!
//! * **feature `trace` off** — [`Tracer::emit`] has an empty body; the
//!   event-constructing closure is never called, so instrumentation
//!   compiles to nothing (the compile-time no-op guarantee).
//! * **runtime-disabled** (`Tracer::disabled()` or capacity 0) — one
//!   `Option` null-check per emit; the closure is still never called, so
//!   no event is built and nothing allocates.
//! * **enabled** — the closure builds the event and the ring stores it;
//!   on overflow the *oldest* record is dropped and a counter ticks, so
//!   a bounded ring under sustained traffic keeps the most recent window.

use std::collections::VecDeque;

use crate::event::{TraceEvent, TraceRecord};

/// The live sink state (only exists for enabled tracers).
#[derive(Debug, Clone)]
struct Ring {
    node: u32,
    capacity: usize,
    buf: VecDeque<TraceRecord>,
    dropped: u64,
    now: u64,
}

impl Ring {
    fn push(&mut self, event: TraceEvent) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(TraceRecord { time: self.now, node: self.node, event });
    }
}

/// A node's handle on its trace ring; `None` inside means disabled.
///
/// The tracer carries its own notion of "now" ([`Tracer::advance`]) so
/// call sites without a clock in scope (e.g. `broadcast` in the protocol
/// core) still stamp events with the last observed time.
#[derive(Debug, Clone, Default)]
pub struct Tracer(Option<Box<Ring>>);

impl Tracer {
    /// A sink that records nothing.
    #[must_use]
    pub fn disabled() -> Self {
        Tracer(None)
    }

    /// A ring sink for `node` holding at most `capacity` records
    /// (capacity 0 means disabled).
    #[must_use]
    pub fn ring(node: u32, capacity: usize) -> Self {
        if capacity == 0 {
            return Tracer(None);
        }
        Tracer(Some(Box::new(Ring {
            node,
            capacity,
            buf: VecDeque::with_capacity(capacity.min(1024)),
            dropped: 0,
            now: 0,
        })))
    }

    /// Whether events are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Records currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.as_ref().map_or(0, |r| r.buf.len())
    }

    /// Whether nothing is held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records evicted by ring overflow since the last [`Tracer::drain`].
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.0.as_ref().map_or(0, |r| r.dropped)
    }

    /// Advances the tracer's clock (monotone: stale times are ignored).
    pub fn advance(&mut self, now: u64) {
        if let Some(ring) = self.0.as_deref_mut() {
            ring.now = ring.now.max(now);
        }
    }

    /// Emits an event at the tracer's current time. The closure only runs
    /// when the sink is enabled, so building the event costs nothing on
    /// the disabled path.
    #[inline]
    pub fn emit(&mut self, f: impl FnOnce() -> TraceEvent) {
        // `cfg!`, not `#[cfg]`: without the feature the branch is still
        // compiled (so the ring's fields and `push` count as used) and
        // then removed as dead code.
        if cfg!(feature = "trace") {
            if let Some(ring) = self.0.as_deref_mut() {
                ring.push(f());
            }
        }
    }

    /// [`Tracer::advance`] then [`Tracer::emit`] in one call.
    #[inline]
    pub fn emit_at(&mut self, now: u64, f: impl FnOnce() -> TraceEvent) {
        self.advance(now);
        self.emit(f);
    }

    /// Removes and returns everything held, oldest first, resetting the
    /// overflow counter. The tracer stays enabled.
    pub fn drain(&mut self) -> Vec<TraceRecord> {
        match self.0.as_deref_mut() {
            Some(ring) => {
                ring.dropped = 0;
                ring.buf.drain(..).collect()
            }
            None => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(feature = "trace")]
    fn received(sender: u32, seq: u64) -> TraceEvent {
        TraceEvent::Received { sender, seq }
    }

    #[test]
    fn disabled_never_builds_events() {
        let mut t = Tracer::disabled();
        t.advance(5);
        t.emit(|| panic!("closure must not run on the disabled path"));
        assert!(!t.enabled());
        assert!(t.drain().is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn zero_capacity_is_disabled() {
        assert!(!Tracer::ring(3, 0).enabled());
    }

    #[cfg(feature = "trace")]
    #[test]
    fn records_carry_node_and_time() {
        let mut t = Tracer::ring(7, 8);
        t.emit_at(100, || received(1, 1));
        t.advance(50); // stale: clock must not go backwards
        t.emit(|| received(1, 2));
        let out = t.drain();
        assert_eq!(out.len(), 2);
        assert_eq!((out[0].time, out[0].node), (100, 7));
        assert_eq!(out[1].time, 100);
        assert!(t.is_empty(), "drain empties the ring");
    }

    #[cfg(feature = "trace")]
    #[test]
    fn overflow_drops_oldest_and_counts() {
        let mut t = Tracer::ring(0, 2);
        for seq in 1..=5 {
            t.emit_at(seq, || received(9, seq));
        }
        assert_eq!(t.dropped(), 3);
        let out = t.drain();
        let seqs: Vec<u64> = out
            .iter()
            .map(|r| match r.event {
                TraceEvent::Received { seq, .. } => seq,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(seqs, vec![4, 5], "most recent window survives");
        assert_eq!(t.dropped(), 0, "drain resets the overflow counter");
    }
}
