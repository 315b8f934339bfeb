//! Delivery disciplines: the pluggable ordering rule of a broadcast stack.
//!
//! The simulator and the benchmarks are generic over a [`Discipline`] so
//! the paper's mechanism can be compared, under identical workloads,
//! against the exact vector-clock protocol, FIFO-only ordering, and
//! unordered delivery. Each discipline owns one process's ordering state
//! and decides when a received message may be handed to the application.

use pcb_clock::prob::guard_gap;
use pcb_clock::{Gap, KeySet, ProbClock, ProcessId, StampPool, Timestamp, VectorClock};

use crate::detector::RecentListDetector;

/// Detector verdicts attached to one delivery.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Alerts {
    /// Algorithm 4 alert (instant coverage test).
    pub instant: bool,
    /// Algorithm 5 alert (coverage + recent-list witness).
    pub recent: bool,
}

/// One process's ordering state under a particular protocol.
///
/// Object safety is not required: the simulator monomorphizes over the
/// concrete discipline for speed.
pub trait Discipline {
    /// The control information this protocol attaches to messages.
    type Stamp: Clone + std::fmt::Debug;

    /// Protocol name for reports.
    fn name() -> &'static str;

    /// Stamps an outgoing broadcast (send event).
    fn stamp_send(&mut self) -> Self::Stamp;

    /// [`Discipline::stamp_send`] with stamp storage recycled through
    /// `pool`. Disciplines whose stamps carry no heap allocation (or that
    /// do not pool) keep the default, which ignores the pool.
    fn stamp_send_pooled(&mut self, pool: &mut StampPool) -> Self::Stamp {
        let _ = pool;
        self.stamp_send()
    }

    /// Returns a retired stamp's storage to `pool` once the engine is
    /// done with it (message fully delivered). The default drops it.
    /// Recycling must be sound for *any* stamp of this type: shared or
    /// foreign buffers are silently dropped, never aliased.
    fn recycle_stamp(stamp: Self::Stamp, pool: &mut StampPool) {
        let _ = (stamp, pool);
    }

    /// Whether a message from `sender` (whose key set is `keys`) stamped
    /// `stamp` is ready for delivery.
    fn is_deliverable(&self, sender: ProcessId, keys: &KeySet, stamp: &Self::Stamp) -> bool;

    /// Records the delivery of such a message at local time `now`,
    /// returning any detector alerts the protocol raises (run *before*
    /// its state is advanced, per the paper's Algorithms 4/5).
    fn record_delivery(
        &mut self,
        now: u64,
        sender: ProcessId,
        keys: &KeySet,
        stamp: &Self::Stamp,
    ) -> Alerts;

    /// Control-information wire size in bytes for one message.
    fn stamp_wire_size(stamp: &Self::Stamp) -> usize;

    /// The stamp's values on the sender's own `keys`, in key order — what
    /// a trace needs to replay clock effects exactly. Disciplines whose
    /// stamp is not an entry vector return the empty default.
    fn stamp_key_values(stamp: &Self::Stamp, keys: &KeySet) -> Vec<u64> {
        let _ = (stamp, keys);
        Vec::new()
    }

    // --- Wake channels -------------------------------------------------
    //
    // Entry-indexed engines ask the discipline *what* a blocked message
    // waits for instead of re-running `is_deliverable` over the whole
    // pending queue after every delivery. A discipline exposes
    // `channel_count` monotone counters; a blocked message parks on the
    // first channel whose wait-condition fails until that channel's value
    // reaches the reported threshold. The defaults collapse to a single
    // "anything happened" channel with threshold 0, which wakes every
    // parked message on every delivery — exactly the legacy rescan — so
    // existing implementations stay correct without overriding anything.

    /// Number of wake channels the delivery guard reads.
    fn channel_count(&self) -> usize {
        1
    }

    /// Where `stamp` currently blocks, scanning channels from `start`
    /// (the channel it last parked on; re-checking earlier channels is
    /// unnecessary because channel values only grow). [`Gap::Never`]
    /// marks stamps no future delivery can unblock (e.g. a stale sequence
    /// number).
    fn wait_gap(&self, sender: ProcessId, keys: &KeySet, stamp: &Self::Stamp, start: usize) -> Gap {
        let _ = start;
        if self.is_deliverable(sender, keys, stamp) {
            Gap::Ready
        } else {
            // Threshold 0 on channel 0: woken by every delivery.
            Gap::Blocked { entry: 0, required: 0 }
        }
    }

    /// Current value of a wake channel.
    fn channel_value(&self, channel: usize) -> u64 {
        let _ = channel;
        0
    }

    /// Appends to `out` the channels the delivery of (`sender`, `keys`,
    /// `stamp`) advances. Called *before* [`Discipline::record_delivery`].
    fn advanced_channels(
        &self,
        sender: ProcessId,
        keys: &KeySet,
        stamp: &Self::Stamp,
        out: &mut Vec<usize>,
    ) {
        let _ = (sender, keys, stamp);
        out.push(0);
    }
}

/// The paper's probabilistic `(R, K)` discipline, with the Algorithm 4
/// instant detector built in.
#[derive(Debug, Clone)]
pub struct ProbDiscipline {
    keys: KeySet,
    clock: ProbClock,
}

impl ProbDiscipline {
    /// Creates the discipline for a process holding `keys`.
    #[must_use]
    pub fn new(keys: KeySet) -> Self {
        let clock = ProbClock::new(keys.space());
        Self { keys, clock }
    }

    /// This process's key set.
    #[must_use]
    pub fn keys(&self) -> &KeySet {
        &self.keys
    }

    /// The local clock (for snapshots and diagnostics).
    #[must_use]
    pub fn clock(&self) -> &ProbClock {
        &self.clock
    }
}

impl Discipline for ProbDiscipline {
    type Stamp = Timestamp;

    fn name() -> &'static str {
        "probabilistic"
    }

    fn stamp_send(&mut self) -> Timestamp {
        self.clock.stamp_send(&self.keys)
    }

    fn stamp_send_pooled(&mut self, pool: &mut StampPool) -> Timestamp {
        self.clock.stamp_send_into(&self.keys, pool)
    }

    fn recycle_stamp(stamp: Timestamp, pool: &mut StampPool) {
        pool.recycle(stamp);
    }

    fn is_deliverable(&self, _sender: ProcessId, keys: &KeySet, stamp: &Timestamp) -> bool {
        self.clock.is_deliverable(stamp, keys)
    }

    fn record_delivery(
        &mut self,
        _now: u64,
        _sender: ProcessId,
        keys: &KeySet,
        stamp: &Timestamp,
    ) -> Alerts {
        let instant = self.clock.is_covered(stamp, keys);
        self.clock.record_delivery(keys);
        Alerts { instant, recent: false }
    }

    fn stamp_wire_size(stamp: &Timestamp) -> usize {
        stamp.wire_size()
    }

    fn stamp_key_values(stamp: &Timestamp, keys: &KeySet) -> Vec<u64> {
        keys.iter().map(|entry| stamp[entry]).collect()
    }

    fn channel_count(&self) -> usize {
        self.clock.len()
    }

    fn wait_gap(&self, _sender: ProcessId, keys: &KeySet, stamp: &Timestamp, start: usize) -> Gap {
        self.clock.deliverability_gap_from(stamp, keys, start)
    }

    fn channel_value(&self, channel: usize) -> u64 {
        self.clock.entries()[channel]
    }

    fn advanced_channels(
        &self,
        _sender: ProcessId,
        keys: &KeySet,
        _stamp: &Timestamp,
        out: &mut Vec<usize>,
    ) {
        // Algorithm 2 increments exactly the sender's K entries.
        out.extend(keys.iter());
    }
}

/// [`ProbDiscipline`] plus the Algorithm 5 recent-list detector — used by
/// the detector-precision experiments.
#[derive(Debug, Clone)]
pub struct DetectingProbDiscipline {
    inner: ProbDiscipline,
    detector: RecentListDetector,
}

impl DetectingProbDiscipline {
    /// Creates the discipline with a recent-list window of `window` time
    /// units (use ≈ the propagation delay).
    #[must_use]
    pub fn new(keys: KeySet, window: u64) -> Self {
        Self { inner: ProbDiscipline::new(keys), detector: RecentListDetector::new(window) }
    }

    /// The local clock (for snapshots and diagnostics).
    #[must_use]
    pub fn clock(&self) -> &ProbClock {
        self.inner.clock()
    }
}

impl Discipline for DetectingProbDiscipline {
    type Stamp = Timestamp;

    fn name() -> &'static str {
        "probabilistic+alg5"
    }

    fn stamp_send(&mut self) -> Timestamp {
        self.inner.stamp_send()
    }

    fn stamp_send_pooled(&mut self, pool: &mut StampPool) -> Timestamp {
        self.inner.stamp_send_pooled(pool)
    }

    fn recycle_stamp(stamp: Timestamp, pool: &mut StampPool) {
        pool.recycle(stamp);
    }

    fn is_deliverable(&self, sender: ProcessId, keys: &KeySet, stamp: &Timestamp) -> bool {
        self.inner.is_deliverable(sender, keys, stamp)
    }

    fn record_delivery(
        &mut self,
        now: u64,
        sender: ProcessId,
        keys: &KeySet,
        stamp: &Timestamp,
    ) -> Alerts {
        let recent = self.detector.check(now, self.inner.clock(), stamp, keys);
        let mut alerts = self.inner.record_delivery(now, sender, keys, stamp);
        alerts.recent = recent;
        self.detector.record(now, stamp.clone());
        alerts
    }

    fn stamp_wire_size(stamp: &Timestamp) -> usize {
        stamp.wire_size()
    }

    fn stamp_key_values(stamp: &Timestamp, keys: &KeySet) -> Vec<u64> {
        ProbDiscipline::stamp_key_values(stamp, keys)
    }

    fn channel_count(&self) -> usize {
        self.inner.channel_count()
    }

    fn wait_gap(&self, sender: ProcessId, keys: &KeySet, stamp: &Timestamp, start: usize) -> Gap {
        self.inner.wait_gap(sender, keys, stamp, start)
    }

    fn channel_value(&self, channel: usize) -> u64 {
        self.inner.channel_value(channel)
    }

    fn advanced_channels(
        &self,
        sender: ProcessId,
        keys: &KeySet,
        stamp: &Timestamp,
        out: &mut Vec<usize>,
    ) {
        self.inner.advanced_channels(sender, keys, stamp, out);
    }
}

/// Ablation variant: identical to [`ProbDiscipline`] but records deliveries
/// by component-wise max instead of increment. Demonstrates why the
/// paper's Algorithm 2 increments (merging loses the count of deliveries
/// on shared entries and changes the error profile).
#[derive(Debug, Clone)]
pub struct MergeProbDiscipline {
    keys: KeySet,
    clock: ProbClock,
}

impl MergeProbDiscipline {
    /// Creates the merge-variant discipline.
    #[must_use]
    pub fn new(keys: KeySet) -> Self {
        let clock = ProbClock::new(keys.space());
        Self { keys, clock }
    }

    /// The local clock (for the ablation's assertions).
    #[must_use]
    pub fn clock(&self) -> &ProbClock {
        &self.clock
    }
}

impl Discipline for MergeProbDiscipline {
    type Stamp = Timestamp;

    fn name() -> &'static str {
        "probabilistic-merge"
    }

    fn stamp_send(&mut self) -> Timestamp {
        self.clock.stamp_send(&self.keys)
    }

    fn stamp_send_pooled(&mut self, pool: &mut StampPool) -> Timestamp {
        self.clock.stamp_send_into(&self.keys, pool)
    }

    fn recycle_stamp(stamp: Timestamp, pool: &mut StampPool) {
        pool.recycle(stamp);
    }

    fn is_deliverable(&self, _sender: ProcessId, keys: &KeySet, stamp: &Timestamp) -> bool {
        self.clock.is_deliverable(stamp, keys)
    }

    fn record_delivery(
        &mut self,
        _now: u64,
        _sender: ProcessId,
        keys: &KeySet,
        stamp: &Timestamp,
    ) -> Alerts {
        let instant = self.clock.is_covered(stamp, keys);
        self.clock.merge_max_from(stamp.entries());
        Alerts { instant, recent: false }
    }

    fn stamp_wire_size(stamp: &Timestamp) -> usize {
        stamp.wire_size()
    }

    fn stamp_key_values(stamp: &Timestamp, keys: &KeySet) -> Vec<u64> {
        ProbDiscipline::stamp_key_values(stamp, keys)
    }

    fn channel_count(&self) -> usize {
        self.clock.len()
    }

    fn wait_gap(&self, _sender: ProcessId, keys: &KeySet, stamp: &Timestamp, start: usize) -> Gap {
        self.clock.deliverability_gap_from(stamp, keys, start)
    }

    fn channel_value(&self, channel: usize) -> u64 {
        self.clock.entries()[channel]
    }

    fn advanced_channels(
        &self,
        _sender: ProcessId,
        _keys: &KeySet,
        stamp: &Timestamp,
        out: &mut Vec<usize>,
    ) {
        // Merge-max advances exactly the entries where the stamp exceeds
        // the local vector.
        let local = self.clock.entries();
        out.extend(
            stamp.entries().iter().enumerate().filter(|&(i, &ts)| ts > local[i]).map(|(i, _)| i),
        );
    }
}

/// Exact causal order via classical vector clocks — the `(N, N, 1)`
/// baseline the paper compares against for correctness and overhead.
#[derive(Debug, Clone)]
pub struct VectorDiscipline {
    id: ProcessId,
    clock: VectorClock,
}

impl VectorDiscipline {
    /// Creates the discipline for process `id` in a universe of `n`.
    #[must_use]
    pub fn new(id: ProcessId, n: usize) -> Self {
        Self { id, clock: VectorClock::new(n) }
    }
}

impl Discipline for VectorDiscipline {
    type Stamp = VectorClock;

    fn name() -> &'static str {
        "vector"
    }

    fn stamp_send(&mut self) -> VectorClock {
        self.clock.stamp_send(self.id)
    }

    fn is_deliverable(&self, sender: ProcessId, _keys: &KeySet, stamp: &VectorClock) -> bool {
        self.clock.is_deliverable(stamp, sender)
    }

    fn record_delivery(
        &mut self,
        _now: u64,
        sender: ProcessId,
        _keys: &KeySet,
        stamp: &VectorClock,
    ) -> Alerts {
        self.clock.record_delivery(stamp, sender);
        Alerts::default()
    }

    fn stamp_wire_size(stamp: &VectorClock) -> usize {
        stamp.wire_size()
    }

    fn channel_count(&self) -> usize {
        self.clock.len()
    }

    fn wait_gap(
        &self,
        sender: ProcessId,
        _keys: &KeySet,
        stamp: &VectorClock,
        start: usize,
    ) -> Gap {
        let local = self.clock.counters();
        let ts = stamp.counters();
        let j = sender.index();
        // The guard needs local[j] == ts[j] - 1 exactly: once the local
        // counter passes that, no delivery can ever roll it back.
        if ts[j] == 0 || local[j] >= ts[j] {
            return Gap::Never;
        }
        // From here the wait-condition has Algorithm 2's shape with the
        // sender's slot as the one entry allowed to be one behind.
        guard_gap(local, ts, &[j as u32], start)
    }

    fn channel_value(&self, channel: usize) -> u64 {
        self.clock.counters()[channel]
    }

    fn advanced_channels(
        &self,
        _sender: ProcessId,
        _keys: &KeySet,
        stamp: &VectorClock,
        out: &mut Vec<usize>,
    ) {
        let local = self.clock.counters();
        out.extend(
            stamp.counters().iter().enumerate().filter(|&(i, &ts)| ts > local[i]).map(|(i, _)| i),
        );
    }
}

/// FIFO-only ordering: per-sender sequence numbers, no cross-sender
/// constraints. Cheapest ordered baseline; violates causality across
/// senders.
#[derive(Debug, Clone)]
pub struct FifoDiscipline {
    seq: u64,
    next_expected: Vec<u64>,
}

impl FifoDiscipline {
    /// Creates the discipline for a universe of `n` processes.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self { seq: 0, next_expected: vec![1; n] }
    }
}

impl Discipline for FifoDiscipline {
    type Stamp = u64;

    fn name() -> &'static str {
        "fifo"
    }

    fn stamp_send(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    fn is_deliverable(&self, sender: ProcessId, _keys: &KeySet, stamp: &u64) -> bool {
        *stamp == self.next_expected[sender.index()]
    }

    fn record_delivery(
        &mut self,
        _now: u64,
        sender: ProcessId,
        _keys: &KeySet,
        _stamp: &u64,
    ) -> Alerts {
        self.next_expected[sender.index()] += 1;
        Alerts::default()
    }

    fn stamp_wire_size(_stamp: &u64) -> usize {
        std::mem::size_of::<u64>()
    }

    fn channel_count(&self) -> usize {
        self.next_expected.len()
    }

    fn wait_gap(&self, sender: ProcessId, _keys: &KeySet, stamp: &u64, _start: usize) -> Gap {
        let j = sender.index();
        let next = self.next_expected[j];
        if next == *stamp {
            Gap::Ready
        } else if next < *stamp {
            Gap::Blocked { entry: j, required: *stamp }
        } else {
            Gap::Never
        }
    }

    fn channel_value(&self, channel: usize) -> u64 {
        self.next_expected[channel]
    }

    fn advanced_channels(
        &self,
        sender: ProcessId,
        _keys: &KeySet,
        _stamp: &u64,
        out: &mut Vec<usize>,
    ) {
        out.push(sender.index());
    }
}

/// No ordering at all: every message is delivered on arrival. The floor of
/// the comparison — its violation rate is the raw `P_nc` of the network.
#[derive(Debug, Clone, Default)]
pub struct ImmediateDiscipline;

impl ImmediateDiscipline {
    /// Creates the (stateless) discipline.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

impl Discipline for ImmediateDiscipline {
    type Stamp = ();

    fn name() -> &'static str {
        "immediate"
    }

    fn stamp_send(&mut self) {}

    fn is_deliverable(&self, _sender: ProcessId, _keys: &KeySet, _stamp: &()) -> bool {
        true
    }

    fn record_delivery(
        &mut self,
        _now: u64,
        _sender: ProcessId,
        _keys: &KeySet,
        _stamp: &(),
    ) -> Alerts {
        Alerts::default()
    }

    fn stamp_wire_size(_stamp: &()) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcb_clock::KeySpace;

    fn keys(entries: &[usize]) -> KeySet {
        KeySet::from_entries(KeySpace::new(4, 2).unwrap(), entries).unwrap()
    }

    #[test]
    fn prob_discipline_matches_raw_clock() {
        let mut a = ProbDiscipline::new(keys(&[0, 1]));
        let mut b = ProbDiscipline::new(keys(&[1, 2]));
        let ts = a.stamp_send();
        assert!(b.is_deliverable(ProcessId::new(0), a.keys(), &ts));
        let alerts = b.record_delivery(0, ProcessId::new(0), &keys(&[0, 1]), &ts);
        assert!(!alerts.instant && !alerts.recent);
        assert_eq!(ProbDiscipline::stamp_wire_size(&ts), 32);
        assert_eq!(ProbDiscipline::name(), "probabilistic");
    }

    #[test]
    fn prob_discipline_flags_covered_delivery() {
        // Figure 2: by the time the late m arrives, the receiver's entries
        // are covered by concurrent messages.
        let f_i = keys(&[0, 1]);
        let mut pi = ProbDiscipline::new(f_i.clone());
        let m = pi.stamp_send();

        let mut pk = ProbDiscipline::new(keys(&[2, 3]));
        let p = ProcessId::new(9);
        let mut other1 = ProbDiscipline::new(keys(&[0, 3]));
        let mut other2 = ProbDiscipline::new(keys(&[1, 3]));
        let m1 = other1.stamp_send();
        let m2 = other2.stamp_send();
        pk.record_delivery(0, p, &keys(&[0, 3]), &m1);
        pk.record_delivery(1, p, &keys(&[1, 3]), &m2);
        let alerts = pk.record_delivery(2, p, &f_i, &m);
        assert!(alerts.instant, "covered late message raises Algorithm 4 alert");
    }

    #[test]
    fn detecting_discipline_raises_recent_only_with_witness() {
        let f_i = keys(&[0, 1]);
        let mut pi = ProbDiscipline::new(f_i.clone());
        let m = pi.stamp_send();

        let mut pk = DetectingProbDiscipline::new(keys(&[2, 3]), 1000);
        let p = ProcessId::new(9);
        let f1 = keys(&[0, 3]);
        let f2 = keys(&[1, 3]);
        let mut o1 = ProbDiscipline::new(f1.clone());
        let mut o2 = ProbDiscipline::new(f2.clone());
        let m1 = o1.stamp_send();
        let m2 = o2.stamp_send();
        pk.record_delivery(0, p, &f1, &m1);
        pk.record_delivery(1, p, &f2, &m2);
        let alerts = pk.record_delivery(2, p, &f_i, &m);
        assert!(alerts.instant);
        // Neither m1 nor m2 alone dominates m on entries {0,1}.
        assert!(!alerts.recent, "Algorithm 5 needs a single dominating witness");
        assert_eq!(DetectingProbDiscipline::name(), "probabilistic+alg5");
    }

    #[test]
    fn merge_variant_diverges_from_increment() {
        // Two senders share entry 1; deliver both under each variant.
        let f_a = keys(&[0, 1]);
        let f_b = keys(&[1, 2]);
        let mut sender_a = ProbDiscipline::new(f_a.clone());
        let mut sender_b = ProbDiscipline::new(f_b.clone());
        let ts_a = sender_a.stamp_send();
        let ts_b = sender_b.stamp_send();

        let p = ProcessId::new(0);
        let mut inc = ProbDiscipline::new(keys(&[2, 3]));
        inc.record_delivery(0, p, &f_a, &ts_a);
        inc.record_delivery(1, p, &f_b, &ts_b);
        // Increment counts both deliveries on shared entry 1.
        assert_eq!(inc.clock().entries(), &[1, 2, 1, 0]);

        let mut mrg = MergeProbDiscipline::new(keys(&[2, 3]));
        mrg.record_delivery(0, p, &f_a, &ts_a);
        mrg.record_delivery(1, p, &f_b, &ts_b);
        // Merge collapses them: entry 1 stays at 1, losing one delivery.
        assert_eq!(mrg.clock().entries(), &[1, 1, 1, 0]);
        assert_eq!(MergeProbDiscipline::name(), "probabilistic-merge");
    }

    #[test]
    fn vector_discipline_exact() {
        let mut a = VectorDiscipline::new(ProcessId::new(0), 3);
        let mut b = VectorDiscipline::new(ProcessId::new(1), 3);
        let c = VectorDiscipline::new(ProcessId::new(2), 3);
        let dummy = keys(&[0, 1]);

        let m = a.stamp_send();
        b.record_delivery(0, ProcessId::new(0), &dummy, &m);
        let m_prime = b.stamp_send();
        assert!(!c.is_deliverable(ProcessId::new(1), &dummy, &m_prime));
        assert!(c.is_deliverable(ProcessId::new(0), &dummy, &m));
        assert_eq!(VectorDiscipline::stamp_wire_size(&m), 24);
    }

    #[test]
    fn fifo_discipline_orders_per_sender_only() {
        let mut s = FifoDiscipline::new(2);
        let dummy = keys(&[0, 1]);
        let m1 = s.stamp_send();
        let m2 = s.stamp_send();
        let mut rx = FifoDiscipline::new(2);
        let p0 = ProcessId::new(0);
        assert!(!rx.is_deliverable(p0, &dummy, &m2));
        assert!(rx.is_deliverable(p0, &dummy, &m1));
        rx.record_delivery(0, p0, &dummy, &m1);
        assert!(rx.is_deliverable(p0, &dummy, &m2));
        assert_eq!(FifoDiscipline::stamp_wire_size(&m1), 8);
    }

    #[test]
    fn prob_wake_channels_mirror_the_gap() {
        let mut a = ProbDiscipline::new(keys(&[0, 1]));
        let rx = ProbDiscipline::new(keys(&[2, 3]));
        let p = ProcessId::new(0);
        let f_a = keys(&[0, 1]);
        let _ = a.stamp_send();
        let ts2 = a.stamp_send();

        assert_eq!(rx.channel_count(), 4);
        // Second send blocks on the first unmet entry (0), needing one
        // prior delivery there.
        match rx.wait_gap(p, &f_a, &ts2, 0) {
            Gap::Blocked { entry, required } => {
                assert_eq!(entry, 0);
                assert_eq!(required, 1);
            }
            other => panic!("expected Blocked, got {other:?}"),
        }
        let mut advanced = Vec::new();
        rx.advanced_channels(p, &f_a, &ts2, &mut advanced);
        assert_eq!(advanced, vec![0, 1], "delivery advances the sender's keys");
        assert_eq!(rx.channel_value(0), 0);
    }

    #[test]
    fn vector_wake_gap_flags_stale_stamps_never() {
        let mut s = VectorDiscipline::new(ProcessId::new(0), 3);
        let mut rx = VectorDiscipline::new(ProcessId::new(1), 3);
        let dummy = keys(&[0, 1]);
        let p0 = ProcessId::new(0);
        let m1 = s.stamp_send();
        let m2 = s.stamp_send();

        match rx.wait_gap(p0, &dummy, &m2, 0) {
            Gap::Blocked { entry, required } => {
                assert_eq!(entry, 0);
                assert_eq!(required, 1, "needs m1 delivered first");
            }
            other => panic!("expected Blocked, got {other:?}"),
        }
        rx.record_delivery(0, p0, &dummy, &m1);
        assert_eq!(rx.wait_gap(p0, &dummy, &m2, 0), Gap::Ready);
        rx.record_delivery(1, p0, &dummy, &m2);
        // A duplicate of m1 can never be delivered again.
        assert_eq!(rx.wait_gap(p0, &dummy, &m1, 0), Gap::Never);
    }

    #[test]
    fn fifo_wake_gap_tracks_next_expected() {
        let mut s = FifoDiscipline::new(2);
        let mut rx = FifoDiscipline::new(2);
        let dummy = keys(&[0, 1]);
        let p0 = ProcessId::new(0);
        let m1 = s.stamp_send();
        let m2 = s.stamp_send();
        assert_eq!(rx.wait_gap(p0, &dummy, &m2, 0), Gap::Blocked { entry: 0, required: 2 });
        rx.record_delivery(0, p0, &dummy, &m1);
        assert_eq!(rx.channel_value(0), 2);
        assert_eq!(rx.wait_gap(p0, &dummy, &m2, 0), Gap::Ready);
        assert_eq!(rx.wait_gap(p0, &dummy, &m1, 0), Gap::Never, "stale seq");
        let mut advanced = Vec::new();
        rx.advanced_channels(p0, &dummy, &m1, &mut advanced);
        assert_eq!(advanced, vec![0]);
    }

    #[test]
    fn default_wake_channels_reproduce_the_rescan_contract() {
        // ImmediateDiscipline keeps the trait defaults: one catch-all
        // channel at threshold 0, woken by every delivery.
        let rx = ImmediateDiscipline::new();
        assert_eq!(rx.channel_count(), 1);
        assert_eq!(rx.wait_gap(ProcessId::new(0), &keys(&[0, 1]), &(), 0), Gap::Ready);
        let mut advanced = Vec::new();
        rx.advanced_channels(ProcessId::new(0), &keys(&[0, 1]), &(), &mut advanced);
        assert_eq!(advanced, vec![0]);
    }

    #[test]
    fn immediate_always_ready() {
        let mut s = ImmediateDiscipline::new();
        s.stamp_send(); // the stamp is `()`
        let mut rx = ImmediateDiscipline::new();
        assert!(rx.is_deliverable(ProcessId::new(0), &keys(&[0, 1]), &()));
        assert_eq!(
            rx.record_delivery(0, ProcessId::new(0), &keys(&[0, 1]), &()),
            Alerts::default()
        );
        assert_eq!(ImmediateDiscipline::stamp_wire_size(&()), 0);
    }
}
