//! The probabilistic causal broadcast endpoint (paper §4.1).
//!
//! A [`PcbProcess`] owns one process's protocol state: its key set
//! `f(p_i)`, the `R`-entry clock, an entry-indexed pending set of
//! received-but-not-yet-deliverable messages ([`crate::pending`]),
//! bounded duplicate suppression ([`crate::dedup`]), and the two
//! delivery-error detectors. Transports (the simulator, the daemon's UDP
//! links, or a caller routing by hand) move [`Message`]s between
//! endpoints.

use std::rc::Rc;

use pcb_clock::{KeySet, ProbClock, ProcessId};
use pcb_telemetry::{CausalHealth, TraceEvent, TraceRecord, Tracer};

use crate::dedup::{DedupFilter, SeenWindows};
use crate::detector::{instant_alert, RecentListDetector};
use crate::message::{Message, MessageId};
use crate::pending::{Admission, InsertVerdict, WakeupIndex, WakeupStats};

/// Tuning knobs for a [`PcbProcess`]. Algorithm 4 and duplicate
/// suppression are not among them: every delivery is checked and every
/// message id is delivered at most once.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PcbConfig {
    /// Run Algorithm 5 with the given recent-list window (time units of
    /// the caller's `now`); `None` disables it.
    pub recent_window: Option<u64>,
    /// Ring-buffer capacity for lifecycle trace events; `0` (the default)
    /// disables tracing entirely — the emit path is a no-op closure that
    /// never builds an event.
    pub trace_capacity: usize,
    /// Maintain the online causal-health estimators (`X̂`, entry-collision
    /// heatmap) on every delivery. Observation-only: enabling them cannot
    /// change delivery order or any protocol output. Off by default; the
    /// disabled path is a single `Option` branch.
    pub estimators: bool,
}

/// One message handed to the application, together with detector verdicts.
#[derive(Debug, Clone)]
pub struct Delivery<P> {
    /// The delivered message.
    pub message: Message<P>,
    /// Algorithm 4 alert: the delivery *may* be (or enable) a causal-order
    /// violation. `false` guarantees correctness.
    pub instant_alert: bool,
    /// Algorithm 5 alert (only meaningful when a recent window is set).
    pub recent_alert: bool,
    /// How long the message sat in the pending queue before delivery, in
    /// the caller's `now` units (0 when deliverable on arrival).
    pub blocked_for: u64,
}

/// Counters describing an endpoint's lifetime behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcessStats {
    /// Messages broadcast by this endpoint.
    pub sent: u64,
    /// Messages delivered to the application.
    pub delivered: u64,
    /// Duplicates dropped by the dedup filter.
    pub duplicates: u64,
    /// Algorithm 4 alerts raised.
    pub instant_alerts: u64,
    /// Algorithm 5 alerts raised.
    pub recent_alerts: u64,
    /// High-water mark of the pending queue.
    pub max_pending: usize,
}

impl ProcessStats {
    /// The counts accumulated since `base` was read — what makes a
    /// report incarnation-scoped. `max_pending` stays the lifetime
    /// high-water mark.
    #[must_use]
    pub fn since(&self, base: &ProcessStats) -> ProcessStats {
        ProcessStats {
            sent: self.sent.saturating_sub(base.sent),
            delivered: self.delivered.saturating_sub(base.delivered),
            duplicates: self.duplicates.saturating_sub(base.duplicates),
            instant_alerts: self.instant_alerts.saturating_sub(base.instant_alerts),
            recent_alerts: self.recent_alerts.saturating_sub(base.recent_alerts),
            max_pending: self.max_pending,
        }
    }
}

/// A probabilistic causal broadcast endpoint.
///
/// ```
/// use pcb_broadcast::{PcbProcess, PcbConfig};
/// use pcb_clock::{KeySet, KeySpace, ProcessId};
///
/// let space = KeySpace::new(4, 2)?;
/// let mut alice = PcbProcess::new(
///     ProcessId::new(0),
///     KeySet::from_entries(space, &[0, 1])?,
/// );
/// let mut bob = PcbProcess::new(
///     ProcessId::new(1),
///     KeySet::from_entries(space, &[1, 2])?,
/// );
///
/// let m = alice.broadcast("hi");
/// let delivered = bob.on_receive(m, 0);
/// assert_eq!(delivered.len(), 1);
/// assert_eq!(*delivered[0].message.payload(), "hi");
/// # Ok::<(), pcb_clock::KeyError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PcbProcess<P> {
    id: ProcessId,
    keys: Rc<KeySet>,
    clock: ProbClock,
    seq: u64,
    pending: WakeupIndex<P>,
    seen: DedupFilter,
    recent: Option<RecentListDetector>,
    config: PcbConfig,
    stats: ProcessStats,
    tracer: Tracer,
    health: Option<Box<CausalHealth>>,
}

impl<P> PcbProcess<P> {
    /// Creates an endpoint with the default configuration.
    #[must_use]
    pub fn new(id: ProcessId, keys: KeySet) -> Self {
        Self::with_config(id, keys, PcbConfig::default())
    }

    /// Creates an endpoint with explicit configuration.
    #[must_use]
    pub fn with_config(id: ProcessId, keys: KeySet, config: PcbConfig) -> Self {
        let clock = ProbClock::new(keys.space());
        let recent = config.recent_window.map(RecentListDetector::new);
        let pending = WakeupIndex::new(clock.len());
        let tracer = Tracer::ring(id.index_u32(), config.trace_capacity);
        let health = config
            .estimators
            .then(|| Box::new(CausalHealth::new(clock.len() as u32, keys.entries().len() as u32)));
        Self {
            id,
            keys: Rc::new(keys),
            clock,
            seq: 0,
            pending,
            seen: DedupFilter::new(),
            recent,
            config,
            stats: ProcessStats::default(),
            tracer,
            health,
        }
    }

    /// This endpoint's process id.
    #[must_use]
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// This endpoint's key set `f(p_i)`.
    #[must_use]
    pub fn keys(&self) -> &KeySet {
        &self.keys
    }

    /// Read-only view of the local clock.
    #[must_use]
    pub fn clock(&self) -> &ProbClock {
        &self.clock
    }

    /// Number of received messages still waiting for their causal past.
    #[must_use]
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Age (in the caller's time units) of the oldest pending message, if
    /// any. A pending message older than a few propagation delays signals
    /// a lost dependency — time to run anti-entropy
    /// ([`crate::recovery`]).
    #[must_use]
    pub fn oldest_pending_age(&self, now: u64) -> Option<u64> {
        self.pending.oldest_age(now)
    }

    /// Every message this endpoint has seen (delivered, pending, or own
    /// broadcasts) as dedup windows — what a
    /// [`crate::recovery::SyncRequest`] carries.
    #[must_use]
    pub fn seen_windows(&self) -> SeenWindows {
        self.seen.export_windows()
    }

    /// Lifetime counters.
    #[must_use]
    pub fn stats(&self) -> ProcessStats {
        self.stats
    }

    /// The online causal-health estimators, when enabled
    /// ([`PcbConfig::estimators`]).
    #[must_use]
    pub fn health(&self) -> Option<&CausalHealth> {
        self.health.as_deref()
    }

    /// Enables or disables the causal-health estimators in place.
    ///
    /// Estimator state is observability, not protocol state: it is never
    /// snapshotted, and the wire codec deliberately decodes
    /// `estimators: false` — hosts re-apply their local knob after
    /// [`PcbProcess::restore`]. Enabling starts from an empty window.
    pub fn set_estimators(&mut self, on: bool) {
        self.config.estimators = on;
        if on {
            if self.health.is_none() {
                self.health = Some(Box::new(CausalHealth::new(
                    self.clock.len() as u32,
                    self.keys.entries().len() as u32,
                )));
            }
        } else {
            self.health = None;
        }
    }

    /// Work counters of the wake-up index: gap checks, wake fan-out,
    /// pending high-water mark.
    #[must_use]
    pub fn wakeup_stats(&self) -> WakeupStats {
        self.pending.stats()
    }

    /// Advances the tracer's notion of "now" without any protocol action.
    /// Call it when the endpoint's host learns the time outside a
    /// `broadcast`/`on_receive` (e.g. before emitting host-level events
    /// through [`PcbProcess::tracer_mut`]).
    pub fn set_now(&mut self, now: u64) {
        self.tracer.advance(now);
    }

    /// Mutable access to the lifecycle tracer, for hosts that emit their
    /// own events (snapshots, recoveries, re-fetches) into the same ring.
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// Swaps this endpoint's tracer for `tracer`, returning the old one.
    /// [`PcbProcess::restore`] starts with a fresh ring; the recovery
    /// driver moves the pre-crash ring across so a restore does not erase
    /// the node's history (the trace replayer relies on `Sent` records
    /// surviving crashes).
    pub(crate) fn replace_tracer(&mut self, tracer: Tracer) -> Tracer {
        std::mem::replace(&mut self.tracer, tracer)
    }

    /// Drains all buffered trace records, oldest first.
    pub fn drain_trace(&mut self) -> Vec<TraceRecord> {
        self.tracer.drain()
    }

    /// **Algorithm 1.** Stamps and returns a broadcast message carrying
    /// `payload`. Hand the result to the transport; the local application
    /// is considered to have "delivered" its own message implicitly.
    pub fn broadcast(&mut self, payload: P) -> Message<P> {
        self.broadcast_pooled(payload, &mut pcb_clock::StampPool::new())
    }

    /// [`PcbProcess::broadcast`] with the outgoing stamp's storage drawn
    /// from `pool` — bit-identical behaviour, but a warm pool (fed by
    /// retired stamps, e.g. message-store eviction) makes the send path
    /// allocation-free at steady state.
    pub fn broadcast_pooled(&mut self, payload: P, pool: &mut pcb_clock::StampPool) -> Message<P> {
        self.seq += 1;
        self.stats.sent += 1;
        let ts = self.clock.stamp_send_into(&self.keys, pool);
        let id = MessageId::new(self.id, self.seq);
        self.seen.insert(id);
        let (sender, seq, keys) = (self.id, self.seq, &self.keys);
        self.tracer.emit(|| TraceEvent::Sent {
            sender: sender.index_u32(),
            seq,
            keys: keys.entries().to_vec(),
            key_vals: keys.iter().map(|entry| ts[entry]).collect(),
        });
        Message::new(id, Rc::clone(&self.keys), ts, payload)
    }

    /// **Algorithm 2.** Handles a message arriving from the transport at
    /// local time `now` (any monotone unit; used only by the Algorithm 5
    /// window). Returns every message that became deliverable, in delivery
    /// order — the new message may unblock older pending ones and vice
    /// versa, so zero, one, or many deliveries can result.
    pub fn on_receive(&mut self, message: Message<P>, now: u64) -> Vec<Delivery<P>> {
        let mut out = Vec::new();
        self.on_receive_into(message, now, &mut out, |_| false);
        out.into_iter().map(|(delivery, _)| delivery).collect()
    }

    /// [`PcbProcess::on_receive`] appending the deliveries to a
    /// caller-owned buffer (reused across arrivals, so the receive path
    /// allocates nothing of its own). `on_accepted` sees an arrival that
    /// passed duplicate suppression and says whether the caller kept a
    /// copy; each delivery comes out with that flag.
    pub(crate) fn on_receive_into(
        &mut self,
        message: Message<P>,
        now: u64,
        out: &mut Vec<(Delivery<P>, bool)>,
        on_accepted: impl FnOnce(&Message<P>) -> bool,
    ) {
        self.tracer.advance(now);
        if !self.seen.insert(message.id()) {
            self.stats.duplicates += 1;
            return;
        }
        let (sender, seq) = (message.id().sender().index_u32(), message.id().seq());
        self.tracer.emit(|| TraceEvent::Received { sender, seq });
        let retained = on_accepted(&message);
        // Pending for this instant, even when it delivers where it lands.
        self.stats.max_pending = self.stats.max_pending.max(self.pending.len() + 1);
        match self.pending.admit(now, message, retained, &self.clock) {
            Admission::Deliver(message) => out.push((self.deliver(message, now, 0), retained)),
            Admission::Indexed(InsertVerdict::Parked { entry, required }) => {
                self.tracer.emit(|| TraceEvent::Parked {
                    sender,
                    seq,
                    entry: entry as u32,
                    threshold: required,
                });
            }
            Admission::Indexed(InsertVerdict::Ready) => {}
        }
        self.drain_into(now, out);
    }

    /// Re-runs the delivery loop without a new arrival (useful after a
    /// state transfer or manual clock adjustment).
    pub fn poll(&mut self, now: u64) -> Vec<Delivery<P>> {
        self.drain(now)
    }

    /// Installs a vector snapshot from an existing member (state transfer
    /// for a joining process) and drains anything that became deliverable.
    /// The snapshot can move the clock arbitrarily (not just forward), so
    /// the wake-up index is rebuilt rather than incrementally advanced.
    pub fn install_state(&mut self, vector: pcb_clock::Timestamp, now: u64) -> Vec<Delivery<P>> {
        self.clock.reset_to(vector);
        self.pending.rebuild(&self.clock);
        self.drain(now)
    }

    /// Captures a crash-durable snapshot of this endpoint together with
    /// its anti-entropy `store`. See [`crate::snapshot`] for what is (and
    /// deliberately is not) included.
    #[must_use]
    pub fn snapshot(
        &self,
        store: &crate::recovery::MessageStore<P>,
    ) -> crate::snapshot::ProcessSnapshot<P>
    where
        P: Clone,
    {
        // The snapshot must not claim still-pending messages: they are
        // lost with the crash (the pending queue is deliberately not
        // persisted), so leaving their ids in the durable seen-set would
        // make the restored endpoint claim them in its probe windows and dedup
        // away the very re-fetch that is supposed to bring them back.
        let mut seen = self.seen.clone();
        for message in self.pending.iter_messages() {
            seen.remove(message.id());
        }
        crate::snapshot::ProcessSnapshot {
            id: self.id,
            keys: (*self.keys).clone(),
            config: self.config.clone(),
            cluster: pcb_clock::ClusterConfig::genesis(self.keys.space()),
            prev: None,
            clock: self.clock.to_timestamp(),
            seq: self.seq,
            seen: seen.export_windows(),
            stats: self.stats,
            store_window: store.window(),
            store: store.entries().map(|(t, m)| (t, m.clone())).collect(),
        }
    }

    /// Rebuilds an endpoint (and its message store) from a snapshot. The
    /// pending queue starts empty — undelivered messages lost in the
    /// crash are re-fetched through anti-entropy. If any broadcasts
    /// happened after the snapshot, follow up with
    /// [`PcbProcess::replay_own_sends`] before sending again.
    #[must_use]
    pub fn restore(
        snapshot: crate::snapshot::ProcessSnapshot<P>,
    ) -> (Self, crate::recovery::MessageStore<P>) {
        let clock = ProbClock::from_vector(snapshot.clock);
        let pending = WakeupIndex::new(clock.len());
        let recent = snapshot.config.recent_window.map(RecentListDetector::new);
        // What the seen-set does not claim was pending at the cut, stored
        // as it parked: its re-fetch stores it again.
        let seen = DedupFilter::from_windows(snapshot.seen);
        let kept = snapshot.store.into_iter().filter(|(_, m)| seen.contains(m.id()));
        let store = crate::recovery::MessageStore::from_entries(snapshot.store_window, kept);
        let tracer = Tracer::ring(snapshot.id.index_u32(), snapshot.config.trace_capacity);
        let health = snapshot.config.estimators.then(|| {
            Box::new(CausalHealth::new(clock.len() as u32, snapshot.keys.entries().len() as u32))
        });
        let process = Self {
            id: snapshot.id,
            keys: Rc::new(snapshot.keys),
            clock,
            seq: snapshot.seq,
            pending,
            seen,
            recent,
            config: snapshot.config,
            stats: snapshot.stats,
            tracer,
            health,
        };
        (process, store)
    }

    /// Builds this process's successor for a new cluster configuration:
    /// same identity and sequence counter, `new_keys` in the new `(R, K)`
    /// space, the clock carried across by fold-sum projection
    /// (`ClusterConfig::project`), and a *clone* of the seen-set so
    /// already-known messages stay deduplicated across the epoch fence.
    ///
    /// `self` is left untouched — it becomes the *drain* process for the
    /// old epoch, finishing off its still-pending messages; each of those
    /// deliveries is folded into the successor with
    /// [`PcbProcess::absorb_external_delivery`]. The successor starts
    /// with a fresh trace ring (hosts move the live tracer across, as in
    /// restore) and fresh observability state sized for the new geometry.
    #[must_use]
    pub fn migrated(&self, new_keys: KeySet, cluster: &pcb_clock::ClusterConfig) -> Self {
        let mut clock = ProbClock::with_len(cluster.space.r());
        clock.reset_to_entries(&cluster.project(self.clock.entries()));
        let pending = WakeupIndex::new(clock.len());
        let recent = self.config.recent_window.map(RecentListDetector::new);
        let tracer = Tracer::ring(self.id.index_u32(), self.config.trace_capacity);
        let health = self.config.estimators.then(|| {
            Box::new(CausalHealth::new(clock.len() as u32, new_keys.entries().len() as u32))
        });
        Self {
            id: self.id,
            keys: Rc::new(new_keys),
            clock,
            seq: self.seq,
            pending,
            seen: self.seen.clone(),
            recent,
            config: self.config.clone(),
            stats: self.stats,
            tracer,
            health,
        }
    }

    /// Folds a delivery made by another process instance (the old-epoch
    /// drain process) into this clock: `entries` are the sender's key
    /// entries *already projected* into this geometry (repeats allowed —
    /// folding can map two old entries onto one). Records the id as seen,
    /// counts the delivery, advances the projected entries, and drains
    /// anything in this epoch that the advance unblocked.
    pub fn absorb_external_delivery(
        &mut self,
        id: MessageId,
        entries: &[usize],
        instant_alert: bool,
        recent_alert: bool,
        now: u64,
    ) -> Vec<Delivery<P>> {
        let mut out = Vec::new();
        self.absorb_external_delivery_into(id, entries, instant_alert, recent_alert, now, &mut out);
        out.into_iter().map(|(delivery, _)| delivery).collect()
    }

    /// [`PcbProcess::absorb_external_delivery`] into a buffer that keeps
    /// each delivery's flag from [`PcbProcess::on_receive_into`].
    pub(crate) fn absorb_external_delivery_into(
        &mut self,
        id: MessageId,
        entries: &[usize],
        instant_alert: bool,
        recent_alert: bool,
        now: u64,
        out: &mut Vec<(Delivery<P>, bool)>,
    ) {
        self.tracer.advance(now);
        self.seen.insert(id);
        self.clock.record_delivery_entries(entries.iter().copied());
        self.stats.delivered += 1;
        self.stats.instant_alerts += u64::from(instant_alert);
        self.stats.recent_alerts += u64::from(recent_alert);
        self.wake(entries.iter().copied());
        self.drain_into(now, out);
    }

    /// Rebuilds an old-epoch *drain* process after a crash mid-migration:
    /// the old geometry's keys and clock from the snapshot, and the
    /// given seen-set (the successor's filter — a superset of everything
    /// the old epoch delivered, so nothing is re-delivered, while
    /// messages that were pending at the crash re-fetch cleanly). The
    /// result never broadcasts; it only finishes draining.
    #[must_use]
    pub(crate) fn drain_from_parts(
        id: ProcessId,
        keys: KeySet,
        clock: pcb_clock::Timestamp,
        seen: DedupFilter,
        config: PcbConfig,
    ) -> Self {
        let clock = ProbClock::from_vector(clock);
        let pending = WakeupIndex::new(clock.len());
        let recent = config.recent_window.map(RecentListDetector::new);
        let tracer = Tracer::ring(id.index_u32(), config.trace_capacity);
        Self {
            id,
            keys: Rc::new(keys),
            clock,
            seq: 0,
            pending,
            seen,
            recent,
            config,
            stats: ProcessStats::default(),
            tracer,
            health: None,
        }
    }

    /// The duplicate-suppression filter (crate-internal: seeds a rebuilt
    /// drain process's seen-set across a crash mid-migration, and joins a
    /// probe's windows with the drain's).
    #[must_use]
    pub(crate) fn seen(&self) -> &DedupFilter {
        &self.seen
    }

    /// Re-applies the clock effects of own broadcasts made after the
    /// restored snapshot, up to the write-ahead durable sequence number
    /// `durable_seq`. Without this, a recovered sender would re-issue
    /// stamp heights already used before the crash and receivers would
    /// discard its fresh messages as stale. Returns the number of sends
    /// replayed; idempotent once caught up.
    pub fn replay_own_sends(&mut self, durable_seq: u64) -> u64 {
        let mut replayed = 0;
        while self.seq < durable_seq {
            self.seq += 1;
            self.stats.sent += 1;
            let _ = self.clock.stamp_send(&self.keys);
            self.seen.insert(MessageId::new(self.id, self.seq));
            replayed += 1;
        }
        replayed
    }

    /// [`PcbProcess::drain_into`] into a fresh vector.
    fn drain(&mut self, now: u64) -> Vec<Delivery<P>> {
        let mut out = Vec::new();
        self.drain_into(now, &mut out);
        out.into_iter().map(|(delivery, _)| delivery).collect()
    }

    /// Delivers everything the index has marked ready. Each delivery
    /// advances exactly the sender's `K` clock entries; the index is told
    /// which, wakes only the waiters whose thresholds those crossings
    /// satisfied, and queues any of them that became fully ready — so the
    /// cascade costs `O(unblocked · (log W + K))`, not `O(P)` per
    /// delivery. Delivery order (ready tickets = arrival order) matches
    /// the paper's front-to-back rescan exactly; see `tests/differential.rs`.
    fn drain_into(&mut self, now: u64, out: &mut Vec<(Delivery<P>, bool)>) {
        while let Some((arrived, message, retained)) = self.pending.pop_ready_entry() {
            out.push((self.deliver(message, now, now.saturating_sub(arrived)), retained));
        }
    }

    /// Tells the index the clock advanced on `entries`, tracing each
    /// waiter that wakes.
    fn wake(&mut self, entries: impl IntoIterator<Item = usize>) {
        // Disjoint-field borrow: the wake callback writes the tracer
        // while the index iterates its own heaps.
        let tracer = &mut self.tracer;
        self.pending.on_clock_advance_with(entries, &self.clock, |woken, entry| {
            let (sender, seq) = (woken.id().sender().index_u32(), woken.id().seq());
            tracer.emit(|| TraceEvent::Woken { sender, seq, entry: entry as u32 });
        });
    }

    /// Delivers `message`, then wakes the waiters its clock advance
    /// satisfied.
    fn deliver(&mut self, message: Message<P>, now: u64, blocked_for: u64) -> Delivery<P> {
        let instant = instant_alert(&self.clock, message.timestamp(), message.keys());
        let recent = match &mut self.recent {
            Some(det) => det.check(now, &self.clock, message.timestamp(), message.keys()),
            None => false,
        };
        if let Some(health) = &mut self.health {
            // Overshoot per sender entry, read *before* this delivery's
            // own clock advance: clock[e] − (V[e] − 1) counts concurrent
            // increments (Algorithm 2's guard makes it non-negative).
            let ts = message.timestamp();
            let local = self.clock.entries();
            health.observe_delivery(message.keys().iter().map(|entry| {
                (entry as u32, local[entry].saturating_sub(ts[entry].saturating_sub(1)))
            }));
        }
        self.clock.record_delivery(message.keys());
        if let Some(det) = &mut self.recent {
            det.record(now, message.timestamp().clone());
        }
        self.stats.delivered += 1;
        self.stats.instant_alerts += u64::from(instant);
        self.stats.recent_alerts += u64::from(recent);
        let (sender, seq) = (message.id().sender().index_u32(), message.id().seq());
        self.tracer.emit(|| TraceEvent::Delivered {
            sender,
            seq,
            blocked_for,
            alert4: instant,
            alert5: recent,
            violation: false,
        });
        // The endpoint has no exact oracle; `suspects` reports the pending
        // backlog as the concurrency proxy an operator can act on.
        let suspects = self.pending.len() as u32;
        if instant {
            self.tracer.emit(|| TraceEvent::Alert { alg: 4, sender, seq, suspects });
        }
        if recent {
            self.tracer.emit(|| TraceEvent::Alert { alg: 5, sender, seq, suspects });
        }
        self.wake(message.keys().iter());
        Delivery { message, instant_alert: instant, recent_alert: recent, blocked_for }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcb_clock::KeySpace;

    fn space() -> KeySpace {
        KeySpace::new(4, 2).unwrap()
    }

    fn proc(id: usize, entries: &[usize]) -> PcbProcess<&'static str> {
        PcbProcess::new(ProcessId::new(id), KeySet::from_entries(space(), entries).unwrap())
    }

    #[test]
    fn immediate_delivery_when_ready() {
        let mut a = proc(0, &[0, 1]);
        let mut b = proc(1, &[1, 2]);
        let m = a.broadcast("x");
        let out = b.on_receive(m, 0);
        assert_eq!(out.len(), 1);
        assert!(!out[0].instant_alert);
        assert_eq!(b.pending_len(), 0);
        assert_eq!(b.stats().delivered, 1);
    }

    #[test]
    fn out_of_order_arrival_buffers_then_flushes() {
        // Figure 1: m' (depends on m) arrives first at p_k.
        let mut pi = proc(0, &[0, 1]);
        let mut pj = proc(1, &[1, 2]);
        let mut pk = proc(2, &[2, 3]);

        let m = pi.broadcast("m");
        assert_eq!(pj.on_receive(m.clone(), 0).len(), 1);
        let m_prime = pj.broadcast("m'");

        assert!(pk.on_receive(m_prime, 1).is_empty(), "m' must wait for m");
        assert_eq!(pk.pending_len(), 1);

        let out = pk.on_receive(m, 2);
        assert_eq!(out.len(), 2, "m arrives and unblocks m'");
        assert_eq!(*out[0].message.payload(), "m");
        assert_eq!(*out[1].message.payload(), "m'");
        assert_eq!(pk.stats().max_pending, 2);
    }

    #[test]
    fn figure2_wrong_delivery_raises_alert_on_late_message() {
        let mut pi = proc(0, &[0, 1]);
        let mut pj = proc(1, &[1, 2]);
        let mut p1 = proc(3, &[0, 3]);
        let mut p2 = proc(4, &[1, 3]);
        let mut pk = proc(2, &[2, 3]);

        let m = pi.broadcast("m");
        pj.on_receive(m.clone(), 0);
        let m_prime = pj.broadcast("m'");
        let m1 = p1.broadcast("m1");
        let m2 = p2.broadcast("m2");

        assert_eq!(pk.on_receive(m2, 0).len(), 1);
        assert_eq!(pk.on_receive(m1, 1).len(), 1);
        let out = pk.on_receive(m_prime, 2);
        assert_eq!(out.len(), 1, "m' wrongly delivered before m");
        let late = pk.on_receive(m, 3);
        assert_eq!(late.len(), 1);
        assert!(late[0].instant_alert, "Algorithm 4 flags the covered late message");
    }

    #[test]
    fn duplicates_dropped() {
        let mut a = proc(0, &[0, 1]);
        let mut b = proc(1, &[1, 2]);
        let m = a.broadcast("x");
        assert_eq!(b.on_receive(m.clone(), 0).len(), 1);
        assert!(b.on_receive(m, 1).is_empty());
        assert_eq!(b.stats().duplicates, 1);
        assert_eq!(b.stats().delivered, 1);
    }

    #[test]
    fn fifo_from_single_sender_is_preserved() {
        let mut a = proc(0, &[0, 1]);
        let mut b = proc(1, &[1, 2]);
        let m1 = a.broadcast("1");
        let m2 = a.broadcast("2");
        let m3 = a.broadcast("3");
        assert!(b.on_receive(m3.clone(), 0).is_empty());
        assert!(b.on_receive(m2.clone(), 1).is_empty());
        let out = b.on_receive(m1.clone(), 2);
        let order: Vec<_> = out.iter().map(|d| *d.message.payload()).collect();
        assert_eq!(order, vec!["1", "2", "3"]);
    }

    #[test]
    fn three_deep_cross_sender_cascade_flushes_in_one_drain() {
        // m1 (A) <- m2 (B) <- m3 (C), arrivals fully reversed. The old
        // drain needed its restart-scan to flush this; the indexed drain
        // must release the whole chain from the single arrival of m1.
        let mut a = proc(0, &[0, 1]);
        let mut b = proc(1, &[1, 2]);
        let mut c = proc(3, &[0, 3]);
        let mut rx = proc(2, &[2, 3]);

        let m1 = a.broadcast("m1");
        assert_eq!(b.on_receive(m1.clone(), 0).len(), 1);
        let m2 = b.broadcast("m2");
        assert_eq!(c.on_receive(m1.clone(), 0).len(), 1);
        assert_eq!(c.on_receive(m2.clone(), 0).len(), 1);
        let m3 = c.broadcast("m3");

        assert!(rx.on_receive(m3, 0).is_empty(), "m3 waits on m2 and m1");
        assert!(rx.on_receive(m2, 1).is_empty(), "m2 waits on m1");
        assert_eq!(rx.pending_len(), 2);

        let out = rx.on_receive(m1, 2);
        let order: Vec<_> = out.iter().map(|d| *d.message.payload()).collect();
        assert_eq!(order, vec!["m1", "m2", "m3"], "one arrival flushes the chain");
        assert_eq!(rx.pending_len(), 0);
        assert!(rx.poll(3).is_empty(), "drain reached the fixpoint");
    }

    #[test]
    fn wakeup_stats_expose_index_work() {
        let mut a = proc(0, &[0, 1]);
        let mut b = proc(1, &[1, 2]);
        let m1 = a.broadcast("1");
        let m2 = a.broadcast("2");
        assert!(b.on_receive(m2, 0).is_empty());
        assert_eq!(b.on_receive(m1, 1).len(), 2);
        let ws = b.wakeup_stats();
        assert_eq!(ws.ready_on_arrival, 1, "m1 was ready when it arrived");
        assert!(ws.wakeups >= 1, "m2 was woken by m1's delivery");
        assert_eq!(ws.max_pending, 2);
    }

    #[test]
    fn recent_window_detector_runs() {
        let cfg = PcbConfig { recent_window: Some(100), ..PcbConfig::default() };
        let mut pi = proc(0, &[0, 1]);
        let mut pk = PcbProcess::with_config(
            ProcessId::new(2),
            KeySet::from_entries(space(), &[2, 3]).unwrap(),
            cfg,
        );
        let m = pi.broadcast("m");
        let out = pk.on_receive(m, 5);
        assert_eq!(out.len(), 1);
        assert!(!out[0].recent_alert, "nominal delivery, no witness");
    }

    #[test]
    fn install_state_unblocks_joiner() {
        let mut a = proc(0, &[0, 1]);
        let _warmup = a.broadcast("old1");
        let _warmup2 = a.broadcast("old2");
        let fresh_msg = a.broadcast("new");

        // A joiner with a zero vector cannot deliver message #3.
        let mut joiner = proc(9, &[2, 3]);
        assert!(joiner.on_receive(fresh_msg, 0).is_empty());

        // State transfer from a peer that has everything: two deliveries
        // of a's messages are reflected as two increments of f(a).
        let mut peer_clock = ProbClock::new(space());
        let fa = KeySet::from_entries(space(), &[0, 1]).unwrap();
        peer_clock.record_delivery(&fa);
        peer_clock.record_delivery(&fa);
        let out = joiner.install_state(peer_clock.to_timestamp(), 1);
        assert_eq!(out.len(), 1, "snapshot unblocks the fresh message");
    }

    #[test]
    fn snapshot_does_not_claim_pending_messages() {
        // m' is received but parked (its dependency m never arrived) when
        // the snapshot is taken. After a crash + restore the pending queue
        // is gone; the restored endpoint must treat a re-fetched m' as
        // new — if the snapshot's seen-set claimed it, it would be lost
        // forever.
        let mut pi = proc(0, &[0, 1]);
        let mut pj = proc(1, &[1, 2]);
        let mut pk = proc(2, &[2, 3]);

        let m = pi.broadcast("m");
        assert_eq!(pj.on_receive(m.clone(), 0).len(), 1);
        let m_prime = pj.broadcast("m'");
        assert!(pk.on_receive(m_prime.clone(), 0).is_empty(), "m' parks");

        let store = crate::recovery::MessageStore::new(60_000);
        let snap = pk.snapshot(&store);
        assert!(
            !snap.seen.iter().any(|(sender, prefix, exc)| *sender == m_prime.id().sender()
                && (m_prime.id().seq() <= *prefix || exc.contains(&m_prime.id().seq()))),
            "snapshot seen-set claims the pending message"
        );

        let (mut restored, _store) = PcbProcess::restore(snap);
        assert!(restored.on_receive(m_prime, 1).is_empty(), "parks again, not deduped");
        assert_eq!(restored.on_receive(m, 2).len(), 2, "dependency unblocks the re-fetch");
    }

    #[test]
    fn poll_is_noop_without_state_change() {
        let mut b = proc(1, &[1, 2]);
        assert!(b.poll(0).is_empty());
    }

    #[test]
    fn lifecycle_trace_records_park_wake_deliver() {
        let cfg = PcbConfig { trace_capacity: 64, ..PcbConfig::default() };
        let mut a = PcbProcess::with_config(
            ProcessId::new(0),
            KeySet::from_entries(space(), &[0, 1]).unwrap(),
            cfg.clone(),
        );
        let mut b = PcbProcess::with_config(
            ProcessId::new(1),
            KeySet::from_entries(space(), &[1, 2]).unwrap(),
            cfg,
        );
        let m1 = a.broadcast("1");
        let m2 = a.broadcast("2");
        assert!(b.on_receive(m2, 5).is_empty());
        assert_eq!(b.on_receive(m1, 9).len(), 2);

        let sends = a.drain_trace();
        assert_eq!(sends.len(), 2);
        assert!(matches!(sends[0].event, pcb_telemetry::TraceEvent::Sent { seq: 1, .. }));

        let trace = b.drain_trace();
        let names: Vec<_> = trace.iter().map(|r| r.event.name()).collect();
        assert_eq!(
            names,
            ["Received", "Parked", "Received", "Delivered", "Woken", "Delivered"],
            "out-of-order pair parks then wakes: {names:?}"
        );
        let blocked: Vec<_> = trace
            .iter()
            .filter_map(|r| match r.event {
                pcb_telemetry::TraceEvent::Delivered { seq, blocked_for, .. } => {
                    Some((seq, blocked_for))
                }
                _ => None,
            })
            .collect();
        assert_eq!(blocked, [(1, 0), (2, 4)], "m2 sat pending from t=5 to t=9");
        assert!(b.drain_trace().is_empty(), "drain empties the ring");
    }

    #[test]
    fn disabled_tracer_stays_empty() {
        let mut a = proc(0, &[0, 1]);
        let mut b = proc(1, &[1, 2]);
        let m = a.broadcast("x");
        b.on_receive(m, 0);
        assert!(a.drain_trace().is_empty());
        assert!(b.drain_trace().is_empty());
        assert!(!b.tracer_mut().enabled());
    }

    #[test]
    fn stats_track_sends() {
        let mut a = proc(0, &[0, 1]);
        a.broadcast("x");
        a.broadcast("y");
        assert_eq!(a.stats().sent, 2);
        assert_eq!(a.clock().entries(), &[2, 2, 0, 0]);
    }

    #[test]
    fn migrated_projects_the_clock_and_keeps_dedup_and_seq() {
        let mut a = proc(0, &[0, 1]);
        let mut b = proc(1, &[1, 2]);
        let m = a.broadcast("x");
        assert_eq!(b.on_receive(m.clone(), 0).len(), 1);
        let _own = b.broadcast("mine");

        let cluster = pcb_clock::ClusterConfig::genesis(space())
            .reconfigured(pcb_clock::KeySpace::new(6, 2).unwrap());
        let new_keys = cluster.migrate_keys(b.keys()).unwrap();
        let mut nb = b.migrated(new_keys, &cluster);

        // R grew 4 → 6: identity embedding of [1, 2, 1, 0] (m + own send).
        assert_eq!(nb.clock().entries(), &[1, 2, 1, 0, 0, 0]);
        // The sequence counter continues — MessageId is epoch-global.
        let next = nb.broadcast("post");
        assert_eq!(next.id().seq(), 2);
        // Already-seen messages stay deduplicated across the fence.
        assert!(nb.on_receive(m, 1).is_empty());
        assert_eq!(nb.stats().duplicates, 1);
        // The old process is untouched and can keep draining.
        assert_eq!(b.clock().entries(), &[1, 2, 1, 0]);
    }

    #[test]
    fn absorbed_drain_delivery_unblocks_new_epoch_messages() {
        // Old epoch: a broadcasts m; c delivers it, d does not.
        let mut a = proc(0, &[0, 1]);
        let mut c = proc(2, &[1, 2]);
        let mut d = proc(3, &[2, 3]);
        let m = a.broadcast("m");
        assert_eq!(c.on_receive(m.clone(), 0).len(), 1);

        // Reconfigure (same R here, so projection is the identity).
        let cluster = pcb_clock::ClusterConfig::genesis(space()).reconfigured(space());
        let mut c2 = c.migrated(cluster.migrate_keys(c.keys()).unwrap(), &cluster);
        let mut d2 = d.migrated(cluster.migrate_keys(d.keys()).unwrap(), &cluster);

        // c's first new-epoch broadcast depends on m; d2 must park it.
        let m2 = c2.broadcast("m2");
        assert!(d2.on_receive(m2, 1).is_empty(), "m2 waits for m's contribution");

        // d's old drain process delivers m; folding it into d2 unblocks m2.
        assert_eq!(d.on_receive(m.clone(), 1).len(), 1);
        let projected: Vec<usize> =
            m.keys().iter().map(|entry| cluster.project_entry(entry)).collect();
        let out = d2.absorb_external_delivery(m.id(), &projected, false, false, 2);
        assert_eq!(out.len(), 1, "absorbing the drain delivery releases m2");
        assert_eq!(*out[0].message.payload(), "m2");
        assert_eq!(d2.stats().delivered, 2, "absorbed + unblocked");
        // The absorbed id is seen: a re-fetch of m is a duplicate.
        assert!(d2.on_receive(m, 3).is_empty());
        assert_eq!(d2.stats().duplicates, 1);
    }
}
