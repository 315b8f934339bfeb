//! Sans-IO endpoint state machine: the *entire* per-process protocol
//! behind one pure, time-injected function.
//!
//! [`Endpoint`] owns everything a correct process must do — Algorithms
//! 1–5 via [`PcbProcess`], duplicate suppression, the §4.2 recovery /
//! anti-entropy driver (stale-pending probe, quiescence probe with
//! capped exponential backoff, sync timeout), the anti-entropy
//! [`MessageStore`], and crash-durable snapshot/restore. It contains no
//! threads, channels, sockets, or wall clocks: every stimulus arrives as
//! an [`Input`] with an explicit `now_us` timestamp, and every effect
//! leaves as an [`Output`] the caller must route. The same state machine
//! therefore runs unchanged under
//!
//! * the **discrete-event simulator** (`pcb-sim`), which schedules the
//!   outputs as virtual-time events and checks them against the exact
//!   causal oracle, and
//! * the **`pcb-daemon` process** (`pcb-runtime`), which routes them
//!   over real UDP sockets on wall-clock time and persists its
//!   snapshots to disk.
//!
//! Because both shells drive this one type, the chaos engine and the
//! exact checker certify the code that serves live traffic — not a
//! simulator-private reimplementation of it.
//!
//! # Time
//!
//! All times are **microseconds** on whatever monotone clock the shell
//! chooses (virtual time in the simulator, time since the Unix epoch in
//! the daemon). The unit is in every name (`now_us`,
//! [`RecoveryTimingUs`]); shells convert exactly once, at the boundary.
//!
//! # Driving the machine
//!
//! ```
//! use pcb_broadcast::endpoint::{Endpoint, Input, Output, RecoveryTimingUs};
//! use pcb_broadcast::PcbConfig;
//! use pcb_clock::{KeySet, KeySpace, ProcessId};
//!
//! let space = KeySpace::new(4, 2)?;
//! let timing = Some(RecoveryTimingUs::default());
//! let mut a = Endpoint::new(
//!     ProcessId::new(0),
//!     KeySet::from_entries(space, &[0, 1])?,
//!     PcbConfig::default(),
//!     timing,
//! );
//! let mut b = Endpoint::new(
//!     ProcessId::new(1),
//!     KeySet::from_entries(space, &[1, 2])?,
//!     PcbConfig::default(),
//!     timing,
//! );
//!
//! // Shell's job: route outputs. A SendFrame from `a` becomes a
//! // FrameReceived at `b` whenever the transport decides it arrives.
//! let mut frame = None;
//! for out in a.handle(Input::Broadcast("hi"), 1_000) {
//!     if let Output::SendFrame(m) = out {
//!         frame = Some(m);
//!     }
//! }
//! let outs = b.handle(Input::FrameReceived(frame.unwrap()), 2_000);
//! assert!(matches!(outs[0], Output::Deliver(ref d) if *d.message.payload() == "hi"));
//! # Ok::<(), pcb_clock::KeyError>(())
//! ```

use bytes::Bytes;
use pcb_clock::{ClusterConfig, KeySet, KeySpace, ProcessId};
use pcb_telemetry::{Row, TraceEvent, TraceRecord, Tracer};

use crate::dedup::SeenWindows;
use crate::message::Message;
use crate::pending::WakeupStats;
use crate::process::{Delivery, PcbConfig, PcbProcess, ProcessStats};
use crate::recovery::{is_stable, Counters, MessageStore, SyncRequest, SYNC_REPLY_MAX};
use crate::snapshot::{PrevEpochSnapshot, ProcessSnapshot};
use crate::wire::{Payload, WireError};

/// Store retention when no recovery timing is configured (5 s).
const DEFAULT_STORE_WINDOW_US: u64 = 5_000_000;

/// Messages sent or delivered since the last snapshot that cut the next
/// one before `snapshot_every_us` has passed: a quarter of one
/// anti-entropy reply. A shell that prunes its store at a durable
/// stability frontier raises that frontier with each snapshot, so this
/// is what keeps the store the same size at any message rate.
const SNAPSHOT_EVERY_MSGS: u64 = (SYNC_REPLY_MAX / 4) as u64;

/// Consecutive unanswered sync probes before the endpoint reports
/// [`EndpointStatus::peer_unreachable`]. Probing continues — an
/// unreachable verdict is a health signal for operators (and the daemon
/// `status` RPC), not a reason to stop trying to converge.
pub const UNREACHABLE_AFTER: u32 = 5;

/// Recovery/anti-entropy timing, **all fields in microseconds** of the
/// shell's monotone clock. `None` at [`Endpoint::new`] disables the
/// whole §4.2 driver (no probes, no snapshots, no tick chain).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryTimingUs {
    /// A pending message older than this (or an idle spell this long)
    /// triggers an anti-entropy probe.
    pub stale_after_us: u64,
    /// Cadence of the [`Output::ScheduleTick`] chain — how often the
    /// shell should feed [`Input::Tick`] back in.
    pub poll_every_us: u64,
    /// How long delivered messages stay re-fetchable in the store.
    pub store_window_us: u64,
    /// Cadence of durable snapshots.
    pub snapshot_every_us: u64,
    /// How long an unanswered sync request stays in flight before the
    /// endpoint may probe again.
    pub sync_timeout_us: u64,
}

impl Default for RecoveryTimingUs {
    /// Defaults for a live cluster whose propagation delays are well
    /// under the 100 ms staleness threshold.
    fn default() -> Self {
        Self {
            stale_after_us: 100_000,
            poll_every_us: 25_000,
            store_window_us: DEFAULT_STORE_WINDOW_US,
            snapshot_every_us: 250_000,
            sync_timeout_us: 400_000,
        }
    }
}

/// Constructor arguments for one node's [`Endpoint`], as a process that
/// shares no memory with whoever chose them reads them from its state
/// directory.
#[derive(Debug, Clone)]
pub struct NodeSpec {
    /// This node's index.
    pub node: u32,
    /// Cluster size.
    pub n: u32,
    /// The node's key set.
    pub keys: KeySet,
    /// Protocol configuration.
    pub pcb_config: PcbConfig,
    /// Recovery/anti-entropy timing.
    pub timing: RecoveryTimingUs,
}

/// Everything that can happen *to* an endpoint. Shells translate their
/// transport/timer/operator events into exactly these.
#[derive(Debug, Clone)]
pub enum Input<P> {
    /// A broadcast frame arrived from the transport.
    FrameReceived(Message<P>),
    /// A peer asked for everything we have that it has not seen.
    SyncRequest {
        /// The requesting process (route the reply back to it).
        from: ProcessId,
        /// The requester's dedup windows ([`Output::RequestSync`]).
        windows: SeenWindows,
    },
    /// A peer answered our [`Output::RequestSync`].
    SyncResponse {
        /// Messages this endpoint was missing.
        messages: Vec<Message<P>>,
        /// The replier's cluster configuration. A newer config epoch
        /// applies a catch-up reconfiguration *before* the messages are
        /// routed — this is how a process that crashed across an `(R, K)`
        /// migration (or slept through the announcement) converges.
        config: ClusterConfig,
    },
    /// Timer fired (the shell's answer to [`Output::ScheduleTick`]).
    Tick,
    /// The application wants to broadcast `P`.
    Broadcast(P),
    /// The process crashed: volatile state is lost, only the last
    /// durable snapshot and the send WAL survive.
    Crash,
    /// The operator restarted the process; recover from the snapshot.
    Restore,
    /// The config plane announced a new cluster configuration: migrate
    /// the clock/keys into the new `(R, K)` space, fence sends on the new
    /// epoch, and keep the old-epoch process as a drain for stragglers.
    /// Stale announcements (epoch ≤ current) are ignored.
    Reconfigure(ClusterConfig),
    /// Graceful departure: the endpoint goes terminally silent (the
    /// config plane retires its entry; see `Group::leave`). Unlike
    /// [`Input::Crash`] there is no restore from this state.
    Leave,
    /// A [`JoinGrant`] issued by a live member ([`Endpoint::join_grant`])
    /// arrived: re-initialize this endpoint wholesale as the granted
    /// newcomer. Equivalent to the [`Endpoint::join`] constructor, but
    /// carried as an input so joins flow through the same record/replay
    /// and step codecs as every other stimulus (boxed: a grant embeds a
    /// full state-transfer snapshot).
    Join(Box<JoinGrant<P>>),
    /// The durable stability frontier, indexed by sender: every member
    /// has delivered that sender's messages up to this sequence number
    /// *and* cut a snapshot that says so, so none of them can ever ask
    /// for those messages again. They leave the store and the stable
    /// snapshot's copy of it ([`MessageStore::prune`]); the store's time
    /// window stays the fallback for a member that stopped reporting. A
    /// frontier never falls: an entry below the one held is ignored. A
    /// shell that cannot vouch for every member's durability never sends
    /// this (the simulator does not).
    StableFrontier(Vec<u64>),
}

/// Everything an endpoint wants *done*. Pure data — the shell routes
/// each one (or deliberately ignores it, e.g. a shell that keeps no
/// oracle needs no [`Output::SnapshotReady`]).
#[derive(Debug, Clone)]
pub enum Output<P> {
    /// Hand this message to the application (already inserted into the
    /// endpoint's own [`MessageStore`] — shells must not buffer it
    /// again).
    Deliver(Delivery<P>),
    /// Broadcast this frame to every peer.
    SendFrame(Message<P>),
    /// Ask a peer for anything outside `windows`. Peer choice is the
    /// shell's (the simulator and the daemon rotate through the peers
    /// deterministically).
    RequestSync {
        /// Everything this endpoint has seen, as dedup windows: per
        /// sender a contiguous prefix plus the exceptions beyond it, so
        /// the probe's size follows senders and gaps, not history.
        windows: SeenWindows,
    },
    /// Unicast answer to an [`Input::SyncRequest`].
    SyncReply {
        /// The requester.
        to: ProcessId,
        /// Messages it was missing.
        messages: Vec<Message<P>>,
        /// This endpoint's cluster configuration, piggybacked so a
        /// behind-the-times requester learns of a reconfiguration from
        /// the same anti-entropy exchange that refills its messages.
        config: ClusterConfig,
    },
    /// Feed [`Input::Tick`] back at (or after) `at_us`.
    ScheduleTick {
        /// Absolute microsecond deadline on the shell's clock.
        at_us: u64,
    },
    /// A delivery-error detector fired on the delivery just emitted.
    Alert {
        /// Which detector: 4 (instant coverage) or 5 (recent list).
        alg: u8,
        /// Originating process of the suspect message.
        sender: ProcessId,
        /// Its per-sender sequence number.
        seq: u64,
    },
    /// A durable snapshot was just taken (shells with oracles checkpoint
    /// their shadow state here; persistent shells write it out via
    /// [`Endpoint::stable_snapshot`]).
    SnapshotReady {
        /// When the snapshot was cut.
        at_us: u64,
    },
}

/// Everything a newcomer needs to enter a live cluster: its identity and
/// keys (allocated by the config plane, `Group::join`), the cluster
/// configuration in force, and a sponsor's state-transfer snapshot —
/// the same [`ProcessSnapshot`] the crash-durability plane already
/// encodes, reused as the join payload. Built by
/// [`Endpoint::join_grant`] on any live member, consumed by
/// [`Endpoint::join`].
#[derive(Debug, Clone)]
pub struct JoinGrant<P> {
    /// The identity assigned to the newcomer.
    pub id: ProcessId,
    /// The newcomer's key set, drawn in the current epoch's space.
    pub keys: KeySet,
    /// The cluster configuration in force at grant time.
    pub config: ClusterConfig,
    /// The sponsor's snapshot: clock vector (the newcomer's causal
    /// floor), dedup state (so history is not re-fetched), and retained
    /// store (so the newcomer can serve anti-entropy from day one).
    pub snapshot: ProcessSnapshot<P>,
}

/// The old-epoch drain retained across a reconfiguration: frames stamped
/// with the previous config epoch still deliver here (in the old
/// geometry), and each delivery is folded into the successor clock.
#[derive(Debug)]
struct PrevEpoch<P> {
    config: ClusterConfig,
    keys: KeySet,
    process: PcbProcess<P>,
}

/// How a message reached [`Endpoint::route`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Via {
    /// [`Input::FrameReceived`]: retained for anti-entropy once delivered.
    Frame,
    /// A decoded wire frame ([`Endpoint::handle_wire`]): retained from
    /// its arrival, so a parked message is re-servable to peers.
    Wire,
    /// An anti-entropy re-fetch ([`Input::SyncResponse`]); its deliveries
    /// count as recovered.
    Sync,
}

/// A point-in-time health report: what every shell hands its operators
/// (the daemon's `status` RPC and `/metrics`, `pcb-top`), with
/// [`EndpointStatus::rows`] as the one list of names they render.
#[derive(Debug, Clone)]
pub struct EndpointStatus {
    /// Protocol counters (sends, deliveries, alerts, duplicates).
    pub stats: ProcessStats,
    /// Messages currently blocked in the pending queue.
    pub pending: usize,
    /// The probabilistic clock vector.
    pub clock: pcb_clock::Timestamp,
    /// Recovery-health counters (syncs, re-fetches, snapshots).
    pub recovery: Counters,
    /// Deliveries that arrived via anti-entropy rather than a frame.
    pub recovered: u64,
    /// Times the idle-probe backoff was reset by fresh evidence.
    pub backoff_resets: u64,
    /// Whether the endpoint is currently crashed.
    pub crashed: bool,
    /// Consecutive sync probes that timed out unanswered (reset by any
    /// sync response).
    pub sync_timeouts: u32,
    /// `sync_timeouts >= UNREACHABLE_AFTER`: every recent anti-entropy
    /// attempt died on the wire — peers are crashed, partitioned away,
    /// or the transport is eating our probes.
    pub peer_unreachable: bool,
    /// Wake-up index work counters.
    pub wakeup: WakeupStats,
    /// Incarnation counter: 0 for the first boot, +1 per restore (shells
    /// resuming from disk seed it with [`Endpoint::set_incarnation`]).
    /// Distinct from `config_epoch`, which versions the *cluster*
    /// configuration, not this process's restart history.
    pub incarnation: u64,
    /// Protocol counters accumulated **within the current incarnation** —
    /// `stats` minus the snapshot taken at the last restore, so
    /// post-crash rates are not polluted by pre-crash counts.
    /// (`max_pending` stays the lifetime high-water mark.)
    pub incarnation_stats: ProcessStats,
    /// Recovery counters accumulated within the current incarnation.
    pub incarnation_recovery: Counters,
    /// The cluster configuration epoch this endpoint operates in.
    pub config_epoch: u64,
    /// Frames refused because they were stamped with a config epoch this
    /// endpoint neither runs nor drains.
    pub cross_epoch_refused: u64,
    /// Frames refused because their stamp length or key space is not the
    /// `(R, K)` geometry of the epoch they claim.
    pub geometry_refused: u64,
    /// Old-epoch messages still blocked in the drain process's pending
    /// queue (0 once the previous epoch has fully drained, or when no
    /// reconfiguration is in progress).
    pub draining: usize,
    /// Whether the endpoint has gracefully left the cluster (terminally
    /// silent; not restorable).
    pub left: bool,
    /// Sliding-window in-flight estimate `X̂` (0.0 when
    /// [`PcbConfig::estimators`] is off or before the first delivery).
    pub x_hat: f64,
    /// Lifetime delivery observations behind `x_hat`.
    pub x_samples: u64,
    /// Predicted `P_error(R, K, X̂)` from the closed-form model (0.0
    /// while `x_hat` is 0.0).
    pub predicted_p_error: f64,
    /// `K` that would minimize `P_error` at the current `X̂` (0 while
    /// `x_hat` is 0.0) — the gauge an adaptive assignment policy reads.
    pub recommended_k: u32,
    /// Per-clock-entry collision heatmap, when estimators are enabled.
    pub heatmap: Option<pcb_telemetry::EntryHeatmap>,
    /// Messages the anti-entropy store holds.
    pub store_retained: usize,
    /// Messages this endpoint has seen (own sends included) that the
    /// stability frontier does not cover yet — what a frontier-driven
    /// store still has to hold.
    pub frontier_lag: u64,
}

impl EndpointStatus {
    /// Every scalar of this report as a [`Row`] — the single table each
    /// sink loops over (the cluster and daemon Prometheus pages, the
    /// daemon `status` RPC), so a quantity has one name everywhere.
    ///
    /// The destructures are exhaustive on purpose (no `..`): a field added
    /// to `EndpointStatus`, `ProcessStats`, `Counters` or `WakeupStats`
    /// does not compile until it has a row here or an explicit `_`.
    #[must_use]
    #[allow(clippy::cast_precision_loss)] // levels are far below 2^52
    pub fn rows(&self) -> Vec<Row> {
        let EndpointStatus {
            stats:
                ProcessStats { sent, delivered, duplicates, instant_alerts, recent_alerts, max_pending },
            pending,
            clock: _, // a vector, not a scalar
            recovery:
                Counters { sync_requests, sync_served, refetched, snapshots_taken, snapshot_restores },
            recovered,
            backoff_resets,
            crashed,
            sync_timeouts,
            peer_unreachable,
            // The index's `max_pending` is the same high-water mark as `stats.max_pending`.
            wakeup:
                WakeupStats { gap_checks, wakeups, ready_on_arrival, max_wake_fanout, max_pending: _ },
            incarnation,
            // Same two structs again, incarnation-scoped (`max_pending` stays lifetime).
            incarnation_stats: inc,
            incarnation_recovery: inc_rec,
            config_epoch,
            cross_epoch_refused,
            geometry_refused,
            draining,
            left,
            x_hat,
            x_samples,
            predicted_p_error,
            recommended_k,
            heatmap: _, // per-slot array; sinks render it in their own shape
            store_retained,
            frontier_lag,
        } = *self;
        let alert_rate = if delivered > 0 { instant_alerts as f64 / delivered as f64 } else { 0.0 };
        vec![
            Row::counter("sent", "Messages broadcast by this node.", sent),
            Row::counter("delivered", "Messages delivered to the application.", delivered),
            Row::counter("duplicates", "Duplicates dropped by the dedup filter.", duplicates),
            Row::counter("instant_alerts", "Algorithm 4 alerts raised.", instant_alerts),
            Row::counter("recent_alerts", "Algorithm 5 alerts raised.", recent_alerts),
            Row::gauge("pending", "Messages blocked awaiting their causal past.", pending as f64),
            Row::gauge("max_pending", "High-water mark of the pending set.", max_pending as f64),
            Row::counter("sync_requests", "Anti-entropy probes issued.", sync_requests),
            Row::counter("sync_served", "Anti-entropy requests served.", sync_served),
            Row::counter("refetched", "Messages re-fetched through anti-entropy.", refetched),
            Row::counter("snapshots_taken", "Durable snapshots cut.", snapshots_taken),
            Row::counter("snapshot_restores", "Restores from a snapshot.", snapshot_restores),
            Row::counter("recovered", "Deliveries unblocked by anti-entropy.", recovered),
            Row::counter("backoff_resets", "Idle-probe backoff resets.", backoff_resets),
            Row::flag("crashed", "Whether the endpoint is crashed.", crashed),
            Row::flag("left", "Whether the endpoint has left the cluster.", left),
            Row::gauge("sync_timeouts", "Consecutive unanswered probes.", f64::from(sync_timeouts)),
            Row::flag("peer_unreachable", "Whether every recent probe died.", peer_unreachable),
            Row::counter("gap_checks", "Wake-up index gap evaluations.", gap_checks),
            Row::counter("wakeups", "Waiters woken by clock advances.", wakeups),
            Row::counter("ready_on_arrival", "Messages deliverable on arrival.", ready_on_arrival),
            Row::gauge("max_wake_fanout", "Most waiters woken at once.", max_wake_fanout as f64),
            Row::gauge("endpoint_incarnation", "Restores survived.", incarnation as f64),
            Row::counter("incarnation_sent", "Broadcasts this incarnation.", inc.sent),
            Row::counter("incarnation_delivered", "Deliveries this incarnation.", inc.delivered),
            Row::counter("incarnation_duplicates", "Duplicates this incarnation.", inc.duplicates),
            Row::counter(
                "incarnation_instant_alerts",
                "Algorithm 4 alerts this incarnation.",
                inc.instant_alerts,
            ),
            Row::counter(
                "incarnation_recent_alerts",
                "Algorithm 5 alerts this incarnation.",
                inc.recent_alerts,
            ),
            Row::counter(
                "incarnation_sync_requests",
                "Probes this incarnation.",
                inc_rec.sync_requests,
            ),
            Row::counter(
                "incarnation_sync_served",
                "Syncs served this incarnation.",
                inc_rec.sync_served,
            ),
            Row::counter(
                "incarnation_refetched",
                "Re-fetches this incarnation.",
                inc_rec.refetched,
            ),
            Row::counter(
                "incarnation_snapshots_taken",
                "Snapshots this incarnation.",
                inc_rec.snapshots_taken,
            ),
            Row::counter(
                "incarnation_snapshot_restores",
                "Snapshot restores this incarnation.",
                inc_rec.snapshot_restores,
            ),
            Row::gauge("config_epoch", "Cluster configuration epoch.", config_epoch as f64),
            Row::counter("cross_epoch_refused", "Frames refused cross-epoch.", cross_epoch_refused),
            Row::counter(
                "geometry_refused",
                "Frames refused for a wrong (R, K).",
                geometry_refused,
            ),
            Row::gauge("draining", "Messages draining in the previous epoch.", draining as f64),
            Row::gauge("x_hat", "Online in-flight concurrency estimate.", x_hat),
            Row::gauge("x_samples", "Delivery observations behind x_hat.", x_samples as f64),
            Row::gauge("predicted_p_error", "Model P_error(R, K, x_hat).", predicted_p_error),
            Row::gauge("observed_alert_rate", "Algorithm 4 alerts per delivery.", alert_rate),
            Row::gauge("recommended_k", "K minimizing P_error at x_hat.", f64::from(recommended_k)),
            Row::gauge(
                "store_retained",
                "Messages the anti-entropy store holds.",
                store_retained as f64,
            ),
            Row::gauge(
                "frontier_lag",
                "Seen messages the stability frontier does not cover yet.",
                frontier_lag as f64,
            ),
        ]
    }
}

/// The sans-IO per-process protocol state machine. See the module docs
/// for the contract; construct with [`Endpoint::new`], drive with
/// [`Endpoint::handle`].
#[derive(Debug)]
pub struct Endpoint<P> {
    id: ProcessId,
    keys: KeySet,
    config: PcbConfig,
    timing: Option<RecoveryTimingUs>,
    process: PcbProcess<P>,
    store: MessageStore<P>,
    counters: Counters,
    recovered: u64,
    sync_in_flight: bool,
    sync_sent_at_us: u64,
    last_activity_us: u64,
    next_idle_sync_us: u64,
    idle_backoff_us: u64,
    crashed: bool,
    /// Consecutive sync probes whose reply never came (see
    /// [`UNREACHABLE_AFTER`]).
    sync_timeouts: u32,
    stable: Option<ProcessSnapshot<P>>,
    durable_seq: u64,
    next_snapshot_us: u64,
    /// Messages sent or delivered since the last snapshot was cut.
    since_snapshot: u64,
    backoff_resets: u64,
    /// High-water mark of `now_us` across every stimulus. All timer
    /// arithmetic assumes a monotone shell clock; a rewound `now_us` is
    /// clamped to this instead of silently re-arming timers in the past.
    last_now_us: u64,
    /// Incarnation counter (0 = first boot, +1 per restore).
    incarnation: u64,
    /// Protocol counters as of the last restore — the baseline that
    /// makes `EndpointStatus::incarnation_stats` this-incarnation-only.
    incarnation_stats_base: ProcessStats,
    /// Recovery counters as of the last restore.
    incarnation_recovery_base: Counters,
    /// The cluster configuration this endpoint currently operates in:
    /// its `(R, K)` geometry must match `keys`' space, and its epoch
    /// stamps every outgoing frame.
    cluster: ClusterConfig,
    /// Old-epoch drain, present from a reconfiguration until the next
    /// one (a fresh reconfiguration retires any unfinished drain).
    prev: Option<PrevEpoch<P>>,
    /// Frames refused for carrying a config epoch that is neither
    /// current nor the drain's.
    cross_epoch_refused: u64,
    /// Frames refused for not having their epoch's `(R, K)` geometry.
    geometry_refused: u64,
    /// Gracefully departed: terminally deaf, not restorable.
    left: bool,
    /// The highest [`Input::StableFrontier`] received, per sender index.
    frontier: Vec<u64>,
    /// Delivery buffer reused across arrivals (always left empty), so a
    /// stimulus allocates only the output vector it returns.
    deliveries: Vec<(Delivery<P>, bool)>,
}

impl<P: Clone> Endpoint<P> {
    /// Creates an endpoint. `timing: None` disables recovery entirely —
    /// the endpoint still broadcasts, delivers, and answers sync
    /// requests, but never probes, snapshots, or schedules ticks.
    #[must_use]
    pub fn new(
        id: ProcessId,
        keys: KeySet,
        config: PcbConfig,
        timing: Option<RecoveryTimingUs>,
    ) -> Self {
        let process = PcbProcess::with_config(id, keys.clone(), config.clone());
        let store_window = timing.map_or(DEFAULT_STORE_WINDOW_US, |timing| timing.store_window_us);
        let (idle_backoff_us, next_snapshot_us) = match timing {
            Some(timing) => (timing.stale_after_us, timing.snapshot_every_us.max(1)),
            None => (0, u64::MAX),
        };
        let cluster = ClusterConfig::genesis(keys.space());
        Self {
            id,
            keys,
            config,
            timing,
            process,
            store: MessageStore::new(store_window),
            counters: Counters::default(),
            recovered: 0,
            sync_in_flight: false,
            sync_sent_at_us: 0,
            last_activity_us: 0,
            next_idle_sync_us: 0,
            idle_backoff_us,
            crashed: false,
            sync_timeouts: 0,
            stable: None,
            durable_seq: 0,
            next_snapshot_us,
            since_snapshot: 0,
            backoff_resets: 0,
            last_now_us: 0,
            incarnation: 0,
            incarnation_stats_base: ProcessStats::default(),
            incarnation_recovery_base: Counters::default(),
            cluster,
            prev: None,
            cross_epoch_refused: 0,
            geometry_refused: 0,
            left: false,
            frontier: Vec::new(),
            deliveries: Vec::new(),
        }
    }

    /// Builds a newcomer endpoint from a [`JoinGrant`] issued by a live
    /// member ([`Endpoint::join_grant`]): the sponsor's clock vector
    /// becomes the join point's causal floor (messages ordered before it
    /// are the sponsor's history, not the newcomer's obligation), its
    /// dedup state keeps that history from being re-fetched, and its
    /// retained store lets the newcomer answer anti-entropy immediately.
    /// The newcomer's own sequence counter starts at zero.
    #[must_use]
    pub fn join(grant: JoinGrant<P>, config: PcbConfig, timing: Option<RecoveryTimingUs>) -> Self {
        let JoinGrant { id, keys, config: cluster, snapshot } = grant;
        let mut ep = Self::new(id, keys.clone(), config.clone(), timing);
        ep.cluster = cluster;
        let (sponsor, store) = PcbProcess::restore(snapshot);
        let clock = sponsor.clock().to_timestamp();
        let mut process =
            PcbProcess::drain_from_parts(id, keys, clock, sponsor.seen().clone(), config);
        process.set_estimators(ep.config.estimators);
        ep.process = process;
        ep.store = store;
        // The join point is durable from the start: a crash before the
        // first periodic snapshot restores to the granted floor, not to
        // genesis (the grant itself is the newcomer's first snapshot).
        let mut stable = ep.process.snapshot(&ep.store);
        stable.cluster = ep.cluster;
        ep.stable = Some(stable);
        ep
    }

    /// Issues a [`JoinGrant`] for a newcomer the config plane admitted
    /// (`Group::join` allocated `id` and `keys`). Read-only: sponsoring a
    /// join is a snapshot cut, not a protocol action — any live member
    /// can sponsor any number of joiners concurrently.
    #[must_use]
    pub fn join_grant(&self, id: ProcessId, keys: KeySet) -> JoinGrant<P> {
        let mut snapshot = self.process.snapshot(&self.store);
        snapshot.cluster = self.cluster;
        JoinGrant { id, keys, config: self.cluster, snapshot }
    }

    /// Rebuilds an endpoint from externally persisted crash-durable
    /// state: the last snapshot a shell wrote out (on
    /// [`Output::SnapshotReady`]) and the send-WAL high-water mark it
    /// persisted before each broadcast took effect. The endpoint starts
    /// **crashed** — exactly the state a `kill -9`'d process restarts
    /// into — and recovers when the shell feeds [`Input::Restore`],
    /// taking the same restore path an in-process crash does: snapshot
    /// restore (or genesis), WAL replay, then anti-entropy catch-up.
    #[must_use]
    pub fn resume(
        id: ProcessId,
        keys: KeySet,
        config: PcbConfig,
        timing: Option<RecoveryTimingUs>,
        stable: Option<ProcessSnapshot<P>>,
        durable_seq: u64,
    ) -> Self {
        let mut ep = Self::new(id, keys, config, timing);
        ep.stable = stable;
        ep.durable_seq = durable_seq;
        ep.crashed = true;
        ep
    }

    /// Feeds one stimulus into the state machine at microsecond `now_us`
    /// and returns the effects the shell must carry out, in order.
    ///
    /// A crashed endpoint is deaf: it reacts only to [`Input::Tick`]
    /// (keeping the tick chain alive for the eventual restart) and
    /// [`Input::Restore`]; frames, broadcasts, and sync traffic fall on
    /// the floor exactly as they would at a dead process.
    pub fn handle(&mut self, input: Input<P>, now_us: u64) -> Vec<Output<P>> {
        let mut out = Vec::new();
        self.handle_into(input, now_us, Via::Frame, &mut out);
        out
    }

    /// [`Endpoint::handle`] into a caller-owned output buffer. For a
    /// `FrameReceived`, `via` says whether the message came off the wire
    /// codec.
    fn handle_into(&mut self, input: Input<P>, now_us: u64, via: Via, out: &mut Vec<Output<P>>) {
        // Clamp a backwards shell clock to the last time seen. Every
        // deadline below (`next_snapshot_us`, `next_idle_sync_us`, the
        // sync timeout) assumes monotone time; a rewound `now_us` used to
        // be masked by `saturating_sub` into "age zero", which silently
        // rescheduled ticks and probes into the past.
        let now_us = now_us.max(self.last_now_us);
        self.last_now_us = now_us;
        if self.left {
            return; // departed: terminally silent, nothing restores this
        }
        if matches!(input, Input::Leave) {
            self.left = true;
            self.sync_in_flight = false;
            return;
        }
        // A join re-initializes the endpoint wholesale (it is the input
        // form of the `Endpoint::join` constructor), so it bypasses the
        // crash gate: the pre-join state — crashed or not — is discarded.
        if let Input::Join(grant) = input {
            self.adopt(*grant, now_us, out);
            return;
        }
        if self.crashed {
            match input {
                Input::Tick => self.schedule_tick(now_us, out),
                Input::Restore => self.restore(now_us, out),
                // A reconfiguration announced while crashed is lost with
                // the rest of volatile state; the restore path converges
                // via the snapshot's config plus sync-carried catch-up.
                _ => {}
            }
            return;
        }
        // Recovery health is checked on *every* stimulus, not only
        // ticks: a busy inbox must not suppress snapshots or probes.
        self.maybe_snapshot(now_us, out);
        self.maybe_request_sync(now_us, out);
        match input {
            Input::FrameReceived(message) => {
                self.last_activity_us = now_us;
                self.reset_idle_backoff();
                self.route(message, via, now_us, out);
                self.maybe_request_sync(now_us, out);
            }
            Input::SyncRequest { from, windows } => {
                let response = self.store.handle_sync(&SyncRequest { windows });
                self.counters.sync_served += 1;
                // Always reply, even when empty: the requester's backoff
                // doubling needs to observe the emptiness, and the
                // piggybacked config is how laggards learn of an epoch.
                out.push(Output::SyncReply {
                    to: from,
                    messages: response.messages,
                    config: self.cluster,
                });
            }
            Input::SyncResponse { messages, config } => {
                self.on_sync_response(messages, config, now_us, out);
            }
            Input::Tick => self.schedule_tick(now_us, out),
            Input::Broadcast(payload) => {
                // Write-ahead: the sequence number becomes durable before
                // the send's effects exist anywhere, so a crash between
                // the two can only lose the message, never reuse a stamp.
                self.durable_seq += 1;
                self.process.set_now(now_us);
                // The stamp draws from the store's recycle pool (fed by
                // eviction), so steady-state sends reuse retired buffers.
                // Sends are fenced on the current config epoch: the frame
                // carries it, and receivers on another epoch refuse it.
                let message = self
                    .process
                    .broadcast_pooled(payload, self.store.stamp_pool_mut())
                    .with_epoch(self.cluster.epoch);
                self.store.insert(now_us, message.clone());
                self.since_snapshot += 1;
                out.push(Output::SendFrame(message));
            }
            Input::Crash => {
                self.crashed = true;
                self.sync_in_flight = false;
            }
            Input::Restore => {} // not crashed: nothing to restore
            Input::Reconfigure(next) => self.reconfigure(next, now_us, out),
            Input::StableFrontier(frontier) => self.advance_frontier(&frontier),
            Input::Leave | Input::Join(_) => unreachable!("handled before the crash gate"),
        }
    }

    /// [`Input::StableFrontier`]: raises the held frontier entry by entry
    /// and prunes the store and the stable snapshot's copy below it.
    fn advance_frontier(&mut self, frontier: &[u64]) {
        if self.frontier.len() < frontier.len() {
            self.frontier.resize(frontier.len(), 0);
        }
        for (held, &offered) in self.frontier.iter_mut().zip(frontier) {
            *held = (*held).max(offered);
        }
        self.store.prune(&self.frontier);
        if let Some(stable) = &mut self.stable {
            stable.store.retain(|(_, m)| !is_stable(&self.frontier, m.id()));
        }
    }

    /// This endpoint's process id.
    #[must_use]
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// Whether the endpoint is currently crashed (deaf).
    #[must_use]
    pub fn crashed(&self) -> bool {
        self.crashed
    }

    /// Messages blocked in the pending queue.
    #[must_use]
    pub fn pending_len(&self) -> usize {
        self.process.pending_len()
    }

    /// Protocol counters.
    #[must_use]
    pub fn stats(&self) -> ProcessStats {
        self.process.stats()
    }

    /// Wake-up index work counters.
    #[must_use]
    pub fn wakeup_stats(&self) -> WakeupStats {
        self.process.wakeup_stats()
    }

    /// Recovery-health counters.
    #[must_use]
    pub fn recovery_counters(&self) -> Counters {
        self.counters
    }

    /// Send-WAL high-water mark: the highest sequence number made
    /// durable. Persistent shells write this out (before routing the
    /// frame) so [`Endpoint::resume`] can replay it after `kill -9`.
    #[must_use]
    pub fn durable_seq(&self) -> u64 {
        self.durable_seq
    }

    /// Whether [`UNREACHABLE_AFTER`] consecutive sync probes have died
    /// unanswered — the endpoint's peers look unreachable from here.
    #[must_use]
    pub fn peer_unreachable(&self) -> bool {
        self.sync_timeouts >= UNREACHABLE_AFTER
    }

    /// The anti-entropy message store (delivered + own messages, and wire
    /// frames from their arrival, within the retention window).
    #[must_use]
    pub fn store(&self) -> &MessageStore<P> {
        &self.store
    }

    /// The last durable snapshot, if one has been cut. Persistent shells
    /// write this out when they see [`Output::SnapshotReady`].
    #[must_use]
    pub fn stable_snapshot(&self) -> Option<&ProcessSnapshot<P>> {
        self.stable.as_ref()
    }

    /// The current incarnation counter.
    #[must_use]
    pub fn incarnation(&self) -> u64 {
        self.incarnation
    }

    /// Seeds the incarnation counter. Shells that resume a process from
    /// disk call this with the persisted counter so the incarnation
    /// survives across OS-process boundaries (an in-memory restore
    /// bumps it automatically).
    pub fn set_incarnation(&mut self, incarnation: u64) {
        self.incarnation = incarnation;
    }

    /// The cluster configuration this endpoint operates in.
    #[must_use]
    pub fn cluster(&self) -> ClusterConfig {
        self.cluster
    }

    /// This endpoint's key set in the current epoch's space.
    #[must_use]
    pub fn keys(&self) -> &KeySet {
        &self.keys
    }

    /// Whether the endpoint has gracefully left the cluster.
    #[must_use]
    pub fn left(&self) -> bool {
        self.left
    }

    /// Frames refused for carrying an unknown config epoch.
    #[must_use]
    pub fn cross_epoch_refused(&self) -> u64 {
        self.cross_epoch_refused
    }

    /// Old-epoch messages still blocked in the drain process.
    #[must_use]
    pub fn draining(&self) -> usize {
        self.prev.as_ref().map_or(0, |prev| prev.process.pending_len())
    }

    /// Full health report.
    #[must_use]
    pub fn status(&self) -> EndpointStatus {
        let stats = self.process.stats();
        let (x_hat, x_samples, heatmap) = match self.process.health() {
            Some(health) => (health.x_hat(), health.samples(), Some(health.heatmap().clone())),
            None => (0.0, 0, None),
        };
        let (r, k) = (self.process.clock().len(), self.keys.entries().len());
        let (predicted_p_error, recommended_k) = if x_hat > 0.0 && r > 0 {
            (
                pcb_analysis::error_model::error_probability(r, k, x_hat),
                pcb_analysis::error_model::optimal_k_integer(r, x_hat) as u32,
            )
        } else {
            (0.0, 0)
        };
        EndpointStatus {
            stats,
            pending: self.process.pending_len(),
            clock: self.process.clock().to_timestamp(),
            recovery: self.counters,
            recovered: self.recovered,
            backoff_resets: self.backoff_resets,
            crashed: self.crashed,
            sync_timeouts: self.sync_timeouts,
            peer_unreachable: self.peer_unreachable(),
            wakeup: self.process.wakeup_stats(),
            incarnation: self.incarnation,
            incarnation_stats: stats.since(&self.incarnation_stats_base),
            incarnation_recovery: self.counters.since(&self.incarnation_recovery_base),
            config_epoch: self.cluster.epoch,
            cross_epoch_refused: self.cross_epoch_refused,
            geometry_refused: self.geometry_refused,
            draining: self.draining(),
            left: self.left,
            x_hat,
            x_samples,
            predicted_p_error,
            recommended_k,
            heatmap,
            store_retained: self.store.len(),
            frontier_lag: self
                .process
                .seen_windows()
                .iter()
                .map(|(sender, prefix, exceptions)| {
                    let stable = self.frontier.get(sender.index()).copied().unwrap_or(0);
                    prefix.saturating_sub(stable)
                        + exceptions.iter().filter(|&&seq| seq > stable).count() as u64
                })
                .sum(),
        }
    }

    /// Drains buffered lifecycle-trace records, oldest first.
    pub fn drain_trace(&mut self) -> Vec<TraceRecord> {
        self.process.drain_trace()
    }

    /// Routes a frame by its config epoch: current-epoch frames take the
    /// normal accept path, previous-epoch frames deliver through the
    /// drain process (each delivery folded into the current clock), and
    /// anything else is refused — exactly like a delta with a missing
    /// base, the frame is dropped with state untouched and recovered via
    /// §4.2 anti-entropy (whose reply carries the sender's config, so a
    /// refusal of a *future* epoch also triggers an immediate probe that
    /// will catch this endpoint up). Returns whether anything delivered.
    ///
    /// This is also where a frame's geometry is checked, once: every
    /// message from outside (wire, `FrameReceived`, sync replies) passes
    /// here before any clock reads it, and the Algorithm 2 guard takes
    /// equal lengths and in-range keys as its precondition. A frame that
    /// claims an epoch without having that epoch's `(R, K)` is refused the
    /// same way, state untouched.
    fn route(
        &mut self,
        message: Message<P>,
        via: Via,
        now_us: u64,
        out: &mut Vec<Output<P>>,
    ) -> bool {
        let epoch = message.epoch();
        let space = if epoch == self.cluster.epoch {
            Some(self.cluster.space)
        } else {
            self.prev
                .as_ref()
                .filter(|prev| prev.config.epoch == epoch)
                .map(|prev| prev.config.space)
        };
        if space.is_some_and(|space| !has_geometry(&message, space)) {
            self.geometry_refused += 1;
            return false;
        }
        if epoch == self.cluster.epoch {
            return self.accept(message, via, false, now_us, out);
        }
        if self.prev.as_ref().is_some_and(|prev| prev.config.epoch == epoch) {
            return self.accept(message, via, true, now_us, out);
        }
        self.cross_epoch_refused += 1;
        if epoch > self.cluster.epoch {
            // The sender runs a newer configuration than we know: force
            // the quiescence probe to fire now — its reply piggybacks
            // the new config and the messages we refused.
            self.reset_idle_backoff();
            self.last_activity_us = 0;
            self.maybe_request_sync(now_us, out);
        }
        false
    }

    /// Delivers `message` (and whatever it unblocks) through the current
    /// process, or through the old-epoch one when `drain` is set, each
    /// drained delivery then folded into the current clock
    /// ([`PcbProcess::absorb_external_delivery`]) with whatever that
    /// unblocks. Emits each delivery's `Deliver` plus detector `Alert`s
    /// and stores it, a wire frame as it is accepted and anything else
    /// as it delivers. Returns whether anything was delivered.
    fn accept(
        &mut self,
        message: Message<P>,
        via: Via,
        drain: bool,
        now_us: u64,
        out: &mut Vec<Output<P>>,
    ) -> bool {
        let mut deliveries = std::mem::take(&mut self.deliveries);
        let process = match &mut self.prev {
            Some(prev) if drain => &mut prev.process,
            _ => &mut self.process,
        };
        let store = &mut self.store;
        process.on_receive_into(message, now_us, &mut deliveries, |accepted| {
            via == Via::Wire && {
                store.insert(now_us, accepted.clone());
                true
            }
        });
        let any = !deliveries.is_empty();
        if drain {
            // Each drained delivery, then what it unblocks once folded into
            // the current clock: its sender's entries, projected into this
            // space (fold-sum: `entry mod R'`), advance as if delivered here.
            let mut folded = Vec::with_capacity(deliveries.len());
            for (delivery, stored) in deliveries.drain(..) {
                let entries: Vec<usize> = delivery
                    .message
                    .keys()
                    .entries()
                    .iter()
                    .map(|&entry| self.cluster.project_entry(entry as usize))
                    .collect();
                let (id, instant, recent) =
                    (delivery.message.id(), delivery.instant_alert, delivery.recent_alert);
                folded.push((delivery, stored));
                self.process.absorb_external_delivery_into(
                    id,
                    &entries,
                    instant,
                    recent,
                    now_us,
                    &mut folded,
                );
            }
            deliveries = folded;
        }
        for (delivery, stored) in deliveries.drain(..) {
            // One insert a message: where it arrived, unless it waited
            // longer than the window and aged out meanwhile.
            if !stored || delivery.blocked_for > self.store.window() {
                self.store.insert(now_us, delivery.message.clone());
            }
            self.recovered += u64::from(via == Via::Sync);
            self.since_snapshot += 1;
            let (sender, seq) = (delivery.message.id().sender(), delivery.message.id().seq());
            let (instant, recent) = (delivery.instant_alert, delivery.recent_alert);
            out.push(Output::Deliver(delivery));
            if instant {
                out.push(Output::Alert { alg: 4, sender, seq });
            }
            if recent {
                out.push(Output::Alert { alg: 5, sender, seq });
            }
        }
        self.deliveries = deliveries;
        any
    }

    /// [`Input::Join`] behind [`Endpoint::join`]: rebuilds this endpoint
    /// as the granted newcomer, preserving the shell-facing knobs
    /// (protocol config, recovery timing) and restarting the tick chain
    /// and snapshot cadence from `now_us`.
    fn adopt(&mut self, grant: JoinGrant<P>, now_us: u64, out: &mut Vec<Output<P>>) {
        let mut next = Self::join(grant, self.config.clone(), self.timing);
        next.last_now_us = now_us;
        next.last_activity_us = now_us;
        if let Some(timing) = self.timing {
            next.next_snapshot_us = now_us + timing.snapshot_every_us.max(1);
        }
        *self = next;
        self.schedule_tick(now_us, out);
    }

    /// Applies a cluster reconfiguration: deterministically re-derives
    /// this endpoint's keys in the new space
    /// ([`ClusterConfig::migrate_keys`]), builds the successor process
    /// with the clock carried over by fold-sum projection
    /// ([`PcbProcess::migrated`]), fences all further sends on the new
    /// epoch, and keeps the old process as a drain for in-flight
    /// old-epoch frames. Stale or duplicate announcements are ignored;
    /// an unfinished previous drain is retired (its stragglers fall back
    /// to cross-epoch refusal + anti-entropy, which re-serves them only
    /// to processes still running their epoch).
    fn reconfigure(&mut self, next: ClusterConfig, now_us: u64, out: &mut Vec<Output<P>>) {
        if next.epoch <= self.cluster.epoch {
            return;
        }
        let Ok(new_keys) = next.migrate_keys(&self.keys) else {
            return; // degenerate target space: refuse the announcement
        };
        let successor = self.process.migrated(new_keys.clone(), &next);
        let mut old = std::mem::replace(&mut self.process, successor);
        // The lifecycle trace follows the endpoint, not the epoch: move
        // the live tracer into the successor (as restore does) and leave
        // the drain with a mute ring.
        let tracer = old.replace_tracer(Tracer::ring(self.id.index_u32(), 0));
        let _ = self.process.replace_tracer(tracer);
        let old_keys = std::mem::replace(&mut self.keys, new_keys);
        self.prev = Some(PrevEpoch { config: self.cluster, keys: old_keys, process: old });
        self.cluster = next;
        self.process.set_now(now_us);
        // Traffic already sent on the new epoch may have been refused by
        // our old self moments ago; re-arm the probe at its floor.
        self.reset_idle_backoff();
        self.maybe_request_sync(now_us, out);
    }

    /// Deterministic jitter in `[0, span/4)`, keyed by this endpoint's
    /// id and an evolving `nonce` (the probe counter). Identically
    /// configured endpoints that quiesce at the same instant — a healed
    /// partition is exactly that — must not re-arm their probes onto the
    /// same schedule, or every backoff round arrives as a synchronized
    /// request storm. Pure state, no wall clock or RNG: the simulator,
    /// the certification harness, and real daemons all compute the same
    /// offsets.
    fn jitter_us(&self, span_us: u64, nonce: u64) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in (self.id.index() as u64).to_le_bytes().into_iter().chain(nonce.to_le_bytes()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Top bits are the well-mixed ones in FNV; span/4 keeps the
        // jitter well under one backoff doubling so gaps still grow.
        span_us / 4 * (h >> 56) / 256
    }

    fn on_sync_response(
        &mut self,
        messages: Vec<Message<P>>,
        config: ClusterConfig,
        now_us: u64,
        out: &mut Vec<Output<P>>,
    ) {
        self.sync_in_flight = false;
        self.sync_timeouts = 0;
        // Catch-up reconfiguration *before* routing: a process that
        // crashed across an `(R, K)` migration (or missed the
        // announcement) learns the new config from the same anti-entropy
        // exchange that re-serves the messages it refused.
        if config.epoch > self.cluster.epoch {
            self.reconfigure(config, now_us, out);
        }
        self.counters.refetched += messages.len() as u64;
        self.process.set_now(now_us);
        for message in &messages {
            let (sender, seq) = (message.id().sender().index_u32(), message.id().seq());
            self.process.tracer_mut().emit(|| TraceEvent::Refetched { sender, seq });
        }
        let mut delivered_any = false;
        for message in messages {
            delivered_any |= self.route(message, Via::Sync, now_us, out);
        }
        if let Some(timing) = self.timing {
            if delivered_any {
                self.reset_idle_backoff();
            } else {
                // Nothing new anywhere: quiesce. Double the idle-probe
                // interval up to a cap so a healed, converged cluster
                // stops probe-storming but still self-checks. The re-arm
                // is jittered per endpoint so simultaneous quiescence
                // (every node healing at once) fans the next round of
                // probes out over time instead of stampeding.
                let cap = timing.stale_after_us * 8;
                let jitter = self.jitter_us(self.idle_backoff_us, self.counters.sync_requests);
                self.next_idle_sync_us = now_us + self.idle_backoff_us + jitter;
                self.idle_backoff_us = (self.idle_backoff_us * 2).min(cap.max(1));
            }
        }
        self.maybe_request_sync(now_us, out);
    }

    fn schedule_tick(&self, now_us: u64, out: &mut Vec<Output<P>>) {
        if let Some(timing) = self.timing {
            out.push(Output::ScheduleTick { at_us: now_us + timing.poll_every_us.max(1) });
        }
    }

    fn maybe_snapshot(&mut self, now_us: u64, out: &mut Vec<Output<P>>) {
        let Some(timing) = self.timing else { return };
        if now_us < self.next_snapshot_us && self.since_snapshot < SNAPSHOT_EVERY_MSGS {
            return;
        }
        self.since_snapshot = 0;
        let mut snapshot = self.process.snapshot(&self.store);
        // The process fills genesis; the endpoint owns the config plane.
        snapshot.cluster = self.cluster;
        snapshot.prev = self.prev.as_ref().map(|prev| PrevEpochSnapshot {
            epoch: prev.config.epoch,
            keys: prev.keys.clone(),
            clock: prev.process.clock().to_timestamp(),
        });
        self.stable = Some(snapshot);
        self.counters.snapshots_taken += 1;
        self.process.set_now(now_us);
        self.process.tracer_mut().emit(|| TraceEvent::SnapshotTaken);
        out.push(Output::SnapshotReady { at_us: now_us });
        self.next_snapshot_us = now_us + timing.snapshot_every_us.max(1);
    }

    /// The §4.2 probe decision: fire a sync request if (a) none is in
    /// flight (or the last one timed out), and (b) either a pending
    /// message has gone stale — a lost dependency, probed at full poll
    /// cadence — or the endpoint has been idle past its (backoff-grown)
    /// quiescence interval.
    fn maybe_request_sync(&mut self, now_us: u64, out: &mut Vec<Output<P>>) {
        let Some(timing) = self.timing else { return };
        if self.sync_in_flight {
            // The timeout is jittered like the idle re-arm: a partition
            // that swallowed every group's probes must not release them
            // all on the same retry beat.
            let timeout = timing.sync_timeout_us.max(1);
            let timeout = timeout + self.jitter_us(timeout, self.counters.sync_requests);
            if now_us.saturating_sub(self.sync_sent_at_us) < timeout {
                return;
            }
            self.sync_in_flight = false;
            // A probe died on the wire; count it toward the
            // peer-unreachable health verdict (reset by any response).
            self.sync_timeouts = self.sync_timeouts.saturating_add(1);
        }
        let stale = timing.stale_after_us;
        // A straggler stuck in the old-epoch drain is a lost dependency
        // like any other: it keeps the probe firing at full cadence.
        let oldest_pending = self
            .process
            .oldest_pending_age(now_us)
            .max(self.prev.as_ref().and_then(|prev| prev.process.oldest_pending_age(now_us)));
        let pending_stale = oldest_pending.is_some_and(|age| age >= stale);
        let idle_probe = now_us.saturating_sub(self.last_activity_us) >= stale
            && now_us >= self.next_idle_sync_us;
        if !pending_stale && !idle_probe {
            return;
        }
        let windows = match self.prev.as_ref() {
            None => self.process.seen_windows(),
            Some(prev) => {
                // Messages parked in the drain's pending queue are known
                // to the drain only (they reach the current seen-set when
                // they deliver); without them every probe would refetch.
                let mut seen = self.process.seen().clone();
                seen.union(prev.process.seen());
                seen.export_windows()
            }
        };
        self.counters.sync_requests += 1;
        self.sync_in_flight = true;
        self.sync_sent_at_us = now_us;
        out.push(Output::RequestSync { windows });
    }

    /// Re-arms the quiescence probe at its minimum interval (new traffic
    /// or a successful recovery means more losses may follow shortly).
    fn reset_idle_backoff(&mut self) {
        if let Some(timing) = self.timing {
            self.idle_backoff_us = timing.stale_after_us;
            self.next_idle_sync_us = 0;
            self.backoff_resets += 1;
        }
    }

    fn restore(&mut self, now_us: u64, out: &mut Vec<Output<P>>) {
        if !self.crashed {
            return;
        }
        self.crashed = false;
        // Keep the lifecycle trace across the restore: PcbProcess::restore
        // starts a fresh ring, but the node's history (especially its
        // `Sent` records) must survive for trace replay to work.
        let tracer = self.process.replace_tracer(Tracer::ring(self.id.index_u32(), 0));
        match self.stable.clone() {
            Some(snapshot) => {
                // The snapshot is the config plane's durable record: it
                // may carry a newer (or, crash-mid-reconfiguration, an
                // *older*) epoch than the announcement history — either
                // way it wins here, and anti-entropy converges the rest.
                self.cluster = snapshot.cluster;
                self.keys = snapshot.keys.clone();
                let prev_snapshot = snapshot.prev.clone();
                let (process, store) = PcbProcess::restore(snapshot);
                self.process = process;
                self.store = store;
                // Rebuild the old-epoch drain if the snapshot was cut
                // mid-reconfiguration. Its seen-set is the successor's
                // (a superset of everything the old epoch delivered):
                // nothing re-delivers, while messages that were pending
                // at the crash were never claimed and re-fetch cleanly.
                self.prev = prev_snapshot.map(|prev| {
                    let config = ClusterConfig {
                        epoch: prev.epoch,
                        space: prev.keys.space(),
                        policy: self.cluster.policy,
                    };
                    let process = PcbProcess::drain_from_parts(
                        self.id,
                        prev.keys.clone(),
                        prev.clock,
                        self.process.seen().clone(),
                        self.config.clone(),
                    );
                    PrevEpoch { config, keys: prev.keys, process }
                });
                self.counters.snapshot_restores += 1;
            }
            None => {
                // Crashed before the first snapshot: restart from zero
                // (in the current config — the keys already live in its
                // space, and peers re-serve anything we forgot).
                self.process =
                    PcbProcess::with_config(self.id, self.keys.clone(), self.config.clone());
                self.store = MessageStore::new(
                    self.timing.map_or(DEFAULT_STORE_WINDOW_US, |timing| timing.store_window_us),
                );
                self.prev = None;
            }
        }
        let _ = self.process.replace_tracer(tracer);
        // A restore starts a new incarnation: bump the counter and
        // re-baseline the stats so per-incarnation rates start clean.
        self.incarnation += 1;
        // Estimators are a local observability knob, not snapshot state
        // (the wire codec decodes them off) — re-apply the endpoint's
        // own configuration. The estimator
        // window restarts empty: pre-crash concurrency is stale
        // evidence for the new incarnation.
        self.process.set_estimators(self.config.estimators);
        // The wire decoder's per-sender reconstruction stamps describe
        // the *pre-crash* receive stream; reusing them would reconstruct
        // post-restore deltas against bases this endpoint no longer
        // remembers receiving. Drop them so the next delta from each
        // sender surfaces `MissingDeltaBase` and is re-fetched or
        // re-primed by a full frame.
        self.store.reset_codec();
        self.process.set_now(now_us);
        self.process.tracer_mut().emit(|| TraceEvent::SnapshotRestored);
        // Re-apply the clock effects of sends the WAL made durable after
        // the snapshot, so fresh broadcasts do not reuse stamp heights.
        self.process.replay_own_sends(self.durable_seq);
        // Baseline the per-incarnation counters *after* the WAL replay:
        // the replayed sends happened in a previous incarnation and must
        // not count against this one.
        self.incarnation_stats_base = self.process.stats();
        self.incarnation_recovery_base = self.counters;
        self.last_activity_us = 0;
        self.sync_timeouts = 0;
        self.reset_idle_backoff();
        self.maybe_request_sync(now_us, out);
    }
}

/// Whether `message` has the `(R, K)` geometry of `space`: an `R`-entry
/// stamp and a key set drawn from that space (so every key is below `R`).
fn has_geometry<P>(message: &Message<P>, space: KeySpace) -> bool {
    message.timestamp().len() == space.r() && message.keys().space() == space
}

impl<P: Payload> Endpoint<P> {
    /// Decodes one wire frame (full or delta — see
    /// [`crate::wire`]) through the store's long-lived per-sender delta
    /// codec and feeds the message through the [`Endpoint::handle`] state
    /// machine. Unlike a bare [`Input::FrameReceived`], an accepted frame
    /// is retained in the store from its arrival, so peers can re-fetch
    /// it while it is parked here; a frame the router refuses (unknown
    /// epoch, wrong `(R, K)`) or a duplicate is never stored.
    ///
    /// A crashed endpoint returns `Ok` with no outputs **without touching
    /// the codec**: frames at a dead process fall on the floor before
    /// reconstruction, so the delta chain resumes only via full frames
    /// (or anti-entropy re-fetch) after restore.
    ///
    /// # Errors
    ///
    /// Propagates the [`WireError`] of an undecodable frame (corrupt
    /// bytes, or a delta whose base this endpoint never saw); the frame
    /// is dropped and the state machine is not stimulated, exactly as a
    /// transport-level loss.
    pub fn handle_wire(&mut self, frame: Bytes, now_us: u64) -> Result<Vec<Output<P>>, WireError> {
        if self.crashed || self.left {
            return Ok(Vec::new());
        }
        let message = self.store.decode_pooled(frame)?;
        let mut out = Vec::new();
        self.handle_into(Input::FrameReceived(message), now_us, Via::Wire, &mut out);
        Ok(out)
    }

    /// No-op, kept only for the frozen ledger's `endpoint.batch_t1_ns` /
    /// `endpoint.batch_tn_ns` probes; goes with ROADMAP item 1a.
    #[doc(hidden)]
    pub fn set_parallel(&mut self, _threads: usize) {}

    /// [`Endpoint::handle_wire`] per frame, kept only for the same two
    /// frozen probes; goes with ROADMAP item 1a.
    #[doc(hidden)]
    pub fn handle_wire_batch(
        &mut self,
        frames: &[(u64, Bytes)],
    ) -> (Vec<Output<P>>, Vec<(usize, WireError)>) {
        let (mut out, mut errors) = (Vec::new(), Vec::new());
        for (index, (now_us, frame)) in frames.iter().enumerate() {
            match self.handle_wire(frame.clone(), *now_us) {
                Ok(outputs) => out.extend(outputs),
                Err(error) => errors.push((index, error)),
            }
        }
        (out, errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MessageId;
    use pcb_clock::KeySpace;

    fn space() -> KeySpace {
        KeySpace::new(4, 2).unwrap()
    }

    fn timing() -> RecoveryTimingUs {
        RecoveryTimingUs {
            stale_after_us: 1_000,
            poll_every_us: 250,
            store_window_us: 1_000_000,
            snapshot_every_us: 5_000,
            sync_timeout_us: 4_000,
        }
    }

    fn endpoint(id: usize, entries: &[usize]) -> Endpoint<&'static str> {
        Endpoint::new(
            ProcessId::new(id),
            KeySet::from_entries(space(), entries).unwrap(),
            PcbConfig::default(),
            Some(timing()),
        )
    }

    fn frames<P: Clone>(outs: &[Output<P>]) -> Vec<Message<P>> {
        outs.iter()
            .filter_map(|o| match o {
                Output::SendFrame(m) => Some(m.clone()),
                _ => None,
            })
            .collect()
    }

    fn holds(windows: &SeenWindows, ids: &[MessageId]) -> bool {
        ids.iter().all(|&id| crate::dedup::windows_contain(windows, id))
    }

    fn windows_of<P>(outs: &[Output<P>]) -> Option<SeenWindows> {
        outs.iter().find_map(|o| match o {
            Output::RequestSync { windows } => Some(windows.clone()),
            _ => None,
        })
    }

    #[test]
    fn send_path_reuses_evicted_stamp_buffers() {
        // No recovery timing: snapshots would clone the store and keep
        // every stamp shared past eviction. With eviction as the last
        // owner, retired buffers flow back into the broadcast path.
        let mut a = Endpoint::<&'static str>::new(
            ProcessId::new(0),
            KeySet::from_entries(space(), &[0, 1]).unwrap(),
            PcbConfig::default(),
            None,
        );
        let mut now = 0;
        for _ in 0..100 {
            let _ = a.handle(Input::Broadcast("x"), now);
            now += 1_000_000; // ≫ store window / sends ⇒ steady eviction
        }
        let stats = a.store().stamp_pool_stats();
        assert!(stats.hits > 50, "steady-state sends must recycle: {stats:?}");
        assert!(stats.misses < 20, "only warm-up may allocate: {stats:?}");
    }

    #[test]
    fn broadcast_emits_frame_and_stores_it() {
        let mut a = endpoint(0, &[0, 1]);
        let outs = a.handle(Input::Broadcast("x"), 10);
        assert_eq!(frames(&outs).len(), 1);
        assert_eq!(a.store().len(), 1, "own sends are re-fetchable");
        assert_eq!(a.stats().sent, 1);
    }

    #[test]
    fn frame_delivery_inserts_into_store() {
        let mut a = endpoint(0, &[0, 1]);
        let mut b = endpoint(1, &[1, 2]);
        let m = frames(&a.handle(Input::Broadcast("x"), 10)).remove(0);
        let outs = b.handle(Input::FrameReceived(m), 20);
        assert!(matches!(outs[0], Output::Deliver(_)));
        assert_eq!(b.store().len(), 1, "the endpoint buffers its own deliveries");
        assert_eq!(b.pending_len(), 0);
    }

    #[test]
    fn tick_keeps_the_chain_alive() {
        let mut a = endpoint(0, &[0, 1]);
        let outs = a.handle(Input::Tick, 100);
        assert!(outs
            .iter()
            .any(|o| matches!(o, Output::ScheduleTick { at_us } if *at_us == 100 + 250)));
        let mut no_recovery = Endpoint::<&str>::new(
            ProcessId::new(3),
            KeySet::from_entries(space(), &[2, 3]).unwrap(),
            PcbConfig::default(),
            None,
        );
        assert!(no_recovery.handle(Input::Tick, 100).is_empty(), "no timing, no chain");
    }

    #[test]
    fn snapshots_are_cut_on_message_count_as_well_as_on_time() {
        // A snapshot timer that never fires inside the test.
        let t = RecoveryTimingUs { snapshot_every_us: u64::MAX / 2, ..timing() };
        let keys = |entries: &[usize]| KeySet::from_entries(space(), entries).unwrap();
        let mut a = Endpoint::new(ProcessId::new(0), keys(&[0, 1]), PcbConfig::default(), Some(t));
        let mut b = Endpoint::new(ProcessId::new(1), keys(&[1, 2]), PcbConfig::default(), Some(t));
        let cuts = |outs: &[Output<&str>]| {
            outs.iter().filter(|o| matches!(o, Output::SnapshotReady { .. })).count()
        };
        // Half the count sent by `b`, half delivered to it: nothing yet.
        let mut now = 10;
        for _ in 0..SNAPSHOT_EVERY_MSGS / 2 {
            assert_eq!(cuts(&b.handle(Input::Broadcast("own"), now)), 0);
            let m = frames(&a.handle(Input::Broadcast("peer"), now)).remove(0);
            assert_eq!(cuts(&b.handle(Input::FrameReceived(m), now)), 0);
            now += 10;
        }
        // The next stimulus finds the count reached and cuts.
        assert_eq!(cuts(&b.handle(Input::Tick, now)), 1);
        assert_eq!(b.stable_snapshot().map(|s| s.seq), Some(SNAPSHOT_EVERY_MSGS / 2));
        assert_eq!(cuts(&b.handle(Input::Tick, now + 1)), 0, "the count starts over");
    }

    #[test]
    fn anti_entropy_round_trip_refetches_missed_messages() {
        let mut a = endpoint(0, &[0, 1]);
        let mut b = endpoint(1, &[1, 2]);
        let m1 = frames(&a.handle(Input::Broadcast("1"), 10)).remove(0);
        let m2 = frames(&a.handle(Input::Broadcast("2"), 20)).remove(0);
        drop((m1, m2)); // both frames lost in transit

        // Idle probe fires once b has been quiet past stale_after.
        let outs = b.handle(Input::Tick, 2_000);
        let windows = windows_of(&outs).expect("idle probe");
        assert_eq!(b.recovery_counters().sync_requests, 1);

        let reply = a.handle(Input::SyncRequest { from: b.id(), windows }, 2_100);
        let Some(Output::SyncReply { to, messages, .. }) =
            reply.iter().find(|o| matches!(o, Output::SyncReply { .. }))
        else {
            panic!("expected SyncReply, got {reply:?}");
        };
        assert_eq!(*to, b.id());
        assert_eq!(messages.len(), 2);
        assert_eq!(a.recovery_counters().sync_served, 1);

        let outs = b.handle(
            Input::SyncResponse {
                messages: messages.clone(),
                config: ClusterConfig::genesis(space()),
            },
            2_200,
        );
        let delivered: Vec<_> = outs
            .iter()
            .filter_map(|o| match o {
                Output::Deliver(d) => Some(*d.message.payload()),
                _ => None,
            })
            .collect();
        assert_eq!(delivered, ["1", "2"]);
        assert_eq!(b.recovery_counters().refetched, 2);
        assert_eq!(b.status().recovered, 2);
    }

    #[test]
    fn empty_sync_responses_back_off_and_fresh_traffic_resets() {
        let mut b = endpoint(1, &[1, 2]);
        let t = timing();
        let mut now = t.stale_after_us;
        let mut probe_gaps = Vec::new();
        let mut last_probe = None;
        // Drive tick + empty response cycles; record the gaps between
        // successive probes.
        for _ in 0..200 {
            let outs = b.handle(Input::Tick, now);
            if windows_of(&outs).is_some() {
                if let Some(prev) = last_probe {
                    probe_gaps.push(now - prev);
                }
                last_probe = Some(now);
                let _ = b.handle(
                    Input::SyncResponse {
                        messages: Vec::new(),
                        config: ClusterConfig::genesis(space()),
                    },
                    now + 10,
                );
            }
            now += t.poll_every_us;
        }
        assert!(probe_gaps.len() >= 3, "several probes fired: {probe_gaps:?}");
        // Gaps grow toward the cap; per-probe jitter (< span/4) may
        // wobble consecutive capped gaps but never more than the span.
        let cap = t.stale_after_us * 8;
        let jitter_span = cap / 4;
        assert!(
            probe_gaps.windows(2).all(|w| w[1] + jitter_span >= w[0]),
            "idle probe gaps never shrink below jitter wobble: {probe_gaps:?}"
        );
        assert!(
            probe_gaps.last() > probe_gaps.first(),
            "backoff still grows overall: {probe_gaps:?}"
        );
        assert!(
            probe_gaps.iter().all(|&g| g <= cap + jitter_span + t.poll_every_us),
            "gaps capped"
        );

        // Fresh frame resets the backoff to the floor.
        let mut a = endpoint(0, &[0, 1]);
        let m = frames(&a.handle(Input::Broadcast("x"), now)).remove(0);
        let resets_before = b.status().backoff_resets;
        let _ = b.handle(Input::FrameReceived(m), now);
        assert!(b.status().backoff_resets > resets_before);
    }

    #[test]
    fn sync_timeout_rearms_the_probe() {
        let mut b = endpoint(1, &[1, 2]);
        let t = timing();
        let outs = b.handle(Input::Tick, t.stale_after_us);
        assert!(windows_of(&outs).is_some(), "first probe fires");
        // In flight: no second probe before the (jittered) timeout.
        let outs = b.handle(Input::Tick, t.stale_after_us + t.sync_timeout_us - 1);
        assert!(windows_of(&outs).is_none());
        // Timed out: the probe re-arms within the jitter window
        // (timeout .. timeout + timeout/4) at poll granularity.
        let mut now = t.stale_after_us + t.sync_timeout_us;
        let deadline = t.stale_after_us + t.sync_timeout_us + t.sync_timeout_us / 4;
        let mut fired = false;
        while now <= deadline + t.poll_every_us {
            if windows_of(&b.handle(Input::Tick, now)).is_some() {
                fired = true;
                break;
            }
            now += t.poll_every_us;
        }
        assert!(fired, "timed-out probe re-arms inside the jitter window");
        assert_eq!(b.recovery_counters().sync_requests, 2);
        assert_eq!(b.status().sync_timeouts, 1, "the dead probe was counted");
    }

    #[test]
    fn identical_endpoints_desynchronize_their_probe_schedules() {
        // Regression (probe-storm fix): endpoints with identical timing
        // and identical stimulus must not share one probe schedule —
        // after a heal, synchronized quiescence probes arrive as a
        // request storm. The jitter is pure state, so the schedule is
        // still deterministic per endpoint id.
        let t = timing();
        let schedule = |id: usize| -> Vec<u64> {
            let mut e = endpoint(id, &[0, 1]);
            let mut probes = Vec::new();
            let mut now = t.stale_after_us;
            for _ in 0..400 {
                if windows_of(&e.handle(Input::Tick, now)).is_some() {
                    probes.push(now);
                    let _ = e.handle(
                        Input::SyncResponse {
                            messages: Vec::new(),
                            config: ClusterConfig::genesis(space()),
                        },
                        now + 1,
                    );
                }
                now += t.poll_every_us;
            }
            probes
        };
        let schedules: Vec<Vec<u64>> = (0..4).map(schedule).collect();
        assert!(schedules.iter().all(|s| s.len() >= 3), "every endpoint probes");
        assert!(
            schedules.windows(2).any(|w| w[0] != w[1]),
            "identically configured endpoints must not probe in lockstep: {schedules:?}"
        );
        assert_eq!(schedule(2), schedules[2], "per-id schedules are deterministic");
    }

    #[test]
    fn unanswered_probes_surface_peer_unreachable() {
        let mut b = endpoint(1, &[1, 2]);
        let t = timing();
        let mut now = t.stale_after_us;
        // Nobody ever answers: timeouts accumulate into the verdict.
        while !b.status().peer_unreachable {
            let _ = b.handle(Input::Tick, now);
            now += t.poll_every_us;
            assert!(now < 10_000_000, "unreachable verdict must arrive");
        }
        assert!(b.status().sync_timeouts >= UNREACHABLE_AFTER);
        // One answered probe — even an empty one — clears it.
        let _ = b.handle(
            Input::SyncResponse { messages: Vec::new(), config: ClusterConfig::genesis(space()) },
            now,
        );
        assert!(!b.status().peer_unreachable);
        assert_eq!(b.status().sync_timeouts, 0);
    }

    #[test]
    fn resume_rebuilds_from_persisted_snapshot_and_wal() {
        // A shell persists the snapshot and the WAL mark; `resume` must
        // rebuild the same post-restore state an in-process crash does.
        let t = timing();
        let mut a = endpoint(0, &[0, 1]);
        let _ = a.handle(Input::Broadcast("1"), 10);
        let _ = a.handle(Input::Tick, t.snapshot_every_us); // cut snapshot at seq 1
        let _ = a.handle(Input::Broadcast("2"), t.snapshot_every_us + 10);
        let _ = a.handle(Input::Broadcast("3"), t.snapshot_every_us + 20);
        let snapshot = a.stable_snapshot().cloned();
        let wal = a.durable_seq();
        assert_eq!(wal, 3);

        // "kill -9": a brand-new endpoint from the persisted pieces.
        let mut r = Endpoint::resume(
            ProcessId::new(0),
            KeySet::from_entries(space(), &[0, 1]).unwrap(),
            PcbConfig::default(),
            Some(t),
            snapshot,
            wal,
        );
        assert!(r.crashed(), "resume starts in the crashed state");
        let outs = r.handle(Input::Restore, t.snapshot_every_us + 100);
        assert!(!r.crashed());
        assert_eq!(r.recovery_counters().snapshot_restores, 1);
        assert!(windows_of(&outs).is_some(), "restore probes for what it missed");
        let m = frames(&r.handle(Input::Broadcast("4"), t.snapshot_every_us + 200)).remove(0);
        assert_eq!(m.id().seq(), 4, "stamp heights continue past the kill");
    }

    #[test]
    fn crashed_endpoint_is_deaf_until_restore() {
        let mut a = endpoint(0, &[0, 1]);
        let mut b = endpoint(1, &[1, 2]);
        let t = timing();

        // Deliver one message, then cut a snapshot.
        let m = frames(&a.handle(Input::Broadcast("pre"), 10)).remove(0);
        let _ = b.handle(Input::FrameReceived(m), 20);
        let outs = b.handle(Input::Tick, t.snapshot_every_us);
        assert!(outs.iter().any(|o| matches!(o, Output::SnapshotReady { .. })));
        assert_eq!(b.recovery_counters().snapshots_taken, 1);

        assert!(b.handle(Input::Crash, t.snapshot_every_us + 10).is_empty());
        assert!(b.crashed());
        let m2 = frames(&a.handle(Input::Broadcast("during"), t.snapshot_every_us + 20)).remove(0);
        assert!(
            b.handle(Input::FrameReceived(m2), t.snapshot_every_us + 30).is_empty(),
            "crashed endpoint drops frames"
        );
        let outs = b.handle(Input::Tick, t.snapshot_every_us + 40);
        assert_eq!(outs.len(), 1, "only the tick chain survives a crash");
        assert!(matches!(outs[0], Output::ScheduleTick { .. }));

        let outs = b.handle(Input::Restore, t.snapshot_every_us + 1_000);
        assert_eq!(b.recovery_counters().snapshot_restores, 1);
        assert!(!b.crashed());
        assert_eq!(b.stats().delivered, 1, "snapshot preserved the pre-crash delivery");
        assert!(windows_of(&outs).is_some(), "restore probes for what it missed");
    }

    #[test]
    fn restore_replays_the_send_wal() {
        let mut a = endpoint(0, &[0, 1]);
        let t = timing();
        // Snapshot at seq 1, then two more sends that outlive the crash
        // only through the WAL.
        let _ = a.handle(Input::Broadcast("1"), 10);
        let _ = a.handle(Input::Tick, t.snapshot_every_us);
        let _ = a.handle(Input::Broadcast("2"), t.snapshot_every_us + 10);
        let _ = a.handle(Input::Broadcast("3"), t.snapshot_every_us + 20);
        let _ = a.handle(Input::Crash, t.snapshot_every_us + 30);
        let _ = a.handle(Input::Restore, t.snapshot_every_us + 40);
        let m = frames(&a.handle(Input::Broadcast("4"), t.snapshot_every_us + 50)).remove(0);
        assert_eq!(m.id().seq(), 4, "stamp heights continue past the crash");
    }

    #[test]
    fn crash_before_first_snapshot_restarts_from_zero() {
        let mut b = endpoint(1, &[1, 2]);
        let _ = b.handle(Input::Crash, 10);
        let _ = b.handle(Input::Restore, 20);
        assert_eq!(b.recovery_counters().snapshot_restores, 0, "nothing durable yet");
        assert_eq!(b.stats().delivered, 0);
        assert!(!b.crashed());
    }

    #[test]
    fn restore_tags_counters_with_a_fresh_incarnation() {
        // Regression: status counters were cumulative across crashes, so
        // post-restore rates were polluted by pre-crash counts. The
        // status must carry the incarnation counter plus
        // incarnation-relative counters that restart at the restore.
        let mut a = endpoint(0, &[0, 1]);
        let mut b = endpoint(1, &[1, 2]);
        let t = timing();

        let m1 = frames(&a.handle(Input::Broadcast("1"), 10)).remove(0);
        let m2 = frames(&a.handle(Input::Broadcast("2"), 20)).remove(0);
        let _ = b.handle(Input::FrameReceived(m1), 30);
        let _ = b.handle(Input::FrameReceived(m2), 40);
        let _ = b.handle(Input::Tick, t.snapshot_every_us); // durable snapshot
        let pre = b.status();
        assert_eq!(pre.incarnation, 0);
        assert_eq!(pre.stats.delivered, 2);
        assert_eq!(pre.incarnation_stats.delivered, 2, "first incarnation sees everything");

        let _ = b.handle(Input::Crash, t.snapshot_every_us + 10);
        let _ = b.handle(Input::Restore, t.snapshot_every_us + 20);
        let post = b.status();
        assert_eq!(post.incarnation, 1, "restore bumps the incarnation");
        assert_eq!(post.stats.delivered, 2, "lifetime counters keep history");
        assert_eq!(post.incarnation_stats.delivered, 0, "incarnation counters restart clean");
        assert_eq!(
            post.incarnation_recovery.sync_requests, 1,
            "the restore's catch-up probe is the new incarnation's first action"
        );

        let m3 = frames(&a.handle(Input::Broadcast("3"), t.snapshot_every_us + 30)).remove(0);
        let _ = b.handle(Input::FrameReceived(m3), t.snapshot_every_us + 40);
        let after = b.status();
        assert_eq!(after.stats.delivered, 3);
        assert_eq!(after.incarnation_stats.delivered, 1, "only this incarnation's delivery counts");
    }

    #[test]
    fn estimators_surface_health_without_perturbing_outputs() {
        let cfg = PcbConfig { estimators: true, ..PcbConfig::default() };
        let mk = |id: usize, entries: &[usize], cfg: PcbConfig| {
            Endpoint::<&'static str>::new(
                ProcessId::new(id),
                KeySet::from_entries(space(), entries).unwrap(),
                cfg,
                Some(timing()),
            )
        };
        let mut a = mk(0, &[0, 1], cfg.clone());
        let mut b_est = mk(1, &[1, 2], cfg);
        let mut b_plain = mk(1, &[1, 2], PcbConfig::default());

        let mut outs_est = Vec::new();
        let mut outs_plain = Vec::new();
        for i in 0..20u64 {
            let m = frames(&a.handle(Input::Broadcast("x"), 10 + i)).remove(0);
            outs_est.extend(b_est.handle(Input::FrameReceived(m.clone()), 20 + i));
            outs_plain.extend(b_plain.handle(Input::FrameReceived(m), 20 + i));
        }
        // Observation-only: identical outputs with estimators on or off.
        assert_eq!(format!("{outs_est:?}"), format!("{outs_plain:?}"));

        let s = b_est.status();
        assert_eq!(s.x_samples, 20);
        // Serial traffic from one sender has zero concurrent overshoot.
        assert_eq!(s.x_hat, 0.0);
        assert_eq!(s.predicted_p_error, 0.0);
        let heatmap = s.heatmap.expect("estimators expose the heatmap");
        assert_eq!(heatmap.total_hits(), 40, "20 deliveries × K=2 entries");
        assert!(b_plain.status().heatmap.is_none(), "disabled path stays free");

        // A restore re-applies the estimators from local config even
        // though the wire snapshot does not carry the knob.
        let _ = b_est.handle(Input::Crash, 100);
        let _ = b_est.handle(Input::Restore, 110);
        let s = b_est.status();
        assert!(s.heatmap.is_some(), "estimators survive restore");
        assert_eq!(s.x_samples, 0, "estimator window restarts with the incarnation");
    }

    #[test]
    fn backwards_clock_is_clamped_not_obeyed() {
        // Regression: timer arithmetic used `saturating_sub`, so a shell
        // clock that jumped backwards read as "age zero" and silently
        // re-armed ticks/snapshots in the past. The clamp pins `now_us`
        // to the high-water mark instead.
        let mut a = endpoint(0, &[0, 1]);
        let outs = a.handle(Input::Tick, 6_000);
        assert!(outs.iter().any(|o| matches!(o, Output::SnapshotReady { at_us: 6_000 })));
        assert!(windows_of(&outs).is_some(), "idle past stale_after: probe fires");
        assert!(outs
            .iter()
            .any(|o| matches!(o, Output::ScheduleTick { at_us } if *at_us == 6_000 + 250)));
        let (snapshots, probes) =
            (a.recovery_counters().snapshots_taken, a.recovery_counters().sync_requests);

        // The shell's clock rewinds to zero. Every deadline must behave
        // as if it were still 6_000.
        let outs = a.handle(Input::Tick, 0);
        assert!(
            outs.iter()
                .all(|o| matches!(o, Output::ScheduleTick { at_us } if *at_us == 6_000 + 250)),
            "rewound tick must not reschedule into the past: {outs:?}"
        );
        assert_eq!(a.recovery_counters().snapshots_taken, snapshots, "no snapshot re-fire");
        assert_eq!(a.recovery_counters().sync_requests, probes, "no probe storm");
    }

    #[test]
    fn zero_timeouts_still_make_strict_progress() {
        // All-zero timing is degenerate but must not wedge the tick
        // chain into firing at the same instant forever.
        let zero = RecoveryTimingUs {
            stale_after_us: 0,
            poll_every_us: 0,
            store_window_us: 0,
            snapshot_every_us: 0,
            sync_timeout_us: 0,
        };
        let mut a = Endpoint::<&str>::new(
            ProcessId::new(0),
            KeySet::from_entries(space(), &[0, 1]).unwrap(),
            PcbConfig::default(),
            Some(zero),
        );
        let mut now = 5;
        for _ in 0..8 {
            let outs = a.handle(Input::Tick, now);
            let at = outs
                .iter()
                .find_map(|o| match o {
                    Output::ScheduleTick { at_us } => Some(*at_us),
                    _ => None,
                })
                .expect("tick chain alive");
            assert!(at > now, "zero poll interval must still move time forward");
            now = at;
        }
        assert!(a.recovery_counters().sync_requests > 1, "zero sync timeout re-arms probes");
    }

    #[test]
    fn reconfigure_fences_sends_and_drains_old_epoch_stragglers() {
        // Online R→R' growth mid-traffic: a new-epoch message blocked on
        // an old-epoch dependency waits in the new pending queue until
        // the straggler arrives, drains through the retained old-epoch
        // process, and is folded into the new clock.
        let next = ClusterConfig::genesis(space()).reconfigured(KeySpace::new(8, 2).unwrap());
        let mut c = endpoint(2, &[2, 3]);
        let mut a = endpoint(0, &[0, 1]);
        let mut b = endpoint(1, &[1, 2]);

        let m1 = frames(&c.handle(Input::Broadcast("m1"), 10)).remove(0);
        assert_eq!(m1.epoch(), 0, "genesis sends carry epoch 0");
        let _ = a.handle(Input::FrameReceived(m1.clone()), 20);
        let _ = a.handle(Input::Reconfigure(next), 30);
        let _ = b.handle(Input::Reconfigure(next), 30);
        assert_eq!(a.status().config_epoch, 1);
        assert_eq!(b.keys().space().r(), 8, "keys migrated into the new space");

        let m2 = frames(&a.handle(Input::Broadcast("m2"), 40)).remove(0);
        assert_eq!(m2.epoch(), 1, "post-reconfigure sends are fenced on the new epoch");
        let outs = b.handle(Input::FrameReceived(m2), 50);
        assert!(!outs.iter().any(|o| matches!(o, Output::Deliver(_))));
        assert_eq!(b.pending_len(), 1, "m2 waits on its cross-epoch dependency");

        // The old-epoch straggler routes to the drain and unblocks m2.
        let outs = b.handle(Input::FrameReceived(m1.clone()), 60);
        let delivered: Vec<_> = outs
            .iter()
            .filter_map(|o| match o {
                Output::Deliver(d) => Some(*d.message.payload()),
                _ => None,
            })
            .collect();
        assert_eq!(delivered, ["m1", "m2"], "drain first, then the unblocked new-epoch message");
        let status = b.status();
        assert_eq!(status.stats.delivered, 2);
        assert_eq!(status.draining, 0);
        assert_eq!(status.cross_epoch_refused, 0);

        // A re-fetched copy of the straggler is deduplicated by the drain.
        let outs = b.handle(Input::FrameReceived(m1), 70);
        assert!(!outs.iter().any(|o| matches!(o, Output::Deliver(_))));
        assert_eq!(b.status().stats.delivered, 2);
    }

    #[test]
    fn unknown_epoch_frames_are_refused_and_recovered_by_catchup_sync() {
        // A frame from a *future* config epoch is refused exactly like a
        // delta with a missing base — dropped, state untouched — and the
        // probe it triggers brings back both the new config and the
        // refused messages.
        let next = ClusterConfig::genesis(space()).reconfigured(space());
        let mut a = endpoint(0, &[0, 1]);
        let mut b = endpoint(1, &[1, 2]);
        let _ = a.handle(Input::Reconfigure(next), 10);
        let m = frames(&a.handle(Input::Broadcast("x"), 20)).remove(0);
        assert_eq!(m.epoch(), 1);

        let outs = b.handle(Input::FrameReceived(m.clone()), 2_000);
        assert!(!outs.iter().any(|o| matches!(o, Output::Deliver(_))), "refused, not delivered");
        assert_eq!(b.status().cross_epoch_refused, 1);
        assert_eq!(b.stats().delivered, 0, "refusal leaves state untouched");
        let windows = windows_of(&outs).expect("a future-epoch refusal fires an immediate probe");

        let reply = a.handle(Input::SyncRequest { from: b.id(), windows }, 2_100);
        let Some(Output::SyncReply { messages, config, .. }) =
            reply.iter().find(|o| matches!(o, Output::SyncReply { .. }))
        else {
            panic!("expected SyncReply, got {reply:?}");
        };
        assert_eq!(config.epoch, 1, "the reply piggybacks the newer config");

        let outs =
            b.handle(Input::SyncResponse { messages: messages.clone(), config: *config }, 2_200);
        assert_eq!(b.status().config_epoch, 1, "catch-up reconfigure applied");
        assert!(
            outs.iter().any(|o| matches!(o, Output::Deliver(d) if *d.message.payload() == "x")),
            "the refused message delivers after the catch-up: {outs:?}"
        );
    }

    #[test]
    fn wrong_geometry_frames_are_refused_not_a_panic() {
        // A current-epoch frame from an (8, 2) process reaching a (100, 4)
        // endpoint used to abort it on the guard's length assertion; a key
        // set from a foreign space of the right R indexed the clock with
        // the wrong K. Both are refused in `route`, on every way in.
        let paper = KeySpace::new(100, 4).unwrap();
        let mut b: Endpoint<Bytes> = Endpoint::new(
            ProcessId::new(0),
            KeySet::from_set_id(paper, 7).unwrap(),
            PcbConfig::default(),
            Some(timing()),
        );
        let foreign = |r: usize, k: usize| {
            let keys = KeySet::from_set_id(KeySpace::new(r, k).unwrap(), 3).unwrap();
            PcbProcess::new(ProcessId::new(1), keys).broadcast(Bytes::from_static(b"x"))
        };
        let (short, wrong_k) = (foreign(8, 2), foreign(100, 3));
        // What the store serves a peer that knows nothing.
        let served = |b: &mut Endpoint<Bytes>, now_us| {
            let reply =
                b.handle(Input::SyncRequest { from: ProcessId::new(5), windows: vec![] }, now_us);
            reply
                .iter()
                .find_map(|o| match o {
                    Output::SyncReply { messages, .. } => {
                        Some(messages.iter().map(|m| (m.id(), m.timestamp().clone())).collect())
                    }
                    _ => None,
                })
                .unwrap_or_else(Vec::new)
        };
        let own = frames(&b.handle(Input::Broadcast(Bytes::from_static(b"own")), 5)).remove(0);
        let before = b.status();
        let served_before = served(&mut b, 6);
        assert_eq!(served_before, [(own.id(), own.timestamp().clone())]);

        for refused in [&short, &wrong_k] {
            let outs = b.handle_wire(crate::wire::encode_full(refused), 10).expect("decodes");
            assert!(!outs.iter().any(|o| matches!(o, Output::Deliver(_))));
        }
        let _ = b.handle(Input::FrameReceived(wrong_k.clone()), 20);
        let _ = b.handle(
            Input::SyncResponse {
                messages: vec![short, wrong_k],
                config: ClusterConfig::genesis(paper),
            },
            30,
        );

        let after = b.status();
        assert_eq!(after.geometry_refused, 5);
        assert_eq!(after.cross_epoch_refused, 0);
        assert_eq!(after.stats, before.stats, "refusal leaves the protocol state untouched");
        assert_eq!((after.pending, after.clock), (before.pending, before.clock));
        // A refused frame is not retained: the store, and so what peers
        // are served from it, is what it was.
        assert_eq!(b.store().len(), 1);
        assert_eq!(served(&mut b, 40), served_before);

        // And it shadows nothing: the genuine message with the refused
        // frames' id (sender 1, seq 1) is stored with its own stamp.
        let genuine = PcbProcess::new(ProcessId::new(1), KeySet::from_set_id(paper, 3).unwrap())
            .broadcast(Bytes::from_static(b"x"));
        let outs = b.handle_wire(crate::wire::encode_full(&genuine), 50).expect("decodes");
        assert!(outs.iter().any(|o| matches!(o, Output::Deliver(_))));
        assert_eq!(b.store().get(genuine.id()).unwrap().timestamp(), genuine.timestamp());
    }

    #[test]
    fn stable_frontier_prunes_the_store_and_the_stable_copy_and_never_falls() {
        let t = timing();
        let mut a = endpoint(0, &[0, 1]);
        let mut b = endpoint(1, &[1, 2]);
        let sent: Vec<_> =
            (0..4).map(|i| frames(&a.handle(Input::Broadcast("m"), 10 + i)).remove(0)).collect();
        for (i, m) in sent.iter().enumerate() {
            let _ = b.handle(Input::FrameReceived(m.clone()), 20 + i as u64);
        }
        let _ = b.handle(Input::Tick, t.snapshot_every_us);
        assert_eq!(b.stable_snapshot().expect("snapshot cut").store.len(), 4);
        assert_eq!((b.status().store_retained, b.status().frontier_lag), (4, 4));

        let _ = b.handle(Input::StableFrontier(vec![2]), t.snapshot_every_us + 1);
        assert_eq!(b.store().len(), 2);
        assert_eq!(b.stable_snapshot().unwrap().store.len(), 2);
        assert_eq!((b.status().store_retained, b.status().frontier_lag), (2, 2));
        // A lower entry, and one for a sender nobody heard of, change nothing.
        let _ = b.handle(Input::StableFrontier(vec![1, 0, 9]), t.snapshot_every_us + 2);
        assert_eq!(b.store().len(), 2);
        // What left is still a duplicate, not a new message.
        let outs = b.handle(Input::FrameReceived(sent[0].clone()), t.snapshot_every_us + 3);
        assert!(!outs.iter().any(|o| matches!(o, Output::Deliver(_))));
        // The restore path rebuilds the store from the pruned stable copy.
        let _ = b.handle(Input::Crash, t.snapshot_every_us + 4);
        let _ = b.handle(Input::Restore, t.snapshot_every_us + 5);
        let kept: Vec<u64> = b.store().iter().map(|m| m.id().seq()).collect();
        assert_eq!(kept, [3, 4]);
    }

    #[test]
    fn status_rows_are_one_valid_table() {
        let page = |status: &EndpointStatus| {
            let mut w = pcb_telemetry::PromWriter::new();
            w.rows("pcb_node_", &[("0".into(), status.rows())]);
            w.into_text()
        };
        let mut b = endpoint(0, &[0, 1]);
        let fresh = b.status();
        let names: std::collections::HashSet<_> = fresh.rows().iter().map(|r| r.name).collect();
        assert_eq!(names.len(), fresh.rows().len(), "row names are unique");
        // `validate` rejects any family whose name is not a legal metric name.
        pcb_telemetry::validate(&page(&fresh)).expect("fresh page parses");

        let foreign = KeySet::from_set_id(KeySpace::new(8, 2).unwrap(), 3).unwrap();
        let short = PcbProcess::new(ProcessId::new(1), foreign).broadcast("x");
        let _ = b.handle(Input::FrameReceived(short), 10);
        let text = page(&b.status());
        pcb_telemetry::validate(&text).expect("page parses after a refusal");
        assert!(text.contains("pcb_node_geometry_refused_total{node=\"0\"} 1\n"), "{text}");
    }

    #[test]
    fn join_grant_bootstraps_a_newcomer_at_the_sponsors_causal_floor() {
        let t = timing();
        let mut a = endpoint(0, &[0, 1]);
        let m1 = frames(&a.handle(Input::Broadcast("m1"), 10)).remove(0);
        let m2 = frames(&a.handle(Input::Broadcast("m2"), 20)).remove(0);

        let grant =
            a.join_grant(ProcessId::new(7), KeySet::from_entries(space(), &[2, 3]).unwrap());
        let mut c = Endpoint::join(grant, PcbConfig::default(), Some(t));
        assert_eq!(c.id(), ProcessId::new(7));
        assert_eq!(c.status().config_epoch, 0);
        assert_eq!(c.stats().delivered, 0, "sponsor history is not the newcomer's delivery");

        // Pre-join history is known, not wanted: the first probe's
        // windows already cover the sponsor's messages.
        let outs = c.handle(Input::Tick, t.stale_after_us);
        let windows = windows_of(&outs).expect("idle probe");
        assert!(holds(&windows, &[m1.id(), m2.id()]), "history inherited");

        // Traffic causally after the join point delivers immediately.
        let m3 = frames(&a.handle(Input::Broadcast("m3"), 30)).remove(0);
        let outs = c.handle(Input::FrameReceived(m3), t.stale_after_us + 10);
        assert!(outs
            .iter()
            .any(|o| matches!(o, Output::Deliver(d) if *d.message.payload() == "m3")));

        // And the newcomer's own sends start at seq 1 and deliver at the
        // sponsor (whose clock dominates the join floor).
        let mc = frames(&c.handle(Input::Broadcast("hello"), t.stale_after_us + 20)).remove(0);
        assert_eq!(mc.id().seq(), 1);
        let outs = a.handle(Input::FrameReceived(mc), t.stale_after_us + 30);
        assert!(outs
            .iter()
            .any(|o| matches!(o, Output::Deliver(d) if *d.message.payload() == "hello")));
    }

    #[test]
    fn input_join_adopts_the_grant_and_survives_an_immediate_crash() {
        let mut a = endpoint(0, &[0, 1]);
        let m1 = frames(&a.handle(Input::Broadcast("m1"), 10)).remove(0);
        let m2 = frames(&a.handle(Input::Broadcast("m2"), 20)).remove(0);

        // A placeholder endpoint (the shell pre-allocated the slot) is
        // rebuilt wholesale by the input form of the join.
        let keys = KeySet::from_entries(space(), &[2, 3]).unwrap();
        let grant = a.join_grant(ProcessId::new(7), keys);
        let mut c = endpoint(7, &[0, 1]);
        let outs = c.handle(Input::Join(Box::new(grant)), 1_000);
        assert!(
            outs.iter().any(|o| matches!(o, Output::ScheduleTick { .. })),
            "adoption restarts the tick chain: {outs:?}"
        );
        assert_eq!(c.id(), ProcessId::new(7));
        assert_eq!(c.stats().delivered, 0, "sponsor history is not the newcomer's delivery");

        // Crash before the first periodic snapshot: the join floor is
        // durable, so the restore lands back at the grant, not genesis —
        // the sponsor's history stays known and never re-delivers.
        let _ = c.handle(Input::Crash, 1_010);
        let outs = c.handle(Input::Restore, 1_020);
        let windows = windows_of(&outs).expect("restore fires the catch-up probe");
        assert!(holds(&windows, &[m1.id(), m2.id()]), "floor survived the crash");
        assert!(c.handle(Input::FrameReceived(m1), 1_040).is_empty(), "pre-floor frame is dedup'd");

        // Post-join traffic flows both ways.
        let m3 = frames(&a.handle(Input::Broadcast("m3"), 30)).remove(0);
        let outs = c.handle(Input::FrameReceived(m3), 1_050);
        assert!(outs
            .iter()
            .any(|o| matches!(o, Output::Deliver(d) if *d.message.payload() == "m3")));
        let mc = frames(&c.handle(Input::Broadcast("hello"), 1_060)).remove(0);
        assert_eq!(mc.id().seq(), 1);
        let outs = a.handle(Input::FrameReceived(mc), 1_070);
        assert!(outs
            .iter()
            .any(|o| matches!(o, Output::Deliver(d) if *d.message.payload() == "hello")));
    }

    #[test]
    fn leave_is_terminal_silence() {
        let mut a = endpoint(0, &[0, 1]);
        let mut b = endpoint(1, &[1, 2]);
        let m = frames(&a.handle(Input::Broadcast("x"), 10)).remove(0);
        assert!(b.handle(Input::Leave, 20).is_empty());
        assert!(b.status().left);
        assert!(b.handle(Input::FrameReceived(m), 30).is_empty(), "departed drops frames");
        assert!(b.handle(Input::Tick, 40).is_empty(), "no tick chain after leave");
        assert!(b.handle(Input::Broadcast("y"), 50).is_empty(), "no sends after leave");
        assert!(b.handle(Input::Restore, 60).is_empty(), "leave is not restorable");
        assert!(b.status().left);
        assert_eq!(b.stats().delivered, 0);
    }

    #[test]
    fn snapshot_mid_reconfiguration_restores_the_drain() {
        // Crash with an unfinished old-epoch drain: the snapshot carries
        // the prev-epoch keys and clock, and the restored endpoint still
        // drains stragglers and unblocks their new-epoch dependents.
        let t = timing();
        let next = ClusterConfig::genesis(space()).reconfigured(KeySpace::new(8, 2).unwrap());
        let mut c = endpoint(2, &[2, 3]);
        let mut a = endpoint(0, &[0, 1]);
        let mut b = endpoint(1, &[1, 2]);

        let m1 = frames(&c.handle(Input::Broadcast("m1"), 10)).remove(0);
        let _ = a.handle(Input::FrameReceived(m1.clone()), 20);
        let _ = a.handle(Input::Reconfigure(next), 30);
        let _ = b.handle(Input::Reconfigure(next), 30);
        let m2 = frames(&a.handle(Input::Broadcast("m2"), 40)).remove(0);

        // Snapshot lands mid-reconfiguration (drain still alive), then
        // the process dies and comes back.
        let _ = b.handle(Input::Tick, t.snapshot_every_us);
        let _ = b.handle(Input::Crash, t.snapshot_every_us + 10);
        let _ = b.handle(Input::Restore, t.snapshot_every_us + 20);
        assert_eq!(b.status().config_epoch, 1, "the snapshot preserved the config plane");

        let outs = b.handle(Input::FrameReceived(m2), t.snapshot_every_us + 30);
        assert!(!outs.iter().any(|o| matches!(o, Output::Deliver(_))));
        let outs = b.handle(Input::FrameReceived(m1), t.snapshot_every_us + 40);
        let delivered: Vec<_> = outs
            .iter()
            .filter_map(|o| match o {
                Output::Deliver(d) => Some(*d.message.payload()),
                _ => None,
            })
            .collect();
        assert_eq!(delivered, ["m1", "m2"], "the restored drain still absorbs stragglers");
    }

    #[test]
    fn restore_into_an_older_config_epoch_refetches_through_catchup() {
        // Regression companion to the PR 6 DeltaDecoder reset fix: a
        // process whose last snapshot predates a reconfiguration restores
        // into the *old* epoch, refuses the new epoch's frames, and must
        // converge via the config-carrying anti-entropy path — never by
        // misinterpreting new-geometry timestamps in the old space.
        let t = timing();
        let next = ClusterConfig::genesis(space()).reconfigured(space());
        let mut a = endpoint(0, &[0, 1]);
        let mut b = endpoint(1, &[1, 2]);

        let _ = b.handle(Input::Tick, t.snapshot_every_us); // snapshot at epoch 0
        let _ = a.handle(Input::Reconfigure(next), t.snapshot_every_us + 10);
        let _ = b.handle(Input::Reconfigure(next), t.snapshot_every_us + 10);
        let m = frames(&a.handle(Input::Broadcast("x"), t.snapshot_every_us + 20)).remove(0);

        let _ = b.handle(Input::Crash, t.snapshot_every_us + 30);
        let outs = b.handle(Input::Restore, t.snapshot_every_us + 40);
        assert_eq!(b.status().config_epoch, 0, "restored into the pre-reconfigure epoch");
        let windows = windows_of(&outs).expect("restore probes for what it missed");

        let refused = b.handle(Input::FrameReceived(m.clone()), t.snapshot_every_us + 50);
        assert!(!refused.iter().any(|o| matches!(o, Output::Deliver(_))));
        assert!(b.status().cross_epoch_refused >= 1);

        let reply =
            a.handle(Input::SyncRequest { from: b.id(), windows }, t.snapshot_every_us + 60);
        let Some(Output::SyncReply { messages, config, .. }) =
            reply.iter().find(|o| matches!(o, Output::SyncReply { .. }))
        else {
            panic!("expected SyncReply, got {reply:?}");
        };
        let outs = b.handle(
            Input::SyncResponse { messages: messages.clone(), config: *config },
            t.snapshot_every_us + 70,
        );
        assert_eq!(b.status().config_epoch, 1);
        assert!(outs
            .iter()
            .any(|o| matches!(o, Output::Deliver(d) if *d.message.payload() == "x")));
    }
}
