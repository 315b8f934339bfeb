//! Endpoint-driven chaos engine: fault plans interpreted around the
//! **production** protocol state machine.
//!
//! Fault-plan runs do not use the lean [`crate::engine`] disciplines.
//! Instead every simulated process hosts a real
//! [`pcb_broadcast::Endpoint`] — the same sans-IO state machine every
//! `pcb-daemon` process runs — and this module is nothing but a
//! discrete-event *shell* around it. The shell owns exactly three things:
//!
//! 1. **Event scheduling** — endpoint [`Output`]s become heap events
//!    (frame arrivals with sampled latency, sync request/response legs,
//!    tick chains), and heap events become endpoint [`Input`]s.
//! 2. **Fault interpretation** — crash/recover flips liveness, partitions
//!    cut frames at *arrival* time, link-fault windows corrupt, drop,
//!    reorder, and duplicate frames on the wire.
//! 3. **Oracles** — the exact causal checker, the paper's ε-estimator,
//!    and the true vector clocks live outside the protocol, checkpointed
//!    whenever the endpoint reports [`Output::SnapshotReady`] and rolled
//!    back (plus send-WAL replay) on recovery, mirroring what the
//!    endpoint itself does durably.
//!
//! All anti-entropy policy — when to probe, the quiescence backoff, sync
//! timeouts, snapshot cadence, dedup, WAL replay — is the endpoint's own.
//! The chaos certificates therefore apply to the code that serves live
//! traffic, not to a simulator-private reimplementation of it.

use std::time::Instant;

use pcb_broadcast::endpoint::{Input, Output};
use pcb_broadcast::{
    Counters, Delivery, Endpoint, Message, MessageId, PcbConfig, RecoveryTimingUs, SeenWindows,
};
use pcb_clock::{AssignmentPolicy, ClusterConfig, KeyAssigner, KeySet, KeySpace, ProcessId};
use pcb_telemetry::{TraceEvent, TraceRecord};

use crate::config::SimConfig;
use crate::engine::{ms_to_us, SimError, MICROS_PER_MS};
use crate::fault::{FaultKind, FaultPlan, LinkFaults};
use crate::metrics::RunMetrics;
use crate::oracle::{EpsilonEstimator, EpsilonOutcome, ExactChecker};
use crate::rng::SimRng;
use crate::wheel::EventQueue;

/// Everything a chaos run did to its endpoints, captured for differential
/// replay: the exact per-node [`Input`] log (with virtual timestamps),
/// the construction parameters needed to rebuild identical endpoints, and
/// the observable outcome the replay must reproduce bit-identically.
pub struct ChaosRecord {
    /// The run's aggregate metrics.
    pub metrics: RunMetrics,
    /// Recovery timing the endpoints were built with.
    pub timing: RecoveryTimingUs,
    /// Per-process key sets (index = process id).
    pub keys: Vec<KeySet>,
    /// Protocol configuration the endpoints were built with.
    pub pcb_config: PcbConfig,
    /// Chronological input log: `(now_us, node, input)` for every input
    /// fed to any endpoint.
    pub inputs: Vec<(u64, u32, Input<u32>)>,
    /// Per-node delivery digest, in delivery order:
    /// `(id, instant_alert, recent_alert)`.
    pub deliveries: Vec<Vec<(MessageId, bool, bool)>>,
    /// Per-node recovery counters at the end of the run.
    pub counters: Vec<Counters>,
    /// Per-node trace as each endpoint emitted it, drained after every
    /// input by [`drain_node_trace`] (empty unless
    /// [`SimConfig::trace_capacity`] is set). `Delivered` records keep the
    /// endpoint's own `violation: false`: no oracle verdict is patched in.
    pub traces: Vec<Vec<(u64, TraceRecord)>>,
}

/// Moves `ep`'s freshly emitted trace records onto `trace`, each paired
/// with the endpoint's incarnation at drain time. Draining after every
/// input keeps the records in emission order and out of the ring's
/// drop-oldest policy; any shell that drains its endpoints this way
/// reproduces the simulator's per-node traces.
pub fn drain_node_trace(ep: &mut Endpoint<u32>, trace: &mut Vec<(u64, TraceRecord)>) {
    let incarnation = ep.incarnation();
    trace.extend(ep.drain_trace().into_iter().map(|record| (incarnation, record)));
}

/// Runs `config` (which must carry a fault plan) with every process
/// hosted by a production [`Endpoint`]; returns metrics plus the merged
/// lifecycle trace (empty unless [`SimConfig::trace_capacity`] is set).
///
/// # Errors
///
/// [`SimError::InvalidConfig`] for bad parameters (including a missing
/// fault plan), [`SimError::Assignment`] if key assignment fails.
pub fn simulate_endpoint_chaos(
    config: &SimConfig,
    space: KeySpace,
    policy: AssignmentPolicy,
) -> Result<(RunMetrics, Vec<TraceRecord>), SimError> {
    let (metrics, trace, _) = run(config, space, policy, false)?;
    Ok((metrics, trace))
}

/// [`simulate_endpoint_chaos`] that additionally records the full input
/// log, delivery digests and per-node traces for the differential
/// harness.
///
/// # Errors
///
/// See [`simulate_endpoint_chaos`].
pub fn record_endpoint_chaos(
    config: &SimConfig,
    space: KeySpace,
    policy: AssignmentPolicy,
) -> Result<ChaosRecord, SimError> {
    let (metrics, _, record) = run(config, space, policy, true)?;
    Ok(record
        .map(|mut r| {
            r.metrics = metrics;
            r
        })
        .expect("recording was requested"))
}

enum Kind {
    /// Process `p`'s Poisson send chain fires.
    Send { p: u32 },
    /// Arena message `msg` arrives at `p`.
    Frame { p: u32, msg: u32 },
    /// `from`'s sync request (with its dedup windows) arrives at `p`.
    SyncReq { p: u32, from: u32, windows: SeenWindows },
    /// `from`'s sync reply (messages plus its cluster config) arrives
    /// back at requester `p`.
    SyncResp { p: u32, from: u32, messages: Vec<Message<u32>>, config: ClusterConfig },
    /// The endpoint's self-scheduled recovery tick.
    Tick { p: u32 },
    /// The `idx`-th fault-plan event fires.
    Fault { idx: u32 },
}

/// Arena record of one broadcast: the frame itself (kept alive for link
/// duplicates and late arrivals) plus the oracle's ground truth.
struct MsgRec {
    sender: u32,
    seq: u32,
    sent_at: u64,
    measured: bool,
    message: Message<u32>,
    tvc: Box<[u32]>,
}

/// Oracle state checkpointed at [`Output::SnapshotReady`] — the shadow of
/// the endpoint's own durable snapshot.
#[derive(Clone)]
struct OracleCp {
    true_vc: Vec<u32>,
    sent: u32,
    exact: Option<ExactChecker>,
    eps: Option<EpsilonEstimator>,
}

/// One simulated process: the production endpoint plus the shell's
/// liveness flag and measurement instrumentation (never protocol state).
struct Shadow {
    ep: Endpoint<u32>,
    /// False while crashed; the shell stops routing traffic to it.
    active: bool,
    /// Whether this slot is (or ever was) a cluster member: true from run
    /// start for the initial `n`, flipped by a [`FaultKind::Join`] for
    /// newcomers. Never-joined slots are invisible to the cluster.
    joined: bool,
    /// Gracefully departed ([`FaultKind::Leave`]): terminally out of the
    /// membership, unlike a crash.
    left: bool,
    /// Whether a Send event for this process is still in the heap (a
    /// crash orphans the chain; recovery must restart it exactly once).
    send_chain: bool,
    true_vc: Vec<u32>,
    /// Mirror of the endpoint's send WAL: sequence numbers survive
    /// crashes, so the oracle replays `cp.sent + 1..=sent_count` own
    /// sends after a rollback exactly as the endpoint replays its WAL.
    sent_count: u32,
    exact: Option<ExactChecker>,
    eps: Option<EpsilonEstimator>,
    cp: Option<OracleCp>,
    /// Exact-checker verdict per delivery, in delivery order — used to
    /// patch the endpoint-emitted `Delivered` trace records (the endpoint
    /// cannot know ground truth).
    violations: Vec<bool>,
    /// Delivery digests for the differential harness (recording only).
    digests: Vec<(MessageId, bool, bool)>,
    /// The endpoint's trace, drained after every input (recording only).
    trace: Vec<(u64, TraceRecord)>,
}

struct Driver<'c> {
    cfg: &'c SimConfig,
    plan: &'c FaultPlan,
    procs: Vec<Shadow>,
    msgs: Vec<MsgRec>,
    queue: EventQueue<Kind>,
    /// Workload stream: send intervals and frame latencies.
    rng: SimRng,
    /// Fault stream: link-fault coin flips and sync-leg latencies —
    /// derived separately so faults never perturb the workload.
    chaos_rng: SimRng,
    metrics: RunMetrics,
    /// Current partition group per process (all equal when healed).
    group_of: Vec<u32>,
    /// Link-fault rates in force, if a window is open.
    link: Option<LinkFaults>,
    /// Global anti-entropy peer rotation, so successive probes (from any
    /// process) fan out over different peers.
    sync_round: u64,
    /// The cluster configuration in force (the config plane's view);
    /// bumped by [`FaultKind::Reconfigure`] events.
    cluster: ClusterConfig,
    /// Pre-assigned key set per slot, from the genesis assigner's single
    /// `assign_n(n_total)` pass. Joins in the genesis epoch hand the slot
    /// its pre-assigned set — under `RoundRobin` this keeps the spread
    /// contiguous, so the vector discipline stays exact through joins.
    slot_keys: Vec<KeySet>,
    /// Draws key sets for joiners after a reconfiguration (the slot keys
    /// are from the dead space by then); re-seeded (`join_seed ^ epoch`)
    /// on every reconfiguration, mirroring `Group::reconfigure`.
    join_assigner: KeyAssigner,
    /// Base seed for `join_assigner` re-derivation across epochs.
    join_seed: u64,
    policy: AssignmentPolicy,
    timing: RecoveryTimingUs,
    duration_us: u64,
    warmup_us: u64,
    /// Ticks stop here: past the send cutoff plus enough sync rounds for
    /// post-heal convergence.
    horizon_us: u64,
    log: Option<Vec<(u64, u32, Input<u32>)>>,
}

impl Driver<'_> {
    fn push(&mut self, time: u64, kind: Kind) {
        self.queue.push(time, kind);
    }

    /// Whether slot `q` is currently in the membership (joined, has not
    /// left; a crashed member still counts — it will come back).
    fn member(&self, q: usize) -> bool {
        let sh = &self.procs[q];
        sh.joined && !sh.left
    }

    /// Feeds one input to `p`'s endpoint (logging it when recording) and
    /// routes every resulting output.
    fn feed(&mut self, p: u32, input: Input<u32>, now: u64) {
        if let Some(log) = &mut self.log {
            log.push((now, p, input.clone()));
        }
        let outputs = self.procs[p as usize].ep.handle(input, now);
        for output in outputs {
            self.route(p, output, now);
        }
        if self.log.is_some() {
            let sh = &mut self.procs[p as usize];
            drain_node_trace(&mut sh.ep, &mut sh.trace);
        }
    }

    fn route(&mut self, p: u32, output: Output<u32>, now: u64) {
        match output {
            Output::Deliver(d) => self.on_deliver(p, &d, now),
            Output::SendFrame(m) => self.fan_out(p, m, now),
            Output::RequestSync { windows } => {
                // Peer choice is the shell's: rotate globally so repeated
                // probes cover the whole cluster. Slots outside the
                // membership (never joined, or gracefully left) are
                // skipped — probing them would be wasted by construction;
                // crashed members still get probed (and lose the request)
                // exactly as a live shell would. Without churn every slot
                // is a member and the rotation is the classic one.
                let n = self.procs.len();
                let offset = 1 + (self.sync_round as usize % (n - 1));
                self.sync_round += 1;
                let mut q = (p as usize + offset) % n;
                let mut tries = 0;
                while tries < n && (q == p as usize || !self.member(q)) {
                    q = (q + 1) % n;
                    tries += 1;
                }
                if q == p as usize || !self.member(q) {
                    return; // no other member to probe
                }
                let at = now + self.sync_leg_us();
                self.push(at, Kind::SyncReq { p: q as u32, from: p, windows });
            }
            Output::SyncReply { to, messages, config } => {
                let at = now + self.sync_leg_us();
                self.push(at, Kind::SyncResp { p: to.index_u32(), from: p, messages, config });
            }
            Output::ScheduleTick { at_us } => {
                if at_us <= self.horizon_us {
                    self.push(at_us, Kind::Tick { p });
                }
            }
            // Alerts are counted per delivery (and traced by the
            // endpoint itself); nothing to route.
            Output::Alert { .. } => {}
            Output::SnapshotReady { .. } => {
                // Checkpoint the oracle shadow in lockstep with the
                // endpoint's durable snapshot.
                let sh = &mut self.procs[p as usize];
                sh.cp = Some(OracleCp {
                    true_vc: sh.true_vc.clone(),
                    sent: sh.sent_count,
                    exact: sh.exact.clone(),
                    eps: sh.eps.clone(),
                });
            }
        }
    }

    /// Classifies one delivery against the oracles and records metrics.
    fn on_deliver(&mut self, p: u32, d: &Delivery<u32>, now: u64) {
        let midx = *d.message.payload() as usize;
        let sh = &mut self.procs[p as usize];
        let rec = &self.msgs[midx];
        let tvc = &rec.tvc;
        let violation = match &mut sh.exact {
            Some(exact) => exact.deliver(rec.sender as usize, rec.seq, tvc),
            None => false,
        };
        let eps_outcome = sh.eps.as_mut().map(|eps| eps.deliver(rec.sender as usize, tvc));
        for (mine, &theirs) in sh.true_vc.iter_mut().zip(tvc.iter()) {
            *mine = (*mine).max(theirs);
        }
        sh.violations.push(violation);
        if self.log.is_some() {
            sh.digests.push((d.message.id(), d.instant_alert, d.recent_alert));
        }
        if rec.measured {
            self.metrics.deliveries += 1;
            self.metrics.exact_violations += u64::from(violation);
            self.metrics.alg4_alerts += u64::from(d.instant_alert);
            self.metrics.alg5_alerts += u64::from(d.recent_alert);
            self.metrics.undetected_violations += u64::from(violation && !d.instant_alert);
            match eps_outcome {
                Some(EpsilonOutcome::Wrong) => {
                    self.metrics.eps_min += 1;
                    self.metrics.eps_max += 1;
                }
                Some(EpsilonOutcome::Stale) => self.metrics.eps_max += 1,
                _ => {}
            }
            self.metrics.delay_ms.push((now - rec.sent_at) as f64 / MICROS_PER_MS);
            self.metrics.blocking_ms.push(d.blocked_for as f64 / MICROS_PER_MS);
        }
    }

    /// Registers a freshly stamped frame in the arena and schedules its
    /// arrival at every live peer, applying any open link-fault window.
    fn fan_out(&mut self, p: u32, message: Message<u32>, now: u64) {
        let midx = self.msgs.len() as u32;
        debug_assert_eq!(*message.payload(), midx, "payload is the arena index");
        let measured = now >= self.warmup_us;
        if measured {
            self.metrics.sent += 1;
            self.metrics.control_bytes += message.control_overhead() as u64;
        }
        self.msgs.push(MsgRec {
            sender: p,
            seq: message.id().seq() as u32,
            sent_at: now,
            measured,
            tvc: self.procs[p as usize].true_vc.clone().into_boxed_slice(),
            message,
        });
        let d_ms = self.sample_base_delay_ms();
        for q in 0..self.procs.len() as u32 {
            if q == p || !self.procs[q as usize].active {
                continue;
            }
            let mut arrive = now + self.link_delay_us(d_ms);
            if let Some(link) = self.link {
                if self.chaos_rng.uniform_open() < link.corrupt {
                    // The wire checksum catches it; frame discarded.
                    self.metrics.corrupted_frames += 1;
                    continue;
                }
                if self.chaos_rng.uniform_open() < link.drop {
                    self.metrics.link_dropped += 1;
                    continue;
                }
                if self.chaos_rng.uniform_open() < link.reorder {
                    arrive += ms_to_us(link.reorder_extra_ms);
                }
                if self.chaos_rng.uniform_open() < link.dup {
                    let copy_at = arrive + ms_to_us(link.reorder_extra_ms.max(1.0));
                    self.push(copy_at, Kind::Frame { p: q, msg: midx });
                }
            }
            self.push(arrive, Kind::Frame { p: q, msg: midx });
        }
    }

    /// Per-message base delay `d` (ms) under the configured distribution
    /// shape, moment-matched to `(μ, σ)`.
    fn sample_base_delay_ms(&mut self) -> f64 {
        use crate::config::LatencyDistribution::{Bimodal, Gaussian, LogNormal, Uniform};
        let mu = self.cfg.latency_mean_ms;
        let sigma = self.cfg.latency_sigma_ms;
        let floor = self.cfg.latency_floor_ms;
        match self.cfg.latency_distribution {
            Gaussian => self.rng.normal_clamped(mu, sigma, floor),
            Uniform => self.rng.uniform_matched(mu, sigma).max(floor),
            LogNormal => self.rng.lognormal_matched(mu, sigma).max(floor),
            Bimodal => {
                let cluster_mu = if self.rng.uniform_open() < 0.5 { mu * 0.5 } else { mu * 1.5 };
                self.rng.normal_clamped(cluster_mu, sigma, floor)
            }
        }
    }

    /// Per-receiver link delay in microseconds around base `d_ms`.
    fn link_delay_us(&mut self, d_ms: f64) -> u64 {
        let delay =
            self.rng.normal_clamped(d_ms, self.cfg.skew_sigma_ms, self.cfg.latency_floor_ms);
        ms_to_us(delay)
    }

    /// One leg (request or reply) of a sync exchange, from the fault
    /// stream so anti-entropy timing never perturbs the workload.
    fn sync_leg_us(&mut self) -> u64 {
        let delay = self.chaos_rng.normal_clamped(
            self.cfg.latency_mean_ms,
            self.cfg.latency_sigma_ms,
            self.cfg.latency_floor_ms,
        );
        ms_to_us(delay)
    }

    fn schedule_next_send(&mut self, p: u32, now: u64) {
        let next =
            now + self.rng.exponential(self.cfg.mean_send_interval_ms * MICROS_PER_MS) as u64;
        self.procs[p as usize].send_chain = next <= self.duration_us;
        if next <= self.duration_us {
            self.push(next, Kind::Send { p });
        }
    }

    fn handle_send(&mut self, p: u32, now: u64) {
        if !self.procs[p as usize].active {
            // The chain dies here; a recovery must restart it.
            self.procs[p as usize].send_chain = false;
            return;
        }
        self.schedule_next_send(p, now);
        // Own sends belong to the sender's causal past without ever being
        // delivered to it; tell the oracles *before* the broadcast so the
        // arena record captures the post-send true vector clock.
        let sh = &mut self.procs[p as usize];
        sh.sent_count += 1;
        let seq = sh.sent_count;
        sh.true_vc[p as usize] += 1;
        if let Some(exact) = &mut sh.exact {
            exact.record(p as usize, seq);
        }
        if let Some(eps) = &mut sh.eps {
            eps.record_own_send(p as usize);
        }
        let midx = self.msgs.len() as u32;
        self.feed(p, Input::Broadcast(midx), now);
    }

    fn handle_frame(&mut self, p: u32, msg: u32, now: u64) {
        if !self.procs[p as usize].active {
            return;
        }
        // Partition semantics: a frame is cut if sender and receiver are
        // in different groups when it *arrives* (in-flight frames are
        // lost at partition onset; anti-entropy re-fetches them).
        let sender = self.msgs[msg as usize].sender as usize;
        if self.group_of[sender] != self.group_of[p as usize] {
            self.metrics.partition_dropped += 1;
            return;
        }
        let frame = self.msgs[msg as usize].message.clone();
        self.feed(p, Input::FrameReceived(frame), now);
        self.metrics.pending_peak =
            self.metrics.pending_peak.max(self.procs[p as usize].ep.pending_len());
    }

    fn handle_sync_req(&mut self, p: u32, from: u32, windows: SeenWindows, now: u64) {
        // Requests to crashed or partitioned peers are lost; the
        // requester's sync timeout re-arms the probe.
        if !self.procs[p as usize].active
            || self.group_of[p as usize] != self.group_of[from as usize]
        {
            return;
        }
        self.feed(p, Input::SyncRequest { from: ProcessId::new(from as usize), windows }, now);
    }

    fn handle_sync_resp(
        &mut self,
        p: u32,
        from: u32,
        messages: Vec<Message<u32>>,
        config: ClusterConfig,
        now: u64,
    ) {
        if !self.procs[p as usize].active
            || self.group_of[p as usize] != self.group_of[from as usize]
        {
            return;
        }
        if !messages.is_empty() {
            self.metrics.last_refetch_ms =
                self.metrics.last_refetch_ms.max(now as f64 / MICROS_PER_MS);
        }
        self.feed(p, Input::SyncResponse { messages, config }, now);
        self.metrics.pending_peak =
            self.metrics.pending_peak.max(self.procs[p as usize].ep.pending_len());
    }

    /// Applies the `idx`-th event of the fault plan.
    fn handle_fault(&mut self, idx: usize, now: u64) {
        match self.plan.events[idx].kind.clone() {
            FaultKind::Crash { node } => {
                if self.procs[node].active {
                    self.procs[node].active = false;
                    self.metrics.crashes += 1;
                    self.feed(node as u32, Input::Crash, now);
                }
            }
            FaultKind::Recover { node } => {
                if !self.procs[node].active {
                    self.rollback_oracles(node);
                    self.procs[node].active = true;
                    self.metrics.recoveries += 1;
                    self.feed(node as u32, Input::Restore, now);
                    if !self.procs[node].send_chain {
                        self.schedule_next_send(node as u32, now);
                    }
                }
            }
            FaultKind::PartitionStart { groups } => {
                let rest = groups.len() as u32;
                for g in &mut self.group_of {
                    *g = rest; // unlisted nodes form one implicit group
                }
                for (gi, members) in groups.iter().enumerate() {
                    for &m in members {
                        self.group_of[m] = gi as u32;
                    }
                }
            }
            FaultKind::PartitionEnd => {
                for g in &mut self.group_of {
                    *g = 0;
                }
            }
            FaultKind::LinkFaultStart { faults } => self.link = Some(faults),
            FaultKind::LinkFaultEnd => self.link = None,
            FaultKind::Join { node, sponsor } => self.handle_join(node, sponsor, now),
            FaultKind::Leave { node } => {
                if self.procs[node].active {
                    self.procs[node].active = false;
                    self.procs[node].left = true;
                    self.metrics.leaves += 1;
                    self.feed(node as u32, Input::Leave, now);
                }
            }
            FaultKind::Reconfigure { r, k } => {
                let space = KeySpace::new(r, k).expect("plan validated the space");
                let next = self.cluster.reconfigured(space);
                self.cluster = next;
                self.join_assigner =
                    KeyAssigner::new(space, self.policy, self.join_seed ^ next.epoch);
                self.metrics.reconfigurations += 1;
                // The config plane announces to every live member; crashed
                // members miss it and converge through the sync-carried
                // config, left/never-joined slots are not members.
                for p in 0..self.procs.len() {
                    if self.procs[p].active {
                        self.feed(p as u32, Input::Reconfigure(next), now);
                    }
                }
            }
        }
    }

    /// Snapshot-assisted join: the sponsor cuts a grant at its causal
    /// floor, the newcomer's endpoint adopts it, and the oracle shadow is
    /// cloned from the sponsor — the grant's snapshot *is* the sponsor's
    /// delivered history, so the newcomer's ground truth starts there.
    fn handle_join(&mut self, node: usize, sponsor: usize, now: u64) {
        if self.procs[node].joined || !self.procs[sponsor].active {
            return; // stale plan event (validate() rejects these up front)
        }
        let keys = if self.cluster.epoch == 0 {
            self.slot_keys[node].clone()
        } else {
            self.join_assigner.next_set().expect("joiner key draw")
        };
        let grant = self.procs[sponsor].ep.join_grant(ProcessId::new(node), keys);
        let (true_vc, exact, eps) = {
            let sp = &self.procs[sponsor];
            (sp.true_vc.clone(), sp.exact.clone(), sp.eps.clone())
        };
        let sh = &mut self.procs[node];
        sh.joined = true;
        sh.active = true;
        sh.true_vc = true_vc;
        sh.exact = exact;
        sh.eps = eps;
        // The join floor is durable (the endpoint persists the grant as
        // its first snapshot); checkpoint the oracle shadow to match, so
        // a crash right after the join rolls back to the floor.
        sh.cp = Some(OracleCp {
            true_vc: sh.true_vc.clone(),
            sent: 0,
            exact: sh.exact.clone(),
            eps: sh.eps.clone(),
        });
        // A newcomer enters its sponsor's side of any open partition (it
        // joined through the sponsor, so that is who it can reach).
        self.group_of[node] = self.group_of[sponsor];
        self.metrics.joins += 1;
        self.feed(node as u32, Input::Join(Box::new(grant)), now);
        if !self.procs[node].send_chain {
            self.schedule_next_send(node as u32, now);
        }
        self.push(now + self.timing.poll_every_us, Kind::Tick { p: node as u32 });
    }

    /// Rolls the oracle shadow back to its last checkpoint (or to genesis
    /// if the crash predated the first snapshot) and replays the own
    /// sends the endpoint's WAL preserved — keeping the ground truth in
    /// lockstep with the endpoint's restore.
    fn rollback_oracles(&mut self, node: usize) {
        let n = self.procs.len();
        let sh = &mut self.procs[node];
        let (mut true_vc, replay_from, mut exact, mut eps) = match sh.cp.clone() {
            Some(cp) => (cp.true_vc, cp.sent, cp.exact, cp.eps),
            None => (
                vec![0u32; n],
                0,
                sh.exact.as_ref().map(|_| ExactChecker::new(n)),
                sh.eps.as_ref().map(|_| EpsilonEstimator::new(n)),
            ),
        };
        for seq in replay_from + 1..=sh.sent_count {
            true_vc[node] += 1;
            if let Some(exact) = &mut exact {
                exact.record(node, seq);
            }
            if let Some(eps) = &mut eps {
                eps.record_own_send(node);
            }
        }
        sh.true_vc = true_vc;
        sh.exact = exact;
        sh.eps = eps;
    }
}

type ChaosRun = (RunMetrics, Vec<TraceRecord>, Option<ChaosRecord>);

/// The shared implementation behind the public entry points.
#[allow(clippy::too_many_lines)]
fn run(
    config: &SimConfig,
    space: KeySpace,
    policy: AssignmentPolicy,
    record: bool,
) -> Result<ChaosRun, SimError> {
    config.validate().map_err(SimError::InvalidConfig)?;
    let Some(plan) = config.faults.as_ref() else {
        return Err(SimError::InvalidConfig("endpoint chaos runs need a fault plan".into()));
    };
    let started = Instant::now();
    let n = config.n;
    // Join events grow the run beyond `n`: allocate (and key) every slot
    // up front so the arena, oracles, and replay record cover them. For
    // plans without joins `n_total == n` and nothing changes.
    let n_total = plan.n_total(n);

    let mut assigner = KeyAssigner::new(space, policy, crate::rng::derive_seed(config.seed, 1));
    let keys: Vec<KeySet> =
        assigner.assign_n(n_total).map_err(|e| SimError::Assignment(e.to_string()))?;

    let duration_us = ms_to_us(config.duration_ms);
    let sync_us = ms_to_us(plan.sync_interval_ms).max(1);
    let timing = RecoveryTimingUs {
        // A pending message (or an idle spell) older than one sync
        // interval triggers a probe — the plan's cadence contract.
        stale_after_us: sync_us,
        poll_every_us: (sync_us / 2).max(1),
        // Chaos stores never evict: a recovering or partitioned peer may
        // need any message re-fetched until the run ends.
        store_window_us: u64::MAX / 2,
        snapshot_every_us: ms_to_us(plan.snapshot_every_ms).max(1),
        sync_timeout_us: 2 * sync_us,
    };
    let pcb_config = PcbConfig {
        recent_window: None,
        trace_capacity: config.trace_capacity,
        estimators: config.estimators,
    };
    // Slots `n..n_total` are pre-allocated placeholders: inactive, not
    // members, endpoints rebuilt wholesale by `Input::Join` when their
    // plan event fires (the placeholder's keys are never used).
    let procs: Vec<Shadow> = (0..n_total)
        .map(|i| Shadow {
            ep: Endpoint::new(ProcessId::new(i), keys[i].clone(), pcb_config.clone(), Some(timing)),
            active: i < n,
            joined: i < n,
            left: false,
            send_chain: false,
            true_vc: vec![0u32; n_total],
            sent_count: 0,
            exact: config.track_exact.then(|| ExactChecker::new(n_total)),
            eps: config.track_epsilon.then(|| EpsilonEstimator::new(n_total)),
            cp: None,
            violations: Vec::new(),
            digests: Vec::new(),
            trace: Vec::new(),
        })
        .collect();

    let mut driver = Driver {
        cfg: config,
        plan,
        procs,
        msgs: Vec::new(),
        queue: EventQueue::new(config.scheduler),
        rng: SimRng::new(crate::rng::derive_seed(config.seed, 2)),
        chaos_rng: SimRng::new(crate::rng::derive_seed(config.seed, 3)),
        metrics: RunMetrics::default(),
        group_of: vec![0; n_total],
        link: None,
        sync_round: 0,
        cluster: ClusterConfig::with_policy(space, policy),
        slot_keys: keys.clone(),
        join_assigner: KeyAssigner::new(space, policy, crate::rng::derive_seed(config.seed, 4)),
        join_seed: crate::rng::derive_seed(config.seed, 4),
        policy,
        timing,
        duration_us,
        warmup_us: ms_to_us(config.warmup_ms),
        horizon_us: duration_us + 12 * sync_us,
        log: record.then(Vec::new),
    };

    for p in 0..n as u32 {
        driver.schedule_next_send(p, 0);
    }
    for (idx, ev) in plan.events.iter().enumerate() {
        driver.push(ms_to_us(ev.at_ms), Kind::Fault { idx: idx as u32 });
    }
    // Seed the endpoints' tick chains, staggered so the cluster never
    // probes in lockstep; each endpoint re-arms its own chain from there.
    let poll = timing.poll_every_us;
    for p in 0..n as u32 {
        let first = poll + (u64::from(p) * poll) / n as u64;
        driver.push(first, Kind::Tick { p });
    }

    let mut last_time = 0u64;
    while let Some((time, kind)) = driver.queue.pop() {
        debug_assert!(time >= last_time, "event times must be monotone");
        last_time = time;
        match kind {
            Kind::Send { p } => driver.handle_send(p, time),
            Kind::Frame { p, msg } => driver.handle_frame(p, msg, time),
            Kind::SyncReq { p, from, windows } => driver.handle_sync_req(p, from, windows, time),
            Kind::SyncResp { p, from, messages, config } => {
                driver.handle_sync_resp(p, from, messages, config, time);
            }
            // Ticks reach even crashed endpoints: the tick chain is the
            // shell's timer and survives the crash, exactly as the live
            // runtime's poll loop does.
            Kind::Tick { p } => driver.feed(p, Input::Tick, time),
            Kind::Fault { idx } => driver.handle_fault(idx as usize, time),
        }
    }

    let mut metrics = driver.metrics;
    for sh in &driver.procs {
        // Liveness: nothing may stay blocked at a live process.
        if sh.active {
            metrics.stuck += sh.ep.pending_len() as u64;
        }
        let wake = sh.ep.wakeup_stats();
        metrics.wake_gap_checks += wake.gap_checks;
        metrics.wake_wakeups += wake.wakeups;
        metrics.duplicate_frames += sh.ep.stats().duplicates;
        metrics.recovery.merge(&sh.ep.recovery_counters());
    }
    // Convergence is judged from the oracles (delivery counts would also
    // tally re-deliveries after rollbacks): every process alive at the
    // end must hold every measured message relative to its final state.
    for (pi, sh) in driver.procs.iter().enumerate() {
        if !sh.active {
            continue;
        }
        let exact = sh.exact.as_ref().expect("chaos requires track_exact");
        for rec in driver.msgs.iter().filter(|m| m.measured) {
            if rec.sender as usize != pi && !exact.contains(rec.sender as usize, rec.seq) {
                metrics.undelivered += 1;
            }
        }
    }
    metrics.wall_secs = started.elapsed().as_secs_f64();
    metrics.virtual_ms = last_time as f64 / MICROS_PER_MS;
    if config.estimators {
        // Sample-weighted mean over endpoints; heatmaps merge element-wise.
        let mut weighted = 0.0f64;
        for sh in &driver.procs {
            let st = sh.ep.status();
            weighted += st.x_hat * st.x_samples as f64;
            metrics.x_samples += st.x_samples;
            if let Some(h) = &st.heatmap {
                metrics.heatmap.merge(h);
            }
        }
        if metrics.x_samples > 0 {
            metrics.x_hat = weighted / metrics.x_samples as f64;
            let (r, k) = (space.r(), space.k());
            if metrics.x_hat > 0.0 && r > 0 {
                metrics.predicted_p_error =
                    pcb_analysis::error_model::error_probability(r, k, metrics.x_hat);
            }
        }
    }

    // Merge the endpoint-emitted traces, patching each `Delivered` record
    // with the oracle's verdict. Verdicts align from the END: if a ring
    // overflowed it dropped the *oldest* records, so the tail still
    // matches the tail of the verdict list. A recording run drained its
    // traces after every input, so there is nothing left to merge.
    let mut trace: Vec<TraceRecord> = Vec::new();
    let mut record_out = record.then(|| ChaosRecord {
        metrics: RunMetrics::default(),
        timing: driver.timing,
        keys: keys.clone(),
        pcb_config,
        inputs: driver.log.take().unwrap_or_default(),
        deliveries: Vec::new(),
        counters: Vec::new(),
        traces: Vec::new(),
    });
    for sh in &mut driver.procs {
        let mut t = sh.ep.drain_trace();
        let mut vi = sh.violations.len();
        for r in t.iter_mut().rev() {
            if let TraceEvent::Delivered { violation, .. } = &mut r.event {
                if vi > 0 {
                    vi -= 1;
                    *violation = sh.violations[vi];
                }
            }
        }
        trace.extend(t);
        if let Some(out) = &mut record_out {
            out.deliveries.push(std::mem::take(&mut sh.digests));
            out.counters.push(sh.ep.recovery_counters());
            out.traces.push(std::mem::take(&mut sh.trace));
        }
    }
    trace.sort_by_key(|r| r.time);
    Ok((metrics, trace, record_out))
}
