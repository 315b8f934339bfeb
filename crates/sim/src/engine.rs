//! The discrete-event simulation engine.
//!
//! Reproduces the paper's §5.4 methodology: every process generates
//! messages as a Poisson process (exponential inter-send times), each
//! message draws a propagation delay `d ~ N(μ, σ²)` and each receiver an
//! individual delay `~ N(d, σ_m²)`; receptions enqueue into the ordering
//! discipline's pending buffer and deliveries are classified against the
//! ground-truth oracle. Beyond the paper's model, the engine optionally
//! simulates lossy links with retransmission ([`crate::config::LossModel`]).
//! Membership is static here; churn runs on real `Endpoint` joins through
//! [`crate::chaos`]. All virtual times are in **microseconds**; the engine
//! is fully deterministic for a given [`SimConfig::seed`].

use std::time::Instant;

use pcb_broadcast::Discipline;
use pcb_clock::{AssignmentPolicy, Gap, KeyAssigner, KeySet, KeySpace, ProcessId, StampPool};
use pcb_telemetry::{TraceEvent, TraceRecord, Tracer};

use crate::config::{Dissemination, SimConfig};
use crate::metrics::RunMetrics;
use crate::oracle::{EpsilonEstimator, ExactChecker};
use crate::rng::SimRng;
use crate::wake::{PendingMsg, WakeTable};
use crate::wheel::EventQueue;

/// Errors building or running a simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The configuration failed validation.
    InvalidConfig(String),
    /// Key assignment failed (distinct policy exhausted, bad space).
    Assignment(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InvalidConfig(msg) => write!(f, "invalid simulation config: {msg}"),
            Self::Assignment(msg) => write!(f, "key assignment failed: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}

pub(crate) const MICROS_PER_MS: f64 = 1000.0;

pub(crate) fn ms_to_us(ms: f64) -> u64 {
    (ms * MICROS_PER_MS).round() as u64
}

#[derive(Debug, PartialEq, Eq)]
enum EvKind {
    Send { p: u32 },
    Recv { p: u32, msg: u32 },
}

struct MsgRec<S> {
    sender: u32,
    seq: u32,
    sent_at: u64,
    measured: bool,
    targets: u32,
    delivered_to: u32,
    stamp: Option<S>,
    tvc: Option<Box<[u32]>>,
}

struct Proc<D> {
    disc: D,
    /// Entry-indexed pending set: received messages parked on the wake
    /// channel they are blocked on (see [`crate::wake`]).
    wake: WakeTable,
    true_vc: Vec<u32>,
    sent_count: u32,
    exact: Option<ExactChecker>,
    eps: Option<EpsilonEstimator>,
    seen: Option<Vec<u64>>,
    tracer: Tracer,
    /// Online causal-health estimators (X̂ + entry heatmap); `None`
    /// unless `SimConfig::estimators` — the disabled path costs one
    /// branch per delivery.
    health: Option<Box<pcb_telemetry::CausalHealth>>,
}

impl<D> Proc<D> {
    fn saw(&mut self, msg: u32) -> bool {
        let bits = self.seen.as_mut().expect("seen bitmap in gossip mode");
        let (word, bit) = ((msg / 64) as usize, msg % 64);
        if bits.len() <= word {
            bits.resize(word + 1, 0);
        }
        let already = bits[word] & (1 << bit) != 0;
        bits[word] |= 1 << bit;
        already
    }
}

struct Engine<'c, D: Discipline> {
    cfg: &'c SimConfig,
    keys: Vec<KeySet>,
    procs: Vec<Proc<D>>,
    msgs: Vec<MsgRec<D::Stamp>>,
    queue: EventQueue<EvKind>,
    /// Recycled stamp buffers: fully delivered messages return their
    /// timestamp storage here and `stamp_send_pooled` reuses it, so the
    /// steady-state direct path stamps without allocating.
    stamp_pool: StampPool,
    /// Free message-record slots (direct dissemination only: gossip keys
    /// its dedup bitmap by slot index).
    free_msgs: Vec<u32>,
    /// Scratch: channels advanced by the delivery being drained. Lives
    /// here (not on `drain`'s stack) so steady state reuses its storage.
    scratch_advanced: Vec<usize>,
    /// Scratch: waiters woken by one channel advance, same rationale.
    scratch_woken: Vec<(u64, u32, u64)>,
    rng: SimRng,
    metrics: RunMetrics,
    gossip_fanout: Option<usize>,
    track_truth: bool,
    duration_us: u64,
    warmup_us: u64,
}

impl<D: Discipline + Clone> Engine<'_, D> {
    fn push(&mut self, time: u64, kind: EvKind) {
        self.queue.push(time, kind);
    }

    fn schedule_next_send(&mut self, p: u32, now: u64) {
        let next =
            now + self.rng.exponential(self.cfg.mean_send_interval_ms * MICROS_PER_MS) as u64;
        if next <= self.duration_us {
            self.push(next, EvKind::Send { p });
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

    /// Link delay in microseconds around base `d_ms`, including the
    /// lossy-link retransmission penalty when configured.
    fn link_delay_us(&mut self, d_ms: f64) -> u64 {
        let delay =
            self.rng.normal_clamped(d_ms, self.cfg.skew_sigma_ms, self.cfg.latency_floor_ms);
        let mut us = ms_to_us(delay);
        if let Some(loss) = self.cfg.loss {
            while self.rng.uniform_open() < loss.drop_probability {
                us += ms_to_us(loss.retransmit_ms);
            }
        }
        us
    }

    fn handle_send(&mut self, p: u32, now: u64) {
        let pi = p as usize;
        self.schedule_next_send(p, now);

        // Algorithm 1: stamp and broadcast.
        let proc = &mut self.procs[pi];
        proc.sent_count += 1;
        let seq = proc.sent_count;
        if self.track_truth {
            proc.true_vc[pi] += 1;
        }
        // A process's own sends belong to its causal past without ever
        // being delivered to it; tell the oracles.
        if let Some(exact) = &mut proc.exact {
            exact.record(pi, seq);
        }
        if let Some(eps) = &mut proc.eps {
            eps.record_own_send(pi);
        }
        let stamp = proc.disc.stamp_send_pooled(&mut self.stamp_pool);
        let tvc = self.track_truth.then(|| proc.true_vc.clone().into_boxed_slice());
        let measured = now >= self.warmup_us;
        if measured {
            self.metrics.sent += 1;
            self.metrics.control_bytes += D::stamp_wire_size(&stamp) as u64;
        }
        let targets = self.procs.len() as u32 - 1;
        {
            let keys = &self.keys[pi];
            let key_vals =
                self.procs[pi].tracer.enabled().then(|| D::stamp_key_values(&stamp, keys));
            self.procs[pi].tracer.emit_at(now, || TraceEvent::Sent {
                sender: p,
                seq: u64::from(seq),
                keys: keys.entries().to_vec(),
                key_vals: key_vals.unwrap_or_default(),
            });
        }
        let rec = MsgRec {
            sender: p,
            seq,
            sent_at: now,
            measured,
            targets,
            delivered_to: 0,
            stamp: Some(stamp),
            tvc,
        };
        let midx = match self.free_msgs.pop() {
            Some(slot) => {
                self.msgs[slot as usize] = rec;
                slot
            }
            None => {
                let slot = self.msgs.len() as u32;
                self.msgs.push(rec);
                slot
            }
        };

        match self.gossip_fanout {
            None => {
                // Reliable broadcast: one delivery per other process.
                let d = self.sample_base_delay_ms();
                for q in 0..self.procs.len() as u32 {
                    if q == p {
                        continue;
                    }
                    let delay = self.link_delay_us(d);
                    self.push(now + delay, EvKind::Recv { p: q, msg: midx });
                }
            }
            Some(fanout) => {
                self.procs[pi].saw(midx);
                self.relay(pi, midx, now, fanout);
            }
        }
    }

    fn relay(&mut self, from: usize, msg: u32, now: u64, fanout: usize) {
        let n = self.procs.len();
        for _ in 0..fanout {
            // Uniform peer other than the relayer (repeats across picks
            // are allowed: real gossip targets are sampled with
            // replacement).
            let mut q = self.rng.index(n - 1);
            if q >= from {
                q += 1;
            }
            let delay = self.sample_base_delay_ms();
            self.push(now + ms_to_us(delay), EvKind::Recv { p: q as u32, msg });
        }
    }

    fn handle_recv(&mut self, p: u32, msg: u32, now: u64) {
        let pi = p as usize;
        if let Some(fanout) = self.gossip_fanout {
            if self.procs[pi].saw(msg) {
                if self.msgs[msg as usize].measured {
                    self.metrics.duplicates += 1;
                }
                return;
            }
            self.relay(pi, msg, now, fanout);
        }
        let (sender, seq) = {
            let rec = &self.msgs[msg as usize];
            (rec.sender, u64::from(rec.seq))
        };
        self.procs[pi].tracer.emit_at(now, || TraceEvent::Received { sender, seq });
        let gap = self.wait_gap(pi, msg, 0);
        // With nothing queued ready, a ready arrival is the very message
        // `drain` would pop next: deliver it without the round trip
        // through the ready heap — same order, same counters.
        if gap.is_ready() && self.procs[pi].wake.pass_ready() {
            let held = self.procs[pi].wake.len() + 1;
            self.metrics.pending_peak = self.metrics.pending_peak.max(held);
            self.drain(pi, now, Some((msg, now)));
            return;
        }
        let ticket = self.procs[pi].wake.ticket();
        self.file(pi, gap, ticket, msg, now);
        if let Gap::Blocked { entry, required } = gap {
            self.procs[pi].tracer.emit_at(now, || TraceEvent::Parked {
                sender,
                seq,
                entry: entry as u32,
                threshold: required,
            });
        }
        self.metrics.pending_peak = self.metrics.pending_peak.max(self.procs[pi].wake.len());
        self.drain(pi, now, None);
    }

    /// Asks the discipline where the message blocks, resuming the channel
    /// scan at `start`.
    fn wait_gap(&self, pi: usize, msg: u32, start: usize) -> Gap {
        let rec = &self.msgs[msg as usize];
        let sender = ProcessId::new(rec.sender as usize);
        let stamp = rec.stamp.as_ref().expect("stamp alive while pending");
        self.procs[pi].disc.wait_gap(sender, &self.keys[rec.sender as usize], stamp, start)
    }

    /// Files a verdict in the wake table.
    fn file(&mut self, pi: usize, gap: Gap, ticket: u64, msg: u32, arrived: u64) {
        let wake = &mut self.procs[pi].wake;
        match gap {
            Gap::Ready => wake.make_ready(ticket, msg, arrived),
            Gap::Blocked { entry, required } => wake.park(entry, required, ticket, msg, arrived),
            Gap::Never => wake.kill(msg, arrived),
        }
    }

    /// Re-checks a message from channel `start` on and files the verdict.
    fn classify(&mut self, pi: usize, ticket: u64, msg: u32, arrived: u64, start: usize) {
        let gap = self.wait_gap(pi, msg, start);
        self.file(pi, gap, ticket, msg, arrived);
    }

    /// Delivers everything ready, waking only the waiters parked on the
    /// channels each delivery advanced — `O(actually-unblocked)` per
    /// delivery instead of the old `O(pending)` restart scan. Ready
    /// messages pop in arrival order, so the delivery order is exactly
    /// the legacy scan's.
    fn drain(&mut self, pi: usize, now: u64, first: Option<PendingMsg>) {
        let n = self.procs.len();
        let direct = self.gossip_fanout.is_none();
        // Scratch storage lives on the engine: `drain` runs once per
        // arrival, and a fresh Vec here was one heap allocation per
        // delivery at steady state.
        let mut advanced = std::mem::take(&mut self.scratch_advanced);
        let mut woken = std::mem::take(&mut self.scratch_woken);
        let mut next = first.or_else(|| self.procs[pi].wake.pop_ready());
        while let Some((midx, arrived_at)) = next {
            advanced.clear();
            {
                let rec = &self.msgs[midx as usize];
                let sender = ProcessId::new(rec.sender as usize);
                let stamp = rec.stamp.as_ref().expect("stamp alive while pending");
                self.procs[pi].disc.advanced_channels(
                    sender,
                    &self.keys[rec.sender as usize],
                    stamp,
                    &mut advanced,
                );
            }
            self.deliver(pi, midx, arrived_at, now, n, direct);
            for &channel in &advanced {
                let value = self.procs[pi].disc.channel_value(channel);
                woken.clear();
                self.procs[pi].wake.pop_woken(channel, value, &mut woken);
                for &(ticket, msg, arrived) in &woken {
                    let (sender, seq) = {
                        let rec = &self.msgs[msg as usize];
                        (rec.sender, u64::from(rec.seq))
                    };
                    self.procs[pi].tracer.emit_at(now, || TraceEvent::Woken {
                        sender,
                        seq,
                        entry: channel as u32,
                    });
                    // Resume each waiter's scan at the channel it was
                    // parked on: earlier channels stayed satisfied.
                    self.classify(pi, ticket, msg, arrived, channel);
                }
            }
            next = self.procs[pi].wake.pop_ready();
        }
        self.scratch_advanced = advanced;
        self.scratch_woken = woken;
    }

    fn deliver(&mut self, pi: usize, midx: u32, arrived_at: u64, now: u64, n: usize, direct: bool) {
        let proc = &mut self.procs[pi];
        let rec = &mut self.msgs[midx as usize];
        let sender = ProcessId::new(rec.sender as usize);
        let sender_keys = &self.keys[rec.sender as usize];
        let stamp = rec.stamp.take().expect("stamp alive while pending");
        // Overshoot samples must be taken against the *pre-delivery* clock,
        // so the estimator hook runs before `record_delivery` advances it.
        if let Some(health) = proc.health.as_deref_mut() {
            let vals = D::stamp_key_values(&stamp, sender_keys);
            if !vals.is_empty() {
                let disc = &proc.disc;
                health.observe_delivery(sender_keys.iter().zip(vals).map(|(entry, v)| {
                    let local = disc.channel_value(entry);
                    (entry as u32, local.saturating_sub(v.saturating_sub(1)))
                }));
            }
        }
        let alerts = proc.disc.record_delivery(now, sender, sender_keys, &stamp);

        let mut violation = false;
        if let Some(tvc) = rec.tvc.as_deref() {
            if let Some(exact) = &mut proc.exact {
                violation = exact.deliver(rec.sender as usize, rec.seq, tvc);
            }
            let mut eps_outcome = None;
            if let Some(eps) = &mut proc.eps {
                eps_outcome = Some(eps.deliver(rec.sender as usize, tvc));
            }
            if rec.measured {
                use crate::oracle::EpsilonOutcome;
                match eps_outcome {
                    Some(EpsilonOutcome::Wrong) => {
                        self.metrics.eps_min += 1;
                        self.metrics.eps_max += 1;
                    }
                    Some(EpsilonOutcome::Stale) => self.metrics.eps_max += 1,
                    _ => {}
                }
            }
            // Merge the message's causal knowledge into ours.
            for (mine, &theirs) in proc.true_vc.iter_mut().zip(tvc) {
                *mine = (*mine).max(theirs);
            }
        }

        rec.delivered_to += 1;
        let (ev_sender, ev_seq) = (rec.sender, u64::from(rec.seq));
        let blocked_for = now.saturating_sub(arrived_at);
        proc.tracer.emit_at(now, || TraceEvent::Delivered {
            sender: ev_sender,
            seq: ev_seq,
            blocked_for,
            alert4: alerts.instant,
            alert5: alerts.recent,
            violation,
        });
        // `suspects` approximates the in-flight concurrency X an operator
        // sees at alert time: the local pending backlog.
        let suspects = proc.wake.len() as u32;
        if alerts.instant {
            proc.tracer.emit_at(now, || TraceEvent::Alert {
                alg: 4,
                sender: ev_sender,
                seq: ev_seq,
                suspects,
            });
        }
        if alerts.recent {
            proc.tracer.emit_at(now, || TraceEvent::Alert {
                alg: 5,
                sender: ev_sender,
                seq: ev_seq,
                suspects,
            });
        }
        if rec.measured {
            self.metrics.deliveries += 1;
            self.metrics.exact_violations += u64::from(violation);
            self.metrics.alg4_alerts += u64::from(alerts.instant);
            self.metrics.alg5_alerts += u64::from(alerts.recent);
            self.metrics.undetected_violations += u64::from(violation && !alerts.instant);
            self.metrics.delay_ms.push((now - rec.sent_at) as f64 / MICROS_PER_MS);
            self.metrics.blocking_ms.push((now - arrived_at) as f64 / MICROS_PER_MS);
        }
        // Free the arena slot once everyone has it (direct mode): the
        // stamp buffer returns to the pool for the next `stamp_send`, and
        // the record slot itself is recycled.
        if direct && rec.delivered_to >= rec.targets {
            rec.tvc = None;
            D::recycle_stamp(stamp, &mut self.stamp_pool);
            self.free_msgs.push(midx);
        } else {
            rec.stamp = Some(stamp);
        }
        let _ = n;
    }
}

/// Runs one simulation, constructing each process's discipline with
/// `make(id, keys)`.
///
/// The discipline's `record_delivery` receives the virtual time in
/// microseconds, so Algorithm 5 windows must be specified in microseconds.
///
/// # Errors
///
/// [`SimError::InvalidConfig`] for bad parameters,
/// [`SimError::Assignment`] if key assignment fails.
pub fn simulate<D, F>(config: &SimConfig, space: KeySpace, make: F) -> Result<RunMetrics, SimError>
where
    D: Discipline + Clone,
    F: FnMut(ProcessId, KeySet) -> D,
{
    simulate_traced(config, space, make).map(|(metrics, _)| metrics)
}

/// [`simulate`] that also returns the collected lifecycle trace: every
/// process's ring drained at run end, globally ordered by virtual time
/// (ties keep per-node emission order — the sort is stable over the
/// node-order concatenation). Empty unless
/// [`SimConfig::trace_capacity`] is non-zero.
///
/// # Errors
///
/// See [`simulate`].
pub fn simulate_traced<D, F>(
    config: &SimConfig,
    space: KeySpace,
    mut make: F,
) -> Result<(RunMetrics, Vec<TraceRecord>), SimError>
where
    D: Discipline + Clone,
    F: FnMut(ProcessId, KeySet) -> D,
{
    config.validate().map_err(SimError::InvalidConfig)?;
    if config.faults.is_some() {
        return Err(SimError::InvalidConfig(
            "fault plans run through the endpoint chaos engine \
             (crate::chaos::simulate_endpoint_chaos, or the simulate_prob / \
             simulate_vector fronts), not the discipline engine"
                .into(),
        ));
    }
    let started = Instant::now();
    let n = config.n;
    let track_truth = config.track_exact || config.track_epsilon;
    let gossip_fanout = match config.dissemination {
        Dissemination::Direct => None,
        Dissemination::Gossip { fanout } => Some(fanout.min(n - 1)),
    };

    let mut assigner =
        KeyAssigner::new(space, config.policy, crate::rng::derive_seed(config.seed, 1));
    let keys: Vec<KeySet> =
        assigner.assign_n(n).map_err(|e| SimError::Assignment(e.to_string()))?;

    let procs: Vec<Proc<D>> = (0..n)
        .map(|i| {
            let disc = make(ProcessId::new(i), keys[i].clone());
            let wake = WakeTable::new(disc.channel_count());
            Proc {
                disc,
                wake,
                true_vc: if track_truth { vec![0u32; n] } else { Vec::new() },
                sent_count: 0,
                exact: config.track_exact.then(|| ExactChecker::new(n)),
                eps: config.track_epsilon.then(|| EpsilonEstimator::new(n)),
                seen: gossip_fanout.is_some().then(Vec::new),
                tracer: Tracer::ring(i as u32, config.trace_capacity),
                health: config.estimators.then(|| {
                    Box::new(pcb_telemetry::CausalHealth::new(
                        keys[i].space().r() as u32,
                        keys[i].entries().len() as u32,
                    ))
                }),
            }
        })
        .collect();

    let mut engine = Engine {
        cfg: config,
        keys,
        procs,
        msgs: Vec::new(),
        queue: EventQueue::new(config.scheduler),
        stamp_pool: StampPool::new(),
        free_msgs: Vec::new(),
        scratch_advanced: Vec::new(),
        scratch_woken: Vec::new(),
        rng: SimRng::new(crate::rng::derive_seed(config.seed, 2)),
        metrics: RunMetrics::default(),
        gossip_fanout,
        track_truth,
        duration_us: ms_to_us(config.duration_ms),
        warmup_us: ms_to_us(config.warmup_ms),
    };

    for p in 0..n as u32 {
        engine.schedule_next_send(p, 0);
    }

    let mut last_time = 0u64;
    while let Some((time, kind)) = engine.queue.pop() {
        debug_assert!(time >= last_time, "event times must be monotone");
        last_time = time;
        match kind {
            EvKind::Send { p } => engine.handle_send(p, time),
            EvKind::Recv { p, msg } => engine.handle_recv(p, msg, time),
        }
    }

    let mut metrics = engine.metrics;
    // Liveness accounting (Lemma 1: zero under direct dissemination with
    // static membership).
    metrics.stuck = engine
        .procs
        .iter()
        .flat_map(|pr| pr.wake.pending_msgs())
        .filter(|(m, _)| engine.msgs[*m as usize].measured)
        .count() as u64;
    for pr in &engine.procs {
        metrics.wake_gap_checks += pr.wake.stats().gap_checks;
        metrics.wake_wakeups += pr.wake.stats().wakeups;
    }
    metrics.stamp_pool_hits = engine.stamp_pool.stats().hits;
    metrics.stamp_pool_misses = engine.stamp_pool.stats().misses;
    metrics.undelivered = engine
        .msgs
        .iter()
        .filter(|m| m.measured)
        .map(|m| u64::from(m.targets.saturating_sub(m.delivered_to)))
        .sum();
    metrics.wall_secs = started.elapsed().as_secs_f64();
    metrics.virtual_ms = last_time as f64 / MICROS_PER_MS;
    if config.estimators {
        // Sample-weighted mean over processes, so idle nodes don't dilute
        // the estimate; heatmaps merge element-wise.
        let mut weighted = 0.0f64;
        for pr in &engine.procs {
            if let Some(health) = pr.health.as_deref() {
                weighted += health.x_hat() * health.samples() as f64;
                metrics.x_samples += health.samples();
                metrics.heatmap.merge(health.heatmap());
            }
        }
        if metrics.x_samples > 0 {
            metrics.x_hat = weighted / metrics.x_samples as f64;
            let (r, k) = (engine.keys[0].space().r(), engine.keys[0].entries().len());
            if metrics.x_hat > 0.0 && r > 0 {
                metrics.predicted_p_error =
                    pcb_analysis::error_model::error_probability(r, k, metrics.x_hat);
            }
        }
    }
    let mut trace: Vec<TraceRecord> = Vec::new();
    for pr in &mut engine.procs {
        trace.extend(pr.tracer.drain());
    }
    trace.sort_by_key(|r| r.time);
    Ok((metrics, trace))
}

/// Convenience: simulate the paper's probabilistic discipline over `space`.
///
/// Configurations carrying a fault plan run through the endpoint chaos
/// engine ([`crate::chaos`]): every process is hosted by the production
/// [`pcb_broadcast::Endpoint`] rather than a lean discipline.
///
/// # Errors
///
/// See [`simulate`].
pub fn simulate_prob(config: &SimConfig, space: KeySpace) -> Result<RunMetrics, SimError> {
    simulate_prob_traced(config, space).map(|(metrics, _)| metrics)
}

/// Convenience: [`simulate_traced`] over the paper's probabilistic
/// discipline (fault plans dispatch to [`crate::chaos`], see
/// [`simulate_prob`]).
///
/// # Errors
///
/// See [`simulate`].
pub fn simulate_prob_traced(
    config: &SimConfig,
    space: KeySpace,
) -> Result<(RunMetrics, Vec<TraceRecord>), SimError> {
    if config.faults.is_some() {
        return crate::chaos::simulate_endpoint_chaos(config, space, config.policy);
    }
    simulate_traced(config, space, |_, keys| pcb_broadcast::ProbDiscipline::new(keys))
}

/// Convenience: probabilistic discipline with the Algorithm 5 detector
/// (window in milliseconds, converted to engine microseconds).
///
/// # Errors
///
/// See [`simulate`].
pub fn simulate_prob_detecting(
    config: &SimConfig,
    space: KeySpace,
    window_ms: f64,
) -> Result<RunMetrics, SimError> {
    let window_us = ms_to_us(window_ms);
    simulate(config, space, |_, keys| pcb_broadcast::DetectingProbDiscipline::new(keys, window_us))
}

/// Convenience: the exact vector-clock baseline.
///
/// Fault plans dispatch to the endpoint chaos engine with the full
/// per-process key space — `(R, K) = (N, 1)` distinct entries behave
/// exactly like a vector clock, so the certified code path is still the
/// production [`pcb_broadcast::Endpoint`].
///
/// # Errors
///
/// See [`simulate`].
pub fn simulate_vector(config: &SimConfig) -> Result<RunMetrics, SimError> {
    let n = config.n;
    if let Some(plan) = &config.faults {
        // Size the space to every slot the plan can join, so newcomers
        // get their own distinct entry and the baseline stays exact
        // through churn.
        let n_total = plan.n_total(n);
        let space =
            KeySpace::vector(n_total).map_err(|e| SimError::InvalidConfig(e.to_string()))?;
        return crate::chaos::simulate_endpoint_chaos(config, space, AssignmentPolicy::RoundRobin)
            .map(|(metrics, _)| metrics);
    }
    let space = KeySpace::new(1, 1).expect("trivial space");
    simulate(config, space, |id, _| pcb_broadcast::VectorDiscipline::new(id, n))
}

/// Convenience: FIFO-only ordering baseline.
///
/// # Errors
///
/// See [`simulate`].
pub fn simulate_fifo(config: &SimConfig) -> Result<RunMetrics, SimError> {
    let space = KeySpace::new(1, 1).expect("trivial space");
    let n = config.n;
    simulate(config, space, |_, _| pcb_broadcast::FifoDiscipline::new(n))
}

/// Convenience: unordered delivery baseline.
///
/// # Errors
///
/// See [`simulate`].
pub fn simulate_immediate(config: &SimConfig) -> Result<RunMetrics, SimError> {
    let space = KeySpace::new(1, 1).expect("trivial space");
    simulate(config, space, |_, _| pcb_broadcast::ImmediateDiscipline::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LossModel;

    fn tiny_config() -> SimConfig {
        SimConfig {
            n: 8,
            mean_send_interval_ms: 200.0,
            duration_ms: 3000.0,
            warmup_ms: 200.0,
            seed: 42,
            ..SimConfig::default()
        }
    }

    #[test]
    fn vector_baseline_has_zero_violations() {
        let metrics = simulate_vector(&tiny_config()).unwrap();
        assert!(metrics.deliveries > 0);
        assert_eq!(metrics.exact_violations, 0, "vector clocks are exact");
        assert_eq!(metrics.eps_min, 0);
        assert_eq!(metrics.eps_max, 0);
        assert_eq!(metrics.stuck, 0);
        assert_eq!(metrics.undelivered, 0);
    }

    #[test]
    fn prob_with_full_vector_is_exact() {
        // (R, K) = (N, 1) distinct entries: behaves like a vector clock.
        let cfg = tiny_config();
        let space = KeySpace::vector(cfg.n).unwrap();
        let cfg_distinct = SimConfig { policy: pcb_clock::AssignmentPolicy::RoundRobin, ..cfg };
        let metrics = simulate_prob(&cfg_distinct, space).unwrap();
        assert!(metrics.deliveries > 0);
        assert_eq!(metrics.exact_violations, 0);
        assert_eq!(metrics.stuck, 0);
    }

    #[test]
    fn deterministic_across_runs() {
        let cfg = tiny_config();
        let space = KeySpace::new(16, 2).unwrap();
        let a = simulate_prob(&cfg, space).unwrap();
        let b = simulate_prob(&cfg, space).unwrap();
        assert_eq!(a.sent, b.sent);
        assert_eq!(a.deliveries, b.deliveries);
        assert_eq!(a.exact_violations, b.exact_violations);
        assert_eq!(a.alg4_alerts, b.alg4_alerts);
        assert_eq!(a.delay_ms.mean(), b.delay_ms.mean());
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = tiny_config();
        let space = KeySpace::new(16, 2).unwrap();
        let a = simulate_prob(&cfg, space).unwrap();
        let b = simulate_prob(&SimConfig { seed: 43, ..cfg }, space).unwrap();
        // Counts could coincide, but full delay statistics colliding is
        // implausible.
        assert!(a.sent != b.sent || a.delay_ms.mean() != b.delay_ms.mean());
    }

    #[test]
    fn direct_dissemination_delivers_everything() {
        let cfg = tiny_config();
        let space = KeySpace::new(16, 2).unwrap();
        let m = simulate_prob(&cfg, space).unwrap();
        assert_eq!(m.stuck, 0, "Lemma 1: no message stays blocked");
        assert_eq!(m.undelivered, 0);
        assert_eq!(m.deliveries % (cfg.n as u64 - 1), 0);
        assert_eq!(m.deliveries, m.sent * (cfg.n as u64 - 1));
    }

    #[test]
    fn immediate_discipline_sees_raw_reorder_rate() {
        // Without ordering, violations happen at the raw network rate;
        // with a heavy send rate they must show up.
        let cfg = SimConfig {
            n: 8,
            mean_send_interval_ms: 20.0,
            duration_ms: 2000.0,
            warmup_ms: 100.0,
            ..SimConfig::default()
        };
        let m = simulate_immediate(&cfg).unwrap();
        assert!(m.deliveries > 1000);
        assert!(m.exact_violations > 0, "heavy concurrency must produce unordered violations");
    }

    #[test]
    fn fifo_fixes_same_sender_but_not_cross_sender() {
        let cfg = SimConfig {
            n: 8,
            mean_send_interval_ms: 20.0,
            duration_ms: 2000.0,
            warmup_ms: 100.0,
            ..SimConfig::default()
        };
        let fifo = simulate_fifo(&cfg).unwrap();
        let none = simulate_immediate(&cfg).unwrap();
        assert!(fifo.exact_violations > 0, "FIFO alone cannot ensure causality");
        assert!(
            fifo.violation_rate() < none.violation_rate(),
            "but FIFO must beat no ordering: {} vs {}",
            fifo.violation_rate(),
            none.violation_rate()
        );
    }

    #[test]
    fn epsilon_brackets_exact() {
        // Under heavy load with a tiny clock, violations occur; the
        // paper's bounds must bracket the exact count.
        let cfg = SimConfig {
            n: 10,
            mean_send_interval_ms: 30.0,
            duration_ms: 3000.0,
            warmup_ms: 100.0,
            ..SimConfig::default()
        };
        let space = KeySpace::new(8, 2).unwrap();
        let m = simulate_prob(&cfg, space).unwrap();
        assert!(m.exact_violations > 0, "tiny clock under load must err");
        assert!(m.eps_min <= m.exact_violations, "{} > {}", m.eps_min, m.exact_violations);
        assert!(m.eps_max >= m.exact_violations, "{} < {}", m.eps_max, m.exact_violations);
    }

    #[test]
    fn alerts_are_sound_no_alert_no_late_error() {
        let cfg = SimConfig {
            n: 10,
            mean_send_interval_ms: 30.0,
            duration_ms: 3000.0,
            warmup_ms: 100.0,
            ..SimConfig::default()
        };
        let space = KeySpace::new(8, 2).unwrap();
        let m = simulate_prob(&cfg, space).unwrap();
        if m.exact_violations > 0 {
            assert!(m.alg4_alerts > 0, "violations without any Algorithm 4 alert");
        }
        assert!(m.alg4_alerts >= m.eps_min, "Alg 4 over-estimates");
    }

    #[test]
    fn gossip_reaches_most_processes_with_log_fanout() {
        let cfg = SimConfig {
            n: 32,
            mean_send_interval_ms: 2000.0,
            duration_ms: 6000.0,
            warmup_ms: 500.0,
            dissemination: Dissemination::Gossip { fanout: 6 },
            ..SimConfig::default()
        };
        let space = KeySpace::new(16, 2).unwrap();
        let m = simulate_prob(&cfg, space).unwrap();
        assert!(m.deliveries > 0);
        assert!(m.duplicates > 0, "gossip must produce duplicates");
        let possible = m.sent * (cfg.n as u64 - 1);
        // Transport-level reach: delivered plus causally blocked (blocked
        // messages did arrive; their dependencies were lost by gossip).
        let reached = (m.deliveries + m.stuck) as f64 / possible as f64;
        assert!(reached > 0.95, "fanout 6 should reach >95%, got {reached}");
        let delivered = m.deliveries as f64 / possible as f64;
        assert!(
            delivered > 0.5,
            "most messages should still clear the causal guard, got {delivered}"
        );
        assert!(m.undelivered >= m.stuck, "undelivered covers both lost and blocked messages");
    }

    #[test]
    fn rejects_invalid_config() {
        let cfg = SimConfig { n: 1, ..SimConfig::default() };
        let err = simulate_vector(&cfg).unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig(_)));
        assert!(err.to_string().contains("2 processes"));
    }

    #[test]
    fn detector_rates_ordered_alg5_below_alg4() {
        let cfg = SimConfig {
            n: 12,
            mean_send_interval_ms: 40.0,
            duration_ms: 3000.0,
            warmup_ms: 100.0,
            ..SimConfig::default()
        };
        let space = KeySpace::new(8, 2).unwrap();
        let m = simulate_prob_detecting(&cfg, space, 250.0).unwrap();
        assert!(
            m.alg5_alerts <= m.alg4_alerts,
            "Algorithm 5 refines Algorithm 4: {} > {}",
            m.alg5_alerts,
            m.alg4_alerts
        );
    }

    #[test]
    fn loss_with_retransmission_stays_live_but_reorders_more() {
        let cfg = tiny_config();
        let lossy = SimConfig {
            loss: Some(LossModel { drop_probability: 0.3, retransmit_ms: 150.0 }),
            mean_send_interval_ms: 40.0,
            ..cfg.clone()
        };
        let clean = SimConfig { mean_send_interval_ms: 40.0, ..cfg };
        let space = KeySpace::new(16, 2).unwrap();
        let a = simulate_prob(&clean, space).unwrap();
        let b = simulate_prob(&lossy, space).unwrap();
        assert_eq!(b.stuck, 0, "retransmission preserves liveness");
        assert_eq!(b.undelivered, 0);
        assert!(
            b.delay_ms.mean() > a.delay_ms.mean(),
            "retransmits add delay: {} vs {}",
            b.delay_ms.mean(),
            a.delay_ms.mean()
        );
        assert!(
            b.violation_rate() >= a.violation_rate(),
            "loss-induced reordering must not reduce violations: {} vs {}",
            b.violation_rate(),
            a.violation_rate()
        );
    }

    #[test]
    fn latency_distributions_all_run_live() {
        use crate::config::LatencyDistribution;
        let space = KeySpace::new(16, 2).unwrap();
        let mut rates = Vec::new();
        for dist in [
            LatencyDistribution::Gaussian,
            LatencyDistribution::Uniform,
            LatencyDistribution::LogNormal,
            LatencyDistribution::Bimodal,
        ] {
            let cfg = SimConfig {
                latency_distribution: dist,
                mean_send_interval_ms: 50.0,
                ..tiny_config()
            };
            let m = simulate_prob(&cfg, space).unwrap();
            assert_eq!(m.stuck, 0, "{dist:?} must stay live");
            assert!(m.deliveries > 0);
            // Moment matching: mean delay within 20% of the configured μ
            // (skew and clamping shift it slightly).
            assert!(
                (m.delay_ms.mean() - 100.0).abs() < 25.0,
                "{dist:?} mean delay {} too far from 100 ms",
                m.delay_ms.mean()
            );
            rates.push((dist, m.violation_rate()));
        }
        // Bimodal (two latency clusters) reorders far more than uniform
        // (bounded support).
        let get = |d: LatencyDistribution| rates.iter().find(|(x, _)| *x == d).expect("present").1;
        assert!(
            get(LatencyDistribution::Bimodal) > get(LatencyDistribution::Uniform),
            "bimodal {} should exceed uniform {}",
            get(LatencyDistribution::Bimodal),
            get(LatencyDistribution::Uniform)
        );
    }

    #[test]
    fn wake_stats_are_populated_and_bounded() {
        let cfg = tiny_config();
        let space = KeySpace::new(16, 2).unwrap();
        let m = simulate_prob(&cfg, space).unwrap();
        assert!(
            m.wake_gap_checks >= m.deliveries,
            "every delivered message is classified at least once: {} < {}",
            m.wake_gap_checks,
            m.deliveries
        );
        assert!(m.wake_wakeups <= m.wake_gap_checks, "each wake is re-classified");
    }

    #[test]
    fn wheel_and_heap_schedulers_are_bit_identical() {
        use crate::wheel::Scheduler;
        let space = KeySpace::new(16, 2).unwrap();
        let base = SimConfig { trace_capacity: 8192, ..tiny_config() };
        let variants = [
            base.clone(),
            SimConfig { dissemination: Dissemination::Gossip { fanout: 4 }, ..base.clone() },
            SimConfig {
                loss: Some(LossModel { drop_probability: 0.2, retransmit_ms: 120.0 }),
                mean_send_interval_ms: 60.0,
                ..base
            },
        ];
        for cfg in variants {
            let wheel = SimConfig { scheduler: Scheduler::Wheel, ..cfg.clone() };
            let heap = SimConfig { scheduler: Scheduler::Heap, ..cfg };
            let (wm, wtrace) = simulate_prob_traced(&wheel, space).unwrap();
            let (hm, htrace) = simulate_prob_traced(&heap, space).unwrap();
            assert!(!wtrace.is_empty(), "differential run must produce a trace");
            assert_eq!(wtrace, htrace, "wheel and heap schedulers diverged");
            assert_eq!(wm.sent, hm.sent);
            assert_eq!(wm.deliveries, hm.deliveries);
            assert_eq!(wm.exact_violations, hm.exact_violations);
            assert_eq!(wm.eps_min, hm.eps_min);
            assert_eq!(wm.eps_max, hm.eps_max);
            assert_eq!(wm.alg4_alerts, hm.alg4_alerts);
            assert_eq!(wm.stuck, hm.stuck);
            assert_eq!(wm.undelivered, hm.undelivered);
            assert_eq!(wm.delay_ms.mean(), hm.delay_ms.mean());
            assert_eq!(wm.blocking_ms.mean(), hm.blocking_ms.mean());
        }
    }

    #[test]
    fn stamp_pool_recycles_on_the_direct_path() {
        // At steady state every send reuses a stamp buffer recycled by a
        // fully delivered predecessor: pool misses stay bounded by the
        // in-flight peak, far below the send count.
        let cfg = SimConfig {
            n: 8,
            mean_send_interval_ms: 50.0,
            duration_ms: 5000.0,
            warmup_ms: 200.0,
            ..SimConfig::default()
        };
        let space = KeySpace::new(16, 2).unwrap();
        let m = simulate_prob(&cfg, space).unwrap();
        assert!(m.deliveries > 0);
        assert!(
            m.stamp_pool_hits > 4 * m.stamp_pool_misses,
            "steady state must run from the pool: {} hits vs {} misses",
            m.stamp_pool_hits,
            m.stamp_pool_misses
        );
    }
}
