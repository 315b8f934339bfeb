//! `endpoint-mesh`: 16 `Endpoint<Bytes>` in one thread, fully meshed
//! through `DeltaEncoder::encode` → `Endpoint::handle_wire`. The ordering
//! core, wire codec, message store and dedup do all the work; there is
//! no IO, no daemon and no real clock.
//!
//! Each 100 ms virtual step one seeded sender broadcasts 32 bytes. The
//! frame reaches peer `d` after a constant per-pair lag of 1–40 steps:
//! constant per pair keeps each sender's stream FIFO at each receiver
//! (the delta decoder needs the previous frame as its base), while
//! different lags across senders reorder causally related messages, so
//! about a third of arrivals have to park in the pending index.

use std::time::Instant;

use bytes::Bytes;
use pcb_broadcast::endpoint::{Endpoint, Input, Output};
use pcb_broadcast::{Delivery, DeltaEncoder, MessageId, PcbConfig};
use pcb_clock::{AssignmentPolicy, KeyAssigner, KeySet, KeySpace, ProcessId};
use pcb_sim::ExactChecker;

use crate::report::{Checks, Metric, Outcome};
use crate::spans::{Layer, Spans};
use crate::util::{self, Rng};
use crate::RunOpts;

pub const N: usize = 16;
/// Virtual length of one step. With the endpoint's 5 s store window
/// each store holds the last 50 messages, so the mesh's working set
/// (16 stores) stays under 1 MB. At 10 ms steps it was 8 MB of
/// round-robin allocation, and the pass ran at the speed of a cache the
/// host shares with its neighbours: 470–650 k deliveries/s from one
/// binary, against 690–790 k at this step.
const STEP_US: u64 = 100_000;
/// Sends per pass (one per step); 300 k deliveries, ≈ 0.4 s. Short
/// passes, many of them: the fastest of ≥ 30 has more chances to land in
/// a quiet moment of the host than the fastest of 12 long ones.
pub const PASS_STEPS: u32 = 20_000;
const WARMUP_UNIT_STEPS: u32 = 1_000;
const MAX_LAG: usize = 40;
/// Calendar ring for in-flight frames; any power of two above `MAX_LAG`.
const RING: usize = 64;
const PAYLOAD_BYTES: usize = 32;

/// The seeded inputs of a mesh: key sets and the pair-lag matrix.
pub struct Plan {
    keys: Vec<KeySet>,
    lags: [[u8; N]; N],
    send_seed: u64,
}

impl Plan {
    pub fn new(seed: u64) -> Self {
        let space = KeySpace::new(100, 4).expect("the paper's (100, 4) space");
        let mut assigner =
            KeyAssigner::new(space, AssignmentPolicy::UniformRandom, util::sub_seed(seed, 0x4B));
        let keys = assigner.assign_n(N).expect("16 key sets from C(100, 4)");
        // Every seed draws the same multiset of lags — each of 1..=40
        // six times over the 240 ordered pairs — and only shuffles which
        // pair gets which. The distribution of direct link delay is then
        // identical on every seed, and the virtual latency quantiles move
        // only through what the protocol adds: time parked.
        let mut pool: Vec<u8> = (0..N * (N - 1)).map(|i| (i % MAX_LAG) as u8 + 1).collect();
        Rng::new(util::sub_seed(seed, 0x1A)).shuffle(&mut pool);
        let mut lags = [[0u8; N]; N];
        let mut next = pool.into_iter();
        for (s, row) in lags.iter_mut().enumerate() {
            for (d, lag) in row.iter_mut().enumerate() {
                if s != d {
                    *lag = next.next().expect("one lag per ordered pair");
                }
            }
        }
        Plan { keys, lags, send_seed: util::sub_seed(seed, 0x5E) }
    }
}

/// What a traced pass observes; the untraced pass uses [`NoProbe`],
/// which compiles to nothing.
pub trait Probe {
    /// Nanoseconds on the probe's clock (0 when untraced).
    fn now(&mut self) -> u64;
    fn span(&mut self, layer: Layer, start_ns: u64, end_ns: u64, step: u32, id: MessageId);
    fn sent(&mut self, sender: usize, seq: u64);
    fn delivered(&mut self, at: usize, delivery: &Delivery<Bytes>);
}

pub struct NoProbe;

impl Probe for NoProbe {
    #[inline(always)]
    fn now(&mut self) -> u64 {
        0
    }
    #[inline(always)]
    fn span(&mut self, _: Layer, _: u64, _: u64, _: u32, _: MessageId) {}
    #[inline(always)]
    fn sent(&mut self, _: usize, _: u64) {}
    #[inline(always)]
    fn delivered(&mut self, _: usize, _: &Delivery<Bytes>) {}
}

/// Counters of one pass. All of them repeat exactly for one seed.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct PassStats {
    pub sent: [u64; N],
    pub delivered: [u64; N],
    /// `latency[k]` = deliveries that took `k` steps from send to deliver.
    pub latency: Vec<u64>,
    pub frames: u64,
    pub frame_bytes: u64,
    pub arrivals: u64,
    /// Arrivals that produced no delivery on the spot.
    pub parked: u64,
    pub decode_errors: u64,
    pub pending_left: u64,
    pub max_pending: u64,
    pub gap_checks: u64,
    pub wakeups: u64,
    pub instant_alerts: u64,
}

impl PassStats {
    pub fn deliveries(&self) -> u64 {
        self.delivered.iter().sum()
    }
}

struct Mesh<'p> {
    plan: &'p Plan,
    endpoints: Vec<Endpoint<Bytes>>,
    encoders: Vec<DeltaEncoder>,
    ring: Vec<Vec<(u8, Bytes)>>,
    in_flight: usize,
    rng: Rng,
    payload: Bytes,
    /// `sent_at[sender][seq]` = step of the send (`seq` starts at 1).
    sent_at: Vec<Vec<u32>>,
    stats: PassStats,
}

impl<'p> Mesh<'p> {
    fn new(plan: &'p Plan) -> Self {
        let endpoints = (0..N)
            .map(|i| {
                // Recovery timing off: the pass isolates ordering + codec.
                Endpoint::new(ProcessId::new(i), plan.keys[i].clone(), PcbConfig::default(), None)
            })
            .collect();
        Mesh {
            plan,
            endpoints,
            encoders: (0..N).map(|_| DeltaEncoder::default()).collect(),
            ring: (0..RING).map(|_| Vec::new()).collect(),
            in_flight: 0,
            rng: Rng::new(plan.send_seed),
            payload: Bytes::from(vec![0xAB; PAYLOAD_BYTES]),
            sent_at: (0..N).map(|_| vec![0]).collect(),
            stats: PassStats { latency: vec![0; 4 * RING], ..PassStats::default() },
        }
    }

    /// One virtual step: deliver what is due, then (while `send`) let
    /// one seeded sender broadcast.
    fn step<P: Probe>(&mut self, step: u32, send: bool, probe: &mut P) {
        let now_us = u64::from(step) * STEP_US;
        let slot = step as usize % RING;
        let mut due = std::mem::take(&mut self.ring[slot]);
        self.in_flight -= due.len();
        for (dst, frame) in due.drain(..) {
            let dst = usize::from(dst);
            self.stats.arrivals += 1;
            let t0 = probe.now();
            let result = self.endpoints[dst].handle_wire(frame, now_us);
            let t1 = probe.now();
            let mut first = None;
            match result {
                Ok(outputs) => {
                    let mut delivered_here = 0u32;
                    for output in &outputs {
                        if let Output::Deliver(d) = output {
                            delivered_here += 1;
                            first.get_or_insert(d.message.id());
                            let id = d.message.id();
                            let sent = self.sent_at[id.sender().index()][id.seq() as usize];
                            let waited = (step - sent) as usize;
                            let slots = self.stats.latency.len();
                            self.stats.latency[waited.min(slots - 1)] += 1;
                            self.stats.delivered[dst] += 1;
                            probe.delivered(dst, d);
                        }
                    }
                    if delivered_here == 0 {
                        self.stats.parked += 1;
                    }
                }
                Err(_) => self.stats.decode_errors += 1,
            }
            let id = first.unwrap_or(MessageId::new(ProcessId::new(dst), 0));
            probe.span(Layer::HandleWire, t0, t1, step, id);
        }
        // Hand the emptied buffer back so steady state reuses capacity.
        self.ring[slot] = due;

        if !send {
            return;
        }
        let s = self.rng.below(N as u64) as usize;
        let t0 = probe.now();
        let outputs = self.endpoints[s].handle(Input::Broadcast(self.payload.clone()), now_us);
        let Some(Output::SendFrame(message)) =
            outputs.into_iter().find(|o| matches!(o, Output::SendFrame(_)))
        else {
            panic!("a live endpoint answers Broadcast with SendFrame");
        };
        let t1 = probe.now();
        let id = message.id();
        probe.span(Layer::Broadcast, t0, t1, step, id);
        let t0 = probe.now();
        let frame = self.encoders[s].encode(&message);
        let t1 = probe.now();
        probe.span(Layer::Encode, t0, t1, step, id);
        probe.sent(s, id.seq());
        self.sent_at[s].push(step);
        self.stats.sent[s] += 1;
        self.stats.frames += 1;
        self.stats.frame_bytes += frame.len() as u64;
        for d in 0..N {
            if d != s {
                let at = (step as usize + usize::from(self.plan.lags[s][d])) % RING;
                self.ring[at].push((d as u8, frame.clone()));
            }
        }
        self.in_flight += N - 1;
    }

    /// `steps` sending steps, then silent steps until nothing is in
    /// flight; folds the endpoints' own counters into the stats.
    fn run<P: Probe>(mut self, steps: u32, probe: &mut P) -> PassStats {
        let mut step = 0;
        while step < steps {
            self.step(step, true, probe);
            step += 1;
        }
        while self.in_flight > 0 {
            self.step(step, false, probe);
            step += 1;
        }
        for endpoint in &self.endpoints {
            let wake = endpoint.wakeup_stats();
            self.stats.pending_left += endpoint.pending_len() as u64;
            self.stats.max_pending = self.stats.max_pending.max(wake.max_pending as u64);
            self.stats.gap_checks += wake.gap_checks;
            self.stats.wakeups += wake.wakeups;
            self.stats.instant_alerts += endpoint.stats().instant_alerts;
        }
        self.stats
    }
}

/// One untraced pass of `steps` sends; returns `(seconds, stats)`.
pub fn timed_pass(plan: &Plan, steps: u32) -> (f64, PassStats) {
    let mesh = Mesh::new(plan);
    let start = Instant::now();
    let stats = mesh.run(steps, &mut NoProbe);
    (start.elapsed().as_secs_f64(), stats)
}

/// The mesh's own correctness checks on one pass.
fn check_pass(stats: &PassStats, checks: &mut Checks) {
    checks.fail(stats.pending_left, format!("{} messages still pending", stats.pending_left));
    checks.fail(stats.decode_errors, format!("{} frames failed to decode", stats.decode_errors));
    let total: u64 = stats.sent.iter().sum();
    for (i, (&sent, &delivered)) in stats.sent.iter().zip(&stats.delivered).enumerate() {
        let want = total - sent;
        checks.fail(
            want.abs_diff(delivered),
            format!("endpoint {i} delivered {delivered}, expected sent - own = {want}"),
        );
    }
}

pub fn run(opts: &RunOpts) -> Outcome {
    let mut checks = Checks::default();

    // Construction, several times, median: key assignment, the lag
    // matrix and 16 endpoints with their encoders.
    let mut construct = Vec::new();
    let plan = loop {
        let t = Instant::now();
        let plan = Plan::new(opts.seed);
        std::hint::black_box(Mesh::new(&plan));
        construct.push(t.elapsed().as_secs_f64());
        if construct.len() == 5 {
            break plan;
        }
    };
    // Warm-up for a fixed time, in 1000-step units.
    let warm = Instant::now();
    while warm.elapsed() < crate::IN_PROCESS_WARMUP {
        std::hint::black_box(timed_pass(&plan, WARMUP_UNIT_STEPS));
    }
    let setup_s = util::median(&construct) + warm.elapsed().as_secs_f64();

    let window = Instant::now();
    let mut pass_secs = Vec::new();
    let mut first: Option<PassStats> = None;
    let mut ops = 0u64;
    while pass_secs.len() < 3 || window.elapsed().as_secs_f64() < opts.seconds {
        let (secs, stats) = timed_pass(&plan, PASS_STEPS);
        pass_secs.push(secs);
        ops += stats.frames;
        check_pass(&stats, &mut checks);
        match &first {
            None => first = Some(stats),
            Some(f) => checks.require(*f == stats, || {
                format!("pass {} counters differ from pass 1", pass_secs.len())
            }),
        }
    }
    let stats = first.expect("at least one pass ran");
    let fastest = pass_secs.iter().copied().fold(f64::INFINITY, f64::min);
    let median = util::median(&pass_secs);
    let step_ms = STEP_US as f64 / 1000.0;

    let metrics = vec![
        Metric::new("setup_s", "s", setup_s),
        Metric::new(
            "deliver_p50_ms",
            "ms",
            util::quantile_of_counts(&stats.latency, 0.5) * step_ms,
        ),
        Metric::new(
            "deliver_p90_ms",
            "ms",
            util::quantile_of_counts(&stats.latency, 0.9) * step_ms,
        ),
        Metric::new("deliveries_per_s", "1/s", stats.deliveries() as f64 / fastest),
        Metric::new("wire_bytes_per_msg", "B", stats.frame_bytes as f64 / stats.frames as f64),
        Metric::new("peak_rss_mb", "MB", util::own_peak_rss_mb()),
    ];
    let notes = vec![
        ("passes".into(), pass_secs.len().to_string()),
        ("deliveries_per_pass".into(), stats.deliveries().to_string()),
        (
            "deliveries_per_s_median_pass".into(),
            format!("{:.0}", stats.deliveries() as f64 / median),
        ),
        (
            "parked_share".into(),
            format!("{:.1} %", 100.0 * stats.parked as f64 / stats.arrivals as f64),
        ),
        ("max_pending".into(), stats.max_pending.to_string()),
        ("virtual latency clock".into(), "deliver_p50/p90 are on the mesh's step clock".into()),
    ];
    Outcome { ops, checks, metrics, notes }
}

/// Span probe: a span around every call into a layer, nothing else, so
/// the traced pass's time is the layers' plus the harness's own.
struct SpanProbe {
    origin: Instant,
    spans: Spans,
}

impl Probe for SpanProbe {
    fn now(&mut self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
    fn span(&mut self, layer: Layer, start_ns: u64, end_ns: u64, step: u32, id: MessageId) {
        self.spans.push(layer, start_ns, end_ns, step, id);
    }
    fn sent(&mut self, _: usize, _: u64) {}
    fn delivered(&mut self, _: usize, _: &Delivery<Bytes>) {}
}

/// Shadow vector clock: the true causal history of every endpoint and
/// message, kept outside the protocol, classifying every delivery
/// exactly. Runs in a pass of its own so its cost is in no timing.
struct ShadowProbe {
    true_vc: Vec<Vec<u32>>,
    /// `msg_vc[sender][seq]`: the sender's history at send time.
    msg_vc: Vec<Vec<Vec<u32>>>,
    checkers: Vec<ExactChecker>,
    violations: u64,
    undetected: u64,
}

impl ShadowProbe {
    fn new() -> Self {
        ShadowProbe {
            true_vc: vec![vec![0; N]; N],
            msg_vc: (0..N).map(|_| vec![Vec::new()]).collect(),
            checkers: (0..N).map(|_| ExactChecker::new(N)).collect(),
            violations: 0,
            undetected: 0,
        }
    }
}

impl Probe for ShadowProbe {
    fn now(&mut self) -> u64 {
        0
    }
    fn span(&mut self, _: Layer, _: u64, _: u64, _: u32, _: MessageId) {}

    fn sent(&mut self, sender: usize, seq: u64) {
        self.true_vc[sender][sender] = seq as u32;
        self.msg_vc[sender].push(self.true_vc[sender].clone());
        // A process's own sends are in its causal past without ever
        // being delivered to it.
        self.checkers[sender].record(sender, seq as u32);
    }

    fn delivered(&mut self, at: usize, delivery: &Delivery<Bytes>) {
        let id = delivery.message.id();
        let (sender, seq) = (id.sender().index(), id.seq() as usize);
        let tvc = &self.msg_vc[sender][seq];
        if self.checkers[at].deliver(sender, seq as u32, tvc) {
            self.violations += 1;
            if !delivery.instant_alert {
                self.undetected += 1;
            }
        }
        for (mine, &theirs) in self.true_vc[at].iter_mut().zip(tvc) {
            *mine = (*mine).max(theirs);
        }
    }
}

/// What one traced pass of `steps` sends produced.
pub struct TracedPass {
    pub stats: PassStats,
    pub untraced_secs: f64,
    pub traced_secs: f64,
    pub spans: Spans,
    pub violations: u64,
    pub undetected: u64,
}

impl TracedPass {
    /// Share of the traced pass no layer span covers: the harness's own
    /// ring, generator and bookkeeping, plus the clock reads themselves.
    pub fn residual_pct(&self) -> f64 {
        let attributed: f64 = self.spans.self_secs().iter().map(|(_, s)| s).sum();
        100.0 * (self.traced_secs - attributed).max(0.0) / self.traced_secs
    }

    pub fn overhead_pct(&self) -> f64 {
        100.0 * (self.traced_secs - self.untraced_secs) / self.untraced_secs
    }

    /// The per-layer metrics a traced mesh pass yields.
    pub fn metrics(&self) -> Vec<Metric> {
        let stats = &self.stats;
        let deliveries = stats.deliveries() as f64;
        vec![
            Metric::new("endpoint.residual_pct", "%", self.residual_pct()),
            Metric::new("trace.overhead_pct", "%", self.overhead_pct()),
            Metric::new("endpoint.undetected_violations", "count", self.undetected as f64),
            Metric::new(
                "endpoint.parked_share",
                "%",
                100.0 * stats.parked as f64 / stats.arrivals as f64,
            ),
            Metric::new("pending.max_pending", "count", stats.max_pending as f64),
            Metric::new("pending.wakeups_per_delivery", "count", stats.wakeups as f64 / deliveries),
            Metric::new(
                "pending.gap_checks_per_delivery",
                "count",
                stats.gap_checks as f64 / deliveries,
            ),
        ]
    }
}

/// Untraced reference (fastest of `reference_passes`), one span-traced
/// pass and one shadow-clock pass over the same plan and length.
pub fn traced_pass(plan: &Plan, steps: u32, reference_passes: usize) -> TracedPass {
    std::hint::black_box(timed_pass(plan, steps)); // warm
    let untraced_secs = util::fastest_of(reference_passes, || {
        std::hint::black_box(timed_pass(plan, steps));
    });
    let mut probe = SpanProbe { origin: Instant::now(), spans: Spans::default() };
    let mesh = Mesh::new(plan);
    let start = Instant::now();
    let stats = mesh.run(steps, &mut probe);
    let traced_secs = start.elapsed().as_secs_f64();
    let mut shadow = ShadowProbe::new();
    let shadow_stats = Mesh::new(plan).run(steps, &mut shadow);
    assert!(shadow_stats == stats, "observing a pass must not change it");
    TracedPass {
        stats,
        untraced_secs,
        traced_secs,
        spans: probe.spans,
        violations: shadow.violations,
        undetected: shadow.undetected,
    }
}

/// Allocations made while stepping one pass (construction excluded),
/// with the pass's stats. Exact for a given seed.
pub fn counted_pass(plan: &Plan, steps: u32) -> (u64, PassStats) {
    let mesh = Mesh::new(plan);
    crate::alloc::counted(|| mesh.run(steps, &mut NoProbe))
}

/// `trace endpoint-mesh`: per-layer self time, the unattributed
/// residual and the tracing overhead of one full-size pass. Spans stay
/// in memory during the pass and are written out afterwards.
pub fn trace(opts: &RunOpts) -> Outcome {
    let mut checks = Checks::default();
    let plan = Plan::new(opts.seed);
    let pass = traced_pass(&plan, PASS_STEPS, 3);
    check_pass(&pass.stats, &mut checks);

    let mut notes: Vec<(String, String)> = pass
        .spans
        .self_secs()
        .into_iter()
        .map(|(layer, secs)| {
            (
                format!("self time {}", layer.name()),
                format!(
                    "{secs:.3} s ({:.1} % of the traced pass)",
                    100.0 * secs / pass.traced_secs
                ),
            )
        })
        .collect();
    notes.push(("unattributed residual".into(), format!("{:.1} %", pass.residual_pct())));
    notes.push((
        "untraced / traced pass".into(),
        format!("{:.3} s / {:.3} s", pass.untraced_secs, pass.traced_secs),
    ));
    notes.push(("spans".into(), pass.spans.len().to_string()));
    notes.push((
        "causal violations (exact shadow clock)".into(),
        format!("{}, of which {} raised no Alg. 4 alert", pass.violations, pass.undetected),
    ));
    match pass.spans.write(&opts.out_dir, "endpoint-mesh") {
        Ok(path) => notes.push(("spans written to".into(), path.display().to_string())),
        Err(e) => checks.fail(1, format!("cannot write spans: {e}")),
    }
    Outcome { ops: pass.stats.frames, checks, metrics: pass.metrics(), notes }
}
