//! The three daemon workloads: a single-threaded load generator driving
//! a 3-process `pcb-daemon` cluster over loopback through the line-JSON
//! RPC plane, non-blocking sockets polled every 100 µs.
//!
//! * `daemon-steady` — open loop, 400 publishes/s alternating between
//!   daemons 0 and 1, each connection also subscribed. Latency is from a
//!   message's *due* time to the `deliver` event read on the **other**
//!   daemon's subscription, so a stall charges every publish it delays.
//! * `daemon-saturate` — closed loop, one outstanding publish per
//!   connection; latency from the write.
//! * `daemon-crash` — open loop, 200 publishes/s into daemon 0, the
//!   subscriber on daemon 1; daemon 1 is SIGKILLed a quarter into the
//!   window and restarted with `--resume` + `restore` at half. Latency
//!   is first sight at the victim in any incarnation.

use std::collections::{HashSet, VecDeque};
use std::time::{Duration, Instant};

use pcb_broadcast::MessageId;
use pcb_clock::ProcessId;
use pcb_runtime::json::Value;

use crate::cluster::{self, Cluster, Conn};
use crate::report::{Checks, Metric, Outcome};
use crate::spans::{Layer, Spans};
use crate::util;
use crate::RunOpts;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Steady,
    Saturate,
    Crash,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Steady => "daemon-steady",
            Kind::Saturate => "daemon-saturate",
            Kind::Crash => "daemon-crash",
        }
    }

    /// How long daemons keep delivered messages re-fetchable. The crash
    /// workload needs the window to outlast its outage: past it, the
    /// restarted node waits forever on messages no peer can serve. The
    /// other two keep the daemon's default 5 s, because every snapshot
    /// (four a second) rewrites the whole store — with 120 s the daemons
    /// slow down linearly through the window and a 20 s run's p90 reads
    /// three times that of an 8 s run.
    fn store_window_us(self) -> u64 {
        match self {
            Kind::Steady | Kind::Saturate => {
                pcb_broadcast::RecoveryTimingUs::default().store_window_us
            }
            Kind::Crash => 10_000_000,
        }
    }

    /// Whether `wire_bytes_per_msg` covers the whole window (the crash
    /// workload, whose recovery traffic is the point) or is the median
    /// one-second slice. When the host freezes a daemon for a few hundred
    /// ms the anti-entropy driver answers with a burst of sync probes
    /// (each lists every id in the store): a fact about the host, not the
    /// steady state — one binary read 804–812 B in twelve runs and
    /// 1030–1270 B in the eight that met such stalls.
    fn wire_over_whole_window(self) -> bool {
        self == Kind::Crash
    }

    /// Open-loop publish rate; `None` for the closed loop.
    fn rate(self) -> Option<f64> {
        match self {
            Kind::Steady => Some(400.0),
            Kind::Saturate => None,
            Kind::Crash => Some(200.0),
        }
    }
}

/// Fixed warm-up at the workload's own rate. Fixed time, not a fixed
/// number of publishes: see `IN_PROCESS_WARMUP`.
const WARMUP: Duration = Duration::from_secs(2);
/// How long after the window closes every message must have been seen.
const DRAIN_DEADLINE: Duration = Duration::from_secs(30);
const POLL_EVERY: Duration = Duration::from_micros(100);
/// The daemon the crash workload kills; also where it subscribes.
const VICTIM: usize = 1;
/// Cluster constructions per run; `setup_s` uses their median.
const CONSTRUCTIONS: usize = 3;

const UNSET: u64 = u64::MAX;

/// One publish, all times in ns since the run's origin.
struct Msg {
    /// When the schedule wanted it written (open loop) or when it was
    /// written (closed loop): the latency origin.
    due: u64,
    written: u64,
    acked: u64,
    /// First `deliver` event at the expected subscriber.
    seen: u64,
    /// Which publisher connection carried it.
    via: usize,
    in_window: bool,
}

/// A publisher connection and the publishes it still owes an ack for.
struct Publisher {
    conn: Conn,
    unacked: VecDeque<u32>,
}

/// A subscription to one daemon. `ids` is the duplicate check: within
/// one daemon incarnation no `(sender, seq)` may be delivered twice.
struct Subscriber {
    node: usize,
    conn: Option<Conn>,
    ids: HashSet<(u64, u64)>,
    /// Non-event answers still expected (`restore`, `subscribe`).
    answers_due: u32,
}

struct Rig {
    cluster: Cluster,
    /// One control connection per daemon (`status`, `shutdown`).
    control: Vec<Option<Conn>>,
    publishers: Vec<Publisher>,
    subscribers: Vec<Subscriber>,
}

/// Spawns a cluster and connects the workload's connections: everything
/// between "nothing exists" and "the first publish could be written".
fn construct(kind: Kind, opts: &RunOpts) -> Result<Rig, String> {
    let store_window_us = opts.store_window_us.unwrap_or(kind.store_window_us());
    let cluster = Cluster::spawn(&opts.daemon_bin, &opts.state_root, opts.seed, store_window_us)?;
    let control: Vec<Option<Conn>> = cluster.wait_ready()?.into_iter().map(Some).collect();
    let deadline = Instant::now() + Duration::from_secs(10);
    let connect = |node: usize| Conn::connect(cluster.nodes[node].rpc, deadline);
    let (publishers, subscribers) = match kind {
        // Two connections = nproc: each publishes into its daemon and
        // subscribes to it, which makes it the observer of the other's.
        Kind::Steady | Kind::Saturate => {
            let mut publishers = Vec::new();
            let mut subscribers = Vec::new();
            for node in 0..2 {
                let mut conn = connect(node)?;
                let answer = conn.call(cluster::SUBSCRIBE, Duration::from_secs(5))?;
                if !cluster::is_ok(&answer) {
                    return Err(format!("subscribe refused: {}", answer.to_json()));
                }
                publishers.push(Publisher { conn, unacked: VecDeque::new() });
                subscribers.push(Subscriber {
                    node,
                    conn: None, // shares the publisher's connection
                    ids: HashSet::new(),
                    answers_due: 0,
                });
            }
            (publishers, subscribers)
        }
        Kind::Crash => {
            let publisher = Publisher { conn: connect(0)?, unacked: VecDeque::new() };
            let mut conn = connect(VICTIM)?;
            let answer = conn.call(cluster::SUBSCRIBE, Duration::from_secs(5))?;
            if !cluster::is_ok(&answer) {
                return Err(format!("subscribe refused: {}", answer.to_json()));
            }
            let subscriber =
                Subscriber { node: VICTIM, conn: Some(conn), ids: HashSet::new(), answers_due: 0 };
            (vec![publisher], vec![subscriber])
        }
    };
    Ok(Rig { cluster, control, publishers, subscribers })
}

/// Once-a-second samples of a traced run.
#[derive(Default)]
struct Samples {
    pending_max: u64,
    /// `(VmRSS kB of daemon 0, publishes so far)` at window open / close.
    rss_open: (u64, u64),
    rss_close: (u64, u64),
    next_at: u64,
}

struct Load {
    kind: Kind,
    origin: Instant,
    rig: Rig,
    msgs: Vec<Msg>,
    checks: Checks,
    window_open: u64,
    window_close: u64,
    /// When the loop actually opened and closed the window (each at or
    /// just after the scheduled instant).
    opened_at: u64,
    closed_at: u64,
    /// First sights inside the timed window.
    seen_in_window: u64,
    /// On-CPU ns of the daemons inside the window.
    cpu_ns: u64,
    cpu_base: Vec<Option<u64>>,
    lo_open: (u64, u64),
    lo_close: (u64, u64),
    /// `(lo tx bytes, publishes so far)` at every whole second of the
    /// window, first entry at the opening.
    slices: Vec<(u64, u64)>,
    victim_hwm_kb: u64,
    respawned_at: u64,
    caught_up_at: u64,
    /// Lowest message index not yet seen (all below are).
    seen_floor: usize,
    samples: Samples,
    traced: bool,
}

impl Load {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn publish(&mut self, via: usize, due: u64, now: u64) {
        let index = self.msgs.len() as u32;
        let publisher = &mut self.rig.publishers[via];
        publisher.conn.send(&cluster::publish_line(index));
        publisher.unacked.push_back(index);
        self.msgs.push(Msg {
            due,
            written: now,
            acked: UNSET,
            seen: UNSET,
            via,
            in_window: due >= self.window_open && due < self.window_close,
        });
    }

    /// Reads every connection once and accounts for what arrived.
    fn pump(&mut self) {
        let now = self.now();
        let shares_subscription = self.kind != Kind::Crash;
        for p in 0..self.rig.publishers.len() {
            for line in self.rig.publishers[p].conn.poll() {
                if !cluster::is_event(&line) {
                    self.on_ack(p, &line, now);
                } else if shares_subscription {
                    self.on_event(p, &line, now);
                }
            }
        }
        for s in 0..self.rig.subscribers.len() {
            let Some(conn) = self.rig.subscribers[s].conn.as_mut() else { continue };
            let lines = conn.poll();
            if conn.closed {
                self.rig.subscribers[s].conn = None;
            }
            for line in lines {
                if cluster::is_event(&line) {
                    self.on_event(s, &line, now);
                } else {
                    let sub = &mut self.rig.subscribers[s];
                    sub.answers_due = sub.answers_due.saturating_sub(1);
                    self.checks.require(cluster::is_ok(&line), || {
                        format!("restore/subscribe refused: {}", line.to_json())
                    });
                }
            }
        }
        for slot in &mut self.rig.control {
            let Some(conn) = slot.as_mut() else { continue };
            for line in conn.poll() {
                if let Some(pending) = line.get("pending").and_then(Value::as_u64) {
                    self.samples.pending_max = self.samples.pending_max.max(pending);
                }
            }
            if conn.closed {
                *slot = None;
            }
        }
    }

    fn on_ack(&mut self, publisher: usize, line: &Value, now: u64) {
        let Some(index) = self.rig.publishers[publisher].unacked.pop_front() else {
            self.checks.fail(1, format!("unexpected answer: {}", line.to_json()));
            return;
        };
        self.msgs[index as usize].acked = now;
        self.checks.require(cluster::is_ok(line), || {
            format!("publish {index} refused: {}", line.to_json())
        });
    }

    fn on_event(&mut self, subscriber: usize, line: &Value, now: u64) {
        let Some((sender, seq, payload)) = cluster::parse_deliver(line) else {
            self.checks.fail(1, format!("unreadable event: {}", line.to_json()));
            return;
        };
        let fresh = self.rig.subscribers[subscriber].ids.insert((sender, seq));
        self.checks.require(fresh, || {
            format!(
                "({sender}, {seq}) delivered twice within one incarnation of daemon {}",
                self.rig.subscribers[subscriber].node
            )
        });
        let Some(msg) = self.msgs.get_mut(payload as usize) else {
            self.checks.fail(1, format!("event for a payload never published: {payload}"));
            return;
        };
        let expected = match self.kind {
            Kind::Steady | Kind::Saturate => 1 - msg.via,
            Kind::Crash => 0,
        };
        if subscriber == expected && msg.seen == UNSET {
            msg.seen = now;
            if self.opened_at != 0 && self.closed_at == UNSET {
                self.seen_in_window += 1;
            }
        }
    }

    fn all_settled(&mut self) -> bool {
        while self.seen_floor < self.msgs.len() && self.msgs[self.seen_floor].seen != UNSET {
            self.seen_floor += 1;
        }
        self.seen_floor == self.msgs.len()
            && self.rig.publishers.iter().all(|p| p.unacked.is_empty())
    }

    fn daemon_cpu(&self, node: usize) -> Option<u64> {
        self.rig.cluster.nodes[node].pid().and_then(util::proc_cpu_ns)
    }

    fn cpu_mark(&mut self) {
        self.cpu_base = (0..cluster::N).map(|n| self.daemon_cpu(n)).collect();
    }

    /// Adds the CPU daemon `node` burnt since the last mark.
    fn cpu_collect(&mut self, node: usize) {
        if let (Some(base), Some(now)) = (self.cpu_base[node], self.daemon_cpu(node)) {
            self.cpu_ns += now.saturating_sub(base);
        }
        self.cpu_base[node] = None;
    }

    fn sample(&mut self, now: u64) {
        if !self.traced || now < self.samples.next_at {
            return;
        }
        self.samples.next_at = now + 1_000_000_000;
        for conn in self.rig.control.iter_mut().flatten() {
            conn.send(cluster::STATUS);
        }
    }

    fn rss_point(&self) -> (u64, u64) {
        let rss = self.rig.cluster.nodes[0]
            .pid()
            .and_then(|pid| util::proc_status_kb(pid, "VmRSS"))
            .unwrap_or(0);
        (rss, self.msgs.len() as u64)
    }
}

pub fn run(kind: Kind, opts: &RunOpts, traced: bool) -> Result<Outcome, String> {
    if !opts.daemon_bin.exists() {
        return Err(format!("{} not built beside the ledger", opts.daemon_bin.display()));
    }
    // Set-up, part one: construct the cluster several times, keep the
    // last, report the median.
    let mut construct_secs = Vec::new();
    let mut rig = None;
    for _ in 0..CONSTRUCTIONS {
        drop(rig.take()); // kills and reaps the previous cluster
        let t = Instant::now();
        rig = Some(construct(kind, opts)?);
        construct_secs.push(t.elapsed().as_secs_f64());
    }
    let rig = rig.expect("at least one construction");
    let spawn_ready_s = util::median(&construct_secs);

    let origin = Instant::now();
    let warm_ns = WARMUP.as_nanos() as u64;
    let window_ns = (opts.seconds * 1e9) as u64;
    let mut load = Load {
        kind,
        origin,
        rig,
        msgs: Vec::new(),
        checks: Checks::default(),
        window_open: warm_ns,
        window_close: warm_ns + window_ns,
        opened_at: 0,
        closed_at: UNSET,
        seen_in_window: 0,
        cpu_ns: 0,
        cpu_base: vec![None; cluster::N],
        lo_open: (0, 0),
        lo_close: (0, 0),
        slices: Vec::new(),
        victim_hwm_kb: 0,
        respawned_at: UNSET,
        caught_up_at: UNSET,
        seen_floor: 0,
        samples: Samples::default(),
        traced,
    };
    let kill_at = load.window_open + window_ns / 4;
    let respawn_at = load.window_open + window_ns * 2 / 5;
    let interval_ns = kind.rate().map(|r| (1e9 / r) as u64);
    // Open loop: publish `i` is due at a seeded uniform offset inside its
    // own slot `[i, i + 1) × interval`. The rate and the count are exact,
    // but arrivals are not phase-locked to each other or to the daemons'
    // loops; a fixed 2.5 ms alternation parks every event line exactly on
    // the race between it and the previous publish's ack line.
    let mut schedule = util::Rng::new(util::sub_seed(opts.seed, 0xD0E));
    let mut due_in_slot = |index: u64, interval: u64| index * interval + schedule.below(interval);
    let mut next_index = 0u64;
    let mut next_due = interval_ns.map_or(0, |interval| due_in_slot(0, interval));
    let mut opened = false;
    let mut closed = false;
    let mut killed = false;
    let mut respawned = false;
    let mut drain_deadline = UNSET;

    loop {
        let now = load.now();
        if !opened && now >= load.window_open {
            opened = true;
            load.opened_at = now;
            load.lo_open = util::lo_tx()?;
            load.slices.push((load.lo_open.0, load.msgs.len() as u64));
            load.cpu_mark();
            load.samples.rss_open = load.rss_point();
        }
        if !closed && now >= load.window_close {
            closed = true;
            load.closed_at = now;
            load.lo_close = util::lo_tx()?;
            for node in 0..cluster::N {
                load.cpu_collect(node);
            }
            load.samples.rss_close = load.rss_point();
            drain_deadline = now + DRAIN_DEADLINE.as_nanos() as u64;
        }

        load.pump();

        if !closed {
            match interval_ns {
                Some(interval) => {
                    // Open loop: everything due by now goes out, however
                    // late the generator is running.
                    while next_due <= now && next_due < load.window_close {
                        let via = if kind == Kind::Crash { 0 } else { (next_index % 2) as usize };
                        load.publish(via, next_due, now);
                        next_index += 1;
                        next_due = due_in_slot(next_index, interval);
                    }
                }
                None => {
                    for via in 0..load.rig.publishers.len() {
                        if load.rig.publishers[via].unacked.is_empty() {
                            load.publish(via, now, now);
                        }
                    }
                }
            }
        }

        if kind == Kind::Crash {
            if !killed && now >= kill_at {
                killed = true;
                load.victim_hwm_kb = load.rig.cluster.nodes[VICTIM]
                    .pid()
                    .and_then(|pid| util::proc_status_kb(pid, "VmHWM"))
                    .unwrap_or(0);
                load.cpu_collect(VICTIM);
                load.rig.cluster.nodes[VICTIM].kill();
            }
            if killed && !respawned && now >= respawn_at {
                respawned = true;
                load.rig.cluster.start(VICTIM, true)?;
                load.respawned_at = load.now();
                load.cpu_base[VICTIM] = Some(0);
            }
            if respawned && load.rig.subscribers[0].conn.is_none() {
                // The new incarnation comes back crashed-deaf, like a
                // booting process: `restore`, then `subscribe` (which
                // replays its delivery log so far).
                if let Some(mut conn) = Conn::try_connect(load.rig.cluster.nodes[VICTIM].rpc) {
                    conn.send(cluster::RESTORE);
                    conn.send(cluster::SUBSCRIBE);
                    let sub = &mut load.rig.subscribers[0];
                    sub.conn = Some(conn);
                    sub.ids.clear();
                    sub.answers_due = 2;
                    load.rig.control[VICTIM] =
                        Conn::try_connect(load.rig.cluster.nodes[VICTIM].rpc);
                }
            }
            if respawned && load.caught_up_at == UNSET {
                let behind = load.msgs.iter().any(|m| m.due < load.respawned_at && m.seen == UNSET);
                if !behind {
                    load.caught_up_at = load.now();
                }
            }
        }

        if opened && !closed {
            load.sample(now);
            if now >= load.opened_at + load.slices.len() as u64 * 1_000_000_000 {
                load.slices.push((util::lo_tx()?.0, load.msgs.len() as u64));
            }
        }
        if closed && (load.all_settled() || now >= drain_deadline) {
            break;
        }
        std::thread::sleep(POLL_EVERY);
    }

    finish(load, opts, spawn_ready_s)
}

/// Percentile of `values` (sorted in place), 0 when empty.
fn percentile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    util::quantile_sorted(values, q)
}

fn finish(mut load: Load, opts: &RunOpts, spawn_ready_s: f64) -> Result<Outcome, String> {
    let kind = load.kind;
    // The window as the loop observed it: counters were snapshotted at
    // these two instants, so rates divide by this, not by `--seconds`.
    let window_s = (load.closed_at - load.opened_at) as f64 / 1e9;
    let mut checks = std::mem::take(&mut load.checks);

    // Every publish answered, every message seen where expected.
    let unacked = load.msgs.iter().filter(|m| m.acked == UNSET).count() as u64;
    checks.fail(unacked, format!("{unacked} publishes never answered"));
    let unseen = load.msgs.iter().filter(|m| m.seen == UNSET).count() as u64;
    checks.fail(
        unseen,
        format!("{unseen} messages never seen at their subscriber within the drain deadline"),
    );
    for sub in &load.rig.subscribers {
        checks.fail(u64::from(sub.answers_due), "restore/subscribe never answered".into());
    }

    // Every daemon that only receives must have delivered everything:
    // asked over fresh control connections, with time to converge.
    let published = load.msgs.len() as u64;
    let via_count = |via: usize| load.msgs.iter().filter(|m| m.via == via).count() as u64;
    let expected_delivered: Vec<Option<u64>> = match kind {
        Kind::Steady | Kind::Saturate => {
            vec![Some(via_count(1)), Some(via_count(0)), Some(published)]
        }
        // The victim's counter restarts from its snapshot; its stream is
        // certified by the subscription instead.
        Kind::Crash => vec![Some(0), None, Some(published)],
    };
    let deadline = Instant::now() + DRAIN_DEADLINE;
    let mut control: Vec<Conn> = Vec::new();
    let mut totals = StatusTotals::default();
    for (node, want) in expected_delivered.iter().enumerate() {
        let mut conn = Conn::connect(load.rig.cluster.nodes[node].rpc, deadline)?;
        loop {
            let status = conn.call(cluster::STATUS, Duration::from_secs(5))?;
            let delivered = status.get("delivered").and_then(Value::as_u64).unwrap_or(0);
            let done = want.is_none_or(|w| delivered >= w);
            if done || Instant::now() >= deadline {
                if let Some(w) = want {
                    checks.fail(
                        w.abs_diff(delivered),
                        format!("daemon {node} delivered {delivered}, expected {w}"),
                    );
                }
                totals.add(&status);
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        control.push(conn);
    }

    let peak_rss_kb = load.rig.cluster.peak_rss_kb().max(load.victim_hwm_kb);
    load.rig.cluster.shutdown(&mut control);

    // Latencies over the messages due inside the timed window.
    let window: Vec<&Msg> = load.msgs.iter().filter(|m| m.in_window).collect();
    let ms = |ns: u64| ns as f64 / 1e6;
    let mut deliver: Vec<f64> = window
        .iter()
        .filter(|m| m.seen != UNSET)
        .map(|m| ms(m.seen.saturating_sub(m.due)))
        .collect();
    let mut ack: Vec<f64> = window
        .iter()
        .filter(|m| m.acked != UNSET)
        .map(|m| ms(m.acked.saturating_sub(m.written)))
        .collect();
    let mut late: Vec<f64> =
        window.iter().map(|m| m.written.saturating_sub(m.due) as f64 / 1e3).collect();
    let ops = window.len() as u64;
    if ops == 0 {
        return Err("no publish fell inside the timed window".into());
    }
    // Bytes on loopback per publish: see `Kind::wire_over_whole_window`.
    let total_bytes = (load.lo_close.0 - load.lo_open.0) as f64 / ops as f64;
    let wire_bytes = if kind.wire_over_whole_window() {
        total_bytes
    } else {
        let per_slice: Vec<f64> = load
            .slices
            .windows(2)
            .filter(|w| w[1].1 > w[0].1)
            .map(|w| (w[1].0 - w[0].0) as f64 / (w[1].1 - w[0].1) as f64)
            .collect();
        if per_slice.is_empty() {
            total_bytes
        } else {
            util::median(&per_slice)
        }
    };
    let wire_packets = (load.lo_close.1 - load.lo_open.1) as f64 / ops as f64;
    let p50 = percentile(&mut deliver, 0.50);
    let p90 = percentile(&mut deliver, 0.90);
    let p99 = percentile(&mut deliver, 0.99);

    let mut notes = vec![
        ("samples".into(), deliver.len().to_string()),
        ("deliver_p99_ms".into(), format!("{p99:.3}")),
        ("publish_ack_p50_ms".into(), format!("{:.3}", percentile(&mut ack, 0.5))),
        ("lo packets per message".into(), format!("{wire_packets:.2}")),
        ("lo bytes per message, whole window".into(), format!("{total_bytes:.1}")),
        ("loadgen late p99".into(), format!("{:.0} us", percentile(&mut late, 0.99))),
        ("cluster construction (median of 3)".into(), format!("{:.1} ms", spawn_ready_s * 1e3)),
    ];
    // Respawn → the victim has shown every message due before the respawn.
    let catchup_ms = (load.caught_up_at != UNSET && load.respawned_at != UNSET)
        .then(|| ms(load.caught_up_at - load.respawned_at));
    if kind == Kind::Crash {
        let text = catchup_ms.map_or("never".into(), |c| format!("{c:.0} ms"));
        notes.push(("restart catch-up".into(), text));
    }

    let metrics = if load.traced {
        let mut spans = Spans::default();
        for (index, m) in load.msgs.iter().enumerate() {
            // The daemon's own `(sender, seq)` is not echoed in the ack;
            // the publish index identifies the message on this leg.
            let id = MessageId::new(ProcessId::new(m.via), index as u64);
            if m.acked != UNSET {
                spans.push(Layer::PublishAck, m.written, m.acked, index as u32, id);
            }
            if m.seen != UNSET {
                spans.push(Layer::DueDeliver, m.due, m.seen, index as u32, id);
            }
        }
        match spans.write(&opts.out_dir, kind.name()) {
            Ok(path) => notes.push(("spans written to".into(), path.display().to_string())),
            Err(e) => checks.fail(1, format!("cannot write spans: {e}")),
        }
        // Each publish in the window is delivered at the two other daemons.
        let deliveries = (ops * (cluster::N as u64 - 1)) as f64;
        let (rss0, n0) = load.samples.rss_open;
        let (rss1, n1) = load.samples.rss_close;
        vec![
            Metric::new("daemon.spawn_ready_ms", "ms", spawn_ready_s * 1e3),
            Metric::new("daemon.publish_ack_p50_ms", "ms", percentile(&mut ack, 0.5)),
            Metric::new("daemon.restart_catchup_ms", "ms", catchup_ms.unwrap_or(0.0)),
            Metric::new(
                "daemon.datagrams_per_msg",
                "count",
                totals.datagrams as f64 / published as f64,
            ),
            Metric::new("daemon.retransmits", "count", totals.retransmits as f64),
            Metric::new("daemon.sync_requests", "count", totals.sync_requests as f64),
            Metric::new("daemon.refetched", "count", totals.refetched as f64),
            Metric::new(
                "daemon.rss_kb_per_kmsg",
                "kB",
                1000.0 * rss1.saturating_sub(rss0) as f64 / n1.saturating_sub(n0).max(1) as f64,
            ),
            Metric::new("daemon.cpu_ms_per_s", "ms/s", load.cpu_ns as f64 / 1e6 / window_s),
            Metric::new("daemon.cpu_us_per_delivery", "us", load.cpu_ns as f64 / 1e3 / deliveries),
            Metric::new("daemon.deliver_p99_ms", "ms", p99),
            Metric::new("daemon.pending_max", "count", load.samples.pending_max as f64),
            Metric::new("loadgen.late_p99_us", "us", percentile(&mut late, 0.99)),
        ]
    } else {
        let setup_s = spawn_ready_s + load.opened_at as f64 / 1e9;
        vec![
            Metric::new("setup_s", "s", setup_s),
            Metric::new("deliver_p50_ms", "ms", p50),
            Metric::new("deliver_p90_ms", "ms", p90),
            Metric::new("deliveries_per_s", "1/s", load.seen_in_window as f64 / window_s),
            Metric::new("wire_bytes_per_msg", "B", wire_bytes),
            Metric::new("peak_rss_mb", "MB", peak_rss_kb as f64 / 1024.0),
        ]
    };
    Ok(Outcome { ops, checks, metrics, notes })
}

/// Sums of the daemons' own counters at the end of a run.
#[derive(Default)]
struct StatusTotals {
    datagrams: u64,
    retransmits: u64,
    sync_requests: u64,
    refetched: u64,
}

impl StatusTotals {
    fn add(&mut self, status: &Value) {
        let field = |name: &str| status.get(name).and_then(Value::as_u64).unwrap_or(0);
        self.datagrams += field("udp_datagrams_received");
        self.retransmits += field("udp_retransmits");
        self.sync_requests += field("sync_requests");
        self.refetched += field("refetched");
    }
}
