//! Process-level chaos certification: recorded chaos runs replayed
//! against real `pcb-daemon` processes, diffed bit-for-bit.
//!
//! The equivalence suite already certifies two shells — the simulator's
//! chaos driver and the in-process loopback cluster — against each
//! other. This module adds the third and harshest leg: every node of a
//! recorded run is hosted by a **separate OS process**, reached over a
//! real UDP socket through the deterministic fault shim, crashed with an
//! actual `SIGKILL` and restarted from its on-disk snapshot + WAL.
//!
//! The driver exploits the replay-equivalence property the export
//! module's tests prove: an endpoint is a pure function of its own
//! input sequence, so nodes replay one at a time, each through its own
//! daemon process. For each node the driver:
//!
//! 1. writes the node spec into a fresh state directory and spawns
//!    `pcb-daemon --mode replay`, reading the bound address from the
//!    daemon's `listen.txt`,
//! 2. streams the node's recorded steps over the reliable UDP channel
//!    (optionally through shim-injected loss/dup/reorder/corruption),
//!    windowed, collecting per-step delivery digests from the acks,
//! 3. on a recorded `Crash`: waits until every sent step is acked — the
//!    daemon persists before acking, so at that point its disk state
//!    *is* the simulator's crash-model state — then `SIGKILL`s the
//!    process,
//! 4. skips the crash window's `Tick` steps (a dead process has no
//!    timer; the recorded ticks only nudged the crashed endpoint's
//!    monotone clock clamp, which the `Restore` timestamp supersedes),
//! 5. on the recorded `Restore`: respawns with `--resume --next-step R`
//!    and streams from the `Restore` step itself, taking the same
//!    snapshot + WAL path an in-process restore does.
//!
//! The concatenated digests must equal the simulator's recorded
//! deliveries **bit for bit**, and a [`StreamOracle`] replays the whole
//! schedule to certify zero lost streams and exactly-once delivery per
//! incarnation. Counters are *not* diffed on this leg: a SIGKILLed
//! process takes its volatile counters with it, by design.

use std::collections::{BTreeMap, HashSet};
use std::net::SocketAddr;
use std::os::fd::AsRawFd;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use pcb_broadcast::endpoint::Input;
use pcb_broadcast::MessageId;
use pcb_sim::export::ReplayScript;
use pcb_sim::{ChaosRecord, LinkFaults, StreamOracle};

use crate::daemon::{self, decode_msg, encode_step_msg, encode_stop_msg, DaemonMsg};
use crate::ready;
use crate::udp::{UdpConfig, UdpEvent, UdpTransport};

/// How long the driver waits without ack progress before it declares a
/// daemon wedged.
const STALL_TIMEOUT: Duration = Duration::from_secs(10);
/// Most unacknowledged steps in flight per daemon.
const WINDOW: usize = 32;

/// How the certification driver runs the daemons.
#[derive(Debug, Clone)]
pub struct CertifyOptions {
    /// Path to the `pcb-daemon` binary.
    pub daemon_bin: PathBuf,
    /// Scratch directory for per-node state dirs.
    pub work_dir: PathBuf,
    /// Deterministic link faults injected at the driver's socket shim
    /// for the whole replay (burst loss / dup / reorder / corruption on
    /// the real datagram path; the reliable channel must absorb it all).
    pub shim_faults: Option<LinkFaults>,
}

impl CertifyOptions {
    /// Defaults around a daemon binary path and a scratch directory: no
    /// shim faults.
    #[must_use]
    pub fn new(daemon_bin: PathBuf, work_dir: PathBuf) -> Self {
        CertifyOptions { daemon_bin, work_dir, shim_faults: None }
    }
}

/// Why a certification run failed.
#[derive(Debug)]
pub enum CertifyError {
    /// Spawning, killing, or state-directory IO failed.
    Io(std::io::Error),
    /// A daemon never published its bound address (crashed on startup?).
    NoListenAddr {
        /// The node whose daemon went silent.
        node: usize,
    },
    /// Ack progress stalled (daemon wedged, or the channel gave up).
    Stalled {
        /// The stalled node.
        node: usize,
        /// Steps acked before the stall.
        acked: u64,
        /// Steps sent.
        sent: u64,
    },
    /// A node's delivery digests diverged from the simulator's record.
    Mismatch {
        /// The diverging node.
        node: usize,
        /// Index of the first diverging delivery (in the node's flat
        /// delivery stream).
        at: usize,
        /// Deliveries the daemon produced.
        got: usize,
        /// Deliveries the record expects.
        want: usize,
    },
    /// The stream oracle found a safety violation in the daemon leg.
    Oracle(String),
}

impl std::fmt::Display for CertifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CertifyError::Io(e) => write!(f, "daemon io: {e}"),
            CertifyError::NoListenAddr { node } => {
                write!(f, "node {node}: daemon never published listen.txt")
            }
            CertifyError::Stalled { node, acked, sent } => {
                write!(f, "node {node}: ack progress stalled at {acked}/{sent} steps")
            }
            CertifyError::Mismatch { node, at, got, want } => write!(
                f,
                "node {node}: delivery stream diverged at position {at} \
                 (got {got} deliveries, want {want})"
            ),
            CertifyError::Oracle(v) => write!(f, "stream oracle violation: {v}"),
        }
    }
}

impl std::error::Error for CertifyError {}

impl From<std::io::Error> for CertifyError {
    fn from(e: std::io::Error) -> Self {
        CertifyError::Io(e)
    }
}

/// What a successful certification run observed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CertifyStats {
    /// Nodes replayed (one daemon process lifetime each, plus one more
    /// per restart).
    pub nodes: usize,
    /// Steps streamed to daemons (excluding skipped crash-window ticks).
    pub steps: u64,
    /// Real `SIGKILL`s delivered.
    pub kills: u32,
    /// Respawns from on-disk snapshot + WAL.
    pub restarts: u32,
    /// Deliveries diffed bit-for-bit against the record.
    pub deliveries: u64,
    /// Cross-incarnation re-deliveries the oracle observed (non-zero
    /// whenever a kill rolled deliveries back past the last snapshot
    /// and anti-entropy re-fetched them).
    pub redelivered: u64,
}

/// Replays every node of `record` through real daemon processes and
/// certifies the delivery streams against the simulator's record.
///
/// # Errors
///
/// Any [`CertifyError`]; see its variants.
pub fn certify_record(
    record: &ChaosRecord,
    opts: &CertifyOptions,
) -> Result<CertifyStats, CertifyError> {
    let script = ReplayScript::from_record(record);
    let mut stats = CertifyStats { nodes: script.n, ..CertifyStats::default() };
    let mut by_step: Vec<StepDigests> = Vec::with_capacity(script.n);

    for node in 0..script.n {
        let acked = replay_node(&script, node, opts, &mut stats)?;
        let got: Vec<(MessageId, bool, bool)> = acked.values().flatten().copied().collect();
        let want = &script.expected[node];
        if got != *want {
            let at = got
                .iter()
                .zip(want.iter())
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| got.len().min(want.len()));
            return Err(CertifyError::Mismatch { node, at, got: got.len(), want: want.len() });
        }
        stats.deliveries += got.len() as u64;
        by_step.push(acked);
    }

    // Independent safety net over the daemon-produced streams: walk each
    // node's schedule in step order, interleaving crash marks with the
    // per-step digests the acks carried, then demand membership-aware
    // convergence.
    let mut oracle = StreamOracle::new(script.n);
    let mut streams = vec![0u64; script.n];
    let mut send_at: Vec<Vec<u64>> = vec![Vec::new(); script.n];
    let mut join_at = vec![0u64; script.n];
    let mut left = vec![false; script.n];
    for (node, steps) in script.steps.iter().enumerate() {
        for (i, (now_us, input)) in steps.iter().enumerate() {
            match input {
                Input::Crash => oracle.mark_crash(node),
                // Adoption of a join grant discards the placeholder's
                // (empty) state exactly like a restore discards volatile
                // state; the mark keeps the oracle's incarnation
                // bookkeeping aligned with the endpoint's.
                Input::Join(_) => {
                    oracle.mark_crash(node);
                    join_at[node] = *now_us;
                }
                Input::Leave => left[node] = true,
                Input::Broadcast(_) => {
                    streams[node] += 1;
                    send_at[node].push(*now_us);
                }
                _ => {}
            }
            if let Some(digests) = by_step[node].get(&(i as u64)) {
                for (id, _, _) in digests {
                    oracle
                        .record_delivery(node, id.sender().index(), id.seq())
                        .map_err(|v| CertifyError::Oracle(format!("{v:?}")))?;
                }
            }
        }
    }
    // Convergence relative to each receiver's membership window: a
    // joiner's pre-join messages arrived as snapshot state inside its
    // grant (never as deliveries), and a leaver goes deaf mid-run — both
    // are exempt; everyone else must hold every stream completely. With
    // static membership this is exactly `StreamOracle::certify`. Slots
    // with an empty step stream never entered the run (placeholder for a
    // join the plan scheduled but the run never fired) and observed
    // nothing.
    for (receiver, steps) in script.steps.iter().enumerate() {
        if steps.is_empty() || left[receiver] {
            continue;
        }
        for sender in 0..script.n {
            if sender == receiver {
                continue;
            }
            let missing = (1..=streams[sender])
                .filter(|&seq| {
                    send_at[sender][(seq - 1) as usize] > join_at[receiver]
                        && !oracle.holds(receiver, sender, seq)
                })
                .count();
            if missing > 0 {
                return Err(CertifyError::Oracle(format!(
                    "receiver {receiver} lost {missing} message(s) of node {sender}'s stream"
                )));
            }
        }
    }
    stats.redelivered = (0..script.n).map(|r| oracle.redelivered(r)).sum();
    Ok(stats)
}

/// One node's delivery digests keyed by the step index that produced
/// them.
type StepDigests = BTreeMap<u64, Vec<(MessageId, bool, bool)>>;

/// Streams one node's recorded steps to a daemon process (or several
/// process incarnations, under real kills) and returns the per-step
/// delivery digests keyed by step index.
fn replay_node(
    script: &ReplayScript,
    node: usize,
    opts: &CertifyOptions,
    stats: &mut CertifyStats,
) -> Result<StepDigests, CertifyError> {
    let state_dir = opts.work_dir.join(format!("node-{node}"));
    let _ = std::fs::remove_dir_all(&state_dir);
    std::fs::create_dir_all(&state_dir)?;
    daemon::save_spec(&state_dir, &script.spec(node))?;

    let mut child = spawn_daemon(&opts.daemon_bin, &state_dir, false, 0)?;
    let mut daemon_addr = wait_listen_addr(&state_dir, &mut child, node)?;

    let mut transport = UdpTransport::bind(
        "127.0.0.1:0".parse().expect("loopback literal"),
        0,
        UdpConfig::default(),
        0xace0_0000 + node as u64,
    )?;
    transport.set_faults(opts.shim_faults);

    let started = Instant::now();
    let steps = &script.steps[node];
    let mut acked: BTreeMap<u64, Vec<(MessageId, bool, bool)>> = BTreeMap::new();
    let mut sent: HashSet<u64> = HashSet::new();
    let mut killed = false;
    let mut last_progress = Instant::now();

    for (i, (now_us, input)) in steps.iter().enumerate() {
        let idx = i as u64;
        if killed {
            if matches!(input, Input::Restore) {
                let _ = std::fs::remove_file(state_dir.join("listen.txt"));
                child = spawn_daemon(&opts.daemon_bin, &state_dir, true, idx)?;
                daemon_addr = wait_listen_addr(&state_dir, &mut child, node)?;
                killed = false;
                stats.restarts += 1;
                last_progress = Instant::now();
                // Fall through: the Restore step itself streams to the
                // fresh process, exercising the snapshot + WAL path.
            } else {
                // A dead process can receive nothing. The recorded
                // crash-window steps were all no-ops on the sim's deaf
                // endpoint anyway, except for the monotone clock clamp —
                // and the Restore step's own (later) timestamp
                // re-establishes that.
                continue;
            }
        }
        if matches!(input, Input::Crash) {
            // Stream the recorded Crash step itself before the kill:
            // crash-edge effects — a snapshot falling due exactly at the
            // crash timestamp, and its trace events — must land on disk
            // so the process leg matches the simulator's crash-model
            // state (and its viz trace) bit for bit. Then drain: once
            // every sent step is acked, the daemon has persisted exactly
            // that state, making the SIGKILL the physical half of
            // Input::Crash.
            transport.send(daemon_addr, encode_step_msg(idx, *now_us, input), wall(started));
            sent.insert(idx);
            stats.steps += 1;
            drain_acks(&mut transport, &mut acked, &sent, started, &mut last_progress)
                .map_err(|()| stalled(node, &acked, &sent))?;
            child.kill()?;
            let _ = child.wait();
            killed = true;
            stats.kills += 1;
            continue;
        }

        // Window flow control. A full window refills once half of it is
        // acknowledged, so steps leave in batches that share datagrams:
        // refilled one ack at a time, every step went alone, and a step
        // costs the daemon less than a datagram does.
        if sent.len() - acked.len() >= WINDOW {
            while sent.len() - acked.len() > WINDOW / 2 {
                if last_progress.elapsed() > STALL_TIMEOUT {
                    return Err(stalled(node, &acked, &sent));
                }
                wait_for_daemon(
                    &mut transport,
                    started,
                    STALL_TIMEOUT.saturating_sub(last_progress.elapsed()),
                );
                pump(&mut transport, &mut acked, &sent, started, &mut last_progress);
            }
        }
        transport.send(daemon_addr, encode_step_msg(idx, *now_us, input), wall(started));
        sent.insert(idx);
        stats.steps += 1;
    }

    drain_acks(&mut transport, &mut acked, &sent, started, &mut last_progress).map_err(|()| {
        let _ = child.kill();
        stalled(node, &acked, &sent)
    })?;

    // Ask the daemon to exit; give it a moment, then make sure.
    transport.send(daemon_addr, encode_stop_msg(), wall(started));
    let deadline = Instant::now() + Duration::from_millis(2_000);
    loop {
        let _ = transport.poll(wall(started));
        match child.try_wait() {
            Ok(Some(_)) => break,
            Ok(None) if Instant::now() < deadline => {
                // An exit is no socket event: look again every 5 ms.
                wait_for_daemon(&mut transport, started, Duration::from_millis(5));
            }
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                break;
            }
        }
    }

    Ok(acked)
}

/// Wall-clock microseconds since the driver started, for transport RTO
/// bookkeeping. Step timestamps stay in recorded virtual time; the two
/// clocks never mix.
fn wall(started: Instant) -> u64 {
    started.elapsed().as_micros() as u64
}

/// Polls the transport once, recording any new step acks. Acks for
/// steps this replay never sent (or already recorded) are dropped: a
/// stale shim-duplicated datagram must not inflate the drain count.
fn pump(
    transport: &mut UdpTransport,
    acked: &mut BTreeMap<u64, Vec<(MessageId, bool, bool)>>,
    sent: &HashSet<u64>,
    started: Instant,
    last_progress: &mut Instant,
) {
    for event in transport.poll(wall(started)) {
        if let UdpEvent::Frame { frame, .. } = event {
            if let Ok(DaemonMsg::Ack { idx, digests }) = decode_msg(&frame) {
                if sent.contains(&idx) && acked.insert(idx, digests).is_none() {
                    *last_progress = Instant::now();
                }
            }
        }
    }
}

/// Pumps until every sent step is acked or progress stalls.
fn drain_acks(
    transport: &mut UdpTransport,
    acked: &mut BTreeMap<u64, Vec<(MessageId, bool, bool)>>,
    sent: &HashSet<u64>,
    started: Instant,
    last_progress: &mut Instant,
) -> Result<(), ()> {
    while acked.len() < sent.len() {
        if last_progress.elapsed() > STALL_TIMEOUT {
            return Err(());
        }
        wait_for_daemon(transport, started, STALL_TIMEOUT.saturating_sub(last_progress.elapsed()));
        pump(transport, acked, sent, started, last_progress);
    }
    Ok(())
}

/// Ships what the driver sent, then blocks until a datagram arrives, the
/// transport has timed work to do, or `limit` has passed. A failed wait
/// only ends early: every caller pumps and checks its stall budget
/// again after it.
fn wait_for_daemon(transport: &mut UdpTransport, started: Instant, limit: Duration) {
    let now_us = wall(started);
    transport.flush(now_us);
    let due = transport
        .next_deadline_us()
        .map_or(limit, |at| limit.min(Duration::from_micros(at.saturating_sub(now_us))));
    let _ = ready::wait([(transport.as_raw_fd(), false)], Some(due));
}

fn stalled(
    node: usize,
    acked: &BTreeMap<u64, Vec<(MessageId, bool, bool)>>,
    sent: &HashSet<u64>,
) -> CertifyError {
    CertifyError::Stalled { node, acked: acked.len() as u64, sent: sent.len() as u64 }
}

fn spawn_daemon(
    bin: &Path,
    state_dir: &Path,
    resume: bool,
    next_step: u64,
) -> std::io::Result<Child> {
    let stderr =
        std::fs::OpenOptions::new().create(true).append(true).open(state_dir.join("stderr.log"))?;
    let mut cmd = Command::new(bin);
    cmd.arg("--state-dir")
        .arg(state_dir)
        .arg("--listen")
        .arg("127.0.0.1:0")
        .arg("--mode")
        .arg("replay")
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::from(stderr));
    if resume {
        cmd.arg("--resume").arg("--next-step").arg(next_step.to_string());
    }
    cmd.spawn()
}

/// Polls for the daemon's `listen.txt` (port-0 handshake): each
/// incarnation binds an ephemeral port and publishes the resolved
/// address atomically.
fn wait_listen_addr(
    state_dir: &Path,
    child: &mut Child,
    node: usize,
) -> Result<SocketAddr, CertifyError> {
    let deadline = Instant::now() + Duration::from_millis(5_000);
    let path = state_dir.join("listen.txt");
    while Instant::now() < deadline {
        if let Ok(text) = std::fs::read_to_string(&path) {
            if let Ok(addr) = text.trim().parse() {
                return Ok(addr);
            }
        }
        if matches!(child.try_wait(), Ok(Some(_))) {
            return Err(CertifyError::NoListenAddr { node });
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    Err(CertifyError::NoListenAddr { node })
}
