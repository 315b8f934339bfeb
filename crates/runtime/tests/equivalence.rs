//! The certification harness: seeded simulator chaos runs replayed
//! through the daemon's own start-up and persist code, every recorded
//! crash a restart from a real state directory.
//!
//! Each case records a chaos run with `pcb_sim::record_endpoint_chaos`
//! (crash/recover, partition and link-fault windows; churn plans add
//! snapshot-assisted joins, graceful leaves and an online (R, K)
//! reconfiguration). Every node gets a state directory holding its spec
//! and boots through `start_node`, as `pcb-daemon` does. Each node is
//! then fed its recorded inputs in order, through the step codec, and
//! after each input persists exactly as the daemon does
//! (`persist_changes`). A recorded `Crash` is applied and persisted, and
//! the endpoint is dropped: the node hears nothing until its `Restore`,
//! which boots it again from its directory (`start_node` with `resume`)
//! and is fed to the new endpoint. The harness then certifies:
//!
//! * per-node delivery order, message ids and Algorithm 4/5 alert flags
//!   against the simulator's record, and their checksum against the
//!   pinned table [`PINNED`];
//! * per-node recovery counters, summed over a node's incarnations;
//! * every frame, probe and reply the record shows arriving at a node,
//!   against what the replayed peer emitted;
//! * each boot's counter in the state directory;
//! * through a [`StreamOracle`], exactly-once delivery per incarnation
//!   and no lost stream within each node's membership window;
//! * with tracing on, each node's trace, record for record, paired with
//!   the incarnation it was drained in.
//!
//! A kill between two inputs lands where this restart does: a daemon
//! persists before any effect of an input leaves it. Real `SIGKILL`,
//! `fsync` and sockets are `tests/daemon.rs`'s and the ledger's
//! `daemon-crash`'s to cover.

use std::collections::HashSet;
use std::path::{Path, PathBuf};

use pcb_broadcast::endpoint::{Input, Output};
use pcb_broadcast::wire::checksum64;
use pcb_broadcast::{Counters, Endpoint, MessageId, NodeSpec};
use pcb_clock::{AssignmentPolicy, KeySpace, ProcessId};
use pcb_runtime::daemon::{persist_changes, save_spec, start_node};
use pcb_sim::{
    chaos_config, churn_config, decode_step, drain_node_trace, encode_step, record_endpoint_chaos,
    ChaosRecord, SimConfig, StreamOracle,
};
use pcb_telemetry::TraceRecord;

const N: usize = 9;
const DURATION_MS: f64 = 2500.0;

/// One delivery: message id, then the Algorithm 4 and 5 alert flags.
type Digest = (MessageId, bool, bool);

/// Per seed, the `checksum64` of its delivery streams (see
/// [`delivery_checksum`]). A change to a pin needs a line in CHANGES.md
/// that says why the deliveries moved.
const PINNED: &[(u64, u64)] = &[
    (1, 0x5173_2afd_2dfd_50db),
    (2, 0xd377_cfde_a055_2c26),
    (3, 0x4116_76e5_79a4_83a8),
    (4, 0x8f63_b2b2_372d_3f4c),
    (5, 0x3ea2_72e1_9dc5_47d7),
    (6, 0x0576_d4ea_5250_368e),
    (7, 0x9269_8723_3081_2c88),
    (8, 0x9376_be51_694f_2fb0),
    (9, 0x85ee_9d3e_da06_63d4),
    (10, 0xf98c_f735_f210_103a),
    (11, 0x5a64_2611_ef21_01ed),
    (12, 0xf8ad_60a3_f0e1_d191),
    (13, 0xc5d4_e9a9_3a2b_9577),
    (14, 0xfcf8_de7a_1d3f_f09f),
    (15, 0x82bd_cd5e_ff5e_7dbe),
    (16, 0x9bf2_a165_f03d_9fe3),
    (101, 0xf9f2_db92_0fb7_2844),
    (102, 0x64ef_5e85_051e_2e12),
    (103, 0x71d1_1438_f557_13f3),
    (104, 0xbfba_b746_0aa8_c4b2),
    (105, 0x1ee4_fd81_a4fa_1e60),
    (106, 0xb0f9_5a34_fb26_f2b4),
    (107, 0x5000_fd06_baf5_6a59),
    (108, 0xda36_ee9f_7508_11d3),
    (201, 0xf1bd_e926_b6d7_dbd4),
    (202, 0x7def_e528_8b87_db84),
    (203, 0x49d9_ac89_4f3e_3621),
    (204, 0x3fc0_408c_156d_9895),
    (205, 0x981c_b27d_e10c_6fd6),
    (206, 0xc680_9066_afca_e503),
    (301, 0xd9e3_c822_0fbe_d6ee),
];

/// The seeded run of corpus seed `seed`: seeds 1–16 on exact vector
/// clocks, 101–108 on the paper's (100, 4) clock, and the churn plans
/// 201–206 and 301 on (100, 4).
fn case(seed: u64) -> (SimConfig, KeySpace, AssignmentPolicy) {
    match seed {
        1..=16 => (
            chaos_config(seed, N, DURATION_MS),
            KeySpace::vector(N).expect("vector space"),
            AssignmentPolicy::RoundRobin,
        ),
        101..=108 => (
            chaos_config(seed, N, DURATION_MS),
            KeySpace::new(100, 4).expect("(100, 4)"),
            AssignmentPolicy::UniformRandom,
        ),
        201..=206 | 301 => (
            churn_config(seed, N, DURATION_MS, 3_000.0, Some((160, 4))),
            KeySpace::new(100, 4).expect("(100, 4)"),
            AssignmentPolicy::UniformRandom,
        ),
        _ => panic!("seed {seed} is not in the corpus"),
    }
}

/// One byte string per seed: per node, its delivery count, then each
/// delivery as `sender u32 | seq u64 | flags u8` (instant alert bit 0,
/// recent alert bit 1), little endian; and its checksum.
fn delivery_checksum(deliveries: &[Vec<Digest>]) -> u64 {
    let mut bytes = Vec::new();
    for node in deliveries {
        bytes.extend_from_slice(&(node.len() as u64).to_le_bytes());
        for (id, instant, recent) in node {
            bytes.extend_from_slice(&id.sender().index_u32().to_le_bytes());
            bytes.extend_from_slice(&id.seq().to_le_bytes());
            bytes.push(u8::from(*instant) | u8::from(*recent) << 1);
        }
    }
    checksum64(&bytes)
}

/// A node as the harness runs it: its state directory and, between a
/// boot and a recorded crash, the endpoint that boot built.
struct Node {
    dir: PathBuf,
    endpoint: Option<Endpoint<u32>>,
    /// The WAL mark last written, as the daemon tracks it.
    last_durable: u64,
    boots: u64,
}

impl Node {
    /// Boots from the state directory, whose boot counter must count
    /// this boot: the transport fences a restarted peer by it.
    fn boot(&mut self, resume: bool) {
        let (_, incarnation, endpoint) = start_node(&self.dir, resume)
            .unwrap_or_else(|e| panic!("{}: boot failed: {e}", self.dir.display()));
        self.boots += 1;
        assert_eq!(incarnation, self.boots, "{}: boot counter", self.dir.display());
        self.last_durable = endpoint.durable_seq();
        self.endpoint = Some(endpoint);
    }
}

/// Step-codec bytes of what a node emitted for a peer, keyed by the node
/// the record must attribute it to: a frame's or a probe's sender, a
/// reply's addressee.
fn peer_output(p: usize, output: &Output<u32>) -> Option<(usize, Vec<u8>)> {
    let (peer, input) = match output {
        Output::SendFrame(m) => (p, Input::FrameReceived(m.clone())),
        Output::RequestSync { windows } => {
            (p, Input::SyncRequest { from: ProcessId::new(p), windows: windows.clone() })
        }
        Output::SyncReply { to, messages, config } => {
            (to.index(), Input::SyncResponse { messages: messages.clone(), config: *config })
        }
        _ => return None,
    };
    Some((peer, encode_step(0, &input)))
}

/// The same key for an input the record shows arriving at node `q`, if a
/// peer's output became it.
fn recorded_peer_input(q: usize, input: &Input<u32>) -> Option<(usize, Vec<u8>)> {
    let peer = match input {
        Input::FrameReceived(m) => m.id().sender().index(),
        Input::SyncRequest { from, .. } => from.index(),
        Input::SyncResponse { .. } => q,
        _ => return None,
    };
    Some((peer, encode_step(0, input)))
}

/// The oracle walk over the replayed delivery streams: crash marks
/// interleaved with each step's deliveries, then convergence relative to
/// each receiver's membership window.
struct Walk {
    oracle: StreamOracle,
    /// Per sender, the virtual time of each broadcast.
    send_at: Vec<Vec<u64>>,
    join_at: Vec<u64>,
    left: Vec<bool>,
    /// Whether a slot was ever fed an input: a placeholder for a join
    /// the run never fired observed nothing.
    entered: Vec<bool>,
}

impl Walk {
    fn new(n: usize) -> Self {
        Walk {
            oracle: StreamOracle::new(n),
            send_at: vec![Vec::new(); n],
            join_at: vec![0; n],
            left: vec![false; n],
            entered: vec![false; n],
        }
    }

    /// Notes what `input` means to the oracle, before its deliveries.
    fn step(&mut self, node: usize, now: u64, input: &Input<u32>) {
        self.entered[node] = true;
        match input {
            Input::Crash => self.oracle.mark_crash(node),
            // Adopting a grant discards the placeholder's (empty) state
            // the way a restore discards volatile state; the mark keeps
            // the oracle's incarnations aligned with the endpoint's.
            Input::Join(_) => {
                self.oracle.mark_crash(node);
                self.join_at[node] = now;
            }
            Input::Leave => self.left[node] = true,
            Input::Broadcast(_) => self.send_at[node].push(now),
            _ => {}
        }
    }

    fn deliver(&mut self, node: usize, id: MessageId) -> Result<(), String> {
        let (sender, seq) = (id.sender().index(), id.seq());
        self.oracle.record_delivery(node, sender, seq).map_err(|v| v.to_string())
    }

    /// Every receiver that entered the run and did not leave holds every
    /// message sent after it joined. A joiner's earlier messages came
    /// inside its grant, as state, not as deliveries.
    fn converged(&self) -> Result<(), String> {
        let n = self.send_at.len();
        for receiver in (0..n).filter(|&r| self.entered[r] && !self.left[r]) {
            for sender in (0..n).filter(|&s| s != receiver) {
                let missing = (1..=self.send_at[sender].len() as u64)
                    .filter(|&seq| {
                        self.send_at[sender][seq as usize - 1] > self.join_at[receiver]
                            && !self.oracle.holds(receiver, sender, seq)
                    })
                    .count();
                if missing > 0 {
                    return Err(format!(
                        "receiver {receiver} lost {missing} message(s) of node {sender}'s stream"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// What one replay of a record produced.
struct Replay {
    deliveries: Vec<Vec<Digest>>,
    /// Per node, its recovery counters summed over its incarnations.
    counters: Vec<Counters>,
    /// Per node, its boots from a state directory after a recorded crash.
    restarts: Vec<u64>,
    /// Every peer output, as [`peer_output`] keys it.
    sent: HashSet<(usize, Vec<u8>)>,
    /// Per node, its trace across incarnations, drained after every
    /// input as the simulator drains its own.
    traces: Vec<Vec<(u64, TraceRecord)>>,
}

/// Replays `record` node by node under `work` and walks the oracle over
/// the result.
fn replay(seed: u64, record: &ChaosRecord, work: &Path) -> Replay {
    let n = record.keys.len();
    let mut nodes: Vec<Node> = (0..n)
        .map(|node| {
            let dir = work.join(format!("node-{node}"));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("state dir");
            let spec = NodeSpec {
                node: node as u32,
                n: n as u32,
                keys: record.keys[node].clone(),
                pcb_config: record.pcb_config.clone(),
                timing: record.timing,
            };
            save_spec(&dir, &spec).expect("spec.bin");
            let mut node = Node { dir, endpoint: None, last_durable: 0, boots: 0 };
            node.boot(false);
            node
        })
        .collect();
    let mut out = Replay {
        deliveries: vec![Vec::new(); n],
        counters: vec![Counters::default(); n],
        restarts: vec![0; n],
        sent: HashSet::new(),
        traces: vec![Vec::new(); n],
    };
    let mut walk = Walk::new(n);
    for (now, p, input) in &record.inputs {
        let p = *p as usize;
        // Bytes alone must carry the input, as they carry a daemon's
        // anti-entropy traffic.
        let (now, input) = decode_step(&encode_step(*now, input))
            .unwrap_or_else(|e| panic!("seed {seed}: step codec refused {input:?}: {e}"));
        let node = &mut nodes[p];
        if node.endpoint.is_none() {
            // A dead process hears nothing; the recorded ticks of its
            // crash window only nudged the endpoint's monotone clock,
            // which the restore's own timestamp supersedes.
            if !matches!(input, Input::Restore) {
                continue;
            }
            node.boot(true);
            out.restarts[p] += 1;
        }
        let endpoint = node.endpoint.as_mut().expect("booted");
        walk.step(p, now, &input);
        let crash = matches!(input, Input::Crash);
        let outputs = endpoint.handle(input, now);
        persist_changes(&node.dir, endpoint, &mut node.last_durable, &outputs)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        for output in &outputs {
            if let Output::Deliver(d) = output {
                out.deliveries[p].push((d.message.id(), d.instant_alert, d.recent_alert));
                walk.deliver(p, d.message.id())
                    .unwrap_or_else(|v| panic!("seed {seed}: stream oracle: {v}"));
            }
            out.sent.extend(peer_output(p, output));
        }
        drain_node_trace(endpoint, &mut out.traces[p]);
        if crash {
            out.counters[p].merge(&endpoint.recovery_counters());
            node.endpoint = None;
        }
    }
    for (p, node) in nodes.iter().enumerate() {
        if let Some(endpoint) = &node.endpoint {
            out.counters[p].merge(&endpoint.recovery_counters());
        }
    }
    walk.converged().unwrap_or_else(|v| panic!("seed {seed}: stream oracle: {v}"));
    out
}

fn work_dir(seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("equivalence-{seed}"))
}

/// Certifies one replay of `record` against the simulator's record and
/// the pinned table.
fn assert_certified(seed: u64, record: &ChaosRecord, replayed: &Replay) {
    assert!(!record.inputs.is_empty(), "seed {seed}: empty input log");
    assert_eq!(
        record.metrics.undetected_violations, 0,
        "seed {seed}: a causal violation escaped Algorithm 4"
    );
    for (node, (got, want)) in replayed.deliveries.iter().zip(&record.deliveries).enumerate() {
        if got != want {
            let at = got.iter().zip(want).position(|(a, b)| a != b);
            let at = at.unwrap_or_else(|| got.len().min(want.len()));
            panic!(
                "seed {seed}: node {node}'s deliveries diverge at {at} \
                 (replayed {}, recorded {})",
                got.len(),
                want.len()
            );
        }
    }
    assert_eq!(replayed.counters, record.counters, "seed {seed}: recovery counters diverged");
    for (node, (got, want)) in replayed.traces.iter().zip(&record.traces).enumerate() {
        if let Some((at, (a, b))) = got.iter().zip(want).enumerate().find(|(_, (a, b))| a != b) {
            panic!(
                "seed {seed}: node {node}'s trace diverges at record {at}:\n  \
                 sim {b:?}\n  got {a:?}"
            );
        }
        assert_eq!(
            got.len(),
            want.len(),
            "seed {seed}: node {node}'s trace is a prefix of the other"
        );
    }
    // What a node sent counts too: every frame, probe and reply the
    // record shows arriving must be one the replayed sender emitted.
    for (_, q, input) in &record.inputs {
        if let Some(key) = recorded_peer_input(*q as usize, input) {
            // A probe's timing draws its jitter from the node's recovery
            // counters, which a restart from disk starts at zero while an
            // in-process restore keeps them: a restarted node's probes
            // fire at other instants, so they carry other windows.
            if matches!(input, Input::SyncRequest { .. }) && replayed.restarts[key.0] > 0 {
                continue;
            }
            assert!(
                replayed.sent.contains(&key),
                "seed {seed}: node {q} received {input:?}, which node {} never emitted",
                key.0
            );
        }
    }
    let sum = delivery_checksum(&replayed.deliveries);
    let pinned = PINNED.iter().find(|(s, _)| *s == seed).map(|(_, sum)| *sum);
    assert_eq!(pinned, Some(sum), "seed {seed}: deliveries checksum {sum:#018x} is not the pin");
}

/// Records corpus seed `seed`, with every endpoint tracing when `traced`,
/// replays it through the daemon's start-up and persist code, and
/// certifies the replay.
fn certify(seed: u64, traced: bool) -> (ChaosRecord, Replay) {
    let (mut cfg, space, policy) = case(seed);
    if traced {
        cfg.trace_capacity = 1 << 16;
    }
    let record = record_endpoint_chaos(&cfg, space, policy)
        .unwrap_or_else(|e| panic!("seed {seed}: chaos run failed: {e}"));
    let work = work_dir(seed).with_extension(if traced { "traced" } else { "" });
    let replayed = replay(seed, &record, &work);
    assert_certified(seed, &record, &replayed);
    let _ = std::fs::remove_dir_all(&work);
    (record, replayed)
}

#[test]
fn vector_chaos_traces_replay_bit_identically() {
    // Exact (vector-equivalent) clocks: one distinct key per node.
    for seed in 1..=16u64 {
        let (_, replayed) = certify(seed, false);
        assert!(
            replayed.restarts.iter().any(|&r| r > 0),
            "seed {seed}: no node restarted from disk"
        );
    }
}

#[test]
fn probabilistic_chaos_traces_replay_bit_identically() {
    // The paper's compressed clocks: collisions make delivery order
    // genuinely probabilistic, so equivalence here certifies the whole
    // Algorithm 2/3 path, not just the exact special case.
    for seed in 101..=108u64 {
        let (_, replayed) = certify(seed, false);
        assert!(
            replayed.restarts.iter().any(|&r| r > 0),
            "seed {seed}: no node restarted from disk"
        );
    }
}

#[test]
fn churn_traces_replay_bit_identically() {
    // Dynamic membership through the config-epoch plane: churn storms
    // (snapshot-assisted joins + graceful leaves) plus an online (R, K)
    // reconfiguration. `Input::Join` rides the same step stream as every
    // other stimulus, so the newcomers' adoption of their grants must
    // replay bit-identically too.
    let (mut joins, mut leaves) = (0, 0);
    for seed in (201..=206u64).chain([301]) {
        let (record, _) = certify(seed, false);
        assert_eq!(record.metrics.reconfigurations, 1, "seed {seed}");
        joins += record.metrics.joins;
        leaves += record.metrics.leaves;
    }
    assert!(joins > 0, "no joins in the churn corpus");
    assert!(leaves > 0, "no leaves in the churn corpus");
}

/// Every corpus seed again, with tracing on: each node's trace, paired
/// with the incarnation it was drained in, must equal the simulator's
/// record for record. The endpoint emits `violation: false` on both
/// sides: neither patches in an oracle's verdict. A timeline merged from
/// per-node streams is a function of them, so this is at least as strict
/// as comparing merged timelines.
#[test]
fn per_node_traces_match_the_simulator() {
    for &(seed, _) in PINNED {
        let (_, replayed) = certify(seed, true);
        let records: usize = replayed.traces.iter().map(Vec::len).sum();
        assert!(records >= 1_000, "seed {seed}: tracing recorded too little ({records} records)");
    }
}

#[test]
fn recorded_plans_exercise_crashes_and_partitions() {
    // The corpus above must actually contain the interesting faults.
    let mut crashes = 0u64;
    let mut partitions = 0u64;
    for seed in 1..=16u64 {
        let cfg = chaos_config(seed, N, DURATION_MS);
        let plan = cfg.faults.expect("chaos_config sets a plan");
        for ev in &plan.events {
            match ev.kind {
                pcb_sim::FaultKind::Crash { .. } => crashes += 1,
                pcb_sim::FaultKind::PartitionStart { .. } => partitions += 1,
                _ => {}
            }
        }
    }
    assert!(crashes > 0, "no crash windows in the differential corpus");
    assert!(partitions > 0, "no partition windows in the differential corpus");
}
