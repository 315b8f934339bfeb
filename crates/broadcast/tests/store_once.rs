//! What an endpoint's anti-entropy store holds, checked against the
//! rule the store used to enforce itself with an id index.
//!
//! The store keeps no index by id; the endpoint inserts each accepted
//! message once: a wire frame as it is accepted, anything else as it
//! delivers, and a wire frame again at its delivery if it waited longer
//! than the store's window (its first copy aged out meanwhile). A model
//! of the indexed store — insert idempotent by id, a wire frame stored as
//! it parks, every delivery inserted — is driven beside a receiver fed a
//! reordered stream over all three ingest paths (`handle_wire`,
//! `FrameReceived`, `SyncResponse`), with duplicates and its own
//! broadcasts mixed in. After every input the receiver's store must hold
//! no id twice and exactly the model's `(time, id)` list.

use std::collections::{HashMap, VecDeque};

use bytes::Bytes;
use pcb_broadcast::endpoint::{Endpoint, Input, Output, RecoveryTimingUs};
use pcb_broadcast::{wire, Message, MessageId, PcbConfig, PcbProcess};
use pcb_clock::{AssignmentPolicy, ClusterConfig, KeyAssigner, KeySpace, ProcessId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const SENDERS: usize = 5;
const MESSAGES: usize = 240;
/// The receiver's store window, in the stream's time units.
const WINDOW: u64 = 40;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Path {
    Wire,
    Frame,
    Sync,
    /// The receiver's own broadcast.
    Send,
}

fn space() -> KeySpace {
    KeySpace::new(16, 2).unwrap()
}

/// `(now, path, message)` in arrival order: causally chained senders
/// (each delivers every message before its next send), each message
/// arriving a few steps after its send, one in eight far later than the
/// store window, one in ten a second time, and a receiver broadcast now
/// and then.
fn stream(seed: u64) -> Vec<(u64, Path, Option<Message<Bytes>>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let keys = KeyAssigner::new(space(), AssignmentPolicy::UniformRandom, seed)
        .assign_n(SENDERS + 1)
        .unwrap();
    let mut senders: Vec<PcbProcess<Bytes>> =
        (0..SENDERS).map(|i| PcbProcess::new(ProcessId::new(i), keys[i].clone())).collect();
    let mut arrivals = Vec::new();
    for step in 0..MESSAGES as u64 {
        let from = rng.random_range(0..SENDERS);
        let message = senders[from].broadcast(Bytes::from(step.to_le_bytes().to_vec()));
        for (i, peer) in senders.iter_mut().enumerate() {
            if i != from {
                assert_eq!(peer.on_receive(message.clone(), step).len(), 1);
            }
        }
        let path =
            |rng: &mut StdRng| [Path::Wire, Path::Frame, Path::Sync][rng.random_range(0..3usize)];
        let delay = if rng.random_bool(0.125) {
            rng.random_range(WINDOW + 5..3 * WINDOW)
        } else {
            rng.random_range(0..4)
        };
        arrivals.push((step + delay, path(&mut rng), Some(message.clone())));
        if rng.random_bool(0.1) {
            let again = step + delay + rng.random_range(0..2 * WINDOW);
            arrivals.push((again, path(&mut rng), Some(message)));
        }
        if rng.random_bool(0.05) {
            arrivals.push((step, Path::Send, None));
        }
    }
    // A stable sort keeps same-time arrivals in the order they were made.
    arrivals.sort_by_key(|&(now, _, _)| now);
    arrivals
}

/// The store as it was when an id index made every insert idempotent.
#[derive(Default)]
struct IndexedStore {
    entries: VecDeque<(u64, MessageId)>,
}

impl IndexedStore {
    fn insert(&mut self, now: u64, id: MessageId) {
        let horizon = now.saturating_sub(WINDOW);
        while self.entries.front().is_some_and(|&(at, _)| at < horizon) {
            self.entries.pop_front();
        }
        if !self.entries.iter().any(|&(_, held)| held == id) {
            self.entries.push_back((now, id));
        }
    }
}

/// What one stream exercised: deliveries per path the message first
/// arrived by, duplicates, and wire arrivals that waited past the window.
#[derive(Debug, Default)]
struct Coverage {
    delivered: HashMap<Path, u64>,
    duplicates: u64,
    wire_outlived_window: u64,
}

/// Feeds `seed`'s stream to a receiver beside the indexed model and
/// checks the two stores after every input.
fn run(seed: u64) -> Result<Coverage, String> {
    let keys = KeyAssigner::new(space(), AssignmentPolicy::UniformRandom, seed)
        .assign_n(SENDERS + 1)
        .unwrap();
    let timing = RecoveryTimingUs {
        store_window_us: WINDOW,
        stale_after_us: 1 << 40,
        poll_every_us: 1 << 40,
        snapshot_every_us: 1 << 40,
        sync_timeout_us: 1 << 40,
    };
    let mut receiver: Endpoint<Bytes> = Endpoint::new(
        ProcessId::new(SENDERS),
        keys[SENDERS].clone(),
        PcbConfig::default(),
        Some(timing),
    );
    let mut model = IndexedStore::default();
    let mut first_path = HashMap::new();
    let mut coverage = Coverage::default();
    for (index, (now, path, message)) in stream(seed).into_iter().enumerate() {
        let (waiting, duplicates) = (receiver.pending_len(), receiver.stats().duplicates);
        let id = message.as_ref().map(Message::id);
        let outs = match (path, message) {
            (Path::Wire, Some(m)) => {
                first_path.entry(m.id()).or_insert(path);
                receiver.handle_wire(wire::encode_full(&m), now).expect("a full frame decodes")
            }
            (Path::Frame, Some(m)) => {
                first_path.entry(m.id()).or_insert(path);
                receiver.handle(Input::FrameReceived(m), now)
            }
            (Path::Sync, Some(m)) => {
                first_path.entry(m.id()).or_insert(path);
                let config = ClusterConfig::genesis(space());
                receiver.handle(Input::SyncResponse { messages: vec![m], config }, now)
            }
            (_, _) => receiver.handle(Input::Broadcast(Bytes::from_static(b"own")), now),
        };
        coverage.duplicates += receiver.stats().duplicates - duplicates;
        if let (Path::Wire, Some(id)) = (path, id) {
            if receiver.pending_len() > waiting {
                // The indexed store kept a wire frame from when it parked.
                model.insert(now, id);
            }
        }
        for out in &outs {
            match out {
                Output::SendFrame(m) => model.insert(now, m.id()),
                Output::Deliver(d) => {
                    let first = first_path[&d.message.id()];
                    *coverage.delivered.entry(first).or_default() += 1;
                    if first == Path::Wire && d.blocked_for > WINDOW {
                        coverage.wire_outlived_window += 1;
                    }
                    model.insert(now, d.message.id());
                }
                _ => {}
            }
        }
        let held: Vec<(u64, MessageId)> =
            receiver.store().entries().map(|(at, m)| (at, m.id())).collect();
        let mut ids: Vec<MessageId> = held.iter().map(|&(_, id)| id).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), held.len(), "input {}: an id held twice", index);
        prop_assert_eq!(&held, &Vec::from(model.entries.clone()), "input {}", index);
    }
    prop_assert_eq!(receiver.pending_len(), 0, "every message arrived, so every one delivers");
    Ok(coverage)
}

#[test]
fn the_streams_reach_every_path_and_outlive_the_window() {
    let mut total = Coverage::default();
    for seed in 0..8 {
        let coverage = run(seed).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        for (path, n) in coverage.delivered {
            *total.delivered.entry(path).or_default() += n;
        }
        total.duplicates += coverage.duplicates;
        total.wire_outlived_window += coverage.wire_outlived_window;
    }
    for path in [Path::Wire, Path::Frame, Path::Sync] {
        assert!(total.delivered.get(&path).copied().unwrap_or(0) > 100, "{path:?}: {total:?}");
    }
    assert!(total.duplicates > 50, "{total:?}");
    assert!(total.wire_outlived_window > 10, "{total:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn the_store_holds_each_id_once_and_what_the_indexed_store_held(seed in any::<u64>()) {
        run(seed)?;
    }
}
