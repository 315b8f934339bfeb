//! Differential test against the paper: [`pcb_clock::spec`] writes
//! Algorithms 1–5 out literally, with the pending list rescanned from the
//! front after every delivery, and the tuned code must agree with it.
//!
//! A causal history is generated with the specification and
//! [`PcbProcess`] in lockstep: every sender exists twice, both sides
//! deliver what the sender catches up on, and every Algorithm 1 stamp the
//! endpoint attaches must equal the specification's. A random arrival
//! permutation of the history is then replayed through three receivers —
//!
//! 1. the specification,
//! 2. a bare [`WakeupIndex`], and
//! 3. a [`PcbProcess`] with an Algorithm 5 window —
//!
//! and the delivery order, and each delivery's Algorithm 4 and
//! Algorithm 5 verdicts, must equal the specification's.

use bytes::Bytes;
use pcb_broadcast::{Message, MessageId, PcbConfig, PcbProcess, WakeupIndex, WakeupStats};
use pcb_clock::spec::{self, Delivery};
use pcb_clock::{KeySet, KeySpace, ProbClock, ProcessId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Picks `k` distinct entries of `0..r` uniformly (partial Fisher-Yates).
fn random_keys(rng: &mut StdRng, r: usize, k: usize) -> KeySet {
    let mut entries: Vec<usize> = (0..r).collect();
    for i in 0..k {
        let j = rng.random_range(i..r);
        entries.swap(i, j);
    }
    entries.truncate(k);
    entries.sort_unstable();
    let space = KeySpace::new(r, k).expect("valid space");
    KeySet::from_entries(space, &entries).expect("entries in range")
}

fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = rng.random_range(0..=i);
        items.swap(i, j);
    }
}

/// Hands `m` to the specification's process `p` at time `now`.
fn spec_receive<P>(
    p: &mut spec::Process<MessageId>,
    m: &Message<P>,
    now: u64,
) -> Vec<Delivery<MessageId>> {
    let f_j: Vec<usize> = m.keys().iter().collect();
    p.receive(m.id(), m.timestamp().entries().to_vec(), &f_j, now)
}

/// Generates a causally rich message pool: `senders` endpoints with
/// random (possibly colliding) key sets broadcast `per_sender` messages
/// each; before each send the sender catches up on a random prefix of
/// the messages broadcast so far, so stamps carry genuine cross-sender
/// dependencies. Each endpoint runs in lockstep with its specification,
/// which must deliver the same messages and attach the same stamps. The
/// pool is returned in a random arrival permutation.
fn generate_trace(
    seed: u64,
    senders: usize,
    per_sender: usize,
    space: KeySpace,
) -> Vec<Message<Bytes>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut procs: Vec<PcbProcess<Bytes>> = (0..senders)
        .map(|i| PcbProcess::new(ProcessId::new(i), random_keys(&mut rng, space.r(), space.k())))
        .collect();
    let mut specs: Vec<spec::Process<MessageId>> = procs
        .iter()
        .map(|p| spec::Process::new(space.r(), &p.keys().iter().collect::<Vec<_>>(), None))
        .collect();
    let mut pool: Vec<Message<Bytes>> = Vec::new();
    let mut caught_up = vec![0usize; senders];
    let mut quota = vec![per_sender; senders];
    for step in 0..senders * per_sender {
        let mut s = rng.random_range(0..senders);
        while quota[s] == 0 {
            s = (s + 1) % senders;
        }
        quota[s] -= 1;
        while caught_up[s] < pool.len() && rng.random_bool(0.7) {
            let m = pool[caught_up[s]].clone();
            caught_up[s] += 1;
            if m.sender().index() == s {
                continue; // delivered to itself when it was sent
            }
            let expected = spec_receive(&mut specs[s], &m, step as u64);
            let delivered: Vec<MessageId> =
                procs[s].on_receive(m, step as u64).iter().map(|d| d.message.id()).collect();
            assert_eq!(delivered, expected.iter().map(|d| d.id).collect::<Vec<_>>());
            assert_eq!(procs[s].clock().entries(), specs[s].clock(), "Algorithm 2 record");
        }
        let payload = Bytes::from((step as u64).to_be_bytes().to_vec());
        let m = procs[s].broadcast(payload);
        assert_eq!(
            m.timestamp().entries(),
            specs[s].broadcast(),
            "Algorithm 1 stamp of {}",
            m.id()
        );
        pool.push(m);
    }
    shuffle(&mut rng, &mut pool);
    pool
}

/// The specification's receiver, with arrival `t` at time `t`.
fn replay_spec(
    space: KeySpace,
    window: Option<u64>,
    arrivals: &[Message<Bytes>],
) -> (Vec<Delivery<MessageId>>, u64) {
    let mut receiver = spec::Process::new(space.r(), &[], window);
    let mut out = Vec::new();
    for (t, m) in arrivals.iter().enumerate() {
        out.extend(spec_receive(&mut receiver, m, t as u64));
    }
    (out, receiver.guard_evaluations())
}

/// The wake-up index driven bare (no dedup, no detectors).
fn replay_indexed(space: KeySpace, arrivals: &[Message<Bytes>]) -> (Vec<MessageId>, WakeupStats) {
    let mut clock = ProbClock::new(space);
    let mut index = WakeupIndex::new(clock.len());
    let mut order = Vec::new();
    for (t, m) in arrivals.iter().enumerate() {
        index.insert(t as u64, m.clone(), &clock);
        while let Some(d) = index.pop_ready() {
            clock.record_delivery(d.keys());
            let advanced: Vec<usize> = d.keys().iter().collect();
            order.push(d.id());
            index.on_clock_advance(advanced, &clock);
        }
    }
    (order, index.stats())
}

/// A full endpoint with an Algorithm 5 window, arrival `t` at time `t`.
fn replay_process(
    space: KeySpace,
    window: u64,
    arrivals: &[Message<Bytes>],
) -> Vec<Delivery<MessageId>> {
    let keys = KeySet::from_entries(space, &(0..space.k()).collect::<Vec<_>>()).unwrap();
    let config = PcbConfig { recent_window: Some(window), ..PcbConfig::default() };
    let mut process: PcbProcess<Bytes> =
        PcbProcess::with_config(ProcessId::new(u32::MAX as usize), keys, config);
    let mut out = Vec::new();
    for (t, m) in arrivals.iter().enumerate() {
        out.extend(process.on_receive(m.clone(), t as u64).into_iter().map(|d| Delivery {
            id: d.message.id(),
            alert4: d.instant_alert,
            alert5: d.recent_alert,
        }));
    }
    out
}

fn ids(deliveries: &[Delivery<MessageId>]) -> Vec<MessageId> {
    deliveries.iter().map(|d| d.id).collect()
}

/// Replays `arrivals` through all three receivers and asserts that they
/// agree with the specification; returns its deliveries.
fn assert_matches_spec(
    space: KeySpace,
    window: u64,
    arrivals: &[Message<Bytes>],
) -> Vec<Delivery<MessageId>> {
    let (expected, _) = replay_spec(space, Some(window), arrivals);
    assert_eq!(expected.len(), arrivals.len(), "every message is eventually deliverable");
    let (indexed, _) = replay_indexed(space, arrivals);
    assert_eq!(indexed, ids(&expected), "the wake-up index diverges from the specification");
    let process = replay_process(space, window, arrivals);
    for (at, (got, want)) in process.iter().zip(&expected).enumerate() {
        assert_eq!(got, want, "delivery {at}: the endpoint diverges from the specification");
    }
    assert_eq!(process.len(), expected.len());
    expected
}

#[test]
fn reversed_fifo_chain_matches_the_spec() {
    // Single-sender FIFO chain arriving fully reversed: the rescan's
    // worst case (every arrival rescans the whole list).
    let space = KeySpace::new(8, 2).unwrap();
    let mut sender: PcbProcess<Bytes> =
        PcbProcess::new(ProcessId::new(0), KeySet::from_entries(space, &[1, 5]).unwrap());
    let mut arrivals: Vec<Message<Bytes>> =
        (0..50u64).map(|i| sender.broadcast(Bytes::from(i.to_be_bytes().to_vec()))).collect();
    arrivals.reverse();

    let (expected, scans) = replay_spec(space, None, &arrivals);
    let (indexed_order, stats) = replay_indexed(space, &arrivals);
    assert_eq!(ids(&expected), indexed_order);
    let seqs: Vec<u64> = indexed_order.iter().map(|id| id.seq()).collect();
    assert_eq!(seqs, (1..=50).collect::<Vec<_>>(), "FIFO order restored");
    // The index wakes exactly one waiter per delivery on this trace while
    // the specification rescans the list; the work gap is quadratic.
    assert_eq!(stats.max_wake_fanout, 1);
    assert!(scans > 2 * stats.gap_checks, "{scans} rescans vs {} gap checks", stats.gap_checks);
}

#[test]
fn random_traces_match_the_spec() {
    // A colliding space (r=6, k=2 over up to 5 senders) and a roomier
    // one, each under a short and a long Algorithm 5 window.
    let (mut alert4, mut alert5) = (0, 0);
    for (r, k) in [(6, 2), (16, 2)] {
        let space = KeySpace::new(r, k).unwrap();
        for seed in 0..20u64 {
            let senders = 2 + (seed as usize % 4);
            let arrivals = generate_trace(seed, senders, 6, space);
            for window in [2, 12] {
                let expected = assert_matches_spec(space, window, &arrivals);
                alert4 += expected.iter().filter(|d| d.alert4).count();
                alert5 += expected.iter().filter(|d| d.alert5).count();
            }
        }
    }
    // The verdict comparison above means something only if both fire.
    assert!(alert4 > alert5 && alert5 > 0, "alerts: Algorithm 4 {alert4}, Algorithm 5 {alert5}");
}

#[test]
fn interleaved_drain_points_do_not_change_order() {
    // The specification drains after every arrival; the index gives the
    // same answer when drained only once at the end (tickets, not drain
    // timing, decide the order among simultaneously-ready messages).
    let space = KeySpace::new(6, 2).unwrap();
    for seed in 100..110u64 {
        let arrivals = generate_trace(seed, 3, 5, space);
        let (expected, _) = replay_spec(space, None, &arrivals);

        let mut clock = ProbClock::new(space);
        let mut index = WakeupIndex::new(clock.len());
        for (t, m) in arrivals.iter().enumerate() {
            index.insert(t as u64, m.clone(), &clock);
        }
        let mut batched_order = Vec::new();
        while let Some(d) = index.pop_ready() {
            clock.record_delivery(d.keys());
            let advanced: Vec<usize> = d.keys().iter().collect();
            batched_order.push(d.id());
            index.on_clock_advance(advanced, &clock);
        }
        assert_eq!(ids(&expected), batched_order, "seed {seed}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]
    #[test]
    fn random_histories_match_the_spec(
        seed in 0u64..u64::MAX / 2,
        senders in 2usize..6,
        per_sender in 1usize..8,
        window in 0u64..16,
    ) {
        let space = KeySpace::new(6, 2).unwrap();
        let arrivals = generate_trace(seed, senders, per_sender, space);
        assert_matches_spec(space, window, &arrivals);
    }
}
