//! Differential test: the entry-indexed wake-up engine must reproduce
//! the seed's linear-rescan delivery order *exactly*.
//!
//! Identical arrival traces are replayed through three paths —
//!
//! 1. [`pcb_broadcast::pending::naive::NaiveQueue`], the seed's
//!    front-to-back restart scan (compiled in via the `naive` feature),
//! 2. [`pcb_broadcast::WakeupIndex`] driven directly, and
//! 3. a full [`pcb_broadcast::PcbProcess`] endpoint —
//!
//! and the delivery orders are asserted identical, down to the encoded
//! wire bytes of each delivered message. A proptest property then checks
//! order invariance across randomly generated causal histories and
//! arrival permutations.

use bytes::Bytes;
use pcb_broadcast::pending::naive::NaiveQueue;
use pcb_broadcast::{wire, Message, MessageId, PcbProcess, WakeupIndex, WakeupStats};
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

/// Generates a causally rich message pool: `senders` endpoints with
/// random (possibly colliding) key sets broadcast `per_sender` messages
/// each; before each send the sender catches up on a random prefix of
/// the messages broadcast so far, so stamps carry genuine cross-sender
/// dependencies. The pool is returned in a random arrival permutation.
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
            let _ = procs[s].on_receive(m, step as u64);
        }
        let payload = Bytes::from((step as u64).to_be_bytes().to_vec());
        pool.push(procs[s].broadcast(payload));
    }
    shuffle(&mut rng, &mut pool);
    pool
}

/// The seed's restart-scan path.
fn replay_naive(space: KeySpace, arrivals: &[Message<Bytes>]) -> (Vec<MessageId>, u64) {
    let mut clock = ProbClock::new(space);
    let mut queue = NaiveQueue::new();
    let mut order = Vec::new();
    for m in arrivals {
        for d in queue.on_receive(m.clone(), &mut clock) {
            order.push(d.id());
        }
    }
    (order, queue.scan_steps)
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

/// A full endpoint (dedup and detectors at their defaults).
fn replay_process(space: KeySpace, arrivals: &[Message<Bytes>]) -> Vec<MessageId> {
    let keys = KeySet::from_entries(space, &(0..space.k()).collect::<Vec<_>>()).unwrap();
    let mut process: PcbProcess<Bytes> = PcbProcess::new(ProcessId::new(u32::MAX as usize), keys);
    let mut order = Vec::new();
    for (t, m) in arrivals.iter().enumerate() {
        for d in process.on_receive(m.clone(), t as u64) {
            order.push(d.message.id());
        }
    }
    order
}

#[test]
fn reversed_fifo_chain_all_engines_agree() {
    // Single-sender FIFO chain arriving fully reversed: the naive
    // engine's worst case (every arrival rescans the whole queue).
    let space = KeySpace::new(8, 2).unwrap();
    let mut sender: PcbProcess<Bytes> =
        PcbProcess::new(ProcessId::new(0), KeySet::from_entries(space, &[1, 5]).unwrap());
    let mut arrivals: Vec<Message<Bytes>> =
        (0..50u64).map(|i| sender.broadcast(Bytes::from(i.to_be_bytes().to_vec()))).collect();
    arrivals.reverse();

    let (naive_order, scans) = replay_naive(space, &arrivals);
    let (indexed_order, stats) = replay_indexed(space, &arrivals);
    assert_eq!(naive_order, indexed_order);
    assert_eq!(naive_order.len(), 50, "fixpoint delivers the whole chain");
    let seqs: Vec<u64> = naive_order.iter().map(|id| id.seq()).collect();
    assert_eq!(seqs, (1..=50).collect::<Vec<_>>(), "FIFO order restored");
    // The index wakes exactly one waiter per delivery on this trace while
    // the naive path rescans the queue; the work gap is quadratic.
    assert_eq!(stats.max_wake_fanout, 1);
    assert!(
        scans > 2 * stats.gap_checks,
        "naive {scans} scans vs {} indexed gap checks",
        stats.gap_checks
    );
}

#[test]
fn random_traces_byte_identical_across_engines() {
    // Both a colliding space (r=6, k=2 over up to 5 senders) and a
    // roomier one: delivery order must match byte-for-byte either way.
    for (r, k) in [(6, 2), (16, 2)] {
        let space = KeySpace::new(r, k).unwrap();
        for seed in 0..20u64 {
            let senders = 2 + (seed as usize % 4);
            let arrivals = generate_trace(seed, senders, 6, space);
            let (naive_order, _) = replay_naive(space, &arrivals);
            let (indexed_order, _) = replay_indexed(space, &arrivals);
            let process_order = replay_process(space, &arrivals);

            assert_eq!(
                naive_order.len(),
                arrivals.len(),
                "seed {seed}: every message is eventually deliverable"
            );
            assert_eq!(naive_order, indexed_order, "seed {seed}: raw engines diverge");
            assert_eq!(naive_order, process_order, "seed {seed}: endpoint diverges");

            // "Byte-identical": re-encode each delivered message in naive
            // order and in indexed order; the frames must match exactly.
            let by_id = |order: &[MessageId]| -> Vec<Bytes> {
                order
                    .iter()
                    .map(|id| {
                        let m = arrivals.iter().find(|m| m.id() == *id).unwrap();
                        wire::encode_full(m)
                    })
                    .collect::<Vec<_>>()
            };
            assert_eq!(by_id(&naive_order), by_id(&indexed_order));
        }
    }
}

#[test]
fn interleaved_drain_points_do_not_change_order() {
    // The naive queue drains after every arrival; make sure the index
    // gives the same answer when drained only once at the end (tickets,
    // not drain timing, decide the order among simultaneously-ready
    // messages).
    let space = KeySpace::new(6, 2).unwrap();
    for seed in 100..110u64 {
        let arrivals = generate_trace(seed, 3, 5, space);
        let (naive_order, _) = replay_naive(space, &arrivals);

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
        assert_eq!(naive_order, batched_order, "seed {seed}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]
    #[test]
    fn delivery_order_invariant_under_rewrite(
        seed in 0u64..u64::MAX / 2,
        senders in 2usize..6,
        per_sender in 1usize..8,
    ) {
        let space = KeySpace::new(6, 2).unwrap();
        let arrivals = generate_trace(seed, senders, per_sender, space);
        let (naive_order, _) = replay_naive(space, &arrivals);
        let (indexed_order, _) = replay_indexed(space, &arrivals);
        prop_assert_eq!(&naive_order, &indexed_order);
        prop_assert_eq!(naive_order.len(), arrivals.len());
    }
}
