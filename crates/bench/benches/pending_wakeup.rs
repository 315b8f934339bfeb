//! Pending-heavy benchmark: the unblock cascade that motivated the
//! entry-indexed wake-up engine.
//!
//! A single sender's FIFO chain of `P` messages arrives fully reversed,
//! so every message except the chain head blocks. The cascade is then
//! triggered by delivering the head: each delivery unblocks exactly the
//! next message. The paper's front-to-back rescan (`pcb_clock::spec`)
//! pays `O(P)` per delivery (`O(P²)` per cascade); the wake-up index pays
//! `O(1)` amortized wake work per delivery. Both are preloaded once and
//! cloned per iteration so setup cost (itself quadratic for the rescan)
//! stays out of the measurement.

use std::hint::black_box;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use pcb_broadcast::{Message, MessageId, WakeupIndex};
use pcb_clock::{spec, KeySet, KeySpace, ProbClock, ProcessId};

const R: usize = 32;
const K: usize = 2;

/// The sender's FIFO chain: `count` messages stamped in sequence.
fn chain(space: KeySpace, count: usize) -> Vec<Message<()>> {
    let keys = std::rc::Rc::new(KeySet::from_entries(space, &[0, 1]).expect("entries in range"));
    let mut sender = ProbClock::new(space);
    (0..count)
        .map(|i| {
            let ts = sender.stamp_send(&keys);
            Message::new(MessageId::new(ProcessId::new(0), i as u64 + 1), keys.clone(), ts, ())
        })
        .collect()
}

/// Preloads the specification's rescan with the chain minus its head
/// (all blocked), returning the receiver and the head's stamp.
fn preload_rescan(space: KeySpace, count: usize) -> (spec::Process<u64>, Vec<u64>) {
    let mut stamps: Vec<Vec<u64>> =
        chain(space, count).iter().map(|m| m.timestamp().entries().to_vec()).collect();
    let head = stamps.remove(0);
    let mut receiver = spec::Process::new(R, &[], None);
    for (seq, stamp) in stamps.into_iter().enumerate().rev() {
        assert!(
            receiver.receive(seq as u64 + 2, stamp, &[0, 1], 0).is_empty(),
            "preload must stay blocked"
        );
    }
    (receiver, head)
}

/// Same preload through the wake-up index.
fn preload_indexed(space: KeySpace, count: usize) -> (WakeupIndex<()>, ProbClock, Message<()>) {
    let mut msgs = chain(space, count);
    let head = msgs.remove(0);
    msgs.reverse();
    let clock = ProbClock::new(space);
    let mut index = WakeupIndex::new(R);
    for m in msgs {
        index.insert(0, m, &clock);
    }
    assert_eq!(index.stats().ready_on_arrival, 0, "preload must stay blocked");
    (index, clock, head)
}

/// Runs the full cascade on the indexed engine, returning deliveries.
fn drain_indexed(index: &mut WakeupIndex<()>, clock: &mut ProbClock) -> usize {
    let mut delivered = 0;
    while let Some(m) = index.pop_ready() {
        clock.record_delivery(m.keys());
        let keys: Vec<usize> = m.keys().iter().collect();
        delivered += 1;
        index.on_clock_advance(keys, clock);
    }
    delivered
}

fn bench_unblock_cascade(c: &mut Criterion) {
    let space = KeySpace::new(R, K).expect("space");
    let mut group = c.benchmark_group("pending/unblock_cascade");
    group.measurement_time(Duration::from_secs(2));
    for &p in &[100usize, 1_000, 10_000] {
        let rescan_seed = preload_rescan(space, p);
        group.bench_function(&format!("rescan/{p}"), |b| {
            b.iter_batched(
                || rescan_seed.clone(),
                |(mut receiver, head)| {
                    let delivered = receiver.receive(1, head, &[0, 1], 0).len();
                    assert_eq!(delivered, black_box(p), "cascade must fully drain");
                },
                BatchSize::LargeInput,
            )
        });
        let indexed_seed = preload_indexed(space, p);
        group.bench_function(&format!("indexed/{p}"), |b| {
            b.iter_batched(
                || indexed_seed.clone(),
                |(mut index, mut clock, head)| {
                    index.insert(0, head, &clock);
                    let delivered = drain_indexed(&mut index, &mut clock);
                    assert_eq!(delivered, black_box(p), "cascade must fully drain");
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_unblock_cascade);
criterion_main!(benches);
