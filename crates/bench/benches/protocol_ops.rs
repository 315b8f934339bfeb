//! Endpoint-level benchmarks: broadcast stamping, in-order delivery, the
//! pending-queue flush, and both delivery-error detectors.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use pcb_broadcast::{PcbConfig, PcbProcess, RecentListDetector};
use pcb_clock::{AssignmentPolicy, KeyAssigner, KeySet, KeySpace, ProbClock, ProcessId};

const R: usize = 100;
const K: usize = 4;

fn keys(seed: u64) -> KeySet {
    let space = KeySpace::new(R, K).expect("space");
    KeyAssigner::new(space, AssignmentPolicy::UniformRandom, seed).next_set().expect("assignment")
}

fn bench_broadcast(c: &mut Criterion) {
    let mut p: PcbProcess<u64> = PcbProcess::new(ProcessId::new(0), keys(1));
    let mut i = 0u64;
    c.bench_function("protocol/broadcast_stamp_r100", |b| {
        b.iter(|| {
            i += 1;
            black_box(p.broadcast(i))
        })
    });
}

fn bench_receive_in_order(c: &mut Criterion) {
    c.bench_function("protocol/on_receive_in_order_64", |b| {
        b.iter_batched(
            || {
                let mut tx: PcbProcess<u64> = PcbProcess::new(ProcessId::new(0), keys(1));
                let rx: PcbProcess<u64> = PcbProcess::new(ProcessId::new(1), keys(2));
                let msgs: Vec<_> = (0..64).map(|i| tx.broadcast(i)).collect();
                (rx, msgs)
            },
            |(mut rx, msgs)| {
                for (t, m) in msgs.into_iter().enumerate() {
                    black_box(rx.on_receive(m, t as u64).len());
                }
                rx
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_receive_reversed_flush(c: &mut Criterion) {
    // Worst case for the pending queue: the whole batch arrives reversed
    // and flushes in one cascade.
    c.bench_function("protocol/on_receive_reversed_64", |b| {
        b.iter_batched(
            || {
                let mut tx: PcbProcess<u64> = PcbProcess::new(ProcessId::new(0), keys(1));
                let rx: PcbProcess<u64> = PcbProcess::new(ProcessId::new(1), keys(2));
                let mut msgs: Vec<_> = (0..64).map(|i| tx.broadcast(i)).collect();
                msgs.reverse();
                (rx, msgs)
            },
            |(mut rx, msgs)| {
                let mut delivered = 0usize;
                for (t, m) in msgs.into_iter().enumerate() {
                    delivered += rx.on_receive(m, t as u64).len();
                }
                black_box(delivered)
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_detector_alg4(c: &mut Criterion) {
    let k = keys(1);
    let mut sender = ProbClock::new(KeySpace::new(R, K).expect("space"));
    let ts = sender.stamp_send(&k);
    let rx = ProbClock::new(KeySpace::new(R, K).expect("space"));
    c.bench_function("protocol/detector_alg4_check", |b| {
        b.iter(|| black_box(pcb_broadcast::instant_alert(&rx, black_box(&ts), &k)))
    });
}

fn bench_detector_alg5(c: &mut Criterion) {
    let k = keys(1);
    let space = KeySpace::new(R, K).expect("space");
    let mut sender = ProbClock::new(space);
    let ts = sender.stamp_send(&k);
    let mut rx = ProbClock::new(space);
    rx.record_delivery(&k);
    let mut det = RecentListDetector::new(1_000_000);
    // A realistically sized recent list (~X = 20 messages in flight).
    let mut other = ProbClock::new(space);
    for i in 0..20 {
        let w = other.stamp_send(&keys(i + 10));
        det.record(i, w);
    }
    c.bench_function("protocol/detector_alg5_check_l20", |b| {
        b.iter(|| black_box(det.check(100, &rx, black_box(&ts), &k)))
    });
}

fn bench_endpoint_with_recent_list(c: &mut Criterion) {
    let cfg = PcbConfig { recent_window: Some(1000), ..PcbConfig::default() };
    c.bench_function("protocol/on_receive_with_alg5_64", |b| {
        b.iter_batched(
            || {
                let mut tx: PcbProcess<u64> = PcbProcess::new(ProcessId::new(0), keys(1));
                let rx = PcbProcess::with_config(ProcessId::new(1), keys(2), cfg.clone());
                let msgs: Vec<_> = (0..64).map(|i| tx.broadcast(i)).collect();
                (rx, msgs)
            },
            |(mut rx, msgs)| {
                for (t, m) in msgs.into_iter().enumerate() {
                    black_box(rx.on_receive(m, t as u64).len());
                }
                rx
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_wire_codec(c: &mut Criterion) {
    use bytes::Bytes;
    let mut p: PcbProcess<Bytes> = PcbProcess::new(ProcessId::new(0), keys(1));
    for _ in 0..50 {
        let _ = p.broadcast(Bytes::new());
    }
    let msg = p.broadcast(Bytes::from_static(b"a realistic small payload"));
    let frame = pcb_broadcast::encode_full(&msg);
    c.bench_function("protocol/wire_encode_r100", |b| {
        b.iter(|| black_box(pcb_broadcast::encode_full(black_box(&msg))))
    });
    c.bench_function("protocol/wire_decode_r100", |b| {
        b.iter(|| black_box(pcb_broadcast::decode(black_box(frame.clone())).expect("valid")))
    });
}

criterion_group!(
    benches,
    bench_broadcast,
    bench_receive_in_order,
    bench_receive_reversed_flush,
    bench_detector_alg4,
    bench_detector_alg5,
    bench_endpoint_with_recent_list,
    bench_wire_codec,
);
criterion_main!(benches);
