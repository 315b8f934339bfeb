//! Fixed-size probes of single layers, timed from outside through each
//! module's public functions. Times are the fastest of [`PASSES`] equal
//! passes divided by the operations in a pass; counts and byte sizes are
//! exact for a given seed. Sizes are small on purpose: the whole table
//! has to fit beside a traced workload run.

use std::net::{IpAddr, Ipv4Addr, SocketAddr};
use std::time::Instant;

use bytes::Bytes;
use pcb_broadcast::endpoint::{Endpoint, Input, Output};
use pcb_broadcast::{
    decode_snapshot, encode_snapshot, fragment, wire, DeltaDecoder, DeltaEncoder, Message,
    MessageStore, PcbConfig, PcbProcess, ProcessSnapshot, Reassembler, RecoveryTimingUs,
    SyncRequest, WakeupIndex,
};
use pcb_clock::{AssignmentPolicy, KeyAssigner, KeySet, KeySpace, ProbClock, ProcessId};
use pcb_runtime::daemon::{encode_pcb_msg, load_snapshot, save_snapshot, save_wal};
use pcb_runtime::json::{self, Value};
use pcb_runtime::{UdpConfig, UdpEvent, UdpTransport};
use pcb_sim::export::{decode_step, encode_step, snapshot_from_wire, snapshot_to_wire};
use pcb_sim::{
    simulate_endpoint_chaos, simulate_prob, EventQueue, FaultPlan, Scheduler, SimConfig,
};
use pcb_telemetry::{Hist, TraceEvent, Tracer};

use crate::alloc::counted;
use crate::catalogue::PER_LAYER;
use crate::mesh;
use crate::report::Metric;
use crate::util::{self, fastest_of};
use crate::RunOpts;

/// Passes per timed probe.
const PASSES: usize = 9;

fn space() -> KeySpace {
    KeySpace::new(100, 4).expect("the paper's (100, 4) space")
}

fn key_sets(seed: u64, n: usize) -> Vec<KeySet> {
    KeyAssigner::new(space(), AssignmentPolicy::UniformRandom, util::sub_seed(seed, 0x7A))
        .assign_n(n)
        .expect("key sets from C(100, 4)")
}

/// ns per operation: fastest of [`PASSES`] passes of `ops` operations.
fn ns_per_op(ops: usize, pass: impl FnMut()) -> f64 {
    fastest_of(PASSES, pass) * 1e9 / ops as f64
}

fn metric(out: &mut Vec<Metric>, name: &'static str, value: f64) {
    let spec = PER_LAYER.iter().find(|m| m.name == name).expect("probe names a catalogue metric");
    out.push(Metric::new(spec.name, spec.unit, value));
}

fn payload() -> Bytes {
    Bytes::from(vec![0xAB; 32])
}

/// A steady single-sender stream: every third send follows a foreign
/// delivery, so stamps move outside the sender's own entries too.
fn stream(seed: u64, n: usize) -> Vec<Message<Bytes>> {
    let keys = key_sets(seed, 2);
    let mut a = PcbProcess::new(ProcessId::new(0), keys[0].clone());
    let mut b = PcbProcess::new(ProcessId::new(1), keys[1].clone());
    (0..n)
        .map(|i| {
            if i % 3 == 2 {
                let m = b.broadcast(Bytes::new());
                let _ = a.on_receive(m, i as u64);
            }
            a.broadcast(payload())
        })
        .collect()
}

fn clock_probes(seed: u64, out: &mut Vec<Metric>) {
    const OPS: usize = 20_000;
    let keys = key_sets(seed, 2);
    let mut clock = ProbClock::new(space());
    metric(
        out,
        "clock.stamp_send_ns",
        ns_per_op(OPS, || {
            for _ in 0..OPS {
                std::hint::black_box(clock.stamp_send(&keys[0]));
            }
        }),
    );
    let mut sender = ProbClock::new(space());
    let stamp = sender.stamp_send(&keys[1]);
    let receiver = ProbClock::new(space());
    metric(
        out,
        "clock.gap_check_ns",
        ns_per_op(OPS, || {
            for _ in 0..OPS {
                let gap = receiver.deliverability_gap(std::hint::black_box(&stamp), &keys[1]);
                std::hint::black_box(gap);
            }
        }),
    );
    metric(
        out,
        "clock.record_delivery_ns",
        ns_per_op(OPS, || {
            for _ in 0..OPS {
                clock.record_delivery(std::hint::black_box(&keys[1]));
            }
        }),
    );
    let assign_seed = util::sub_seed(seed, 0x7B);
    let secs = fastest_of(PASSES, || {
        let mut assigner = KeyAssigner::new(space(), AssignmentPolicy::UniformRandom, assign_seed);
        std::hint::black_box(assigner.assign_n(1000).expect("1000 key sets"));
    });
    metric(out, "clock.assign_keys_us", secs * 1e6);
}

fn wire_probes(seed: u64, out: &mut Vec<Metric>) {
    const N: usize = 2_048;
    let msgs = stream(seed, N);
    metric(
        out,
        "wire.encode_full_ns",
        ns_per_op(N, || {
            for m in &msgs {
                std::hint::black_box(wire::encode_full(m));
            }
        }),
    );
    metric(
        out,
        "wire.encode_delta_ns",
        ns_per_op(N, || {
            let mut encoder = DeltaEncoder::default();
            for m in &msgs {
                std::hint::black_box(encoder.encode(m));
            }
        }),
    );
    let full: Vec<Bytes> = msgs.iter().map(wire::encode_full).collect();
    let mut encoder = DeltaEncoder::default();
    let delta: Vec<Bytes> = msgs.iter().map(|m| encoder.encode(m)).collect();
    metric(
        out,
        "wire.decode_full_ns",
        ns_per_op(N, || {
            for frame in &full {
                std::hint::black_box(wire::decode(frame.clone()).expect("own frame decodes"));
            }
        }),
    );
    metric(
        out,
        "wire.decode_delta_ns",
        ns_per_op(N, || {
            let mut decoder = DeltaDecoder::new();
            for frame in &delta {
                std::hint::black_box(decoder.decode(frame.clone()).expect("in-order chain"));
            }
        }),
    );
    let mean = |frames: &[Bytes]| frames.iter().map(Bytes::len).sum::<usize>() as f64 / N as f64;
    metric(out, "wire.full_bytes_per_msg", mean(&full));
    metric(out, "wire.delta_bytes_per_msg", mean(&delta));
}

/// Drives a `WakeupIndex` + clock over `arrivals`; returns deliveries.
fn drain_index(arrivals: &[Message<Bytes>]) -> usize {
    let mut clock = ProbClock::new(space());
    let mut index = WakeupIndex::new(clock.len());
    let mut delivered = 0;
    for (t, m) in arrivals.iter().enumerate() {
        index.insert(t as u64, m.clone(), &clock);
        while let Some(d) = index.pop_ready() {
            clock.record_delivery(d.keys());
            let advanced: Vec<usize> = d.keys().iter().collect();
            delivered += 1;
            index.on_clock_advance(advanced, &clock);
        }
    }
    delivered
}

fn pending_probes(seed: u64, out: &mut Vec<Metric>) {
    const N: usize = 2_000;
    let keys = key_sets(seed, 1);
    let mut sender: PcbProcess<Bytes> = PcbProcess::new(ProcessId::new(0), keys[0].clone());
    let in_order: Vec<Message<Bytes>> = (0..N).map(|_| sender.broadcast(payload())).collect();
    metric(out, "pending.insert_ready_ns", ns_per_op(N, || assert_eq!(drain_index(&in_order), N)));
    // The wake index's worst case: one sender's chain arriving fully
    // reversed, so every arrival but the last parks and the last one
    // sets off a cascade of N wake-ups.
    let reversed: Vec<Message<Bytes>> = in_order.iter().rev().cloned().collect();
    metric(out, "pending.park_wake_ns", ns_per_op(N, || assert_eq!(drain_index(&reversed), N)));
}

fn bytes_endpoint(id: usize, keys: &KeySet, timing: Option<RecoveryTimingUs>) -> Endpoint<Bytes> {
    Endpoint::new(ProcessId::new(id), keys.clone(), PcbConfig::default(), timing)
}

fn sent_frame<P>(outputs: Vec<Output<P>>) -> Message<P> {
    outputs
        .into_iter()
        .find_map(|o| match o {
            Output::SendFrame(m) => Some(m),
            _ => None,
        })
        .expect("a live endpoint answers Broadcast with SendFrame")
}

fn deliveries<P>(outputs: &[Output<P>]) -> usize {
    outputs.iter().filter(|o| matches!(o, Output::Deliver(_))).count()
}

fn endpoint_probes(seed: u64, out: &mut Vec<Metric>) {
    const N: usize = 5_000;
    let keys = key_sets(seed, 10);

    let mut broadcaster = bytes_endpoint(0, &keys[0], None);
    let mut now = 0u64;
    metric(
        out,
        "endpoint.broadcast_ns",
        ns_per_op(N, || {
            for _ in 0..N {
                now += 10_000;
                std::hint::black_box(broadcaster.handle(Input::Broadcast(payload()), now));
            }
        }),
    );

    // In order: one sender's delta chain, every frame deliverable.
    let mut a = bytes_endpoint(0, &keys[0], None);
    let mut encoder = DeltaEncoder::default();
    let frames: Vec<Bytes> = (0..N)
        .map(|i| {
            encoder.encode(&sent_frame(a.handle(Input::Broadcast(payload()), i as u64 * 10_000)))
        })
        .collect();
    let mut receivers: Vec<Endpoint<Bytes>> =
        (0..PASSES).map(|_| bytes_endpoint(9, &keys[9], None)).collect();
    metric(
        out,
        "endpoint.handle_wire_inorder_ns",
        ns_per_op(N, || {
            let mut r = receivers.pop().expect("one fresh receiver per pass");
            let mut got = 0;
            for (i, frame) in frames.iter().enumerate() {
                got +=
                    deliveries(&r.handle_wire(frame.clone(), i as u64 * 10_000).expect("decodes"));
            }
            assert_eq!(got, N);
        }),
    );

    // Reordered: b_i depends on a_i but arrives first, so every pair is
    // one park and one wake.
    let mut a = bytes_endpoint(0, &keys[0], None);
    let mut b = bytes_endpoint(1, &keys[1], None);
    let (mut enc_a, mut enc_b) = (DeltaEncoder::default(), DeltaEncoder::default());
    let mut swapped = Vec::with_capacity(N);
    for i in 0..N / 2 {
        let now = i as u64 * 10_000;
        let ma = sent_frame(a.handle(Input::Broadcast(payload()), now));
        let _ = b.handle(Input::FrameReceived(ma.clone()), now);
        let mb = sent_frame(b.handle(Input::Broadcast(payload()), now));
        let _ = a.handle(Input::FrameReceived(mb.clone()), now);
        swapped.push(enc_b.encode(&mb));
        swapped.push(enc_a.encode(&ma));
    }
    let mut receivers: Vec<Endpoint<Bytes>> =
        (0..PASSES).map(|_| bytes_endpoint(9, &keys[9], None)).collect();
    metric(
        out,
        "endpoint.handle_wire_reorder_ns",
        ns_per_op(N, || {
            let mut r = receivers.pop().expect("one fresh receiver per pass");
            let mut got = 0;
            for (i, frame) in swapped.iter().enumerate() {
                got +=
                    deliveries(&r.handle_wire(frame.clone(), i as u64 * 5_000).expect("decodes"));
            }
            assert_eq!(got, N);
        }),
    );

    // Batched ingest at 1 and nproc threads: 8 independent senders,
    // round-robin, 512-frame batches (ROADMAP item 2's evidence).
    const SENDERS: usize = 8;
    let mut senders: Vec<Endpoint<Bytes>> =
        (0..SENDERS).map(|i| bytes_endpoint(i, &keys[i], None)).collect();
    let mut encoders: Vec<DeltaEncoder> = (0..SENDERS).map(|_| DeltaEncoder::default()).collect();
    let mut batch = Vec::with_capacity(N);
    for round in 0..N / SENDERS {
        for (s, sender) in senders.iter_mut().enumerate() {
            let at = (round * SENDERS + s) as u64;
            let m = sent_frame(sender.handle(Input::Broadcast(payload()), at));
            batch.push((at, encoders[s].encode(&m)));
        }
    }
    for (name, threads) in [("endpoint.batch_t1_ns", 1), ("endpoint.batch_tn_ns", util::nproc())] {
        let mut receivers: Vec<Endpoint<Bytes>> = (0..PASSES)
            .map(|_| {
                let mut r = bytes_endpoint(9, &keys[9], None);
                r.set_parallel(threads);
                r
            })
            .collect();
        metric(
            out,
            name,
            ns_per_op(batch.len(), || {
                let mut r = receivers.pop().expect("one fresh receiver per pass");
                let mut got = 0;
                for chunk in batch.chunks(512) {
                    let (outputs, errors) = r.handle_wire_batch(chunk);
                    assert!(errors.is_empty());
                    got += deliveries(&outputs);
                }
                assert_eq!(got, batch.len());
            }),
        );
    }

    // Ticks on an endpoint with the recovery driver on and a warm store.
    let timing = RecoveryTimingUs::default();
    let mut ticking = bytes_endpoint(9, &keys[9], Some(timing));
    let mut now = 0u64;
    for frame in frames.iter().take(400) {
        now += 10_000;
        let _ = ticking.handle_wire(frame.clone(), now);
    }
    const TICKS: usize = 2_000;
    metric(
        out,
        "endpoint.tick_ns",
        ns_per_op(TICKS, || {
            for _ in 0..TICKS {
                now += timing.poll_every_us;
                std::hint::black_box(ticking.handle(Input::Tick, now));
            }
        }),
    );
}

/// The snapshot a `u32` endpoint (the daemon's payload type) cuts after
/// delivering `n` messages from two senders, and those messages.
fn snapshot_and_messages(seed: u64, n: usize) -> (ProcessSnapshot<u32>, Vec<Message<u32>>) {
    let keys = key_sets(seed, 3);
    let timing = RecoveryTimingUs { store_window_us: 120_000_000, ..RecoveryTimingUs::default() };
    let make = |i: usize| {
        Endpoint::<u32>::new(ProcessId::new(i), keys[i].clone(), PcbConfig::default(), Some(timing))
    };
    let (mut a, mut b, mut r) = (make(0), make(1), make(2));
    let mut messages = Vec::with_capacity(n);
    let mut now = 1_000u64;
    for i in 0..n {
        now += 1_000;
        let sender = if i % 2 == 0 { &mut a } else { &mut b };
        let m = sent_frame(sender.handle(Input::Broadcast(i as u32), now));
        let _ = r.handle(Input::FrameReceived(m.clone()), now);
        messages.push(m);
    }
    for _ in 0..64 {
        now += timing.snapshot_every_us;
        let outputs = r.handle(Input::Tick, now);
        if outputs.iter().any(|o| matches!(o, Output::SnapshotReady { .. })) {
            break;
        }
    }
    (r.stable_snapshot().expect("the endpoint cut a snapshot").clone(), messages)
}

fn recovery_probes(seed: u64, snapshot: &ProcessSnapshot<u32>, out: &mut Vec<Metric>) {
    const N: usize = 2_000;
    let msgs = stream(seed, N);
    metric(
        out,
        "recovery.store_insert_ns",
        ns_per_op(N, || {
            let mut store: MessageStore<Bytes> = MessageStore::new(5_000_000);
            for (i, m) in msgs.iter().enumerate() {
                store.insert(i as u64 * 10_000, m.clone());
            }
            std::hint::black_box(store.len());
        }),
    );
    // A peer that knows the older half asks for the rest.
    let mut store: MessageStore<Bytes> = MessageStore::new(u64::MAX / 2);
    for (i, m) in msgs.iter().take(1_000).enumerate() {
        store.insert(i as u64, m.clone());
    }
    let request = SyncRequest::new(msgs.iter().take(500).map(Message::id));
    let mut reply = 0;
    let secs = fastest_of(PASSES, || {
        reply = std::hint::black_box(store.handle_sync(&request)).messages.len();
    });
    metric(out, "recovery.handle_sync_us", secs * 1e6);
    metric(out, "recovery.sync_reply_msgs", reply as f64);

    let mut blob = Bytes::new();
    let secs = fastest_of(PASSES, || {
        blob = encode_snapshot(&snapshot_to_wire(std::hint::black_box(snapshot)));
    });
    metric(out, "snapshot.encode_us", secs * 1e6);
    metric(out, "snapshot.bytes", blob.len() as f64);
    let secs = fastest_of(PASSES, || {
        let wire = decode_snapshot(blob.clone()).expect("own snapshot decodes");
        std::hint::black_box(snapshot_from_wire(wire).expect("payloads are u32"));
    });
    metric(out, "snapshot.decode_us", secs * 1e6);

    // An 8 KiB frame (a sync reply's size) through a 1400-byte MTU.
    const FRAMES: usize = 500;
    let frame = Bytes::from(vec![0x5A; 8 * 1024]);
    metric(
        out,
        "fragment.split_ns",
        ns_per_op(FRAMES, || {
            for id in 0..FRAMES {
                std::hint::black_box(fragment(id as u64, &frame, 1400).expect("fits the cap"));
            }
        }),
    );
    let pieces: Vec<Vec<Bytes>> =
        (0..FRAMES).map(|id| fragment(id as u64, &frame, 1400).expect("fits")).collect();
    metric(
        out,
        "fragment.reassemble_ns",
        ns_per_op(FRAMES, || {
            let mut reassembler = Reassembler::new(2_000_000, 64);
            let mut whole = 0;
            for datagrams in &pieces {
                for d in datagrams {
                    whole += usize::from(reassembler.accept(0, d).expect("own datagram").is_some());
                }
            }
            assert_eq!(whole, FRAMES);
        }),
    );
}

fn codec_probes(messages: Vec<Message<u32>>, out: &mut Vec<Metric>) {
    let inputs: Vec<Input<u32>> = messages.into_iter().map(Input::FrameReceived).collect();
    let n = inputs.len();
    metric(
        out,
        "export.encode_step_ns",
        ns_per_op(n, || {
            for input in &inputs {
                std::hint::black_box(encode_step(0, input));
            }
        }),
    );
    let encoded: Vec<Vec<u8>> = inputs.iter().map(|i| encode_step(0, i)).collect();
    metric(
        out,
        "export.decode_step_ns",
        ns_per_op(n, || {
            for bytes in &encoded {
                std::hint::black_box(decode_step(bytes).expect("own step decodes"));
            }
        }),
    );
    let frame_bytes: usize = inputs.iter().map(|i| encode_pcb_msg(i).len()).sum();
    metric(out, "export.frame_bytes_per_msg", frame_bytes as f64 / n as f64);

    const OPS: usize = 5_000;
    let line = crate::cluster::publish_line(123_456);
    metric(
        out,
        "json.parse_publish_ns",
        ns_per_op(OPS, || {
            for _ in 0..OPS {
                std::hint::black_box(json::parse(std::hint::black_box(&line)).expect("valid"));
            }
        }),
    );
    metric(
        out,
        "json.render_event_ns",
        ns_per_op(OPS, || {
            for seq in 0..OPS as u64 {
                // The daemon's `deliver` event, field for field.
                let event = Value::object([
                    ("event", Value::from("deliver")),
                    ("sender", Value::from(1u64)),
                    ("seq", Value::from(seq)),
                    ("payload", Value::from(123_456u32)),
                    ("instant", Value::from(false)),
                    ("recent", Value::from(false)),
                ]);
                std::hint::black_box(event.to_json());
            }
        }),
    );
}

fn udp_probes(out: &mut Vec<Metric>) {
    let loopback = SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), 0);
    let bind = |seed| UdpTransport::bind(loopback, 0, UdpConfig::default(), seed);
    let (Ok(mut a), Ok(mut b)) = (bind(1), bind(2)) else {
        return; // no loopback sockets here: the three metrics read 0
    };
    let (Ok(addr_a), Ok(addr_b)) = (a.local_addr(), b.local_addr()) else { return };
    let origin = Instant::now();
    let now = || origin.elapsed().as_micros() as u64;
    let frame = Bytes::from(vec![0x11; 64]);
    let mut events = Vec::new();
    let got_frame =
        |events: &[UdpEvent]| events.iter().any(|e| matches!(e, UdpEvent::Frame { .. }));

    // Round trip on the wall clock, no explicit flush: both directions
    // pay the 500 µs coalescing delay, as daemon traffic does.
    const TRIPS: usize = 20;
    let secs = fastest_of(PASSES, || {
        for _ in 0..TRIPS {
            a.send(addr_b, frame.clone(), now());
            let deadline = Instant::now() + std::time::Duration::from_secs(2);
            let mut echoed = false;
            loop {
                b.poll_into(now(), &mut events);
                if !echoed && got_frame(&events) {
                    echoed = true;
                    b.send(addr_a, frame.clone(), now());
                }
                a.poll_into(now(), &mut events);
                if got_frame(&events) || Instant::now() > deadline {
                    break;
                }
                std::hint::spin_loop();
            }
        }
    });
    metric(out, "udp.rtt_us", secs * 1e6 / TRIPS as f64);

    const BURST: usize = 2_000;
    let before = b.stats().0;
    let mut received_total = 0usize;
    let secs = fastest_of(PASSES, || {
        for _ in 0..BURST {
            a.send(addr_b, frame.clone(), now());
        }
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        let mut received = 0;
        while received < BURST && Instant::now() < deadline {
            a.poll_into(now(), &mut events);
            b.poll_into(now(), &mut events);
            received += events.iter().filter(|e| matches!(e, UdpEvent::Frame { .. })).count();
        }
        received_total += received;
    });
    let after = b.stats().0;
    metric(out, "udp.frames_per_s", BURST as f64 / secs);
    metric(
        out,
        "udp.datagrams_per_frame",
        (after.datagrams_received - before.datagrams_received) as f64
            / received_total.max(1) as f64,
    );
}

/// µs per `save_wal` under `root`: fastest pass of 40 writes.
fn save_wal_us(root: &std::path::Path) -> Option<f64> {
    const WRITES: u64 = 40;
    let dir = root.join(format!("probe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).ok()?;
    let mut seq = 0u64;
    let secs = fastest_of(PASSES, || {
        for _ in 0..WRITES {
            seq += 1;
            save_wal(&dir, seq).expect("wal write under a directory just created");
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(root);
    Some(secs * 1e6 / WRITES as f64)
}

fn persist_probes(opts: &RunOpts, snapshot: &ProcessSnapshot<u32>, out: &mut Vec<Metric>) {
    // What a publish pays where the daemon workloads keep their state
    // (tmpfs when the host has one), and beside it the same write under
    // the build directory: the real-disk cost, a layer line only.
    if let Some(us) = save_wal_us(&opts.state_root) {
        metric(out, "persist.save_wal_us", us);
    }
    if let Some(us) = save_wal_us(&opts.out_dir) {
        metric(out, "persist.save_wal_disk_us", us);
    }
    let dir = opts.state_root.join(format!("probe-{}", std::process::id()));
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let secs = fastest_of(PASSES, || save_snapshot(&dir, snapshot).expect("snapshot write"));
    metric(out, "persist.save_snapshot_us", secs * 1e6);
    let secs = fastest_of(PASSES, || {
        std::hint::black_box(load_snapshot(&dir).expect("own snapshot loads"));
    });
    metric(out, "persist.load_snapshot_us", secs * 1e6);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(&opts.state_root);
}

/// Replays the queue traffic of a figure-3-style run — per-process send
/// timers, each send scheduling `n − 1` receive events one latency out —
/// with no protocol work, so the time is the scheduler's own.
fn queue_replay(scheduler: Scheduler, seed: u64) -> (u64, f64) {
    const N: u64 = 1_000;
    const SENDS: u64 = 150;
    let mut queue = EventQueue::new(scheduler);
    let (duration_us, latency_us) = (400_000u64, 100_000u64);
    let interval_us = N * duration_us / SENDS;
    let mut rng = util::Rng::new(util::sub_seed(seed, 0x9E));
    for p in 0..N {
        let t = rng.below(interval_us);
        if t <= duration_us {
            queue.push(t, p);
        }
    }
    let mut events = 0u64;
    let start = Instant::now();
    while let Some((t, p)) = queue.pop() {
        events += 1;
        if p < N {
            for _ in 0..N - 1 {
                queue.push(t + latency_us + rng.below(latency_us / 2), N);
            }
            let next = t + rng.below(2 * interval_us);
            if next <= duration_us {
                queue.push(next, p);
            }
        }
    }
    (events, start.elapsed().as_secs_f64())
}

fn lean_sim(seed: u64, duration_ms: f64) -> SimConfig {
    SimConfig {
        n: 16,
        mean_send_interval_ms: 50.0,
        duration_ms,
        warmup_ms: 0.0,
        seed: util::sub_seed(seed, 0x51),
        track_exact: false,
        track_epsilon: false,
        ..SimConfig::paper_defaults()
    }
}

fn sim_probes(seed: u64, out: &mut Vec<Metric>) {
    for (name, scheduler) in
        [("sim.wheel_ns_per_event", Scheduler::Wheel), ("sim.heap_ns_per_event", Scheduler::Heap)]
    {
        let mut best = f64::INFINITY;
        for _ in 0..PASSES {
            let (events, secs) = queue_replay(scheduler, seed);
            best = best.min(secs * 1e9 / events as f64);
        }
        metric(out, name, best);
    }

    // Exact checker and ε estimator on: what a figure point costs.
    let oracle = SimConfig {
        n: 200,
        mean_send_interval_ms: 1_000.0,
        duration_ms: 2_000.0,
        warmup_ms: 200.0,
        seed: util::sub_seed(seed, 0x51),
        track_exact: true,
        track_epsilon: true,
        ..SimConfig::paper_defaults()
    };
    let mut run = None;
    let secs = fastest_of(PASSES, || {
        run = Some(simulate_prob(&oracle, space()).expect("oracle point runs"));
    });
    let m = run.expect("a pass ran");
    metric(out, "sim.oracle_deliveries_per_s", m.deliveries as f64 / secs);
    metric(out, "sim.violation_ppm", 1e6 * m.violation_rate());
    metric(out, "sim.alg4_alert_ppm", 1e6 * m.alg4_rate());

    // The production `Endpoint` hosted by the simulator, empty fault
    // plan: ROADMAP item 3's comparison against the lean engine.
    let shell = SimConfig {
        n: 100,
        mean_send_interval_ms: 500.0,
        duration_ms: 2_000.0,
        warmup_ms: 0.0,
        seed: util::sub_seed(seed, 0x51),
        track_exact: true,
        track_epsilon: false,
        faults: Some(FaultPlan::new(250.0, 200.0)),
        ..SimConfig::paper_defaults()
    };
    let mut deliveries = 0;
    let secs = fastest_of(PASSES, || {
        let (m, _) = simulate_endpoint_chaos(&shell, space(), AssignmentPolicy::UniformRandom)
            .expect("shell point runs");
        deliveries = m.deliveries;
    });
    metric(out, "sim.shell_deliveries_per_s", deliveries as f64 / secs);

    // Marginal allocations per delivery: the same lean run at T and 3T;
    // set-up and warm-up growth cancel in the difference.
    let (short_allocs, short) =
        counted(|| simulate_prob(&lean_sim(seed, 2_000.0), space()).expect("short run"));
    let (long_allocs, long) =
        counted(|| simulate_prob(&lean_sim(seed, 6_000.0), space()).expect("long run"));
    let extra = long.deliveries.saturating_sub(short.deliveries).max(1);
    metric(
        out,
        "sim.allocs_per_delivery",
        long_allocs.saturating_sub(short_allocs) as f64 / extra as f64,
    );
    let pool = long.stamp_pool_hits + long.stamp_pool_misses;
    metric(
        out,
        "sim.stamp_pool_hit_rate",
        100.0 * long.stamp_pool_hits as f64 / pool.max(1) as f64,
    );
}

fn telemetry_probes(out: &mut Vec<Metric>) {
    const OPS: usize = 100_000;
    let mut hist = Hist::new();
    metric(
        out,
        "telemetry.hist_push_ns",
        ns_per_op(OPS, || {
            for i in 0..OPS {
                hist.push(std::hint::black_box(0.5 + i as f64 * 1e-3));
            }
        }),
    );
    let mut tracer = Tracer::ring(0, 4_096);
    metric(
        out,
        "telemetry.trace_ns_per_event",
        ns_per_op(OPS, || {
            for seq in 0..OPS as u64 {
                tracer.emit(|| TraceEvent::Received { sender: 1, seq });
            }
        }),
    );
}

/// The mesh at a fixed 10 000 steps: the exact per-delivery counts, the
/// span table's residual and the tracing overhead.
fn mesh_probes(seed: u64, out: &mut Vec<Metric>) {
    const STEPS: u32 = 10_000;
    let plan = mesh::Plan::new(seed);
    let pass = mesh::traced_pass(&plan, STEPS, PASSES);
    out.extend(pass.metrics());
    let (allocs, stats) = mesh::counted_pass(&plan, STEPS);
    metric(out, "endpoint.allocs_per_delivery", allocs as f64 / stats.deliveries() as f64);
}

/// Every in-process probe. Daemon-process metrics (`daemon.*`,
/// `loadgen.*`) come from a traced daemon run instead.
pub fn probe_all(opts: &RunOpts) -> Vec<Metric> {
    let mut out = Vec::new();
    clock_probes(opts.seed, &mut out);
    wire_probes(opts.seed, &mut out);
    pending_probes(opts.seed, &mut out);
    endpoint_probes(opts.seed, &mut out);
    mesh_probes(opts.seed, &mut out);
    let (snapshot, messages) = snapshot_and_messages(opts.seed, 1_000);
    recovery_probes(opts.seed, &snapshot, &mut out);
    codec_probes(messages, &mut out);
    udp_probes(&mut out);
    persist_probes(opts, &snapshot, &mut out);
    sim_probes(opts.seed, &mut out);
    telemetry_probes(&mut out);
    out
}

/// Prints `name value unit  -> what it should move` for every catalogue
/// metric, in catalogue order.
pub fn print_table(measured: &[Metric]) {
    println!("{:<36} {:>16} {:<6}  should move", "per-layer metric", "value", "unit");
    for spec in PER_LAYER {
        match measured.iter().find(|m| m.name == spec.name) {
            Some(m) => {
                println!("{:<36} {:>16.4} {:<6}  {}", spec.name, m.value, spec.unit, spec.moves);
            }
            None => println!("{:<36} {:>16} {:<6}  {}", spec.name, "-", spec.unit, spec.moves),
        }
    }
}
