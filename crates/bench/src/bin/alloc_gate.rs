//! Allocation gate: proves the steady-state hot paths stay off the heap.
//!
//! ```text
//! cargo run --release -p pcb-bench --bin alloc_gate [-- --check]
//! ```
//!
//! A counting `#[global_allocator]` ([`pcb_bench::alloc`]) wraps the
//! system allocator and tallies every `alloc`/`realloc`. Absolute counts
//! are useless — setup (key assignment, socket buffers, slab growth)
//! allocates freely and legitimately — so the gate measures **marginal**
//! allocations with a differential method: run the same workload at
//! duration `T` and `3T` and attribute
//! `(allocs(3T) − allocs(T)) / (work(3T) − work(T))` to the steady state. Everything both runs share (setup, warm-up growth,
//! amortised capacity doubling that converges) cancels; only per-cycle
//! allocation survives the subtraction.
//!
//! Three legs:
//!
//! * `sim` — the discipline-level simulator (`simulate_prob`) with the
//!   timing-wheel scheduler, exact/epsilon oracles and estimators off.
//!   The event slab, message arena and stamp pool recycle everything, so
//!   the gate here is **zero**: no marginal allocation per delivery.
//! * `udp` — a loopback [`pcb_runtime::UdpTransport`] pair driving full
//!   send → flush → datagram → deliver → ack cycles, one frame each.
//!   Each delivered frame is handed to the owner as an owned `Bytes`, so
//!   the gate here is a small fixed budget per cycle ([`UDP_BUDGET`]),
//!   which catches any per-cycle leak the pooling work removed (receive
//!   staging, datagram builds, shim verdicts, ack builds).
//! * `endpoint` — one `Endpoint::handle_wire` arrival, measured twice: a
//!   sender's delta chain arriving in order, where the returned output
//!   vector is the one allocation an arrival may make (decode draws its
//!   stamp from the store's pool, a full frame that restarts a chain
//!   shares the key set already held, deliveries pass through a reused
//!   buffer), and two senders' chains reordered so that every other
//!   arrival parks and returns nothing — the gate there is still one
//!   allocation per arrival that delivers, i.e. zero for the arrival
//!   that parked.
//!
//! With `--check`, a violated gate exits non-zero (the `scripts/verify.sh
//! --perf` hook). Set `AG_TRACE=1` to print a sampled backtrace for one
//! in every 997 counted allocations — how the remaining sites were found.

use std::net::{IpAddr, Ipv4Addr, SocketAddr};

use bytes::Bytes;
use pcb_bench::alloc::{counted, set_trace, CountingAlloc};
use pcb_broadcast::endpoint::{Endpoint, Input, Output};
use pcb_broadcast::{DeltaEncoder, PcbConfig};
use pcb_clock::{KeySet, KeySpace, ProcessId};
use pcb_runtime::{UdpConfig, UdpEvent, UdpTransport};
use pcb_sim::{simulate_prob, Scheduler, SimConfig};

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Lean steady-state sim config: wheel scheduler, oracles and telemetry
/// off, no churn/loss — the pure stamp → schedule → deliver cycle.
fn sim_config(duration_ms: f64) -> SimConfig {
    SimConfig {
        n: 16,
        mean_send_interval_ms: 50.0,
        duration_ms,
        warmup_ms: 0.0,
        seed: 9,
        track_exact: false,
        track_epsilon: false,
        trace_capacity: 0,
        estimators: false,
        scheduler: Scheduler::Wheel,
        ..SimConfig::paper_defaults()
    }
}

struct Leg {
    name: &'static str,
    /// Marginal allocations per unit of steady-state work.
    per_cycle: f64,
    /// Marginal heap bytes per unit of work.
    bytes_per_cycle: f64,
    cycles: u64,
}

/// Simulator leg: deliveries are the unit of work.
fn sim_leg() -> Leg {
    let space = KeySpace::new(100, 4).expect("paper space");
    let (short_allocs, short_bytes, short) =
        counted(|| simulate_prob(&sim_config(2_000.0), space).expect("short run"));
    let space = KeySpace::new(100, 4).expect("paper space");
    let (long_allocs, long_bytes, long) =
        counted(|| simulate_prob(&sim_config(6_000.0), space).expect("long run"));
    let extra_work = long.deliveries.saturating_sub(short.deliveries).max(1);
    let extra_allocs = long_allocs.saturating_sub(short_allocs);
    let extra_bytes = long_bytes.saturating_sub(short_bytes);
    assert!(long.deliveries > 2 * short.deliveries, "the long run must triple the work");
    Leg {
        name: "sim",
        per_cycle: extra_allocs as f64 / extra_work as f64,
        bytes_per_cycle: extra_bytes as f64 / extra_work as f64,
        cycles: extra_work,
    }
}

fn loopback() -> SocketAddr {
    SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), 0)
}

/// One full loopback cycle: send on `a`, flush, pump both ends until the
/// frame lands on `b`. Synthetic clock — real sockets, no sleeps needed
/// on loopback beyond the spin.
fn udp_cycle(
    a: &mut UdpTransport,
    b: &mut UdpTransport,
    addr_b: SocketAddr,
    payload: &Bytes,
    now_us: &mut u64,
    events: &mut Vec<UdpEvent>,
) -> bool {
    *now_us += 100;
    a.send(addr_b, payload.clone(), *now_us);
    a.flush(*now_us);
    a.poll_into(*now_us, events);
    for _ in 0..10_000 {
        b.poll_into(*now_us, events);
        let delivered = events.iter().any(|e| matches!(e, UdpEvent::Frame { .. }));
        a.poll_into(*now_us, events);
        if delivered {
            return true;
        }
        std::hint::spin_loop();
    }
    false
}

/// UDP leg: delivered frames are the unit of work.
fn udp_leg() -> Leg {
    let cfg = UdpConfig::default();
    let mut a = UdpTransport::bind(loopback(), 0, cfg.clone(), 1).expect("bind a");
    let mut b = UdpTransport::bind(loopback(), 0, cfg, 2).expect("bind b");
    let addr_b = b.local_addr().expect("addr b");
    let payload = Bytes::from(vec![0u8; 64]);
    let mut now_us = 0u64;
    let mut events = Vec::new();
    // Warm every pool, map and socket buffer past its steady capacity.
    for _ in 0..500 {
        assert!(
            udp_cycle(&mut a, &mut b, addr_b, &payload, &mut now_us, &mut events),
            "loopback delivery"
        );
    }
    const SHORT: u64 = 1_000;
    const LONG: u64 = 3_000;
    let (short_allocs, short_bytes, ()) = counted(|| {
        for _ in 0..SHORT {
            assert!(
                udp_cycle(&mut a, &mut b, addr_b, &payload, &mut now_us, &mut events),
                "loopback delivery"
            );
        }
    });
    let (long_allocs, long_bytes, ()) = counted(|| {
        for _ in 0..LONG {
            assert!(
                udp_cycle(&mut a, &mut b, addr_b, &payload, &mut now_us, &mut events),
                "loopback delivery"
            );
        }
    });
    let extra = LONG - SHORT;
    Leg {
        name: "udp",
        per_cycle: long_allocs.saturating_sub(short_allocs) as f64 / extra as f64,
        bytes_per_cycle: long_bytes.saturating_sub(short_bytes) as f64 / extra as f64,
        cycles: extra,
    }
}

fn endpoint(id: usize, set_id: u128) -> Endpoint<Bytes> {
    let space = KeySpace::new(100, 4).expect("paper space");
    let keys = KeySet::from_set_id(space, set_id).expect("set id in range");
    // No recovery timing: the leg isolates decode + ordering + store.
    Endpoint::new(ProcessId::new(id), keys, PcbConfig::default(), None)
}

fn broadcast(
    from: &mut Endpoint<Bytes>,
    payload: &Bytes,
    now_us: u64,
) -> pcb_broadcast::Message<Bytes> {
    match from.handle(Input::Broadcast(payload.clone()), now_us).into_iter().next() {
        Some(Output::SendFrame(message)) => message,
        other => panic!("a live endpoint answers Broadcast with SendFrame, got {other:?}"),
    }
}

/// Endpoint leg: `handle_wire` arrivals that return deliveries are the
/// unit of work. In order, that is every frame of one sender's delta
/// chain. Reordered, two senders answer each other and each reply `b_i`
/// reaches the receiver before the `a_i` it depends on: `b_i` parks and
/// returns nothing, `a_i` delivers both — one unit per pair, so whatever
/// a parked arrival allocated would show as excess over the in-order
/// figure.
fn endpoint_leg(reordered: bool) -> Leg {
    const WARM: usize = 500;
    const SHORT: usize = 2_000;
    const LONG: usize = 6_000;
    // 100 ms apart: the 5 s store window holds 50 messages, so the store
    // and its stamp pool reach their steady size inside the warm-up.
    const STEP_US: u64 = 100_000;
    let per_unit = if reordered { 2 } else { 1 };
    let (mut a, mut b) = (endpoint(0, 11), endpoint(1, 23));
    let (mut enc_a, mut enc_b) = (DeltaEncoder::default(), DeltaEncoder::default());
    let payload = Bytes::from(vec![0xAB; 32]);
    let mut frames: Vec<Bytes> = Vec::new();
    for i in 0..(WARM + SHORT + LONG) as u64 {
        let ma = broadcast(&mut a, &payload, i * STEP_US);
        if reordered {
            let _ = b.handle(Input::FrameReceived(ma.clone()), i * STEP_US);
            let mb = broadcast(&mut b, &payload, i * STEP_US);
            let _ = a.handle(Input::FrameReceived(mb.clone()), i * STEP_US);
            frames.push(enc_b.encode(&mb));
        }
        frames.push(enc_a.encode(&ma));
    }
    let mut receiver = endpoint(9, 37);
    let mut next = 0;
    let mut run = |units: usize| {
        let mut delivered = 0;
        for frame in &frames[next..next + units * per_unit] {
            let now_us = (next / per_unit) as u64 * STEP_US;
            let outs = receiver.handle_wire(frame.clone(), now_us).expect("decodes");
            delivered += outs.iter().filter(|o| matches!(o, Output::Deliver(_))).count();
            next += 1;
        }
        assert_eq!(delivered, units * per_unit, "every message of the stream delivers");
    };
    run(WARM);
    let (short_allocs, short_bytes, ()) = counted(|| run(SHORT));
    let (long_allocs, long_bytes, ()) = counted(|| run(LONG));
    let extra = (LONG - SHORT) as u64;
    Leg {
        name: if reordered { "endpoint (reordered)" } else { "endpoint (in order)" },
        per_cycle: long_allocs.saturating_sub(short_allocs) as f64 / extra as f64,
        bytes_per_cycle: long_bytes.saturating_sub(short_bytes) as f64 / extra as f64,
        cycles: extra,
    }
}

/// The UDP leg's fixed per-cycle budget: the structural allocations a
/// delivered frame cannot avoid — the owned copy handed to the owner per
/// receive (buffer + handle) — measured at 2/cycle, with slack for
/// allocator jitter and the in-flight tree's nodes. A frame that fits a
/// datagram no longer passes the fragmenter (a header buffer per send)
/// or the holdback (a tree node per frame in order), which made it
/// 4/cycle; the un-pooled path paid 13+ (fresh fragment lists, per-poll
/// address sweeps, per-poll event vectors, per-datagram receive copies,
/// per-datagram verdicts).
const UDP_BUDGET: f64 = 3.0;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let check = std::env::args().any(|a| a == "--check");
    set_trace(std::env::var_os("AG_TRACE").is_some());
    println!("=== alloc_gate: steady-state heap allocation audit ===");
    println!("method: differential (allocs at T vs 3T; setup cancels)\n");

    eprintln!("measuring the sim leg (wheel scheduler, oracles off) ...");
    let sim = sim_leg();
    eprintln!("measuring the udp leg (loopback pair, one frame per cycle) ...");
    let udp = udp_leg();
    eprintln!("measuring the endpoint leg (handle_wire, in order and reordered) ...");
    let (in_order, reordered) = (endpoint_leg(false), endpoint_leg(true));

    let mut failures = Vec::new();
    for leg in [&sim, &udp, &in_order, &reordered] {
        println!(
            "{:>20}: {:.4} allocs/cycle, {:.1} heap bytes/cycle over {} marginal cycles",
            leg.name, leg.per_cycle, leg.bytes_per_cycle, leg.cycles
        );
    }
    // Sim leg: the arena/pool work makes strict zero attainable. Allow
    // a hair of slack for one-off structures that still double late
    // (e.g. a histogram bucket) — 0.01 allocs/delivery means at most one
    // allocation per hundred deliveries, which only true recycling hits.
    if sim.per_cycle <= 0.01 {
        println!("sim gate (zero allocs/delivery): OK");
    } else {
        failures.push(format!(
            "sim leg allocates {:.4} per delivery at steady state, gate is 0.01",
            sim.per_cycle
        ));
    }
    // UDP leg: a budget, not zero — a delivered frame is an owned buffer.
    if udp.per_cycle <= UDP_BUDGET {
        println!("udp budget gate (≤ {UDP_BUDGET:.0} allocs/cycle, owned frame handoff): OK");
    } else {
        failures.push(format!(
            "udp leg allocates {:.2} per cycle at steady state, budget is {UDP_BUDGET:.0}",
            udp.per_cycle
        ));
    }

    // Endpoint leg: the output vector an arrival returns is its one
    // allocation, and an arrival that parks returns an empty one — so the
    // reordered stream, one park and one delivering arrival per cycle,
    // has the same budget. The same hair of slack as the sim leg.
    for (leg, what) in [(&in_order, "in-order arrival"), (&reordered, "park + wake pair")] {
        if leg.per_cycle <= 1.01 {
            println!("endpoint gate (≤ 1 alloc/{what}): OK");
        } else {
            failures.push(format!(
                "handle_wire allocates {:.4} per {what} at steady state, gate is 1",
                leg.per_cycle
            ));
        }
    }

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("ALLOC REGRESSION: {f}");
        }
        if check {
            return Err("alloc gate failed".into());
        }
    } else {
        println!("alloc gate: OK");
    }
    Ok(())
}
