//! Differential gate for the timing-wheel kernel and the pooled hot
//! path: the wheel scheduler must drive the chaos engine to
//! **bit-identical** behaviour against the binary-heap baseline across
//! the 24 chaos seeds of the certification corpus (the traces
//! `runtime/tests/equivalence.rs` replays through the daemon's start-up
//! and persist code),
//! including the crash/restore seeds — a recycled stamp, message-arena
//! slot, or event node leaking state across an endpoint incarnation
//! would diverge one of the digests below.

use pcb_clock::{AssignmentPolicy, KeySpace};
use pcb_sim::{chaos_config, record_endpoint_chaos, ChaosRecord, FaultKind, Scheduler};

const N: usize = 9;
const DURATION_MS: f64 = 2500.0;

fn record(seed: u64, space: KeySpace, policy: AssignmentPolicy, sch: Scheduler) -> ChaosRecord {
    let mut cfg = chaos_config(seed, N, DURATION_MS);
    cfg.scheduler = sch;
    record_endpoint_chaos(&cfg, space, policy)
        .unwrap_or_else(|e| panic!("seed {seed}: chaos run failed: {e}"))
}

/// Every observable artefact of the run must match: the input log the
/// engine fed each endpoint (event order is the scheduler's output),
/// per-node delivery digests with alert flags, recovery counters, and
/// the aggregate metrics (the exact checker's violation counts among
/// them).
fn assert_bit_identical(seed: u64, space: KeySpace, policy: AssignmentPolicy) -> ChaosRecord {
    let mut wheel = record(seed, space, policy, Scheduler::Wheel);
    let mut heap = record(seed, space, policy, Scheduler::Heap);
    // Real elapsed time is the one legitimately scheduler-dependent field.
    wheel.metrics.wall_secs = 0.0;
    heap.metrics.wall_secs = 0.0;
    assert_eq!(
        format!("{:?}", wheel.inputs),
        format!("{:?}", heap.inputs),
        "seed {seed}: schedulers produced different input logs"
    );
    assert_eq!(
        wheel.deliveries, heap.deliveries,
        "seed {seed}: delivery order / alert flags diverged"
    );
    assert_eq!(wheel.counters, heap.counters, "seed {seed}: recovery counters diverged");
    assert_eq!(
        format!("{:?}", wheel.metrics),
        format!("{:?}", heap.metrics),
        "seed {seed}: aggregate metrics diverged"
    );
    wheel
}

#[test]
fn wheel_matches_heap_on_the_vector_corpus() {
    let space = KeySpace::vector(N).unwrap();
    for seed in 1..=16u64 {
        assert_bit_identical(seed, space, AssignmentPolicy::RoundRobin);
    }
}

#[test]
fn wheel_matches_heap_on_the_probabilistic_corpus() {
    let space = KeySpace::new(100, 4).unwrap();
    for seed in 101..=108u64 {
        assert_bit_identical(seed, space, AssignmentPolicy::UniformRandom);
    }
}

/// The incarnation gate: pick the corpus seeds whose fault plans carry
/// crash windows and require the runs to really crash *and* recover
/// mid-trace. Bit-identical digests across schedulers on exactly these
/// traces prove the pooled buffers (stamp pool, message arena, wheel
/// slot storage) never smuggle state from a dead incarnation into its
/// successor — any stale byte would shift a delivery, an alert flag, or
/// a recovery counter on one side of the diff.
#[test]
fn crash_restore_seeds_recycle_pools_without_cross_incarnation_leaks() {
    let space = KeySpace::vector(N).unwrap();
    let mut crashing_seeds = 0u64;
    for seed in 1..=16u64 {
        let plan = chaos_config(seed, N, DURATION_MS).faults.expect("chaos plan");
        if !plan.events.iter().any(|ev| matches!(ev.kind, FaultKind::Crash { .. })) {
            continue;
        }
        crashing_seeds += 1;
        let wheel = assert_bit_identical(seed, space, AssignmentPolicy::RoundRobin);
        assert!(wheel.metrics.crashes > 0, "seed {seed}: crash window never fired");
        assert!(wheel.metrics.recoveries > 0, "seed {seed}: no incarnation restarted mid-trace");
    }
    assert!(crashing_seeds >= 4, "corpus lost its crash coverage ({crashing_seeds} seeds)");
}
