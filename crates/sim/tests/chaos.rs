//! Chaos-engine integration tests: deterministic fault injection with
//! crash-durable snapshots, anti-entropy catch-up, and the always-on
//! safety oracle, all inside the discrete-event simulator.

use pcb_clock::KeySpace;
use pcb_sim::{
    chaos_run, chaos_run_vector, simulate_prob, simulate_vector, FaultKind, FaultPlan, SimConfig,
};

fn space() -> KeySpace {
    KeySpace::new(100, 4).expect("paper space")
}

fn chaos_base(n: usize, duration_ms: f64, seed: u64, plan: FaultPlan) -> SimConfig {
    SimConfig {
        n,
        mean_send_interval_ms: 150.0,
        duration_ms,
        warmup_ms: 0.0,
        seed,
        track_exact: true,
        track_epsilon: false,
        faults: Some(plan),
        ..SimConfig::default()
    }
}

/// The acceptance criterion: the same seed replays bit-identically —
/// plan, workload, fault interleaving, and every counter.
#[test]
fn same_seed_replays_bit_identically() {
    for seed in [7u64, 0xC0FFEE] {
        let a = chaos_run(seed, 9, 4000.0, space()).unwrap();
        let b = chaos_run(seed, 9, 4000.0, space()).unwrap();
        assert_eq!(a.plan, b.plan, "seed {seed}: plans diverged");
        let (mut ma, mut mb) = (a.metrics, b.metrics);
        // Wall-clock time is the only legitimately nondeterministic field.
        ma.wall_secs = 0.0;
        mb.wall_secs = 0.0;
        assert_eq!(format!("{ma:?}"), format!("{mb:?}"), "seed {seed}: metrics diverged");
    }
}

/// The control for every recovery assertion below: a plan with no fault
/// events loses nothing, so anti-entropy may probe but never re-fetches.
/// Every hop takes exactly 10 ms here. With random delays a probe's
/// reply can overtake a frame still on the wire and re-fetch it (the
/// frame then arrives as a duplicate); at a fixed delay a reply never
/// arrives before a frame its replier held when the probe came in.
#[test]
fn fault_free_plan_refetches_nothing() {
    let config = SimConfig {
        latency_mean_ms: 10.0,
        latency_sigma_ms: 0.0,
        skew_sigma_ms: 0.0,
        ..chaos_base(6, 4000.0, 5, FaultPlan::new(250.0, 200.0))
    };
    let m = simulate_prob(&config, space()).unwrap();
    assert!(m.deliveries > 0 && m.recovery.sync_requests > 0, "{m:?}");
    assert_eq!(m.recovery.refetched, 0, "nothing was lost, so nothing is re-fetched: {m:?}");
    assert_eq!(m.undelivered, 0, "{m:?}");
    assert_eq!(m.stuck, 0, "{m:?}");
}

/// Crash → restore-from-snapshot → anti-entropy catch-up, end to end:
/// the run converges (nothing undelivered, nothing stuck) and the
/// recovery machinery demonstrably did the work.
#[test]
fn crash_recover_catchup_converges() {
    let plan = FaultPlan::new(250.0, 200.0)
        .with_event(800.0, FaultKind::Crash { node: 2 })
        .with_event(2000.0, FaultKind::Recover { node: 2 });
    let m = simulate_prob(&chaos_base(6, 4000.0, 11, plan), space()).unwrap();
    assert_eq!(m.crashes, 1);
    assert_eq!(m.recoveries, 1);
    assert_eq!(m.recovery.snapshot_restores, 1, "recovery must resume from a snapshot");
    assert!(m.recovery.snapshots_taken > 0);
    assert!(m.recovery.refetched > 0, "the restored node must re-fetch missed messages");
    assert!(m.recovery.sync_served > 0);
    assert_eq!(m.undelivered, 0, "all survivors must converge: {m:?}");
    assert_eq!(m.stuck, 0, "no message may stay blocked forever: {m:?}");
}

/// 3-way partition of a 9-node cluster healing mid-run: zero lost
/// streams, asserted by the exact oracle under vector clocks (so any
/// violation is a real safety bug, not a probabilistic collision).
#[test]
fn three_way_partition_heals_with_zero_lost_streams() {
    let plan = FaultPlan::new(250.0, 200.0)
        .with_event(1000.0, FaultKind::PartitionStart { groups: FaultPlan::split_groups(9, 3) })
        .with_event(2500.0, FaultKind::PartitionEnd);
    let m = simulate_vector(&chaos_base(9, 5000.0, 23, plan)).unwrap();
    assert!(m.partition_dropped > 0, "the partition must actually cut traffic");
    assert!(m.recovery.refetched > 0, "healing must catch up via anti-entropy");
    assert_eq!(m.undelivered, 0, "zero lost streams after heal: {m:?}");
    assert_eq!(m.stuck, 0);
    assert_eq!(m.exact_violations, 0, "vector clocks must stay causally exact: {m:?}");
    assert_eq!(m.undetected_violations, 0);
}

/// Link-level chaos (loss, duplication, reordering, corruption) never
/// breaks safety: duplicates are suppressed, corrupted frames discarded,
/// and the cluster still converges.
#[test]
fn link_faults_are_survived_and_deduplicated() {
    let plan = FaultPlan::new(250.0, 200.0)
        .with_event(
            200.0,
            FaultKind::LinkFaultStart {
                faults: pcb_sim::LinkFaults {
                    drop: 0.15,
                    dup: 0.15,
                    reorder: 0.15,
                    reorder_extra_ms: 40.0,
                    corrupt: 0.05,
                },
            },
        )
        .with_event(2200.0, FaultKind::LinkFaultEnd);
    let m = simulate_vector(&chaos_base(6, 4000.0, 31, plan)).unwrap();
    assert!(m.link_dropped > 0);
    assert!(m.duplicate_frames > 0, "injected duplicates must hit the dedup layer");
    assert!(m.corrupted_frames > 0);
    assert_eq!(m.undelivered, 0, "loss must be repaired by anti-entropy: {m:?}");
    assert_eq!(m.stuck, 0);
    assert_eq!(m.exact_violations, 0);
}

/// Once the last fault heals, anti-entropy quiesces: re-fetch activity
/// stops within a bounded number of sync rounds instead of probe-storming
/// forever.
#[test]
fn sync_quiesces_after_heal() {
    let out = chaos_run_vector(41, 9, 4000.0).unwrap();
    assert!(out.converged(), "chaos run must converge: {:?}", out.metrics);
    let last_fault_ms = out.plan.events.iter().map(|e| e.at_ms).fold(0.0f64, f64::max);
    let bound_ms = last_fault_ms + 12.0 * out.plan.sync_interval_ms + 4000.0 * 0.25;
    assert!(
        out.metrics.last_refetch_ms <= bound_ms,
        "last re-fetch at {} ms, bound {} ms — probe storm?",
        out.metrics.last_refetch_ms,
        bound_ms
    );
}

/// The tentpole acceptance scenario, probabilistic discipline: a flash
/// crowd of 100 newcomers joins an 8-process cluster through
/// snapshot-assisted grants while traffic flows, and the cluster
/// completes an online `R → R'` reconfiguration mid-run with zero lost
/// streams. A 108-process crowd on `(100, 4)` runs far above the
/// paper's design point, so wrong deliveries occur (and partly evade
/// Algorithm 4 — that *is* `P_error`); the exactness twin of this
/// scenario is the vector test below.
#[test]
fn flash_crowd_joins_100_and_reconfigures_online() {
    let plan = FaultPlan::flash_crowd(8, 100, 400.0, 1_600.0)
        .with_event(2_400.0, FaultKind::Reconfigure { r: 160, k: 4 });
    let m = simulate_prob(&chaos_base(8, 4_000.0, 71, plan), space()).unwrap();
    assert_eq!(m.joins, 100, "every newcomer must join: {m:?}");
    assert_eq!(m.reconfigurations, 1);
    assert_eq!(m.undelivered, 0, "zero lost streams through the flash crowd: {m:?}");
    assert_eq!(m.stuck, 0);
    assert!(m.sent > 0 && m.deliveries > 0);
    assert!(m.alg4_alerts > 0, "the detector must be live through the crowd: {m:?}");
}

/// The same flash crowd plus reconfiguration under the exact vector
/// baseline: joiners take their own distinct clock entry (the space is
/// pre-sized to the plan's full slot count) and the `R → R'` growth
/// embeds every set id unchanged, so causal order must stay *exact*
/// through 100 snapshot-assisted joins and an online reconfiguration —
/// zero violations, zero undetected, zero lost streams.
#[test]
fn flash_crowd_stays_exact_under_vector_clocks() {
    let plan = FaultPlan::flash_crowd(6, 100, 400.0, 1_600.0)
        .with_event(2_400.0, FaultKind::Reconfigure { r: 160, k: 1 });
    let m = simulate_vector(&chaos_base(6, 3_500.0, 53, plan)).unwrap();
    assert_eq!(m.joins, 100);
    assert_eq!(m.reconfigurations, 1);
    assert_eq!(m.exact_violations, 0, "vector baseline must stay exact through churn: {m:?}");
    assert_eq!(m.undetected_violations, 0);
    assert_eq!(m.undelivered, 0, "{m:?}");
    assert_eq!(m.stuck, 0);
}

/// A churn storm (joins + graceful leaves interleaved with live
/// traffic): leavers' streams must still reach every survivor, joins
/// and leaves both execute, and the run replays bit-identically from
/// its seed.
#[test]
fn churn_storm_converges_and_replays_bit_identically() {
    let run = |seed: u64| {
        // ~14 join/leave events over the 2.8 s window — a compressed
        // storm (the wall-clock recipe in EXPERIMENTS.md runs 10–50 %/min
        // over minutes; the rate here is scaled up to fit a short test).
        let plan = FaultPlan::churn_storm(seed, 10, 3_000.0, 400.0, 3_200.0);
        simulate_prob(&chaos_base(10, 4_000.0, seed, plan), space()).unwrap()
    };
    let m = run(19);
    assert!(m.joins > 0, "the storm must join someone: {m:?}");
    assert!(m.leaves > 0, "the storm must retire someone: {m:?}");
    assert_eq!(m.undetected_violations, 0, "{m:?}");
    assert_eq!(m.undelivered, 0, "leavers' streams must survive them: {m:?}");
    assert_eq!(m.stuck, 0);
    let (mut a, mut b) = (run(19), run(19));
    a.wall_secs = 0.0;
    b.wall_secs = 0.0;
    assert_eq!(format!("{a:?}"), format!("{b:?}"), "churn must replay bit-identically");
}

/// The full random plan (crash + partition + link faults from one seed)
/// under both the probabilistic discipline and the vector baseline: the
/// vector run certifies safety, the probabilistic run keeps the paper's
/// error model (violations possible, all flagged or counted).
#[test]
fn random_plans_converge_under_both_disciplines() {
    for seed in [3u64, 17] {
        let v = chaos_run_vector(seed, 9, 4000.0).unwrap();
        assert!(v.converged(), "seed {seed} vector run: {:?}", v.metrics);
        assert_eq!(v.metrics.exact_violations, 0, "seed {seed}: {:?}", v.metrics);
        assert!(v.metrics.crashes == 1 && v.metrics.recoveries == 1);

        let p = chaos_run(seed, 9, 4000.0, space()).unwrap();
        assert!(p.converged(), "seed {seed} prob run: {:?}", p.metrics);
        assert_eq!(p.plan, v.plan, "both disciplines must inject the identical plan");
    }
}
