//! One `simulate_prob` run pinned to the counters the parent of the
//! guard-kernel change produced (commit 92e8cc6, recorded before the
//! kernel existed). The guard and the wake path may get cheaper; what
//! they decide — who waits, on which entry, who wakes, in which order —
//! may not move, and every one of these counters moves if it does.

use pcb_clock::KeySpace;
use pcb_sim::{simulate_prob, SimConfig};

#[test]
fn paper_point_counters_match_the_recorded_run() {
    let cfg = SimConfig { n: 50, seed: 1, duration_ms: 10_000.0, ..SimConfig::paper_defaults() }
        .with_constant_receive_rate(200.0);
    let m = simulate_prob(&cfg, KeySpace::new(100, 4).expect("the paper's space"))
        .expect("the pinned point runs");

    assert_eq!((m.sent, m.deliveries, m.stuck), (1859, 91_091, 0));
    assert_eq!((m.alg4_alerts, m.exact_violations), (4063, 369));
    assert_eq!((m.eps_min, m.eps_max), (330, 661));
    assert_eq!(m.pending_peak, 7);
    assert_eq!((m.wake_gap_checks, m.wake_wakeups), (109_158, 7826));
    assert_eq!(m.control_bytes, 1_487_200);
    let delay = &m.delay_ms;
    assert_eq!(
        (delay.p50(), delay.p90(), delay.p99(), delay.max()),
        (112.0, 160.0, 192.0, 214.032)
    );
    let blocking = &m.blocking_ms;
    assert_eq!((blocking.count(), blocking.p99(), blocking.max()), (91_091, 48.0, 117.509));
}

/// The scale point the timing wheel and the message arena exist for:
/// P = 10⁵ processes, 13 broadcasts in flight at once, ≈ 1.3 M deliveries
/// (≈ 1.3 s in release; counters recorded at commit 187dc90). Ignored by
/// default because a debug build takes minutes; `scripts/verify.sh --perf`
/// runs it with `--release --include-ignored`.
#[test]
#[ignore = "P = 10^5: run in release with --include-ignored"]
fn p100k_point_completes_with_the_recorded_counters() {
    let (n, sends, duration_ms) = (100_000, 15.0, 400.0);
    let cfg = SimConfig {
        n,
        // All sends fall inside one network latency, so the event queue
        // stays ~10⁶ deep — the regime a log-depth scheduler cannot reach.
        mean_send_interval_ms: n as f64 * duration_ms / sends,
        duration_ms,
        warmup_ms: 0.0,
        seed: 17,
        track_exact: false,
        track_epsilon: false,
        ..SimConfig::paper_defaults()
    };
    let m = simulate_prob(&cfg, KeySpace::new(100, 4).expect("the paper's space"))
        .expect("the P = 10^5 point runs");

    assert_eq!((m.sent, m.deliveries, m.stuck), (13, 1_299_987, 0));
    assert_eq!(m.pending_peak, 2);
    assert_eq!((m.wake_gap_checks, m.wake_wakeups), (1_300_010, 23));
    assert_eq!(m.control_bytes, 10_400);
    assert_eq!((m.stamp_pool_hits, m.stamp_pool_misses), (4, 9));
    let delay = &m.delay_ms;
    assert_eq!((delay.p50(), delay.p90(), delay.p99(), delay.max()), (112.0, 160.0, 192.0, 225.34));
    assert_eq!((m.blocking_ms.count(), m.blocking_ms.max()), (1_299_987, 23.507));
}
