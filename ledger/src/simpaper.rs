//! `sim-paper`: `simulate_prob` on the paper's §5.4 model — Poisson
//! senders, 100 ± 20 ms links, (R, K) = (100, 4), concurrency X = 20 —
//! oracles off. What figure regeneration and reproduction runs pay per
//! delivery; the sim kernel does the work, `Endpoint` none.
//!
//! N = 200 at the paper's constant receive rate of 200 msg/s (the family
//! Figures 3 and 6 sweep), not §5.4.3's N = 1000. The kernel and the
//! per-delivery work are the same; what differs is that 200 processes'
//! state stays in a core's own cache. At N = 1000 the pass runs out of a
//! cache this host shares with its other tenants: back to back, one
//! binary read 2.29–2.87 M deliveries/s at N = 1000 against 2.97–3.26 M at
//! N = 200, and over an hour 1.38–2.57 M.

use std::time::Instant;

use pcb_clock::KeySpace;
use pcb_sim::{simulate_prob, RunMetrics, SimConfig};

use crate::report::{Checks, Metric, Outcome};
use crate::util::{self, hist_quantile};
use crate::RunOpts;

/// One warm-up unit simulates this much virtual time (≈ 0.07 s of wall
/// time, which bounds how far the warm-up can overshoot).
const WARMUP_UNIT_MS: f64 = 5_000.0;
/// One timed pass simulates this much virtual time: 49 measured seconds
/// after the simulator's own 1 s clock warm-up, 1.95 M deliveries,
/// ≈ 0.65 s.
const PASS_MS: f64 = 50_000.0;
const N: usize = 200;
/// Messages each process receives per second, whatever `N` is.
const RECEIVE_RATE: f64 = 200.0;

pub fn space() -> KeySpace {
    KeySpace::new(100, 4).expect("the paper's (100, 4) space")
}

pub fn config(seed: u64, duration_ms: f64) -> SimConfig {
    SimConfig {
        n: N,
        seed: util::sub_seed(seed, 0x51),
        duration_ms,
        track_exact: false,
        track_epsilon: false,
        ..SimConfig::paper_defaults()
    }
    .with_constant_receive_rate(RECEIVE_RATE)
}

/// The counters that must repeat exactly on every pass of one seed.
fn fingerprint(m: &RunMetrics) -> [u64; 8] {
    [
        m.sent,
        m.deliveries,
        m.alg4_alerts,
        m.control_bytes,
        m.wake_gap_checks,
        m.wake_wakeups,
        m.pending_peak as u64,
        m.stuck,
    ]
}

pub fn run(opts: &RunOpts) -> Outcome {
    let start = Instant::now();
    let mut checks = Checks::default();

    // Set-up: nothing to construct ahead of a pass (the simulator builds
    // its processes per call, inside the timed pass), so set-up is the
    // warm-up alone.
    while start.elapsed() < crate::IN_PROCESS_WARMUP {
        let cfg = SimConfig { warmup_ms: 0.0, ..config(opts.seed, WARMUP_UNIT_MS) };
        simulate_prob(&cfg, space()).expect("warm-up unit runs");
    }
    let setup_s = start.elapsed().as_secs_f64();

    let cfg = config(opts.seed, PASS_MS);
    let window = Instant::now();
    let mut pass_secs = Vec::new();
    let mut first: Option<RunMetrics> = None;
    let mut sent_total = 0u64;
    while pass_secs.len() < 3 || window.elapsed().as_secs_f64() < opts.seconds {
        let pass = Instant::now();
        let m = simulate_prob(&cfg, space()).expect("paper point runs");
        pass_secs.push(pass.elapsed().as_secs_f64());
        sent_total += m.sent;
        checks.fail(m.stuck, format!("{} messages stuck at the end of a pass", m.stuck));
        let want = m.sent * (cfg.n as u64 - 1);
        checks.fail(
            want.abs_diff(m.deliveries),
            format!("deliveries {} != sent x (N-1) = {want}", m.deliveries),
        );
        match &first {
            None => first = Some(m),
            Some(f) => checks.require(fingerprint(f) == fingerprint(&m), || {
                format!("pass {} counters differ from pass 1", pass_secs.len())
            }),
        }
    }
    let m = first.expect("at least one pass ran");
    let fastest = pass_secs.iter().copied().fold(f64::INFINITY, f64::min);
    let median = util::median(&pass_secs);

    let metrics = vec![
        Metric::new("setup_s", "s", setup_s),
        Metric::new("deliver_p50_ms", "ms", hist_quantile(&m.delay_ms, 0.50)),
        Metric::new("deliver_p90_ms", "ms", hist_quantile(&m.delay_ms, 0.90)),
        Metric::new("deliveries_per_s", "1/s", m.deliveries as f64 / fastest),
        Metric::new("wire_bytes_per_msg", "B", m.control_bytes_per_message()),
        Metric::new("peak_rss_mb", "MB", util::own_peak_rss_mb()),
    ];
    let notes = vec![
        ("passes".into(), pass_secs.len().to_string()),
        ("deliveries_per_pass".into(), m.deliveries.to_string()),
        ("deliveries_per_s_median_pass".into(), format!("{:.0}", m.deliveries as f64 / median)),
        ("virtual latency clock".into(), "deliver_p50/p90 are on the simulator's clock".into()),
    ];
    Outcome { ops: sent_total, checks, metrics, notes }
}

/// `trace sim-paper`: the same pass with the simulator's own lifecycle
/// tracer on (every process keeps a ring of trace events), against an
/// untraced pass — the self-cost of `pcb-telemetry` at paper scale.
pub fn trace(opts: &RunOpts) -> Outcome {
    use pcb_sim::simulate_prob_traced;
    let mut checks = Checks::default();
    let cfg = config(opts.seed, PASS_MS);
    simulate_prob(&cfg, space()).expect("warm pass");
    let mut plain: Option<RunMetrics> = None;
    let untraced = util::fastest_of(2, || {
        plain = Some(simulate_prob(&cfg, space()).expect("untraced pass"));
    });
    let plain = plain.expect("an untraced pass ran");

    let traced_cfg = SimConfig { trace_capacity: 256, ..cfg.clone() };
    let start = Instant::now();
    let (m, records) = simulate_prob_traced(&traced_cfg, space()).expect("traced pass");
    let traced = start.elapsed().as_secs_f64();
    checks.require(fingerprint(&plain) == fingerprint(&m), || {
        "tracing changed the simulation's counters".into()
    });
    let pool = m.stamp_pool_hits + m.stamp_pool_misses;
    let metrics = vec![
        Metric::new("trace.overhead_pct", "%", 100.0 * (traced - untraced) / untraced),
        Metric::new(
            "sim.stamp_pool_hit_rate",
            "%",
            100.0 * m.stamp_pool_hits as f64 / pool.max(1) as f64,
        ),
        Metric::new("sim.alg4_alert_ppm", "ppm", 1e6 * m.alg4_rate()),
    ];
    let notes = vec![
        ("untraced pass".into(), format!("{untraced:.3} s")),
        ("traced pass".into(), format!("{traced:.3} s")),
        ("trace records kept".into(), records.len().to_string()),
    ];
    Outcome { ops: m.sent, checks, metrics, notes }
}
