//! Property-based tests for the simulator: invariants that must hold for
//! *every* configuration, not just the paper's.

use pcb_clock::KeySpace;
use pcb_sim::{simulate_prob, simulate_vector, LatencyDistribution, LossModel, SimConfig};
use proptest::prelude::*;

fn arb_config() -> impl Strategy<Value = SimConfig> {
    (
        2usize..12,   // n
        20f64..400.0, // mean send interval ms
        10f64..120.0, // latency mean
        0f64..30.0,   // latency sigma
        0f64..30.0,   // skew sigma
        0u64..1000,   // seed
        0usize..4,    // distribution selector
    )
        .prop_map(|(n, interval, lat, sigma, skew, seed, dist)| SimConfig {
            n,
            mean_send_interval_ms: interval,
            latency_mean_ms: lat,
            latency_sigma_ms: sigma,
            latency_distribution: match dist {
                0 => LatencyDistribution::Gaussian,
                1 => LatencyDistribution::Uniform,
                2 => LatencyDistribution::LogNormal,
                _ => LatencyDistribution::Bimodal,
            },
            skew_sigma_ms: skew,
            duration_ms: 1500.0,
            warmup_ms: 100.0,
            seed,
            ..SimConfig::default()
        })
}

fn arb_space() -> impl Strategy<Value = KeySpace> {
    (1usize..32).prop_flat_map(|r| {
        (Just(r), 1usize..=r).prop_map(|(r, k)| KeySpace::new(r, k).expect("valid"))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Liveness (Lemma 1) under every static direct configuration: no
    /// message stays blocked, every message reaches every process.
    #[test]
    fn lemma1_liveness_everywhere(cfg in arb_config(), space in arb_space()) {
        let m = simulate_prob(&cfg, space).unwrap();
        prop_assert_eq!(m.stuck, 0);
        prop_assert_eq!(m.undelivered, 0);
        prop_assert_eq!(m.deliveries, m.sent * (cfg.n as u64 - 1));
    }

    /// The exact vector-clock baseline never violates causality, under
    /// any latency distribution or load.
    #[test]
    fn vector_baseline_always_exact(cfg in arb_config()) {
        let m = simulate_vector(&cfg).unwrap();
        prop_assert_eq!(m.exact_violations, 0);
        prop_assert_eq!(m.eps_min, 0);
        prop_assert_eq!(m.eps_max, 0);
    }

    /// The paper's ε_min is a sound lower bound for every configuration.
    /// (ε_max is *not* a strict upper bound — see the documented caveat
    /// on `EpsilonEstimator`: clustered violations sharing one missing
    /// message are undercounted. The bracketing at the paper's operating
    /// points is verified by `epsilon_validation` instead.)
    #[test]
    fn epsilon_lower_bound_always_sound(cfg in arb_config(), space in arb_space()) {
        let m = simulate_prob(&cfg, space).unwrap();
        prop_assert!(m.eps_min <= m.exact_violations);
        prop_assert!(m.eps_min <= m.eps_max);
    }

    /// Determinism: identical config and seed produce identical metrics.
    #[test]
    fn full_determinism(cfg in arb_config(), space in arb_space()) {
        let a = simulate_prob(&cfg, space).unwrap();
        let b = simulate_prob(&cfg, space).unwrap();
        prop_assert_eq!(a.sent, b.sent);
        prop_assert_eq!(a.deliveries, b.deliveries);
        prop_assert_eq!(a.exact_violations, b.exact_violations);
        prop_assert_eq!(a.eps_max, b.eps_max);
        prop_assert_eq!(a.alg4_alerts, b.alg4_alerts);
        prop_assert_eq!(a.delay_ms.mean().to_bits(), b.delay_ms.mean().to_bits());
    }

    /// Lossy links with retransmission preserve liveness at any loss rate.
    #[test]
    fn loss_preserves_liveness(
        cfg in arb_config(),
        drop in 0.0f64..0.6,
        rto in 20f64..300.0,
    ) {
        let cfg = SimConfig {
            loss: Some(LossModel { drop_probability: drop, retransmit_ms: rto }),
            ..cfg
        };
        let space = KeySpace::new(16, 2).unwrap();
        let m = simulate_prob(&cfg, space).unwrap();
        prop_assert_eq!(m.stuck, 0);
        prop_assert_eq!(m.undelivered, 0);
    }

    /// Alert ordering invariant: Algorithm 5 alerts never exceed
    /// Algorithm 4 alerts (Alg 5 = Alg 4 ∧ witness).
    #[test]
    fn alg5_never_exceeds_alg4(cfg in arb_config()) {
        let space = KeySpace::new(12, 2).unwrap();
        let m = pcb_sim::simulate_prob_detecting(&cfg, space, 2.0 * cfg.latency_mean_ms)
            .unwrap();
        prop_assert!(m.alg5_alerts <= m.alg4_alerts);
    }
}
