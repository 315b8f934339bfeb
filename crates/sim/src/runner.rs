//! Experiment sweeps regenerating the paper's figures (§5.4.2–§5.4.3).
//!
//! Each `figure*` function runs the corresponding parameter sweep and
//! returns one row per configuration; the `pcb-bench` binaries print them
//! as tables. [`SweepOptions::scale`] multiplies the measured
//! virtual-time window (1.0 ≈ 14 simulated seconds per point — minutes of
//! wall time for the full sweeps; use 0.1–0.3 for a quick look) and
//! [`SweepOptions::reps`] replicates each point under derived seeds,
//! pooling the counts — causal violations arrive in bursts (one covering
//! event fans out), so replication tightens the effective error bars far
//! more than a longer single run.

use pcb_analysis::error_model;
use pcb_clock::KeySpace;

use crate::config::SimConfig;
use crate::engine::{simulate_prob, simulate_vector, SimError};
use crate::fault::{FaultKind, FaultPlan};
use crate::metrics::RunMetrics;
use crate::pool;
use crate::rng::derive_seed;

/// The paper's vector length for all §5.4 experiments.
pub const PAPER_R: usize = 100;
/// The paper's per-process receive rate for Figures 3 and 6 (msg/s).
pub const PAPER_RECEIVE_RATE: f64 = 200.0;
/// The paper's §5.4.3 per-process inter-send interval (ms).
pub const PAPER_LAMBDA_MS: f64 = 5000.0;
/// The paper's §5.4.3 process count.
pub const PAPER_N: usize = 1000;
/// The paper's §5.4.3 number of entries per process.
pub const PAPER_K: usize = 4;

/// Common sweep controls.
#[derive(Debug, Clone, Copy)]
pub struct SweepOptions {
    /// Multiplier on the measured window (1.0 ≈ 14 simulated seconds).
    pub scale: f64,
    /// Master seed; replication seeds are derived from it.
    pub seed: u64,
    /// Independent replications pooled per point.
    pub reps: usize,
    /// Worker threads fanning `points × reps` jobs out across cores.
    /// Every replication derives its seed from `(seed, point, rep)` alone
    /// and results are merged in job order, so tables and CSVs are
    /// byte-identical at any thread count. Defaults to 1 (serial); the
    /// `pcb-bench` binaries default to the machine's available cores.
    pub threads: usize,
}

impl Default for SweepOptions {
    fn default() -> Self {
        Self { scale: 0.25, seed: 1, reps: 3, threads: 1 }
    }
}

fn base_config(opts: SweepOptions) -> SimConfig {
    SimConfig {
        warmup_ms: 1000.0,
        duration_ms: 1000.0 + 14_000.0 * opts.scale,
        seed: opts.seed,
        // Figures track the exact oracle only; the ε estimator is
        // exercised by `epsilon_validation`.
        track_exact: true,
        track_epsilon: false,
        ..SimConfig::default()
    }
}

/// One measured point of a sweep (counts pooled over the replications).
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Number of processes.
    pub n: usize,
    /// Entries per process.
    pub k: usize,
    /// Per-process mean inter-send interval (ms).
    pub lambda_ms: f64,
    /// Expected concurrency `X` for this configuration.
    pub concurrency: f64,
    /// Model prediction `P_error(R, K, X)`.
    pub theory_p_error: f64,
    /// Measured causal-order violations per delivery.
    pub violation_rate: f64,
    /// 95% confidence interval on the violation rate.
    pub violation_ci: (f64, f64),
    /// Pooled metrics of the replications.
    pub metrics: RunMetrics,
}

impl SweepPoint {
    fn build(cfg: &SimConfig, k: usize, metrics: RunMetrics) -> Self {
        let x = cfg.expected_concurrency();
        Self {
            n: cfg.n,
            k,
            lambda_ms: cfg.mean_send_interval_ms,
            concurrency: x,
            theory_p_error: error_model::error_probability(PAPER_R, k, x),
            violation_rate: metrics.violation_rate(),
            violation_ci: metrics.violation_interval(),
            metrics,
        }
    }
}

/// Runs a list of `(config, k)` sweep points, fanning the
/// `points × reps` replication grid across `opts.threads` workers.
///
/// Determinism: each replication's seed is `derive_seed(cfg.seed,
/// 1000 + rep)` — exactly what the serial loop used — and per-point
/// metrics are merged in replication order, so the pooled counts (and
/// every float in them) are bit-identical at any thread count.
fn run_points(
    opts: SweepOptions,
    specs: &[(SimConfig, usize)],
) -> Result<Vec<SweepPoint>, SimError> {
    let reps = opts.reps.max(1);
    let results = pool::run_indexed(opts.threads, specs.len() * reps, |job| {
        let (cfg, k) = &specs[job / reps];
        let space =
            KeySpace::new(PAPER_R, *k).map_err(|e| SimError::InvalidConfig(e.to_string()))?;
        let rep = (job % reps) as u64;
        let cfg = SimConfig { seed: derive_seed(cfg.seed, 1000 + rep), ..cfg.clone() };
        simulate_prob(&cfg, space)
    });
    specs
        .iter()
        .enumerate()
        .map(|(pi, (cfg, k))| {
            let mut pooled = RunMetrics::default();
            for rep in 0..reps {
                pooled.merge(results[pi * reps + rep].as_ref().map_err(Clone::clone)?);
            }
            Ok(SweepPoint::build(cfg, *k, pooled))
        })
        .collect()
}

/// **Figure 3**: error rate vs `K` for several population sizes, with the
/// per-process receive rate held at 200 msg/s (`λ = N/200 s`). The paper
/// reports the empirical minimum at `K = 4` against a theoretical optimum
/// of `ln(2)·100/20 ≈ 3.5`.
///
/// # Errors
///
/// Propagates the first simulation failure.
pub fn figure3(
    opts: SweepOptions,
    ns: &[usize],
    ks: &[usize],
) -> Result<Vec<SweepPoint>, SimError> {
    let mut specs = Vec::new();
    for &n in ns {
        for &k in ks {
            let cfg =
                SimConfig { n, ..base_config(opts) }.with_constant_receive_rate(PAPER_RECEIVE_RATE);
            specs.push((cfg, k));
        }
    }
    run_points(opts, &specs)
}

/// Default sweep axes for [`figure3`] (the paper's four population sizes
/// and `K` up to 10).
#[must_use]
pub fn figure3_defaults() -> (Vec<usize>, Vec<usize>) {
    (vec![500, 1000, 1500, 2000], vec![1, 2, 3, 4, 5, 6, 8, 10])
}

/// **Figure 4**: error rate vs `λ` at `N = 1000`, `R = 100`, `K = 4`.
/// Stable around the λ = 5000 ms design point, rising sharply below
/// 3000 ms.
///
/// # Errors
///
/// Propagates the first simulation failure.
pub fn figure4(opts: SweepOptions, lambdas_ms: &[f64]) -> Result<Vec<SweepPoint>, SimError> {
    let specs: Vec<_> = lambdas_ms
        .iter()
        .map(|&lambda| {
            let cfg = SimConfig { n: PAPER_N, mean_send_interval_ms: lambda, ..base_config(opts) };
            (cfg, PAPER_K)
        })
        .collect();
    run_points(opts, &specs)
}

/// Default λ axis for [`figure4`] (ms).
#[must_use]
pub fn figure4_defaults() -> Vec<f64> {
    vec![1000.0, 1500.0, 2000.0, 2500.0, 3000.0, 4000.0, 5000.0, 6000.0, 8000.0, 10_000.0]
}

/// **Figure 5**: error rate vs `N` with `λ` fixed at 5000 ms — the
/// aggregate load grows with `N`, so the error rate climbs past the
/// `N = 1000` design point.
///
/// # Errors
///
/// Propagates the first simulation failure.
pub fn figure5(opts: SweepOptions, ns: &[usize]) -> Result<Vec<SweepPoint>, SimError> {
    let specs: Vec<_> = ns
        .iter()
        .map(|&n| {
            let cfg = SimConfig { n, mean_send_interval_ms: PAPER_LAMBDA_MS, ..base_config(opts) };
            (cfg, PAPER_K)
        })
        .collect();
    run_points(opts, &specs)
}

/// Default `N` axis for [`figure5`].
#[must_use]
pub fn figure5_defaults() -> Vec<usize> {
    vec![250, 500, 750, 1000, 1250, 1500, 2000]
}

/// **Figure 6**: error rate vs `N` at a constant aggregate receive rate
/// of 200 msg/s — flat at and above the design point, rising when fewer
/// nodes each send faster.
///
/// # Errors
///
/// Propagates the first simulation failure.
pub fn figure6(opts: SweepOptions, ns: &[usize]) -> Result<Vec<SweepPoint>, SimError> {
    let specs: Vec<_> = ns
        .iter()
        .map(|&n| {
            let cfg =
                SimConfig { n, ..base_config(opts) }.with_constant_receive_rate(PAPER_RECEIVE_RATE);
            (cfg, PAPER_K)
        })
        .collect();
    run_points(opts, &specs)
}

/// Default `N` axis for [`figure6`].
#[must_use]
pub fn figure6_defaults() -> Vec<usize> {
    figure5_defaults()
}

/// Result of the §5.4.1 methodology validation: the paper's ε bounds and
/// the detectors, against the exact oracle, on one configuration.
#[derive(Debug, Clone)]
pub struct EpsilonValidation {
    /// Raw metrics (with both oracles enabled).
    pub metrics: RunMetrics,
}

impl EpsilonValidation {
    /// Whether the paper's bounds bracket the exact count.
    #[must_use]
    pub fn brackets_exact(&self) -> bool {
        self.metrics.eps_min <= self.metrics.exact_violations
            && self.metrics.exact_violations <= self.metrics.eps_max
    }
}

/// Runs the ε_min/ε_max estimator alongside the exact checker on a
/// down-scaled §5.4.3 configuration (smaller `N` so the run is cheap; the
/// estimators are per-receiver and independent of `N`).
///
/// # Errors
///
/// Propagates simulation failure.
pub fn epsilon_validation(opts: SweepOptions, n: usize) -> Result<EpsilonValidation, SimError> {
    let cfg = SimConfig { n, track_epsilon: true, ..base_config(opts) }
        .with_constant_receive_rate(PAPER_RECEIVE_RATE);
    let space =
        KeySpace::new(PAPER_R, PAPER_K).map_err(|e| SimError::InvalidConfig(e.to_string()))?;
    let metrics = simulate_prob(&cfg, space)?;
    Ok(EpsilonValidation { metrics })
}

/// Outcome of one chaos run: the injected plan (replayable via
/// [`FaultPlan::to_text`]) and the run's metrics.
#[derive(Debug, Clone)]
pub struct ChaosOutcome {
    /// The fault plan that was injected.
    pub plan: FaultPlan,
    /// Metrics of the run, including the chaos counters.
    pub metrics: RunMetrics,
}

impl ChaosOutcome {
    /// Whether every surviving node converged to the full message set
    /// after the faults healed (the liveness half of the safety oracle).
    #[must_use]
    pub fn converged(&self) -> bool {
        self.metrics.undelivered == 0 && self.metrics.stuck == 0
    }
}

/// The configuration a seeded chaos run uses: `n` nodes, a generated
/// [`FaultPlan::random`] schedule occupying the middle of the run, and a
/// tail of fault-free time for anti-entropy to converge in.
#[must_use]
pub fn chaos_config(seed: u64, n: usize, duration_ms: f64) -> SimConfig {
    let plan = FaultPlan::random(seed, n, 0.10 * duration_ms, 0.80 * duration_ms);
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

/// The configuration a seeded churn-certification run uses: a
/// [`FaultPlan::churn_storm`] (joins and graceful leaves) through the
/// middle of the run at `churn_pct_per_min` percent of the initial
/// membership per minute, one online `(R, K) → (R', K')`
/// reconfiguration after the storm settles, and a fault-free tail for
/// anti-entropy to converge in. Same seed, same plan.
#[must_use]
pub fn churn_config(
    seed: u64,
    n: usize,
    duration_ms: f64,
    churn_pct_per_min: f64,
    reconfigure: Option<(usize, usize)>,
) -> SimConfig {
    let mut plan =
        FaultPlan::churn_storm(seed, n, churn_pct_per_min, 0.10 * duration_ms, 0.60 * duration_ms);
    if let Some((r, k)) = reconfigure {
        plan = plan.with_event(0.75 * duration_ms, FaultKind::Reconfigure { r, k });
    }
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

/// One deterministic chaos run of the probabilistic discipline: same
/// `seed` ⇒ bit-identical plan, workload, and metrics.
///
/// # Errors
///
/// Propagates simulation failure.
pub fn chaos_run(
    seed: u64,
    n: usize,
    duration_ms: f64,
    space: KeySpace,
) -> Result<ChaosOutcome, SimError> {
    let cfg = chaos_config(seed, n, duration_ms);
    let plan = cfg.faults.clone().expect("chaos_config sets a plan");
    let metrics = simulate_prob(&cfg, space)?;
    Ok(ChaosOutcome { plan, metrics })
}

/// The same chaos run under exact vector clocks — the certification
/// variant: any `exact_violations` here is a real safety bug, not a
/// probabilistic hash collision.
///
/// # Errors
///
/// Propagates simulation failure.
pub fn chaos_run_vector(seed: u64, n: usize, duration_ms: f64) -> Result<ChaosOutcome, SimError> {
    let cfg = chaos_config(seed, n, duration_ms);
    let plan = cfg.faults.clone().expect("chaos_config sets a plan");
    let metrics = simulate_vector(&cfg)?;
    Ok(ChaosOutcome { plan, metrics })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(scale: f64, seed: u64) -> SweepOptions {
        SweepOptions { scale, seed, reps: 1, threads: 1 }
    }

    #[test]
    fn figure3_rows_cover_grid() {
        let rows = figure3(tiny(0.01, 1), &[50], &[1, 2, 4]).unwrap();
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.n == 50));
        assert_eq!(rows.iter().map(|r| r.k).collect::<Vec<_>>(), vec![1, 2, 4]);
        for r in &rows {
            assert!(r.metrics.deliveries > 0);
            assert!((0.0..=1.0).contains(&r.violation_rate));
            assert!(r.violation_ci.0 <= r.violation_rate + 1e-12);
        }
    }

    #[test]
    fn figure3_constant_receive_rate() {
        let rows = figure3(tiny(0.01, 1), &[40, 80], &[2]).unwrap();
        // λ scales with N so X (concurrency) is constant.
        assert!((rows[0].concurrency - rows[1].concurrency).abs() < 1e-9);
        assert!(rows[1].lambda_ms > rows[0].lambda_ms);
    }

    #[test]
    fn replication_pools_counts() {
        let one = figure3(tiny(0.01, 1), &[40], &[2]).unwrap();
        let three = figure3(SweepOptions { reps: 3, ..tiny(0.01, 1) }, &[40], &[2]).unwrap();
        // Each replication uses a derived seed, so counts are only
        // approximately 3x (Poisson workload lengths differ per seed).
        let ratio = three[0].metrics.deliveries as f64 / one[0].metrics.deliveries as f64;
        assert!((2.0..4.0).contains(&ratio), "pooled deliveries ratio {ratio}");
        assert!(three[0].metrics.sent > one[0].metrics.sent);
    }

    #[test]
    fn figure4_lambda_axis() {
        let rows = figure4(tiny(0.002, 1), &[4000.0, 8000.0]).unwrap();
        assert_eq!(rows.len(), 2);
        assert!(rows[0].concurrency > rows[1].concurrency);
        assert!(rows[0].theory_p_error > rows[1].theory_p_error);
    }

    #[test]
    fn epsilon_validation_brackets() {
        let v = epsilon_validation(tiny(0.05, 3), 60).unwrap();
        assert!(v.brackets_exact(), "eps bounds must bracket exact: {:?}", v.metrics);
    }
}
