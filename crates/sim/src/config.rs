//! Simulation configuration (the paper's §5.4 model parameters).

use pcb_clock::AssignmentPolicy;

use crate::fault::FaultPlan;
use crate::wheel::Scheduler;

/// How broadcasts reach the other processes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dissemination {
    /// Reliable broadcast: every process receives each message exactly
    /// once, after its own propagation delay. The paper's model.
    Direct,
    /// Probabilistic broadcast (Eugster et al.'s lightweight gossip,
    /// paper Definition 2): the sender and each first-time receiver relay
    /// to `fanout` random peers; duplicates are suppressed, and a message
    /// may miss some processes entirely.
    Gossip {
        /// Peers each infected process relays to.
        fanout: usize,
    },
}

/// Shape of the per-message base-delay distribution. All shapes are
/// moment-matched to the configured `(latency_mean_ms, latency_sigma_ms)`
/// so the concurrency `X = rate · mean` — and therefore the §5.3 error
/// model — is identical across shapes; only tail behaviour differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LatencyDistribution {
    /// The paper's `N(μ, σ²)`.
    #[default]
    Gaussian,
    /// Uniform over `[μ − √3σ, μ + √3σ]` (bounded, no tail).
    Uniform,
    /// Log-normal with matched mean/variance (heavy upper tail).
    LogNormal,
    /// Half the messages on "near" links `N(μ/2, σ²)`, half on "far"
    /// links `N(3μ/2, σ²)` — a crude two-cluster WAN.
    Bimodal,
}

/// Lossy-link model (only meaningful under [`Dissemination::Direct`]):
/// each transmission is lost with `drop_probability`, and the reliable
/// broadcast layer retransmits after `retransmit_ms` until it gets
/// through. Loss therefore shows up as extra, highly variable delay —
/// exactly the reordering stress the probabilistic clock must absorb.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossModel {
    /// Per-transmission loss probability in `[0, 1)`.
    pub drop_probability: f64,
    /// Retransmission timeout of the reliable-broadcast layer (ms).
    pub retransmit_ms: f64,
}

/// Full description of one simulation run.
///
/// Defaults reproduce §5.4.3: `N = 1000` processes each sending on
/// average every `λ = 5000 ms`, propagation `d ~ N(100, 20²) ms`,
/// per-receiver skew `N(d, 20²)`, i.e. aggregate 200 msg/s and
/// concurrency `X ≈ 20`.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of processes `N`.
    pub n: usize,
    /// Mean per-process inter-send interval `λ`, in milliseconds.
    pub mean_send_interval_ms: f64,
    /// Mean propagation delay `μ` (ms).
    pub latency_mean_ms: f64,
    /// Per-message delay deviation `σ` (ms).
    pub latency_sigma_ms: f64,
    /// Shape of the base-delay distribution (moment-matched to μ, σ).
    pub latency_distribution: LatencyDistribution,
    /// Per-receiver skew deviation `σ_m` (ms).
    pub skew_sigma_ms: f64,
    /// Minimum effective delay (ms) — Gaussians are clamped here.
    pub latency_floor_ms: f64,
    /// Sends stop at this virtual time (ms); in-flight messages drain.
    pub duration_ms: f64,
    /// Messages sent before this time are excluded from metrics (clock
    /// warm-up transient).
    pub warmup_ms: f64,
    /// Master seed: same seed, same event history.
    pub seed: u64,
    /// Key-assignment policy for the probabilistic clocks.
    pub policy: AssignmentPolicy,
    /// Transport behaviour.
    pub dissemination: Dissemination,
    /// Lossy links with retransmission (direct dissemination only).
    pub loss: Option<LossModel>,
    /// Deterministic fault schedule (crashes, partitions, link faults,
    /// joins and leaves); `None` = the fault-free, static-membership
    /// model of §5.4. Chaos runs require [`Self::track_exact`] and
    /// [`Dissemination::Direct`].
    pub faults: Option<FaultPlan>,
    /// Run the exact ground-truth checker (primary error metric).
    pub track_exact: bool,
    /// Run the paper's ε_min/ε_max estimator alongside.
    pub track_epsilon: bool,
    /// Per-process lifecycle-trace ring capacity (events); `0` disables
    /// tracing — the emit path never constructs an event. Collect the
    /// records with [`crate::simulate_traced`].
    pub trace_capacity: usize,
    /// Run the online causal-health estimators (sliding-window X̂, per
    /// clock-entry heatmap, live predicted `P_error`). Observation-only:
    /// delivery outcomes are bit-identical on or off.
    pub estimators: bool,
    /// Event-queue implementation. [`Scheduler::Wheel`] (default) and
    /// [`Scheduler::Heap`] produce bit-identical runs — the heap is kept
    /// as the differential baseline and for scheduler benchmarks.
    pub scheduler: Scheduler,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            n: 1000,
            mean_send_interval_ms: 5000.0,
            latency_mean_ms: 100.0,
            latency_sigma_ms: 20.0,
            latency_distribution: LatencyDistribution::Gaussian,
            skew_sigma_ms: 20.0,
            latency_floor_ms: 1.0,
            duration_ms: 20_000.0,
            warmup_ms: 1000.0,
            seed: 0xC0FFEE,
            policy: AssignmentPolicy::UniformRandom,
            dissemination: Dissemination::Direct,
            loss: None,
            faults: None,
            track_exact: true,
            track_epsilon: true,
            trace_capacity: 0,
            estimators: false,
            scheduler: Scheduler::Wheel,
        }
    }
}

impl SimConfig {
    /// The paper's §5.4.3 parameters (also the `Default`).
    #[must_use]
    pub fn paper_defaults() -> Self {
        Self::default()
    }

    /// Configuration for a *constant aggregate receive rate*: each process
    /// receives `rate_per_sec` messages per second regardless of `N`
    /// (Figures 3 and 6), i.e. per-node interval `N / rate` seconds.
    #[must_use]
    pub fn with_constant_receive_rate(mut self, rate_per_sec: f64) -> Self {
        self.mean_send_interval_ms = self.n as f64 / rate_per_sec * 1000.0;
        self
    }

    /// Expected aggregate send rate (msg/s) over all processes.
    #[must_use]
    pub fn aggregate_rate_per_sec(&self) -> f64 {
        self.n as f64 / (self.mean_send_interval_ms / 1000.0)
    }

    /// Expected concurrency `X`: messages in flight during one propagation
    /// delay (feeds the §5.3 model).
    #[must_use]
    pub fn expected_concurrency(&self) -> f64 {
        self.aggregate_rate_per_sec() * self.latency_mean_ms / 1000.0
    }

    /// Validates parameter sanity.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        // Rejects NaN along with the out-of-range value.
        let not_positive = |v: f64| v.is_nan() || v <= 0.0;
        if self.n < 2 {
            return Err(format!("need at least 2 processes, got {}", self.n));
        }
        if not_positive(self.mean_send_interval_ms) {
            return Err("mean_send_interval_ms must be positive".into());
        }
        if not_positive(self.latency_mean_ms) {
            return Err("latency_mean_ms must be positive".into());
        }
        if self.latency_sigma_ms < 0.0 || self.skew_sigma_ms < 0.0 {
            return Err("sigmas must be non-negative".into());
        }
        if not_positive(self.latency_floor_ms) {
            return Err("latency_floor_ms must be positive".into());
        }
        if self.duration_ms.is_nan()
            || self.warmup_ms.is_nan()
            || self.duration_ms <= self.warmup_ms
            || self.warmup_ms < 0.0
        {
            return Err("need 0 <= warmup_ms < duration_ms".into());
        }
        if let Dissemination::Gossip { fanout } = self.dissemination {
            if fanout == 0 {
                return Err("gossip fanout must be at least 1".into());
            }
            if self.loss.is_some() {
                return Err("loss model applies to direct dissemination only".into());
            }
        }
        if let Some(loss) = &self.loss {
            if !(0.0..1.0).contains(&loss.drop_probability) {
                return Err("drop_probability must be in [0, 1)".into());
            }
            if not_positive(loss.retransmit_ms) {
                return Err("retransmit_ms must be positive".into());
            }
        }
        if let Some(plan) = &self.faults {
            if self.dissemination != Dissemination::Direct {
                return Err("fault plans require direct dissemination".into());
            }
            if !self.track_exact {
                return Err("fault plans require track_exact (the safety oracle \
                             certifies exactly-once delivery and convergence)"
                    .into());
            }
            plan.validate(self.n, self.duration_ms).map_err(|e| format!("fault plan: {e}"))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = SimConfig::paper_defaults();
        assert_eq!(c.n, 1000);
        assert_eq!(c.mean_send_interval_ms, 5000.0);
        assert!((c.aggregate_rate_per_sec() - 200.0).abs() < 1e-9);
        assert!((c.expected_concurrency() - 20.0).abs() < 1e-9);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn constant_receive_rate_scales_interval() {
        let c = SimConfig { n: 500, ..SimConfig::default() }.with_constant_receive_rate(200.0);
        assert!((c.mean_send_interval_ms - 2500.0).abs() < 1e-9);
        assert!((c.aggregate_rate_per_sec() - 200.0).abs() < 1e-9);
        let c2 = SimConfig { n: 2000, ..SimConfig::default() }.with_constant_receive_rate(200.0);
        assert!((c2.mean_send_interval_ms - 10_000.0).abs() < 1e-9);
    }

    #[test]
    fn validation_catches_bad_fields() {
        let ok = SimConfig::default();
        assert!(SimConfig { n: 1, ..ok.clone() }.validate().is_err());
        assert!(SimConfig { mean_send_interval_ms: 0.0, ..ok.clone() }.validate().is_err());
        assert!(SimConfig { latency_mean_ms: -1.0, ..ok.clone() }.validate().is_err());
        assert!(SimConfig { latency_sigma_ms: -0.1, ..ok.clone() }.validate().is_err());
        assert!(SimConfig { warmup_ms: 30_000.0, ..ok.clone() }.validate().is_err());
        assert!(SimConfig { dissemination: Dissemination::Gossip { fanout: 0 }, ..ok.clone() }
            .validate()
            .is_err());
        assert!(SimConfig { latency_floor_ms: 0.0, ..ok.clone() }.validate().is_err());
        let bad_loss = LossModel { drop_probability: 1.0, retransmit_ms: 100.0 };
        assert!(SimConfig { loss: Some(bad_loss), ..ok.clone() }.validate().is_err());
        let no_rto = LossModel { drop_probability: 0.1, retransmit_ms: 0.0 };
        assert!(SimConfig { loss: Some(no_rto), ..ok.clone() }.validate().is_err());
        let loss_on_gossip = SimConfig {
            dissemination: Dissemination::Gossip { fanout: 3 },
            loss: Some(LossModel { drop_probability: 0.1, retransmit_ms: 50.0 }),
            ..ok
        };
        assert!(loss_on_gossip.validate().is_err());
    }
}
