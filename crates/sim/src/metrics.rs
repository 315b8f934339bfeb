//! Metrics collected over one simulation run.

use pcb_analysis::wilson_interval;
use pcb_broadcast::Counters;
use pcb_telemetry::Hist;

/// Everything a run measures. All message-level counters cover only
/// messages *sent inside the measurement window* (after warm-up, before
/// the send cutoff); the simulation itself runs to full drain.
#[derive(Debug, Clone, Default)]
pub struct RunMetrics {
    /// Messages sent in the measurement window.
    pub sent: u64,
    /// Deliveries of measured messages (≈ `sent × (N - 1)` under direct
    /// dissemination).
    pub deliveries: u64,
    /// Deliveries violating causal order, per the exact checker.
    pub exact_violations: u64,
    /// The paper's lower bound `ε_min` (definite wrong deliveries).
    pub eps_min: u64,
    /// The paper's upper bound `ε_max` (wrong + stale arrivals).
    pub eps_max: u64,
    /// Algorithm 4 alerts raised on measured deliveries.
    pub alg4_alerts: u64,
    /// Algorithm 5 alerts raised on measured deliveries.
    pub alg5_alerts: u64,
    /// Transport-level duplicates suppressed (gossip).
    pub duplicates: u64,
    /// Measured messages that never reached some process (gossip only;
    /// always 0 under direct dissemination).
    pub undelivered: u64,
    /// End-to-end delivery latency (receive→deliver wait included), ms —
    /// log-bucketed so the tail (p50/p90/p99) is reported, not just the
    /// mean.
    pub delay_ms: Hist,
    /// Time spent blocked in the pending queue (delivery minus arrival), ms.
    pub blocking_ms: Hist,
    /// High-water mark of any process's pending queue.
    pub pending_peak: usize,
    /// Total control-information bytes attached to measured messages.
    pub control_bytes: u64,
    /// Messages still undeliverable at simulation end (should be 0 —
    /// liveness, Lemma 1 — under direct dissemination with static
    /// membership).
    pub stuck: u64,
    /// Processes that joined mid-run (churn).
    pub joins: u64,
    /// Processes that left mid-run (churn).
    pub leaves: u64,
    /// Online `(R, K)` reconfigurations executed mid-run (config-epoch
    /// bumps announced to every live member).
    pub reconfigurations: u64,
    /// Wall-clock seconds the run took.
    pub wall_secs: f64,
    /// Virtual milliseconds simulated (including drain).
    pub virtual_ms: f64,
    /// Wake-table gap classifications across all processes (arrivals plus
    /// wake re-checks) — the indexed engine's total guard work.
    pub wake_gap_checks: u64,
    /// Waiters woken from wake channels by deliveries.
    pub wake_wakeups: u64,
    /// Sends that reused a recycled stamp buffer from the engine's pool.
    pub stamp_pool_hits: u64,
    /// Sends that had to allocate a fresh stamp buffer.
    pub stamp_pool_misses: u64,
    /// Crash faults injected (chaos runs).
    pub crashes: u64,
    /// Recover faults executed (chaos runs).
    pub recoveries: u64,
    /// Recovery-health counters (syncs, re-fetches, snapshots) — the
    /// same struct `EndpointStatus` embeds, so the two reports cannot drift.
    pub recovery: Counters,
    /// Frames dropped because sender and receiver were in different
    /// partition groups at arrival time.
    pub partition_dropped: u64,
    /// Frames dropped by burst loss inside a link-fault window.
    pub link_dropped: u64,
    /// Frames discarded as corrupted (wire-checksum failures).
    pub corrupted_frames: u64,
    /// Duplicate frames suppressed by the receive-side dedup (injected
    /// duplicates plus redundant anti-entropy re-fetches).
    pub duplicate_frames: u64,
    /// Measured causal violations that Algorithm 4 raised **no** alert
    /// on — the safety oracle's "missed detection" count.
    pub undetected_violations: u64,
    /// Virtual time (ms) of the last anti-entropy re-fetch: bounded past
    /// the last heal means the system quiesced instead of probe-storming.
    pub last_refetch_ms: f64,
    /// Online concurrency estimate X̂ (overshoot estimator), averaged over
    /// processes weighted by sample count. 0.0 unless
    /// `SimConfig::estimators` is on.
    pub x_hat: f64,
    /// Delivery samples behind `x_hat` across all processes.
    pub x_samples: u64,
    /// `P_error(R, K, X̂)` from the paper's closed-form model, evaluated
    /// at the run's estimate — compare against `violation_rate()`.
    pub predicted_p_error: f64,
    /// Per-clock-entry occupancy/collision heatmap merged across
    /// processes. Empty (r = 0) unless estimators are on.
    pub heatmap: pcb_telemetry::EntryHeatmap,
}

impl RunMetrics {
    /// Causal-order violations per delivery (the paper's "error rate").
    #[must_use]
    pub fn violation_rate(&self) -> f64 {
        ratio(self.exact_violations, self.deliveries)
    }

    /// `ε_min` per delivery.
    #[must_use]
    pub fn eps_min_rate(&self) -> f64 {
        ratio(self.eps_min, self.deliveries)
    }

    /// `ε_max` per delivery.
    #[must_use]
    pub fn eps_max_rate(&self) -> f64 {
        ratio(self.eps_max, self.deliveries)
    }

    /// Algorithm 4 alert rate per delivery.
    #[must_use]
    pub fn alg4_rate(&self) -> f64 {
        ratio(self.alg4_alerts, self.deliveries)
    }

    /// Algorithm 5 alert rate per delivery.
    #[must_use]
    pub fn alg5_rate(&self) -> f64 {
        ratio(self.alg5_alerts, self.deliveries)
    }

    /// 95% Wilson interval on the violation rate.
    #[must_use]
    pub fn violation_interval(&self) -> (f64, f64) {
        wilson_interval(self.exact_violations, self.deliveries, 1.96)
    }

    /// Mean control overhead per message, bytes.
    #[must_use]
    pub fn control_bytes_per_message(&self) -> f64 {
        ratio(self.control_bytes, self.sent)
    }

    /// Folds another run's counters into this one — used to aggregate
    /// replications of the same configuration under different seeds.
    pub fn merge(&mut self, other: &RunMetrics) {
        self.sent += other.sent;
        self.deliveries += other.deliveries;
        self.exact_violations += other.exact_violations;
        self.eps_min += other.eps_min;
        self.eps_max += other.eps_max;
        self.alg4_alerts += other.alg4_alerts;
        self.alg5_alerts += other.alg5_alerts;
        self.duplicates += other.duplicates;
        self.undelivered += other.undelivered;
        self.delay_ms.merge(&other.delay_ms);
        self.blocking_ms.merge(&other.blocking_ms);
        self.pending_peak = self.pending_peak.max(other.pending_peak);
        self.control_bytes += other.control_bytes;
        self.stuck += other.stuck;
        self.joins += other.joins;
        self.leaves += other.leaves;
        self.reconfigurations += other.reconfigurations;
        self.wall_secs += other.wall_secs;
        self.virtual_ms = self.virtual_ms.max(other.virtual_ms);
        self.wake_gap_checks += other.wake_gap_checks;
        self.wake_wakeups += other.wake_wakeups;
        self.crashes += other.crashes;
        self.recoveries += other.recoveries;
        self.recovery.merge(&other.recovery);
        self.partition_dropped += other.partition_dropped;
        self.link_dropped += other.link_dropped;
        self.corrupted_frames += other.corrupted_frames;
        self.duplicate_frames += other.duplicate_frames;
        self.undetected_violations += other.undetected_violations;
        self.last_refetch_ms = self.last_refetch_ms.max(other.last_refetch_ms);
        let total = self.x_samples + other.x_samples;
        if total > 0 {
            self.x_hat = (self.x_hat * self.x_samples as f64
                + other.x_hat * other.x_samples as f64)
                / total as f64;
            self.predicted_p_error = (self.predicted_p_error * self.x_samples as f64
                + other.predicted_p_error * other.x_samples as f64)
                / total as f64;
            self.x_samples = total;
        }
        self.heatmap.merge(&other.heatmap);
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_divide_by_deliveries() {
        let m = RunMetrics {
            deliveries: 1000,
            exact_violations: 10,
            eps_min: 8,
            eps_max: 15,
            alg4_alerts: 200,
            alg5_alerts: 40,
            ..RunMetrics::default()
        };
        assert!((m.violation_rate() - 0.01).abs() < 1e-12);
        assert!((m.eps_min_rate() - 0.008).abs() < 1e-12);
        assert!((m.eps_max_rate() - 0.015).abs() < 1e-12);
        assert!((m.alg4_rate() - 0.2).abs() < 1e-12);
        assert!((m.alg5_rate() - 0.04).abs() < 1e-12);
        let (lo, hi) = m.violation_interval();
        assert!(lo < 0.01 && 0.01 < hi);
    }

    #[test]
    fn empty_metrics_are_zero() {
        let m = RunMetrics::default();
        assert_eq!(m.violation_rate(), 0.0);
        assert_eq!(m.control_bytes_per_message(), 0.0);
    }
}
