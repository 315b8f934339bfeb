//! Deterministic discrete-event simulator for causal broadcast protocols —
//! the evaluation substrate of the Mostefaoui-Weiss PaCT'17 reproduction.
//!
//! Implements the paper's §5.4 model exactly: Poisson message generation
//! per process, Gaussian propagation delay per message, Gaussian
//! per-receiver skew, and a ground-truth oracle classifying every delivery
//! as causally correct or violating. Sweeps in [`runner`] regenerate
//! Figures 3–6.
//!
//! ```
//! use pcb_sim::{simulate_prob, SimConfig};
//! use pcb_clock::KeySpace;
//!
//! let cfg = SimConfig {
//!     n: 20,
//!     mean_send_interval_ms: 500.0,
//!     duration_ms: 3000.0,
//!     warmup_ms: 200.0,
//!     ..SimConfig::default()
//! };
//! let space = KeySpace::new(16, 2)?;
//! let metrics = simulate_prob(&cfg, space)?;
//! assert_eq!(metrics.stuck, 0); // liveness: everything delivered
//! println!("violation rate: {:.2e}", metrics.violation_rate());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod config;
pub mod engine;
pub mod export;
pub mod fault;
pub mod metrics;
pub mod oracle;
pub mod pool;
pub mod report;
pub mod rng;
pub mod runner;
pub mod wake;
pub mod wheel;

pub use chaos::{drain_node_trace, record_endpoint_chaos, simulate_endpoint_chaos, ChaosRecord};
pub use config::{Dissemination, LatencyDistribution, LossModel, SimConfig};
pub use engine::{
    simulate, simulate_fifo, simulate_immediate, simulate_prob, simulate_prob_detecting,
    simulate_prob_traced, simulate_traced, simulate_vector, SimError,
};
pub use export::{decode_step, encode_step, ExportError};
pub use fault::{FaultEvent, FaultKind, FaultPlan, LinkFaults};
pub use metrics::RunMetrics;
pub use oracle::{EpsilonEstimator, EpsilonOutcome, ExactChecker, StreamOracle, StreamViolation};
pub use report::{render_csv, render_table};
pub use runner::{
    chaos_config, chaos_run, chaos_run_vector, churn_config, epsilon_validation, figure3,
    figure3_defaults, figure4, figure4_defaults, figure5, figure5_defaults, figure6,
    figure6_defaults, ChaosOutcome, EpsilonValidation, SweepOptions, SweepPoint,
};
pub use wheel::{EventQueue, Scheduler, TimingWheel};
