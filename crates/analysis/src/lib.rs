//! Closed-form analysis for probabilistic causal message ordering
//! (paper §5.3), plus the statistics utilities the simulator reports with.
//!
//! * [`error_model`] — the Bloom-filter-style covering probability
//!   `P_error(R, K, X)` and the optimal `K = ln(2)·R/X`;
//! * [`planner`] — dimensioning `(R, K)` for a target error rate;
//! * [`stats`] — Wilson intervals for measured rates.
//!
//! ```
//! use pcb_analysis::{error_probability, optimal_k};
//! // The paper's §5.4.2 working point.
//! assert!((optimal_k(100, 20.0) - 3.47).abs() < 0.01);
//! assert!(error_probability(100, 4, 20.0) < 0.11);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error_model;
pub mod planner;
pub mod pnc;
pub mod stats;

pub use error_model::{
    concurrency, entry_covered_probability, error_probability, k_sweep, optimal_k,
    optimal_k_integer, wrong_delivery_bound, TheoryPoint,
};
pub use planner::{best_for_r, compression_vs_vector_clock, plan_for_target, Plan, PlanError};
pub use pnc::{
    causal_reorder_probability, erf, expected_reorder_rate, normal_cdf, predicted_violation_rate,
    reorder_probability,
};
pub use stats::wilson_interval;
