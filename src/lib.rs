//! # pcb — Probabilistic Causal Message Ordering
//!
//! A full reproduction of *"A Probabilistic Causal Message Ordering
//! Mechanism"* (Achour Mostefaoui & Stéphane Weiss, PaCT 2017): a causal
//! broadcast whose timestamps have a **constant size `R` independent of
//! the number of processes**, trading a tunable, predictable probability
//! of out-of-causal-order delivery for the `O(N)` control information
//! that exact causal broadcast provably requires.
//!
//! ## The mechanism in 30 seconds
//!
//! Every process owns `K` entries (a random `K`-combination, derived from
//! a `set_id`) of a shared `R`-entry counter vector. Sending increments
//! the sender's `K` entries and attaches the vector; a receiver holds a
//! message until the sender's entries are at most one ahead of its own
//! view and every other entry is covered. With `R = 100, K = 4` a
//! thousand-process system gets causal delivery with error rates around
//! `10^-5`–`10^-3` per delivery (load-dependent) at 1.25% of a vector
//! clock's size — and processes can join or leave freely, with no
//! reconfiguration.
//!
//! ## Crate map
//!
//! | Crate | What it holds |
//! |---|---|
//! | [`clock`](pcb_clock) | key sets, Algorithm 3 unranking, the `(R,K)` clock, Lamport/plausible/vector instantiations |
//! | [`broadcast`](pcb_broadcast) | the endpoint ([`PcbProcess`]), Algorithms 1–5, baselines, membership |
//! | [`sim`](pcb_sim) | the paper's event-driven evaluation (§5.4), ground-truth oracle, figure sweeps |
//! | [`runtime`](pcb_runtime) | the `pcb-daemon` process shell: reliable UDP transport, crash-durable state (the start-up and persist steps the certification harness replays through), RPC and `/metrics` |
//! | [`analysis`](pcb_analysis) | `P_error(R,K,X)`, `K_min = ln2·R/X`, parameter planning |
//! | [`telemetry`](pcb_telemetry) | lifecycle traces, alert explanation, latency histograms, Prometheus text |
//!
//! ## Quickstart
//!
//! ```
//! use pcb::prelude::*;
//!
//! // Dimension the clock: tolerate ~1e-4 covering probability at the
//! // expected concurrency (200 msg/s aggregate × 100 ms latency = 20).
//! let x = pcb::analysis::concurrency(200.0, 0.1);
//! let plan = pcb::analysis::plan_for_target(x, 1e-4, 10_000)?;
//!
//! // Two endpoints drawing random key sets from the planned space.
//! let space = KeySpace::new(plan.r, plan.k)?;
//! let mut assigner = KeyAssigner::new(space, AssignmentPolicy::UniformRandom, 7);
//! let mut alice = PcbProcess::new(ProcessId::new(0), assigner.next_set()?);
//! let mut bob = PcbProcess::new(ProcessId::new(1), assigner.next_set()?);
//!
//! // Causal broadcast with constant-size control information.
//! let m = alice.broadcast("set title = 'PaCT17'");
//! for delivery in bob.on_receive(m, 0) {
//!     assert!(!delivery.instant_alert);
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use pcb_analysis as analysis;
pub use pcb_broadcast as broadcast;
pub use pcb_clock as clock;
pub use pcb_crdt as crdt;
pub use pcb_runtime as runtime;
pub use pcb_sim as sim;
pub use pcb_telemetry as telemetry;

/// One-stop imports for applications.
pub mod prelude {
    pub use pcb_analysis::{error_probability, optimal_k, optimal_k_integer, Plan};
    pub use pcb_broadcast::{
        Delivery, Discipline, Group, Message, MessageId, PcbConfig, PcbProcess, ProbDiscipline,
    };
    pub use pcb_clock::{
        AssignmentPolicy, KeyAssigner, KeySet, KeySpace, ProbClock, ProcessId, Timestamp,
        VectorClock,
    };
    pub use pcb_crdt::{Counter, OrSet, Replica, Rga};
    pub use pcb_sim::{simulate_prob, RunMetrics, SimConfig};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_reexports_compile() {
        use crate::prelude::*;
        let space = KeySpace::new(8, 2).unwrap();
        let mut assigner = KeyAssigner::new(space, AssignmentPolicy::UniformRandom, 1);
        let keys = assigner.next_set().unwrap();
        let mut p: PcbProcess<()> = PcbProcess::new(ProcessId::new(0), keys);
        let _ = p.broadcast(());
    }
}
