//! Logical-clock substrate for **probabilistic causal message ordering**
//! (Mostefaoui & Weiss, PaCT 2017).
//!
//! The paper situates clocks in a design space `(N, R, K)`: `N` processes,
//! a timestamp of `R` integer entries, `K` entries assigned to each
//! process. This crate provides every point of that space:
//!
//! | Clock | `(N, R, K)` | Type |
//! |---|---|---|
//! | Lamport | `(N, 1, 1)` | [`ProbClock`] with [`KeySpace::lamport`] |
//! | Plausible (Torres-Rojas & Ahamad) | `(N, R, 1)` | [`ProbClock`] with [`KeySpace::plausible`] |
//! | Vector (Fidge/Mattern) | `(N, N, 1)` | [`VectorClock`], or [`ProbClock`] with [`KeySpace::vector`] |
//! | **Probabilistic (this paper)** | `(N, R, K)` | [`ProbClock`] with a general [`KeySpace`] |
//!
//! # Quick example
//!
//! ```
//! use pcb_clock::{AssignmentPolicy, KeyAssigner, KeySpace, ProbClock};
//!
//! // The paper's configuration: 100-entry vectors, 4 entries per process.
//! let space = KeySpace::new(100, 4)?;
//! let mut assigner = KeyAssigner::new(space, AssignmentPolicy::UniformRandom, 1);
//! let alice_keys = assigner.next_set()?;
//! let bob_keys = assigner.next_set()?;
//!
//! let mut alice = ProbClock::new(space);
//! let mut bob = ProbClock::new(space);
//!
//! let stamp = alice.stamp_send(&alice_keys);      // Algorithm 1
//! assert!(bob.is_deliverable(&stamp, &alice_keys)); // Algorithm 2 guard
//! bob.record_delivery(&alice_keys);                 // Algorithm 2 post
//! let _ = bob_keys;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assignment;
pub mod cluster;
pub mod combinatorics;
pub mod compare;
pub mod id;
pub mod keys;
pub mod pool;
pub mod prob;
pub mod spec;
pub mod timestamp;
pub mod vector;

pub use assignment::{entry_load, AssignmentError, AssignmentPolicy, KeyAssigner};
pub use cluster::ClusterConfig;
pub use combinatorics::{binomial, rank, unrank, BinomialTable, CombinatoricsError};
pub use compare::{judge, JudgmentQuality};
pub use id::ProcessId;
pub use keys::{KeyError, KeySet, KeySpace};
pub use pool::{StampPool, StampPoolStats};
pub use prob::{Gap, ProbClock};
pub use timestamp::Timestamp;
pub use vector::{CausalRelation, VectorClock};
