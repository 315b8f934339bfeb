//! The live leg of probabilistic causal broadcast: one
//! [`pcb_broadcast::Endpoint`] per OS process.
//!
//! `pcb-sim` runs the protocol under the paper's delay model in virtual
//! time; this crate runs the same state machine for real. [`daemon`] is
//! the `pcb-daemon` process shell — one single-threaded poll loop
//! around the endpoint, a reliable [`udp`] transport to its peers,
//! crash-durable state on disk, a JSON RPC socket and a `/metrics`
//! page; [`link`] is that transport's per-peer protocol, a state
//! machine with no IO that the socket shell drives; [`ready`] is the
//! `poll(2)` wait every loop blocks in between turns.
//!
//! A node boots from its state directory and persists what each input
//! changed through two functions the certification harness
//! (`tests/equivalence.rs`) shares, so a recorded simulator run replays
//! through them, a crash a restart from disk:
//!
//! ```
//! use pcb_broadcast::endpoint::{Input, Output};
//! use pcb_clock::{AssignmentPolicy, KeySpace};
//! use pcb_runtime::daemon::{persist_changes, save_spec, start_node};
//! use pcb_sim::{chaos_config, record_endpoint_chaos, NodeSpec};
//!
//! // A seeded 4-node run with a crash, a partition and a link-fault window.
//! let (config, space) = (chaos_config(1, 4, 1_000.0), KeySpace::vector(4)?);
//! let record = record_endpoint_chaos(&config, space, AssignmentPolicy::RoundRobin)?;
//! let dir = std::env::temp_dir().join(format!("pcb-doc-{}", std::process::id()));
//! std::fs::create_dir_all(&dir)?;
//! let spec = NodeSpec {
//!     node: 0,
//!     n: 4,
//!     keys: record.keys[0].clone(),
//!     pcb_config: record.pcb_config.clone(),
//!     timing: record.timing,
//! };
//! save_spec(&dir, &spec)?;
//! let (_, _, mut node) = start_node(&dir, false)?;
//! let mut durable = node.durable_seq();
//! let mut delivered = Vec::new();
//! for (now, _, input) in record.inputs.iter().filter(|(_, p, _)| *p == 0) {
//!     if matches!(input, Input::Restore) && node.crashed() {
//!         (_, _, node) = start_node(&dir, true)?; // the crash was a restart from disk
//!     }
//!     let outputs = node.handle(input.clone(), *now);
//!     persist_changes(&dir, &node, &mut durable, &outputs)?; // WAL before any send
//!     for output in outputs {
//!         if let Output::Deliver(d) = output {
//!             delivered.push((d.message.id(), d.instant_alert, d.recent_alert));
//!         }
//!     }
//! }
//! assert_eq!(delivered, record.deliveries[0]);
//! # std::fs::remove_dir_all(&dir)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// One foreign call, `poll(2)` in `ready`, allows itself; nothing else may.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod daemon;
pub mod link;
pub mod ready;
pub mod udp;

pub use udp::{UdpConfig, UdpEvent, UdpStats, UdpTransport};
// `ledger/` names this path; the codec itself is `pcb_telemetry::json`.
pub use pcb_telemetry::json;
