//! The live leg of probabilistic causal broadcast: one
//! [`pcb_broadcast::Endpoint`] per OS process.
//!
//! `pcb-sim` runs the protocol under the paper's delay model in virtual
//! time; this crate runs the same state machine for real. [`daemon`] is
//! the `pcb-daemon` process shell — one single-threaded poll loop
//! around the endpoint, a reliable [`udp`] transport to its peers,
//! crash-durable state on disk, a JSON RPC socket and a `/metrics`
//! page. [`certify`] replays seeded simulator chaos runs through real
//! daemon processes and diffs their delivery streams bit for bit;
//! [`shim`] injects the plan's link faults at the socket; [`ready`] is
//! the `poll(2)` wait every loop blocks in between turns; and
//! [`LoopbackCluster`] replays a recorded input log in-process, so the
//! construction path is diffed without any IO:
//!
//! ```
//! use pcb_clock::{AssignmentPolicy, KeySpace};
//! use pcb_runtime::LoopbackCluster;
//! use pcb_sim::{chaos_config, record_endpoint_chaos};
//!
//! // A seeded 4-node run with a crash, a partition and a link-fault window.
//! let (config, space) = (chaos_config(1, 4, 1_000.0), KeySpace::vector(4)?);
//! let record = record_endpoint_chaos(&config, space, AssignmentPolicy::RoundRobin)?;
//! let mut cluster = LoopbackCluster::new(&record.keys, &record.pcb_config, record.timing);
//! cluster.replay(record.inputs.iter().cloned());
//! assert_eq!(cluster.deliveries(), record.deliveries.as_slice());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// One foreign call, `poll(2)` in `ready`, allows itself; nothing else may.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod certify;
pub mod daemon;
pub mod loopback;
pub mod ready;
pub mod shim;
pub mod udp;

pub use certify::{certify_record, CertifyError, CertifyOptions, CertifyStats};
pub use loopback::LoopbackCluster;
pub use shim::{SocketShim, Verdict};
pub use udp::{UdpConfig, UdpEvent, UdpStats, UdpTransport};
// The shim draws its verdicts from the simulator's link-fault rates, and
// `CertifyOptions` takes them in that type.
pub use pcb_sim::LinkFaults;
// `ledger/` names this path; the codec itself is `pcb_telemetry::json`.
pub use pcb_telemetry::json;
