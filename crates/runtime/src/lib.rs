//! Live threaded runtime for probabilistic causal broadcast.
//!
//! Where `pcb-sim` evaluates the protocol under a controlled virtual
//! clock, this crate runs it for real: each node is a thread owning a
//! [`pcb_broadcast::PcbProcess`], connected through an in-memory transport
//! whose router injects the paper's Gaussian delay + skew model into
//! actual wall-clock scheduling. Use it to demo applications (chat,
//! collaborative editing) on top of the causal ordering layer.
//!
//! ```no_run
//! use pcb_runtime::{Cluster, ClusterConfig};
//!
//! // Four nodes with exact (vector-equivalent) clocks.
//! let cluster = Cluster::<String>::start(ClusterConfig::exact(4))?;
//! cluster.node(0).broadcast("first".to_string()).unwrap();
//! let d = cluster.node(2).deliveries().recv()?;
//! println!("node 2 got {:?}", d.message.payload());
//! cluster.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod certify;
pub mod cluster;
pub mod daemon;
pub mod loopback;
pub mod node;
pub mod shim;
pub mod transport;
pub mod udp;

pub use certify::{certify_record, CertifyError, CertifyOptions, CertifyStats};
pub use cluster::{Cluster, ClusterConfig, ClusterError, MetricsDump};
pub use loopback::LoopbackCluster;
pub use node::{NodeHandle, RecoveryConfig};
pub use shim::{SocketShim, Verdict};
pub use udp::{UdpConfig, UdpEvent, UdpStats, UdpTransport};
// Chaos plans are shared with the simulator: the same `FaultPlan` drives
// the sim engine's event loop in virtual time and this crate's
// fault-controller thread in wall-clock time.
pub use pcb_sim::{FaultEvent, FaultKind, FaultPlan, LinkFaults};
pub use transport::LatencyModel;
// `ledger/` names this path; the codec itself is `pcb_telemetry::json`.
pub use pcb_telemetry::json;
