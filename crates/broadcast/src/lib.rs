//! Probabilistic causal broadcast — the protocol layer of the
//! Mostefaoui-Weiss PaCT'17 reproduction.
//!
//! The crate offers two views of the same algorithms:
//!
//! * [`PcbProcess`] — a full endpoint for applications: pending queue,
//!   duplicate suppression, and the Algorithm 4/5 delivery-error
//!   detectors, returning [`Delivery`] records per message.
//! * [`Discipline`] implementations — lean per-process ordering state
//!   machines used by the simulator and benchmarks to compare the paper's
//!   mechanism ([`ProbDiscipline`]) against exact vector clocks
//!   ([`VectorDiscipline`]), FIFO ([`FifoDiscipline`]), unordered delivery
//!   ([`ImmediateDiscipline`]) and the merge-instead-of-increment ablation
//!   ([`MergeProbDiscipline`]).
//!
//! # Quick example
//!
//! ```
//! use pcb_broadcast::PcbProcess;
//! use pcb_clock::{AssignmentPolicy, KeyAssigner, KeySpace, ProcessId};
//!
//! let space = KeySpace::new(100, 4)?;
//! let mut assigner = KeyAssigner::new(space, AssignmentPolicy::UniformRandom, 1);
//! let mut alice = PcbProcess::new(ProcessId::new(0), assigner.next_set()?);
//! let mut bob = PcbProcess::new(ProcessId::new(1), assigner.next_set()?);
//!
//! let m = alice.broadcast("edit: insert 'x' at 3");
//! for delivery in bob.on_receive(m, 0) {
//!     assert!(!delivery.instant_alert, "nominal delivery raises no alert");
//!     println!("applied {}", delivery.message.payload());
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dedup;
pub mod detector;
pub mod discipline;
pub mod endpoint;
pub mod fragment;
mod idmap;
pub mod membership;
pub mod message;
pub mod pending;
pub mod process;
pub mod recovery;
pub mod snapshot;
pub mod wire;

pub use dedup::{DedupFilter, SeenWindows};
pub use detector::{instant_alert, RecentListDetector};
pub use discipline::{
    Alerts, DetectingProbDiscipline, Discipline, FifoDiscipline, ImmediateDiscipline,
    MergeProbDiscipline, ProbDiscipline, VectorDiscipline,
};
pub use endpoint::{
    Endpoint, EndpointStatus, Input, JoinGrant, NodeSpec, Output, RecoveryTimingUs,
};
pub use fragment::{
    fragment, fragment_into, max_frame_len, FragmentError, Reassembler, DEFAULT_MTU, MAX_FRAGMENTS,
    MIN_MTU,
};
pub use membership::{Group, MemberState};
pub use message::{Message, MessageId};
pub use pending::{Admission, InsertVerdict, WakeupIndex, WakeupStats};
pub use process::{Delivery, PcbConfig, PcbProcess, ProcessStats};
pub use recovery::{
    decode_probe, decode_reply, encode_probe, encode_reply, put_config, take_config, Counters,
    MessageStore, SyncRequest, SyncResponse, SYNC_REPLY_MAX,
};
pub use snapshot::{decode_snapshot, encode_snapshot, PrevEpochSnapshot, ProcessSnapshot};
pub use wire::{
    decode, encode_full, DeltaDecoder, DeltaEncoder, ListReader, ListWriter, Payload, WireError,
    LIST_ENTRIES_PER_BYTE,
};
