//! Observability layer for the probabilistic causal broadcast stack.
//!
//! The protocol's headline property is *explainable* probabilistic error:
//! an Algorithm 4/5 alert means "this delivery may have jumped a missing
//! message whose `K` entries were covered by concurrent traffic". This
//! crate turns that from a counter tick into visible events:
//!
//! * [`event`] — the typed lifecycle vocabulary (`Sent`, `Received`,
//!   `Parked`, `Woken`, `Delivered`, `Alert`, `Refetched`,
//!   `SnapshotTaken`/`SnapshotRestored`);
//! * [`ring`] — per-node fixed-capacity ring sinks ([`Tracer`]) with a
//!   compile-time no-op path when the `trace` feature is disabled and a
//!   single-branch path when disabled at runtime;
//! * [`json`] — the workspace's one JSON reader/writer (RPC lines,
//!   trace lines, ledger results);
//! * [`jsonl`] — dependency-free JSONL serialization and parsing so
//!   traces survive the process that produced them;
//! * [`hist`] — log-bucketed, mergeable latency histograms (p50/p90/p99)
//!   replacing mean-only accumulators;
//! * [`prom`] — Prometheus-style text exposition (writer + validator);
//! * [`estimator`] — online causal-health estimators: the sliding-window
//!   in-flight (`X̂`) estimator and the per-clock-entry collision
//!   heatmap that feed live `P_error` prediction;
//! * [`explain`] — replays a trace and reconstructs, for each flagged
//!   delivery, the causal story: the missing predecessor, the concurrent
//!   messages whose `K`-entry increments covered it, and the in-flight
//!   count `X` at that instant.
//!
//! The crate is deliberately leaf-level (no dependencies): every layer of
//! the stack — protocol core, simulator, daemon, benches — can
//! instrument itself without cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod estimator;
pub mod event;
pub mod explain;
pub mod hist;
pub mod json;
pub mod jsonl;
pub mod prom;
pub mod ring;

pub use estimator::{CausalHealth, EntryHeatmap, XEstimator, HEATMAP_SLOTS, X_WINDOW};
pub use event::{TraceEvent, TraceRecord};
pub use explain::{explain, Covering, ExplainMode, ExplainReport, Explanation, MissingStory};
pub use hist::Hist;
pub use jsonl::{parse_jsonl, parse_line, write_jsonl, write_record, ParseError};
pub use prom::{validate, PromWriter, Row, RowKind};
pub use ring::Tracer;
