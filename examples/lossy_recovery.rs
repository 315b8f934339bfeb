//! Lossy network + anti-entropy recovery.
//!
//! Run with:
//! ```text
//! cargo run --example lossy_recovery
//! ```
//!
//! The paper assumes a recovery procedure exists (§4.2, "e.g.,
//! anti-entropy") and contributes the detectors that bound when it must
//! run. This demo shows the full loop in the deterministic simulator,
//! around the production `Endpoint`: a fault plan opens a window in
//! which every link drops 30% of frames, nodes notice stale pending
//! messages, sync requests are answered from peers' recent-message
//! stores, and the cluster converges to complete causal delivery anyway.
//! The same seed prints the same numbers every run. A live `pcb-daemon`
//! exposes these counters on its `/metrics` page.

use pcb::prelude::*;
use pcb::sim::{FaultKind, FaultPlan, LinkFaults};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 5;
    let loss = 0.30;
    let (open_ms, close_ms, duration_ms) = (200.0, 3_000.0, 4_000.0);

    let plan = FaultPlan::new(250.0, 200.0)
        .with_event(
            open_ms,
            FaultKind::LinkFaultStart {
                faults: LinkFaults { drop: loss, ..LinkFaults::default() },
            },
        )
        .with_event(close_ms, FaultKind::LinkFaultEnd);
    let config = SimConfig {
        n,
        mean_send_interval_ms: 250.0,
        duration_ms,
        warmup_ms: 0.0,
        seed: 1,
        track_epsilon: false,
        faults: Some(plan),
        ..SimConfig::default()
    };
    println!(
        "{n} nodes, {:.0}% frame loss from {open_ms} to {close_ms} ms of a {duration_ms} ms run, \
         anti-entropy enabled",
        loss * 100.0
    );
    let m = simulate_prob(&config, KeySpace::new(16, 2)?)?;

    println!();
    println!("broadcasts            {:>6}", m.sent);
    println!("deliveries            {:>6}", m.deliveries);
    println!("frames dropped        {:>6}", m.link_dropped);
    println!("sync requests         {:>6}", m.recovery.sync_requests);
    println!("sync requests served  {:>6}", m.recovery.sync_served);
    println!("messages re-fetched   {:>6}", m.recovery.refetched);
    println!("undelivered           {:>6}", m.undelivered);
    println!("stuck                 {:>6}", m.stuck);

    if m.undelivered != 0 || m.stuck != 0 {
        return Err(format!("did not converge: {m:?}").into());
    }
    println!();
    println!(
        "Every frame the wire dropped reached its receiver through anti-entropy. Causal order \
         held throughout: the pending buffer blocked successors of lost messages until \
         recovery supplied them."
    );
    Ok(())
}
