//! Chat room: six users on the sans-IO endpoint, with the example as
//! the network.
//!
//! Run with:
//! ```text
//! cargo run --example chat_room
//! ```
//!
//! Each user is a `pcb_broadcast::Endpoint` — the state machine the chaos
//! simulator certifies and every `pcb-daemon` runs. The example routes
//! each `SendFrame` to the other users by hand. Alice asks; every other
//! user replies only after the question is on their screen, so each
//! reply is a causal successor of it. The five replies are mutually
//! concurrent and reach Alice in a seeded shuffle, so the run prints the
//! same thing every time.
//!
//! Tracing is on, so when the colliding `(16, 2)` clock makes Algorithm 4
//! raise a false alert, the trace replay prints *why*: which concurrent
//! replies covered the flagged sender's entries.

use pcb::broadcast::{Endpoint, Input, Output};
use pcb::prelude::*;
use pcb::telemetry::{explain, ExplainMode};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

type Chat = (String, String); // (author, text)

/// Seed of the order in which the replies reach Alice.
const SHUFFLE_SEED: u64 = 1;

/// Feeds `input` to `user` one millisecond after the previous input to
/// anyone; returns what it delivered and the frames it wants broadcast.
fn step(
    user: &mut Endpoint<Chat>,
    input: Input<Chat>,
    now_us: &mut u64,
) -> (Vec<Delivery<Chat>>, Vec<Message<Chat>>) {
    *now_us += 1_000;
    let (mut delivered, mut frames) = (Vec::new(), Vec::new());
    for output in user.handle(input, *now_us) {
        match output {
            Output::Deliver(d) => delivered.push(d),
            Output::SendFrame(m) => frames.push(m),
            _ => {}
        }
    }
    (delivered, frames)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let users = ["alice", "bob", "carol", "dave", "erin", "frank"];
    let space = KeySpace::new(16, 2)?;
    let keys = KeyAssigner::new(space, AssignmentPolicy::UniformRandom, 1).assign_n(users.len())?;
    let config = PcbConfig { trace_capacity: 4096, ..PcbConfig::default() };
    let mut nodes: Vec<Endpoint<Chat>> = keys
        .into_iter()
        .enumerate()
        .map(|(i, k)| Endpoint::new(ProcessId::new(i), k, config.clone(), None))
        .collect();
    let mut now_us = 0;

    // Alice asks; everyone else answers after *seeing* the question.
    let question = ("alice".to_string(), "shall we adopt small causal timestamps?".to_string());
    let (_, mut frames) = step(&mut nodes[0], Input::Broadcast(question), &mut now_us);
    let question = frames.remove(0);
    let mut replies = Vec::new();
    for (i, user) in users.iter().enumerate().skip(1) {
        let (delivered, _) =
            step(&mut nodes[i], Input::FrameReceived(question.clone()), &mut now_us);
        for d in delivered {
            println!("[{user}'s screen] {}: {}", d.message.payload().0, d.message.payload().1);
        }
        let reply = (user.to_string(), format!("+1 from {user}"));
        replies.extend(step(&mut nodes[i], Input::Broadcast(reply), &mut now_us).1);
    }
    // The repliers hear each other in send order.
    for reply in &replies {
        for (i, node) in nodes.iter_mut().enumerate().skip(1) {
            if i != reply.sender().index() {
                step(node, Input::FrameReceived(reply.clone()), &mut now_us);
            }
        }
    }

    // Alice's screen: the five replies, all causally after her question,
    // in a shuffled arrival order. They are mutually *concurrent* and the
    // (16, 2) clock collides, so Algorithm 4 may raise (false) alerts
    // when earlier replies cover a later replier's entries — that
    // over-alerting is the documented trade-off, not an ordering error.
    let mut rng = StdRng::seed_from_u64(SHUFFLE_SEED);
    for i in (1..replies.len()).rev() {
        replies.swap(i, rng.random_range(0..=i));
    }
    println!();
    println!("[alice's screen]");
    let mut alerts = 0;
    for reply in replies {
        for d in step(&mut nodes[0], Input::FrameReceived(reply), &mut now_us).0 {
            println!("  {}: {}", d.message.payload().0, d.message.payload().1);
            alerts += u32::from(d.instant_alert);
        }
    }
    if alerts > 0 {
        println!("  ({alerts} Algorithm 4 alerts — false alarms from concurrent replies)");
    }

    // Each user's protocol stats, straight from the endpoint.
    println!();
    for (user, node) in users.iter().zip(&nodes) {
        let status = node.status();
        println!(
            "{user:>6}: sent={} delivered={} pending={} clock={}",
            status.stats.sent, status.stats.delivered, status.pending, status.clock
        );
    }

    // Replay the merged lifecycle trace: every Alg-4 alert gets its
    // causal story — for these false alarms, the concurrent replies
    // whose increments covered the flagged sender's entries.
    let mut trace: Vec<_> = nodes.iter_mut().flat_map(Endpoint::drain_trace).collect();
    trace.sort_by_key(|r| r.time);
    let report = explain(&trace, ExplainMode::Alerts);
    if !report.explanations.is_empty() {
        println!();
        println!("why Algorithm 4 alerted (trace replay):");
        for e in &report.explanations {
            print!("{e}");
        }
    }

    println!();
    println!("Every screen showed the question before any answer — causal order held.");
    Ok(())
}
