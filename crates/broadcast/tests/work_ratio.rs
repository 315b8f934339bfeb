//! Deterministic work count: on a pending-heavy cascade at P = 10⁴ the
//! wake-up index must do at least 5× less guard work than the paper's
//! front-to-back rescan, as the specification (`pcb_clock::spec`) runs
//! it. Work is counted in guard evaluations (the specification's
//! `guard_evaluations` vs the index's `gap_checks`), which is
//! deterministic and machine-independent, unlike wall-clock time; the
//! Criterion benchmark `pending_wakeup` measures the corresponding
//! wall-clock gap.

use std::rc::Rc;

use pcb_broadcast::{Message, MessageId, WakeupIndex};
use pcb_clock::{spec, KeySet, KeySpace, ProbClock, ProcessId};

const R: usize = 32;
const K: usize = 2;
const P: usize = 10_000;

/// A single sender's FIFO chain of `P` messages, arriving fully reversed
/// — the worst case for the rescan: every arrival rescans the whole
/// list, and the final cascade restarts from the front after each
/// delivery.
fn reversed_chain() -> Vec<Message<()>> {
    let space = KeySpace::new(R, K).expect("space");
    let keys = Rc::new(KeySet::from_entries(space, &[0, 1]).expect("entries in range"));
    let mut sender = ProbClock::new(space);
    let mut msgs: Vec<Message<()>> = (0..P)
        .map(|i| {
            let ts = sender.stamp_send(&keys);
            Message::new(MessageId::new(ProcessId::new(0), i as u64 + 1), keys.clone(), ts, ())
        })
        .collect();
    msgs.reverse();
    msgs
}

#[test]
fn indexed_engine_beats_the_rescan_by_5x_at_p_10_000() {
    let mut rescan = spec::Process::new(R, &[], None);
    let mut rescan_delivered = 0usize;
    for m in reversed_chain() {
        rescan_delivered +=
            rescan.receive(m.id(), m.timestamp().entries().to_vec(), &[0, 1], 0).len();
    }
    assert_eq!(rescan_delivered, P, "the rescan's cascade fully drains");

    let mut clock = ProbClock::new(KeySpace::new(R, K).expect("space"));
    let mut index = WakeupIndex::new(R);
    let mut indexed_delivered = 0usize;
    for m in reversed_chain() {
        index.insert(0, m, &clock);
        while let Some(d) = index.pop_ready() {
            clock.record_delivery(d.keys());
            let keys: Vec<usize> = d.keys().iter().collect();
            indexed_delivered += 1;
            index.on_clock_advance(keys, &clock);
        }
    }
    assert_eq!(indexed_delivered, P, "indexed cascade fully drains");

    let scans = rescan.guard_evaluations();
    let stats = index.stats();
    let checks = stats.gap_checks;
    assert!(
        scans >= 5 * checks,
        "indexed engine must do ≥5× less guard work: rescan {scans} vs indexed {checks}"
    );
    // The gap is in fact asymptotic: the rescan is Θ(P²), the index Θ(P).
    assert!(scans as f64 > 0.9 * (P as f64).powi(2), "the rescan is quadratic here");
    assert!(checks <= 2 * P as u64 + 1, "indexed stays linear: {checks}");
    // Each delivery wakes exactly the next message of the chain and
    // nobody else: one wakeup per delivery, unit fan-out.
    assert_eq!(stats.wakeups, P as u64 - 1, "one wakeup per parked message");
    assert_eq!(stats.max_wake_fanout, 1, "no delivery wakes more than one waiter");
}
