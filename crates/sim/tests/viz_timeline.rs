//! The stamped viz-JSONL stream: schema round-trip, ordering invariants
//! of the merged timeline, and a golden file pinning the wire format.
//!
//! The golden file is the contract of the simulator's chaos shell, whose
//! stamper the certification harness (`runtime/tests/equivalence.rs`)
//! drains its replayed endpoints through before it byte-compares the two
//! merged timelines. Regenerate after an intentional schema change with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p pcb-sim --test viz_timeline
//! ```

use std::collections::HashSet;

use pcb_clock::{AssignmentPolicy, KeySpace};
use pcb_sim::{chaos_config, record_endpoint_chaos_viz};
use pcb_telemetry::{
    merge_timelines, message_id, parse_stamped_jsonl, write_stamped_jsonl, StampedRecord,
    TraceEvent,
};

const GOLDEN: &str = "tests/golden/viz_timeline_seed5.jsonl";

/// A small deterministic chaos run with tracing on: 5 nodes, 900 virtual
/// milliseconds, at least one crash/restore in the fault plan.
fn golden_run() -> Vec<Vec<StampedRecord>> {
    let mut cfg = chaos_config(5, 5, 900.0);
    cfg.trace_capacity = 1 << 16;
    let space = KeySpace::new(16, 2).expect("keyspace");
    let (_, streams) = record_endpoint_chaos_viz(&cfg, space, AssignmentPolicy::RoundRobin)
        .expect("seeded chaos run");
    streams
}

#[test]
fn stamped_schema_round_trips() {
    let streams = golden_run();
    for stream in &streams {
        let text = write_stamped_jsonl(stream);
        let reparsed = parse_stamped_jsonl(&text).expect("every emitted line parses");
        assert_eq!(&reparsed, stream, "parse(write(s)) must be the identity");
    }
}

#[test]
fn merged_timeline_is_causally_and_locally_ordered() {
    let streams = golden_run();
    let merged = merge_timelines(&streams);
    assert!(merged.len() > 100, "run too thin to exercise ordering ({})", merged.len());

    // Per-node (incarnation, lsn) runs must survive the merge in order,
    // and a message's Sent must precede every Received/Delivered of it.
    let n = streams.len();
    let mut last: Vec<Option<(u64, u64)>> = vec![None; n];
    let mut sent: HashSet<(u32, u64)> = HashSet::new();
    let mut saw_second_incarnation = false;
    for rec in &merged {
        let node = rec.record.node as usize;
        let stamp = (rec.incarnation, rec.lsn);
        if let Some(prev) = last[node] {
            assert!(stamp > prev, "node {node}: stamp {stamp:?} after {prev:?}");
        }
        last[node] = Some(stamp);
        saw_second_incarnation |= rec.incarnation > 0;
        match &rec.record.event {
            TraceEvent::Sent { sender, seq, .. } => {
                sent.insert((*sender, *seq));
            }
            event => {
                if let Some(id) = message_id(event) {
                    assert!(sent.contains(&id), "{} of {id:?} before its Sent", event.name());
                }
            }
        }
    }
    assert!(
        saw_second_incarnation,
        "fault plan produced no restore; the golden run must cover an incarnation bump"
    );
}

#[test]
fn merged_timeline_matches_golden() {
    let merged = write_stamped_jsonl(&merge_timelines(&golden_run()));
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all("tests/golden").expect("mkdir golden");
        std::fs::write(GOLDEN, &merged).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN)
        .expect("golden file missing — run with UPDATE_GOLDEN=1 to create");
    assert!(
        merged == golden,
        "merged viz timeline diverged from {GOLDEN} ({} vs {} lines); \
         if the schema change is intentional, regenerate with UPDATE_GOLDEN=1",
        merged.lines().count(),
        golden.lines().count()
    );
}
