//! Full-stack integration: the paper's motivating application
//! (collaborative editing over CRDTs) running on the complete system —
//! planner-dimensioned clocks, sans-IO endpoints routed by hand, and the
//! wire codec.

use pcb::broadcast::{Endpoint, Input, Output};
use pcb::crdt::{Rga, RgaOp, HEAD};
use pcb::prelude::*;

fn op_id(op: &RgaOp) -> pcb::crdt::ElemId {
    match op {
        RgaOp::Insert { id, .. } => *id,
        RgaOp::Delete { id } => *id,
    }
}

/// Feeds `input` to `editor` and applies every delivery to its document;
/// returns the frames the endpoint wants broadcast. An op the RGA has to
/// park as an orphan arrived before its parent: a causal violation.
fn step(
    editor: &mut Endpoint<RgaOp>,
    doc: &mut Rga,
    input: Input<RgaOp>,
    now_us: u64,
) -> Vec<Message<RgaOp>> {
    let mut frames = Vec::new();
    for output in editor.handle(input, now_us) {
        match output {
            Output::Deliver(d) => assert!(doc.apply(d.message.payload()), "orphaned delivery"),
            Output::SendFrame(m) => frames.push(m),
            _ => {}
        }
    }
    frames
}

#[test]
fn collaborative_editor_converges_when_ops_arrive_reordered() {
    // Three editors on exact (3, 1) clocks, one entry each, so causal
    // delivery is certain; every frame is routed by hand. Editor 2 gets
    // editor 0's second keystroke before its first and must hold it back.
    let n = 3;
    let space = KeySpace::vector(n).unwrap();
    let mut editors: Vec<Endpoint<RgaOp>> = (0..n)
        .map(|i| {
            let keys = KeySet::from_entries(space, &[i]).unwrap();
            Endpoint::new(ProcessId::new(i), keys, PcbConfig::default(), None)
        })
        .collect();
    let mut docs: Vec<Rga> = (0..n).map(|i| Rga::new(i as u64 + 1)).collect();

    // Editor 0 types "hi": 'i' is inserted after 'h', its causal parent.
    let op1 = docs[0].insert_after(HEAD, 'h').unwrap();
    let m1 = step(&mut editors[0], &mut docs[0], Input::Broadcast(op1.clone()), 10).remove(0);
    let op2 = docs[0].insert_after(op_id(&op1), 'i').unwrap();
    let m2 = step(&mut editors[0], &mut docs[0], Input::Broadcast(op2), 20).remove(0);

    step(&mut editors[1], &mut docs[1], Input::FrameReceived(m1.clone()), 30);
    step(&mut editors[1], &mut docs[1], Input::FrameReceived(m2.clone()), 40);
    step(&mut editors[2], &mut docs[2], Input::FrameReceived(m2), 30);
    assert_eq!(docs[2].text(), "", "op2 must wait for op1");
    step(&mut editors[2], &mut docs[2], Input::FrameReceived(m1), 40);
    for doc in &docs[1..] {
        assert_eq!(doc.text(), "hi");
    }

    // Editors 1 and 2 then type concurrently at the front; every frame
    // reaches every other editor.
    let mut frames = Vec::new();
    for (editor, (endpoint, doc)) in editors.iter_mut().zip(&mut docs).enumerate().skip(1) {
        let op = doc.insert_after(HEAD, char::from(b'0' + editor as u8)).unwrap();
        frames.extend(step(endpoint, doc, Input::Broadcast(op), 50));
    }
    for frame in frames {
        let from = frame.sender().index();
        for (to, (endpoint, doc)) in editors.iter_mut().zip(&mut docs).enumerate() {
            if to != from {
                step(endpoint, doc, Input::FrameReceived(frame.clone()), 60);
            }
        }
    }
    for (i, (endpoint, doc)) in editors.iter().zip(&docs).enumerate() {
        assert_eq!(doc.text(), docs[0].text(), "editor {i} diverged");
        assert_eq!(doc.orphan_count(), 0, "editor {i} saw a causal violation");
        assert_eq!(endpoint.pending_len(), 0, "editor {i} still holds a message");
    }
    assert_eq!(docs[0].text().chars().count(), 4);
}

#[test]
fn planner_sized_clock_carries_crdt_ops() {
    // Dimension a clock for a 1e-3 covering probability at X = 10, then
    // run an OR-Set conversation over endpoints with that exact space.
    let plan = pcb::analysis::plan_for_target(10.0, 1e-3, 100_000).unwrap();
    let space = KeySpace::new(plan.r, plan.k).unwrap();
    let mut assigner = KeyAssigner::new(space, AssignmentPolicy::DistinctRandom, 13);

    let mut a = Replica::new(ProcessId::new(0), assigner.next_set().unwrap(), OrSet::new(1));
    let mut b = Replica::new(ProcessId::new(1), assigner.next_set().unwrap(), OrSet::new(2));

    let mut t = 0u64;
    for item in ["x", "y", "z"] {
        let m = a.update(|s| Some(s.add(item))).unwrap();
        assert_eq!(m.timestamp().len(), plan.r, "stamp sized by the planner");
        b.on_receive(m, t);
        t += 1;
    }
    let rm = b.update(|s| s.remove(&"y")).unwrap();
    a.on_receive(rm, t);
    assert_eq!(a.state().digest(), b.state().digest());
    assert_eq!(a.state().len(), 2);
}

#[test]
fn wire_codec_roundtrips_through_an_endpoint_conversation() {
    // Messages can be flattened to bytes mid-flight and reconstructed —
    // what a real UDP/TCP deployment would do — without disturbing the
    // protocol.
    use bytes::Bytes;
    let space = KeySpace::new(32, 3).unwrap();
    let mut assigner = KeyAssigner::new(space, AssignmentPolicy::UniformRandom, 5);
    let mut tx: PcbProcess<Bytes> =
        PcbProcess::new(ProcessId::new(0), assigner.next_set().unwrap());
    let mut rx: PcbProcess<Bytes> =
        PcbProcess::new(ProcessId::new(1), assigner.next_set().unwrap());

    let mut delivered = 0;
    for i in 0..20u8 {
        let m = tx.broadcast(Bytes::from(vec![i; usize::from(i)]));
        let frame = pcb::broadcast::encode_full(&m);
        let restored = pcb::broadcast::decode(frame).unwrap();
        delivered += rx.on_receive(restored, u64::from(i)).len();
    }
    assert_eq!(delivered, 20);
    assert_eq!(rx.pending_len(), 0);
}
