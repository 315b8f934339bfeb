//! Full-stack integration: the paper's motivating application
//! (collaborative editing over CRDTs) running on the complete system —
//! planner-dimensioned clocks, causal broadcast endpoints, the live
//! threaded cluster, and the wire codec.

use std::time::Duration;

use pcb::crdt::{Rga, RgaOp, HEAD};
use pcb::prelude::*;

fn op_id(op: &RgaOp) -> pcb::crdt::ElemId {
    match op {
        RgaOp::Insert { id, .. } => *id,
        RgaOp::Delete { id } => *id,
    }
}

#[test]
fn collaborative_editor_over_live_cluster() {
    // Three editors on the live runtime with exact (vector-equivalent)
    // clocks; each applies deliveries to a local RGA. All documents must
    // converge with zero orphans.
    let n = 3;
    let cluster = Cluster::<RgaOp>::start(pcb::runtime::ClusterConfig::exact(n)).unwrap();
    let mut docs: Vec<Rga> = (0..n).map(|i| Rga::new(i as u64 + 1)).collect();

    // Editor 0 types "hi"; the others extend after seeing it.
    let op1 = docs[0].insert_after(HEAD, 'h').unwrap();
    cluster.node(0).broadcast(op1.clone()).unwrap();
    let op2 = docs[0].insert_after(op_id(&op1), 'i').unwrap();
    cluster.node(0).broadcast(op2.clone()).unwrap();

    // Editors 1 and 2 wait for both ops, apply them, then append.
    for (editor, doc) in docs.iter_mut().enumerate().skip(1) {
        for _ in 0..2 {
            let d =
                cluster.node(editor).deliveries().recv_timeout(Duration::from_secs(10)).unwrap();
            doc.apply(d.message.payload());
        }
        assert_eq!(doc.text(), "hi");
        let tail = doc.text().chars().count();
        let op = doc.delete_at(tail - 1).expect("there is a character to delete");
        let _ = op; // editor 1 deletes 'i'; editor 2 deletes whatever is last
        cluster
            .node(editor)
            .broadcast(doc.insert_after(HEAD, char::from(b'0' + editor as u8)).unwrap())
            .unwrap();
    }

    // Editor 0 consumes everything the others broadcast (2 messages).
    for _ in 0..2 {
        let d = cluster.node(0).deliveries().recv_timeout(Duration::from_secs(10)).unwrap();
        docs[0].apply(d.message.payload());
    }
    // All replicas that saw the same set of ops have zero orphans — the
    // causal transport never admitted a child before its parent.
    for (i, doc) in docs.iter().enumerate() {
        assert_eq!(doc.orphan_count(), 0, "editor {i} saw a causal violation");
    }
    cluster.shutdown();
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
