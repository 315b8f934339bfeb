//! Property-based tests for the protocol layer.

use bytes::Bytes;
use pcb_broadcast::{decode, encode_full, Message, MessageStore, PcbProcess, SyncRequest};
use pcb_clock::{AssignmentPolicy, CausalRelation, KeyAssigner, KeySpace, ProcessId, VectorClock};
use proptest::prelude::*;

/// Builds `n` endpoints over an exact `(n, 1)` space (vector-equivalent),
/// so causal safety is guaranteed and any violation is a protocol bug.
fn exact_endpoints(n: usize) -> Vec<PcbProcess<usize>> {
    let space = KeySpace::vector(n).expect("valid");
    let mut assigner = KeyAssigner::new(space, AssignmentPolicy::RoundRobin, 0);
    (0..n).map(|i| PcbProcess::new(ProcessId::new(i), assigner.next_set().expect("keys"))).collect()
}

proptest! {
    /// Under the exact configuration, any arrival permutation at any
    /// receiver yields a delivery order that respects happened-before.
    #[test]
    fn exact_config_delivery_respects_causality(
        seed in 0u64..500,
        n in 2usize..6,
        rounds in 1usize..15,
    ) {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut procs = exact_endpoints(n);
        // Ground truth vector clocks, one per process.
        let mut truth: Vec<VectorClock> = (0..n).map(|_| VectorClock::new(n)).collect();
        let mut log: Vec<(Message<usize>, VectorClock)> = Vec::new();

        for step in 0..rounds {
            let s = rng.random_range(0..n);
            // The sender delivers some subset of existing messages first.
            for (m, _tvc) in &log {
                if m.sender() != ProcessId::new(s)
                    && rng.random_bool(0.5)
                {
                    let out = procs[s].on_receive(m.clone(), step as u64);
                    for d in out {
                        let idx = *d.message.payload();
                        let (_, ref dep_tvc) = log[idx];
                        truth[s].record_delivery(dep_tvc, d.message.sender());
                    }
                }
            }
            let payload = log.len();
            let m = procs[s].broadcast(payload);
            let tvc = truth[s].stamp_send(ProcessId::new(s));
            log.push((m, tvc));
        }

        // A fresh observer receives everything in a random order. It
        // never sends, so any key in the same space works.
        let space = KeySpace::vector(n).unwrap();
        let observer_keys = pcb_clock::KeySet::singleton(space, 0).unwrap();
        let mut observer: PcbProcess<usize> =
            PcbProcess::new(ProcessId::new(n), observer_keys);
        let observer = &mut observer;
        let mut order: Vec<usize> = (0..log.len()).collect();
        for i in (1..order.len()).rev() {
            let j = rng.random_range(0..=i);
            order.swap(i, j);
        }
        let mut delivered: Vec<usize> = Vec::new();
        for (t, &idx) in order.iter().enumerate() {
            for d in observer.on_receive(log[idx].0.clone(), t as u64) {
                delivered.push(*d.message.payload());
            }
        }
        prop_assert_eq!(delivered.len(), log.len(), "liveness: all delivered");
        // Safety: for every pair delivered in order (x before y), the
        // truth must not say y -> x.
        for i in 0..delivered.len() {
            for j in i + 1..delivered.len() {
                let rel = log[delivered[i]].1.compare(&log[delivered[j]].1);
                prop_assert_ne!(
                    rel,
                    CausalRelation::After,
                    "delivered {} before {} but truth says the reverse",
                    delivered[i],
                    delivered[j]
                );
            }
        }
    }

    /// One sender, arbitrary arrival permutation: FIFO restored exactly.
    #[test]
    fn single_sender_any_permutation_is_fifo(
        perm_seed in 0u64..1000,
        count in 1usize..30,
    ) {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(perm_seed);
        let space = KeySpace::new(16, 3).unwrap();
        let mut assigner = KeyAssigner::new(space, AssignmentPolicy::UniformRandom, 1);
        let mut tx: PcbProcess<usize> =
            PcbProcess::new(ProcessId::new(0), assigner.next_set().unwrap());
        let mut rx: PcbProcess<usize> =
            PcbProcess::new(ProcessId::new(1), assigner.next_set().unwrap());
        let msgs: Vec<_> = (0..count).map(|i| tx.broadcast(i)).collect();
        let mut order: Vec<usize> = (0..count).collect();
        for i in (1..count).rev() {
            let j = rng.random_range(0..=i);
            order.swap(i, j);
        }
        let mut got = Vec::new();
        for (t, &i) in order.iter().enumerate() {
            got.extend(
                rx.on_receive(msgs[i].clone(), t as u64)
                    .into_iter()
                    .map(|d| *d.message.payload()),
            );
        }
        prop_assert_eq!(got, (0..count).collect::<Vec<_>>());
        prop_assert_eq!(rx.pending_len(), 0);
    }

    /// Random duplicate injections never double-deliver.
    #[test]
    fn duplicates_never_double_deliver(
        seed in 0u64..500,
        count in 1usize..20,
        dup_factor in 2usize..4,
    ) {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let space = KeySpace::new(12, 2).unwrap();
        let mut assigner = KeyAssigner::new(space, AssignmentPolicy::DistinctRandom, 2);
        let mut tx: PcbProcess<usize> =
            PcbProcess::new(ProcessId::new(0), assigner.next_set().unwrap());
        let mut rx: PcbProcess<usize> =
            PcbProcess::new(ProcessId::new(1), assigner.next_set().unwrap());
        let msgs: Vec<_> = (0..count).map(|i| tx.broadcast(i)).collect();
        // Stream with duplicates, shuffled.
        let mut stream: Vec<usize> = (0..count).flat_map(|i| vec![i; dup_factor]).collect();
        for i in (1..stream.len()).rev() {
            let j = rng.random_range(0..=i);
            stream.swap(i, j);
        }
        let mut delivered = 0usize;
        for (t, &i) in stream.iter().enumerate() {
            delivered += rx.on_receive(msgs[i].clone(), t as u64).len();
        }
        prop_assert_eq!(delivered, count);
        prop_assert_eq!(rx.stats().duplicates as usize, count * (dup_factor - 1));
    }

    /// After any `on_receive`, no pending message is deliverable (the
    /// drain loop reaches a fixpoint).
    #[test]
    fn drain_reaches_fixpoint(
        seed in 0u64..500,
        count in 1usize..25,
    ) {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let space = KeySpace::new(8, 2).unwrap();
        let mut assigner = KeyAssigner::new(space, AssignmentPolicy::UniformRandom, 3);
        let keys_a = assigner.next_set().unwrap();
        let keys_b = assigner.next_set().unwrap();
        let mut a: PcbProcess<usize> = PcbProcess::new(ProcessId::new(0), keys_a);
        let mut b: PcbProcess<usize> = PcbProcess::new(ProcessId::new(1), keys_b);
        let mut msgs = Vec::new();
        for i in 0..count {
            // Alternate senders to create cross-dependencies.
            let m = if i % 2 == 0 { a.broadcast(i) } else { b.broadcast(i) };
            msgs.push(m);
        }
        let mut rx: PcbProcess<usize> =
            PcbProcess::new(ProcessId::new(2), assigner.next_set().unwrap());
        for i in (1..msgs.len()).rev() {
            let j = rng.random_range(0..=i);
            msgs.swap(i, j);
        }
        for (t, m) in msgs.into_iter().enumerate() {
            let _ = rx.on_receive(m, t as u64);
            // Fixpoint: polling immediately after must deliver nothing.
            prop_assert!(rx.poll(t as u64).is_empty(), "drain left a deliverable message");
        }
    }

    /// Wire codec round-trips messages from arbitrary protocol states.
    #[test]
    fn wire_roundtrip_random_states(
        r in 1usize..40,
        pre_sends in 0usize..20,
        payload in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let k = (r / 3).clamp(1, r);
        let space = KeySpace::new(r, k).unwrap();
        let mut assigner = KeyAssigner::new(space, AssignmentPolicy::UniformRandom, 4);
        let mut p: PcbProcess<Bytes> =
            PcbProcess::new(ProcessId::new(5), assigner.next_set().unwrap());
        for _ in 0..pre_sends {
            let _ = p.broadcast(Bytes::new());
        }
        let m = p.broadcast(Bytes::from(payload.clone()));
        let decoded = decode(encode_full(&m)).unwrap();
        prop_assert_eq!(decoded.id(), m.id());
        prop_assert_eq!(decoded.keys(), m.keys());
        prop_assert_eq!(decoded.timestamp(), m.timestamp());
        prop_assert_eq!(&decoded.payload()[..], &payload[..]);
    }

    /// Any lost subset is recoverable through anti-entropy: a receiver
    /// that misses arbitrary messages catches up fully from a peer's
    /// store, and every message is delivered exactly once.
    #[test]
    fn anti_entropy_recovers_any_loss_pattern(
        seed in 0u64..500,
        count in 1usize..20,
    ) {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let space = KeySpace::new(16, 3).unwrap();
        let mut assigner = KeyAssigner::new(space, AssignmentPolicy::DistinctRandom, 5);
        let mut tx: PcbProcess<usize> =
            PcbProcess::new(ProcessId::new(0), assigner.next_set().unwrap());
        let mut peer: PcbProcess<usize> =
            PcbProcess::new(ProcessId::new(1), assigner.next_set().unwrap());
        let mut rx: PcbProcess<usize> =
            PcbProcess::new(ProcessId::new(2), assigner.next_set().unwrap());
        let mut store: MessageStore<usize> = MessageStore::new(u64::MAX / 2);

        let mut direct_deliveries = 0usize;
        for i in 0..count {
            let m = tx.broadcast(i);
            for d in peer.on_receive(m.clone(), i as u64) {
                store.insert(i as u64, d.message);
            }
            // rx loses each message with probability 1/2.
            if rng.random_bool(0.5) {
                direct_deliveries += rx.on_receive(m, i as u64).len();
            }
        }
        // Anti-entropy: fetch everything rx has not seen.
        let response = store.handle_sync(&SyncRequest { windows: rx.seen_windows() });
        let mut recovered = 0usize;
        for m in response.messages {
            recovered += rx.on_receive(m, count as u64).len();
        }
        prop_assert_eq!(direct_deliveries + recovered, count);
        prop_assert_eq!(rx.pending_len(), 0, "full recovery leaves nothing blocked");
        prop_assert_eq!(rx.stats().delivered as usize, count);
    }
}
