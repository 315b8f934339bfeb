//! `MessageStore::handle_sync` filters by the requester's dedup windows.
//! Until this suite's PR it filtered by a list of every id the requester
//! had ever seen, expanded from those same windows; that form survives
//! here, as the reference the window filter must agree with — the same
//! messages in the same order — on random stores and random requesters,
//! including a second (drain) filter joined in, empty requests, forged
//! windows claiming sequence numbers near `u64::MAX`, and forged windows
//! naming senders the store never heard of.

use std::collections::HashSet;

use pcb_broadcast::{
    DedupFilter, Message, MessageId, MessageStore, PcbProcess, SeenWindows, SyncRequest,
    SYNC_REPLY_MAX,
};
use pcb_clock::{KeySet, KeySpace, ProcessId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Highest sequence number any sender reaches in a generated store.
const MAX_SEQ: u64 = 40;
/// Highest sequence number a generated (unforged) requester has seen.
const SEEN_MAX: u64 = MAX_SEQ + 5;

/// The id-list reference: every id inside `windows`, prefixes expanded
/// (clamped to `SEEN_MAX`: no stored message lies past it, and only a
/// forged prefix does).
fn expand(windows: &SeenWindows) -> HashSet<MessageId> {
    let mut known = HashSet::new();
    for (sender, prefix, exceptions) in windows {
        known.extend((1..=(*prefix).min(SEEN_MAX)).map(|seq| MessageId::new(*sender, seq)));
        known.extend(exceptions.iter().map(|&seq| MessageId::new(*sender, seq)));
    }
    known
}

/// The id-list reference filter, as `handle_sync` was before windows.
fn id_list_sync(store: &MessageStore<u32>, known: &HashSet<MessageId>) -> Vec<MessageId> {
    store.iter().map(Message::id).filter(|id| !known.contains(id)).take(SYNC_REPLY_MAX).collect()
}

/// A store holding a random subset of `senders` streams, inserted in a
/// random order (so insertion order differs from id order).
fn random_store(rng: &mut StdRng, senders: usize) -> MessageStore<u32> {
    let space = KeySpace::new(8, 2).expect("valid space");
    let mut all = Vec::new();
    for sender in 0..senders {
        let mut entries = [sender % 8, (sender + 3) % 8];
        entries.sort_unstable();
        let keys = KeySet::from_entries(space, &entries).expect("keys");
        let mut process: PcbProcess<u32> = PcbProcess::new(ProcessId::new(sender), keys);
        let sent = rng.random_range(0..=MAX_SEQ);
        all.extend((0..sent).map(|_| process.broadcast(0)));
    }
    let mut store = MessageStore::new(u64::MAX / 2);
    for at in 0..all.len() {
        let pick = rng.random_range(at..all.len());
        all.swap(at, pick);
        if rng.random_bool(0.7) {
            store.insert(at as u64, all[at].clone());
        }
    }
    store
}

/// A requester that saw each id of `senders + 1` streams (one of them
/// unknown to the store) with probability `density`.
fn random_filter(rng: &mut StdRng, senders: usize, density: f64) -> DedupFilter {
    let mut filter = DedupFilter::new();
    for sender in 0..=senders {
        for seq in 1..=SEEN_MAX {
            if rng.random_bool(density) {
                filter.insert(MessageId::new(ProcessId::new(sender), seq));
            }
        }
    }
    filter
}

fn reply_ids(store: &MessageStore<u32>, windows: SeenWindows) -> Vec<MessageId> {
    store.handle_sync(&SyncRequest { windows }).messages.iter().map(Message::id).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn window_filter_agrees_with_the_id_list_reference(
        seed in any::<u64>(),
        senders in 1usize..6,
        density in 0u32..=10,
        with_drain in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let store = random_store(&mut rng, senders);
        let density = f64::from(density) / 10.0;
        let mut seen = random_filter(&mut rng, senders, density);
        let mut known = expand(&seen.export_windows());
        if with_drain {
            // The old-epoch drain's filter joins the probe; the id-list
            // form took the union of both expansions.
            let drain = random_filter(&mut rng, senders, 0.3);
            known.extend(expand(&drain.export_windows()));
            seen.union(&drain);
        }
        let windows = seen.export_windows();
        prop_assert_eq!(expand(&windows), known.clone(), "union changed the seen-set");
        prop_assert_eq!(reply_ids(&store, windows), id_list_sync(&store, &known));
    }

    #[test]
    fn forged_huge_windows_filter_like_their_expansion(
        seed in any::<u64>(),
        senders in 1usize..6,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let store = random_store(&mut rng, senders);
        // Per sender one of: everything up to u64::MAX, nothing but
        // exceptions out at the far end, or a real prefix with such
        // exceptions behind it. Expanding any of these as an id list is
        // what the old probe could not afford; the reference clamps.
        let windows: SeenWindows = (0..senders)
            .map(|sender| {
                let far = vec![u64::MAX - 2, u64::MAX];
                let (prefix, exceptions) = match rng.random_range(0..3u32) {
                    0 => (u64::MAX, Vec::new()),
                    1 => (0, far),
                    _ => (rng.random_range(0..=MAX_SEQ), far),
                };
                (ProcessId::new(sender), prefix, exceptions)
            })
            .collect();
        let known = expand(&windows);
        prop_assert_eq!(reply_ids(&store, windows), id_list_sync(&store, &known));
    }

    #[test]
    fn forged_sender_windows_filter_like_their_expansion(
        seed in any::<u64>(),
        senders in 1usize..120,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Up to 119 senders of up to 40 messages, so that some stores
        // outgrow the reply cap.
        let store = random_store(&mut rng, senders);
        // Windows in exported form (senders strictly ascending) naming
        // some real senders, some just past the cluster, and ids far
        // above it, up to `u32::MAX`, the largest the step codec
        // decodes. Every window carries a prefix and exceptions, so the
        // senders that do not exist carry exception lists too.
        let mut ids: Vec<usize> = (0..senders).filter(|_| rng.random_bool(0.5)).collect();
        ids.extend((senders..senders + 4).filter(|_| rng.random_bool(0.5)));
        for _ in 0..rng.random_range(0..4u32) {
            ids.push(rng.random_range(1 << 16..=u32::MAX as usize));
        }
        if rng.random_bool(0.5) {
            ids.push(u32::MAX as usize);
        }
        ids.sort_unstable();
        ids.dedup();
        let windows: SeenWindows = ids
            .into_iter()
            .map(|sender| {
                let prefix = rng.random_range(0..=SEEN_MAX);
                let mut exceptions: Vec<u64> = (0..rng.random_range(0..4u32))
                    .map(|_| {
                        if rng.random_bool(0.5) {
                            rng.random_range(prefix + 1..=prefix + MAX_SEQ)
                        } else {
                            rng.random_range(prefix + 1..=u64::MAX)
                        }
                    })
                    .collect();
                exceptions.sort_unstable();
                exceptions.dedup();
                (ProcessId::new(sender), prefix, exceptions)
            })
            .collect();
        let known = expand(&windows);
        let reply = reply_ids(&store, windows);
        prop_assert!(reply.len() <= SYNC_REPLY_MAX, "reply of {} messages", reply.len());
        prop_assert_eq!(reply, id_list_sync(&store, &known));
    }
}

#[test]
fn empty_windows_ask_for_the_whole_store_in_insertion_order() {
    let mut rng = StdRng::seed_from_u64(7);
    let store = random_store(&mut rng, 4);
    let everything: Vec<MessageId> = store.iter().map(Message::id).collect();
    assert!(!everything.is_empty());
    assert_eq!(reply_ids(&store, Vec::new()), everything);
    assert_eq!(id_list_sync(&store, &HashSet::new()), everything);
}
