//! The Algorithm 2 guard kernel against the specification.
//!
//! The expected [`Gap`] is derived from `pcb_clock::spec`, which states
//! Algorithm 2's wait condition one entry at a time: the first entry at or
//! after `start` whose local value is below the specification's bound
//! blocks, with that bound as the value it must reach. The kernel must
//! return the identical verdict — entry *and* required value — on every
//! input, including the ones its fast path has to hand to the exact walk.

use pcb_clock::{spec, Gap, KeySet, KeySpace, ProbClock, Timestamp};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The verdict the specification gives a scan that starts at `start`.
fn expected_gap(local: &[u64], remote: &[u64], f_j: &[usize], start: usize) -> Gap {
    let required = |x| spec::bound(remote, f_j, x);
    (start..local.len())
        .find(|&x| local[x] < required(x))
        .map_or(Gap::Ready, |x| Gap::Blocked { entry: x, required: required(x) })
}

/// `k` strictly increasing entries of `0..r` that include both ends of
/// the vector whenever `k` allows.
fn edge_keys(rng: &mut StdRng, r: usize, k: usize) -> KeySet {
    let mut entries = vec![0, r - 1];
    entries.truncate(k);
    if k == 1 && rng.random_bool(0.5) {
        entries[0] = r - 1;
    }
    while entries.len() < k {
        let entry = rng.random_range(0..r);
        if !entries.contains(&entry) {
            entries.push(entry);
        }
    }
    entries.sort_unstable();
    KeySet::from_entries(KeySpace::new(r, k).expect("k <= r"), &entries)
        .expect("strictly increasing, in range")
}

/// A stamp and a local vector that satisfies it, then `blocked` entries
/// pulled below what they must reach. `huge` plants values at and above
/// 2⁶³, where the sign-bit test stops being the comparison.
fn vectors(
    rng: &mut StdRng,
    f_j: &[usize],
    r: usize,
    blocked: usize,
    huge: bool,
) -> (Vec<u64>, Vec<u64>) {
    let mut remote: Vec<u64> = (0..r).map(|_| rng.random_range(0..6u64)).collect();
    if huge {
        for _ in 0..rng.random_range(1..4usize) {
            let high = [1 << 63, (1 << 63) + 1, u64::MAX - 1, u64::MAX];
            remote[rng.random_range(0..r)] = high[rng.random_range(0..high.len())];
        }
    }
    let mut local: Vec<u64> = (0..r)
        .map(|entry| spec::bound(&remote, f_j, entry).saturating_add(rng.random_range(0..3u64)))
        .collect();
    if huge && rng.random_bool(0.5) {
        local[rng.random_range(0..r)] = u64::MAX; // far ahead of a small stamp entry
    }
    for _ in 0..blocked {
        let entry = rng.random_range(0..r);
        let required = spec::bound(&remote, f_j, entry);
        if required > 0 {
            // One short, far short, or — for a stamp entry above 2⁶³ — a
            // small value whose wrapped difference has a clear sign bit.
            local[entry] = match rng.random_range(0..3u32) {
                0 => required - 1,
                1 => required / 2,
                _ => 0,
            };
        }
    }
    (local, remote)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn kernel_matches_the_spec(
        r in 1usize..=257,
        k in 1usize..=8,
        blocked in 0usize..=6,
        huge in 0u8..4,
        start_kind in 0u8..4,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let keys = edge_keys(&mut rng, r, k.min(r));
        let f_j: Vec<usize> = keys.iter().collect();
        // Half the cases block nothing, so Ready is as common as Blocked.
        let blocked = blocked.saturating_sub(3);
        let (mut local, remote) = vectors(&mut rng, &f_j, r, blocked, huge == 0);
        let stamp = Timestamp::from_entries(remote.clone());
        let start = match start_kind {
            0 => 0,
            1 => rng.random_range(0..r),
            2 => r,
            _ => r + rng.random_range(1..9usize),
        };

        let clock = ProbClock::from_vector(Timestamp::from_entries(local.clone()));
        let verdict = clock.deliverability_gap_from(&stamp, &keys, start);
        prop_assert_eq!(verdict, expected_gap(&local, &remote, &f_j, start));
        prop_assert_eq!(clock.is_deliverable(&stamp, &keys), spec::deliverable(&local, &remote, &f_j));

        // Resuming from each verdict agrees with a scan from entry 0 while
        // the local clock climbs to the stamp, one blocked entry at a time.
        let mut resume = 0;
        for _ in 0..=r {
            let clock = ProbClock::from_vector(Timestamp::from_entries(local.clone()));
            let from_zero = clock.deliverability_gap(&stamp, &keys);
            prop_assert_eq!(from_zero, expected_gap(&local, &remote, &f_j, 0));
            prop_assert_eq!(clock.deliverability_gap_from(&stamp, &keys, resume), from_zero);
            let Gap::Blocked { entry, required } = from_zero else { break };
            prop_assert!(entry >= resume, "the first blocked entry moved left");
            resume = entry;
            local[entry] = required;
        }
        let clock = ProbClock::from_vector(Timestamp::from_entries(local));
        prop_assert_eq!(clock.deliverability_gap(&stamp, &keys), Gap::Ready);
    }
}
