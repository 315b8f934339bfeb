//! `unrank` (Algorithm 3), `ProbClock`'s Algorithm 1 stamp and its
//! Algorithm 4 coverage test against the specification, `pcb_clock::spec`.
//! (The Algorithm 2 guard has its own suite, `guard_equivalence.rs`; the
//! one fixed guard case here pins local entries past 2⁶³.)

use pcb_clock::{binomial, spec, unrank, Gap, KeySet, KeySpace, ProbClock, StampPool, Timestamp};
use proptest::collection::vec;
use proptest::prelude::*;

#[test]
fn unrank_enumerates_every_set_id_as_the_spec_does() {
    for r in 1..=10 {
        for k in 1..=r {
            for s in 0..binomial(r as u64, k as u64).expect("small") {
                assert_eq!(
                    unrank(s, r, k).expect("in range"),
                    spec::entries(s, r, k),
                    "{s} of {r}C{k}"
                );
            }
        }
    }
}

#[test]
fn local_entries_past_two_to_the_63_ahead_of_a_small_stamp() {
    // A merge ablation can grow a local entry to 2⁶³ or more. Against a
    // small stamp entry its wrapped difference can have the sign bit set,
    // so the guard's count pass reads it as behind; the verdict must still
    // be the specification's, with and without a real blocked entry.
    let f_j = [1usize, 2];
    let keys = KeySet::from_entries(KeySpace::new(5, 2).expect("2 <= 5"), &f_j).expect("keys");
    let remote = [3u64, 4, 1, 2, 5];
    let stamp = Timestamp::from_entries(remote.to_vec());
    for far in [1u64 << 63, (1 << 63) + 3, u64::MAX] {
        for (ahead, blocked) in [(0, None), (2, None), (3, Some(4)), (0, Some(1))] {
            // Meets every bound, with sender entries 1 and 2 one behind.
            let mut local = vec![3u64, 3, 0, 2, 5];
            local[ahead] = far;
            if let Some(entry) = blocked {
                local[entry] = remote[entry] - 2;
            }
            let required = |x| spec::bound(&remote, &f_j, x);
            let expected = (0..local.len())
                .find(|&x| local[x] < required(x))
                .map_or(Gap::Ready, |x| Gap::Blocked { entry: x, required: required(x) });
            assert_eq!(expected == Gap::Ready, blocked.is_none());
            assert_eq!(expected == Gap::Ready, spec::deliverable(&local, &remote, &f_j));
            let clock = ProbClock::from_vector(Timestamp::from_entries(local.clone()));
            assert_eq!(clock.deliverability_gap(&stamp, &keys), expected, "{local:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn unrank_matches_the_spec_up_to_r_257(r in 1usize..=257, k in 1usize..=8, s in any::<u64>()) {
        let k = k.min(r);
        let s = u128::from(s) % binomial(r as u64, k as u64).expect("fits u128");
        prop_assert_eq!(unrank(s, r, k).expect("in range"), spec::entries(s, r, k));
    }

    #[test]
    fn stamps_and_coverage_match_the_spec(
        r in 1usize..=40,
        s in any::<u64>(),
        sends in 1usize..5,
        local in vec(0u64..6, 40..41),
        remote in vec(0u64..6, 40..41),
    ) {
        let k = 1 + (s % 4) as usize % r;
        let space = KeySpace::new(r, k).expect("k <= r");
        let keys = KeySet::from_set_id(space, u128::from(s) % binomial(r as u64, k as u64).expect("small"))
            .expect("in range");
        let f: Vec<usize> = keys.iter().collect();

        let (mut clock, mut pooled, mut pool) = (ProbClock::new(space), ProbClock::new(space), StampPool::new());
        let mut sender = spec::Process::<()>::new(r, &f, None);
        for _ in 0..sends {
            let expected = sender.broadcast();
            prop_assert_eq!(clock.stamp_send(&keys).entries(), &expected[..]);
            prop_assert_eq!(pooled.stamp_send_into(&keys, &mut pool).entries(), &expected[..]);
        }

        let (local, remote) = (&local[..r], &remote[..r]);
        let clock = ProbClock::from_vector(Timestamp::from_entries(local.to_vec()));
        let stamp = Timestamp::from_entries(remote.to_vec());
        prop_assert_eq!(clock.is_covered(&stamp, &keys), spec::covered(local, remote, &f));
    }
}
