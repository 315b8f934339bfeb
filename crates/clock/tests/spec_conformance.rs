//! `unrank` (Algorithm 3), `ProbClock`'s Algorithm 1 stamp and its
//! Algorithm 4 coverage test against the specification, `pcb_clock::spec`.
//! (The Algorithm 2 guard has its own suite, `guard_equivalence.rs`.)

use pcb_clock::{binomial, spec, unrank, KeySet, KeySpace, ProbClock, StampPool, Timestamp};
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
