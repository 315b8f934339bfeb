//! Generation and distribution of key sets (paper §4.1.3).
//!
//! The paper proposes that each process draw a random `set_id` in
//! `[0, C(R,K))` and unrank it with Algorithm 3; with distinct ids every
//! pair of processes shares at most `K-1` entries. This module implements
//! that policy plus two alternatives used as ablations: collision-free
//! random ids and a deterministic round-robin spread approximating the
//! paper's "perfect distribution of keys".

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::keys::{KeyError, KeySet, KeySpace};

/// How key sets are handed out to processes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AssignmentPolicy {
    /// The paper's policy: each process draws `set_id` uniformly at random;
    /// two processes may collide on the exact same set.
    #[default]
    UniformRandom,
    /// Uniform random, but re-drawn until distinct — guarantees pairwise
    /// overlap of at most `K-1` entries (requires `N <= C(R,K)`).
    DistinctRandom,
    /// Deterministic spread: process `i` gets entries
    /// `{(i·K + j) mod R : j < K}`, maximizing entry-load balance. A
    /// dynamicity-hostile "perfect distribution" baseline.
    RoundRobin,
}

impl AssignmentPolicy {
    /// Stable one-byte wire code (frozen — snapshots and sync replies
    /// carry it across versions).
    #[must_use]
    pub fn wire_code(self) -> u8 {
        match self {
            Self::UniformRandom => 0,
            Self::DistinctRandom => 1,
            Self::RoundRobin => 2,
        }
    }

    /// Inverse of [`AssignmentPolicy::wire_code`]; `None` on unknown codes.
    #[must_use]
    pub fn from_wire_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(Self::UniformRandom),
            1 => Some(Self::DistinctRandom),
            2 => Some(Self::RoundRobin),
            _ => None,
        }
    }
}

/// Errors from key assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssignmentError {
    /// `DistinctRandom` was asked for more sets than exist.
    Exhausted {
        /// Number of distinct sets available, `C(R,K)` (saturated).
        available: u128,
    },
    /// Key-set construction failed.
    Key(KeyError),
}

impl std::fmt::Display for AssignmentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Exhausted { available } => {
                write!(f, "distinct assignment exhausted: only {available} key sets exist")
            }
            Self::Key(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for AssignmentError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Key(e) => Some(e),
            Self::Exhausted { .. } => None,
        }
    }
}

impl From<KeyError> for AssignmentError {
    fn from(e: KeyError) -> Self {
        Self::Key(e)
    }
}

/// Stateful key-set dispenser for a population of processes.
///
/// Supports continuous joins: call [`KeyAssigner::next_set`] whenever a
/// process enters the system — no reconfiguration of existing processes is
/// needed, which is the paper's central scalability argument.
///
/// ```
/// use pcb_clock::{AssignmentPolicy, KeyAssigner, KeySpace};
/// let space = KeySpace::new(100, 4)?;
/// let mut assigner = KeyAssigner::new(space, AssignmentPolicy::UniformRandom, 42);
/// let sets = assigner.assign_n(1000)?;
/// assert_eq!(sets.len(), 1000);
/// assert!(sets.iter().all(|s| s.len() == 4));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct KeyAssigner {
    space: KeySpace,
    policy: AssignmentPolicy,
    rng: StdRng,
    issued: u64,
    seen: HashSet<u128>,
}

impl KeyAssigner {
    /// Creates an assigner with a deterministic seed.
    #[must_use]
    pub fn new(space: KeySpace, policy: AssignmentPolicy, seed: u64) -> Self {
        Self { space, policy, rng: StdRng::seed_from_u64(seed), issued: 0, seen: HashSet::new() }
    }

    /// The key space sets are drawn from.
    #[must_use]
    pub fn space(&self) -> KeySpace {
        self.space
    }

    /// The policy in force.
    #[must_use]
    pub fn policy(&self) -> AssignmentPolicy {
        self.policy
    }

    /// Number of sets issued so far.
    #[must_use]
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Draws the key set for the next joining process.
    ///
    /// # Errors
    ///
    /// [`AssignmentError::Exhausted`] under `DistinctRandom` once all
    /// `C(R,K)` sets are taken.
    pub fn next_set(&mut self) -> Result<KeySet, AssignmentError> {
        let total = self.space.combination_count();
        let set = match self.policy {
            AssignmentPolicy::UniformRandom => {
                let id = self.rng.random_range(0..total);
                KeySet::from_set_id(self.space, id)?
            }
            AssignmentPolicy::DistinctRandom => {
                if (self.seen.len() as u128) >= total {
                    return Err(AssignmentError::Exhausted { available: total });
                }
                loop {
                    let id = self.rng.random_range(0..total);
                    if self.seen.insert(id) {
                        break KeySet::from_set_id(self.space, id)?;
                    }
                }
            }
            AssignmentPolicy::RoundRobin => {
                let r = self.space.r();
                let k = self.space.k();
                let base = (self.issued as usize).wrapping_mul(k);
                let mut entries: Vec<usize> = (0..k).map(|j| (base + j) % r).collect();
                entries.sort_unstable();
                entries.dedup();
                debug_assert_eq!(entries.len(), k, "K <= R guarantees distinct entries");
                KeySet::from_entries(self.space, &entries)?
            }
        };
        self.issued += 1;
        Ok(set)
    }

    /// Draws `n` key sets at once (initial population).
    ///
    /// # Errors
    ///
    /// Propagates the first [`AssignmentError`] encountered.
    pub fn assign_n(&mut self, n: usize) -> Result<Vec<KeySet>, AssignmentError> {
        (0..n).map(|_| self.next_set()).collect()
    }
}

/// Per-entry load histogram: how many of the given key sets use each entry.
/// Balanced load is what makes the independence approximation of the error
/// model (§5.3) tight.
#[must_use]
pub fn entry_load(space: KeySpace, sets: &[KeySet]) -> Vec<usize> {
    let mut load = vec![0usize; space.r()];
    for set in sets {
        for entry in set.iter() {
            load[entry] += 1;
        }
    }
    load
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> KeySpace {
        KeySpace::new(10, 3).unwrap()
    }

    #[test]
    fn uniform_random_is_deterministic_per_seed() {
        let a = KeyAssigner::new(space(), AssignmentPolicy::UniformRandom, 7).assign_n(50).unwrap();
        let b = KeyAssigner::new(space(), AssignmentPolicy::UniformRandom, 7).assign_n(50).unwrap();
        let c = KeyAssigner::new(space(), AssignmentPolicy::UniformRandom, 8).assign_n(50).unwrap();
        assert_eq!(a, b, "same seed, same assignment");
        assert_ne!(a, c, "different seed should differ");
    }

    #[test]
    fn distinct_random_never_repeats() {
        let total = space().combination_count() as usize;
        let sets =
            KeyAssigner::new(space(), AssignmentPolicy::DistinctRandom, 3).assign_n(total).unwrap();
        let ids: HashSet<u128> = sets.iter().map(KeySet::set_id).collect();
        assert_eq!(ids.len(), total);
    }

    #[test]
    fn distinct_random_exhausts() {
        let small = KeySpace::new(4, 2).unwrap(); // C(4,2) = 6
        let mut assigner = KeyAssigner::new(small, AssignmentPolicy::DistinctRandom, 1);
        assert!(assigner.assign_n(6).is_ok());
        assert_eq!(assigner.next_set(), Err(AssignmentError::Exhausted { available: 6 }));
    }

    #[test]
    fn round_robin_balances_entry_load() {
        let sp = KeySpace::new(12, 3).unwrap();
        let sets = KeyAssigner::new(sp, AssignmentPolicy::RoundRobin, 0).assign_n(8).unwrap();
        let load = entry_load(sp, &sets);
        let (min, max) = (load.iter().min().unwrap(), load.iter().max().unwrap());
        assert!(max - min <= 1, "round-robin load must be near-uniform: {load:?}");
    }

    #[test]
    fn round_robin_wraps_correctly() {
        let sp = KeySpace::new(5, 3).unwrap();
        let mut assigner = KeyAssigner::new(sp, AssignmentPolicy::RoundRobin, 0);
        let s0 = assigner.next_set().unwrap();
        let s1 = assigner.next_set().unwrap();
        assert_eq!(s0.iter().collect::<Vec<_>>(), vec![0, 1, 2]);
        // base = 3: entries {3, 4, 0} -> sorted {0, 3, 4}.
        assert_eq!(s1.iter().collect::<Vec<_>>(), vec![0, 3, 4]);
    }

    #[test]
    fn all_policies_produce_valid_sets() {
        for policy in [
            AssignmentPolicy::UniformRandom,
            AssignmentPolicy::DistinctRandom,
            AssignmentPolicy::RoundRobin,
        ] {
            let sets = KeyAssigner::new(space(), policy, 11).assign_n(20).unwrap();
            for s in sets {
                assert_eq!(s.len(), 3);
                assert!(s.iter().all(|e| e < 10));
                let v: Vec<_> = s.iter().collect();
                assert!(v.windows(2).all(|w| w[0] < w[1]));
            }
        }
    }

    #[test]
    fn entry_load_counts() {
        let sp = KeySpace::new(4, 2).unwrap();
        let a = KeySet::from_entries(sp, &[0, 1]).unwrap();
        let b = KeySet::from_entries(sp, &[1, 3]).unwrap();
        assert_eq!(entry_load(sp, &[a, b]), vec![1, 2, 0, 1]);
    }
}
