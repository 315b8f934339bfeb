//! Cluster configuration epochs: versioned `(R, K)` geometry.
//!
//! The paper fixes `(R, K)` at startup; a long-lived deployment cannot.
//! A [`ClusterConfig`] is the cluster's *configuration plane* state: an
//! epoch counter plus the key space and assignment policy in force for
//! that epoch. Every message is stamped with the epoch of the geometry
//! its timestamp was drawn in, and a reconfiguration `R → R'` migrates
//! each clock by **fold-sum projection** ([`ClusterConfig::project`]):
//!
//! ```text
//! V'[j] = Σ { V[e] : e ≡ j (mod R') }
//! ```
//!
//! Fold-sum preserves the clock's meaning exactly: entry `j` of the new
//! vector counts every send whose old entry folds onto `j`. When
//! `R' >= R` the projection is the identity embedding (no extra
//! collisions — the common "grow the vector" direction is lossless);
//! when `R' < R` distinct old entries may fold together, which weakens
//! the mechanism exactly the way a smaller `R` always does — the safety
//! story stays probabilistic, never worse than running at `R'` from the
//! start.
//!
//! Key sets migrate deterministically ([`ClusterConfig::migrate_keys`]):
//! the member keeps its `set_id` modulo the new `C(R', K')`, so every
//! process — including ones that only hear about the reconfiguration
//! later — derives the same `f'(p)` for every member with no extra
//! coordination round.

use std::fmt;

use crate::assignment::AssignmentPolicy;
use crate::keys::{KeyError, KeySet, KeySpace};

/// The cluster's versioned `(R, K)` configuration: which clock geometry
/// and key-assignment policy are in force, and since which epoch.
///
/// ```
/// use pcb_clock::{ClusterConfig, KeySpace};
/// let genesis = ClusterConfig::genesis(KeySpace::new(8, 2)?);
/// assert_eq!(genesis.epoch, 0);
/// let grown = genesis.reconfigured(KeySpace::new(12, 2)?);
/// assert_eq!(grown.epoch, 1);
/// assert_eq!(grown.space.r(), 12);
/// # Ok::<(), pcb_clock::KeyError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClusterConfig {
    /// Monotone configuration version; 0 is the genesis configuration.
    pub epoch: u64,
    /// The `(R, K)` key space of this epoch.
    pub space: KeySpace,
    /// How newcomers draw their key sets in this epoch.
    pub policy: AssignmentPolicy,
}

impl ClusterConfig {
    /// The epoch-0 configuration every cluster boots with.
    #[must_use]
    pub fn genesis(space: KeySpace) -> Self {
        Self { epoch: 0, space, policy: AssignmentPolicy::default() }
    }

    /// A genesis configuration with an explicit assignment policy.
    #[must_use]
    pub fn with_policy(space: KeySpace, policy: AssignmentPolicy) -> Self {
        Self { epoch: 0, space, policy }
    }

    /// The successor configuration: same policy, new key space, epoch+1.
    #[must_use]
    pub fn reconfigured(&self, space: KeySpace) -> Self {
        Self { epoch: self.epoch + 1, space, policy: self.policy }
    }

    /// Where old clock entry `e` lands in this epoch's vector.
    #[must_use]
    pub fn project_entry(&self, entry: usize) -> usize {
        entry % self.space.r()
    }

    /// Fold-sum projection of a clock vector from any old geometry into
    /// this epoch's `R`: `V'[j] = Σ { V[e] : e mod R' == j }`. Identity
    /// (plus zero-padding) when this epoch's `R` is at least as large.
    #[must_use]
    pub fn project(&self, old: &[u64]) -> Vec<u64> {
        let r = self.space.r();
        let mut folded = vec![0u64; r];
        for (entry, &count) in old.iter().enumerate() {
            folded[entry % r] = folded[entry % r].saturating_add(count);
        }
        folded
    }

    /// Deterministically re-derives a member's key set in this epoch's
    /// space: its old `set_id` reduced modulo the new `C(R', K')` and
    /// unranked (paper Algorithm 3). Every process that knows a member's
    /// old keys computes the same new keys with no coordination.
    ///
    /// # Errors
    ///
    /// [`KeyError`] only if the space itself is degenerate; the reduced
    /// id is always in range.
    pub fn migrate_keys(&self, old: &KeySet) -> Result<KeySet, KeyError> {
        let total = self.space.combination_count();
        KeySet::from_set_id(self.space, old.set_id() % total)
    }
}

impl fmt::Display for ClusterConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "epoch {} @ {}", self.epoch, self.space)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space(r: usize, k: usize) -> KeySpace {
        KeySpace::new(r, k).unwrap()
    }

    #[test]
    fn growth_projection_is_identity_embedding() {
        let cfg = ClusterConfig::genesis(space(6, 2)).reconfigured(space(9, 2));
        assert_eq!(cfg.project(&[3, 0, 7, 1]), vec![3, 0, 7, 1, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn shrink_projection_folds_by_modulus() {
        let cfg = ClusterConfig::genesis(space(6, 2)).reconfigured(space(4, 2));
        // Entries 4, 5 fold onto 0, 1.
        assert_eq!(cfg.project(&[1, 2, 3, 4, 10, 20]), vec![11, 22, 3, 4]);
    }

    #[test]
    fn projection_preserves_total_mass() {
        let cfg = ClusterConfig::genesis(space(16, 3)).reconfigured(space(5, 2));
        let old: Vec<u64> = (0..16).map(|e| e * 7 + 1).collect();
        let new = cfg.project(&old);
        assert_eq!(new.iter().sum::<u64>(), old.iter().sum::<u64>());
        assert_eq!(new.len(), 5);
    }

    #[test]
    fn key_migration_is_deterministic_and_in_range() {
        let old_space = space(10, 3);
        let new = ClusterConfig::genesis(old_space).reconfigured(space(6, 2));
        for set_id in [0u128, 1, 17, 119] {
            let old = KeySet::from_set_id(old_space, set_id).unwrap();
            let a = new.migrate_keys(&old).unwrap();
            let b = new.migrate_keys(&old).unwrap();
            assert_eq!(a, b, "migration must be a pure function of the old set");
            assert_eq!(a.len(), 2);
            assert!(a.iter().all(|e| e < 6));
            assert_eq!(a.set_id(), set_id % new.space.combination_count());
        }
    }

    #[test]
    fn reconfigured_bumps_epoch_and_keeps_policy() {
        let base = ClusterConfig::with_policy(space(8, 2), AssignmentPolicy::DistinctRandom);
        let next = base.reconfigured(space(12, 3));
        assert_eq!(next.epoch, 1);
        assert_eq!(next.policy, AssignmentPolicy::DistinctRandom);
        assert_eq!(next.reconfigured(space(12, 3)).epoch, 2);
    }
}
