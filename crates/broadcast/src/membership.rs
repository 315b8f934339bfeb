//! Group membership with continuous joins, leaves, and reconfiguration.
//!
//! The probabilistic mechanism's headline property (paper §1, §2) is that
//! timestamps do not encode membership: a process joins by drawing a
//! random `set_id` — no global reconfiguration, no agreement, no resizing
//! of anyone's vector. [`Group`] is the config-plane driver for that
//! story: it owns the authoritative [`ClusterConfig`], hands out
//! identities and key sets in the current epoch, migrates every member's
//! keys deterministically across an `(R, K)` reconfiguration, and retires
//! departed members behind a watermark so churn never grows memory
//! without bound.

use std::collections::BTreeMap;

use pcb_clock::{
    AssignmentError, AssignmentPolicy, ClusterConfig, KeyAssigner, KeyError, KeySet, KeySpace,
    ProcessId,
};

/// A member's standing in the group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemberState {
    /// Participating: sends and receives.
    Alive,
    /// Departed (voluntarily or by crash); retained for id stability
    /// until compacted past the retirement watermark.
    Left,
}

/// Membership registry and configuration-plane driver.
///
/// ```
/// use pcb_broadcast::{Group};
/// use pcb_clock::{AssignmentPolicy, KeySpace};
/// let space = KeySpace::new(100, 4)?;
/// let mut group = Group::new(space, AssignmentPolicy::UniformRandom, 7);
/// let (alice, alice_keys) = group.join()?;
/// let (bob, _) = group.join()?;
/// assert_eq!(group.alive_count(), 2);
/// group.leave(alice);
/// assert_eq!(group.alive_count(), 1);
/// assert_eq!(alice_keys.len(), 4);
///
/// // Online (R, K) reconfiguration: epoch bumps, keys re-derive.
/// let new = group.reconfigure(KeySpace::new(128, 4)?)?;
/// assert_eq!(new.epoch, 1);
/// assert!(group.alive().all(|(id, keys)| id == bob && keys.space().r() == 128));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Group {
    config: ClusterConfig,
    assigner: KeyAssigner,
    members: BTreeMap<ProcessId, (KeySet, MemberState)>,
    next_id: usize,
    seed: u64,
    left: usize,
}

impl Group {
    /// Retirement watermark: departed members kept around for late-frame
    /// attribution before compaction reclaims the oldest.
    pub const DEFAULT_LEFT_WATERMARK: usize = 1024;

    /// Creates an empty group over the given key space (config epoch 0).
    #[must_use]
    pub fn new(space: KeySpace, policy: AssignmentPolicy, seed: u64) -> Self {
        Self::with_config(ClusterConfig::with_policy(space, policy), seed)
    }

    /// Creates an empty group from an explicit cluster configuration.
    #[must_use]
    pub fn with_config(config: ClusterConfig, seed: u64) -> Self {
        Self {
            config,
            assigner: KeyAssigner::new(config.space, config.policy, seed ^ config.epoch),
            members: BTreeMap::new(),
            next_id: 0,
            seed,
            left: 0,
        }
    }

    /// The key space members draw from (current epoch's).
    #[must_use]
    pub fn space(&self) -> KeySpace {
        self.config.space
    }

    /// The cluster configuration in force.
    #[must_use]
    pub fn config(&self) -> ClusterConfig {
        self.config
    }

    /// The current configuration epoch.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.config.epoch
    }

    /// Admits a new member: allocates a fresh id and draws its key set in
    /// the current epoch's space.
    ///
    /// # Errors
    ///
    /// Propagates [`AssignmentError`] (only possible under the
    /// `DistinctRandom` policy once the space is exhausted).
    pub fn join(&mut self) -> Result<(ProcessId, KeySet), AssignmentError> {
        let keys = self.assigner.next_set()?;
        let id = ProcessId::new(self.next_id);
        self.next_id += 1;
        self.members.insert(id, (keys.clone(), MemberState::Alive));
        Ok((id, keys))
    }

    /// Marks a member as departed. Unknown ids are ignored (leave is
    /// idempotent and may race with crash detection). Departed entries
    /// past the watermark are compacted, oldest first.
    pub fn leave(&mut self, id: ProcessId) {
        if let Some((_, state)) = self.members.get_mut(&id) {
            if *state == MemberState::Alive {
                *state = MemberState::Left;
                self.left += 1;
            }
        }
        self.compact_left();
    }

    /// Drops the oldest `Left` entries until at most
    /// [`Group::DEFAULT_LEFT_WATERMARK`] remain. Ids are never reused (`next_id` is monotone), so a retired
    /// member simply becomes unknown — exactly like a process that never
    /// joined, which every protocol path already tolerates.
    fn compact_left(&mut self) {
        while self.left > Self::DEFAULT_LEFT_WATERMARK {
            let oldest = self
                .members
                .iter()
                .find(|(_, (_, s))| *s == MemberState::Left)
                .map(|(id, _)| *id)
                .expect("left count says a Left entry exists");
            self.members.remove(&oldest);
            self.left -= 1;
        }
    }

    /// Migrates the group to a new `(R, K)` space: bumps the config
    /// epoch, deterministically re-derives every member's key set
    /// (`set_id mod C(R', K')`, see [`ClusterConfig::migrate_keys`]), and
    /// restarts the assigner in the new space so newcomers draw there.
    /// Returns the new configuration.
    ///
    /// # Errors
    ///
    /// [`KeyError`] if the new space is degenerate; the group is left
    /// unchanged in that case.
    pub fn reconfigure(&mut self, space: KeySpace) -> Result<ClusterConfig, KeyError> {
        let next = self.config.reconfigured(space);
        let mut migrated = BTreeMap::new();
        for (id, (keys, state)) in &self.members {
            migrated.insert(*id, (next.migrate_keys(keys)?, *state));
        }
        self.members = migrated;
        self.config = next;
        // Re-seed deterministically per epoch: replaying the same join/
        // leave/reconfigure script reproduces the same assignments.
        self.assigner = KeyAssigner::new(next.space, next.policy, self.seed ^ next.epoch);
        Ok(next)
    }

    /// Iterates over currently alive members.
    pub fn alive(&self) -> impl Iterator<Item = (ProcessId, &KeySet)> {
        self.members
            .iter()
            .filter(|(_, (_, s))| *s == MemberState::Alive)
            .map(|(id, (k, _))| (*id, k))
    }

    /// Number of alive members.
    #[must_use]
    pub fn alive_count(&self) -> usize {
        self.members.len() - self.left
    }

    /// Total identities ever issued (alive + departed + retired).
    #[must_use]
    pub fn total_issued(&self) -> usize {
        self.next_id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group() -> Group {
        Group::new(KeySpace::new(10, 3).unwrap(), AssignmentPolicy::UniformRandom, 1)
    }

    fn keys_of(g: &Group, id: ProcessId) -> Option<&KeySet> {
        g.members.get(&id).map(|(keys, _)| keys)
    }

    fn state_of(g: &Group, id: ProcessId) -> Option<MemberState> {
        g.members.get(&id).map(|(_, state)| *state)
    }

    #[test]
    fn join_assigns_fresh_ids_and_valid_keys() {
        let mut g = group();
        let (a, ka) = g.join().unwrap();
        let (b, kb) = g.join().unwrap();
        assert_ne!(a, b);
        assert_eq!(ka.len(), 3);
        assert_eq!(kb.len(), 3);
        assert_eq!(keys_of(&g, a), Some(&ka));
        assert_eq!(g.total_issued(), 2);
        assert_eq!(g.epoch(), 0);
    }

    #[test]
    fn leave_is_idempotent_and_tolerates_unknown() {
        let mut g = group();
        let (a, _) = g.join().unwrap();
        g.leave(a);
        g.leave(a);
        g.leave(ProcessId::new(99));
        assert_eq!(state_of(&g, a), Some(MemberState::Left));
        assert_eq!(state_of(&g, ProcessId::new(99)), None);
        assert_eq!(g.alive_count(), 0);
        assert_eq!(g.left, 1);
    }

    #[test]
    fn churn_does_not_disturb_existing_keys() {
        // The crux of the paper's motivation: joins/leaves never force a
        // re-assignment of other members' entries.
        let mut g = group();
        let (a, ka) = g.join().unwrap();
        let (_b, _) = g.join().unwrap();
        for _ in 0..20 {
            let (id, _) = g.join().unwrap();
            g.leave(id);
        }
        assert_eq!(keys_of(&g, a), Some(&ka), "a's keys survive churn untouched");
        assert_eq!(g.alive_count(), 2);
        assert_eq!(g.total_issued(), 22);
    }

    #[test]
    fn alive_iterates_only_alive() {
        let mut g = group();
        let (a, _) = g.join().unwrap();
        let (b, _) = g.join().unwrap();
        g.leave(a);
        let alive: Vec<ProcessId> = g.alive().map(|(id, _)| id).collect();
        assert_eq!(alive, vec![b]);
    }

    #[test]
    fn left_entries_are_compacted_past_the_watermark() {
        let mut g = group();
        let watermark = Group::DEFAULT_LEFT_WATERMARK;
        let (keeper, _) = g.join().unwrap();
        let mut departed = Vec::new();
        for _ in 0..watermark + 5 {
            let (id, _) = g.join().unwrap();
            departed.push(id);
            g.leave(id);
        }
        assert_eq!(g.left, watermark, "compaction caps retained Left entries");
        // The oldest departures were retired; the newest are still known.
        assert_eq!(state_of(&g, departed[4]), None);
        assert_eq!(state_of(&g, departed[5]), Some(MemberState::Left));
        assert_eq!(state_of(&g, keeper), Some(MemberState::Alive));
        assert_eq!(g.alive_count(), 1);
        assert_eq!(g.total_issued(), watermark + 6, "retirement never recycles ids");
    }

    #[test]
    fn reconfigure_migrates_every_member_deterministically() {
        let mut g = group();
        let ids: Vec<_> = (0..8).map(|_| g.join().unwrap()).collect();
        let old_space = g.space();
        let new_space = KeySpace::new(16, 4).unwrap();
        let cfg = g.reconfigure(new_space).unwrap();
        assert_eq!(cfg.epoch, 1);
        assert_eq!(g.space(), new_space);
        for (id, old_keys) in &ids {
            let migrated = keys_of(&g, *id).unwrap();
            assert_eq!(migrated.space(), new_space);
            // Deterministic: any process recomputes the same mapping.
            assert_eq!(migrated, &cfg.migrate_keys(old_keys).unwrap());
        }
        // Newcomers draw in the new space.
        let (_, keys) = g.join().unwrap();
        assert_eq!(keys.space(), new_space);
        let _ = old_space;
    }

    #[test]
    fn reconfigure_script_is_reproducible() {
        let run = || {
            let mut g = group();
            let mut sets = Vec::new();
            for _ in 0..4 {
                sets.push(g.join().unwrap());
            }
            g.reconfigure(KeySpace::new(20, 3).unwrap()).unwrap();
            for _ in 0..4 {
                sets.push(g.join().unwrap());
            }
            sets
        };
        assert_eq!(run(), run(), "same seed + same script ⇒ same assignments");
    }
}
