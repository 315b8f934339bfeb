//! The `R`-entry integer timestamps carried by messages (`m.V`).

use std::fmt;
use std::ops::Index;
use std::rc::Rc;

/// The vector of integer counters attached to every broadcast message.
///
/// Unlike a classical vector clock, entries do not map one-to-one to
/// processes: with the probabilistic clock, each entry is shared by many
/// processes and each process owns several entries.
///
/// Entries live behind an `Rc` with copy-on-write semantics: cloning a
/// timestamp (attaching it to a message, fanning it out to N receivers)
/// is a reference-count bump, and the single mutation site per send
/// (`ProbClock::stamp_send` / `record_delivery`) pays the O(R) copy only
/// when the vector is actually shared.
///
/// The count is non-atomic on purpose, so a timestamp never leaves the
/// thread that made it. Every owner already lives on one thread: each
/// shell (the daemon's loop, the simulator, a hand-routed mesh) owns its
/// endpoints on one thread, and the simulator's `pool::run_indexed` jobs
/// build theirs inside the job. An atomic count would buy nothing but a
/// lock-prefixed read-modify-write on every clone and drop.
///
/// ```compile_fail
/// // What a thread spawn demands of what it moves: `Send + 'static`.
/// fn hand_to_another_thread<T: Send + 'static>(_: T) {}
/// hand_to_another_thread(pcb_clock::Timestamp::zero(4));
/// ```
///
/// ```
/// use pcb_clock::Timestamp;
/// let ts = Timestamp::from_entries(vec![1, 2, 0, 0]);
/// assert_eq!(ts.len(), 4);
/// assert_eq!(ts[1], 2);
/// assert_eq!(ts.to_string(), "[1,2,0,0]");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Timestamp {
    entries: Rc<Vec<u64>>,
}

impl Timestamp {
    /// An all-zero timestamp of length `r` (the initial-state vector).
    #[must_use]
    pub fn zero(r: usize) -> Self {
        Self { entries: Rc::new(vec![0; r]) }
    }

    /// Wraps raw entries.
    #[must_use]
    pub fn from_entries(entries: Vec<u64>) -> Self {
        Self { entries: Rc::new(entries) }
    }

    /// Whether `self` and `other` share one entry allocation — true after
    /// a clone until either side mutates. Exposed for sharing assertions.
    #[must_use]
    pub fn shares_storage_with(&self, other: &Timestamp) -> bool {
        Rc::ptr_eq(&self.entries, &other.entries)
    }

    /// Number of entries, `R`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the vector has no entries (degenerate, `R = 0`).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Immutable view of the entries.
    #[must_use]
    pub fn entries(&self) -> &[u64] {
        &self.entries
    }

    /// Entry accessor with bounds checking.
    #[must_use]
    pub fn get(&self, index: usize) -> Option<u64> {
        self.entries.get(index).copied()
    }

    /// Sum of all entries — total send events reflected in the stamp.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.entries.iter().sum()
    }

    /// Component-wise `self >= other` (vector dominance).
    ///
    /// # Panics
    ///
    /// Panics if the two timestamps have different lengths — mixing clock
    /// configurations is a programming error.
    #[must_use]
    pub fn dominates(&self, other: &Timestamp) -> bool {
        assert_eq!(self.len(), other.len(), "timestamp length mismatch");
        self.entries.iter().zip(other.entries.iter()).all(|(a, b)| a >= b)
    }

    /// Component-wise maximum, in place. Used by the merge-variant ablation
    /// and by the simulator's ε-estimator oracle, *not* by the paper's
    /// delivery rule (which increments, see `ProbClock::record_delivery`).
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn merge_max(&mut self, other: &Timestamp) {
        assert_eq!(self.len(), other.len(), "timestamp length mismatch");
        for (a, b) in self.entries_mut().iter_mut().zip(other.entries.iter()) {
            *a = (*a).max(*b);
        }
    }

    /// Serialized wire size in bytes (entries as fixed 8-byte integers) —
    /// the control-information overhead the paper sets out to shrink.
    #[must_use]
    pub fn wire_size(&self) -> usize {
        self.entries.len() * std::mem::size_of::<u64>()
    }

    pub(crate) fn entries_mut(&mut self) -> &mut [u64] {
        // Copy-on-write: unshare only if another handle still points at
        // this allocation (the one O(R) copy per Algorithm 1 mutation).
        Rc::make_mut(&mut self.entries).as_mut_slice()
    }

    /// Whether this handle is the only owner of the entry allocation —
    /// the precondition for recycling it through a [`crate::StampPool`]
    /// without observable aliasing.
    #[must_use]
    pub fn is_uniquely_owned(&self) -> bool {
        Rc::strong_count(&self.entries) == 1 && Rc::weak_count(&self.entries) == 0
    }

    /// The entries, resized to `len` in place, for writing — when this
    /// handle uniquely owns the allocation, which keeps its storage (no
    /// heap traffic when the length already matches; old values stay in
    /// the slots). One uniqueness check, `Rc::get_mut`, covers both the
    /// resize and the writes. `None` — leaving `self` untouched — if the
    /// allocation is shared.
    pub(crate) fn unique_entries(&mut self, len: usize) -> Option<&mut [u64]> {
        let own = Rc::get_mut(&mut self.entries)?;
        own.resize(len, 0);
        Some(own)
    }
}

impl Index<usize> for Timestamp {
    type Output = u64;

    fn index(&self, index: usize) -> &u64 {
        &self.entries[index]
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, "]")
    }
}

impl FromIterator<u64> for Timestamp {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        Self { entries: Rc::new(iter.into_iter().collect()) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_all_zero() {
        let ts = Timestamp::zero(4);
        assert_eq!(ts.entries(), &[0, 0, 0, 0]);
        assert_eq!(ts.total(), 0);
        assert!(!ts.is_empty());
        assert!(Timestamp::zero(0).is_empty());
    }

    #[test]
    fn dominance() {
        let a = Timestamp::from_entries(vec![2, 1, 3]);
        let b = Timestamp::from_entries(vec![1, 1, 3]);
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
        assert!(a.dominates(&a));
    }

    #[test]
    #[should_panic(expected = "timestamp length mismatch")]
    fn dominance_length_mismatch_panics() {
        let a = Timestamp::zero(2);
        let b = Timestamp::zero(3);
        let _ = a.dominates(&b);
    }

    #[test]
    fn merge_max_componentwise() {
        let mut a = Timestamp::from_entries(vec![2, 0, 3]);
        let b = Timestamp::from_entries(vec![1, 5, 3]);
        a.merge_max(&b);
        assert_eq!(a.entries(), &[2, 5, 3]);
    }

    #[test]
    fn clone_shares_until_mutation() {
        let a = Timestamp::from_entries(vec![1, 2, 3]);
        let mut b = a.clone();
        assert!(a.shares_storage_with(&b), "clone is a refcount bump");
        b.entries_mut()[0] = 9;
        assert!(!a.shares_storage_with(&b), "mutation unshares");
        assert_eq!(a.entries(), &[1, 2, 3]);
        assert_eq!(b.entries(), &[9, 2, 3]);
    }

    #[test]
    fn accessors() {
        let ts: Timestamp = [4u64, 5, 6].into_iter().collect();
        assert_eq!(ts.get(1), Some(5));
        assert_eq!(ts.get(3), None);
        assert_eq!(ts[2], 6);
        assert_eq!(ts.total(), 15);
        assert_eq!(ts.wire_size(), 24);
    }
}
