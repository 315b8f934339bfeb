//! The probabilistic `(R, K)` clock — the paper's core contribution.
//!
//! A [`ProbClock`] holds the local vector `V_i` of `R` counters and
//! implements the three primitives of §4.1.2:
//!
//! * [`ProbClock::stamp_send`] — Algorithm 1: increment every entry in
//!   `f(p_i)`, attach a copy of the vector to the message;
//! * [`ProbClock::is_deliverable`] — the wait-condition of Algorithm 2:
//!   sender entries `V_i[x] >= m.V[x] - 1`, all others `V_i[k] >= m.V[k]`;
//! * [`ProbClock::record_delivery`] — the post-condition of Algorithm 2:
//!   increment every entry in `f(p_j)` (increment, **not** merge — with
//!   shared entries the two differ, see the ablation benches).
//!
//! The coverage test of Algorithm 4 ([`ProbClock::is_covered`]) is also
//! here because it reads only the local vector.

use crate::{KeySet, StampPool, Timestamp};

/// Why a message is (or is not) deliverable, as reported by
/// [`ProbClock::deliverability_gap`].
///
/// A `Blocked` gap names the **first** vector entry whose wait-condition
/// fails and the local value that entry must reach. Because local clock
/// entries only grow and the required values are fixed per message, the
/// gap is *monotone*: once an entry's condition holds it holds forever,
/// so re-checking a blocked message can resume the scan from the last
/// blocking entry instead of restarting at zero
/// ([`ProbClock::deliverability_gap_from`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gap {
    /// Every entry satisfies the Algorithm 2 wait-condition.
    Ready,
    /// Entry `entry` is the first violation: delivery requires
    /// `V_i[entry] >= required`.
    Blocked {
        /// Index of the first blocked vector entry.
        entry: usize,
        /// The local value that entry must reach.
        required: u64,
    },
    /// No local progress can ever satisfy the stamp (used by exact
    /// disciplines for stamps from evicted processes; the probabilistic
    /// guard itself never produces this).
    Never,
}

impl Gap {
    /// Whether the message is deliverable now.
    #[must_use]
    pub fn is_ready(&self) -> bool {
        matches!(self, Self::Ready)
    }
}

/// Local state of the probabilistic causal ordering mechanism for one
/// process: the `R`-entry counter vector `V_i`.
///
/// ```
/// use pcb_clock::{KeySet, KeySpace, ProbClock};
/// let space = KeySpace::new(4, 2)?;
/// let f_i = KeySet::from_entries(space, &[0, 1])?;
/// let mut clock = ProbClock::new(space);
/// let ts = clock.stamp_send(&f_i);
/// assert_eq!(ts.entries(), &[1, 1, 0, 0]); // paper Figure 1
/// # Ok::<(), pcb_clock::KeyError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbClock {
    // Struct-of-arrays: the local vector is a plain contiguous `u64`
    // slice, not a shared `Timestamp`. Algorithm 2's guard and the gap
    // scan walk it directly, and the per-delivery increment never pays a
    // copy-on-write unshare (the clock is the sole owner by construction;
    // outgoing stamps snapshot it instead of aliasing it).
    entries: Vec<u64>,
}

impl ProbClock {
    /// A fresh clock (all entries zero) for the given space.
    #[must_use]
    pub fn new(space: crate::KeySpace) -> Self {
        Self { entries: vec![0; space.r()] }
    }

    /// A fresh clock with an explicit vector length.
    #[must_use]
    pub fn with_len(r: usize) -> Self {
        Self { entries: vec![0; r] }
    }

    /// Restores a clock from a previously captured vector (recovery,
    /// state transfer to a joining process).
    #[must_use]
    pub fn from_vector(vector: Timestamp) -> Self {
        Self { entries: vector.entries().to_vec() }
    }

    /// Vector length `R`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the vector has no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Read-only view of the local vector `V_i` as one contiguous slice.
    #[must_use]
    pub fn entries(&self) -> &[u64] {
        &self.entries
    }

    /// Snapshots the local vector into a standalone [`Timestamp`]
    /// (allocates; cold paths only — the hot send path goes through
    /// [`ProbClock::stamp_send_into`]).
    #[must_use]
    pub fn to_timestamp(&self) -> Timestamp {
        Timestamp::from_entries(self.entries.clone())
    }

    /// **Algorithm 1.** Increments the caller's own entries `f(p_i)` and
    /// returns the timestamp to attach to the outgoing message.
    ///
    /// # Panics
    ///
    /// Panics if `own_keys` indexes outside the vector (mismatched space).
    pub fn stamp_send(&mut self, own_keys: &KeySet) -> Timestamp {
        for entry in own_keys.iter() {
            self.entries[entry] += 1;
        }
        Timestamp::from_entries(self.entries.clone())
    }

    /// [`ProbClock::stamp_send`] with the snapshot written into a buffer
    /// recycled from `pool` — zero heap traffic when the pool has a
    /// buffer of the right length.
    ///
    /// # Panics
    ///
    /// Panics if `own_keys` indexes outside the vector (mismatched space).
    pub fn stamp_send_into(&mut self, own_keys: &KeySet, pool: &mut StampPool) -> Timestamp {
        for entry in own_keys.iter() {
            self.entries[entry] += 1;
        }
        pool.stamp_from(&self.entries)
    }

    /// **Algorithm 2 (guard).** Whether a message timestamped `ts` from a
    /// sender with keys `sender_keys` is causally ready:
    ///
    /// * for `x ∈ f(p_j)`: `V_i[x] >= ts[x] - 1` (all of the sender's own
    ///   earlier messages are reflected locally), and
    /// * for `x ∉ f(p_j)`: `V_i[x] >= ts[x]` (everything the sender had
    ///   delivered before sending is reflected locally).
    ///
    /// `ts` must have the local vector's length (see
    /// [`ProbClock::deliverability_gap_from`]).
    #[must_use]
    pub fn is_deliverable(&self, ts: &Timestamp, sender_keys: &KeySet) -> bool {
        self.deliverability_gap(ts, sender_keys).is_ready()
    }

    /// Like [`ProbClock::is_deliverable`], but on failure reports the
    /// first blocked entry and the local value it must reach, so callers
    /// can index blocked messages by the entry they wait on instead of
    /// rescanning the whole pending queue after every delivery.
    #[must_use]
    pub fn deliverability_gap(&self, ts: &Timestamp, sender_keys: &KeySet) -> Gap {
        self.deliverability_gap_from(ts, sender_keys, 0)
    }

    /// Resumable variant of [`ProbClock::deliverability_gap`]: starts the
    /// scan at entry `start`, assuming entries `0..start` were already
    /// found satisfied. Sound because the wait-condition is monotone in
    /// the local clock — satisfied entries stay satisfied. A blocked
    /// message re-checked with its last reported gap as `start` therefore
    /// costs `O(R)` *total* across all re-checks, not per re-check.
    ///
    /// **Precondition:** `ts` has the local vector's length and
    /// `sender_keys` come from its key space. Whoever admits stamps from
    /// outside the program checks that once, where they enter
    /// (`Endpoint::route`); on a mismatch the verdict is meaningless —
    /// never memory-unsafe.
    #[must_use]
    pub fn deliverability_gap_from(
        &self,
        ts: &Timestamp,
        sender_keys: &KeySet,
        start: usize,
    ) -> Gap {
        debug_assert_eq!(self.entries.len(), ts.len(), "timestamp length mismatch");
        guard_gap(&self.entries, ts.entries(), sender_keys.entries(), start)
    }

    /// **Algorithm 2 (post).** Records a delivery from a sender with keys
    /// `sender_keys` by incrementing those entries in the local vector.
    ///
    /// # Panics
    ///
    /// Panics if `sender_keys` indexes outside the vector.
    pub fn record_delivery(&mut self, sender_keys: &KeySet) {
        for entry in sender_keys.iter() {
            self.entries[entry] += 1;
        }
    }

    /// Records a delivery by raw entry indices rather than a [`KeySet`] —
    /// the cross-geometry hook for config migration, where a delivery
    /// drained in an old `(R, K)` space is absorbed into the new clock at
    /// the projected entries (which may repeat after folding).
    ///
    /// # Panics
    ///
    /// Panics if an index is outside the vector.
    pub fn record_delivery_entries(&mut self, entries: impl IntoIterator<Item = usize>) {
        for entry in entries {
            self.entries[entry] += 1;
        }
    }

    /// **Algorithm 4 predicate.** Whether every sender entry of `ts` is
    /// already matched locally (`∀x ∈ f(p_j): V_i[x] >= ts[x]`), i.e. no
    /// entry satisfies the "exactly one behind" relation `V_i[x] = ts[x]-1`.
    ///
    /// When this returns `true` at delivery time, concurrent messages have
    /// covered all of the sender's entries and the delivery *may* be a
    /// causal-order violation; `false` guarantees it is not.
    ///
    /// # Panics
    ///
    /// Panics if `ts` is shorter than the largest sender key.
    #[must_use]
    pub fn is_covered(&self, ts: &Timestamp, sender_keys: &KeySet) -> bool {
        sender_keys.iter().all(|x| self.entries[x] >= ts[x])
    }

    /// Overwrites the local vector (anti-entropy / recovery hook).
    pub fn reset_to(&mut self, vector: Timestamp) {
        self.entries.clear();
        self.entries.extend_from_slice(vector.entries());
    }

    /// Overwrites the local vector from raw entries, reusing the existing
    /// allocation when the lengths match.
    pub fn reset_to_entries(&mut self, entries: &[u64]) {
        self.entries.clear();
        self.entries.extend_from_slice(entries);
    }

    /// Component-wise maximum with raw entries, in place — the merge
    /// ablation's delivery rule.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn merge_max_from(&mut self, other: &[u64]) {
        assert_eq!(self.entries.len(), other.len(), "timestamp length mismatch");
        for (a, b) in self.entries.iter_mut().zip(other) {
            *a = (*a).max(*b);
        }
    }
}

/// The Algorithm 2 guard kernel: *count pass → K corrections → exact
/// fallback*. `sender_entries` are the strictly increasing entries allowed
/// to be one behind — a key set's, or a vector clock's single sender slot.
///
/// The count pass adds up, without a branch, how many entries of
/// `local[start..]` are below `remote[start..]`: the sign bit of the
/// wrapping difference `local − remote`. While `remote` is below 2⁶³ that
/// bit is set for every `local < remote` (the difference lies in
/// `(−2⁶³, 0)`), so no behind entry is missed; it is also set for a
/// `local` 2⁶³ or more above `remote` (a merge ablation can grow one that
/// far), but such a false count can only keep the verdict from the fast
/// path, never admit a message. An OR over the stamp's values notices any
/// at or above 2⁶³ and hands the whole verdict to the exact walk. Of the
/// counted entries, the sender's own (at most `K`) may legitimately be
/// exactly one behind; those are taken off. Nothing left means
/// [`Gap::Ready`] — the common verdict, and the only one that never needs
/// an entry named. Otherwise the exact walk names the first blocked entry.
///
/// **Precondition:** `local` and `remote` have one length and
/// `sender_entries` index inside it; otherwise the verdict is meaningless.
#[must_use]
pub fn guard_gap(local: &[u64], remote: &[u64], sender_entries: &[u32], start: usize) -> Gap {
    let from = start.min(local.len()).min(remote.len());
    let mut behind = 0u64;
    let mut seen = 0u64;
    for (&mine, &theirs) in local[from..].iter().zip(&remote[from..]) {
        behind += mine.wrapping_sub(theirs) >> 63;
        seen |= theirs;
    }
    if seen >> 63 == 0 {
        for entry in sender_entries.iter().map(|&e| e as usize).filter(|&e| e >= start) {
            if let (Some(&mine), Some(&theirs)) = (local.get(entry), remote.get(entry)) {
                behind -= u64::from(theirs.checked_sub(1) == Some(mine));
            }
        }
        if behind == 0 {
            return Gap::Ready;
        }
    }
    match blocked_walk(local, remote, sender_entries, start).next() {
        Some((entry, required)) => Gap::Blocked { entry, required },
        None => Gap::Ready,
    }
}

/// The exact scalar walk: every `(entry, required)` at or after `start`
/// whose wait-condition fails, in entry order — a merged walk over the
/// vector and the sorted sender entries.
fn blocked_walk<'a>(
    local: &'a [u64],
    remote: &'a [u64],
    sender_entries: &'a [u32],
    start: usize,
) -> impl Iterator<Item = (usize, u64)> + 'a {
    let mut keys =
        sender_entries.iter().map(|&e| e as usize).skip_while(move |&e| e < start).peekable();
    local.iter().zip(remote).enumerate().skip(start).filter_map(move |(index, (&mine, &theirs))| {
        let is_sender_entry = keys.next_if_eq(&index).is_some();
        let required = if is_sender_entry { theirs.saturating_sub(1) } else { theirs };
        (mine < required).then_some((index, required))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KeySpace, Timestamp};

    fn space4x2() -> crate::KeySpace {
        KeySpace::new(4, 2).unwrap()
    }

    fn keys(entries: &[usize]) -> KeySet {
        KeySet::from_entries(space4x2(), entries).unwrap()
    }

    #[test]
    fn figure1_nominal_scenario() {
        // Paper Figure 1: R = 4, K = 2, f(p_i) = {0,1}, f(p_j) = {1,2}.
        let f_i = keys(&[0, 1]);
        let f_j = keys(&[1, 2]);

        let mut pi = ProbClock::new(space4x2());
        let mut pj = ProbClock::new(space4x2());
        let mut pk = ProbClock::new(space4x2());

        // p_i broadcasts m.
        let m = pi.stamp_send(&f_i);
        assert_eq!(m.entries(), &[1, 1, 0, 0]);

        // p_j receives m first: deliverable, vector becomes [1,1,0,0].
        assert!(pj.is_deliverable(&m, &f_i));
        pj.record_delivery(&f_i);
        assert_eq!(pj.entries(), &[1, 1, 0, 0]);

        // p_j broadcasts m' -> [1,2,1,0].
        let m_prime = pj.stamp_send(&f_j);
        assert_eq!(m_prime.entries(), &[1, 2, 1, 0]);

        // p_k receives m' before m: delayed.
        assert!(!pk.is_deliverable(&m_prime, &f_j));

        // m arrives: deliverable; after it, m' becomes deliverable.
        assert!(pk.is_deliverable(&m, &f_i));
        pk.record_delivery(&f_i);
        assert_eq!(pk.entries(), &[1, 1, 0, 0]);
        assert!(pk.is_deliverable(&m_prime, &f_j));
        pk.record_delivery(&f_j);
        assert_eq!(pk.entries(), &[1, 2, 1, 0]);
    }

    #[test]
    fn figure2_delivery_error_scenario() {
        // Figure 2 adds p_1 (f = {0,3}) and p_2 (f = {1,3}) whose
        // concurrent messages cover f(p_i) = {0,1} and let m' slip past m.
        let f_i = keys(&[0, 1]);
        let f_j = keys(&[1, 2]);
        let f_1 = keys(&[0, 3]);
        let f_2 = keys(&[1, 3]);

        let mut pi = ProbClock::new(space4x2());
        let mut pj = ProbClock::new(space4x2());
        let mut p1 = ProbClock::new(space4x2());
        let mut p2 = ProbClock::new(space4x2());
        let mut pk = ProbClock::new(space4x2());

        let m = pi.stamp_send(&f_i);
        pj.record_delivery(&f_i); // p_j delivered m
        let m_prime = pj.stamp_send(&f_j);
        let m1 = p1.stamp_send(&f_1);
        let m2 = p2.stamp_send(&f_2);

        // p_k receives m2 then m1 (both concurrent with m).
        assert!(pk.is_deliverable(&m2, &f_2));
        pk.record_delivery(&f_2);
        assert!(pk.is_deliverable(&m1, &f_1));
        pk.record_delivery(&f_1);
        assert_eq!(pk.entries(), &[1, 1, 0, 2]);

        // m' now (wrongly) looks deliverable although m was never received.
        assert!(pk.is_deliverable(&m_prime, &f_j));

        // Algorithm 4 raises the alert: all f(p_j) entries of m' are NOT
        // exactly-one-behind... the alert fires when every sender entry is
        // already matched. Here V_k[1]=1 = m'.V[1]-1, so no alert for m'
        // itself; the alert fires for the *late* message m when it arrives.
        pk.record_delivery(&f_j);
        assert!(pk.is_covered(&m, &f_i), "late m arrives fully covered -> alert");
    }

    #[test]
    fn initial_message_deliverable_everywhere() {
        // Lemma 1 base case H0: messages stamped from the initial state
        // are deliverable by any fresh process.
        let space = KeySpace::new(8, 3).unwrap();
        for id in 0..space.combination_count().min(56) {
            let k = KeySet::from_set_id(space, id).unwrap();
            let mut sender = ProbClock::new(space);
            let ts = sender.stamp_send(&k);
            let receiver = ProbClock::new(space);
            assert!(receiver.is_deliverable(&ts, &k));
        }
    }

    #[test]
    fn second_message_blocked_until_first_delivered() {
        let space = space4x2();
        let f = keys(&[1, 2]);
        let mut sender = ProbClock::new(space);
        let ts1 = sender.stamp_send(&f);
        let ts2 = sender.stamp_send(&f);

        let mut receiver = ProbClock::new(space);
        assert!(!receiver.is_deliverable(&ts2, &f), "FIFO gap must block");
        assert!(receiver.is_deliverable(&ts1, &f));
        receiver.record_delivery(&f);
        assert!(receiver.is_deliverable(&ts2, &f));
    }

    #[test]
    fn causally_ready_message_never_delayed() {
        // Corollary 1: if everything in the causal past is delivered, the
        // message is immediately deliverable.
        let space = KeySpace::new(6, 2).unwrap();
        let fa = KeySet::from_entries(space, &[0, 1]).unwrap();
        let fb = KeySet::from_entries(space, &[2, 3]).unwrap();
        let mut a = ProbClock::new(space);
        let mut b = ProbClock::new(space);
        let mut c = ProbClock::new(space);

        let m1 = a.stamp_send(&fa);
        b.record_delivery(&fa);
        let m2 = b.stamp_send(&fb);

        assert!(c.is_deliverable(&m1, &fa));
        c.record_delivery(&fa);
        assert!(c.is_deliverable(&m2, &fb), "causal past delivered => ready");
    }

    #[test]
    fn is_covered_detects_exact_match() {
        let space = space4x2();
        let f = keys(&[0, 1]);
        let mut sender = ProbClock::new(space);
        let ts = sender.stamp_send(&f);

        let mut receiver = ProbClock::new(space);
        assert!(!receiver.is_covered(&ts, &f), "fresh receiver is one behind");
        receiver.record_delivery(&f);
        assert!(receiver.is_covered(&ts, &f), "after delivery, entries match");
    }

    #[test]
    fn lamport_configuration_degenerates() {
        // (R, K) = (1, 1): every send bumps the same counter, so a second
        // message from anyone is blocked until the first is delivered.
        let space = KeySpace::lamport();
        let f = KeySet::from_set_id(space, 0).unwrap();
        let mut a = ProbClock::new(space);
        let m1 = a.stamp_send(&f);
        let m2 = a.stamp_send(&f);
        let mut rx = ProbClock::new(space);
        assert!(rx.is_deliverable(&m1, &f));
        assert!(!rx.is_deliverable(&m2, &f));
        rx.record_delivery(&f);
        assert!(rx.is_deliverable(&m2, &f));
    }

    #[test]
    fn vector_configuration_is_exact() {
        // (R, K) = (N, 1) with distinct entries: no covering is possible,
        // so the Figure-2 interleaving cannot produce a wrong delivery.
        let n = 5;
        let space = KeySpace::vector(n).unwrap();
        let f: Vec<KeySet> = (0..n).map(|i| KeySet::singleton(space, i).unwrap()).collect();

        let mut pi = ProbClock::new(space);
        let mut pj = ProbClock::new(space);
        let mut p1 = ProbClock::new(space);
        let mut p2 = ProbClock::new(space);
        let mut pk = ProbClock::new(space);

        let m = pi.stamp_send(&f[0]);
        pj.record_delivery(&f[0]);
        let m_prime = pj.stamp_send(&f[1]);
        let m1 = p1.stamp_send(&f[2]);
        let m2 = p2.stamp_send(&f[3]);

        pk.record_delivery(&f[3]);
        let _ = m2;
        pk.record_delivery(&f[2]);
        let _ = m1;
        assert!(
            !pk.is_deliverable(&m_prime, &f[1]),
            "vector configuration must block m' until m is delivered"
        );
        assert!(pk.is_deliverable(&m, &f[0]));
    }

    #[test]
    fn gap_agrees_with_is_deliverable() {
        let space = space4x2();
        let f_i = keys(&[0, 1]);
        let f_j = keys(&[1, 2]);
        let mut pi = ProbClock::new(space);
        let mut pj = ProbClock::new(space);

        let m = pi.stamp_send(&f_i);
        pj.record_delivery(&f_i);
        let m_prime = pj.stamp_send(&f_j);

        let pk = ProbClock::new(space);
        assert_eq!(pk.deliverability_gap(&m, &f_i), Gap::Ready);
        assert!(pk.is_deliverable(&m, &f_i));

        // m' = [1,2,1,0] at a fresh p_k: entry 0 is non-sender and needs
        // V[0] >= 1 — the first violation.
        assert_eq!(pk.deliverability_gap(&m_prime, &f_j), Gap::Blocked { entry: 0, required: 1 });
        assert!(!pk.is_deliverable(&m_prime, &f_j));
    }

    #[test]
    fn gap_resume_skips_verified_prefix() {
        let space = space4x2();
        let f_i = keys(&[0, 1]);
        let f_j = keys(&[1, 2]);
        let mut pi = ProbClock::new(space);
        let mut pj = ProbClock::new(space);
        pi.record_delivery(&f_j); // raise a non-sender entry in m's stamp
        let m = pi.stamp_send(&f_i);
        let _ = pj.stamp_send(&f_j);

        let mut pk = ProbClock::new(space);
        // m = [1,2,1,0] from f_i={0,1}: entry 1 is a sender entry needing
        // V[1] >= 1; entry 2 is non-sender needing V[2] >= 1.
        let first = pk.deliverability_gap(&m, &f_i);
        assert_eq!(first, Gap::Blocked { entry: 1, required: 1 });

        // Deliver m_j (f_j = {1,2}) to advance entries 1 and 2.
        pk.record_delivery(&f_j);
        // Resuming at the old gap gives the same verdict as a full scan.
        let resumed = pk.deliverability_gap_from(&m, &f_i, 1);
        assert_eq!(resumed, pk.deliverability_gap(&m, &f_i));
        assert_eq!(resumed, Gap::Ready);
    }

    #[test]
    fn gap_first_blocked_entry_increases_monotonically() {
        // Drive random-ish scenarios: whenever a message stays blocked
        // across deliveries, the first blocked entry never moves left.
        let space = KeySpace::new(8, 3).unwrap();
        let sender = KeySet::from_entries(space, &[1, 4, 6]).unwrap();
        let other = KeySet::from_entries(space, &[0, 2, 5]).unwrap();
        let mut src = ProbClock::new(space);
        src.record_delivery(&other);
        src.record_delivery(&other);
        let _ = src.stamp_send(&sender);
        let ts = src.stamp_send(&sender);

        let mut rx = ProbClock::new(space);
        let mut last_entry = 0usize;
        for _ in 0..6 {
            match rx.deliverability_gap_from(&ts, &sender, last_entry) {
                Gap::Ready => break,
                Gap::Blocked { entry, .. } => {
                    assert!(entry >= last_entry, "gap moved backwards");
                    last_entry = entry;
                    rx.record_delivery(&other);
                    rx.record_delivery(&sender);
                }
                Gap::Never => unreachable!("prob guard never yields Never"),
            }
        }
        assert_eq!(rx.deliverability_gap(&ts, &sender), Gap::Ready);
    }

    #[test]
    fn from_vector_restores_state() {
        let ts = Timestamp::from_entries(vec![3, 1, 4]);
        let clock = ProbClock::from_vector(ts.clone());
        assert_eq!(clock.to_timestamp(), ts);
        assert_eq!(clock.len(), 3);
    }

    #[test]
    fn reset_to_overwrites() {
        let mut clock = ProbClock::with_len(3);
        clock.reset_to(Timestamp::from_entries(vec![9, 9, 9]));
        assert_eq!(clock.entries(), &[9, 9, 9]);
    }
}
