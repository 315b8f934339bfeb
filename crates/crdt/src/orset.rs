//! Observed-Remove Set (OR-Set): the canonical op-based CRDT that *needs*
//! causal delivery.
//!
//! `add(e)` generates a globally unique tag; `remove(e)` removes exactly
//! the tags the remover has *observed*. Under causal delivery a remove is
//! always applied after every add it observed, so "add wins over
//! concurrent remove" holds and replicas converge. Without causal order a
//! remove can arrive before its adds — the tags survive and the element
//! wrongly resurrects (the anomaly the `orset_replicas` example counts).

use std::collections::{BTreeMap, BTreeSet};

/// A unique tag: (replica id, per-replica counter).
pub type Tag = (u64, u64);

/// OR-Set operations, broadcast to all replicas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OrSetOp<E> {
    /// Insert `element` with a fresh unique tag.
    Add {
        /// The element.
        element: E,
        /// Its unique tag.
        tag: Tag,
    },
    /// Remove the *observed* tags of `element`.
    Remove {
        /// The element.
        element: E,
        /// Tags observed by the remover at remove time.
        tags: Vec<Tag>,
    },
}

/// An OR-Set replica.
///
/// ```
/// use pcb_crdt::OrSet;
/// let mut a = OrSet::new(1);
/// let add = a.add("x");
/// let mut b = OrSet::new(2);
/// b.apply(&add);
/// let remove = b.remove(&"x").expect("x is present at b");
/// a.apply(&remove);
/// assert!(!a.contains(&"x"));
/// assert_eq!(a.elements().count(), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrSet<E: Ord + Clone> {
    replica: u64,
    counter: u64,
    live: BTreeMap<E, BTreeSet<Tag>>,
    /// Tombstones guard against *FIFO-violating* redelivery of adds whose
    /// remove already applied (cannot happen under causal delivery; kept
    /// so the anomaly experiments measure semantics, not crashes).
    removed: BTreeSet<Tag>,
}

impl<E: Ord + Clone> OrSet<E> {
    /// An empty set owned by `replica` (unique per process).
    #[must_use]
    pub fn new(replica: u64) -> Self {
        Self { replica, counter: 0, live: BTreeMap::new(), removed: BTreeSet::new() }
    }

    /// Local add: applies immediately and returns the op to broadcast.
    pub fn add(&mut self, element: E) -> OrSetOp<E> {
        self.counter += 1;
        let op = OrSetOp::Add { element, tag: (self.replica, self.counter) };
        self.apply(&op);
        op
    }

    /// Local remove: applies immediately and returns the op to broadcast;
    /// `None` if the element is not currently present.
    pub fn remove(&mut self, element: &E) -> Option<OrSetOp<E>> {
        let tags: Vec<Tag> = self.live.get(element)?.iter().copied().collect();
        if tags.is_empty() {
            return None;
        }
        let op = OrSetOp::Remove { element: element.clone(), tags };
        self.apply(&op);
        Some(op)
    }

    /// Applies a (local or remote) operation.
    pub fn apply(&mut self, op: &OrSetOp<E>) {
        match op {
            OrSetOp::Add { element, tag } => {
                if !self.removed.contains(tag) {
                    self.live.entry(element.clone()).or_default().insert(*tag);
                }
            }
            OrSetOp::Remove { element, tags } => {
                if let Some(live) = self.live.get_mut(element) {
                    for tag in tags {
                        live.remove(tag);
                    }
                    if live.is_empty() {
                        self.live.remove(element);
                    }
                }
                self.removed.extend(tags.iter().copied());
            }
        }
    }

    /// Whether `element` is in the set.
    #[must_use]
    pub fn contains(&self, element: &E) -> bool {
        self.live.contains_key(element)
    }

    /// Iterates over current elements in order.
    pub fn elements(&self) -> impl Iterator<Item = &E> {
        self.live.keys()
    }

    /// Number of distinct elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Internal state digest for convergence checks: (element, tags) pairs.
    #[must_use]
    pub fn digest(&self) -> Vec<(E, Vec<Tag>)> {
        self.live.iter().map(|(e, tags)| (e.clone(), tags.iter().copied().collect())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_then_remove_round_trip() {
        let mut s = OrSet::new(1);
        s.add(7);
        assert!(s.contains(&7));
        let _ = s.remove(&7).unwrap();
        assert!(!s.contains(&7));
        assert!(s.is_empty());
    }

    #[test]
    fn remove_absent_returns_none() {
        let mut s: OrSet<i32> = OrSet::new(1);
        assert!(s.remove(&1).is_none());
    }

    #[test]
    fn add_wins_over_concurrent_remove() {
        // a adds x (tag A1); b observed only an older add and removes it;
        // the newer add survives.
        let mut a = OrSet::new(1);
        let mut b = OrSet::new(2);
        let add1 = a.add("x");
        b.apply(&add1);
        let remove = b.remove(&"x").unwrap(); // removes tag of add1 only
        let add2 = a.add("x"); // concurrent with the remove
        a.apply(&remove);
        b.apply(&add2);
        assert!(a.contains(&"x"), "concurrent add must win at a");
        assert!(b.contains(&"x"), "concurrent add must win at b");
        assert_eq!(a.digest(), b.digest(), "replicas converge");
    }

    #[test]
    fn causal_order_converges() {
        // Ops applied in any causal-consistent order converge.
        let mut a = OrSet::new(1);
        let mut b = OrSet::new(2);
        let op1 = a.add("x");
        let op2 = a.add("y");
        b.apply(&op1);
        let op3 = b.remove(&"x").unwrap();
        b.apply(&op2);
        a.apply(&op3);
        assert_eq!(a.digest(), b.digest());
        assert!(!a.contains(&"x") && a.contains(&"y"));
    }

    #[test]
    fn unordered_delivery_causes_resurrection() {
        // The anomaly causal broadcast prevents: a remove applied before
        // the add it observed lets the add resurrect the element.
        let mut writer = OrSet::new(1);
        let add = writer.add("x");
        let remove = writer.remove(&"x").unwrap();

        let mut ordered = OrSet::new(2);
        ordered.apply(&add);
        ordered.apply(&remove);
        assert!(!ordered.contains(&"x"));

        let mut reordered = OrSet::new(3);
        reordered.apply(&remove); // arrives first: tags unknown
        reordered.apply(&add); // resurrects without tombstones...
                               // ...but our tombstone guard absorbs exactly this case:
        assert!(!reordered.contains(&"x"), "tombstones absorb remove-before-add of *known* tags");
        // The unfixable anomaly is a remove that lists only part of the
        // adds because causality was broken upstream — see the replica
        // property tests for the end-to-end divergence measurement.
    }

    #[test]
    fn digest_is_deterministic() {
        let mut a = OrSet::new(1);
        a.add(3);
        a.add(1);
        a.add(2);
        let d = a.digest();
        assert_eq!(d.iter().map(|(e, _)| *e).collect::<Vec<_>>(), vec![1, 2, 3]);
    }
}
