//! A Replicated Growable Array (RGA) — collaborative text editing, the
//! paper's flagship motivation (§1, refs [10][14]).
//!
//! Each character is inserted *after* an existing character's id; ties
//! between concurrent inserts at the same position are broken by id so
//! all replicas linearize identically. `insert` **requires causal
//! delivery**: the parent id must already be present. Under unordered
//! delivery an insert can reference an unseen parent — the op is lost or
//! deferred and replicas diverge (measured by the replica experiments).

use std::collections::HashMap;

/// Identity of one inserted element: (replica, counter). Ordered so
/// concurrent siblings sort deterministically (newer-first, then replica).
pub type ElemId = (u64, u64);

/// Sentinel parent for inserts at the head of the document.
pub const HEAD: ElemId = (0, 0);

/// RGA operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RgaOp {
    /// Insert `ch` after the element `parent`.
    Insert {
        /// New element id.
        id: ElemId,
        /// Element to insert after ([`HEAD`] for the front).
        parent: ElemId,
        /// The character.
        ch: char,
    },
    /// Tombstone the element `id`.
    Delete {
        /// Element to delete.
        id: ElemId,
    },
}

#[derive(Debug, Clone)]
struct Node {
    id: ElemId,
    ch: char,
    deleted: bool,
    children: Vec<usize>,
}

/// One replica of the text document.
///
/// ```
/// use pcb_crdt::{Rga, HEAD};
/// let mut a = Rga::new(1);
/// let op1 = a.insert_after(HEAD, 'h').unwrap();
/// let op2 = a.insert_after(op1_id(&op1), 'i').unwrap();
/// assert_eq!(a.text(), "hi");
/// # fn op1_id(op: &pcb_crdt::RgaOp) -> pcb_crdt::ElemId {
/// #     match op { pcb_crdt::RgaOp::Insert { id, .. } => *id, _ => unreachable!() }
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Rga {
    replica: u64,
    counter: u64,
    nodes: Vec<Node>,
    index: HashMap<ElemId, usize>,
    /// Ops whose parent has not arrived (only possible when the transport
    /// violated causal order); retried as parents appear.
    orphans: Vec<RgaOp>,
}

impl Rga {
    /// An empty document owned by `replica` (must be nonzero and unique).
    ///
    /// # Panics
    ///
    /// Panics if `replica == 0` (reserved for [`HEAD`]).
    #[must_use]
    pub fn new(replica: u64) -> Self {
        assert!(replica != 0, "replica id 0 is reserved for HEAD");
        let head = Node { id: HEAD, ch: '\0', deleted: true, children: Vec::new() };
        let mut index = HashMap::new();
        index.insert(HEAD, 0);
        Self { replica, counter: 0, nodes: vec![head], index, orphans: Vec::new() }
    }

    /// Local insert after `parent`; applies immediately and returns the
    /// op to broadcast, or `None` if `parent` is unknown here.
    pub fn insert_after(&mut self, parent: ElemId, ch: char) -> Option<RgaOp> {
        if !self.index.contains_key(&parent) {
            return None;
        }
        self.counter += 1;
        let op = RgaOp::Insert { id: (self.replica, self.counter), parent, ch };
        self.apply(&op);
        Some(op)
    }

    /// Local delete of the element at visible position `pos`; applies
    /// immediately and returns the op to broadcast.
    pub fn delete_at(&mut self, pos: usize) -> Option<RgaOp> {
        let id = self.visible_ids().nth(pos)?;
        let op = RgaOp::Delete { id };
        self.apply(&op);
        Some(op)
    }

    /// Applies a (local or remote) operation. Returns `false` when the
    /// op had to be parked as an orphan (parent/target unseen — a causal
    /// violation upstream).
    pub fn apply(&mut self, op: &RgaOp) -> bool {
        let applied = self.try_apply(op);
        if applied {
            // An arrived parent may unblock parked orphans.
            let mut retry = std::mem::take(&mut self.orphans);
            retry.retain(|orphan| !self.try_apply(orphan));
            self.orphans = retry;
        } else {
            self.orphans.push(op.clone());
        }
        applied
    }

    fn try_apply(&mut self, op: &RgaOp) -> bool {
        match op {
            RgaOp::Insert { id, parent, ch } => {
                if self.index.contains_key(id) {
                    return true; // duplicate delivery
                }
                let Some(&parent_idx) = self.index.get(parent) else {
                    return false;
                };
                let node_idx = self.nodes.len();
                self.nodes.push(Node { id: *id, ch: *ch, deleted: false, children: Vec::new() });
                self.index.insert(*id, node_idx);
                // Concurrent siblings: larger id first, so all replicas
                // order them identically regardless of arrival order.
                let mut insert_at = self.nodes[parent_idx].children.len();
                for (i, &c) in self.nodes[parent_idx].children.iter().enumerate() {
                    if *id > self.nodes[c].id {
                        insert_at = i;
                        break;
                    }
                }
                self.nodes[parent_idx].children.insert(insert_at, node_idx);
                true
            }
            RgaOp::Delete { id } => {
                let Some(&idx) = self.index.get(id) else {
                    return false;
                };
                self.nodes[idx].deleted = true;
                true
            }
        }
    }

    /// Number of operations parked because causality was violated.
    #[must_use]
    pub fn orphan_count(&self) -> usize {
        self.orphans.len()
    }

    /// The visible text.
    #[must_use]
    pub fn text(&self) -> String {
        let mut out = String::new();
        self.walk(0, &mut |node| {
            if !node.deleted {
                out.push(node.ch);
            }
        });
        out
    }

    fn visible_ids(&self) -> impl Iterator<Item = ElemId> + '_ {
        let mut ids = Vec::new();
        self.walk(0, &mut |node| {
            if !node.deleted {
                ids.push(node.id);
            }
        });
        ids.into_iter()
    }

    fn walk(&self, idx: usize, f: &mut impl FnMut(&Node)) {
        let node = &self.nodes[idx];
        f(node);
        for &child in &node.children {
            self.walk(child, f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id_of(op: &RgaOp) -> ElemId {
        match op {
            RgaOp::Insert { id, .. } => *id,
            RgaOp::Delete { id } => *id,
        }
    }

    #[test]
    fn sequential_typing() {
        let mut doc = Rga::new(1);
        let mut parent = HEAD;
        for ch in "hello".chars() {
            parent = id_of(&doc.insert_after(parent, ch).unwrap());
        }
        assert_eq!(doc.text(), "hello");
    }

    #[test]
    fn delete_at_position() {
        let mut doc = Rga::new(1);
        let mut parent = HEAD;
        for ch in "abc".chars() {
            parent = id_of(&doc.insert_after(parent, ch).unwrap());
        }
        doc.delete_at(1).unwrap();
        assert_eq!(doc.text(), "ac");
        assert!(doc.delete_at(9).is_none());
    }

    #[test]
    fn concurrent_inserts_converge_identically() {
        // Two replicas insert at the head concurrently; both linearize
        // the same way after exchanging ops.
        let mut a = Rga::new(1);
        let mut b = Rga::new(2);
        let op_a = a.insert_after(HEAD, 'A').unwrap();
        let op_b = b.insert_after(HEAD, 'B').unwrap();
        a.apply(&op_b);
        b.apply(&op_a);
        assert_eq!(a.text(), b.text(), "deterministic sibling order");
    }

    #[test]
    fn causal_chain_applies_cleanly() {
        let mut a = Rga::new(1);
        let op1 = a.insert_after(HEAD, 'x').unwrap();
        let mut b = Rga::new(2);
        assert!(b.apply(&op1));
        let op2 = b.insert_after(id_of(&op1), 'y').unwrap();
        let mut c = Rga::new(3);
        assert!(c.apply(&op1));
        assert!(c.apply(&op2));
        assert_eq!(c.text(), "xy");
        assert_eq!(c.orphan_count(), 0);
    }

    #[test]
    fn causal_violation_parks_orphan_then_recovers() {
        let mut a = Rga::new(1);
        let op1 = a.insert_after(HEAD, 'x').unwrap();
        let op2 = a.insert_after(id_of(&op1), 'y').unwrap();

        let mut late = Rga::new(2);
        assert!(!late.apply(&op2), "child before parent must park");
        assert_eq!(late.orphan_count(), 1);
        assert_eq!(late.text(), "");
        assert!(late.apply(&op1));
        assert_eq!(late.orphan_count(), 0, "parent arrival unblocks the orphan");
        assert_eq!(late.text(), "xy");
    }

    #[test]
    fn duplicate_inserts_are_idempotent() {
        let mut a = Rga::new(1);
        let op = a.insert_after(HEAD, 'z').unwrap();
        let mut b = Rga::new(2);
        b.apply(&op);
        b.apply(&op);
        assert_eq!(b.text(), "z");
    }

    #[test]
    #[should_panic(expected = "reserved for HEAD")]
    fn replica_zero_rejected() {
        let _ = Rga::new(0);
    }
}
