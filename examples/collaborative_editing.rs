//! Collaborative editing: why the paper's intro cares about causal order.
//!
//! Run with:
//! ```text
//! cargo run --example collaborative_editing
//! ```
//!
//! A toy replicated document where each operation is `insert(parent, text)`
//! — an edit causally *replies to* the state it saw. If a reply is applied
//! before the edit it answers, the replica corrupts. We replay the same
//! message history twice: once applying messages in raw arrival order
//! (causal violation), once through the probabilistic causal broadcast
//! (buffered and applied correctly).

use std::collections::HashMap;

use pcb::prelude::*;

/// A paragraph tree: each edit attaches under its causal parent.
#[derive(Default)]
struct Document {
    children: HashMap<String, Vec<String>>,
    orphans: Vec<(String, String)>,
}

impl Document {
    fn apply(&mut self, parent: &str, text: &str) {
        if parent == "ROOT" || self.children.contains_key(parent) {
            self.children.entry(parent.to_string()).or_default().push(text.to_string());
            self.children.entry(text.to_string()).or_default();
        } else {
            // The parent hasn't been seen: the edit dangles.
            self.orphans.push((parent.to_string(), text.to_string()));
        }
    }

    fn render(&self, node: &str, depth: usize, out: &mut String) {
        if let Some(kids) = self.children.get(node) {
            for kid in kids {
                out.push_str(&"  ".repeat(depth));
                out.push_str(kid);
                out.push('\n');
                self.render(kid, depth + 1, out);
            }
        }
    }

    fn show(&self) -> String {
        let mut out = String::new();
        self.render("ROOT", 0, &mut out);
        if !self.orphans.is_empty() {
            out.push_str(&format!(
                "!! {} orphaned edit(s): {:?}\n",
                self.orphans.len(),
                self.orphans
            ));
        }
        out
    }
}

type Edit = (String, String); // (parent, text)

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let space = KeySpace::new(16, 2)?;
    let mut assigner = KeyAssigner::new(space, AssignmentPolicy::DistinctRandom, 11);

    let mut alice: PcbProcess<Edit> = PcbProcess::new(ProcessId::new(0), assigner.next_set()?);
    let mut bob: PcbProcess<Edit> = PcbProcess::new(ProcessId::new(1), assigner.next_set()?);

    // Alice drafts a section; Bob replies to it after seeing it.
    let m1 = alice.broadcast(("ROOT".into(), "1. Introduction".into()));
    let m2 = alice.broadcast(("1. Introduction".into(), "Causal order matters.".into()));
    for d in bob.on_receive(m1.clone(), 0).into_iter().chain(bob.on_receive(m2.clone(), 1)) {
        let (parent, text) = d.message.payload().clone();
        // Bob's replica applies as it delivers (not shown: his own doc).
        let _ = (parent, text);
    }
    let m3 = bob.broadcast(("Causal order matters.".into(), "Agreed — see PaCT'17.".into()));

    // Carol receives the three edits out of order: the reply first.
    let arrival = [m3, m2, m1];

    println!("== Replica applying in raw arrival order (no causal broadcast) ==");
    let mut unordered = Document::default();
    for m in &arrival {
        let (parent, text) = m.payload();
        unordered.apply(parent, text);
    }
    print!("{}", unordered.show());
    assert!(!unordered.orphans.is_empty(), "raw order must corrupt the document");

    println!();
    println!("== Replica applying through probabilistic causal broadcast ==");
    let mut carol: PcbProcess<Edit> = PcbProcess::new(ProcessId::new(2), assigner.next_set()?);
    let mut causal = Document::default();
    for (t, m) in arrival.iter().enumerate() {
        for d in carol.on_receive(m.clone(), t as u64) {
            let (parent, text) = d.message.payload();
            causal.apply(parent, text);
        }
    }
    print!("{}", causal.show());
    assert!(causal.orphans.is_empty(), "causal delivery keeps the tree intact");
    assert_eq!(carol.pending_len(), 0);

    println!();
    println!("Same messages, same network order — only the delivery discipline differs.");
    Ok(())
}
