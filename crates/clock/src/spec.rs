//! An executable specification of the paper's Algorithms 1–5.
//!
//! Everything here is written as literally as the paper states it:
//! clocks are plain `Vec<u64>`, a key set `f(p)` is a `&[usize]` list of
//! entries, and received messages wait in a list that is rescanned from
//! the front after every delivery. Nothing is pooled, indexed or encoded,
//! and nothing is fast. The tuned code — `ProbClock`, the guard kernel,
//! `unrank`, the wake-up index, the detectors and the endpoint — is
//! tested against this module, so it uses only `std` and no other part of
//! the crate: a bug in the tuned code cannot leak into its own oracle.
//!
//! The algorithms, restated from §4 of the paper. `V_i` is the local
//! vector of process `p_i`, `f(p_i)` its `K` entries among the `R`, and
//! `m.V` the vector a message `m` carries. Comments in the code cite
//! these lines as `Alg. a:l`.
//!
//! ```text
//! Algorithm 1 — p_i broadcasts m
//!   1  for each x ∈ f(p_i): V_i[x] ← V_i[x] + 1
//!   2  m.V ← V_i
//!   3  send m to every process
//!
//! Algorithm 2 — p_i receives m, broadcast by p_j
//!   1  wait until ∀x ∈ f(p_j): V_i[x] ≥ m.V[x] − 1
//!   2         and ∀x ∉ f(p_j): V_i[x] ≥ m.V[x]
//!   3  deliver m
//!   4  for each x ∈ f(p_j): V_i[x] ← V_i[x] + 1
//!
//! Algorithm 3 — f(p) from the set id s of p: the s-th K-combination of
//! {0, …, R − 1} in lexicographic order
//!   1  x ← 0
//!   2  for position ← 1 to K
//!   3    while s ≥ C(R − 1 − x, K − position)
//!   4      s ← s − C(R − 1 − x, K − position); x ← x + 1
//!   5    add x to f(p); x ← x + 1
//!
//! Algorithm 4 — at the delivery of m (Alg. 2:3), before Alg. 2:4
//!   1  if ∀x ∈ f(p_j): V_i[x] ≥ m.V[x] then alert
//!
//! Algorithm 5 — L holds the messages delivered in the last W time units
//!   1  if ∀x ∈ f(p_j): V_i[x] ≥ m.V[x]
//!   2     and ∃m' ∈ L: ∀x ∈ f(p_j): m'.V[x] ≥ m.V[x] then alert
//!   3  after Alg. 2:4, add m to L
//! ```
//!
//! The "wait until" of Alg. 2:1 is the paper's pending list: a received
//! message joins its back, and after every arrival the list is scanned
//! from the front, the first message whose wait ends is delivered, and
//! the scan starts over, until a whole pass delivers nothing.
//!
//! ```
//! use pcb_clock::spec::Process;
//! // Paper Figure 1: R = 4, f(p_i) = {0, 1}, f(p_j) = {1, 2}.
//! let mut pi = Process::<&str>::new(4, &[0, 1], None);
//! let mut pj = Process::new(4, &[1, 2], None);
//! let mut pk = Process::new(4, &[2, 3], None);
//! let m = pi.broadcast();
//! assert_eq!(m, [1, 1, 0, 0]);
//! assert_eq!(pj.receive("m", m.clone(), &[0, 1], 0).len(), 1);
//! let m2 = pj.broadcast();
//! assert!(pk.receive("m'", m2, &[1, 2], 1).is_empty()); // m' waits for m
//! let order: Vec<_> = pk.receive("m", m, &[0, 1], 2).into_iter().map(|d| d.id).collect();
//! assert_eq!(order, ["m", "m'"]);
//! ```

/// One process `p_i` of the paper: its vector `V_i`, its entries
/// `f(p_i)`, the received messages still waiting, and Algorithm 5's list
/// `L` when a window `W` is given. `I` identifies a message to the
/// caller; the algorithms never look at it.
#[derive(Debug, Clone)]
pub struct Process<I> {
    v: Vec<u64>,
    f: Vec<usize>,
    pending: Vec<Received<I>>,
    window: Option<u64>,
    list: Vec<(u64, Vec<u64>)>,
    guard_evaluations: u64,
}

/// A received message: its id, `m.V` and `f(p_j)`.
#[derive(Debug, Clone)]
struct Received<I> {
    id: I,
    v: Vec<u64>,
    f: Vec<usize>,
}

/// One delivery (Alg. 2:3) and the verdicts Algorithms 4 and 5 gave it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery<I> {
    /// The delivered message.
    pub id: I,
    /// Algorithm 4 alerted.
    pub alert4: bool,
    /// Algorithm 5 alerted (never without a window).
    pub alert5: bool,
}

impl<I> Process<I> {
    /// A process with an all-zero vector of `r` entries and entries `f`;
    /// `window` is Algorithm 5's `W`, `None` to run Algorithm 4 alone.
    #[must_use]
    pub fn new(r: usize, f: &[usize], window: Option<u64>) -> Self {
        Self {
            v: vec![0; r],
            f: f.to_vec(),
            pending: Vec::new(),
            window,
            list: Vec::new(),
            guard_evaluations: 0,
        }
    }

    /// **Algorithm 1.** Returns `m.V` for the next broadcast.
    pub fn broadcast(&mut self) -> Vec<u64> {
        for &x in &self.f {
            self.v[x] += 1; // Alg. 1:1
        }
        self.v.clone() // Alg. 1:2; sending (Alg. 1:3) is the caller's
    }

    /// **Algorithm 2** for a message `id` carrying `m_v` from a sender
    /// with entries `f_j`, received at time `now`: the message joins the
    /// pending list, and the list is rescanned until nothing more can be
    /// delivered. Returns the deliveries in order.
    pub fn receive(&mut self, id: I, m_v: Vec<u64>, f_j: &[usize], now: u64) -> Vec<Delivery<I>> {
        self.pending.push(Received { id, v: m_v, f: f_j.to_vec() });
        let mut delivered = Vec::new();
        let mut i = 0;
        while i < self.pending.len() {
            self.guard_evaluations += 1;
            let m = &self.pending[i];
            if deliverable(&self.v, &m.v, &m.f) {
                let m = self.pending.remove(i);
                delivered.push(self.deliver(m, now));
                i = 0;
            } else {
                i += 1;
            }
        }
        delivered
    }

    /// Alg. 2:3–4, with Algorithms 4 and 5 judged in between.
    fn deliver(&mut self, m: Received<I>, now: u64) -> Delivery<I> {
        let alert4 = covered(&self.v, &m.v, &m.f); // Alg. 4:1, Alg. 5:1
        let mut alert5 = false;
        if let Some(w) = self.window {
            self.list.retain(|(at, _)| *at >= now.saturating_sub(w));
            alert5 = alert4 && self.list.iter().any(|(_, v)| covered(v, &m.v, &m.f));
            // Alg. 5:2
        }
        for &x in &m.f {
            self.v[x] += 1; // Alg. 2:4
        }
        if self.window.is_some() {
            self.list.push((now, m.v)); // Alg. 5:3
        }
        Delivery { id: m.id, alert4, alert5 }
    }

    /// The local vector `V_i`.
    #[must_use]
    pub fn clock(&self) -> &[u64] {
        &self.v
    }

    /// How many times the rescan has evaluated Alg. 2:1–2 for a message.
    #[must_use]
    pub fn guard_evaluations(&self) -> u64 {
        self.guard_evaluations
    }
}

/// What Alg. 2:1–2 asks of `V_i[x]` before `m` (carrying `m_v`, from a
/// sender with entries `f_j`) may be delivered: `m.V[x] − 1` on the
/// sender's entries, `m.V[x]` on the others. On a sender entry with
/// `m.V[x] = 0` the bound is −1, which every counter meets, so it reads 0.
#[must_use]
pub fn bound(m_v: &[u64], f_j: &[usize], x: usize) -> u64 {
    if f_j.contains(&x) {
        m_v[x].saturating_sub(1) // Alg. 2:1
    } else {
        m_v[x] // Alg. 2:2
    }
}

/// Whether the wait of Alg. 2:1–2 is over: every entry of `v` meets its
/// [`bound`].
#[must_use]
pub fn deliverable(v: &[u64], m_v: &[u64], f_j: &[usize]) -> bool {
    (0..v.len()).all(|x| v[x] >= bound(m_v, f_j, x))
}

/// Whether `v` covers `m_v` on the sender's entries `f_j`:
/// `∀x ∈ f(p_j): v[x] ≥ m.V[x]` — the test of Alg. 4:1 and Alg. 5:1 on
/// `V_i`, and of Alg. 5:2 on a listed message's vector.
#[must_use]
pub fn covered(v: &[u64], m_v: &[u64], f_j: &[usize]) -> bool {
    f_j.iter().all(|&x| v[x] >= m_v[x])
}

/// **Algorithm 3.** The entries of set id `s`: the `s`-th `k`-combination
/// of `{0, …, r − 1}` in lexicographic order.
///
/// # Panics
///
/// Panics unless `k ≤ r` and `s < C(r, k)`.
#[must_use]
pub fn entries(mut s: u128, r: usize, k: usize) -> Vec<usize> {
    assert!(k <= r && s < binomial(r, k), "set id {s} is not a {k}-combination of {r}");
    let mut f = Vec::with_capacity(k);
    let mut x = 0; // Alg. 3:1
    for position in 1..=k {
        // Alg. 3:2
        while s >= binomial(r - 1 - x, k - position) {
            s -= binomial(r - 1 - x, k - position); // Alg. 3:3–4
            x += 1;
        }
        f.push(x); // Alg. 3:5
        x += 1;
    }
    f
}

/// `C(n, k)`, exactly: after step `i` the product is `C(n, i + 1)`.
fn binomial(n: usize, k: usize) -> u128 {
    if k > n {
        return 0;
    }
    (0..k).fold(1, |c, i| c * (n - i) as u128 / (i + 1) as u128)
}
