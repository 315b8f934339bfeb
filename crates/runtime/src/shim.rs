//! Deterministic socket-level fault shim.
//!
//! The simulator injects link faults at its virtual router. Real UDP has
//! no such seam — short of iptables rules (root, global, flaky to clean
//! up) there is no way to ask the kernel to drop 10% of one flow. So the
//! transport offers its own seam: every outbound datagram passes through a
//! [`SocketShim`] that returns a deterministic *verdict* — deliver now,
//! drop, duplicate, or delay — computed from a seeded generator.
//!
//! Determinism matters more than realism here: a shim that consulted
//! `/dev/urandom` would make every lossy-link test run unique and every
//! failure unreproducible. With a seeded shim, the same seed tortures a
//! link the same way every time.
//!
//! The shim judges *datagrams*, not frames: a fragmented frame whose
//! middle datagram is dropped exercises the reassembly timeout path,
//! which frame-level drops never would. Verdicts are drawn from the same
//! [`LinkFaults`] rates the simulator uses, so a fault plan's burst
//! windows translate directly.

use pcb_sim::LinkFaults;
use rand::{rngs::StdRng, RngExt, SeedableRng};

/// What the shim decided to do with one outbound datagram.
///
/// Returned as a list of send offsets in microseconds: an empty list
/// drops the datagram, `[0]` delivers it immediately, `[delay]` holds it
/// back, and two entries duplicate it (each copy at its own offset). The
/// transport owns the delay queue; the shim only rules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// Relative send times, µs from now, for each copy to transmit.
    pub offsets_us: Vec<u64>,
    /// Flip one payload byte of the first copy before sending. The
    /// datagram checksum turns this into a detected discard at the
    /// receiver, exercising the decode-hardening path.
    pub corrupt: bool,
}

impl Verdict {
    /// The pass-through verdict: one copy, sent now, intact.
    pub fn deliver() -> Self {
        Verdict { offsets_us: vec![0], corrupt: false }
    }

    /// True if the datagram is dropped outright.
    pub fn dropped(&self) -> bool {
        self.offsets_us.is_empty()
    }
}

/// Deterministic per-datagram fault injector.
///
/// Holds a seeded [`StdRng`] and the currently active fault rates.
/// Rates default to `None` (pass everything); a test installs and clears
/// [`LinkFaults`] windows through [`crate::UdpTransport::set_faults`].
#[derive(Debug)]
pub struct SocketShim {
    rng: StdRng,
    faults: Option<LinkFaults>,
    judged: u64,
    dropped: u64,
    duplicated: u64,
    delayed: u64,
    corrupted: u64,
}

impl SocketShim {
    /// A shim drawing verdicts from `seed`. Until [`Self::set_faults`]
    /// installs rates, every datagram passes untouched (and consumes no
    /// randomness, so fault-free runs are unaffected by the seed).
    pub fn new(seed: u64) -> Self {
        SocketShim {
            rng: StdRng::seed_from_u64(seed),
            faults: None,
            judged: 0,
            dropped: 0,
            duplicated: 0,
            delayed: 0,
            corrupted: 0,
        }
    }

    /// Installs (or with `None` clears) the active fault rates.
    pub fn set_faults(&mut self, faults: Option<LinkFaults>) {
        self.faults = faults;
    }

    /// The currently active rates, if any.
    pub fn faults(&self) -> Option<&LinkFaults> {
        self.faults.as_ref()
    }

    /// Allocation-free fast path: with no faults installed, counts the
    /// datagram as judged and returns `true` — the caller sends it
    /// directly without materialising a [`Verdict`] (whose offset list
    /// lives on the heap). Returns `false` when rates are active, in
    /// which case the caller must consult [`Self::judge`].
    pub fn passthrough(&mut self) -> bool {
        if self.faults.is_none() {
            self.judged += 1;
            return true;
        }
        false
    }

    /// Judges one outbound datagram.
    pub fn judge(&mut self) -> Verdict {
        self.judged += 1;
        let Some(f) = self.faults else {
            return Verdict::deliver();
        };
        if self.rng.random_bool(f.drop.clamp(0.0, 1.0)) {
            self.dropped += 1;
            return Verdict { offsets_us: Vec::new(), corrupt: false };
        }
        let extra_us = (f.reorder_extra_ms.max(0.0) * 1000.0) as u64;
        let first = if self.rng.random_bool(f.reorder.clamp(0.0, 1.0)) {
            self.delayed += 1;
            extra_us.max(1)
        } else {
            0
        };
        let mut offsets_us = vec![first];
        if self.rng.random_bool(f.dup.clamp(0.0, 1.0)) {
            self.duplicated += 1;
            // The copy trails the original so the receiver sees a true
            // duplicate, not a reorder.
            offsets_us.push(first + extra_us.max(1));
        }
        let corrupt = self.rng.random_bool(f.corrupt.clamp(0.0, 1.0));
        if corrupt {
            self.corrupted += 1;
        }
        Verdict { offsets_us, corrupt }
    }

    /// `(judged, dropped, duplicated, delayed, corrupted)` totals since
    /// construction — surfaced by the daemon's metrics endpoint.
    pub fn stats(&self) -> (u64, u64, u64, u64, u64) {
        (self.judged, self.dropped, self.duplicated, self.delayed, self.corrupted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heavy() -> LinkFaults {
        LinkFaults { drop: 0.3, dup: 0.3, reorder: 0.3, reorder_extra_ms: 5.0, corrupt: 0.1 }
    }

    #[test]
    fn no_faults_means_pass_through() {
        let mut shim = SocketShim::new(1);
        for _ in 0..100 {
            assert_eq!(shim.judge(), Verdict::deliver());
        }
        assert_eq!(shim.stats(), (100, 0, 0, 0, 0));
    }

    #[test]
    fn same_seed_same_verdicts() {
        let mut a = SocketShim::new(42);
        let mut b = SocketShim::new(42);
        a.set_faults(Some(heavy()));
        b.set_faults(Some(heavy()));
        for _ in 0..500 {
            assert_eq!(a.judge(), b.judge());
        }
    }

    #[test]
    fn rates_are_roughly_honoured() {
        let mut shim = SocketShim::new(7);
        shim.set_faults(Some(heavy()));
        for _ in 0..2000 {
            shim.judge();
        }
        let (judged, dropped, duplicated, delayed, _) = shim.stats();
        assert_eq!(judged, 2000);
        // 30% nominal; allow generous slack, this is a sanity bound not
        // a statistical test.
        assert!((400..=800).contains(&dropped), "dropped = {dropped}");
        assert!((250..=650).contains(&duplicated), "duplicated = {duplicated}");
        assert!((250..=650).contains(&delayed), "delayed = {delayed}");
    }

    #[test]
    fn clearing_faults_restores_pass_through() {
        let mut shim = SocketShim::new(3);
        shim.set_faults(Some(heavy()));
        let _ = shim.judge();
        shim.set_faults(None);
        assert_eq!(shim.judge(), Verdict::deliver());
    }

    #[test]
    fn delayed_copies_trail_the_original() {
        let mut shim = SocketShim::new(11);
        shim.set_faults(Some(LinkFaults {
            drop: 0.0,
            dup: 1.0,
            reorder: 0.5,
            reorder_extra_ms: 2.0,
            corrupt: 0.0,
        }));
        for _ in 0..200 {
            let v = shim.judge();
            assert_eq!(v.offsets_us.len(), 2);
            assert!(v.offsets_us[1] > v.offsets_us[0]);
        }
    }
}
