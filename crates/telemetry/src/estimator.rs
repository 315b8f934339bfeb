//! Online causal-health estimators: in-flight concurrency (`X̂`) and the
//! per-clock-entry collision heatmap.
//!
//! The paper's central design quantity — `K_opt = ln2·R/X` — depends on
//! `X`, the number of messages concurrently in flight. `X` is a runtime
//! quantity; offline we reconstruct it from traces (`explain`), but the
//! adaptive-assignment loop and any live operator view need it *online*
//! and cheaply. The estimator here derives `X̂` from a signal the protocol
//! already computes on every delivery:
//!
//! At the instant a receiver delivers message `m` from sender `s`,
//! Algorithm 2's guard guarantees `clock[e] ≥ m.V[e] − 1` for each of the
//! sender's `K` entries `e`. The *overshoot* `clock[e] − (m.V[e] − 1)`
//! counts increments applied to entry `e` by deliveries concurrent with
//! `m` — traffic that was in flight alongside `m`. Each concurrent
//! message increments `K` of the `R` entries, so a given entry is hit
//! with probability `K/R` and the expected overshoot per entry is
//! `X·K/R`. Inverting:
//!
//! ```text
//! X̂ = mean_entry_overshoot · R / K
//! ```
//!
//! [`XEstimator`] keeps a sliding window of per-delivery overshoot
//! samples; [`EntryHeatmap`] buckets the same overshoots by clock entry
//! into a fixed 64-slot, exactly mergeable histogram (plus a log-bucketed
//! [`Hist`] of the overshoot distribution), so entry-collision pressure
//! is visible per region of the clock. [`CausalHealth`] bundles both
//! behind the single per-delivery observation call the endpoint makes.
//!
//! Everything here is observation-only: the structures never feed back
//! into protocol decisions, so enabling them cannot perturb delivery
//! order, and the disabled path costs one `Option` branch.

use crate::hist::Hist;

/// Default number of per-delivery samples retained by [`XEstimator`].
pub const X_WINDOW: usize = 1024;

/// Number of clock-entry slots in an [`EntryHeatmap`].
pub const HEATMAP_SLOTS: usize = 64;

/// Sliding-window estimator of the in-flight message count `X`.
///
/// One sample per delivery: `mean_entry_overshoot · R / K`. The window
/// bounds both memory and the estimator's reaction time to load changes;
/// the estimate is the plain mean of the retained samples, recomputed on
/// demand so no floating-point drift accumulates on the hot path.
#[derive(Debug, Clone, PartialEq)]
pub struct XEstimator {
    window: Vec<f64>,
    next: usize,
    total: u64,
}

impl XEstimator {
    /// Creates an estimator retaining the last `window` samples
    /// (clamped to at least 1).
    #[must_use]
    pub fn new(window: usize) -> Self {
        Self { window: Vec::with_capacity(window.clamp(1, 65_536)), next: 0, total: 0 }
    }

    /// Capacity of the sliding window.
    #[must_use]
    pub fn window(&self) -> usize {
        self.window.capacity()
    }

    /// Records one per-delivery sample.
    #[inline]
    pub fn record(&mut self, sample: f64) {
        self.total += 1;
        if self.window.len() < self.window.capacity() {
            self.window.push(sample);
        } else {
            self.window[self.next] = sample;
            self.next += 1;
            if self.next == self.window.len() {
                self.next = 0;
            }
        }
    }

    /// The current estimate: mean of the windowed samples (0.0 before the
    /// first delivery).
    #[must_use]
    pub fn x_hat(&self) -> f64 {
        if self.window.is_empty() {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        let n = self.window.len() as f64;
        self.window.iter().sum::<f64>() / n
    }

    /// Total samples observed over the estimator's lifetime.
    #[must_use]
    pub fn samples(&self) -> u64 {
        self.total
    }
}

impl Default for XEstimator {
    fn default() -> Self {
        Self::new(X_WINDOW)
    }
}

/// Fixed-size, exactly mergeable per-clock-entry collision heatmap.
///
/// The `R` clock entries are folded into [`HEATMAP_SLOTS`] slots
/// (`slot = entry · SLOTS / R`); each slot accumulates how many delivery
/// observations touched it (`hits`) and the summed overshoot those
/// observations carried. A slot whose mean overshoot runs hot marks a
/// region of the clock where entry collisions — the mechanism behind
/// `P_error` — concentrate. The log-bucketed [`Hist`] keeps the overall
/// overshoot distribution for quantiles.
#[derive(Debug, Clone, PartialEq)]
pub struct EntryHeatmap {
    r: u32,
    /// `ceil(SLOTS · 2³² / r)`: slots fold by fixed-point multiply on the
    /// delivery hot path instead of a division. Rounding up keeps exact
    /// slot boundaries for every `r < 2¹⁶` (the error term `entry/2³²`
    /// stays below the `1/r` gap between distinct quotients).
    slot_scale: u64,
    hits: [u64; HEATMAP_SLOTS],
    overshoot: [u64; HEATMAP_SLOTS],
    dist: Hist,
}

impl EntryHeatmap {
    /// Creates a heatmap over clock entries `0..r`.
    #[must_use]
    pub fn new(r: u32) -> Self {
        Self {
            r,
            slot_scale: Self::scale_for(r),
            hits: [0; HEATMAP_SLOTS],
            overshoot: [0; HEATMAP_SLOTS],
            dist: Hist::default(),
        }
    }

    fn scale_for(r: u32) -> u64 {
        if r == 0 {
            0
        } else {
            ((HEATMAP_SLOTS as u64) << 32).div_ceil(u64::from(r))
        }
    }

    /// The entry-domain size this heatmap was built for.
    #[must_use]
    pub fn r(&self) -> u32 {
        self.r
    }

    /// The slot a clock entry folds into.
    #[inline]
    #[must_use]
    fn slot_of(&self, entry: u32) -> usize {
        let slot = ((u64::from(entry).wrapping_mul(self.slot_scale)) >> 32) as usize;
        slot.min(HEATMAP_SLOTS - 1)
    }

    /// Records one `(entry, overshoot)` observation.
    #[inline]
    pub fn record(&mut self, entry: u32, overshoot: u64) {
        let slot = self.slot_of(entry);
        self.hits[slot] += 1;
        self.overshoot[slot] = self.overshoot[slot].saturating_add(overshoot);
        #[allow(clippy::cast_precision_loss)]
        self.dist.push(overshoot as f64);
    }

    /// Per-slot observation counts.
    #[must_use]
    pub fn hits(&self) -> &[u64; HEATMAP_SLOTS] {
        &self.hits
    }

    /// Per-slot summed overshoot.
    #[must_use]
    pub fn overshoot(&self) -> &[u64; HEATMAP_SLOTS] {
        &self.overshoot
    }

    /// The log-bucketed distribution of all overshoot observations.
    #[must_use]
    pub fn dist(&self) -> &Hist {
        &self.dist
    }

    /// Total observations across all slots.
    #[must_use]
    pub fn total_hits(&self) -> u64 {
        self.hits.iter().sum()
    }

    /// Element-wise merge (exact: slot sums and the underlying `Hist`
    /// both merge losslessly). Merging heatmaps built over different `r`
    /// keeps the receiver's `r`; slots are positional either way.
    pub fn merge(&mut self, other: &Self) {
        if self.r == 0 {
            self.r = other.r;
            self.slot_scale = other.slot_scale;
        }
        for i in 0..HEATMAP_SLOTS {
            self.hits[i] += other.hits[i];
            self.overshoot[i] = self.overshoot[i].saturating_add(other.overshoot[i]);
        }
        self.dist.merge(&other.dist);
    }
}

impl Default for EntryHeatmap {
    fn default() -> Self {
        Self::new(0)
    }
}

/// The endpoint-side bundle: one [`XEstimator`] plus one
/// [`EntryHeatmap`], fed by a single call per delivery.
///
/// `r` and `k` are carried so consumers (status RPC, Prometheus
/// exposition) can turn `x_hat` into a predicted `P_error` and a
/// recommended `K` without re-deriving clock geometry.
#[derive(Debug, Clone, PartialEq)]
pub struct CausalHealth {
    r: u32,
    k: u32,
    x: XEstimator,
    heatmap: EntryHeatmap,
}

impl CausalHealth {
    /// Creates a health bundle for an `(R, K)` clock with the default
    /// sample window.
    #[must_use]
    pub fn new(r: u32, k: u32) -> Self {
        Self { r, k, x: XEstimator::new(X_WINDOW), heatmap: EntryHeatmap::new(r) }
    }

    /// Clock width `R`.
    #[must_use]
    pub fn r(&self) -> u32 {
        self.r
    }

    /// Entries per process `K`.
    #[must_use]
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Observes one delivery: `(entry, overshoot)` for each of the
    /// sender's `K` entries, where
    /// `overshoot = local_clock[entry] − (stamp[entry] − 1)` evaluated
    /// *before* the delivery's own clock advance. The guard in
    /// Algorithm 2 makes every overshoot non-negative.
    #[inline]
    pub fn observe_delivery(&mut self, entries: impl IntoIterator<Item = (u32, u64)>) {
        let mut sum = 0u64;
        let mut count = 0u32;
        for (entry, overshoot) in entries {
            self.heatmap.record(entry, overshoot);
            sum = sum.saturating_add(overshoot);
            count += 1;
        }
        if count == 0 || self.k == 0 {
            return;
        }
        let mean = sum as f64 / f64::from(count);
        self.x.record(mean * f64::from(self.r) / f64::from(self.k));
    }

    /// The current in-flight estimate `X̂`.
    #[must_use]
    pub fn x_hat(&self) -> f64 {
        self.x.x_hat()
    }

    /// Lifetime delivery observations.
    #[must_use]
    pub fn samples(&self) -> u64 {
        self.x.samples()
    }

    /// The collision heatmap.
    #[must_use]
    pub fn heatmap(&self) -> &EntryHeatmap {
        &self.heatmap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn x_estimator_means_over_a_sliding_window() {
        let mut x = XEstimator::new(4);
        assert_eq!(x.x_hat(), 0.0);
        for v in [2.0, 4.0, 6.0, 8.0] {
            x.record(v);
        }
        assert!((x.x_hat() - 5.0).abs() < 1e-12);
        // Overwrites the oldest (2.0): window is now [10,4,6,8].
        x.record(10.0);
        assert!((x.x_hat() - 7.0).abs() < 1e-12);
        assert_eq!(x.samples(), 5);
        assert_eq!(x.window(), 4);
    }

    #[test]
    fn x_estimator_window_is_clamped_to_one() {
        let mut x = XEstimator::new(0);
        x.record(3.0);
        x.record(9.0);
        assert!((x.x_hat() - 9.0).abs() < 1e-12);
        assert_eq!(x.samples(), 2);
    }

    #[test]
    fn heatmap_slots_partition_the_entry_domain() {
        let h = EntryHeatmap::new(100);
        assert_eq!(h.slot_of(0), 0);
        assert_eq!(h.slot_of(99), 63);
        // Monotone, never out of range.
        let mut prev = 0;
        for e in 0..100 {
            let s = h.slot_of(e);
            assert!(s >= prev && s < HEATMAP_SLOTS);
            prev = s;
        }
        // Degenerate domains still map safely.
        assert_eq!(EntryHeatmap::new(0).slot_of(42), 0);
        assert_eq!(EntryHeatmap::new(1).slot_of(0), 0);
    }

    #[test]
    fn heatmap_merge_is_elementwise_exact() {
        let mut a = EntryHeatmap::new(64);
        let mut b = EntryHeatmap::new(64);
        a.record(0, 5);
        a.record(63, 1);
        b.record(0, 2);
        b.record(10, 7);
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.hits()[0], 2);
        assert_eq!(merged.overshoot()[0], 7);
        assert_eq!(merged.hits()[10], 1);
        assert_eq!(merged.hits()[63], 1);
        assert_eq!(merged.total_hits(), 4);
        assert_eq!(merged.hits().iter().max(), Some(&2));
        assert_eq!(merged.dist().count(), 4);
        // Merge order does not matter.
        let mut other = b.clone();
        other.merge(&a);
        assert_eq!(merged, other);
    }

    #[test]
    fn causal_health_inverts_the_expected_overshoot() {
        // R=100, K=4: a uniform overshoot of 2 per entry means
        // X̂ = 2 · 100/4 = 50.
        let mut h = CausalHealth::new(100, 4);
        h.observe_delivery([(3, 2), (17, 2), (54, 2), (91, 2)]);
        assert!((h.x_hat() - 50.0).abs() < 1e-9);
        assert_eq!(h.samples(), 1);
        assert_eq!(h.heatmap().total_hits(), 4);
        // Zero-overshoot deliveries pull the estimate down.
        h.observe_delivery([(3, 0), (17, 0), (54, 0), (91, 0)]);
        assert!((h.x_hat() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn causal_health_ignores_empty_observations() {
        let mut h = CausalHealth::new(100, 4);
        h.observe_delivery(std::iter::empty());
        assert_eq!(h.samples(), 0);
        assert_eq!(h.x_hat(), 0.0);
    }
}
