//! Recyclable timestamp storage for the allocation-free send path.
//!
//! Every Algorithm 1 send snapshots the local vector into a fresh
//! [`Timestamp`]; at steady state those snapshots are dropped again as
//! soon as the message is fully delivered. A [`StampPool`] closes that
//! loop: delivered stamps whose entries are no longer shared go back on a
//! free list, and the next send overwrites a recycled buffer instead of
//! allocating. Shared stamps (still referenced by a pending queue, a
//! detector list, an application) are simply dropped — recycling is an
//! optimisation, never a semantic change.
//!
//! The free list is bounded by [`StampPool::MAX_FREE`]. A pool that is
//! fed faster than it is drawn from — a message store retiring stamps
//! that were decoded against another pool — would otherwise keep one
//! stamp per message ever retired.

use crate::Timestamp;

/// A free list of at most [`StampPool::MAX_FREE`] uniquely-owned
/// [`Timestamp`]s.
///
/// ```
/// use pcb_clock::{StampPool, Timestamp};
/// let mut pool = StampPool::new();
/// pool.recycle(Timestamp::from_entries(vec![0, 0, 0]));
/// let ts = pool.stamp_from(&[1, 2, 3]); // reuses the recycled buffer
/// assert_eq!(ts.entries(), &[1, 2, 3]);
/// assert_eq!(pool.stats().hits, 1);
/// ```
#[derive(Debug, Default)]
pub struct StampPool {
    free: Vec<Timestamp>,
    stats: StampPoolStats,
}

/// Hit/miss counters of a [`StampPool`] — the alloc-gate harness asserts
/// a 100% hit rate at steady state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StampPoolStats {
    /// Stamps served by overwriting a recycled buffer.
    pub hits: u64,
    /// Stamps that had to allocate (empty pool or shared leftovers).
    pub misses: u64,
}

impl StampPool {
    /// Most recycled stamps the free list holds; a stamp retired beyond
    /// it is dropped. Well above what any steady state keeps in flight
    /// between its recycle and its reuse.
    pub const MAX_FREE: usize = 256;

    /// An empty pool.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty pool with room for `cap` recycled stamps before the free
    /// list itself reallocates.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        Self { free: Vec::with_capacity(cap), stats: StampPoolStats::default() }
    }

    /// Builds a timestamp with the given entries, reusing a recycled
    /// buffer when one is available (zero heap traffic when the length
    /// matches) and allocating otherwise.
    pub fn stamp_from(&mut self, entries: &[u64]) -> Timestamp {
        let copied: Result<(Timestamp, ()), std::convert::Infallible> =
            self.stamp_with(entries.len(), |slots| {
                slots.copy_from_slice(entries);
                Ok(())
            });
        match copied {
            Ok((ts, ())) => ts,
        }
    }

    /// Builds a `len`-entry timestamp by letting `fill` write the entries
    /// straight into the (recycled or fresh) buffer — a decoder applies
    /// its increments in place instead of staging them elsewhere and
    /// copying. The slots arrive holding unspecified old values: `fill`
    /// must write every one of them. Whatever else `fill` produces (what
    /// followed the entries in its input, say) comes back beside the stamp.
    ///
    /// # Errors
    ///
    /// Whatever `fill` returns; the buffer then goes back on the free
    /// list, so a failed build costs the pool nothing.
    pub fn stamp_with<T, E>(
        &mut self,
        len: usize,
        fill: impl FnOnce(&mut [u64]) -> Result<T, E>,
    ) -> Result<(Timestamp, T), E> {
        // A recycled stamp can have grown new sharers between recycle and
        // reuse only through external cloning of the pool's own handle,
        // which nothing does — but stay defensive and drop any stamp that
        // is no longer uniquely owned.
        while let Some(mut ts) = self.free.pop() {
            let Some(slots) = ts.unique_entries(len) else { continue };
            self.stats.hits += 1;
            let filled = fill(slots);
            return self.settle(ts, filled);
        }
        self.stats.misses += 1;
        let mut entries = vec![0; len];
        let filled = fill(&mut entries);
        self.settle(Timestamp::from_entries(entries), filled)
    }

    /// The stamp beside what its fill produced, or — the fill failed —
    /// the stamp back on the free list and the error.
    fn settle<T, E>(&mut self, ts: Timestamp, filled: Result<T, E>) -> Result<(Timestamp, T), E> {
        match filled {
            Ok(extra) => Ok((ts, extra)),
            Err(error) => {
                self.free.push(ts);
                Err(error)
            }
        }
    }

    /// Returns a stamp to the free list if this handle is its sole owner
    /// and the list has room; otherwise the stamp is dropped (a shared
    /// one's storage dies when its last clone does).
    pub fn recycle(&mut self, ts: Timestamp) {
        if ts.is_uniquely_owned() && self.free.len() < Self::MAX_FREE {
            self.free.push(ts);
        }
    }

    /// Number of buffers currently on the free list.
    #[must_use]
    pub fn len(&self) -> usize {
        self.free.len()
    }

    /// Whether the free list is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.free.is_empty()
    }

    /// Hit/miss counters since construction.
    #[must_use]
    pub fn stats(&self) -> StampPoolStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_pool_allocates() {
        let mut pool = StampPool::new();
        let ts = pool.stamp_from(&[1, 2]);
        assert_eq!(ts.entries(), &[1, 2]);
        assert_eq!(pool.stats(), StampPoolStats { hits: 0, misses: 1 });
    }

    #[test]
    fn recycled_buffer_is_reused() {
        let mut pool = StampPool::new();
        pool.recycle(Timestamp::from_entries(vec![9, 9, 9]));
        assert_eq!(pool.len(), 1);
        let ts = pool.stamp_from(&[4, 5, 6]);
        assert_eq!(ts.entries(), &[4, 5, 6]);
        assert!(pool.is_empty());
        assert_eq!(pool.stats().hits, 1);
    }

    #[test]
    fn shared_stamp_is_not_recycled() {
        let mut pool = StampPool::new();
        let ts = Timestamp::from_entries(vec![1]);
        let clone = ts.clone();
        pool.recycle(ts);
        assert!(pool.is_empty(), "shared stamp must be dropped, not pooled");
        drop(clone);
    }

    #[test]
    fn length_mismatch_resizes_in_place() {
        let mut pool = StampPool::new();
        pool.recycle(Timestamp::from_entries(vec![1, 2, 3, 4]));
        let ts = pool.stamp_from(&[7, 8]);
        assert_eq!(ts.entries(), &[7, 8]);
        assert_eq!(pool.stats().hits, 1);
    }

    #[test]
    fn stamp_with_fills_in_place_and_keeps_the_buffer_on_error() {
        let mut pool = StampPool::new();
        pool.recycle(Timestamp::from_entries(vec![5, 5, 5]));
        let failed: Result<(Timestamp, ()), &str> = pool.stamp_with(3, |_| Err("bad input"));
        assert_eq!(failed, Err("bad input"));
        assert_eq!(pool.len(), 1, "a failed build returns its buffer");
        let (ts, rest) = pool
            .stamp_with(3, |slots| {
                slots.copy_from_slice(&[1, 2, 3]);
                slots[1] += 10;
                Ok::<_, ()>("rest")
            })
            .unwrap();
        assert_eq!((ts.entries(), rest), (&[1, 12, 3][..], "rest"));
        assert_eq!(pool.stats(), StampPoolStats { hits: 2, misses: 0 });
    }

    #[test]
    fn the_free_list_stops_at_its_cap() {
        let mut pool = StampPool::new();
        for round in 0..StampPool::MAX_FREE as u64 + 10 {
            pool.recycle(Timestamp::from_entries(vec![round; 4]));
        }
        assert_eq!(pool.len(), StampPool::MAX_FREE);
        // A full list still serves and refills.
        let ts = pool.stamp_from(&[1, 2, 3, 4]);
        pool.recycle(ts);
        assert_eq!(pool.len(), StampPool::MAX_FREE);
        assert_eq!(pool.stats(), StampPoolStats { hits: 1, misses: 0 });
    }

    #[test]
    fn steady_state_cycle_is_hit_only() {
        let mut pool = StampPool::new();
        pool.recycle(Timestamp::from_entries(vec![0; 8]));
        for round in 0..100u64 {
            let ts = pool.stamp_from(&[round; 8]);
            pool.recycle(ts);
        }
        assert_eq!(pool.stats(), StampPoolStats { hits: 100, misses: 0 });
    }
}
