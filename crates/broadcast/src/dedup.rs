//! Bounded-memory duplicate suppression.
//!
//! The seed kept every [`MessageId`] ever seen in a `HashSet`, growing
//! without bound for the lifetime of the endpoint. Since sequence
//! numbers are per-sender and contiguous, the set compresses to a
//! per-sender *contiguous prefix* ("seen everything up to `n`") plus a
//! sparse exception set for out-of-order arrivals beyond the prefix.
//! Memory is `O(senders + gaps)`: an in-order stream from any number of
//! senders occupies one counter per sender, regardless of message count.

use std::collections::BTreeSet;

use pcb_clock::ProcessId;

use crate::idmap::IdMap;
use crate::message::MessageId;

/// Per-sender seen-window: ids `1..=prefix` plus `exceptions`.
#[derive(Debug, Clone, Default)]
struct SenderWindow {
    prefix: u64,
    exceptions: BTreeSet<u64>,
}

/// Compressed set of seen message ids.
#[derive(Debug, Clone, Default)]
pub struct DedupFilter {
    windows: IdMap<ProcessId, SenderWindow>,
}

impl DedupFilter {
    /// An empty filter.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks `id` as seen. Returns `true` if it was new, `false` if it
    /// was already recorded (a duplicate).
    pub fn insert(&mut self, id: MessageId) -> bool {
        let window = self.windows.entry(id.sender()).or_default();
        let seq = id.seq();
        if seq <= window.prefix || window.exceptions.contains(&seq) {
            return false;
        }
        if seq == window.prefix + 1 {
            window.prefix = seq;
            // Absorb exceptions that are now contiguous with the prefix.
            while window.exceptions.remove(&(window.prefix + 1)) {
                window.prefix += 1;
            }
        } else {
            window.exceptions.insert(seq);
        }
        true
    }

    /// Un-marks `id`, so a later arrival of the same id is treated as
    /// new again. Returns `true` if the id was recorded. Used when
    /// snapshotting: ids that are *pending* (received but not delivered)
    /// must not be claimed by the durable seen-set, or a crash between
    /// receipt and delivery would make them unrecoverable.
    pub fn remove(&mut self, id: MessageId) -> bool {
        let Some(window) = self.windows.get_mut(&id.sender()) else {
            return false;
        };
        let seq = id.seq();
        if seq > window.prefix {
            return window.exceptions.remove(&seq);
        }
        if seq == 0 {
            return false;
        }
        // Re-open a hole inside the contiguous prefix: everything after
        // `seq` that the prefix covered becomes an explicit exception.
        window.exceptions.extend(seq + 1..=window.prefix);
        window.prefix = seq - 1;
        true
    }

    /// Whether `id` has been seen.
    #[must_use]
    pub fn contains(&self, id: MessageId) -> bool {
        self.windows
            .get(&id.sender())
            .is_some_and(|w| id.seq() <= w.prefix || w.exceptions.contains(&id.seq()))
    }

    /// Enumerates every seen id (prefix ranges expanded), ordered by
    /// sender then sequence. The order is deterministic — these ids go
    /// out on the wire in sync probes, and identical endpoints must emit
    /// identical probes (the map's iteration order follows its insertion
    /// history and must not leak into outputs). Time is proportional to
    /// the number of *messages*, memory stays proportional to the number
    /// of *senders and gaps*.
    pub fn iter(&self) -> impl Iterator<Item = MessageId> + '_ {
        let mut senders: Vec<_> = self.windows.iter().collect();
        senders.sort_by_key(|(&sender, _)| sender);
        senders.into_iter().flat_map(|(&sender, window)| {
            (1..=window.prefix)
                .chain(window.exceptions.iter().copied())
                .map(move |seq| MessageId::new(sender, seq))
        })
    }

    /// The compressed per-sender state `(sender, prefix, exceptions)`,
    /// sorted by sender — the filter's full contents in its native
    /// `O(senders + gaps)` representation, for durable snapshots.
    #[must_use]
    pub fn export_windows(&self) -> Vec<(ProcessId, u64, Vec<u64>)> {
        let mut out: Vec<_> = self
            .windows
            .iter()
            .map(|(&sender, w)| (sender, w.prefix, w.exceptions.iter().copied().collect()))
            .collect();
        out.sort_by_key(|(sender, _, _)| *sender);
        out
    }

    /// Rebuilds a filter from [`DedupFilter::export_windows`] output.
    #[must_use]
    pub fn from_windows(windows: impl IntoIterator<Item = (ProcessId, u64, Vec<u64>)>) -> Self {
        let mut filter = Self::new();
        for (sender, prefix, exceptions) in windows {
            filter.windows.insert(
                sender,
                SenderWindow { prefix, exceptions: exceptions.into_iter().collect() },
            );
        }
        filter
    }

    /// Number of senders tracked.
    #[must_use]
    pub fn sender_count(&self) -> usize {
        self.windows.len()
    }

    /// Number of out-of-order exceptions currently held — together with
    /// [`DedupFilter::sender_count`], the filter's true memory footprint.
    #[must_use]
    pub fn exception_count(&self) -> usize {
        self.windows.values().map(|w| w.exceptions.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(sender: usize, seq: u64) -> MessageId {
        MessageId::new(ProcessId::new(sender), seq)
    }

    #[test]
    fn in_order_stream_keeps_one_counter_per_sender() {
        let mut filter = DedupFilter::new();
        for sender in 0..4 {
            for seq in 1..=25_000u64 {
                assert!(filter.insert(id(sender, seq)));
            }
        }
        // 100_000 in-order messages: zero exceptions, four counters.
        assert_eq!(filter.sender_count(), 4);
        assert_eq!(filter.exception_count(), 0);
        assert!(!filter.insert(id(2, 17)), "old ids stay recorded");
        assert!(filter.contains(id(3, 25_000)));
        assert!(!filter.contains(id(3, 25_001)));
    }

    #[test]
    fn gaps_become_exceptions_and_heal() {
        let mut filter = DedupFilter::new();
        assert!(filter.insert(id(0, 1)));
        assert!(filter.insert(id(0, 4)));
        assert!(filter.insert(id(0, 3)));
        assert_eq!(filter.exception_count(), 2, "3 and 4 wait for 2");
        assert!(!filter.contains(id(0, 2)));
        assert!(filter.insert(id(0, 2)));
        assert_eq!(filter.exception_count(), 0, "prefix absorbed 2..=4");
        assert!(!filter.insert(id(0, 4)), "absorbed ids are duplicates");
    }

    #[test]
    fn iter_expands_prefix_and_exceptions() {
        let mut filter = DedupFilter::new();
        for seq in [1, 2, 5] {
            filter.insert(id(7, seq));
        }
        let mut seen: Vec<u64> = filter.iter().map(MessageId::seq).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![1, 2, 5]);
    }

    #[test]
    fn remove_reopens_holes_anywhere_in_the_window() {
        let mut filter = DedupFilter::new();
        for seq in [1, 2, 3, 6] {
            filter.insert(id(0, seq));
        }
        // Exception removal.
        assert!(filter.remove(id(0, 6)));
        assert!(!filter.contains(id(0, 6)));
        // Mid-prefix removal splits the prefix into exceptions.
        assert!(filter.remove(id(0, 2)));
        assert!(!filter.contains(id(0, 2)));
        assert!(filter.contains(id(0, 1)));
        assert!(filter.contains(id(0, 3)));
        // Removed ids insert as new; absorbing heals the prefix again.
        assert!(filter.insert(id(0, 2)));
        assert_eq!(filter.exception_count(), 0);
        // Unknown ids and unknown senders are no-ops.
        assert!(!filter.remove(id(0, 9)));
        assert!(!filter.remove(id(5, 1)));
    }

    #[test]
    fn duplicate_detection_across_senders_is_independent() {
        let mut filter = DedupFilter::new();
        assert!(filter.insert(id(0, 1)));
        assert!(filter.insert(id(1, 1)), "same seq, different sender");
        assert!(!filter.insert(id(0, 1)));
    }
}
