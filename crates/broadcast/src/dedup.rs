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

use bytes::BufMut;
use pcb_clock::ProcessId;

use crate::idmap::IdMap;
use crate::message::MessageId;
use crate::wire::{put_uvar, take_uvar, WireError};

/// A [`DedupFilter`] in exported form: one `(sender, prefix, exceptions)`
/// per sender, ascending by sender — ids `1..=prefix` plus the ascending
/// `exceptions` beyond it. What snapshots persist and sync probes carry.
pub type SeenWindows = Vec<(ProcessId, u64, Vec<u64>)>;

/// Appends `windows`: `uvar count | count × (uvar sender | uvar prefix |
/// uvar n | n × uvar seq)`, as a sync probe and a snapshot carry them.
pub(crate) fn put_windows(out: &mut impl BufMut, windows: &[(ProcessId, u64, Vec<u64>)]) {
    put_uvar(out, windows.len() as u64);
    for (sender, prefix, exceptions) in windows {
        put_uvar(out, sender.index() as u64);
        put_uvar(out, *prefix);
        put_uvar(out, exceptions.len() as u64);
        for &seq in exceptions {
            put_uvar(out, seq);
        }
    }
}

/// Takes what [`put_windows`] wrote, in exported form only — senders
/// strictly ascending, each exception list strictly ascending and beyond
/// its prefix — or [`WireError::BadWindows`]. Every element takes a byte
/// at least, so a count reserves no more than the bytes behind it hold.
pub(crate) fn take_windows(cur: &mut &[u8]) -> Result<SeenWindows, WireError> {
    let count = take_uvar(cur)?;
    let mut windows: SeenWindows = Vec::with_capacity(count.min(cur.len() as u64 / 3) as usize);
    for _ in 0..count {
        let sender = ProcessId::new(take_uvar(cur)? as usize);
        if windows.last().is_some_and(|(last, _, _)| *last >= sender) {
            return Err(WireError::BadWindows);
        }
        let prefix = take_uvar(cur)?;
        let gaps = take_uvar(cur)?;
        let mut exceptions = Vec::with_capacity(gaps.min(cur.len() as u64) as usize);
        let mut floor = prefix;
        for _ in 0..gaps {
            let seq = take_uvar(cur)?;
            if seq <= floor {
                return Err(WireError::BadWindows);
            }
            floor = seq;
            exceptions.push(seq);
        }
        windows.push((sender, prefix, exceptions));
    }
    Ok(windows)
}

/// Whether `id` is inside `windows` (which must be ascending by sender,
/// each exception list ascending, as [`DedupFilter::export_windows`]
/// produces them).
#[must_use]
pub fn windows_contain(windows: &[(ProcessId, u64, Vec<u64>)], id: MessageId) -> bool {
    windows.binary_search_by_key(&id.sender(), |(sender, _, _)| *sender).is_ok_and(|at| {
        let (_, prefix, exceptions) = &windows[at];
        id.seq() <= *prefix || exceptions.binary_search(&id.seq()).is_ok()
    })
}

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

    /// The compressed per-sender state `(sender, prefix, exceptions)`,
    /// sorted by sender (the map's iteration order follows its insertion
    /// history and must not leak into outputs) — the filter's full
    /// contents in its native `O(senders + gaps)` representation, for
    /// durable snapshots and anti-entropy probes.
    #[must_use]
    pub fn export_windows(&self) -> SeenWindows {
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

    /// Adds everything `other` has seen to this filter.
    pub fn union(&mut self, other: &DedupFilter) {
        for (&sender, theirs) in &other.windows {
            let window = self.windows.entry(sender).or_default();
            let prefix = window.prefix.max(theirs.prefix);
            window.prefix = prefix;
            // Keep only what the (possibly longer) prefix does not cover,
            // then absorb exceptions that became contiguous with it.
            window.exceptions.retain(|&seq| seq > prefix);
            window.exceptions.extend(theirs.exceptions.iter().copied().filter(|&seq| seq > prefix));
            while let Some(next) = window.prefix.checked_add(1) {
                if !window.exceptions.remove(&next) {
                    break;
                }
                window.prefix = next;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Out-of-order exceptions the filter holds, over every sender.
    fn exceptions(filter: &DedupFilter) -> usize {
        filter.export_windows().iter().map(|(_, _, exceptions)| exceptions.len()).sum()
    }

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
        assert_eq!(filter.export_windows().len(), 4);
        assert_eq!(exceptions(&filter), 0);
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
        assert_eq!(exceptions(&filter), 2, "3 and 4 wait for 2");
        assert!(!filter.contains(id(0, 2)));
        assert!(filter.insert(id(0, 2)));
        assert_eq!(exceptions(&filter), 0, "prefix absorbed 2..=4");
        assert!(!filter.insert(id(0, 4)), "absorbed ids are duplicates");
    }

    #[test]
    fn exported_windows_answer_membership_like_the_filter() {
        let mut filter = DedupFilter::new();
        for (sender, seq) in [(7, 1), (7, 2), (7, 5), (3, 9)] {
            filter.insert(id(sender, seq));
        }
        let windows = filter.export_windows();
        assert_eq!(
            windows,
            vec![(ProcessId::new(3), 0, vec![9]), (ProcessId::new(7), 2, vec![5])],
            "ascending by sender whatever the insertion order"
        );
        for sender in [3, 5, 7] {
            for seq in 0..12 {
                let probe = id(sender, seq);
                assert_eq!(windows_contain(&windows, probe), filter.contains(probe), "{probe:?}");
            }
        }
    }

    #[test]
    fn union_takes_the_longer_prefix_and_heals_across_it() {
        let mut a = DedupFilter::new();
        for seq in [1, 2, 3, 6, 9] {
            a.insert(id(0, seq));
        }
        let mut b = DedupFilter::new();
        for seq in [1, 2, 3, 4, 5, 8] {
            b.insert(id(0, seq));
        }
        b.insert(id(4, 2));
        a.union(&b);
        // 1..=5 from b, 6 from a heals onto it; 8 and 9 stay exceptions.
        assert_eq!(
            a.export_windows(),
            vec![(ProcessId::new(0), 6, vec![8, 9]), (ProcessId::new(4), 0, vec![2])]
        );
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
        assert_eq!(exceptions(&filter), 0);
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
