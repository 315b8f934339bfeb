//! Process identity.

use std::fmt;

/// Identity of a process (peer, node, replica) in the system `Π`.
///
/// In the paper's model processes need not know `N` or each other's
/// identities for the *probabilistic* mechanism to work; identities are
/// used by baselines (vector clocks index by them), by the simulator, and
/// by diagnostics.
///
/// ```
/// use pcb_clock::ProcessId;
/// let p = ProcessId::new(3);
/// assert_eq!(p.index(), 3);
/// assert_eq!(p.to_string(), "p3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ProcessId(usize);

impl ProcessId {
    /// Wraps a dense process index.
    #[must_use]
    pub const fn new(index: usize) -> Self {
        Self(index)
    }

    /// The dense index, usable directly into per-process arrays.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0
    }

    /// The dense index narrowed to `u32`, for wire frames and trace
    /// records that store sender indices compactly.
    ///
    /// Every narrowing of a process index must route through here: a
    /// bare `as u32` silently truncates once deployments reach
    /// `R ≥ 2³²` processes, aliasing distinct senders in traces and
    /// frames.
    ///
    /// # Panics
    ///
    /// Panics if the index does not fit in `u32`, instead of silently
    /// truncating.
    #[must_use]
    pub fn index_u32(self) -> u32 {
        u32::try_from(self.0)
            .unwrap_or_else(|_| panic!("process index {} does not fit in u32", self.0))
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<usize> for ProcessId {
    fn from(index: usize) -> Self {
        Self(index)
    }
}

impl From<ProcessId> for usize {
    fn from(id: ProcessId) -> Self {
        id.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_display() {
        let p: ProcessId = 7usize.into();
        assert_eq!(usize::from(p), 7);
        assert_eq!(format!("{p}"), "p7");
        assert_eq!(format!("{p:?}"), "ProcessId(7)");
    }

    #[test]
    fn ordering_follows_index() {
        assert!(ProcessId::new(1) < ProcessId::new(2));
        assert_eq!(ProcessId::default(), ProcessId::new(0));
    }

    #[test]
    fn index_u32_is_exact_in_range() {
        assert_eq!(ProcessId::new(0).index_u32(), 0);
        assert_eq!(ProcessId::new(u32::MAX as usize).index_u32(), u32::MAX);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    #[should_panic(expected = "does not fit in u32")]
    fn index_u32_refuses_to_truncate() {
        let _ = ProcessId::new(u32::MAX as usize + 1).index_u32();
    }
}
