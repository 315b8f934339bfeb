//! Key spaces and key sets: the `f(p_i)` of the paper.
//!
//! A [`KeySpace`] is the pair `(R, K)` — vector length and entries per
//! process. A [`KeySet`] is one concrete assignment `f(p)`: a strictly
//! increasing set of `K` entries drawn from `{0, …, R-1}`, identified by
//! its lexicographic rank (`set_id`, paper §4.1.3).

use std::fmt;

use crate::combinatorics::{binomial, rank, unrank, CombinatoricsError};

/// Errors raised when constructing key spaces or key sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyError {
    /// `R` must be at least 1.
    EmptySpace,
    /// `R` exceeds [`KeySpace::MAX_R`].
    SpaceTooLarge {
        /// Offending vector length.
        r: usize,
    },
    /// `K` must satisfy `1 <= K <= R`.
    InvalidK {
        /// Offending entries-per-process.
        k: usize,
        /// Vector length.
        r: usize,
    },
    /// Underlying combinatorial failure (bad rank, malformed set, overflow).
    Combinatorics(CombinatoricsError),
}

impl fmt::Display for KeyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EmptySpace => write!(f, "key space requires R >= 1"),
            Self::SpaceTooLarge { r } => {
                write!(f, "key space requires R <= {}, got R={r}", KeySpace::MAX_R)
            }
            Self::InvalidK { k, r } => write!(f, "K must satisfy 1 <= K <= R, got K={k}, R={r}"),
            Self::Combinatorics(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for KeyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Combinatorics(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CombinatoricsError> for KeyError {
    fn from(e: CombinatoricsError) -> Self {
        Self::Combinatorics(e)
    }
}

/// The `(R, K)` configuration of the probabilistic clock.
///
/// In the paper's `(a, b, c) = (N, R, K)` taxonomy this is `(b, c)`:
/// Lamport clocks are `(1, 1)`, plausible clocks `(R, 1)`, vector clocks
/// `(N, 1)` with distinct entries, and the paper's mechanism a general
/// `(R, K)`.
///
/// ```
/// use pcb_clock::KeySpace;
/// let space = KeySpace::new(100, 4)?;
/// assert_eq!(space.combination_count(), 3_921_225);
/// # Ok::<(), pcb_clock::KeyError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KeySpace {
    r: usize,
    k: usize,
}

impl KeySpace {
    /// Architectural upper bound on `R`. The unranking path builds an
    /// `O(R²)` Pascal table, so `R` must be bounded for untrusted wire
    /// bytes (join grants, wire frames, replay steps) to be safe to
    /// decode: a forged multi-billion `R` would otherwise abort the
    /// process on table allocation. 2048 is an order of magnitude above
    /// every configuration in the paper's regime (`R ≈ 100`) and every
    /// vector baseline this repo runs.
    pub const MAX_R: usize = 2048;

    /// Creates a key space with vector length `r` and `k` entries per process.
    ///
    /// # Errors
    ///
    /// [`KeyError::EmptySpace`] if `r == 0`; [`KeyError::SpaceTooLarge`]
    /// if `r > `[`KeySpace::MAX_R`]; [`KeyError::InvalidK`] unless
    /// `1 <= k <= r`.
    pub fn new(r: usize, k: usize) -> Result<Self, KeyError> {
        if r == 0 {
            return Err(KeyError::EmptySpace);
        }
        if r > Self::MAX_R {
            return Err(KeyError::SpaceTooLarge { r });
        }
        if k == 0 || k > r {
            return Err(KeyError::InvalidK { k, r });
        }
        Ok(Self { r, k })
    }

    /// The Lamport configuration `(R, K) = (1, 1)` — every process shares
    /// the single entry.
    #[must_use]
    pub fn lamport() -> Self {
        Self { r: 1, k: 1 }
    }

    /// The plausible-clock configuration `(R, 1)` of Torres-Rojas & Ahamad.
    ///
    /// # Errors
    ///
    /// [`KeyError::EmptySpace`] if `r == 0`.
    pub fn plausible(r: usize) -> Result<Self, KeyError> {
        Self::new(r, 1)
    }

    /// The vector-clock configuration `(N, 1)`: combined with
    /// [`KeySet::singleton`] per process it reproduces exact causal order.
    ///
    /// # Errors
    ///
    /// [`KeyError::EmptySpace`] if `n == 0`.
    pub fn vector(n: usize) -> Result<Self, KeyError> {
        Self::new(n, 1)
    }

    /// Vector length `R`.
    #[must_use]
    pub const fn r(&self) -> usize {
        self.r
    }

    /// Entries per process `K`.
    #[must_use]
    pub const fn k(&self) -> usize {
        self.k
    }

    /// Number of distinct key sets, `C(R, K)`, saturating at `u128::MAX`.
    #[must_use]
    pub fn combination_count(&self) -> u128 {
        binomial(self.r as u64, self.k as u64).unwrap_or(u128::MAX)
    }
}

impl fmt::Display for KeySpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(R={}, K={})", self.r, self.k)
    }
}

/// A process's assigned entries `f(p)`: `K` strictly increasing indices
/// into the `R`-entry clock vector.
///
/// ```
/// use pcb_clock::{KeySet, KeySpace};
/// let space = KeySpace::new(4, 2)?;
/// let keys = KeySet::from_set_id(space, 1)?;
/// assert_eq!(keys.entries(), &[0, 2]);
/// assert_eq!(keys.set_id(), 1);
/// # Ok::<(), pcb_clock::KeyError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct KeySet {
    space: KeySpace,
    entries: Vec<u32>,
    set_id: u128,
}

impl KeySet {
    /// Derives the key set from a `set_id` in `[0, C(R, K))` by
    /// lexicographic unranking (paper Algorithm 3).
    ///
    /// # Errors
    ///
    /// [`KeyError::Combinatorics`] if `set_id` is out of range.
    pub fn from_set_id(space: KeySpace, set_id: u128) -> Result<Self, KeyError> {
        let combo = unrank(set_id, space.r, space.k)?;
        Ok(Self { space, entries: combo.into_iter().map(|e| e as u32).collect(), set_id })
    }

    /// Builds a key set from explicit entries, validating shape.
    ///
    /// # Errors
    ///
    /// [`KeyError::InvalidK`] if the number of entries differs from `K`;
    /// [`KeyError::Combinatorics`] if entries are not strictly increasing
    /// within `0..R`.
    pub fn from_entries(space: KeySpace, entries: &[usize]) -> Result<Self, KeyError> {
        if entries.len() != space.k {
            return Err(KeyError::InvalidK { k: entries.len(), r: space.r });
        }
        // rank() also validates monotonicity and range.
        let set_id = rank(entries, space.r)?;
        Ok(Self { space, entries: entries.iter().map(|&e| e as u32).collect(), set_id })
    }

    /// The single-entry key set `{index}` in an `(R, 1)` space — used for
    /// plausible- and vector-clock instantiations.
    ///
    /// # Errors
    ///
    /// [`KeyError::InvalidK`] if the space does not have `K = 1`;
    /// [`KeyError::Combinatorics`] if `index >= R`.
    pub fn singleton(space: KeySpace, index: usize) -> Result<Self, KeyError> {
        Self::from_entries(space, &[index])
    }

    /// Plausible-clock assignment for a process: entry `pid mod R`
    /// (Torres-Rojas & Ahamad's static mapping).
    ///
    /// # Errors
    ///
    /// [`KeyError::InvalidK`] if the space does not have `K = 1`.
    pub fn plausible(space: KeySpace, pid: crate::ProcessId) -> Result<Self, KeyError> {
        Self::singleton(space, pid.index() % space.r())
    }

    /// The key space this set belongs to.
    #[must_use]
    pub const fn space(&self) -> KeySpace {
        self.space
    }

    /// The assigned entries, strictly increasing.
    #[must_use]
    pub fn entries(&self) -> &[u32] {
        &self.entries
    }

    /// Iterates over entries as `usize` indices.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.entries.iter().map(|&e| e as usize)
    }

    /// Number of entries, `K`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the key set is empty (never true for validated sets).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether `entry` belongs to this key set (binary search).
    #[must_use]
    pub fn contains(&self, entry: usize) -> bool {
        u32::try_from(entry).is_ok_and(|e| self.entries.binary_search(&e).is_ok())
    }

    /// The lexicographic rank of this set — its `set_id` (cached at
    /// construction; free to read).
    #[must_use]
    pub fn set_id(&self) -> u128 {
        self.set_id
    }

    /// Number of entries shared with `other` (both sorted; linear merge).
    ///
    /// The paper notes that distinct set ids overlap in at most `K - 1`
    /// entries, which bounds interference between two specific processes.
    #[must_use]
    pub fn overlap(&self, other: &KeySet) -> usize {
        let (mut i, mut j, mut shared) = (0, 0, 0);
        while i < self.entries.len() && j < other.entries.len() {
            match self.entries[i].cmp(&other.entries[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    shared += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        shared
    }

    /// Whether every entry of `self` appears in the union of `others` —
    /// the *covering* condition behind delivery errors (paper Figure 2:
    /// an error requires `f(p_i) ⊆ ∪ f(p_l)` over concurrent senders).
    #[must_use]
    pub fn covered_by<'a, I>(&self, others: I) -> bool
    where
        I: IntoIterator<Item = &'a KeySet>,
    {
        let mut covered = vec![false; self.entries.len()];
        for other in others {
            for (slot, entry) in self.iter().enumerate() {
                if other.contains(entry) {
                    covered[slot] = true;
                }
            }
        }
        covered.into_iter().all(|c| c)
    }
}

impl fmt::Display for KeySet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProcessId;

    #[test]
    fn space_validation() {
        assert_eq!(KeySpace::new(0, 0), Err(KeyError::EmptySpace));
        assert_eq!(KeySpace::new(4, 0), Err(KeyError::InvalidK { k: 0, r: 4 }));
        assert_eq!(KeySpace::new(4, 5), Err(KeyError::InvalidK { k: 5, r: 4 }));
        assert!(KeySpace::new(4, 4).is_ok());
    }

    #[test]
    fn named_configurations() {
        assert_eq!(KeySpace::lamport(), KeySpace::new(1, 1).unwrap());
        assert_eq!(KeySpace::plausible(10).unwrap(), KeySpace::new(10, 1).unwrap());
        assert_eq!(KeySpace::vector(5).unwrap(), KeySpace::new(5, 1).unwrap());
    }

    #[test]
    fn set_id_roundtrip() {
        let space = KeySpace::new(10, 3).unwrap();
        for id in 0..space.combination_count() {
            let keys = KeySet::from_set_id(space, id).unwrap();
            assert_eq!(keys.set_id(), id);
            assert_eq!(keys.len(), 3);
        }
    }

    #[test]
    fn from_entries_validates() {
        let space = KeySpace::new(5, 2).unwrap();
        assert!(KeySet::from_entries(space, &[1, 3]).is_ok());
        assert!(KeySet::from_entries(space, &[3, 1]).is_err());
        assert!(KeySet::from_entries(space, &[1, 5]).is_err());
        assert!(KeySet::from_entries(space, &[1]).is_err());
        assert!(KeySet::from_entries(space, &[1, 2, 3]).is_err());
    }

    #[test]
    fn contains_and_iter() {
        let space = KeySpace::new(8, 3).unwrap();
        let keys = KeySet::from_entries(space, &[0, 4, 7]).unwrap();
        assert!(keys.contains(0) && keys.contains(4) && keys.contains(7));
        assert!(!keys.contains(1) && !keys.contains(8));
        assert_eq!(keys.iter().collect::<Vec<_>>(), vec![0, 4, 7]);
        assert!(!keys.is_empty());
    }

    #[test]
    fn overlap_counts_shared_entries() {
        let space = KeySpace::new(8, 3).unwrap();
        let a = KeySet::from_entries(space, &[0, 4, 7]).unwrap();
        let b = KeySet::from_entries(space, &[1, 4, 7]).unwrap();
        let c = KeySet::from_entries(space, &[1, 2, 3]).unwrap();
        assert_eq!(a.overlap(&b), 2);
        assert_eq!(a.overlap(&c), 0);
        assert_eq!(a.overlap(&a), 3);
    }

    #[test]
    fn distinct_sets_overlap_at_most_k_minus_1() {
        let space = KeySpace::new(6, 3).unwrap();
        let sets: Vec<_> = (0..space.combination_count())
            .map(|id| KeySet::from_set_id(space, id).unwrap())
            .collect();
        for (i, a) in sets.iter().enumerate() {
            for b in &sets[i + 1..] {
                assert!(a.overlap(b) <= 2);
            }
        }
    }

    #[test]
    fn covered_by_matches_paper_figure2() {
        // Figure 2: f(p_i) = {0,1} is covered by f(p_1) = {0,3} ∪ f(p_2) = {1,3}.
        let space = KeySpace::new(4, 2).unwrap();
        let fi = KeySet::from_entries(space, &[0, 1]).unwrap();
        let f1 = KeySet::from_entries(space, &[0, 3]).unwrap();
        let f2 = KeySet::from_entries(space, &[1, 3]).unwrap();
        assert!(fi.covered_by([&f1, &f2]));
        assert!(!fi.covered_by([&f1]));
        assert!(!fi.covered_by([&f2]));
        assert!(fi.covered_by([&fi]));
    }

    #[test]
    fn plausible_maps_pid_mod_r() {
        let space = KeySpace::plausible(4).unwrap();
        let keys = KeySet::plausible(space, ProcessId::new(6)).unwrap();
        assert_eq!(keys.entries(), &[2]);
    }

    #[test]
    fn display_formats() {
        let space = KeySpace::new(5, 2).unwrap();
        let keys = KeySet::from_entries(space, &[1, 3]).unwrap();
        assert_eq!(keys.to_string(), "{1,3}");
        assert_eq!(space.to_string(), "(R=5, K=2)");
    }
}
