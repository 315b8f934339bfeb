//! Combinatorial machinery behind key-set generation (paper §4.1.3, Algorithm 3).
//!
//! A process derives its `K` clock entries from a single integer *set id*
//! in `[0, C(R, K))` by **unranking**: mapping the id to the `set_id`-th
//! `K`-combination of `{0, …, R-1}` in lexicographic order. This module
//! provides checked binomial coefficients, a precomputed Pascal table, the
//! unranking function (the paper's Algorithm 3) and its inverse (ranking),
//! plus an iterator over all combinations used by tests and ablations.

use std::fmt;

/// Errors produced by combinatorial operations.
///
/// ```
/// use pcb_clock::combinatorics::{unrank, CombinatoricsError};
/// assert_eq!(unrank(0, 3, 5), Err(CombinatoricsError::KExceedsR { k: 5, r: 3 }));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CombinatoricsError {
    /// Requested `k` items out of `r` with `k > r`.
    KExceedsR {
        /// Requested subset size.
        k: usize,
        /// Universe size.
        r: usize,
    },
    /// The rank (set id) is outside `[0, C(r, k))`.
    RankOutOfRange {
        /// Offending rank.
        rank: u128,
        /// Number of `k`-combinations of the universe, `C(r, k)`.
        total: u128,
    },
    /// An intermediate binomial coefficient overflowed `u128`.
    Overflow,
    /// The input slice is not a strictly increasing combination over `0..r`.
    MalformedCombination,
}

impl fmt::Display for CombinatoricsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::KExceedsR { k, r } => {
                write!(f, "cannot choose {k} entries from a universe of {r}")
            }
            Self::RankOutOfRange { rank, total } => {
                write!(f, "rank {rank} is outside [0, {total})")
            }
            Self::Overflow => write!(f, "binomial coefficient overflowed u128"),
            Self::MalformedCombination => {
                write!(f, "combination is not strictly increasing within its universe")
            }
        }
    }
}

impl std::error::Error for CombinatoricsError {}

/// Computes the binomial coefficient `C(n, k)` exactly, returning `None` on
/// `u128` overflow.
///
/// Uses the multiplicative formula with an interleaved division (always
/// exact, because every prefix product is itself a binomial coefficient).
///
/// ```
/// use pcb_clock::combinatorics::binomial;
/// assert_eq!(binomial(100, 4), Some(3_921_225));
/// assert_eq!(binomial(5, 0), Some(1));
/// assert_eq!(binomial(3, 5), Some(0));
/// ```
#[must_use]
pub fn binomial(n: u64, k: u64) -> Option<u128> {
    if k > n {
        return Some(0);
    }
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        // Exact: C(n, i+1) = C(n, i) * (n - i) / (i + 1). Cancel the gcd
        // before multiplying so intermediates stay as small as possible.
        let mut numerator = u128::from(n - i);
        let mut denominator = u128::from(i + 1);
        let g = gcd(acc, denominator);
        acc /= g;
        denominator /= g;
        let g = gcd(numerator, denominator);
        numerator /= g;
        denominator /= g;
        debug_assert_eq!(denominator, 1, "binomial division must be exact");
        acc = acc.checked_mul(numerator)?;
    }
    Some(acc)
}

fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Precomputed Pascal triangle, used on hot paths (message-rate unranking)
/// to avoid recomputing coefficients.
///
/// Entries that would overflow `u128` saturate to `u128::MAX`; ranks are
/// validated against exact values before the table is consulted, so
/// saturation never corrupts an unranking within the valid range.
///
/// ```
/// use pcb_clock::combinatorics::BinomialTable;
/// let table = BinomialTable::new(100);
/// assert_eq!(table.get(100, 4), 3_921_225);
/// ```
#[derive(Debug, Clone)]
pub struct BinomialTable {
    max_n: usize,
    rows: Vec<u128>,
}

impl BinomialTable {
    /// Builds the triangle for all `C(n, k)` with `n <= max_n`.
    #[must_use]
    pub fn new(max_n: usize) -> Self {
        let mut rows = vec![0u128; (max_n + 1) * (max_n + 1)];
        for n in 0..=max_n {
            rows[n * (max_n + 1)] = 1;
            for k in 1..=n {
                let above = rows[(n - 1) * (max_n + 1) + k];
                let above_left = rows[(n - 1) * (max_n + 1) + k - 1];
                rows[n * (max_n + 1) + k] = above.saturating_add(above_left);
            }
        }
        Self { max_n, rows }
    }

    /// Looks up `C(n, k)`, saturating at `u128::MAX`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is past the `max_n` the table was built for.
    #[must_use]
    pub fn get(&self, n: usize, k: usize) -> u128 {
        assert!(n <= self.max_n, "binomial table built for n <= {}, got {n}", self.max_n);
        if k > n {
            0
        } else {
            self.rows[n * (self.max_n + 1) + k]
        }
    }
}

thread_local! {
    // rank/unrank are called per message on hot paths (wire decode, key
    // assignment); cache the Pascal table per thread, growing as needed.
    static TABLE_CACHE: std::cell::RefCell<Option<BinomialTable>> =
        const { std::cell::RefCell::new(None) };
}

/// Runs `f` with a thread-cached [`BinomialTable`] covering at least `r`.
fn with_cached_table<T>(r: usize, f: impl FnOnce(&BinomialTable) -> T) -> T {
    TABLE_CACHE.with(|cell| {
        let mut slot = cell.borrow_mut();
        if slot.as_ref().is_none_or(|t| t.max_n < r) {
            *slot = Some(BinomialTable::new(r));
        }
        f(slot.as_ref().expect("just ensured"))
    })
}

/// Maps a set id to the `rank`-th `k`-combination of `{0, …, r-1}` in
/// lexicographic order (the paper's **Algorithm 3**).
///
/// The returned vector is strictly increasing and has length `k`. Uses a
/// per-thread Pascal-table cache; for explicit table control see
/// [`unrank_with`].
///
/// # Errors
///
/// Returns [`CombinatoricsError::KExceedsR`] if `k > r` and
/// [`CombinatoricsError::RankOutOfRange`] if `rank >= C(r, k)`.
///
/// ```
/// use pcb_clock::combinatorics::unrank;
/// assert_eq!(unrank(0, 4, 2)?, vec![0, 1]);
/// assert_eq!(unrank(5, 4, 2)?, vec![2, 3]);
/// # Ok::<(), pcb_clock::combinatorics::CombinatoricsError>(())
/// ```
pub fn unrank(rank: u128, r: usize, k: usize) -> Result<Vec<usize>, CombinatoricsError> {
    with_cached_table(r, |table| unrank_with(table, rank, r, k))
}

/// [`unrank`] against a caller-provided [`BinomialTable`] (hot-path variant).
///
/// # Errors
///
/// Same as [`unrank`]; additionally the table must cover `n = r`.
pub fn unrank_with(
    table: &BinomialTable,
    rank: u128,
    r: usize,
    k: usize,
) -> Result<Vec<usize>, CombinatoricsError> {
    if k > r {
        return Err(CombinatoricsError::KExceedsR { k, r });
    }
    let total = table.get(r, k);
    if rank >= total {
        return Err(CombinatoricsError::RankOutOfRange { rank, total });
    }
    let mut combo = Vec::with_capacity(k);
    let mut remaining = rank;
    let mut candidate = 0usize;
    for position in 0..k {
        // Count combinations that fix `candidate` at this position; skip
        // candidates whose block the rank jumps over.
        loop {
            let block = table.get(r - 1 - candidate, k - 1 - position);
            if remaining < block {
                break;
            }
            remaining -= block;
            candidate += 1;
        }
        combo.push(candidate);
        candidate += 1;
    }
    Ok(combo)
}

/// Inverse of [`unrank`]: the lexicographic rank of `combo` among the
/// `k`-combinations of `{0, …, r-1}`.
///
/// # Errors
///
/// Returns [`CombinatoricsError::MalformedCombination`] if `combo` is not
/// strictly increasing or contains an element `>= r`.
///
/// ```
/// use pcb_clock::combinatorics::{rank, unrank};
/// let combo = unrank(1234, 100, 4)?;
/// assert_eq!(rank(&combo, 100)?, 1234);
/// # Ok::<(), pcb_clock::combinatorics::CombinatoricsError>(())
/// ```
pub fn rank(combo: &[usize], r: usize) -> Result<u128, CombinatoricsError> {
    with_cached_table(r, |table| rank_with(table, combo, r))
}

/// [`rank`] against a caller-provided [`BinomialTable`].
///
/// # Errors
///
/// Same as [`rank`].
pub fn rank_with(
    table: &BinomialTable,
    combo: &[usize],
    r: usize,
) -> Result<u128, CombinatoricsError> {
    let k = combo.len();
    if k > r {
        return Err(CombinatoricsError::KExceedsR { k, r });
    }
    let mut acc: u128 = 0;
    let mut prev: Option<usize> = None;
    for (position, &value) in combo.iter().enumerate() {
        if value >= r || prev.is_some_and(|p| value <= p) {
            return Err(CombinatoricsError::MalformedCombination);
        }
        let start = prev.map_or(0, |p| p + 1);
        for skipped in start..value {
            acc = acc
                .checked_add(table.get(r - 1 - skipped, k - 1 - position))
                .ok_or(CombinatoricsError::Overflow)?;
        }
        prev = Some(value);
    }
    Ok(acc)
}

/// Iterator over all `k`-combinations of `{0, …, r-1}` in lexicographic
/// order. Used by exhaustive tests and by the maximally-spread assignment
/// ablation.
///
/// ```
/// use pcb_clock::combinatorics::Combinations;
/// let all: Vec<_> = Combinations::new(3, 2).collect();
/// assert_eq!(all, vec![vec![0, 1], vec![0, 2], vec![1, 2]]);
/// ```
#[derive(Debug, Clone)]
pub struct Combinations {
    r: usize,
    k: usize,
    state: Option<Vec<usize>>,
}

impl Combinations {
    /// Creates the iterator; yields nothing when `k > r`.
    #[must_use]
    pub fn new(r: usize, k: usize) -> Self {
        let state = if k <= r { Some((0..k).collect()) } else { None };
        Self { r, k, state }
    }
}

impl Iterator for Combinations {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Self::Item> {
        let current = self.state.clone()?;
        // Advance: find the rightmost index that can still move right.
        let mut next = current.clone();
        let mut i = self.k;
        loop {
            if i == 0 {
                self.state = None;
                break;
            }
            i -= 1;
            if next[i] + (self.k - i) < self.r {
                next[i] += 1;
                for j in i + 1..self.k {
                    next[j] = next[j - 1] + 1;
                }
                self.state = Some(next);
                break;
            }
        }
        Some(current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binomial_basic_values() {
        assert_eq!(binomial(0, 0), Some(1));
        assert_eq!(binomial(1, 0), Some(1));
        assert_eq!(binomial(1, 1), Some(1));
        assert_eq!(binomial(10, 3), Some(120));
        assert_eq!(binomial(52, 5), Some(2_598_960));
        assert_eq!(binomial(100, 4), Some(3_921_225));
    }

    #[test]
    fn binomial_k_greater_than_n_is_zero() {
        assert_eq!(binomial(3, 4), Some(0));
        assert_eq!(binomial(0, 1), Some(0));
    }

    #[test]
    fn binomial_symmetry() {
        for n in 0..30u64 {
            for k in 0..=n {
                assert_eq!(binomial(n, k), binomial(n, n - k), "C({n},{k})");
            }
        }
    }

    #[test]
    fn binomial_pascal_identity() {
        for n in 1..40u64 {
            for k in 1..n {
                let lhs = binomial(n, k).unwrap();
                let rhs = binomial(n - 1, k - 1).unwrap() + binomial(n - 1, k).unwrap();
                assert_eq!(lhs, rhs);
            }
        }
    }

    #[test]
    fn binomial_large_exact() {
        // C(128, 64) fits u128.
        assert!(binomial(128, 64).is_some());
        // C(200, 100) overflows u128.
        assert_eq!(binomial(200, 100), None);
    }

    #[test]
    fn table_matches_exact() {
        let table = BinomialTable::new(64);
        for n in 0..=64usize {
            for k in 0..=n {
                assert_eq!(table.get(n, k), binomial(n as u64, k as u64).unwrap());
            }
        }
    }

    #[test]
    fn table_k_above_n_is_zero() {
        let table = BinomialTable::new(8);
        assert_eq!(table.get(3, 7), 0);
    }

    #[test]
    #[should_panic(expected = "binomial table built for")]
    fn table_panics_beyond_max_n() {
        let table = BinomialTable::new(4);
        let _ = table.get(5, 1);
    }

    #[test]
    fn unrank_first_and_last() {
        assert_eq!(unrank(0, 5, 3).unwrap(), vec![0, 1, 2]);
        let total = binomial(5, 3).unwrap();
        assert_eq!(unrank(total - 1, 5, 3).unwrap(), vec![2, 3, 4]);
    }

    #[test]
    fn unrank_enumerates_lexicographically() {
        let r = 7;
        let k = 3;
        let total = binomial(r as u64, k as u64).unwrap();
        let mut seen = Vec::new();
        for id in 0..total {
            seen.push(unrank(id, r, k).unwrap());
        }
        let mut sorted = seen.clone();
        sorted.sort();
        assert_eq!(seen, sorted, "unranking must follow lexicographic order");
        sorted.dedup();
        assert_eq!(sorted.len() as u128, total, "all combinations distinct");
    }

    #[test]
    fn unrank_matches_iterator() {
        let r = 6;
        let k = 4;
        for (id, combo) in Combinations::new(r, k).enumerate() {
            assert_eq!(unrank(id as u128, r, k).unwrap(), combo);
        }
    }

    #[test]
    fn unrank_rejects_out_of_range() {
        let total = binomial(4, 2).unwrap();
        assert_eq!(
            unrank(total, 4, 2),
            Err(CombinatoricsError::RankOutOfRange { rank: total, total })
        );
    }

    #[test]
    fn unrank_k_zero_is_empty() {
        assert_eq!(unrank(0, 4, 0).unwrap(), Vec::<usize>::new());
    }

    #[test]
    fn unrank_k_equals_r() {
        assert_eq!(unrank(0, 4, 4).unwrap(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn rank_is_inverse_of_unrank_exhaustive() {
        for r in 1..=8usize {
            for k in 0..=r {
                let total = binomial(r as u64, k as u64).unwrap();
                for id in 0..total {
                    let combo = unrank(id, r, k).unwrap();
                    assert_eq!(rank(&combo, r).unwrap(), id, "r={r} k={k}");
                }
            }
        }
    }

    #[test]
    fn rank_rejects_malformed() {
        assert_eq!(rank(&[1, 1], 4), Err(CombinatoricsError::MalformedCombination));
        assert_eq!(rank(&[2, 1], 4), Err(CombinatoricsError::MalformedCombination));
        assert_eq!(rank(&[0, 4], 4), Err(CombinatoricsError::MalformedCombination));
    }

    #[test]
    fn paper_scale_roundtrip() {
        // The paper's configuration: R = 100, K = 4.
        let table = BinomialTable::new(100);
        let total = table.get(100, 4);
        assert_eq!(total, 3_921_225);
        for id in [0u128, 1, 17, 500_000, 3_921_224] {
            let combo = unrank_with(&table, id, 100, 4).unwrap();
            assert_eq!(combo.len(), 4);
            assert!(combo.windows(2).all(|w| w[0] < w[1]));
            assert!(combo.iter().all(|&e| e < 100));
            assert_eq!(rank_with(&table, &combo, 100).unwrap(), id);
        }
    }

    #[test]
    fn combinations_counts() {
        assert_eq!(Combinations::new(6, 3).count() as u128, binomial(6, 3).unwrap());
        assert_eq!(Combinations::new(3, 5).count(), 0);
        assert_eq!(Combinations::new(4, 0).count(), 1);
    }
}
