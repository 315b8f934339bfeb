//! Log-bucketed latency histogram with mergeable buckets.
//!
//! Replaces mean-only accumulators where the *tail* matters (the paper's
//! blocking-delay comparison against hybrid-buffering protocols lives in
//! p99, not the mean). Buckets are log₂-spaced with 4 linear sub-buckets
//! per octave over `2⁻²⁰..2²⁰` (sub-microsecond to ~17 minutes when the
//! unit is milliseconds), giving ≤ 25% relative quantile error from 160
//! fixed `u64` counters. Everything is integer bookkeeping plus one exact
//! running sum, so results are bit-deterministic for a given sample
//! sequence and [`Hist::merge`] is exact (element-wise bucket addition).
//!
//! ```
//! use pcb_telemetry::Hist;
//! let mut h = Hist::new();
//! for ms in [1.0, 2.0, 3.0, 100.0] { h.push(ms); }
//! assert_eq!(h.count(), 4);
//! assert_eq!(h.mean(), 26.5);
//! assert!(h.p50() >= 2.0 && h.p50() <= 3.0);
//! assert_eq!(h.max(), 100.0);
//! ```

/// Linear sub-buckets per octave (power of two).
const SUB_BITS: u32 = 2;
const SUBS: usize = 1 << SUB_BITS;
/// Smallest / largest representable octave (`2^MIN_EXP ..= 2^MAX_EXP`).
const MIN_EXP: i32 = -20;
const MAX_EXP: i32 = 20;
/// Total bucket count.
const BUCKETS: usize = ((MAX_EXP - MIN_EXP) as usize) * SUBS;

/// Bucket index for a sample: the octave comes straight from the IEEE-754
/// exponent and the sub-bucket from the top mantissa bits, so indexing is
/// exact (no `log2` rounding) and fully deterministic.
#[inline]
fn bucket_of(x: f64) -> usize {
    if !x.is_finite() || x <= 0.0 {
        return 0;
    }
    let bits = x.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as i32 - 1023;
    let sub = ((bits >> (52 - SUB_BITS)) & (SUBS as u64 - 1)) as i32;
    let idx = (exp - MIN_EXP) * SUBS as i32 + sub;
    idx.clamp(0, BUCKETS as i32 - 1) as usize
}

/// Upper bound of a bucket's value range.
fn bucket_upper(idx: usize) -> f64 {
    let exp = MIN_EXP + (idx / SUBS) as i32;
    let sub = (idx % SUBS) as f64;
    2f64.powi(exp) * (1.0 + (sub + 1.0) / SUBS as f64)
}

/// Log-bucketed histogram over positive samples (zero and negative
/// samples land in the lowest bucket; min/max/mean stay exact).
#[derive(Debug, Clone, PartialEq)]
pub struct Hist {
    counts: [u64; BUCKETS],
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Hist {
    fn default() -> Self {
        Self::new()
    }
}

impl Hist {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            counts: [0; BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds a sample.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.counts[bucket_of(x)] += 1;
        self.count += 1;
        self.sum += x;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples seen.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sample mean (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Exact sum of all samples.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest sample (`+inf` when empty).
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample (`-inf` when empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// The `q`-quantile (`0 < q <= 1`) as the covering bucket's upper
    /// bound, clamped into the exact `[min, max]` envelope; 0 when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // The top bucket also absorbs everything beyond the
                // histogram range, so its effective upper bound is the
                // exact max.
                let upper = if idx == BUCKETS - 1 { f64::INFINITY } else { bucket_upper(idx) };
                return upper.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median estimate.
    #[must_use]
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate.
    #[must_use]
    pub fn p90(&self) -> f64 {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate.
    #[must_use]
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Merges another histogram into this one (element-wise bucket
    /// addition — exact, unlike moment merging).
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_welford_compatible() {
        let h = Hist::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.min(), f64::INFINITY);
        assert_eq!(h.max(), f64::NEG_INFINITY);
    }

    #[test]
    fn bucket_bounds_bracket_the_sample() {
        // In-range samples only; out-of-range values clamp into the
        // first/last bucket and are covered by the extremes test.
        for &x in &[1e-5, 0.004, 0.9, 1.0, 1.5, 3.7, 100.0, 12345.6, 9e5] {
            let idx = bucket_of(x);
            assert!(bucket_upper(idx) >= x, "upper({idx}) >= {x}");
            if idx > 0 {
                assert!(bucket_upper(idx - 1) <= x, "lower({idx}) <= {x}");
            }
        }
    }

    #[test]
    fn quantiles_are_order_statistics_within_bucket_error() {
        let mut h = Hist::new();
        for i in 1..=1000 {
            h.push(f64::from(i));
        }
        // One octave sub-bucket is at most 25% wide.
        assert!((h.p50() - 500.0).abs() / 500.0 <= 0.25, "p50 = {}", h.p50());
        assert!((h.p90() - 900.0).abs() / 900.0 <= 0.25, "p90 = {}", h.p90());
        assert!((h.p99() - 990.0).abs() / 990.0 <= 0.25, "p99 = {}", h.p99());
        assert_eq!(h.quantile(1.0), 1000.0, "p100 clamps to the exact max");
        assert_eq!(h.mean(), 500.5);
    }

    #[test]
    fn single_sample_quantiles_are_exact() {
        let mut h = Hist::new();
        h.push(42.0);
        // The [min, max] clamp collapses every quantile onto the sample.
        assert_eq!(h.p50(), 42.0);
        assert_eq!(h.p99(), 42.0);
    }

    #[test]
    fn non_positive_and_extreme_samples_stay_accounted() {
        let mut h = Hist::new();
        h.push(0.0);
        h.push(-3.0);
        h.push(1e30); // beyond the top octave: clamps to the last bucket
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), -3.0);
        assert_eq!(h.max(), 1e30);
        assert_eq!(h.quantile(1.0), 1e30);
    }

    #[test]
    fn merge_is_exact() {
        let mut a = Hist::new();
        let mut b = Hist::new();
        let mut whole = Hist::new();
        for i in 1..=100 {
            // Integer-valued samples keep both running sums exact, so the
            // merged accumulator is bitwise equal to the single-pass one.
            let x = f64::from(i * 7);
            if i % 2 == 0 {
                a.push(x);
            } else {
                b.push(x);
            }
            whole.push(x);
        }
        a.merge(&b);
        assert_eq!(a, whole, "split-and-merge must equal single-pass");
    }
}
