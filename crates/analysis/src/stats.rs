//! Interval statistics the simulator reports violation rates with.

/// Wilson score interval for a binomial proportion — the error bars the
/// experiment reports attach to measured violation rates.
///
/// Returns `(low, high)` at approximately the given z (1.96 ≈ 95%).
///
/// ```
/// use pcb_analysis::stats::wilson_interval;
/// let (lo, hi) = wilson_interval(10, 1000, 1.96);
/// assert!(lo < 0.01 && 0.01 < hi);
/// ```
#[must_use]
pub fn wilson_interval(successes: u64, trials: u64, z: f64) -> (f64, f64) {
    if trials == 0 {
        return (0.0, 1.0);
    }
    let n = trials as f64;
    let p = successes as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denom;
    let margin = (z / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    ((center - margin).max(0.0), (center + margin).min(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wilson_interval_contains_point_estimate() {
        for &(s, n) in &[(0u64, 100u64), (5, 100), (50, 100), (100, 100)] {
            let (lo, hi) = wilson_interval(s, n, 1.96);
            let p = s as f64 / n as f64;
            assert!(lo <= p + 1e-12 && p <= hi + 1e-12, "({s},{n}) p={p} not in [{lo},{hi}]");
            assert!((0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi));
        }
    }

    #[test]
    fn wilson_interval_narrows_with_n() {
        let (lo1, hi1) = wilson_interval(10, 100, 1.96);
        let (lo2, hi2) = wilson_interval(1000, 10000, 1.96);
        assert!(hi2 - lo2 < hi1 - lo1);
    }

    #[test]
    fn wilson_zero_trials() {
        assert_eq!(wilson_interval(0, 0, 1.96), (0.0, 1.0));
    }
}
