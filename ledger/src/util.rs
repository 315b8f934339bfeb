//! Small shared helpers: seeded generator, order statistics, `/proc`
//! readers and the environment block every report carries.

use std::path::Path;
use std::time::Instant;

use pcb_telemetry::Hist;

/// splitmix64: the ledger's only randomness. Every workload input is a
/// function of `--seed` through this generator, nothing else.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant at the
    /// ranges used here (n ≤ 2¹⁶ against a 64-bit draw).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// A sub-seed for one purpose (`lane`) of a run, so two consumers of the
/// same `--seed` never share a stream.
pub fn sub_seed(seed: u64, lane: u64) -> u64 {
    Rng::new(seed ^ lane.wrapping_mul(0xA24B_AED4_963E_E407)).next_u64()
}

/// Median of `values` (mean of the two middle elements when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `q`-quantile of `sorted` (ascending) by linear interpolation
/// between order statistics.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of nothing");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(sorted.len() - 1);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Interquartile range over the median — the spread statistic the
/// benchmark contract uses (`statistics.quantiles(values, n=4)`, the
/// exclusive method: positions `(n+1)·q`).
pub fn iqr_over_median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |q: f64| {
        let pos = (n as f64 + 1.0) * q - 1.0;
        let pos = pos.clamp(0.0, (n - 1) as f64);
        let lo = pos.floor() as usize;
        let hi = (lo + 1).min(n - 1);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    let med = median(&v);
    if med == 0.0 {
        0.0
    } else {
        (at(0.75) - at(0.25)) / med.abs()
    }
}

/// The `q`-quantile of integer-valued samples given as `counts[v]`,
/// spreading each value's mass uniformly over `[v − ½, v + ½)`. Virtual
/// clocks tick in whole steps; without this the median of a few hundred
/// thousand samples would read as the same integer on every seed and
/// could not show a small shift in when the protocol delivers.
pub fn quantile_of_counts(counts: &[u64], q: f64) -> f64 {
    let total: u64 = counts.iter().sum();
    assert!(total > 0, "quantile of nothing");
    let rank = q * total as f64;
    let mut seen = 0.0;
    for (value, &c) in counts.iter().enumerate() {
        let c = c as f64;
        if c > 0.0 && seen + c >= rank {
            return value as f64 - 0.5 + (rank - seen) / c;
        }
        seen += c;
    }
    (counts.len() - 1) as f64
}

/// The `q`-quantile of a [`Hist`], interpolated linearly inside the
/// covering bucket. `Hist::quantile` answers with the bucket's upper
/// bound (≤ 25 % wide), which reads identically on every seed; the
/// bucket's share of the mass is recovered from outside by bisecting on
/// `q` for the two ranks where the answer changes.
pub fn hist_quantile(hist: &Hist, q: f64) -> f64 {
    let upper = hist.quantile(q);
    // Smallest rank fraction that already answers `upper`, and the
    // smallest that answers something larger.
    let first_at = |target_ge: &dyn Fn(f64) -> bool| {
        let (mut lo, mut hi) = (0.0f64, 1.0f64);
        for _ in 0..48 {
            let mid = (lo + hi) / 2.0;
            if target_ge(hist.quantile(mid)) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    };
    let f_lo = first_at(&|v| v >= upper);
    let f_hi = if hist.quantile(1.0) > upper { first_at(&|v| v > upper) } else { 1.0 };
    // The bucket's lower bound is the answer just below `f_lo`, or the
    // exact minimum when this is the first occupied bucket.
    let lower = if f_lo > 1e-12 { hist.quantile(f_lo - 1e-12).min(upper) } else { hist.min() };
    let lower = if lower >= upper { hist.min().min(upper) } else { lower };
    if f_hi <= f_lo {
        return upper;
    }
    lower + (upper - lower) * ((q - f_lo) / (f_hi - f_lo)).clamp(0.0, 1.0)
}

/// Runs `pass` `passes` times and returns the fastest wall time in
/// seconds. The minimum is the statistic least disturbed by a
/// neighbour's burst on a shared 2-core host.
pub fn fastest_of(passes: usize, mut pass: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..passes {
        let start = Instant::now();
        pass();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// One field of `/proc/<pid>/status` in kB (`VmHWM`, `VmRSS`).
pub fn proc_status_kb(pid: u32, field: &str) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// `VmHWM` of this process, in MB.
pub fn own_peak_rss_mb() -> f64 {
    proc_status_kb(std::process::id(), "VmHWM").unwrap_or(0) as f64 / 1024.0
}

/// Cumulative on-CPU nanoseconds of a process's main thread
/// (`/proc/<pid>/schedstat`, first field). The daemon is single-threaded.
pub fn proc_cpu_ns(pid: u32) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/schedstat")).ok()?;
    text.split_whitespace().next()?.parse().ok()
}

/// `(tx_bytes, tx_packets)` of the loopback interface.
pub fn lo_tx() -> Result<(u64, u64), String> {
    let text = std::fs::read_to_string("/proc/net/dev").map_err(|e| e.to_string())?;
    for line in text.lines() {
        let Some((name, rest)) = line.split_once(':') else { continue };
        if name.trim() == "lo" {
            let cols: Vec<u64> = rest.split_whitespace().filter_map(|c| c.parse().ok()).collect();
            if cols.len() >= 10 {
                return Ok((cols[8], cols[9]));
            }
        }
    }
    Err("no `lo` row in /proc/net/dev: wire bytes cannot be measured".into())
}

/// Filesystem type holding `path`, from the longest matching mount point
/// in `/proc/mounts`.
pub fn fs_type(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else { return "unknown".into() };
    let mut best: (usize, &str) = (0, "unknown");
    for line in mounts.lines() {
        let mut cols = line.split_whitespace();
        let (Some(_), Some(mount), Some(fs)) = (cols.next(), cols.next(), cols.next()) else {
            continue;
        };
        if path.starts_with(mount) && mount.len() >= best.0 {
            best = (mount.len(), fs);
        }
    }
    best.1.to_string()
}

/// FNV-1a of a file's bytes, as 16 hex digits — enough to tell two
/// daemon builds apart in a report. Streamed through a small buffer:
/// the binary is tens of MB with debug info, and reading it whole would
/// set the bench process's own peak RSS.
pub fn file_hash(path: &Path) -> String {
    use std::io::Read;
    let Ok(mut file) = std::fs::File::open(path) else { return "absent".into() };
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut buf = [0u8; 64 * 1024];
    loop {
        match file.read(&mut buf) {
            Ok(0) => return format!("{h:016x}"),
            Ok(n) => {
                for &b in &buf[..n] {
                    h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return "unreadable".into(),
        }
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_quantile_interpolates_inside_the_step() {
        // 10 samples at 3, 10 at 4: the median sits on the boundary.
        let counts = [0, 0, 0, 10, 10];
        assert!((quantile_of_counts(&counts, 0.5) - 3.5).abs() < 1e-12);
        assert!((quantile_of_counts(&counts, 0.25) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn hist_quantile_stays_inside_the_bucket_and_tracks_mass() {
        let mut h = Hist::new();
        for i in 0..10_000 {
            h.push(96.0 + 16.0 * f64::from(i) / 10_000.0); // all in [96, 112)
        }
        let p25 = hist_quantile(&h, 0.25);
        let p75 = hist_quantile(&h, 0.75);
        assert!((p25 - 100.0).abs() < 0.1, "{p25}");
        assert!((p75 - 108.0).abs() < 0.1, "{p75}");
    }

    #[test]
    fn iqr_matches_python_exclusive_quartiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_over_median(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }
}
