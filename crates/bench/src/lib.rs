//! Shared plumbing for the figure-regeneration binaries.
//!
//! Every binary honours two environment variables:
//!
//! * `PCB_SCALE` — multiplier on each run's measured virtual-time window
//!   (default 0.25; `1.0` reproduces the full-length sweeps, `0.05` gives
//!   a fast smoke run);
//! * `PCB_SEED` — master seed (default 1);
//! * `PCB_THREADS` — sweep worker threads (default: all cores; the
//!   `--threads N` command-line flag overrides it; output is
//!   byte-identical at any thread count);
//! * `PCB_CSV_DIR` — if set, each figure also writes `<figN>.csv` there.

use std::path::PathBuf;

pub mod alloc;
pub mod forge;

/// Scale factor from `PCB_SCALE` (default 0.25).
#[must_use]
pub fn scale() -> f64 {
    std::env::var("PCB_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|s: &f64| *s > 0.0)
        .unwrap_or(0.25)
}

/// Seed from `PCB_SEED` (default 1).
#[must_use]
pub fn seed() -> u64 {
    std::env::var("PCB_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(1)
}

/// Replications per sweep point from `PCB_REPS` (default 3).
#[must_use]
pub fn reps() -> usize {
    std::env::var("PCB_REPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|r: &usize| *r > 0)
        .unwrap_or(3)
}

/// Worker threads for sweep fan-out: `--threads N` (or `--threads=N`) on
/// the command line, else `PCB_THREADS`, else every available core.
/// Output is byte-identical at any thread count — this only buys time.
#[must_use]
pub fn threads() -> usize {
    let mut args = std::env::args();
    while let Some(arg) = args.next() {
        if arg == "--threads" {
            if let Some(n) = args.next().and_then(|v| v.parse().ok()) {
                return std::cmp::max(n, 1);
            }
        } else if let Some(v) = arg.strip_prefix("--threads=") {
            if let Ok(n) = v.parse() {
                return std::cmp::max(n, 1);
            }
        }
    }
    std::env::var("PCB_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|t: &usize| *t > 0)
        .unwrap_or_else(pcb_sim::pool::default_threads)
}

/// Bundles the environment knobs into the runner's [`pcb_sim::SweepOptions`].
#[must_use]
pub fn sweep_options() -> pcb_sim::SweepOptions {
    pcb_sim::SweepOptions { scale: scale(), seed: seed(), reps: reps(), threads: threads() }
}

/// CSV output directory from `PCB_CSV_DIR`, if set.
#[must_use]
fn csv_dir() -> Option<PathBuf> {
    std::env::var_os("PCB_CSV_DIR").map(PathBuf::from)
}

/// Writes `content` as `<name>.csv` under [`csv_dir`] (no-op when unset).
pub fn maybe_write_csv(name: &str, content: &str) {
    if let Some(dir) = csv_dir() {
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            return;
        }
        let path = dir.join(format!("{name}.csv"));
        match std::fs::write(&path, content) {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    }
}

/// Prints the standard run banner.
pub fn banner(figure: &str, what: &str) {
    println!("=== {figure}: {what} ===");
    println!(
        "scale = {} (PCB_SCALE), seed = {} (PCB_SEED), reps = {} (PCB_REPS); \
         scale 1.0 ≈ 14 simulated seconds per replication",
        scale(),
        seed(),
        reps()
    );
    println!();
}

#[cfg(test)]
mod tests {
    #[test]
    fn defaults_are_sane() {
        // Env-dependent values still parse into the right ranges.
        assert!(super::scale() > 0.0);
        let _ = super::seed();
        let _ = super::csv_dir();
    }
}
