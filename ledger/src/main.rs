//! `pcb-ledger`: the repo's benchmark.
//!
//! ```text
//! pcb-ledger --workload NAME --seed N [--seconds S] [--trace 0|1]
//! pcb-ledger trace NAME [--seed N] [--seconds S]
//! pcb-ledger layers [--seed N]
//! pcb-ledger noise [--runs N] [--seconds S] [--out FILE]
//! pcb-ledger manifest [--seconds S]
//! ```
//!
//! The first form is the benchmark contract: one workload, inputs made
//! from `--seed`, `--seconds` of timed window, every end-to-end metric
//! (`--trace 0`) or every per-layer metric (`--trace 1`) by name and
//! unit, a correctness verdict, and a one-line JSON result last. It
//! exits non-zero when any check failed. See `README.md` beside this
//! crate for what each metric means and which layer should move which.

mod alloc;
mod catalogue;
mod cluster;
mod daemons;
mod layers;
mod mesh;
mod noise;
mod report;
mod simpaper;
mod spans;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{Env, Metric, Outcome};

/// Counts allocations while a probe arms it; otherwise a pass-through
/// to the system allocator (one relaxed load per call).
#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Everything a workload run is parameterised by.
pub struct RunOpts {
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Directory under which each run makes its own unique work dir for
    /// daemon state (`spec.bin`, `wal.bin`, `snapshot.bin`). A tmpfs when
    /// the host has one: see [`default_state_root`].
    pub state_root: PathBuf,
    /// Where span dumps go, and the real disk the persistence probe
    /// compares the state root against: under the build directory.
    pub out_dir: PathBuf,
    /// The `pcb-daemon` built beside this binary.
    pub daemon_bin: PathBuf,
    /// Overrides `RecoveryTimingUs::store_window_us` for daemon clusters.
    /// Lowering it below the crash workload's outage is how that
    /// workload's correctness check is shown to fail.
    pub store_window_us: Option<u64>,
}

struct Args {
    command: Option<String>,
    positional: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    runs: usize,
    out: Option<PathBuf>,
    state_root: Option<PathBuf>,
    store_window_us: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: None,
        positional: None,
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        runs: 3,
        out: None,
        state_root: None,
        store_window_us: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => args.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--runs" => args.runs = value("--runs")?.parse().map_err(|e| format!("--runs: {e}"))?,
            "--out" => args.out = Some(PathBuf::from(value("--out")?)),
            "--state-root" => args.state_root = Some(PathBuf::from(value("--state-root")?)),
            "--store-window-us" => {
                args.store_window_us = Some(
                    value("--store-window-us")?
                        .parse()
                        .map_err(|e| format!("--store-window-us: {e}"))?,
                );
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            word if args.command.is_none() && args.workload.is_none() => {
                args.command = Some(word.to_string());
            }
            word if args.positional.is_none() => args.positional = Some(word.to_string()),
            word => return Err(format!("unexpected argument {word:?}")),
        }
    }
    Ok(args)
}

/// The directory holding this binary: `pcb-daemon` is built beside it,
/// and per-run work directories go under it, so everything a run writes
/// stays inside the build directory of the checkout it runs from.
fn bin_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("own executable path");
    exe.parent().expect("executable has a directory").to_path_buf()
}

/// Daemon state goes under `/dev/shm` when that is a writable tmpfs, and
/// under the build directory otherwise. Every publish is one
/// `fsync` + rename of the WAL, so on a disk the daemon workloads measure
/// the disk's recent history instead of the daemon: in the minutes after
/// a build wrote its artefacts to the same ext4, one binary's
/// `daemon-steady` p50 read 3.7, 8, 9, 12 and 13 ms and its p90 8 ms to
/// 1.3 s. The directory is unique per run and removed on every exit
/// path; `env` names the filesystem actually used.
fn default_state_root(bin_dir: &std::path::Path) -> PathBuf {
    let shm = PathBuf::from("/dev/shm");
    let candidate = shm.join("pcb-ledger");
    if util::fs_type(&shm) == "tmpfs" && std::fs::create_dir_all(&candidate).is_ok() {
        // Only a writability probe: runs create it again when they need
        // it, and commands that never do leave nothing behind.
        let _ = std::fs::remove_dir(&candidate);
        candidate
    } else {
        bin_dir.join("ledger-work")
    }
}

fn run_opts(args: &Args) -> RunOpts {
    let dir = bin_dir();
    RunOpts {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(DEFAULT_SECONDS),
        state_root: args.state_root.clone().unwrap_or_else(|| default_state_root(&dir)),
        out_dir: dir.join("ledger-work"),
        daemon_bin: dir.join("pcb-daemon"),
        store_window_us: args.store_window_us,
    }
}

/// Timed-window length when `--seconds` is not given: the contract's
/// `run_seconds`.
const DEFAULT_SECONDS: f64 = 15.0;

/// Warm-up of the in-process workloads. Fixed time, not fixed passes: the
/// number of passes a host fits into a warm-up varies, the time does not,
/// and work moved into construction still shows in `setup_s`, in seconds.
pub const IN_PROCESS_WARMUP: std::time::Duration = std::time::Duration::from_secs(3);

/// Runs one workload. Untraced, the outcome carries the end-to-end
/// metrics. Traced, it carries what the trace measured: spans around the
/// calls into each layer (in-process workloads) or per-message spans
/// plus 1 Hz `status` / `/proc` samples (daemon workloads).
fn run_workload(name: &str, opts: &RunOpts, traced: bool) -> Result<Outcome, String> {
    use daemons::Kind;
    match name {
        "daemon-steady" => daemons::run(Kind::Steady, opts, traced),
        "daemon-saturate" => daemons::run(Kind::Saturate, opts, traced),
        "daemon-crash" => daemons::run(Kind::Crash, opts, traced),
        "endpoint-mesh" => Ok(if traced { mesh::trace(opts) } else { mesh::run(opts) }),
        "sim-paper" => Ok(if traced { simpaper::trace(opts) } else { simpaper::run(opts) }),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// The contract's `--trace 1`: the traced workload plus the fixed-size
/// layer probes, as every per-layer metric of the catalogue. Where both
/// measure a metric the workload's own trace wins. A layer the workload
/// does not run reads 0 (no daemon runs under `sim-paper`, so its
/// daemons used 0 CPU).
fn run_traced(name: &str, opts: &RunOpts) -> Result<Outcome, String> {
    let mut outcome = run_workload(name, opts, true)?;
    let mut measured = std::mem::take(&mut outcome.metrics);
    measured.extend(layers::probe_all(opts));
    outcome.metrics = catalogue::PER_LAYER
        .iter()
        .map(|spec| {
            let value = measured.iter().find(|m| m.name == spec.name).map_or(0.0, |m| m.value);
            Metric::new(spec.name, spec.unit, value)
        })
        .collect();
    Ok(outcome)
}

fn real_main() -> Result<bool, String> {
    let args = parse_args()?;
    let opts = run_opts(&args);
    if matches!(args.command.as_deref(), None | Some("trace" | "layers")) {
        Env::capture(&opts.state_root, &opts.daemon_bin).print();
    }
    match args.command.as_deref() {
        None => {
            let name = args.workload.as_deref().ok_or("--workload is required")?;
            let outcome = if args.trace {
                run_traced(name, &opts)?
            } else {
                run_workload(name, &opts, false)?
            };
            report::print_outcome(name, opts.seed, &outcome);
            Ok(outcome.correct())
        }
        Some("trace") => {
            let name = args.positional.as_deref().ok_or("trace needs a workload name")?;
            let outcome = run_workload(name, &opts, true)?;
            report::print_outcome(name, opts.seed, &outcome);
            Ok(outcome.correct())
        }
        Some("layers") => {
            // The daemon-process lines come from a short traced crash run:
            // the one daemon workload that exercises restart as well.
            let short = RunOpts { seconds: args.seconds.unwrap_or(8.0), ..run_opts(&args) };
            let crash = run_workload("daemon-crash", &short, true)?;
            let mut measured = crash.metrics;
            measured.extend(layers::probe_all(&opts));
            layers::print_table(&measured);
            Ok(crash.checks.failed_ops == 0)
        }
        Some("noise") => noise::run(&opts, args.runs.max(3), args.out.as_deref()),
        Some("manifest") => {
            print!("{}", catalogue::manifest(opts.seconds as u64));
            Ok(true)
        }
        Some(other) => Err(format!("unknown command {other:?}")),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("pcb-ledger: {e}");
            ExitCode::from(2)
        }
    }
}
