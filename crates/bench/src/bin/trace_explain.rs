//! Causal alert explanation: reconstruct *why* a delivery was flagged.
//!
//! ```text
//! cargo run --release -p pcb-bench --bin trace_explain -- <trace.jsonl> [--alerts]
//! cargo run --release -p pcb-bench --bin trace_explain -- --seed <seed> [n [duration_ms]]
//! cargo run --release -p pcb-bench --bin trace_explain -- --verify
//! ```
//!
//! * File mode replays an existing JSONL trace (from
//!   `simulate_traced` or `Endpoint::drain_trace`) and prints the causal
//!   story of every exact-checker violation — or, with `--alerts`, of
//!   every Algorithm 4 alert, including false alarms.
//! * `--seed` re-runs the seeded chaos workload with tracing on (same
//!   engine and colliding clock as `scripts/replay.sh`) and explains the
//!   violations of that run.
//! * `--verify` is the `scripts/verify.sh --trace` stage: over a fixed
//!   seed set it requires every exact-checker violation to be explained
//!   with a named missing predecessor and a non-empty concurrent
//!   covering set, and round-trips the trace through JSONL on the way.

use pcb_clock::KeySpace;
use pcb_sim::{chaos_config, simulate_prob_traced};
use pcb_telemetry::{explain, parse_jsonl, write_jsonl, ExplainMode, ExplainReport, TraceRecord};

/// The paper's colliding clock shape: R=16, K=2 keeps `P_error` high
/// enough that short chaos runs actually produce violations to explain.
const R: usize = 16;
const K: usize = 2;

/// Ring capacity per node — large enough that no record of a short run
/// is dropped (a dropped `Sent` would turn its violations into
/// `skipped_unknown`).
const TRACE_CAPACITY: usize = 1 << 20;

fn traced_chaos_run(
    seed: u64,
    n: usize,
    duration_ms: f64,
) -> Result<Vec<TraceRecord>, Box<dyn std::error::Error>> {
    let mut cfg = chaos_config(seed, n, duration_ms);
    cfg.trace_capacity = TRACE_CAPACITY;
    let space = KeySpace::new(R, K)?;
    let (_, trace) = simulate_prob_traced(&cfg, space)?;
    Ok(trace)
}

fn print_report(report: &ExplainReport, mode: ExplainMode) {
    println!(
        "replayed {} deliveries: {} violations, {} Alg-4 alerts",
        report.deliveries, report.violations, report.alerts4
    );
    if report.skipped_unknown > 0 {
        println!(
            "  (skipped {} flagged deliveries whose Sent fell out of the trace ring)",
            report.skipped_unknown
        );
    }
    if report.explanations.is_empty() {
        let what = match mode {
            ExplainMode::Violations => "violation",
            ExplainMode::Alerts => "Alg-4 alert",
        };
        println!("nothing to explain: no {what} in the trace");
    }
    for e in &report.explanations {
        print!("{e}");
    }
}

/// One verification run: every violation must carry a complete story.
/// Returns `(violations, failures)`.
fn verify_seed(seed: u64) -> Result<(u64, u64), Box<dyn std::error::Error>> {
    let trace = traced_chaos_run(seed, 9, 4000.0)?;

    // Round-trip through the serialized form — the report must be built
    // from what a file reader would see, not the in-memory records.
    let jsonl = write_jsonl(&trace);
    let reparsed = parse_jsonl(&jsonl).map_err(|e| format!("JSONL round-trip failed: {e}"))?;
    if reparsed != trace {
        return Err("JSONL round-trip changed the trace".into());
    }

    let report = explain(&reparsed, ExplainMode::Violations);
    if report.skipped_unknown > 0 {
        return Err(format!(
            "seed {seed}: {} violations unexplainable (trace ring overflowed)",
            report.skipped_unknown
        )
        .into());
    }
    let mut failures = 0;
    for e in &report.explanations {
        let complete = !e.missing.is_empty() && e.missing.iter().all(|m| !m.covering.is_empty());
        if !complete {
            failures += 1;
            println!("seed {seed}: incomplete story:");
            print!("{e}");
        }
    }
    Ok((report.violations, failures))
}

fn verify() -> Result<(), Box<dyn std::error::Error>> {
    let seeds: &[u64] = &[3, 17, 41, 0xC0FFEE, 7, 1234];
    let mut total_violations = 0;
    let mut total_failures = 0;
    for &seed in seeds {
        let (violations, failures) = verify_seed(seed)?;
        println!("seed {seed:>8}: {violations} violations, all explained: {}", failures == 0);
        total_violations += violations;
        total_failures += failures;
    }
    if total_violations == 0 {
        return Err("verification vacuous: no seed produced a violation".into());
    }
    if total_failures > 0 {
        return Err(format!(
            "{total_failures} of {total_violations} violations lacked a missing predecessor \
             or a concurrent covering set"
        )
        .into());
    }
    println!("trace_explain --verify: OK ({total_violations} violations, every story complete)");
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--verify") => {
            pcb_bench::banner("trace_explain", "verify every chaos violation is explainable");
            verify()
        }
        Some("--seed") => {
            let seed: u64 = args.get(1).ok_or("--seed needs a value")?.parse()?;
            let n: usize = args.get(2).map_or(Ok(9), |s| s.parse())?;
            let duration_ms: f64 = args.get(3).map_or(Ok(4000.0), |s| s.parse())?;
            let trace = traced_chaos_run(seed, n, duration_ms)?;
            print_report(&explain(&trace, ExplainMode::Violations), ExplainMode::Violations);
            Ok(())
        }
        Some(path) => {
            let mode = if args.iter().any(|a| a == "--alerts") {
                ExplainMode::Alerts
            } else {
                ExplainMode::Violations
            };
            let text = std::fs::read_to_string(path)?;
            let trace = parse_jsonl(&text).map_err(|e| format!("{path}: {e}"))?;
            print_report(&explain(&trace, mode), mode);
            Ok(())
        }
        None => {
            Err("usage: trace_explain <trace.jsonl> [--alerts] | --seed <seed> | --verify".into())
        }
    }
}
