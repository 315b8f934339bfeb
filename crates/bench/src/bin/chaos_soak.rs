//! Deterministic chaos soak: generate a [`pcb_sim::FaultPlan`] from a
//! seed, run it under both the probabilistic and the exact (vector)
//! discipline, and fail loudly if the cluster does not converge or the
//! safety oracle records an undetected causal violation.
//!
//! ```text
//! cargo run --release -p pcb-bench --bin chaos_soak -- [seed [n [duration_ms]]] [--threads T]
//! ```
//!
//! Every run prints the plan as text for reading; to re-run a failing
//! plan bit-identically, pass the same seed again (or use
//! `scripts/replay.sh <seed>`). With no arguments the soak sweeps a
//! small fixed seed set — the `scripts/verify.sh --chaos` stage.

use pcb_clock::KeySpace;
use pcb_sim::{chaos_run, chaos_run_vector, ChaosOutcome};

fn report(label: &str, outcome: &ChaosOutcome) {
    let m = &outcome.metrics;
    println!(
        "  {label:<8} delivered {:>7}  undelivered {:>3}  stuck {:>3}  crashes {}  \
         restores {}  refetched {:>5}  dropped {:>5}  dup {:>4}  corrupt {:>4}",
        m.deliveries,
        m.undelivered,
        m.stuck,
        m.crashes,
        m.recovery.snapshot_restores,
        m.recovery.refetched,
        m.partition_dropped + m.link_dropped,
        m.duplicate_frames,
        m.corrupted_frames,
    );
}

fn soak(seed: u64, n: usize, duration_ms: f64, prob: ChaosOutcome, vector: ChaosOutcome) -> bool {
    println!("seed {seed} (n = {n}, {duration_ms} ms):");
    for line in prob.plan.to_text().lines() {
        println!("    | {line}");
    }
    report("prob", &prob);
    report("vector", &vector);

    // The exact discipline is the safety yardstick: it must converge with
    // zero causal violations and zero oracle misses. The probabilistic
    // discipline must converge too; its (rare) violations are the paper's
    // point, but every one must have been flagged by a detector.
    let mut ok = true;
    if !vector.converged() || vector.metrics.exact_violations > 0 {
        println!("  FAIL: vector run did not converge cleanly");
        ok = false;
    }
    if vector.metrics.undetected_violations > 0 || prob.metrics.undetected_violations > 0 {
        println!("  FAIL: the safety oracle saw a violation no detector alerted on");
        ok = false;
    }
    if !prob.converged() {
        println!("  FAIL: probabilistic run did not converge");
        ok = false;
    }
    ok
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Positional args, with the shared --threads flag filtered out.
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    while let Some(pos) = args.iter().position(|a| a.starts_with("--threads")) {
        args.remove(pos);
        if pos < args.len() && !args[pos].starts_with("--") && args[pos].parse::<usize>().is_ok() {
            args.remove(pos); // the flag's separate value
        }
    }
    let n: usize = args.get(1).map_or(Ok(9), |s| s.parse())?;
    let duration_ms: f64 = args.get(2).map_or(Ok(4000.0), |s| s.parse())?;
    let seeds: Vec<u64> = match args.first() {
        Some(s) => vec![s.parse()?],
        None => vec![3, 17, 41, 0xC0FFEE],
    };

    pcb_bench::banner("Chaos soak", "seeded fault plans, replayed under prob and vector");
    // Each (seed, discipline) run is independent and fully determined by
    // its seed: fan them out, then report in seed order.
    let space = KeySpace::new(100, 4)?;
    let runs = pcb_sim::pool::run_indexed(pcb_bench::threads(), seeds.len() * 2, |job| {
        let seed = seeds[job / 2];
        if job % 2 == 0 {
            chaos_run(seed, n, duration_ms, space)
        } else {
            chaos_run_vector(seed, n, duration_ms)
        }
    });
    let mut all_ok = true;
    for (i, &seed) in seeds.iter().enumerate() {
        let prob = runs[i * 2].clone()?;
        let vector = runs[i * 2 + 1].clone()?;
        all_ok &= soak(seed, n, duration_ms, prob, vector);
    }
    if !all_ok {
        return Err("chaos soak failed — replay with scripts/replay.sh <seed>".into());
    }
    println!("chaos soak: OK");
    Ok(())
}
