//! `noise`: does the benchmark hold still when nothing changed?
//!
//! Every workload is run as two interleaved sets (A B A B …), each run a
//! fresh process with another seed — the procedure a later change is
//! judged by, with the same code on both sides. Per metric it prints
//! both medians, how much worse B reads than A, each set's spread
//! (interquartile range over median) and the bound, and fails if a
//! difference or a spread exceeds the bound. It then runs the layer
//! probes twice on one seed and requires every exact-count metric to
//! repeat to the digit. The result is written as JSON.

use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

use pcb_runtime::json::{self, Value};

use crate::catalogue::{END_TO_END, WORKLOADS};
use crate::report::Env;
use crate::util::{iqr_over_median, median};
use crate::{layers, RunOpts};

/// Per-layer metrics that are counts or sizes, not times: they must be
/// identical across two runs with one seed. The two allocation counts
/// are left out: they repeat to about one allocation in 300 000, but not
/// to the digit, because `std`'s hash maps are seeded per instance and
/// whether a table with tombstones rehashes in place or grows depends on
/// where the hashes fell.
const EXACT: &[&str] = &[
    "wire.full_bytes_per_msg",
    "wire.delta_bytes_per_msg",
    "pending.wakeups_per_delivery",
    "pending.gap_checks_per_delivery",
    "pending.max_pending",
    "endpoint.parked_share",
    "endpoint.undetected_violations",
    "recovery.sync_reply_msgs",
    "snapshot.bytes",
    "export.frame_bytes_per_msg",
    "sim.violation_ppm",
    "sim.alg4_alert_ppm",
    "sim.stamp_pool_hit_rate",
];

/// One untraced run in a child process; returns its metrics by name.
fn child_run(workload: &str, seed: u64, opts: &RunOpts) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string(), "--trace", "0"])
        .arg("--state-root")
        .arg(&opts.state_root)
        .output()
        .map_err(|e| format!("cannot run {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    if !output.status.success() {
        return Err(format!("{workload} seed {seed} failed:\n{stdout}"));
    }
    let result = json::parse(last).map_err(|e| format!("{workload}: bad result line: {e}"))?;
    END_TO_END
        .iter()
        .map(|spec| {
            result
                .get("metrics")
                .and_then(|m| m.get(spec.name))
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64)
                .map(|v| (spec.name.to_string(), v))
                .ok_or_else(|| format!("{workload}: result line lacks {}", spec.name))
        })
        .collect()
}

fn json_list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(f64::to_string).collect();
    format!("[{}]", items.join(", "))
}

pub fn run(opts: &RunOpts, runs: usize, out: Option<&Path>) -> Result<bool, String> {
    let env = Env::capture(&opts.state_root, &opts.daemon_bin);
    env.print();
    println!("noise: {runs} runs per set, {} s windows, sets interleaved A B A B", opts.seconds);
    let mut all_ok = true;
    let mut doc = String::new();
    let _ = writeln!(doc, "{{");
    let _ = writeln!(
        doc,
        "  \"env\": {{\"nproc\": {}, \"state_dir_fs\": \"{}\", \"daemon_hash\": \"{}\"}},",
        env.nproc, env.state_fs, env.daemon_hash
    );
    let _ = writeln!(doc, "  \"runs_per_set\": {runs},");
    let _ = writeln!(doc, "  \"seconds\": {},", opts.seconds);
    let _ = writeln!(doc, "  \"workloads\": {{");

    for (w, workload) in WORKLOADS.iter().enumerate() {
        let mut sets: [Vec<Vec<(String, f64)>>; 2] = [Vec::new(), Vec::new()];
        for i in 0..runs {
            for (s, set) in sets.iter_mut().enumerate() {
                let seed = opts.seed + (2 * i + s) as u64;
                set.push(child_run(workload.name, seed, opts)?);
            }
        }
        println!("\n{}", workload.name);
        println!(
            "  {:<20} {:>14} {:>14} {:>9} {:>9} {:>9} {:>7}",
            "metric", "median A", "median B", "B worse", "spread A", "spread B", "bound"
        );
        let _ = writeln!(doc, "    \"{}\": {{", workload.name);
        for (m, spec) in END_TO_END.iter().enumerate() {
            let column = |set: &Vec<Vec<(String, f64)>>| -> Vec<f64> {
                set.iter().map(|run| run[m].1).collect()
            };
            let (a, b) = (column(&sets[0]), column(&sets[1]));
            let (med_a, med_b) = (median(&a), median(&b));
            // How much worse B reads than A, as a share of A.
            let worse = match spec.better {
                "lower" => (med_b - med_a) / med_a,
                _ => (med_a - med_b) / med_a,
            };
            let (spread_a, spread_b) = (iqr_over_median(&a), iqr_over_median(&b));
            // Set-up time is exempt from the spread rule, not from the
            // median rule.
            let spread_ok =
                spec.name == "setup_s" || (spread_a <= spec.bound && spread_b <= spec.bound);
            let ok = worse <= spec.bound && spread_ok;
            all_ok &= ok;
            println!(
                "  {:<20} {:>14.4} {:>14.4} {:>8.2}% {:>8.2}% {:>8.2}% {:>6.0}%{}",
                spec.name,
                med_a,
                med_b,
                100.0 * worse,
                100.0 * spread_a,
                100.0 * spread_b,
                100.0 * spec.bound,
                if ok { "" } else { "  EXCEEDED" }
            );
            let comma = if m + 1 < END_TO_END.len() { "," } else { "" };
            let _ = writeln!(
                doc,
                "      \"{}\": {{\"a\": {}, \"b\": {}, \"median_a\": {med_a}, \"median_b\": {med_b}, \
                 \"b_worse_by\": {worse}, \"spread_a\": {spread_a}, \"spread_b\": {spread_b}, \
                 \"bound\": {}, \"ok\": {ok}}}{comma}",
                spec.name,
                json_list(&a),
                json_list(&b),
                spec.bound
            );
        }
        let comma = if w + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(doc, "    }}{comma}");
    }
    let _ = writeln!(doc, "  }},");

    println!("\nexact-count layer metrics, two probe runs with seed {}", opts.seed);
    let (first, second) = (layers::probe_all(opts), layers::probe_all(opts));
    let _ = writeln!(doc, "  \"exact\": {{");
    for (i, name) in EXACT.iter().enumerate() {
        let value = |run: &[crate::report::Metric]| {
            run.iter().find(|m| m.name == *name).map_or(f64::NAN, |m| m.value)
        };
        let (x, y) = (value(&first), value(&second));
        let ok = x == y;
        all_ok &= ok;
        println!("  {:<36} {:>16} {:>16}{}", name, x, y, if ok { "" } else { "  DIFFERS" });
        let comma = if i + 1 < EXACT.len() { "," } else { "" };
        let _ = writeln!(
            doc,
            "    \"{name}\": {{\"first\": {x}, \"second\": {y}, \"ok\": {ok}}}{comma}"
        );
    }
    let _ = writeln!(doc, "  }},");
    let _ = writeln!(doc, "  \"ok\": {all_ok}");
    let _ = writeln!(doc, "}}");

    let path = out.unwrap_or(Path::new("ledger/NOISE.json"));
    std::fs::write(path, &doc).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("\nwrote {}", path.display());
    println!("noise: {}", if all_ok { "within bounds" } else { "BOUNDS EXCEEDED" });
    Ok(all_ok)
}
