//! What one run produces and how it is printed: named metrics with
//! units, operation counts, the environment block, the verdict, and the
//! machine-readable result line the benchmark contract asks for.

use std::path::Path;

use crate::util;

/// One measured number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Metric { name, unit, value }
    }
}

/// Failed-operation accounting: every check a workload makes either
/// passes or records a miss here. Any miss fails the run.
#[derive(Debug, Default)]
pub struct Checks {
    pub failed_ops: u64,
    /// The first few misses, verbatim, for the report.
    pub messages: Vec<String>,
}

impl Checks {
    pub fn fail(&mut self, count: u64, message: String) {
        if count == 0 {
            return;
        }
        self.failed_ops += count;
        if self.messages.len() < 8 {
            self.messages.push(message);
        }
    }

    pub fn require(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.fail(1, message());
        }
    }
}

/// The result of one workload run.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted in the timed window (publishes, broadcasts).
    pub ops: u64,
    pub checks: Checks,
    /// The metrics that go on the result line.
    pub metrics: Vec<Metric>,
    /// Diagnostics printed beside them (`name`, rendered value).
    pub notes: Vec<(String, String)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.checks.failed_ops == 0
    }
}

/// Where a run happened: the facts that decide whether two reports are
/// comparable.
pub struct Env {
    pub nproc: usize,
    pub state_fs: String,
    pub daemon_hash: String,
}

impl Env {
    pub fn capture(state_root: &Path, daemon_bin: &Path) -> Self {
        Env {
            nproc: util::nproc(),
            state_fs: util::fs_type(state_root),
            daemon_hash: util::file_hash(daemon_bin),
        }
    }

    pub fn print(&self) {
        println!(
            "env: nproc={} state_dir_fs={} daemon_hash={}",
            self.nproc, self.state_fs, self.daemon_hash
        );
    }
}

/// Prints the human-readable block and, last, the one-line JSON result.
pub fn print_outcome(workload: &str, seed: u64, outcome: &Outcome) {
    println!("workload: {workload}  seed: {seed}");
    for m in &outcome.metrics {
        println!("  {:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for (name, value) in &outcome.notes {
        println!("  ({name}: {value})");
    }
    println!("ops: {}  failed_ops: {}", outcome.ops, outcome.checks.failed_ops);
    for message in &outcome.checks.messages {
        println!("  FAILED: {message}");
    }
    println!("verdict: {}", if outcome.correct() { "correct" } else { "INCORRECT" });
    println!("{}", result_line(outcome));
}

/// `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
/// Values print with every digit `f64` holds (Rust's shortest
/// round-trip form), never rounded.
pub fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, value, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.ops.max(1),
        outcome.checks.failed_ops,
        metrics.join(", ")
    )
}
