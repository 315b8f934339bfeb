#!/usr/bin/env bash
# Full local verification gate. Everything runs offline — the workspace
# vendors its dependencies — so this works with no network at all.
#
#   scripts/verify.sh          # the base gate: tier-1 + workspace tests + fmt + clippy
#   scripts/verify.sh --tier1  # just the tier-1 gate (what CI enforces)
#
# Every other flag runs the base gate and then its own stage, nothing else:
#
#   scripts/verify.sh --chaos  # a deterministic chaos soak
#   scripts/verify.sh --trace  # the observability gate
#   scripts/verify.sh --perf   # hot-path regression gates + a ledger smoke
#   scripts/verify.sh --equiv  # the sim/runtime differential gate
#   scripts/verify.sh --daemon # the real-process replay leg
#   scripts/verify.sh --obs    # the causal-health plane gate
#   scripts/verify.sh --churn  # the dynamic-membership gate
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

run() {
    echo "==> $*"
    "$@"
}

# Tier-1 gate (ROADMAP.md): release build + default-package tests.
run cargo build --release
run cargo test -q

if [[ "${1:-}" == "--tier1" ]]; then
    echo "tier-1 gate: OK"
    exit 0
fi

# Every crate's unit, integration, property, and doc tests.
run cargo test --workspace -q

# Style gates. fmt/clippy come with the pinned toolchain; if a stripped
# container lacks a component, report and skip rather than fail the gate.
if cargo fmt --version >/dev/null 2>&1; then
    run cargo fmt --all -- --check
else
    echo "==> cargo fmt unavailable — skipped"
fi
if cargo clippy --version >/dev/null 2>&1; then
    run cargo clippy --workspace --all-targets -- -D warnings
else
    echo "==> cargo clippy unavailable — skipped"
fi

# Optional chaos stage: short deterministic fault-injection soak over a
# fixed seed set. Any failure prints the seed; replay it bit-identically
# with scripts/replay.sh <seed>.
if [[ "${1:-}" == "--chaos" ]]; then
    run cargo run --release -p pcb-bench --bin chaos_soak
fi

# Optional observability stage: (1) every exact-checker violation in a
# seeded chaos sweep must be explainable from its trace — named missing
# predecessor plus a non-empty concurrent covering set; (2) the disabled
# trace sink must keep the pending-wakeup cascade within 5% of the
# untraced baseline; (3) the telemetry crate must build and pass with
# the `trace` feature compiled out.
if [[ "${1:-}" == "--trace" ]]; then
    run cargo run --release -p pcb-bench --bin trace_explain -- --verify
    run cargo run --release -p pcb-bench --bin telemetry_overhead
    run cargo test -p pcb-telemetry --no-default-features -q
fi

# Optional perf stage. Two gates and a smoke:
#
# (1) alloc_gate — a counting global allocator measures *marginal* heap
#     allocations per steady-state cycle (differential method: the same
#     workload at T and 3T, so setup cancels). The sim leg must be
#     allocation-free per delivery (≤ 0.01, i.e. recycling-only); the
#     runtime leg's strict-zero check prints an explicit SKIPPED marker
#     (delivered frames are owned buffers by design) and enforces a
#     fixed per-cycle budget instead.
# (2) bench_report — measures the hot paths into BENCH_pr9.json and
#     enforces the regression thresholds: the timing wheel ≥ 3× the heap
#     scheduler on the P=10⁴ queue replay and the P=10⁵ point completing
#     ≥ 10⁶ deliveries; delta frames ≤ 0.35× full-vector bytes at
#     (R=100, K=4) steady state; the 8-thread figure-3 sweep ≥ 4× the
#     1-thread wall-clock and the 8-thread batched wire ingest ≥ 4× the
#     sequential loop (both enforced only on ≥ 8 cores — smaller
#     machines print an explicit `SKIPPED (n cores)` marker instead of
#     silently passing); the pending wake-up engine still at ≤ 1.05
#     wakeups/delivery with unit fan-out on its reversed-FIFO worst
#     case (PR 1's numbers). The `--threads`-sweep and batch
#     determinism smokes inside the bench (byte-identical output at
#     every thread count) run at any core count.
# (3) ledger smoke — the two in-process workloads of the repo's
#     benchmark (`ledger/`, BENCHMARK.json) run for 3 s each and must
#     print `verdict: correct`: the sim kernel and the endpoint mesh
#     still deliver everything, with identical counters on every pass.
#     Numbers are not gated here; comparing them is the benchmark's job.
if [[ "${1:-}" == "--perf" ]]; then
    perf_log="$(mktemp)"
    run cargo run --release -p pcb-bench --bin alloc_gate -- --check | tee "$perf_log"
    run cargo run --release -p pcb-bench --bin bench_report -- --check | tee -a "$perf_log"
    echo "==> perf gate summary"
    grep -E "SKIPPED|smoke: OK|gate: OK|gate \(|perf check: OK" "$perf_log"
    for workload in sim-paper endpoint-mesh; do
        run bash ledger/run.sh --workload "$workload" --seed 1 --seconds 3 --trace 0 | tee "$perf_log"
        grep -q "verdict: correct" "$perf_log" || {
            echo "ledger smoke: $workload did not print 'verdict: correct'"
            exit 1
        }
    done
    rm -f "$perf_log"
fi

# Optional equivalence stage: the differential harness — seeded chaos
# traces recorded by the simulator's endpoint driver and replayed through
# the runtime's loopback cluster must match bit-for-bit (delivery order,
# alert flags, recovery counters) — plus the shell-purity guard that
# fails if `sim::engine`/`sim::chaos` or `runtime::node` regrow protocol
# logic that belongs inside `pcb-broadcast::Endpoint`.
if [[ "${1:-}" == "--equiv" ]]; then
    run cargo test -p pcb-runtime --test equivalence -q
    run cargo test -p pcb-sim --test shell_guard -q
fi

# Optional daemon stage: the process-level leg of the differential gate.
# A subset of the seeded chaos plans (including lossy-shim seeds 1 and
# 5) replays against real pcb-daemon OS processes — recorded crashes as
# actual SIGKILLs, restarts from snapshot + WAL — plus the live-mode
# 3-process kill -9 integration test. Environments that forbid
# fork/exec print an explicit SKIPPED marker instead of failing.
if [[ "${1:-}" == "--daemon" ]]; then
    run cargo build --release -p pcb-runtime --bins
    spawn_rc=0
    ./target/release/pcb-daemon --help >/dev/null 2>&1 || spawn_rc=$?
    if [[ "$spawn_rc" -le 2 ]]; then
        run ./target/release/daemon-equiv --daemon ./target/release/pcb-daemon \
            --work-dir target/daemon-equiv --seeds 6
        run cargo test -p pcb-runtime --test daemon_replay -q
        run cargo test -p pcb-runtime --test daemon -q
    else
        echo "==> SKIPPED: cannot spawn pcb-daemon in this environment (exit $spawn_rc)"
    fi
fi

# Optional observability-plane stage: the causal-health estimators and
# cross-process trace correlation. (1) X̂ must converge to the true
# in-flight concurrency and the live predicted P_error(R, K, X̂) must
# track the Algorithm-4 alert rate within 2× while bounding the
# realized violation rate on a fig3-style grid; (2) the stamped
# viz-JSONL schema must round-trip, keep causal/per-node order, and
# match the checked-in golden timeline; (3) the full estimator path
# must fit the ≤5% telemetry budget; (4) sim and real-process legs of
# seeded chaos runs must emit byte-identical merged viz timelines;
# (5) a live 3-daemon cluster's `/metrics` pages must parse and agree
# with the `status` RPC, and `pcb-top --once` must render every node.
if [[ "${1:-}" == "--obs" ]]; then
    run cargo test -p pcb-sim --test estimators -q
    run cargo test -p pcb-sim --test viz_timeline -q
    run cargo run --release -p pcb-bench --bin telemetry_overhead
    run cargo build --release -p pcb-runtime --bins
    spawn_rc=0
    ./target/release/pcb-daemon --help >/dev/null 2>&1 || spawn_rc=$?
    if [[ "$spawn_rc" -le 2 ]]; then
        run ./target/release/daemon-equiv --daemon ./target/release/pcb-daemon \
            --work-dir target/daemon-equiv-viz --seeds 4 --viz-json target/viz-json
        run ./target/release/trace-merge \
            target/daemon-equiv-viz/seed-2/node-0/trace.jsonl \
            target/daemon-equiv-viz/seed-2/node-1/trace.jsonl \
            -o target/viz-json/seed-2/two-node-merge.jsonl
        run cargo test -p pcb-runtime --test daemon -q
    else
        echo "==> SKIPPED: cannot spawn pcb-daemon in this environment (exit $spawn_rc)"
    fi
fi

# Optional churn stage: the config-epoch plane end to end. (1) The
# churn experiment drives snapshot-assisted joins, graceful leaves, and
# an online (R, K) reconfiguration through the real endpoint across
# 4 seeds × both clock disciplines and exits nonzero unless every gated
# cell converges with 0 undetected violations and 0 lost streams;
# (2) the membership-plane unit/integration suites (sim chaos churn
# scenarios, loopback churn equivalence) re-run explicitly; (3) when
# the environment allows fork/exec, one churn plan replays through real
# pcb-daemon processes bit-identically.
if [[ "${1:-}" == "--churn" ]]; then
    run cargo run --release -p pcb-bench --bin churn_experiment
    run cargo test -p pcb-sim --test chaos -q
    run cargo test -p pcb-runtime --test equivalence -q
    run cargo test -p pcb-runtime --test daemon_replay churn_seed -q
fi

echo "verify: OK"
