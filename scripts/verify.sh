#!/usr/bin/env bash
# Full local verification gate. Everything runs offline — the workspace
# vendors its dependencies — so this works with no network at all.
#
#   scripts/verify.sh          # the base gate: tier-1 + workspace tests + the benchmark's build + fmt + clippy
#   scripts/verify.sh --tier1  # just the tier-1 gate (what CI enforces)
#   scripts/verify.sh --all    # the base gate once, then every stage below
#
# Every other flag runs the base gate and then its own stage, nothing else:
#
#   scripts/verify.sh --chaos  # a deterministic chaos soak + the link enumerator's full bound
#   scripts/verify.sh --trace  # the observability gate
#   scripts/verify.sh --perf   # allocation + work-counter gates, ledger smokes + layer table
#   scripts/verify.sh --equiv  # the certification harness: recorded chaos runs through the daemon's start-up and persist code
#   scripts/verify.sh --daemon # real pcb-daemon processes: the live tests + the ledger's crash, steady and saturate smokes
#   scripts/verify.sh --obs    # the causal-health plane gate
#   scripts/verify.sh --churn  # the dynamic-membership gate
#
# A stage does not stop at a failing step either: every step runs, each
# one that fails prints `==> FAILED: <step>`, and the stage returns
# non-zero at its end.
#
# `--all` does not stop at a failing stage: it runs them all and ends
# with one line naming the environment (cores, compiler, file systems,
# whether pcb-daemon spawns) and one counted PASS / SKIPPED / FAIL table. A stage that printed a
# `SKIPPED` marker is counted as skipped, not passed; the exit status is
# non-zero iff a stage failed.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

# How many steps of the current stage failed.
failed_steps=0

failed() {
    echo "==> FAILED: $1"
    failed_steps=$((failed_steps + 1))
}

# One step: shown, run, and recorded if it fails, without ending the stage.
run() {
    echo "==> $*"
    "$@" || failed "$*"
}

# The end of a stage: non-zero iff a step of it failed.
end_stage() {
    local n=$failed_steps
    failed_steps=0
    [[ "$n" -eq 0 ]]
}

# Runs a cargo command, failing on a compiler warning as on an error
# (cargo replays a cached crate's warnings, so a warm build still shows
# them).
warning_free() {
    local log status=0
    log=$("$@" 2>&1) || status=$?
    echo "$log"
    [[ "$status" -eq 0 ]] && ! grep -q '^warning' <<<"$log"
}

# One 6 s benchmark run of workload $1 (seed 1, no tracing), showing only
# its lines that match the extended regex $2.
ledger_lines() {
    local cmd=(bash ledger/run.sh --workload "$1" --seed 1 --seconds 6 --trace 0)
    echo "==> ${cmd[*]}"
    "${cmd[@]}" | grep -E "$2" || failed "${cmd[*]}"
}

# The exit status of `pcb-daemon --help`: 2 (usage) means it ran, above
# 2 that this environment may not fork/exec it.
daemon_help_rc() {
    local rc=0
    ./target/release/pcb-daemon --help >/dev/null 2>&1 || rc=$?
    echo "$rc"
}

# Whether this environment may fork/exec the daemon binary; prints the
# SKIPPED marker when it may not.
can_spawn_daemon() {
    local rc
    rc=$(daemon_help_rc)
    if [[ "$rc" -gt 2 ]]; then
        echo "==> SKIPPED: cannot spawn pcb-daemon in this environment (exit $rc)"
        return 1
    fi
}

# Tier-1 gate (ROADMAP.md): release build + default-package tests.
tier1_steps() {
    run cargo build --release
    run cargo test -q
}

stage_tier1() {
    tier1_steps
    end_stage
}

stage_base() {
    tier1_steps

    # Every crate's unit, integration, property, and doc tests.
    run cargo test --workspace -q

    # The benchmark (`ledger/`) is its own package and links crate
    # internals the workspace does not build; compiling it here means an
    # API change that breaks it fails the quick gate, not only --perf and
    # --daemon.
    run cargo build --release --offline --manifest-path ledger/Cargo.toml

    # Style gates. fmt/clippy come with the pinned toolchain; if a stripped
    # container lacks a component, report and skip rather than fail the gate.
    if cargo fmt --version >/dev/null 2>&1; then
        run cargo fmt --all -- --check
    else
        echo "==> SKIPPED: cargo fmt unavailable"
    fi
    if cargo clippy --version >/dev/null 2>&1; then
        run cargo clippy --workspace --all-targets -- -D warnings
    else
        echo "==> SKIPPED: cargo clippy unavailable"
    fi
    end_stage
}

# Chaos stage: short deterministic fault-injection soak over a fixed
# seed set. Any failure prints the seed; replay it bit-identically with
# scripts/replay.sh <seed>. Then the link enumerator at its full bound:
# two links over the test network, every schedule of three frames one
# way and two the other with every datagram arriving, and of two and one
# with one datagram of any fate, at most one restart or give-up each
# (`cargo test --workspace` runs a reduced bound); a violation prints
# the schedule that led to it.
stage_chaos() {
    run cargo run --release -p pcb-bench --bin chaos_soak
    run cargo test --release -p pcb-runtime --lib link::enumerate -q -- --include-ignored
    end_stage
}

# Observability stage: (1) every exact-checker violation in a seeded
# chaos sweep must be explainable from its trace — named missing
# predecessor plus a non-empty concurrent covering set; (2) the disabled
# trace sink and the live estimators must each keep the pending-wakeup
# cascade within 5% of the untraced baseline, as the median of paired
# per-round ratios, plus the excursion of the run's own
# untraced-vs-untraced null slot; (3) the telemetry crate must build and
# pass with the `trace` feature compiled out.
stage_trace() {
    run cargo run --release -p pcb-bench --bin trace_explain -- --verify
    run cargo run --release -p pcb-bench --bin telemetry_overhead
    run warning_free cargo test -p pcb-telemetry --no-default-features -q
    end_stage
}

# Perf stage. Wall-clock numbers live on the repo's benchmark (`ledger/`,
# BENCHMARK.json), which compares them with repetitions and bounds;
# nothing here thresholds a time. What this stage gates is deterministic:
#
# (1) alloc_gate — a counting global allocator measures *marginal* heap
#     allocations per steady-state cycle (differential method: the same
#     workload at T and 3T, so setup cancels). The sim leg must be
#     allocation-free per delivery (≤ 0.01, i.e. recycling-only); the
#     UDP leg, whose delivered frames are owned buffers by design, must
#     stay within a fixed per-cycle budget; the endpoint leg allows
#     `handle_wire` its returned output vector and nothing else — one
#     allocation per arrival that delivers, none for one that parks.
# (2) work counters under the optimizer — the wake-up engine's reversed
#     FIFO chain at P = 10⁴ (≥ 5× less guard work than the restart-scan,
#     one wakeup per delivery, unit fan-out) and the two pinned
#     `simulate_prob` points, including the ignored P = 10⁵ run that
#     must complete with its recorded 1 299 987 deliveries.
# (3) ledger smoke — the two in-process workloads of the benchmark run
#     for 3 s each and must end `verdict: correct` (the ledger exits
#     non-zero otherwise): the sim kernel and the endpoint mesh still
#     deliver everything, with identical counters on every pass.
# (4) the ledger's per-layer table, printed for the reader (wheel vs
#     heap ns/event, full vs delta bytes/msg, park→wake cost);
#     comparing runs is the benchmark's job.
stage_perf() {
    run cargo run --release -p pcb-bench --bin alloc_gate -- --check
    run cargo test --release -p pcb-broadcast --test work_ratio -q
    run cargo test --release -p pcb-sim --test determinism_pin -q -- --include-ignored
    for workload in sim-paper endpoint-mesh; do
        run bash ledger/run.sh --workload "$workload" --seed 1 --seconds 3 --trace 0
    done
    run bash ledger/run.sh layers
    end_stage
}

# Equivalence stage: the certification harness — 31 seeded chaos runs
# recorded by the simulator's endpoint driver, replayed node by node
# through the daemon's own start-up and persist code, every recorded
# crash a restart from a real state directory, must match the record
# bit for bit (delivery order, alert flags, recovery counters summed
# over incarnations) and the pinned per-seed checksums, with a clean
# stream oracle — plus the shell-purity guard that fails if
# `sim::engine`/`sim::chaos` regrow protocol logic that belongs inside
# `pcb-broadcast::Endpoint`, or if the runtime crate starts a thread.
stage_equiv() {
    run cargo test -p pcb-runtime --test equivalence -q
    run cargo test -p pcb-sim --test shell_guard -q
    end_stage
}

# Daemon stage: real pcb-daemon OS processes. The live tests — a
# 3-process cluster with one node SIGKILLed and restarted from its
# snapshot + WAL, a publish acknowledged just before a SIGKILL, and what
# a daemon accepts from strangers and members — and three 6 s runs of
# the benchmark (the ledger exits non-zero unless every message arrived
# everywhere): the crash workload (SIGKILL + `--resume` of one of three
# daemons under load), of which the lines that say how the restart went
# and what the outage cost on the wire are shown — ≈ 4 ms catch-up,
# ≈ 300 ms p90, ≈ 485 B and ≈ 6.7 packets a publish; ≈ 525 B means sync
# replies and snapshots are full frames again, not per-sender chains,
# and ≈ 646 B and ≈ 8.1 packets that the survivors retransmit every
# frame in flight to the dead daemon again, not only the oldest; the
# steady workload, of which the lines that say what a publish costs on
# the wire are — ≈ 476 B and ≈ 6.5 packets on a quiet loopback (the
# counters are the `lo` interface's, so anything else talking on it is
# in them; ≈ 497 B means the periodic full frames or the long publish
# reply are back); and the saturate workload, of which capacity,
# latency and memory are shown — ≈ 9 950 deliveries/s at ≈ 0.19 ms p50
# and ≈ 3.6 MB on 2 cores (one run of each after chained lists, seed 1,
# on a busy host); ≈ 3 000/s at
# ≈ 1.5 ms means the loop sleeps between turns again, a p50 of ≈ 20 ms that RPC writes wait behind
# Nagle (`TCP_NODELAY` off), and ≈ 7 MB or more that snapshots no
# longer follow the message count, so the store outgrows the stability
# frontier. Environments that forbid fork/exec print an explicit
# SKIPPED marker instead of failing.
stage_daemon() {
    run cargo build --release -p pcb-runtime --bins
    if can_spawn_daemon; then
        run cargo test -p pcb-runtime --test daemon -q
        ledger_lines daemon-crash \
            "restart catch-up|deliver_p90_ms  |wire_bytes_per_msg  |lo packets per message|failed_ops|verdict"
        ledger_lines daemon-steady "wire_bytes_per_msg  |lo packets per message|failed_ops|verdict"
        ledger_lines daemon-saturate \
            "deliveries_per_s  |deliver_p50_ms  |peak_rss_mb  |failed_ops|verdict"
    fi
    end_stage
}

# Observability-plane stage: the causal-health estimators and the
# traces. (1) X̂ must converge to the true in-flight concurrency and the
# live predicted P_error(R, K, X̂) must track the Algorithm-4 alert rate
# within 2× while bounding the realized violation rate on a fig3-style
# grid; (2) the full estimator path must fit the ≤5% telemetry budget;
# (3) with tracing on, the certification harness, which restarts
# crashed nodes from disk, must emit each node's trace exactly as the
# simulator's endpoint did, record for record and incarnation for
# incarnation, on all 31 seeded chaos runs; (4) a live 3-daemon
# cluster's `/metrics` pages must parse and agree with the `status`
# RPC, and `pcb-top --once` must render every node.
stage_obs() {
    run cargo test -p pcb-sim --test estimators -q
    run cargo run --release -p pcb-bench --bin telemetry_overhead
    run cargo test -p pcb-runtime --test equivalence per_node_traces -q
    run cargo build --release -p pcb-runtime --bins
    if can_spawn_daemon; then
        run cargo test -p pcb-runtime --test daemon -q
    fi
    end_stage
}

# Churn stage: the config-epoch plane end to end. (1) The churn
# experiment drives snapshot-assisted joins, graceful leaves, and an
# online (R, K) reconfiguration through the real endpoint across
# 4 seeds × both clock disciplines and exits nonzero unless every gated
# cell converges with 0 undetected violations and 0 lost streams;
# (2) the membership-plane suites re-run explicitly: the simulator's
# chaos churn scenarios, and the seven churn plans of the certification
# harness, replayed through the daemon's start-up and persist code.
stage_churn() {
    run cargo run --release -p pcb-bench --bin churn_experiment
    run cargo test -p pcb-sim --test chaos -q
    run cargo test -p pcb-runtime --test equivalence churn -q
    end_stage
}

# One line naming what the stages ran on: cores, compiler, the file
# systems under the tests' state directories (the harness and the live
# daemon tests use target/tmp, unit tests the temp directory), and
# whether pcb-daemon could be spawned.
print_env() {
    local rc spawn fs_state fs_tmp tmp=${TMPDIR:-/tmp}
    rc=$(daemon_help_rc)
    spawn=yes
    [[ "$rc" -gt 2 ]] && spawn="no (exit $rc)"
    fs_state=$(stat -f -c %T target/tmp 2>/dev/null || echo unknown)
    fs_tmp=$(stat -f -c %T "$tmp" 2>/dev/null || echo unknown)
    echo "==== env: nproc $(nproc), $(rustc --version), target/tmp on $fs_state," \
        "$tmp on $fs_tmp, pcb-daemon spawns: $spawn"
}

# Runs every stage to the end, whatever fails, and prints the table.
run_all() {
    local log rc status stage started pass=0 skipped=0 failed=0 table=""
    log="$(mktemp)"
    for stage in base chaos trace perf equiv daemon obs churn; do
        echo "==== stage: $stage"
        started=$SECONDS
        # Own subshell, outside any `if`/`||`, so `set -e` stays in force
        # inside the stage while a failure does not end this loop.
        set +e
        (
            set -e
            "stage_$stage"
        ) 2>&1 | tee "$log"
        rc=${PIPESTATUS[0]}
        set -e
        if [[ "$rc" -ne 0 ]]; then
            status="FAIL (exit $rc)"
            failed=$((failed + 1))
        elif grep -q "SKIPPED" "$log"; then
            status="SKIPPED: $(grep -m1 "SKIPPED" "$log" | sed 's/^==> SKIPPED: //')"
            skipped=$((skipped + 1))
        else
            status="PASS"
            pass=$((pass + 1))
        fi
        table+="$(printf '%-7s %5ds  %s' "$stage" $((SECONDS - started)) "$status")"$'\n'
    done
    rm -f "$log"
    print_env
    echo "==== verify --all: $pass PASS, $skipped SKIPPED, $failed FAIL (${SECONDS}s)"
    printf '%s' "$table"
    [[ "$failed" -eq 0 ]]
}

case "${1:-}" in
"") stage_base ;;
--tier1)
    stage_tier1
    echo "tier-1 gate: OK"
    exit 0
    ;;
--all)
    run_all
    ;;
--chaos | --trace | --perf | --equiv | --daemon | --obs | --churn)
    stage_base
    "stage_${1#--}"
    ;;
*)
    echo "unknown flag: $1 (see the header of $0)" >&2
    exit 2
    ;;
esac

echo "verify: OK"
