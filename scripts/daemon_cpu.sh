#!/usr/bin/env bash
# Where the daemons' CPU goes, seen from outside: runs one ledger daemon
# workload and, over a 10 s slice after its warm-up, prints each
# `pcb-daemon`'s user and system CPU (% of one core) and its voluntary and
# involuntary context switches per second.
#
#   scripts/daemon_cpu.sh <workload> [seed]   # e.g. scripts/daemon_cpu.sh daemon-saturate 1
#
# Reads only /proc/<pid>/{stat,status,cmdline}: no ptrace, nothing to
# set, no extra rights. Prints SKIPPED where /proc is missing. Honours
# CARGO_TARGET_DIR like ledger/run.sh. The slice is
# scripts/daemon_slice.py's, shared with scripts/wire_split.sh. A
# diagnostic, not a gate.
set -euo pipefail
cd "$(dirname "$0")/.."
workload="${1:?usage: scripts/daemon_cpu.sh <workload> [seed]}"
seed="${2:-1}"
if [[ ! -r /proc/self/stat || ! -r /proc/self/status || ! -r /proc/self/cmdline ]]; then
    echo "SKIPPED: no /proc/<pid>/{stat,status,cmdline} on this host"
    exit 0
fi
cargo build --release --offline --quiet --manifest-path ledger/Cargo.toml >&2
bin="${CARGO_TARGET_DIR:-ledger/target}/release/pcb-ledger"
exec python3 scripts/daemon_slice.py cpu "$bin" "$workload" "$seed"
