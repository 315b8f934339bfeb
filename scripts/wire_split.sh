#!/usr/bin/env bash
# What a daemon workload's loopback bytes are made of: runs one ledger
# daemon workload and, over a 10 s slice after its warm-up, prints per
# publish the TCP segments and UDP datagrams sent (/proc/net/snmp), the
# bytes on the `lo` interface (/proc/net/dev), and the UDP payload bytes
# the daemons sent (their `udp_bytes_sent`, read over their RPC sockets
# with the `status` op). The ledger's `wire_bytes_per_msg` is the `lo`
# figure; the rest says how much of it is the RPC plane's TCP and how
# much the daemons' UDP. Where `ss` is installed, the TCP segments are
# split further, from each RPC socket's own counters: sent by the
# daemons and by the load generator's connections, and of each how many
# carried data (the rest are pure ACKs).
#
#   scripts/wire_split.sh <workload> [seed]   # e.g. scripts/wire_split.sh daemon-saturate 1
#
# The counters are the network namespace's: run nothing else that talks
# on loopback meanwhile. Publishes are the daemons' own `sent` counters.
# The workload's daemons must live through the slice, so `daemon-crash`
# fits only if its kill falls outside it. Prints SKIPPED where /proc is
# missing. Honours CARGO_TARGET_DIR like ledger/run.sh. The slice is
# scripts/daemon_slice.py's, shared with scripts/daemon_cpu.sh. A
# diagnostic, not a gate.
set -euo pipefail
cd "$(dirname "$0")/.."
workload="${1:?usage: scripts/wire_split.sh <workload> [seed]}"
seed="${2:-1}"
if [[ ! -r /proc/net/snmp || ! -r /proc/net/dev || ! -r /proc/self/cmdline ]]; then
    echo "SKIPPED: no /proc/net/{snmp,dev} or /proc/<pid>/cmdline on this host"
    exit 0
fi
cargo build --release --offline --quiet --manifest-path ledger/Cargo.toml >&2
bin="${CARGO_TARGET_DIR:-ledger/target}/release/pcb-ledger"
exec python3 scripts/daemon_slice.py wire "$bin" "$workload" "$seed"
