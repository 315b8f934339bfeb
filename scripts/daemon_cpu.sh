#!/usr/bin/env bash
# Where the daemons' CPU goes, seen from outside: runs one ledger daemon
# workload and, over a 10 s slice after its warm-up, prints each
# `pcb-daemon`'s user and system CPU (% of one core) and its voluntary and
# involuntary context switches per second.
#
#   scripts/daemon_cpu.sh <workload> [seed]   # e.g. scripts/daemon_cpu.sh daemon-saturate 1
#
# Reads only /proc/<pid>/stat and /proc/<pid>/status: no ptrace, nothing
# to set, no extra rights. Prints SKIPPED where /proc is missing. Honours
# CARGO_TARGET_DIR like ledger/run.sh. A diagnostic, not a gate.
set -euo pipefail
cd "$(dirname "$0")/.."
workload="${1:?usage: scripts/daemon_cpu.sh <workload> [seed]}"
seed="${2:-1}"
if [[ ! -r /proc/self/stat || ! -r /proc/self/status ]]; then
    echo "SKIPPED: no /proc/<pid>/{stat,status} on this host"
    exit 0
fi
cargo build --release --offline --quiet --manifest-path ledger/Cargo.toml >&2
bin="${CARGO_TARGET_DIR:-ledger/target}/release/pcb-ledger"
exec python3 - "$bin" "$workload" "$seed" <<'PY'
import os, subprocess, sys, time

binary, workload, seed = sys.argv[1:4]
SLICE_S = 10.0
# The ledger builds its cluster three times and keeps the last: a set of
# daemons that stayed the same this long is that one, past its warm-up.
SETTLED_S = 4.0
TICK = os.sysconf("SC_CLK_TCK")

def stat(pid):
    """(ppid, comm, utime + stime split) from /proc/<pid>/stat, or None."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            text = f.read()
    except OSError:
        return None
    comm = text[text.index("(") + 1 : text.rindex(")")]
    fields = text[text.rindex(")") + 2 :].split()
    # fields[0] is field 3 of proc(5): state; ppid is 4, utime 14, stime 15.
    return int(fields[1]), comm, int(fields[11]), int(fields[12])

def switches(pid):
    counts = {}
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                key, _, value = line.partition(":")
                if key in ("voluntary_ctxt_switches", "nonvoluntary_ctxt_switches"):
                    counts[key] = int(value)
    except OSError:
        return None
    return counts.get("voluntary_ctxt_switches"), counts.get("nonvoluntary_ctxt_switches")

def daemons(parent):
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            s = stat(int(entry))
            if s and s[0] == parent and s[1] == "pcb-daemon":
                found.append(int(entry))
    return sorted(found)

def sample(pids):
    out = {}
    for pid in pids:
        s, c = stat(pid), switches(pid)
        if s is None or c is None:
            return None
        out[pid] = (s[2], s[3], c[0], c[1])
    return out

ledger = subprocess.Popen(
    [binary, "--workload", workload, "--seed", seed, "--seconds", "15", "--trace", "0"],
    stdout=subprocess.DEVNULL,
)
try:
    pids, since, started = [], time.monotonic(), time.monotonic()
    while True:
        now = daemons(ledger.pid)
        if now != pids:
            pids, since = now, time.monotonic()
        elif pids and time.monotonic() - since >= SETTLED_S:
            break
        if ledger.poll() is not None or time.monotonic() - started > 60:
            sys.exit(f"{workload}: no settled pcb-daemon cluster (is it a daemon workload?)")
        time.sleep(0.1)
    t0, before = time.monotonic(), sample(pids)
    time.sleep(SLICE_S)
    t1, after = time.monotonic(), sample(pids)
    if before is None or after is None:
        sys.exit(f"{workload}: a pcb-daemon exited during the slice")
    secs = t1 - t0
    print(f"{workload} seed {seed}: {secs:.1f} s slice, per pcb-daemon "
          "(CPU as % of one core; context switches per second)")
    print(f"{'pid':>8} {'user %':>8} {'sys %':>8} {'vol cs/s':>10} {'invol cs/s':>11}")
    for pid in pids:
        (u0, s0, v0, i0), (u1, s1, v1, i1) = before[pid], after[pid]
        print(f"{pid:>8} {100 * (u1 - u0) / TICK / secs:>8.1f} {100 * (s1 - s0) / TICK / secs:>8.1f}"
              f" {(v1 - v0) / secs:>10.0f} {(i1 - i0) / secs:>11.0f}")
finally:
    # The ledger reaps its own daemons; let it finish rather than orphan them.
    ledger.wait()
PY
