#!/usr/bin/env bash
# Sampling profiler for one ledger workload, for hosts without `perf`:
# seizes the running `pcb-ledger` with ptrace after its warm-up, reads the
# instruction pointer every 2 ms and symbolises it with addr2line (the
# release profile keeps debug info), inlined frames included.
#
#   scripts/profile.sh <workload> [seed]      # e.g. scripts/profile.sh endpoint-mesh 1
#
# Samples a 12 s run, the ledger's main thread only — the in-process workloads are
# single-threaded; for the daemon workloads that is the load generator. For
# the daemons' side of those, scripts/daemon_cpu.sh reads each pcb-daemon's
# user/sys CPU and context switches from /proc.
# A diagnostic, not a gate: needs x86-64 Linux, addr2line and the right to
# ptrace a child (root, or kernel.yama.ptrace_scope <= 1); prints SKIPPED
# otherwise.
set -euo pipefail
cd "$(dirname "$0")/.."
workload="${1:?usage: scripts/profile.sh <workload> [seed]}"
seed="${2:-1}"
cargo build --release --offline --quiet --manifest-path ledger/Cargo.toml >&2
bin="${CARGO_TARGET_DIR:-ledger/target}/release/pcb-ledger"
exec python3 - "$bin" "$workload" "$seed" <<'PY'
import collections, ctypes, os, platform, re, shutil, signal, subprocess, sys, time

binary, workload, seed = sys.argv[1:4]
def skipped(why):
    print(f"SKIPPED: {why}")
    sys.exit(0)
if platform.machine() != "x86_64" or not shutil.which("addr2line"):
    skipped("needs x86-64 Linux and addr2line")
SEIZE, INTERRUPT, GETREGS, CONT = 0x4206, 0x4207, 12, 7
RIP = 16  # index of rip in user_regs_struct
libc = ctypes.CDLL(None, use_errno=True)
libc.ptrace.restype = ctypes.c_long
libc.ptrace.argtypes = [ctypes.c_long, ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p]
regs = (ctypes.c_ulonglong * 27)()

child = subprocess.Popen(
    [binary, "--workload", workload, "--seed", seed, "--seconds", "12", "--trace", "0"],
    stdout=subprocess.DEVNULL,
)
time.sleep(4.0)  # construction + the ledger's 3 s in-process warm-up
pid = child.pid
if libc.ptrace(SEIZE, pid, None, None) != 0:
    child.kill()
    skipped(f"ptrace refused ({os.strerror(ctypes.get_errno())}); needs root or ptrace_scope <= 1")
path = os.path.realpath(binary)
with open(f"/proc/{pid}/maps") as maps:
    base = next(int(l.split("-")[0], 16) for l in maps if l.rstrip().endswith(path))

samples = collections.Counter()
while True:
    if libc.ptrace(INTERRUPT, pid, None, None) != 0:
        break
    _, status = os.waitpid(pid, 0)
    if not os.WIFSTOPPED(status):
        break
    if os.WSTOPSIG(status) != signal.SIGTRAP:
        libc.ptrace(CONT, pid, None, ctypes.c_void_p(os.WSTOPSIG(status)))
        continue
    libc.ptrace(GETREGS, pid, None, regs)
    samples[regs[RIP] - base] += 1
    libc.ptrace(CONT, pid, None, None)
    time.sleep(0.002)
child.wait()

total = sum(samples.values())
inside = [a for a in samples if 0 <= a < 1 << 32]
out = subprocess.run(
    ["addr2line", "-a", "-f", "-i", "-C", "-e", path] + [hex(a) for a in inside],
    capture_output=True, text=True, check=True,
).stdout.splitlines()
# addr2line -a -f -i prints the address, then a (function, file:line)
# pair per frame, innermost first.
frames_of, addr, want_name = {}, None, True
for line in out:
    if want_name and line.startswith("0x"):
        addr = int(line, 16)
        frames_of[addr] = []
        continue
    if want_name:
        frames_of[addr].append(re.sub(r"::h[0-9a-f]{16}$", "", line))
    want_name = not want_name
stacks, innermost, outermost, anywhere = (collections.Counter() for _ in range(4))
for addr, names in frames_of.items():
    stacks[" <- ".join(names[:4])] += samples[addr]
    innermost[names[0]] += samples[addr]
    outermost[names[-1]] += samples[addr]
    for name in set(names):  # inlined or not, with everything inlined below it
        anywhere[name] += samples[addr]
elsewhere = total - sum(samples[a] for a in inside)
print(f"{total} samples of `{workload}` seed {seed}; {elsewhere} outside the binary (libc, kernel, vdso)")
for title, table in (("non-inlined function (outermost frame)", outermost),
                     ("function wherever it was inlined, callees inlined into it included", anywhere),
                     ("innermost symbol", innermost),
                     ("inlined stack, innermost first", stacks)):
    print(f"\ntop 20 by {title}:")
    for name, n in table.most_common(20):
        print(f"  {n:6d}  {100.0 * n / total:5.1f} %  {name}")
PY
