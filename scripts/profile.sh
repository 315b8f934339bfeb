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
# A sample outside the binary is placed through the process's memory map
# (read once, after the seize) and, in a shared object, named by the
# nearest dynamic symbol at or below it (`nm -D`; an IFUNC such as memcpy
# also where it resolves). The "+0x…" beside a name is the farthest such
# sample from that symbol: a large one means an unexported neighbour
# (malloc's internals, say). A thread stopped inside a system call shows
# as the libc wrapper that made it.
# A diagnostic, not a gate: needs x86-64 Linux, addr2line and the right to
# ptrace a child (root, or kernel.yama.ptrace_scope <= 1); prints SKIPPED
# otherwise. Without nm, shared objects are named by file only.
set -euo pipefail
cd "$(dirname "$0")/.."
workload="${1:?usage: scripts/profile.sh <workload> [seed]}"
seed="${2:-1}"
cargo build --release --offline --quiet --manifest-path ledger/Cargo.toml >&2
bin="${CARGO_TARGET_DIR:-ledger/target}/release/pcb-ledger"
exec python3 - "$bin" "$workload" "$seed" <<'PY'
import bisect, collections, ctypes, os, platform, re, shutil, signal, subprocess, sys, time

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
# (start, end, mapped file or [pseudo] name or "") of every mapping.
maps = []
with open(f"/proc/{pid}/maps") as lines:
    for line in lines:
        fields = line.split(maxsplit=5)
        start, end = (int(x, 16) for x in fields[0].split("-"))
        maps.append((start, end, fields[5].strip() if len(fields) > 5 else ""))
base = min(start for start, _, name in maps if name == path)

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
    samples[regs[RIP]] += 1
    libc.ptrace(CONT, pid, None, None)
    time.sleep(0.002)
child.wait()

def mapped_name(addr):
    return next((name for start, end, name in maps if start <= addr < end), "(unmapped)")

total = sum(samples.values())
inside, outside = collections.Counter(), collections.defaultdict(collections.Counter)
for addr, n in samples.items():
    name = mapped_name(addr)
    if name == path:
        inside[addr - base] += n
    else:
        outside[name][addr] += n
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
    stacks[" <- ".join(names[:4])] += inside[addr]
    innermost[names[0]] += inside[addr]
    outermost[names[-1]] += inside[addr]
    for name in set(names):  # inlined or not, with everything inlined below it
        anywhere[name] += inside[addr]

def dynamic_symbols(obj):
    """Sorted (address, name) of the code symbols `obj` exports. An IFUNC
    (memcpy and kin) is also placed where this process's dynamic linker
    resolved it, when this process maps `obj` too: the same library on
    the same CPU picks the same variant, which exports no name of its own."""
    if not shutil.which("nm"):
        return []
    listing = subprocess.run(["nm", "-D", "--defined-only", obj], capture_output=True, text=True)
    fields = [(int(f[0], 16), f[1], f[2].split("@")[0])
              for f in map(str.split, listing.stdout.splitlines()) if len(f) == 3 and f[1] in "TtWwi"]
    names = collections.defaultdict(set)
    for address, _, name in fields:
        names[address].add(name)
    with open("/proc/self/maps") as lines:
        own = [int(l.split("-")[0], 16) for l in lines if l.rstrip().endswith(" " + obj)]
    if own:
        lib = ctypes.CDLL(obj)
        for _, kind, name in fields:
            if kind == "i" and hasattr(lib, name):
                address = ctypes.cast(getattr(lib, name), ctypes.c_void_p).value - min(own)
                names[address].add(f"{name} (resolved)")
    return sorted((address, "/".join(sorted(group))) for address, group in names.items())

# Outside the binary: per shared object, the nearest exported symbol at or
# below each sample, with the farthest distance from it seen.
beyond, reach = collections.Counter(), collections.Counter()
for obj, hits in outside.items():
    symbols = dynamic_symbols(obj) if obj.startswith("/") else []
    starts = [address for address, _ in symbols]
    load = min((start for start, _, name in maps if name == obj), default=0)
    for addr, n in hits.items():
        label = os.path.basename(obj) or "(anonymous mapping)"
        at = bisect.bisect_right(starts, addr - load) - 1
        if at >= 0:
            label = f"{label}: {symbols[at][1]}"
            reach[label] = max(reach[label], addr - load - starts[at])
        beyond[label] += n
elsewhere = sum(beyond.values())
print(f"{total} samples of `{workload}` seed {seed}; {elsewhere} outside the binary (libc, kernel, vdso)")
for title, table in (("non-inlined function (outermost frame)", outermost),
                     ("function wherever it was inlined, callees inlined into it included", anywhere),
                     ("innermost symbol", innermost),
                     ("inlined stack, innermost first", stacks)):
    print(f"\ntop 20 by {title}:")
    for name, n in table.most_common(20):
        print(f"  {n:6d}  {100.0 * n / total:5.1f} %  {name}")
print("\ntop 10 outside the binary (shared object: nearest exported symbol below, +farthest offset):")
for name, n in beyond.most_common(10):
    offset = f"  +{reach[name]:#x}" if name in reach else ""
    print(f"  {n:6d}  {100.0 * n / total:5.1f} %  {name}{offset}")
PY
