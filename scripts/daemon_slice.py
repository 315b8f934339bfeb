"""The slice both daemon diagnostics sample (scripts/daemon_cpu.sh,
scripts/wire_split.sh, which build the ledger and check /proc first):
runs one ledger daemon workload for 15 s, waits until its last cluster
has settled past the warm-up, and samples that cluster's `pcb-daemon`
processes at both ends of a 10 s slice.

    python3 scripts/daemon_slice.py {cpu|wire} <pcb-ledger> <workload> <seed>
"""
import json, os, shutil, socket, subprocess, sys, time

SLICE_S = 10.0
# The ledger builds its cluster three times and keeps the last: a set of
# daemons that stayed the same this long is that one, past its warm-up.
SETTLED_S = 4.0
TICK = os.sysconf("SC_CLK_TCK")


def stat(pid):
    """(ppid, comm, utime, stime) from /proc/<pid>/stat, or None."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            text = f.read()
    except OSError:
        return None
    comm = text[text.index("(") + 1 : text.rindex(")")]
    fields = text[text.rindex(")") + 2 :].split()
    # fields[0] is field 3 of proc(5): state; ppid is 4, utime 14, stime 15.
    return int(fields[1]), comm, int(fields[11]), int(fields[12])


def children(parent):
    """`pcb-daemon` children of `parent`: pid → its `--rpc` address."""
    found = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        s = stat(int(entry))
        if not s or s[0] != parent or s[1] != "pcb-daemon":
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as f:
                argv = f.read().decode().split("\0")
        except OSError:
            continue
        if "--rpc" in argv:
            found[int(entry)] = argv[argv.index("--rpc") + 1]
    return found


# ---- cpu: per daemon, user and system CPU and context switches ----------

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


def cpu_sample(daemons):
    out = {}
    for pid in daemons:
        s, c = stat(pid), switches(pid)
        if s is None or c is None:
            return None
        out[pid] = (s[2], s[3], c[0], c[1])
    return out


def cpu_report(head, daemons, before, after, secs):
    print(f"{head}, per pcb-daemon (CPU as % of one core; context switches per second)")
    print(f"{'pid':>8} {'user %':>8} {'sys %':>8} {'vol cs/s':>10} {'invol cs/s':>11}")
    for pid in sorted(daemons):
        (u0, s0, v0, i0), (u1, s1, v1, i1) = before[pid], after[pid]
        print(f"{pid:>8} {100 * (u1 - u0) / TICK / secs:>8.1f} {100 * (s1 - s0) / TICK / secs:>8.1f}"
              f" {(v1 - v0) / secs:>10.0f} {(i1 - i0) / secs:>11.0f}")


# ---- wire: per publish, what the loopback bytes are ----------------------

def snmp():
    """(TCP OutSegs, UDP OutDatagrams) of this network namespace."""
    rows = {}
    with open("/proc/net/snmp") as f:
        lines = f.read().splitlines()
    for names, values in zip(lines[::2], lines[1::2]):
        proto, names = names.split(":", 1)
        rows[proto] = dict(zip(names.split(), map(int, values.split(":", 1)[1].split())))
    return rows["Tcp"]["OutSegs"], rows["Udp"]["OutDatagrams"]


def lo_bytes():
    with open("/proc/net/dev") as f:
        for line in f:
            name, _, counters = line.partition(":")
            if name.strip() == "lo":
                return int(counters.split()[8])  # transmit bytes
    sys.exit("no lo interface in /proc/net/dev")


def rpc_segments(ports):
    """(daemon segs_out, daemon data_segs_out, client segs_out, client
    data_segs_out) summed over the established TCP sockets of the RPC
    plane, from `ss -tin`; None without `ss`."""
    if shutil.which("ss") is None:
        return None
    text = subprocess.run(["ss", "-tinH"], capture_output=True, text=True, check=True).stdout
    totals, side = [0, 0, 0, 0], None
    for line in text.splitlines():
        fields = line.split()
        if not line[0].isspace():
            local, peer = int(fields[3].rsplit(":", 1)[1]), int(fields[4].rsplit(":", 1)[1])
            side = 0 if local in ports else 2 if peer in ports else None
            continue
        if side is None:
            continue
        counters = dict(f.split(":", 1) for f in fields if f.startswith(("segs_out:", "data_segs_out:")))
        totals[side] += int(counters.get("segs_out", 0))
        totals[side + 1] += int(counters.get("data_segs_out", 0))
    return totals


def status(rpc):
    host, port = rpc.rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=5) as conn:
        conn.sendall(b'{"op":"status"}\n')
        reply = b""
        while not reply.endswith(b"\n"):
            chunk = conn.recv(65536)
            if not chunk:
                break
            reply += chunk
    return json.loads(reply)


def wire_sample(daemons):
    """Publishes and UDP payload bytes summed over the daemons, with the
    namespace's counters read around them."""
    tcp0, udp0 = snmp()
    lo0 = lo_bytes()
    split = rpc_segments({int(rpc.rsplit(":", 1)[1]) for rpc in daemons.values()})
    sent = payload = 0
    try:
        for rpc in daemons.values():
            s = status(rpc)
            sent += s["sent"]
            payload += s["udp_bytes_sent"]
    except OSError:
        return None
    tcp1, udp1 = snmp()
    lo1 = lo_bytes()
    return (sent, payload, (tcp0 + tcp1) / 2, (udp0 + udp1) / 2, (lo0 + lo1) / 2), split


def wire_report(head, daemons, before, after, secs):
    (before, split0), (after, split1) = before, after
    publishes = after[0] - before[0]
    if publishes <= 0:
        sys.exit(f"{head}: nothing was published during the slice")
    per = [(a - b) / publishes for a, b in zip(after[1:], before[1:])]
    print(f"{head}, {publishes} publishes ({publishes / secs:.0f}/s); per publish:")
    print(f"  TCP segments sent     {per[1]:8.2f}")
    if split0 is not None and split1 is not None:
        d, dd, c, cd = ((b - a) / publishes for a, b in zip(split0, split1))
        print(f"    by the daemons      {d:8.2f}   ({dd:.2f} with data)")
        print(f"    by the clients      {c:8.2f}   ({cd:.2f} with data)")
    print(f"  UDP datagrams sent    {per[2]:8.2f}")
    print(f"  lo bytes              {per[3]:8.1f}")
    print(f"  UDP payload bytes     {per[0]:8.1f}")


def main():
    kind, binary, workload, seed = sys.argv[1:5]
    sample, report = {"cpu": (cpu_sample, cpu_report), "wire": (wire_sample, wire_report)}[kind]
    ledger = subprocess.Popen(
        [binary, "--workload", workload, "--seed", seed, "--seconds", "15", "--trace", "0"],
        stdout=subprocess.DEVNULL,
    )
    try:
        daemons, since, started = {}, time.monotonic(), time.monotonic()
        while True:
            now = children(ledger.pid)
            if now != daemons:
                daemons, since = now, time.monotonic()
            elif daemons and time.monotonic() - since >= SETTLED_S:
                break
            if ledger.poll() is not None or time.monotonic() - started > 60:
                sys.exit(f"{workload}: no settled pcb-daemon cluster (is it a daemon workload?)")
            time.sleep(0.1)
        t0, before = time.monotonic(), sample(daemons)
        time.sleep(SLICE_S)
        t1, after = time.monotonic(), sample(daemons)
        if before is None or after is None or children(ledger.pid) != daemons:
            sys.exit(f"{workload}: a pcb-daemon exited during the slice")
        report(f"{workload} seed {seed}: {t1 - t0:.1f} s slice", daemons, before, after, t1 - t0)
    finally:
        # The ledger reaps its own daemons; let it finish rather than orphan them.
        ledger.wait()


main()
