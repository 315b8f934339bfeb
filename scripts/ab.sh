#!/usr/bin/env bash
# Alternating before/after runs of one benchmark workload: the ledger
# built at a git revision against the ledger built from the working tree.
#
#   scripts/ab.sh <rev> <workload> [pairs] [seconds]    # defaults: 8 pairs, 15 s
#   scripts/ab.sh HEAD~1 endpoint-mesh 10 15
#
# <rev> is exported with `git archive` into $TMPDIR (no worktree entry is
# added to the repository) and built there; the working tree builds in
# place. Each side has its own target directory under $AB_DIR (default
# $TMPDIR/pcb-ab), kept between runs so a second comparison rebuilds only
# what changed. Pair i runs both binaries on seed AB_SEED0 + i (default
# 1000), the side that goes first alternating from pair to pair.
#
# Prints every end-to-end metric of each run, then per metric the median
# change/parent ratio and how many pairs the change won (by the metric's
# direction in BENCHMARK.json), then both sides' verdicts. The exported
# tree is removed on every exit path, and ledger/Cargo.lock (which a
# ledger build rewrites) is put back as it was.
set -euo pipefail
cd "$(dirname "$0")/.."
usage="usage: scripts/ab.sh <rev> <workload> [pairs] [seconds]"
rev=${1:?$usage}
workload=${2:?$usage}
pairs=${3:-8}
seconds=${4:-15}
seed0=${AB_SEED0:-1000}
tmp=${TMPDIR:-/tmp}
ab_dir=${AB_DIR:-$tmp/pcb-ab}
commit=$(git rev-parse --verify "$rev^{commit}")
mkdir -p "$ab_dir"
export_dir=$(mktemp -d "$tmp/pcb-ab-src.XXXXXX")
lock_copy=$(mktemp "$tmp/pcb-ab-lock.XXXXXX")
results=$(mktemp "$tmp/pcb-ab-results.XXXXXX")
cp ledger/Cargo.lock "$lock_copy"
cleanup() {
    rm -rf "$export_dir" "$results"
    cp "$lock_copy" ledger/Cargo.lock
    rm -f "$lock_copy"
}
trap cleanup EXIT
trap 'exit 130' INT
trap 'exit 143' TERM

git archive "$commit" | tar -xf - -C "$export_dir"
build() { # source dir, target dir
    CARGO_TARGET_DIR=$2 cargo build --release --offline --quiet --manifest-path "$1/ledger/Cargo.toml" >&2
}
echo "building $rev ($commit) ..." >&2
build "$export_dir" "$ab_dir/parent-${commit:0:12}"
echo "building the working tree ..." >&2
build "$PWD" "$ab_dir/change"
parent_bin="$ab_dir/parent-${commit:0:12}/release/pcb-ledger"
change_bin="$ab_dir/change/release/pcb-ledger"

run() { # side, binary, seed
    local line
    line=$("$2" --workload "$workload" --seed "$3" --seconds "$seconds" --trace 0 | tail -n 1)
    printf '%s %s %s\n' "$1" "$3" "$line" >>"$results"
}
for ((i = 0; i < pairs; i++)); do
    seed=$((seed0 + i))
    if ((i % 2 == 0)); then
        run parent "$parent_bin" "$seed"
        run change "$change_bin" "$seed"
    else
        run change "$change_bin" "$seed"
        run parent "$parent_bin" "$seed"
    fi
    echo "pair $((i + 1))/$pairs done (seed $seed)" >&2
done

python3 - "$results" BENCHMARK.json <<'PY'
import json, statistics, sys

results, manifest = sys.argv[1:3]
better = {m["name"]: m["better"] for m in json.load(open(manifest))["end_to_end"]}
runs = {}
for line in open(results):
    side, seed, result = line.split(" ", 2)
    runs.setdefault(int(seed), {})[side] = json.loads(result)
seeds = sorted(runs)
names = [n for n in better if all(n in runs[s][side]["metrics"] for s in seeds for side in runs[s])]
print(f"{'seed':>6} {'metric':<20} {'parent':>14} {'change':>14} {'ratio':>8}")
for seed in seeds:
    for name in names:
        p = runs[seed]["parent"]["metrics"][name]["value"]
        c = runs[seed]["change"]["metrics"][name]["value"]
        ratio = c / p if p else float("nan")
        print(f"{seed:>6} {name:<20} {p:>14.6g} {c:>14.6g} {ratio:>8.4f}")
print()
def quartiles(values):
    if len(values) < 2:
        return values * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]
print(f"{'metric':<20} {'median ratio':>12} {'change wins':>12} {'ties':>5}"
      f"  parent q1 / median / q3 -> change median")
for name in names:
    ratios, wins, ties = [], 0, 0
    for seed in seeds:
        p = runs[seed]["parent"]["metrics"][name]["value"]
        c = runs[seed]["change"]["metrics"][name]["value"]
        if p:
            ratios.append(c / p)
        if c == p:
            ties += 1
        elif (c > p) == (better[name] == "higher"):
            wins += 1
    median = statistics.median(ratios) if ratios else float("nan")
    q1, q2, q3 = quartiles([runs[s]["parent"]["metrics"][name]["value"] for s in seeds])
    changed = statistics.median([runs[s]["change"]["metrics"][name]["value"] for s in seeds])
    print(f"{name:<20} {median:>12.4f} {wins:>9}/{len(seeds):<2} {ties:>5}"
          f"  {q1:.6g} / {q2:.6g} / {q3:.6g} -> {changed:.6g}")
for side in ("parent", "change"):
    verdicts = ["correct" if runs[s][side]["correct"] else "INCORRECT" for s in seeds]
    print(f"{side} verdicts: {' '.join(verdicts)}")
PY
