#!/usr/bin/env bash
# Mutation check of the restart path. Each file under
# scripts/mutants/restart/ is a one-line mutant of the code a restarted
# node runs: booting from its state directory, persisting, the WAL and
# snapshot codecs, the endpoint's resume and restore. The script copies
# the working tree into SCRATCH_DIR, applies one mutant at a time, and
# runs the certification harness (`runtime/tests/equivalence.rs`) on it,
# then, for a mutant the harness misses, the runtime crate's unit tests.
# It never touches the tree it runs from.
#
#   scripts/mutants.sh SCRATCH_DIR
#
# Prints one line per mutant — which suite killed it, or `SURVIVED` —
# and exits non-zero if any survived. The copy builds into
# SCRATCH_DIR/target, so a second run rebuilds only what the mutants
# touch.
set -euo pipefail
cd "$(dirname "$0")/.."

scratch=${1:?usage: scripts/mutants.sh SCRATCH_DIR}
mkdir -p "$scratch"
scratch=$(cd "$scratch" && pwd)
copy="$scratch/tree"
rm -rf "$copy"
mkdir -p "$copy"
# Fresh modification times (-m): the copy's build must never look older
# than what an earlier run left in SCRATCH_DIR/target.
tar --exclude=./.git --exclude=./target --exclude=./ledger/target -cf - . | tar -xmf - -C "$copy"
export CARGO_TARGET_DIR="$scratch/target"

# Runs one suite of the runtime crate on the mutated copy. A mutant can
# make the simulator's own record grow without bound (09 reissues stamp
# heights); 4 GiB of address space and 15 minutes end such a run as a
# failure instead of taking the host's memory.
suite() {
    local args=(cargo test --release --offline -q -p pcb-runtime "$@")
    if ! (cd "$copy" && "${args[@]}" --no-run) >>"$log" 2>&1; then
        echo "$name does not build: see $log" >&2
        exit 2
    fi
    (cd "$copy" && ulimit -v 4194304 && timeout 900 "${args[@]}") >>"$log" 2>&1
}

survived=0
for mutant in scripts/mutants/restart/*.patch; do
    name=$(basename "$mutant" .patch)
    log="$scratch/$name.log"
    : >"$log"
    patch -s -p1 -d "$copy" <"$mutant"
    if ! suite --test equivalence; then
        echo "killed by equivalence  $name"
    elif ! suite --lib; then
        echo "killed by unit tests   $name"
    else
        echo "SURVIVED               $name"
        survived=$((survived + 1))
    fi
    patch -s -R -p1 -d "$copy" <"$mutant"
done
[[ "$survived" -eq 0 ]]
