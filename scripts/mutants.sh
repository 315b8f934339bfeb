#!/usr/bin/env bash
# Mutation check. Each file under scripts/mutants/SET/ is a one-line
# mutant; the script copies the working tree into SCRATCH_DIR, applies
# one mutant at a time, and runs the set's suites on it in order until
# one fails. It never touches the tree it runs from.
#
#   scripts/mutants.sh restart SCRATCH_DIR
#   scripts/mutants.sh core SCRATCH_DIR
#   scripts/mutants.sh wire SCRATCH_DIR
#   scripts/mutants.sh sim SCRATCH_DIR
#   scripts/mutants.sh link SCRATCH_DIR
#   scripts/mutants.sh daemon SCRATCH_DIR
#
# restart  mutants of the code a restarted node runs: booting from its
#          state directory, persisting, the WAL and snapshot codecs, the
#          endpoint's resume and restore. Suites: the certification
#          harness (`runtime/tests/equivalence.rs`), then the runtime
#          crate's unit tests.
# core     mutants of the protocol core: the Algorithm 1 stamp, the
#          Algorithm 2 guard kernel and record rule, Algorithm 3's
#          unranking, the Algorithm 4/5 detectors, the wake-up index
#          and the stamp pool.
#          Suites: the four that compare the core with the specification
#          (`pcb_clock::spec`), then every clock and broadcast test.
# wire     mutants of the frame codec (`broadcast/src/wire.rs`): the
#          Golomb–Rice parameters on either side, the delta base, the
#          frame checksum, the list codec's entry budget and per-sender
#          chains. Suites: the delta codec's differential and
#          round-trip tests, the wire fuzz and golden-frame tests, then
#          the forged-count fuzz of `bench/tests/frame_fuzz.rs`.
# sim      mutants of the simulator's timing wheel (`sim/src/wheel.rs`):
#          a drained tick left unsorted, a push into the draining tick
#          appended instead of inserted, equal-tick candidates resolved
#          to the lower level. Suites: the wheel's unit tests against the
#          heap, the chaos scheduler differential, then the engine's
#          wheel-versus-heap run.
# link     mutants of the per-peer link (`runtime/src/link.rs`): a
#          restart that re-offers mid-chain frames, every outstanding
#          frame retransmitted, no fence on a risen incarnation, an ack
#          for an older epoch accepted, a held frame's timer taken as the
#          deadline. Suites: the enumerator's reduced scope, then the
#          link's unit tests; both drive links over the test network,
#          no socket in the loop.
# daemon   mutants of what a daemon accepts from its peers
#          (`runtime/src/daemon.rs`): a probe applied in another member's
#          name, a member's chain frame naming another sender applied,
#          a stranger's datagram decoded as member 0's. Suites: the live
#          tests of `runtime/tests/daemon.rs`, which spawn the mutated
#          `pcb-daemon`, then the runtime crate's unit tests.
#
# Prints one line per mutant — which suite killed it, or `SURVIVED` —
# and exits non-zero if any survived. The copy builds into
# SCRATCH_DIR/target, so a second run rebuilds only what the mutants
# touch.
set -euo pipefail
cd "$(dirname "$0")/.."

usage="usage: scripts/mutants.sh restart|core|wire|sim|link|daemon SCRATCH_DIR"
set_name=${1:?$usage}
scratch=${2:?$usage}
# Each suite is "label|cargo test arguments".
case "$set_name" in
restart)
    suites=("equivalence|-p pcb-runtime --test equivalence" "unit tests|-p pcb-runtime --lib")
    ;;
core)
    suites=(
        "guard_equivalence|-p pcb-clock --test guard_equivalence"
        "spec_conformance|-p pcb-clock --test spec_conformance"
        "differential|-p pcb-broadcast --test differential"
        "work_ratio|-p pcb-broadcast --test work_ratio"
        "other tests|-p pcb-clock -p pcb-broadcast"
    )
    ;;
wire)
    suites=(
        "delta|-p pcb-broadcast --test delta"
        "wire_fuzz|-p pcb-broadcast --test wire_fuzz"
        "frame_fuzz|-p pcb-bench --test frame_fuzz"
    )
    ;;
sim)
    suites=(
        "wheel tests|-p pcb-sim --lib wheel::"
        "scheduler_differential|-p pcb-sim --test scheduler_differential"
        "engine|-p pcb-sim --lib wheel_and_heap_schedulers_are_bit_identical"
    )
    ;;
link)
    suites=(
        "enumerator|-p pcb-runtime --lib link::enumerate"
        "link tests|-p pcb-runtime --lib link::tests"
    )
    ;;
daemon)
    suites=("daemon tests|-p pcb-runtime --test daemon" "unit tests|-p pcb-runtime --lib")
    ;;
*)
    echo "$usage" >&2
    exit 2
    ;;
esac

mkdir -p "$scratch"
scratch=$(cd "$scratch" && pwd)
copy="$scratch/tree"
rm -rf "$copy"
mkdir -p "$copy"
# Fresh modification times (-m): the copy's build must never look older
# than what an earlier run left in SCRATCH_DIR/target.
tar --exclude=./.git --exclude=./target --exclude=./ledger/target -cf - . | tar -xmf - -C "$copy"
export CARGO_TARGET_DIR="$scratch/target"

# Runs one suite on the mutated copy. A mutant can make the simulator's
# own record grow without bound (restart 09 reissues stamp heights);
# 4 GiB of address space and 15 minutes end such a run as a failure
# instead of taking the host's memory.
suite() {
    local args
    read -ra args <<<"$1"
    args=(cargo test --release --offline -q "${args[@]}")
    if ! (cd "$copy" && "${args[@]}" --no-run) >>"$log" 2>&1; then
        echo "$name does not build: see $log" >&2
        exit 2
    fi
    (cd "$copy" && ulimit -v 4194304 && timeout 900 "${args[@]}") >>"$log" 2>&1
}

survived=0
for mutant in scripts/mutants/"$set_name"/*.patch; do
    name=$(basename "$mutant" .patch)
    log="$scratch/$name.log"
    : >"$log"
    patch -s -p1 -d "$copy" <"$mutant"
    verdict="SURVIVED            "
    for entry in "${suites[@]}"; do
        if ! suite "${entry#*|}"; then
            verdict=$(printf 'killed by %-18s' "${entry%%|*}")
            break
        fi
    done
    echo "$verdict $name"
    [[ "$verdict" == SURVIVED* ]] && survived=$((survived + 1))
    patch -s -R -p1 -d "$copy" <"$mutant"
done
[[ "$survived" -eq 0 ]]
