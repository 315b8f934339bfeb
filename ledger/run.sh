#!/usr/bin/env bash
# Builds the ledger and the pcb-daemon under test from this checkout's
# source, then runs one benchmark command. Every argument is passed on:
#
#   bash ledger/run.sh --workload daemon-steady --seed 7 --seconds 20 --trace 0
#   bash ledger/run.sh layers
#
# The build lands in $CARGO_TARGET_DIR when set, else in ledger/target.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/pcb-ledger" "$@"
