#!/usr/bin/env bash
# Lists `pub fn` items that nothing outside their own file names: each
# `pub fn NAME` under crates/*/src and src whose NAME, as a whole word,
# appears in no other .rs file under crates, ledger/src, src, tests or
# examples. Such an item is public for nobody: make it private, or
# delete it. A name shared with another item elsewhere hides a dead one,
# so the list is a floor, not the whole of it. The benchmark's own
# sources (ledger/src) are searched for callers but not listed: they
# change only with the benchmark.
#
#   scripts/dead_pub.sh        # one `path:line: name` per item, then a count
set -euo pipefail
cd "$(dirname "$0")/.."

roots=(crates ledger/src src tests examples)
found=0
while IFS=: read -r file line name; do
    if ! grep -rlw --include='*.rs' -- "$name" "${roots[@]}" | grep -qvxF -- "$file"; then
        echo "$file:$line: $name"
        found=$((found + 1))
    fi
done < <(
    grep -rn --include='*.rs' -E '^\s*pub fn [A-Za-z_][A-Za-z0-9_]*' crates/*/src src |
        sed -E 's/^([^:]+):([0-9]+):\s*pub fn ([A-Za-z_][A-Za-z0-9_]*).*/\1:\2:\3/'
)
echo "$found pub fn items named only in their own file"
