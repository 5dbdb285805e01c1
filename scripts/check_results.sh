#!/usr/bin/env bash
# Checks that the committed experiment CSVs under results/ are what the
# code produces: runs `reproduce all` into a fresh directory and diffs
# every CSV, in both directions, against results/.
#
# Usage: scripts/check_results.sh [OUT_DIR]
#
# Columns that time the host (wall-clock seconds and the energy derived
# from them) differ run to run; they are listed once in HOST_TIMING and
# masked on both sides. Every other column must match byte for byte.
set -euo pipefail

HOST_TIMING="host_s_per_invocation device_s_per_invocation device_j_per_invocation mbo_j overhead_pct"

cd "$(dirname "$0")/.."
out=${1:-$(mktemp -d)}
cargo run --locked --release -q -p bofl-bench --bin reproduce -- all --out "$out" >/dev/null

# Prints a CSV with every HOST_TIMING column's values replaced by `*`.
mask() {
    awk -F, -v skip="$HOST_TIMING" '
        BEGIN { OFS = ","; n = split(skip, s, " "); for (i = 1; i <= n; i++) drop[s[i]] = 1 }
        NR == 1 { for (i = 1; i <= NF; i++) if ($i in drop) masked[i] = 1 }
        NR > 1 { for (i in masked) $i = "*" }
        { print }' "$1"
}

status=0
for f in "$out"/*.csv; do
    name=$(basename "$f")
    if [ ! -f "results/$name" ]; then
        echo "results/$name: produced by reproduce but not committed"
        status=1
    elif ! diff -u --label "results/$name" --label "fresh/$name" \
        <(mask "results/$name") <(mask "$f"); then
        status=1
    fi
done
for f in results/*.csv; do
    if [ ! -f "$out/$(basename "$f")" ]; then
        echo "$f: committed but no longer produced by reproduce"
        status=1
    fi
done
[ "$status" -eq 0 ] && echo "results/ matches reproduce all (host-timing columns masked)"
exit "$status"
