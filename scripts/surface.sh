#!/usr/bin/env bash
# The workspace's public surface and size, one row per crate:
#
#   pub    `pub` items under the crate's src/ (fn, struct, enum, trait,
#          const, type, mod, static, use), plus the items of every
#          `pub trait` (its fns, types and consts, which carry no `pub`
#          of their own, so moving a method between a trait and a type
#          leaves the count alone); `pub(crate)` and other restricted
#          visibilities are not counted;
#   lines  Rust lines in the crate, src/ and tests/;
#   test   of those, the lines in tests/ and in `#[cfg(test)]` items
#          of src/ (found by brace depth);
#   other  lines - test.
#
# Then the same line counts for the root package's src/ and tests/,
# examples/ and perfbench/src, and the totals. The line total is the
# net-line count ROADMAP.md asks each change to report.
#
# Usage: scripts/surface.sh
set -euo pipefail
cd "$(dirname "$0")/.."

PUB='\bpub (fn|struct|enum|trait|const|type|mod|static|use)\b'

# Lines inside `#[cfg(test)]` items of the given files.
cfg_test_lines() {
    [ $# -eq 0 ] && { echo 0; return; }
    awk '
        FNR == 1 { depth = 0; armed = 0; inside = 0 }
        {
            line = $0
            gsub(/"([^"\\]|\\.)*"/, "", line)
            gsub(/'"'"'[{}]'"'"'/, "", line)
            sub(/\/\/.*/, "", line)
            if (!inside && line ~ /^[[:space:]]*#\[cfg\(test\)\]/) armed = 1
            if (!armed && !inside) next
            n++
            o = gsub(/\{/, "", line)
            c = gsub(/\}/, "", line)
            if (armed && o == 0 && line ~ /;[[:space:]]*$/) { armed = 0; next }
            if (armed && o > 0) { armed = 0; inside = 1 }
            if (inside) { depth += o - c; if (depth <= 0) { inside = 0; depth = 0 } }
        }
        END { print n + 0 }' "$@"
}

# Items declared directly inside `pub trait` blocks of the given files.
pub_trait_items() {
    [ $# -eq 0 ] && { echo 0; return; }
    awk '
        FNR == 1 { depth = 0; armed = 0; inside = 0 }
        {
            line = $0
            gsub(/"([^"\\]|\\.)*"/, "", line)
            gsub(/'"'"'[{}]'"'"'/, "", line)
            sub(/\/\/.*/, "", line)
            if (!inside && line ~ /^[[:space:]]*pub trait /) armed = 1
            if (!armed && !inside) next
            o = gsub(/\{/, "", line)
            c = gsub(/\}/, "", line)
            if (inside && depth == 1 && line ~ /^[[:space:]]*(unsafe )?(fn|type|const) /) n++
            if (armed && o > 0) { armed = 0; inside = 1 }
            if (inside) { depth += o - c; if (depth <= 0) { inside = 0; depth = 0 } }
        }
        END { print n + 0 }' "$@"
}

rs_files() { find "$@" -name '*.rs' -not -path '*/target/*' 2>/dev/null | sort; }

count_lines() { [ $# -eq 0 ] && echo 0 || cat "$@" | wc -l; }

total_pub=0 total_lines=0 total_test=0
row() { printf '%-26s %6s %8s %8s %8s\n' "$@"; }
row crate pub lines test other

for dir in crates/*/; do
    dir=${dir%/}
    name=$(sed -n 's/^name *= *"\(.*\)"/\1/p' "$dir/Cargo.toml" | head -1)
    mapfile -t src < <(rs_files "$dir/src")
    mapfile -t tst < <(rs_files "$dir/tests")
    pub=$(( $(cat "${src[@]}" | grep -cE "$PUB" || true) + $(pub_trait_items "${src[@]}") ))
    lines=$(( $(count_lines "${src[@]}") + $(count_lines "${tst[@]}") ))
    test=$(( $(cfg_test_lines "${src[@]}") + $(count_lines "${tst[@]}") ))
    row "$name" "$pub" "$lines" "$test" $((lines - test))
    total_pub=$((total_pub + pub)) total_lines=$((total_lines + lines)) total_test=$((total_test + test))
done

for dir in src tests examples perfbench/src; do
    mapfile -t files < <(rs_files "$dir")
    lines=$(count_lines "${files[@]}")
    case $dir in
        tests) test=$lines ;;
        *) test=$(cfg_test_lines "${files[@]}") ;;
    esac
    row "$dir/" - "$lines" "$test" $((lines - test))
    total_lines=$((total_lines + lines)) total_test=$((total_test + test))
done

row total "$total_pub" "$total_lines" "$total_test" $((total_lines - total_test))
