#!/usr/bin/env bash
# Non-test Rust code lines per crate, measured the same way in every PR.
#
#   scripts/loc.sh [rev]
#
# For each crate (`crates/<name>/src`, and the root package's `src` as
# `barrier-elim`) prints the lines of every `.rs` file that are neither
# blank nor a `//` comment and come before the file's first
# `#[cfg(test)]`. Integration tests (`tests/`), `benches/`, `benchmark/`
# and the five offline shim crates are left out. Without an argument the
# working tree is counted; with one, the committed files of that
# revision (exported with `git archive`).
set -euo pipefail

root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
src=$root
if [ $# -ge 1 ]; then
    src=$(mktemp -d "${TMPDIR:-/tmp}/loc.XXXXXX")
    trap 'rm -rf "$src"' EXIT
    git -C "$root" archive "$1" crates src | tar -x -C "$src"
fi

code_lines() { # <dir>
    find "$1" -name '*.rs' -print0 | xargs -0 awk '
        FNR == 1 { in_tests = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests || /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        { n++ }
        END { print n + 0 }'
}

total=0
for dir in "$src"/crates/*/src "$src/src"; do
    name=$(basename "$(dirname "$dir")")
    case $name in
    criterion | crossbeam | parking_lot | proptest | rand) continue ;;
    esac
    [ "$dir" = "$src/src" ] && name=barrier-elim
    n=$(code_lines "$dir")
    total=$((total + n))
    printf '%-14s %6d\n' "$name" "$n"
done
printf '%-14s %6d\n' total "$total"
