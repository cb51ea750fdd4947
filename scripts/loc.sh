#!/usr/bin/env bash
# Non-test Rust code lines per crate, measured the same way in every PR.
#
#   scripts/loc.sh [rev]
#
# For each crate (`crates/<name>/src`, and the root package's `src` as
# `barrier-elim`) prints the lines of every `.rs` file that are neither
# blank nor a `//` comment nor inside a `#[cfg(test)]` module (the
# attribute, the `mod` line and everything up to its closing brace; a
# `#[cfg(test)]` on anything else is counted like other code).
# Integration tests (`tests/`), `benches/`, `benchmark/` and the five
# offline shim crates are left out. A last row counts the `.be` program
# lines under `kernels/` (neither blank nor a `!` comment); they are
# not part of the Rust total. Without an argument the working tree is
# counted; with one, the committed files of that revision (exported
# with `git archive`).
set -euo pipefail

root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
src=$root
if [ $# -ge 1 ]; then
    src=$(mktemp -d "${TMPDIR:-/tmp}/loc.XXXXXX")
    trap 'rm -rf "$src"' EXIT
    git -C "$root" archive "$1" crates src kernels | tar -x -C "$src"
fi

code_lines() { # <dir>
    find "$1" -name '*.rs' -print0 | xargs -0 awk '
        # Brace balance of a line, string literals left out.
        function braces(line) {
            gsub(/"([^"\\]|\\.)*"/, "", line)
            return gsub(/\{/, "", line) - gsub(/\}/, "", line)
        }
        FNR == 1 { attr = 0; depth = 0 }
        # Inside a test module: follow its braces to the closing one.
        depth > 0 { depth += braces($0); next }
        /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { attr = 1; next }
        attr && /^[[:space:]]*(pub[^ ]* )?mod [A-Za-z_0-9]+ *\{/ {
            attr = 0
            depth = braces($0)
            next
        }
        attr { attr = 0; n++ }
        /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
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
be=0
if [ -d "$src/kernels" ]; then
    be=$(find "$src/kernels" -name '*.be' -print0 | xargs -0 -r awk '
        /^[[:space:]]*$/ || /^[[:space:]]*!/ { next }
        { n++ }
        END { print n + 0 }')
fi
printf '%-14s %6d\n' "kernels (.be)" "${be:-0}"
