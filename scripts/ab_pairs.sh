#!/usr/bin/env bash
# A/B acceptance run for a performance change: the BENCHMARK.json command
# on a parent revision and on this checkout, in alternating order.
#
#   scripts/ab_pairs.sh <parent-rev> <workload> [pairs=10] [seconds]
#
# The parent's committed files are exported (`git archive`) into a
# directory of their own and built there; the change is this working
# tree, built in place. Both are built before the first timed run. Pair k
# runs both sides with seed AB_SEED+k (AB_SEED defaults to the clock, so
# every invocation draws seeds no earlier one used), parent first on even
# k, change first on odd k. `seconds` defaults to `run_seconds`.
#
# Prints, for every end-to-end metric BENCHMARK.json declares, each
# side's median and quartiles, the pairs the change won and tied,
# whether it meets the rule for a claimed gain (the change wins at least
# nine tenths of the pairs and the medians are further apart than the
# parent's interquartile spread), and whether the change's median is
# within the metric's regression bound — all a metric that is not the
# claim has to do; where the parent's own spread is wider than the bound
# that reads `unresolved`. Exit status: 0 when every run produced a
# result with `failed` = 0, 1 otherwise.
#
# AB_DIR (default: a fresh directory under $TMPDIR) holds the parent
# export, its build and the raw result lines (`results.jsonl`).
set -euo pipefail

if [ $# -lt 2 ]; then
    sed -n '2,7p' "$0" >&2
    exit 2
fi
parent_rev=$1
workload=$2
pairs=${3:-10}
root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
seconds=${4:-$(python3 -c "import json; print(json.load(open('$root/BENCHMARK.json'))['run_seconds'])")}
seed0=${AB_SEED:-$(($(date +%s) % 1000000))}
dir=${AB_DIR:-$(mktemp -d "${TMPDIR:-/tmp}/ab_pairs.XXXXXX")}

mapfile -t command < <(python3 -c "
import json
for word in json.load(open('$root/BENCHMARK.json'))['command']:
    print(word)")

mkdir -p "$dir/parent"
git -C "$root" archive "$parent_rev" | tar -x -C "$dir/parent"
echo "parent $(git -C "$root" rev-parse --short "$parent_rev") in $dir/parent, change = working tree of $root" >&2
echo "workload $workload, $pairs pairs, ${seconds}s windows, seeds $seed0..$((seed0 + pairs - 1)), nproc $(nproc)" >&2

# Build both sides first, so that no timed run compiles.
for side in "$dir/parent" "$root"; do
    (cd "$side" && cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2)
done

results=$dir/results.jsonl
: >"$results"
run_side() { # <label> <checkout> <seed>
    local line
    line=$(cd "$2" && "${command[@]}" --workload "$workload" --seed "$3" --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1) || line=""
    case $line in
    "{"*) printf '{"side":"%s","seed":%s,"result":%s}\n' "$1" "$3" "$line" >>"$results" ;;
    *) printf '{"side":"%s","seed":%s,"result":null}\n' "$1" "$3" >>"$results" ;;
    esac
}
for ((k = 0; k < pairs; k++)); do
    seed=$((seed0 + k))
    if ((k % 2 == 0)); then
        run_side parent "$dir/parent" "$seed"
        run_side change "$root" "$seed"
    else
        run_side change "$root" "$seed"
        run_side parent "$dir/parent" "$seed"
    fi
    echo "pair $((k + 1))/$pairs done (seed $seed)" >&2
done

python3 - "$root/BENCHMARK.json" "$results" <<'PY'
import json, statistics, sys

bench = json.load(open(sys.argv[1]))
runs = [json.loads(line) for line in open(sys.argv[2])]
by_seed = {}
bad = 0
for r in runs:
    res = r["result"]
    if res is None or res["failed"] != 0:
        bad += 1
        print(f"  {r['side']} seed {r['seed']}: " + ("no result line" if res is None else f"{res['failed']} of {res['attempted']} failed"))
        continue
    by_seed.setdefault(r["seed"], {})[r["side"]] = {k: v["value"] for k, v in res["metrics"].items()}
pairs = [p for p in by_seed.values() if len(p) == 2]

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

print(f"{len(pairs)} complete pairs")
print(f"{'metric':22} {'parent median [q1–q3]':34} {'change median [q1–q3]':34} {'wins':>5} {'ties':>5}  gain rule  within bound")
for m in bench["end_to_end"]:
    name, higher = m["name"], m["better"] == "higher"
    parent = [p["parent"][name] for p in pairs]
    change = [p["change"][name] for p in pairs]
    if not pairs:
        break
    better = (lambda c, p: c > p) if higher else (lambda c, p: c < p)
    wins = sum(better(c, p) for c, p in zip(change, parent))
    ties = sum(c == p for c, p in zip(change, parent))
    (p1, p2, p3), (c1, c2, c3) = quartiles(parent), quartiles(change)
    gain = c2 - p2 if higher else p2 - c2
    passed = wins * 10 >= 9 * len(pairs) and gain > p3 - p1
    worse = -gain / abs(p2) if p2 else 0.0
    if worse > m["bound"]:
        bound = f"NO ({worse:+.1%} vs {m['bound']:.0%})"
    elif p2 and (p3 - p1) / abs(p2) > m["bound"] and not all(better(c, max(parent) if higher else min(parent)) for c in change):
        bound = f"unresolved (parent spread {(p3 - p1) / abs(p2):.0%} > {m['bound']:.0%})"
    else:
        bound = "yes"
    fmt = lambda a, b, c: f"{b:.6g} [{a:.6g}–{c:.6g}]"
    print(f"{name:22} {fmt(p1, p2, p3):34} {fmt(c1, c2, c3):34} {wins:>5} {ties:>5}  {'met' if passed else 'not met':9}  {bound}")
sys.exit(1 if bad or not pairs else 0)
PY
