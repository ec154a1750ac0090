#!/usr/bin/env bash
# Run sets of graphport_perf on two checkouts and compare them.
#
#   bench/perf/run.sh --sets N --out DIR BASE [NEW]
#
# BASE and NEW are checkout roots (each holding BENCHMARK.json and
# bench/perf). In set i every workload of BASE's BENCHMARK.json runs once
# on each side, for its run_seconds, with seed i; odd sets run BASE first
# and even sets NEW first, so slow drift of the machine lands on both
# sides alike. Given only BASE, the checkout is compared with itself,
# which shows the benchmark's own run-to-run spread. Records land in
# DIR/base and DIR/new; BASE's compare.py then prints the verdict table
# against BASE's bounds.
set -euo pipefail

sets=""
out=""
sides=()
while [ $# -gt 0 ]; do
    case "$1" in
        --sets) sets="$2"; shift 2 ;;
        --out) out="$2"; shift 2 ;;
        -*) echo "run.sh: unknown option $1" >&2; exit 2 ;;
        *) sides+=("$(cd "$1" && pwd)"); shift ;;
    esac
done
if [ -z "$sets" ] || [ -z "$out" ] || [ ${#sides[@]} -lt 1 ] ||
    [ ${#sides[@]} -gt 2 ]; then
    echo "usage: run.sh --sets N --out DIR BASE [NEW]" >&2
    exit 2
fi
base="${sides[0]}"
new="${sides[1]:-${sides[0]}}"
bench="$base/BENCHMARK.json"
seconds=$(python3 -c "import json,sys; \
print(json.load(open(sys.argv[1]))['run_seconds'])" "$bench")
workloads=$(python3 -c "import json,sys; \
print(' '.join(w['name'] for w in json.load(open(sys.argv[1]))['workloads']))" \
    "$bench")
mkdir -p "$out/base" "$out/new"
out="$(cd "$out" && pwd)"

run_side() { # side-name checkout workload seed
    local log="$out/$1/$3-$4.log"
    echo "set $4 $1 $3" >&2
    python3 "$2/bench/perf/run.py" --workload "$3" --seed "$4" \
        --seconds "$seconds" --trace 0 \
        --save "$out/$1/$3-$4.json" >"$log" 2>&1 ||
        echo "run.sh: $1 $3 seed $4 failed; see $log" >&2
}

for i in $(seq 1 "$sets"); do
    for w in $workloads; do
        if [ $((i % 2)) -eq 1 ]; then
            run_side base "$base" "$w" "$i"
            run_side new "$new" "$w" "$i"
        else
            run_side new "$new" "$w" "$i"
            run_side base "$base" "$w" "$i"
        fi
    done
done
python3 "$base/bench/perf/compare.py" "$out/base" "$out/new"
