#!/usr/bin/env bash
# N back-to-back runs of every workload and a per-metric table of
# min / median / max and spread (interquartile range as a share of the
# median, the figure BENCHMARK.json's bounds are judged against).
#
#   svc_bench/scripts/repeat.sh [runs=10] [first_seed=1] [same|vary] [trace=0]
#
# `vary` (the default) gives run i the seed first_seed+i, as the benchmark
# driver does; `same` repeats first_seed, which isolates machine noise.
# Run it from the repository root. Raw result lines go to .bench_out/.
set -euo pipefail

runs="${1:-10}"
first_seed="${2:-1}"
mode="${3:-vary}"
trace="${4:-0}"
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
workloads="$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"

cargo build --release --quiet --manifest-path svc_bench/Cargo.toml
bin="${CARGO_TARGET_DIR:-svc_bench/target}/release/svc_bench"
mkdir -p .bench_out
raw=".bench_out/repeat-$(date +%Y%m%dT%H%M%S).jsonl"

for workload in $workloads; do
  for i in $(seq 0 $((runs - 1))); do
    seed="$first_seed"
    [ "$mode" = vary ] && seed=$((first_seed + i))
    line="$("$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" | tail -n 1)"
    echo "{\"workload\": \"$workload\", \"seed\": $seed, \"result\": $line}" >>"$raw"
    echo "$workload seed $seed done" >&2
  done
done

python3 - "$raw" <<'PY'
import json, statistics, sys
rows = [json.loads(l) for l in open(sys.argv[1])]
print(f"{'workload':<18} {'metric':<36} {'min':>12} {'median':>12} {'max':>12} {'iqr/median':>10}")
for workload in dict.fromkeys(r["workload"] for r in rows):
    runs = [r["result"] for r in rows if r["workload"] == workload]
    bad = [r for r in runs if not r["correct"] or r["failed"]]
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q = statistics.quantiles(values, n=4) if len(values) > 1 else [median] * 3
        spread = (q[2] - q[0]) / median if median else 0.0
        print(f"{workload:<18} {name:<36} {min(values):>12.5g} {median:>12.5g} {max(values):>12.5g} {spread:>10.4f}")
    print(f"{workload:<18} runs {len(runs)}, failed or incorrect {len(bad)}")
print(f"raw results: {sys.argv[1]}")
PY
