#!/usr/bin/env bash
# Alternated parent/change pairs of the repository's benchmark, summarized
# the way the benchmark gate judges them, and recorded as a trajectory file.
#
#   scripts/bench_pairs.sh <parent-sha> [pairs=10] [first_seed=1]
#   scripts/bench_pairs.sh --self-test
#
# Clones <parent-sha> under /root/scratch (or $TMPDIR), builds `svc_bench`
# there and in this checkout, then for every BENCHMARK.json workload runs
# `pairs` pairs for `run_seconds` each — pair i uses seed first_seed+i on
# both sides, and the side that goes first alternates so drift on a shared
# box cancels. Each run's last output line is its result JSON. Prints, per
# workload x end-to-end metric: both medians, the parent's interquartile
# range, how many pairs the change won and whether the median stays inside
# the metric's bound — and per workload and side the paper's headline,
# clean_speedup = median ivm_answer_ms / median svc_answer_ms; sums `failed`;
# writes BENCH_<date>_<sha>.json (machine, both shas, medians, IQR,
# clean_speedup, every pair) at the repository root.
#
# Run it from the repository root on an otherwise idle box.
set -euo pipefail

# summarize <raw.jsonl> <BENCHMARK.json> <out.json> <parent-sha> <change-sha>
summarize() {
  python3 - "$@" <<'PY'
import json, os, platform, statistics, sys, datetime
raw, bench, out, parent_sha, change_sha = sys.argv[1:6]
bench = json.load(open(bench))
rows = [json.loads(line) for line in open(raw)]

def cpu_model():
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"

def mem_total_mb():
    try:
        for line in open("/proc/meminfo"):
            if line.startswith("MemTotal"):
                return int(line.split()[1]) // 1024
    except OSError:
        pass
    return None

def iqr(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]

summary, clean_speedup, failed, incorrect = {}, {}, 0, 0
print(f"{'workload':<18} {'metric':<24} {'parent':>11} {'change':>11} {'delta':>8} "
      f"{'parent IQR':>10} {'wins':>6}  bound")
for workload in dict.fromkeys(r["workload"] for r in rows):
    pairs = {}
    for r in (r for r in rows if r["workload"] == workload):
        pairs.setdefault(r["seed"], {})[r["side"]] = r["result"]
        failed += r["result"]["failed"]
        incorrect += not r["result"]["correct"]
    pairs = {s: p for s, p in pairs.items() if len(p) == 2}
    summary[workload] = {}
    for metric in bench["end_to_end"]:
        name, higher = metric["name"], metric["better"] == "higher"
        value = lambda side: [p[side]["metrics"][name]["value"] for p in pairs.values()]
        parent, change = value("parent"), value("change")
        p_med, c_med = statistics.median(parent), statistics.median(change)
        delta = (c_med - p_med) / p_med if p_med else 0.0
        wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        worse_by = -delta if higher else delta
        holds = worse_by <= metric["bound"]
        spread = iqr(parent) / p_med if p_med else 0.0
        summary[workload][name] = {
            "parent_median": p_med, "change_median": c_med, "delta": delta,
            "parent_iqr": iqr(parent), "change_iqr": iqr(change),
            "wins": wins, "pairs": len(pairs), "bound": metric["bound"], "bound_holds": holds,
        }
        print(f"{workload:<18} {name:<24} {p_med:>11.5g} {c_med:>11.5g} {delta:>+8.1%} "
              f"{spread:>10.1%} {wins:>3}/{len(pairs):<2}  {'ok' if holds else 'WORSE'}")
    answers = summary[workload]
    clean_speedup[workload] = {
        side: answers["ivm_answer_ms"][f"{side}_median"] / answers["svc_answer_ms"][f"{side}_median"]
        for side in ("parent", "change")}
    print(f"{workload:<18} {'clean_speedup':<24} {clean_speedup[workload]['parent']:>10.2f}x "
          f"{clean_speedup[workload]['change']:>10.2f}x  (median ivm_answer_ms / svc_answer_ms)")
print(f"runs {len(rows)}, failed operations {failed}, incorrect runs {incorrect}")

json.dump({
    "date": datetime.date.today().isoformat(),
    "machine": {"os": f"{platform.system()} {platform.release()} {platform.machine()}",
                "cpu": cpu_model(), "cores": os.cpu_count(), "mem_mb": mem_total_mb()},
    "parent": parent_sha, "change": change_sha,
    "run_seconds": bench["run_seconds"], "failed": failed, "incorrect": incorrect,
    "summary": summary, "clean_speedup": clean_speedup, "runs": rows,
}, open(out, "w"), indent=1)
print(f"wrote {out}")
bad = [f"{w}.{m}" for w, ms in summary.items() for m, s in ms.items() if not s["bound_holds"]]
sys.exit(1 if bad or failed or incorrect else 0)
PY
}

cd "$(dirname "$0")/.."

if [ "${1:-}" = --self-test ]; then
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' EXIT
  result() { # result <svc_answer_ms> <estimates_per_s>
    printf '{"correct": true, "attempted": 9, "failed": 0, "metrics": {"setup_s": {"value": 0.1, "unit": "s"}, "svc_answer_ms": {"value": %s, "unit": "ms"}, "ivm_answer_ms": {"value": 50, "unit": "ms"}, "maintain_records_per_s": {"value": 1000, "unit": "records/s"}, "estimates_per_s": {"value": %s, "unit": "estimates/s"}, "peak_rss_mb": {"value": 30, "unit": "MB"}}}' "$1" "$2"
  }
  echo "{\"workload\": \"canned\", \"seed\": 1, \"side\": \"parent\", \"first\": true, \"result\": $(result 100 1000)}" >"$tmp/raw.jsonl"
  echo "{\"workload\": \"canned\", \"seed\": 1, \"side\": \"change\", \"first\": false, \"result\": $(result 60 700)}" >>"$tmp/raw.jsonl"
  # One pair: the answer got 40 % cheaper (a win, inside any bound) and the
  # estimate rate fell 30 % (no win, past its 20 % bound), so the summary
  # must name both and exit non-zero.
  if summarize "$tmp/raw.jsonl" BENCHMARK.json "$tmp/out.json" aaaaaaa bbbbbbb >"$tmp/table"; then
    echo "self-test: a metric past its bound must fail the summary" >&2
    exit 1
  fi
  cat "$tmp/table"
  grep -Eq 'svc_answer_ms +100 +60 +-40\.0% .* 1/1 +ok' "$tmp/table"
  grep -Eq 'estimates_per_s +1000 +700 +-30\.0% .* 0/1 +WORSE' "$tmp/table"
  # ivm_answer_ms is 50 on both sides: 50/100 and 50/60.
  grep -Eq 'clean_speedup +0\.50x +0\.83x' "$tmp/table"
  python3 -c 'import json, sys; b = json.load(open(sys.argv[1])); assert len(b["runs"]) == 2 and b["parent"] == "aaaaaaa" and b["machine"]["cores"] and b["clean_speedup"]["canned"] == {"parent": 0.5, "change": 50 / 60}' "$tmp/out.json"
  echo "self-test ok"
  exit 0
fi

parent_sha="$(git rev-parse --short "${1:?usage: scripts/bench_pairs.sh <parent-sha> [pairs=10] [first_seed=1]}")"
pairs="${2:-10}"
first_seed="${3:-1}"
change_sha="$(git rev-parse --short HEAD)"
[ -z "$(git status --porcelain)" ] || change_sha="$change_sha-dirty"
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
workloads="$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"

if [ -d /root/scratch ]; then scratch=/root/scratch; else scratch="${TMPDIR:-/tmp}"; fi
parent_root="$scratch/bench_pairs/$parent_sha"
if [ ! -d "$parent_root" ]; then
  git clone --quiet . "$parent_root"
  git -C "$parent_root" checkout --quiet --detach "$parent_sha"
fi
change_root="$PWD"
for root in "$parent_root" "$change_root"; do
  (cd "$root" && cargo build --release --quiet --manifest-path svc_bench/Cargo.toml --bin svc_bench)
done

raw="$scratch/bench_pairs/pairs-$parent_sha-$(date +%Y%m%dT%H%M%S).jsonl"
run() { # run <side> <root> <workload> <seed> <went-first>
  local line
  line="$(cd "$2" && svc_bench/target/release/svc_bench --workload "$3" --seed "$4" --seconds "$seconds" --trace 0 | tail -n 1)"
  echo "{\"workload\": \"$3\", \"seed\": $4, \"side\": \"$1\", \"first\": $5, \"result\": $line}" >>"$raw"
}
for workload in $workloads; do
  for i in $(seq 0 $((pairs - 1))); do
    seed=$((first_seed + i))
    if [ $((i % 2)) -eq 0 ]; then
      run parent "$parent_root" "$workload" "$seed" true
      run change "$change_root" "$workload" "$seed" false
    else
      run change "$change_root" "$workload" "$seed" true
      run parent "$parent_root" "$workload" "$seed" false
    fi
    echo "$workload pair $((i + 1))/$pairs (seed $seed) done" >&2
  done
done

summarize "$raw" BENCHMARK.json "BENCH_$(date +%Y-%m-%d)_$change_sha.json" "$parent_sha" "$change_sha"
