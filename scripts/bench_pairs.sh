#!/usr/bin/env bash
# Alternated parent/change pairs of the repository's benchmark, summarized
# the way the benchmark gate judges them, and recorded as a trajectory file.
#
#   scripts/bench_pairs.sh <parent-sha> [pairs=10] [first_seed=1] [claim=<workload>/<metric>]
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
# clean_speedup = median ivm_answer_ms / median svc_answer_ms, and the
# failed / attempted operation count. With claim=<workload>/<metric>, prints
# MET or NOT MET by the gate's rule: the change won at least 9 of every 10
# pairs and its median is better by more than the parent's IQR. After its
# pairs, each workload runs five more times per side with `--trace 1` at
# the first seed, alternating which side goes first; those runs stay out of
# the medians. Each side's per-layer median is recorded under
# layers.<workload>.{parent,change} and its [min, max] under
# layer_ranges.<workload>.{parent,change}; a layer is printed as moved when
# the medians differ by 10 % or more and the two sides' ranges do not
# overlap. Three runs per side were too few: plan-time layers a change never
# touched drifted apart by 13-16 % with disjoint ranges. Layers svc_bench
# takes once per process (set-up times and the first, cold clean) are never
# printed as moved, only recorded: five single readings per side moved 20-30 %
# on a change that touched neither. Writes BENCH_<date>_<sha>.json (machine, both
# shas, medians, IQR, clean_speedup, failure shares, the claim, the layers,
# every pair) at the repository root. Exits
# non-zero when a metric leaves its bound, the change fails a larger share
# of operations than the parent, a run is incorrect, or the claim is not met.
#
# Run it from the repository root on an otherwise idle box.
set -euo pipefail

# summarize <raw.jsonl> <BENCHMARK.json> <out.json> <parent-sha> <change-sha> [claim]
summarize() {
  python3 - "$@" <<'PY'
import json, os, platform, statistics, sys, datetime
raw, bench, out, parent_sha, change_sha = sys.argv[1:6]
claim = sys.argv[6] if len(sys.argv) > 6 and sys.argv[6] else None
bench = json.load(open(bench))
rows = [json.loads(line) for line in open(raw)]
traced = [r for r in rows if r.get("trace")]
rows = [r for r in rows if not r.get("trace")]
higher_is_better = {m["name"]: m["better"] == "higher" for m in bench["end_to_end"]}

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

def share(counts):
    return counts["failed"] / counts["attempted"] if counts["attempted"] else 0.0

summary, clean_speedup, failures, incorrect = {}, {}, {}, 0
print(f"{'workload':<18} {'metric':<24} {'parent':>11} {'change':>11} {'delta':>8} "
      f"{'parent IQR':>10} {'wins':>6}  bound")
for workload in dict.fromkeys(r["workload"] for r in rows):
    pairs = {}
    failures[workload] = {side: {"failed": 0, "attempted": 0} for side in ("parent", "change")}
    for r in (r for r in rows if r["workload"] == workload):
        pairs.setdefault(r["seed"], {})[r["side"]] = r["result"]
        for count in ("failed", "attempted"):
            failures[workload][r["side"]][count] += r["result"][count]
        incorrect += not r["result"]["correct"]
    pairs = {s: p for s, p in pairs.items() if len(p) == 2}
    summary[workload] = {}
    for metric in bench["end_to_end"]:
        name, higher = metric["name"], higher_is_better[metric["name"]]
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
    fp, fc = (failures[workload][side] for side in ("parent", "change"))
    ratio = lambda f: f"{f['failed']}/{f['attempted']}"
    print(f"{workload:<18} {'failed/attempted':<24} {ratio(fp):>11} {ratio(fc):>11}  "
          f"{'WORSE' if share(fc) > share(fp) else 'ok'}")
failed = sum(f["failed"] for sides in failures.values() for f in sides.values())
print(f"runs {len(rows)}, failed operations {failed}, incorrect runs {incorrect}")

# Per-layer metrics: every traced run's value per workload, side and name;
# each side's median and [min, max].
traced_values = {}
for r in traced:
    sides = traced_values.setdefault(r["workload"], {})
    for name, m in r["result"]["metrics"].items():
        sides.setdefault(r["side"], {}).setdefault(name, []).append(m["value"])
layers = {w: {side: {name: statistics.median(vs) for name, vs in values.items()}
              for side, values in sides.items()} for w, sides in traced_values.items()}
layer_ranges = {w: {side: {name: [min(vs), max(vs)] for name, vs in values.items()}
                    for side, values in sides.items()} for w, sides in traced_values.items()}
single_shot = {"workloads.gen_s", "ivm.view_create_ms", "catalog.build_ms",
               "core.outlier_build_ms", "core.outlier_pushup_ms", "exec.cold_run_ms"}
for workload, sides in layers.items():
    if len(sides) < 2:
        continue
    ranges = layer_ranges[workload]
    for name, p in sides["parent"].items():
        c = sides["change"].get(name)
        if name in single_shot or c is None or not p or abs(c - p) < 0.1 * abs(p):
            continue
        (p_lo, p_hi), (c_lo, c_hi) = ranges["parent"][name], ranges["change"][name]
        if c_hi < p_lo or p_hi < c_lo:
            print(f"{workload:<18} {'layer ' + name:<40} {p:>11.5g} {c:>11.5g} {(c - p) / abs(p):>+8.1%}")

claim_met = None
if claim:
    workload, metric = claim.split("/", 1)
    s = summary[workload][metric]
    sign = 1 if higher_is_better[metric] else -1
    gain = sign * (s["change_median"] - s["parent_median"])
    claim_met = 10 * s["wins"] >= 9 * s["pairs"] and gain > s["parent_iqr"]
    print(f"claim {claim}: {'MET' if claim_met else 'NOT MET'} ({s['wins']}/{s['pairs']} pairs "
          f"won, median better by {gain:.5g}, parent IQR {s['parent_iqr']:.5g})")

json.dump({
    "date": datetime.date.today().isoformat(),
    "machine": {"os": f"{platform.system()} {platform.release()} {platform.machine()}",
                "cpu": cpu_model(), "cores": os.cpu_count(), "mem_mb": mem_total_mb()},
    "parent": parent_sha, "change": change_sha,
    "run_seconds": bench["run_seconds"], "failed": failed, "incorrect": incorrect,
    "failures": failures, "claim": {"name": claim, "met": claim_met},
    "summary": summary, "clean_speedup": clean_speedup, "layers": layers,
    "layer_ranges": layer_ranges, "runs": rows,
}, open(out, "w"), indent=1)
print(f"wrote {out}")
bad = [f"{w}.{m}" for w, ms in summary.items() for m, s in ms.items() if not s["bound_holds"]]
more_failures = [w for w, f in failures.items() if share(f["change"]) > share(f["parent"])]
sys.exit(1 if bad or more_failures or incorrect or claim_met is False else 0)
PY
}

cd "$(dirname "$0")/.."

claim=""
positional=()
for arg in "$@"; do
  case "$arg" in
    claim=*) claim="${arg#claim=}" ;;
    *) positional+=("$arg") ;;
  esac
done
set -- ${positional[@]+"${positional[@]}"}

if [ "${1:-}" = --self-test ]; then
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' EXIT
  result() { # result <svc_answer_ms> <estimates_per_s> [failed]
    printf '{"correct": true, "attempted": 9, "failed": %s, "metrics": {"setup_s": {"value": 0.1, "unit": "s"}, "svc_answer_ms": {"value": %s, "unit": "ms"}, "ivm_answer_ms": {"value": 50, "unit": "ms"}, "maintain_records_per_s": {"value": 1000, "unit": "records/s"}, "estimates_per_s": {"value": %s, "unit": "estimates/s"}, "peak_rss_mb": {"value": 30, "unit": "MB"}}}' "${3:-0}" "$1" "$2"
  }
  pair() { # pair <raw> <seed> <parent svc_answer_ms> <change svc_answer_ms> [change failed]
    echo "{\"workload\": \"canned\", \"seed\": $2, \"side\": \"parent\", \"first\": true, \"result\": $(result "$3" 1000)}" >>"$1"
    echo "{\"workload\": \"canned\", \"seed\": $2, \"side\": \"change\", \"first\": false, \"result\": $(result "$4" 1000 "${5:-0}")}" >>"$1"
  }
  expect_fail() { # expect_fail <what> <summarize args...>
    local what="$1"
    shift
    if summarize "$@" >"$tmp/table"; then
      cat "$tmp/table"
      echo "self-test: $what must fail the summary" >&2
      exit 1
    fi
    cat "$tmp/table"
  }

  # One pair: the answer got 40 % cheaper (a win, inside any bound) and the
  # estimate rate fell 30 % (no win, past its 20 % bound), so the summary
  # must name both and exit non-zero.
  echo "{\"workload\": \"canned\", \"seed\": 1, \"side\": \"parent\", \"first\": true, \"result\": $(result 100 1000)}" >"$tmp/raw.jsonl"
  echo "{\"workload\": \"canned\", \"seed\": 1, \"side\": \"change\", \"first\": false, \"result\": $(result 60 700)}" >>"$tmp/raw.jsonl"
  expect_fail "a metric past its bound" "$tmp/raw.jsonl" BENCHMARK.json "$tmp/out.json" aaaaaaa bbbbbbb
  grep -Eq 'svc_answer_ms +100 +60 +-40\.0% .* 1/1 +ok' "$tmp/table"
  grep -Eq 'estimates_per_s +1000 +700 +-30\.0% .* 0/1 +WORSE' "$tmp/table"
  # ivm_answer_ms is 50 on both sides: 50/100 and 50/60.
  grep -Eq 'clean_speedup +0\.50x +0\.83x' "$tmp/table"
  grep -Eq 'failed/attempted +0/9 +0/9 +ok' "$tmp/table"
  python3 -c 'import json, sys; b = json.load(open(sys.argv[1])); assert len(b["runs"]) == 2 and b["parent"] == "aaaaaaa" and b["machine"]["cores"] and b["clean_speedup"]["canned"] == {"parent": 0.5, "change": 50 / 60} and b["claim"] == {"name": None, "met": None}' "$tmp/out.json"

  # Ten pairs, the answer 40 ms cheaper in each, the parent's IQR 5.5 ms:
  # the claim is met and nothing else moved, so the summary passes. Three
  # traced runs per side carry only per-layer metrics: they must land in
  # the layers block as each side's median and stay out of the medians and
  # the runs. `core.estimate_corr_us` moved (-28.6 %, disjoint ranges);
  # `stats.bootstrap_ms` did not move; `optimizer.optimize_us`'s medians
  # differ by +50 % but one noisy parent run overlaps the change's range,
  # so it is not printed either.
  : >"$tmp/met.jsonl"
  for i in 0 1 2 3 4 5 6 7 8 9; do pair "$tmp/met.jsonl" "$i" $((100 + i)) $((60 + i)); done
  traced() { # traced <side> <estimate_corr_us> <stats.bootstrap_ms> <optimizer.optimize_us>
    echo "{\"workload\": \"canned\", \"seed\": 0, \"side\": \"$1\", \"trace\": true, \"result\": {\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"core.estimate_corr_us\": {\"value\": $2, \"unit\": \"us\"}, \"stats.bootstrap_ms\": {\"value\": $3, \"unit\": \"ms\"}, \"optimizer.optimize_us\": {\"value\": $4, \"unit\": \"us\"}}}}" >>"$tmp/met.jsonl"
  }
  traced parent 90.6 0.66 100
  traced change 64.7 0.66 150
  traced change 66.0 0.67 155
  traced parent 91.0 0.66 160
  traced parent 88.0 0.65 98
  traced change 63.9 0.66 148
  summarize "$tmp/met.jsonl" BENCHMARK.json "$tmp/out.json" aaaaaaa bbbbbbb canned/svc_answer_ms >"$tmp/table"
  cat "$tmp/table"
  grep -Eq 'claim canned/svc_answer_ms: MET \(10/10 pairs won' "$tmp/table"
  grep -Eq 'layer core.estimate_corr_us +90\.6 +64\.7 +-28\.6%' "$tmp/table"
  for layer in stats.bootstrap_ms optimizer.optimize_us; do
    if grep -q "layer $layer" "$tmp/table"; then
      echo "self-test: $layer did not move beyond its spread and must not be printed" >&2
      exit 1
    fi
  done
  python3 -c 'import json, sys; b = json.load(open(sys.argv[1])); assert b["claim"] == {"name": "canned/svc_answer_ms", "met": True} and len(b["runs"]) == 20 and b["layers"] == {"canned": {"parent": {"core.estimate_corr_us": 90.6, "stats.bootstrap_ms": 0.66, "optimizer.optimize_us": 100}, "change": {"core.estimate_corr_us": 64.7, "stats.bootstrap_ms": 0.66, "optimizer.optimize_us": 150}}} and b["layer_ranges"]["canned"]["parent"]["optimizer.optimize_us"] == [98, 160]' "$tmp/out.json"

  # Ten pairs, each won by 5 ms, but the parent's IQR is 55 ms: winning
  # every pair is not enough, the claim is not met.
  : >"$tmp/unmet.jsonl"
  for i in 0 1 2 3 4 5 6 7 8 9; do pair "$tmp/unmet.jsonl" "$i" $((100 + 10 * i)) $((95 + 10 * i)); done
  expect_fail "an unmet claim" "$tmp/unmet.jsonl" BENCHMARK.json "$tmp/out.json" aaaaaaa bbbbbbb canned/svc_answer_ms
  grep -Eq 'claim canned/svc_answer_ms: NOT MET \(10/10 pairs won' "$tmp/table"

  # Five traced runs per side, alternated. `ivm.maintain_ms` fell 20 % with
  # disjoint ranges: printed. `exec.compile_us`'s medians differ by +14.9 %
  # and its first three runs per side have disjoint ranges, so three runs
  # would have printed it; the parent's fifth run (118) overlaps the
  # change's range, so five do not. `workloads.gen_s` fell 30 % with
  # disjoint ranges, but svc_bench reads it once per process: it is kept in
  # the layers block and never printed.
  : >"$tmp/five.jsonl"
  pair "$tmp/five.jsonl" 1 100 100
  layer_run() { # layer_run <raw> <side> <ivm.maintain_ms> <exec.compile_us> <workloads.gen_s>
    echo "{\"workload\": \"canned\", \"seed\": 1, \"side\": \"$2\", \"trace\": true, \"result\": {\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"ivm.maintain_ms\": {\"value\": $3, \"unit\": \"ms\"}, \"exec.compile_us\": {\"value\": $4, \"unit\": \"us\"}, \"workloads.gen_s\": {\"value\": $5, \"unit\": \"s\"}}}}" >>"$1"
  }
  : >"$tmp/three.jsonl"
  pair "$tmp/three.jsonl" 1 100 100
  i=0
  for run in "parent 20.1 100 0.011" "change 16.0 115 0.0075" "change 16.3 117 0.0078" \
    "parent 19.8 102 0.0107" "parent 20.4 101 0.0113" "change 15.9 116 0.0080" \
    "change 16.1 112 0.0079" "parent 20.0 99 0.0110" "parent 19.9 118 0.0112" \
    "change 16.2 119 0.0076"; do
    # shellcheck disable=SC2086
    layer_run "$tmp/five.jsonl" $run
    # The first six runs hold three per side.
    if [ "$i" -lt 6 ]; then
      # shellcheck disable=SC2086
      layer_run "$tmp/three.jsonl" $run
    fi
    i=$((i + 1))
  done
  summarize "$tmp/three.jsonl" BENCHMARK.json "$tmp/out.json" aaaaaaa bbbbbbb >"$tmp/table"
  cat "$tmp/table"
  grep -Eq 'layer exec.compile_us +101 +116 +\+14\.9%' "$tmp/table"
  summarize "$tmp/five.jsonl" BENCHMARK.json "$tmp/out.json" aaaaaaa bbbbbbb >"$tmp/table"
  cat "$tmp/table"
  grep -Eq 'layer ivm.maintain_ms +20 +16.1 +-19\.5%' "$tmp/table"
  for layer in exec.compile_us workloads.gen_s; do
    if grep -q "layer $layer" "$tmp/table"; then
      echo "self-test: $layer must not be printed as moved" >&2
      exit 1
    fi
  done
  python3 -c 'import json, sys; b = json.load(open(sys.argv[1])); assert b["layer_ranges"]["canned"]["parent"]["exec.compile_us"] == [99, 118] and b["layer_ranges"]["canned"]["change"]["exec.compile_us"] == [112, 119] and b["layers"]["canned"]["parent"]["workloads.gen_s"] == 0.011 and b["layers"]["canned"]["change"]["workloads.gen_s"] == 0.0078' "$tmp/out.json"

  # The change fails 2 of 18 operations, the parent none: a larger failure
  # share fails the summary even though every metric held.
  : >"$tmp/failed.jsonl"
  pair "$tmp/failed.jsonl" 1 100 100 2
  pair "$tmp/failed.jsonl" 2 100 100
  expect_fail "a larger failure share" "$tmp/failed.jsonl" BENCHMARK.json "$tmp/out.json" aaaaaaa bbbbbbb
  grep -Eq 'failed/attempted +0/18 +2/18 +WORSE' "$tmp/table"
  echo "self-test ok"
  exit 0
fi

usage="usage: scripts/bench_pairs.sh <parent-sha> [pairs=10] [first_seed=1] [claim=<workload>/<metric>]"
parent_sha="$(git rev-parse --short "${1:?$usage}")"
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
run_traced() { # run_traced <side> <root> <workload> <seed>
  local line
  line="$(cd "$2" && svc_bench/target/release/svc_bench --workload "$3" --seed "$4" --seconds "$seconds" --trace 1 | tail -n 1)"
  echo "{\"workload\": \"$3\", \"seed\": $4, \"side\": \"$1\", \"trace\": true, \"result\": $line}" >>"$raw"
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
  for j in 0 1 2 3 4; do
    if [ $((j % 2)) -eq 0 ]; then
      run_traced parent "$parent_root" "$workload" "$first_seed"
      run_traced change "$change_root" "$workload" "$first_seed"
    else
      run_traced change "$change_root" "$workload" "$first_seed"
      run_traced parent "$parent_root" "$workload" "$first_seed"
    fi
  done
  echo "$workload traced runs (5 per side, seed $first_seed) done" >&2
done

summarize "$raw" BENCHMARK.json "BENCH_$(date +%Y-%m-%d)_$change_sha.json" "$parent_sha" "$change_sha" "$claim"
