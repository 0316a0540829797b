#!/usr/bin/env bash
# bench_pairs: compares the end-to-end benchmark between a base ref and the
# working tree over alternating same-seed pairs of runs.
#
#   scripts/bench_pairs.sh <base-ref> <pairs> [workload...]
#
# It exports <base-ref> (git archive) and the working tree (tracked and
# untracked files, ignored ones left out) into two fresh directories under
# ${TMPDIR:-/tmp}, and builds and runs each through its own benchmark/run.sh.
# Every workload (default: all four in BENCHMARK.json) runs <pairs> times on
# each copy with seed 1 for 20 s, as BENCHMARK.json's command does; the order
# inside a pair alternates (base first, then change first) so neither copy
# always runs on a warmer box. For each workload and end-to-end metric it
# prints both medians, the change/base ratio, the pairs the change won in the
# metric's better direction, and the interquartile range of the base runs.
# The raw result lines stay in the scratch directory it names at the end.
# Nothing is written into the checkout.
set -euo pipefail

if [[ $# -lt 2 ]] || ! [[ "$2" =~ ^[1-9][0-9]*$ ]]; then
  echo "usage: $0 <base-ref> <pairs> [workload...]" >&2
  exit 2
fi
base_ref=$1
pairs=$2
shift 2

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
seed=1
seconds=20

# The end-to-end metrics and their better direction, in BENCHMARK.json order.
metrics=$(awk '
  /"end_to_end"/ { on = 1 }
  /"per_layer"/  { on = 0 }
  on && /"name"/   { gsub(/[",]/, "", $2); name = $2 }
  on && /"better"/ { gsub(/[",]/, "", $2); print name, $2 }
' "$repo/BENCHMARK.json")
if [[ $# -eq 0 ]]; then
  mapfile -t workloads < <(awk '
    /"workloads"/  { on = 1 }
    /"end_to_end"/ { on = 0 }
    on && /"name"/ { gsub(/[",]/, "", $2); print $2 }
  ' "$repo/BENCHMARK.json")
else
  workloads=("$@")
fi

scratch=$(mktemp -d "${TMPDIR:-/tmp}/bench_pairs.XXXXXX")
mkdir -p "$scratch/base" "$scratch/change" "$scratch/results"
git -C "$repo" archive "$base_ref" | tar -x -C "$scratch/base"
(cd "$repo" && git ls-files -z -co --exclude-standard --deduplicate |
  tar --null --ignore-failed-read -T - -cf - 2>/dev/null) | tar -x -C "$scratch/change"
echo "bench_pairs: base $(git -C "$repo" rev-parse --short "$base_ref"), change = working tree, scratch $scratch"

# One smoke run per copy builds its benchmark and telecast-node, so the timed
# runs below do not start on a cold build cache.
for side in base change; do
  bash "$scratch/$side/benchmark/run.sh" -workload "${workloads[0]}" -smoke >"$scratch/results/$side.build.log" 2>&1 || {
    echo "bench_pairs: $side copy failed to build or run; see $scratch/results/$side.build.log" >&2
    exit 1
  }
done

# run <side> <workload> appends the run's result line to its results file.
run() {
  local out
  out=$(bash "$scratch/$1/benchmark/run.sh" -workload "$2" -seed "$seed" -seconds "$seconds" 2>&1) || true
  local line
  line=$(grep '^{"correct"' <<<"$out" | tail -n 1)
  if [[ -z "$line" ]]; then
    echo "bench_pairs: $1 $2 printed no result line" >&2
    printf '%s\n' "$out" >"$scratch/results/$1.$2.failed.log"
    exit 1
  fi
  [[ "$line" == '{"correct":true'* ]] || echo "bench_pairs: $1 $2 failed an output check" >&2
  printf '%s\n' "$line" >>"$scratch/results/$1.$2.jsonl"
}

for w in "${workloads[@]}"; do
  for ((k = 1; k <= pairs; k++)); do
    if ((k % 2)); then order="base change"; else order="change base"; fi
    for side in $order; do run "$side" "$w"; done
    echo "  $w: pair $k/$pairs done"
  done
done

# values <side> <workload> <metric> prints the metric's value per run, in
# run order.
values() {
  grep -o "\"$3\":{\"value\":[^,}]*" "$scratch/results/$1.$2.jsonl" | sed 's/.*"value"://'
}

# stats reads "base change" value pairs and prints base median, change
# median, ratio, pairs won by the change and the base IQR (quartiles by
# linear interpolation).
stats() {
  awk -v better="$1" '
    function q(a, n, p,   h, lo) {
      h = (n - 1) * p; lo = int(h)
      return lo + 1 < n ? a[lo] + (h - lo) * (a[lo + 1] - a[lo]) : a[lo]
    }
    function isort(a, n,   i, j, t) {
      for (i = 1; i < n; i++)
        for (j = i; j > 0 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
    }
    BEGIN { n = 0 }
    { b[n] = $1 + 0; c[n] = $2 + 0; if (better == "lower" ? c[n] < b[n] : c[n] > b[n]) won++; n++ }
    END {
      isort(b, n); isort(c, n)
      mb = q(b, n, 0.5); mc = q(c, n, 0.5)
      printf "%14.6g %14.6g %8s %5s %12.4g\n", mb, mc, mb != 0 ? sprintf("%.3f", mc / mb) : "-",
        (won + 0) "/" n, q(b, n, 0.75) - q(b, n, 0.25)
    }'
}

for w in "${workloads[@]}"; do
  echo
  echo "$w: $pairs pairs, seed $seed, $seconds s per run"
  printf "%-14s %-7s %14s %14s %8s %5s %12s\n" metric better base_median change_median ratio won base_iqr
  while read -r m better; do
    printf "%-14s %-7s " "$m" "$better"
    paste -d' ' <(values base "$w" "$m") <(values change "$w" "$m") | stats "$better"
  done <<<"$metrics"
done
echo
echo "bench_pairs: raw result lines in $scratch/results"
