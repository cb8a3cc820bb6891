#!/usr/bin/env bash
# Interleaved A/B of two commits on one benchmark workload.
#
#   tools/ab.sh OLD_REF NEW_REF WORKLOAD PAIRS [SEED]
#
# Checks each ref out into its own git worktree (.ab/old and .ab/new under
# the repository root), builds both benchmark binaries up front, then runs
#
#   python3 <worktree>/perfbench/run.py --workload WORKLOAD --seed SEED --seconds 20
#
# PAIRS times on each side, switching which side runs first on every pair.
# SEED defaults to 1; pass a seed not used while the change was written to
# confirm a claim. Each run's result line is kept in .ab/<workload>-seed<S>.jsonl.
#
# The summary gives, for every end-to-end metric in the new side's
# BENCHMARK.json: each side's median and quartiles, the median ratio
# new/old, and the pairs the new side won (better by the metric's declared
# direction; ties count for neither side). A gain counts only when at least
# ten pairs ran, the new side won at least nine tenths of them and the
# medians differ by more than the old side's interquartile distance ("gain"
# in the last column).
# It also sums each side's failed operations and flags a run that was not
# correct.
set -euo pipefail

if [ $# -lt 4 ] || [ $# -gt 5 ]; then
  sed -n '2,5p' "$0" >&2
  exit 2
fi
old_ref=$1
new_ref=$2
workload=$3
pairs=$4
seed=${5:-1}
seconds=20

root=$(git rev-parse --show-toplevel)
ab_dir="$root/.ab"
mkdir -p "$ab_dir"

checkout() {  # checkout NAME REF: (re)point worktree .ab/NAME at REF
  local dir="$ab_dir/$1" sha
  sha=$(git -C "$root" rev-parse --verify "$2^{commit}")
  if [ -e "$dir/.git" ]; then
    git -C "$dir" checkout --quiet --detach "$sha"
  else
    git -C "$root" worktree add --quiet --detach "$dir" "$sha"
  fi
  # Build outside the timed runs (run.py's timeout would count a cold build).
  cmake -S "$dir/perfbench" -B "$dir/.bench_build/perfbench" \
    -DCMAKE_BUILD_TYPE=Release > /dev/null
  cmake --build "$dir/.bench_build/perfbench" --target atm_perfbench -j 4 > /dev/null
  echo "ab: $1 = $2 ($sha)" >&2
}
checkout old "$old_ref"
checkout new "$new_ref"

results="$ab_dir/$workload-seed$seed.jsonl"
: > "$results"
run_side() {  # run_side SIDE PAIR
  local line
  line=$(cd "$ab_dir/$1" && python3 perfbench/run.py --workload "$workload" \
    --seed "$seed" --seconds "$seconds" 2> /dev/null | tail -n 1) || {
    echo "ab: $1 run of pair $2 failed" >&2
    exit 1
  }
  printf '{"side": "%s", "pair": %d, "result": %s}\n' "$1" "$2" "$line" >> "$results"
  echo "ab: pair $2 $1 done" >&2
}
for ((i = 0; i < pairs; i++)); do
  if ((i % 2 == 0)); then
    run_side old "$i"
    run_side new "$i"
  else
    run_side new "$i"
    run_side old "$i"
  fi
done

python3 - "$results" "$ab_dir/new/BENCHMARK.json" << 'EOF'
import json
import statistics
import sys

runs = [json.loads(line) for line in open(sys.argv[1])]
declared = json.load(open(sys.argv[2]))["end_to_end"]
side = {"old": {}, "new": {}}
for r in runs:
    side[r["side"]][r["pair"]] = r["result"]
pairs = sorted(set(side["old"]) & set(side["new"]))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


print(f"{len(pairs)} pairs")
print(f"{'metric':<24} {'old median [q1, q3]':>34} {'new median [q1, q3]':>34}"
      f" {'new/old':>8} {'wins':>6}")
for m in declared:
    name, higher = m["name"], m["better"] == "higher"
    old = [side["old"][p]["metrics"][name]["value"] for p in pairs]
    new = [side["new"][p]["metrics"][name]["value"] for p in pairs]
    (oq1, omed, oq3), (nq1, nmed, nq3) = quartiles(old), quartiles(new)
    wins = sum((n > o) if higher else (n < o) for o, n in zip(old, new))
    gain = (len(pairs) >= 10 and wins * 10 >= len(pairs) * 9 and
            ((nmed - omed) if higher else (omed - nmed)) > (oq3 - oq1))
    ratio = nmed / omed if omed else float("nan")
    old_col = f"{omed:.5g} [{oq1:.5g}, {oq3:.5g}]"
    new_col = f"{nmed:.5g} [{nq1:.5g}, {nq3:.5g}]"
    print(f"{name:<24} {old_col:>34} {new_col:>34} {ratio:>8.3f} "
          f"{wins:>3}/{len(pairs)}{'  gain' if gain else ''}")
for s in ("old", "new"):
    res = [side[s][p] for p in pairs]
    failed = sum(r["failed"] for r in res)
    attempted = sum(r["attempted"] for r in res)
    incorrect = sum(not r["correct"] for r in res)
    print(f"{s}: failed {failed} of {attempted} operations, {incorrect} incorrect runs")
EOF
