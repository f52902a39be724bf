#!/usr/bin/env bash
# Runs the perf gate: casperbench on a parent commit and on this checkout,
# then tools/bench_gate.py over the two result sets.
#
#   tools/bench_gate.sh [PARENT_REV]      (default HEAD^)
#
# The parent is checked out with `git worktree add` into a temporary
# directory, removed on exit. Seeds 1-3 of every workload in BENCHMARK.json
# run for 10 s each on both trees, alternating which tree runs first, so
# drift on the machine falls on both. Results land in
# bench-results/{parent,change}/<workload>-<seed>.json under the checkout.
# Exits with the gate's status.
set -euo pipefail

root=$(git rev-parse --show-toplevel)
parent_rev=$(git -C "$root" rev-parse --verify "${1:-HEAD^}^{commit}")
tmp=$(mktemp -d)
parent_tree=$tmp/parent
trap 'git -C "$root" worktree remove --force "$parent_tree" || true; rm -rf "$tmp"' EXIT
git -C "$root" worktree add --detach "$parent_tree" "$parent_rev" >&2
# Each tree builds into its own .bench_build, never into a shared one.
unset CARGO_TARGET_DIR

out=$root/bench-results
rm -rf "$out"
mkdir -p "$out/parent" "$out/change"
workloads=$(python3 -c 'import json, sys
print(" ".join(w["name"] for w in json.load(sys.stdin)["workloads"]))' \
  < "$root/BENCHMARK.json")

run() {  # run TREE_DIR RESULT_FILE WORKLOAD SEED
  # A run that fails leaves its file without a result; the gate fails on it.
  (cd "$1" && python3 casperbench/run.py --workload "$3" --seed "$4" \
     --seconds 10 --trace 0 | tail -n 1 > "$2") || true
}

turn=0
for seed in 1 2 3; do
  for workload in $workloads; do
    if (( turn++ % 2 == 0 )); then order="parent change"; else order="change parent"; fi
    for tree in $order; do
      dir=$root
      [[ $tree == parent ]] && dir=$parent_tree
      echo "casperbench: $tree $workload seed $seed" >&2
      run "$dir" "$out/$tree/$workload-$seed.json" "$workload" "$seed"
    done
  done
done

python3 "$root/tools/bench_gate.py" "$out/parent" "$out/change"
