#!/usr/bin/env bash
# Run every named city-scale scenario against the facade and socket
# stacks with invariant oracles on, writing one
# BENCH_scenario_<name>[_<stack>].json per run into the current
# directory. Any oracle violation fails the script (casper_cli exits 1).
#
# Usage: tools/run_scenarios.sh [path/to/casper_cli]
#
# Honors CASPER_BENCH_SCALE (the CLI scales its default users / targets
# / queries-per-tick; CI uses 0.05). Set CASPER_SCENARIO_TICKS to
# shorten runs further.
set -euo pipefail

CLI=${1:-./build/tools/casper_cli}
TICKS=${CASPER_SCENARIO_TICKS:-}

if [[ ! -x "$CLI" ]]; then
  echo "error: casper_cli not found at $CLI (build it first, or pass the path)" >&2
  exit 2
fi

tick_args=()
if [[ -n "$TICKS" ]]; then
  tick_args+=(--ticks="$TICKS")
fi

scenarios=$("$CLI" scenario list | awk '{print $1}')
status=0
for name in $scenarios; do
  for stack in facade socket; do
    out="BENCH_scenario_${name}"
    stack_args=()
    case "$stack" in
      socket) stack_args+=(--socket); out+="_socket" ;;
    esac
    echo "=== scenario $name on $stack ==="
    if ! "$CLI" scenario "$name" "${stack_args[@]}" "${tick_args[@]}" \
        --out="${out}.json"; then
      echo "FAILED: $name on $stack" >&2
      status=1
    fi
  done
done
exit $status
