#!/usr/bin/env python3
"""Perf gate: compares casperbench results of a change with its parent's.

Usage:

    python3 tools/bench_gate.py PARENT_DIR CHANGE_DIR

Each directory holds one file per workload and seed, <workload>-<seed>.json,
whose last line is the result object that

    python3 casperbench/run.py --workload W --seed S --seconds 10 --trace 0

prints last. The workloads, the end-to-end metrics, their `better`
direction and their `bound` come from BENCHMARK.json at the root of this
checkout. tools/bench_gate.sh runs the benchmark on both trees and then
this gate.

The gate fails (exit 1) when, on any workload:
  * the median over seeds of an end-to-end metric is worse than the
    parent's by more than the metric's bound (a relative change);
  * a result has "correct": false;
  * the change's failed/attempted share is higher than the parent's;
  * a workload, a seed file or a metric is missing or unreadable, or the
    two trees were run on different seeds.
It never passes on nothing: every workload needs at least one seed run on
both trees, and every result must have attempted > 0.
"""

import json
import math
import re
import statistics
import sys
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
RESULT_NAME = re.compile(r"^(?P<workload>.+)-(?P<seed>\d+)\.json$")


class GateError(Exception):
    """An input the gate cannot judge; the gate fails on it."""


def read_result(path: Path) -> dict:
    """The last non-empty line of `path`, checked to be a result object."""
    try:
        lines = [l for l in path.read_text().splitlines() if l.strip()]
        result = json.loads(lines[-1]) if lines else None
    except (OSError, ValueError) as e:
        raise GateError(f"{path}: unreadable ({e})")
    if not isinstance(result, dict) or not isinstance(
            result.get("metrics"), dict):
        raise GateError(f"{path}: the last line is not a casperbench result")
    for key in ("attempted", "failed"):
        if not isinstance(result.get(key), int):
            raise GateError(f"{path}: no integer {key!r}")
    if result["attempted"] <= 0:
        raise GateError(f"{path}: attempted no operations")
    return result


def seeds_of(directory: Path, workload: str) -> set:
    seeds = set()
    for path in directory.glob(workload + "-*.json"):
        match = RESULT_NAME.match(path.name)
        if match and match["workload"] == workload:
            seeds.add(int(match["seed"]))
    return seeds


def metric_value(result: dict, name: str) -> float:
    metric = result["metrics"].get(name)
    value = metric.get("value") if isinstance(metric, dict) else None
    if isinstance(value, bool) or not isinstance(value, (int, float)) or \
            not math.isfinite(value):
        raise GateError(f"metric {name} is missing")
    return float(value)


def worse_by(parent: float, change: float, better: str) -> float:
    """How much worse `change` is than `parent`, relative to `parent`
    (negative when it is better). From a parent of 0, any worsening is
    infinite."""
    delta = change - parent if better == "lower" else parent - change
    if parent == 0:
        return math.inf if delta > 0 else 0.0
    return delta / abs(parent)


def gate(parent_dir: Path, change_dir: Path, spec: dict) -> list:
    """Returns the list of failures; empty means the change passes."""
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    if not workloads or not metrics:
        return ["BENCHMARK.json names no workloads or no end-to-end metrics"]
    trees = {"parent": parent_dir, "change": change_dir}
    failures = []
    for workload in workloads:
        seeds = {tree: seeds_of(d, workload) for tree, d in trees.items()}
        if not seeds["parent"] | seeds["change"]:
            failures.append(f"{workload}: no results")
            continue
        for tree, other in (("parent", "change"), ("change", "parent")):
            for seed in sorted(seeds[other] - seeds[tree]):
                failures.append(f"{workload}: seed {seed} missing from "
                                f"the {tree} results")
        common = sorted(seeds["parent"] & seeds["change"])
        if not common:
            continue
        try:
            runs = {tree: {seed: read_result(d / f"{workload}-{seed}.json")
                           for seed in common}
                    for tree, d in trees.items()}
        except GateError as e:
            failures.append(f"{workload}: {e}")
            continue

        for tree, by_seed in runs.items():
            for seed, result in by_seed.items():
                if result.get("correct") is not True:
                    failures.append(f"{workload}: the {tree}'s seed {seed} "
                                    f"run is not correct")
        share = {tree: sum(r["failed"] for r in by_seed.values()) /
                 sum(r["attempted"] for r in by_seed.values())
                 for tree, by_seed in runs.items()}
        if share["change"] > share["parent"]:
            failures.append(f"{workload}: failed share rose from "
                            f"{share['parent']:.4g} to {share['change']:.4g}")

        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            median = {}
            for tree, by_seed in runs.items():
                try:
                    median[tree] = statistics.median(
                        metric_value(r, name) for r in by_seed.values())
                except GateError as e:
                    failures.append(f"{workload}: {tree}: {e}")
            if len(median) < 2:
                continue
            worse = worse_by(median["parent"], median["change"],
                             metric["better"])
            verdict = "FAIL" if worse > bound else "ok"
            print(f"{workload:<12} {name:<21} parent {median['parent']:>12.6g}"
                  f"  change {median['change']:>12.6g}  worse {worse:+7.1%}"
                  f"  bound {bound:.0%}  {verdict}")
            if verdict == "FAIL":
                failures.append(
                    f"{workload}: {name} is {worse:.1%} worse than the "
                    f"parent ({median['parent']:.6g} -> "
                    f"{median['change']:.6g}; bound {bound:.0%})")
    return failures


def main(argv: list) -> int:
    if len(argv) != 2:
        print("usage: bench_gate.py PARENT_DIR CHANGE_DIR", file=sys.stderr)
        return 2
    parent_dir, change_dir = (Path(a) for a in argv)
    for directory in (parent_dir, change_dir):
        if not directory.is_dir():
            print(f"bench_gate: {directory} is not a directory",
                  file=sys.stderr)
            return 2
    failures = gate(parent_dir, change_dir,
                    json.loads(SPEC_PATH.read_text()))
    for failure in failures:
        print("FAIL " + failure)
    print("bench_gate: " + ("FAIL" if failures else "pass"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
