#!/usr/bin/env python3
"""Perf-regression gate over throughput_scaling output.

Compares a fresh BENCH_throughput.json against the checked-in baseline
(bench/BENCH_baseline.json, recorded on the same small fixed workload:
CASPER_BENCH_SCALE=0.05). Rows are matched by configuration (mode,
threads, batch_size, cache); the gate fails when the geometric mean of
the per-row qps ratios (current / baseline) drops by more than
--max-drop (default 25%).

The geometric mean keeps one noisy row from tripping the gate while a
uniform slowdown — e.g. an accidental O(n^2) in the query path — still
fails decisively: a synthetic 2x slowdown yields a ratio of ~0.5
everywhere and a geomean far below the 0.75 floor.

Beyond the geomean, the gate enforces a parallel-speedup floor: the
best `batch_engine` row with threads >= 2 and the cache off must beat
the sequential baseline's qps by at least --min-parallel-speedup
(default 1.10x) at every batch size. The rule is hardware-aware — it
only fires when BOTH files report `hardware_threads >= 2`, because on
a single-core runner no dispatcher can beat the sequential loop and
the rule would only measure scheduler overhead.

`--compare` switches to a report-only mode: it prints the per-config
before/after table (qps and p99 side by side) and always exits 0 after
input validation — for PR descriptions and perf triage, not gating.

With --scenarios-baseline / --scenarios-current (lists of
BENCH_scenario_*.json files from `casper_cli scenario`), --compare
additionally prints a before/after table per scenario — qps, p95
latency, total oracle violations, and pass/fail — matched by scenario
name. Like the storage table it is informational only: scenario runs
are seeded but their latency is machine-dependent, so the table never
gates; bad or missing files print a warning and are skipped.

With --baseline-metrics / --current-metrics (metrics-export JSON files,
the `metrics json` / ExportJson shape), --compare additionally prints a
before/after table of every `casper_storage_*` sample, matched by
(name, labels). A sample present on only one side renders "-"; a
missing or malformed metrics file prints a warning and skips the table
without affecting the exit status — the storage counters are triage
context, never a gate.

Usage:
  check_perf_regression.py --current BENCH_throughput.json \
      --baseline bench/BENCH_baseline.json [--max-drop 0.25] \
      [--min-parallel-speedup 1.10] [--compare] \
      [--baseline-metrics BENCH_metrics.json] \
      [--current-metrics BENCH_metrics.json]

Exit status: 0 = within budget, 1 = regression, 2 = unusable input.
Stdlib only; no third-party dependencies.
"""

import argparse
import json
import math
import sys


KEY_FIELDS = ("mode", "threads", "batch_size", "cache")


def row_key(row):
    return tuple(row[f] for f in KEY_FIELDS)


def load_rows(path):
    """Load and validate one bench JSON; exits 2 on anything malformed.

    A degenerate baseline (truncated file, rows missing their config
    keys or qps, zero/negative qps from a benchmark that crashed
    mid-run) must fail the gate *legibly*, not with a traceback — CI
    surfaces only the last few lines.
    """
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, ValueError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    if not isinstance(data, dict) or not isinstance(data.get("rows"), list):
        print(f"error: {path}: expected a JSON object with a 'rows' list",
              file=sys.stderr)
        sys.exit(2)
    rows = {}
    for i, r in enumerate(data["rows"]):
        if not isinstance(r, dict):
            print(f"error: {path}: row {i} is not an object", file=sys.stderr)
            sys.exit(2)
        missing = [f for f in KEY_FIELDS + ("qps",) if f not in r]
        if missing:
            print(f"error: {path}: row {i} missing {', '.join(missing)}",
                  file=sys.stderr)
            sys.exit(2)
        if not isinstance(r["qps"], (int, float)) or isinstance(r["qps"], bool):
            print(f"error: {path}: row {i} qps is not a number: {r['qps']!r}",
                  file=sys.stderr)
            sys.exit(2)
        key = row_key(r)
        if key in rows:
            print(f"error: {path}: duplicate configuration {key}",
                  file=sys.stderr)
            sys.exit(2)
        rows[key] = r
    if not rows:
        print(f"error: no rows in {path}", file=sys.stderr)
        sys.exit(2)
    return data, rows


def parallel_speedup_failures(meta_base, meta_cur, rows, min_speedup):
    """The strengthened rule: best (batch_engine, threads>=2, cache=off)
    row must beat the sequential row by `min_speedup` per batch size.

    Returns a list of human-readable failure strings; empty when the
    rule passes or is skipped. Skipped (with a note on stdout) when
    either file was recorded on a single-core machine, where the rule
    would only measure dispatch overhead.
    """
    base_hw = meta_base.get("hardware_threads")
    cur_hw = meta_cur.get("hardware_threads")
    if not (isinstance(base_hw, int) and base_hw >= 2 and
            isinstance(cur_hw, int) and cur_hw >= 2):
        print(f"note: parallel-speedup rule skipped "
              f"(hardware_threads: baseline={base_hw} current={cur_hw}; "
              "needs >= 2 in both)")
        return []
    sequential = {}
    best_parallel = {}
    for (mode, threads, batch, cache), r in rows.items():
        if mode == "sequential":
            sequential[batch] = r["qps"]
        elif mode == "batch_engine" and threads >= 2 and not cache:
            best_parallel[batch] = max(best_parallel.get(batch, 0.0),
                                       r["qps"])
    failures = []
    for batch, seq_qps in sorted(sequential.items()):
        par_qps = best_parallel.get(batch)
        if par_qps is None:
            failures.append(f"batch={batch}: no (batch_engine, threads>=2, "
                            "cache=false) row to compare against sequential")
            continue
        speedup = par_qps / seq_qps
        verdict = "ok" if speedup >= min_speedup else "FAIL"
        print(f"parallel speedup batch={batch}: {par_qps:.1f} / "
              f"{seq_qps:.1f} = {speedup:.3f}x "
              f"(floor {min_speedup:.2f}x) {verdict}")
        if speedup < min_speedup:
            failures.append(
                f"batch={batch}: parallel speedup {speedup:.3f}x below "
                f"{min_speedup:.2f}x floor")
    return failures


STORAGE_METRIC_PREFIX = "casper_storage_"


def load_storage_samples(path):
    """Extract {(name, sorted-labels): value} for casper_storage_*
    series from a metrics-export JSON file (the ExportJson / `metrics
    json` shape). Returns None — with a warning — on anything missing
    or malformed: the storage table is triage context, not a gate, so
    a bad file must never break the run.
    """
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, ValueError) as e:
        print(f"warning: cannot read metrics file {path}: {e}",
              file=sys.stderr)
        return None
    if not isinstance(data, dict) or not isinstance(data.get("metrics"),
                                                    list):
        print(f"warning: {path}: expected a JSON object with a 'metrics' "
              "list; skipping storage comparison", file=sys.stderr)
        return None
    samples = {}
    for metric in data["metrics"]:
        if not isinstance(metric, dict):
            continue
        name = metric.get("name")
        if not isinstance(name, str) or \
                not name.startswith(STORAGE_METRIC_PREFIX):
            continue
        for sample in metric.get("samples") or []:
            if not isinstance(sample, dict):
                continue
            value = sample.get("value")
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                continue  # Histogram samples carry no scalar 'value'.
            labels = sample.get("labels")
            label_key = tuple(sorted(labels.items())) \
                if isinstance(labels, dict) else ()
            samples[(name, label_key)] = value
    return samples


def fmt_metric_value(value):
    if value is None:
        return "-"
    if float(value).is_integer():
        return str(int(value))
    return f"{value:.3f}"


def print_storage_comparison(baseline_path, current_path):
    """The --compare storage table; purely informational."""
    base = load_storage_samples(baseline_path) if baseline_path else {}
    cur = load_storage_samples(current_path) if current_path else {}
    if base is None or cur is None:
        return
    keys = sorted(set(base) | set(cur))
    if not keys:
        print("\nno casper_storage_* samples in either metrics file")
        return
    print(f"\n{'storage metric':<52} {'baseline':>12} {'current':>12}")
    for name, label_key in keys:
        label = name
        if label_key:
            rendered = ",".join(f"{k}={v}" for k, v in label_key)
            label = f"{name}{{{rendered}}}"
        print(f"{label:<52} "
              f"{fmt_metric_value(base.get((name, label_key))):>12} "
              f"{fmt_metric_value(cur.get((name, label_key))):>12}")


def load_scenario_reports(paths):
    """Load BENCH_scenario_*.json reports (the `casper_cli scenario`
    shape) into {scenario_name: report}. Returns None — with a warning —
    when nothing usable loads; individual bad files are skipped with a
    warning. The scenario table is triage context, never a gate.
    """
    if not paths:
        return None
    reports = {}
    for path in paths:
        try:
            with open(path) as f:
                data = json.load(f)
        except (OSError, ValueError) as e:
            print(f"warning: cannot read scenario file {path}: {e}",
                  file=sys.stderr)
            continue
        name = data.get("scenario") if isinstance(data, dict) else None
        if not isinstance(name, str):
            print(f"warning: {path}: no 'scenario' key; skipping",
                  file=sys.stderr)
            continue
        if name in reports:
            print(f"warning: duplicate scenario report for {name!r} "
                  f"({path}); keeping the first", file=sys.stderr)
            continue
        reports[name] = data
    return reports or None


def scenario_cell(report, *keys):
    """Dig `keys` out of a scenario report; '-' when absent/not a number."""
    node = report
    for key in keys:
        node = node.get(key) if isinstance(node, dict) else None
    if isinstance(node, bool):
        return "yes" if node else "NO"
    if isinstance(node, (int, float)):
        return f"{node:.1f}" if isinstance(node, float) else str(node)
    return "-"


def scenario_violations(report):
    oracles = report.get("oracles")
    if not isinstance(oracles, dict):
        return "-"
    total = 0
    for key in ("nn_violations", "region_violations",
                "continuous_violations"):
        value = oracles.get(key)
        if not isinstance(value, int) or isinstance(value, bool):
            return "-"
        total += value
    return str(total)


def print_scenario_comparison(baseline_paths, current_paths):
    """The --compare scenario table; purely informational (scenario
    runs are seeded but latency is machine-dependent, so this never
    gates — it feeds the PR's before/after section).
    """
    base = load_scenario_reports(baseline_paths)
    cur = load_scenario_reports(current_paths)
    if base is None and cur is None:
        return
    base = base or {}
    cur = cur or {}
    names = sorted(set(base) | set(cur))
    print(f"\n{'scenario':<20} {'qps b/c':>19} {'p95us b/c':>19} "
          f"{'viol b/c':>11} {'pass b/c':>9}")
    for name in names:
        b = base.get(name, {})
        c = cur.get(name, {})
        print(f"{name:<20} "
              f"{scenario_cell(b, 'qps'):>9}/{scenario_cell(c, 'qps'):>9} "
              f"{scenario_cell(b, 'latency_micros', 'p95'):>9}/"
              f"{scenario_cell(c, 'latency_micros', 'p95'):>9} "
              f"{scenario_violations(b):>5}/{scenario_violations(c):>5} "
              f"{scenario_cell(b, 'passed'):>4}/{scenario_cell(c, 'passed'):>4}")
    print("scenario table: report only, never gates")


def fmt_p99(row):
    p99 = row.get("p99_us")
    if isinstance(p99, (int, float)) and not isinstance(p99, bool):
        return f"{p99:.1f}"
    return "-"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--current", required=True)
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--max-drop", type=float, default=0.25,
                        help="maximum tolerated fractional qps drop")
    parser.add_argument("--min-parallel-speedup", type=float, default=1.10,
                        help="required qps ratio of the best parallel "
                             "(threads>=2, cache off) row over sequential; "
                             "enforced only when both files report "
                             "hardware_threads >= 2")
    parser.add_argument("--compare", action="store_true",
                        help="report-only: print the before/after qps and "
                             "p99 table, never fail")
    parser.add_argument("--baseline-metrics",
                        help="metrics-export JSON for the baseline run; "
                             "adds a casper_storage_* table to --compare")
    parser.add_argument("--current-metrics",
                        help="metrics-export JSON for the current run; "
                             "adds a casper_storage_* table to --compare")
    parser.add_argument("--scenarios-baseline", nargs="+", default=[],
                        help="BENCH_scenario_*.json files from the baseline "
                             "run; adds a non-gating scenario table to "
                             "--compare")
    parser.add_argument("--scenarios-current", nargs="+", default=[],
                        help="BENCH_scenario_*.json files from the current "
                             "run; adds a non-gating scenario table to "
                             "--compare")
    args = parser.parse_args()

    base_meta, base = load_rows(args.baseline)
    cur_meta, cur = load_rows(args.current)

    for meta in ("targets", "users"):
        if base_meta.get(meta) != cur_meta.get(meta):
            print(f"error: workload mismatch: {meta} "
                  f"baseline={base_meta.get(meta)} "
                  f"current={cur_meta.get(meta)} "
                  "(regenerate the baseline at the same CASPER_BENCH_SCALE)",
                  file=sys.stderr)
            sys.exit(2)

    common = sorted(set(base) & set(cur))
    if not common:
        print("error: no comparable rows between baseline and current "
              f"(baseline configs: {sorted(base)[:4]}..., "
              f"current configs: {sorted(cur)[:4]}...)",
              file=sys.stderr)
        sys.exit(2)
    only_base = sorted(set(base) - set(cur))
    only_cur = sorted(set(cur) - set(base))
    for key in only_base:
        print(f"warning: baseline-only configuration skipped: {key}",
              file=sys.stderr)
    for key in only_cur:
        print(f"warning: current-only configuration skipped: {key}",
              file=sys.stderr)

    log_sum = 0.0
    worst = (None, float("inf"))
    print(f"{'configuration':<44} {'base qps':>12} {'cur qps':>12} "
          f"{'ratio':>7} {'base p99':>10} {'cur p99':>10}")
    for key in common:
        base_qps = base[key]["qps"]
        cur_qps = cur[key]["qps"]
        if base_qps <= 0.0 or cur_qps <= 0.0:
            print(f"error: non-positive qps for {key}", file=sys.stderr)
            sys.exit(2)
        ratio = cur_qps / base_qps
        log_sum += math.log(ratio)
        if ratio < worst[1]:
            worst = (key, ratio)
        mode, threads, batch, cache = key
        label = f"{mode} threads={threads} batch={batch} cache={cache}"
        print(f"{label:<44} {base_qps:>12.1f} {cur_qps:>12.1f} "
              f"{ratio:>7.3f} {fmt_p99(base[key]):>10} "
              f"{fmt_p99(cur[key]):>10}")

    geomean = math.exp(log_sum / len(common))
    floor = 1.0 - args.max_drop
    print(f"\nrows={len(common)} geomean_ratio={geomean:.3f} "
          f"floor={floor:.3f} worst={worst[0]} ({worst[1]:.3f})")

    if args.compare:
        if args.baseline_metrics or args.current_metrics:
            print_storage_comparison(args.baseline_metrics,
                                     args.current_metrics)
        if args.scenarios_baseline or args.scenarios_current:
            print_scenario_comparison(args.scenarios_baseline,
                                      args.scenarios_current)
        print("compare mode: report only, no gating")
        return 0

    failed = False
    if geomean < floor:
        print(f"FAIL: throughput dropped "
              f"{(1.0 - geomean) * 100.0:.1f}% (> {args.max_drop * 100:.0f}% "
              "budget)", file=sys.stderr)
        failed = True

    for failure in parallel_speedup_failures(base_meta, cur_meta, cur,
                                             args.min_parallel_speedup):
        print(f"FAIL: {failure}", file=sys.stderr)
        failed = True

    if failed:
        return 1
    print("OK: throughput within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
