#!/usr/bin/env python3
"""Unit tests for check_perf_regression.py (stdlib only).

Runs the gate as a subprocess against synthetic bench JSON and asserts
on the (exit status, output) contract CI depends on:
  0 = within budget, 1 = regression, 2 = unusable input.
Degenerate inputs — truncated JSON, rows missing their config keys or
qps, zero qps, mismatched bench configurations — must exit 2 with a
one-line diagnostic, never a traceback.

Run directly:  python3 tools/test_check_perf_regression.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

GATE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "check_perf_regression.py")


def bench(rows, targets=1000, users=100, hardware_threads=None):
    data = {"targets": targets, "users": users, "rows": rows}
    if hardware_threads is not None:
        data["hardware_threads"] = hardware_threads
    return data


def row(mode="batch", threads=4, batch_size=64, cache=True, qps=1000.0,
        p99_us=None):
    r = {"mode": mode, "threads": threads, "batch_size": batch_size,
         "cache": cache, "qps": qps}
    if p99_us is not None:
        r["p99_us"] = p99_us
    return r


def speedup_bench(seq_qps, par_qps, hardware_threads=4):
    """A minimal bench with one sequential and one parallel row."""
    return bench(
        [row(mode="sequential", threads=0, cache=False, qps=seq_qps),
         row(mode="batch_engine", threads=2, cache=False, qps=par_qps)],
        hardware_threads=hardware_threads)


class GateTest(unittest.TestCase):
    def run_gate(self, baseline, current, extra_args=()):
        """Write both payloads to temp files and run the gate."""
        with tempfile.TemporaryDirectory() as tmp:
            base_path = os.path.join(tmp, "baseline.json")
            cur_path = os.path.join(tmp, "current.json")
            for path, payload in ((base_path, baseline), (cur_path, current)):
                with open(path, "w") as f:
                    if isinstance(payload, str):
                        f.write(payload)
                    else:
                        json.dump(payload, f)
            return subprocess.run(
                [sys.executable, GATE, "--baseline", base_path,
                 "--current", cur_path, *extra_args],
                capture_output=True, text=True)

    def assert_clean_exit(self, proc, code):
        self.assertEqual(proc.returncode, code,
                         f"stdout: {proc.stdout}\nstderr: {proc.stderr}")
        self.assertNotIn("Traceback", proc.stderr)

    # --- Healthy paths ---------------------------------------------------

    def test_identical_benches_pass(self):
        b = bench([row(threads=t) for t in (1, 2, 4)])
        proc = self.run_gate(b, b)
        self.assert_clean_exit(proc, 0)
        self.assertIn("OK: throughput within budget", proc.stdout)

    def test_uniform_slowdown_fails(self):
        base = bench([row(threads=t, qps=1000.0) for t in (1, 2, 4)])
        cur = bench([row(threads=t, qps=500.0) for t in (1, 2, 4)])
        proc = self.run_gate(base, cur)
        self.assert_clean_exit(proc, 1)
        self.assertIn("FAIL", proc.stderr)

    def test_one_noisy_row_does_not_trip_the_geomean(self):
        base = bench([row(threads=t, qps=1000.0) for t in (1, 2, 4, 8)])
        cur = bench([row(threads=1, qps=700.0)] +
                    [row(threads=t, qps=1000.0) for t in (2, 4, 8)])
        proc = self.run_gate(base, cur)
        self.assert_clean_exit(proc, 0)

    def test_max_drop_is_respected(self):
        base = bench([row(qps=1000.0)])
        cur = bench([row(qps=900.0)])
        self.assert_clean_exit(self.run_gate(base, cur), 0)
        self.assert_clean_exit(
            self.run_gate(base, cur, extra_args=("--max-drop", "0.05")), 1)

    # --- Parallel-speedup floor ------------------------------------------

    def test_parallel_speedup_met_passes(self):
        b = speedup_bench(seq_qps=1000.0, par_qps=1200.0)
        proc = self.run_gate(b, b)
        self.assert_clean_exit(proc, 0)
        self.assertIn("parallel speedup", proc.stdout)
        self.assertIn("ok", proc.stdout)

    def test_parallel_speedup_below_floor_fails(self):
        b = speedup_bench(seq_qps=1000.0, par_qps=1050.0)  # 1.05x < 1.10x
        proc = self.run_gate(b, b)
        self.assert_clean_exit(proc, 1)
        self.assertIn("parallel speedup", proc.stderr)
        self.assertIn("below", proc.stderr)

    def test_parallel_speedup_floor_is_configurable(self):
        b = speedup_bench(seq_qps=1000.0, par_qps=1050.0)
        proc = self.run_gate(b, b,
                             extra_args=("--min-parallel-speedup", "1.0"))
        self.assert_clean_exit(proc, 0)

    def test_speedup_rule_skipped_on_single_core(self):
        b = speedup_bench(seq_qps=1000.0, par_qps=500.0, hardware_threads=1)
        proc = self.run_gate(b, b)
        self.assert_clean_exit(proc, 0)
        self.assertIn("parallel-speedup rule skipped", proc.stdout)

    def test_speedup_rule_skipped_without_hardware_threads(self):
        b = speedup_bench(seq_qps=1000.0, par_qps=500.0,
                          hardware_threads=None)
        proc = self.run_gate(b, b)
        self.assert_clean_exit(proc, 0)
        self.assertIn("parallel-speedup rule skipped", proc.stdout)

    def test_missing_parallel_row_fails_when_rule_active(self):
        b = bench([row(mode="sequential", threads=0, cache=False)],
                  hardware_threads=4)
        proc = self.run_gate(b, b)
        self.assert_clean_exit(proc, 1)
        self.assertIn("no (batch_engine, threads>=2, cache=false) row",
                      proc.stderr)

    # --- Compare mode ----------------------------------------------------

    def test_compare_mode_never_fails(self):
        base = speedup_bench(seq_qps=1000.0, par_qps=500.0)
        cur = bench(
            [row(mode="sequential", threads=0, cache=False, qps=100.0,
                 p99_us=950.5),
             row(mode="batch_engine", threads=2, cache=False, qps=50.0,
                 p99_us=120.0)],
            hardware_threads=4)
        proc = self.run_gate(base, cur, extra_args=("--compare",))
        self.assert_clean_exit(proc, 0)
        self.assertIn("compare mode: report only", proc.stdout)

    def test_compare_mode_prints_p99_columns(self):
        b = bench([row(p99_us=123.4)])
        proc = self.run_gate(b, b, extra_args=("--compare",))
        self.assert_clean_exit(proc, 0)
        self.assertIn("base p99", proc.stdout)
        self.assertIn("123.4", proc.stdout)

    def test_missing_p99_renders_as_dash(self):
        b = bench([row()])  # no p99_us field
        proc = self.run_gate(b, b, extra_args=("--compare",))
        self.assert_clean_exit(proc, 0)
        self.assertIn("-", proc.stdout)

    def test_compare_mode_still_validates_input(self):
        proc = self.run_gate('{"rows": [', bench([row()]),
                             extra_args=("--compare",))
        self.assert_clean_exit(proc, 2)

    # --- Degenerate inputs ----------------------------------------------

    def test_missing_file_exits_2(self):
        with tempfile.TemporaryDirectory() as tmp:
            proc = subprocess.run(
                [sys.executable, GATE,
                 "--baseline", os.path.join(tmp, "nope.json"),
                 "--current", os.path.join(tmp, "nope.json")],
                capture_output=True, text=True)
        self.assert_clean_exit(proc, 2)
        self.assertIn("cannot read", proc.stderr)

    def test_truncated_json_exits_2(self):
        proc = self.run_gate('{"rows": [', bench([row()]))
        self.assert_clean_exit(proc, 2)
        self.assertIn("cannot read", proc.stderr)

    def test_non_object_payload_exits_2(self):
        proc = self.run_gate([1, 2, 3], bench([row()]))
        self.assert_clean_exit(proc, 2)
        self.assertIn("expected a JSON object", proc.stderr)

    def test_empty_rows_exits_2(self):
        proc = self.run_gate(bench([]), bench([row()]))
        self.assert_clean_exit(proc, 2)
        self.assertIn("no rows", proc.stderr)

    def test_row_missing_qps_exits_2(self):
        bad = row()
        del bad["qps"]
        proc = self.run_gate(bench([bad]), bench([row()]))
        self.assert_clean_exit(proc, 2)
        self.assertIn("missing qps", proc.stderr)

    def test_row_missing_config_key_exits_2(self):
        bad = row()
        del bad["threads"]
        proc = self.run_gate(bench([bad]), bench([row()]))
        self.assert_clean_exit(proc, 2)
        self.assertIn("missing threads", proc.stderr)

    def test_non_numeric_qps_exits_2(self):
        proc = self.run_gate(bench([row(qps="fast")]), bench([row()]))
        self.assert_clean_exit(proc, 2)
        self.assertIn("qps is not a number", proc.stderr)

    def test_zero_qps_exits_2(self):
        proc = self.run_gate(bench([row(qps=0.0)]), bench([row()]))
        self.assert_clean_exit(proc, 2)
        self.assertIn("non-positive qps", proc.stderr)

    def test_duplicate_configuration_exits_2(self):
        proc = self.run_gate(bench([row(), row(qps=2000.0)]),
                             bench([row()]))
        self.assert_clean_exit(proc, 2)
        self.assertIn("duplicate configuration", proc.stderr)

    def test_disjoint_configurations_exit_2(self):
        base = bench([row(mode="batch")])
        cur = bench([row(mode="sequential")])
        proc = self.run_gate(base, cur)
        self.assert_clean_exit(proc, 2)
        self.assertIn("no comparable rows", proc.stderr)

    def test_partially_mismatched_rows_warn_but_compare(self):
        base = bench([row(threads=1), row(threads=2)])
        cur = bench([row(threads=1), row(threads=4)])
        proc = self.run_gate(base, cur)
        self.assert_clean_exit(proc, 0)
        self.assertIn("baseline-only configuration skipped", proc.stderr)
        self.assertIn("current-only configuration skipped", proc.stderr)

    def test_workload_mismatch_exits_2(self):
        proc = self.run_gate(bench([row()], targets=1000),
                             bench([row()], targets=5000))
        self.assert_clean_exit(proc, 2)
        self.assertIn("workload mismatch", proc.stderr)


def metrics_export(samples):
    """A metrics-export JSON payload ({name: value} or
    {name: [(labels, value), ...]}) in the ExportJson shape."""
    metrics = []
    for name, value in samples.items():
        entries = value if isinstance(value, list) else [({}, value)]
        metrics.append({
            "name": name, "type": "counter", "help": "t.",
            "samples": [{"labels": labels, "value": v}
                        for labels, v in entries]})
    return {"metrics": metrics}


class StorageMetricsCompareTest(GateTest):
    """The --compare casper_storage_* table fed by --baseline-metrics /
    --current-metrics. Always informational: bad metrics files must
    never change the exit status."""

    def run_compare_with_metrics(self, base_metrics, cur_metrics):
        b = bench([row()])
        with tempfile.TemporaryDirectory() as tmp:
            paths = {}
            for stem, payload in (("base_m", base_metrics),
                                  ("cur_m", cur_metrics)):
                path = os.path.join(tmp, stem + ".json")
                with open(path, "w") as f:
                    if isinstance(payload, str):
                        f.write(payload)
                    else:
                        json.dump(payload, f)
                paths[stem] = path
            base_path = os.path.join(tmp, "baseline.json")
            cur_path = os.path.join(tmp, "current.json")
            for path in (base_path, cur_path):
                with open(path, "w") as f:
                    json.dump(b, f)
            return subprocess.run(
                [sys.executable, GATE, "--baseline", base_path,
                 "--current", cur_path, "--compare",
                 "--baseline-metrics", paths["base_m"],
                 "--current-metrics", paths["cur_m"]],
                capture_output=True, text=True)

    def test_storage_samples_print_side_by_side(self):
        base = metrics_export({"casper_storage_pool_hits_total": 10,
                               "casper_storage_pool_misses_total": 90})
        cur = metrics_export({"casper_storage_pool_hits_total": 75,
                              "casper_storage_pool_misses_total": 25})
        proc = self.run_compare_with_metrics(base, cur)
        self.assert_clean_exit(proc, 0)
        self.assertIn("casper_storage_pool_hits_total", proc.stdout)
        self.assertIn("10", proc.stdout)
        self.assertIn("75", proc.stdout)
        self.assertIn("compare mode", proc.stdout)

    def test_non_storage_metrics_are_filtered_out(self):
        m = metrics_export({"casper_storage_pool_hits_total": 1,
                            "casper_requests_total": 42})
        proc = self.run_compare_with_metrics(m, m)
        self.assert_clean_exit(proc, 0)
        self.assertIn("casper_storage_pool_hits_total", proc.stdout)
        self.assertNotIn("casper_requests_total", proc.stdout)

    def test_sample_missing_on_one_side_renders_dash(self):
        base = metrics_export({"casper_storage_pool_hits_total": 5})
        cur = metrics_export(
            {"casper_storage_pool_hits_total": 5,
             "casper_storage_checksum_failures_total": 1})
        proc = self.run_compare_with_metrics(base, cur)
        self.assert_clean_exit(proc, 0)
        for line in proc.stdout.splitlines():
            if "checksum_failures" in line:
                self.assertIn("-", line)
                break
        else:
            self.fail(f"no checksum_failures row in: {proc.stdout}")

    def test_labeled_samples_match_by_labels(self):
        base = metrics_export({"casper_storage_pages_read_total":
                               [({"tier": "a"}, 3), ({"tier": "b"}, 4)]})
        cur = metrics_export({"casper_storage_pages_read_total":
                              [({"tier": "b"}, 9)]})
        proc = self.run_compare_with_metrics(base, cur)
        self.assert_clean_exit(proc, 0)
        self.assertIn("tier=a", proc.stdout)
        self.assertIn("tier=b", proc.stdout)

    def test_malformed_metrics_file_warns_but_exits_0(self):
        good = metrics_export({"casper_storage_pool_hits_total": 1})
        proc = self.run_compare_with_metrics('{"metrics": [', good)
        self.assert_clean_exit(proc, 0)
        self.assertIn("cannot read metrics file", proc.stderr)
        self.assertIn("compare mode", proc.stdout)

    def test_wrong_shape_metrics_file_warns_but_exits_0(self):
        good = metrics_export({"casper_storage_pool_hits_total": 1})
        proc = self.run_compare_with_metrics({"rows": []}, good)
        self.assert_clean_exit(proc, 0)
        self.assertIn("skipping storage comparison", proc.stderr)

    def test_non_numeric_sample_values_are_skipped(self):
        bad = {"metrics": [{
            "name": "casper_storage_pool_hits_total", "type": "counter",
            "samples": [{"labels": {}, "value": "many"}]}]}
        good = metrics_export({"casper_storage_pool_hits_total": 2})
        proc = self.run_compare_with_metrics(bad, good)
        self.assert_clean_exit(proc, 0)
        for line in proc.stdout.splitlines():
            if "pool_hits" in line:
                self.assertIn("-", line)
                self.assertIn("2", line)

    def test_no_storage_samples_notes_empty_table(self):
        empty = metrics_export({})
        proc = self.run_compare_with_metrics(empty, empty)
        self.assert_clean_exit(proc, 0)
        self.assertIn("no casper_storage_* samples", proc.stdout)

    def test_compare_without_metrics_flags_prints_no_table(self):
        b = bench([row()])
        proc = self.run_gate(b, b, extra_args=("--compare",))
        self.assert_clean_exit(proc, 0)
        self.assertNotIn("storage metric", proc.stdout)


def scenario_report(name, qps=500.0, p95=120.0, violations=0, passed=True):
    """A minimal BENCH_scenario_<name>.json in the casper_cli shape."""
    return {
        "scenario": name, "stack": "facade", "qps": qps,
        "latency_micros": {"count": 100, "mean": 80.0, "p50": 60.0,
                           "p95": p95, "p99": 2 * p95, "max": 3 * p95},
        "oracles": {"enabled": True, "nn_checks": 30, "nn_violations":
                    violations, "region_checks": 5, "region_violations": 0,
                    "continuous_checks": 10, "continuous_violations": 0,
                    "skipped": 0},
        "passed": passed,
    }


class ScenarioCompareTest(GateTest):
    """The --compare scenario table fed by --scenarios-baseline /
    --scenarios-current. Informational only: scenario files never gate,
    and bad files only warn."""

    def run_compare_with_scenarios(self, base_reports, cur_reports):
        b = bench([row()])
        with tempfile.TemporaryDirectory() as tmp:
            def dump(stem, payload):
                path = os.path.join(tmp, stem + ".json")
                with open(path, "w") as f:
                    if isinstance(payload, str):
                        f.write(payload)
                    else:
                        json.dump(payload, f)
                return path

            base_paths = [dump(f"base_s{i}", p)
                          for i, p in enumerate(base_reports)]
            cur_paths = [dump(f"cur_s{i}", p)
                         for i, p in enumerate(cur_reports)]
            base_path = dump("baseline", b)
            cur_path = dump("current", b)
            cmd = [sys.executable, GATE, "--baseline", base_path,
                   "--current", cur_path, "--compare"]
            if base_paths:
                cmd += ["--scenarios-baseline", *base_paths]
            if cur_paths:
                cmd += ["--scenarios-current", *cur_paths]
            return subprocess.run(cmd, capture_output=True, text=True)

    def test_scenarios_print_side_by_side(self):
        base = [scenario_report("rush_hour", qps=400.0),
                scenario_report("flash_crowd", qps=300.0)]
        cur = [scenario_report("rush_hour", qps=440.0),
               scenario_report("flash_crowd", qps=290.0)]
        proc = self.run_compare_with_scenarios(base, cur)
        self.assert_clean_exit(proc, 0)
        self.assertIn("rush_hour", proc.stdout)
        self.assertIn("flash_crowd", proc.stdout)
        self.assertIn("400.0", proc.stdout)
        self.assertIn("440.0", proc.stdout)
        self.assertIn("never gates", proc.stdout)

    def test_scenario_violations_never_gate_compare(self):
        base = [scenario_report("churn_chaos")]
        cur = [scenario_report("churn_chaos", violations=7, passed=False)]
        proc = self.run_compare_with_scenarios(base, cur)
        self.assert_clean_exit(proc, 0)
        self.assertIn("7", proc.stdout)
        self.assertIn("NO", proc.stdout)

    def test_scenario_missing_on_one_side_renders_dash(self):
        proc = self.run_compare_with_scenarios(
            [scenario_report("rush_hour")],
            [scenario_report("rush_hour"),
             scenario_report("continuous_storm")])
        self.assert_clean_exit(proc, 0)
        for line in proc.stdout.splitlines():
            if "continuous_storm" in line:
                self.assertIn("-", line)
                break
        else:
            self.fail(f"no continuous_storm row in: {proc.stdout}")

    def test_malformed_scenario_file_warns_but_exits_0(self):
        proc = self.run_compare_with_scenarios(
            ['{"scenario": ', scenario_report("rush_hour")],
            [scenario_report("rush_hour")])
        self.assert_clean_exit(proc, 0)
        self.assertIn("cannot read scenario file", proc.stderr)
        self.assertIn("rush_hour", proc.stdout)

    def test_scenario_file_without_name_is_skipped(self):
        proc = self.run_compare_with_scenarios(
            [{"qps": 1.0}], [scenario_report("rush_hour")])
        self.assert_clean_exit(proc, 0)
        self.assertIn("no 'scenario' key", proc.stderr)

    def test_compare_without_scenario_flags_prints_no_table(self):
        b = bench([row()])
        proc = self.run_gate(b, b, extra_args=("--compare",))
        self.assert_clean_exit(proc, 0)
        self.assertNotIn("scenario table", proc.stdout)


if __name__ == "__main__":
    unittest.main()
