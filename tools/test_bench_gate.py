#!/usr/bin/env python3
"""Self-test of tools/bench_gate.py over small synthetic result files.

    python3 tools/test_bench_gate.py

Each case writes a parent and a change result set for every workload in
BENCHMARK.json, perturbs the change (or deletes a file), and runs the gate
as CI does, checking its exit status and that a failure names the
workload and the metric.
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
TOOLS = Path(__file__).resolve().parent
GATE = TOOLS / "bench_gate.py"
SPEC = json.loads((TOOLS.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEEDS = (1, 2, 3)


def result(scale=None, correct=True, attempted=1000, failed=0, drop=()):
    """One result object; `scale` multiplies the named metrics."""
    scale = scale or {}
    metrics = {m["name"]: {"value": 100.0 * scale.get(m["name"], 1.0),
                           "unit": m["unit"]}
               for m in SPEC["end_to_end"] if m["name"] not in drop}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


class BenchGateTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        root = Path(self.tmp.name)
        self.parent, self.change = root / "parent", root / "change"
        for tree in (self.parent, self.change):
            tree.mkdir()
            for workload in WORKLOADS:
                for seed in SEEDS:
                    self.write(tree, workload, seed, result())

    def tearDown(self):
        self.tmp.cleanup()

    def write(self, tree, workload, seed, obj):
        # The saved stdout of run.py: env and info lines, result last.
        (tree / f"{workload}-{seed}.json").write_text(
            '{"env": {}}\n{"info": {}}\n' + json.dumps(obj) + "\n")

    def change_all_seeds(self, workload, **kwargs):
        for seed in SEEDS:
            self.write(self.change, workload, seed, result(**kwargs))

    def gate(self):
        return subprocess.run(
            [sys.executable, str(GATE), str(self.parent), str(self.change)],
            capture_output=True, text=True, timeout=60)

    def assert_passes(self):
        out = self.gate()
        self.assertEqual(out.returncode, 0, out.stdout + out.stderr)
        self.assertIn("bench_gate: pass", out.stdout)

    def assert_fails(self, *words):
        out = self.gate()
        self.assertEqual(out.returncode, 1, out.stdout + out.stderr)
        failures = [l for l in out.stdout.splitlines()
                    if l.startswith("FAIL ")]
        self.assertTrue(failures, out.stdout)
        self.assertTrue(any(all(w in l for w in words) for l in failures),
                        "no failure names %s:\n%s" % (words, out.stdout))

    def test_identical_inputs_pass(self):
        self.assert_passes()

    def test_query_qps_drop_of_30_percent_fails(self):
        self.change_all_seeds("big_lists", scale={"query_qps": 0.7})
        self.assert_fails("big_lists", "query_qps")

    def test_query_qps_drop_of_20_percent_passes(self):
        self.change_all_seeds("big_lists", scale={"query_qps": 0.8})
        self.assert_passes()

    def test_one_slow_seed_does_not_move_the_median(self):
        self.write(self.change, "uds_mixed", 2,
                   result(scale={"query_p99_us": 3.0}))
        self.assert_passes()

    def test_candidates_per_query_up_11_percent_fails(self):
        self.change_all_seeds("moving_city",
                              scale={"candidates_per_query": 1.11})
        self.assert_fails("moving_city", "candidates_per_query")

    def test_worsening_from_zero_fails(self):
        for tree in (self.parent, self.change):
            for seed in SEEDS:
                self.write(tree, "big_lists", seed,
                           result(scale={"update_p99_us": 0.0}))
        self.assert_passes()
        self.change_all_seeds("big_lists", scale={"update_p99_us": 0.01})
        self.assert_fails("big_lists", "update_p99_us")

    def test_incorrect_result_fails(self):
        self.write(self.change, "uds_mixed", 3, result(correct=False))
        self.assert_fails("uds_mixed", "not correct")

    def test_incorrect_parent_result_fails(self):
        self.write(self.parent, "uds_mixed", 1, result(correct=False))
        self.assert_fails("uds_mixed", "not correct")

    def test_higher_failed_share_fails(self):
        self.write(self.change, "uds_mixed", 1, result(failed=1))
        self.assert_fails("uds_mixed", "failed share")

    def test_missing_workload_fails(self):
        for tree in (self.parent, self.change):
            for seed in SEEDS:
                (tree / f"moving_city-{seed}.json").unlink()
        self.assert_fails("moving_city", "no results")

    def test_missing_seed_file_fails(self):
        (self.change / "big_lists-2.json").unlink()
        self.assert_fails("big_lists", "seed 2")

    def test_empty_result_file_fails(self):
        (self.change / "big_lists-2.json").write_text("")
        self.assert_fails("big_lists", "big_lists-2.json")

    def test_missing_metric_fails(self):
        self.write(self.change, "moving_city", 1,
                   result(drop=("update_per_s",)))
        self.assert_fails("moving_city", "update_per_s")

    def test_zero_attempted_fails(self):
        self.write(self.change, "big_lists", 1, result(attempted=0))
        self.assert_fails("big_lists", "attempted no operations")


if __name__ == "__main__":
    unittest.main()
