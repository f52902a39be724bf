#!/usr/bin/env python3
"""Self-test of the Casper benchmark.

    python3 casperbench/test_casperbench.py

Builds the benchmark, then checks that:
  * the correctness gates pass real answers and reject planted bad ones
    (the true NN removed from a list, a cloak below k, ...);
  * every workload, in a tiny mode, emits every metric BENCHMARK.json
    names, with its unit, and no other, in both untraced and traced runs;
  * run.py fails, without printing a result, where there are no library
    sources to build.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def result_of(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = str(run.build())
        cls.scratch = str(run.build_dir())

    def test_gates_reject_planted_answers(self):
        out = subprocess.run([self.binary, "--selftest"], capture_output=True,
                             text=True, timeout=120)
        self.assertEqual(out.returncode, 0, out.stderr)
        self.assertNotIn("[FAIL]", out.stderr)

    def check_metrics(self, trace: int, expected: list):
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload, trace=trace):
                out = subprocess.run(
                    [self.binary, "--workload", workload, "--seed", "5",
                     "--seconds", "0.5", "--trace", str(trace), "--tiny",
                     "--scratch", self.scratch],
                    capture_output=True, text=True, timeout=170)
                self.assertEqual(out.returncode, 0, out.stderr)
                result = result_of(out.stdout)
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                got = {name: m["unit"] for name, m in result["metrics"].items()}
                self.assertEqual(got, {m["name"]: m["unit"] for m in expected})
                for name, m in result["metrics"].items():
                    self.assertIsInstance(m["value"], (int, float), name)

    def test_untraced_runs_emit_every_end_to_end_metric(self):
        self.check_metrics(0, SPEC["end_to_end"])

    def test_traced_runs_emit_every_per_layer_metric(self):
        self.check_metrics(1, SPEC["per_layer"])

    def test_fails_without_library_sources(self):
        bare = run.build_dir() / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.HERE, bare / "casperbench")
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        out = subprocess.run(
            [sys.executable, "casperbench/run.py", "--workload", "big_lists",
             "--seed", "1", "--seconds", "1"],
            cwd=bare, capture_output=True, text=True, timeout=170)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
