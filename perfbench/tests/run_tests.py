#!/usr/bin/env python3
"""Tests of the benchmark itself.

Run from the repository root:

    python3 perfbench/tests/run_tests.py

Builds the harness and its GoogleTest suite (timing wrappers forward
faithfully, metric names are well formed), runs that suite, then runs
every workload briefly with --trace 0 and --trace 1 and checks that the
result line holds exactly the metrics BENCHMARK.json declares, with
their units, and that every check passed.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFBENCH)
sys.path.insert(0, PERFBENCH)

import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class Harness(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.build = run.build(["moca_perfbench", "perfbench_tests"])
        cls.bench = load_benchmark()

    def test_gtest_suite(self):
        subprocess.run([os.path.join(self.build, "perfbench_tests")],
                       stdout=sys.stderr, check=True)

    def test_declared_names(self):
        names = [w["name"] for w in self.bench["workloads"]]
        for kind in ("end_to_end", "per_layer"):
            names += [m["name"] for m in self.bench[kind]]
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)))

    def test_every_workload_prints_every_metric(self):
        for w in self.bench["workloads"]:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    out = subprocess.run(
                        [os.path.join(self.build, "moca_perfbench"),
                         "--workload", w["name"], "--seed", "3",
                         "--seconds", "0", "--trace", str(trace)],
                        stdout=subprocess.PIPE, text=True, check=True)
                    result = json.loads(out.stdout.strip().split("\n")[-1])
                    self.assertEqual(sorted(result),
                                     ["attempted", "correct", "failed",
                                      "metrics"])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    declared = {m["name"]: m["unit"] for m in self.bench[kind]}
                    printed = {k: v["unit"]
                               for k, v in result["metrics"].items()}
                    self.assertEqual(printed, declared)

    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory(dir=self.build) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(PERFBENCH, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "soc-moca", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, env=env, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, text=True, timeout=180)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"metrics"', out.stdout)


if __name__ == "__main__":
    unittest.main()
