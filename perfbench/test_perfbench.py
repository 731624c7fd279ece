#!/usr/bin/env python3
"""The benchmark's own tests, on --tiny inputs (a few ms per op).

Run from the root of a checkout:
    python3 -m unittest discover -s perfbench -p 'test_*.py'

They build the program through run.py, then check that
  * every metric BENCHMARK.json names is printed with its unit, and nothing
    else is;
  * a deliberately corrupted product fails the output check;
  * two runs with the same seed give identical exact counts.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT_COUNTS = [
    "engine.repartition_mb", "engine.aggregation_mb", "engine.tasks",
    "blas.dgemm_calls", "blas.spmm_calls", "blas.add_blocks_calls",
    "blas.elementwise_calls",
]


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.exe = run.build()

    def drive(self, workload, trace, seed=1, extra=()):
        proc = subprocess.run(
            [self.exe, "--workload", workload, "--seed", str(seed),
             "--seconds", "0.2", "--trace", str(trace), "--tiny", *extra],
            stdout=subprocess.PIPE, text=True, timeout=120)
        lines = proc.stdout.strip().splitlines()
        return proc.returncode, lines[:-1], json.loads(lines[-1])

    def test_prints_every_metric_with_its_unit_and_nothing_else(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in SPEC[key]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    code, text, result = self.drive(workload, trace)
                    self.assertEqual(code, 0)
                    self.assertEqual(
                        sorted(result),
                        ["attempted", "correct", "failed", "metrics"])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {n: m["unit"] for n, m in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    for name, unit in expected.items():
                        self.assertTrue(
                            any(l.split()[:1] == [name] and l.split()[-1] == unit
                                for l in text), name)

    def test_corrupted_product_fails_the_check(self):
        for workload in ("dense_general", "sparse_common_dim", "gnmf_netflix"):
            for op in ("0", "3"):  # the fully checked first op, a later one
                with self.subTest(workload=workload, op=op):
                    code, _, result = self.drive(
                        workload, 0, extra=("--corrupt-op", op))
                    self.assertNotEqual(code, 0)
                    self.assertFalse(result["correct"])
                    self.assertGreaterEqual(result["failed"], 1)

    def test_same_seed_gives_identical_exact_counts(self):
        for workload in ("sparse_common_dim", "gnmf_netflix"):
            with self.subTest(workload=workload):
                runs = [self.drive(workload, 1, seed=7)[2]["metrics"]
                        for _ in range(2)]
                for name in EXACT_COUNTS:
                    self.assertEqual(runs[0][name]["value"],
                                     runs[1][name]["value"], name)


if __name__ == "__main__":
    unittest.main()
