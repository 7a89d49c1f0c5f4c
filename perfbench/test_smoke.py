#!/usr/bin/env python3
"""The benchmark's own test, at the smoke size (seconds per workload).

    python3 perfbench/test_smoke.py        # from the root of the checkout

For every workload, untraced and traced, it asserts that run.py prints a
result line with every end-to-end (untraced) or per-layer (traced)
metric of BENCHMARK.json, each with its unit, and that every output
check passed.  It also asserts that the traced counts repeat exactly,
and that the benchmark fails without printing a result where there is
nothing to build.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import run  # noqa: E402  (the workload and metric tables)


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=600)


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Smoke(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        cls.spec = spec
        cls.units = {m["name"]: m["unit"]
                     for m in spec["end_to_end"] + spec["per_layer"]}
        cls.workloads = [w["name"] for w in spec["workloads"]]

    def test_every_metric_prints_and_every_check_passes(self):
        self.assertEqual(sorted(self.workloads), sorted(run.WORKLOADS))
        for workload in self.workloads:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    p = bench("--workload", workload, "--smoke",
                              "--trace", str(trace))
                    self.assertEqual(p.returncode, 0, p.stderr)
                    r = result_of(p)
                    self.assertEqual(
                        set(r), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(r["correct"], p.stderr)
                    self.assertEqual(r["failed"], 0, p.stderr)
                    self.assertGreaterEqual(r["attempted"], 1)
                    self.assertEqual(
                        sorted(r["metrics"]),
                        sorted(run.expected_metrics(self.spec, trace)))
                    for name, m in r["metrics"].items():
                        self.assertEqual(m["unit"], self.units[name], name)
                        self.assertTrue(math.isfinite(m["value"]), name)

    def test_traced_counts_repeat(self):
        counts = [m["name"] for m in self.spec["per_layer"]
                  if m["name"].startswith(("geom.segments.", "network_sim.",
                                           "wormhole."))
                  and m["unit"] == "count"]
        self.assertEqual(len(counts), 7)
        for workload in self.workloads:
            with self.subTest(workload=workload):
                runs = [result_of(bench("--workload", workload, "--smoke",
                                        "--seed", "7", "--trace", "1"))
                        for _ in range(2)]
                for name in counts:
                    self.assertEqual(runs[0]["metrics"][name],
                                     runs[1]["metrics"][name], name)

    def test_fails_without_sources(self):
        bare = os.path.join(ROOT, run.RUN_DIR, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"),
                        os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            p = bench("--workload", run.WORKLOADS[0], "--seed", "1",
                      "--seconds", "1", "--trace", "0", cwd=bare)
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"metrics"', p.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
