#!/usr/bin/env python3
"""Self-tests for the update-window benchmark.

Run from the repository root (builds the benchmark on first use):

    python3 perfbench/tests/test_perfbench.py

Every run here uses a tiny scale factor and a one-second measuring loop.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.getcwd()
RUN = os.path.join("perfbench", "run.py")
TINY = ["--sf", "0.002"]
WORKLOADS = ("nightly", "served", "beyond_ram")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def bench(workload, trace, *extra, env=None, cwd=ROOT):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace)] + TINY + list(extra)
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd,
                          env=env, timeout=900)


def result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class MetricsPrinted(unittest.TestCase):
    """A short run prints every named metric, with its unit, per workload."""

    def check(self, workload, trace, listed):
        proc = bench(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        r = result(proc)
        self.assertEqual(set(r), {"correct", "attempted", "failed",
                                  "metrics"})
        self.assertTrue(r["correct"])
        self.assertEqual(r["failed"], 0)
        self.assertGreaterEqual(r["attempted"], 1)
        self.assertEqual(set(r["metrics"]), {m["name"] for m in listed})
        for m in listed:
            got = r["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            # The human-readable line carries the sample count.
            line = [l for l in proc.stdout.splitlines()
                    if l.split()[:2] == ["metric", m["name"]]]
            self.assertEqual(len(line), 1, m["name"])
            self.assertIn("(", line[0])
        self.assertIn("stamp {", proc.stdout)
        return proc, r

    def test_end_to_end(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, r = self.check(workload, 0, spec()["end_to_end"])
                for name, m in r["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_per_layer_partition_sums_to_window(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, r = self.check(workload, 1, spec()["per_layer"])
                v = {k: m["value"] for k, m in r["metrics"].items()}
                steps = (v["exec.comp_s"] + v["delta.inst_s"]
                         if workload != "served" else v["parallel.stage_s"])
                parts = (v["core.plan_s"] + v["core.parallelize_s"] +
                         v["core.validate_s"] + steps +
                         v["storage.paged_touch_s"] + v["io.journal_begin_s"] +
                         v["exec.commit_s"] + v["unaccounted_s"])
                self.assertGreater(v["traced_window_s"], 0)
                self.assertAlmostEqual(parts, v["traced_window_s"], places=9)


class FailuresAreReported(unittest.TestCase):

    def test_corrupted_view_row_fails_the_window(self):
        proc = bench("nightly", 0, "--inject-corruption")
        self.assertNotEqual(proc.returncode, 0)
        r = result(proc)
        self.assertFalse(r["correct"])
        self.assertGreaterEqual(r["failed"], 1)
        self.assertIn("FAILED window", proc.stdout)

    def test_refuses_engine_knobs(self):
        env = dict(os.environ, WUW_THREADS="2")
        proc = bench("nightly", 0, env=env)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)

    def test_fails_without_engine_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(os.path.join(ROOT, "perfbench"),
                            os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("nightly", 0, cwd=tmp)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
