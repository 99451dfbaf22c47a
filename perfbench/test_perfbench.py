#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the repository root:

    python3 perfbench/test_perfbench.py

Builds the benchmark (as run.py does), then checks that the metric names
and units the binary emits match BENCHMARK.json exactly, that a short run
prints a stamp and a result line of the required shape, and runs the C++
harness tests (percentile edge cases, span self time, metric table,
per-layer shares).
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def declared(spec, section):
    return {m["name"]: m["unit"] for m in spec[section]}


class BenchmarkSpecTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        cls.spec = run.load_spec()
        out = subprocess.run([str(run.BINARY), "--list-metrics"], capture_output=True,
                             text=True, check=True)
        cls.emitted = json.loads(out.stdout)

    def test_workloads(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]], ["label", "train", "serve"])
        out = subprocess.run([str(run.BINARY), "--workload", "nope", "--workdir", "x"],
                             capture_output=True, text=True)
        self.assertEqual(out.returncode, 2)

    def test_metric_names_and_units_match_exactly(self):
        for section in ("end_to_end", "per_layer"):
            self.assertEqual(self.emitted[section], declared(self.spec, section), section)

    def test_setup_time_is_an_end_to_end_metric(self):
        setup = [m for m in self.spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))

    def test_metric_declarations_are_unique(self):
        names = [m["name"] for s in ("end_to_end", "per_layer") for m in self.spec[s]]
        self.assertEqual(len(names), len(set(names)))

    def test_short_runs_print_the_declared_metrics(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            out = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload", "label", "--seed", "3",
                 "--seconds", "1", "--trace", str(trace)],
                capture_output=True, text=True, check=True, cwd=run.ROOT)
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual({n: m["unit"] for n, m in result["metrics"].items()},
                             declared(self.spec, section))
            stamp = json.loads(lines[-2])
            for key in ("nproc", "cpu_model", "compiler", "build_type", "git_rev",
                        "source_sha256", "airch_threads", "seed"):
                self.assertIn(key, stamp["env"])
            self.assertEqual(stamp["env"]["seed"], 3)
            self.assertIn("label_points_per_s", stamp["figures"])
            if trace:
                self.assertIn("core.generate_s.case1", stamp["figures"])

    def test_harness(self):
        subprocess.run([str(run.TEST_BINARY)], check=True)


if __name__ == "__main__":
    unittest.main()
