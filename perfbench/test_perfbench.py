#!/usr/bin/env python3
"""Self-tests of the perfbench benchmark.

    python3 perfbench/test_perfbench.py        (from the checkout root)

Builds through run.py like any benchmark run, then checks that a short
run of every workload passes its output checks, that every run emits
exactly the metrics BENCHMARK.json declares for its mode, with the same
units and valid names, that each traced run's attributed and
unattributed shares sum to 1, and that the benchmark refuses to run
without the sources. Takes about three minutes, most of it the cold
GRAPE compiles of the grape_cold runs.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

WORKLOADS = ("wire_serve", "wire_pulses", "grape_cold", "vqe_adaptive")
# The shares of one operation that unattributed_share completes to 1.
SHARES = ("server.share", "runtime.share", "grape.share",
          "pulse.decode_share", "unattributed_share")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, cwd=ROOT, seconds=1):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900)


class BenchmarkFile(unittest.TestCase):
    def test_declares_the_workloads_and_metrics(self):
        bench = load_benchmark()
        self.assertEqual(sorted(bench), ["command", "end_to_end", "paths",
                                         "per_layer", "run_seconds",
                                         "workloads"])
        self.assertEqual({w["name"] for w in bench["workloads"]},
                         set(WORKLOADS))
        names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        e2e = {m["name"]: m for m in bench["end_to_end"]}
        layers = {m["name"] for m in bench["per_layer"]}
        self.assertTrue(set(SHARES) <= layers)
        self.assertEqual((e2e["setup_s"]["unit"], e2e["setup_s"]["better"]),
                         ("s", "lower"))
        self.assertEqual(e2e["setup_s"]["bound"],
                         max(m["bound"] for m in e2e.values()))
        for m in e2e.values():
            self.assertLessEqual(m["bound"], 0.25)


class Workloads(unittest.TestCase):
    def check_run(self, workload, trace):
        out = run(workload, trace)
        self.assertEqual(out.returncode, 0, out.stderr[-4000:])
        result = json.loads(out.stdout.strip().splitlines()[-1])
        self.assertEqual(sorted(result),
                         ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"], out.stdout)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertLessEqual(result["failed"], result["attempted"])
        if workload != "grape_cold":
            # grape_cold counts the seed's unconverged GRAPE blocks as
            # failed; every other workload must pass all its checks.
            self.assertEqual(result["failed"], 0, out.stdout)

        bench = load_benchmark()
        section = bench["per_layer" if trace else "end_to_end"]
        units = {m["name"]: m["unit"] for m in section}
        metrics = result["metrics"]
        # Every workload reports every metric of the mode's section.
        self.assertEqual(set(metrics), set(units))
        for name, m in metrics.items():
            self.assertRegex(name, NAME)
            self.assertEqual(m["unit"], units[name], name)
            self.assertTrue(math.isfinite(m["value"]), name)
            if not trace:
                self.assertGreater(m["value"], 0.0, name)
        return metrics

    def test_wire_serve(self):
        self.check_run("wire_serve", 0)

    def test_wire_pulses(self):
        self.check_run("wire_pulses", 0)

    def test_grape_cold(self):
        self.check_run("grape_cold", 0)

    def test_vqe_adaptive(self):
        self.check_run("vqe_adaptive", 0)

    def test_traced_runs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.check_run(workload, 1)
                shares = sum(metrics[n]["value"] for n in SHARES)
                self.assertAlmostEqual(shares, 1.0, places=9)
                for name, m in metrics.items():
                    if m["unit"] in ("ms", "us"):
                        # Layer probes run on every workload.
                        self.assertGreater(m["value"], 0.0, name)
                if workload.startswith("wire"):
                    self.assertGreater(metrics["cache.quant_misses"]["value"],
                                       0)


class Refusal(unittest.TestCase):
    def test_fails_without_the_sources(self):
        bare = os.path.join(ROOT, ".bench_out", f"bare-{os.getpid()}")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = run("wire_serve", 0, cwd=bare, seconds=20)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"metrics"', out.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
