#!/usr/bin/env python3
"""Self-tests of the transaction-cost benchmark.

Run from the repository root (builds txn_bench first if needed):

    python3 perfbench/test_txn_bench.py

Each workload gets a short smoke run (--seconds 1) with and without the
traced run. The tests check that every metric BENCHMARK.json names is
printed with its unit and nothing else, that the sim digest repeats for
a fixed seed, that the rungs sim_core and store_core prove
allocation-free read 0 allocations here too, and that idle layers read
zero on the workloads that bypass them.
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
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (perfbench/run.py: build() and paths)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, seed, trace, seconds=1):
    """Run txn_bench once; return (exit code, stdout lines, result)."""
    out = subprocess.run(
        [run.BINARY, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=False)
    lines = out.stdout.strip().splitlines()
    return out.returncode, lines, json.loads(lines[-1])


def digest(lines):
    for line in lines:
        m = re.match(r"sim_digest ([0-9a-f]{16})$", line)
        if m:
            return m.group(1)
    raise AssertionError("no sim_digest line")


class TxnBenchTest(unittest.TestCase):
    runs = {}

    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("txn_bench build failed")
        for w in WORKLOADS:
            for trace in (0, 1):
                cls.runs[(w, trace)] = bench(w, 5, trace)

    def test_runs_pass_their_output_checks(self):
        for (w, trace), (code, lines, result) in self.runs.items():
            with self.subTest(workload=w, trace=trace):
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                self.assertFalse([l for l in lines if "FAIL" in l])

    def test_metric_names_and_units_match_benchmark_json(self):
        for (w, trace), (_, _, result) in self.runs.items():
            spec = SPEC["per_layer" if trace else "end_to_end"]
            with self.subTest(workload=w, trace=trace):
                self.assertEqual(
                    {m["name"]: m["unit"] for m in spec},
                    {k: v["unit"] for k, v in result["metrics"].items()})
                for name, v in result["metrics"].items():
                    self.assertIsInstance(v["value"], (int, float), name)

    def test_end_to_end_metrics_are_never_zero(self):
        for w in WORKLOADS:
            for name, v in self.runs[(w, 0)][2]["metrics"].items():
                with self.subTest(workload=w, metric=name):
                    self.assertGreater(v["value"], 0)

    def test_digest_repeats_for_a_fixed_seed(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                _, again, _ = bench(w, 5, 0)
                self.assertEqual(digest(self.runs[(w, 0)][1]),
                                 digest(again))
                _, other, _ = bench(w, 6, 0)
                self.assertNotEqual(digest(again), digest(other))

    def test_allocation_free_rungs_read_zero(self):
        # sim_core proves a timer event and store_core a version-index
        # lookup allocation-free; the ladder must agree.
        for w in WORKLOADS:
            metrics = self.runs[(w, 1)][2]["metrics"]
            for name in ("sim.event.allocs", "ftl.mftl.index_get.allocs",
                         "ftl.dram.index_get.allocs"):
                with self.subTest(workload=w, rung=name):
                    self.assertEqual(metrics[name]["value"], 0)

    def test_idle_layers_read_zero(self):
        contended = self.runs[("contended_single", 1)][2]["metrics"]
        for name in ("semel.replica_writes_per_put",
                     "semel.replica_records_per_txn",
                     "clocksync.exchanges_per_sim_s"):
            self.assertEqual(contended[name]["value"], 0, name)
        readheavy = self.runs[("readheavy_dram_ntp", 1)][2]["metrics"]
        for name in ("flash.reads_per_txn", "flash.programs_per_txn",
                     "flash.erases_per_txn",
                     "span.flash.self_sim_us_per_txn"):
            self.assertEqual(readheavy[name]["value"], 0, name)
        replicated = self.runs[("replicated_mixed", 1)][2]["metrics"]
        self.assertAlmostEqual(
            replicated["semel.replica_writes_per_put"]["value"], 2, 1)

    def test_fails_without_the_program_sources(self):
        with tempfile.TemporaryDirectory(dir=run.BUILD) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=170,
                check=False)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn("correct", out.stdout)


if __name__ == "__main__":
    unittest.main()
