#!/usr/bin/env python3
"""Tests of perf_gate.py's verdicts on synthetic row files.

Run from anywhere: python3 .github/test_perf_gate.py
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import perf_gate  # noqa: E402


def sim_row(scenario="timer_ring", rate=1e7, allocs=0.0):
    return {"scenario": scenario, "events": 1000, "seconds": 1e-4,
            "events_per_sec": rate, "allocs_per_event": allocs,
            "bytes_per_event": 0.0}


def store_row(op="get", rate=1e7, allocs=0.0, bytes_per_key=0.0):
    return {"scenario": "mftl", "keys": 100000, "op": op, "ops": 1000,
            "seconds": 1e-4, "ops_per_sec": rate, "allocs_per_op": allocs,
            "bytes_per_op": 0.0, "bytes_per_key": bytes_per_key}


def store_run(rate=1e7, **populate):
    """One store_core run: a populate row plus the steady phases."""
    return [store_row("populate", rate, **populate)] + \
        [store_row(op, rate) for op in perf_gate.STEADY_OPS]


def txn_line(rate=3e4, allocs=35.0, correct=True, failed=0):
    """The last stdout line of perfbench/run.py."""
    return json.dumps({
        "correct": correct, "attempted": 1000, "failed": failed,
        "metrics": {"txn_per_host_s": {"value": rate, "unit": "attempts/s"},
                    "allocs_per_txn": {"value": allocs, "unit": "count"}}})


class PerfGateTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)
        self.files = 0

    def through_file(self, rows):
        """Write @rows as a milana-bench-v1 report and read them back."""
        self.files += 1
        path = os.path.join(self.tmp.name, "run%d.json" % self.files)
        with open(path, "w") as f:
            json.dump({"schema": "milana-bench-v1", "bench": "synthetic",
                       "params": {}, "rows": rows}, f)
        return perf_gate.read_rows(path)

    def judge(self, gate, base, change):
        """Verdict on runs given as lists of rows, via report files."""
        return perf_gate.judge(gate,
                               [self.through_file(r) for r in base],
                               [self.through_file(r) for r in change])[1]

    def test_equal_rows_pass(self):
        runs = [[sim_row("timer_ring"), sim_row("task_chain", 2e7)]] * 10
        self.assertEqual(self.judge("sim_core", runs, runs), [])
        self.assertEqual(
            self.judge("store_core", [store_run(bytes_per_key=64.0)] * 10,
                       [store_run(bytes_per_key=64.0)] * 10), [])

    def test_slower_median_fails_naming_the_row(self):
        base = [[sim_row("timer_ring"), sim_row("task_chain")]] * 10
        change = [[sim_row("timer_ring"), sim_row("task_chain", 0.7e7)]] * 10
        failures = self.judge("sim_core", base, change)
        self.assertEqual(len(failures), 1)
        self.assertIn("task_chain", failures[0])
        self.assertIn("0.70x", failures[0])

    def test_one_noisy_pair_does_not_flip_the_median(self):
        base = [[sim_row()]] * 10
        change = [[sim_row()]] * 9 + [[sim_row(rate=0.3e7)]]
        self.assertEqual(self.judge("sim_core", base, change), [])
        base = [[sim_row(rate=5e7)]] + [[sim_row()]] * 9
        self.assertEqual(self.judge("sim_core", base, [[sim_row()]] * 10),
                         [])

    def test_alloc_rise_fails(self):
        failures = self.judge("sim_core", [[sim_row()]] * 10,
                              [[sim_row(allocs=1.0)]] * 10)
        self.assertEqual(len(failures), 1)
        self.assertIn("allocs_per_event", failures[0])
        failures = self.judge("store_core", [store_run()] * 10,
                              [store_run(allocs=0.5)] * 10)
        self.assertEqual(len(failures), 1)
        self.assertIn("mftl/100000/populate: allocs_per_op", failures[0])

    def test_bytes_per_key_rise_fails(self):
        failures = self.judge("store_core",
                              [store_run(bytes_per_key=64.0)] * 10,
                              [store_run(bytes_per_key=72.0)] * 10)
        self.assertEqual(len(failures), 1)
        self.assertIn("bytes_per_key rose 64 -> 72", failures[0])

    def test_steady_state_allocation_fails(self):
        # Base and change both allocate in `put`: not a rise, yet the
        # phase must stay at exactly 0 allocs/op.
        run = [store_row("put", allocs=0.001), store_row("populate")]
        failures = self.judge("store_core", [run] * 10, [run] * 10)
        self.assertEqual(len(failures), 1)
        self.assertIn("mftl/100000/put: steady state", failures[0])
        self.assertIn("10 of 10 runs", failures[0])

    def test_rows_on_one_side_only_fail(self):
        failures = self.judge("sim_core",
                              [[sim_row("a"), sim_row("b")]] * 10,
                              [[sim_row("a"), sim_row("c")]] * 10)
        self.assertEqual(failures, ["b: row only in the base runs",
                                    "c: row only in the change runs"])

    def test_txn_bounds_and_output_checks(self):
        def runs(**kw):
            return [[perf_gate.txn_row("contended_single", txn_line(**kw))]
                    ] * 10

        self.assertEqual(perf_gate.judge("txn_bench", runs(),
                                         runs(allocs=35.0))[1], [])
        # allocs/txn has no slack: +1% fails.
        failures = perf_gate.judge("txn_bench", runs(),
                                   runs(allocs=35.35))[1]
        self.assertEqual(len(failures), 1)
        self.assertIn("allocs_per_txn rose 35 -> 35.35", failures[0])
        failures = perf_gate.judge("txn_bench", runs(), runs(failed=2))[1]
        self.assertEqual(len(failures), 1)
        self.assertIn("contended_single: output check failed", failures[0])

    def test_pairs_alternate_which_side_goes_first(self):
        calls = []

        def fake_run_unit(gate, checkout, unit):
            calls.append((checkout, unit))
            return [sim_row()]

        real = perf_gate.run_unit
        perf_gate.run_unit = fake_run_unit
        self.addCleanup(setattr, perf_gate, "run_unit", real)
        base, change = perf_gate.run_pairs("txn_bench", "B", "C")
        pairs = perf_gate.GATES["txn_bench"].pairs
        self.assertEqual(len(base), pairs)
        self.assertEqual(len(change), pairs)
        per_pair = 2 * len(perf_gate.TXN_WORKLOADS)
        self.assertEqual(len(calls), pairs * per_pair)
        first = [calls[i][0] for i in range(0, len(calls), 2)]
        w = len(perf_gate.TXN_WORKLOADS)
        self.assertEqual(first[:w], ["B"] * w)
        self.assertEqual(first[w:2 * w], ["C"] * w)


if __name__ == "__main__":
    unittest.main()
