#!/usr/bin/env python3
"""Paired performance gate: judge a change against its merge base.

Usage (from the change's checkout):

    python3 .github/perf_gate.py BASE CHANGE GATE

BASE and CHANGE are two checkouts of the repository, the merge base and
the change. GATE is one of:

  sim_core    bench/sim_core from each checkout's Release build in
              build-rel/ (one row per scheduler scenario);
  store_core  bench/store_core, likewise (one row per data-plane
              scenario, key count and phase);
  txn_bench   perfbench/run.py in each checkout, once per workload
              (it builds its own binary on first use).

The gate runs the benchmark in pairs (the gate's `pairs`). Each pair runs
both sides back to back, and the side that goes first alternates from
pair to pair, because the second of two identical runs is often 5-17%
faster on a shared 4-vCPU host. A bench binary runs from a fresh copy
each time: on that host, in one gate run of two byte-identical
store_core binaries at different paths, one ran a row at 0.48-0.97x
the other in all 10 pairs, so where a file's pages land must not
favour one side for a whole gate run. Per row it then checks:

  - throughput (events/s, ops/s, attempts/s): the median over the pairs
    of change/base is at least RATE_FLOOR. A pair's two runs are
    seconds apart, so a drift in host speed cancels within the pair;
  - allocs/event, allocs/op, allocs/txn and bytes/key: the change's
    median is not above the base's;
  - on every change run, the store_core get/put/prune phases at exactly
    0 allocs/op, and txn_bench's output checks passed with no failed
    attempt.

It prints each row's medians and quartiles, writes every run's rows to
perf_gate_GATE.json in the working directory, and exits 1 on any
regression (naming the row) and 0 otherwise.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import namedtuple

RATE_FLOOR = 0.8
# The store_core phases that must not allocate at all.
STEADY_OPS = ("get", "put", "prune")
TXN_WORKLOADS = ("replicated_mixed", "contended_single",
                 "readheavy_dram_ntp")
TXN_ARGS = ("--seed", "1", "--seconds", "2", "--trace", "0")
# Absolute slack on "not above" comparisons of exact counts, so that a
# float printed and parsed back still compares equal.
EPS = 1e-9


def store_core_run_check(row):
    if row["op"] in STEADY_OPS and row["allocs_per_op"] > EPS:
        return "steady state must be 0 allocs/op, got %.4f" % \
            row["allocs_per_op"]
    return None


def txn_run_check(row):
    if not row["correct"] or row["failed"] != 0:
        return "output check failed (correct=%s, failed=%d)" % (
            row["correct"], row["failed"])
    return None


# pairs: runs per side; key: the columns that name a row; rate: the
# throughput column; ceilings: (column, factor) pairs whose change
# median may not exceed factor x the base median; run_check: a check
# every change row must pass, returning an error message or None.
#
# Pair counts: on a shared 4-vCPU host, one sim_core or store_core row
# times 2-170 ms and a pair's change/base ratio spreads with a standard
# deviation of 0.2-0.35 in log terms, so at 10 pairs about one gate
# run in three flagged some row of identical builds; 30 pairs cost
# ~40 s and ~4 min. A txn_bench run corrects for host drift itself
# (its pairs spread by a few percent) and takes ~12 s, so 10 suffice.
Gate = namedtuple("Gate", "pairs key rate ceilings run_check")

GATES = {
    "sim_core": Gate(30, ("scenario",), "events_per_sec",
                     (("allocs_per_event", 1.0),), lambda row: None),
    "store_core": Gate(30, ("scenario", "keys", "op"), "ops_per_sec",
                       (("allocs_per_op", 1.0), ("bytes_per_key", 1.0)),
                       store_core_run_check),
    "txn_bench": Gate(10, ("workload",), "txn_per_host_s",
                      (("allocs_per_txn", 1.0),),
                      txn_run_check),
}


def read_rows(path):
    """The rows of a milana-bench-v1 report."""
    with open(path) as f:
        return json.load(f)["rows"]


def txn_row(workload, stdout):
    """One row from perfbench/run.py's stdout (last line: result JSON)."""
    lines = stdout.splitlines()
    try:
        doc = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise SystemExit("perfbench/run.py --workload %s printed no "
                         "result" % workload)
    row = {"workload": workload, "correct": doc["correct"],
           "failed": doc["failed"], "attempted": doc["attempted"]}
    row.update({k: m["value"] for k, m in doc["metrics"].items()})
    return row


def units(gate_name):
    """The invocations one run of a gate is made of."""
    return TXN_WORKLOADS if gate_name == "txn_bench" else (None,)


def run_unit(gate_name, checkout, unit):
    """Run one invocation in @checkout; return its rows."""
    if gate_name == "txn_bench":
        out = subprocess.run(
            [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
             "--workload", unit] + list(TXN_ARGS),
            cwd=checkout, stdout=subprocess.PIPE, text=True,
            check=False).stdout
        return [txn_row(unit, out)]
    built = os.path.join(checkout, "build-rel", "bench", gate_name)
    if not os.path.isfile(built):
        raise SystemExit("%s: not built" % built)
    with tempfile.TemporaryDirectory() as tmp:
        binary = shutil.copy(built, tmp)
        path = os.path.join(tmp, "rows.json")
        subprocess.run([binary, "--json=" + path],
                       stdout=subprocess.DEVNULL, check=True)
        return read_rows(path)


def run_pairs(gate_name, base, change):
    """The gate's pairs of runs, alternating which side goes first."""
    runs = {"base": [], "change": []}
    sides = (("base", base), ("change", change))
    for i in range(GATES[gate_name].pairs):
        for side in runs.values():
            side.append([])
        order = sides if i % 2 == 0 else sides[::-1]
        for unit in units(gate_name):
            for side, checkout in order:
                runs[side][i].extend(run_unit(gate_name, checkout, unit))
    return runs["base"], runs["change"]


def row_name(gate, row):
    return "/".join(str(row[k]) for k in gate.key)


def by_row(gate, runs):
    """{row name: [that row of each run]}, in first-seen order."""
    rows = {}
    for run in runs:
        for row in run:
            rows.setdefault(row_name(gate, row), []).append(row)
    return rows


def spread(values):
    """(first quartile, median, third quartile) of @values."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def judge(gate_name, base_runs, change_runs):
    """Judge every row; return (report lines, failures)."""
    gate = GATES[gate_name]
    base = by_row(gate, base_runs)
    change = by_row(gate, change_runs)
    failures = ["%s: row only in the %s runs"
                % (name, "base" if name in base else "change")
                for name in sorted(base.keys() ^ change.keys())]
    lines = ["%-24s %32s %32s %20s" % (
        "row", gate.rate + " base [q1, q3]", "change [q1, q3]",
        "change/base [min-max]")]
    for name in [n for n in base if n in change]:
        b_rate = [r[gate.rate] for r in base[name]]
        c_rate = [r[gate.rate] for r in change[name]]
        bq, cq = spread(b_rate), spread(c_rate)
        pairs = [c / b for b, c in zip(b_rate, c_rate)]
        ratio = statistics.median(pairs)
        lines.append("%-24s %12.4g [%8.4g, %8.4g] %12.4g [%8.4g, %8.4g] "
                     "%5.2fx [%4.2f-%4.2f]" % (
                         name, bq[1], bq[0], bq[2], cq[1], cq[0], cq[2],
                         ratio, min(pairs), max(pairs)))
        if ratio < RATE_FLOOR:
            failures.append("%s: %s is %.2fx the base in the median "
                            "pair (floor %.2fx)"
                            % (name, gate.rate, ratio, RATE_FLOOR))
        for column, factor in gate.ceilings:
            b = statistics.median(r[column] for r in base[name])
            c = statistics.median(r[column] for r in change[name])
            if c > b * factor + EPS:
                failures.append("%s: %s rose %.4g -> %.4g (limit %.4g)"
                                % (name, column, b, c, b * factor))
        errors = [e for e in map(gate.run_check, change[name]) if e]
        if errors:
            failures.append("%s: %s (%d of %d runs)"
                            % (name, errors[0], len(errors),
                               len(change[name])))
    return lines, failures


def main(argv):
    if len(argv) != 4 or argv[3] not in GATES:
        raise SystemExit("usage: perf_gate.py BASE CHANGE {%s}"
                         % ",".join(GATES))
    base, change, gate_name = argv[1:]
    pairs = GATES[gate_name].pairs
    print("%s: %d alternating pairs, base %s vs change %s"
          % (gate_name, pairs, base, change), flush=True)
    base_runs, change_runs = run_pairs(gate_name, base, change)
    with open("perf_gate_%s.json" % gate_name, "w") as f:
        json.dump({"gate": gate_name, "pairs": pairs, "base": base_runs,
                   "change": change_runs}, f, indent=1)
        f.write("\n")
    lines, failures = judge(gate_name, base_runs, change_runs)
    print("\n".join(lines))
    if failures:
        print("%s regression:\n  %s" % (gate_name, "\n  ".join(failures)))
        return 1
    print("%s within budget" % gate_name)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
