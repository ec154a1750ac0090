#!/usr/bin/env python3
"""Compare two sets of graphport_perf results, metric by metric.

    python3 bench/perf/compare.py BASE_DIR NEW_DIR

Each directory holds the records run.py --save (or graphport_perf --json)
wrote, one JSON file per run. The metrics and bounds are those of the
BENCHMARK.json of the checkout this script belongs to. For every workload
the table first gives each side's runs, operations attempted and failed,
and runs that were not correct; then, for every end-to-end metric, each
side's median and quartiles over its correct runs, the change of the
medians, the metric's bound, and a verdict:

  failed      a new run answered wrongly or failed a check: its timings
              count for nothing;
  unresolved  the base's own spread (quartile distance over median) is
              wider than the bound, and not every new run beats every
              base run: the runs cannot tell a change from noise;
  worse       the new median is worse than the base median by more than
              the bound;
  better      the new median is better by more than the base's spread,
              and the new side wins at least 9 in 10 of the runs paired
              by seed (ties count for neither), over at least 10 runs
              a side;
  same        none of the above: within the bound.

Per-layer metrics of traced records are listed with their medians only;
they have no bound. The exit code is 1 when any pair is worse or failed,
else 0. Standard library only.
"""

import argparse
import glob
import json
import os
import statistics
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                         "..", "BENCHMARK.json")

# A gain needs at least this many runs on each side.
MIN_RUNS_FOR_GAIN = 10


def load(directory):
    """{(workload, traced): [record]} of every JSON record in a dir."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            record = json.load(f)
        key = (record["workload"], record["traced"])
        runs.setdefault(key, []).append(record)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def values_of(records, metric):
    return [r["result"]["metrics"][metric]["value"] for r in records
            if metric in r["result"]["metrics"]]


def verdict(base, new, paired, bound, lower_is_better):
    """The verdict for one metric; see the module docstring."""
    sign = 1.0 if lower_is_better else -1.0
    b1, bmed, b3 = quartiles(base)
    nmed = statistics.median(new)
    spread = (b3 - b1) / abs(bmed) if bmed else float("inf")
    worse_by = sign * (nmed - bmed) / abs(bmed) if bmed else 0.0
    all_better = all(sign * (n - b) < 0 for n in new for b in base)
    if spread > bound and not all_better:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    wins = sum(1 for b, n in paired if sign * (n - b) < 0)
    wins_most = wins >= 0.9 * len(paired) if paired else all_better
    enough = min(len(base), len(new)) >= MIN_RUNS_FOR_GAIN
    if -worse_by > spread and wins_most and enough:
        return "better"
    return "same"


def fingerprints(runs):
    seen = set()
    for records in runs.values():
        for r in records:
            fp = r["fingerprint"]
            seen.add("nproc %s, %s, %s, git %s" % (
                fp["nproc"], fp["compiler"], fp["build_type"],
                fp["git_sha"][:12]))
    return sorted(seen)


def outcome(records):
    """'runs R, attempted A, failed F, incorrect I' of one side."""
    return "runs %d, attempted %d, failed %d, incorrect %d" % (
        len(records), sum(r["result"]["attempted"] for r in records),
        sum(r["result"]["failed"] for r in records),
        sum(1 for r in records if not r["result"]["correct"]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args()
    with open(BENCHMARK) as f:
        bench = json.load(f)
    base, new = load(args.base), load(args.new)
    for side, runs in (("base", base), ("new", new)):
        for fp in fingerprints(runs):
            print("%-4s %s" % (side, fp))

    any_bad = False
    workloads = [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        b_all = base.get((workload, False), [])
        n_all = new.get((workload, False), [])
        print("\n%s\n  base: %s\n  new:  %s" % (
            workload, outcome(b_all), outcome(n_all)))
        if not b_all or not n_all:
            print("  (no untraced runs on both sides)")
            continue
        new_failed = any(not r["result"]["correct"] for r in n_all)
        b_runs = [r for r in b_all if r["result"]["correct"]]
        n_runs = [r for r in n_all if r["result"]["correct"]]
        speeds = [values_of(runs, "machine.speed") for runs in (b_runs, n_runs)]
        if all(speeds):
            # Timings are scaled by the machine's speed, measured while
            # the program is idle. A change that leaves work running
            # then (a spinning thread) would slow the speed kernel and
            # so flatter every timing; the raw.* figures show it.
            b1, bmed, b3 = quartiles(speeds[0])
            nmed = statistics.median(speeds[1])
            print("  machine.speed median: base %.3f, new %.3f%s" % (
                bmed, nmed, "  (outside the base's quartiles: compare the"
                " raw.* figures)" if not b1 <= nmed <= b3 else ""))
        print("  %-12s %31s %31s %8s %6s  %s" % (
            "metric", "base median [q1, q3]", "new median [q1, q3]",
            "change", "bound", "verdict"))
        for m in bench["end_to_end"]:
            b = values_of(b_runs, m["name"])
            n = values_of(n_runs, m["name"])
            if new_failed or not n:
                any_bad = True
                print("  %-12s %31s %31s %8s %5.0f%%  failed" % (
                    m["name"], "", "", "", m["bound"] * 100.0))
                continue
            if not b:
                print("  %-12s (no correct base run)" % m["name"])
                continue
            by_seed = {r["seed"]: r for r in b_runs}
            paired = [(by_seed[r["seed"]]["result"]["metrics"][m["name"]]
                       ["value"], r["result"]["metrics"][m["name"]]["value"])
                      for r in n_runs if r["seed"] in by_seed]
            v = verdict(b, n, paired, m["bound"], m["better"] == "lower")
            any_bad = any_bad or v == "worse"
            bq, nq = quartiles(b), quartiles(n)
            change = (nq[1] - bq[1]) / bq[1] * 100.0 if bq[1] else 0.0
            print("  %-12s %9.4g [%9.4g, %9.4g] %9.4g [%9.4g, %9.4g]"
                  " %+7.1f%% %5.0f%%  %s" % (
                      m["name"], bq[1], bq[0], bq[2], nq[1], nq[0], nq[2],
                      change, m["bound"] * 100.0, v))

    layered = [w for w in workloads
               if (w, True) in base and (w, True) in new]
    if layered:
        print("\nper-layer medians (traced runs; no bound)")
        for workload in layered:
            for m in bench["per_layer"]:
                b = values_of(base[(workload, True)], m["name"])
                n = values_of(new[(workload, True)], m["name"])
                if b and n:
                    print("%-13s %-28s %12.5g %12.5g %s" % (
                        workload, m["name"], statistics.median(b),
                        statistics.median(n), m["unit"]))
    return 1 if any_bad else 0


if __name__ == "__main__":
    sys.exit(main())
