#!/usr/bin/env python3
"""Compare benchmark results of a parent commit and a change.

    python3 benchmark/compare.py parent.jsonl change.jsonl

Each file holds the JSON lines `run.py --save FILE` appends, one per
workload run. The i-th run of a workload in one file is paired with the
i-th run of that workload in the other; collect at least ten pairs,
alternating which side runs first (see README.md).

For every metric and workload it prints both sides' median and
quartiles and the fraction of pairs the change wins (ties count for
neither). Per-layer metrics have no bound, so they never regress.
Verdicts:

  gain        the change wins >= 9/10 of pairs and the medians differ
              by more than the parent's quartile distance
  REGRESSION  an end-to-end metric's change median is worse than the
              parent median by more than its BENCHMARK.json bound
  unresolved  the parent's own spread is wider than the bound and not
              every change run beats every parent run
  same        none of the above

Exits 1 when any end-to-end metric regresses on any workload. Stdlib
only.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                r = json.loads(line)
                runs.setdefault(r["workload"], []).append(r)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    """Return (wins, verdict) for one metric on one workload."""
    sign = 1 if better == "higher" else -1
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    worse_by = -sign * (cm - pm) / pm if pm else 0.0
    if bound is not None and worse_by > bound:
        return wins, "REGRESSION"
    if wins >= 0.9 * len(pairs) and sign * (cm - pm) > (p3 - p1):
        return wins, "gain"
    spread = (p3 - p1) / pm if pm else 0.0
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if bound is not None and spread > bound and not all_better:
        return wins, "unresolved"
    return wins, "same"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = [(m["name"], m["better"], m["bound"])
               for m in spec["end_to_end"]]
    metrics += [(m["name"], m["better"], None) for m in spec["per_layer"]]

    parent, change = load_runs(args.parent), load_runs(args.change)
    regressions = 0
    print("%-8s %-40s %27s %27s %7s  %s" % (
        "workload", "metric", "parent median [q1, q3]",
        "change median [q1, q3]", "wins", "verdict"))
    for w in [x["name"] for x in spec["workloads"]]:
        n = min(len(parent.get(w, [])), len(change.get(w, [])))
        if n == 0:
            print("%-8s no paired runs" % w)
            continue
        if n < 10:
            print("%-8s only %d pairs (want >= 10)" % (w, n))
        for name, better, bound in metrics:
            pv = [r["metrics"][name]["value"] for r in parent[w][:n]]
            cv = [r["metrics"][name]["value"] for r in change[w][:n]]
            wins, v = verdict(pv, cv, better, bound)
            regressions += v == "REGRESSION"
            p1, pm, p3 = quartiles(pv)
            c1, cm, c3 = quartiles(cv)
            print("%-8s %-40s %9.4g [%7.4g, %7.4g] %9.4g [%7.4g, %7.4g]"
                  " %3d/%-3d  %s" % (w, name, pm, p1, p3, cm, c1, c3,
                                     wins, n, v))
        bad = [r for r in change[w][:n] if not r.get("correct", True)]
        if bad:
            print("%-8s %d change run(s) failed output checks" % (w, len(bad)))
            regressions += 1
    print("result: %s" % ("REGRESSION" if regressions else "no regression"))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
