#!/usr/bin/env python3
"""Compare two sets of benchmark runs (standard library only).

    python3 perfbench/compare.py BASE_DIR HEAD_DIR [--metrics end_to_end|per_layer]

Each directory holds result lines as written by
`run.py --workload W --sweep N --save DIR`: one file per run, named
<workload>__<seed>.json, whose last line is the benchmark's JSON result.
For every (metric, workload) present on both sides it prints each side's
median and quartiles, the share of seed-matched pairs the head won (ties
count for neither), and a verdict judged against BENCHMARK.json's bounds:

  improved    head wins >= 90% of pairs and the medians differ by more
              than the base's own quartile spread, in the better direction
  regressed   head median worse than base median by more than the bound
  unresolved  not regressed, but the base's quartile spread is wider than
              the bound and not every head run beats every base run
  unchanged   otherwise

A workload whose head runs report more failed operations, or more runs
with "correct": false, than its base runs is regressed on every metric,
whatever the figures say: a gain does not count when more operations
fail. Per-layer metrics have no bound; their verdict uses a bound of 0.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_runs(directory):
    """{workload: {seed: result}}, each result the benchmark's JSON line."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*__*.json"))):
        name = os.path.basename(path)[:-len(".json")]
        workload, seed = name.rsplit("__", 1)
        with open(path) as f:
            lines = f.read().strip().splitlines()
        if not lines:
            continue
        result = json.loads(lines[-1])
        result["metrics"] = {k: v["value"]
                             for k, v in result["metrics"].items()}
        runs.setdefault(workload, {})[seed] = result
    return runs


def failures(runs):
    """(runs with correct false, failed operations) over a set of runs."""
    return (sum(1 for r in runs.values() if not r["correct"]),
            sum(int(r["failed"]) for r in runs.values()))


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, head, pairs, better, bound):
    """Classify one (metric, workload); see the module docstring."""
    b1, bmed, b3 = quartiles(base)
    _, hmed, _ = quartiles(head)
    sign = 1.0 if better == "higher" else -1.0
    won = sum(1 for b, h in pairs if sign * (h - b) > 0)
    share = won / len(pairs) if pairs else 0.0
    scale = abs(bmed) if bmed else 1.0
    worse = sign * (bmed - hmed) / scale
    spread = (b3 - b1) / scale
    if worse > bound:
        return "regressed", share
    if share >= 0.9 and sign * (hmed - bmed) > (b3 - b1):
        return "improved", share
    all_better = all(sign * (h - b) > 0 for h in head for b in base)
    if spread > bound and not all_better:
        return "unresolved", share
    return "unchanged", share


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("base")
    p.add_argument("head")
    p.add_argument("--metrics", choices=("end_to_end", "per_layer"),
                   default="end_to_end")
    p.add_argument("--spec", default=os.path.join(os.path.dirname(HERE),
                                                  "BENCHMARK.json"))
    args = p.parse_args()
    with open(args.spec) as f:
        spec = json.load(f)
    base, head = load_runs(args.base), load_runs(args.head)
    print("%-14s %-34s %-30s %-30s %6s  %s" %
          ("workload", "metric", "base median [q1, q3]",
           "head median [q1, q3]", "won", "verdict"))
    for workload in sorted(set(base) & set(head)):
        b_fail, h_fail = failures(base[workload]), failures(head[workload])
        more_failed = h_fail[0] > b_fail[0] or h_fail[1] > b_fail[1]
        print("%-14s %-34s %-30s %-30s %6s  %s" % (
            workload, "incorrect runs / failed ops",
            "%d / %d" % b_fail, "%d / %d" % h_fail, "",
            "regressed" if more_failed else "unchanged"))
        b_runs = {s: r["metrics"] for s, r in base[workload].items()}
        h_runs = {s: r["metrics"] for s, r in head[workload].items()}
        for m in spec[args.metrics]:
            name = m["name"]
            bv = [r[name] for r in b_runs.values() if name in r]
            hv = [r[name] for r in h_runs.values() if name in r]
            if not bv or not hv:
                continue
            pairs = [(b_runs[s][name], h_runs[s][name])
                     for s in sorted(set(b_runs) & set(h_runs))
                     if name in b_runs[s] and name in h_runs[s]]
            v, share = verdict(bv, hv, pairs, m["better"],
                               m.get("bound", 0.0))
            if more_failed:
                v = "regressed"
            bq, hq = quartiles(bv), quartiles(hv)
            print("%-14s %-34s %-30s %-30s %5.0f%%  %s" % (
                workload, name,
                "%.4g [%.4g, %.4g]" % (bq[1], bq[0], bq[2]),
                "%.4g [%.4g, %.4g]" % (hq[1], hq[0], hq[2]),
                100 * share, v))
    return 0


if __name__ == "__main__":
    sys.exit(main())
