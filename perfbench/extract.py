#!/usr/bin/env python3
"""Per-layer metrics from a traced benchmark run (standard library only).

Reads what the library already exports during the traced window:

  * Chrome trace-event JSON segments written by obs::trace::write_json
    (the library's own spans: task, park, join_park, merge, merge_chunk,
    merge_join, publish, reclaim, apply_batch; and the benchmark's
    "bench"-category spans around its calls into core);
  * the cpam-metrics-v1 export of obs::export_json (counters, histograms
    and the scheduler and pool sources, zeroed when the window opened);
  * the run's stderr, where the library reports trace events lost to ring
    wrap.

Self time of a span is its duration minus the time its direct children on
the same thread cover (spans on one thread nest, since they are scoped).

    python3 perfbench/extract.py METRICS_JSON TRACE_JSON... [--workers N]
"""

import json
import math
import re
import sys

DROPPED_RE = re.compile(r"cpam trace: (\d+) events dropped")


def load_spans(paths):
    """Complete ('X') events as (tid, start_us, dur_us, name)."""
    spans = []
    for path in paths:
        with open(path) as f:
            for ev in json.load(f)["traceEvents"]:
                if ev.get("ph") == "X":
                    spans.append((ev["tid"], float(ev["ts"]),
                                  float(ev["dur"]), ev["name"]))
    return spans


def self_times(spans):
    """Per span name: list of (duration_us, self_us)."""
    out = {}
    by_tid = {}
    for tid, ts, dur, name in spans:
        by_tid.setdefault(tid, []).append((ts, dur, name))
    for events in by_tid.values():
        # Parents first: earlier start, and longer span on equal starts.
        events.sort(key=lambda e: (e[0], -e[1]))
        stack = []  # [end, dur, name, child_us]

        def close(item):
            out.setdefault(item[2], []).append((item[1], item[1] - item[3]))

        for ts, dur, name in events:
            while stack and stack[-1][0] <= ts:
                close(stack.pop())
            if stack:
                stack[-1][3] += dur
            stack.append([ts + dur, dur, name, 0.0])
        while stack:
            close(stack.pop())
    return out


def quantile(values, q):
    """Nearest-rank quantile; 0 for no samples."""
    if not values:
        return 0.0
    v = sorted(values)
    rank = max(1, math.ceil(q * len(v)))
    return v[min(len(v), rank) - 1]


def extract(trace_files, export_path, stderr_text="", workers=1):
    spans = load_spans(trace_files)
    with open(export_path) as f:
        export = json.load(f)
    st = self_times(spans)
    counters = export.get("counters", {})
    hists = export.get("histograms", {})
    sources = export.get("sources", {})
    sched = sources.get("scheduler") or {}
    pool = sources.get("pool") or []

    def durs(name, scale):
        return [d * scale for d, _ in st.get(name, [])]

    def self_ms(name):
        return sum(s for _, s in st.get(name, [])) / 1e3

    def total_ms(name):
        return sum(d for d, _ in st.get(name, [])) / 1e3

    m = {}
    for name, metric, scale in (
            ("core.find", "core.find_ns", 1e3),
            ("core.aug_range", "core.aug_range_ns", 1e3),
            ("core.multi_insert", "core.multi_insert_ms", 1e-3),
            ("core.multi_delete", "core.multi_delete_ms", 1e-3),
            ("core.union", "core.union_ms", 1e-3)):
        d = durs(name, scale)
        m[metric + "_p50"] = quantile(d, 0.5)
        m[metric + "_p99"] = quantile(d, 0.99)
    for name in ("merge", "merge_chunk", "merge_join"):
        m["core.%s.self_ms" % name] = self_ms(name)
    m["core.merge.chunks"] = len(st.get("merge_chunk", []))
    m["core.merge.fallbacks"] = counters.get("merge.fallbacks", 0)

    for key in ("allocs", "frees", "refill_batches", "drain_batches",
                "slab_carves"):
        m["alloc." + key] = sum(c.get(key, 0) for c in pool)

    for key in ("forks", "steals", "failed_steals", "inline_reclaims",
                "parks", "join_parks"):
        m["parallel." + key] = sched.get(key, 0)
    attempts = sched.get("steals", 0) + sched.get("failed_steals", 0)
    m["parallel.steal_ratio"] = (sched.get("steals", 0) / attempts
                                 if attempts else 0.0)
    m["parallel.park_ms"] = total_ms("park")
    m["parallel.join_park_ms"] = total_ms("join_park")
    if spans:
        wall_us = (max(ts + dur for _, ts, dur, _ in spans) -
                   min(ts for _, ts, _, _ in spans))
    else:
        wall_us = 0.0
    m["parallel.busy_frac"] = (total_ms("task") * 1e3 / (wall_us * workers)
                               if wall_us > 0 else 0.0)

    def hist(name, pct):
        return hists.get(name, {}).get(pct, 0)

    m["serving.acquire_ns_p50"] = hist("serving.acquire_ns", "p50")
    m["serving.acquire_ns_p99"] = hist("serving.acquire_ns", "p99")
    m["serving.publish_ns_p50"] = hist("serving.publish_ns", "p50")
    m["serving.publish_ns_p99"] = hist("serving.publish_ns", "p99")
    m["serving.reclaim_ns_p99"] = hist("serving.reclaim_ns", "p99")
    for key in ("published", "reclaimed", "retired_backlog_hw"):
        m["serving." + key] = counters.get("serving." + key, 0)

    m["bench.trace_dropped"] = sum(
        int(x) for x in DROPPED_RE.findall(stderr_text or ""))
    return m


def main():
    args = sys.argv[1:]
    workers = 1
    if "--workers" in args:
        i = args.index("--workers")
        workers = int(args[i + 1])
        del args[i:i + 2]
    if len(args) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    result = extract(args[1:], args[0], "", workers)
    for name in sorted(result):
        print("%-32s %g" % (name, result[name]))
    if result["bench.trace_dropped"]:
        print("WARNING: trace events were dropped", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
