#!/usr/bin/env python3
"""The repo benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload lookup_scan --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke
    python3 perfbench/run.py --workload W --sweep 10 --save DIR [--trace 0|1]

Run from the repository root. The first call builds `cpambench` from source
with CMake into $CARGO_TARGET_DIR (default .bench_build). A run prints the
workload's figures under their own names, one per line, and then, as its
last line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are BENCHMARK.json's end_to_end list, measured
with tracing off; with --trace 1 they are its per_layer list, from a run
whose second half is traced (see extract.py).

--smoke runs all three workloads at tiny sizes, traced and untraced, with
their correctness gates, and checks every emitted metric name against
BENCHMARK.json. --sweep runs seeds 1..N and saves each result line to
DIR/<workload>__<seed>.json for compare.py.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import extract  # noqa: E402

WORKLOADS = ("lookup_scan", "update_churn", "serve_mixed")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
# The ingest pipeline exists only in serve_mixed; on the other workloads
# the benchmark-timed serving figures are zero, as their predictions say.
NO_PIPELINE = {"serving.apply_batch_ms_p50": 0, "serving.apply_batch_ms_p99": 0,
               "serving.batch_entries_mean": 0, "serving.rejected": 0,
               "serving.full_waits": 0}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(ROOT, ".bench_build"))


def build():
    """Configures once and builds cpambench; returns its path or None."""
    out = build_dir()
    cmds = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmds.append(["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    cmds.append(["cmake", "--build", out, "-j", "4"])
    for cmd in cmds:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            log("build failed:", err)
            return None
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("build failed:", " ".join(cmd))
            return None
    binary = os.path.join(out, "cpambench")
    return binary if os.path.exists(binary) else None


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_binary(binary, workload, seed, seconds, trace, smoke=False):
    """Runs one workload; returns (report dict, stderr text) or raises."""
    out_dir = os.path.join(build_dir(), "runs",
                           "%s-%d-%d" % (workload, seed, os.getpid()))
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--out", out_dir]
    if trace:
        cmd.append("--trace")
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError("cpambench exited with %d:\n%s" %
                               (proc.returncode, proc.stderr[-4000:]))
        lines = proc.stdout.strip().splitlines()
        if not lines:
            raise RuntimeError("cpambench printed nothing")
        report = json.loads(lines[-1])
        if trace:
            layer = dict(NO_PIPELINE)
            layer.update(report["layer"])
            layer.update(extract.extract(
                report["trace_files"], report["export"], proc.stderr,
                report["workers"]))
            report["layer"] = layer
        return report, proc.stderr
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def result_line(report, spec, trace):
    """The benchmark's last line, with exactly BENCHMARK.json's metrics."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    source = report["layer"] if trace else report["e2e"]
    metrics = {}
    for m in wanted:
        if m["name"] not in source:
            raise RuntimeError("metric %s was not measured" % m["name"])
        metrics[m["name"]] = {"value": source[m["name"]], "unit": m["unit"]}
    return {"correct": bool(report["correct"]),
            "attempted": int(report["attempted"]),
            "failed": int(report["failed"]),
            "metrics": metrics}


def print_named(report):
    for name, value, unit in report["named"]:
        print("%-28s %14.6g %s" % (name, value, unit))
    if report["error"]:
        print("FAILED CHECK: %s" % report["error"])


def one_run(args, spec):
    binary = build()
    if binary is None:
        return 1
    try:
        report, _ = run_binary(binary, args.workload, args.seed,
                               args.seconds, args.trace)
        line = result_line(report, spec, args.trace)
    except (RuntimeError, ValueError, KeyError, OSError,
            subprocess.TimeoutExpired) as err:
        log("run failed:", err)
        return 1
    print("workload %s  seed %d  seconds %g  trace %d" %
          (args.workload, args.seed, args.seconds, args.trace))
    print_named(report)
    if args.trace and report["layer"]["bench.trace_dropped"] > 0:
        print("WARNING: trace events lost to ring wrap; per-layer span "
              "figures are incomplete")
    print(json.dumps(line), flush=True)
    return 0


def sweep(args, spec):
    os.makedirs(args.save, exist_ok=True)
    for seed in range(1, args.sweep + 1):
        binary = build()
        if binary is None:
            return 1
        try:
            report, _ = run_binary(binary, args.workload, seed, args.seconds,
                                   args.trace)
            line = result_line(report, spec, args.trace)
        except (RuntimeError, ValueError, KeyError, OSError,
                subprocess.TimeoutExpired) as err:
            log("%s seed %d failed: %s" % (args.workload, seed, err))
            return 1
        path = os.path.join(args.save, "%s__%d.json" % (args.workload, seed))
        with open(path, "w") as f:
            f.write(json.dumps(line) + "\n")
        log("%s seed %d: correct=%s" % (args.workload, seed, line["correct"]))
    return 0


def smoke(spec):
    """All workloads at tiny n, traced and untraced; names must match."""
    binary = build()
    if binary is None:
        return 1
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            try:
                report, _ = run_binary(binary, workload, 1, 1, trace,
                                       smoke=True)
                line = result_line(report, spec, trace)
            except (RuntimeError, ValueError, KeyError) as err:
                log("smoke %s trace=%d: %s" % (workload, trace, err))
                ok = False
                continue
            wanted = {m["name"] for m in
                      spec["per_layer" if trace else "end_to_end"]}
            emitted = set(report["layer" if trace else "e2e"])
            extra = emitted - wanted
            good = line["correct"] and not extra and line["failed"] == 0
            log("smoke %-12s trace=%d correct=%s attempted=%d%s" %
                (workload, trace, line["correct"], line["attempted"],
                 "  unlisted metrics: %s" % sorted(extra) if extra else ""))
            if report["error"]:
                log("  failed check:", report["error"])
            ok = ok and good
    log("smoke:", "OK" if ok else "FAILED")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float,
                   help="run length (default: BENCHMARK.json run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--sweep", type=int, default=0)
    p.add_argument("--save")
    args = p.parse_args()
    try:
        spec = benchmark_spec()
    except (OSError, ValueError) as err:
        log("cannot read BENCHMARK.json:", err)
        return 1
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.smoke:
        return smoke(spec)
    if args.workload is None:
        p.error("--workload is required")
    if args.sweep:
        if not args.save:
            p.error("--sweep needs --save")
        return sweep(args, spec)
    return one_run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
