#!/usr/bin/env python3
"""Build and run the repository benchmark (see README.md).

One workload, machine-readable (the form BENCHMARK.json's command uses):

    python3 benchmark/run.py --workload scan --seed 42 --seconds 20 --trace 0

prints every metric of the set (--trace 0: end-to-end, --trace 1:
per-layer) with its unit and sample count, then, as the last line, one
JSON object {"correct", "attempted", "failed", "metrics"}.

Whole set, human-readable:

    python3 benchmark/run.py                      # untraced, every workload
    python3 benchmark/run.py --traced             # per-layer + trace overhead
    python3 benchmark/run.py --repeat 2 --check   # two sets must agree
    python3 benchmark/run.py --smoke              # tiny scale, < 10 s

Exits nonzero when a build fails, a run fails, or any output check
fails. Builds into $CARGO_TARGET_DIR (default .bench_build) under the
current directory, which must be the repository root.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configure (until it succeeds once) and build gpufs_bench; return
    its path."""
    out = build_dir()
    steps = []
    configured = any(os.path.exists(os.path.join(out, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        cfg = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cfg += ["-G", "Ninja"]
        steps.append(cfg)
    steps.append(["cmake", "--build", out, "--target", "gpufs_bench",
                  "-j", "3"])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True)
        if res.returncode != 0:
            sys.stderr.write(res.stdout[-4000:])
            sys.exit("benchmark build failed: " + " ".join(cmd))
    return os.path.join(out, "gpufs_bench")


def run_bench(binary, workload, seed, seconds, smoke=False, trace=None):
    """Run one workload in its own process; return its result dict."""
    out = os.path.join(os.path.dirname(binary) or ".",
                       "result-%s.json" % workload)
    cmd = [binary, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%s" % seconds, "--json=" + out]
    if smoke:
        cmd.append("--smoke")
    if trace:
        cmd.append("--trace=" + trace)
    if os.path.exists(out):
        os.remove(out)
    try:
        res = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("%s: no result within %d s" % (workload, RUN_TIMEOUT_S))
    # Exit code 3 reports failed output checks; the result is still there.
    if res.returncode not in (0, 3) or not os.path.exists(out):
        sys.exit("%s: gpufs_bench exited with %d" % (workload, res.returncode))
    with open(out) as f:
        result = json.load(f)
    result["correct"] = res.returncode == 0 and result["failed"] == 0
    return result


def fmt(value):
    return "%.6g" % value


def print_metrics(result, names):
    for name in names:
        m = result["metrics"][name]
        print("%-8s %-44s %14s %-9s n=%d" % (
            result["workload"], name, fmt(m["value"]), m["unit"],
            m["samples"]))


def contract_run(args, spec):
    """One workload; the last stdout line is the result JSON."""
    binary = args.bin or build()
    key = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in spec[key]]
    trace = None
    if args.trace:
        trace = os.path.join(os.path.dirname(binary),
                             "trace-%s.jsonl" % args.workload)
    r = run_bench(binary, args.workload, args.seed, args.seconds,
                  args.smoke, trace)
    print_metrics(r, names)
    print("%-8s %-44s %14d of %d ops" % (r["workload"], "failed",
                                         r["failed"], r["attempted"]))
    if trace:
        print("trace spans: " + trace)
    sys.stdout.flush()
    print(json.dumps({
        "correct": r["correct"],
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": {n: {"value": r["metrics"][n]["value"],
                        "unit": r["metrics"][n]["unit"]} for n in names},
    }))
    return 0 if r["correct"] else 1


def run_set(binary, spec, args):
    """Every workload once; return {workload: result}."""
    results = {}
    for w in [x["name"] for x in spec["workloads"]]:
        trace = None
        if args.traced:
            trace = os.path.join(os.path.dirname(binary),
                                 "trace-%s.jsonl" % w)
        t0 = time.time()
        results[w] = run_bench(binary, w, args.seed, args.seconds,
                               args.smoke, trace)
        results[w]["wall_s"] = time.time() - t0
    return results


def check_sets(sets, spec):
    """Each later set must agree with the first within every bound."""
    bad = 0
    for i, later in enumerate(sets[1:], start=2):
        for w, r0 in sets[0].items():
            for m in spec["end_to_end"]:
                a = r0["metrics"][m["name"]]["value"]
                b = later[w]["metrics"][m["name"]]["value"]
                diff = abs(b - a) / a if a else float(b != a)
                verdict = "ok" if diff <= m["bound"] else "DISAGREE"
                bad += verdict != "ok"
                print("check set 1 vs %d  %-8s %-16s %12s %12s  %6.2f%%"
                      " (bound %g%%)  %s" % (
                          i, w, m["name"], fmt(a), fmt(b), 100 * diff,
                          100 * m["bound"], verdict))
    return bad


def set_run(args, spec):
    binary = args.bin or build()
    e2e = [m["name"] for m in spec["end_to_end"]]
    layer = [m["name"] for m in spec["per_layer"]]
    sets = []
    incorrect = 0
    for rep in range(args.repeat):
        if args.repeat > 1:
            print("== set %d of %d" % (rep + 1, args.repeat))
        results = run_set(binary, spec, args)
        sets.append(results)
        for w, r in results.items():
            print_metrics(r, layer if args.traced else e2e)
            print("%-8s %-44s %14d of %d ops%s  (run took %.1f s)" % (
                w, "failed", r["failed"], r["attempted"],
                "" if r["correct"] else "  OUTPUT CHECK FAILED",
                r["wall_s"]))
            incorrect += not r["correct"]
            if args.save:
                with open(args.save, "a") as f:
                    f.write(json.dumps({
                        "workload": w, "seed": args.seed,
                        "correct": r["correct"], "traced": args.traced,
                        "metrics": r["metrics"]}) + "\n")
        if args.traced:
            print("tracing overhead (untraced vs traced wall_ops_per_s, "
                  "alternating segments of one run):")
            for w, r in results.items():
                m = r["metrics"]
                print("  %-8s %12s %12s  overhead %.1f%%" % (
                    w, fmt(m["trace.untraced_wall_ops_per_s"]["value"]),
                    fmt(m["trace.traced_wall_ops_per_s"]["value"]),
                    100 * m["trace.overhead_frac"]["value"]))
    status = 0
    if incorrect:
        print("%d run(s) failed their output checks" % incorrect)
        status = 1
    if args.check:
        if len(sets) < 2:
            sys.exit("--check needs --repeat 2 or more")
        bad = check_sets(sets, spec)
        print("check: %s" % ("PASS" if bad == 0 else
                             "FAIL (%d disagreements)" % bad))
        status = status or (1 if bad else 0)
    return status


def main():
    spec = load_spec()
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", help="run one workload (contract form)")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="with --workload: report per-layer metrics")
    p.add_argument("--traced", action="store_true",
                   help="set run: per-layer metrics and tracing overhead")
    p.add_argument("--repeat", type=int, default=1)
    p.add_argument("--check", action="store_true",
                   help="fail when sets disagree beyond a metric's bound")
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, one second per workload")
    p.add_argument("--save", help="append each result as a JSON line")
    p.add_argument("--bin", help="use this gpufs_bench binary, skip the build")
    args = p.parse_args()
    if args.smoke:
        args.seconds = min(args.seconds, 1)
    if args.workload:
        return contract_run(args, spec)
    return set_run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
