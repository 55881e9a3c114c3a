#!/usr/bin/env python3
"""Build and run the CXL0 stack's benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload kv-ladder --seed 1 --seconds 20 --trace 0

Builds perfbench/cxl0bench.exe with dune (the repository's libraries are
private to its dune project, so the benchmark builds inside it), runs one
workload, and relays the benchmark's output. An untraced run is split
over PROCS fresh processes, one after another, each measuring for an
equal share of --seconds; each end-to-end metric is the median of theirs
(a process's speed on a shared host varies with more than the host's
load: see NOTES.md, "Steadiness"). A traced run is one process. The last
line of standard output is one JSON object: correct, attempted, failed
and metrics (the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1). Exits non-zero without printing a result when
the checkout has no sources, the build fails, a run fails or the runs
overrun their time.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

WORKLOADS = ["kv-ladder", "kv-storm-check", "fuzz-prop1"]
TARGET = "./perfbench/cxl0bench.exe"
EXE = os.path.join("_build", "default", "perfbench", "cxl0bench.exe")
# A run ends within 180 s; the first run in a checkout, which builds,
# within 900 s.
RUN_LIMIT_S = 170
FIRST_RUN_LIMIT_S = 880
# Processes an untraced run is split over.
PROCS = 3

child = None


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def stop_child(*_):
    if child is not None and child.poll() is None:
        child.kill()
        child.wait()
    die("interrupted", 1)


def run_child(cmd, timeout, stdout):
    """Run cmd to completion within timeout seconds; kill it if it overruns."""
    global child
    child = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr, text=True)
    try:
        out, _ = child.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        die(f"{cmd[0]} overran its {timeout:.0f} s budget", 1)
    code = child.returncode
    child = None
    return code, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, required=True, choices=[0, 1])
    ap.add_argument("--size", default="full", choices=["full", "tiny"],
                    help="input size; tiny is for the benchmark's own tests")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0")

    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            die(f"no {need} here: run from the root of a source checkout")

    signal.signal(signal.SIGTERM, stop_child)
    signal.signal(signal.SIGINT, stop_child)

    start = time.monotonic()
    # the dune cache lives outside the checkout: keep it off
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = ["dune", "build", "--root", ".", "--cache=disabled",
             "--display=quiet", TARGET]
    global child
    child = subprocess.Popen(build, stdout=sys.stderr, stderr=sys.stderr, env=env)
    try:
        child.wait(timeout=FIRST_RUN_LIMIT_S - 60)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        die("build overran its budget", 1)
    if child.returncode != 0:
        die(f"build failed (dune exit {child.returncode})", 1)
    child = None
    built_s = time.monotonic() - start
    limit = FIRST_RUN_LIMIT_S if built_s > 10 else RUN_LIMIT_S

    procs = 1 if args.trace else PROCS
    results, digests = [], set()
    for i in range(procs):
        cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds / procs),
               "--trace", str(args.trace), "--size", args.size]
        code, out = run_child(cmd, limit - (time.monotonic() - start),
                              subprocess.PIPE)
        if code != 0:
            sys.stderr.write(out)
            die(f"benchmark exited with {code}", 1)
        lines = out.rstrip("\n").split("\n")
        try:
            result = json.loads(lines[-1])
        except ValueError:
            sys.stderr.write(out)
            die("benchmark printed no result line", 1)
        if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
            die(f"malformed result keys {sorted(result)}", 1)
        results.append(result)
        digests.update(l for l in lines if l.startswith("digest-md5 "))
        if procs > 1:
            print(f"process {i + 1}/{procs}")
            lines[-1] = "result " + lines[-1]
        print("\n".join(lines), flush=True)
    if procs == 1:
        return
    # the same seed simulates the same thing in every process
    same = len(digests) == 1
    print(f"check {'ok' if same else 'FAILED'}: simulation digest identical "
          f"across the {procs} processes")
    combined = combine(results)
    combined["correct"] = combined["correct"] and same
    for name, m in combined["metrics"].items():
        print(f"metric {name} {m['value']!r} {m['unit']} (median of {procs})")
    print(json.dumps(combined))


def combine(results):
    """One result from the processes' results: every check must pass in
    every process, operations add up, each metric is the median."""
    metrics = {}
    for name, m in results[0]["metrics"].items():
        metrics[name] = {
            "value": statistics.median(r["metrics"][name]["value"] for r in results),
            "unit": m["unit"],
        }
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


if __name__ == "__main__":
    main()
