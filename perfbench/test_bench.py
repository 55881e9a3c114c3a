#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

    python3 perfbench/test_bench.py

Every workload runs at the tiny size, untraced and traced, and must pass
its output checks and print every metric BENCHMARK.json names, with its
unit. An untraced run's result must combine its processes' results. The seed must change the traffic and campaign inputs and leave the
Prop-1 counts unchanged. Without sources the runner must fail cleanly.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")
WORKLOADS = ["kv-ladder", "kv-storm-check", "fuzz-prop1"]

# The end-to-end figures every untraced run prints by name, "n/a" where
# the workload does not produce one.
NAMED = {
    "setup_s": "s", "host_req_per_s": "req/s",
    "alloc_words_per_req": "words/req", "peak_heap_mb": "MiB",
    "sim_read_p50_cycles": "cycles", "sim_read_p99_cycles": "cycles",
    "sim_update_p99_cycles": "cycles",
    "sim_capacity_ops_per_kcycle": "ops/kcycle",
    "sim_knee_rate": "ops/kcycle", "availability": "fraction",
    "check_s": "s", "check_decided": "0/1", "cells_per_s": "cells/s",
    "sweep_s": "s",
}


def bench(workload, seed=1, trace=0, cwd=ROOT):
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def lines_with(out, prefix):
    return [l.split(" ", 1)[1] for l in out.splitlines()
            if l.startswith(prefix + " ")]


class Bench(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        cls.runs = {}
        for w in WORKLOADS:
            for trace in (0, 1):
                p = bench(w, trace=trace)
                if p.returncode != 0:
                    raise AssertionError(f"{w} trace={trace}: {p.stderr}")
                cls.runs[(w, trace)] = p.stdout

    def result(self, w, trace):
        return json.loads(self.runs[(w, trace)].splitlines()[-1])

    def test_checks_pass(self):
        for (w, trace), out in self.runs.items():
            r = self.result(w, trace)
            self.assertTrue(r["correct"], f"{w} trace={trace}\n{out}")
            self.assertGreaterEqual(r["attempted"], 1)
            self.assertEqual(r["failed"], 0)
            checks = lines_with(out, "check")
            self.assertTrue(checks)
            for c in checks:
                self.assertTrue(c.startswith("ok:"), f"{w}: {c}")

    def test_metrics_match_benchmark_json(self):
        for (w, trace), _ in self.runs.items():
            key = "per_layer" if trace else "end_to_end"
            want = {m["name"]: m["unit"] for m in self.spec[key]}
            got = self.result(w, trace)["metrics"]
            self.assertEqual(set(got), set(want), f"{w} trace={trace}")
            for name, v in got.items():
                self.assertEqual(v["unit"], want[name], name)
                self.assertIsInstance(v["value"], (int, float), name)

    def test_named_metrics_printed(self):
        for w in WORKLOADS:
            named = {}
            for l in lines_with(self.runs[(w, 0)], "named"):
                name, value, unit = l.split()[:3]
                named[name] = (value, unit)
            self.assertEqual(set(named), set(NAMED), w)
            for name, (_, unit) in named.items():
                self.assertEqual(unit, NAMED[name], name)

    def test_traced_run_reports_spans(self):
        for w in WORKLOADS:
            out = self.runs[(w, 1)]
            self.assertEqual(len(lines_with(out, "self-time")), 9, w)
            span_file = lines_with(out, "spans")[0].split(" written to ")[1]
            with open(os.path.join(ROOT, span_file)) as f:
                self.assertTrue(json.load(f)["traceEvents"], w)

    def test_seed_changes_inputs(self):
        def digest(out):
            return lines_with(out, "digest-md5")[0]

        def prop1(out):
            return [l for l in lines_with(out, "digest") if l.startswith("prop1 ")]

        for w in WORKLOADS:
            self.assertNotEqual(digest(self.runs[(w, 0)]),
                                digest(bench(w, seed=2).stdout), w)
        other = bench("fuzz-prop1", seed=2).stdout
        self.assertTrue(prop1(other))
        self.assertEqual(prop1(self.runs[("fuzz-prop1", 0)]), prop1(other))

    def test_same_seed_same_digest(self):
        for w in WORKLOADS:
            untraced = lines_with(self.runs[(w, 0)], "digest")
            traced = lines_with(self.runs[(w, 1)], "digest")
            procs = len(lines_with(self.runs[(w, 0)], "digest-md5"))
            self.assertGreater(procs, 1, w)
            self.assertEqual(untraced, traced * procs, w)

    def test_untraced_run_combines_processes(self):
        for w in WORKLOADS:
            out = self.runs[(w, 0)]
            parts = [json.loads(l) for l in lines_with(out, "result")]
            self.assertGreater(len(parts), 1, w)
            r = self.result(w, 0)
            self.assertEqual(r["attempted"], sum(p["attempted"] for p in parts))
            for name, v in r["metrics"].items():
                self.assertEqual(
                    v["value"],
                    statistics.median(p["metrics"][name]["value"] for p in parts),
                    f"{w} {name}")

    def test_fails_without_sources(self):
        bare = os.path.join(ROOT, ".perfbench-out", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"),
                        os.path.join(bare, "perfbench"))
        p = bench("kv-ladder", cwd=bare)
        shutil.rmtree(bare)
        self.assertNotEqual(p.returncode, 0)
        self.assertNotIn("{", p.stdout)


if __name__ == "__main__":
    unittest.main()
