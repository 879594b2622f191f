#!/usr/bin/env python3
"""Tests of the benchmark itself.

Each workload runs at a tiny size (--short), untraced and traced; every
metric BENCHMARK.json names must be printed with its unit, every check must
pass, and the traced run must leave a readable Chrome trace. A run whose
first request is invalid must fail. A copy of the benchmark without the
repository sources must fail without a result.

    python3 perfbench/test_perfbench.py        (from the repository root)
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

# The user-facing figures each untraced workload prints by name.
NAMED = {
    "mc_yield": ["mc_draws_per_s", "peak_rss_mb", "failed_ratio", "setup_s"],
    "synth_route": ["synth_p50_ms", "peak_rss_mb", "failed_ratio", "setup_s"],
    "serve_mix": ["serve_p50_ms", "serve_p95_ms", "serve_req_per_s",
                  "warm_start_p50_ms", "peak_rss_mb", "failed_ratio",
                  "setup_s"],
}


def bench(workload, trace, cwd=ROOT, extra=()):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--short", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=1200)


class ShortRuns(unittest.TestCase):
    def check(self, workload, trace):
        res = bench(workload, trace)
        self.assertEqual(res.returncode, 0, res.stdout[-3000:] + res.stderr[-3000:])
        lines = res.stdout.strip().splitlines()
        out = json.loads(lines[-1])
        self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(out["correct"], True)
        self.assertEqual(out["failed"], 0)
        self.assertGreaterEqual(out["attempted"], 1)
        kind = "per_layer" if trace else "end_to_end"
        want = {m["name"]: m["unit"] for m in SPEC[kind]}
        self.assertEqual(set(out["metrics"]), set(want))
        for name, m in out["metrics"].items():
            self.assertEqual(m["unit"], want[name], name)
            self.assertTrue(math.isfinite(m["value"]), name)
            if not trace:
                self.assertGreater(m["value"], 0, name)
        text = "\n".join(lines[:-1])
        self.assertIn("host: simd=", text)
        if trace:
            out_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
            path = os.path.join(ROOT, out_dir, "perfbench-out",
                                f"trace-{workload}-7.json")
            with open(path) as f:
                events = json.load(f)["traceEvents"]
            self.assertTrue(events)
            for key in ("name", "ts", "dur", "args"):
                self.assertIn(key, events[0])
            self.assertIn("request_id", events[0]["args"])
        else:
            for name in NAMED[workload]:
                self.assertIn(name, text)

    def test_mc_yield(self):
        self.check("mc_yield", 0)

    def test_mc_yield_traced(self):
        self.check("mc_yield", 1)

    def test_synth_route(self):
        self.check("synth_route", 0)

    def test_synth_route_traced(self):
        self.check("synth_route", 1)

    def test_serve_mix(self):
        self.check("serve_mix", 0)

    def test_serve_mix_traced(self):
        self.check("serve_mix", 1)

    def check_failed_request_fails_the_run(self, workload):
        res = bench(workload, 0, extra=("--inject-failure",))
        self.assertEqual(res.returncode, 1, res.stdout[-3000:] + res.stderr[-3000:])
        out = json.loads(res.stdout.strip().splitlines()[-1])
        self.assertIs(out["correct"], False)
        self.assertGreaterEqual(out["failed"], 1)

    def test_mc_yield_failed_request_fails_the_run(self):
        self.check_failed_request_fails_the_run("mc_yield")

    def test_synth_route_failed_request_fails_the_run(self):
        self.check_failed_request_fails_the_run("synth_route")

    def test_serve_mix_failed_request_fails_the_run(self):
        self.check_failed_request_fails_the_run("serve_mix")

    def test_without_sources_fails_without_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            res = bench("mc_yield", 0, cwd=tmp)
            self.assertNotEqual(res.returncode, 0)
            self.assertNotIn('"correct"', res.stdout)


if __name__ == "__main__":
    unittest.main()
