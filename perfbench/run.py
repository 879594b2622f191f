#!/usr/bin/env python3
"""The repository benchmark: one command, three closed-loop workloads.

    python3 perfbench/run.py --workload <mc_yield|synth_route|serve_mix|all>
                             --seed <n> --seconds <s> --trace <0|1> [--short]

Run from the repository root. Builds the libraries with the root project's
own settings and the measuring program in perfbench/ (into
$CARGO_TARGET_DIR, default .bench_build), then runs the workload.

--trace 0 prints the end-to-end metrics: the program's figures plus the
set-up time, the median of SETUP_REPEATS fresh-process start-ups.
--trace 1 runs the traced pass and the per-layer probes instead, prints the
per-layer metrics and writes a Chrome trace-event file.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is 0 only when every
correctness check passed and no request failed; build or set-up failures
exit 2 without a result.
See perfbench/README.md for the metric definitions.
"""

import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mc_yield", "synth_route", "serve_mix")
SETUP_REPEATS = 21
DEADLINE_S = 170  # a run must end within 180 s, build excluded


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def sh(cmd):
    res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if res.returncode != 0:
        die(f"command failed ({res.returncode}): {' '.join(cmd)}")


def build(out):
    """Builds the root project's libraries, then the measuring program."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        die(f"no repository sources in {ROOT}: nothing to benchmark")
    # Compiler and program temporaries stay inside the build directory too.
    tmp = os.path.abspath(os.path.join(out, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(min(4, os.cpu_count() or 1))
    lib_dir = os.path.join(out, "vcoadc")
    bench_dir = os.path.join(out, "perfbench")
    with open(os.path.join(out, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(lib_dir, "CMakeCache.txt")):
            sh(["cmake", "-S", ROOT, "-B", lib_dir, *gen])
        sh(["cmake", "--build", lib_dir, "--target", "vcoadc_core", "-j", jobs])
        if not os.path.isfile(os.path.join(bench_dir, "CMakeCache.txt")):
            sh(["cmake", "-S", HERE, "-B", bench_dir, *gen,
                f"-DVCOADC_BUILD_DIR={os.path.abspath(lib_dir)}"])
        sh(["cmake", "--build", bench_dir, "-j", jobs])
    return os.path.join(bench_dir, "perfbench")


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"  # an exported checkout
    try:
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if res.returncode == 0:
            return res.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def remaining(t0):
    left = DEADLINE_S - (time.monotonic() - t0)
    if left <= 0:
        die("out of time")
    return left


def setup_seconds(binary, workload, run_out, short, t0):
    """Median start-up time over fresh processes (lazy tables and FFT plans
    are per process, so each start-up pays them again)."""
    values = []
    for _ in range(SETUP_REPEATS):
        cmd = [binary, "--setup-only", "--workload", workload, "--out", run_out]
        if short:
            cmd.append("--short")
        res = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=remaining(t0))
        if res.returncode != 0:
            sys.stderr.write(res.stderr)
            die(f"set-up of {workload} failed")
        values.append(float(res.stdout.split()[-1]))
    return statistics.median(values)


def run_workload(binary, args, workload, run_out, sha, t0):
    """Runs one workload; returns (exit code, result object or None)."""
    setup = None
    if not args.trace:
        setup = setup_seconds(binary, workload, run_out, args.short, t0)
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", run_out, "--git-sha", sha]
    if args.short:
        cmd.append("--short")
    if args.inject_failure:
        cmd.append("--inject-failure")
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=remaining(t0))
    except subprocess.TimeoutExpired:
        die(f"{workload} did not finish in time")
    lines = res.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(res.stdout)
        die(f"{workload} printed no result (exit {res.returncode})")
    for line in lines[:-1]:
        print(line)
    if setup is not None:
        print(f"{'setup_s':<22} {setup:14.6g} s      median of {SETUP_REPEATS}")
        result["metrics"]["setup_s"] = {"value": setup, "unit": "s"}
    return res.returncode, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true",
                    help="tiny inputs, for the benchmark's own tests")
    ap.add_argument("--inject-failure", action="store_true",
                    help="make the first measured request invalid; the run "
                         "must then fail (for the benchmark's own tests)")
    args = ap.parse_args()
    if args.seconds <= 0:
        die("--seconds must be positive")

    out = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(out)
    # Relative, so the serve socket path stays inside sun_path's limit.
    run_out = os.path.relpath(os.path.join(out, "perfbench-out"))
    sha = git_sha()
    t0 = time.monotonic()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    code, results = 0, {}
    for w in workloads:
        if len(workloads) > 1:
            t0 = time.monotonic()
        rc, results[w] = run_workload(binary, args, w, run_out, sha, t0)
        code = code or rc
    if len(workloads) == 1:
        print(json.dumps(results[workloads[0]]))
    else:
        print(json.dumps(results))
    return code


if __name__ == "__main__":
    sys.exit(main())
