#!/usr/bin/env python3
"""End-to-end benchmark of cwcsim.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

`--workload all` runs every workload in turn (one result line each) and
exits non-zero if any run did.

Builds the library and the benchmark driver from this checkout's sources
(Release, into .bench_build/perfbench), runs the driver's self-test, then
one benchmark run. The driver checks every repetition's outputs against a
serial replay and prints, as its last stdout line, one JSON object with
`correct`, `attempted`, `failed` and `metrics` (end-to-end metrics with
--trace 0, per-layer metrics with --trace 1). Build output goes to stderr.
Full results, with the toolchain record and nproc, and Chrome traces are
written under .bench_build/results.

Exit code: the driver's (1 when an output check failed); non-zero without a
result line when the build or the self-test fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS = os.path.join(ROOT, ".bench_build", "results")
RUN_TIMEOUT_S = 175


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)  # retry from scratch next time
            return False
    cmd = ["cmake", "--build", BUILD, "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    selftest = os.path.join(BUILD, "perfbench_selftest")
    if subprocess.run([selftest], stdout=sys.stderr).returncode != 0:
        print("perfbench: self-test failed", file=sys.stderr)
        return 3

    os.makedirs(RESULTS, exist_ok=True)
    driver = os.path.join(BUILD, "perfbench_driver")
    names = [args.workload]
    if args.workload == "all":
        listing = subprocess.run([driver, "--list"], capture_output=True, text=True)
        names = listing.stdout.split()
    worst = 0
    for name in names:
        cmd = [
            driver,
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--build-info", os.path.join(BUILD, "build_info.json"),
            "--out-dir", RESULTS,
        ]
        sys.stdout.flush()
        try:
            rc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
            rc = 4
        worst = worst or rc
    return worst


if __name__ == "__main__":
    sys.exit(main())
