#!/usr/bin/env python3
"""Build and run the wire-to-event benchmark (see wirebench/README.md).

One workload, as BENCHMARK.json runs it (the last stdout line is
the JSON result):

    python3 wirebench/run.py --workload live_wire --seed 1 --seconds 20 --trace 0

Every workload, one table of all metrics with their units (exits non-zero
if any output check fails):

    python3 wirebench/run.py --workload all --seed 1 --seconds 20 --trace 0

The first call configures and builds the wivi library and the program
under .bench_build/ at the root of the source tree (CMake, Release).
Traced runs (--trace 1) write a Chrome trace to .bench_build/traces/.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "wirebench")
BINARY = os.path.join(BUILD, "wirebench")
WORKLOADS = ["live_wire", "replay_fleet", "archive_batch"]


def build():
    """Configure (once) and build; build output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.stderr.write("wirebench: build failed: %s\n" % " ".join(cmd))
            sys.exit(2)


def run_one(workload, seed, seconds, trace, echo=True):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%d.json" % (workload, seed))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    return proc.returncode, proc.stdout


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    build()
    if args.workload != "all":
        rc, _ = run_one(args.workload, args.seed, args.seconds, args.trace)
        sys.exit(rc)

    status = 0
    table = []
    for w in WORKLOADS:
        rc, out = run_one(w, args.seed, args.seconds, args.trace, echo=False)
        lines = out.strip().splitlines()
        for line in lines:
            if line.startswith("problem "):
                print("%s: %s" % (w, line))
        if rc != 0 or not lines:
            status = 1
            print("%s: FAILED (exit %d)" % (w, rc))
            continue
        res = json.loads(lines[-1])
        for name, m in res["metrics"].items():
            table.append((w, name, m["value"], m["unit"]))
        table.append((w, "correct", res["correct"], ""))
    for w, name, value, unit in table:
        print("%-14s %-28s %16s %s" % (w, name, value, unit))
    sys.exit(status)


if __name__ == "__main__":
    main()
