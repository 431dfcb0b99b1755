#!/usr/bin/env python3
"""Builds perfbench from source and runs one workload in its own process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N --seconds S --trace 0|1]

Run from the root of a checkout. The first call configures and compiles
perfbench/ (which compiles the library from src/) into .bench_build/, or into
$CARGO_TARGET_DIR when that is set; later calls only check it is up to
date. The benchmark's own output is passed through; its last line is one
JSON object with `correct`, `attempted`, `failed` and `metrics`. The exit
code is the benchmark's: 0 only when every operation and check passed.

`--workload all` runs every workload of BENCHMARK.json serially, each in
its own process, and ends with one JSON object whose metric names are
prefixed with the workload name.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, d)


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    out = os.path.join(build_dir(), "perfbench")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail("build step %s failed: %s" % (cmd[:2], e))
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (exit %d); full log in %s" % (rc, log_path))
    return os.path.join(out, "perfbench")


def run_one(binary, workload, seed, seconds, trace, spec):
    """Runs one workload; returns (exit code, output lines, result)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--scratch", os.path.join(build_dir(), "run")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout or "")
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(proc.stdout)
        fail("%s printed no result (exit %d)" % (workload, proc.returncode))
    if spec is not None:
        kind = "per_layer" if trace else "end_to_end"
        want = {m["name"] for m in spec[kind]}
        if set(result["metrics"]) != want:
            sys.stdout.write("\n".join(lines[:-1]) + "\n")
            fail("%s reported metrics %s, BENCHMARK.json lists %s"
                 % (workload, sorted(result["metrics"]), sorted(want)))
    return proc.returncode, lines, result


def main():
    spec = load_spec()
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float,
                   default=spec["run_seconds"] if spec else 20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()

    binary = build()
    if a.workload != "all":
        rc, lines, _ = run_one(binary, a.workload, a.seed, a.seconds,
                               a.trace, spec)
        print("\n".join(lines), flush=True)
        return rc

    if spec is None:
        fail("--workload all needs BENCHMARK.json")
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for w in spec["workloads"]:
        rc, lines, result = run_one(binary, w["name"], a.seed, a.seconds,
                                    a.trace, spec)
        print("\n".join(lines[:-1]), flush=True)
        worst = worst or rc
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            merged["metrics"][w["name"] + "." + name] = m
    print(json.dumps(merged), flush=True)
    return worst


if __name__ == "__main__":
    sys.exit(main())
