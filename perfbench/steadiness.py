#!/usr/bin/env python3
"""Steadiness report: runs the workloads repeatedly, interleaved, and prints
each end-to-end metric's median, quartiles and (q3 - q1) / median.

    python3 perfbench/steadiness.py [--out FILE]

Run from the root of a checkout. It makes two sets of ten runs. Run i of a
set uses seed 101 + i and visits every workload of BENCHMARK.json once,
each in its own process (perfbench/run.py with --seconds from
BENCHMARK.json), starting one workload later than run i - 1. Quartiles are
those of Python's statistics.quantiles(values, n=4). Each spread is held to
the metric's bound in BENCHMARK.json and reported against a third of it,
the margin the bounds aim for. The second set repeats the first, and each
of its medians must be within the bound of the first set's, in either
direction. Then every workload runs traced twice at seed 101, and every
per-layer metric that is not a time must repeat exactly. The exit code is 0
when every run passed its checks, every spread and median is within its
bound and the counts repeat.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FIRST_SEED = 101
RUNS = 10
SETS = 2


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    wall = time.monotonic() - t0
    try:
        result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    except (ValueError, IndexError):
        result = None
    ok = (proc.returncode == 0 and result is not None and result["correct"]
          and result["failed"] == 0)
    return ok, result, wall


def collect(spec, workloads, log):
    values = {w: {m["name"]: [] for m in spec["end_to_end"]}
              for w in workloads}
    walls, failures = [], []
    for i in range(RUNS):
        seed = FIRST_SEED + i
        k = i % len(workloads)
        for w in workloads[k:] + workloads[:k]:
            ok, result, wall = run(w, seed, spec["run_seconds"], 0)
            walls.append(wall)
            if not ok:
                failures.append("%s seed %d" % (w, seed))
                log("  %s seed %d FAILED" % (w, seed))
                continue
            for name, m in result["metrics"].items():
                values[w][name].append(m["value"])
            log("  %-26s seed %-4d %5.1f s  %s" % (
                w, seed, wall, "  ".join(
                    "%s=%.6g" % (n, m["value"])
                    for n, m in result["metrics"].items())))
    return values, walls, failures


def report(spec, sets, lines):
    """Appends the table; returns (all within bound, all below bound / 3)."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    within, below_third = True, True
    header = ("| workload | metric | set | median | q1 | q3 | (q3-q1)/median"
              " | bound | verdict |")
    lines += [header, "|" + "---|" * 9]
    for w in sets[0]:
        for name, bound in bounds.items():
            medians = []
            for s, values in enumerate(sets):
                v = values[w][name]
                if len(v) < 2:
                    lines.append("| %s | %s | %d | too few runs | | | | | "
                                 "FAIL |" % (w, name, s + 1))
                    within = below_third = False
                    continue
                med = statistics.median(v)
                q1, _, q3 = statistics.quantiles(v, n=4)
                spread = (q3 - q1) / med
                if spread <= bound / 3:
                    verdict = "below bound/3"
                elif spread <= bound:
                    verdict = "within bound"
                    below_third = False
                else:
                    verdict = "OVER BOUND"
                    within = below_third = False
                if s > 0 and medians:
                    drift = med / medians[0] - 1
                    good = abs(drift) <= bound
                    verdict += "; median %+.1f%% vs set 1 (%s)" % (
                        100 * drift, "ok" if good else "OVER BOUND")
                    within = within and good
                medians.append(med)
                lines.append("| %s | %s | %d | %.6g | %.6g | %.6g | %.4f | "
                             "%.2f | %s |" % (w, name, s + 1, med, q1, q3,
                                               spread, bound, verdict))
    return within, below_third


def check_counts(spec, workloads, lines, log):
    times = {m["name"] for m in spec["per_layer"] if m["unit"] == "s"}
    ok = True
    for w in workloads:
        results = []
        for _ in range(2):
            good, result, wall = run(w, FIRST_SEED, spec["run_seconds"], 1)
            log("  traced %-26s seed %d %5.1f s %s" % (
                w, FIRST_SEED, wall, "ok" if good else "FAILED"))
            results.append(result if good else None)
        if None in results:
            lines.append("- %s: traced run failed" % w)
            ok = False
            continue
        counts = {n: m["value"] for n, m in results[0]["metrics"].items()
                  if n not in times}
        again = {n: m["value"] for n, m in results[1]["metrics"].items()
                 if n not in times}
        same = counts == again
        ok = ok and same
        shown = ", ".join("%s %g" % (n, v) for n, v in counts.items() if v)
        lines.append("- %s: counts %s across two traced runs (%s)" % (
            w, "repeat exactly" if same else "DIFFER", shown))
    return ok


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--out", help="also write the report to this file")
    a = p.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]

    def log(msg):
        print(msg, file=sys.stderr, flush=True)

    started = time.monotonic()
    sets, walls, failures = [], [], []
    for s in range(SETS):
        log("set %d" % (s + 1))
        values, w, f = collect(spec, workloads, log)
        sets.append(values)
        walls += w
        failures += f

    lines = ["# perfbench steadiness report", "",
             "%d run(s) x %d workload(s) x %d set(s), seeds %d..%d, "
             "--seconds %g; host: %d cores." % (
                 RUNS, len(workloads), SETS, FIRST_SEED,
                 FIRST_SEED + RUNS - 1, spec["run_seconds"],
                 os.cpu_count() or 0),
             ""]
    within, below_third = report(spec, sets, lines)
    mean_wall = statistics.mean(walls) if walls else 0.0
    lines += ["", "Failed runs: %d%s" % (len(failures), (" (" + ", ".join(
        failures) + ")") if failures else ""),
              "Mean wall time per run: %.1f s." % mean_wall]
    lines += ["", "## Exact counts", ""]
    counts = check_counts(spec, workloads, lines, log)
    ok = within and counts and not failures
    lines += ["",
              "Every spread and median within its bound: %s." % (
                  "yes" if within else "NO"),
              "Every spread below a third of its bound: %s." % (
                  "yes" if below_third else "no"),
              "Verdict: %s (%.0f s)" % ("pass" if ok else "FAIL",
                                        time.monotonic() - started)]
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if a.out:
        with open(a.out, "w") as f:
            f.write(text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
