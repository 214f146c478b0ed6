#!/usr/bin/env python3
"""Steadiness check: run each workload N times and report each metric's spread.

For every workload, runs the benchmark command from BENCHMARK.json N times
with seeds base, base+1, ... and prints, per metric, the median, the first
and third quartiles (statistics.quantiles(values, n=4)) and the spread
(Q3 - Q1) / median. With --trace 0 each end-to-end metric's spread is
compared with a third of its bound (the target) and with the bound itself.

    python3 perfbench/steady.py --runs 10                 # every workload
    python3 perfbench/steady.py --runs 5 --workloads large-sim --seed 101

Run from the repository root. Exits 1 when a run fails, 0 otherwise; the
table says which spreads miss their target.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if proc.returncode != 0 or result is None or not result["correct"]:
        sys.stderr.write(proc.stderr[-2000:])
        raise RuntimeError("%s seed %d failed (exit %d)" %
                           (workload, seed, proc.returncode))
    return result


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="first seed")
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--json", help="also write every value here")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {}
    for workload in args.workloads.split(","):
        per_metric = values.setdefault(workload, {})
        for i in range(args.runs):
            result = run_once(bench, workload, args.seed + i, args.trace)
            for name, metric in result["metrics"].items():
                per_metric.setdefault(name, []).append(metric["value"])
            print("ran %s seed %d" % (workload, args.seed + i), file=sys.stderr)

    print("%-12s %-28s %12s %12s %12s %8s %7s %s" %
          ("workload", "metric", "median", "q1", "q3", "spread", "bound",
           "verdict"))
    for workload, per_metric in values.items():
        for name, series in per_metric.items():
            med, q1, q3, spread = summarize(series)
            bound = bounds.get(name) if args.trace == 0 else None
            verdict = ""
            if bound is not None:
                verdict = ("ok" if spread < bound / 3 else
                           "within bound" if spread <= bound else "TOO WIDE")
            print("%-12s %-28s %12.6g %12.6g %12.6g %8.4f %7s %s" %
                  (workload, name, med, q1, q3, spread,
                   "" if bound is None else bound, verdict))
    if args.json:
        Path(args.json).write_text(json.dumps(values, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except RuntimeError as error:
        print("steady.py: %s" % error, file=sys.stderr)
        sys.exit(1)
