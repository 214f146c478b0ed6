#!/usr/bin/env python3
"""Run one workload of the cgpad benchmark.

Builds cgpad and the load generator from this checkout's sources (Release,
into $CARGO_TARGET_DIR or .bench_build), then runs

    cgpabench --workload W --seed N --seconds S --trace 0|1

whose last stdout line is the result object. Build output goes to stderr.

    python3 perfbench/run.py --workload warm-mix --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test      # the benchmark's own tests

Exits nonzero without a result when the sources are missing or the build
fails, and with cgpabench's exit code otherwise.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["warm-mix", "spec-sweep", "large-sim", "mixed-open"]


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return path if path.is_absolute() else ROOT / path


def build(out, targets):
    """Configure (once) and build `targets`; returns a process exit code."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("run.py: no cgpa sources at %s" % ROOT, file=sys.stderr)
        return 2
    if not (out / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        rc = subprocess.call(configure, stdout=sys.stderr)
        if rc != 0:
            return rc
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return subprocess.call(["cmake", "--build", str(out), "-j", jobs,
                            "--target"] + targets, stdout=sys.stderr)


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env,
                              timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    out = build_dir()
    if args.self_test:
        rc = build(out, ["perfbench_tests"])
        return rc if rc != 0 else subprocess.call([str(out / "perfbench_tests")])

    rc = build(out, ["cgpad", "cgpabench"])
    if rc != 0:
        return rc
    return subprocess.call([
        str(out / "cgpabench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--cgpad", str(out / "cgpad"),
        "--workdir", str(out / "run"),
        "--git-sha", git_sha(),
    ])


if __name__ == "__main__":
    sys.exit(main())
