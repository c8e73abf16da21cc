#!/usr/bin/env python3
"""Build and run one workload of the rsnn benchmark.

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 benchmark/run.py --test

Run from the root of a checkout. The first call configures and builds the
benchmark (the library from ./src plus benchmark/src) into .bench_build/;
later calls only rebuild what changed. Build output goes to standard error,
so the last line of standard output is the benchmark's JSON result. With
--test it builds and runs the tests of the benchmark's own logic instead.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "benchmark")
BUILD = os.path.join(ROOT, ".bench_build", "benchmark")
RUN_TIMEOUT_S = 170


def build(target):
    """Configure (once) and build `target`; returns its path or None."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return None
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target", target],
                      stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(BUILD, target)


def commit():
    """The checkout's git commit, or "unknown" outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def check_metric_names(result, trace):
    """Warn when the printed metrics differ from BENCHMARK.json's list."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return True
    listed = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    printed = set(result["metrics"])
    if listed == printed:
        return True
    print("benchmark: metrics differ from BENCHMARK.json: missing %s, extra %s"
          % (sorted(listed - printed), sorted(printed - listed)), file=sys.stderr)
    return False


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's logic tests")
    args = parser.parse_args()

    if args.test:
        binary = build("benchmark_logic")
        return 1 if binary is None else subprocess.run([binary]).returncode
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    binary = build("rsnn_benchmark")
    if binary is None:
        print("benchmark: build failed", file=sys.stderr)
        return 1

    work_dir = os.path.join(ROOT, ".bench_build", "work",
                           "%s-%d" % (args.workload, os.getpid()))
    spans = os.path.join(ROOT, ".bench_build", "spans",
                         "%s-seed%d.jsonl" % (args.workload, args.seed))
    os.makedirs(work_dir, exist_ok=True)
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir, "--spans", spans, "--commit", commit()]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("benchmark: %s timed out" % args.workload, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if run.returncode != 0:
        sys.stdout.write(run.stdout)
        return run.returncode

    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print("benchmark: no JSON result", file=sys.stderr)
        return 1
    # A correct run that misses a listed end-to-end metric is a benchmark
    # bug; an incorrect one is reported as it is.
    if (not check_metric_names(result, args.trace == 1) and args.trace == 0
            and result.get("correct")):
        return 1
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
