#!/usr/bin/env python3
"""Paired A/B of one benchmark workload: a parent commit against the checkout.

    python3 tools/bench_ab.py <workload> [rev]

`rev` (default: `git merge-base HEAD origin/main`) is extracted with `git
archive` into .bench_build/ab/<sha>/. benchmark/run.py runs there and in the
checkout as 10 pairs: one seed per pair, the side that runs first flipped
every pair, each run BENCHMARK.json's `run_seconds` long. Per end-to-end
metric it prints both medians, the parent's IQR and the change's
wins/losses/ties. It exits non-zero if a run fails or is not "correct", or
if on images_per_s the change loses most pairs and its median trails the
parent's by more than both the parent's IQR and 10%.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 10
GATED = "images_per_s"
BOUND = 0.10  # the bound of the tiny-network gate this driver replaced


def schedule():
    """(seed, side that runs first) for each pair."""
    return [(i + 1, ("parent", "change")[i % 2]) for i in range(PAIRS)]


def outcome(returncode, stdout):
    """One run: ok if it exited 0 and its JSON line reports correct."""
    try:
        result = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = {}
    metrics = {name: m["value"] for name, m in result.get("metrics", {}).items()}
    return {"ok": returncode == 0 and result.get("correct") is True,
            "metrics": metrics}


def summarize(parent, change, better):
    """Both medians, the parent's IQR and the change's wins/losses/ties."""
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    sign = 1 if better == "higher" else -1
    diffs = [sign * (c - p) for p, c in zip(parent, change)]
    return {"parent": statistics.median(parent),
            "change": statistics.median(change), "iqr": q3 - q1,
            "wins": sum(d > 0 for d in diffs),
            "losses": sum(d < 0 for d in diffs),
            "ties": sum(d == 0 for d in diffs)}


def verdict(pairs):
    """Reasons the (parent, change) run pairs fail the gate; empty passes."""
    failed = sum(not run["ok"] for pair in pairs for run in pair)
    if failed:
        return ["%d run(s) failed or reported incorrect results" % failed]
    s = summarize([p["metrics"][GATED] for p, _ in pairs],
                  [c["metrics"][GATED] for _, c in pairs], "higher")
    gap = s["parent"] - s["change"]
    lost = 2 * s["losses"] > len(pairs)
    if lost and gap > s["iqr"] and gap > BOUND * s["parent"]:
        return ["%s: the change lost %d of %d pairs and its median %.4g trails "
                "%.4g by more than the parent's IQR (%.4g) and %d%%"
                % (GATED, s["losses"], len(pairs), s["change"], s["parent"],
                   s["iqr"], round(BOUND * 100))]
    return []


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          stdout=subprocess.PIPE).stdout


def extract(rev):
    """The tree of `rev` under .bench_build/ab/<sha>/, extracted once."""
    sha = git("rev-parse", "--verify", rev + "^{commit}").decode().strip()
    tree = os.path.join(ROOT, ".bench_build", "ab", sha)
    if not os.path.isdir(tree):
        shutil.rmtree(tree + ".partial", ignore_errors=True)
        os.makedirs(tree + ".partial")
        subprocess.run(["tar", "-x", "-C", tree + ".partial"],
                       input=git("archive", sha), check=True)
        os.rename(tree + ".partial", tree)
    return sha, tree


def run(tree, workload, seed, seconds):
    command = [sys.executable, os.path.join("benchmark", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=tree, text=True, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE)
    result = outcome(proc.returncode, proc.stdout)
    if not result["ok"]:
        sys.stderr.write(proc.stderr[-4000:] + proc.stdout[-4000:])
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("rev", nargs="?")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error("unknown workload %r" % args.workload)
    rev = args.rev or git("merge-base", "HEAD", "origin/main").decode().strip()
    sha, parent_tree = extract(rev)
    trees = {"parent": parent_tree, "change": ROOT}
    print("A/B %s: parent %s, change = the checkout, %d pairs of %gs runs"
          % (args.workload, sha[:12], PAIRS, spec["run_seconds"]), flush=True)

    pairs = []
    for seed, first in schedule():
        second = "change" if first == "parent" else "parent"
        pair = {side: run(trees[side], args.workload, seed, spec["run_seconds"])
                for side in (first, second)}
        pairs.append((pair["parent"], pair["change"]))
        print("pair %2d  seed %2d  %s first  %s: parent %.6g, change %.6g"
              % (len(pairs), seed, first, GATED,
                 pair["parent"]["metrics"].get(GATED, float("nan")),
                 pair["change"]["metrics"].get(GATED, float("nan"))), flush=True)
        if not (pair["parent"]["ok"] and pair["change"]["ok"]):
            break

    row = "%-16s %-5s %-6s %14s %14s %12s  %s"
    if all(run["ok"] for pair in pairs for run in pair):
        print(row % ("metric", "unit", "better", "parent median",
                     "change median", "parent IQR", "W/L/T"))
        for m in spec["end_to_end"]:
            s = summarize([p["metrics"][m["name"]] for p, _ in pairs],
                          [c["metrics"][m["name"]] for _, c in pairs],
                          m["better"])
            print(row % (m["name"], m["unit"], m["better"],
                         "%.6g" % s["parent"], "%.6g" % s["change"],
                         "%.4g" % s["iqr"],
                         "%d/%d/%d" % (s["wins"], s["losses"], s["ties"])))
    reasons = verdict(pairs)
    print("\n".join(["FAIL: " + r for r in reasons] or ["PASS"]))
    return 1 if reasons else 0


if __name__ == "__main__":
    sys.exit(main())
