#!/usr/bin/env python3
"""Compare a parent and a change with alternating benchmark runs.

    python3 benchmark/compare.py PARENT_DIR CHANGE_DIR --workload NAME \\
        [--pairs 10] [--seed N] [--seconds 25]

Each directory is a checkout holding BENCHMARK.json, benchmark/ and src/
(for example two `git worktree`s or `git archive` exports of the two
commits); each builds into its own .bench_build. Pair i runs seed N + i
on both sides, and the side that runs first alternates between pairs.
For every end-to-end metric it prints each side's median and quartiles
and how many pairs the change won, and applies the claim rule of
benchmark/README.md: the change wins at least 9 of 10 pairs and the
medians differ by more than the parent's interquartile range.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(checkout, workload, seed, seconds):
    p = subprocess.run(
        [sys.executable, os.path.join("benchmark", "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    if p.returncode != 0:
        sys.exit("%s: run failed\n%s" % (checkout, p.stderr[-2000:]))
    res = json.loads(p.stdout.strip().splitlines()[-1])
    if not res["correct"]:
        sys.exit("%s: outputs failed their checks" % checkout)
    return {k: v["value"] for k, v in res["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    args = ap.parse_args()

    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(getattr(args, side), args.workload,
                                       args.seed + i, args.seconds))
        print("pair %d done (%s first)" % (i + 1, order[0]),
              file=sys.stderr)

    print("%-14s %28s %28s %8s  %s" % ("metric", "parent q1/med/q3",
                                       "change q1/med/q3", "wins",
                                       "verdict"))
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        pv = [r[name] for r in runs["parent"]]
        cv = [r[name] for r in runs["change"]]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(pv, cv))
        pq, cq = quartiles(pv), quartiles(cv)
        better = (cq[1] < pq[1]) if lower else (cq[1] > pq[1])
        gain = (better and wins >= 0.9 * len(pv) and
                abs(cq[1] - pq[1]) > pq[2] - pq[0])
        worse_by = ((cq[1] - pq[1]) if lower else (pq[1] - cq[1])) / pq[1]
        verdict = ("gain" if gain else
                   "worse by %.1f%% (bound %.0f%%)" %
                   (100 * worse_by, 100 * m["bound"])
                   if worse_by > 0 else "no claimable gain")
        print("%-14s %28s %28s %5d/%-2d  %s" % (
            name, "/".join("%.4g" % v for v in pq),
            "/".join("%.4g" % v for v in cq), wins, len(pv), verdict))


if __name__ == "__main__":
    main()
