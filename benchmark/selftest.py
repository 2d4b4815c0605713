#!/usr/bin/env python3
"""Benchmark self-tests at smoke size.

    python3 benchmark/selftest.py

Checks that the metric tables in the binary match BENCHMARK.json, that
two in-process invocations of every workload give equal digests, and
that every workload prints every named metric with its unit and zero
failures, traced and untraced. Exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402


def fail(msg):
    print("selftest FAIL: " + msg)
    sys.exit(1)


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def main():
    exe = run.build()
    if exe is None:
        fail("build failed")

    tables = json.loads(subprocess.run(
        [exe, "--list-metrics"], capture_output=True, text=True,
        check=True).stdout)
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for key in ("end_to_end", "per_layer"):
        got = [(m["name"], m["unit"], m["better"]) for m in tables[key]]
        want = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        if got != want:
            fail("%s metrics differ from BENCHMARK.json" % key)
    print("selftest metric tables match BENCHMARK.json")

    if subprocess.run([exe, "--selftest"]).returncode != 0:
        fail("in-process repeat digests differ")

    env = dict(os.environ, SNPU_JOBS="1")
    for workload in run.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            p = subprocess.run(
                [exe, "--workload", workload, "--seed", "1", "--seconds",
                 "0.2", "--trace", str(trace), "--smoke"],
                capture_output=True, text=True, env=env)
            if p.returncode != 0:
                fail("%s trace=%d exited %d:\n%s" %
                     (workload, trace, p.returncode, p.stderr[-2000:]))
            res = last_json(p.stdout)
            if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
                fail("%s: result keys %s" % (workload, sorted(res)))
            if not res["correct"] or res["failed"] != 0:
                fail("%s trace=%d: correct=%s failed=%s" %
                     (workload, trace, res["correct"], res["failed"]))
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                fail("%s trace=%d: metric names/units differ" %
                     (workload, trace))
            print("selftest %-12s trace=%d ok (%d metrics, %d ops)" %
                  (workload, trace, len(got), res["attempted"]))
    print("selftest PASS")


if __name__ == "__main__":
    main()
