#!/usr/bin/env python3
"""Wall-clock ledger of every figure, table, ablation and serving binary.

    python3 bench/ledger.py --label NAME [--build build]
        [--out BENCH_binaries.json]

Runs each `fig*`, `tab*` and `abl*` binary and each serving sweep in
BUILD/bench at SNPU_JOBS=1, RUNS times, from the repository root (so
`tab_tcb_size` finds `src/`). It records the median host wall-clock,
diffs the first run's stdout against tests/golden/<name>.txt where
such a golden exists, and appends one run labelled NAME to the
ledger in the {"runs": [{"label": ..., ...}]} shape BENCH_simspeed.json
uses. The serving sweeps also run with SNPU_TIMING_CACHE=0, so the
value of the layer-timing cache stays visible.

Exits 1 when a binary fails or a golden differs. The times are a
record, not a gate: the host is shared and its speed drifts.
"""

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS = 3
SERVING = ["serve_throughput", "token_throughput", "fault_sweep",
           "fleet_sweep", "attest_sweep"]


def binaries(build):
    bench = os.path.join(build, "bench")
    names = set()
    for pattern in ("fig*", "tab*", "abl*"):
        for path in glob.glob(os.path.join(bench, pattern)):
            if os.path.isfile(path) and os.access(path, os.X_OK):
                names.add(os.path.basename(path))
    figures = sorted(names)
    serving = [s for s in SERVING
               if os.access(os.path.join(bench, s), os.X_OK)]
    return figures + serving


def timed_run(path, cache):
    env = dict(os.environ, SNPU_JOBS="1", SNPU_TIMING_CACHE=cache)
    start = time.perf_counter()
    p = subprocess.run([path], cwd=ROOT, env=env, capture_output=True)
    return time.perf_counter() - start, p.returncode, p.stdout


def measure(path, cache):
    times, first = [], None
    for _ in range(RUNS):
        secs, code, out = timed_run(path, cache)
        if code != 0:
            return None, code, out
        times.append(secs)
        first = out if first is None else first
    return times, 0, first


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--build", default=os.path.join(ROOT, "build"))
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_binaries.json"))
    args = ap.parse_args()

    build = os.path.abspath(args.build)
    names = binaries(build)
    if not names:
        sys.exit("no binaries under %s/bench" % build)

    record = {"label": args.label, "host": platform.node(),
              "cpus": os.cpu_count(), "runs_per_binary": RUNS,
              "binaries": []}
    bad = 0
    for name in names:
        path = os.path.join(build, "bench", name)
        entry = {"name": name}
        caches = ["1", "0"] if name in SERVING else ["1"]
        for cache in caches:
            times, code, out = measure(path, cache)
            key = "wall_s" if cache == "1" else "wall_s_cache_off"
            if times is None:
                entry[key] = None
                entry["exit_code"] = code
                bad += 1
                print("%-26s FAILED (exit %d)" % (name, code))
                break
            entry[key] = statistics.median(times)
            entry[key + "_runs"] = times
            if cache == "1":
                golden = os.path.join(ROOT, "tests", "golden", name + ".txt")
                if os.path.exists(golden):
                    with open(golden, "rb") as f:
                        entry["golden"] = ("match" if f.read() == out
                                           else "differs")
                    bad += entry["golden"] == "differs"
        record["binaries"].append(entry)
        print("%-26s %8.3f s%s%s" % (
            name, entry.get("wall_s") or 0,
            ("   cache off %8.3f s" % entry["wall_s_cache_off"]
             if entry.get("wall_s_cache_off") else ""),
            ("   golden " + entry["golden"] if "golden" in entry else "")))
        sys.stdout.flush()

    ledger = {"runs": []}
    if os.path.exists(args.out):
        with open(args.out) as f:
            ledger = json.load(f)
    ledger["runs"].append(record)
    with open(args.out, "w") as f:
        json.dump(ledger, f, indent=2)
        f.write("\n")
    print("appended run '%s' to %s" % (args.label, args.out))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
