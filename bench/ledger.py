#!/usr/bin/env python3
"""Wall-clock ledger of every figure, table, ablation and serving binary.

    python3 bench/ledger.py --label NAME [--build build]
        [--out BENCH_binaries.json] [--against OTHER_BUILD]

Runs each `fig*`, `tab*` and `abl*` binary and each serving sweep in
BUILD/bench at SNPU_JOBS=1, RUNS times, from the repository root (so
`tab_tcb_size` finds `src/`). It records the median host wall-clock,
diffs the first run's stdout against tests/golden/<name>.txt where
such a golden exists, and appends one run labelled NAME to the
ledger in the {"runs": [{"label": ..., ...}]} shape BENCH_simspeed.json
uses. The serving sweeps also run with SNPU_TIMING_CACHE=0, so the
value of the layer-timing cache stays visible.

--against OTHER_BUILD compares this tree with another checkout's
build tree (say, the parent commit's), which must sit directly in
that checkout's root as `build/` does here; its binaries run from
that root. Each binary runs at SNPU_TIMING_CACHE=1 and =0, and for
each setting the two trees alternate RUNS times (the first tree to
run swaps each round), so host drift lands on both sides. Every run
writes --json; the entry records both medians, `wins` (rounds in
which this tree was faster) and whether the first run's stdout and
JSON are byte-identical across the trees. A difference is an error,
except for `tab_tcb_size`, which counts source lines.

Exits 1 when a binary fails, a golden differs, or (with --against)
the trees' outputs differ. The times are a record, not a gate: the
host is shared and its speed drifts.
"""

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS = 3
SERVING = ["serve_throughput", "token_throughput", "fault_sweep",
           "fleet_sweep", "attest_sweep"]
# Counts the source lines of its own tree, so it differs across trees.
COUNTS_SOURCE = "tab_tcb_size"


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


def timed_run(path, cache, cwd=ROOT, json_path=None):
    env = dict(os.environ, SNPU_JOBS="1", SNPU_TIMING_CACHE=cache)
    cmd = [path] + (["--json=" + json_path] if json_path else [])
    start = time.perf_counter()
    p = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True)
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


def read_file(path):
    if not os.path.exists(path):
        return b""
    with open(path, "rb") as f:
        return f.read()


def check_golden(entry, name, out):
    """Diff OUT against NAME's golden, if any; 1 when it differs."""
    golden = os.path.join(ROOT, "tests", "golden", name + ".txt")
    if not os.path.exists(golden):
        return 0
    entry["golden"] = "match" if read_file(golden) == out else "differs"
    return int(entry["golden"] == "differs")


def ledger_entry(name, path):
    """One binary of this tree: medians, and the golden check."""
    entry = {"name": name}
    bad = 0
    for cache in (["1", "0"] if name in SERVING else ["1"]):
        times, code, out = measure(path, cache)
        key = "wall_s" if cache == "1" else "wall_s_cache_off"
        if times is None:
            entry[key] = None
            entry["exit_code"] = code
            return entry, 1
        entry[key] = statistics.median(times)
        entry[key + "_runs"] = times
        if cache == "1":
            bad += check_golden(entry, name, out)
    return entry, bad


def against_entry(name, path, other_path, other_root, tmp):
    """One binary, alternating this tree and the other RUNS times at
    each cache setting; the first runs' stdout and JSON compared."""
    entry = {"name": name}
    bad = 0
    trees = [("this", path, ROOT), ("other", other_path, other_root)]
    for cache in ("1", "0"):
        suffix = "" if cache == "1" else "_cache_off"
        times = {"this": [], "other": []}
        first = {}
        for i in range(RUNS):
            for tree, exe, cwd in (trees if i % 2 == 0 else trees[::-1]):
                js = os.path.join(tmp, "%s-%s-%s.json" % (name, cache, tree))
                secs, code, out = timed_run(exe, cache, cwd, js)
                if code != 0:
                    entry["exit_code"] = code
                    entry["failed_tree"] = tree
                    return entry, 1
                times[tree].append(secs)
                if tree not in first:
                    first[tree] = (out, read_file(js))
        same = first["this"] == first["other"]
        entry["wall_s" + suffix] = statistics.median(times["this"])
        entry["against_wall_s" + suffix] = statistics.median(times["other"])
        entry["wall_s%s_runs" % suffix] = times["this"]
        entry["against_wall_s%s_runs" % suffix] = times["other"]
        entry["wins" + suffix] = sum(
            a < b for a, b in zip(times["this"], times["other"]))
        entry["identical" + suffix] = same
        bad += not same and name != COUNTS_SOURCE
        if cache == "1":
            bad += check_golden(entry, name, first["this"][0])
    return entry, bad


def describe(entry):
    if "exit_code" in entry:
        return "FAILED (exit %d%s)" % (entry["exit_code"], (
            " in the %s tree" % entry["failed_tree"]
            if "failed_tree" in entry else ""))
    if "against_wall_s" not in entry:
        return "%8.3f s%s" % (entry["wall_s"], (
            "   cache off %8.3f s" % entry["wall_s_cache_off"]
            if "wall_s_cache_off" in entry else ""))
    return "   ".join(
        "%s %7.3f vs %7.3f s, %2d/%d wins, %s" % (
            tag, entry["wall_s" + suffix], entry["against_wall_s" + suffix],
            entry["wins" + suffix], RUNS,
            "identical" if entry["identical" + suffix] else "DIFFERS")
        for suffix, tag in (("", "cache on "), ("_cache_off", "cache off")))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--build", default=os.path.join(ROOT, "build"))
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_binaries.json"))
    ap.add_argument("--against", default="",
                    help="another checkout's build tree to alternate with")
    args = ap.parse_args()

    build = os.path.abspath(args.build)
    names = binaries(build)
    if not names:
        sys.exit("no binaries under %s/bench" % build)

    record = {"label": args.label, "host": platform.node(),
              "cpus": os.cpu_count(), "runs_per_binary": RUNS,
              "binaries": []}
    other_build = os.path.abspath(args.against) if args.against else ""
    if other_build:
        record["against"] = other_build
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            path = os.path.join(build, "bench", name)
            if other_build:
                entry, nbad = against_entry(
                    name, path, os.path.join(other_build, "bench", name),
                    os.path.dirname(other_build), tmp)
            else:
                entry, nbad = ledger_entry(name, path)
            bad += nbad
            record["binaries"].append(entry)
            print("%-26s %s%s" % (
                name, describe(entry),
                ("   golden " + entry["golden"] if "golden" in entry
                 else "")))
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
