#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds benchmark/ (which compiles the snpu library from ../src) into
$CARGO_TARGET_DIR, default .bench_build, under the repository root, then
runs one workload in a single process on a single host thread. The last
line of stdout is the JSON result. With --trace 1 the Chrome trace-event
file lands in <build dir>/traces/. See benchmark/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_sweep", "serve_warm", "llm_faults")


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configure and build snpu_bench; return its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: snpu library sources (src/) not found",
              file=sys.stderr)
        return None
    out = os.path.join(build_dir(), "cmake")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    if subprocess.run(["cmake", "--build", out, "-j", "4"],
                      stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(out, "snpu_bench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny op lists (self-tests)")
    args = ap.parse_args()

    exe = build()
    if exe is None:
        return 1
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    if args.smoke:
        cmd.append("--smoke")
    env = dict(os.environ, SNPU_JOBS="1")
    sys.stdout.flush()
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
