#!/usr/bin/env python3
"""Build the simulator from source and run one host-time benchmark workload.

    python3 hostbench/run.py --workload fig4-hosted|interp-sched|fuzz-replay
                             [--seed N] [--seconds S] [--trace 0|1]
                             [--plant-failure]

Run from the repository root.  The build goes to $CARGO_TARGET_DIR (or
.bench_build) under hostbench/; the first run configures and compiles
(Release), later runs only check that the build is current.  The last
line of standard output is the benchmark's JSON result.  A failed build
or run exits non-zero without printing a result.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fig4-hosted", "interp-sched", "fuzz-replay")
# Time a run may take beyond --seconds: set-up, the cycle that is
# running when --seconds end, and the report.
RUN_MARGIN_S = 140


def build(build_root):
    """Configure (once) and build the benchmark; returns the binary path."""
    bdir = os.path.join(build_root, "hostbench")
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", bdir, "-j", jobs, "--target",
                    "hostbench"], check=True, stdout=sys.stderr)
    return os.path.join(bdir, "hostbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--plant-failure", action="store_true",
                    help="fail the first item on purpose (self-test)")
    args = ap.parse_args()

    build_root = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_root)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"hostbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(
            build_root, f"spans-{args.workload}-{args.seed}.json")]
    if args.plant_failure:
        cmd.append("--plant-failure")
    try:
        done = subprocess.run(cmd, timeout=args.seconds + RUN_MARGIN_S)
    except subprocess.TimeoutExpired:
        print("hostbench: run timed out", file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
