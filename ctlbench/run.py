#!/usr/bin/env python3
"""Builds and runs the out-of-process Chronos Control benchmark.

Run from the repository root:

    python3 ctlbench/run.py --workload dispatch_deep --seed 1 --seconds 24 --trace 0

The first run configures and builds chronos_control_server and the
ctlbench binary from source into .bench_build/ctlbench (build output goes
to stderr). The binary then generates the workload's store from the seed,
runs the server as its own process, measures it, audits its outputs and
prints one JSON result as the last line of stdout. Run directories, Chrome
traces (--trace 1) and the tracing-overhead report go to
.bench_build/ctlbench-out.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "ctlbench"
OUT = ROOT / ".bench_build" / "ctlbench-out"
WORKLOADS = ("dispatch_deep", "sweep_agents")


def build() -> None:
    def step(args):
        subprocess.run(args, check=True, stdout=sys.stderr)

    if not (BUILD / "CMakeCache.txt").exists():
        step(["cmake", "-S", str(ROOT / "ctlbench"), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    step(["cmake", "--build", str(BUILD), "-j", jobs, "--target", "ctlbench",
          "chronos_control_server"])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"ctlbench: build failed: {error}", file=sys.stderr)
        return 1
    OUT.mkdir(parents=True, exist_ok=True)
    return subprocess.run([
        str(BUILD / "ctlbench"),
        "--server", str(BUILD / "chronos" / "chronos_control_server"),
        "--out", str(OUT),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
    ]).returncode


if __name__ == "__main__":
    sys.exit(main())
