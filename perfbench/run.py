#!/usr/bin/env python3
"""Build and run the DVF benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune into .bench_build, runs it once, and
passes its output through: the last line of standard output is the JSON
result.  Scratch tape stores live under .bench_build and are removed when
the run ends; a traced run leaves its spans in .bench_build/perfbench-spans.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("verify_cold", "verify_warm", "sweep", "serve")
BUILD_DIR = ".bench_build"
GOLDEN = os.path.join("test", "golden", "verify_default.txt")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--golden", default=GOLDEN,
                        help="expected verify table (the self-check passes a wrong one)")
    args = parser.parse_args()

    for needed in ("dune-project", "lib", GOLDEN):
        if not os.path.exists(needed):
            print(f"perfbench: {needed} not found; run from the root of a dvf checkout",
                  file=sys.stderr)
            return 2
    dune = shutil.which("dune")
    if dune is None:
        print("perfbench: dune not found on PATH", file=sys.stderr)
        return 2

    # The shared dune cache lives outside the checkout, so it stays off.
    build = subprocess.run(
        [dune, "build", "--root", ".", "--build-dir", BUILD_DIR, "--cache", "disabled",
         "./perfbench/main.exe"],
        stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    work_dir = os.path.join(BUILD_DIR, "perfbench-work", f"{args.workload}-{os.getpid()}")
    spans_dir = os.path.join(BUILD_DIR, "perfbench-spans")
    os.makedirs(spans_dir, exist_ok=True)
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        run = subprocess.run([
            os.path.join(BUILD_DIR, "default", "perfbench", "main.exe"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--golden", args.golden, "--work-dir", work_dir,
            "--spans", os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.json"),
        ])
        return run.returncode
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
