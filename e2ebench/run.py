#!/usr/bin/env python3
"""Build bench_e2e from this checkout and run one benchmark workload.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The first call configures and builds the
simulator and the harness into .bench_build/ (build output goes to stderr);
later calls only re-check the build.  The last line on stdout is bench_e2e's
result object: correct, attempted, failed and the metrics.
"""
import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "bench_e2e")


def build():
    if not os.path.exists(BINARY):
        configure = ["cmake", "-S", os.path.join(ROOT, "e2ebench"), "-B", BUILD]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    # Three compile jobs: the build shares the host with other work.
    subprocess.run(["cmake", "--build", BUILD, "--target", "bench_e2e",
                    "-j", "3"], check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    command = [BINARY, f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--trace={args.trace}",
               f"--out={os.path.join(BUILD, 'bench_e2e.json')}",
               f"--trace-out={os.path.join(BUILD, 'bench_e2e_trace.json')}"]
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
