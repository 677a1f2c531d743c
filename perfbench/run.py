#!/usr/bin/env python3
"""Builds the statsize benchmark program from source and runs one workload.

    python3 perfbench/run.py --workload size_k2_reduced --seed 7 --seconds 20 --trace 0

Run from the repository root. The first run configures and builds the
program and the repository's libraries under .bench_build/perfbench (the
build log is shown on stderr only if the build fails); later runs reuse that
build. The program's standard output is
passed through unchanged: its last line is the JSON result. A traced run
(--trace 1) also writes its spans to .bench_build/perfbench/traces/.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "statsize_perfbench"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no statsize sources under {ROOT / 'src'}; run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", str(BUILD), "--target", "statsize_perfbench", "-j", jobs]]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            sys.stderr.write(done.stdout.decode(errors="replace"))
            fail(f"build step failed: {' '.join(cmd)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()

    build()
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}-seed{args.seed}.tsv")]
    done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
