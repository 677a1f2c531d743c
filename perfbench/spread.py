#!/usr/bin/env python3
"""Runs workloads over several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workloads serve_mixed,timing_eco_k2 --seeds 1-10

For every end-to-end metric (or per-layer metric with --trace 1) it prints
the median over the runs and the spread: the distance between the first and
third quartile (statistics.quantiles(values, n=4)) as a share of the median,
next to the metric's bound from BENCHMARK.json, and flags a spread above a
third of the bound. A run that fails or reports correct=false makes the
script exit non-zero.

On a shared virtual machine the hypervisor can take CPU time from the guest
(the steal column of /proc/stat), which slows a whole run. The script reads
steal before and after each run and prints it per run; runs whose steal grew
by more than --max-steal-s CPU seconds are flagged, and the spread over the
other runs is printed next to the spread over all of them.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def steal_s():
    """CPU seconds stolen by the hypervisor since boot, over all CPUs."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    steal0 = steal_s()
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, check=False)
    steal = steal_s() - steal0
    wall = time.monotonic() - start
    lines = done.stdout.decode().strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} reported correct=false")
    return result, wall, steal


def spread_of(vals):
    med = statistics.median(vals)
    if len(vals) < 2 or med == 0:
        return med, float("nan")
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return med, (q3 - q1) / abs(med)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--max-steal-s", type=float, default=1.0)
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}

    for workload in args.workloads.split(","):
        values = {}
        walls = []
        steals = []
        for seed in seed_range(args.seeds):
            result, wall, steal = run_once(workload, seed, args.seconds, args.trace)
            walls.append(wall)
            steals.append(steal)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        calm = [s <= args.max_steal_s for s in steals]
        print(f"{workload}: {len(walls)} runs, wall {min(walls):.1f}-{max(walls):.1f} s, "
              f"{calm.count(False)} with steal above {args.max_steal_s} s")
        print("    steal s: " + " ".join(f"{s:.2f}" for s in steals))
        for name, vals in values.items():
            med, spread = spread_of(vals)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and not spread < bound / 3:
                flag = "  <-- spread above a third of the bound"
            calm_vals = [v for v, ok in zip(vals, calm) if ok]
            calm_text = ""
            if 2 <= len(calm_vals) < len(vals):
                calm_text = f"  calm-run spread {spread_of(calm_vals)[1]:7.4f}"
            print(f"  {name:28s} median {med:14.6g}  spread {spread:7.4f}  bound {bound}"
                  f"{calm_text}{flag}")
            print("    runs: " + " ".join(f"{v:.6g}" for v in vals))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
