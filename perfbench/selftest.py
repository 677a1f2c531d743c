#!/usr/bin/env python3
"""Self-test of the benchmark: a short run of every workload, checked.

    python3 perfbench/selftest.py [--seconds 1] [--seed 1]

Runs every workload (those in BENCHMARK.json and the ungated sizing ones)
untraced and traced, and checks that
the last line is the result object, that every metric BENCHMARK.json names
is printed with its unit and a finite value, that nothing failed, that the
workload's own metrics (perfbench/README.md) are printed too, and that the
traced run's solver iteration counts equal the untraced run's. Exits 0 when
every check holds.
"""

import argparse
import json
import math
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Printed (not reported) per workload; see perfbench/README.md.
SIZING_METRICS = ["solve_s_p50", "solve_objective", "solves_per_s", "core.iterations"]
WORKLOAD_METRICS = {
    "timing_eco_k2": ["edit_us_p50", "edit_us_p99", "sweep_us_p50", "mc_ms_p50",
                      "timing_ops_per_s", "share.edit", "share.sweep", "share.mc"],
    "serve_mixed": ["jobs_per_s", "ssta_job_ms_p50", "ssta_job_ms_p99", "size_job_ms_p50",
                    "share.size", "share.monte_carlo"],
    "size_k2_reduced": SIZING_METRICS,
    "size_apex2_full": SIZING_METRICS,
}
ALWAYS_PRINTED = ["failed_frac", "runtime.threads"]
METRIC_LINE = re.compile(r"^metric (\S+)\s+(\S+) (\S+)$")


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, check=False)
    lines = done.stdout.decode().strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        m = METRIC_LINE.match(line)
        if m:
            value = math.nan if m.group(2) == "null" else float(m.group(2))
            printed[m.group(1)] = (value, m.group(3))
    return done.returncode, (lines[-1] if lines else ""), printed


def check_run(label, code, last, printed, expected, extra_names):
    errors = []
    if code != 0:
        return [f"{label}: exit code {code}"]
    try:
        result = json.loads(last)
    except json.JSONDecodeError:
        return [f"{label}: last line is not JSON: {last[:80]}"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{label}: result keys {sorted(result)}")
        return errors
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        errors.append(f"{label}: correct={result['correct']} attempted={result['attempted']} "
                      f"failed={result['failed']}")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        errors.append(f"{label}: metrics {sorted(set(metrics) ^ set(expected))} "
                      "missing or unexpected")
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            errors.append(f"{label}: {name} unit {m.get('unit')} != {unit}")
        if not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            errors.append(f"{label}: {name} value {m.get('value')} is not finite")
        if printed.get(name, (None, None))[1] != unit:
            errors.append(f"{label}: {name} not printed with unit {unit}")
    for name in extra_names:
        if name not in printed or not math.isfinite(printed[name][0]):
            errors.append(f"{label}: {name} not printed")
    if "failed_frac" in printed and printed["failed_frac"][0] != 0:
        errors.append(f"{label}: failed_frac {printed['failed_frac'][0]}")
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}

    errors = []
    gated = [w["name"] for w in bench["workloads"]]
    for name in gated + [w for w in WORKLOAD_METRICS if w not in gated]:
        before = len(errors)
        code, last, plain = run(name, args.seed, args.seconds, 0)
        errors += check_run(f"{name} trace 0", code, last, plain, e2e,
                            WORKLOAD_METRICS.get(name, []) + ALWAYS_PRINTED)
        code, last, traced = run(name, args.seed, args.seconds, 1)
        errors += check_run(f"{name} trace 1", code, last, traced, layer, [])
        if "core.iterations" in plain:
            for counter in ("core.iterations", "core.outer_iterations"):
                if plain.get(counter, (None,))[0] != traced.get(counter, (None,))[0]:
                    errors.append(f"{name}: traced {counter} differs from the untraced run")
        print(f"{name}: {'ok' if len(errors) == before else 'FAIL'}", flush=True)
    for e in errors:
        print(f"  {e}")
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
