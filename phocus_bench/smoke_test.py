#!/usr/bin/env python3
"""phocus_bench_smoke: every workload at --smoke size, untraced and traced.

    python3 phocus_bench/smoke_test.py --binary <path to phocus_bench>

Runs each workload in BENCHMARK.json with its correctness checks on and
asserts that the run succeeds and that the metrics it emits are exactly the
ones BENCHMARK.json declares (end-to-end untraced, per-layer traced), with
finite values and well-formed names. Registered as the `phocus_bench_smoke`
ctest (label perf) by phocus_bench/CMakeLists.txt.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys

from run import attach_units, load_catalog

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def check_declaration(benchmark, errors):
    end_to_end, per_layer = benchmark["end_to_end"], benchmark["per_layer"]
    if not 1 <= len(end_to_end) <= 16:
        errors.append(f"{len(end_to_end)} end-to-end metrics (want 1..16)")
    if not 1 <= len(per_layer) <= 128:
        errors.append(f"{len(per_layer)} per-layer metrics (want 1..128)")
    names = [m["name"] for m in end_to_end + per_layer + benchmark["workloads"]]
    for name in names:
        if not NAME.match(name):
            errors.append(f"malformed name {name!r}")
    if len(set(names)) != len(names):
        errors.append("duplicate names in BENCHMARK.json")
    for metric in end_to_end:
        if not 0 < metric["bound"] <= 0.25:
            errors.append(f"{metric['name']}: bound {metric['bound']} not in (0, 0.25]")
    if not any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in end_to_end):
        errors.append("setup_s (s, lower) missing")


def run(binary, cache_dir, workload, traced, benchmark, errors):
    command = [binary, f"--workload={workload}", "--seed=1", "--seconds=0.05",
               "--smoke", f"--cache-dir={cache_dir}",
               f"--json={cache_dir}/{workload}-t{int(traced)}.json"]
    if traced:
        command.append(f"--trace={cache_dir}/{workload}.trace.json")
    label = f"{workload} ({'traced' if traced else 'untraced'})"
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=60)
    except subprocess.TimeoutExpired:
        errors.append(f"{label}: timed out")
        return
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        errors.append(f"{label}: exit {proc.returncode}\n{proc.stdout[-2000:]}")
        return
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"{label}: result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") or result.get("attempted", 0) < 1:
        errors.append(f"{label}: correct={result.get('correct')} "
                      f"failed={result.get('failed')} attempted={result.get('attempted')}")
    emitted = result.get("metrics", {})
    for name, value in emitted.items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{label}: {name} value {value!r}")
    try:
        attach_units(result, benchmark, traced)
    except ValueError as error:
        errors.append(f"{label}: {error}")
    print(f"ok   {label}: {len(emitted)} metrics, {result.get('attempted')} requests")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--binary", required=True)
    args = parser.parse_args()

    benchmark = load_catalog()
    errors = []
    check_declaration(benchmark, errors)
    # Fixtures and outputs live beside the binary, inside its build tree.
    cache_dir = os.path.join(os.path.dirname(os.path.abspath(args.binary)),
                             "smoke_cache")
    for workload in (w["name"] for w in benchmark["workloads"]):
        run(args.binary, cache_dir, workload, False, benchmark, errors)
        run(args.binary, cache_dir, workload, True, benchmark, errors)
    for error in errors:
        print(f"FAIL {error}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
