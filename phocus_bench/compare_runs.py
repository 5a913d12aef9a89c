#!/usr/bin/env python3
"""Compare two sets of phocus_bench results against BENCHMARK.json bounds.

    python3 phocus_bench/compare_runs.py BASE_DIR NEW_DIR

Each directory holds the detailed result files that `run.py --json` (or the
binary's --json) writes, any number of runs per workload. For every
workload x metric the script prints each set's median and quartiles
(statistics.quantiles, n=4). It flags:

  REGRESSION   an end-to-end median worse than the base by more than its bound
  UNRESOLVED   an end-to-end metric whose run-to-run spread (interquartile
               range over median) exceeds its bound in either set, unless
               every new run reads better than every base run
  NOT-REPEATED a per-layer count that differs between runs of the same
               workload and seed within one set
  FAILED       a run that reported correct=false or failed > 0

and exits 1 when anything is flagged. A per-layer count that repeats within
each set but differs between them is printed as CHANGED: that is what an
optimisation is expected to do, so it does not affect the exit code.
Python 3 standard library only.
"""

import argparse
import collections
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_runs(directory):
    runs = []
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(directory, name)) as handle:
            try:
                data = json.load(handle)
            except json.JSONDecodeError:
                continue
        if isinstance(data, dict) and "workload" in data and "metrics" in data:
            data["_file"] = name
            runs.append(data)
    return runs


def summary(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values):
    q1, median, q3 = summary(values)
    return (q3 - q1) / abs(median) if median else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args()

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    end_to_end = {m["name"]: m for m in benchmark["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in benchmark["per_layer"]}

    sets = {"base": load_runs(args.base), "new": load_runs(args.new)}
    values = collections.defaultdict(lambda: {"base": [], "new": []})
    counts = collections.defaultdict(lambda: {"base": set(), "new": set()})
    flags = []
    for side, runs in sets.items():
        if not runs:
            print(f"no result files in {getattr(args, side)}")
            return 1
        for run in runs:
            if not run.get("correct", False) or run.get("failed", 0):
                flags.append(f"FAILED {side} {run['_file']}: "
                             f"{run.get('failures', [])[:3]}")
            for name, metric in run["metrics"].items():
                values[(run["workload"], name)][side].append(metric["value"])
                if layer_units.get(name) == "count":
                    key = (run["workload"], run.get("seed"), name)
                    counts[key][side].add(metric["value"])

    print(f"{'workload':12s} {'metric':36s} {'base q1/med/q3':>34s} "
          f"{'new q1/med/q3':>34s} {'change':>8s}  verdict")
    for (workload, name), sides in sorted(values.items()):
        base, new = sides["base"], sides["new"]
        if not base or not new:
            continue
        b1, bm, b3 = summary(base)
        n1, nm, n3 = summary(new)
        change = (nm - bm) / abs(bm) if bm else 0.0
        verdict = ""
        if name in end_to_end:
            spec = end_to_end[name]
            bound = spec["bound"]
            worse = change if spec["better"] == "lower" else -change
            all_better = (max(new) < min(base) if spec["better"] == "lower"
                          else min(new) > max(base))
            if max(spread(base), spread(new)) > bound and not all_better:
                verdict = "UNRESOLVED"
            elif worse > bound:
                verdict = "REGRESSION"
            else:
                verdict = "ok"
            if verdict != "ok":
                flags.append(f"{verdict} {workload} {name}: {change:+.2%} "
                             f"(bound {bound:.0%}, spread base "
                             f"{spread(base):.2%} new {spread(new):.2%})")
        print(f"{workload:12s} {name:36s} "
              f"{b1:10.4g} {bm:11.4g} {b3:10.4g} "
              f"{n1:10.4g} {nm:11.4g} {n3:10.4g} {change:+8.2%}  {verdict}")

    changed = []
    for (workload, seed, name), sides in sorted(counts.items(), key=str):
        for side, seen in sides.items():
            if len(seen) > 1:
                flags.append(f"NOT-REPEATED {side} {workload} seed {seed} "
                             f"{name}: {sorted(seen)}")
        if len(sides["base"]) == len(sides["new"]) == 1 and \
                sides["base"] != sides["new"]:
            changed.append(f"CHANGED {workload} seed {seed} {name}: "
                           f"base {sorted(sides['base'])} "
                           f"new {sorted(sides['new'])}")

    print()
    for line in changed:
        print(line)
    for flag in flags:
        print(flag)
    print(f"{len(flags)} flagged" if flags else "all metrics within bounds")
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
