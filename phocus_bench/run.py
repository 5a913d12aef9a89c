#!/usr/bin/env python3
"""Build phocus_bench from this checkout and run one workload.

    python3 phocus_bench/run.py --workload <name> --seed <n> --seconds <s>
                                --trace <0|1> [--json PATH]

The package is configured from phocus_bench/CMakeLists.txt (which builds the
repository's libraries from ../src) into $CARGO_TARGET_DIR, or .bench_build
when that is unset. Corpus fixtures are generated once per (seed, size) into
.bench_cache/fixtures by a separate process, so generation never counts
towards set-up time or the heap. The last line of standard output is the
result object: {"correct", "attempted", "failed", "metrics"}; --trace 1
reports the per-layer metrics and writes the span forest next to the
detailed JSON in .bench_cache/runs/.

BENCHMARK.json is the only metric catalog: the binary reports bare values,
and this script checks their names against it and attaches the units.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must finish within 180 s; the build of a fresh checkout is exempt.
RUN_DEADLINE_S = 170.0


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def load_catalog():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def attach_units(result, benchmark, traced):
    """Replaces each bare metric value in `result` by {value, unit}.

    Raises ValueError unless the names are exactly the declared end-to-end
    (untraced) or per-layer (traced) metrics of BENCHMARK.json.
    """
    declared = {m["name"]: m["unit"]
                for m in benchmark["per_layer" if traced else "end_to_end"]}
    emitted = result["metrics"]
    missing = sorted(set(declared) - set(emitted))
    extra = sorted(set(emitted) - set(declared))
    if missing or extra:
        raise ValueError(f"metrics missing {missing}, undeclared {extra}")
    result["metrics"] = {name: {"value": emitted[name], "unit": unit}
                         for name, unit in declared.items()}
    return result


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no phocus sources under {ROOT}/src; nothing to build")
        return None
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "--target", "phocus_bench",
                       "-j", jobs], stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "phocus_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="detailed result file (default under "
                        ".bench_cache/runs/)")
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or os.path.join(ROOT, ".bench_build"))
    binary = build(build_dir)
    if binary is None:
        log("build failed")
        return 1

    started = time.monotonic()
    cache_dir = os.path.join(ROOT, ".bench_cache")
    common = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
              f"--cache-dir={cache_dir}"]
    try:
        if subprocess.run(common + ["--make-fixtures"], stdout=sys.stderr,
                          timeout=RUN_DEADLINE_S).returncode != 0:
            log("fixture generation failed")
            return 1
        stem = os.path.join(cache_dir, "runs",
                            f"{args.workload}-s{args.seed}-t{args.trace}")
        command = common + [f"--seconds={args.seconds}",
                            f"--json={args.json or stem + '.json'}"]
        if args.trace:
            command.append(f"--trace={stem}.trace.json")
        remaining = RUN_DEADLINE_S - (time.monotonic() - started)
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=max(remaining, 1.0))
    except subprocess.TimeoutExpired:
        log(f"timed out after {RUN_DEADLINE_S:.0f} s")
        return 1
    lines = result.stdout.splitlines()
    try:
        outcome = attach_units(json.loads(lines[-1]), load_catalog(),
                               args.trace)
    except (IndexError, KeyError, TypeError, ValueError) as error:
        sys.stderr.write(result.stdout)
        log(f"no valid result line (exit {result.returncode}): {error}")
        return 1
    print("\n".join(lines[:-1]))
    print(json.dumps(outcome), flush=True)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
