#!/usr/bin/env bash
# Tiered check runner. Tests carry ctest labels (see tests/CMakeLists.txt):
#
#   unit      the default gtest suites
#   scenario  failpoint fault-injection + determinism scenarios
#   fuzz      randomized fuzzing + seeded-corpus replay
#   perf      the perf wall: every *_perf_smoke machine-independent
#             complexity guard (solver_perf_smoke, lsh_perf_smoke,
#             kernels_perf_smoke) run in an explicitly-Release tree, plus
#             the BENCH_*.json lint (scripts/lint_bench_json.py)
#   obs       the serving-observability surface: wire verbs, flight
#             recorder, metric-name lint (scripts/lint_metrics.py)
#   streaming the streaming-ingest scenario matrix: drift-bound soundness,
#             bursty replan accounting, backpressure, crash-during-flush
#             recovery, the ingest-WAL crash matrix (wal.append/wal.fsync/
#             wal.truncate faults, torn-tail truncation, byte-identical
#             recovery), and the cross-kernel/thread determinism sweep —
#             whose subprocesses each replay a crash+recover WAL phase
#             (tests/streaming_test.cc, streaming_determinism)
#   cluster   multi-process coordinator + phocusd shard topologies under
#             chaos, including SIGKILL-with-queued-ingest WAL recovery and
#             coordinator-routed ingest retry-safety (tests/cluster_test.cc)
#   tsan      the scenario + streaming + concurrency tiers rebuilt with
#             -DPHOCUS_SANITIZE=thread (the WAL crash matrix runs in the
#             TSan tree too), plus the service and coordinator loopback
#             suites that drive the shared serving core
#   asan      the scenario + streaming tiers rebuilt with
#             -DPHOCUS_SANITIZE=address: the WAL record/checkpoint encode
#             and replay code, the journaled update/set_budget commits and
#             the session's post-call sync under a memory-error checker
#
# Usage:
# scripts/check.sh [unit|scenario|fuzz|perf|obs|streaming|cluster|tsan|asan|all]
# (default: all)
#
# Environment: BUILD_DIR (default build), TSAN_DIR (default build-tsan),
# ASAN_DIR (default build-asan), JOBS (default nproc).

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build}
TSAN_DIR=${TSAN_DIR:-build-tsan}
ASAN_DIR=${ASAN_DIR:-build-asan}
JOBS=${JOBS:-$(nproc)}
TIER=${1:-all}

build_tree() {
  local dir=$1
  shift
  cmake -B "$dir" -S . "$@"
  cmake --build "$dir" -j "$JOBS"
}

run_label() {
  local dir=$1 label=$2
  (cd "$dir" && ctest -L "$label" --output-on-failure -j "$JOBS")
}

tier_unit()      { build_tree "$BUILD_DIR"; run_label "$BUILD_DIR" unit; }
tier_scenario()  { build_tree "$BUILD_DIR"; run_label "$BUILD_DIR" scenario; }
tier_fuzz()      { build_tree "$BUILD_DIR"; run_label "$BUILD_DIR" fuzz; }
tier_streaming() { build_tree "$BUILD_DIR"; run_label "$BUILD_DIR" streaming; }
tier_cluster()   { build_tree "$BUILD_DIR"; run_label "$BUILD_DIR" cluster; }

# Perf wall: the *_perf_smoke guards enforce machine-independent operation
# counters, but their wall-clock side reports are only honest from an
# optimized tree, so the build type is pinned explicitly rather than
# inherited from whatever the tree was last configured as.
tier_perf() {
  python3 scripts/lint_bench_json.py --root .
  build_tree "$BUILD_DIR" -DCMAKE_BUILD_TYPE=Release
  (cd "$BUILD_DIR" && ctest -R '_perf_smoke$' --output-on-failure -j "$JOBS")
  run_label "$BUILD_DIR" perf
}

tier_obs() {
  python3 scripts/lint_metrics.py --root .
  build_tree "$BUILD_DIR"
  run_label "$BUILD_DIR" obs
}

tier_tsan() {
  build_tree "$TSAN_DIR" -DPHOCUS_SANITIZE=thread
  run_label "$TSAN_DIR" scenario
  # The streaming suite drives concurrent ingests against phocusd sessions
  # (replans racing ingest), so it earns a TSan pass of its own.
  run_label "$TSAN_DIR" streaming
  # Both daemons run the shared serving core (accept, reap, frame loop,
  # drain), so its loopback suites get a TSan pass too.
  (cd "$TSAN_DIR" && \
    ctest -R "Concurrency|ThreadPool|SolverEquivalence|LshEquivalence|CoordinatorLoopback|ServiceTest|WireTest" \
    --output-on-failure -j "$JOBS")
}

# GCC 12 reports false -Wrestrict errors on plain std::string assignments
# once -fsanitize=address is on, so this tree keeps warnings non-fatal; the
# default tree still builds with -Werror.
tier_asan() {
  build_tree "$ASAN_DIR" -DPHOCUS_SANITIZE=address -DPHOCUS_WERROR=OFF
  run_label "$ASAN_DIR" scenario
  run_label "$ASAN_DIR" streaming
}

case "$TIER" in
  unit)     tier_unit ;;
  scenario) tier_scenario ;;
  fuzz)     tier_fuzz ;;
  perf)     tier_perf ;;
  obs)      tier_obs ;;
  streaming) tier_streaming ;;
  cluster)  tier_cluster ;;
  tsan)     tier_tsan ;;
  asan)     tier_asan ;;
  all)
    python3 scripts/lint_metrics.py --root .
    python3 scripts/lint_bench_json.py --root .
    build_tree "$BUILD_DIR"
    run_label "$BUILD_DIR" unit
    run_label "$BUILD_DIR" scenario
    run_label "$BUILD_DIR" fuzz
    run_label "$BUILD_DIR" streaming
    run_label "$BUILD_DIR" perf
    run_label "$BUILD_DIR" cluster
    tier_tsan
    tier_asan
    ;;
  *)
    echo "usage: scripts/check.sh" \
         "[unit|scenario|fuzz|perf|obs|streaming|cluster|tsan|asan|all]" >&2
    exit 2
    ;;
esac

echo "check.sh: tier '$TIER' passed"
