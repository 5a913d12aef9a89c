#ifndef PHOCUS_BENCH_BENCH_SUPPORT_H_
#define PHOCUS_BENCH_BENCH_SUPPORT_H_

#include <string>
#include <vector>

#include "core/instance.h"
#include "core/solver.h"
#include "datagen/corpus.h"
#include "telemetry/metrics.h"
#include "util/stopwatch.h"
#include "util/table.h"

/// \file bench_support.h
/// Shared machinery for the experiment harness. Every bench binary
/// regenerates one table or figure of the paper: it builds the dataset(s),
/// runs the algorithms, and prints the same rows/series the paper reports
/// (absolute numbers differ — synthetic data, this machine — but the shape
/// is the comparison target; see EXPERIMENTS.md).

namespace phocus {
namespace bench {

/// Dataset down-scaling factor from the PHOCUS_BENCH_SCALE environment
/// variable (default 1 = the paper's sizes). Useful for quick smoke runs:
/// PHOCUS_BENCH_SCALE=10 divides every photo count by 10.
std::size_t GetScale();

/// Prints the standard bench header (name, paper anchor, seed, scale).
void PrintHeader(const std::string& bench_name, const std::string& anchor);

/// The four §5.2 quality-comparison series. Each algorithm is solved on the
/// instance representation it is defined on, and every returned selection is
/// scored under the *true* (dense contextual) objective:
///   RAND      — random additions
///   G-NR      — greedy by standalone relevance (no redundancy awareness)
///   G-NCS     — Algorithm 1 on the non-contextual-similarity surrogate
///   PHOcus    — Algorithm 1 on the τ-sparsified contextual instance
struct QualityPoint {
  std::string algorithm;
  Cost budget = 0;
  double quality = 0.0;   ///< G(S) under the true objective
  double seconds = 0.0;   ///< solve seconds (excludes corpus generation)
};

struct QualityComparisonOptions {
  double phocus_tau = 0.5;
  std::uint64_t rand_seed = 1;
  bool include_rand = true;
  bool include_greedy_nr = true;
  bool include_greedy_ncs = true;
};

std::vector<QualityPoint> RunQualityComparison(
    const Corpus& corpus, const std::vector<Cost>& budgets,
    const QualityComparisonOptions& options = {});

/// Renders quality points as the paper's figure layout: one row per
/// algorithm, one column per budget.
std::string FormatQualitySeries(const std::vector<QualityPoint>& points,
                                const std::vector<Cost>& budgets,
                                const std::string& title,
                                bool show_time = false);

/// When the PHOCUS_BENCH_CSV_DIR environment variable is set, writes the
/// rendered table as `<dir>/<stem>.csv` (plot-ready) and reports the path
/// on stdout; otherwise does nothing. Call once per bench table.
void MaybeExportCsv(const std::string& stem, const TextTable& table);

/// Consumes the telemetry flags every bench binary understands, leaving the
/// rest of argv untouched (so google-benchmark flags pass through):
///   --telemetry-out=PATH   write a telemetry JSON dump at exit
///                          (also enables span/histogram recording)
///   --telemetry            enable recording without writing a file
///   --bench-json=PATH      write queued BenchRecords as JSON at exit
///                          (see RecordBenchResult / ExportBenchJsonIfRequested)
///   --bench-threads=N      pin the global thread pool to N workers (sets
///                          PHOCUS_NUM_THREADS; must run before the pool's
///                          first use, which ParseBenchFlags guarantees when
///                          called first thing in main)
/// Call first thing in main(), before any other argv consumer.
void ParseBenchFlags(int* argc, char** argv);

/// Writes the telemetry JSON dump if --telemetry-out was given (and reports
/// the path on stdout). Call once at the end of main(). No-op otherwise.
void ExportTelemetryIfRequested();

/// One solver measurement for the perf trajectory (BENCH_*.json files at
/// the repo root). The field set is the stable schema — additions are
/// allowed, renames and removals are not, so trend tooling can diff files
/// across commits.
struct BenchRecord {
  std::string solver;         ///< configuration label, e.g. "celf_parallel"
  std::size_t photos = 0;     ///< |P| of the fixture
  std::size_t subsets = 0;    ///< |Q| of the fixture
  double wall_seconds = 0.0;  ///< end-to-end solve wall time
  std::size_t gain_evals = 0; ///< oracle calls (machine-independent)
  double score = 0.0;         ///< G(S) of the returned solution
  /// Streaming-ingest rows (BENCH_streaming.json) only; emitted when the
  /// mode ran at least one replan decision. Machine-independent.
  std::size_t replans = 0;      ///< replans executed over the stream
  std::size_t drift_evals = 0;  ///< drift-bound evaluations over the stream
  std::size_t evicted = 0;      ///< photos evicted for feasibility
  bool streaming = false;       ///< emit the three counters above
};

/// Queues one record for ExportBenchJsonIfRequested().
void RecordBenchResult(const BenchRecord& record);

/// One kernel micro-measurement (BENCH_kernels.json). `work_per_call` is the
/// machine-independent work unit of the op (elements, multiply-accumulates,
/// blocks, or words — see kernels::OpCounts); wall numbers are honest
/// 1-CPU times on the measuring machine.
struct KernelBenchRecord {
  std::string op;    ///< kernel name, e.g. "simhash_signature"
  std::string isa;   ///< table measured, "scalar" or "avx2"
  std::size_t calls = 0;            ///< timed iterations
  std::size_t work_per_call = 0;    ///< machine-independent units per call
  double wall_seconds = 0.0;        ///< total for all iterations of one loop
  double speedup_vs_scalar = 0.0;   ///< 0 when this row IS the scalar row
};

/// Queues one kernel record; exported under "kernel_results".
void RecordKernelBenchResult(const KernelBenchRecord& record);

/// Names the measurement fixture stamped into the exported JSON's meta
/// block (e.g. "sparse_n6000_seed42"). Call before
/// ExportBenchJsonIfRequested; defaults to "unspecified".
void SetBenchFixture(const std::string& fixture);

/// True when --bench-json=FILE was given; benches use this to decide
/// whether to run their measurement fixtures.
bool BenchJsonRequested();

/// Writes the queued records if --bench-json was given:
///   {"format": "phocus-bench", "bench": <name>, "threads": N,
///    "meta": {"isa": ..., "threads_env": ..., "compiler": ..., "fixture": ...,
///             "command": ...},
///    "results": [{solver, photos, subsets, wall_seconds, gain_evals,
///                 score}, ...],
///    "kernel_results": [...]}            // only when kernel records queued
/// The meta block makes checked-in BENCH_*.json self-describing: which
/// kernel table produced it, the thread pin, the toolchain, and the command
/// that regenerates it (the PHOCUS_* settings that change results, then the
/// binary and its flags).
/// Call once at the end of main(). No-op otherwise.
void ExportBenchJsonIfRequested(const std::string& bench_name);

/// Runs `fn`, records its wall time into the `bench.<stage>_ns` histogram,
/// and returns the elapsed seconds. The standard way to time a bench stage:
///
///   const double seconds = TimeStage("solve", [&] { result = s.Solve(i); });
template <typename Fn>
double TimeStage(const std::string& stage, Fn&& fn) {
  telemetry::Histogram& hist = telemetry::MetricsRegistry::Current()
                                   .GetHistogram("bench." + stage + "_ns");
  const Stopwatch timer;
  fn();
  const std::uint64_t nanos = timer.ElapsedNanos();
  hist.Record(static_cast<double>(nanos));
  return static_cast<double>(nanos) * 1e-9;
}

}  // namespace bench
}  // namespace phocus

#endif  // PHOCUS_BENCH_BENCH_SUPPORT_H_
