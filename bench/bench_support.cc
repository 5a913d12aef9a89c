#include "bench/bench_support.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/baselines.h"
#include "core/celf.h"
#include "core/objective.h"
#include "kernels/kernels.h"
#include "phocus/representation.h"
#include "telemetry/export.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace phocus {
namespace bench {

std::size_t GetScale() {
  const char* raw = std::getenv("PHOCUS_BENCH_SCALE");
  if (raw == nullptr) return 1;
  const long value = std::strtol(raw, nullptr, 10);
  return value >= 1 ? static_cast<std::size_t>(value) : 1;
}

void PrintHeader(const std::string& bench_name, const std::string& anchor) {
  std::printf("================================================================\n");
  std::printf("%s  —  reproduces %s\n", bench_name.c_str(), anchor.c_str());
  if (GetScale() != 1) {
    std::printf("(PHOCUS_BENCH_SCALE=%zu: dataset sizes divided accordingly)\n",
                GetScale());
  }
  std::printf("================================================================\n");
}

void MaybeExportCsv(const std::string& stem, const TextTable& table) {
  const char* dir = std::getenv("PHOCUS_BENCH_CSV_DIR");
  if (dir == nullptr || dir[0] == '\0') return;
  const std::string path = std::string(dir) + "/" + stem + ".csv";
  WriteFile(path, table.RenderCsv());
  std::printf("(csv written to %s)\n", path.c_str());
}

namespace {
std::string g_telemetry_out;  // empty = no dump requested
std::string g_bench_json;    // empty = no bench JSON requested
std::string g_bench_fixture = "unspecified";
std::string g_bench_command;  // how to regenerate the bench JSON
std::vector<BenchRecord> g_bench_records;
std::vector<KernelBenchRecord> g_kernel_records;

std::string CompilerString() {
#if defined(__clang__)
  return StrFormat("clang %d.%d.%d", __clang_major__, __clang_minor__,
                   __clang_patchlevel__);
#elif defined(__GNUC__)
  return StrFormat("gcc %d.%d.%d", __GNUC__, __GNUC_MINOR__,
                   __GNUC_PATCHLEVEL__);
#else
  return "unknown";
#endif
}
}  // namespace

void ParseBenchFlags(int* argc, char** argv) {
  for (const char* name :
       {"PHOCUS_BENCH_SCALE", "PHOCUS_NUM_THREADS", "PHOCUS_KERNELS"}) {
    if (const char* value = std::getenv(name)) {
      g_bench_command += StrFormat("%s=%s ", name, value);
    }
  }
  const char* slash = std::strrchr(argv[0], '/');
  g_bench_command += slash != nullptr ? slash + 1 : argv[0];
  for (int i = 1; i < *argc; ++i) g_bench_command += std::string(" ") + argv[i];
  int kept = 1;
  for (int i = 1; i < *argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--telemetry-out=", 16) == 0) {
      g_telemetry_out = arg + 16;
      telemetry::SetEnabled(true);
    } else if (std::strcmp(arg, "--telemetry") == 0) {
      telemetry::SetEnabled(true);
    } else if (std::strncmp(arg, "--bench-json=", 13) == 0) {
      g_bench_json = arg + 13;
    } else if (std::strncmp(arg, "--bench-threads=", 16) == 0) {
      // The global pool reads PHOCUS_NUM_THREADS once at first use;
      // ParseBenchFlags runs first thing in main, before any solver code
      // can touch the pool.
      setenv("PHOCUS_NUM_THREADS", arg + 16, 1);
    } else {
      argv[kept++] = argv[i];
    }
  }
  *argc = kept;
  argv[kept] = nullptr;
}

void RecordBenchResult(const BenchRecord& record) {
  g_bench_records.push_back(record);
}

void RecordKernelBenchResult(const KernelBenchRecord& record) {
  g_kernel_records.push_back(record);
}

void SetBenchFixture(const std::string& fixture) { g_bench_fixture = fixture; }

bool BenchJsonRequested() { return !g_bench_json.empty(); }

void ExportBenchJsonIfRequested(const std::string& bench_name) {
  if (g_bench_json.empty()) return;
  Json root = Json::Object();
  root.Set("format", Json("phocus-bench"));
  root.Set("bench", Json(bench_name));
  root.Set("threads",
           Json(static_cast<std::uint64_t>(ThreadPool::Global().num_threads())));
  {
    Json meta = Json::Object();
    meta.Set("isa", Json(kernels::ActiveIsaName()));
    const char* threads_env = std::getenv("PHOCUS_NUM_THREADS");
    meta.Set("threads_env", Json(threads_env != nullptr ? threads_env : ""));
    meta.Set("compiler", Json(CompilerString()));
    meta.Set("fixture", Json(g_bench_fixture));
    meta.Set("command", Json(g_bench_command));
    root.Set("meta", std::move(meta));
  }
  Json results = Json::Array();
  for (const BenchRecord& record : g_bench_records) {
    Json row = Json::Object();
    row.Set("solver", Json(record.solver));
    row.Set("photos", Json(static_cast<std::uint64_t>(record.photos)));
    row.Set("subsets", Json(static_cast<std::uint64_t>(record.subsets)));
    row.Set("wall_seconds", Json(record.wall_seconds));
    row.Set("gain_evals", Json(static_cast<std::uint64_t>(record.gain_evals)));
    row.Set("score", Json(record.score));
    if (record.streaming) {
      row.Set("replans", Json(static_cast<std::uint64_t>(record.replans)));
      row.Set("drift_evals",
              Json(static_cast<std::uint64_t>(record.drift_evals)));
      row.Set("evicted", Json(static_cast<std::uint64_t>(record.evicted)));
    }
    results.Append(std::move(row));
  }
  root.Set("results", std::move(results));
  if (!g_kernel_records.empty()) {
    Json kernel_results = Json::Array();
    for (const KernelBenchRecord& record : g_kernel_records) {
      Json row = Json::Object();
      row.Set("op", Json(record.op));
      row.Set("isa", Json(record.isa));
      row.Set("calls", Json(static_cast<std::uint64_t>(record.calls)));
      row.Set("work_per_call",
              Json(static_cast<std::uint64_t>(record.work_per_call)));
      row.Set("wall_seconds", Json(record.wall_seconds));
      if (record.speedup_vs_scalar > 0.0) {
        row.Set("speedup_vs_scalar", Json(record.speedup_vs_scalar));
      }
      kernel_results.Append(std::move(row));
    }
    root.Set("kernel_results", std::move(kernel_results));
  }
  try {
    WriteFile(g_bench_json, root.Dump(1) + "\n");
  } catch (const CheckFailure& e) {
    std::fprintf(stderr, "bench json export failed: %s\n", e.what());
    return;
  }
  std::printf("(bench json written to %s)\n", g_bench_json.c_str());
}

void ExportTelemetryIfRequested() {
  if (g_telemetry_out.empty()) return;
  try {
    telemetry::WriteTelemetryJson(g_telemetry_out);
  } catch (const CheckFailure& e) {
    // A bad dump path should not abort a bench whose results already printed.
    std::fprintf(stderr, "telemetry export failed: %s\n", e.what());
    return;
  }
  std::printf("(telemetry written to %s)\n", g_telemetry_out.c_str());
}

std::vector<QualityPoint> RunQualityComparison(
    const Corpus& corpus, const std::vector<Cost>& budgets,
    const QualityComparisonOptions& options) {
  std::vector<QualityPoint> points;

  for (Cost budget : budgets) {
    // The true objective: dense, contextual SIM.
    RepresentationOptions dense_options;
    dense_options.sparsify_tau = 0.0;
    const ParInstance truth = BuildInstance(corpus, budget, dense_options);

    auto record = [&](const std::string& name,
                      const std::vector<PhotoId>& selection, double seconds) {
      QualityPoint point;
      point.algorithm = name;
      point.budget = budget;
      point.quality = ObjectiveEvaluator::Evaluate(truth, selection);
      point.seconds = seconds;
      points.push_back(point);
    };

    if (options.include_rand) {
      RandomAddSolver rand_solver(options.rand_seed);
      SolverResult result;
      const double seconds =
          TimeStage("rand", [&] { result = rand_solver.Solve(truth); });
      record("RAND", result.selected, seconds);
    }
    if (options.include_greedy_nr) {
      GreedyNoRedundancySolver nr;
      SolverResult result;
      const double seconds =
          TimeStage("greedy_nr", [&] { result = nr.Solve(truth); });
      record("G-NR", result.selected, seconds);
    }
    if (options.include_greedy_ncs) {
      // Non-contextual surrogate (same cosine for every context), solved
      // with plain unit-cost greedy — cost-benefit selection is an
      // Algorithm 1 feature the baselines lack.
      SolverResult result;
      const double seconds = TimeStage("greedy_ncs", [&] {
        const ParInstance surrogate =
            BuildNonContextualInstance(corpus, budget);
        result = LazyGreedy(surrogate, GreedyRule::kUnitCost);
      });
      record("G-NCS", result.selected, seconds);
    }
    {
      // PHOcus: Algorithm 1 on the τ-sparsified contextual instance.
      SolverResult result;
      const double seconds = TimeStage("phocus", [&] {
        RepresentationOptions sparse_options;
        sparse_options.sparsify_tau = options.phocus_tau;
        const ParInstance sparse =
            BuildInstance(corpus, budget, sparse_options);
        CelfSolver phocus;
        result = phocus.Solve(sparse);
      });
      record("PHOcus", result.selected, seconds);
    }
  }
  return points;
}

std::string FormatQualitySeries(const std::vector<QualityPoint>& points,
                                const std::vector<Cost>& budgets,
                                const std::string& title, bool show_time) {
  // Collect algorithm names preserving first-seen order.
  std::vector<std::string> algorithms;
  for (const QualityPoint& point : points) {
    bool seen = false;
    for (const std::string& name : algorithms) {
      if (name == point.algorithm) seen = true;
    }
    if (!seen) algorithms.push_back(point.algorithm);
  }

  TextTable table;
  std::vector<std::string> header = {"algorithm"};
  for (Cost budget : budgets) header.push_back(HumanBytes(budget));
  table.SetHeader(header);
  for (const std::string& name : algorithms) {
    std::vector<std::string> row = {name};
    for (Cost budget : budgets) {
      for (const QualityPoint& point : points) {
        if (point.algorithm == name && point.budget == budget) {
          row.push_back(show_time ? StrFormat("%.2fs", point.seconds)
                                  : StrFormat("%.2f", point.quality));
        }
      }
    }
    table.AddRow(std::move(row));
  }
  // Slugified CSV export alongside the text rendering (opt-in via env var).
  std::string stem;
  for (char c : title) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      stem.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    } else if (!stem.empty() && stem.back() != '_') {
      stem.push_back('_');
    }
  }
  while (!stem.empty() && stem.back() == '_') stem.pop_back();
  MaybeExportCsv(stem, table);
  return table.Render(title);
}

}  // namespace bench
}  // namespace phocus
