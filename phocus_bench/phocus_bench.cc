// phocus_bench: closed-loop serving benchmark for phocusd and the
// coordinator, with per-layer attribution from a separate traced run.
//
//   phocus_bench --workload=<plan_cold|ingest_wal|rebudget|cluster_mix>
//                --seed=<n> --seconds=<s> [--trace=<telemetry.json>]
//                [--json=<out.json>] [--smoke] [--make-fixtures]
//                [--cache-dir=<dir>]
//
// Every workload runs in this one process: in-process ServiceServers (and a
// CoordinatorServer for cluster_mix) driven over loopback by at most two
// ServiceClient connections, each keeping one request in flight (a closed
// loop, like phocusd's real clients). The measured phase repeats whole
// episodes — start servers, create sessions from cached corpus files, run a
// fixed script, stop — until --seconds of script time has accumulated, so
// every episode sees the same inputs and a faster build never inflates its
// own corpus. The last line of output is {correct, attempted, failed,
// metrics: {name: value}}; run.py checks the names against BENCHMARK.json,
// the only metric catalog, and attaches the units. Workloads, metric
// definitions and the layer map: README.md.
//
// Only public headers under src/ are used, so refactors inside a layer never
// need to touch this directory.

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "coordinator/coordinator.h"
#include "core/celf.h"
#include "core/local_search.h"
#include "core/online_bound.h"
#include "datagen/corpus_io.h"
#include "datagen/openimages.h"
#include "kernels/kernels.h"
#include "phocus/incremental.h"
#include "phocus/ingest_wal.h"
#include "phocus/representation.h"
#include "phocus/streaming.h"
#include "phocus/system.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "telemetry/export.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace phocus {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

/// Global pool size, pinned before the pool's first use and recorded in meta.
constexpr int kPoolThreads = 4;
/// Worker threads per phocusd.
constexpr std::size_t kServerWorkers = 2;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

double Ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

// ---------------------------------------------------------------------------
// Workload shapes
// ---------------------------------------------------------------------------

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"plan_cold", "ingest_wal",
                                                 "rebudget", "cluster_mix"};
  return names;
}

/// Per-episode script size. `steps` is budgets per session (plan_cold),
/// uploads per session (ingest_wal), budget cycles (rebudget) or rounds per
/// client (cluster_mix). Every session but ingest_wal's twins has a corpus
/// of its own: a run's numbers average over `corpora` independent inputs,
/// which is what keeps them steady from seed to seed.
struct Shape {
  std::size_t photos = 0;  ///< per-session corpus
  int corpora = 0;
  int sessions = 0;
  int clients = 0;
  int steps = 0;
  /// ingest_wal: uploads between flushes.
  int flush_every = 0;
  /// Reads after each plan miss: cached plans (plan_cold), or cached plans
  /// with every 8th a session_info (cluster_mix).
  int reads = 0;
  /// Corpus for the replayed incremental/streaming/WAL layers. Capped
  /// because feasibility eviction is quadratic in the retained set.
  std::size_t replay_photos = 0;
};

Shape ShapeFor(const std::string& workload, bool smoke) {
  if (workload == "plan_cold") {
    return smoke ? Shape{.photos = 300, .corpora = 4, .sessions = 4,
                         .clients = 2, .steps = 1, .reads = 1,
                         .replay_photos = 300}
                 : Shape{.photos = 2500, .corpora = 4, .sessions = 4,
                         .clients = 2, .steps = 1, .reads = 3,
                         .replay_photos = 1000};
  }
  if (workload == "ingest_wal") {
    // The first (setup) upload leaves 16 photos queued, so 48-photo batches
    // drain at uploads 2, 5, 8, 11; the flush after upload 13 always finds
    // 32 photos queued, so every flush replans.
    return smoke ? Shape{.photos = 200, .corpora = 2, .sessions = 4,
                         .clients = 2, .steps = 4, .flush_every = 4,
                         .replay_photos = 200}
                 : Shape{.photos = 600, .corpora = 4, .sessions = 8,
                         .clients = 2, .steps = 13, .flush_every = 13,
                         .replay_photos = 600};
  }
  if (workload == "rebudget") {
    return smoke ? Shape{.photos = 150, .corpora = 2, .sessions = 2,
                         .clients = 1, .steps = 2, .replay_photos = 150}
                 : Shape{.photos = 600, .corpora = 8, .sessions = 8,
                         .clients = 1, .steps = 8, .replay_photos = 600};
  }
  if (workload == "cluster_mix") {
    return smoke ? Shape{.photos = 150, .corpora = 4, .sessions = 4,
                         .clients = 2, .steps = 4, .reads = 8,
                         .replay_photos = 150}
                 : Shape{.photos = 600, .corpora = 8, .sessions = 8,
                         .clients = 2, .steps = 12, .reads = 48,
                         .replay_photos = 600};
  }
  PHOCUS_CHECK(false, "unknown workload: " + workload);
  return {};
}

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

struct Flags {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string trace_path;  ///< non-empty: traced run (per-layer metrics)
  std::string json_path;
  std::string cache_dir = ".bench_cache";
  bool smoke = false;
  bool make_fixtures = false;
};

Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--workload") {
      flags.workload = value;
    } else if (key == "--seed") {
      flags.seed = std::stoull(value);
    } else if (key == "--seconds") {
      flags.seconds = std::stod(value);
    } else if (key == "--trace") {
      flags.trace_path = value;
    } else if (key == "--json") {
      flags.json_path = value;
    } else if (key == "--cache-dir") {
      flags.cache_dir = value;
    } else if (key == "--smoke") {
      flags.smoke = true;
    } else if (key == "--make-fixtures") {
      flags.make_fixtures = true;
    } else {
      PHOCUS_CHECK(false, "unknown flag: " + arg);
    }
  }
  const auto& names = WorkloadNames();
  PHOCUS_CHECK(
      std::find(names.begin(), names.end(), flags.workload) != names.end(),
      "--workload must be one of plan_cold, ingest_wal, rebudget, "
      "cluster_mix");
  PHOCUS_CHECK(flags.seconds > 0.0, "--seconds must be positive");
  return flags;
}

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

Json Params(std::initializer_list<std::pair<const char*, Json>> fields) {
  Json out = Json::Object();
  for (const auto& [key, value] : fields) out.Set(key, value);
  return out;
}

Json SessionParams(const std::string& session) {
  return Params({{"session", Json(session)}});
}

Json BudgetParams(const std::string& session, Cost budget) {
  return Params({{"session", Json(session)}, {"budget", Json(budget)}});
}

Cost Fraction(double fraction, Cost total) {
  return static_cast<Cost>(fraction * static_cast<double>(total));
}

/// Port of the shard owning a coordinator-scoped session id "<host:port>/s-N".
int ShardPortOf(const std::string& scoped, std::string* local) {
  std::string shard;
  PHOCUS_CHECK(coordinator::CoordinatorServer::SplitScopedSession(
                   scoped, &shard, local),
               "unscoped session id " + scoped);
  return std::stoi(shard.substr(shard.rfind(':') + 1));
}

/// Deterministic arrivals remapped into the id space after `offset` photos —
/// the same shape phocusd generates server-side for ingest/update.
Corpus Arrivals(std::size_t count, std::uint64_t seed, std::size_t offset) {
  OpenImagesOptions options;
  options.num_photos = count;
  options.seed = seed;
  Corpus arrivals = GenerateOpenImagesCorpus(options);
  for (SubsetSpec& spec : arrivals.subsets) {
    spec.name = StrFormat("%s@%zu", spec.name.c_str(), offset);
    for (PhotoId& member : spec.members) {
      member += static_cast<PhotoId>(offset);
    }
  }
  return arrivals;
}

std::map<std::string, std::uint64_t> CounterValues() {
  std::map<std::string, std::uint64_t> out;
  for (const auto& counter :
       telemetry::MetricsRegistry::Current().Snapshot().counters) {
    out[counter.name] = counter.value;
  }
  return out;
}

/// Live heap (all malloc arenas plus mmapped blocks). Unlike peak RSS it
/// does not depend on which arena a thread happened to allocate from.
double HeapMb() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

void WriteFile(const std::string& path, const std::string& text) {
  const fs::path parent = fs::path(path).parent_path();
  if (!parent.empty()) fs::create_directories(parent);
  FILE* file = std::fopen(path.c_str(), "w");
  PHOCUS_CHECK(file != nullptr, "cannot open " + path);
  const bool written =
      std::fwrite(text.data(), 1, text.size(), file) == text.size();
  PHOCUS_CHECK(std::fclose(file) == 0 && written, "cannot write " + path);
}

// ---------------------------------------------------------------------------
// Per-client request log
// ---------------------------------------------------------------------------

/// One measured request. `solve` marks requests the server ran the planner
/// for (plan misses, set_budget, update, draining ingests, flushes that
/// replan), as opposed to those answered from state (plan-cache hits,
/// session_info, ingests that only queue, flushes of an empty queue).
struct Sample {
  std::string label;
  bool solve = false;
  double ms = 0.0;
};

struct ClientLog {
  std::vector<Sample> samples;
  std::vector<double> score_fractions;
  std::size_t errors = 0;
  std::size_t checks = 0;
  std::size_t check_failures = 0;
  std::vector<std::string> failures;
  /// Traced episodes: bench spans with the server's request tree attached,
  /// and the server-side timing records they were joined with.
  std::vector<telemetry::SpanRecord> spans;
  std::vector<double> queue_wait_ms;
  std::vector<double> respond_ms;
  std::size_t unjoined = 0;

  void Check(bool ok, const std::string& what) {
    ++checks;
    if (!ok) {
      ++check_failures;
      Note("check failed: " + what);
    }
  }
  void Error(const std::string& what) {
    ++errors;
    Note(what);
  }
  /// Takes over only the outcome of `other`'s checks and errors.
  void AbsorbFailures(ClientLog& other) {
    errors += other.errors;
    checks += other.checks;
    check_failures += other.check_failures;
    for (std::string& f : other.failures) Note(std::move(f));
  }
  void Absorb(ClientLog&& other) {
    AbsorbFailures(other);
    for (Sample& s : other.samples) samples.push_back(std::move(s));
    Append(score_fractions, other.score_fractions);
    for (telemetry::SpanRecord& s : other.spans) spans.push_back(std::move(s));
    Append(queue_wait_ms, other.queue_wait_ms);
    Append(respond_ms, other.respond_ms);
    unjoined += other.unjoined;
  }

 private:
  void Note(std::string what) {
    if (failures.size() < 20) failures.push_back(std::move(what));
  }
  static void Append(std::vector<double>& to, const std::vector<double>& from) {
    to.insert(to.end(), from.begin(), from.end());
  }
};

/// One load-generator connection. Call() is a measured request: it is timed,
/// classified, checked for budget feasibility, and — in traced episodes —
/// wrapped in a `bench.<workload>.<endpoint>` span carrying the request_id
/// sent on the wire, to which the server's `service.request` tree (read back
/// from its slow-request log) is attached.
class BenchClient {
 public:
  BenchClient(int port, std::string workload, std::string tag, bool traced)
      : conn_("127.0.0.1", port),
        workload_(std::move(workload)),
        tag_(std::move(tag)),
        traced_(traced) {}

  ClientLog& log() { return log_; }
  service::ServiceClient& conn() { return conn_; }
  /// Time spent reading slow logs, excluded from the client's script time.
  double fetch_ms() const { return fetch_ms_; }

  /// Returns the result object, or null on an error response (counted as a
  /// failure). `budget_cap` > 0 checks any returned plan fits it.
  Json Call(const std::string& endpoint, Json params, const std::string& label,
            Cost budget_cap = 0) {
    const std::string request_id =
        StrFormat("%s-%zu", tag_.c_str(), ++calls_);
    const std::string session = params.GetOr("session", "").AsString();
    Json result;
    bool ok = true;
    double ms = 0.0;
    telemetry::SpanRecord span;
    {
      std::optional<telemetry::TraceCollector> collector;
      std::optional<telemetry::ScopedTraceSink> sink;
      std::optional<telemetry::TraceSpan> trace;
      if (traced_) {
        collector.emplace();
        sink.emplace(&*collector);
        trace.emplace("bench." + workload_ + "." + endpoint);
        trace->SetAttribute("request_id", request_id);
        trace->SetAttribute("label", label);
      }
      const Clock::time_point start = Clock::now();
      try {
        result = conn_.Call(endpoint, std::move(params), request_id);
      } catch (const service::ServiceError& error) {
        ok = false;
        log_.Error(endpoint + " (" + request_id + "): " + error.what());
      }
      ms = MsSince(start);
      if (trace) span = trace->Close();
    }
    Sample sample{label, true, ms};
    if (ok) {
      if (endpoint == "plan") {
        const bool cached = result.GetOr("cached", false).AsBool();
        sample.label = cached ? "plan_hit" : "plan_miss";
        sample.solve = !cached;
      } else if (endpoint == "ingest") {
        const bool absorbed = result.GetOr("absorbed", false).AsBool();
        sample.label = absorbed ? "ingest_drain" : "ingest_queued";
        sample.solve = absorbed;
      } else if (endpoint == "ingest_flush") {
        // A flush of an empty queue takes the "clean" path: no replan.
        sample.solve = result.GetOr("replanned", false).AsBool();
        if (!sample.solve) sample.label += "_clean";
      } else if (endpoint == "session_info") {
        sample.solve = false;
      }
      if (result.Has("plan")) {
        const Json& plan = result.Get("plan");
        log_.score_fractions.push_back(plan.Get("score_fraction").AsDouble());
        if (budget_cap > 0) {
          const Cost retained = plan.Get("retained_bytes").AsInt();
          log_.Check(retained <= budget_cap,
                     request_id + " retained_bytes within budget");
        }
      }
    }
    log_.samples.push_back(std::move(sample));
    if (traced_) JoinServerTree(request_id, session, std::move(span));
    return result;
  }

 private:
  /// Reads the serving phocusd's slow-request log (every request is "slow"
  /// in traced episodes) and attaches this request's tree. Behind the
  /// coordinator the owning shard is asked directly: the merged `metrics`
  /// verb cannot carry shard slow logs (CoordinatorServer::MergedMetrics
  /// iterates a destroyed temporary when one is non-empty).
  void JoinServerTree(const std::string& request_id,
                      const std::string& session, telemetry::SpanRecord span) {
    const Clock::time_point start = Clock::now();
    service::ServiceClient* server = &conn_;
    if (session.find('/') != std::string::npos) {
      std::string local;
      const int port = ShardPortOf(session, &local);
      auto& observer = observers_[port];
      if (observer == nullptr) {
        observer = std::make_unique<service::ServiceClient>("127.0.0.1", port);
      }
      server = observer.get();
    }
    // A shard files the record after writing its response, on the
    // coordinator's connection thread, so a direct read can race it.
    bool joined = false;
    for (int attempt = 0; attempt < 20 && !joined; ++attempt) {
      if (attempt > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      const Json metrics = server->Call("metrics");
      for (const Json& record : metrics.Get("slow_requests").items()) {
        if (record.Get("request_id").AsString() != request_id) continue;
        for (telemetry::SpanRecord& child :
             telemetry::SpansFromJson(record.Get("spans"))) {
          span.children.push_back(std::move(child));
        }
        log_.queue_wait_ms.push_back(record.Get("queue_wait_ms").AsDouble());
        log_.respond_ms.push_back(record.Get("respond_ms").AsDouble());
        joined = true;
        break;
      }
    }
    if (!joined) ++log_.unjoined;
    log_.spans.push_back(std::move(span));
    fetch_ms_ += MsSince(start);
  }

  service::ServiceClient conn_;
  /// Traced cluster_mix only: one observation connection per shard.
  std::map<int, std::unique_ptr<service::ServiceClient>> observers_;
  std::string workload_;
  std::string tag_;
  bool traced_;
  std::size_t calls_ = 0;
  double fetch_ms_ = 0.0;
  ClientLog log_;
};

// ---------------------------------------------------------------------------
// Servers
// ---------------------------------------------------------------------------

/// phocusd shards plus an optional coordinator in front, all in-process.
struct Cluster {
  std::vector<std::unique_ptr<service::ServiceServer>> shards;
  std::unique_ptr<coordinator::CoordinatorServer> coordinator;

  int front_port() const {
    return coordinator != nullptr ? coordinator->port() : shards[0]->port();
  }
  void Stop() {
    if (coordinator != nullptr) {
      coordinator->RequestShutdown();
      coordinator->Wait();
      coordinator.reset();
    }
    for (auto& shard : shards) {
      shard->RequestShutdown();
      shard->Wait();
    }
    shards.clear();
  }
  ~Cluster() { Stop(); }
};

std::unique_ptr<Cluster> StartCluster(int num_shards, bool with_coordinator,
                                      const std::string& wal_dir,
                                      bool traced) {
  auto cluster = std::make_unique<Cluster>();
  std::vector<coordinator::ShardAddress> addresses;
  for (int i = 0; i < num_shards; ++i) {
    service::ServerOptions options;
    options.num_workers = kServerWorkers;
    options.wal_dir = wal_dir;
    // Traced episodes log every request with its span tree so the bench can
    // join it; untraced ones keep the slow log off regardless of the env.
    options.slow_request_ms = traced ? 1e-6 : -1.0;
    cluster->shards.push_back(
        std::make_unique<service::ServiceServer>(options));
    cluster->shards.back()->Start();
    const int port = cluster->shards.back()->port();
    addresses.push_back({StrFormat("127.0.0.1:%d", port), "127.0.0.1", port});
  }
  if (with_coordinator) {
    coordinator::CoordinatorOptions options;
    options.shards = addresses;
    cluster->coordinator =
        std::make_unique<coordinator::CoordinatorServer>(options);
    cluster->coordinator->Start();
  }
  return cluster;
}

/// A routing key the coordinator's ring maps to `shard`.
std::string RoutingKeyFor(const Cluster& cluster, int session, int shard) {
  const std::string target =
      StrFormat("127.0.0.1:%d", cluster.shards[shard]->port());
  for (int n = 0;; ++n) {
    std::string key = StrFormat("bench-%d-%d", session, n);
    if (cluster.coordinator->ring().ShardFor(key) == target) return key;
  }
}

// ---------------------------------------------------------------------------
// Layer replay (traced runs)
// ---------------------------------------------------------------------------

/// Replays public layer entry points inside `bench.layer.<name>` spans. The
/// first repetition of each runs with kernel op counting on and contributes
/// its registry-counter deltas; later repetitions only add timing samples,
/// so every count is exact and repeatable.
///
/// Every call runs on the worker of a one-thread ThreadPool: the context
/// phocusd handles each request in. ParallelFor inside any pool worker runs
/// inline, so a replay on the main thread would fan out across the global
/// pool where the server's solves do not.
class LayerReplay {
 public:
  /// Returns the median wall time in ms over `reps` runs of `fn`; `prepare`
  /// (untimed, uncounted) runs before each repetition.
  double Time(const std::string& name, int reps,
              const std::function<void()>& fn,
              const std::function<void()>& prepare = nullptr) {
    std::vector<double> times;
    for (int rep = 0; rep < reps; ++rep) {
      if (prepare) OnWorker(prepare);
      const bool counted = rep == 0;
      std::map<std::string, std::uint64_t> before;
      kernels::OpCounts ops_before;
      if (counted) {
        before = CounterValues();
        ops_before = kernels::SnapshotOpCounts();
        kernels::SetOpCountingEnabled(true);
      }
      OnWorker([&] {
        telemetry::ScopedTraceSink sink(&collector_);
        telemetry::TraceSpan span("bench.layer." + name);
        span.SetAttribute("rep", static_cast<std::uint64_t>(rep));
        const Clock::time_point start = Clock::now();
        fn();
        times.push_back(MsSince(start));
      });
      if (counted) {
        kernels::SetOpCountingEnabled(false);
        for (const auto& [counter, value] : CounterValues()) {
          const std::uint64_t delta = value - before[counter];
          if (delta > 0) deltas_[name][counter] += delta;
        }
        const kernels::OpCounts after = kernels::SnapshotOpCounts();
        ops_.dot_elems += after.dot_elems - ops_before.dot_elems;
        ops_.gain_elems += after.gain_elems - ops_before.gain_elems;
        ops_.simhash_macs += after.simhash_macs - ops_before.simhash_macs;
        ops_.hamming_words += after.hamming_words - ops_before.hamming_words;
        ops_.dct_blocks += after.dct_blocks - ops_before.dct_blocks;
      }
    }
    return Median(times);
  }

  /// Counter delta of `counter` over the counted runs of `layers` (all
  /// layers when empty).
  double Delta(const std::string& counter,
               const std::vector<std::string>& layers = {}) const {
    std::uint64_t total = 0;
    for (const auto& [layer, counters] : deltas_) {
      if (!layers.empty() &&
          std::find(layers.begin(), layers.end(), layer) == layers.end()) {
        continue;
      }
      auto it = counters.find(counter);
      if (it != counters.end()) total += it->second;
    }
    return static_cast<double>(total);
  }

  const kernels::OpCounts& ops() const { return ops_; }
  std::vector<telemetry::SpanRecord> DrainSpans() { return collector_.Drain(); }

 private:
  void OnWorker(const std::function<void()>& fn) {
    std::exception_ptr error;
    worker_.Submit([&] {
      try {
        fn();
      } catch (...) {
        error = std::current_exception();
      }
    });
    worker_.Wait();
    if (error) std::rethrow_exception(error);
  }

  telemetry::TraceCollector collector_;
  std::map<std::string, std::map<std::string, std::uint64_t>> deltas_;
  kernels::OpCounts ops_;
  ThreadPool worker_{1};
};

// ---------------------------------------------------------------------------
// The benchmark
// ---------------------------------------------------------------------------

/// A reported metric. Units, directions and bounds live in BENCHMARK.json
/// alone; run.py attaches them to the values.
struct Metric {
  std::string name;
  double value = 0.0;
  std::size_t samples = 0;  ///< 0 = not a sample statistic
  bool supported = true;    ///< percentile has >= 10 samples beyond it
};

/// Accumulated measurements of one episode group (untraced or traced).
struct Group {
  ClientLog log;
  std::vector<double> requests;   ///< per client index
  std::vector<double> active_ms;  ///< per client index, slow-log reads out
  std::vector<double> setup_ms;
  std::vector<double> heap_mb;  ///< at the end of each episode's script
  double script_ms = 0.0;
  std::map<std::string, std::uint64_t> counters;  ///< registry deltas
  std::size_t episodes = 0;

  double OpsPerSecond() const {
    double ops = 0.0;
    for (std::size_t c = 0; c < requests.size(); ++c) {
      if (active_ms[c] > 0.0) ops += requests[c] / (active_ms[c] / 1000.0);
    }
    return ops;
  }
};

class Bench {
 public:
  explicit Bench(Flags flags)
      : flags_(std::move(flags)),
        shape_(ShapeFor(flags_.workload, flags_.smoke)),
        workload_index_(static_cast<std::uint64_t>(
            std::find(WorkloadNames().begin(), WorkloadNames().end(),
                      flags_.workload) -
            WorkloadNames().begin())),
        traced_run_(!flags_.trace_path.empty()),
        tmp_dir_(fs::absolute(fs::path(flags_.cache_dir) / "tmp" /
                              StrFormat("%s-%d", flags_.workload.c_str(),
                                        static_cast<int>(::getpid())))
                     .string()) {}

  /// Generates (or finds) every corpus file this workload reads.
  void MakeFixtures() {
    for (int k = 0; k < shape_.corpora; ++k) CorpusPath(k);
    Fixture(CorpusSeed(0), shape_.replay_photos);
  }

  int Run() {
    MakeFixtures();
    fs::create_directories(tmp_dir_);
    for (int k = 0; k < shape_.corpora; ++k) {
      totals_.push_back(LoadCorpus(CorpusPath(k)).TotalBytes());
    }
    first_plans_.assign(shape_.sessions, "");
    first_budgets_.assign(shape_.sessions, 0);

    Measure();
    telemetry::SetEnabled(false);
    ReferenceChecks();
    if (traced_run_) Replay();
    fs::remove_all(tmp_dir_);
    return Report();
  }

 private:
  // --- inputs ---------------------------------------------------------------

  /// Independent 48-bit seeds per (run seed, workload, stream): JSON numbers
  /// are doubles, so seeds that travel on the wire must stay exact.
  std::uint64_t Derive(std::uint64_t stream) const {
    std::uint64_t state = flags_.seed * 0x9E3779B97F4A7C15ULL ^
                          (workload_index_ << 48) ^ stream;
    return SplitMix64(state) & ((1ULL << 48) - 1);
  }
  std::uint64_t CorpusSeed(int k) const {
    return Derive(static_cast<std::uint64_t>(k));
  }
  /// The k-th upload into corpus `corpus`'s sessions.
  std::uint64_t ArrivalSeed(int corpus, int k) const {
    return Derive(1000000 + static_cast<std::uint64_t>(corpus) * 10000 +
                  static_cast<std::uint64_t>(k));
  }

  /// Path of the cached corpus for (seed, size), generated on first use.
  std::string Fixture(std::uint64_t seed, std::size_t photos) const {
    const fs::path dir = fs::path(flags_.cache_dir) / "fixtures";
    const fs::path path =
        fs::absolute(dir / StrFormat("openimages-%012llx-%zu.phocorp",
                                     static_cast<unsigned long long>(seed),
                                     photos));
    if (!fs::exists(path)) {
      fs::create_directories(dir);
      OpenImagesOptions options;
      options.num_photos = photos;
      options.seed = seed;
      const fs::path tmp =
          path.string() + StrFormat(".tmp%d", static_cast<int>(::getpid()));
      SaveCorpus(GenerateOpenImagesCorpus(options), tmp.string());
      fs::rename(tmp, path);
    }
    return path.string();
  }
  std::string CorpusPath(int corpus) const {
    return Fixture(CorpusSeed(corpus), shape_.photos);
  }

  // --- the measured phase ---------------------------------------------------

  void Measure() {
    if (traced_run_) {
      // A discarded warm-up (its failures still count): the first episode
      // pays one-time costs — pool start, lazily built tables — that would
      // otherwise all land on the untraced side of trace.overhead_frac.
      Group warmup;
      RunEpisode(0, false, warmup);
      untraced_.log.AbsorbFailures(warmup.log);
    }
    const int first = traced_run_ ? 1 : 0;
    const int min_episodes =
        flags_.smoke ? (traced_run_ ? 2 : 1) : (traced_run_ ? 4 : 3);
    for (int episode = first;; ++episode) {
      const bool traced = traced_run_ && episode % 2 == 1;
      Group& group = traced ? traced_ : untraced_;
      telemetry::SetEnabled(traced);
      kernels::SetOpCountingEnabled(false);
      const auto before = CounterValues();
      const double script_before = group.script_ms;
      RunEpisode(episode, traced, group);
      const double episode_ms = group.script_ms - script_before;
      for (const auto& [name, value] : CounterValues()) {
        auto it = before.find(name);
        group.counters[name] += value - (it == before.end() ? 0 : it->second);
      }
      ++group.episodes;
      // Whole episodes only; stop once another would end more past
      // --seconds than this stop falls short of it.
      const double script_ms = untraced_.script_ms + traced_.script_ms;
      if (script_ms + episode_ms / 2.0 >= flags_.seconds * 1000.0 &&
          episode - first + 1 >= min_episodes) {
        break;
      }
    }
    telemetry::SetEnabled(false);
  }

  void RunEpisode(int episode, bool traced, Group& group) {
    episode_ = episode;
    const std::string& w = flags_.workload;
    if (w == "plan_cold") PlanColdEpisode(traced, group);
    if (w == "ingest_wal") IngestWalEpisode(traced, group);
    if (w == "rebudget") RebudgetEpisode(traced, group);
    if (w == "cluster_mix") ClusterMixEpisode(traced, group);
  }

  using Clients = std::vector<std::unique_ptr<BenchClient>>;

  /// Opens the load connections; `phase` keeps request ids unique when an
  /// episode reconnects after a restart.
  Clients Connect(const Cluster& cluster, bool traced,
                  const char* phase = "") {
    Clients clients;
    for (int c = 0; c < shape_.clients; ++c) {
      clients.push_back(std::make_unique<BenchClient>(
          cluster.front_port(), flags_.workload,
          StrFormat("%s-e%d%s-c%d", flags_.workload.c_str(), episode_, phase,
                    c),
          traced));
    }
    return clients;
  }

  /// Runs `script(c)` on one thread per client and books the requests,
  /// active time and wall time into `group`.
  void Segment(Clients& clients, Group& group,
               const std::function<void(int)>& script) {
    const std::size_t n = clients.size();
    group.requests.resize(n, 0.0);
    group.active_ms.resize(n, 0.0);
    std::vector<double> active(n, 0.0);
    std::vector<std::size_t> before(n);
    std::vector<double> fetch_before(n);
    for (std::size_t c = 0; c < n; ++c) {
      before[c] = clients[c]->log().samples.size();
      fetch_before[c] = clients[c]->fetch_ms();
    }
    const Clock::time_point start = Clock::now();
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < n; ++c) {
      threads.emplace_back([&, c] {
        const Clock::time_point begin = Clock::now();
        try {
          script(static_cast<int>(c));
        } catch (const std::exception& error) {
          clients[c]->log().Error(
              StrFormat("client %zu aborted: %s", c, error.what()));
        }
        active[c] = MsSince(begin);
      });
    }
    for (std::thread& thread : threads) thread.join();
    group.script_ms += MsSince(start);
    for (std::size_t c = 0; c < n; ++c) {
      group.requests[c] +=
          static_cast<double>(clients[c]->log().samples.size() - before[c]);
      group.active_ms[c] +=
          active[c] - (clients[c]->fetch_ms() - fetch_before[c]);
    }
  }

  void Finish(Clients& clients, Group& group) {
    for (auto& client : clients) group.log.Absorb(std::move(client->log()));
    clients.clear();
  }

  std::string CreateSession(BenchClient& client, int corpus, ClientLog& log,
                            const std::string& routing_key = "") {
    Json params = Json::Object();
    params.Set("corpus",
               Params({{"kind", Json("file")},
                       {"path", Json(CorpusPath(corpus))}}));
    if (!routing_key.empty()) params.Set("routing_key", routing_key);
    const Json created =
        client.conn().Call("create_session", std::move(params));
    log.Check(static_cast<Cost>(created.Get("total_bytes").AsInt()) ==
                  totals_[corpus],
              "session corpus matches its fixture");
    return created.Get("session").AsString();
  }

  std::string WalDir() const {
    return (fs::path(tmp_dir_) / StrFormat("wal-%d", episode_)).string();
  }

  /// plan_cold: every budget is a miss followed by cache hits, over distinct
  /// corpora (no WAL, no streaming). The hits cost little time but keep at
  /// least ten samples beyond the p90 of the ~40 misses a run affords.
  void PlanColdEpisode(bool traced, Group& group) {
    const Clock::time_point setup = Clock::now();
    auto cluster = StartCluster(1, false, "", traced);
    Clients clients = Connect(*cluster, traced);
    std::vector<std::string> sessions;
    for (int j = 0; j < shape_.sessions; ++j) {
      sessions.push_back(
          CreateSession(*clients[j % shape_.clients], j, group.log));
    }
    group.setup_ms.push_back(MsSince(setup));
    std::mutex mutex;
    Segment(clients, group, [&](int c) {
      BenchClient& client = *clients[c];
      for (int i = 0; i < shape_.steps; ++i) {
        for (int j = c; j < shape_.sessions; j += shape_.clients) {
          // Twelve budget levels, 10%..43% of the corpus in 3% steps,
          // spread over the sessions; no session sees a level twice in one
          // episode.
          const int level = (12 * j / shape_.sessions + i) % 12;
          const Cost budget = Fraction(0.10 + 0.03 * level, totals_[j]);
          const Json miss =
              client.Call("plan", BudgetParams(sessions[j], budget), "plan",
                          budget);
          if (miss.is_null()) continue;
          const std::string miss_bytes = miss.Get("plan").Dump();
          for (int read = 0; read < shape_.reads; ++read) {
            const Json hit =
                client.Call("plan", BudgetParams(sessions[j], budget), "plan",
                            budget);
            if (hit.is_null()) continue;
            client.log().Check(hit.Get("cached").AsBool() &&
                                   hit.Get("plan").Dump() == miss_bytes,
                               "plan cache hit is byte-identical to its miss");
          }
          if (episode_ == 0 && i == 0) {
            std::lock_guard<std::mutex> lock(mutex);
            first_plans_[j] = miss_bytes;
            first_budgets_[j] = budget;
          }
        }
      }
    });
    group.heap_mb.push_back(HeapMb());
    Finish(clients, group);
  }

  /// One 16-photo upload. The budget follows the collection (30% of its
  /// bytes), so plan quality does not drift with how far a stream has grown.
  Json IngestParams(const std::string& session, int corpus, int k) const {
    return Params({{"session", Json(session)},
                   {"count", Json(16)},
                   {"seed", Json(ArrivalSeed(corpus, k))},
                   {"epsilon", Json(0.25)},
                   {"batch_photos", Json(48)},
                   {"budget_fraction", Json(0.30)}});
  }

  /// ingest_wal: two clients stream identical uploads into twin sessions
  /// (one twin pair per corpus) with the WAL on. The twins diverge only at
  /// the end: client 0 flushes before a graceful restart, client 1 recovers
  /// its queued batches after it, and the recovered plan must match the
  /// crash-free twin's byte for byte.
  void IngestWalEpisode(bool traced, Group& group) {
    const std::string wal_dir = WalDir();
    const int pairs = shape_.corpora;
    const int width = shape_.clients;
    auto index = [&](int pair, int c) { return width * pair + c; };
    // Creation order fixes the ids each WAL reattaches to after the restart.
    auto create_all = [&](Clients& conns, ClientLog& log) {
      std::vector<std::string> ids;
      for (int s = 0; s < shape_.sessions; ++s) {
        ids.push_back(CreateSession(*conns[s % width], s / width, log));
      }
      return ids;
    };
    const Clock::time_point setup = Clock::now();
    auto cluster = StartCluster(1, false, wal_dir, traced);
    Clients clients = Connect(*cluster, traced);
    const std::vector<std::string> sessions = create_all(clients, group.log);
    for (int s = 0; s < shape_.sessions; ++s) {
      // First streaming touch: the initial solve plus the WAL checkpoint.
      const int pair = s / width;
      Json params = IngestParams(sessions[s], pair, 0);
      params.Set("budget", Fraction(0.30, totals_[pair]));
      clients[s % width]->conn().Call("ingest", std::move(params));
    }
    group.setup_ms.push_back(MsSince(setup));

    std::vector<std::string> reference(pairs);
    std::vector<std::int64_t> flushed_photos(pairs, -1);
    Segment(clients, group, [&](int c) {
      BenchClient& client = *clients[c];
      auto flush = [&](int pair, const char* label) {
        return client.Call("ingest_flush",
                           SessionParams(sessions[index(pair, c)]), label);
      };
      for (int k = 1; k <= shape_.steps + 2; ++k) {
        for (int pair = 0; pair < pairs; ++pair) {
          client.Call("ingest",
                      IngestParams(sessions[index(pair, c)], pair, k),
                      "ingest");
          if (k % shape_.flush_every == 0 && k <= shape_.steps) {
            flush(pair, "ingest_flush");
          }
        }
      }
      // Two batches (32 photos) per session stay queued. Client 0 flushes
      // them now; client 1 keeps them queued across the restart.
      if (c != 0) return;
      for (int pair = 0; pair < pairs; ++pair) {
        const Json flushed = flush(pair, "ingest_flush");
        if (!flushed.is_null() && flushed.Has("plan")) {
          reference[pair] = flushed.Get("plan").Dump();
          flushed_photos[pair] = flushed.Get("num_photos").AsInt();
        }
      }
    });
    group.heap_mb.push_back(HeapMb());
    // Graceful restart on the same WAL directory (untimed).
    Finish(clients, group);
    cluster->Stop();
    cluster = StartCluster(1, false, wal_dir, traced);
    Clients restarted = Connect(*cluster, traced, "r");
    create_all(restarted, restarted[0]->log());
    Segment(restarted, group, [&](int c) {
      BenchClient& client = *restarted[c];
      for (int pair = 0; pair < pairs; ++pair) {
        const Json flushed =
            client.Call("ingest_flush",
                        SessionParams(sessions[index(pair, c)]),
                        "recover_flush");
        if (flushed.is_null()) continue;
        if (c == 1) {
          client.log().Check(
              flushed.Has("plan") &&
                  flushed.Get("plan").Dump() == reference[pair],
              "recovered flush plan is byte-identical to the crash-free "
              "twin's");
        } else {
          client.log().Check(
              flushed.Get("num_photos").AsInt() == flushed_photos[pair],
              "every acknowledged photo survives the restart");
        }
      }
    });
    Finish(restarted, group);
    cluster.reset();
    fs::remove_all(wal_dir);
  }

  /// rebudget: one client cycles, session by session, a budget shrink that
  /// frees 2% of B, the grow back to B, and a 16-photo update, on
  /// WAL-backed sessions; it reads session_info after each change as a UI
  /// showing the archive would.
  void RebudgetEpisode(bool traced, Group& group) {
    const std::string wal_dir = WalDir();
    const Clock::time_point setup = Clock::now();
    auto cluster = StartCluster(1, false, wal_dir, traced);
    Clients clients = Connect(*cluster, traced);
    BenchClient& client = *clients[0];
    std::vector<std::string> sessions;
    std::vector<Cost> budgets;
    std::vector<Cost> retained;
    for (int j = 0; j < shape_.sessions; ++j) {
      sessions.push_back(CreateSession(client, j, group.log));
      budgets.push_back(Fraction(0.30, totals_[j]));
      // First streaming touch: the initial solve at B plus the WAL checkpoint.
      const Json first = client.conn().Call(
          "set_budget", BudgetParams(sessions[j], budgets[j]));
      retained.push_back(first.Get("plan").Get("retained_bytes").AsInt());
    }
    group.setup_ms.push_back(MsSince(setup));
    Segment(clients, group, [&](int) {
      for (int k = 0; k < shape_.steps; ++k) {
        const int j = k % shape_.sessions;
        auto info = [&] {
          client.Call("session_info", SessionParams(sessions[j]),
                      "session_info");
        };
        // Shrink below what the plan retains, not below B: every shrink then
        // frees the same 2% of B whatever slack the plan had.
        const Cost shrunk = retained[j] - Fraction(0.02, budgets[j]);
        client.Call("set_budget", BudgetParams(sessions[j], shrunk),
                    "set_budget_shrink", shrunk);
        info();
        client.Call("set_budget", BudgetParams(sessions[j], budgets[j]),
                    "set_budget_grow", budgets[j]);
        info();
        const Json updated = client.Call(
            "update",
            Params({{"session", Json(sessions[j])},
                    {"count", Json(16)},
                    {"seed", Json(ArrivalSeed(j, k))}}),
            "update", budgets[j]);
        if (!updated.is_null()) {
          retained[j] = updated.Get("plan").Get("retained_bytes").AsInt();
        }
        info();
      }
    });
    group.heap_mb.push_back(HeapMb());
    Finish(clients, group);
    cluster.reset();
    fs::remove_all(wal_dir);
  }

  /// cluster_mix: two shards behind the coordinator. Each round one budget
  /// change (a cheap 600-photo solve) is followed by many reads of the
  /// result — cached plans and session_info — so the serving path (hop,
  /// framing, JSON, plan cache) takes most of the script time.
  void ClusterMixEpisode(bool traced, Group& group) {
    const Clock::time_point setup = Clock::now();
    auto cluster = StartCluster(2, true, "", traced);
    Clients clients = Connect(*cluster, traced);
    std::vector<std::string> sessions;
    for (int j = 0; j < shape_.sessions; ++j) {
      // Each client's sessions live on a shard of its own. The coordinator
      // serializes calls per shard, so shared shards would make a cached
      // plan's latency depend on whether it happened to queue behind the
      // other client's solve; pinned placement never depends on the seed.
      const int owner = j % shape_.clients;
      sessions.push_back(CreateSession(*clients[owner], j, group.log,
                                       RoutingKeyFor(*cluster, j, owner)));
    }
    group.setup_ms.push_back(MsSince(setup));

    struct Planned {
      std::string session;
      Cost budget;
      std::string bytes;
    };
    // Per session: its latest plans, all still in the owning shard's cache
    // (4 sessions per shard x kRecent stays below its 32 entries).
    constexpr std::size_t kRecent = 4;
    std::vector<std::vector<Planned>> recent(shape_.sessions);
    std::mutex mutex;
    const int per_client = shape_.sessions / shape_.clients;
    Segment(clients, group, [&](int c) {
      BenchClient& client = *clients[c];
      for (int r = 0; r < shape_.steps; ++r) {
        const int j = c + shape_.clients * (r % per_client);
        const Cost budget = Fraction(0.10 + 0.01 * (r % 30), totals_[j]) + r;
        const Json miss =
            client.Call("plan", BudgetParams(sessions[j], budget), "plan",
                        budget);
        const std::string miss_bytes =
            miss.is_null() ? "" : miss.Get("plan").Dump();
        for (int read = 0; read < shape_.reads; ++read) {
          if (read % 8 == 7) {
            client.Call("session_info", SessionParams(sessions[j]),
                        "session_info");
            continue;
          }
          const Json hit =
              client.Call("plan", BudgetParams(sessions[j], budget), "plan",
                          budget);
          if (hit.is_null()) continue;
          client.log().Check(hit.Get("cached").AsBool() &&
                                 hit.Get("plan").Dump() == miss_bytes,
                             "cached plan through the coordinator is "
                             "byte-identical to its miss");
        }
        if (miss.is_null()) continue;
        recent[j].push_back({sessions[j], budget, miss_bytes});
        if (recent[j].size() > kRecent) recent[j].erase(recent[j].begin());
        if (episode_ == 0 && r < per_client) {
          std::lock_guard<std::mutex> lock(mutex);
          first_plans_[j] = miss_bytes;
          first_budgets_[j] = budget;
        }
      }
    });
    group.heap_mb.push_back(HeapMb());
    // The latest plans, repeated directly against the owning shard
    // (untimed): the coordinator must not alter a byte.
    std::map<int, std::unique_ptr<service::ServiceClient>> direct;
    for (const auto& planned : recent) {
      for (const Planned& p : planned) {
        std::string local;
        const int port = ShardPortOf(p.session, &local);
        auto& conn = direct[port];
        if (conn == nullptr) {
          conn = std::make_unique<service::ServiceClient>("127.0.0.1", port);
        }
        try {
          const Json result = conn->Call("plan", BudgetParams(local, p.budget));
          group.log.Check(result.Get("plan").Dump() == p.bytes,
                          "coordinator plan is byte-identical to the shard's");
        } catch (const service::ServiceError& error) {
          group.log.Error(std::string("direct shard plan: ") + error.what());
        }
      }
    }
    direct.clear();
    Finish(clients, group);
  }

  // --- checks after the measured phase ---------------------------------------

  /// The first budget of each session against an in-process solve.
  void ReferenceChecks() {
    const std::string& w = flags_.workload;
    if (w != "plan_cold" && w != "cluster_mix") return;
    for (int j = 0; j < shape_.sessions; ++j) {
      if (first_plans_[j].empty()) {
        untraced_.log.Check(
            false, StrFormat("session %d produced a first plan", j));
        continue;
      }
      PhocusSystem system(LoadCorpus(CorpusPath(j)));
      ArchiveOptions options;
      options.budget = first_budgets_[j];
      untraced_.log.Check(
          service::PlanToJson(system.PlanArchive(options)).Dump() ==
              first_plans_[j],
          StrFormat("session %d first plan is byte-identical to an "
                    "in-process PlanArchive",
                    j));
    }
  }

  // --- layer replay (traced runs) -------------------------------------------

  void Replay() {
    telemetry::SetEnabled(true);
    LayerReplay replay;
    const Corpus plan_corpus = LoadCorpus(CorpusPath(0));
    // Session 0's first planned budget, where the workload plans at all.
    replay_budget_ = first_budgets_[0] > 0 ? first_budgets_[0]
                                           : Fraction(0.25, totals_[0]);
    const Cost budget = replay_budget_;
    const RepresentationOptions repr =
        ArchiveOptions::DefaultPhocusRepresentation();

    // datagen: server-side arrival generation for one 48-photo batch.
    const double arrival_ms = replay.Time("datagen.arrivals", 3, [&] {
      Arrivals(48, ArrivalSeed(0, 999), plan_corpus.num_photos());
    });
    layer_["datagen.arrival_ms_per_photo"] = arrival_ms / 48.0;

    // The plan path: representation, CELF, online bound, serialization.
    std::optional<ParInstance> instance;
    layer_["phocus.representation.build_ms"] = replay.Time(
        "representation.build", 5,
        [&] {
          instance.emplace(BuildInstance(plan_corpus, budget, repr));
          instance->Validate();
          instance->BuildMembershipIndex();
        },
        [&] { instance.reset(); });
    SolverResult solved;
    layer_["core.celf.solve_ms"] = replay.Time("celf.solve", 5, [&] {
      CelfSolver solver;
      solved = solver.Solve(*instance);
    });
    layer_["core.online_bound_ms"] = replay.Time("online_bound", 5, [&] {
      ComputeOnlineBound(*instance, solved.selected);
    });
    ArchiveOptions plan_options;
    plan_options.budget = budget;
    const ArchivePlan plan =
        PhocusSystem(plan_corpus).PlanArchive(plan_options);
    layer_["service.plan_json_ms"] = replay.Time(
        "plan_json", 5, [&] { service::PlanToJson(plan).Dump(); });

    // BuildInstance thresholds inline (the sparsify.* counters belong to the
    // standalone Sparsify pass), so read the kept share off the instance.
    double dense_entries = 0.0;
    for (SubsetId q = 0; q < instance->num_subsets(); ++q) {
      const double m = static_cast<double>(instance->subset(q).size());
      dense_entries += m * (m - 1.0);
    }
    layer_["core.sparsify.keep_frac"] = Ratio(
        static_cast<double>(instance->CountSimEntries()), dense_entries);

    // Warm LshIndexCache plus one 48-photo append.
    Corpus grown = plan_corpus;
    {
      Corpus arrivals =
          Arrivals(48, ArrivalSeed(0, 998), plan_corpus.num_photos());
      for (CorpusPhoto& p : arrivals.photos) {
        grown.photos.push_back(std::move(p));
      }
      for (SubsetSpec& s : arrivals.subsets) {
        grown.subsets.push_back(std::move(s));
      }
    }
    LshIndexCache cache;
    layer_["phocus.representation.rebuild_ms"] = replay.Time(
        "representation.rebuild", 3,
        [&] { BuildInstance(grown, budget, repr, &cache); },
        [&] {
          cache.Clear();
          BuildInstance(plan_corpus, budget, repr, &cache);
        });
    const std::vector<std::string> lsh_layers = {"representation.build",
                                                 "representation.rebuild"};
    for (const char* counter :
         {"lsh.candidate_pairs", "lsh.output_pairs", "lsh.signatures_computed",
          "lsh.signatures_reused"}) {
      layer_[counter] = replay.Delta(counter, lsh_layers);
    }
    layer_["lsh.verify_yield"] =
        Ratio(layer_["lsh.output_pairs"], layer_["lsh.candidate_pairs"]);

    // Serving first: the solo plan round trip is the denominator of
    // trace.accounted_frac, so it is timed close to the plan-path replays.
    ReplayServing(replay);
    ReplayIncremental(replay);

    layer_["core.celf.gain_evals"] = replay.Delta("solver.celf.gain_evals");
    const double hits = replay.Delta("solver.celf.lazy_hits");
    layer_["core.celf.lazy_hit_frac"] =
        Ratio(hits, hits + replay.Delta("solver.celf.lazy_misses"));
    const kernels::OpCounts& ops = replay.ops();
    layer_["kernels.dot_elems"] = static_cast<double>(ops.dot_elems);
    layer_["kernels.gain_elems"] = static_cast<double>(ops.gain_elems);
    layer_["kernels.simhash_macs"] = static_cast<double>(ops.simhash_macs);
    layer_["kernels.hamming_words"] = static_cast<double>(ops.hamming_words);
    layer_["kernels.dct_blocks"] = static_cast<double>(ops.dct_blocks);

    // The plan path's replayed layers against a solo plan round trip.
    layer_["trace.accounted_frac"] =
        Ratio(layer_["phocus.representation.build_ms"] +
                  layer_["core.celf.solve_ms"] +
                  layer_["core.online_bound_ms"] +
                  layer_["service.plan_json_ms"],
              solo_plan_ms_);

    replay_spans_ = replay.DrainSpans();
    telemetry::SetEnabled(false);
  }

  /// Local search, the incremental archiver, the streamer and the WAL, on
  /// the (size-capped) replay corpus.
  void ReplayIncremental(LayerReplay& replay) {
    const Corpus corpus =
        LoadCorpus(Fixture(CorpusSeed(0), shape_.replay_photos));
    const Cost budget = Fraction(0.30, corpus.TotalBytes());
    const RepresentationOptions repr =
        ArchiveOptions::DefaultPhocusRepresentation();
    const std::size_t n = corpus.num_photos();

    // LazyGreedyFrom + ImproveByLocalSearch from half of a CELF solution.
    ParInstance instance = BuildInstance(corpus, budget, repr);
    instance.BuildMembershipIndex();
    const SolverResult full = CelfSolver().Solve(instance);
    const std::vector<PhotoId> seed(
        full.selected.begin(),
        full.selected.begin() +
            static_cast<std::ptrdiff_t>(full.selected.size() / 2));
    SolverResult completed;
    replay.Time("celf.lazy_greedy_from", 3, [&] {
      completed = LazyGreedyFrom(instance, GreedyRule::kCostBenefit,
                                 CelfOptions{}, seed);
    });
    LocalSearchStats ls_stats;
    LocalSearchOptions ls_options;
    ls_options.max_passes = 1;
    SolverResult improved;
    layer_["core.local_search.ms"] = replay.Time(
        "local_search", 3,
        [&] { ls_stats = ImproveByLocalSearch(instance, improved, ls_options); },
        [&] { improved = completed; });
    layer_["core.local_search.moves_tried"] = ls_stats.moves_tried;
    layer_["core.local_search.accept_frac"] =
        Ratio(ls_stats.moves_accepted, ls_stats.moves_tried);

    // IncrementalArchiver: drift, replan, shrink, grow (stateful: one run).
    IncrementalOptions inc_options;
    inc_options.archive.budget = budget;
    IncrementalArchiver archiver(inc_options);
    archiver.Initialize(corpus);
    Corpus arrivals = Arrivals(48, ArrivalSeed(0, 997), n);
    archiver.AddPhotosDeferred(std::move(arrivals.photos),
                               std::move(arrivals.subsets));
    layer_["phocus.incremental.drift_ms"] = replay.Time(
        "incremental.drift", 1, [&] { archiver.EstimateDrift(); });
    layer_["phocus.incremental.replan_ms"] = replay.Time(
        "incremental.replan", 1, [&] { archiver.ReplanNow(); });
    IncrementalUpdateStats shrink_stats;
    layer_["phocus.incremental.shrink_ms"] =
        replay.Time("incremental.shrink", 1, [&] {
          archiver.SetBudget(Fraction(0.98, budget), &shrink_stats);
        });
    layer_["phocus.incremental.evicted"] =
        static_cast<double>(shrink_stats.evicted_for_feasibility);
    layer_["phocus.incremental.grow_ms"] = replay.Time(
        "incremental.grow", 1, [&] { archiver.SetBudget(budget); });

    // StreamingArchiver under the ingest_wal policy: 12 batches of 16.
    auto batch = [&](int k, std::size_t offset) {
      Corpus a = Arrivals(16, ArrivalSeed(0, k), offset);
      IngestBatch b;
      b.photos = std::move(a.photos);
      b.subsets = std::move(a.subsets);
      return b;
    };
    StreamingOptions streaming;
    streaming.incremental.archive.budget = budget;
    streaming.epsilon = 0.25;
    streaming.batch_photos = 48;
    StreamingArchiver streamer(streaming);
    streamer.Initialize(corpus);
    replay.Time("streaming.ingest", 1, [&] {
      for (int k = 0; k < 12; ++k) {
        streamer.Ingest(batch(k, n + 16 * static_cast<std::size_t>(k)));
      }
    });
    layer_["phocus.streaming.replans"] =
        static_cast<double>(streamer.replans());
    layer_["phocus.streaming.replans_skipped"] =
        static_cast<double>(streamer.replans_skipped());
    layer_["phocus.streaming.drift_evals"] =
        static_cast<double>(streamer.drift_evals());

    // IngestWal: fsync'd appends, checkpoint rotation, session recovery.
    const std::string wal_dir = (fs::path(tmp_dir_) / "replay-wal").string();
    fs::create_directories(wal_dir);
    WalCheckpoint checkpoint;
    checkpoint.base_fingerprint = WalChecksum(EncodeCorpus(corpus));
    checkpoint.incremental = inc_options;
    checkpoint.corpus = corpus;
    checkpoint.retained =
        PhocusSystem(corpus).PlanArchive(inc_options.archive).retained;
    std::vector<IngestBatch> batches;
    for (int k = 0; k < 12; ++k) {
      batches.push_back(batch(100 + k, n + 16 * static_cast<std::size_t>(k)));
    }
    IngestWal wal(wal_dir, "replay");
    wal.Start(checkpoint);
    layer_["phocus.ingest_wal.checkpoint_bytes"] =
        static_cast<double>(fs::file_size(wal.checkpoint_path()));
    std::size_t next = 0;
    layer_["phocus.ingest_wal.append_ms"] =
        replay.Time("ingest_wal.append", static_cast<int>(batches.size()),
                    [&] { wal.AppendBatch(batches[next++]); });
    const std::vector<std::string> append_layer = {"ingest_wal.append"};
    const double appends = replay.Delta("ingest.wal_appends", append_layer);
    layer_["phocus.ingest_wal.fsyncs_per_ack"] =
        Ratio(replay.Delta("ingest.wal_fsyncs", append_layer), appends);
    layer_["phocus.ingest_wal.bytes_per_photo"] =
        Ratio(replay.Delta("ingest.wal_append_bytes", append_layer),
              16.0 * appends);
    // Recovery of a session whose log holds every appended batch; each
    // repetition re-appends them (untimed) after the previous recovery
    // compacted the log.
    layer_["phocus.ingest_wal.recover_ms"] = replay.Time(
        "ingest_wal.recover", 3,
        [&] {
          StreamingArchiver::RecoverFromWal(
              std::make_unique<IngestWal>(wal_dir, "replay"),
              checkpoint.base_fingerprint);
        },
        [&] {
          if (next < batches.size()) return;  // first run: already appended
          IngestWal again(wal_dir, "replay");
          again.Start(checkpoint);
          for (const IngestBatch& b : batches) again.AppendBatch(b);
        });
    IngestWal rotating(wal_dir, "replay-rotate");
    rotating.Start(checkpoint);
    WalCheckpoint next_checkpoint;
    layer_["phocus.ingest_wal.rotate_ms"] = replay.Time(
        "ingest_wal.rotate", 3,
        [&] { rotating.Rotate(std::move(next_checkpoint)); },
        [&] { next_checkpoint = checkpoint; });
    fs::remove_all(wal_dir);
  }

  /// Loopback RTT, a solo plan round trip and the coordinator hop, on a
  /// fresh two-shard cluster over the workload's first corpus.
  void ReplayServing(LayerReplay& replay) {
    telemetry::MetricsRegistry local;
    telemetry::ScopedMetricsRegistry scoped(&local);
    auto cluster = StartCluster(2, true, "", false);
    service::ServiceClient front("127.0.0.1", cluster->front_port());
    Json create = Json::Object();
    create.Set("corpus", Params({{"kind", Json("file")},
                                 {"path", Json(CorpusPath(0))}}));
    const std::string scoped_id = front.Call("create_session", create)
                                      .Get("session")
                                      .AsString();
    std::string local_id;
    service::ServiceClient shard("127.0.0.1",
                                 ShardPortOf(scoped_id, &local_id));
    auto timed_plan = [](service::ServiceClient& conn, const std::string& id,
                         Cost budget) {
      const Clock::time_point start = Clock::now();
      conn.Call("plan", BudgetParams(id, budget));
      return MsSince(start);
    };
    std::vector<double> solo;
    for (int i = 0; i < 5; ++i) {
      solo.push_back(timed_plan(shard, local_id, replay_budget_ + i));
    }
    solo_plan_ms_ = Median(solo);
    local.Reset();  // route_ns over cached plans only
    std::vector<double> via_coordinator;
    std::vector<double> direct;
    replay.Time("coordinator.hop", 1, [&] {
      for (int i = 0; i < 25; ++i) {
        via_coordinator.push_back(
            timed_plan(front, scoped_id, replay_budget_));
        direct.push_back(timed_plan(shard, local_id, replay_budget_));
      }
    });
    layer_["coordinator.hop_ms_p50"] =
        Median(via_coordinator) - Median(direct);
    for (const auto& h : local.Snapshot().histograms) {
      if (h.name == "coordinator.route_ns") {
        layer_["coordinator.route_ms_p50"] = h.p50 / 1e6;
      }
    }
    std::vector<double> pings;
    for (int i = 0; i < 50; ++i) {
      const Clock::time_point start = Clock::now();
      shard.Ping();
      pings.push_back(MsSince(start));
    }
    layer_["service.loopback_rtt_ms"] = Median(pings);
  }

  // --- reporting --------------------------------------------------------------

  static Metric PercentileMetric(const std::string& name,
                                 const std::vector<double>& values, double q) {
    Metric m{name, Percentile(values, q), values.size()};
    m.supported = static_cast<double>(values.size()) * (1.0 - q) >= 10.0;
    return m;
  }

  std::vector<Metric> EndToEnd() const {
    const ClientLog& log = untraced_.log;
    std::vector<double> all, solve;
    for (const Sample& s : log.samples) {
      all.push_back(s.ms);
      if (s.solve) solve.push_back(s.ms);
    }
    double fraction_sum = 0.0;
    for (double f : log.score_fractions) fraction_sum += f;
    const double fractions = static_cast<double>(log.score_fractions.size());
    return {
        {"setup_s", Median(untraced_.setup_ms) / 1000.0,
         untraced_.setup_ms.size()},
        {"ops_per_s", untraced_.OpsPerSecond(), all.size()},
        PercentileMetric("latency_ms_p90", all, 0.9),
        PercentileMetric("solve_ms_p50", solve, 0.5),
        {"heap_mb", Median(untraced_.heap_mb), untraced_.heap_mb.size()},
        {"score_fraction_mean", Ratio(fraction_sum, fractions),
         log.score_fractions.size()},
    };
  }

  std::vector<Metric> PerLayer() {
    const ClientLog& traced = traced_.log;
    layer_["service.queue_wait_ms_p50"] =
        Percentile(traced.queue_wait_ms, 0.5);
    layer_["service.respond_ms_p50"] = Percentile(traced.respond_ms, 0.5);
    double hits = 0.0, misses = 0.0;
    for (const Sample& s : traced.samples) {
      hits += s.label == "plan_hit";
      misses += s.label == "plan_miss";
    }
    layer_["service.plan_cache.hit_frac"] = Ratio(hits, hits + misses);
    auto counter = [&](const char* name) {
      auto it = untraced_.counters.find(name);
      return it == untraced_.counters.end()
                 ? 0.0
                 : static_cast<double>(it->second);
    };
    layer_["service.bytes_out_per_req"] =
        Ratio(counter("service.bytes_out"), counter("service.requests"));
    layer_["trace.overhead_frac"] =
        1.0 - Ratio(traced_.OpsPerSecond(), untraced_.OpsPerSecond());

    std::vector<Metric> out;
    for (const auto& [name, value] : layer_) out.push_back({name, value});
    return out;
  }

  /// Per-verb latency breakdown and each verb's share of the summed request
  /// time (informational; not a contract metric).
  static Json VerbTable(const ClientLog& log) {
    std::map<std::string, std::vector<double>> by_label;
    double total = 0.0;
    for (const Sample& s : log.samples) {
      by_label[s.label].push_back(s.ms);
      total += s.ms;
    }
    Json out = Json::Object();
    for (const auto& [label, values] : by_label) {
      Json row = Json::Object();
      row.Set("count", values.size());
      row.Set("p25_ms", Percentile(values, 0.25));
      row.Set("p50_ms", Percentile(values, 0.5));
      row.Set("p75_ms", Percentile(values, 0.75));
      if (values.size() >= 100) row.Set("p90_ms", Percentile(values, 0.9));
      double sum = 0.0;
      for (double v : values) sum += v;
      row.Set("mean_ms", sum / static_cast<double>(values.size()));
      row.Set("time_share", Ratio(sum, total));
      out.Set(label, std::move(row));
    }
    return out;
  }

  Json Meta() const {
    Json meta = Json::Object();
    // The binary pins PHOCUS_NUM_THREADS itself; any other PHOCUS_* setting
    // in the environment changes behaviour and is part of the command.
    std::string env;
    for (char** var = environ; *var != nullptr; ++var) {
      const std::string entry = *var;
      if (StartsWith(entry, "PHOCUS_")) env += entry + " ";
    }
    meta.Set("command",
             StrFormat("%spython3 phocus_bench/run.py --workload %s "
                       "--seed %llu --seconds %g --trace %d%s",
                       env.c_str(), flags_.workload.c_str(),
                       static_cast<unsigned long long>(flags_.seed),
                       flags_.seconds, traced_run_ ? 1 : 0,
                       flags_.smoke ? " --smoke" : ""));
    meta.Set("pool_threads", kPoolThreads);
    meta.Set("server_workers", static_cast<std::uint64_t>(kServerWorkers));
    meta.Set("clients", shape_.clients);
    meta.Set("isa", kernels::ActiveIsaName());
    meta.Set("hardware_threads",
             static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
    meta.Set("compiler", __VERSION__);
    meta.Set("telemetry_compiled", telemetry::kCompiled);
    meta.Set("photos_per_session", static_cast<std::uint64_t>(shape_.photos));
    meta.Set("corpora", shape_.corpora);
    meta.Set("sessions", shape_.sessions);
    meta.Set("steps_per_episode", shape_.steps);
    meta.Set("episodes", static_cast<std::uint64_t>(untraced_.episodes));
    meta.Set("traced_episodes", static_cast<std::uint64_t>(traced_.episodes));
    meta.Set("script_seconds",
             (untraced_.script_ms + traced_.script_ms) / 1000.0);
    return meta;
  }

  int Report() {
    ClientLog all;
    all.Absorb(ClientLog(untraced_.log));
    all.Absorb(ClientLog(traced_.log));
    if (traced_run_ && traced_.log.unjoined > 0) {
      all.Check(false, StrFormat("%zu traced requests had no server span tree",
                                 traced_.log.unjoined));
    }
    const std::vector<Metric> metrics = traced_run_ ? PerLayer() : EndToEnd();
    const std::size_t attempted = std::max<std::size_t>(all.samples.size(), 1);
    const std::size_t failed = all.errors + all.check_failures;

    for (const std::string& failure : all.failures) {
      std::printf("FAIL %s\n", failure.c_str());
    }
    std::printf("workload %s seed %llu: %zu requests, %zu checks, %zu failed\n",
                flags_.workload.c_str(),
                static_cast<unsigned long long>(flags_.seed),
                all.samples.size(), all.checks, failed);
    const Json verbs = VerbTable(untraced_.log);
    for (const auto& [label, row] : verbs.entries()) {
      std::printf(
          "verb %-19s n=%-5lld p25 %9.3f  p50 %9.3f  p75 %9.3f  "
          "mean %9.3f ms  %5.1f%% of request time\n",
          label.c_str(), static_cast<long long>(row.Get("count").AsInt()),
          row.Get("p25_ms").AsDouble(), row.Get("p50_ms").AsDouble(),
          row.Get("p75_ms").AsDouble(), row.Get("mean_ms").AsDouble(),
          100.0 * row.Get("time_share").AsDouble());
    }
    Json metrics_json = Json::Object();
    Json detail = Json::Object();
    for (const Metric& m : metrics) {
      const std::string samples =
          m.samples == 0 ? ""
                         : StrFormat(" (n=%zu%s)", m.samples,
                                     m.supported ? "" : ", unsupported");
      std::printf("metric %-36s %14.6f%s\n", m.name.c_str(), m.value,
                  samples.c_str());
      metrics_json.Set(m.name, m.value);
      Json entry = Json::Object();
      entry.Set("value", m.value);
      if (m.samples > 0) entry.Set("samples", m.samples);
      if (!m.supported) entry.Set("supported", false);
      detail.Set(m.name, std::move(entry));
    }

    if (!flags_.json_path.empty()) {
      Json out = Json::Object();
      out.Set("workload", flags_.workload);
      out.Set("seed", flags_.seed);
      out.Set("trace", traced_run_);
      out.Set("correct", failed == 0);
      out.Set("attempted", attempted);
      out.Set("failed", failed);
      out.Set("checks", all.checks);
      out.Set("metrics", std::move(detail));
      out.Set("verbs", verbs);
      Json failures = Json::Array();
      for (const std::string& f : all.failures) failures.Append(f);
      out.Set("failures", std::move(failures));
      out.Set("meta", Meta());
      WriteFile(flags_.json_path, out.Dump(2));
    }
    if (traced_run_) {
      std::vector<telemetry::SpanRecord> spans = traced_.log.spans;
      for (telemetry::SpanRecord& s : replay_spans_) {
        spans.push_back(std::move(s));
      }
      for (telemetry::SpanRecord& s :
           telemetry::TraceCollector::Global().Drain()) {
        spans.push_back(std::move(s));
      }
      Json trace = telemetry::TelemetryToJson(
          telemetry::MetricsRegistry::Current().Snapshot(), spans,
          telemetry::TraceCollector::Global().dropped());
      trace.Set("meta", Meta());
      WriteFile(flags_.trace_path, trace.Dump());
    }

    Json result = Json::Object();
    result.Set("correct", failed == 0);
    result.Set("attempted", attempted);
    result.Set("failed", failed);
    result.Set("metrics", std::move(metrics_json));
    std::printf("%s\n", result.Dump().c_str());
    std::fflush(stdout);
    return failed == 0 ? 0 : 2;
  }

  Flags flags_;
  Shape shape_;
  std::uint64_t workload_index_;
  bool traced_run_;
  std::string tmp_dir_;
  int episode_ = 0;
  std::vector<Cost> totals_;  ///< per corpus
  std::vector<std::string> first_plans_;
  std::vector<Cost> first_budgets_;
  Group untraced_;
  Group traced_;
  Cost replay_budget_ = 0;
  double solo_plan_ms_ = 0.0;
  std::map<std::string, double> layer_;
  std::vector<telemetry::SpanRecord> replay_spans_;
};

}  // namespace
}  // namespace phocus

int main(int argc, char** argv) {
  // Pin the global pool before anything touches it.
  setenv("PHOCUS_NUM_THREADS", std::to_string(phocus::kPoolThreads).c_str(),
         1);
  phocus::SetLogLevel(phocus::LogLevel::kError);
  try {
    const phocus::Flags flags = phocus::ParseFlags(argc, argv);
    phocus::telemetry::SetEnabled(false);
    phocus::Bench bench(flags);
    if (flags.make_fixtures) {
      bench.MakeFixtures();
      return 0;
    }
    return bench.Run();
  } catch (const std::exception& error) {
    std::fprintf(stderr, "phocus_bench: %s\n", error.what());
    return 1;
  }
}
