#ifndef PHOCUS_TELEMETRY_METRICS_H_
#define PHOCUS_TELEMETRY_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

/// \file metrics.h
/// The phocus_telemetry metrics registry: named, thread-safe counters,
/// gauges, and log-scale histograms, cheap enough to leave on in release
/// builds.
///
/// Hot-path recorders are a single relaxed atomic op; metric *lookup*
/// (GetCounter etc.) takes a mutex, so instrumented loops should resolve
/// their metrics once up front (or accumulate locally and flush once).
///
/// One switch controls recording: SetEnabled(false) gates spans and
/// histograms at run time (counters and gauges stay on — a relaxed add is
/// cheaper than hiding it behind the branch would be worth).
///
/// Instrumented code reports into MetricsRegistry::Current(), which is the
/// process-global default registry unless a ScopedMetricsRegistry injects a
/// per-run one (benches and tests use this for isolated snapshots).
///
/// Naming convention: dot-separated `<module>.<component>.<metric>`, with
/// duration histograms suffixed `_ns` (values in nanoseconds) — e.g.
/// `solver.celf.lazy_hits`, `system.stage.solve_ns`. See
/// docs/OBSERVABILITY.md.

namespace phocus {
namespace telemetry {

/// Always true: recorders are always compiled in. Kept only because the
/// phocus_bench report still echoes it as `telemetry_compiled`.
inline constexpr bool kCompiled = true;

namespace internal {
extern std::atomic<bool> g_enabled;
}  // namespace internal

/// Runtime gate for spans and histogram recording. Defaults to enabled.
void SetEnabled(bool enabled);
inline bool Enabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}

/// Monotonically increasing event count. All operations are thread-safe.
class Counter {
 public:
  void Add(std::uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (queue depths, config echoes).
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Log-scale histogram over positive values (typically nanoseconds).
///
/// Buckets are geometric with 4 per doubling (upper bound of bucket i is
/// 2^{(i+1)/4}), so quantiles carry at most ~19% relative error — plenty for
/// latency percentiles. Recording is lock-free: one relaxed bucket add plus
/// CAS loops for the running sum and max.
class Histogram {
 public:
  static constexpr int kBucketsPerDoubling = 4;
  static constexpr int kNumBuckets = 64 * kBucketsPerDoubling;

  void Record(double value) {
    if (Enabled()) RecordImpl(value);
  }

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const;
  double max() const;
  double mean() const;

  /// Approximate q-quantile (q in [0, 1]): the upper bound of the bucket
  /// containing the ceil(q * count)-th smallest recorded value; 0 when empty.
  double Quantile(double q) const;

  void Reset();

  /// Bucket index for a value (exposed for tests).
  static int BucketIndex(double value);
  /// Upper bound of bucket i.
  static double BucketUpperBound(int index);

 private:
  void RecordImpl(double value);

  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_bits_{0};  // bit-cast double, CAS-added
  std::atomic<std::uint64_t> max_bits_{0};  // bit-cast double, CAS-maxed
  std::array<std::atomic<std::uint64_t>, kNumBuckets> buckets_{};
};

/// One exported metric value (see MetricsRegistry::Snapshot).
struct CounterValue {
  std::string name;
  std::uint64_t value = 0;
};
struct GaugeValue {
  std::string name;
  double value = 0.0;
};
struct HistogramValue {
  std::string name;
  std::uint64_t count = 0;
  double sum = 0.0;
  double mean = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

/// A point-in-time copy of every registered metric, name-sorted.
struct MetricsSnapshot {
  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;
};

/// Named metric store. Get* registers on first use and returns a reference
/// that stays valid for the registry's lifetime, so hot paths can resolve
/// once and record lock-free thereafter.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  MetricsSnapshot Snapshot() const;

  /// Zeroes every registered metric (names stay registered).
  void Reset();

  /// The process-global default registry.
  static MetricsRegistry& Default();
  /// The active registry: Default() unless a ScopedMetricsRegistry is live.
  static MetricsRegistry& Current();

 private:
  friend class ScopedMetricsRegistry;

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Injects `registry` as MetricsRegistry::Current() for this scope (process-
/// wide, not per-thread: intended to wrap one run in a bench or test, not to
/// interleave with concurrent scopes).
class ScopedMetricsRegistry {
 public:
  explicit ScopedMetricsRegistry(MetricsRegistry* registry);
  ~ScopedMetricsRegistry();
  ScopedMetricsRegistry(const ScopedMetricsRegistry&) = delete;
  ScopedMetricsRegistry& operator=(const ScopedMetricsRegistry&) = delete;

 private:
  MetricsRegistry* previous_;
};

}  // namespace telemetry
}  // namespace phocus

#endif  // PHOCUS_TELEMETRY_METRICS_H_
