#ifndef PHOCUS_TELEMETRY_TRACE_H_
#define PHOCUS_TELEMETRY_TRACE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/metrics.h"

/// \file trace.h
/// RAII tracing spans forming a parent/child tree with wall-clock durations
/// and key/value attributes.
///
/// Spans are collected per thread: a span opened while another span is live
/// on the same thread becomes its child; a span that finishes with no open
/// parent is a *root* and is deposited into the process-global
/// TraceCollector. ThreadPool tasks therefore produce their own roots, and
/// the collector is the merge point across workers.
///
/// A span is also the timer for its interval: it always reads the clock, so
/// ElapsedNanos() is valid whether or not telemetry is enabled, and it can
/// own the `_ns` histogram that receives its duration when it closes. When
/// telemetry is disabled at runtime, a span allocates no record and
/// deposits nothing, and its histogram's Record() is a no-op.

namespace phocus {
namespace telemetry {

/// One finished span. Times are nanoseconds on the steady clock, relative to
/// a process-wide trace epoch (the first span ever started).
struct SpanRecord {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t duration_ns = 0;
  std::vector<std::pair<std::string, std::string>> attributes;
  std::vector<SpanRecord> children;

  /// This span plus all descendants (tests, capacity accounting).
  std::size_t TotalSpans() const;
};

/// RAII span. Must be closed (destroyed) on the thread that opened it, in
/// LIFO order — the natural shape of scoped usage.
class TraceSpan {
 public:
  /// `histogram`, when non-null, receives the span's duration in
  /// nanoseconds when it closes.
  explicit TraceSpan(std::string name, Histogram* histogram = nullptr);
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attributes are formatted to strings at set time.
  void SetAttribute(const std::string& key, std::string value);
  void SetAttribute(const std::string& key, const char* value);
  void SetAttribute(const std::string& key, double value);
  void SetAttribute(const std::string& key, std::uint64_t value);

  /// Ends the span now and returns the finished record. The record is still
  /// attached to its parent (or deposited into the global collector when the
  /// span is a root), so callers get a copy to expose — e.g. on ArchivePlan —
  /// without removing it from the trace. Disabled spans return an empty
  /// record.
  SpanRecord Close();

  /// Appends `child`, a root drained from another thread's ScopedTraceSink,
  /// to this span's children (dropped when the span is disabled or closed).
  void AdoptChild(SpanRecord child) {
    if (record_ != nullptr) record_->children.push_back(std::move(child));
  }

  /// Time since the span opened; once closed, its final duration.
  std::uint64_t ElapsedNanos() const;
  double ElapsedSeconds() const {
    return static_cast<double>(ElapsedNanos()) * 1e-9;
  }

  /// False when telemetry was disabled at runtime when the span opened.
  bool active() const { return record_ != nullptr; }

 private:
  void Finish(SpanRecord* out);

  std::unique_ptr<SpanRecord> record_;
  Histogram* histogram_;
  std::chrono::steady_clock::time_point start_;
  std::uint64_t duration_ns_ = 0;
  bool open_ = true;
};

/// Process-global sink for finished root spans (bounded; excess roots are
/// counted, not stored).
class TraceCollector {
 public:
  static constexpr std::size_t kMaxRoots = 512;

  void Deposit(SpanRecord root);

  /// Copies the stored roots (does not clear).
  std::vector<SpanRecord> Snapshot() const;
  /// Moves the stored roots out and clears.
  std::vector<SpanRecord> Drain();
  void Clear();

  /// Roots dropped because the collector was full.
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  static TraceCollector& Global();

 private:
  mutable std::mutex mutex_;
  std::vector<SpanRecord> roots_;
  std::atomic<std::uint64_t> dropped_{0};
};

/// Redirects root spans finished on *this thread* into `collector` for the
/// scope's lifetime (nested scopes restore the previous sink). phocusd uses
/// one per request on its connection thread, so a request's span tree lands
/// in a request-local collector instead of the bounded process-global one.
class ScopedTraceSink {
 public:
  explicit ScopedTraceSink(TraceCollector* collector);
  ~ScopedTraceSink();
  ScopedTraceSink(const ScopedTraceSink&) = delete;
  ScopedTraceSink& operator=(const ScopedTraceSink&) = delete;

 private:
  TraceCollector* previous_;
};

/// Nanoseconds on the steady clock since the process trace epoch (latched on
/// first use). For building synthetic SpanRecords — e.g. phocusd's
/// admission-wait span — on the same timeline as real spans.
std::uint64_t TraceNowNs();

}  // namespace telemetry
}  // namespace phocus

#endif  // PHOCUS_TELEMETRY_TRACE_H_
