#include "telemetry/trace.h"

#include "util/strings.h"

namespace phocus {
namespace telemetry {

namespace {

using Clock = std::chrono::steady_clock;

/// Process-wide trace epoch: fixed the first time any span starts, so
/// start_ns values from different threads share one timeline.
Clock::time_point Epoch() {
  static const Clock::time_point epoch = Clock::now();
  return epoch;
}

std::uint64_t SinceEpochNs(Clock::time_point t) {
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(t - Epoch())
          .count();
  return ns > 0 ? static_cast<std::uint64_t>(ns) : 0;
}

/// Open spans on this thread, outermost first. Raw pointers into the owning
/// TraceSpan objects; LIFO construction/destruction keeps them valid.
thread_local std::vector<SpanRecord*> t_open_spans;

/// Root-span sink override for this thread (see ScopedTraceSink). Null
/// means the process-global collector.
thread_local TraceCollector* t_sink = nullptr;

}  // namespace

std::size_t SpanRecord::TotalSpans() const {
  std::size_t total = 1;
  for (const SpanRecord& child : children) total += child.TotalSpans();
  return total;
}

TraceSpan::TraceSpan(std::string name, Histogram* histogram)
    : histogram_(histogram) {
  Epoch();  // latch the epoch before reading the clock: start_ >= epoch
  start_ = Clock::now();
  if (!Enabled()) return;
  record_ = std::make_unique<SpanRecord>();
  record_->name = std::move(name);
  record_->start_ns = SinceEpochNs(start_);
  t_open_spans.push_back(record_.get());
}

TraceSpan::~TraceSpan() {
  if (open_) Finish(nullptr);
}

std::uint64_t TraceSpan::ElapsedNanos() const {
  if (!open_) return duration_ns_;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start_)
          .count());
}

void TraceSpan::SetAttribute(const std::string& key, std::string value) {
  if (record_ == nullptr) return;
  record_->attributes.emplace_back(key, std::move(value));
}

// The overloads below format only for an active span.
void TraceSpan::SetAttribute(const std::string& key, const char* value) {
  if (record_ == nullptr) return;
  SetAttribute(key, std::string(value));
}

void TraceSpan::SetAttribute(const std::string& key, double value) {
  if (record_ == nullptr) return;
  SetAttribute(key, StrFormat("%g", value));
}

void TraceSpan::SetAttribute(const std::string& key, std::uint64_t value) {
  if (record_ == nullptr) return;
  SetAttribute(key, StrFormat("%llu", static_cast<unsigned long long>(value)));
}

SpanRecord TraceSpan::Close() {
  SpanRecord out;
  if (open_) Finish(&out);
  return out;
}

void TraceSpan::Finish(SpanRecord* out) {
  duration_ns_ = ElapsedNanos();
  open_ = false;
  if (histogram_ != nullptr) {
    histogram_->Record(static_cast<double>(duration_ns_));
  }
  if (record_ == nullptr) return;
  record_->duration_ns = duration_ns_;
  // Pop this span off the thread's open stack. Scoped usage makes it the
  // top; tolerate (skip the pop of) out-of-order teardown rather than UB.
  if (!t_open_spans.empty() && t_open_spans.back() == record_.get()) {
    t_open_spans.pop_back();
  }
  if (out != nullptr) *out = *record_;
  if (!t_open_spans.empty()) {
    t_open_spans.back()->children.push_back(std::move(*record_));
  } else if (t_sink != nullptr) {
    t_sink->Deposit(std::move(*record_));
  } else {
    TraceCollector::Global().Deposit(std::move(*record_));
  }
  record_.reset();
}

void TraceCollector::Deposit(SpanRecord root) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (roots_.size() >= kMaxRoots) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  roots_.push_back(std::move(root));
}

std::vector<SpanRecord> TraceCollector::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return roots_;
}

std::vector<SpanRecord> TraceCollector::Drain() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SpanRecord> out = std::move(roots_);
  roots_.clear();
  return out;
}

void TraceCollector::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  roots_.clear();
  dropped_.store(0, std::memory_order_relaxed);
}

TraceCollector& TraceCollector::Global() {
  static TraceCollector* collector = new TraceCollector();
  return *collector;
}

ScopedTraceSink::ScopedTraceSink(TraceCollector* collector)
    : previous_(t_sink) {
  t_sink = collector;
}

ScopedTraceSink::~ScopedTraceSink() { t_sink = previous_; }

std::uint64_t TraceNowNs() {
  Epoch();  // latch before reading so the result is on the span timeline
  return SinceEpochNs(Clock::now());
}

}  // namespace telemetry
}  // namespace phocus
