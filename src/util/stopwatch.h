#ifndef PHOCUS_UTIL_STOPWATCH_H_
#define PHOCUS_UTIL_STOPWATCH_H_

#include <chrono>
#include <cstdint>

/// \file stopwatch.h
/// Wall-clock stopwatch for intervals that have no trace span: benches,
/// per-item pool tasks, and solvers' time reports. Code that opens a
/// telemetry::TraceSpan reads the time off the span instead.

namespace phocus {

/// Monotonic wall-clock stopwatch. Starts running on construction.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Elapsed seconds since construction.
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Elapsed nanoseconds (full clock resolution, for latency histograms).
  std::uint64_t ElapsedNanos() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start_)
            .count());
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace phocus

#endif  // PHOCUS_UTIL_STOPWATCH_H_
