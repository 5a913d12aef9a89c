#ifndef PHOCUS_TELEMETRY_FLIGHT_RECORDER_H_
#define PHOCUS_TELEMETRY_FLIGHT_RECORDER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/metrics.h"
#include "util/json.h"

/// \file flight_recorder.h
/// Always-on flight recorder: a fixed-size, per-thread, lock-free ring of
/// recent structured events (request start/end, failpoint triggers, cache
/// insert/evict, drain transitions). The rings overwrite oldest-first, so at
/// any instant the recorder holds the last ~kRingCapacity events per thread
/// — cheap enough to leave on in production, and exactly what an operator
/// wants to see after phocusd dies.
///
/// Reading a dump:
///  - over the wire, via the `dump_flight` verb (docs/SERVICE.md),
///  - post mortem, via the crash handler installed by InstallCrashHandler()
///    (std::terminate + fatal signals), which writes the merged ring as JSON
///    before the process exits.
///
/// Concurrency: Record() claims a global sequence number with one relaxed
/// fetch_add and publishes into its thread's ring with release stores; every
/// slot field is an atomic, and readers re-check the slot's sequence after
/// reading (seqlock style) so torn slots are skipped, never misread. Rings
/// are never freed — a thread that exits leaves its last events visible for
/// the post-mortem dump.
///
/// Event names and details must be string literals (or otherwise have static
/// storage duration): slots store raw `const char*`. Dynamic names go
/// through InternedName(), which copies into a leaked intern table.
/// Format: docs/OBSERVABILITY.md.

namespace phocus {
namespace telemetry {

/// One recorded event, as read back out of the rings.
struct FlightEvent {
  std::uint64_t seq = 0;      ///< global order stamp (1-based, increasing)
  std::uint64_t time_ns = 0;  ///< steady-clock ns since the recorder epoch
  std::uint32_t thread = 0;   ///< recording thread's ring ordinal
  const char* name = "";      ///< event kind, e.g. "request.start"
  const char* detail = "";    ///< free-form qualifier, e.g. the endpoint
  std::uint64_t arg0 = 0;
  std::uint64_t arg1 = 0;
};

/// Static-only facade over the per-thread rings.
class FlightRecorder {
 public:
  /// Events retained per recording thread (power of two).
  static constexpr std::size_t kRingCapacity = 256;

  FlightRecorder() = delete;

  /// Appends one event to the calling thread's ring. `name` and `detail`
  /// must point at storage that outlives the process (string literals or
  /// InternedName() results). Lock-free after the thread's first call.
  static void Record(const char* name, const char* detail = "",
                     std::uint64_t arg0 = 0, std::uint64_t arg1 = 0);

  /// Merged copy of every thread's ring, ordered by seq (oldest first).
  /// Slots being concurrently overwritten are skipped.
  static std::vector<FlightEvent> Snapshot();

  /// The merged snapshot as {"capacity_per_thread", "threads", "recorded",
  /// "events": [{"seq","t_ns","thread","name","detail","arg0","arg1"}]}.
  static Json ToJson();

  /// Total events ever recorded (dropped ones included).
  static std::uint64_t recorded();

  /// Sets / reads the path automatic crash dumps are written to. Empty
  /// (the default) disables automatic dumps.
  static void SetCrashDumpPath(std::string path);
  static std::string crash_dump_path();

  /// Best-effort dump to the configured path (or an explicit one); never
  /// throws — a recorder that cannot dump must not turn a crash into a
  /// different crash. Returns false when disabled or the write failed.
  static bool WriteCrashDump();
  static bool WriteCrashDump(const std::string& path);

  /// Sets the dump path and hooks std::terminate plus the fatal signals
  /// (SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT) to write it before dying.
  /// The previous terminate handler is chained; signals re-raise with the
  /// default disposition after dumping.
  static void InstallCrashHandler(std::string path);

  /// Zeroes every ring and the sequence counter (rings stay registered —
  /// thread-local pointers into them must survive). Tests only.
  static void Reset();
};

/// Copies `name` into a process-lifetime intern table and returns the stable
/// pointer, for Record() call sites whose strings are dynamic (failpoint
/// names, endpoints). Bounded: past 1024 distinct strings, returns a
/// sentinel instead of growing without bound.
const char* InternedName(std::string_view name);

}  // namespace telemetry
}  // namespace phocus

#endif  // PHOCUS_TELEMETRY_FLIGHT_RECORDER_H_
