#include "telemetry/flight_recorder.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <exception>
#include <mutex>
#include <set>

namespace phocus {
namespace telemetry {

namespace {

using Clock = std::chrono::steady_clock;

/// Recorder epoch, latched on first use so t_ns values from every thread
/// share one timeline (mirrors the trace epoch, which is latched
/// independently — the two timelines are not comparable).
Clock::time_point Epoch() {
  static const Clock::time_point epoch = Clock::now();
  return epoch;
}

std::uint64_t NowNs() {
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           Epoch())
          .count();
  return ns > 0 ? static_cast<std::uint64_t>(ns) : 0;
}

/// One ring slot. Every field is an atomic so concurrent overwrite while a
/// snapshot reads is a stale read, never a data race; `seq` doubles as the
/// occupancy marker (0 = empty / being written) and the torn-read check.
struct Slot {
  std::atomic<std::uint64_t> seq{0};
  std::atomic<std::uint64_t> time_ns{0};
  std::atomic<const char*> name{""};
  std::atomic<const char*> detail{""};
  std::atomic<std::uint64_t> arg0{0};
  std::atomic<std::uint64_t> arg1{0};
};

struct Ring {
  std::uint32_t ordinal = 0;
  std::atomic<std::uint64_t> next{0};
  Slot slots[FlightRecorder::kRingCapacity];
};

static_assert((FlightRecorder::kRingCapacity &
               (FlightRecorder::kRingCapacity - 1)) == 0,
              "ring capacity must be a power of two");

/// Global order stamp; the next event gets g_seq+1.
std::atomic<std::uint64_t> g_seq{0};

std::mutex& RegistryMutex() {
  static std::mutex* mutex = new std::mutex();
  return *mutex;
}

/// All rings ever created. Never shrinks: a thread that exits leaves its
/// ring (and thread_local pointer targets) valid for post-mortem dumps.
std::vector<Ring*>& Rings() {
  static std::vector<Ring*>* rings = new std::vector<Ring*>();
  return *rings;
}

Ring* ThisThreadRing() {
  thread_local Ring* ring = [] {
    auto* fresh = new Ring();
    std::lock_guard<std::mutex> lock(RegistryMutex());
    fresh->ordinal = static_cast<std::uint32_t>(Rings().size());
    Rings().push_back(fresh);
    return fresh;
  }();
  return ring;
}

/// Crash-dump destination; leaked string so the terminate handler never
/// touches a destroyed static.
std::mutex& DumpPathMutex() {
  static std::mutex* mutex = new std::mutex();
  return *mutex;
}
std::string& DumpPath() {
  static std::string* path = new std::string();
  return *path;
}

std::terminate_handler g_previous_terminate = nullptr;

[[noreturn]] void TerminateWithDump() {
  FlightRecorder::WriteCrashDump();
  if (g_previous_terminate != nullptr) g_previous_terminate();
  std::abort();
}

void FatalSignalWithDump(int signal_number) {
  // Not async-signal-safe — but the process is dying anyway, and a
  // best-effort dump beats none. Re-raise with the default disposition so
  // the exit status still reports the signal.
  FlightRecorder::WriteCrashDump();
  std::signal(signal_number, SIG_DFL);
  std::raise(signal_number);
}

}  // namespace

void FlightRecorder::Record(const char* name, const char* detail,
                            std::uint64_t arg0, std::uint64_t arg1) {
  const std::uint64_t time_ns = NowNs();
  const std::uint64_t seq = g_seq.fetch_add(1, std::memory_order_relaxed) + 1;
  Ring* ring = ThisThreadRing();
  Slot& slot = ring->slots[ring->next.fetch_add(1, std::memory_order_relaxed) &
                           (kRingCapacity - 1)];
  // Mark the slot as in-flight, fill it, then publish the new seq; a
  // snapshot racing this sees seq 0 (skip) or the consistent new value.
  slot.seq.store(0, std::memory_order_release);
  slot.time_ns.store(time_ns, std::memory_order_relaxed);
  slot.name.store(name, std::memory_order_relaxed);
  slot.detail.store(detail, std::memory_order_relaxed);
  slot.arg0.store(arg0, std::memory_order_relaxed);
  slot.arg1.store(arg1, std::memory_order_relaxed);
  slot.seq.store(seq, std::memory_order_release);
}

std::vector<FlightEvent> FlightRecorder::Snapshot() {
  std::vector<FlightEvent> events;
  std::lock_guard<std::mutex> lock(RegistryMutex());
  for (const Ring* ring : Rings()) {
    for (const Slot& slot : ring->slots) {
      const std::uint64_t before = slot.seq.load(std::memory_order_acquire);
      if (before == 0) continue;
      FlightEvent event;
      event.seq = before;
      event.time_ns = slot.time_ns.load(std::memory_order_relaxed);
      event.thread = ring->ordinal;
      event.name = slot.name.load(std::memory_order_relaxed);
      event.detail = slot.detail.load(std::memory_order_relaxed);
      event.arg0 = slot.arg0.load(std::memory_order_relaxed);
      event.arg1 = slot.arg1.load(std::memory_order_relaxed);
      if (slot.seq.load(std::memory_order_acquire) != before) continue;
      events.push_back(event);
    }
  }
  std::sort(events.begin(), events.end(),
            [](const FlightEvent& a, const FlightEvent& b) {
              return a.seq < b.seq;
            });
  return events;
}

Json FlightRecorder::ToJson() {
  const std::vector<FlightEvent> events = Snapshot();
  Json out = Json::Object();
  out.Set("capacity_per_thread", kRingCapacity);
  {
    std::lock_guard<std::mutex> lock(RegistryMutex());
    out.Set("threads", Rings().size());
  }
  out.Set("recorded", recorded());
  Json list = Json::Array();
  for (const FlightEvent& event : events) {
    Json entry = Json::Object();
    entry.Set("seq", event.seq);
    entry.Set("t_ns", event.time_ns);
    entry.Set("thread", static_cast<std::uint64_t>(event.thread));
    entry.Set("name", event.name);
    entry.Set("detail", event.detail);
    entry.Set("arg0", event.arg0);
    entry.Set("arg1", event.arg1);
    list.Append(std::move(entry));
  }
  out.Set("events", std::move(list));
  return out;
}

std::uint64_t FlightRecorder::recorded() {
  return g_seq.load(std::memory_order_relaxed);
}

void FlightRecorder::SetCrashDumpPath(std::string path) {
  std::lock_guard<std::mutex> lock(DumpPathMutex());
  DumpPath() = std::move(path);
}

std::string FlightRecorder::crash_dump_path() {
  std::lock_guard<std::mutex> lock(DumpPathMutex());
  return DumpPath();
}

bool FlightRecorder::WriteCrashDump() {
  const std::string path = crash_dump_path();
  if (path.empty()) return false;
  return WriteCrashDump(path);
}

bool FlightRecorder::WriteCrashDump(const std::string& path) {
  try {
    WriteFile(path, ToJson().Dump(1) + "\n");
    return true;
  } catch (...) {
    // A recorder that cannot dump must not turn the crash into another one.
    return false;
  }
}

void FlightRecorder::InstallCrashHandler(std::string path) {
  SetCrashDumpPath(std::move(path));
  g_previous_terminate = std::set_terminate(&TerminateWithDump);
  std::signal(SIGSEGV, &FatalSignalWithDump);
  std::signal(SIGBUS, &FatalSignalWithDump);
  std::signal(SIGFPE, &FatalSignalWithDump);
  std::signal(SIGILL, &FatalSignalWithDump);
  std::signal(SIGABRT, &FatalSignalWithDump);
}

void FlightRecorder::Reset() {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  for (Ring* ring : Rings()) {
    for (Slot& slot : ring->slots) {
      slot.seq.store(0, std::memory_order_relaxed);
    }
    ring->next.store(0, std::memory_order_relaxed);
  }
  g_seq.store(0, std::memory_order_relaxed);
}

const char* InternedName(std::string_view name) {
  static constexpr std::size_t kMaxInterned = 1024;
  static std::mutex* mutex = new std::mutex();
  static std::set<std::string>* interned = new std::set<std::string>();
  std::lock_guard<std::mutex> lock(*mutex);
  auto it = interned->find(std::string(name));
  if (it != interned->end()) return it->c_str();
  if (interned->size() >= kMaxInterned) return "interned.overflow";
  return interned->insert(std::string(name)).first->c_str();
}

}  // namespace telemetry
}  // namespace phocus
