#include "util/failpoint.h"

#include <chrono>
#include <cstdlib>
#include <map>
#include <mutex>
#include <thread>

#include "util/fnv.h"
#include "util/rng.h"
#include "util/strings.h"

namespace phocus {
namespace failpoint {

namespace internal {

std::atomic<int> g_armed_count{0};

namespace {
std::atomic<TelemetrySink> g_sink{nullptr};
}  // namespace

void SetTelemetrySink(TelemetrySink sink) {
  g_sink.store(sink, std::memory_order_release);
}

}  // namespace internal

namespace {

/// FNV-1a 64 over the failpoint name; mixed with the registry seed so each
/// failpoint draws from its own deterministic RNG stream regardless of the
/// order points are armed or hit.
std::uint64_t NameHash(std::string_view name) {
  return Fnv1a64(name, kFnv64TruncatedBasis);
}

struct Entry {
  bool armed = false;
  ActionKind kind = ActionKind::kOff;
  double delay_ms = 0.0;
  double probability = 1.0;
  Rng rng{0};
  std::uint64_t hits = 0;
  std::uint64_t triggers = 0;
};

struct Registry {
  std::mutex mutex;
  std::map<std::string, Entry, std::less<>> entries;
  std::uint64_t seed = 0x9e3779b97f4a7c15ULL;

  Registry() { LoadFromEnv(); }

  /// PHOCUS_FAILPOINTS_SEED then PHOCUS_FAILPOINTS, parsed once at process
  /// start (the file-scope initializer below forces construction before
  /// main, so env-armed points fire without any programmatic call).
  void LoadFromEnv() {
    if (const char* env_seed = std::getenv("PHOCUS_FAILPOINTS_SEED")) {
      seed = std::strtoull(env_seed, nullptr, 10);
    }
    const char* env = std::getenv("PHOCUS_FAILPOINTS");
    if (env == nullptr || *env == '\0') return;
    for (const std::string& pair : Split(env, ',')) {
      const std::string trimmed = Trim(pair);
      if (trimmed.empty()) continue;
      const std::size_t eq = trimmed.find('=');
      PHOCUS_CHECK(eq != std::string::npos && eq > 0,
                   "PHOCUS_FAILPOINTS entry is not name=spec: " + trimmed);
      ConfigureLocked(trimmed.substr(0, eq), trimmed.substr(eq + 1));
    }
  }

  /// Parses `spec` (grammar in failpoint.h) and arms `name`. Caller holds
  /// the mutex or is the constructor.
  void ConfigureLocked(const std::string& name, const std::string& spec) {
    PHOCUS_CHECK(!name.empty(), "failpoint name must not be empty");
    std::string action = Trim(spec);
    double probability = 1.0;
    const std::size_t at = action.rfind('@');
    if (at != std::string::npos) {
      const std::string prob_text = action.substr(at + 1);
      char* end = nullptr;
      probability = std::strtod(prob_text.c_str(), &end);
      PHOCUS_CHECK(end != nullptr && *end == '\0' && !prob_text.empty() &&
                       probability >= 0.0 && probability <= 1.0,
                   "failpoint probability must be in [0, 1]: " + spec);
      action = action.substr(0, at);
    }
    Entry entry;
    entry.probability = probability;
    if (action == "error") {
      entry.kind = ActionKind::kError;
    } else if (action == "short_write") {
      entry.kind = ActionKind::kShortWrite;
    } else if (action == "crash") {
      entry.kind = ActionKind::kCrash;
    } else if (StartsWith(action, "delay:")) {
      const std::string millis = action.substr(6);
      char* end = nullptr;
      entry.delay_ms = std::strtod(millis.c_str(), &end);
      PHOCUS_CHECK(end != nullptr && *end == '\0' && !millis.empty() &&
                       entry.delay_ms >= 0.0,
                   "failpoint delay must be non-negative millis: " + spec);
      entry.kind = ActionKind::kDelay;
    } else {
      throw CheckFailure(
          "unknown failpoint action (want error|delay:ms|short_write|crash): " +
          spec);
    }
    entry.armed = true;
    std::uint64_t stream = seed ^ NameHash(name);
    entry.rng = Rng(SplitMix64(stream));

    Entry& slot = entries[name];
    if (!slot.armed) {
      internal::g_armed_count.fetch_add(1, std::memory_order_relaxed);
    }
    entry.hits = slot.hits;  // counters survive re-configuration
    entry.triggers = slot.triggers;
    slot = std::move(entry);
  }
};

Registry& TheRegistry() {
  static Registry* registry = new Registry;  // leaked: outlives all users
  return *registry;
}

/// Forces env parsing before main so PHOCUS_FAILPOINTS arms points even in
/// processes that never call the programmatic API.
const bool g_env_loaded = [] {
  TheRegistry();
  return true;
}();

}  // namespace

Action Evaluate(std::string_view name) {
  Registry& registry = TheRegistry();
  Action action;
  bool fired = false;
  bool counted = false;
  {
    std::lock_guard<std::mutex> lock(registry.mutex);
    auto it = registry.entries.find(name);
    if (it == registry.entries.end() || !it->second.armed) return action;
    Entry& entry = it->second;
    ++entry.hits;
    counted = true;
    fired = entry.probability >= 1.0 ||
            entry.rng.UniformDouble() < entry.probability;
    if (fired) {
      ++entry.triggers;
      action.kind = entry.kind;
      action.delay_ms = entry.delay_ms;
    }
  }
  // Mirror outside the registry lock: the sink takes the metrics mutex.
  if (counted) {
    if (auto sink = internal::g_sink.load(std::memory_order_acquire)) {
      sink(name, fired);
    }
  }
  return action;
}

void Perform(std::string_view name, const Action& action) {
  switch (action.kind) {
    case ActionKind::kOff:
      return;
    case ActionKind::kDelay:
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(action.delay_ms));
      return;
    case ActionKind::kError:
    case ActionKind::kShortWrite:  // this site cannot truncate
      throw InjectedFault("injected fault at failpoint " + std::string(name));
    case ActionKind::kCrash:
      throw InjectedCrash("injected crash at failpoint " + std::string(name));
  }
}

void Trigger(std::string_view name) { Perform(name, Evaluate(name)); }

void MaybeDelay(std::string_view name) {
  const Action action = Evaluate(name);
  if (action.kind == ActionKind::kDelay) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(action.delay_ms));
  }
}

void Configure(const std::string& name, const std::string& spec) {
  Registry& registry = TheRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  registry.ConfigureLocked(name, spec);
}

bool Deactivate(const std::string& name) {
  Registry& registry = TheRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  auto it = registry.entries.find(name);
  if (it == registry.entries.end() || !it->second.armed) return false;
  it->second.armed = false;
  internal::g_armed_count.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

void DeactivateAll() {
  Registry& registry = TheRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  for (auto& [name, entry] : registry.entries) {
    (void)name;
    if (entry.armed) {
      entry.armed = false;
      internal::g_armed_count.fetch_sub(1, std::memory_order_relaxed);
    }
  }
}

void SetSeed(std::uint64_t seed) {
  Registry& registry = TheRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  registry.seed = seed;
}

std::uint64_t HitCount(const std::string& name) {
  Registry& registry = TheRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  auto it = registry.entries.find(name);
  return it == registry.entries.end() ? 0 : it->second.hits;
}

std::uint64_t TriggerCount(const std::string& name) {
  Registry& registry = TheRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  auto it = registry.entries.find(name);
  return it == registry.entries.end() ? 0 : it->second.triggers;
}

std::vector<std::string> ArmedNames() {
  Registry& registry = TheRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  std::vector<std::string> names;
  for (const auto& [name, entry] : registry.entries) {
    if (entry.armed) names.push_back(name);
  }
  return names;
}

}  // namespace failpoint
}  // namespace phocus
