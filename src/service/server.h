#ifndef PHOCUS_SERVICE_SERVER_H_
#define PHOCUS_SERVICE_SERVER_H_

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "service/frame_server.h"
#include "service/plan_cache.h"
#include "service/protocol.h"
#include "service/session.h"
#include "telemetry/trace.h"
#include "util/json.h"
#include "util/thread_pool.h"

/// \file server.h
/// phocusd: the archive-planning daemon. It runs the shared serving core
/// (FrameServer: one TCP listener, one thread per connection reading
/// length-prefixed JSON requests) in front of a bounded request queue
/// feeding a worker ThreadPool. Between the core and PhocusSystem sit the
/// serving pieces:
///
///  - SessionManager: per-client corpus + incremental state, fine-grained
///    locks (requests against different sessions run concurrently),
///  - PlanCache: repeated `plan` calls on an unmodified corpus are answered
///    without re-solving,
///  - admission control: when `queue_capacity` requests are admitted but
///    unfinished, new ones are rejected with the typed `overloaded` error
///    instead of queueing unboundedly,
///  - per-request deadlines: an admitted request that waits past its
///    deadline is answered `deadline_exceeded` without touching a solver,
///  - graceful shutdown: the `shutdown` endpoint (or RequestShutdown())
///    stops admission, drains every in-flight request, then closes.
///
/// Endpoint table, parameter schemas and error codes: docs/SERVICE.md.

namespace phocus {
namespace service {

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; read it back via port().
  int port = 0;
  /// Worker threads solving requests; 0 = hardware concurrency.
  std::size_t num_workers = 0;
  /// Max admitted-but-unfinished requests (queued + executing) before
  /// admission control answers `overloaded`.
  std::size_t queue_capacity = 64;
  /// Resident plans in the plan cache; 0 disables caching.
  std::size_t plan_cache_capacity = 32;
  /// Frame-size cap; oversized frames close the connection.
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Applied when a request carries no `deadline_ms`; 0 = no deadline.
  double default_deadline_ms = 0.0;
  /// Enables the `debug_sleep` endpoint (deterministic queue-pressure and
  /// drain tests). Never enable in production.
  bool enable_debug_endpoints = false;
  /// Requests slower than this (queue wait + handling + response write) are
  /// logged with their span tree and kept in the slow-request log exposed by
  /// the `metrics` verb. 0 reads PHOCUS_SLOW_REQUEST_MS from the
  /// environment (absent = disabled); negative disables unconditionally.
  double slow_request_ms = 0.0;
  /// Clock (milliseconds, monotonic) feeding the streaming-ingest staleness
  /// fallback. Null = std::chrono::steady_clock. Tests inject
  /// scenario_support's FakeClock here so time-triggered replans are
  /// deterministic with zero real sleeps.
  std::function<double()> ingest_now_ms;
  /// Non-empty enables durable ingest: each session write-ahead logs its
  /// streaming queue under this directory (created at Start) and recovers it
  /// after a crash — see SessionManager::set_wal_dir and docs/SERVICE.md.
  std::string wal_dir;
};

/// Bounded log of the most recent slow requests (each a JSON record with
/// the request id, endpoint, timing breakdown, and span tree). Thread-safe;
/// oldest entries fall off.
class SlowRequestLog {
 public:
  static constexpr std::size_t kMaxRecords = 32;

  void Add(Json record);
  /// The stored records as a JSON array, oldest first.
  Json Snapshot() const;
  std::size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::deque<Json> records_;
};

class ServiceServer {
 public:
  explicit ServiceServer(ServerOptions options = {});

  ServiceServer(const ServiceServer&) = delete;
  ServiceServer& operator=(const ServiceServer&) = delete;

  /// Binds, listens and spawns the accept loop. Throws CheckFailure when the
  /// address is unavailable.
  void Start();

  /// The bound port (valid after Start).
  int port() const { return core_.port(); }

  /// Begins a graceful shutdown: new requests are rejected with
  /// `shutting_down`, in-flight ones drain. Non-blocking; pair with Wait().
  void RequestShutdown() { core_.RequestShutdown(); }

  /// Blocks until a shutdown request has fully drained and all threads are
  /// joined.
  void Wait() { core_.Wait(); }

  /// Observability hooks for tests and the stats endpoint.
  std::size_t queue_depth() const { return admitted_.load(); }
  const PlanCache& plan_cache() const { return plan_cache_; }
  SessionManager& sessions() { return sessions_; }

 private:
  /// What one handled request looked like, for the slow-request check and
  /// log. Filled by ProcessParsed for admitted data-plane requests; `tree`
  /// is the request's span tree (service.request root) when tracing was on.
  struct RequestObservation {
    bool handled = false;
    bool traced = false;
    std::string endpoint;
    std::string request_id;
    double queue_wait_ms = 0.0;
    double handle_ms = 0.0;
    telemetry::SpanRecord tree;
  };

  /// The serving core's request hook: admission + queueing + execution of
  /// one request, with the slow-request check attached after the write.
  Reply Serve(const Request& request);
  Json ProcessParsed(const Request& request, RequestObservation* observation);
  /// Slow-request check after the response hit the wire.
  void FinishObservation(RequestObservation* observation,
                         std::uint64_t respond_ns);
  /// Endpoint dispatch (runs on a worker thread).
  Json Handle(const std::string& endpoint, const Json& params);
  Json HandleCreateSession(const Json& params);
  Json HandlePlan(const Json& params);
  Json HandleUpdate(const Json& params);
  Json HandleSetBudget(const Json& params);
  Json HandleIngest(const Json& params);
  Json HandleIngestFlush(const Json& params);
  Json HandleArchiveToVault(const Json& params);
  Json HandleStats();
  /// The plan cache's size/capacity/hits/misses, shared by stats and metrics.
  Json PlanCacheJson() const;
  /// Control-plane observability verbs (bypass admission; docs/SERVICE.md).
  Json HandleMetrics();
  Json HandleHealthz();
  std::shared_ptr<Session> FindSession(const Json& params) const;

  ServerOptions options_;
  double slow_request_ms_ = 0.0;
  SlowRequestLog slow_log_;
  std::unique_ptr<ThreadPool> pool_;
  SessionManager sessions_;
  PlanCache plan_cache_;
  std::atomic<std::size_t> admitted_{0};
  /// Declared last: its destructor drains connection threads that still
  /// call into the members above.
  FrameServer core_;
};

}  // namespace service
}  // namespace phocus

#endif  // PHOCUS_SERVICE_SERVER_H_
