#ifndef PHOCUS_COORDINATOR_COORDINATOR_H_
#define PHOCUS_COORDINATOR_COORDINATOR_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "coordinator/hash_ring.h"
#include "coordinator/shard_pool.h"
#include "service/frame_server.h"
#include "service/protocol.h"
#include "util/json.h"

/// \file coordinator.h
/// phocus_coordinator: a stateless router in front of N phocusd shards.
/// It speaks the same length-prefixed JSON protocol as phocusd on both
/// sides, so existing clients (phocus_client, ServiceClient) point at the
/// coordinator unchanged.
///
/// Routing (docs/COORDINATOR.md):
///
///  - `create_session` picks the owning shard by consistent-hashing the
///    request's routing key (`params.routing_key`, else the canonical dump
///    of the corpus params) on the HashRing, then rewrites the shard-local
///    session id `s-N` to the scoped form `<shard>/s-N`,
///  - every session-scoped verb (plan, update, set_budget, coverage,
///    explain, session_info, archive_to_vault, close_session) parses the
///    scoped id back into (shard, local id) and proxies directly — the
///    coordinator holds no session table,
///  - `stats`, `metrics` and `healthz` fan out to every shard in turn
///    and merge: counters sum, health rolls up to the worst shard state,
///    and unreachable shards flip `degraded: true` instead of failing the
///    whole call,
///  - shard failures flow through ShardPool's health machine; requests for
///    a shard that is down surface the typed `shard_unavailable` error.
///
/// The coordinator is observable the same way phocusd is: `coordinator.*`
/// metrics (docs/OBSERVABILITY.md), flight-recorder events for routing,
/// fan-out and shard state transitions, and request_id propagation from
/// the client through to the owning shard.

namespace phocus {
namespace coordinator {

struct CoordinatorOptions {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; read it back via port().
  int port = 0;
  /// The phocusd shards to front. At least one.
  std::vector<ShardAddress> shards;
  /// Ring points per shard (HashRing).
  std::size_t virtual_nodes = 64;
  /// ShardPool health machine (see shard_pool.h).
  int unhealthy_after = 3;
  double probe_backoff_ms = 100.0;
  double probe_backoff_max_ms = 5000.0;
  /// Retry for idempotent proxied calls. `decorrelated_jitter` is forced on
  /// (seeded per shard index) so a retry storm against a struggling shard
  /// desynchronizes instead of thundering.
  service::RetryPolicy retry;
  std::size_t max_frame_bytes = service::kDefaultMaxFrameBytes;
  /// Injectable clock for the shard health machine (tests).
  std::function<double()> now_ms;
};

class CoordinatorServer {
 public:
  explicit CoordinatorServer(CoordinatorOptions options);

  CoordinatorServer(const CoordinatorServer&) = delete;
  CoordinatorServer& operator=(const CoordinatorServer&) = delete;

  /// Binds, listens and spawns the accept loop. Throws CheckFailure when
  /// the address is unavailable.
  void Start();

  /// The bound port (valid after Start).
  int port() const { return core_.port(); }

  /// Graceful drain, same contract as ServiceServer: stop accepting, finish
  /// in-flight requests, then Wait() returns.
  void RequestShutdown() { core_.RequestShutdown(); }
  void Wait() { core_.Wait(); }

  /// The routing ring and shard health pool, exposed for tests and the
  /// `shards` verb.
  const HashRing& ring() const { return ring_; }
  ShardPool& pool() { return *pool_; }

  /// Splits a scoped session id "<shard>/<local>" at the first slash
  /// (shard names contain colons, never slashes). Returns false when the
  /// id has no scope prefix.
  static bool SplitScopedSession(const std::string& scoped, std::string* shard,
                                 std::string* local);

 private:
  /// The serving core's request hook: dispatches one request and maps
  /// failures to typed error responses.
  service::Reply Serve(const service::Request& request);
  Json Dispatch(const service::Request& request);

  /// Single-shard proxying.
  Json RouteCreateSession(const Json& params, const std::string& request_id);
  Json RouteSessionVerb(const std::string& endpoint, const Json& params,
                        const std::string& request_id);
  /// Forwards one request to a shard, timed as `route_ns`, and scopes the
  /// `session` field of the result.
  Json Proxy(std::size_t shard, const std::string& endpoint, Json params,
             const std::string& request_id);
  /// Rewrites a shard-local `session` field to the scoped form in place.
  static void ScopeSessionField(Json* result, const std::string& shard);

  /// Fan-out + merge.
  struct ShardReply {
    bool ok = false;
    Json result;          ///< valid when ok
    std::string error;    ///< human-readable when !ok
  };
  /// Calls `endpoint` on every shard in turn; one entry per shard.
  std::vector<ShardReply> FanOut(const std::string& endpoint,
                                 const Json& params,
                                 const std::string& request_id);
  Json MergedHealthz(const std::string& request_id);
  Json MergedMetrics(const std::string& request_id);
  Json MergedStats(const std::string& request_id);
  Json ShardsVerb() const;

  CoordinatorOptions options_;
  HashRing ring_;
  std::unique_ptr<ShardPool> pool_;
  /// Declared last: its destructor drains connection threads that still
  /// call into the members above.
  service::FrameServer core_;
};

/// Merges one phocusd metrics snapshot (the `{counters, gauges, histograms}`
/// shape of MetricsToJson) into `into`: counters and gauges sum; histogram
/// count/sum add, max takes the max, and the percentile fields (p50/p90/p99)
/// take the per-shard max — a deliberate worst-case approximation, since
/// true quantiles cannot be recovered from summaries. Exposed for tests.
void MergeMetricsJson(Json* into, const Json& from);

}  // namespace coordinator
}  // namespace phocus

#endif  // PHOCUS_COORDINATOR_COORDINATOR_H_
