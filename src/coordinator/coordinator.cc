#include "coordinator/coordinator.h"

#include <algorithm>
#include <initializer_list>
#include <utility>

#include "telemetry/flight_recorder.h"
#include "telemetry/export.h"
#include "telemetry/metrics.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/strings.h"

namespace phocus {
namespace coordinator {

using service::ErrorCode;
using service::MakeErrorResponse;
using service::MakeOkResponse;
using service::ServiceError;

namespace {

/// Session-scoped verbs the coordinator proxies, split by whether a blind
/// retry is safe. Mutating verbs get exactly one attempt: a retry after a
/// dropped response could apply an update twice — or, for ingest,
/// double-enqueue a batch into the post-absorb id space.
bool IsSessionVerb(const std::string& endpoint) {
  return endpoint == "plan" || endpoint == "update" ||
         endpoint == "set_budget" || endpoint == "coverage" ||
         endpoint == "explain" || endpoint == "session_info" ||
         endpoint == "archive_to_vault" || endpoint == "close_session" ||
         endpoint == "ingest" || endpoint == "ingest_flush";
}

int HealthRank(const std::string& status) {
  if (status == "ok") return 0;
  if (status == "overloaded") return 1;
  if (status == "draining") return 2;
  return 3;  // unknown states sort worst
}

const char* HealthName(int rank) {
  switch (rank) {
    case 0: return "ok";
    case 1: return "overloaded";
    case 2: return "draining";
    default: return "unavailable";
  }
}

double SumField(const Json& object, const char* key) {
  return object.GetOr(key, 0.0).AsDouble();
}

/// Adds each of `keys` from `from` into `into` (absent fields count as 0).
void AddFields(Json* into, const Json& from,
               std::initializer_list<const char*> keys) {
  for (const char* key : keys) {
    into->Set(key, SumField(*into, key) + SumField(from, key));
  }
}

service::FrameServerOptions CoreOptions(const CoordinatorOptions& options) {
  auto& registry = telemetry::MetricsRegistry::Current();
  service::FrameServerOptions core;
  core.host = options.host;
  core.port = options.port;
  core.max_frame_bytes = options.max_frame_bytes;
  core.name = "phocus_coordinator";
  core.drain_event = "coordinator.drain";
  core.crash_event = "coordinator.crash";
  core.connections = &registry.GetCounter("coordinator.connections");
  core.bytes_in = &registry.GetCounter("coordinator.bytes_in");
  core.bytes_out = &registry.GetCounter("coordinator.bytes_out");
  core.respond_ns = &registry.GetHistogram("coordinator.respond_ns");
  return core;
}

}  // namespace

void MergeMetricsJson(Json* into, const Json& from) {
  for (const char* section : {"counters", "gauges"}) {
    if (!from.Has(section)) continue;
    Json merged = into->GetOr(section, Json::Object());
    for (const auto& [name, value] : from.Get(section).entries()) {
      merged.Set(name, merged.GetOr(name, 0.0).AsDouble() + value.AsDouble());
    }
    into->Set(section, std::move(merged));
  }
  if (!from.Has("histograms")) return;
  Json merged = into->GetOr("histograms", Json::Object());
  for (const auto& [name, hist] : from.Get("histograms").entries()) {
    if (!merged.Has(name)) {
      merged.Set(name, hist);
      continue;
    }
    Json combined = merged.Get(name);
    const double count = SumField(combined, "count") + SumField(hist, "count");
    const double sum = SumField(combined, "sum") + SumField(hist, "sum");
    combined.Set("count", count);
    combined.Set("sum", sum);
    combined.Set("mean", count > 0.0 ? sum / count : 0.0);
    for (const char* quantile : {"p50", "p90", "p99", "max"}) {
      combined.Set(quantile, std::max(SumField(combined, quantile),
                                      SumField(hist, quantile)));
    }
    merged.Set(name, std::move(combined));
  }
  into->Set("histograms", std::move(merged));
}

CoordinatorServer::CoordinatorServer(CoordinatorOptions options)
    : options_(std::move(options)),
      ring_(options_.virtual_nodes),
      core_(CoreOptions(options_), [this](const service::Request& request) {
        return Serve(request);
      }) {
  PHOCUS_CHECK(!options_.shards.empty(),
               "coordinator requires at least one shard");
  for (const ShardAddress& shard : options_.shards) {
    ring_.AddShard(shard.name);
  }
  ShardPoolOptions pool_options;
  pool_options.unhealthy_after = options_.unhealthy_after;
  pool_options.probe_backoff_ms = options_.probe_backoff_ms;
  pool_options.probe_backoff_max_ms = options_.probe_backoff_max_ms;
  pool_options.retry = options_.retry;
  // Desynchronize retry storms: every shard connection jitters its backoff
  // on its own seeded stream.
  pool_options.retry.decorrelated_jitter = true;
  if (pool_options.retry.jitter_seed == 0) {
    pool_options.retry.jitter_seed = HashRing::HashKey("coordinator.retry");
  }
  pool_options.max_frame_bytes = options_.max_frame_bytes;
  pool_options.now_ms = options_.now_ms;
  pool_ = std::make_unique<ShardPool>(options_.shards, std::move(pool_options));
}

void CoordinatorServer::Start() {
  PHOCUS_CHECK(fanout_pool_ == nullptr, "Start called twice");
  const std::size_t workers = options_.fanout_workers > 0
                                  ? options_.fanout_workers
                                  : options_.shards.size();
  fanout_pool_ = std::make_unique<ThreadPool>(workers);
  core_.Start();
  PHOCUS_LOG(kInfo) << "phocus_coordinator listening on " << options_.host
                    << ":" << port() << " fronting " << options_.shards.size()
                    << " shard(s)";
}

service::Reply CoordinatorServer::Serve(const service::Request& request) {
  auto& registry = telemetry::MetricsRegistry::Current();
  registry.GetCounter("coordinator.requests").Increment();
  service::Reply reply;
  try {
    reply.response = Dispatch(request);
  } catch (const failpoint::InjectedCrash&) {
    throw;
  } catch (const ServiceError& error) {
    reply.response =
        MakeErrorResponse(request.id, error.code(), error.message());
  } catch (const CheckFailure& failure) {
    reply.response =
        MakeErrorResponse(request.id, ErrorCode::kBadRequest, failure.what());
  } catch (const std::exception& error) {
    reply.response =
        MakeErrorResponse(request.id, ErrorCode::kInternal, error.what());
  }
  const bool succeeded = reply.response.GetOr("ok", false).AsBool();
  registry
      .GetCounter(succeeded ? "coordinator.responses.ok"
                            : "coordinator.responses.error")
      .Increment();
  return reply;
}

Json CoordinatorServer::Dispatch(const service::Request& request) {
  const std::uint64_t id = request.id;
  const std::string& endpoint = request.endpoint;
  const Json& params = request.params;
  const std::string& request_id = request.request_id;
  // Control plane first: health and observability verbs answer even while
  // draining, mirroring phocusd.
  if (endpoint == "ping") {
    Json result = Json::Object();
    result.Set("pong", true);
    result.Set("role", "coordinator");
    result.Set("shards", pool_->size());
    return MakeOkResponse(id, std::move(result));
  }
  if (endpoint == "healthz") {
    return MakeOkResponse(id, MergedHealthz(request_id));
  }
  if (endpoint == "metrics") {
    return MakeOkResponse(id, MergedMetrics(request_id));
  }
  if (endpoint == "dump_flight") {
    return MakeOkResponse(id, telemetry::FlightRecorder::ToJson());
  }
  if (endpoint == "shards") return MakeOkResponse(id, ShardsVerb());
  if (endpoint == "shutdown") {
    if (params.GetOr("shards", false).AsBool()) {
      for (std::size_t i = 0; i < pool_->size(); ++i) {
        try {
          pool_->Call(i, "shutdown", Json::Object(), request_id,
                      /*idempotent=*/false);
        } catch (const CheckFailure&) {
          // A shard that is already down needs no shutdown.
        }
      }
    }
    RequestShutdown();
    Json result = Json::Object();
    result.Set("draining", true);
    return MakeOkResponse(id, std::move(result));
  }

  if (core_.draining()) {
    return MakeErrorResponse(id, ErrorCode::kShuttingDown,
                             "coordinator is draining");
  }

  if (endpoint == "stats") return MakeOkResponse(id, MergedStats(request_id));
  if (endpoint == "create_session") {
    return MakeOkResponse(id, RouteCreateSession(params, request_id));
  }
  if (IsSessionVerb(endpoint)) {
    return MakeOkResponse(id, RouteSessionVerb(endpoint, params, request_id));
  }
  throw ServiceError(ErrorCode::kUnknownEndpoint,
                     "unknown endpoint: " + endpoint);
}

bool CoordinatorServer::SplitScopedSession(const std::string& scoped,
                                           std::string* shard,
                                           std::string* local) {
  const std::size_t slash = scoped.find('/');
  if (slash == std::string::npos || slash == 0 || slash + 1 >= scoped.size()) {
    return false;
  }
  *shard = scoped.substr(0, slash);
  *local = scoped.substr(slash + 1);
  return true;
}

void CoordinatorServer::ScopeSessionField(Json* result,
                                          const std::string& shard) {
  if (!result->Has("session")) return;
  result->Set("session", shard + "/" + result->Get("session").AsString());
}

Json CoordinatorServer::RouteCreateSession(const Json& params,
                                           const std::string& request_id) {
  // The routing key pins a corpus to a shard: explicit `routing_key` when
  // the client wants control (top-level or inside the corpus spec, e.g. to
  // colocate related corpora), else the serialized corpus params —
  // identical specs land on the same shard, so a re-created session finds
  // its plan cache warm.
  std::string key = params.GetOr("routing_key", "").AsString();
  if (key.empty()) {
    key = params.GetOr("corpus", Json::Object())
              .GetOr("routing_key", "")
              .AsString();
  }
  if (key.empty()) key = params.Dump();
  return Proxy(pool_->IndexOf(ring_.ShardFor(key)), "create_session", params,
               request_id);
}

Json CoordinatorServer::RouteSessionVerb(const std::string& endpoint,
                                         const Json& params,
                                         const std::string& request_id) {
  std::string shard_name;
  std::string local;
  const std::string scoped = params.Get("session").AsString();
  if (!SplitScopedSession(scoped, &shard_name, &local)) {
    throw ServiceError(
        ErrorCode::kUnknownSession,
        StrFormat("session id '%s' is not scoped — expected <shard>/<id> "
                  "as returned by create_session",
                  scoped.c_str()));
  }
  const std::size_t shard = pool_->IndexOf(shard_name);
  if (shard == ShardPool::npos) {
    throw ServiceError(ErrorCode::kUnknownSession,
                       StrFormat("session id '%s' names shard '%s', which is "
                                 "not in this coordinator's shard map",
                                 scoped.c_str(), shard_name.c_str()));
  }
  Json forwarded = params;
  forwarded.Set("session", local);
  return Proxy(shard, endpoint, std::move(forwarded), request_id);
}

Json CoordinatorServer::Proxy(std::size_t shard, const std::string& endpoint,
                              Json params, const std::string& request_id) {
  const std::string& shard_name = pool_->address(shard).name;
  telemetry::FlightRecorder::Record("coordinator.route",
                                    telemetry::InternedName(shard_name),
                                    shard);
  const Stopwatch timer;
  // The protocol-level whitelist decides retry safety, so the coordinator
  // and ServiceClient can never disagree about what is safe to resend.
  Json result = pool_->Call(shard, endpoint, std::move(params), request_id,
                            service::IsIdempotentEndpoint(endpoint));
  auto& registry = telemetry::MetricsRegistry::Current();
  registry.GetHistogram("coordinator.route_ns")
      .Record(static_cast<double>(timer.ElapsedNanos()));
  registry.GetCounter("coordinator.proxied").Increment();
  ScopeSessionField(&result, shard_name);
  return result;
}

std::vector<CoordinatorServer::ShardReply> CoordinatorServer::FanOut(
    const std::string& endpoint, const Json& params,
    const std::string& request_id) {
  auto& registry = telemetry::MetricsRegistry::Current();
  registry.GetCounter("coordinator.fanouts").Increment();
  std::vector<ShardReply> replies(pool_->size());
  const Stopwatch timer;
  fanout_pool_->ParallelFor(pool_->size(), [&](std::size_t shard) {
    try {
      replies[shard].result =
          pool_->Call(shard, endpoint, params, request_id, /*idempotent=*/true);
      replies[shard].ok = true;
    } catch (const failpoint::InjectedCrash&) {
      throw;
    } catch (const CheckFailure& failure) {
      replies[shard].error = failure.what();
    }
  });
  registry.GetHistogram("coordinator.fanout_ns")
      .Record(static_cast<double>(timer.ElapsedNanos()));
  std::size_t failed = 0;
  for (const ShardReply& reply : replies) {
    if (!reply.ok) ++failed;
  }
  if (failed > 0) registry.GetCounter("coordinator.fanout.partial").Increment();
  telemetry::FlightRecorder::Record("coordinator.fanout",
                                    telemetry::InternedName(endpoint),
                                    replies.size() - failed, failed);
  return replies;
}

Json CoordinatorServer::MergedHealthz(const std::string& request_id) {
  const std::vector<ShardReply> replies =
      FanOut("healthz", Json::Object(), request_id);
  Json shards = Json::Array();
  int worst = -1;
  std::size_t reachable = 0;
  for (std::size_t i = 0; i < replies.size(); ++i) {
    Json entry = Json::Object();
    entry.Set("shard", pool_->address(i).name);
    if (replies[i].ok) {
      ++reachable;
      const std::string status =
          replies[i].result.GetOr("status", "ok").AsString();
      worst = std::max(worst, HealthRank(status));
      entry.Set("status", status);
      entry.Set("queue_depth", replies[i].result.GetOr("queue_depth", 0.0));
      entry.Set("sessions", replies[i].result.GetOr("sessions", 0.0));
    } else {
      entry.Set("status", "unavailable");
      entry.Set("error", replies[i].error);
    }
    entry.Set("healthy", pool_->healthy(i));
    shards.Append(std::move(entry));
  }
  const bool degraded = reachable < replies.size();
  const bool draining = core_.draining();
  Json result = Json::Object();
  if (draining) {
    result.Set("status", "draining");
  } else if (reachable == 0) {
    result.Set("status", "unavailable");
  } else {
    result.Set("status", HealthName(std::max(worst, 0)));
  }
  result.Set("draining", draining);
  result.Set("degraded", degraded);
  result.Set("shards", std::move(shards));
  Json self = Json::Object();
  self.Set("role", "coordinator");
  self.Set("draining", draining);
  self.Set("shards_total", replies.size());
  self.Set("shards_reachable", reachable);
  result.Set("coordinator", std::move(self));
  Json tele = Json::Object();
  tele.Set("compiled", telemetry::kCompiled);
  tele.Set("enabled", telemetry::Enabled());
  result.Set("telemetry", std::move(tele));
  return result;
}

Json CoordinatorServer::MergedMetrics(const std::string& request_id) {
  const std::vector<ShardReply> replies =
      FanOut("metrics", Json::Object(), request_id);
  Json merged = telemetry::MetricsToJson(
      telemetry::MetricsRegistry::Current().Snapshot());
  double queue_depth = 0.0;
  double sessions = 0.0;
  Json slow = Json::Array();
  std::size_t reachable = 0;
  for (std::size_t i = 0; i < replies.size(); ++i) {
    if (!replies[i].ok) continue;
    ++reachable;
    MergeMetricsJson(&merged, replies[i].result.GetOr("metrics", Json::Object()));
    const Json server = replies[i].result.GetOr("server", Json::Object());
    queue_depth += SumField(server, "queue_depth");
    sessions += SumField(server, "sessions");
    // Bind before iterating: GetOr returns by value, and a range-for over
    // a member of that temporary would walk a destroyed array.
    const Json shard_slow =
        replies[i].result.GetOr("slow_requests", Json::Array());
    for (const Json& record : shard_slow.items()) {
      Json tagged = record;
      tagged.Set("shard", pool_->address(i).name);
      slow.Append(std::move(tagged));
    }
  }
  Json server = Json::Object();
  server.Set("role", "coordinator");
  server.Set("shards", replies.size());
  server.Set("shards_reachable", reachable);
  server.Set("draining", core_.draining());
  server.Set("queue_depth", queue_depth);
  server.Set("sessions", sessions);
  Json result = Json::Object();
  result.Set("server", std::move(server));
  result.Set("metrics", std::move(merged));
  result.Set("slow_requests", std::move(slow));
  result.Set("degraded", reachable < replies.size());
  result.Set("shard_health", pool_->StatusJson());
  return result;
}

Json CoordinatorServer::MergedStats(const std::string& request_id) {
  const std::vector<ShardReply> replies =
      FanOut("stats", Json::Object(), request_id);
  const auto kServerFields = {"queue_depth", "queue_capacity", "sessions"};
  const auto kCacheFields = {"size", "capacity", "hits", "misses"};
  Json result = Json::Object();
  Json cache = Json::Object();
  AddFields(&result, Json::Object(), kServerFields);  // zeros, in key order
  AddFields(&cache, Json::Object(), kCacheFields);
  Json merged = telemetry::MetricsToJson(
      telemetry::MetricsRegistry::Current().Snapshot());
  std::size_t reachable = 0;
  for (const ShardReply& reply : replies) {
    if (!reply.ok) continue;
    ++reachable;
    AddFields(&result, reply.result, kServerFields);
    AddFields(&cache, reply.result.GetOr("plan_cache", Json::Object()),
              kCacheFields);
    MergeMetricsJson(&merged, reply.result.GetOr("metrics", Json::Object()));
  }
  result.Set("plan_cache", std::move(cache));
  result.Set("metrics", std::move(merged));
  result.Set("degraded", reachable < replies.size());
  result.Set("shard_health", pool_->StatusJson());
  return result;
}

Json CoordinatorServer::ShardsVerb() const {
  Json result = Json::Object();
  result.Set("virtual_nodes", ring_.virtual_nodes());
  result.Set("shards", pool_->StatusJson());
  return result;
}

}  // namespace coordinator
}  // namespace phocus
