#include "service/server.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <thread>

#include "datagen/corpus_io.h"
#include "datagen/ecommerce.h"
#include "datagen/openimages.h"
#include "telemetry/export.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/metrics.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/strings.h"

namespace phocus {
namespace service {

namespace {

/// Budgets arrive as "25MB" strings or raw byte numbers.
Cost BudgetFromJson(const Json& value) {
  if (value.is_string()) return ParseBytes(value.AsString());
  return static_cast<Cost>(value.AsInt());
}

ArchiveOptions OptionsFromParams(const Json& params, bool require_budget) {
  ArchiveOptions options;
  if (params.Has("budget")) {
    options.budget = BudgetFromJson(params.Get("budget"));
  } else {
    PHOCUS_CHECK(!require_budget, "missing required param: budget");
  }
  const double tau =
      params.GetOr("tau", Json(options.representation.sparsify_tau)).AsDouble();
  PHOCUS_CHECK(std::isfinite(tau) && tau >= 0.0 && tau <= 1.0,
               "param tau must be a number in [0, 1]");
  options.representation.sparsify_tau = tau;
  options.representation.exif_weight =
      params.GetOr("exif_weight", Json(options.representation.exif_weight))
          .AsDouble();
  options.representation.context_normalize =
      params.GetOr("context_normalize", true).AsBool();
  options.compute_online_bound = params.GetOr("online_bound", true).AsBool();
  options.coverage_rows = static_cast<std::size_t>(
      params.GetOr("coverage_rows", 0).AsInt());
  return options;
}

/// The `count` of photos an `ingest` / `update` generates. Read signed and
/// checked before the cast: a negative count must not wrap to a huge size.
std::size_t PhotoCountFromParams(const Json& params) {
  const std::int64_t count = params.Get("count").AsInt();
  PHOCUS_CHECK(count > 0, "param count must be a positive integer");
  return static_cast<std::size_t>(count);
}

Corpus CorpusFromParams(const Json& params) {
  const Json spec = params.GetOr("corpus", Json::Object());
  const std::string kind = spec.GetOr("kind", Json("openimages")).AsString();
  if (kind == "openimages") {
    OpenImagesOptions options;
    options.num_photos = static_cast<std::size_t>(
        spec.GetOr("num_photos", 400).AsInt());
    options.seed = static_cast<std::uint64_t>(spec.GetOr("seed", 1).AsInt());
    options.near_duplicate_prob =
        spec.GetOr("near_duplicate_prob", Json(options.near_duplicate_prob))
            .AsDouble();
    options.required_fraction =
        spec.GetOr("required_fraction", Json(options.required_fraction))
            .AsDouble();
    return GenerateOpenImagesCorpus(options);
  }
  if (kind == "ecommerce") {
    EcommerceOptions options;
    options.num_products = static_cast<std::size_t>(
        spec.GetOr("num_products", 2000).AsInt());
    options.num_queries = static_cast<std::size_t>(
        spec.GetOr("num_queries", 60).AsInt());
    options.seed = static_cast<std::uint64_t>(spec.GetOr("seed", 7).AsInt());
    return GenerateEcommerceCorpus(options);
  }
  if (kind == "file") {
    return LoadCorpus(spec.Get("path").AsString());
  }
  throw ServiceError(ErrorCode::kBadRequest, "unknown corpus kind: " + kind);
}

Json StatsToJson(const IncrementalUpdateStats& stats) {
  Json out = Json::Object();
  out.Set("photos_added", stats.photos_added);
  out.Set("subsets_added", stats.subsets_added);
  out.Set("evicted_for_feasibility", stats.evicted_for_feasibility);
  out.Set("gain_evaluations", stats.gain_evaluations);
  out.Set("seconds", stats.seconds);
  return out;
}

Json DriftToJson(const DriftEstimate& drift) {
  Json out = Json::Object();
  out.Set("stale_score", drift.stale_score);
  out.Set("upper_bound", drift.upper_bound);
  out.Set("drift", drift.drift);
  out.Set("relative_drift", drift.relative_drift);
  return out;
}

/// The result of every streaming verb (update, set_budget, ingest,
/// ingest_flush); stats and plan are present when the call replanned.
Json IngestResultToJson(const std::string& session_id,
                        const Session::IngestResult& ingest) {
  Json result = Json::Object();
  result.Set("session", session_id);
  result.Set("enqueued_photos", ingest.outcome.enqueued_photos);
  result.Set("pending_photos", ingest.outcome.pending_photos);
  result.Set("absorbed", ingest.outcome.absorbed);
  result.Set("replanned", ingest.outcome.replanned);
  result.Set("reason", ingest.outcome.reason);
  result.Set("num_photos", ingest.num_photos);
  result.Set("replans", ingest.replans);
  result.Set("replans_skipped", ingest.replans_skipped);
  result.Set("drift_evals", ingest.drift_evals);
  if (ingest.outcome.drift_evaluated) {
    result.Set("drift", DriftToJson(ingest.outcome.drift));
  }
  if (ingest.outcome.replanned) {
    result.Set("stats", StatsToJson(ingest.outcome.stats));
    result.Set("plan", PlanToJson(*ingest.plan));
  }
  return result;
}

/// Flight-recorder slots store raw const char*, so dynamic endpoint names
/// go through the process-lifetime intern table.
const char* EndpointLiteral(const std::string& endpoint) {
  return telemetry::InternedName(endpoint);
}

FrameServerOptions CoreOptions(const ServerOptions& options) {
  auto& registry = telemetry::MetricsRegistry::Current();
  FrameServerOptions core;
  core.host = options.host;
  core.port = options.port;
  core.max_frame_bytes = options.max_frame_bytes;
  core.name = "phocusd";
  core.drain_event = "server.drain";
  core.crash_event = "server.crash";
  core.connections = &registry.GetCounter("service.connections");
  core.bytes_in = &registry.GetCounter("service.bytes_in");
  core.bytes_out = &registry.GetCounter("service.bytes_out");
  core.respond_ns = &registry.GetHistogram("service.respond_ns");
  return core;
}

}  // namespace

void SlowRequestLog::Add(Json record) {
  std::lock_guard<std::mutex> lock(mutex_);
  records_.push_back(std::move(record));
  while (records_.size() > kMaxRecords) records_.pop_front();
}

Json SlowRequestLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Json out = Json::Array();
  for (const Json& record : records_) out.Append(record);
  return out;
}

ServiceServer::ServiceServer(ServerOptions options)
    : options_(std::move(options)),
      slots_(static_cast<std::ptrdiff_t>(
          options_.num_workers > 0
              ? options_.num_workers
              : std::max(1u, std::thread::hardware_concurrency()))),
      plan_cache_(options_.plan_cache_capacity),
      core_(CoreOptions(options_),
            [this](const Request& request) { return Serve(request); }) {
  slow_request_ms_ = options_.slow_request_ms;
  if (slow_request_ms_ == 0.0) {
    if (const char* env = std::getenv("PHOCUS_SLOW_REQUEST_MS")) {
      slow_request_ms_ = std::strtod(env, nullptr);
    }
  }
  if (slow_request_ms_ < 0.0) slow_request_ms_ = 0.0;
}

void ServiceServer::Start() {
  if (!options_.wal_dir.empty()) {
    std::filesystem::create_directories(options_.wal_dir);
    sessions_.set_wal_dir(options_.wal_dir);
    PHOCUS_LOG(kInfo) << "ingest WAL enabled under " << options_.wal_dir;
  }
  core_.Start();
  PHOCUS_LOG(kInfo) << "phocusd listening on " << options_.host << ":"
                    << port() << " (workers=" << options_.num_workers
                    << ", queue=" << options_.queue_capacity << ")";
}

Reply ServiceServer::Serve(const Request& request) {
  RequestObservation observation;
  observation.endpoint = request.endpoint;
  observation.request_id = request.request_id;
  const char* endpoint = EndpointLiteral(request.endpoint);
  telemetry::FlightRecorder::Record("request.start", endpoint, request.id);
  Reply reply;
  reply.response = ProcessParsed(request, &observation);
  telemetry::FlightRecorder::Record(
      "request.end", endpoint, request.id,
      reply.response.GetOr("ok", false).AsBool() ? 1 : 0);
  if (observation.handled && slow_request_ms_ > 0.0) {
    reply.after_write = [this, observation = std::move(observation)](
                            std::uint64_t respond_ns) mutable {
      FinishObservation(&observation, respond_ns);
    };
  }
  return reply;
}

Json ServiceServer::ProcessParsed(const Request& request,
                                  RequestObservation* observation) {
  const std::uint64_t id = request.id;
  const std::string& endpoint = request.endpoint;
  const Json& params = request.params;
  const std::string& request_id = request.request_id;
  auto& registry = telemetry::MetricsRegistry::Current();
  registry.GetCounter("service.requests").Increment();

  // Control-plane endpoints bypass the queue: health checks, observability
  // reads and shutdown must succeed even when the data plane is saturated.
  if (endpoint == "ping") {
    Json result = Json::Object();
    result.Set("pong", true);
    return MakeOkResponse(id, std::move(result));
  }
  if (endpoint == "healthz") return MakeOkResponse(id, HandleHealthz());
  if (endpoint == "metrics") return MakeOkResponse(id, HandleMetrics());
  if (endpoint == "dump_flight") {
    return MakeOkResponse(id, telemetry::FlightRecorder::ToJson());
  }
  if (endpoint == "shutdown") {
    RequestShutdown();
    Json result = Json::Object();
    result.Set("draining", true);
    return MakeOkResponse(id, std::move(result));
  }
  if (endpoint == "debug_failpoint" && options_.enable_debug_endpoints) {
    // Remote failpoint control for chaos tests driving phocusd as a
    // subprocess (tests/cluster_test.cc): arm or disarm named failpoints
    // over the wire. Control-plane on purpose — it must work while
    // `server.admission` faults are armed, and during a drain, so a
    // scenario can always disarm what it armed.
    try {
      Json result = Json::Object();
      if (params.GetOr("deactivate_all", false).AsBool()) {
        failpoint::DeactivateAll();
        result.Set("armed", Json::Array());
        return MakeOkResponse(id, std::move(result));
      }
      if (params.Has("seed")) {
        failpoint::SetSeed(
            static_cast<std::uint64_t>(params.Get("seed").AsInt()));
      }
      const std::string name = params.Get("name").AsString();
      if (params.GetOr("deactivate", false).AsBool()) {
        result.Set("deactivated", failpoint::Deactivate(name));
      } else {
        failpoint::Configure(name, params.Get("spec").AsString());
      }
      Json armed = Json::Array();
      for (const std::string& armed_name : failpoint::ArmedNames()) {
        armed.Append(armed_name);
      }
      result.Set("armed", std::move(armed));
      return MakeOkResponse(id, std::move(result));
    } catch (const CheckFailure& failure) {
      return MakeErrorResponse(id, ErrorCode::kBadRequest, failure.what());
    }
  }

  // Admission control: reject instead of queueing without bound.
  if (core_.draining()) {
    registry.GetCounter("service.rejected.shutting_down").Increment();
    telemetry::FlightRecorder::Record("request.reject", "shutting_down", id);
    return MakeErrorResponse(id, ErrorCode::kShuttingDown,
                             "server is draining");
  }
  if (failpoint::AnyActive()) {
    // An injected admission fault surfaces as the typed overload rejection
    // a saturated queue would produce, so clients exercise that path
    // without needing queue_capacity concurrent requests in flight.
    const failpoint::Action action = failpoint::Evaluate("server.admission");
    if (action.kind == failpoint::ActionKind::kError ||
        action.kind == failpoint::ActionKind::kShortWrite) {
      registry.GetCounter("service.rejected.overloaded").Increment();
      telemetry::FlightRecorder::Record("request.reject", "overloaded", id);
      return MakeErrorResponse(id, ErrorCode::kOverloaded,
                               "injected admission rejection");
    }
    failpoint::Perform("server.admission", action);
  }
  const std::size_t admitted = admitted_.fetch_add(1);
  if (admitted >= options_.queue_capacity) {
    admitted_.fetch_sub(1);
    registry.GetCounter("service.rejected.overloaded").Increment();
    telemetry::FlightRecorder::Record("request.reject", "overloaded", id);
    return MakeErrorResponse(
        id, ErrorCode::kOverloaded,
        StrFormat("request queue full (%zu outstanding)",
                  options_.queue_capacity));
  }
  telemetry::Gauge& depth = registry.GetGauge("service.queue_depth");
  depth.Set(static_cast<double>(admitted + 1));
  const std::uint64_t enqueue_ns = telemetry::TraceNowNs();

  // Queue wait is the wait for an execution slot; the request then runs on
  // this connection thread. Every path out frees the slot and the admission.
  struct Slot {
    Slot(ServiceServer* owner, telemetry::Gauge* gauge)
        : server(owner), depth(gauge) {
      server->slots_.acquire();
    }
    Slot(const Slot&) = delete;
    Slot& operator=(const Slot&) = delete;
    ~Slot() {
      server->slots_.release();
      depth->Set(static_cast<double>(server->admitted_.fetch_sub(1) - 1));
    }
    ServiceServer* server;
    telemetry::Gauge* depth;
  };
  const Slot slot(this, &depth);
  const double deadline_ms =
      params.GetOr("deadline_ms", Json(options_.default_deadline_ms))
          .AsDouble();
  // Delay-only: stretches the apparent queue wait so tests can force
  // deadline expiry deterministically.
  PHOCUS_FAILPOINT_DELAY_ONLY("server.queue_wait");
  const std::uint64_t waited_ns = telemetry::TraceNowNs() - enqueue_ns;
  const double waited_ms = static_cast<double>(waited_ns) / 1e6;
  registry.GetHistogram("service.queue_wait_ns")
      .Record(static_cast<double>(waited_ns));
  observation->queue_wait_ms = waited_ms;
  Json response;
  // Request-scoped tracing: roots finished on this thread inside the scope
  // land in the request-local collector, so the request's span tree (cache
  // lookup, solve, ...) is isolated from the process-global one and can be
  // attached to the slow-request log.
  telemetry::TraceCollector request_trace;
  {
    telemetry::ScopedTraceSink sink(&request_trace);
    // Only handled requests count toward the endpoint's latency histogram.
    const bool expired = deadline_ms > 0.0 && waited_ms > deadline_ms;
    telemetry::TraceSpan request_span(
        "service.request",
        expired ? nullptr
                : &registry.GetHistogram("service.endpoint." + endpoint +
                                         "_ns"));
    request_span.SetAttribute("endpoint", endpoint);
    if (!request_id.empty()) {
      request_span.SetAttribute("request_id", request_id);
    }
    if (expired) {
      registry.GetCounter("service.rejected.deadline_exceeded").Increment();
      request_span.SetAttribute("deadline_expired", "true");
      response = MakeErrorResponse(
          id, ErrorCode::kDeadlineExceeded,
          StrFormat("request waited %.1fms past its %.1fms deadline",
                    waited_ms - deadline_ms, deadline_ms));
    } else {
      try {
        response = MakeOkResponse(id, Handle(endpoint, params));
        registry.GetCounter("service.responses.ok").Increment();
      } catch (const ServiceError& error) {
        response = MakeErrorResponse(id, error.code(), error.message());
      } catch (const InfeasibleBudgetError& error) {
        response = MakeErrorResponse(id, ErrorCode::kInfeasible, error.what());
      } catch (const IngestOverloadedError& error) {
        // Must precede the CheckFailure arm (it derives CheckFailure):
        // backpressure is a typed, retryable condition, not a bad request.
        registry.GetCounter("service.rejected.ingest_overloaded").Increment();
        telemetry::FlightRecorder::Record("request.reject",
                                          "ingest_overloaded", id);
        response =
            MakeErrorResponse(id, ErrorCode::kIngestOverloaded, error.what());
      } catch (const CheckFailure& failure) {
        response =
            MakeErrorResponse(id, ErrorCode::kBadRequest, failure.what());
      } catch (const std::exception& error) {
        response = MakeErrorResponse(id, ErrorCode::kInternal, error.what());
      }
      observation->handle_ms = request_span.ElapsedSeconds() * 1e3;
    }
  }
  std::vector<telemetry::SpanRecord> roots = request_trace.Drain();
  if (!roots.empty()) {
    observation->tree = std::move(roots.front());
    // The time between admission and taking a slot, as a synthetic first
    // child on the same timeline as the real spans.
    telemetry::SpanRecord wait;
    wait.name = "service.request.admission_wait";
    wait.start_ns = enqueue_ns;
    wait.duration_ns = waited_ns;
    observation->tree.children.insert(observation->tree.children.begin(),
                                      std::move(wait));
  }
  observation->handled = true;
  if (!response.GetOr("ok", false).AsBool()) {
    registry.GetCounter("service.responses.error").Increment();
  }
  return response;
}

void ServiceServer::FinishObservation(RequestObservation* observation,
                                      std::uint64_t respond_ns) {
  const double respond_ms = static_cast<double>(respond_ns) / 1e6;
  const double total_ms =
      observation->queue_wait_ms + observation->handle_ms + respond_ms;
  if (total_ms < slow_request_ms_) return;
  telemetry::MetricsRegistry::Current()
      .GetCounter("service.slow_requests")
      .Increment();
  if (!observation->tree.name.empty()) {
    // Response write happens after the request span closed; splice it into
    // the tree as a trailing child so the breakdown reads
    // admission wait -> handling -> respond.
    telemetry::SpanRecord respond;
    respond.name = "service.request.respond";
    respond.duration_ns = respond_ns;
    const std::uint64_t now_ns = telemetry::TraceNowNs();
    respond.start_ns = now_ns > respond_ns ? now_ns - respond_ns : 0;
    observation->tree.children.push_back(std::move(respond));
  }
  Json record = Json::Object();
  record.Set("request_id", observation->request_id);
  record.Set("endpoint", observation->endpoint);
  record.Set("total_ms", total_ms);
  record.Set("queue_wait_ms", observation->queue_wait_ms);
  record.Set("handle_ms", observation->handle_ms);
  record.Set("respond_ms", respond_ms);
  std::vector<telemetry::SpanRecord> spans;
  if (!observation->tree.name.empty()) spans.push_back(observation->tree);
  record.Set("spans", telemetry::SpansToJson(spans));
  PHOCUS_LOG(kWarn) << "slow request " << observation->request_id << " ("
                    << observation->endpoint << "): "
                    << StrFormat("%.1fms total (queue %.1fms, handle %.1fms, "
                                 "respond %.1fms), threshold %.1fms",
                                 total_ms, observation->queue_wait_ms,
                                 observation->handle_ms, respond_ms,
                                 slow_request_ms_)
                    << (spans.empty()
                            ? std::string()
                            : "\n" + telemetry::RenderSpanTree(spans));
  slow_log_.Add(std::move(record));
}

std::shared_ptr<Session> ServiceServer::FindSession(const Json& params) const {
  const std::string id = params.Get("session").AsString();
  std::shared_ptr<Session> session = sessions_.Find(id);
  if (session == nullptr) {
    throw ServiceError(ErrorCode::kUnknownSession, "no such session: " + id);
  }
  return session;
}

Json ServiceServer::Handle(const std::string& endpoint, const Json& params) {
  if (endpoint == "create_session") return HandleCreateSession(params);
  if (endpoint == "session_info") return FindSession(params)->Describe();
  if (endpoint == "plan") return HandlePlan(params);
  if (endpoint == "update") return HandleUpdate(params);
  if (endpoint == "set_budget") return HandleSetBudget(params);
  if (endpoint == "ingest") return HandleIngest(params);
  if (endpoint == "ingest_flush") return HandleIngestFlush(params);
  if (endpoint == "coverage") {
    return FindSession(params)->Coverage(
        static_cast<std::size_t>(params.GetOr("top_k", 0).AsInt()));
  }
  if (endpoint == "explain") {
    return FindSession(params)->Explain(
        static_cast<PhotoId>(params.Get("photo").AsInt()));
  }
  if (endpoint == "archive_to_vault") return HandleArchiveToVault(params);
  if (endpoint == "close_session") {
    const bool closed = sessions_.Remove(params.Get("session").AsString());
    telemetry::MetricsRegistry::Current()
        .GetGauge("service.sessions")
        .Set(static_cast<double>(sessions_.size()));
    Json result = Json::Object();
    result.Set("closed", closed);
    return result;
  }
  if (endpoint == "stats") return HandleStats();
  if (endpoint == "debug_sleep" && options_.enable_debug_endpoints) {
    const double millis = params.GetOr("millis", 100).AsDouble();
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(millis));
    Json result = Json::Object();
    result.Set("slept_ms", millis);
    return result;
  }
  throw ServiceError(ErrorCode::kUnknownEndpoint,
                     "unknown endpoint: " + endpoint);
}

Json ServiceServer::HandleCreateSession(const Json& params) {
  std::shared_ptr<Session> session = sessions_.Create(CorpusFromParams(params));
  telemetry::MetricsRegistry::Current()
      .GetGauge("service.sessions")
      .Set(static_cast<double>(sessions_.size()));
  return session->Describe();
}

Json ServiceServer::HandlePlan(const Json& params) {
  std::shared_ptr<Session> session = FindSession(params);
  const ArchiveOptions options =
      OptionsFromParams(params, /*require_budget=*/true);
  const Session::PlanOutcome outcome = session->Plan(options, &plan_cache_);
  auto& registry = telemetry::MetricsRegistry::Current();
  registry
      .GetCounter(outcome.from_cache ? "service.plan_cache.hits"
                                     : "service.plan_cache.misses")
      .Increment();
  Json result = Json::Object();
  result.Set("session", session->id());
  result.Set("cached", outcome.from_cache);
  result.Set("fingerprint", session->Fingerprint());
  result.Set("plan", PlanToJson(*outcome.plan));
  return result;
}

Json ServiceServer::HandleUpdate(const Json& params) {
  std::shared_ptr<Session> session = FindSession(params);
  const ArchiveOptions options =
      OptionsFromParams(params, /*require_budget=*/false);
  const std::size_t count = PhotoCountFromParams(params);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(params.GetOr("seed", 1).AsInt());
  return IngestResultToJson(session->id(),
                            session->AddGeneratedPhotos(count, seed, options));
}

Json ServiceServer::HandleSetBudget(const Json& params) {
  std::shared_ptr<Session> session = FindSession(params);
  const ArchiveOptions options =
      OptionsFromParams(params, /*require_budget=*/true);
  return IngestResultToJson(session->id(),
                            session->SetBudget(options.budget, options));
}

namespace {

Session::IngestConfig IngestConfigFromParams(const Json& params) {
  Session::IngestConfig config;
  config.epsilon = params.GetOr("epsilon", Json(config.epsilon)).AsDouble();
  config.max_staleness_ms =
      params.GetOr("max_staleness_ms", Json(config.max_staleness_ms))
          .AsDouble();
  config.batch_photos = static_cast<std::size_t>(
      params.GetOr("batch_photos", static_cast<std::int64_t>(
                                       config.batch_photos))
          .AsInt());
  config.queue_photos = static_cast<std::size_t>(
      params.GetOr("queue_photos", static_cast<std::int64_t>(
                                       config.queue_photos))
          .AsInt());
  config.replan_every_batch =
      params.GetOr("per_batch", config.replan_every_batch).AsBool();
  config.budget_fraction =
      params.GetOr("budget_fraction", Json(config.budget_fraction)).AsDouble();
  config.backfill_members = static_cast<std::size_t>(
      params.GetOr("backfill_members", 0).AsInt());
  return config;
}

}  // namespace

Json ServiceServer::HandleIngest(const Json& params) {
  std::shared_ptr<Session> session = FindSession(params);
  const ArchiveOptions options =
      OptionsFromParams(params, /*require_budget=*/false);
  const std::size_t count = PhotoCountFromParams(params);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(params.GetOr("seed", 1).AsInt());
  const Session::IngestResult ingest = session->Ingest(
      count, seed, options, IngestConfigFromParams(params),
      options_.ingest_now_ms);
  return IngestResultToJson(session->id(), ingest);
}

Json ServiceServer::HandleIngestFlush(const Json& params) {
  std::shared_ptr<Session> session = FindSession(params);
  return IngestResultToJson(session->id(), session->IngestFlush());
}

Json ServiceServer::HandleArchiveToVault(const Json& params) {
  std::shared_ptr<Session> session = FindSession(params);
  const std::string directory = params.Get("directory").AsString();
  const int render_size = static_cast<int>(
      params.GetOr("render_size", 64).AsInt());
  return session->ArchiveToVault(directory, render_size);
}

Json ServiceServer::PlanCacheJson() const {
  Json cache = Json::Object();
  cache.Set("size", plan_cache_.size());
  cache.Set("capacity", plan_cache_.capacity());
  cache.Set("hits", plan_cache_.hits());
  cache.Set("misses", plan_cache_.misses());
  return cache;
}

Json ServiceServer::HandleStats() {
  Json result = Json::Object();
  result.Set("queue_depth", admitted_.load());
  result.Set("queue_capacity", options_.queue_capacity);
  result.Set("sessions", sessions_.size());
  result.Set("plan_cache", PlanCacheJson());
  result.Set("metrics",
             telemetry::MetricsToJson(
                 telemetry::MetricsRegistry::Current().Snapshot()));
  return result;
}

Json ServiceServer::HandleMetrics() {
  Json server = Json::Object();
  server.Set("queue_depth", admitted_.load());
  server.Set("queue_capacity", options_.queue_capacity);
  server.Set("sessions", sessions_.size());
  server.Set("draining", core_.draining());
  server.Set("slow_request_ms", slow_request_ms_);
  server.Set("plan_cache", PlanCacheJson());
  Json result = Json::Object();
  result.Set("server", std::move(server));
  result.Set("metrics",
             telemetry::MetricsToJson(
                 telemetry::MetricsRegistry::Current().Snapshot()));
  result.Set("slow_requests", slow_log_.Snapshot());
  return result;
}

Json ServiceServer::HandleHealthz() {
  const std::size_t depth = admitted_.load();
  const std::size_t capacity = options_.queue_capacity;
  const double saturation =
      capacity == 0 ? 1.0
                    : static_cast<double>(depth) / static_cast<double>(capacity);
  const bool draining = core_.draining();
  Json result = Json::Object();
  result.Set("status", draining      ? "draining"
                       : saturation >= 1.0 ? "overloaded"
                                           : "ok");
  result.Set("draining", draining);
  result.Set("queue_depth", depth);
  result.Set("queue_capacity", capacity);
  result.Set("admission_saturation", saturation);
  result.Set("sessions", sessions_.size());
  Json tele = Json::Object();
  tele.Set("enabled", telemetry::Enabled());
  result.Set("telemetry", std::move(tele));
  return result;
}

}  // namespace service
}  // namespace phocus
