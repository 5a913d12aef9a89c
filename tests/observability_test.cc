#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "coordinator/coordinator.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/socket.h"
#include "telemetry/export.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "util/failpoint.h"
#include "util/json.h"
#include "util/logging.h"

/// \file observability_test.cc
/// The serving observability layer (docs/OBSERVABILITY.md): the flight
/// recorder, the metrics/healthz/dump_flight wire verbs, request-id
/// propagation into server-side spans and the slow-request log, the
/// crash-failpoint flight dump, deterministic telemetry export, and the
/// Prometheus exposition. Runs under ctest labels `unit` and `obs`, and in
/// the -DPHOCUS_TELEMETRY=OFF smoke tree (value assertions are gated on
/// telemetry::kCompiled; schema assertions are not).

namespace phocus {
namespace service {
namespace {

Json CorpusSpec(std::uint64_t seed) {
  Json spec = Json::Object();
  spec.Set("kind", "openimages");
  spec.Set("num_photos", 40);
  spec.Set("seed", seed);
  return spec;
}

class ObservabilityTest : public ::testing::Test {
 protected:
  void SetUp() override { telemetry::FlightRecorder::Reset(); }

  void StartServer(ServerOptions options) {
    server_ = std::make_unique<ServiceServer>(std::move(options));
    server_->Start();
  }

  ServiceClient Connect() {
    return ServiceClient("127.0.0.1", server_->port());
  }

  /// Starts a coordinator fronting the running phocusd; returns its port.
  int StartCoordinator() {
    coordinator::CoordinatorOptions options;
    options.shards = coordinator::ParseShardList(
        "127.0.0.1:" + std::to_string(server_->port()));
    coordinator_ = std::make_unique<coordinator::CoordinatorServer>(options);
    coordinator_->Start();
    return coordinator_->port();
  }

  void TearDown() override {
    if (coordinator_ != nullptr) {
      coordinator_->RequestShutdown();
      coordinator_->Wait();
    }
    if (server_ != nullptr) {
      server_->RequestShutdown();
      server_->Wait();
    }
    telemetry::FlightRecorder::SetCrashDumpPath("");
  }

  std::unique_ptr<ServiceServer> server_;
  std::unique_ptr<coordinator::CoordinatorServer> coordinator_;
};

// --- Flight recorder ------------------------------------------------------

TEST(FlightRecorderTest, RingKeepsTheMostRecentEvents) {
  telemetry::FlightRecorder::Reset();
  const std::size_t capacity = telemetry::FlightRecorder::kRingCapacity;
  for (std::size_t i = 0; i < capacity + 50; ++i) {
    telemetry::FlightRecorder::Record("test.event", "", i);
  }
  const std::vector<telemetry::FlightEvent> events =
      telemetry::FlightRecorder::Snapshot();
  if (!telemetry::kCompiled) {
    EXPECT_TRUE(events.empty());
    EXPECT_EQ(telemetry::FlightRecorder::recorded(), 0u);
    return;
  }
  // Exactly one ring's worth survives, and it is the newest events in
  // global order.
  ASSERT_EQ(events.size(), capacity);
  EXPECT_EQ(telemetry::FlightRecorder::recorded(), capacity + 50);
  EXPECT_EQ(events.front().seq, 51u);
  EXPECT_EQ(events.back().seq, capacity + 50);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(events[i - 1].seq, events[i].seq);
  }
  EXPECT_STREQ(events.back().name, "test.event");
  EXPECT_EQ(events.back().arg0, capacity + 49);
}

TEST(FlightRecorderTest, MergesPerThreadRingsInSequenceOrder) {
  telemetry::FlightRecorder::Reset();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i) {
        telemetry::FlightRecorder::Record("test.merge", "",
                                          static_cast<std::uint64_t>(t));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const std::vector<telemetry::FlightEvent> events =
      telemetry::FlightRecorder::Snapshot();
  if (!telemetry::kCompiled) {
    EXPECT_TRUE(events.empty());
    return;
  }
  ASSERT_EQ(events.size(),
            static_cast<std::size_t>(kThreads * kPerThread));
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, i + 1);  // dense and strictly increasing
  }
}

TEST(FlightRecorderTest, InternedNamesAreStablePointers) {
  const char* first = telemetry::InternedName("observability.intern.test");
  const char* second = telemetry::InternedName("observability.intern.test");
  EXPECT_EQ(first, second);
  EXPECT_STREQ(first, "observability.intern.test");
}

// --- Wire surface ---------------------------------------------------------

TEST_F(ObservabilityTest, WireFramingForObservabilityVerbs) {
  StartServer(ServerOptions{});
  // Raw frames, no ServiceClient: the verbs must answer well-formed
  // length-prefixed JSON with the request id and request_id echoed.
  Socket socket = ConnectTcp("127.0.0.1", server_->port());
  FrameDecoder decoder(kDefaultMaxFrameBytes);
  std::uint64_t next_id = 7;
  for (const std::string endpoint : {"metrics", "healthz", "dump_flight"}) {
    Json request = MakeRequest(next_id, endpoint, Json::Object());
    request.Set("request_id", "wire-" + endpoint);
    socket.SendAll(EncodeFrame(request));
    std::string frame;
    while (decoder.Next(&frame) != FrameDecoder::Status::kFrame) {
      std::string chunk;
      ASSERT_TRUE(socket.RecvSome(&chunk));
      decoder.Append(chunk);
    }
    const Json response = Json::Parse(frame);
    EXPECT_EQ(static_cast<std::uint64_t>(response.Get("id").AsInt()),
              next_id);
    EXPECT_TRUE(response.Get("ok").AsBool());
    EXPECT_EQ(response.Get("request_id").AsString(), "wire-" + endpoint);
    EXPECT_TRUE(response.Get("result").is_object());
    ++next_id;
  }
}

TEST_F(ObservabilityTest, MetricsVerbUnderConcurrentLoad) {
  ServerOptions options;
  options.num_workers = 4;
  StartServer(options);

  ServiceClient setup = Connect();
  const std::string session = setup.CreateSession(CorpusSpec(3));

  // 8 loopback clients planning concurrently; between them exactly one
  // cache decision (hit or miss) per call.
  constexpr int kClients = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([this, &session] {
      ServiceClient client = Connect();
      client.Plan(session, "1500000");
    });
  }
  for (std::thread& thread : threads) thread.join();

  const Json result = setup.Metrics();
  ASSERT_TRUE(result.Has("server"));
  ASSERT_TRUE(result.Has("metrics"));
  ASSERT_TRUE(result.Has("slow_requests"));

  const Json& server = result.Get("server");
  EXPECT_EQ(server.Get("queue_capacity").AsInt(), 64);
  EXPECT_FALSE(server.Get("draining").AsBool());
  const Json& cache = server.Get("plan_cache");
  EXPECT_EQ(cache.Get("hits").AsInt() + cache.Get("misses").AsInt(),
            kClients);

  const Json& metrics = result.Get("metrics");
  ASSERT_TRUE(metrics.Has("counters"));
  ASSERT_TRUE(metrics.Has("histograms"));
  const Json& counters = metrics.Get("counters");
  const Json& histograms = metrics.Get("histograms");
  // Names register even with telemetry compiled out; values only count
  // when the recorders are real.
  EXPECT_TRUE(counters.Has("service.bytes_in"));
  EXPECT_TRUE(counters.Has("service.bytes_out"));
  ASSERT_TRUE(histograms.Has("service.endpoint.plan_ns"));
  ASSERT_TRUE(histograms.Has("service.queue_wait_ns"));
  if (telemetry::kCompiled) {
    EXPECT_GT(counters.Get("service.bytes_in").AsInt(), 0);
    EXPECT_GT(counters.Get("service.bytes_out").AsInt(), 0);
    EXPECT_GE(histograms.Get("service.endpoint.plan_ns")
                  .Get("count").AsInt(),
              kClients);
    EXPECT_GE(histograms.Get("service.queue_wait_ns").Get("count").AsInt(),
              kClients);
  }
}

TEST_F(ObservabilityTest, HealthzReportsDrainState) {
  StartServer(ServerOptions{});
  // Both daemons run the same serving core. The coordinator goes first:
  // draining it leaves its phocusd shard serving.
  const int coordinator_port = StartCoordinator();
  for (const int port : {coordinator_port, server_->port()}) {
    const bool is_phocusd = port == server_->port();
    SCOPED_TRACE(is_phocusd ? "phocusd" : "phocus_coordinator");
    ServiceClient client("127.0.0.1", port);

    Json health = client.Healthz();
    EXPECT_EQ(health.Get("status").AsString(), "ok");
    EXPECT_FALSE(health.Get("draining").AsBool());
    if (is_phocusd) {
      EXPECT_LT(health.Get("admission_saturation").AsDouble(), 1.0);
    }
    EXPECT_EQ(health.Get("telemetry").Get("compiled").AsBool(),
              telemetry::kCompiled);

    // healthz is control-plane: one already-received as the server begins
    // draining must still be answered, and must report the drain. Pipeline
    // shutdown + healthz in a single write so both frames are buffered
    // before the server acts on the shutdown.
    Socket socket = ConnectTcp("127.0.0.1", port);
    socket.SendAll(EncodeFrame(MakeRequest(1, "shutdown", Json::Object())) +
                   EncodeFrame(MakeRequest(2, "healthz", Json::Object())));
    FrameDecoder decoder(kDefaultMaxFrameBytes);
    std::vector<Json> responses;
    while (responses.size() < 2) {
      std::string frame;
      while (decoder.Next(&frame) != FrameDecoder::Status::kFrame) {
        std::string chunk;
        ASSERT_TRUE(socket.RecvSome(&chunk));
        decoder.Append(chunk);
      }
      responses.push_back(Json::Parse(frame));
    }
    EXPECT_TRUE(responses[0].Get("ok").AsBool());  // the shutdown itself
    const Json& drained = responses[1].Get("result");
    EXPECT_EQ(drained.Get("status").AsString(), "draining");
    EXPECT_TRUE(drained.Get("draining").AsBool());
  }
}

TEST_F(ObservabilityTest, DumpFlightReturnsRequestLifecycleEvents) {
  StartServer(ServerOptions{});
  ServiceClient client = Connect();
  const std::string session = client.CreateSession(CorpusSpec(5));
  client.Plan(session, "1500000");

  const Json dump = client.DumpFlight();
  EXPECT_EQ(dump.Get("capacity_per_thread").AsInt(),
            static_cast<std::int64_t>(
                telemetry::FlightRecorder::kRingCapacity));
  ASSERT_TRUE(dump.Has("events"));
  if (!telemetry::kCompiled) {
    EXPECT_EQ(dump.Get("events").size(), 0u);
    return;
  }
  bool saw_plan_start = false;
  bool saw_plan_end = false;
  bool saw_cache_insert = false;
  std::uint64_t last_seq = 0;
  for (const Json& event : dump.Get("events").items()) {
    const std::uint64_t seq =
        static_cast<std::uint64_t>(event.Get("seq").AsInt());
    EXPECT_GT(seq, last_seq);  // merged dump is in global order
    last_seq = seq;
    const std::string name = event.Get("name").AsString();
    const std::string detail = event.Get("detail").AsString();
    if (name == "request.start" && detail == "plan") saw_plan_start = true;
    if (name == "request.end" && detail == "plan") {
      saw_plan_end = true;
      EXPECT_EQ(event.Get("arg1").AsInt(), 1);  // ok response
    }
    if (name == "plan_cache.insert") saw_cache_insert = true;
  }
  EXPECT_TRUE(saw_plan_start);
  EXPECT_TRUE(saw_plan_end);
  EXPECT_TRUE(saw_cache_insert);
}

// --- Request ids, span trees, slow-request log ----------------------------

TEST_F(ObservabilityTest, RequestIdEchoedAndAttachedToSlowLog) {
  ServerOptions options;
  options.enable_debug_endpoints = true;
  options.slow_request_ms = 0.01;  // everything is slow
  StartServer(options);
  ServiceClient client = Connect();

  Json params = Json::Object();
  params.Set("millis", 15.0);
  client.Call("debug_sleep", std::move(params));
  const std::string request_id = client.last_request_id();
  EXPECT_FALSE(request_id.empty());

  const Json slow = client.Metrics().Get("slow_requests");
  ASSERT_GE(slow.size(), 1u);
  bool found = false;
  for (const Json& record : slow.items()) {
    if (record.Get("request_id").AsString() != request_id) continue;
    found = true;
    EXPECT_EQ(record.Get("endpoint").AsString(), "debug_sleep");
    EXPECT_GE(record.Get("total_ms").AsDouble(), 15.0);
    if (telemetry::kCompiled) {
      const std::vector<telemetry::SpanRecord> spans =
          telemetry::SpansFromJson(record.Get("spans"));
      ASSERT_EQ(spans.size(), 1u);
      EXPECT_EQ(spans[0].name, "service.request");
      bool id_attribute = false;
      for (const auto& [key, value] : spans[0].attributes) {
        if (key == "request_id" && value == request_id) id_attribute = true;
      }
      EXPECT_TRUE(id_attribute);
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(ObservabilityTest, SlowPlanRequestRecordsFullSpanTree) {
  if (!telemetry::kCompiled) GTEST_SKIP() << "span tree needs telemetry";
  ServerOptions options;
  options.slow_request_ms = 0.0001;
  StartServer(options);
  ServiceClient client = Connect();
  const std::string session = client.CreateSession(CorpusSpec(9));
  client.Plan(session, "1500000");

  const Json slow = client.Metrics().Get("slow_requests");
  bool found = false;
  for (const Json& record : slow.items()) {
    if (record.Get("endpoint").AsString() != "plan") continue;
    found = true;
    const std::vector<telemetry::SpanRecord> spans =
        telemetry::SpansFromJson(record.Get("spans"));
    ASSERT_EQ(spans.size(), 1u);
    // The documented breakdown: admission wait -> cache lookup -> solve ->
    // respond, all children of service.request.
    std::vector<std::string> names;
    for (const telemetry::SpanRecord& child : spans[0].children) {
      names.push_back(child.name);
    }
    EXPECT_EQ(names.front(), "service.request.admission_wait");
    EXPECT_EQ(names.back(), "service.request.respond");
    EXPECT_NE(std::find(names.begin(), names.end(),
                        "service.session.cache_lookup"),
              names.end());
    EXPECT_NE(std::find(names.begin(), names.end(),
                        "service.session.solve"),
              names.end());
  }
  EXPECT_TRUE(found);
}

TEST_F(ObservabilityTest, SlowThresholdReadFromEnvironment) {
  ::setenv("PHOCUS_SLOW_REQUEST_MS", "0.01", 1);
  ServerOptions options;
  options.enable_debug_endpoints = true;  // slow_request_ms stays 0 = env
  StartServer(options);
  ::unsetenv("PHOCUS_SLOW_REQUEST_MS");
  ServiceClient client = Connect();
  Json params = Json::Object();
  params.Set("millis", 5.0);
  client.Call("debug_sleep", std::move(params));
  EXPECT_GE(client.Metrics().Get("slow_requests").size(), 1u);
}

// --- Crash-failpoint flight dump ------------------------------------------

TEST_F(ObservabilityTest, CrashFailpointWritesReadableFlightDump) {
  const std::string dump_path =
      (std::filesystem::temp_directory_path() / "phocus_flight_test.json")
          .string();
  std::filesystem::remove(dump_path);
  telemetry::FlightRecorder::SetCrashDumpPath(dump_path);

  StartServer(ServerOptions{});
  ServiceClient client = Connect();
  const std::string session = client.CreateSession(CorpusSpec(11));
  {
    // The admission failpoint kills the connection thread mid-request; the
    // server must write the automatic dump and drop the connection with no
    // response, exactly like a dying process.
    failpoint::ScopedFailpoint crash("server.admission", "crash");
    EXPECT_THROW(client.Plan(session, "1500000"), CheckFailure);
  }

  ASSERT_TRUE(std::filesystem::exists(dump_path));
  const Json dump = Json::Parse(ReadFile(dump_path));
  ASSERT_TRUE(dump.Has("events"));
  if (telemetry::kCompiled) {
    // The dump replays the events leading up to the crash: the session
    // that was created, the doomed request, the fault, the death.
    std::vector<std::string> names;
    for (const Json& event : dump.Get("events").items()) {
      names.push_back(event.Get("name").AsString() + "/" +
                      event.Get("detail").AsString());
    }
    EXPECT_NE(std::find(names.begin(), names.end(),
                        "request.start/create_session"),
              names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "request.start/plan"),
              names.end());
    EXPECT_NE(std::find(names.begin(), names.end(),
                        "failpoint.trigger/server.admission"),
              names.end());
    EXPECT_EQ(names.back(), "server.crash/");
  }

  // Only the connection thread "died"; the daemon keeps serving.
  ServiceClient again = Connect();
  EXPECT_TRUE(again.Ping());
  std::filesystem::remove(dump_path);
}

// --- Deterministic export + Prometheus ------------------------------------

TEST(DeterministicExportTest, SpanOrderDoesNotAffectExportedJson) {
  telemetry::SpanRecord a;
  a.name = "alpha";
  a.start_ns = 100;
  a.duration_ns = 50;
  telemetry::SpanRecord b;
  b.name = "beta";
  b.start_ns = 40;
  b.duration_ns = 10;
  telemetry::SpanRecord c;
  c.name = "beta";
  c.start_ns = 40;
  c.duration_ns = 90;

  const telemetry::MetricsSnapshot empty;
  const std::string first =
      telemetry::TelemetryToJson(empty, {a, b, c}).Dump(1);
  const std::string second =
      telemetry::TelemetryToJson(empty, {c, a, b}).Dump(1);
  EXPECT_EQ(first, second);

  std::vector<telemetry::SpanRecord> spans = {a, c, b};
  telemetry::SortSpans(spans);
  EXPECT_EQ(spans[0].name, "beta");
  EXPECT_EQ(spans[0].duration_ns, 10u);
  EXPECT_EQ(spans[1].duration_ns, 90u);
  EXPECT_EQ(spans[2].name, "alpha");
}

TEST(DeterministicExportTest, MetricKeysAreSorted) {
  telemetry::MetricsRegistry registry;
  registry.GetCounter("zz.last");
  registry.GetCounter("aa.first");
  registry.GetCounter("mm.middle");
  const telemetry::MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 3u);
  EXPECT_EQ(snapshot.counters[0].name, "aa.first");
  EXPECT_EQ(snapshot.counters[1].name, "mm.middle");
  EXPECT_EQ(snapshot.counters[2].name, "zz.last");
}

TEST(PrometheusTest, RendersCountersGaugesAndSummaries) {
  telemetry::MetricsRegistry registry;
  registry.GetCounter("test.requests").Add(3);
  registry.GetGauge("test.queue_depth").Set(2.5);
  telemetry::Histogram& histogram = registry.GetHistogram("test.solve_ns");
  histogram.Record(1000.0);
  histogram.Record(2000.0);

  const std::string text =
      telemetry::MetricsToPrometheus(registry.Snapshot());
  EXPECT_NE(text.find("# TYPE phocus_test_requests counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE phocus_test_queue_depth gauge"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE phocus_test_solve_ns summary"),
            std::string::npos);
  EXPECT_NE(text.find("phocus_test_solve_ns{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("phocus_test_solve_ns_count"), std::string::npos);
  if (telemetry::kCompiled) {
    EXPECT_NE(text.find("phocus_test_requests 3"), std::string::npos);
    EXPECT_NE(text.find("phocus_test_queue_depth 2.5"), std::string::npos);
    EXPECT_NE(text.find("phocus_test_solve_ns_count 2"), std::string::npos);
  }
}

}  // namespace
}  // namespace service
}  // namespace phocus
