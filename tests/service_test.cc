#include <gtest/gtest.h>

#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/objective.h"
#include "datagen/openimages.h"
#include "phocus/system.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/session.h"
#include "telemetry/metrics.h"
#include "util/logging.h"
#include "util/strings.h"

/// \file service_test.cc
/// Loopback integration tests for phocusd: a ServiceServer on an ephemeral
/// port, real ServiceClient connections, and the serving guarantees of
/// docs/SERVICE.md — byte-identical plans vs. in-process solves, plan-cache
/// hits, admission control (`overloaded`), per-request deadlines, and
/// graceful drain. Also runs under -DPHOCUS_SANITIZE=thread.

namespace phocus {
namespace service {
namespace {

std::uint64_t MetricValue(const std::string& name) {
  return telemetry::MetricsRegistry::Current().GetCounter(name).value();
}

/// The corpus every test session asks the server to generate; regenerating
/// it locally with the same spec gives the in-process reference.
OpenImagesOptions TestCorpusOptions(std::uint64_t seed) {
  OpenImagesOptions options;
  options.num_photos = 60;
  options.seed = seed;
  return options;
}

Json CorpusSpec(std::uint64_t seed) {
  Json spec = Json::Object();
  spec.Set("kind", "openimages");
  spec.Set("num_photos", 60);
  spec.Set("seed", seed);
  return spec;
}

constexpr Cost kTestBudget = 1'500'000;

/// The reference result: solve the identically generated corpus in-process
/// and serialize with the same deterministic encoder the server uses.
std::string ExpectedPlanDump(std::uint64_t seed) {
  PhocusSystem system(GenerateOpenImagesCorpus(TestCorpusOptions(seed)));
  ArchiveOptions options;
  options.budget = kTestBudget;
  return PlanToJson(system.PlanArchive(options)).Dump();
}

class ServiceTest : public ::testing::Test {
 protected:
  void StartServer(ServerOptions options) {
    // The CI machine can report a single core; pick worker counts
    // explicitly so queueing behaviour is deterministic.
    server_ = std::make_unique<ServiceServer>(std::move(options));
    server_->Start();
  }

  ServiceClient Connect() {
    return ServiceClient("127.0.0.1", server_->port());
  }

  void TearDown() override {
    if (server_ != nullptr) {
      server_->RequestShutdown();
      server_->Wait();
    }
  }

  std::unique_ptr<ServiceServer> server_;
};

TEST_F(ServiceTest, PlanMatchesInProcessSolveByteForByte) {
  ServerOptions options;
  options.num_workers = 2;
  StartServer(options);

  ServiceClient client = Connect();
  const std::string session = client.CreateSession(CorpusSpec(11));
  Json params = Json::Object();
  params.Set("session", session);
  params.Set("budget", kTestBudget);
  const Json response = client.Call("plan", std::move(params));
  EXPECT_FALSE(response.Get("cached").AsBool());
  EXPECT_EQ(response.Get("plan").Dump(), ExpectedPlanDump(11));
}

TEST_F(ServiceTest, PlanCacheHitIsServedWithoutAResolve) {
  ServerOptions options;
  options.num_workers = 2;
  StartServer(options);

  ServiceClient client = Connect();
  const std::string session = client.CreateSession(CorpusSpec(13));
  Json params = Json::Object();
  params.Set("session", session);
  params.Set("budget", kTestBudget);
  const Json first = client.Call("plan", Json(params));

  const std::uint64_t hits_before = MetricValue("service.plan_cache.hits");
  const std::size_t cache_hits_before = server_->plan_cache().hits();
  const Json second = client.Call("plan", Json(params));

  EXPECT_FALSE(first.Get("cached").AsBool());
  EXPECT_TRUE(second.Get("cached").AsBool());
  // The cache's own hit counter and its telemetry mirror move together.
  EXPECT_EQ(server_->plan_cache().hits(), cache_hits_before + 1);
  EXPECT_EQ(MetricValue("service.plan_cache.hits"), hits_before + 1);
  EXPECT_EQ(first.Get("plan").Dump(), second.Get("plan").Dump());

  // A second session over the *same* corpus shares the fingerprint, so its
  // first plan is already a hit — the cache key is content, not session id.
  const std::string twin = client.CreateSession(CorpusSpec(13));
  Json twin_params = Json::Object();
  twin_params.Set("session", twin);
  twin_params.Set("budget", kTestBudget);
  EXPECT_TRUE(client.Call("plan", std::move(twin_params))
                  .Get("cached").AsBool());

  // Mutating the corpus changes the fingerprint: no stale plan is served.
  Json update = Json::Object();
  update.Set("session", session);
  update.Set("count", 5);
  update.Set("seed", 99);
  client.Call("update", std::move(update));
  const Json after = client.Call("plan", Json(params));
  EXPECT_FALSE(after.Get("cached").AsBool());
  EXPECT_NE(after.Get("plan").Dump(), first.Get("plan").Dump());
}

/// The coverage rows a fresh plan assembly gives for the wire plan
/// `plan`'s retained set on `corpus` at `budget`, serialized like the wire.
std::string FreshCoverageDump(const Corpus& corpus, Cost budget,
                              const Json& plan) {
  ArchiveOptions options;
  options.budget = budget;
  const ParInstance instance =
      BuildInstance(corpus, budget, options.representation);
  SolverResult result;
  for (const Json& id : plan.Get("retained").items()) {
    result.selected.push_back(static_cast<PhotoId>(id.AsInt()));
    result.cost += instance.cost(result.selected.back());
  }
  result.score = ObjectiveEvaluator::Evaluate(instance, result.selected);
  return PlanToJson(AssemblePlan(instance, std::move(result), options))
      .Get("coverage")
      .Dump();
}

TEST_F(ServiceTest, CoverageAfterReplansMatchesAFreshComputation) {
  // docs/SERVICE.md: a plan carries one coverage row per subset, and the
  // `coverage` endpoint serves them, also when the plan came from an
  // incremental replan (the second set_budget and the update below).
  StartServer(ServerOptions{});
  ServiceClient client = Connect();
  const std::string session = client.CreateSession(CorpusSpec(17));
  Corpus corpus = GenerateOpenImagesCorpus(TestCorpusOptions(17));
  const auto served_rows = [&] {
    Json params = Json::Object();
    params.Set("session", session);
    return client.Call("coverage", std::move(params)).Get("rows").Dump();
  };
  const auto expect_fresh_rows = [&](const Json& reply, Cost budget) {
    const std::string fresh =
        FreshCoverageDump(corpus, budget, reply.Get("plan"));
    EXPECT_NE(fresh, "[]");
    EXPECT_EQ(reply.Get("plan").Get("coverage").Dump(), fresh);
    EXPECT_EQ(served_rows(), fresh);
  };
  // The first set_budget solves from scratch, the second replans.
  for (const Cost budget : {kTestBudget, Cost{1'200'000}}) {
    Json params = Json::Object();
    params.Set("session", session);
    params.Set("budget", budget);
    expect_fresh_rows(client.Call("set_budget", std::move(params)), budget);
  }
  Json update = Json::Object();
  update.Set("session", session);
  update.Set("count", 5);
  update.Set("seed", 99);
  const Json reply = client.Call("update", std::move(update));
  // The server's arrivals: a 5-photo corpus appended at id 60, its subset
  // names suffixed with the offset.
  OpenImagesOptions arrivals_options;
  arrivals_options.num_photos = 5;
  arrivals_options.seed = 99;
  Corpus arrivals = GenerateOpenImagesCorpus(arrivals_options);
  const auto offset = static_cast<PhotoId>(corpus.photos.size());
  for (CorpusPhoto& photo : arrivals.photos) {
    corpus.photos.push_back(std::move(photo));
  }
  for (SubsetSpec& spec : arrivals.subsets) {
    spec.name += "@" + std::to_string(offset);
    for (PhotoId& member : spec.members) member += offset;
    corpus.subsets.push_back(std::move(spec));
  }
  expect_fresh_rows(reply, 1'200'000);
}

TEST_F(ServiceTest, EightConcurrentClientsEndToEnd) {
  ServerOptions options;
  options.num_workers = 4;
  options.queue_capacity = 32;
  StartServer(options);

  // Two corpus seeds: threads sharing a seed must get byte-identical plans
  // (and the later ones plan-cache hits); distinct seeds exercise distinct
  // concurrent solves.
  const std::string expected_a = ExpectedPlanDump(11);
  const std::string expected_b = ExpectedPlanDump(12);
  const std::size_t cache_hits_before = server_->plan_cache().hits();

  const int kClients = 8;
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  std::vector<std::string> errors(kClients);
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      try {
        const std::uint64_t seed = (t % 2 == 0) ? 11 : 12;
        const std::string& expected = (t % 2 == 0) ? expected_a : expected_b;
        ServiceClient client("127.0.0.1", server_->port());

        // create_session -> plan: byte-identical to the in-process solve.
        const std::string session = client.CreateSession(CorpusSpec(seed));
        Json plan_params = Json::Object();
        plan_params.Set("session", session);
        plan_params.Set("budget", kTestBudget);
        const Json planned = client.Call("plan", std::move(plan_params));
        PHOCUS_CHECK(planned.Get("plan").Dump() == expected,
                     "server plan diverged from in-process solve");

        // update: per-thread arrivals fold in incrementally and stay
        // within budget.
        Json update_params = Json::Object();
        update_params.Set("session", session);
        update_params.Set("count", 6);
        update_params.Set("seed", 1000 + t);
        const Json updated = client.Call("update", std::move(update_params));
        const Json& update_plan = updated.Get("plan");
        PHOCUS_CHECK(update_plan.Get("retained_bytes").AsInt() <=
                         static_cast<long long>(kTestBudget),
                     "update plan exceeds budget");
        PHOCUS_CHECK(
            updated.Get("stats").Get("photos_added").AsInt() == 6,
            "update did not add the requested photos");

        // archive_to_vault: the cold set lands in a per-thread vault.
        const std::string dir = ::testing::TempDir() +
                                StrFormat("/phocus_service_vault_%d", t);
        std::filesystem::remove_all(dir);
        Json archive_params = Json::Object();
        archive_params.Set("session", session);
        archive_params.Set("directory", dir);
        archive_params.Set("render_size", 32);
        const Json archived = client.Call("archive_to_vault",
                                          std::move(archive_params));
        PHOCUS_CHECK(static_cast<std::size_t>(
                         archived.Get("photos_archived").AsInt()) ==
                         update_plan.Get("archived").size(),
                     "vault archived a different photo set than the plan");
        PHOCUS_CHECK(std::filesystem::exists(dir + "/manifest.json"),
                     "vault manifest missing");
      } catch (const std::exception& error) {
        errors[static_cast<std::size_t>(t)] = error.what();
        failures.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : clients) thread.join();
  for (int t = 0; t < kClients; ++t) {
    EXPECT_EQ(errors[static_cast<std::size_t>(t)], "") << "client " << t;
  }
  EXPECT_EQ(failures.load(), 0);

  // A follow-up plan on a fresh same-content session is a guaranteed cache
  // hit (concurrent first-plans may race their inserts, so assert here).
  ServiceClient client = Connect();
  const std::string session = client.CreateSession(CorpusSpec(11));
  Json params = Json::Object();
  params.Set("session", session);
  params.Set("budget", kTestBudget);
  EXPECT_TRUE(client.Call("plan", std::move(params)).Get("cached").AsBool());
  EXPECT_GE(server_->plan_cache().hits(), cache_hits_before + 1);

  // All admitted work finished: the queue is empty again.
  EXPECT_EQ(server_->queue_depth(), 0u);
}

TEST_F(ServiceTest, OverloadRejectsWithTypedError) {
  ServerOptions options;
  options.num_workers = 1;
  options.queue_capacity = 2;
  options.enable_debug_endpoints = true;
  StartServer(options);

  const std::uint64_t rejected_before =
      MetricValue("service.rejected.overloaded");
  const int kClients = 6;
  std::atomic<int> ok{0};
  std::atomic<int> overloaded{0};
  std::atomic<int> other{0};
  std::vector<std::unique_ptr<ServiceClient>> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.push_back(std::make_unique<ServiceClient>("127.0.0.1",
                                                      server_->port()));
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      Json params = Json::Object();
      params.Set("millis", 400);
      try {
        clients[static_cast<std::size_t>(t)]->Call("debug_sleep",
                                                   std::move(params));
        ok.fetch_add(1);
      } catch (const ServiceError& error) {
        (error.code() == ErrorCode::kOverloaded ? overloaded : other)
            .fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  // Capacity 2, six half-second requests in flight at once: some complete,
  // the surplus is rejected with the typed `overloaded` error.
  EXPECT_GE(ok.load(), 2);
  EXPECT_GE(overloaded.load(), 1);
  EXPECT_EQ(other.load(), 0);
  EXPECT_GE(MetricValue("service.rejected.overloaded"), rejected_before + 1);

  // The overload is transient: once drained, the same endpoint serves.
  ServiceClient retry = Connect();
  Json params = Json::Object();
  params.Set("millis", 1);
  EXPECT_EQ(retry.Call("debug_sleep", std::move(params))
                .Get("slept_ms").AsDouble(), 1.0);
}

TEST_F(ServiceTest, QueuedRequestPastItsDeadlineIsNotSolved) {
  ServerOptions options;
  options.num_workers = 1;
  options.enable_debug_endpoints = true;
  StartServer(options);

  // Occupy the single worker...
  std::thread blocker([&] {
    ServiceClient client("127.0.0.1", server_->port());
    Json params = Json::Object();
    params.Set("millis", 400);
    client.Call("debug_sleep", std::move(params));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // ...so this request waits ~300ms in the queue, past its 50ms deadline.
  ServiceClient client = Connect();
  Json params = Json::Object();
  params.Set("millis", 1);
  params.Set("deadline_ms", 50);
  try {
    client.Call("debug_sleep", std::move(params));
    FAIL() << "expected deadline_exceeded";
  } catch (const ServiceError& error) {
    EXPECT_EQ(error.code(), ErrorCode::kDeadlineExceeded);
  }
  blocker.join();
}

TEST_F(ServiceTest, MalformedDeadlineGivesBackItsAdmissionAndSlot) {
  ServerOptions options;
  options.num_workers = 1;
  options.queue_capacity = 1;
  options.enable_debug_endpoints = true;
  StartServer(options);

  // A rejected deadline must free both the admission and the only
  // execution slot: the next request is admitted and handled.
  ServiceClient client = Connect();
  Json params = Json::Object();
  params.Set("millis", 1);
  params.Set("deadline_ms", "soon");
  try {
    client.Call("debug_sleep", std::move(params));
    FAIL() << "expected bad_request";
  } catch (const ServiceError& error) {
    EXPECT_EQ(error.code(), ErrorCode::kBadRequest);
  }
  EXPECT_EQ(server_->queue_depth(), 0u);
  Json retry = Json::Object();
  retry.Set("millis", 1);
  EXPECT_GE(client.Call("debug_sleep", std::move(retry))
                .Get("slept_ms").AsDouble(), 1.0);
}

TEST_F(ServiceTest, GracefulShutdownDrainsInFlightRequests) {
  ServerOptions options;
  options.num_workers = 2;
  options.enable_debug_endpoints = true;
  StartServer(options);

  // An in-flight request that outlives the shutdown call...
  std::atomic<bool> drained{false};
  std::thread in_flight([&] {
    try {
      ServiceClient client("127.0.0.1", server_->port());
      Json params = Json::Object();
      params.Set("millis", 500);
      const Json result = client.Call("debug_sleep", std::move(params));
      drained.store(result.Get("slept_ms").AsDouble() == 500.0);
    } catch (const std::exception&) {
      // drained stays false; the assertion below reports it.
    }
  });
  // Joined on every path, so a failed assertion or a transport error below
  // cannot destroy a joinable thread.
  struct Joiner {
    std::thread& thread;
    ~Joiner() {
      if (thread.joinable()) thread.join();
    }
  } joiner{in_flight};
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // ...a connection that existed before the drain began (it may still sit
  // in the accept backlog when the shutdown lands)...
  ServiceClient bystander = Connect();

  ServiceClient controller = Connect();
  controller.Shutdown();

  // ...and one that connects after it began are both rejected with the
  // typed shutting_down error (not dropped).
  ServiceClient latecomer = Connect();
  for (ServiceClient* client : {&bystander, &latecomer}) {
    try {
      client->Call("stats");
      ADD_FAILURE() << "expected shutting_down";
    } catch (const ServiceError& error) {
      EXPECT_EQ(error.code(), ErrorCode::kShuttingDown);
    }
  }

  // The in-flight request still completes: that is the drain guarantee.
  in_flight.join();
  EXPECT_TRUE(drained.load());

  server_->Wait();  // returns: everything is joined
  server_.reset();  // TearDown would otherwise re-drain a dead server

  EXPECT_GE(MetricValue("service.rejected.shutting_down"), 1u);
}

TEST_F(ServiceTest, InfeasibleBudgetSurfacesAsTypedError) {
  ServerOptions options;
  options.num_workers = 2;
  StartServer(options);

  ServiceClient client = Connect();
  Json spec = Json::Object();
  spec.Set("kind", "openimages");
  spec.Set("num_photos", 40);
  spec.Set("seed", 3);
  spec.Set("required_fraction", 0.3);
  const std::string session = client.CreateSession(std::move(spec));

  // Seed incremental state with a feasible budget first.
  Json update = Json::Object();
  update.Set("session", session);
  update.Set("count", 4);
  update.Set("budget", 2'000'000);
  const Json feasible = client.Call("update", std::move(update));
  const std::string before = feasible.Get("plan").Dump();

  // Below the cost of the required set S0: typed `infeasible`, not a crash.
  Json shrink = Json::Object();
  shrink.Set("session", session);
  shrink.Set("budget", 1000);
  try {
    client.Call("set_budget", std::move(shrink));
    FAIL() << "expected infeasible";
  } catch (const ServiceError& error) {
    EXPECT_EQ(error.code(), ErrorCode::kInfeasible);
  }

  // A τ outside [0, 1] is a bad request, whatever the subset sizes.
  for (const double tau : {-0.1, 1.5}) {
    Json bad_tau = Json::Object();
    bad_tau.Set("session", session);
    bad_tau.Set("budget", 2'000'000);
    bad_tau.Set("tau", tau);
    try {
      client.Call("plan", std::move(bad_tau));
      FAIL() << "expected bad_request for tau=" << tau;
    } catch (const ServiceError& error) {
      EXPECT_EQ(error.code(), ErrorCode::kBadRequest);
    }
  }

  // The rejections did not corrupt the session: the previous plan stands and
  // a feasible re-budget still works.
  Json rebudget = Json::Object();
  rebudget.Set("session", session);
  rebudget.Set("budget", 1'800'000);
  const Json after = client.Call("set_budget", std::move(rebudget));
  EXPECT_LE(after.Get("plan").Get("retained_bytes").AsInt(), 1'800'000);
  (void)before;
}

TEST_F(ServiceTest, NonPositiveCountIsABadRequest) {
  ServerOptions options;
  options.num_workers = 2;
  StartServer(options);

  ServiceClient client = Connect();
  const std::string session = client.CreateSession(CorpusSpec(4));
  // -1 must not wrap to a huge unsigned count (that surfaced as `internal`
  // once the batch allocation threw); 0 generates nothing.
  for (const char* verb : {"ingest", "update"}) {
    for (const std::int64_t count : {-1, 0}) {
      Json params = Json::Object();
      params.Set("session", session);
      params.Set("count", count);
      params.Set("budget", kTestBudget);
      try {
        client.Call(verb, std::move(params));
        FAIL() << "expected bad_request for " << verb << " count=" << count;
      } catch (const ServiceError& error) {
        EXPECT_EQ(error.code(), ErrorCode::kBadRequest)
            << verb << " count=" << count;
      }
    }
  }
  // The session is untouched: a valid ingest still lands on the base corpus.
  Json ingest = Json::Object();
  ingest.Set("session", session);
  ingest.Set("count", 2);
  ingest.Set("budget", kTestBudget);
  EXPECT_EQ(client.Call("ingest", std::move(ingest)).Get("pending_photos")
                .AsInt(),
            2);
}

TEST_F(ServiceTest, SessionLifecycleAndTypedUnknownSession) {
  ServerOptions options;
  options.num_workers = 2;
  StartServer(options);

  ServiceClient client = Connect();
  Json params = Json::Object();
  params.Set("session", "s-424242");
  params.Set("budget", kTestBudget);
  try {
    client.Call("plan", Json(params));
    FAIL() << "expected unknown_session";
  } catch (const ServiceError& error) {
    EXPECT_EQ(error.code(), ErrorCode::kUnknownSession);
  }

  const std::string session = client.CreateSession(CorpusSpec(5));
  Json info_params = Json::Object();
  info_params.Set("session", session);
  const Json info = client.Call("session_info", Json(info_params));
  EXPECT_EQ(info.Get("num_photos").AsInt(), 60);
  EXPECT_GT(info.Get("total_bytes").AsInt(), 0);

  const Json stats = client.Stats();
  EXPECT_GE(stats.Get("sessions").AsInt(), 1);
  EXPECT_EQ(stats.Get("plan_cache").Get("capacity").AsInt(), 32);

  EXPECT_TRUE(client.Call("close_session", Json(info_params))
                  .Get("closed").AsBool());
  try {
    client.Call("session_info", Json(info_params));
    FAIL() << "expected unknown_session after close";
  } catch (const ServiceError& error) {
    EXPECT_EQ(error.code(), ErrorCode::kUnknownSession);
  }
}

TEST_F(ServiceTest, DebugEndpointsAreOffByDefault) {
  ServerOptions options;
  options.num_workers = 1;
  StartServer(options);  // enable_debug_endpoints defaults to false

  ServiceClient client = Connect();
  Json params = Json::Object();
  params.Set("millis", 1);
  try {
    client.Call("debug_sleep", std::move(params));
    FAIL() << "expected unknown_endpoint";
  } catch (const ServiceError& error) {
    EXPECT_EQ(error.code(), ErrorCode::kUnknownEndpoint);
  }
}

/// Live heap as phocus_bench's `heap_mb` reads it.
std::int64_t LiveHeapBytes() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<std::int64_t>(info.uordblks + info.hblkhd);
}

TEST(SessionHeapTest, PlanKeepsNoSecondCopyOfTheCorpus) {
  OpenImagesOptions generate;
  generate.num_photos = 600;
  generate.seed = 31;
  const Corpus corpus = GenerateOpenImagesCorpus(generate);
  ArchiveOptions options;
  options.budget = corpus.TotalBytes() / 4;

  // Warm-up: registries, histograms, the thread pool and the trace
  // collector reach their steady size on a first session's plan.
  Session warm("s-warm", corpus);
  warm.Plan(options, nullptr);

  std::int64_t before = LiveHeapBytes();
  const ArchivePlan own = PlanCorpus(corpus, options);
  const std::int64_t plan_bytes = LiveHeapBytes() - before;

  before = LiveHeapBytes();
  Corpus copy = corpus;
  const std::int64_t copy_bytes = LiveHeapBytes() - before;
  if (copy_bytes <= 0) {
    GTEST_SKIP() << "this allocator does not report live heap via mallinfo2";
  }
  ASSERT_GE(copy_bytes, 4 * plan_bytes)
      << "the corpus must dwarf the plan for the bound to mean anything";

  Session second("s-second", std::move(copy));  // moves, allocates no copy
  before = LiveHeapBytes();
  const Session::PlanOutcome outcome = second.Plan(options, nullptr);
  const std::int64_t growth = LiveHeapBytes() - before;
  EXPECT_EQ(PlanToJson(*outcome.plan).Dump(), PlanToJson(own).Dump());
  EXPECT_LT(growth, copy_bytes / 2)
      << "a planned session holds more than its corpus and plan (copy "
      << copy_bytes << " B, plan " << plan_bytes << " B)";
}

}  // namespace
}  // namespace service
}  // namespace phocus
