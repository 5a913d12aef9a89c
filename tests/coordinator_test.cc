#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "coordinator/coordinator.h"
#include "coordinator/hash_ring.h"
#include "coordinator/shard_pool.h"
#include "datagen/openimages.h"
#include "phocus/system.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "telemetry/metrics.h"
#include "tests/scenario_support.h"
#include "util/strings.h"

/// \file coordinator_test.cc
/// Unit and loopback tests for the coordinator subsystem: hash-ring
/// placement properties (determinism, bounded churn, balance), the shard
/// health state machine on a fake clock, decorrelated retry jitter, and an
/// in-process coordinator fronting real ServiceServer shards (routing,
/// session-id scoping, fan-out merge, degraded health).

namespace phocus {
namespace coordinator {
namespace {

using scenario::FakeClock;
using service::ErrorCode;
using service::RetryPolicy;
using service::ServiceClient;
using service::ServiceError;
using service::ServerOptions;
using service::ServiceServer;

std::vector<std::string> TestKeys(std::size_t count) {
  std::vector<std::string> keys;
  keys.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    keys.push_back(StrFormat("corpus-%zu", i));
  }
  return keys;
}

// ---------------------------------------------------------------------------
// HashRing properties

TEST(HashRingTest, MappingIsIndependentOfInsertionOrder) {
  HashRing forward;
  HashRing backward;
  const std::vector<std::string> shards = {"a:1", "b:2", "c:3", "d:4"};
  for (const std::string& shard : shards) forward.AddShard(shard);
  for (auto it = shards.rbegin(); it != shards.rend(); ++it) {
    backward.AddShard(*it);
  }
  for (const std::string& key : TestKeys(2000)) {
    EXPECT_EQ(forward.ShardFor(key), backward.ShardFor(key)) << key;
  }
}

TEST(HashRingTest, MappingIsStableAcrossRebuilds) {
  // Removing and re-adding an unrelated shard must restore the exact
  // mapping: placement is a pure function of the current membership.
  HashRing ring;
  for (const char* shard : {"a:1", "b:2", "c:3"}) ring.AddShard(shard);
  const std::vector<std::string> keys = TestKeys(1000);
  std::vector<std::string> before;
  for (const std::string& key : keys) before.push_back(ring.ShardFor(key));
  ring.AddShard("d:4");
  EXPECT_TRUE(ring.RemoveShard("d:4"));
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(ring.ShardFor(keys[i]), before[i]);
  }
}

TEST(HashRingTest, RemovingAShardOnlyMovesItsOwnKeys) {
  const std::size_t num_shards = 5;
  HashRing ring;
  for (std::size_t i = 0; i < num_shards; ++i) {
    ring.AddShard(StrFormat("shard-%zu:70%zu", i, i));
  }
  const std::vector<std::string> keys = TestKeys(10000);
  std::vector<std::string> before;
  for (const std::string& key : keys) before.push_back(ring.ShardFor(key));

  const std::string removed = "shard-2:702";
  ASSERT_TRUE(ring.RemoveShard(removed));
  std::size_t moved = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::string& after = ring.ShardFor(keys[i]);
    if (after != before[i]) {
      ++moved;
      // Only keys the removed shard owned are allowed to move.
      EXPECT_EQ(before[i], removed) << keys[i];
    } else {
      EXPECT_NE(before[i], removed) << keys[i];
    }
  }
  // The removed shard owned ~1/N of the keyspace; everything it owned (and
  // nothing else) moved. Bound the churn at 2/N per the design contract.
  EXPECT_LE(moved, 2 * keys.size() / num_shards);
  EXPECT_GT(moved, 0u);
}

TEST(HashRingTest, AddingAShardOnlyStealsKeysForItself) {
  HashRing ring;
  for (std::size_t i = 0; i < 4; ++i) {
    ring.AddShard(StrFormat("shard-%zu:70%zu", i, i));
  }
  const std::vector<std::string> keys = TestKeys(10000);
  std::vector<std::string> before;
  for (const std::string& key : keys) before.push_back(ring.ShardFor(key));

  ring.AddShard("shard-new:7099");
  std::size_t moved = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::string& after = ring.ShardFor(keys[i]);
    if (after != before[i]) {
      ++moved;
      EXPECT_EQ(after, "shard-new:7099") << keys[i];
    }
  }
  EXPECT_LE(moved, 2 * keys.size() / 5);
  EXPECT_GT(moved, 0u);
}

TEST(HashRingTest, VirtualNodesKeepPlacementBalanced) {
  const std::size_t num_shards = 4;
  HashRing ring;  // default 64 virtual nodes per shard
  for (std::size_t i = 0; i < num_shards; ++i) {
    ring.AddShard(StrFormat("shard-%zu:70%zu", i, i));
  }
  std::map<std::string, std::size_t> counts;
  const std::vector<std::string> keys = TestKeys(20000);
  for (const std::string& key : keys) ++counts[ring.ShardFor(key)];
  ASSERT_EQ(counts.size(), num_shards);
  const double expected = static_cast<double>(keys.size()) / num_shards;
  for (const auto& [shard, count] : counts) {
    EXPECT_GT(count, expected * 0.5) << shard;
    EXPECT_LT(count, expected * 1.6) << shard;
  }
}

TEST(HashRingTest, RejectsEmptyRingAndDuplicateAdds) {
  HashRing ring;
  EXPECT_THROW(ring.ShardFor("key"), CheckFailure);
  ring.AddShard("a:1");
  ring.AddShard("a:1");  // idempotent
  EXPECT_EQ(ring.num_shards(), 1u);
  EXPECT_FALSE(ring.RemoveShard("missing:9"));
}

// ---------------------------------------------------------------------------
// Shard list parsing and session-id scoping

TEST(ShardPoolTest, ParseShardList) {
  const std::vector<ShardAddress> shards =
      ParseShardList("127.0.0.1:7411, 127.0.0.1:7412,localhost:80");
  ASSERT_EQ(shards.size(), 3u);
  EXPECT_EQ(shards[0].name, "127.0.0.1:7411");
  EXPECT_EQ(shards[0].host, "127.0.0.1");
  EXPECT_EQ(shards[0].port, 7411);
  EXPECT_EQ(shards[2].host, "localhost");
  EXPECT_THROW(ParseShardList("no-port"), CheckFailure);
  EXPECT_THROW(ParseShardList("host:notanumber"), CheckFailure);
  EXPECT_THROW(ParseShardList("host:99999"), CheckFailure);
}

TEST(CoordinatorTest, SplitScopedSession) {
  std::string shard;
  std::string local;
  ASSERT_TRUE(CoordinatorServer::SplitScopedSession("127.0.0.1:7411/s-3",
                                                    &shard, &local));
  EXPECT_EQ(shard, "127.0.0.1:7411");
  EXPECT_EQ(local, "s-3");
  EXPECT_FALSE(CoordinatorServer::SplitScopedSession("s-3", &shard, &local));
  EXPECT_FALSE(CoordinatorServer::SplitScopedSession("/s-3", &shard, &local));
  EXPECT_FALSE(
      CoordinatorServer::SplitScopedSession("shard:1/", &shard, &local));
}

// ---------------------------------------------------------------------------
// Metrics merge

TEST(CoordinatorTest, MergeMetricsJsonSumsAndTakesWorstCase) {
  const Json a = Json::Parse(R"({
    "counters": {"service.requests": 10, "only.a": 1},
    "gauges": {"service.sessions": 2},
    "histograms": {"service.respond_ns":
      {"count": 4, "sum": 400, "mean": 100, "p50": 90, "p90": 180,
       "p99": 200, "max": 210}}
  })");
  const Json b = Json::Parse(R"({
    "counters": {"service.requests": 5, "only.b": 7},
    "gauges": {"service.sessions": 3},
    "histograms": {"service.respond_ns":
      {"count": 6, "sum": 1200, "mean": 200, "p50": 150, "p90": 160,
       "p99": 400, "max": 500}}
  })");
  Json merged = a;
  MergeMetricsJson(&merged, b);
  EXPECT_EQ(merged.Get("counters").Get("service.requests").AsDouble(), 15.0);
  EXPECT_EQ(merged.Get("counters").Get("only.a").AsDouble(), 1.0);
  EXPECT_EQ(merged.Get("counters").Get("only.b").AsDouble(), 7.0);
  EXPECT_EQ(merged.Get("gauges").Get("service.sessions").AsDouble(), 5.0);
  const Json hist = merged.Get("histograms").Get("service.respond_ns");
  EXPECT_EQ(hist.Get("count").AsDouble(), 10.0);
  EXPECT_EQ(hist.Get("sum").AsDouble(), 1600.0);
  EXPECT_EQ(hist.Get("mean").AsDouble(), 160.0);
  // Percentiles merge as the per-shard max: a worst-case roll-up.
  EXPECT_EQ(hist.Get("p50").AsDouble(), 150.0);
  EXPECT_EQ(hist.Get("p90").AsDouble(), 180.0);
  EXPECT_EQ(hist.Get("p99").AsDouble(), 400.0);
  EXPECT_EQ(hist.Get("max").AsDouble(), 500.0);
}

// ---------------------------------------------------------------------------
// Decorrelated retry jitter (satellite: RetryPolicy)

std::vector<double> JitteredScheduleAgainstClosedPort(std::uint64_t seed) {
  FakeClock clock;
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.initial_backoff_ms = 5.0;
  policy.max_backoff_ms = 100.0;
  policy.decorrelated_jitter = true;
  policy.jitter_seed = seed;
  policy.sleep_fn = clock.Sleeper();
  // Dial a live server, shut it down, then retry against the dead port: the
  // reconnects inside CallIdempotent all fail, producing max_attempts - 1
  // jittered sleeps.
  ServerOptions options;
  options.num_workers = 1;
  ServiceServer server(options);
  server.Start();
  service::ServiceClient client("127.0.0.1", server.port());
  server.RequestShutdown();
  server.Wait();
  EXPECT_THROW(client.CallIdempotent("ping", Json::Object(), policy),
               CheckFailure);
  return clock.sleeps_ms();
}

TEST(RetryJitterTest, SeededJitterIsDeterministicAndDecorrelated) {
  const std::vector<double> first = JitteredScheduleAgainstClosedPort(42);
  const std::vector<double> replay = JitteredScheduleAgainstClosedPort(42);
  const std::vector<double> other = JitteredScheduleAgainstClosedPort(43);
  ASSERT_EQ(first.size(), 4u);
  EXPECT_EQ(first, replay);
  EXPECT_NE(first, other);
  // Decorrelated-jitter invariant: every wait lies in
  // [initial, min(cap, 3 * previous)], where "previous" starts at initial.
  double prev = 5.0;
  for (const double ms : first) {
    EXPECT_GE(ms, 5.0);
    EXPECT_LE(ms, std::min(100.0, 3.0 * prev));
    prev = ms;
  }
}

// ---------------------------------------------------------------------------
// Shard health state machine on a fake clock

TEST(ShardPoolTest, HealthMachineMarksProbesAndReinstates) {
  // Reserve a port, then leave it closed so dials are refused.
  int port = 0;
  {
    ServerOptions options;
    options.num_workers = 1;
    ServiceServer server(options);
    server.Start();
    port = server.port();
    server.RequestShutdown();
    server.Wait();
  }

  FakeClock clock;
  ShardPoolOptions options;
  options.unhealthy_after = 2;
  options.probe_backoff_ms = 100.0;
  options.probe_backoff_max_ms = 400.0;
  options.retry.max_attempts = 1;  // one dial per pool call
  options.now_ms = clock.NowFn();
  std::vector<ShardAddress> shards =
      ParseShardList(StrFormat("127.0.0.1:%d", port));
  ShardPool pool(shards, std::move(options));

  auto call = [&pool] {
    return pool.Call(0, "ping", Json::Object(), "rid-1", /*idempotent=*/true);
  };
  auto expect_unavailable = [&call](const char* context) {
    try {
      call();
      FAIL() << "expected shard_unavailable: " << context;
    } catch (const ServiceError& error) {
      EXPECT_EQ(error.code(), ErrorCode::kShardUnavailable) << context;
    }
  };

  // Failures 1 and 2: real dial attempts; the second trips the threshold.
  expect_unavailable("first failure");
  EXPECT_TRUE(pool.healthy(0));
  expect_unavailable("second failure");
  EXPECT_FALSE(pool.healthy(0));
  EXPECT_EQ(pool.status(0).backoff_ms, 100.0);

  // Before the probe deadline the pool fails fast (no dial).
  const std::uint64_t dials_before =
      pool.status(0).transport_failures;
  expect_unavailable("fast fail");
  EXPECT_EQ(pool.status(0).transport_failures, dials_before);

  // Past the deadline the next call probes; the failed probe doubles the
  // backoff, capped at probe_backoff_max_ms.
  clock.Advance(100.0);
  expect_unavailable("probe 1");
  EXPECT_EQ(pool.status(0).backoff_ms, 200.0);
  clock.Advance(200.0);
  expect_unavailable("probe 2");
  EXPECT_EQ(pool.status(0).backoff_ms, 400.0);
  clock.Advance(400.0);
  expect_unavailable("probe 3");
  EXPECT_EQ(pool.status(0).backoff_ms, 400.0);  // capped

  // The shard comes back on the same port; the next allowed probe succeeds
  // and reinstates it.
  ServerOptions revived_options;
  revived_options.num_workers = 1;
  revived_options.port = port;
  ServiceServer revived(revived_options);
  revived.Start();
  clock.Advance(400.0);
  const Json pong = call();
  EXPECT_TRUE(pong.Get("pong").AsBool());
  EXPECT_TRUE(pool.healthy(0));
  EXPECT_EQ(pool.status(0).consecutive_failures, 0);
  EXPECT_EQ(pool.status(0).reinstatements, 1u);
  revived.RequestShutdown();
  revived.Wait();
}

// ---------------------------------------------------------------------------
// In-process coordinator over real ServiceServer shards

Json CorpusSpec(std::uint64_t seed) {
  Json spec = Json::Object();
  spec.Set("kind", "openimages");
  spec.Set("num_photos", 60);
  spec.Set("seed", seed);
  return spec;
}

constexpr Cost kTestBudget = 1'500'000;

std::string ExpectedPlanDump(std::uint64_t seed) {
  OpenImagesOptions options;
  options.num_photos = 60;
  options.seed = seed;
  PhocusSystem system(GenerateOpenImagesCorpus(options));
  ArchiveOptions archive_options;
  archive_options.budget = kTestBudget;
  return service::PlanToJson(system.PlanArchive(archive_options)).Dump();
}

/// A counter's value, or a histogram's sample count, from the process
/// registry (0 when the name is not registered).
double MetricValue(const std::string& name) {
  const telemetry::MetricsSnapshot snapshot =
      telemetry::MetricsRegistry::Current().Snapshot();
  for (const auto& counter : snapshot.counters) {
    if (counter.name == name) return static_cast<double>(counter.value);
  }
  for (const auto& histogram : snapshot.histograms) {
    if (histogram.name == name) return static_cast<double>(histogram.count);
  }
  return 0.0;
}

class CoordinatorLoopbackTest : public ::testing::Test {
 protected:
  void StartCluster(std::size_t num_shards) {
    std::vector<ShardAddress> addresses;
    for (std::size_t i = 0; i < num_shards; ++i) {
      ServerOptions options;
      options.num_workers = 2;
      // Every handled request lands in the shard's slow-request log, so
      // the merged `metrics` verb always has shard records to carry.
      options.slow_request_ms = 1e-6;
      auto shard = std::make_unique<ServiceServer>(options);
      shard->Start();
      ShardAddress address;
      address.host = "127.0.0.1";
      address.port = shard->port();
      address.name = StrFormat("127.0.0.1:%d", shard->port());
      addresses.push_back(address);
      shards_.push_back(std::move(shard));
    }
    CoordinatorOptions options;
    options.shards = addresses;
    options.retry.max_attempts = 2;
    options.retry.sleep_fn = clock_.Sleeper();
    options.unhealthy_after = 1;
    options.now_ms = clock_.NowFn();
    coordinator_ = std::make_unique<CoordinatorServer>(std::move(options));
    coordinator_->Start();
  }

  ServiceClient Connect() {
    return ServiceClient("127.0.0.1", coordinator_->port());
  }

  void TearDown() override {
    if (coordinator_ != nullptr) {
      coordinator_->RequestShutdown();
      coordinator_->Wait();
    }
    for (auto& shard : shards_) {
      shard->RequestShutdown();
      shard->Wait();
    }
  }

  FakeClock clock_;
  std::vector<std::unique_ptr<ServiceServer>> shards_;
  std::unique_ptr<CoordinatorServer> coordinator_;
};

TEST_F(CoordinatorLoopbackTest, RoutesSessionsAndScopesIds) {
  StartCluster(2);
  ServiceClient client = Connect();

  const Json ping = client.Call("ping");
  EXPECT_EQ(ping.Get("role").AsString(), "coordinator");
  EXPECT_EQ(ping.Get("shards").AsInt(), 2);

  const std::string session = client.CreateSession(CorpusSpec(11));
  std::string shard_name;
  std::string local;
  ASSERT_TRUE(
      CoordinatorServer::SplitScopedSession(session, &shard_name, &local));
  EXPECT_NE(coordinator_->pool().IndexOf(shard_name), ShardPool::npos);
  EXPECT_TRUE(StartsWith(local, "s-"));

  // Session verbs route back to the owning shard, and responses come back
  // with the scoped id.
  const char* kSocketMetrics[] = {"coordinator.bytes_in",
                                  "coordinator.bytes_out",
                                  "coordinator.respond_ns"};
  std::vector<double> before;
  for (const char* name : kSocketMetrics) before.push_back(MetricValue(name));
  Json params = Json::Object();
  params.Set("session", session);
  const Json info = client.Call("session_info", std::move(params));
  EXPECT_EQ(info.Get("session").AsString(), session);

  // The coordinator's serving core accounts the proxied request's socket
  // traffic. The accounting follows the write, so a second round trip on
  // the same connection orders it before the read below.
  EXPECT_TRUE(client.Ping());
  if (telemetry::kCompiled) {
    for (std::size_t i = 0; i < before.size(); ++i) {
      EXPECT_GT(MetricValue(kSocketMetrics[i]), before[i])
          << kSocketMetrics[i];
    }
  }
}

TEST_F(CoordinatorLoopbackTest, PlanThroughCoordinatorIsByteIdentical) {
  StartCluster(2);
  ServiceClient client = Connect();
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    const std::string session = client.CreateSession(CorpusSpec(seed));
    Json params = Json::Object();
    params.Set("session", session);
    params.Set("budget", kTestBudget);
    const Json response = client.Call("plan", std::move(params));
    EXPECT_EQ(response.Get("plan").Dump(), ExpectedPlanDump(seed))
        << "seed " << seed;
  }
}

TEST_F(CoordinatorLoopbackTest, ExplicitRoutingKeyPinsTheShard) {
  StartCluster(3);
  // Find two routing keys that land on different shards.
  const std::string key_a = "tenant-a";
  std::string key_b;
  for (int i = 0; i < 64; ++i) {
    key_b = StrFormat("tenant-%d", i);
    if (coordinator_->ring().ShardFor(key_b) !=
        coordinator_->ring().ShardFor(key_a)) {
      break;
    }
  }
  ASSERT_NE(coordinator_->ring().ShardFor(key_a),
            coordinator_->ring().ShardFor(key_b));

  ServiceClient client = Connect();
  Json spec_a = CorpusSpec(21);
  spec_a.Set("routing_key", key_a);
  Json spec_b = CorpusSpec(21);
  spec_b.Set("routing_key", key_b);
  const std::string session_a = client.CreateSession(std::move(spec_a));
  const std::string session_b = client.CreateSession(std::move(spec_b));
  std::string shard_a, shard_b, local;
  ASSERT_TRUE(
      CoordinatorServer::SplitScopedSession(session_a, &shard_a, &local));
  ASSERT_TRUE(
      CoordinatorServer::SplitScopedSession(session_b, &shard_b, &local));
  EXPECT_EQ(shard_a, coordinator_->ring().ShardFor(key_a));
  EXPECT_EQ(shard_b, coordinator_->ring().ShardFor(key_b));
  EXPECT_NE(shard_a, shard_b);
}

TEST_F(CoordinatorLoopbackTest, RejectsUnscopedAndUnknownSessions) {
  StartCluster(2);
  ServiceClient client = Connect();
  Json params = Json::Object();
  params.Set("session", "s-1");  // shard-local id leaked to the coordinator
  try {
    client.Call("session_info", std::move(params));
    FAIL() << "expected unknown_session";
  } catch (const ServiceError& error) {
    EXPECT_EQ(error.code(), ErrorCode::kUnknownSession);
  }
  Json unknown_shard = Json::Object();
  unknown_shard.Set("session", "10.0.0.9:1/s-1");
  try {
    client.Call("session_info", std::move(unknown_shard));
    FAIL() << "expected unknown_session";
  } catch (const ServiceError& error) {
    EXPECT_EQ(error.code(), ErrorCode::kUnknownSession);
  }
}

TEST_F(CoordinatorLoopbackTest, FanOutMergesHealthStatsAndMetrics) {
  StartCluster(3);
  ServiceClient client = Connect();
  // One session on some shard, planned once.
  const std::string session = client.CreateSession(CorpusSpec(31));
  Json plan_params = Json::Object();
  plan_params.Set("session", session);
  plan_params.Set("budget", kTestBudget);
  client.Call("plan", std::move(plan_params));

  const Json health = client.Healthz();
  EXPECT_EQ(health.Get("status").AsString(), "ok");
  EXPECT_FALSE(health.Get("degraded").AsBool());
  EXPECT_EQ(health.Get("shards").items().size(), 3u);
  EXPECT_EQ(health.Get("coordinator").Get("shards_reachable").AsInt(), 3);

  const Json stats = client.Stats();
  EXPECT_EQ(stats.Get("sessions").AsInt(), 1);
  EXPECT_FALSE(stats.Get("degraded").AsBool());
  // Three shards' queue capacities sum.
  EXPECT_EQ(stats.Get("queue_capacity").AsInt(), 3 * 64);

  // The merge must answer ok even with shard slow logs to carry.
  Json metrics;
  ASSERT_NO_THROW(metrics = client.Metrics());
  EXPECT_FALSE(metrics.Get("degraded").AsBool());
  EXPECT_EQ(metrics.Get("server").Get("shards").AsInt(), 3);
  // Shard slow logs merge into one list, each record tagged with its shard.
  const Json& slow = metrics.Get("slow_requests");
  ASSERT_GE(slow.items().size(), 1u);
  for (const Json& record : slow.items()) {
    EXPECT_NE(coordinator_->pool().IndexOf(record.Get("shard").AsString()),
              ShardPool::npos);
  }
  if (telemetry::kCompiled) {
    // Shard-side counters surface in the merged snapshot alongside the
    // coordinator's own family.
    const Json counters = metrics.Get("metrics").Get("counters");
    EXPECT_GT(counters.GetOr("service.requests", 0.0).AsDouble(), 0.0);
    EXPECT_GT(counters.GetOr("coordinator.requests", 0.0).AsDouble(), 0.0);
  }
}

TEST_F(CoordinatorLoopbackTest, DrainingShardRollsUpAsWorstStatus) {
  StartCluster(2);
  ServiceClient client = Connect();
  // Warm the coordinator's shard connections first: a draining phocusd
  // answers one last request per warm connection but accepts no new ones.
  EXPECT_EQ(client.Healthz().Get("status").AsString(), "ok");
  shards_[0]->RequestShutdown();
  const Json health = client.Healthz();
  EXPECT_EQ(health.Get("status").AsString(), "draining");
  EXPECT_FALSE(health.Get("degraded").AsBool());
}

TEST_F(CoordinatorLoopbackTest, DeadShardDegradesFanOutWithSurvivors) {
  StartCluster(2);
  ServiceClient client = Connect();
  const std::string session = client.CreateSession(CorpusSpec(41));
  std::string dead_name;
  std::string local;
  ASSERT_TRUE(
      CoordinatorServer::SplitScopedSession(session, &dead_name, &local));

  // Stop the owning shard entirely.
  const std::size_t dead = coordinator_->pool().IndexOf(dead_name);
  ASSERT_NE(dead, ShardPool::npos);
  for (auto& shard : shards_) {
    // Match by bound port embedded in the shard name.
    if (StrFormat("127.0.0.1:%d", shard->port()) == dead_name) {
      shard->RequestShutdown();
      shard->Wait();
    }
  }

  // Fan-out degrades instead of failing: the survivor's data merges and
  // the dead shard is reported unavailable.
  const Json health = client.Healthz();
  EXPECT_TRUE(health.Get("degraded").AsBool());
  EXPECT_EQ(health.Get("coordinator").Get("shards_reachable").AsInt(), 1);
  bool saw_unavailable = false;
  for (const Json& entry : health.Get("shards").items()) {
    if (entry.Get("shard").AsString() == dead_name) {
      EXPECT_EQ(entry.Get("status").AsString(), "unavailable");
      saw_unavailable = true;
    }
  }
  EXPECT_TRUE(saw_unavailable);

  // Session verbs for the dead shard surface the typed error.
  Json params = Json::Object();
  params.Set("session", session);
  params.Set("budget", kTestBudget);
  try {
    client.Call("plan", std::move(params));
    FAIL() << "expected shard_unavailable";
  } catch (const ServiceError& error) {
    EXPECT_EQ(error.code(), ErrorCode::kShardUnavailable);
  }

  // The coordinator keeps serving sessions on the surviving shard: route
  // explicitly to the survivor via routing_key.
  Json live_spec = CorpusSpec(42);
  std::string survivor_key;
  for (int i = 0; i < 256; ++i) {
    survivor_key = StrFormat("key-%d", i);
    if (coordinator_->ring().ShardFor(survivor_key) != dead_name) break;
  }
  ASSERT_NE(coordinator_->ring().ShardFor(survivor_key), dead_name);
  live_spec.Set("routing_key", survivor_key);
  const std::string live_session = client.CreateSession(std::move(live_spec));
  EXPECT_FALSE(live_session.empty());
}

// ---------------------------------------------------------------------------
// Retry safety: the idempotent-verb whitelist is enforced at both resend
// sites, so a mutating verb can never reach a blind-resend path.

TEST(ShardPoolTest, RefusesIdempotentClaimForMutatingVerbs) {
  // The guard fires before any dial, so a never-started address suffices.
  std::vector<ShardAddress> shards = ParseShardList("127.0.0.1:1");
  ShardPool pool(shards, ShardPoolOptions{});
  for (const char* verb : {"ingest", "ingest_flush", "update", "set_budget",
                           "create_session"}) {
    try {
      pool.Call(0, verb, Json::Object(), "rid-1", /*idempotent=*/true);
      FAIL() << "idempotent claim for '" << verb << "' must fail loudly";
    } catch (const ServiceError&) {
      FAIL() << "'" << verb << "' reached the transport (typed error) instead "
             << "of tripping the whitelist guard";
    } catch (const CheckFailure& failure) {
      EXPECT_NE(std::string(failure.what()).find("not idempotent"),
                std::string::npos)
          << verb;
    }
  }
  // A whitelisted read with idempotent=true passes the guard (and then
  // fails on transport, as a typed error — proving the guard sits first).
  try {
    pool.Call(0, "ping", Json::Object(), "rid-2", /*idempotent=*/true);
    FAIL() << "expected shard_unavailable";
  } catch (const ServiceError& error) {
    EXPECT_EQ(error.code(), ErrorCode::kShardUnavailable);
  }
}

TEST(ClientRetrySafety, CallIdempotentRefusesMutatingVerbs) {
  // Regression: CallIdempotent resends after an ambiguous transport failure
  // (the response may have been lost *after* the server applied the
  // request). For `ingest` a resend would double-enqueue the batch and
  // corrupt the post-absorb id space, so the client refuses up front.
  ServerOptions options;
  options.num_workers = 1;
  ServiceServer server(options);
  server.Start();
  ServiceClient client("127.0.0.1", server.port());

  try {
    client.CallIdempotent("ingest", Json::Object());
    FAIL() << "CallIdempotent must refuse the non-idempotent 'ingest'";
  } catch (const ServiceError&) {
    FAIL() << "'ingest' reached the server instead of the whitelist guard";
  } catch (const CheckFailure& failure) {
    EXPECT_NE(std::string(failure.what()).find("non-idempotent"),
              std::string::npos);
  }
  // The connection is untouched by the refusal: a real call still works.
  EXPECT_TRUE(client.Ping());
  server.RequestShutdown();
  server.Wait();
}

// ---------------------------------------------------------------------------
// Coordinator-routed ingest: session-verb routing, byte-identical results,
// and typed error passthrough.

TEST_F(CoordinatorLoopbackTest, IngestThroughCoordinatorIsByteIdentical) {
  StartCluster(2);
  ServiceClient client = Connect();
  const std::string scoped = client.CreateSession(CorpusSpec(51));
  std::string shard_name;
  std::string local;
  ASSERT_TRUE(
      CoordinatorServer::SplitScopedSession(scoped, &shard_name, &local));

  // A twin session created directly on the owning shard, driven with the
  // byte-identical stream.
  const std::size_t shard_index = coordinator_->pool().IndexOf(shard_name);
  ASSERT_NE(shard_index, ShardPool::npos);
  ServiceClient direct("127.0.0.1", shards_[shard_index]->port());
  const std::string twin = direct.CreateSession(CorpusSpec(51));

  const auto drive = [](ServiceClient& c, const std::string& session) {
    for (int i = 0; i < 3; ++i) {
      Json params = Json::Object();
      params.Set("session", session);
      params.Set("count", 8);
      params.Set("seed", 70 + i);
      params.Set("budget", kTestBudget);
      params.Set("batch_photos", 12);
      params.Set("epsilon", 0.25);
      c.Call("ingest", std::move(params));
    }
    Json flush = Json::Object();
    flush.Set("session", session);
    return c.Call("ingest_flush", std::move(flush));
  };

  const Json routed = drive(client, scoped);
  const Json direct_result = drive(direct, twin);
  EXPECT_EQ(routed.Get("num_photos").AsInt(), 84);
  EXPECT_EQ(routed.Get("plan").Dump(1), direct_result.Get("plan").Dump(1))
      << "coordinator-routed ingest must be byte-identical to direct-shard";
}

TEST_F(CoordinatorLoopbackTest, IngestErrorsPassThroughTyped) {
  StartCluster(2);
  ServiceClient client = Connect();
  const std::string session = client.CreateSession(CorpusSpec(61));

  // Overflow the bounded queue through the coordinator: the shard's typed
  // ingest_overloaded must round-trip untranslated.
  const auto ingest = [&](int count, std::uint64_t seed) {
    Json params = Json::Object();
    params.Set("session", session);
    params.Set("count", count);
    params.Set("seed", seed);
    params.Set("budget", kTestBudget);
    params.Set("batch_photos", 16);
    params.Set("queue_photos", 16);
    return client.Call("ingest", std::move(params));
  };
  EXPECT_EQ(ingest(10, 1).Get("pending_photos").AsInt(), 10);
  try {
    ingest(10, 2);
    FAIL() << "expected typed ingest_overloaded through the coordinator";
  } catch (const ServiceError& error) {
    EXPECT_EQ(error.code(), ErrorCode::kIngestOverloaded);
  }

  // Dead owning shard: ingest surfaces shard_unavailable, never a blind
  // resend (ingest is routed with idempotent=false through the pool).
  std::string shard_name;
  std::string local;
  ASSERT_TRUE(
      CoordinatorServer::SplitScopedSession(session, &shard_name, &local));
  for (auto& shard : shards_) {
    if (StrFormat("127.0.0.1:%d", shard->port()) == shard_name) {
      shard->RequestShutdown();
      shard->Wait();
    }
  }
  try {
    ingest(5, 3);
    FAIL() << "expected shard_unavailable";
  } catch (const ServiceError& error) {
    EXPECT_EQ(error.code(), ErrorCode::kShardUnavailable);
  }
}

}  // namespace
}  // namespace coordinator
}  // namespace phocus
