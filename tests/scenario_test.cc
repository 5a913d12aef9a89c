#include "tests/scenario_support.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "datagen/openimages.h"
#include "phocus/incremental.h"
#include "phocus/system.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "storage/archiver.h"
#include "storage/vault.h"
#include "util/failpoint.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/strings.h"

/// \file scenario_test.cc
/// Deterministic failure-mode scenarios driven by failpoints: vault crash
/// recovery (a fault anywhere in the manifest protocol never yields a torn
/// or partial manifest), client retry under injected socket errors,
/// deadline expiry under injected queue delay, drain-during-fault, cache
/// fail-open, and IncrementalArchiver rollback. Every fault schedule is
/// seeded, so runs replay bit-for-bit. Also runs under
/// -DPHOCUS_SANITIZE=thread.

namespace phocus {
namespace {

using scenario::FakeClock;
using scenario::MakeSocketPair;
using scenario::RunWithCrashRecovery;
using scenario::SocketPair;

// ---------------------------------------------------------------------------
// Vault crash recovery.

class VaultScenarioTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/phocus_scenario_vault_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }

  void TearDown() override {
    failpoint::DeactivateAll();
    std::filesystem::remove_all(dir_);
  }

  std::string ManifestBytes() const {
    return ReadFile(dir_ + "/manifest.json");
  }

  std::string dir_;
};

TEST_F(VaultScenarioTest, ManifestFaultsNeverTearTheManifest) {
  {
    ArchiveVault vault(dir_);
    vault.Store("baseline", "the original payload",
                ArchiveVault::StoreDurability::kFlushEach);
  }
  const std::string manifest_before = ManifestBytes();

  // A fault at every stage of the write-temp / fsync / rename protocol, in
  // both flavors: `error` (the syscall fails, the process survives) and
  // `crash` (the process dies at that instruction).
  const std::vector<std::pair<std::string, std::string>> faults = {
      {"vault.tmp_write", "error"}, {"vault.tmp_write", "crash"},
      {"vault.fsync", "error"},     {"vault.fsync", "crash"},
      {"vault.rename", "error"},    {"vault.rename", "crash"},
  };
  for (const auto& [name, action] : faults) {
    SCOPED_TRACE(name + "=" + action);
    failpoint::Configure(name, action);
    const scenario::CrashRecoveryResult result =
        RunWithCrashRecovery(dir_, [](ArchiveVault& vault) {
          vault.Store("victim", "written during the fault window",
                      ArchiveVault::StoreDurability::kFlushEach);
        });
    ASSERT_TRUE(result.faulted) << "the armed failpoint never fired";

    // The reopened vault sees exactly the pre-write manifest: the baseline
    // entry intact and readable, the interrupted store invisible.
    EXPECT_EQ(ManifestBytes(), manifest_before);
    EXPECT_TRUE(result.reopened->Contains("baseline"));
    EXPECT_EQ(result.reopened->Fetch("baseline"), "the original payload");
    EXPECT_FALSE(result.reopened->Contains("victim"));
  }
}

TEST_F(VaultScenarioTest, FlushEachStoreRollsBackItsMappingOnFailure) {
  ArchiveVault vault(dir_);
  vault.Store("baseline", "payload one",
              ArchiveVault::StoreDurability::kFlushEach);

  failpoint::ScopedFailpoint armed("vault.rename", "error");
  EXPECT_THROW(vault.Store("victim", "payload two",
                           ArchiveVault::StoreDurability::kFlushEach),
               failpoint::InjectedFault);
  // The same (still-open) vault stays consistent with disk: the failed
  // store's key is gone from memory too, not just from the manifest.
  EXPECT_FALSE(vault.Contains("victim"));
  EXPECT_EQ(vault.Fetch("baseline"), "payload one");
}

TEST_F(VaultScenarioTest, ArchiveToVaultFailsCleanlyUnderRenameFault) {
  // The acceptance scenario: with vault.rename=error@1.0 armed, the whole
  // archive_to_vault batch fails cleanly and a reopen sees exactly the
  // pre-write manifest.
  OpenImagesOptions corpus_options;
  corpus_options.num_photos = 24;
  corpus_options.seed = 5;
  corpus_options.render_size = 16;
  const Corpus corpus = GenerateOpenImagesCorpus(corpus_options);
  PhocusSystem system(corpus);
  ArchiveOptions archive_options;
  archive_options.budget = corpus.TotalBytes() / 3;
  const ArchivePlan plan = system.PlanArchive(archive_options);
  ASSERT_FALSE(plan.archived.empty());

  {
    ArchiveVault vault(dir_);
    vault.Store("pre-existing", "stored before the incident",
                ArchiveVault::StoreDurability::kFlushEach);
  }
  const std::string manifest_before = ManifestBytes();

  failpoint::Configure("vault.rename", "error@1.0");
  const scenario::CrashRecoveryResult result =
      RunWithCrashRecovery(dir_, [&](ArchiveVault& vault) {
        ArchivePlanToVault(corpus, plan, vault, /*render_size=*/16);
      });
  ASSERT_TRUE(result.faulted);

  EXPECT_EQ(ManifestBytes(), manifest_before);
  EXPECT_EQ(result.reopened->Keys(), std::vector<std::string>{"pre-existing"});
  EXPECT_EQ(result.reopened->Fetch("pre-existing"),
            "stored before the incident");

  // With the fault cleared, the identical batch archives successfully.
  const ArchiveToVaultReport report =
      ArchivePlanToVault(corpus, plan, *result.reopened, /*render_size=*/16);
  EXPECT_EQ(report.photos_archived, plan.archived.size());
}

// ---------------------------------------------------------------------------
// Socket faults over an in-process pair.

TEST(SocketScenarioTest, ShortWriteDeliversATruncatedPrefixThenFails) {
  SocketPair pair = MakeSocketPair();
  const std::string frame =
      service::EncodeFrame(std::string_view("{\"id\":1}"));

  {
    failpoint::ScopedFailpoint armed("socket.write", "short_write");
    EXPECT_THROW(pair.first.SendAll(frame), failpoint::InjectedFault);
  }
  pair.first.ShutdownBoth();  // the failed writer hangs up

  std::string received;
  while (pair.second.RecvSome(&received)) {
  }
  EXPECT_EQ(received, frame.substr(0, (frame.size() + 1) / 2));

  // The truncated prefix must parse as an incomplete frame, never a bogus
  // complete one.
  service::FrameDecoder decoder;
  decoder.Append(received);
  std::string payload;
  EXPECT_EQ(decoder.Next(&payload), service::FrameDecoder::Status::kNeedMore);
}

TEST(SocketScenarioTest, OneByteReadsStillAssembleWholeFrames) {
  SocketPair pair = MakeSocketPair();
  const std::string payload = "{\"id\":7,\"endpoint\":\"ping\"}";
  pair.first.SendAll(service::EncodeFrame(std::string_view(payload)));

  failpoint::ScopedFailpoint armed("socket.read", "short_write");
  service::FrameDecoder decoder;
  std::string frame;
  std::size_t reads = 0;
  while (decoder.Next(&frame) != service::FrameDecoder::Status::kFrame) {
    std::string chunk;
    ASSERT_TRUE(pair.second.RecvSome(&chunk));
    ASSERT_EQ(chunk.size(), 1u) << "short-read clamp must deliver one byte";
    decoder.Append(chunk);
    ++reads;
  }
  EXPECT_EQ(frame, payload);
  EXPECT_EQ(reads, service::kFrameHeaderBytes + payload.size());
}

// ---------------------------------------------------------------------------
// Service scenarios: retry, deadline, admission, drain, cache fail-open.

Json SmallCorpusSpec(std::uint64_t seed) {
  Json spec = Json::Object();
  spec.Set("kind", "openimages");
  spec.Set("num_photos", 40);
  spec.Set("seed", seed);
  return spec;
}

class ServiceScenarioTest : public ::testing::Test {
 protected:
  void StartServer(service::ServerOptions options) {
    server_ = std::make_unique<service::ServiceServer>(std::move(options));
    server_->Start();
  }

  service::ServiceClient Connect() {
    return service::ServiceClient("127.0.0.1", server_->port());
  }

  void TearDown() override {
    // Disarm before the drain so injected socket faults cannot wedge it.
    failpoint::DeactivateAll();
    if (server_ != nullptr) {
      server_->RequestShutdown();
      server_->Wait();
    }
  }

  std::unique_ptr<service::ServiceServer> server_;
};

TEST_F(ServiceScenarioTest, IdempotentRetryRecoversFromInjectedSocketErrors) {
  service::ServerOptions options;
  options.num_workers = 2;
  StartServer(options);
  service::ServiceClient client = Connect();

  // ~30% of sends fail (client requests and server responses alike), on a
  // seeded schedule, so every run injects the identical fault sequence.
  failpoint::SetSeed(1234);
  failpoint::Configure("socket.write", "error@0.3");

  FakeClock clock;
  service::RetryPolicy policy;
  policy.max_attempts = 10;
  policy.sleep_fn = clock.Sleeper();

  const std::uint64_t triggers_before =
      failpoint::TriggerCount("socket.write");
  constexpr int kRequests = 12;
  for (int i = 0; i < kRequests; ++i) {
    const Json result = client.CallIdempotent("ping", Json::Object(), policy);
    EXPECT_TRUE(result.GetOr("pong", false).AsBool());
  }
  failpoint::DeactivateAll();

  // The run must actually have injected faults (and therefore retried);
  // otherwise this test proves nothing.
  EXPECT_GT(failpoint::TriggerCount("socket.write"), triggers_before);
  EXPECT_FALSE(clock.sleeps_ms().empty());
  // Backoff never exceeds its cap.
  for (double ms : clock.sleeps_ms()) EXPECT_LE(ms, policy.max_backoff_ms);
}

TEST_F(ServiceScenarioTest, InjectedQueueDelayExpiresTheDeadline) {
  service::ServerOptions options;
  options.num_workers = 1;
  StartServer(options);
  service::ServiceClient client = Connect();

  failpoint::ScopedFailpoint armed("server.queue_wait", "delay:100");
  Json params = Json::Object();
  params.Set("deadline_ms", 10);
  try {
    client.Call("stats", std::move(params));
    FAIL() << "expected deadline_exceeded";
  } catch (const service::ServiceError& error) {
    EXPECT_EQ(error.code(), service::ErrorCode::kDeadlineExceeded);
  }
}

TEST_F(ServiceScenarioTest, AdmissionFaultRetriesOnSchedule) {
  service::ServerOptions options;
  options.num_workers = 1;
  StartServer(options);
  service::ServiceClient client = Connect();

  failpoint::ScopedFailpoint armed("server.admission", "error");
  FakeClock clock;
  service::RetryPolicy policy;  // defaults: 4 attempts, 5ms, x2, 100ms cap
  policy.sleep_fn = clock.Sleeper();

  const std::uint64_t hits_before = failpoint::HitCount("server.admission");
  try {
    client.CallIdempotent("stats", Json::Object(), policy);
    FAIL() << "expected overloaded after exhausting retries";
  } catch (const service::ServiceError& error) {
    EXPECT_EQ(error.code(), service::ErrorCode::kOverloaded);
  }
  // Every attempt reached admission control, and the waits followed the
  // capped exponential schedule exactly.
  EXPECT_EQ(failpoint::HitCount("server.admission") - hits_before, 4u);
  EXPECT_EQ(clock.sleeps_ms(), (std::vector<double>{5.0, 10.0, 20.0}));
}

TEST_F(ServiceScenarioTest, DrainCompletesUnderInjectedDelayAndFaults) {
  service::ServerOptions options;
  options.num_workers = 2;
  StartServer(options);
  service::ServiceClient client = Connect();
  ASSERT_TRUE(client.Ping());

  failpoint::Configure("server.drain", "delay:30");
  client.Shutdown();

  // While draining, fresh connections are still answered, never reset:
  // control-plane verbs work and data-plane work is refused with the typed
  // shutting_down, which the retrying client reports at once (not
  // retryable) instead of hanging.
  FakeClock clock;
  service::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.sleep_fn = clock.Sleeper();
  service::ServiceClient late = Connect();
  EXPECT_NO_THROW(late.CallIdempotent("ping", Json::Object(), policy));
  try {
    late.CallIdempotent("stats", Json::Object(), policy);
    ADD_FAILURE() << "expected shutting_down";
  } catch (const service::ServiceError& error) {
    EXPECT_EQ(error.code(), service::ErrorCode::kShuttingDown);
  }

  server_->Wait();  // must return despite the injected drain delay
  EXPECT_GE(failpoint::TriggerCount("server.drain"), 1u);
  failpoint::DeactivateAll();
}

TEST_F(ServiceScenarioTest, PlanCacheFailsOpenUnderInjectedFaults) {
  service::ServerOptions options;
  options.num_workers = 2;
  StartServer(options);
  service::ServiceClient client = Connect();
  const std::string session = client.CreateSession(SmallCorpusSpec(21));
  Json params = Json::Object();
  params.Set("session", session);
  params.Set("budget", 900'000);

  const Json first = client.Call("plan", Json(params));
  EXPECT_FALSE(first.Get("cached").AsBool());

  {
    // A faulty lookup degrades to a miss: the plan is recomputed, the
    // request still succeeds.
    failpoint::ScopedFailpoint armed("plan_cache.lookup", "error");
    const Json under_fault = client.Call("plan", Json(params));
    EXPECT_FALSE(under_fault.Get("cached").AsBool());
    EXPECT_EQ(under_fault.Get("plan").Dump(), first.Get("plan").Dump());
  }

  // Fault cleared: the entry is still there and serves a hit.
  const Json after = client.Call("plan", Json(params));
  EXPECT_TRUE(after.Get("cached").AsBool());

  {
    // A faulty insert simply forgets: the next identical request is a miss,
    // never an error.
    failpoint::ScopedFailpoint armed("plan_cache.insert", "error");
    Json other = Json(params);
    other.Set("budget", 800'000);
    EXPECT_FALSE(client.Call("plan", Json(other)).Get("cached").AsBool());
    EXPECT_FALSE(client.Call("plan", Json(other)).Get("cached").AsBool());
  }
}

// ---------------------------------------------------------------------------
// IncrementalArchiver rollback.

Corpus SmallCorpus(std::uint64_t seed, std::size_t photos) {
  OpenImagesOptions options;
  options.num_photos = photos;
  options.seed = seed;
  options.render_size = 32;
  return GenerateOpenImagesCorpus(options);
}

TEST(IncrementalScenarioTest, FailedAddPhotosLeavesStateUntouched) {
  const Corpus full = SmallCorpus(9, 150);
  std::vector<CorpusPhoto> arrivals(full.photos.begin() + 100,
                                    full.photos.end());
  Corpus initial = full;
  initial.photos.resize(100);
  initial.subsets.clear();
  for (const SubsetSpec& spec : full.subsets) {
    bool in_range = true;
    for (PhotoId p : spec.members) in_range = in_range && p < 100;
    if (in_range) initial.subsets.push_back(spec);
  }
  initial.required.clear();
  for (PhotoId p : full.required) {
    if (p < 100) initial.required.push_back(p);
  }

  IncrementalOptions options;
  options.archive.budget = full.TotalBytes() / 5;
  IncrementalArchiver archiver(options);
  archiver.Initialize(initial);
  const std::string plan_before =
      service::PlanToJson(archiver.plan()).Dump();
  const std::size_t photos_before = archiver.corpus().num_photos();
  const std::size_t subsets_before = archiver.corpus().subsets.size();
  const std::vector<PhotoId> required_before = archiver.corpus().required;

  {
    failpoint::ScopedFailpoint armed("incremental.replan", "error");
    EXPECT_THROW(archiver.AddPhotos(arrivals, {}, {100}),
                 failpoint::InjectedFault);
  }

  // A mid-update fault must leave the session exactly as it was: same
  // corpus, same required set, same plan.
  EXPECT_EQ(archiver.corpus().num_photos(), photos_before);
  EXPECT_EQ(archiver.corpus().subsets.size(), subsets_before);
  EXPECT_EQ(archiver.corpus().required, required_before);
  EXPECT_EQ(service::PlanToJson(archiver.plan()).Dump(), plan_before);

  // And the recovered archiver produces the same update a never-faulted
  // one does, byte for byte.
  IncrementalArchiver control(options);
  control.Initialize(initial);
  const ArchivePlan& control_plan = control.AddPhotos(arrivals, {}, {100});
  const ArchivePlan& retried_plan = archiver.AddPhotos(arrivals, {}, {100});
  EXPECT_EQ(service::PlanToJson(retried_plan).Dump(),
            service::PlanToJson(control_plan).Dump());
}

TEST(IncrementalScenarioTest, FailedSetBudgetKeepsTheOldBudgetAndPlan) {
  const Corpus corpus = SmallCorpus(10, 120);
  IncrementalOptions options;
  options.archive.budget = corpus.TotalBytes() / 4;
  IncrementalArchiver archiver(options);
  archiver.Initialize(corpus);
  const std::string plan_before =
      service::PlanToJson(archiver.plan()).Dump();

  {
    failpoint::ScopedFailpoint armed("incremental.replan", "error");
    EXPECT_THROW(archiver.SetBudget(corpus.TotalBytes() / 8),
                 failpoint::InjectedFault);
  }
  EXPECT_EQ(service::PlanToJson(archiver.plan()).Dump(), plan_before);

  // The next successful update plans against the old budget, proving the
  // failed SetBudget did not half-apply.
  const ArchivePlan& replanned = archiver.SetBudget(corpus.TotalBytes() / 4);
  EXPECT_LE(replanned.retained_bytes, corpus.TotalBytes() / 4);
}

}  // namespace
}  // namespace phocus
