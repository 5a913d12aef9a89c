#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/celf.h"
#include "core/online_bound.h"
#include "datagen/corpus_io.h"
#include "datagen/openimages.h"
#include "phocus/ingest_wal.h"
#include "phocus/representation.h"
#include "phocus/streaming.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/session.h"
#include "storage/archiver.h"
#include "storage/vault.h"
#include "telemetry/metrics.h"
#include "tests/scenario_support.h"
#include "util/failpoint.h"
#include "util/logging.h"

/// \file streaming_test.cc
/// The `streaming` scenario tier: deterministic coverage for the bounded
/// ingest queue and drift-triggered replanning (docs/TESTING.md). Every
/// scenario runs on scenario_support's FakeClock — zero real sleeps — and
/// all plan comparisons are byte-level on the deterministic PlanToJson
/// serialization, so the suite also runs under the kernels × thread-count
/// determinism sweep (streaming_determinism) and the TSan tree.

namespace phocus {
namespace {

Corpus BaseCorpus(std::size_t photos = 60, std::uint64_t seed = 11) {
  OpenImagesOptions options;
  options.num_photos = photos;
  options.seed = seed;
  return GenerateOpenImagesCorpus(options);
}

StreamingOptions BaseStreaming(const Corpus& corpus) {
  StreamingOptions options;
  options.incremental.archive.budget = corpus.TotalBytes() / 3;
  return options;
}

/// Arrivals numbered for the post-absorb id space starting at `offset`,
/// mirroring how phocusd's session generates them.
IngestBatch ArrivalBatch(std::size_t count, std::uint64_t seed,
                         PhotoId offset) {
  OpenImagesOptions options;
  options.num_photos = count;
  options.seed = seed;
  Corpus arrivals = GenerateOpenImagesCorpus(options);
  IngestBatch batch;
  batch.photos = std::move(arrivals.photos);
  for (SubsetSpec& spec : arrivals.subsets) {
    spec.name += '@';
    spec.name += std::to_string(offset);
    for (PhotoId& member : spec.members) member += offset;
    batch.subsets.push_back(std::move(spec));
  }
  return batch;
}

std::uint64_t CounterValue(const std::string& name) {
  return telemetry::MetricsRegistry::Current().GetCounter(name).value();
}

// ---------------------------------------------------------------------------
// Satellite: the drift estimate is a sound upper bound on true objective
// drift, across randomized perturbation kinds and both CELF schedules.
// ---------------------------------------------------------------------------

CelfOptions SequentialCelf() {
  CelfOptions options;
  options.parallel_first_round = false;
  options.batch_stale_requeues = false;
  options.concurrent_passes = false;
  return options;
}

TEST(DriftBound, SoundUpperBoundAcrossPerturbations) {
  for (std::uint64_t trial = 0; trial < 6; ++trial) {
    const std::uint64_t seed = 100 + trial * 7;
    Corpus corpus = BaseCorpus(50, seed);
    const Cost budget = corpus.TotalBytes() / 3;

    // The stale selection: a full solve of the unperturbed instance.
    std::vector<PhotoId> stale;
    {
      const ParInstance before = BuildInstance(corpus, budget);
      stale = LazyGreedy(before, GreedyRule::kCostBenefit).selected;
    }

    // Perturb the instance the way a live stream does.
    switch (trial % 3) {
      case 0: {  // append: new photos + subsets referencing them
        OpenImagesOptions extra;
        extra.num_photos = 15;
        extra.seed = seed + 1;
        Corpus arrivals = GenerateOpenImagesCorpus(extra);
        const PhotoId offset = static_cast<PhotoId>(corpus.num_photos());
        for (CorpusPhoto& photo : arrivals.photos) {
          corpus.photos.push_back(std::move(photo));
        }
        for (SubsetSpec& spec : arrivals.subsets) {
          for (PhotoId& member : spec.members) member += offset;
          corpus.subsets.push_back(std::move(spec));
        }
        break;
      }
      case 1: {  // cost growth: re-encoded originals got bigger
        for (std::size_t i = 0; i < corpus.photos.size(); i += 3) {
          corpus.photos[i].bytes += corpus.photos[i].bytes / 2;
        }
        break;
      }
      default: {  // similarity edits: embeddings drift (renormalized)
        for (std::size_t i = 0; i < corpus.photos.size(); i += 4) {
          auto& e = corpus.photos[i].embedding;
          double norm = 0.0;
          for (std::size_t d = 0; d < e.size(); ++d) {
            e[d] += (d % 2 == 0 ? 0.05f : -0.05f);
            norm += static_cast<double>(e[d]) * static_cast<double>(e[d]);
          }
          const float inv = norm > 0.0 ? static_cast<float>(1.0 / std::sqrt(norm))
                                       : 0.0f;
          for (float& v : e) v *= inv;
        }
        break;
      }
    }

    const ParInstance after = BuildInstance(corpus, budget);
    const DriftEstimate estimate = EstimateObjectiveDrift(after, stale);
    EXPECT_GE(estimate.drift, -1e-12);
    EXPECT_NEAR(estimate.upper_bound, estimate.stale_score + estimate.drift,
                1e-9);

    // True drift = what a fresh replan actually achieves, minus the stale
    // selection's score under the new instance. Sequential and parallel
    // CELF select identically by contract, but both are exercised anyway —
    // the soundness claim is about ANY replan.
    for (const bool parallel : {false, true}) {
      const SolverResult replan = LazyGreedy(
          after, GreedyRule::kCostBenefit,
          parallel ? CelfOptions{} : SequentialCelf());
      const double true_drift = replan.score - estimate.stale_score;
      EXPECT_GE(estimate.drift + 1e-9, true_drift)
          << "trial " << trial << " parallel=" << parallel
          << ": certified drift " << estimate.drift
          << " below realized drift " << true_drift;
    }
  }
}

// ---------------------------------------------------------------------------
// Bursty uploads: the acceptance guard that drift-triggered mode performs
// strictly fewer replans than per-batch replanning on the same stream.
// ---------------------------------------------------------------------------

const std::vector<std::size_t>& BurstSizes() {
  static const std::vector<std::size_t> kSizes = {12, 2, 2, 20, 3, 15};
  return kSizes;
}

/// Plays the bursty stream into `archiver`; returns the final plan dump.
std::string PlayBurstyStream(StreamingArchiver& archiver) {
  std::uint64_t seed = 500;
  for (const std::size_t size : BurstSizes()) {
    const PhotoId offset = static_cast<PhotoId>(
        archiver.corpus().num_photos() + archiver.pending_photos());
    archiver.Ingest(ArrivalBatch(size, seed++, offset));
  }
  archiver.Flush();
  return service::PlanToJson(archiver.plan()).Dump(1);
}

TEST(StreamingScenario, BurstyUploadsReplanStrictlyLessThanPerBatch) {
  const Corpus base = BaseCorpus();

  StreamingOptions drift_options = BaseStreaming(base);
  drift_options.epsilon = 2.0;
  drift_options.batch_photos = 8;
  StreamingArchiver drift_mode(drift_options);
  drift_mode.Initialize(base);
  PlayBurstyStream(drift_mode);

  StreamingOptions per_options = BaseStreaming(base);
  per_options.replan_every_batch = true;
  per_options.batch_photos = 8;
  StreamingArchiver per_batch(per_options);
  per_batch.Initialize(base);
  PlayBurstyStream(per_batch);

  // Identical final corpora.
  ASSERT_EQ(drift_mode.corpus().num_photos(), per_batch.corpus().num_photos());
  EXPECT_EQ(drift_mode.pending_photos(), 0u);

  // The machine-independent guard: counts depend only on the stream and the
  // policy, never on thread count, kernel table, or wall-clock speed.
  EXPECT_LT(drift_mode.replans(), per_batch.replans())
      << "drift-triggered mode must replan strictly less than per-batch";
  EXPECT_GE(drift_mode.replans_skipped(), 1u);
  EXPECT_GE(drift_mode.drift_evals(), 1u);
  EXPECT_EQ(per_batch.drift_evals(), 0u);

  // Staying below ε may cost quality, but never more than ε per skip — the
  // final flush replans on the full corpus, so the end states are close.
  EXPECT_GE(drift_mode.plan().score, 0.9 * per_batch.plan().score);
}

// ---------------------------------------------------------------------------
// Time-based fallback on the FakeClock: a quiet-but-stale plan still
// refreshes, with zero real sleeps.
// ---------------------------------------------------------------------------

TEST(StreamingScenario, StalenessFallbackTriggersOnFakeClock) {
  scenario::FakeClock clock;
  const Corpus base = BaseCorpus();
  StreamingOptions options = BaseStreaming(base);
  options.epsilon = 1e9;  // drift can never trigger
  options.max_staleness_ms = 1000.0;
  options.batch_photos = 4;
  options.now_ms = clock.NowFn();
  StreamingArchiver archiver(options);
  archiver.Initialize(base);

  IngestOutcome first = archiver.Ingest(ArrivalBatch(5, 1, 60));
  EXPECT_TRUE(first.absorbed);
  EXPECT_FALSE(first.replanned);
  EXPECT_EQ(first.reason, "below_epsilon");

  clock.Advance(1500.0);
  IngestOutcome second = archiver.Ingest(ArrivalBatch(5, 2, 65));
  EXPECT_TRUE(second.replanned);
  EXPECT_EQ(second.reason, "staleness");

  // A prompt follow-up is fresh again.
  IngestOutcome third = archiver.Ingest(ArrivalBatch(5, 3, 70));
  EXPECT_FALSE(third.replanned);
  EXPECT_EQ(third.reason, "below_epsilon");
  EXPECT_TRUE(clock.sleeps_ms().empty()) << "no real sleeps allowed";
}

// ---------------------------------------------------------------------------
// Backfill of old albums and out-of-order arrivals: late metadata must land
// on a byte-identical plan, because the final corpus is identical.
// ---------------------------------------------------------------------------

TEST(StreamingScenario, BackfillOfOldAlbumsJoinsThePlan) {
  const Corpus base = BaseCorpus();
  StreamingOptions options = BaseStreaming(base);
  options.batch_photos = 4;
  options.epsilon = 0.0;  // replan whenever anything could improve
  StreamingArchiver archiver(options);
  archiver.Initialize(base);

  // An old album's page arrives with no new photos at all: a pure-backfill
  // subset referencing only photos ingested long ago.
  IngestBatch backfill;
  OpenImagesOptions extra;
  extra.num_photos = 4;
  extra.seed = 9;
  backfill.photos = GenerateOpenImagesCorpus(extra).photos;
  SubsetSpec album;
  album.name = "vacation-2019-backfill";
  album.weight = 4.0;
  for (PhotoId p = 3; p < 40; p += 5) album.members.push_back(p);
  backfill.subsets.push_back(album);

  const IngestOutcome outcome = archiver.Ingest(std::move(backfill));
  EXPECT_TRUE(outcome.absorbed);
  const Corpus& corpus = archiver.corpus();
  const auto named = std::find_if(
      corpus.subsets.begin(), corpus.subsets.end(),
      [](const SubsetSpec& s) { return s.name == "vacation-2019-backfill"; });
  ASSERT_NE(named, corpus.subsets.end());
  // The plan stays a complete partition of the grown corpus.
  archiver.Flush();
  EXPECT_EQ(archiver.plan().retained.size() + archiver.plan().archived.size(),
            corpus.num_photos());
}

TEST(StreamingScenario, OutOfOrderMetadataYieldsByteIdenticalPlan) {
  const Corpus base = BaseCorpus();

  const auto play = [&](bool late_metadata) {
    StreamingOptions options = BaseStreaming(base);
    options.epsilon = 1e9;       // decisions always defer ...
    options.batch_photos = 4;    // ... but every batch absorbs
    StreamingArchiver archiver(options);
    archiver.Initialize(base);

    IngestBatch first = ArrivalBatch(6, 21, 60);
    IngestBatch second = ArrivalBatch(6, 22, 66);
    if (late_metadata) {
      // The first batch's subsets arrive out of order, with the second
      // batch — same photos, same final subset sequence.
      second.subsets.insert(second.subsets.begin(), first.subsets.begin(),
                            first.subsets.end());
      first.subsets.clear();
    }
    archiver.Ingest(std::move(first));
    archiver.Ingest(std::move(second));
    archiver.Flush();
    return service::PlanToJson(archiver.plan()).Dump(1);
  };

  EXPECT_EQ(play(false), play(true))
      << "late metadata over the same photos must not change the plan";
}

// ---------------------------------------------------------------------------
// Backpressure: a full queue sheds the batch whole with the typed error,
// in-process and over the wire.
// ---------------------------------------------------------------------------

TEST(StreamingScenario, BackpressureShedsBatchWholeAndTyped) {
  const Corpus base = BaseCorpus();
  StreamingOptions options = BaseStreaming(base);
  options.batch_photos = 16;
  options.queue_photos = 16;
  StreamingArchiver archiver(options);
  archiver.Initialize(base);

  const std::uint64_t shed_before = CounterValue("ingest.shed_batches");
  EXPECT_EQ(archiver.Ingest(ArrivalBatch(10, 1, 60)).pending_photos, 10u);
  try {
    archiver.Ingest(ArrivalBatch(10, 2, 70));
    FAIL() << "expected IngestOverloadedError";
  } catch (const IngestOverloadedError& error) {
    EXPECT_EQ(error.pending_photos(), 10u);
    EXPECT_EQ(error.queue_photos(), 16u);
  }
  EXPECT_EQ(archiver.pending_photos(), 10u) << "rejected batch left no trace";
  EXPECT_EQ(CounterValue("ingest.shed_batches"), shed_before + 1);

  // Flush drains the queue; ingest is accepted again.
  archiver.Flush();
  EXPECT_EQ(archiver.pending_photos(), 0u);
  EXPECT_EQ(archiver.Ingest(ArrivalBatch(10, 2, 70)).pending_photos, 10u);
}

class StreamingServiceTest : public ::testing::Test {
 protected:
  void StartServer(service::ServerOptions options) {
    options.num_workers = 2;
    server_ = std::make_unique<service::ServiceServer>(std::move(options));
    server_->Start();
  }

  service::ServiceClient Connect() {
    return service::ServiceClient("127.0.0.1", server_->port());
  }

  std::string CreateSession(service::ServiceClient& client,
                            std::uint64_t seed = 11) {
    Json corpus = Json::Object();
    corpus.Set("kind", "openimages");
    corpus.Set("num_photos", 60);
    corpus.Set("seed", seed);
    return client.CreateSession(std::move(corpus));
  }

  Json IngestParams(const std::string& session, int count,
                    std::uint64_t seed) {
    Json params = Json::Object();
    params.Set("session", session);
    params.Set("count", count);
    params.Set("seed", seed);
    params.Set("budget", 1'500'000);
    return params;
  }

  void TearDown() override {
    if (server_ != nullptr) {
      server_->RequestShutdown();
      server_->Wait();
    }
  }

  std::unique_ptr<service::ServiceServer> server_;
};

TEST_F(StreamingServiceTest, WireBackpressureIsTypedIngestOverloaded) {
  StartServer({});
  service::ServiceClient client = Connect();
  const std::string session = CreateSession(client);

  Json first = IngestParams(session, 10, 1);
  first.Set("batch_photos", 16);
  first.Set("queue_photos", 16);
  EXPECT_EQ(client.Call("ingest", std::move(first))
                .Get("pending_photos")
                .AsInt(),
            10);

  const std::uint64_t rejected_before =
      CounterValue("service.rejected.ingest_overloaded");
  Json second = IngestParams(session, 10, 2);
  second.Set("batch_photos", 16);
  second.Set("queue_photos", 16);
  try {
    client.Call("ingest", std::move(second));
    FAIL() << "expected typed ingest_overloaded";
  } catch (const service::ServiceError& error) {
    EXPECT_EQ(error.code(), service::ErrorCode::kIngestOverloaded);
  }
  EXPECT_EQ(CounterValue("service.rejected.ingest_overloaded"),
            rejected_before + 1);

  // ingest_flush drains and replans; the queue accepts again.
  Json flush = Json::Object();
  flush.Set("session", session);
  const Json flushed = client.Call("ingest_flush", std::move(flush));
  EXPECT_TRUE(flushed.Get("replanned").AsBool());
  EXPECT_EQ(flushed.Get("pending_photos").AsInt(), 0);
  EXPECT_EQ(flushed.Get("num_photos").AsInt(), 70);
}

TEST_F(StreamingServiceTest, ServerStreamMatchesInProcessByteForByte) {
  // The same logical stream driven over the wire and directly through a
  // second server's session must land on byte-identical plans.
  StartServer({});
  service::ServiceClient client = Connect();

  const auto play = [&](service::ServiceClient& c) {
    const std::string session = CreateSession(c);
    // batch_photos=12 over 8-photo batches: the middle ingest absorbs and
    // takes a drift decision, the final flush drains the rest and replans
    // (so the response always carries the plan).
    for (int i = 0; i < 3; ++i) {
      Json params = IngestParams(session, 8, 40 + i);
      params.Set("batch_photos", 12);
      params.Set("epsilon", 0.25);
      c.Call("ingest", std::move(params));
    }
    Json flush = Json::Object();
    flush.Set("session", session);
    return c.Call("ingest_flush", std::move(flush)).Get("plan").Dump(1);
  };

  service::ServiceClient again = Connect();
  EXPECT_EQ(play(client), play(again));
}

TEST_F(StreamingServiceTest, ReplansRacingIngestKeepInvariants) {
  // Concurrent ingests and flushes against one session: the per-session
  // mutex serializes them in some order; whatever the interleaving, no
  // photo is lost or double-counted and the final plan partitions the
  // corpus. Zero sleeps — threads just contend.
  StartServer({});
  service::ServiceClient setup = Connect();
  const std::string session = CreateSession(setup);

  constexpr int kThreads = 3;
  constexpr int kBatchesPerThread = 3;
  constexpr int kPhotosPerBatch = 5;
  // The first ingest creates the session's streamer, and `ingest_flush`
  // before that is an error. Ingest once up front so the flusher thread
  // cannot win the race against every ingester.
  {
    Json params = IngestParams(session, kPhotosPerBatch, 900);
    params.Set("batch_photos", 4);
    params.Set("epsilon", 0.25);
    setup.Call("ingest", std::move(params));
  }
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      service::ServiceClient client = Connect();
      for (int i = 0; i < kBatchesPerThread; ++i) {
        Json params = IngestParams(session, kPhotosPerBatch,
                                   1000 + t * 100 + i);
        params.Set("batch_photos", 4);
        params.Set("epsilon", 0.25);
        client.Call("ingest", std::move(params));
      }
    });
  }
  workers.emplace_back([&] {
    service::ServiceClient client = Connect();
    for (int i = 0; i < 2; ++i) {
      Json flush = Json::Object();
      flush.Set("session", session);
      client.Call("ingest_flush", std::move(flush));
    }
  });
  for (std::thread& worker : workers) worker.join();

  Json flush = Json::Object();
  flush.Set("session", session);
  const Json final_state = setup.Call("ingest_flush", std::move(flush));
  EXPECT_EQ(final_state.Get("pending_photos").AsInt(), 0);
  EXPECT_EQ(final_state.Get("num_photos").AsInt(),
            60 + (1 + kThreads * kBatchesPerThread) * kPhotosPerBatch);
  if (final_state.Has("plan")) {
    const Json& plan = final_state.Get("plan");
    EXPECT_EQ(plan.Get("retained").size() + plan.Get("archived").size(),
              static_cast<std::size_t>(final_state.Get("num_photos").AsInt()));
  }
}

// ---------------------------------------------------------------------------
// Failpoints: crash mid-flush recovers to the last consistent plan; the
// enqueue failpoint rejects without corrupting the queue.
// ---------------------------------------------------------------------------

TEST(StreamingScenario, EnqueueFailpointRejectsWithoutStateChange) {
  const Corpus base = BaseCorpus();
  StreamingOptions options = BaseStreaming(base);
  options.batch_photos = 16;
  StreamingArchiver archiver(options);
  archiver.Initialize(base);
  archiver.Ingest(ArrivalBatch(5, 1, 60));

  {
    failpoint::ScopedFailpoint guard("ingest.enqueue", "error");
    EXPECT_THROW(archiver.Ingest(ArrivalBatch(5, 2, 65)),
                 failpoint::InjectedFault);
  }
  EXPECT_EQ(archiver.pending_photos(), 5u) << "failed enqueue left no trace";
  archiver.Ingest(ArrivalBatch(5, 2, 65));
  EXPECT_EQ(archiver.pending_photos(), 10u);
}

TEST(StreamingScenario, CrashMidFlushRecoversToLastConsistentPlan) {
  const Corpus base = BaseCorpus();
  StreamingOptions options = BaseStreaming(base);
  options.batch_photos = 64;  // queue only; the flush does the work
  StreamingArchiver archiver(options);
  archiver.Initialize(base);
  const std::vector<PhotoId> retained_before = archiver.plan().retained;

  archiver.Ingest(ArrivalBatch(10, 31, 60));
  {
    failpoint::ScopedFailpoint guard("ingest.replan", "crash");
    EXPECT_THROW(archiver.Flush(), failpoint::InjectedCrash);
  }

  // Last consistent plan: the retained set is untouched, and the drained
  // arrivals are accounted for on the archived side — the plan still
  // partitions the grown corpus.
  EXPECT_EQ(archiver.plan().retained, retained_before);
  EXPECT_EQ(archiver.corpus().num_photos(), 70u);
  EXPECT_EQ(archiver.plan().retained.size() + archiver.plan().archived.size(),
            70u);
  EXPECT_EQ(archiver.pending_photos(), 0u);

  // The retry completes the interrupted flush.
  const IngestOutcome retried = archiver.Flush();
  EXPECT_TRUE(retried.replanned);
  EXPECT_EQ(retried.reason, "flush");
}

TEST(StreamingScenario, CrashMidFlushLeavesVaultConsistent) {
  // The vault-side view of the same scenario, through the crash-recovery
  // harness: archive the current plan, crash a later flush, and verify the
  // "restarted process" sees the pre-crash manifest and can finish the job.
  const std::string dir =
      (std::filesystem::temp_directory_path() / "phocus_streaming_crash")
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  const Corpus base = BaseCorpus();
  StreamingOptions options = BaseStreaming(base);
  options.batch_photos = 64;
  StreamingArchiver archiver(options);
  archiver.Initialize(base);

  std::size_t objects_before_crash = 0;
  const scenario::CrashRecoveryResult result = scenario::RunWithCrashRecovery(
      dir, [&](ArchiveVault& vault) {
        ArchivePlanToVault(archiver.corpus(), archiver.plan(), vault, 16);
        objects_before_crash = vault.num_objects();
        archiver.Ingest(ArrivalBatch(10, 41, 60));
        failpoint::Configure("ingest.replan", "crash");
        archiver.Flush();  // dies here
        FAIL() << "flush should have crashed";
      });

  ASSERT_TRUE(result.faulted);
  ASSERT_NE(result.reopened, nullptr);
  // The restart sees exactly the objects the pre-crash archive wrote.
  EXPECT_EQ(result.reopened->num_objects(), objects_before_crash);
  // And the interrupted flush is retryable against the recovered vault.
  EXPECT_TRUE(archiver.Flush().replanned);
  ArchivePlanToVault(archiver.corpus(), archiver.plan(), *result.reopened, 16);
  EXPECT_GE(result.reopened->num_objects(), objects_before_crash);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Budget rebalancing: as the corpus grows, budget_fraction re-targets the
// budget before each replan decision.
// ---------------------------------------------------------------------------

TEST(StreamingScenario, BudgetFractionRebalancesAsCorpusGrows) {
  const double kFraction = 1.0 / 3.0;
  const Corpus base = BaseCorpus();
  StreamingOptions options = BaseStreaming(base);
  options.batch_photos = 8;
  options.epsilon = 0.0;
  options.budget_fraction = kFraction;
  StreamingArchiver archiver(options);
  archiver.Initialize(base);
  const Cost budget_before = archiver.budget();

  archiver.Ingest(ArrivalBatch(20, 51, 60));
  archiver.Flush();
  EXPECT_GT(archiver.budget(), budget_before)
      << "budget must grow with total corpus bytes";
  const Cost expected = static_cast<Cost>(
      kFraction * static_cast<double>(archiver.corpus().TotalBytes()));
  EXPECT_EQ(archiver.budget(), expected);
}

// ---------------------------------------------------------------------------
// Bugfix regressions.
// ---------------------------------------------------------------------------

TEST(StreamingScenario, TricklePastStalenessReplansBetweenBatches) {
  // Regression: the staleness fallback used to be reachable only once
  // pending_photos hit batch_photos, so a corpus receiving sub-batch
  // trickles never replanned no matter how stale the plan got.
  scenario::FakeClock clock;
  const Corpus base = BaseCorpus();
  StreamingOptions options = BaseStreaming(base);
  options.epsilon = 1e9;          // drift can never trigger
  options.max_staleness_ms = 1000.0;
  options.batch_photos = 100;     // the trickle never fills a batch
  options.now_ms = clock.NowFn();
  StreamingArchiver archiver(options);
  archiver.Initialize(base);

  EXPECT_EQ(archiver.Ingest(ArrivalBatch(2, 1, 60)).reason, "queued");
  clock.Advance(1500.0);
  const IngestOutcome stale = archiver.Ingest(ArrivalBatch(2, 2, 62));
  EXPECT_TRUE(stale.absorbed);
  EXPECT_TRUE(stale.replanned);
  EXPECT_EQ(stale.reason, "staleness");
  EXPECT_EQ(archiver.pending_photos(), 0u);
  EXPECT_TRUE(clock.sleeps_ms().empty()) << "no real sleeps allowed";
}

TEST(StreamingScenario, PolicyShrinkBelowPendingAutoDrains) {
  // Regression: shrinking queue_photos below the pending count used to
  // strand the queue — the overflow check shed every subsequent batch (even
  // a single photo) and nothing ever drained below the new cap.
  const Corpus base = BaseCorpus();
  StreamingOptions options = BaseStreaming(base);
  options.batch_photos = 16;
  options.queue_photos = 64;
  StreamingArchiver archiver(options);
  archiver.Initialize(base);
  archiver.Ingest(ArrivalBatch(10, 1, 60));
  ASSERT_EQ(archiver.pending_photos(), 10u);

  const std::uint64_t drains_before = CounterValue("ingest.policy_drains");
  StreamingOptions shrunk = options;
  shrunk.batch_photos = 4;
  shrunk.queue_photos = 8;  // below the 10 pending photos
  archiver.set_policy(shrunk);
  EXPECT_EQ(archiver.pending_photos(), 0u)
      << "policy shrink must drain the queue, not strand it";
  EXPECT_EQ(CounterValue("ingest.policy_drains"), drains_before + 1);

  // The streamer is admissible again under the new cap.
  EXPECT_EQ(archiver.Ingest(ArrivalBatch(3, 2, 70)).pending_photos, 3u);
}

// ---------------------------------------------------------------------------
// WAL durability: byte-identical recovery, and the crash matrix — a fault
// injected at each wal.* failpoint must leave a state that recovery turns
// back into exactly what a crash-free run would have produced.
// ---------------------------------------------------------------------------

std::string FreshWalDir(const std::string& name) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / ("phocus_wal_" + name))
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// One ingest step with ids offset past everything the archiver knows.
void Burst(StreamingArchiver& archiver, std::size_t count,
           std::uint64_t seed) {
  archiver.Ingest(ArrivalBatch(
      count, seed,
      static_cast<PhotoId>(archiver.corpus().num_photos() +
                           archiver.pending_photos())));
}

TEST(WalScenario, RecoveryIsByteIdenticalToCrashFreeRun) {
  const std::string dir = FreshWalDir("byte_identity");
  const Corpus base = BaseCorpus();
  const std::uint64_t fingerprint = WalChecksum(EncodeCorpus(base));

  StreamingOptions options = BaseStreaming(base);
  options.batch_photos = 6;
  options.epsilon = 0.25;

  // Crash-free reference: the full stream, no WAL.
  StreamingArchiver reference(options);
  reference.Initialize(base);
  for (std::uint64_t i = 0; i < 4; ++i) Burst(reference, 5 + i, 100 + i);
  reference.Flush();
  const std::string expected = service::PlanToJson(reference.plan()).Dump(1);

  // The same stream, abandoned mid-way with a non-empty queue — the
  // in-process stand-in for kill -9.
  {
    StreamingArchiver crashing(options);
    crashing.Initialize(base);
    crashing.AttachWal(std::make_unique<IngestWal>(dir, "s"), fingerprint);
    for (std::uint64_t i = 0; i < 2; ++i) Burst(crashing, 5 + i, 100 + i);
  }
  std::unique_ptr<StreamingArchiver> recovered =
      StreamingArchiver::RecoverFromWal(std::make_unique<IngestWal>(dir, "s"),
                                        fingerprint);
  for (std::uint64_t i = 2; i < 4; ++i) Burst(*recovered, 5 + i, 100 + i);
  recovered->Flush();
  EXPECT_EQ(service::PlanToJson(recovered->plan()).Dump(1), expected);
  recovered.reset();
  std::filesystem::remove_all(dir);
}

TEST(WalScenario, AppendFaultLeavesBatchUnackedAndUnlogged) {
  const std::string dir = FreshWalDir("append_fault");
  const Corpus base = BaseCorpus();
  const std::uint64_t fingerprint = WalChecksum(EncodeCorpus(base));
  StreamingOptions options = BaseStreaming(base);
  options.batch_photos = 64;  // queue only
  StreamingArchiver archiver(options);
  archiver.Initialize(base);
  archiver.AttachWal(std::make_unique<IngestWal>(dir, "s"), fingerprint);
  Burst(archiver, 5, 1);

  {
    failpoint::ScopedFailpoint guard("wal.append", "error");
    EXPECT_THROW(Burst(archiver, 5, 2), failpoint::InjectedFault);
  }
  EXPECT_EQ(archiver.pending_photos(), 5u) << "failed append left no trace";

  // The log agrees with the in-memory state: replay queues only batch one.
  std::unique_ptr<StreamingArchiver> recovered =
      StreamingArchiver::RecoverFromWal(std::make_unique<IngestWal>(dir, "s"),
                                        fingerprint);
  EXPECT_EQ(recovered->pending_photos(), 5u);
  recovered.reset();
  std::filesystem::remove_all(dir);
}

TEST(WalScenario, AppendCrashTearsTailAndRecoveryTruncatesIt) {
  const std::string dir = FreshWalDir("append_crash");
  const Corpus base = BaseCorpus();
  const std::uint64_t fingerprint = WalChecksum(EncodeCorpus(base));
  StreamingOptions options = BaseStreaming(base);
  options.batch_photos = 64;
  StreamingArchiver archiver(options);
  archiver.Initialize(base);
  archiver.AttachWal(std::make_unique<IngestWal>(dir, "s"), fingerprint);
  Burst(archiver, 5, 1);

  // Dying mid-write (kill -9) runs no repair: the half-written record stays
  // on disk as a genuinely torn tail.
  {
    failpoint::ScopedFailpoint guard("wal.append", "crash");
    EXPECT_THROW(Burst(archiver, 5, 2), failpoint::InjectedCrash);
  }
  EXPECT_EQ(archiver.pending_photos(), 5u);

  // Recovery truncates the tear and surfaces the truncation; the un-acked
  // batch stays lost (the client never got its ack, so nothing acknowledged
  // is missing).
  const std::uint64_t torn_before = CounterValue("ingest.wal_torn_tails");
  std::unique_ptr<StreamingArchiver> recovered =
      StreamingArchiver::RecoverFromWal(std::make_unique<IngestWal>(dir, "s"),
                                        fingerprint);
  EXPECT_EQ(recovered->pending_photos(), 5u);
  EXPECT_EQ(CounterValue("ingest.wal_torn_tails"), torn_before + 1);
  recovered.reset();
  std::filesystem::remove_all(dir);
}

TEST(WalScenario, PartialAppendIsRepairedAndLaterAcksSurviveRecovery) {
  const std::string dir = FreshWalDir("short_write_repair");
  const Corpus base = BaseCorpus();
  const std::uint64_t fingerprint = WalChecksum(EncodeCorpus(base));
  StreamingOptions options = BaseStreaming(base);
  options.batch_photos = 64;
  StreamingArchiver archiver(options);
  archiver.Initialize(base);
  archiver.AttachWal(std::make_unique<IngestWal>(dir, "s"), fingerprint);
  Burst(archiver, 5, 1);

  // A survivable partial write (the ENOSPC shape): the process keeps
  // serving after the error, so the torn bytes must be truncated away
  // before any later append lands behind them.
  const std::uint64_t repairs_before = CounterValue("ingest.wal_repairs");
  {
    failpoint::ScopedFailpoint guard("wal.append", "short_write");
    EXPECT_THROW(Burst(archiver, 5, 2), failpoint::InjectedFault);
  }
  EXPECT_EQ(archiver.pending_photos(), 5u);
  EXPECT_EQ(CounterValue("ingest.wal_repairs"), repairs_before + 1);

  // Continued ingest is acknowledged against a clean log tail...
  Burst(archiver, 7, 3);
  EXPECT_EQ(archiver.pending_photos(), 12u);

  // ...so recovery must keep every acknowledged batch — with the tear left
  // in place, the log scan would stop at the garbage and silently drop the
  // acked batch behind it.
  const std::uint64_t torn_before = CounterValue("ingest.wal_torn_tails");
  std::unique_ptr<StreamingArchiver> recovered =
      StreamingArchiver::RecoverFromWal(std::make_unique<IngestWal>(dir, "s"),
                                        fingerprint);
  EXPECT_EQ(recovered->pending_photos(), 12u)
      << "an acked batch appended after a repaired tear must survive";
  EXPECT_EQ(CounterValue("ingest.wal_torn_tails"), torn_before);
  recovered.reset();
  std::filesystem::remove_all(dir);
}

TEST(WalScenario, FsyncFaultRollsBackTheUnsyncedRecord) {
  const std::string dir = FreshWalDir("fsync_fault");
  const Corpus base = BaseCorpus();
  const std::uint64_t fingerprint = WalChecksum(EncodeCorpus(base));
  StreamingOptions options = BaseStreaming(base);
  options.batch_photos = 64;
  StreamingArchiver archiver(options);
  archiver.Initialize(base);
  archiver.AttachWal(std::make_unique<IngestWal>(dir, "s"), fingerprint);
  Burst(archiver, 5, 1);

  // A survivable fsync failure: the record is fully written but not
  // durable, and the client saw an error. Keeping it would let recovery
  // replay a batch the client may re-send — the double-enqueue the
  // non-idempotent ingest path exists to prevent — so the repair removes it.
  {
    failpoint::ScopedFailpoint guard("wal.fsync", "error");
    EXPECT_THROW(Burst(archiver, 5, 2), failpoint::InjectedFault);
  }
  Burst(archiver, 7, 3);

  std::unique_ptr<StreamingArchiver> recovered =
      StreamingArchiver::RecoverFromWal(std::make_unique<IngestWal>(dir, "s"),
                                        fingerprint);
  EXPECT_EQ(recovered->pending_photos(), 12u)
      << "only acknowledged batches may replay after a failed fsync";
  recovered.reset();
  std::filesystem::remove_all(dir);
}

TEST(WalScenario, PoisonedWalRejectsIngestUntilARotationHeals) {
  const std::string dir = FreshWalDir("poison");
  const Corpus base = BaseCorpus();
  const std::uint64_t fingerprint = WalChecksum(EncodeCorpus(base));
  StreamingOptions options = BaseStreaming(base);
  options.batch_photos = 64;
  StreamingArchiver archiver(options);
  archiver.Initialize(base);
  archiver.AttachWal(std::make_unique<IngestWal>(dir, "s"), fingerprint);
  Burst(archiver, 5, 1);

  // Torn write whose truncation repair also fails: the log may end in
  // garbage, so the WAL poisons itself rather than risk a record landing
  // after it.
  const std::uint64_t poisonings_before =
      CounterValue("ingest.wal_poisonings");
  {
    failpoint::ScopedFailpoint tear("wal.append", "short_write");
    failpoint::ScopedFailpoint no_repair("wal.repair", "error");
    EXPECT_THROW(Burst(archiver, 5, 2), failpoint::InjectedFault);
  }
  EXPECT_EQ(CounterValue("ingest.wal_poisonings"), poisonings_before + 1);

  // Every further ingest is rejected — the batch is neither acked nor
  // enqueued, so nothing can be written after the torn bytes.
  EXPECT_THROW(Burst(archiver, 5, 3), CheckFailure);
  EXPECT_EQ(archiver.pending_photos(), 5u);

  // A flush rotates (fresh checkpoint + fresh log), which heals the WAL.
  archiver.Flush();
  Burst(archiver, 5, 4);
  EXPECT_EQ(archiver.pending_photos(), 5u);

  std::unique_ptr<StreamingArchiver> recovered =
      StreamingArchiver::RecoverFromWal(std::make_unique<IngestWal>(dir, "s"),
                                        fingerprint);
  EXPECT_EQ(recovered->corpus().num_photos(), base.num_photos() + 5);
  EXPECT_EQ(recovered->pending_photos(), 5u);
  recovered.reset();
  std::filesystem::remove_all(dir);
}

TEST(WalScenario, FsyncCrashLeavesBatchDurableButUnacked) {
  const std::string dir = FreshWalDir("fsync_crash");
  const Corpus base = BaseCorpus();
  const std::uint64_t fingerprint = WalChecksum(EncodeCorpus(base));
  StreamingOptions options = BaseStreaming(base);
  options.batch_photos = 64;
  StreamingArchiver archiver(options);
  archiver.Initialize(base);
  archiver.AttachWal(std::make_unique<IngestWal>(dir, "s"), fingerprint);
  Burst(archiver, 5, 1);

  {
    failpoint::ScopedFailpoint guard("wal.fsync", "crash");
    EXPECT_THROW(Burst(archiver, 5, 2), failpoint::InjectedCrash);
  }
  EXPECT_EQ(archiver.pending_photos(), 5u) << "crashed append is un-acked";

  // The record hit the log before its fsync, so the ambiguity resolves on
  // the durable side: recovery replays the un-acknowledged batch. That is
  // the acceptable direction — an un-acked batch may survive, an acked one
  // may never vanish.
  std::unique_ptr<StreamingArchiver> recovered =
      StreamingArchiver::RecoverFromWal(std::make_unique<IngestWal>(dir, "s"),
                                        fingerprint);
  EXPECT_EQ(recovered->pending_photos(), 10u);
  recovered.reset();
  std::filesystem::remove_all(dir);
}

TEST(WalScenario, TruncateCrashReplaysTheCommittedReplan) {
  const std::string dir = FreshWalDir("truncate_crash");
  const Corpus base = BaseCorpus();
  const std::uint64_t fingerprint = WalChecksum(EncodeCorpus(base));
  StreamingOptions options = BaseStreaming(base);
  options.batch_photos = 64;
  StreamingArchiver archiver(options);
  archiver.Initialize(base);
  archiver.AttachWal(std::make_unique<IngestWal>(dir, "s"), fingerprint);
  Burst(archiver, 10, 1);

  // Crash at the start of the rotation: the kReplanCommit marker is already
  // durable, the checkpoint swap never happened.
  {
    failpoint::ScopedFailpoint guard("wal.truncate", "crash");
    EXPECT_THROW(archiver.Flush(), failpoint::InjectedCrash);
  }

  StreamingArchiver reference(options);
  reference.Initialize(base);
  Burst(reference, 10, 1);
  reference.Flush();

  std::unique_ptr<StreamingArchiver> recovered =
      StreamingArchiver::RecoverFromWal(std::make_unique<IngestWal>(dir, "s"),
                                        fingerprint);
  EXPECT_EQ(recovered->pending_photos(), 0u);
  EXPECT_EQ(service::PlanToJson(recovered->plan()).Dump(1),
            service::PlanToJson(reference.plan()).Dump(1))
      << "replaying the commit marker must land on the committed plan";
  recovered.reset();
  std::filesystem::remove_all(dir);
}

TEST(WalScenario, PolicyChangeSurvivesRecovery) {
  const std::string dir = FreshWalDir("policy_replay");
  const Corpus base = BaseCorpus();
  const std::uint64_t fingerprint = WalChecksum(EncodeCorpus(base));
  StreamingOptions options = BaseStreaming(base);
  options.batch_photos = 32;

  {
    StreamingArchiver archiver(options);
    archiver.Initialize(base);
    archiver.AttachWal(std::make_unique<IngestWal>(dir, "s"), fingerprint);
    StreamingOptions tightened = options;
    tightened.batch_photos = 5;
    archiver.set_policy(tightened);
    Burst(archiver, 3, 1);  // below the tightened batch size: stays queued
  }

  std::unique_ptr<StreamingArchiver> recovered =
      StreamingArchiver::RecoverFromWal(std::make_unique<IngestWal>(dir, "s"),
                                        fingerprint);
  ASSERT_EQ(recovered->pending_photos(), 3u);
  // The replayed policy is live: two more photos reach the tightened
  // batch_photos=5 and drain, where the original 32 would have kept queueing.
  Burst(*recovered, 2, 2);
  EXPECT_EQ(recovered->pending_photos(), 0u)
      << "recovered streamer must honor the journaled policy change";
  recovered.reset();
  std::filesystem::remove_all(dir);
}

TEST(WalScenario, RecoveryRefusesAForeignFingerprint) {
  const std::string dir = FreshWalDir("fingerprint");
  const Corpus base = BaseCorpus();
  const std::uint64_t fingerprint = WalChecksum(EncodeCorpus(base));
  StreamingOptions options = BaseStreaming(base);
  {
    StreamingArchiver archiver(options);
    archiver.Initialize(base);
    archiver.AttachWal(std::make_unique<IngestWal>(dir, "s"), fingerprint);
    Burst(archiver, 3, 1);
  }
  // A session re-created over a *different* corpus must not adopt this WAL.
  EXPECT_THROW(StreamingArchiver::RecoverFromWal(
                   std::make_unique<IngestWal>(dir, "s"), fingerprint + 1),
               WalMismatchError);
  std::filesystem::remove_all(dir);
}

TEST(WalSession, ForeignWalIsQuarantinedAndTheSessionStartsFresh) {
  const std::string dir = FreshWalDir("session_quarantine");
  service::Session::IngestConfig config;
  config.batch_photos = 64;  // queue only

  // A first server lifetime: session s-1 over corpus A, with queued photos
  // in its WAL.
  {
    const Corpus base = BaseCorpus(60, 11);
    ArchiveOptions options;
    options.budget = base.TotalBytes() / 3;
    service::SessionManager manager;
    manager.set_wal_dir(dir);
    auto session = manager.Create(base);
    session->Ingest(5, 1, options, config, nullptr);
  }

  // The restarted phocusd recreates s-1 over a different base corpus. The
  // surviving WAL belongs to another history; wedging every request on the
  // fingerprint mismatch would make close_session — which deletes the WAL —
  // the only escape. Instead the WAL is quarantined aside and the session
  // serves fresh.
  const Corpus other = BaseCorpus(40, 99);
  ArchiveOptions options;
  options.budget = other.TotalBytes() / 3;
  service::SessionManager restarted;
  restarted.set_wal_dir(dir);
  auto session = restarted.Create(other);
  const service::Session::IngestResult result =
      session->Ingest(5, 2, options, config, nullptr);
  EXPECT_EQ(result.outcome.pending_photos, 5u);
  EXPECT_TRUE(std::filesystem::exists(dir + "/s-1.ckpt.quarantined"))
      << "the refused WAL must be preserved aside, not deleted";
  EXPECT_TRUE(std::filesystem::exists(dir + "/s-1.ckpt"))
      << "the fresh session gets a fresh WAL";

  // The session is not wedged: a repeated ingest keeps working.
  EXPECT_EQ(session->Ingest(5, 3, options, config, nullptr)
                .outcome.pending_photos,
            10u);
  std::filesystem::remove_all(dir);
}

TEST(WalSession, RemoveQuiescesTheWalBeforeDeletingFiles) {
  const std::string dir = FreshWalDir("session_remove");
  const Corpus base = BaseCorpus(60, 11);
  ArchiveOptions options;
  options.budget = base.TotalBytes() / 3;
  service::Session::IngestConfig config;
  config.batch_photos = 64;

  service::SessionManager manager;
  manager.set_wal_dir(dir);
  auto session = manager.Create(base);
  session->Ingest(5, 1, options, config, nullptr);
  ASSERT_TRUE(std::filesystem::exists(dir + "/s-1.log"));

  // A request handler can still hold the session shared_ptr when
  // close_session races it.
  std::shared_ptr<service::Session> held = manager.Find("s-1");
  EXPECT_TRUE(manager.Remove("s-1"));
  EXPECT_FALSE(std::filesystem::exists(dir + "/s-1.log"));
  EXPECT_FALSE(std::filesystem::exists(dir + "/s-1.ckpt"));

  // The straggler may finish its (memory-only) work, but must not resurrect
  // the deleted WAL as a headerless orphan a future same-id session would
  // trip over.
  held->Ingest(5, 2, options, config, nullptr);
  EXPECT_FALSE(std::filesystem::exists(dir + "/s-1.log"))
      << "a post-close ingest must not recreate the session's WAL files";
  EXPECT_FALSE(std::filesystem::exists(dir + "/s-1.ckpt"));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace phocus
