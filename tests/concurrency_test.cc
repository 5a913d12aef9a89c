#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/celf.h"
#include "core/objective.h"
#include "datagen/openimages.h"
#include "phocus/system.h"
#include "telemetry/trace.h"
#include "tests/test_support.h"
#include "util/thread_pool.h"

namespace phocus {
namespace {

using testing::MakeRandomInstance;
using testing::RandomInstanceOptions;

TEST(ConcurrencyTest, ParallelForSumsMatchSerial) {
  for (std::size_t threads : {1ul, 2ul, 4ul, 8ul}) {
    ThreadPool pool(threads);
    std::atomic<std::uint64_t> total{0};
    const std::size_t count = 20'000;
    pool.ParallelFor(count, [&](std::size_t i) {
      total.fetch_add(i, std::memory_order_relaxed);
    });
    EXPECT_EQ(total.load(), count * (count - 1) / 2)
        << "threads=" << threads;
  }
}

TEST(ConcurrencyTest, RepeatedSmallParallelForsDontLeakWork) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  for (int round = 0; round < 200; ++round) {
    pool.ParallelFor(7, [&](std::size_t) { calls++; });
  }
  EXPECT_EQ(calls.load(), 200 * 7);
}

TEST(ConcurrencyTest, SubmitFromManyThreads) {
  ThreadPool pool(3);
  std::atomic<int> done{0};
  std::vector<std::thread> producers;
  for (int t = 0; t < 4; ++t) {
    producers.emplace_back([&] {
      for (int i = 0; i < 50; ++i) pool.Submit([&] { done++; });
    });
  }
  for (auto& producer : producers) producer.join();
  pool.Wait();
  EXPECT_EQ(done.load(), 200);
}

TEST(ConcurrencyTest, ConcurrentGainProbesMatchSerialResults) {
  // The parallel first CELF round relies on GainOf being safe and exact
  // under concurrency; verify directly against serial probes.
  RandomInstanceOptions options;
  options.num_photos = 60;
  options.num_subsets = 30;
  const ParInstance instance = MakeRandomInstance(1234, options);
  ObjectiveEvaluator evaluator(&instance);
  evaluator.Add(0);
  evaluator.Add(1);

  std::vector<double> serial(instance.num_photos());
  for (PhotoId p = 0; p < instance.num_photos(); ++p) {
    serial[p] = evaluator.GainOf(p);
  }
  std::vector<double> parallel(instance.num_photos());
  ThreadPool pool(4);
  pool.ParallelFor(instance.num_photos(), [&](std::size_t p) {
    parallel[p] = evaluator.GainOf(static_cast<PhotoId>(p));
  });
  for (PhotoId p = 0; p < instance.num_photos(); ++p) {
    EXPECT_DOUBLE_EQ(parallel[p], serial[p]) << "photo " << p;
  }
}

TEST(ConcurrencyTest, ParallelAndLazyFirstRoundAgree) {
  RandomInstanceOptions options;
  options.num_photos = 300;  // above the 256 parallel threshold
  options.num_subsets = 120;
  const ParInstance instance = MakeRandomInstance(4321, options);
  CelfOptions lazy_options;
  lazy_options.parallel_first_round = false;
  CelfOptions parallel_options;
  parallel_options.parallel_first_round = true;
  const SolverResult lazy =
      LazyGreedy(instance, GreedyRule::kCostBenefit, lazy_options);
  const SolverResult parallel =
      LazyGreedy(instance, GreedyRule::kCostBenefit, parallel_options);
  EXPECT_NEAR(lazy.score, parallel.score, 1e-9);
  EXPECT_EQ(lazy.selected.size(), parallel.selected.size());
}

TEST(ConcurrencyTest, SolversAreSafeFromMultipleThreads) {
  // Distinct solver instances over a shared (const) ParInstance. The
  // membership index must be built before the fan-out (see instance.h).
  const ParInstance instance = MakeRandomInstance(999);
  instance.BuildMembershipIndex();
  std::vector<double> scores(4);
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      CelfSolver solver;
      scores[static_cast<std::size_t>(t)] = solver.Solve(instance).score;
    });
  }
  for (auto& worker : workers) worker.join();
  for (int t = 1; t < 4; ++t) {
    EXPECT_DOUBLE_EQ(scores[static_cast<std::size_t>(t)], scores[0]);
  }
}

/// Depth-first search for the first span named `name`; null when absent.
const telemetry::SpanRecord* FindSpan(const telemetry::SpanRecord& span,
                                      const std::string& name) {
  if (span.name == name) return &span;
  for (const telemetry::SpanRecord& child : span.children) {
    if (const telemetry::SpanRecord* found = FindSpan(child, name)) {
      return found;
    }
  }
  return nullptr;
}

TEST(ConcurrencyTest, PlanTraceHoldsBothConcurrentCelfPasses) {
  // CelfSolver runs the UC pass on a thread of its own, next to the CB
  // pass. Both pass spans belong under the plan's solver.celf.solve span;
  // neither may escape into the process-global collector.
  OpenImagesOptions corpus_options;
  corpus_options.num_photos = 150;
  corpus_options.seed = 17;
  corpus_options.render_size = 32;
  const Corpus corpus = GenerateOpenImagesCorpus(corpus_options);
  ArchiveOptions options;
  options.budget = corpus.TotalBytes() / 4;
  PhocusSystem system(corpus);

  telemetry::TraceCollector& global = telemetry::TraceCollector::Global();
  const std::size_t global_roots = global.Snapshot().size();
  const std::uint64_t global_dropped = global.dropped();
  telemetry::TraceCollector local;
  ArchivePlan plan;
  {
    telemetry::ScopedTraceSink sink(&local);
    plan = system.PlanArchive(options);
  }
  EXPECT_EQ(global.Snapshot().size(), global_roots);
  EXPECT_EQ(global.dropped(), global_dropped);
  EXPECT_EQ(local.Snapshot().size(), 1u);

  const telemetry::SpanRecord* solve = FindSpan(plan.trace, "solver.celf.solve");
  ASSERT_NE(solve, nullptr);
  std::multiset<std::string> rules;
  for (const telemetry::SpanRecord& child : solve->children) {
    if (child.name != "solver.celf.pass") continue;
    for (const auto& [key, value] : child.attributes) {
      if (key == "rule") rules.insert(value);
    }
  }
  EXPECT_EQ(rules, (std::multiset<std::string>{"CB", "UC"}));
}

}  // namespace
}  // namespace phocus
