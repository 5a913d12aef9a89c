/// \file solver_equivalence_test.cc
/// The batched-parallel CELF path and the new local search must be
/// *bit-identical* to the reference sequential semantics: same selected
/// sequences, same scores (exact double equality), same reported stats.
/// Three references are used:
///   - an exhaustive naive greedy (argmax with full re-evaluation per
///     round, same deterministic tie-break) — the pre-refactor semantics,
///     independent of the CELF queue machinery;
///   - the strictly sequential CELF loop (batching and parallelism off);
///   - local search with probe_batch = 1 (sequential first-improvement).
/// Run under -DPHOCUS_SANITIZE=thread these tests also exercise the pool's
/// per-call ParallelFor completion and the concurrent UC/CB passes.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/celf.h"
#include "core/local_search.h"
#include "core/objective.h"
#include "datagen/openimages.h"
#include "phocus/system.h"
#include "service/protocol.h"
#include "telemetry/trace.h"
#include "tests/test_support.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace phocus {
namespace {

// Force a multi-worker pool even on single-core CI machines so the
// parallel code paths genuinely interleave. Must run before the first
// ThreadPool::Global() use anywhere in the process; a file-scope
// initializer in the test binary precedes any test body.
const bool kForceThreads = [] {
  setenv("PHOCUS_NUM_THREADS", "4", /*overwrite=*/0);
  return true;
}();

/// Pre-refactor reference semantics: full re-evaluation argmax per round,
/// ties broken toward the smaller photo id, stop below min_gain or when
/// nothing fits the remaining budget.
SolverResult NaiveGreedy(const ParInstance& instance, GreedyRule rule,
                         double min_gain = 1e-12) {
  ObjectiveEvaluator evaluator(&instance);
  SolverResult result;
  for (PhotoId p : instance.RequiredPhotos()) {
    evaluator.Add(p);
    result.selected.push_back(p);
  }
  Cost remaining = instance.budget() - evaluator.selected_cost();
  for (;;) {
    double best_key = -std::numeric_limits<double>::infinity();
    PhotoId best = std::numeric_limits<PhotoId>::max();
    for (PhotoId p = 0; p < instance.num_photos(); ++p) {
      if (evaluator.IsSelected(p)) continue;
      if (instance.cost(p) > remaining) continue;
      const double gain = evaluator.GainOf(p);
      const double key = rule == GreedyRule::kUnitCost
                             ? gain
                             : gain / static_cast<double>(instance.cost(p));
      if (key > best_key) {
        best_key = key;
        best = p;
      }
    }
    if (best == std::numeric_limits<PhotoId>::max()) break;
    if (best_key <= min_gain) break;
    evaluator.Add(best);
    result.selected.push_back(best);
    remaining -= instance.cost(best);
  }
  result.score = evaluator.score();
  result.cost = evaluator.selected_cost();
  return result;
}

/// Reference Algorithm 1: best of naive UC and naive CB, CB wins ties —
/// mirrors CelfSolver::Solve's winner rule.
SolverResult NaiveSolve(const ParInstance& instance) {
  const SolverResult uc = NaiveGreedy(instance, GreedyRule::kUnitCost);
  const SolverResult cb = NaiveGreedy(instance, GreedyRule::kCostBenefit);
  return cb.score >= uc.score ? cb : uc;
}

CelfOptions SequentialOptions() {
  CelfOptions options;
  options.parallel_first_round = false;
  options.batch_stale_requeues = false;
  options.concurrent_passes = false;
  return options;
}

struct ModeCase {
  Subset::SimMode mode;
  const char* name;
};

const ModeCase kModes[] = {
    {Subset::SimMode::kUniform, "uniform"},
    {Subset::SimMode::kDense, "dense"},
    {Subset::SimMode::kSparse, "sparse"},
};

testing::RandomInstanceOptions InstanceOptionsFor(Subset::SimMode mode) {
  testing::RandomInstanceOptions options;
  options.num_photos = 60;
  options.num_subsets = 30;
  options.max_subset_size = 8;
  options.budget_fraction = 0.3;
  options.sim_sparsity = mode == Subset::SimMode::kSparse ? 0.5 : 0.2;
  options.sim_mode = mode;
  return options;
}

TEST(SolverEquivalenceTest, BatchedParallelCelfMatchesSequentialAndNaive) {
  for (const ModeCase& mode : kModes) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      SCOPED_TRACE(::testing::Message() << mode.name << " seed " << seed);
      auto options = InstanceOptionsFor(mode.mode);
      if (seed % 2 == 0) options.required_fraction = 0.15;
      const ParInstance instance = testing::MakeRandomInstance(seed, options);

      const SolverResult naive = NaiveSolve(instance);
      CelfSolver sequential(SequentialOptions());
      const SolverResult seq = sequential.Solve(instance);
      CelfSolver parallel;  // defaults: batched stale loop, concurrent passes
      const SolverResult par = parallel.Solve(instance);

      // The selection SEQUENCES (not just the sets) and the exact scores
      // must agree across all three implementations.
      EXPECT_EQ(seq.selected, naive.selected);
      EXPECT_EQ(par.selected, naive.selected);
      EXPECT_EQ(seq.score, naive.score);
      EXPECT_EQ(par.score, naive.score);
      EXPECT_EQ(par.cost, naive.cost);
    }
  }
}

TEST(SolverEquivalenceTest, PerRuleLazyGreedyMatchesNaive) {
  for (const ModeCase& mode : kModes) {
    const ParInstance instance =
        testing::MakeRandomInstance(11, InstanceOptionsFor(mode.mode));
    for (GreedyRule rule : {GreedyRule::kUnitCost, GreedyRule::kCostBenefit}) {
      SCOPED_TRACE(::testing::Message()
                   << mode.name << (rule == GreedyRule::kUnitCost ? " UC" : " CB"));
      const SolverResult naive = NaiveGreedy(instance, rule);
      const SolverResult seq =
          LazyGreedy(instance, rule, SequentialOptions());
      CelfOptions batched;  // defaults
      const SolverResult par = LazyGreedy(instance, rule, batched);
      EXPECT_EQ(seq.selected, naive.selected);
      EXPECT_EQ(par.selected, naive.selected);
      EXPECT_EQ(seq.score, naive.score);
      EXPECT_EQ(par.score, naive.score);
    }
  }
}

TEST(SolverEquivalenceTest, UniformTiesBreakTowardSmallerPhotoId) {
  // All-equal gains: every member of the uniform subset covers it fully, so
  // the first pick must be the smallest eligible photo id (deterministic
  // tie-break), in every configuration.
  std::vector<Cost> costs(8, 10);
  ParInstance instance(8, costs, 20);
  Subset q;
  q.members = {2, 3, 5, 7};
  q.relevance = {0.25, 0.25, 0.25, 0.25};
  q.sim_mode = Subset::SimMode::kUniform;
  instance.AddSubset(std::move(q));
  instance.Validate();

  const SolverResult naive = NaiveSolve(instance);
  CelfSolver sequential(SequentialOptions());
  CelfSolver parallel;
  ASSERT_FALSE(naive.selected.empty());
  EXPECT_EQ(naive.selected.front(), 2u);
  EXPECT_EQ(sequential.Solve(instance).selected, naive.selected);
  EXPECT_EQ(parallel.Solve(instance).selected, naive.selected);
}

TEST(SolverEquivalenceTest, BatchSizeNeverChangesSelections) {
  const ParInstance instance = testing::MakeRandomInstance(
      21, InstanceOptionsFor(Subset::SimMode::kSparse));
  const SolverResult reference =
      LazyGreedy(instance, GreedyRule::kCostBenefit, SequentialOptions());
  for (std::size_t batch : {1u, 2u, 7u, 64u, 1024u}) {
    SCOPED_TRACE(::testing::Message() << "max_stale_batch " << batch);
    CelfOptions options;
    options.max_stale_batch = batch;
    const SolverResult got =
        LazyGreedy(instance, GreedyRule::kCostBenefit, options);
    EXPECT_EQ(got.selected, reference.selected);
    EXPECT_EQ(got.score, reference.score);
  }
}

TEST(SolverEquivalenceTest, GainEvaluationsAreThreadCountIndependent) {
  // The probe schedule must depend only on options and the instance — the
  // solver_perf_smoke bound relies on this. Compare the default (pool-backed)
  // run against a run through a single-thread pool by using the sequential
  // scheduling gate both ways; the counts of the default configuration are
  // asserted stable across repeated runs (the pool interleaving varies).
  const ParInstance instance = testing::MakeRandomInstance(
      31, InstanceOptionsFor(Subset::SimMode::kSparse));
  CelfSolver first;
  const SolverResult a = first.Solve(instance);
  CelfSolver second;
  const SolverResult b = second.Solve(instance);
  EXPECT_EQ(a.gain_evaluations, b.gain_evaluations);
  EXPECT_EQ(a.selected, b.selected);
  EXPECT_EQ(a.score, b.score);
}

TEST(LocalSearchEquivalenceTest, ParallelProbesMatchSequentialFirstImprovement) {
  for (const ModeCase& mode : kModes) {
    for (std::uint64_t seed = 41; seed <= 43; ++seed) {
      SCOPED_TRACE(::testing::Message() << mode.name << " seed " << seed);
      const ParInstance instance =
          testing::MakeRandomInstance(seed, InstanceOptionsFor(mode.mode));
      CelfSolver solver;
      const SolverResult base = solver.Solve(instance);

      SolverResult seq = base;
      LocalSearchOptions seq_options;
      seq_options.probe_batch = 1;
      const LocalSearchStats seq_stats =
          ImproveByLocalSearch(instance, seq, seq_options);

      SolverResult par = base;
      LocalSearchOptions par_options;
      par_options.probe_batch = 8;
      const LocalSearchStats par_stats =
          ImproveByLocalSearch(instance, par, par_options);

      EXPECT_EQ(par.selected, seq.selected);
      EXPECT_EQ(par.score, seq.score);
      EXPECT_EQ(par_stats.passes, seq_stats.passes);
      EXPECT_EQ(par_stats.moves_tried, seq_stats.moves_tried);
      EXPECT_EQ(par_stats.moves_accepted, seq_stats.moves_accepted);
      // Discarded speculative probes must not leak into the stats.
      EXPECT_EQ(par_stats.gain_evaluations, seq_stats.gain_evaluations);
      EXPECT_EQ(par_stats.initial_score, seq_stats.initial_score);
      EXPECT_EQ(par_stats.final_score, seq_stats.final_score);
      EXPECT_GE(par.score, base.score);
    }
  }
}

/// The swap pass as it ran before refills were seeded: sequential first
/// improvement, every refill starting from the lazy +inf seed.
SolverResult UnseededLocalSearch(const ParInstance& instance,
                                 SolverResult solution, int max_passes) {
  constexpr double kMinRelativeGain = 1e-9;
  ObjectiveEvaluator current(&instance, solution.selected);
  for (int pass = 0; pass < max_passes; ++pass) {
    bool accepted = false;
    const std::vector<PhotoId> snapshot = solution.selected;
    for (PhotoId victim : snapshot) {
      std::vector<PhotoId> base = solution.selected;
      const auto at = std::find(base.begin(), base.end(), victim);
      if (instance.IsRequired(victim) || at == base.end()) continue;
      base.erase(at);
      ObjectiveEvaluator lane = current;
      lane.Remove(victim);
      const SolverResult refilled =
          LazyGreedyComplete(instance, GreedyRule::kCostBenefit,
                             SequentialOptions(), lane, std::move(base));
      if (refilled.score > current.score() * (1.0 + kMinRelativeGain)) {
        solution.selected = refilled.selected;
        current = ObjectiveEvaluator(&instance, solution.selected);
        accepted = true;
      }
    }
    if (!accepted) break;
  }
  solution.score = current.score();
  return solution;
}

/// S0 plus photos in a seeded random order while they fit: a start that
/// leaves local search plenty of improving swaps.
SolverResult RandomFill(const ParInstance& instance, std::uint64_t seed) {
  SolverResult start;
  start.selected = instance.RequiredPhotos();
  for (PhotoId p : start.selected) start.cost += instance.cost(p);
  Rng rng(seed);
  std::vector<PhotoId> order(instance.num_photos());
  for (PhotoId p = 0; p < instance.num_photos(); ++p) order[p] = p;
  rng.Shuffle(order);
  for (PhotoId p : order) {
    if (instance.IsRequired(p) ||
        start.cost + instance.cost(p) > instance.budget()) {
      continue;
    }
    start.selected.push_back(p);
    start.cost += instance.cost(p);
  }
  return start;
}

TEST(LocalSearchEquivalenceTest, SeededRefillsMatchUnseeded) {
  // Run by ctest under both kernel tables × 1 and 4 threads as well.
  std::size_t accepted = 0;
  for (const ModeCase& mode : kModes) {
    for (std::uint64_t seed = 61; seed <= 64; ++seed) {
      SCOPED_TRACE(::testing::Message() << mode.name << " seed " << seed);
      auto options = InstanceOptionsFor(mode.mode);
      options.required_fraction = 0.1;
      options.sim_levels = 4;
      const ParInstance instance = testing::MakeRandomInstance(seed, options);
      instance.Validate();
      const SolverResult start = RandomFill(instance, seed);

      SolverResult seeded = start;
      LocalSearchOptions ls;
      const LocalSearchStats stats = ImproveByLocalSearch(instance, seeded, ls);
      const SolverResult unseeded =
          UnseededLocalSearch(instance, start, ls.max_passes);
      EXPECT_EQ(seeded.selected, unseeded.selected);
      EXPECT_EQ(seeded.score, unseeded.score);
      EXPECT_GT(stats.keys_reused + stats.keys_refreshed, 0u);
      accepted += static_cast<std::size_t>(stats.moves_accepted);
    }
  }
  EXPECT_GT(accepted, 0u);
}

TEST(LocalSearchEquivalenceTest, ManyAcceptsPerPassMatchUnseeded) {
  // Dozens of accepted moves in one pass, each adopting its lane and
  // patching `current`'s gain table from the arena diff, against a pass that
  // re-Adds after every accept and seeds nothing. Run by ctest at 1 and 4
  // threads as well.
  for (const ModeCase& mode : kModes) {
    for (std::uint64_t seed = 71; seed <= 72; ++seed) {
      SCOPED_TRACE(::testing::Message() << mode.name << " seed " << seed);
      auto options = InstanceOptionsFor(mode.mode);
      options.num_photos = 240;
      options.num_subsets = 120;
      options.max_subset_size = 12;
      options.required_fraction = 0.05;
      options.sim_levels = 4;
      const ParInstance instance = testing::MakeRandomInstance(seed, options);
      const SolverResult start = RandomFill(instance, seed);

      for (const int passes : {1, 3}) {
        SolverResult adopted = start;
        LocalSearchOptions ls;
        ls.max_passes = passes;
        const LocalSearchStats stats =
            ImproveByLocalSearch(instance, adopted, ls);
        const SolverResult unseeded =
            UnseededLocalSearch(instance, start, passes);
        EXPECT_EQ(adopted.selected, unseeded.selected);
        EXPECT_EQ(adopted.score, unseeded.score);
        // One pick covers a whole uniform subset, so fewer swaps pay.
        EXPECT_GE(stats.moves_accepted,
                  mode.mode == Subset::SimMode::kUniform ? 5 : 30);
        // One re-Add of the final selection, and a table patched after
        // each accept instead of recomputed.
        EXPECT_EQ(stats.readd_evaluations, adopted.selected.size());
        EXPECT_LT(stats.table_evaluations,
                  static_cast<std::size_t>(stats.moves_accepted) *
                      instance.num_photos() / 2);
      }
    }
  }
}

TEST(LocalSearchTelemetryTest, ProbeRefillsLeaveNoGlobalRoots) {
  // Probe refills run on pool workers, where a span has no parent and would
  // become a root of the bounded global collector.
  ASSERT_GE(ThreadPool::Global().num_threads(), 2u);
  auto options = InstanceOptionsFor(Subset::SimMode::kSparse);
  options.num_photos = 240;
  options.num_subsets = 120;
  const ParInstance instance = testing::MakeRandomInstance(81, options);
  SolverResult solution = RandomFill(instance, 81);
  instance.BuildMembershipIndex();

  telemetry::TraceCollector& global = telemetry::TraceCollector::Global();
  global.Clear();
  const std::uint64_t dropped = global.dropped();
  telemetry::TraceCollector local;
  LocalSearchStats stats;
  {
    telemetry::ScopedTraceSink sink(&local);
    stats = ImproveByLocalSearch(instance, solution);
  }
  EXPECT_GT(stats.moves_tried, 16);
  EXPECT_TRUE(global.Snapshot().empty());
  EXPECT_EQ(global.dropped(), dropped);
  const std::vector<telemetry::SpanRecord> roots = local.Drain();
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_EQ(roots[0].name, "solver.local_search");
  EXPECT_TRUE(roots[0].children.empty());
  std::string refills;
  for (const auto& [key, value] : roots[0].attributes) {
    if (key == "refills") refills = value;
  }
  EXPECT_GE(std::stoll(refills), stats.moves_tried);
}

TEST(LocalSearchEquivalenceTest, EvaluatePassCountsActualEvaluations) {
  // Satellite fix: the initial scoring pass counts the evaluator's real
  // Add calls, not selected.size() — with a duplicate in the selection the
  // two differ.
  const ParInstance instance = testing::MakeRandomInstance(
      51, InstanceOptionsFor(Subset::SimMode::kDense));
  CelfSolver solver;
  SolverResult solution = solver.Solve(instance);
  ASSERT_FALSE(solution.selected.empty());
  solution.selected.push_back(solution.selected.front());  // duplicate

  LocalSearchOptions options;
  options.max_passes = 0;  // isolate the Evaluate pass
  SolverResult copy = solution;
  const LocalSearchStats stats = ImproveByLocalSearch(instance, copy, options);
  EXPECT_EQ(stats.gain_evaluations, solution.selected.size() - 1);
}

TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  // A ParallelFor issued from inside a pool task must complete (inline on
  // the worker) instead of deadlocking on the pool-wide in-flight count.
  ThreadPool& pool = ThreadPool::Global();
  std::atomic<int> count{0};
  pool.ParallelFor(16, [&](std::size_t) {
    pool.ParallelFor(16, [&](std::size_t) {
      count.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(count.load(), 16 * 16);
}

TEST(ThreadPoolTest, ParallelForFromAnotherPoolsWorkerFansOut) {
  // Only a worker of the *same* pool runs a nested ParallelFor inline. A
  // worker of another pool (a request thread, say) fans out: the body runs
  // on several of the target pool's workers and never on the caller.
  ThreadPool outer(1);
  ThreadPool inner(4);
  std::thread::id caller;
  std::mutex mutex;
  std::set<std::thread::id> body_threads;
  outer.Submit([&] {
    caller = std::this_thread::get_id();
    inner.ParallelFor(64, [&](std::size_t) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      std::lock_guard<std::mutex> lock(mutex);
      body_threads.insert(std::this_thread::get_id());
    });
  });
  outer.Wait();
  EXPECT_GT(body_threads.size(), 1u);
  EXPECT_EQ(body_threads.count(caller), 0u);
}

TEST(ThreadPoolTest, ConcurrentParallelForCallsComplete) {
  // Two threads driving ParallelFor on the shared pool simultaneously (the
  // concurrent UC/CB shape): per-call completion must not cross-release.
  ThreadPool& pool = ThreadPool::Global();
  std::atomic<int> a{0};
  std::atomic<int> b{0};
  std::thread other([&] {
    for (int round = 0; round < 50; ++round) {
      pool.ParallelFor(64, [&](std::size_t) {
        a.fetch_add(1, std::memory_order_relaxed);
      });
    }
  });
  for (int round = 0; round < 50; ++round) {
    pool.ParallelFor(64, [&](std::size_t) {
      b.fetch_add(1, std::memory_order_relaxed);
    });
  }
  other.join();
  EXPECT_EQ(a.load(), 50 * 64);
  EXPECT_EQ(b.load(), 50 * 64);
}

TEST(FullSystemDeterminismTest, RepeatedSolvesSerializeByteIdentically) {
  // The in-process half of the determinism guarantee: two full-system runs
  // on the same corpus and options (under the forced 4-worker pool) must
  // serialize byte-identically. The cross-thread-count half runs as the
  // `plan_determinism` ctest entry, which re-executes the same pipeline in
  // subprocesses with PHOCUS_NUM_THREADS 1, 4, and unset.
  OpenImagesOptions corpus_options;
  corpus_options.num_photos = 150;
  corpus_options.seed = 17;
  corpus_options.render_size = 32;
  const Corpus corpus = GenerateOpenImagesCorpus(corpus_options);
  ArchiveOptions options;
  options.budget = corpus.TotalBytes() / 4;

  PhocusSystem first(corpus);
  PhocusSystem second(corpus);
  EXPECT_EQ(service::PlanToJson(first.PlanArchive(options)).Dump(),
            service::PlanToJson(second.PlanArchive(options)).Dump());
}

TEST(CsrLayoutTest, SparseRowViewsAndMembershipIndex) {
  Subset q;
  q.members = {4, 9, 2};
  q.sim_mode = Subset::SimMode::kSparse;
  q.SetSparseRows({{{1, 0.5f}, {2, 0.25f}}, {{0, 0.5f}}, {{0, 0.25f}}});
  ASSERT_EQ(q.sparse_offsets.size(), 4u);
  EXPECT_EQ(q.sparse_row(0).size, 2u);
  EXPECT_EQ(q.sparse_row(1).size, 1u);
  EXPECT_EQ(q.sparse_row(2).size, 1u);
  EXPECT_EQ(q.sparse_row(0).indices[1], 2u);
  EXPECT_FLOAT_EQ(q.sparse_row(0).values[1], 0.25f);
  EXPECT_FLOAT_EQ(q.Similarity(1, 0), 0.5f);
  EXPECT_FLOAT_EQ(q.Similarity(1, 2), 0.0f);

  ParInstance instance(10, std::vector<Cost>(10, 5), 50);
  instance.AddSubset(q);
  Subset other;
  other.members = {9, 0};
  other.sim_mode = Subset::SimMode::kUniform;
  instance.AddSubset(std::move(other));
  EXPECT_FALSE(instance.membership_index_built());
  instance.BuildMembershipIndex();
  ASSERT_TRUE(instance.membership_index_built());
  EXPECT_EQ(instance.total_members(), 5u);
  EXPECT_EQ(instance.member_offset(0), 0u);
  EXPECT_EQ(instance.member_offset(1), 3u);
  ASSERT_EQ(instance.memberships(9).size(), 2u);
  EXPECT_EQ(instance.memberships(9)[0].subset, 0u);
  EXPECT_EQ(instance.memberships(9)[0].local_index, 1u);
  EXPECT_EQ(instance.memberships(9)[1].subset, 1u);
  EXPECT_EQ(instance.memberships(9)[1].local_index, 0u);
  EXPECT_TRUE(instance.memberships(3).empty());
}

TEST(CsrLayoutTest, SetSparseRowsRejectsUnmirroredRows) {
  Subset q;
  q.members = {4, 9, 2};
  q.sim_mode = Subset::SimMode::kSparse;
  EXPECT_NO_THROW(
      q.SetSparseRows({{{1, 0.5f}, {2, 0.25f}}, {{0, 0.5f}}, {{0, 0.25f}}}));
  EXPECT_THROW(
      q.SetSparseRows({{{1, 0.5f}, {2, 0.25f}}, {{0, 0.5f}}, {{0, 0.5f}}}),
      CheckFailure)
      << "a mirror with other value bits";
  EXPECT_THROW(q.SetSparseRows({{{1, 0.5f}, {2, 0.25f}}, {{0, 0.5f}}, {}}),
               CheckFailure)
      << "an entry without a mirror";

  auto options = InstanceOptionsFor(Subset::SimMode::kSparse);
  options.sim_levels = 4;
  for (std::uint64_t seed = 61; seed <= 64; ++seed) {
    const ParInstance generated = testing::MakeRandomInstance(seed, options);
    for (SubsetId s = 0; s < generated.num_subsets(); ++s) {
      EXPECT_EQ(testing::SparseMirrorDiff(generated.subset(s)), "")
          << "seed " << seed << ", subset " << s;
    }
  }
}

}  // namespace
}  // namespace phocus
