#include <gtest/gtest.h>

#include <algorithm>

#include "core/celf.h"
#include "core/local_search.h"
#include "datagen/openimages.h"
#include "phocus/incremental.h"
#include "phocus/representation.h"

/// \file removal_perf_test.cc
/// Pins the feasibility eviction's machine-independent work: a lazy
/// reverse greedy scores every evictable photo once, then refreshes only
/// the entries near each round's minimum. Rescoring every photo every
/// round (retained × victims RemovalLoss calls) fails the `perf` tier.

namespace phocus {
namespace {

TEST(RemovalWorkTest, EvictionScoresEachPhotoOnceThenRefreshesNearTheMinimum) {
  OpenImagesOptions generate;
  generate.num_photos = 300;
  generate.seed = 41;
  generate.render_size = 32;
  generate.required_fraction = 0.05;
  const Corpus corpus = GenerateOpenImagesCorpus(generate);
  IncrementalOptions options;
  options.archive.budget = corpus.TotalBytes() * 4 / 10;
  IncrementalArchiver archiver(options);
  const std::vector<PhotoId> retained = archiver.Initialize(corpus).retained;

  // A 15% budget cut.
  const ParInstance instance =
      BuildInstance(corpus, options.archive.budget * 85 / 100,
                    options.archive.representation);
  std::vector<PhotoId> seed = retained;
  IncrementalUpdateStats stats;
  const std::size_t victims = FitSeedToBudget(instance, seed, &stats).size();
  std::size_t evictable = 0;
  for (PhotoId p : retained) evictable += instance.IsRequired(p) ? 0 : 1;

  // Measured: 149 evictable, 14 victims, 164 calls (149 + 15 refreshes).
  ASSERT_GE(victims, 10u);
  EXPECT_LE(stats.removal_loss_evals, evictable + 2 * victims)
      << evictable << " evictable photos, " << victims << " victims";
}

TEST(RemovalWorkTest, RebalanceAdoptsLanesAndPatchesTheGainTable) {
  // The same replan's rebalance pass: an accepted move adopts the winning
  // probe's evaluator, and `current`'s gain table is re-evaluated only for
  // the photos whose gain scans read a best-sim the move changed; a probe
  // refreshes only the refill keys of the readers above a lowered slot's
  // new value. Rebuilding the evaluator per accept (|S| Adds each), the
  // whole table per accept (every affordable photo each), or refreshing
  // every row neighbour of a lowered slot fails the `perf` tier.
  OpenImagesOptions generate;
  generate.num_photos = 300;
  generate.seed = 41;
  generate.render_size = 32;
  generate.required_fraction = 0.05;
  const Corpus corpus = GenerateOpenImagesCorpus(generate);
  IncrementalOptions options;
  options.archive.budget = corpus.TotalBytes() * 4 / 10;
  IncrementalArchiver archiver(options);
  std::vector<PhotoId> seed = archiver.Initialize(corpus).retained;
  // A 30% budget cut.
  const ParInstance instance =
      BuildInstance(corpus, options.archive.budget * 70 / 100,
                    options.archive.representation);
  FitSeedToBudget(instance, seed);
  SolverResult result =
      LazyGreedyFrom(instance, GreedyRule::kCostBenefit, CelfOptions{}, seed);

  // The first table scores every photo a refill could afford.
  Cost max_victim_cost = 0;
  std::vector<char> selected(instance.num_photos(), 0);
  for (PhotoId p : result.selected) {
    selected[p] = 1;
    if (!instance.IsRequired(p)) {
      max_victim_cost = std::max(max_victim_cost, instance.cost(p));
    }
  }
  const Cost reach = instance.budget() - result.cost + max_victim_cost;
  std::size_t affordable = 0;
  for (PhotoId p = 0; p < instance.num_photos(); ++p) {
    if (!selected[p] && instance.cost(p) <= reach) ++affordable;
  }

  LocalSearchOptions ls;
  ls.max_passes = 1;
  const LocalSearchStats stats = ImproveByLocalSearch(instance, result, ls);
  // Measured: 3 accepted moves; 131 Adds in the one re-Add; 221 table
  // evaluations, 134 of them for the first table. A table recomputed per
  // accept would take about 134 × 4.
  const std::size_t accepted = static_cast<std::size_t>(stats.moves_accepted);
  ASSERT_GE(accepted, 2u);
  EXPECT_EQ(stats.readd_evaluations, result.selected.size());
  EXPECT_LE(stats.table_evaluations, affordable + accepted * affordable / 2)
      << accepted << " accepted, " << affordable << " affordable";
  // Measured: 234 of 5 224 refill keys refreshed; marking every row
  // neighbour of a lowered slot, not only the readers above its new value,
  // refreshes 533.
  EXPECT_LE(stats.keys_refreshed, 300u) << stats.keys_reused << " reused";
}

}  // namespace
}  // namespace phocus
