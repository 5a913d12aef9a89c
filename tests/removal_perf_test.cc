#include <gtest/gtest.h>

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

}  // namespace
}  // namespace phocus
