#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "core/objective.h"
#include "datagen/corpus_ops.h"
#include "datagen/openimages.h"
#include "phocus/incremental.h"
#include "phocus/representation.h"
#include "util/logging.h"
#include "util/rng.h"

namespace phocus {
namespace {

OpenImagesOptions SmallOptions(std::uint64_t seed, std::size_t photos) {
  OpenImagesOptions options;
  options.num_photos = photos;
  options.seed = seed;
  options.render_size = 32;
  return options;
}

/// Splits a generated corpus into an initial slice plus an update batch
/// whose subset specs use post-append ids (which equal the original ids,
/// since RestrictCorpus keeps order for a prefix).
struct Stream {
  Corpus initial;
  std::vector<CorpusPhoto> new_photos;
  std::vector<SubsetSpec> new_subsets;
};

Stream SplitCorpus(const Corpus& corpus, std::size_t initial_count) {
  Stream stream;
  std::vector<PhotoId> prefix(initial_count);
  for (PhotoId p = 0; p < initial_count; ++p) prefix[p] = p;
  stream.initial = RestrictCorpus(corpus, prefix, 2);
  for (std::size_t p = initial_count; p < corpus.photos.size(); ++p) {
    stream.new_photos.push_back(corpus.photos[p]);
  }
  // Subsets touching any new photo are delivered with the batch (members
  // keep their global ids, valid post-append).
  for (const SubsetSpec& spec : corpus.subsets) {
    const bool touches_new =
        std::any_of(spec.members.begin(), spec.members.end(),
                    [&](PhotoId p) { return p >= initial_count; });
    if (touches_new) stream.new_subsets.push_back(spec);
  }
  return stream;
}

/// Reference feasibility eviction without ObjectiveEvaluator::RemovalLoss:
/// every round re-evaluates G(S) and each G(S ∖ {p}) from scratch.
std::vector<PhotoId> ReevaluationEviction(const ParInstance& instance,
                                          std::vector<PhotoId>& seed) {
  for (PhotoId p : instance.RequiredPhotos()) {
    if (std::find(seed.begin(), seed.end(), p) == seed.end()) {
      seed.push_back(p);
    }
  }
  std::vector<PhotoId> victims;
  Cost seed_cost = 0;
  for (PhotoId p : seed) seed_cost += instance.cost(p);
  while (seed_cost > instance.budget()) {
    const double full_score = ObjectiveEvaluator::Evaluate(instance, seed);
    double best_density = std::numeric_limits<double>::infinity();
    std::size_t victim_index = seed.size();
    for (std::size_t i = 0; i < seed.size(); ++i) {
      if (instance.IsRequired(seed[i])) continue;
      std::vector<PhotoId> without;
      for (std::size_t j = 0; j < seed.size(); ++j) {
        if (j != i) without.push_back(seed[j]);
      }
      const double loss =
          full_score - ObjectiveEvaluator::Evaluate(instance, without);
      const double density =
          loss / static_cast<double>(instance.cost(seed[i]));
      if (density < best_density) {
        best_density = density;
        victim_index = i;
      }
    }
    EXPECT_LT(victim_index, seed.size());
    if (victim_index >= seed.size()) break;
    victims.push_back(seed[victim_index]);
    seed_cost -= instance.cost(seed[victim_index]);
    seed.erase(seed.begin() + static_cast<std::ptrdiff_t>(victim_index));
  }
  return victims;
}

TEST(IncrementalTest, InitializeMatchesSystemPlan) {
  const Corpus corpus = GenerateOpenImagesCorpus(SmallOptions(1, 120));
  IncrementalOptions options;
  options.archive.budget = corpus.TotalBytes() / 5;
  IncrementalArchiver archiver(options);
  const ArchivePlan& plan = archiver.Initialize(corpus);
  EXPECT_LE(plan.retained_bytes, options.archive.budget);
  EXPECT_GT(plan.score, 0.0);
}

TEST(IncrementalTest, AddPhotosStaysFeasibleAndImproves) {
  const Corpus full = GenerateOpenImagesCorpus(SmallOptions(2, 200));
  Stream stream = SplitCorpus(full, 120);
  IncrementalOptions options;
  options.archive.budget = full.TotalBytes() / 5;
  IncrementalArchiver archiver(options);
  const double initial_score = archiver.Initialize(stream.initial).score;

  IncrementalUpdateStats stats;
  const ArchivePlan& updated = archiver.AddPhotos(
      stream.new_photos, stream.new_subsets, /*new_required=*/{}, &stats);
  EXPECT_EQ(stats.photos_added, stream.new_photos.size());
  EXPECT_LE(updated.retained_bytes, options.archive.budget);
  // New subsets add coverable demand; budget was generous for the slice.
  EXPECT_GT(updated.score, initial_score);
  EXPECT_EQ(archiver.corpus().num_photos(), full.num_photos());
}

TEST(IncrementalTest, TracksAFreshSolveClosely) {
  const Corpus full = GenerateOpenImagesCorpus(SmallOptions(3, 240));
  Stream stream = SplitCorpus(full, 140);
  IncrementalOptions options;
  options.archive.budget = full.TotalBytes() / 6;
  IncrementalArchiver archiver(options);
  archiver.Initialize(stream.initial);
  const ArchivePlan& incremental =
      archiver.AddPhotos(stream.new_photos, stream.new_subsets);

  // Fresh from-scratch plan on the merged corpus.
  const ArchivePlan fresh = PlanCorpus(archiver.corpus(), options.archive);
  EXPECT_GE(incremental.score, 0.95 * fresh.score)
      << "incremental drifted too far from the fresh solve";
}

TEST(IncrementalTest, BudgetShrinkEvictsUntilFeasible) {
  const Corpus corpus = GenerateOpenImagesCorpus(SmallOptions(4, 150));
  IncrementalOptions options;
  options.archive.budget = corpus.TotalBytes() / 3;
  IncrementalArchiver archiver(options);
  const double generous_score = archiver.Initialize(corpus).score;

  IncrementalUpdateStats stats;
  const Cost tight = corpus.TotalBytes() / 12;
  const ArchivePlan& squeezed = archiver.SetBudget(tight, &stats);
  EXPECT_LE(squeezed.retained_bytes, tight);
  EXPECT_GT(stats.evicted_for_feasibility, 0u);
  EXPECT_LT(squeezed.score, generous_score);
  EXPECT_GT(squeezed.score, 0.0);
}

TEST(IncrementalTest, EvictionMatchesReevaluationReference) {
  for (std::uint64_t seed : {21u, 22u, 23u}) {
    OpenImagesOptions generate = SmallOptions(seed, 150);
    generate.required_fraction = 0.1;  // S0 members stay in every seed
    const Corpus corpus = GenerateOpenImagesCorpus(generate);
    IncrementalOptions options;
    options.archive.budget = corpus.TotalBytes() * 3 / 10;
    IncrementalArchiver archiver(options);
    const std::vector<PhotoId> retained = archiver.Initialize(corpus).retained;
    for (double shrink : {0.02, 0.10, 0.25}) {
      SCOPED_TRACE(::testing::Message()
                   << "seed " << seed << ", shrink " << shrink);
      const Cost budget = static_cast<Cost>(
          (1.0 - shrink) * static_cast<double>(options.archive.budget));
      const ParInstance instance =
          BuildInstance(corpus, budget, options.archive.representation);
      std::vector<PhotoId> reference_seed = retained;
      const std::vector<PhotoId> expected =
          ReevaluationEviction(instance, reference_seed);
      EXPECT_FALSE(expected.empty());
      std::vector<PhotoId> fitted = retained;
      EXPECT_EQ(FitSeedToBudget(instance, fitted), expected);
      EXPECT_EQ(fitted, reference_seed);

      IncrementalArchiver shrunk = archiver;
      IncrementalUpdateStats stats;
      shrunk.SetBudget(budget, &stats);
      EXPECT_EQ(stats.evicted_for_feasibility, expected.size());
    }
  }
}

TEST(IncrementalTest, EvictionBreaksDensityTiesBySeedPosition) {
  // Every photo covers singleton subsets of its own, so each removal loss
  // is its subset count and never changes; photo 5 covers two subsets at
  // twice the cost. All six densities are exactly 1/10.
  ParInstance instance(6, {10, 10, 10, 10, 10, 20}, 40);
  for (PhotoId p : {0, 1, 2, 3, 4, 5, 5}) {
    Subset singleton;
    singleton.members = {p};
    instance.AddSubset(std::move(singleton));
  }
  instance.MarkRequired(0);
  instance.NormalizeRelevance();
  instance.Validate();
  const std::vector<PhotoId> order = {0, 4, 2, 5, 3, 1};
  std::vector<PhotoId> reference_seed = order;
  const std::vector<PhotoId> expected =
      ReevaluationEviction(instance, reference_seed);
  EXPECT_EQ(expected, (std::vector<PhotoId>{4, 2, 5}));
  std::vector<PhotoId> seed = order;
  EXPECT_EQ(FitSeedToBudget(instance, seed), expected);
  EXPECT_EQ(seed, (std::vector<PhotoId>{0, 3, 1}));
}

TEST(IncrementalTest, NewRequiredPhotosJoinTheRetainedSet) {
  const Corpus full = GenerateOpenImagesCorpus(SmallOptions(5, 160));
  Stream stream = SplitCorpus(full, 120);
  IncrementalOptions options;
  options.archive.budget = full.TotalBytes() / 5;
  IncrementalArchiver archiver(options);
  archiver.Initialize(stream.initial);
  const PhotoId newcomer = 130;  // a photo from the batch
  const ArchivePlan& plan = archiver.AddPhotos(
      stream.new_photos, stream.new_subsets, /*new_required=*/{newcomer});
  EXPECT_TRUE(std::binary_search(plan.retained.begin(), plan.retained.end(),
                                 newcomer));
}

TEST(IncrementalTest, GuardsMisuse) {
  IncrementalOptions options;
  options.archive.budget = 1000;
  IncrementalArchiver archiver(options);
  EXPECT_THROW(archiver.AddPhotos({}, {}), CheckFailure);
  EXPECT_THROW(archiver.SetBudget(5000), CheckFailure);
  const Corpus corpus = GenerateOpenImagesCorpus(SmallOptions(6, 40));
  IncrementalOptions good;
  good.archive.budget = corpus.TotalBytes() / 4;
  IncrementalArchiver working(good);
  working.Initialize(corpus);
  EXPECT_THROW(working.Initialize(corpus), CheckFailure);
  EXPECT_THROW(working.SetBudget(0), CheckFailure);
  // Subset member beyond the appended range is rejected.
  SubsetSpec bad;
  bad.name = "bad";
  bad.members = {10'000};
  EXPECT_THROW(working.AddPhotos({}, {bad}), CheckFailure);
}

TEST(IncrementalTest, InfeasibleBudgetIsATypedErrorAndPreservesState) {
  OpenImagesOptions generate = SmallOptions(7, 80);
  generate.required_fraction = 0.25;  // a non-empty S0 to make budgets
                                      // genuinely infeasible
  const Corpus corpus = GenerateOpenImagesCorpus(generate);
  ASSERT_FALSE(corpus.required.empty());
  Cost required_cost = 0;
  for (PhotoId p : corpus.required) required_cost += corpus.photos[p].bytes;

  IncrementalOptions options;
  options.archive.budget = corpus.TotalBytes() / 2;
  IncrementalArchiver archiver(options);
  const ArchivePlan before = archiver.Initialize(corpus);

  // Shrinking below C(S0) must throw the *typed* error — not CHECK-fail —
  // with the numbers a caller needs to pick a feasible budget.
  const Cost impossible = required_cost / 2;
  try {
    archiver.SetBudget(impossible);
    FAIL() << "expected InfeasibleBudgetError";
  } catch (const InfeasibleBudgetError& error) {
    EXPECT_EQ(error.budget(), impossible);
    EXPECT_GE(error.required_cost(), required_cost);
    EXPECT_GT(error.required_cost(), error.budget());
  }

  // The failed shrink left the archiver untouched: same plan, and the old
  // budget still governs subsequent updates.
  EXPECT_EQ(archiver.plan().retained, before.retained);
  EXPECT_EQ(archiver.plan().retained_bytes, before.retained_bytes);

  // A feasible shrink afterwards works and keeps S0 retained.
  const Cost tight = required_cost + (corpus.TotalBytes() - required_cost) / 8;
  const ArchivePlan& squeezed = archiver.SetBudget(tight);
  EXPECT_LE(squeezed.retained_bytes, tight);
  for (PhotoId p : corpus.required) {
    EXPECT_TRUE(std::binary_search(squeezed.retained.begin(),
                                   squeezed.retained.end(), p));
  }
}

}  // namespace
}  // namespace phocus
