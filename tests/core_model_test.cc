#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/instance.h"
#include "core/objective.h"
#include "core/sparsify.h"
#include "tests/test_support.h"
#include "util/logging.h"
#include "util/rng.h"

namespace phocus {
namespace {

using testing::MakeFigure1Instance;
using testing::MakeRandomInstance;
using testing::RandomInstanceOptions;

// ----------------------------------------------------------- instance ----

TEST(InstanceTest, BasicAccessors) {
  ParInstance instance(3, {10, 20, 30}, 45);
  EXPECT_EQ(instance.num_photos(), 3u);
  EXPECT_EQ(instance.cost(1), 20u);
  EXPECT_EQ(instance.TotalCost(), 60u);
  EXPECT_EQ(instance.budget(), 45u);
  EXPECT_FALSE(instance.IsRequired(0));
  instance.MarkRequired(0);
  EXPECT_TRUE(instance.IsRequired(0));
  EXPECT_EQ(instance.RequiredCost(), 10u);
  EXPECT_EQ(instance.RequiredPhotos(), (std::vector<PhotoId>{0}));
}

TEST(InstanceTest, SubsetSimilarityModes) {
  Subset uniform;
  uniform.members = {0, 1, 2};
  uniform.sim_mode = Subset::SimMode::kUniform;
  EXPECT_DOUBLE_EQ(uniform.Similarity(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(uniform.Similarity(2, 2), 1.0);
  EXPECT_EQ(uniform.CountSimEntries(), 6u);

  Subset dense;
  dense.members = {0, 1};
  dense.sim_mode = Subset::SimMode::kDense;
  dense.dense_sim = {1.0f, 0.4f, 0.4f, 1.0f};
  EXPECT_FLOAT_EQ(dense.Similarity(0, 1), 0.4f);
  EXPECT_DOUBLE_EQ(dense.Similarity(1, 1), 1.0);
  EXPECT_EQ(dense.CountSimEntries(), 2u);

  Subset sparse;
  sparse.members = {0, 1, 2, 3, 4, 5};
  sparse.sim_mode = Subset::SimMode::kSparse;
  sparse.SetSparseRows({{{4, 0.25f}, {1, 0.5f}, {2, 0.75f}},
                        {{0, 0.5f}},
                        {{0, 0.75f}, {5, 0.125f}},
                        {},
                        {{0, 0.25f}},
                        {{2, 0.125f}}});
  EXPECT_EQ(sparse.Similarity(0, 1), 0.5f);
  EXPECT_EQ(sparse.Similarity(0, 2), 0.75f);
  EXPECT_EQ(sparse.Similarity(0, 4), 0.25f);
  EXPECT_EQ(sparse.Similarity(5, 2), 0.125f);
  // Absent before, between and after a row's entries, and in an empty row.
  EXPECT_EQ(sparse.Similarity(5, 0), 0.0);
  EXPECT_EQ(sparse.Similarity(0, 3), 0.0);
  EXPECT_EQ(sparse.Similarity(0, 5), 0.0);
  EXPECT_EQ(sparse.Similarity(3, 0), 0.0);
  EXPECT_DOUBLE_EQ(sparse.Similarity(2, 2), 1.0);
  EXPECT_EQ(sparse.CountSimEntries(), 8u);
}

TEST(InstanceTest, AddSubsetDefaultsUniformRelevance) {
  ParInstance instance(4, {1, 1, 1, 1}, 4);
  Subset q;
  q.members = {0, 2};
  instance.AddSubset(std::move(q));
  EXPECT_DOUBLE_EQ(instance.subset(0).relevance[0], 0.5);
  EXPECT_DOUBLE_EQ(instance.subset(0).relevance[1], 0.5);
}

TEST(InstanceTest, NormalizeRelevanceSumsToOne) {
  ParInstance instance(3, {1, 1, 1}, 3);
  Subset q;
  q.members = {0, 1, 2};
  q.relevance = {2.0, 3.0, 5.0};
  instance.AddSubset(std::move(q));
  instance.NormalizeRelevance();
  EXPECT_DOUBLE_EQ(instance.subset(0).relevance[0], 0.2);
  EXPECT_DOUBLE_EQ(instance.subset(0).relevance[1], 0.3);
  EXPECT_DOUBLE_EQ(instance.subset(0).relevance[2], 0.5);
}

TEST(InstanceTest, NormalizeRelevanceHandlesAllZero) {
  ParInstance instance(2, {1, 1}, 2);
  Subset q;
  q.members = {0, 1};
  q.relevance = {0.0, 0.0};
  instance.AddSubset(std::move(q));
  instance.NormalizeRelevance();
  EXPECT_DOUBLE_EQ(instance.subset(0).relevance[0], 0.5);
}

TEST(InstanceTest, MembershipIndexIsComplete) {
  const ParInstance instance = MakeFigure1Instance();
  // p6 (id 5) belongs to q2, q3, q4.
  EXPECT_EQ(instance.memberships(5).size(), 3u);
  // p1 (id 0) belongs only to q1 at local index 0.
  ASSERT_EQ(instance.memberships(0).size(), 1u);
  EXPECT_EQ(instance.memberships(0)[0].subset, 0u);
  EXPECT_EQ(instance.memberships(0)[0].local_index, 0u);
}

TEST(InstanceTest, ValidateCatchesBadInputs) {
  {  // Unnormalized relevance.
    ParInstance instance(2, {1, 1}, 2);
    Subset q;
    q.members = {0, 1};
    q.relevance = {0.9, 0.9};
    instance.AddSubset(std::move(q));
    EXPECT_THROW(instance.Validate(), CheckFailure);
  }
  {  // Asymmetric dense similarity.
    ParInstance instance(2, {1, 1}, 2);
    Subset q;
    q.members = {0, 1};
    q.relevance = {0.5, 0.5};
    q.sim_mode = Subset::SimMode::kDense;
    q.dense_sim = {1.0f, 0.3f, 0.6f, 1.0f};
    instance.AddSubset(std::move(q));
    EXPECT_THROW(instance.Validate(), CheckFailure);
  }
  {  // Dense diagonal not 1.
    ParInstance instance(1, {1}, 1);
    Subset q;
    q.members = {0};
    q.relevance = {1.0};
    q.sim_mode = Subset::SimMode::kDense;
    q.dense_sim = {0.5f};
    instance.AddSubset(std::move(q));
    EXPECT_THROW(instance.Validate(), CheckFailure);
  }
  {  // Required set exceeding the budget.
    ParInstance instance(2, {5, 5}, 6);
    instance.MarkRequired(0);
    instance.MarkRequired(1);
    EXPECT_THROW(instance.Validate(), CheckFailure);
  }
  {  // Duplicate members.
    ParInstance instance(2, {1, 1}, 2);
    Subset q;
    q.members = {0, 0};
    q.relevance = {0.5, 0.5};
    instance.AddSubset(std::move(q));
    EXPECT_THROW(instance.Validate(), CheckFailure);
  }
  {  // Member out of range is rejected at AddSubset time.
    ParInstance instance(2, {1, 1}, 2);
    Subset q;
    q.members = {5};
    EXPECT_THROW(instance.AddSubset(std::move(q)), CheckFailure);
  }
}

// ---------------------------------------------------------- objective ----

TEST(ObjectiveTest, EmptySelectionScoresZero) {
  const ParInstance instance = MakeFigure1Instance();
  ObjectiveEvaluator evaluator(&instance);
  EXPECT_DOUBLE_EQ(evaluator.score(), 0.0);
  EXPECT_EQ(evaluator.num_selected(), 0u);
}

TEST(ObjectiveTest, Figure1InitialGainsMatchThePaper) {
  // Step 1 of Figure 3 lists the initial marginal gains. (The paper rounds
  // a couple of entries — δp2 is printed 6.74 and δp7 0.78 — the exact
  // values from Figure 1's numbers are computed here by hand.)
  const ParInstance instance = MakeFigure1Instance();
  ObjectiveEvaluator evaluator(&instance);
  EXPECT_NEAR(evaluator.GainOf(0), 7.83, 1e-6);  // δp1, as printed
  EXPECT_NEAR(evaluator.GainOf(1), 6.75, 1e-6);  // δp2 (paper prints 6.74)
  EXPECT_NEAR(evaluator.GainOf(2), 6.75, 1e-6);  // δp3, as printed
  EXPECT_NEAR(evaluator.GainOf(3), 0.70, 1e-6);  // δp4, as printed
  EXPECT_NEAR(evaluator.GainOf(4), 0.82, 1e-6);  // δp5, as printed
  EXPECT_NEAR(evaluator.GainOf(5), 4.61, 1e-6);  // δp6, as printed
  EXPECT_NEAR(evaluator.GainOf(6), 0.79, 1e-6);  // δp7 (paper prints 0.78)
}

TEST(ObjectiveTest, Figure1GainsAfterSelectingP1) {
  // Step 2: after p1 joins the solution, p3 and p2 shrink to the paper's
  // recomputed values.
  const ParInstance instance = MakeFigure1Instance();
  ObjectiveEvaluator evaluator(&instance);
  EXPECT_NEAR(evaluator.Add(0), 7.83, 1e-6);
  EXPECT_NEAR(evaluator.GainOf(2), 0.36, 1e-6);  // δp3 after p1
  EXPECT_NEAR(evaluator.GainOf(1), 0.81, 1e-6);  // δp2 after p1
  EXPECT_NEAR(evaluator.GainOf(5), 4.61, 1e-6);  // δp6 unaffected
}

TEST(ObjectiveTest, AddReturnsTheProbedGain) {
  const ParInstance instance = MakeFigure1Instance();
  ObjectiveEvaluator evaluator(&instance);
  for (PhotoId p : {5u, 0u, 1u}) {
    const double probed = evaluator.GainOf(p);
    EXPECT_DOUBLE_EQ(evaluator.Add(p), probed);
  }
  EXPECT_EQ(evaluator.num_selected(), 3u);
}

TEST(ObjectiveTest, SelectingEverythingReachesMaxScore) {
  const ParInstance instance = MakeFigure1Instance();
  ObjectiveEvaluator evaluator(&instance);
  for (PhotoId p = 0; p < instance.num_photos(); ++p) evaluator.Add(p);
  EXPECT_NEAR(evaluator.score(), ObjectiveEvaluator::MaxScore(instance), 1e-9);
  // Max score = Σ W(q) with normalized relevance: 9 + 1 + 3 + 1 = 14.
  EXPECT_NEAR(ObjectiveEvaluator::MaxScore(instance), 14.0, 1e-9);
}

TEST(ObjectiveTest, SubsetScoreTracksCoverage) {
  const ParInstance instance = MakeFigure1Instance();
  ObjectiveEvaluator evaluator(&instance);
  EXPECT_DOUBLE_EQ(evaluator.SubsetScore(2), 0.0);  // "Bookshelf" empty
  evaluator.Add(5);                                 // p6
  EXPECT_DOUBLE_EQ(evaluator.SubsetScore(2), 1.0);  // fully covered
  // q4 = {p6 (r=0.7), p7 (r=0.3, sim 0.7)} -> 0.7·1 + 0.3·0.7 = 0.91.
  EXPECT_NEAR(evaluator.SubsetScore(3), 0.91, 1e-6);
}

TEST(ObjectiveTest, DoubleAddThrows) {
  const ParInstance instance = MakeFigure1Instance();
  ObjectiveEvaluator evaluator(&instance);
  evaluator.Add(0);
  EXPECT_THROW(evaluator.Add(0), CheckFailure);
}

TEST(ObjectiveTest, EvaluateIgnoresDuplicatesInInput) {
  const ParInstance instance = MakeFigure1Instance();
  const double once = ObjectiveEvaluator::Evaluate(instance, {0, 5});
  const double twice = ObjectiveEvaluator::Evaluate(instance, {0, 5, 0, 5});
  EXPECT_DOUBLE_EQ(once, twice);
}

TEST(ObjectiveTest, RemoveClearsState) {
  const ParInstance instance = MakeFigure1Instance();
  ObjectiveEvaluator evaluator(&instance);
  evaluator.Add(0);
  EXPECT_NEAR(evaluator.Remove(0), 7.83, 1e-6);
  EXPECT_NEAR(evaluator.score(), 0.0, 1e-12);
  EXPECT_EQ(evaluator.num_selected(), 0u);
  EXPECT_FALSE(evaluator.IsSelected(0));
  EXPECT_NEAR(evaluator.GainOf(0), 7.83, 1e-6);
}

// ------------------------- Lemma 4.5 property tests (the paper's core) ---

class ObjectivePropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ObjectivePropertyTest, NonnegativeAndMonotone) {
  RandomInstanceOptions options;
  options.num_photos = 14;
  options.num_subsets = 8;
  const ParInstance instance = MakeRandomInstance(GetParam(), options);
  Rng rng(GetParam() ^ 0xabcULL);
  // Random incremental chain: score must never decrease and stay >= 0.
  ObjectiveEvaluator evaluator(&instance);
  std::vector<PhotoId> order(instance.num_photos());
  for (PhotoId p = 0; p < instance.num_photos(); ++p) order[p] = p;
  rng.Shuffle(order);
  double previous = 0.0;
  for (PhotoId p : order) {
    const double gain = evaluator.Add(p);
    EXPECT_GE(gain, -1e-12);
    EXPECT_GE(evaluator.score() + 1e-12, previous);
    previous = evaluator.score();
  }
}

TEST_P(ObjectivePropertyTest, SubmodularDiminishingReturns) {
  RandomInstanceOptions options;
  options.num_photos = 12;
  options.num_subsets = 7;
  const ParInstance instance = MakeRandomInstance(GetParam(), options);
  Rng rng(GetParam() ^ 0xdefULL);
  for (int trial = 0; trial < 20; ++trial) {
    // Random nested pair S ⊂ T and a photo v ∉ T.
    std::vector<PhotoId> order(instance.num_photos());
    for (PhotoId p = 0; p < instance.num_photos(); ++p) order[p] = p;
    rng.Shuffle(order);
    const std::size_t t_size = 1 + rng.NextBelow(instance.num_photos() - 1);
    const std::size_t s_size = rng.NextBelow(t_size);
    const PhotoId v = order[t_size];  // outside T

    ObjectiveEvaluator small(&instance), large(&instance);
    for (std::size_t i = 0; i < s_size; ++i) small.Add(order[i]);
    for (std::size_t i = 0; i < t_size; ++i) large.Add(order[i]);
    EXPECT_GE(small.GainOf(v) + 1e-9, large.GainOf(v))
        << "submodularity violated at trial " << trial;
  }
}

TEST_P(ObjectivePropertyTest, RemovalLossMatchesReevaluation) {
  // Every storage mode, with S0 in the selection and tied similarities
  // (dense/sparse values on four levels; uniform subsets tie everywhere).
  for (const Subset::SimMode mode :
       {Subset::SimMode::kUniform, Subset::SimMode::kDense,
        Subset::SimMode::kSparse}) {
    RandomInstanceOptions options;
    options.num_photos = 16;
    options.num_subsets = 8;
    options.max_subset_size = 8;
    options.required_fraction = 0.2;
    options.sim_sparsity = 0.3;
    options.sim_levels = 4;
    options.sim_mode = mode;
    const ParInstance instance = MakeRandomInstance(GetParam(), options);
    ASSERT_FALSE(instance.RequiredPhotos().empty());
    Rng rng(GetParam() ^ 0x5e1ec7ULL);
    std::vector<PhotoId> selection = instance.RequiredPhotos();
    std::vector<PhotoId> others;
    for (PhotoId p = 0; p < instance.num_photos(); ++p) {
      if (!instance.IsRequired(p)) others.push_back(p);
    }
    rng.Shuffle(others);
    // Leave at least one photo out, to probe the unselected case.
    const std::size_t extra = 1 + rng.NextBelow(others.size() - 1);
    selection.insert(selection.end(), others.begin(), others.begin() + extra);
    const PhotoId outside = others.back();

    ObjectiveEvaluator evaluator(&instance);
    for (PhotoId p : selection) evaluator.Add(p);
    const double full = ObjectiveEvaluator::Evaluate(instance, selection);
    for (PhotoId victim : selection) {
      std::vector<PhotoId> without;
      for (PhotoId p : selection) {
        if (p != victim) without.push_back(p);
      }
      const double expected =
          full - ObjectiveEvaluator::Evaluate(instance, without);
      EXPECT_NEAR(evaluator.RemovalLoss(victim), expected,
                  1e-12 * std::max(1.0, full))
          << "victim " << victim;

      ObjectiveEvaluator removed = evaluator;
      const std::size_t evals = removed.gain_evaluations();
      EXPECT_EQ(removed.Remove(victim), evaluator.RemovalLoss(victim));
      EXPECT_EQ(removed.gain_evaluations(), evals + 1);
      EXPECT_FALSE(removed.IsSelected(victim));
      ObjectiveEvaluator fresh(&instance);
      for (PhotoId p : without) fresh.Add(p);
      EXPECT_EQ(removed.num_selected(), fresh.num_selected());
      EXPECT_EQ(removed.selected_cost(), fresh.selected_cost());
      EXPECT_NEAR(removed.score(), fresh.score(), 1e-12 * std::max(1.0, full));
      for (PhotoId p = 0; p < instance.num_photos(); ++p) {
        EXPECT_EQ(removed.GainOf(p), fresh.GainOf(p)) << "photo " << p;
      }
      for (SubsetId q = 0; q < instance.num_subsets(); ++q) {
        EXPECT_EQ(removed.SubsetScore(q), fresh.SubsetScore(q))
            << "subset " << q;
      }
    }
    EXPECT_THROW(evaluator.RemovalLoss(outside), CheckFailure);
    EXPECT_THROW(evaluator.Remove(outside), CheckFailure);
  }
}

/// Whether p's gain scan reads any of the `lowered` slots: its own slot and
/// its row's slots in every subset it belongs to (all of a dense or uniform
/// subset's slots).
bool ReadsLoweredSlot(const ParInstance& instance, PhotoId p,
                      const std::vector<Membership>& lowered) {
  for (const Membership& membership : instance.memberships(p)) {
    const Subset& subset = instance.subset(membership.subset);
    for (const Membership& slot : lowered) {
      if (slot.subset != membership.subset) continue;
      if (subset.sim_mode != Subset::SimMode::kSparse) return true;
      if (slot.local_index == membership.local_index) return true;
      const SparseSimRow row = subset.sparse_row(membership.local_index);
      if (std::find(row.indices, row.indices + row.size, slot.local_index) !=
          row.indices + row.size) {
        return true;
      }
    }
  }
  return false;
}

/// Removes `order` one photo at a time from an evaluator holding all of it;
/// after each Remove, every GainOf and SubsetScore must equal a fresh
/// evaluator's bit for bit, and every photo whose gain or subset whose score
/// moved must read a slot Remove reported as lowered.
void ExpectRemoveChainMatchesFresh(const ParInstance& instance,
                                   std::vector<PhotoId> order) {
  ObjectiveEvaluator evaluator(&instance, order);
  while (!order.empty()) {
    const PhotoId victim = order.front();
    order.erase(order.begin());
    std::vector<double> gains_before(instance.num_photos());
    for (PhotoId p = 0; p < instance.num_photos(); ++p) {
      gains_before[p] = evaluator.GainOf(p);
    }
    std::vector<double> scores_before(instance.num_subsets());
    for (SubsetId q = 0; q < instance.num_subsets(); ++q) {
      scores_before[q] = evaluator.SubsetScore(q);
    }
    const double loss = evaluator.RemovalLoss(victim);
    std::vector<Membership> lowered;
    EXPECT_EQ(evaluator.Remove(victim, &lowered), loss);
    const ObjectiveEvaluator fresh(&instance, order);
    EXPECT_NEAR(evaluator.score(), fresh.score(),
                1e-12 * std::max(1.0, fresh.score()));
    for (SubsetId q = 0; q < instance.num_subsets(); ++q) {
      EXPECT_EQ(evaluator.SubsetScore(q), fresh.SubsetScore(q))
          << "victim " << victim << ", subset " << q;
      if (evaluator.SubsetScore(q) != scores_before[q]) {
        EXPECT_TRUE(std::any_of(lowered.begin(), lowered.end(),
                                [&](const Membership& slot) {
                                  return slot.subset == q;
                                }))
            << "subset " << q << " moved without a lowered slot";
      }
    }
    for (PhotoId p = 0; p < instance.num_photos(); ++p) {
      EXPECT_EQ(evaluator.GainOf(p), fresh.GainOf(p))
          << "victim " << victim << ", photo " << p;
      if (p != victim && evaluator.GainOf(p) != gains_before[p]) {
        EXPECT_TRUE(ReadsLoweredSlot(instance, p, lowered))
            << "photo " << p << "'s gain moved without a lowered slot";
      }
    }
  }
}

TEST_P(ObjectivePropertyTest, RemoveChainMatchesFreshEvaluator) {
  for (const Subset::SimMode mode :
       {Subset::SimMode::kUniform, Subset::SimMode::kDense,
        Subset::SimMode::kSparse}) {
    SCOPED_TRACE(static_cast<int>(mode));
    RandomInstanceOptions options;
    options.num_photos = 16;
    options.num_subsets = 8;
    options.max_subset_size = 8;
    options.sim_sparsity = 0.3;
    options.sim_levels = 4;  // many members tie for their best neighbor
    options.sim_mode = mode;
    const ParInstance instance = MakeRandomInstance(GetParam(), options);
    Rng rng(GetParam() ^ 0xc4a1aULL);
    std::vector<PhotoId> order(instance.num_photos());
    for (PhotoId p = 0; p < instance.num_photos(); ++p) order[p] = p;
    rng.Shuffle(order);
    order.resize(1 + rng.NextBelow(order.size()));
    ExpectRemoveChainMatchesFresh(instance, order);
  }
}

TEST_P(ObjectivePropertyTest, SparsifiedRemoveChainMatchesFreshEvaluator) {
  // A dense source may store (i, j) and (j, i) a last float bit apart,
  // which Validate accepts; SparsifyInstance still writes each pair's one
  // value into both rows, so the sparse removal path can re-cover a member
  // from its own row.
  RandomInstanceOptions options;
  options.num_photos = 16;
  options.num_subsets = 8;
  options.max_subset_size = 8;
  options.sim_sparsity = 0.3;
  options.sim_levels = 4;  // many members tie for their best neighbor
  options.sim_mode = Subset::SimMode::kDense;
  ParInstance dense = MakeRandomInstance(GetParam(), options);
  std::size_t skewed = 0;
  for (SubsetId q = 0; q < dense.num_subsets(); ++q) {
    Subset& subset = dense.mutable_subset(q);
    const std::size_t m = subset.size();
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < i; ++j) {
        float& lower = subset.dense_sim[i * m + j];
        if (lower > 0.0f) {
          lower = std::nextafter(lower, 0.0f);
          ++skewed;
        }
      }
    }
  }
  ASSERT_GT(skewed, 0u);
  dense.Validate();
  const ParInstance sparse = SparsifyInstance(dense, 0.5);
  sparse.Validate();
  for (SubsetId q = 0; q < sparse.num_subsets(); ++q) {
    ASSERT_EQ(sparse.subset(q).sim_mode, Subset::SimMode::kSparse);
    // The check SetSparseRows applies to rows from outside.
    EXPECT_TRUE(sparse.subset(q).SparseRowsMirrored()) << "subset " << q;
  }
  Rng rng(GetParam() ^ 0x31e202ULL);
  std::vector<PhotoId> order(sparse.num_photos());
  for (PhotoId p = 0; p < sparse.num_photos(); ++p) order[p] = p;
  rng.Shuffle(order);
  ExpectRemoveChainMatchesFresh(sparse, order);
}

TEST(ObjectiveRemovalTest, DuplicateMemberKeepsEveryBestSim) {
  // Photos 0 and 1 are duplicates (similarity 1, equal rows) in a dense and
  // a sparse subset; photo 3 shares a uniform subset with 1. With both
  // duplicates selected, removing either lowers nothing.
  ParInstance instance(4, {1, 1, 1, 1}, 4);
  Subset dense;
  dense.members = {0, 1, 2, 3};
  dense.sim_mode = Subset::SimMode::kDense;
  dense.dense_sim = {1.0f,  1.0f,  0.5f,  0.25f,  //
                     1.0f,  1.0f,  0.5f,  0.25f,  //
                     0.5f,  0.5f,  1.0f,  0.75f,  //
                     0.25f, 0.25f, 0.75f, 1.0f};
  instance.AddSubset(std::move(dense));
  Subset sparse;
  sparse.members = {2, 0, 1};
  sparse.sim_mode = Subset::SimMode::kSparse;
  sparse.SetSparseRows({{{1, 0.5f}, {2, 0.5f}},
                        {{2, 1.0f}, {0, 0.5f}},  // filled out of order
                        {{0, 0.5f}, {1, 1.0f}}});
  instance.AddSubset(std::move(sparse));
  Subset uniform;
  uniform.members = {1, 3};
  instance.AddSubset(std::move(uniform));
  instance.NormalizeRelevance();
  instance.Validate();

  ObjectiveEvaluator evaluator(&instance, {0, 1, 3});
  const double score = evaluator.score();
  EXPECT_EQ(evaluator.RemovalLoss(0), 0.0);
  std::vector<Membership> lowered;
  EXPECT_EQ(evaluator.Remove(0, &lowered), 0.0);
  EXPECT_TRUE(lowered.empty());
  EXPECT_EQ(evaluator.score(), score);
  const ObjectiveEvaluator fresh(&instance, {1, 3});
  for (PhotoId p = 0; p < instance.num_photos(); ++p) {
    EXPECT_EQ(evaluator.GainOf(p), fresh.GainOf(p)) << "photo " << p;
  }
  ExpectRemoveChainMatchesFresh(instance, {1, 0, 3, 2});
  ExpectRemoveChainMatchesFresh(instance, {3, 2, 1, 0});
}

TEST(InstanceTest, ValidateRejectsUnsortedSparseRows) {
  ParInstance instance(3, {1, 1, 1}, 3);
  Subset sparse;
  sparse.members = {0, 1, 2};
  sparse.sim_mode = Subset::SimMode::kSparse;
  sparse.SetSparseRows({{{2, 0.5f}, {1, 0.5f}}, {{0, 0.5f}}, {{0, 0.5f}}});
  EXPECT_EQ(sparse.sparse_indices[0], 1u) << "SetSparseRows sorts each row";
  std::swap(sparse.sparse_indices[0], sparse.sparse_indices[1]);
  instance.AddSubset(std::move(sparse));
  instance.NormalizeRelevance();
  EXPECT_THROW(instance.Validate(), CheckFailure);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ObjectivePropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

}  // namespace
}  // namespace phocus
