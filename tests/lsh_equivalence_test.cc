#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "embedding/vector_ops.h"
#include "lsh/similar_pairs.h"
#include "util/rng.h"

/// \file lsh_equivalence_test.cc
/// The tiled all-pairs sweep must be bit-identical to a plain serial
/// upper-triangle loop: same pairs (ids and similarity bits) and the same
/// deterministic stats. Cross-PHOCUS_NUM_THREADS determinism is covered by
/// the lsh_determinism subprocess ctest (the pool size is fixed per
/// process). Also the SuggestBands property grid.

namespace phocus {
namespace {

std::vector<Embedding> MakeClusteredVectors(std::size_t clusters,
                                            std::size_t per_cluster,
                                            std::size_t dim,
                                            double within_noise,
                                            std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Embedding> vectors;
  for (std::size_t c = 0; c < clusters; ++c) {
    Embedding center(dim);
    for (float& v : center) v = static_cast<float>(rng.Normal());
    NormalizeInPlace(center);
    for (std::size_t i = 0; i < per_cluster; ++i) {
      Embedding v = center;
      for (float& x : v) x += static_cast<float>(rng.Normal(0.0, within_noise));
      NormalizeInPlace(v);
      vectors.push_back(std::move(v));
    }
  }
  return vectors;
}

void ExpectIdenticalPairs(const std::vector<SimilarPair>& got,
                          const std::vector<SimilarPair>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].first, want[i].first) << "pair " << i;
    EXPECT_EQ(got[i].second, want[i].second) << "pair " << i;
    // Bit-identical, not approximately equal: both paths must perform the
    // exact same CosineSimilarity computation.
    EXPECT_EQ(got[i].similarity, want[i].similarity) << "pair " << i;
  }
}

TEST(LshEquivalenceTest, AllPairsTiledMatchesSerialSweep) {
  const auto vectors = MakeClusteredVectors(9, 13, 32, 0.2, 202);
  const double tau = 0.7;
  // Straight serial reference of the upper-triangle sweep.
  std::vector<SimilarPair> serial;
  for (std::size_t i = 0; i < vectors.size(); ++i) {
    for (std::size_t j = i + 1; j < vectors.size(); ++j) {
      const double sim = CosineSimilarity(vectors[i], vectors[j]);
      if (sim >= tau) {
        serial.push_back({static_cast<std::uint32_t>(i),
                          static_cast<std::uint32_t>(j),
                          static_cast<float>(sim)});
      }
    }
  }
  ASSERT_GT(serial.size(), 0u);
  PairSearchStats stats;
  const std::vector<SimilarPair> tiled = AllPairsAbove(vectors, tau, &stats);
  ExpectIdenticalPairs(tiled, serial);
  EXPECT_EQ(stats.vectors, vectors.size());
  EXPECT_EQ(stats.candidate_pairs,
            vectors.size() * (vectors.size() - 1) / 2);
  EXPECT_EQ(stats.output_pairs, serial.size());
}

TEST(SuggestBandsTest, PropertyGrid) {
  for (int bits : {32, 64, 96, 128, 256, 512}) {
    int previous_bands = bits + 1;
    for (double tau = 0.05; tau < 0.99; tau += 0.05) {
      const int bands = SuggestBands(bits, tau);
      SCOPED_TRACE("bits=" + std::to_string(bits) +
                   " tau=" + std::to_string(tau));
      ASSERT_GT(bands, 0);
      EXPECT_EQ(bits % bands, 0);
      EXPECT_LE(bits / bands, 64);
      // Monotone: a higher τ affords longer (more selective) rows, so the
      // suggested band count never increases with τ.
      EXPECT_LE(bands, previous_bands);
      previous_bands = bands;
    }
  }
}

}  // namespace
}  // namespace phocus
