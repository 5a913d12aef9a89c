#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "embedding/vector_ops.h"
#include "lsh/similar_pairs.h"
#include "lsh/simhash_index.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/rng.h"

/// \file lsh_equivalence_test.cc
/// The parallel sharded pair-search engine must be bit-identical to the
/// serial reference: same pairs (ids and similarity bits), same
/// deterministic stats, for any shard count — and an incrementally grown
/// SimHashIndex must equal a from-scratch build.
/// Cross-PHOCUS_NUM_THREADS determinism is covered by the lsh_determinism
/// subprocess ctest (the pool size is fixed per process); these tests run
/// on whatever pool this process has plus every shard layout.

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

TEST(LshEquivalenceTest, ParallelMatchesSerialAcrossShardCounts) {
  const auto vectors = MakeClusteredVectors(24, 14, 48, 0.08, 101);
  const double tau = 0.8;
  LshPairFinderOptions options;
  options.num_bits = 256;
  options.bands = SuggestBands(options.num_bits, tau);

  PairSearchStats serial_stats;
  const std::vector<SimilarPair> serial =
      LshPairsAboveSerial(vectors, tau, options, &serial_stats);
  ASSERT_GT(serial.size(), 0u);

  for (int shards : {0, 1, 2, 3, 7, 16, 64, 1024}) {
    LshPairFinderOptions sharded = options;
    sharded.num_shards = shards;
    PairSearchStats stats;
    const std::vector<SimilarPair> parallel =
        LshPairsAbove(vectors, tau, sharded, &stats);
    SCOPED_TRACE("num_shards=" + std::to_string(shards));
    ExpectIdenticalPairs(parallel, serial);
    EXPECT_EQ(stats.vectors, serial_stats.vectors);
    EXPECT_EQ(stats.candidate_pairs, serial_stats.candidate_pairs);
    EXPECT_EQ(stats.output_pairs, serial_stats.output_pairs);
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

TEST(SimHashIndexTest, IncrementalExtensionMatchesFromScratch) {
  const auto vectors = MakeClusteredVectors(20, 15, 40, 0.1, 303);
  const double tau = 0.75;
  LshPairFinderOptions options;
  options.num_bits = 128;
  options.bands = SuggestBands(options.num_bits, tau);

  SimHashIndex scratch(vectors[0].size(), options);
  scratch.Add(vectors);
  PairSearchStats scratch_stats;
  const std::vector<SimilarPair> scratch_pairs =
      scratch.PairsAbove(vectors, tau, &scratch_stats);
  ASSERT_GT(scratch_pairs.size(), 0u);

  // Grow the same index in three batches; the final index must answer
  // identically.
  SimHashIndex grown(vectors[0].size(), options);
  const std::size_t cut1 = vectors.size() / 3;
  const std::size_t cut2 = 2 * vectors.size() / 3;
  grown.Add({vectors.begin(), vectors.begin() + cut1});
  grown.Add({vectors.begin(), vectors.begin() + cut2});
  grown.Add(vectors);
  EXPECT_EQ(grown.size(), vectors.size());
  PairSearchStats grown_stats;
  const std::vector<SimilarPair> grown_pairs =
      grown.PairsAbove(vectors, tau, &grown_stats);
  ExpectIdenticalPairs(grown_pairs, scratch_pairs);
  EXPECT_EQ(grown_stats.candidate_pairs, scratch_stats.candidate_pairs);
}

TEST(SimHashIndexTest, GuardsMisuse) {
  LshPairFinderOptions options;
  options.num_bits = 100;
  options.bands = 7;  // does not divide
  EXPECT_THROW(SimHashIndex(16, options), CheckFailure);

  LshPairFinderOptions good;
  good.num_bits = 128;
  good.bands = 16;
  SimHashIndex index(8, good);
  const auto vectors = MakeClusteredVectors(2, 4, 8, 0.2, 505);
  index.Add(vectors);
  // Shrinking the indexed set is a contract violation.
  EXPECT_THROW(index.Add({vectors.begin(), vectors.begin() + 2}),
               CheckFailure);
  // PairsAbove needs the full indexed set for verification.
  EXPECT_THROW(
      index.PairsAbove({vectors.begin(), vectors.begin() + 3}, 0.5),
      CheckFailure);
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

TEST(LshFailpointTest, BucketizeAndVerifyFailpointsFire) {
  const auto vectors = MakeClusteredVectors(4, 8, 16, 0.1, 606);
  {
    failpoint::ScopedFailpoint arm("lsh.bucketize", "error");
    EXPECT_THROW(LshPairsAbove(vectors, 0.8), failpoint::InjectedFault);
  }
  {
    failpoint::ScopedFailpoint arm("lsh.verify", "error");
    EXPECT_THROW(LshPairsAbove(vectors, 0.8), failpoint::InjectedFault);
  }
  // Disarmed again: the search works.
  EXPECT_NO_THROW(LshPairsAbove(vectors, 0.8));
}

}  // namespace
}  // namespace phocus
