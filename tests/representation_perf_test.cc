#include <gtest/gtest.h>

#include <vector>

#include "kernels/kernels.h"
#include "phocus/representation.h"
#include "telemetry/metrics.h"
#include "util/rng.h"

/// \file representation_perf_test.cc
/// Pins the representation build's machine-independent work, like
/// kernels_perf_smoke's exact caps: a return of LSH or of per-pair norms
/// fails the `perf` tier whatever the host speed. Every τ-sparsified
/// subset, whatever its size, costs one dot per pair plus one norm per
/// member.

namespace phocus {
namespace {

constexpr std::uint64_t kDim = 32;

/// 500 random photos (d = 32) and one prefix subset per entry of `sizes`.
Corpus PrefixSubsetCorpus(const std::vector<std::uint64_t>& sizes) {
  Rng rng(2024);
  Corpus corpus;
  for (Cost p = 0; p < 500; ++p) {
    CorpusPhoto& photo = corpus.photos.emplace_back();
    photo.embedding.resize(kDim);
    for (float& x : photo.embedding) x = static_cast<float>(rng.Normal());
    photo.bytes = 1000 + p;
  }
  for (const std::uint64_t m : sizes) {
    SubsetSpec spec;
    for (PhotoId p = 0; p < m; ++p) spec.members.push_back(p);
    corpus.subsets.push_back(std::move(spec));
  }
  return corpus;
}

/// Builds `corpus` at τ = 0.5 and expects exactly one dot per pair plus
/// one norm per member of every subset with a pair, no SimHash work, and every pair counted once as a
/// candidate.
void ExpectOneDotPerPair(const Corpus& corpus, std::uint64_t pinned_pairs,
                         std::uint64_t pinned_dot_elems) {
  std::uint64_t pairs = 0, dot_elems = 0;
  for (const SubsetSpec& spec : corpus.subsets) {
    const std::uint64_t m = spec.members.size();
    pairs += m * (m - 1) / 2;
    // One dot per pair plus its norms; a lone member has no pair to sweep.
    dot_elems += (m * (m - 1) / 2 + (m < 2 ? 0 : m)) * kDim;
  }
  ASSERT_EQ(pairs, pinned_pairs);
  ASSERT_EQ(dot_elems, pinned_dot_elems);

  RepresentationOptions options;
  options.sparsify_tau = 0.5;
  auto& candidates = telemetry::MetricsRegistry::Current().GetCounter(
      "lsh.candidate_pairs");
  const std::uint64_t candidates_before = candidates.value();
  kernels::ResetOpCounts();
  kernels::SetOpCountingEnabled(true);
  BuildInstance(corpus, corpus.TotalBytes() / 3, options);
  kernels::SetOpCountingEnabled(false);
  const kernels::OpCounts ops = kernels::SnapshotOpCounts();
  EXPECT_EQ(ops.simhash_macs, 0u);
  EXPECT_EQ(ops.dot_elems, dot_elems);
  EXPECT_EQ(candidates.value() - candidates_before, pairs);
}

TEST(RepresentationWorkTest, OneExactSweepPerLargeSubset) {
  // Prefix subsets of 500, 300 and 250 members: sweeps that fan out.
  ExpectOneDotPerPair(PrefixSubsetCorpus({500, 300, 250}), 200725u,
                      6456800u);
}

TEST(RepresentationWorkTest, SmallSubsetsPayOneDotPerPair) {
  // Subsets of 1 to 192 members, each swept inline, with norms computed
  // once per subset rather than twice per pair.
  ExpectOneDotPerPair(PrefixSubsetCorpus({1, 2, 9, 40, 120, 192}), 26293u,
                      852992u);
}

}  // namespace
}  // namespace phocus
