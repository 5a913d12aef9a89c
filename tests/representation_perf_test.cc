#include <gtest/gtest.h>

#include "kernels/kernels.h"
#include "phocus/representation.h"
#include "telemetry/metrics.h"
#include "util/rng.h"

/// \file representation_perf_test.cc
/// Pins the representation build's machine-independent work, like
/// kernels_perf_smoke's exact caps: a return of LSH or of per-pair norms
/// fails the `perf` tier whatever the host speed.

namespace phocus {
namespace {

TEST(RepresentationWorkTest, OneExactSweepPerLargeSubset) {
  // 500 random photos (d = 32) and prefix subsets of 500, 300 and 250
  // members, all above the 192-member dense cutoff.
  constexpr std::uint64_t kDim = 32;
  Rng rng(2024);
  Corpus corpus;
  for (Cost p = 0; p < 500; ++p) {
    CorpusPhoto& photo = corpus.photos.emplace_back();
    photo.embedding.resize(kDim);
    for (float& x : photo.embedding) x = static_cast<float>(rng.Normal());
    photo.bytes = 1000 + p;
  }
  std::uint64_t pairs = 0, dot_elems = 0;
  for (const std::uint64_t m : {500, 300, 250}) {
    SubsetSpec spec;
    for (PhotoId p = 0; p < m; ++p) spec.members.push_back(p);
    corpus.subsets.push_back(std::move(spec));
    pairs += m * (m - 1) / 2;
    dot_elems += (m * (m - 1) / 2 + m) * kDim;  // one dot per pair + norms
  }
  ASSERT_EQ(pairs, 200725u);  // the pinned figures
  ASSERT_EQ(dot_elems, 6456800u);

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

}  // namespace
}  // namespace phocus
