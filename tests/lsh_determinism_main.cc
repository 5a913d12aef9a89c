#include <cstdint>
#include <cstdio>
#include <cstring>

#include "embedding/vector_ops.h"
#include "kernels/kernels.h"
#include "lsh/similar_pairs.h"
#include "util/rng.h"

/// \file lsh_determinism_main.cc
/// Emits the full output of both pair finders — every pair with its
/// similarity as raw float bits, plus the deterministic PairSearchStats
/// fields — on stdout. cmake/plan_determinism.cmake runs this binary under
/// every kernel table × PHOCUS_NUM_THREADS=1, =4, and unset (the variable
/// is read once per process at the first ThreadPool::Global() call, so each
/// count needs its own process) and fails unless every run is
/// byte-identical: the tiled AllPairsAbove sweep fans out over the pool,
/// and LshPairsAbove's signatures go through the dispatched SimHash kernel.

namespace {

std::vector<phocus::Embedding> MakeVectors() {
  phocus::Rng rng(4242);
  std::vector<phocus::Embedding> vectors;
  const std::size_t clusters = 30;
  const std::size_t per_cluster = 12;
  const std::size_t dim = 64;
  for (std::size_t c = 0; c < clusters; ++c) {
    phocus::Embedding center(dim);
    for (float& v : center) v = static_cast<float>(rng.Normal());
    phocus::NormalizeInPlace(center);
    for (std::size_t i = 0; i < per_cluster; ++i) {
      phocus::Embedding v = center;
      for (float& x : v) x += static_cast<float>(rng.Normal(0.0, 0.1));
      phocus::NormalizeInPlace(v);
      vectors.push_back(std::move(v));
    }
  }
  return vectors;
}

void PrintPairs(const char* label, const std::vector<phocus::SimilarPair>& pairs,
                const phocus::PairSearchStats& stats) {
  // seconds is wall time and legitimately varies; every other field must
  // not.
  std::printf("%s vectors=%zu candidates=%zu outputs=%zu pairs=%zu\n", label,
              stats.vectors, stats.candidate_pairs, stats.output_pairs,
              pairs.size());
  for (const phocus::SimilarPair& pair : pairs) {
    std::uint32_t bits = 0;
    static_assert(sizeof(bits) == sizeof(pair.similarity));
    std::memcpy(&bits, &pair.similarity, sizeof(bits));
    std::printf("%u %u %08x\n", pair.first, pair.second, bits);
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--list-kernels") == 0) {
    // The driver script (cmake/plan_determinism.cmake) sweeps
    // PHOCUS_KERNELS over every table this machine can run.
    std::puts("scalar");
    if (phocus::kernels::Avx2Table() != nullptr) std::puts("avx2");
    return 0;
  }
  const std::vector<phocus::Embedding> vectors = MakeVectors();
  for (double tau : {0.7, 0.85}) {
    phocus::LshPairFinderOptions options;
    options.num_bits = 256;
    options.bands = phocus::SuggestBands(options.num_bits, tau);
    phocus::PairSearchStats lsh_stats;
    const std::vector<phocus::SimilarPair> lsh =
        phocus::LshPairsAbove(vectors, tau, options, &lsh_stats);
    PrintPairs("lsh", lsh, lsh_stats);

    phocus::PairSearchStats all_stats;
    const std::vector<phocus::SimilarPair> all =
        phocus::AllPairsAbove(vectors, tau, &all_stats);
    PrintPairs("all-pairs", all, all_stats);
  }
  return 0;
}
