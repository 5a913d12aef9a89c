/// \file ablation_lsh.cc
/// The §4.3 LSH claim: SimHash banding finds "(almost) all sufficiently
/// similar pairs in roughly linear time". This ablation compares exhaustive
/// all-pairs search with the LSH finder on real corpus embeddings across τ,
/// reporting candidate counts, recall, and wall time.
///
/// Extra modes:
///   --lsh-smoke --max-candidates=N   candidate-complexity guard behind the
///                                    lsh_perf_smoke ctest (see
///                                    tests/CMakeLists.txt)
///   --bench-json=FILE                measure all-pairs vs LSH and export
///                                    BENCH_lsh.json records

#include <cstdio>
#include <cstring>
#include <set>
#include <string>

#include "bench/bench_support.h"
#include "datagen/openimages.h"
#include "embedding/vector_ops.h"
#include "lsh/similar_pairs.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/table.h"

namespace phocus {
namespace {

std::vector<Embedding> ClusteredVectors(std::size_t clusters,
                                        std::size_t per_cluster,
                                        std::size_t dim, double noise,
                                        std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Embedding> vectors;
  for (std::size_t c = 0; c < clusters; ++c) {
    Embedding center(dim);
    for (float& v : center) v = static_cast<float>(rng.Normal());
    NormalizeInPlace(center);
    for (std::size_t i = 0; i < per_cluster; ++i) {
      Embedding v = center;
      for (float& x : v) x += static_cast<float>(rng.Normal(0.0, noise));
      NormalizeInPlace(v);
      vectors.push_back(std::move(v));
    }
  }
  return vectors;
}

/// --lsh-smoke: the candidate-complexity guard behind the lsh_perf_smoke
/// ctest. The fixture is fixed-seed and the banding schedule depends only
/// on the options, so candidate_pairs is machine-independent: exceeding the
/// checked-in bound means the bucketing got less selective (a perf
/// regression even when wall time still looks fine on a fast machine).
int RunLshSmoke(std::size_t max_candidates) {
  const std::vector<Embedding> vectors =
      ClusteredVectors(40, 20, 64, 0.04, 77);
  const double tau = 0.85;
  LshPairFinderOptions options;
  options.num_bits = 256;
  options.bands = SuggestBands(options.num_bits, tau);

  PairSearchStats stats;
  LshPairsAbove(vectors, tau, options, &stats);
  std::printf(
      "lsh_perf_smoke: vectors=%zu candidates=%zu pairs=%zu bound=%zu\n",
      vectors.size(), stats.candidate_pairs, stats.output_pairs,
      max_candidates);
  if (max_candidates > 0 && stats.candidate_pairs > max_candidates) {
    std::fprintf(stderr,
                 "FAIL: candidate_pairs %zu exceeds the checked-in bound %zu "
                 "— the banding got less selective\n",
                 stats.candidate_pairs, max_candidates);
    return 1;
  }
  return 0;
}

/// Measurement fixtures for BENCH_lsh.json: the exhaustive sweep and the
/// LSH finder on the same corpus embeddings. gain_evals carries
/// candidate_pairs (the cosine verifications — the machine-independent
/// oracle count) and score carries output_pairs.
void RunBenchRecords(const std::vector<Embedding>& vectors, double tau) {
  bench::SetBenchFixture(StrFormat("corpus_embeddings_m%zu_tau%.2f",
                                   vectors.size(), tau));
  const std::size_t m = vectors.size();
  LshPairFinderOptions options;
  options.num_bits = 512;
  options.bands = SuggestBands(options.num_bits, tau);

  PairSearchStats all_stats;
  AllPairsAbove(vectors, tau, &all_stats);
  bench::RecordBenchResult({"all_pairs", m, 0, all_stats.seconds,
                            all_stats.candidate_pairs,
                            static_cast<double>(all_stats.output_pairs)});

  PairSearchStats lsh_stats;
  LshPairsAbove(vectors, tau, options, &lsh_stats);
  bench::RecordBenchResult({"lsh", m, 0, lsh_stats.seconds,
                            lsh_stats.candidate_pairs,
                            static_cast<double>(lsh_stats.output_pairs)});
}

}  // namespace
}  // namespace phocus

int main(int argc, char** argv) {
  phocus::bench::ParseBenchFlags(&argc, argv);
  bool lsh_smoke = false;
  std::size_t max_candidates = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--lsh-smoke") == 0) {
      lsh_smoke = true;
    } else if (std::strncmp(argv[i], "--max-candidates=", 17) == 0) {
      max_candidates = static_cast<std::size_t>(std::stoull(argv[i] + 17));
    }
  }
  if (lsh_smoke) return phocus::RunLshSmoke(max_candidates);

  using namespace phocus;
  bench::PrintHeader("ablation_lsh", "§4.3 LSH sparsification front-end");
  const std::size_t scale = bench::GetScale();

  OpenImagesOptions options;
  options.num_photos = 4000 / scale;
  options.seed = 55;
  options.near_duplicate_prob = 0.35;
  const Corpus corpus = GenerateOpenImagesCorpus(options);
  std::vector<Embedding> vectors;
  vectors.reserve(corpus.num_photos());
  for (const CorpusPhoto& photo : corpus.photos) {
    vectors.push_back(photo.embedding);
  }
  std::printf("vectors: %zu embeddings of dim %zu\n\n", vectors.size(),
              vectors.empty() ? 0 : vectors[0].size());

  TextTable table;
  table.SetHeader({"tau", "method", "candidates", "pairs found", "recall",
                   "time"});
  for (double tau : {0.75, 0.85, 0.95}) {
    PairSearchStats exhaustive_stats;
    const std::vector<SimilarPair> truth =
        AllPairsAbove(vectors, tau, &exhaustive_stats);
    table.AddRow({StrFormat("%.2f", tau), "all-pairs",
                  StrFormat("%zu", exhaustive_stats.candidate_pairs),
                  StrFormat("%zu", exhaustive_stats.output_pairs), "1.000",
                  StrFormat("%.2fs", exhaustive_stats.seconds)});

    LshPairFinderOptions lsh;
    lsh.num_bits = 512;
    lsh.bands = SuggestBands(lsh.num_bits, tau);
    PairSearchStats lsh_stats;
    const std::vector<SimilarPair> found =
        LshPairsAbove(vectors, tau, lsh, &lsh_stats);
    std::set<std::pair<std::uint32_t, std::uint32_t>> found_set;
    for (const SimilarPair& pair : found) {
      found_set.insert({pair.first, pair.second});
    }
    std::size_t hits = 0;
    for (const SimilarPair& pair : truth) {
      hits += found_set.count({pair.first, pair.second});
    }
    const double recall =
        truth.empty() ? 1.0 : static_cast<double>(hits) / truth.size();
    table.AddRow({StrFormat("%.2f", tau),
                  StrFormat("LSH (%d bands x %d rows)", lsh.bands,
                            lsh.num_bits / lsh.bands),
                  StrFormat("%zu", lsh_stats.candidate_pairs),
                  StrFormat("%zu", lsh_stats.output_pairs),
                  StrFormat("%.3f", recall),
                  StrFormat("%.2fs", lsh_stats.seconds)});
  }
  std::printf("%s", table.Render(
                        "LSH vs exhaustive similar-pair search (corpus "
                        "embeddings)").c_str());
  if (bench::BenchJsonRequested()) {
    // τ = 0.95 is where the banding actually prunes on this near-dup-heavy
    // corpus (lower τ collides almost everything; see the table above).
    RunBenchRecords(vectors, 0.95);
  }
  phocus::bench::ExportTelemetryIfRequested();
  phocus::bench::ExportBenchJsonIfRequested("ablation_lsh");
  return 0;
}
