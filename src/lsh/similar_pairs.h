#ifndef PHOCUS_LSH_SIMILAR_PAIRS_H_
#define PHOCUS_LSH_SIMILAR_PAIRS_H_

#include <cstdint>
#include <vector>

#include "embedding/vector_ops.h"
#include "lsh/simhash.h"
#include "telemetry/trace.h"

/// \file similar_pairs.h
/// τ-similar pair discovery: the "roughly linear time" candidate generation
/// of §4.3. Signatures are split into bands; vectors sharing any band bucket
/// become candidate pairs, and candidates are verified with exact cosine.

namespace phocus {

/// One verified similar pair (i < j) with its exact cosine similarity.
struct SimilarPair {
  std::uint32_t first = 0;
  std::uint32_t second = 0;
  float similarity = 0.0f;
  bool operator==(const SimilarPair&) const = default;
};

struct LshPairFinderOptions {
  int num_bits = 128;      ///< total signature bits
  int bands = 16;          ///< bands; rows per band = num_bits / bands
  std::uint64_t seed = 0x5151515151ULL;
  /// Candidate-dedup shards for the parallel verification sweep; 0 = auto
  /// (scales with the global thread pool). Never affects the result — pair
  /// ownership is a pure function of the smaller pair id — only how the
  /// dedup/verify work is partitioned.
  int num_shards = 0;
};

/// Instrumentation returned by the finders (fed to the ablation bench).
struct PairSearchStats {
  std::size_t vectors = 0;
  std::size_t candidate_pairs = 0;  ///< pairs that reached verification
  std::size_t output_pairs = 0;     ///< pairs with similarity >= tau
  double seconds = 0.0;
};

/// Exhaustive O(m²) sweep (the §4.3 exact baseline): every pair with
/// CosineSimilarity >= tau, bit for bit, in (i asc, j asc) order for any
/// thread count. One SweepPairs call (embedding/pair_sweep.h), so each norm
/// is computed once per call.
std::vector<SimilarPair> AllPairsAbove(const std::vector<Embedding>& vectors,
                                       double tau,
                                       PairSearchStats* stats = nullptr);

/// LSH-accelerated search. With well-chosen (num_bits, bands) this finds,
/// with high probability, almost all pairs with cosine >= tau while
/// verifying far fewer than m² candidates. Runs on the parallel sharded
/// SimHashIndex engine (see lsh/simhash_index.h); output and stats (modulo
/// `seconds`) are bit-identical to LshPairsAboveSerial for any
/// PHOCUS_NUM_THREADS and shard count.
std::vector<SimilarPair> LshPairsAbove(const std::vector<Embedding>& vectors,
                                       double tau,
                                       const LshPairFinderOptions& options = {},
                                       PairSearchStats* stats = nullptr);

/// The single-threaded reference implementation of LshPairsAbove — the
/// semantic spec the parallel engine is tested against (and the baseline
/// BENCH_lsh.json measures speedup over). `options.num_shards` is ignored.
std::vector<SimilarPair> LshPairsAboveSerial(
    const std::vector<Embedding>& vectors, double tau,
    const LshPairFinderOptions& options = {},
    PairSearchStats* stats = nullptr);

/// Picks a bands count whose per-band collision threshold
/// (1 − θ/π)^{rows} ≈ 50% at cosine = tau, given the bit budget. Exposed so
/// callers/benches can reproduce the auto-tuning.
int SuggestBands(int num_bits, double tau);

namespace internal {
/// Flushes pair-search accounting into the telemetry registry (shared by
/// the exhaustive, serial-LSH, and indexed-LSH finders).
void ReportPairSearch(telemetry::TraceSpan& span, std::size_t vectors,
                      std::size_t candidates, std::size_t outputs);
}  // namespace internal

}  // namespace phocus

#endif  // PHOCUS_LSH_SIMILAR_PAIRS_H_
