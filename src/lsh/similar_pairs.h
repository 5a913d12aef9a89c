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
/// thread count. The vectors are gathered once into one row-major matrix
/// for a single SweepPairs call (embedding/pair_sweep.h), so each norm is
/// computed once per call.
std::vector<SimilarPair> AllPairsAbove(const std::vector<Embedding>& vectors,
                                       double tau,
                                       PairSearchStats* stats = nullptr);

/// LSH-accelerated search. With well-chosen (num_bits, bands) this finds,
/// with high probability, almost all pairs with cosine >= tau while
/// verifying far fewer than m² candidates. Single-threaded; each candidate is
/// verified with the exact CosineSimilarity, and pairs come back in
/// (first asc, second asc) order.
std::vector<SimilarPair> LshPairsAbove(const std::vector<Embedding>& vectors,
                                       double tau,
                                       const LshPairFinderOptions& options = {},
                                       PairSearchStats* stats = nullptr);

/// Picks a bands count whose per-band collision threshold
/// (1 − θ/π)^{rows} ≈ 50% at cosine = tau, given the bit budget. Exposed so
/// callers/benches can reproduce the auto-tuning.
int SuggestBands(int num_bits, double tau);

namespace internal {
/// Flushes pair-search accounting into the telemetry registry (shared by
/// the exhaustive and LSH finders).
void ReportPairSearch(telemetry::TraceSpan& span, std::size_t vectors,
                      std::size_t candidates, std::size_t outputs);
}  // namespace internal

}  // namespace phocus

#endif  // PHOCUS_LSH_SIMILAR_PAIRS_H_
