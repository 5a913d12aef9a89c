#include "lsh/similar_pairs.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "embedding/pair_sweep.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "util/logging.h"

namespace phocus {

namespace internal {

void ReportPairSearch(telemetry::TraceSpan& span, std::size_t vectors,
                      std::size_t candidates, std::size_t outputs) {
  auto& registry = telemetry::MetricsRegistry::Current();
  registry.GetCounter("lsh.candidate_pairs").Add(candidates);
  registry.GetCounter("lsh.output_pairs").Add(outputs);
  span.SetAttribute("vectors", static_cast<std::uint64_t>(vectors));
  span.SetAttribute("candidate_pairs", static_cast<std::uint64_t>(candidates));
  span.SetAttribute("output_pairs", static_cast<std::uint64_t>(outputs));
}

}  // namespace internal

std::vector<SimilarPair> AllPairsAbove(const std::vector<Embedding>& vectors,
                                       double tau, PairSearchStats* stats) {
  telemetry::TraceSpan span("lsh.all_pairs");
  std::vector<float> buffer;
  const RowMatrix matrix = GatherRows(
      vectors.size(),
      [&](std::size_t k) -> const Embedding& { return vectors[k]; }, buffer);
  const std::vector<std::vector<SimilarPair>> tiles =
      SweepPairs<std::vector<SimilarPair>>(
          matrix, [tau](std::vector<SimilarPair>& out, std::size_t i,
                         std::size_t j, double sim) {
            if (sim >= tau) {
              out.push_back({static_cast<std::uint32_t>(i),
                             static_cast<std::uint32_t>(j),
                             static_cast<float>(sim)});
            }
          });
  std::vector<SimilarPair> pairs;
  for (const std::vector<SimilarPair>& out : tiles) {
    pairs.insert(pairs.end(), out.begin(), out.end());
  }
  const std::size_t m = vectors.size();
  const std::size_t candidates = m < 2 ? 0 : m * (m - 1) / 2;
  if (stats != nullptr) {
    stats->vectors = m;
    stats->candidate_pairs = candidates;
    stats->output_pairs = pairs.size();
    stats->seconds = span.ElapsedSeconds();
  }
  internal::ReportPairSearch(span, m, candidates, pairs.size());
  return pairs;
}

int SuggestBands(int num_bits, double tau) {
  PHOCUS_CHECK(num_bits > 0, "num_bits must be positive");
  PHOCUS_CHECK(tau > -1.0 && tau < 1.0, "tau must be in (-1, 1)");
  // Per-bit collision probability at similarity tau.
  const double p = 1.0 - std::acos(std::clamp(tau, -1.0, 1.0)) / M_PI;
  // Pick the longest rows-per-band r (most selective bands) such that a
  // τ-similar pair still collides in ~2.5 bands in expectation:
  // b · p^r >= 2.5  =>  recall ≈ 1 − e^{−2.5} ≈ 92% per τ-pair (in practice
  // higher, since most kept pairs sit well above τ). Longer rows crush the
  // candidate count for background pairs, which is the whole point of
  // banding. Bands must divide num_bits and rows must fit one 64-bit word.
  for (int bands = 1; bands <= num_bits; ++bands) {
    if (num_bits % bands != 0) continue;
    const int rows = num_bits / bands;
    if (rows > 64) continue;
    if (static_cast<double>(bands) * std::pow(p, rows) >= 2.5) return bands;
  }
  // Even single-bit bands cannot reach the recall target (tiny p): fall back
  // to the maximally permissive valid layout.
  return num_bits;
}

std::vector<SimilarPair> LshPairsAbove(const std::vector<Embedding>& vectors,
                                       double tau,
                                       const LshPairFinderOptions& options,
                                       PairSearchStats* stats) {
  telemetry::TraceSpan span("lsh.pairs_above");
  std::vector<SimilarPair> pairs;
  const std::size_t m = vectors.size();
  if (m < 2) {
    if (stats != nullptr) *stats = {m, 0, 0, span.ElapsedSeconds()};
    return pairs;
  }
  span.SetAttribute("bands", static_cast<std::uint64_t>(options.bands));
  telemetry::Histogram& bucket_hist =
      telemetry::MetricsRegistry::Current().GetHistogram("lsh.bucket_size");
  PHOCUS_CHECK(options.bands > 0 && options.num_bits % options.bands == 0,
               "bands must divide num_bits");
  const int rows = options.num_bits / options.bands;
  PHOCUS_CHECK(rows >= 1 && rows <= 64,
               "rows per band must fit in one 64-bit word");

  const SimHasher hasher(vectors[0].size(), options.num_bits, options.seed);
  std::vector<SimHashSignature> signatures(m);
  for (std::size_t i = 0; i < m; ++i) {
    hasher.SignatureInto(vectors[i], &signatures[i]);
  }

  // Extract `rows` consecutive bits starting at bit offset `begin`.
  auto band_key = [&](const SimHashSignature& sig, int begin) -> std::uint64_t {
    std::uint64_t key = 0;
    for (int b = 0; b < rows; ++b) {
      const int bit = begin + b;
      const std::uint64_t word = sig[static_cast<std::size_t>(bit) / 64];
      key |= ((word >> (static_cast<std::size_t>(bit) % 64)) & 1ULL)
             << static_cast<unsigned>(b);
    }
    return key;
  };

  std::unordered_set<std::uint64_t> seen_pairs;
  std::size_t candidates = 0;
  for (int band = 0; band < options.bands; ++band) {
    const int begin = band * rows;
    std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> buckets;
    buckets.reserve(m);
    for (std::size_t i = 0; i < m; ++i) {
      buckets[band_key(signatures[i], begin)].push_back(
          static_cast<std::uint32_t>(i));
    }
    for (const auto& [key, bucket] : buckets) {
      (void)key;
      if (bucket.size() < 2) continue;
      // Only colliding buckets are recorded: singleton buckets generate no
      // candidates and would swamp the histogram with noise.
      bucket_hist.Record(static_cast<double>(bucket.size()));
      for (std::size_t a = 0; a < bucket.size(); ++a) {
        for (std::size_t b = a + 1; b < bucket.size(); ++b) {
          const std::uint64_t pair_id =
              (static_cast<std::uint64_t>(bucket[a]) << 32) | bucket[b];
          if (!seen_pairs.insert(pair_id).second) continue;
          ++candidates;
          const double sim = CosineSimilarity(vectors[bucket[a]], vectors[bucket[b]]);
          if (sim >= tau) {
            pairs.push_back({bucket[a], bucket[b], static_cast<float>(sim)});
          }
        }
      }
    }
  }
  std::sort(pairs.begin(), pairs.end(), [](const SimilarPair& x, const SimilarPair& y) {
    return x.first != y.first ? x.first < y.first : x.second < y.second;
  });
  if (stats != nullptr) {
    stats->vectors = m;
    stats->candidate_pairs = candidates;
    stats->output_pairs = pairs.size();
    stats->seconds = span.ElapsedSeconds();
  }
  internal::ReportPairSearch(span, m, candidates, pairs.size());
  return pairs;
}

}  // namespace phocus
