#include "embedding/context.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "embedding/pair_sweep.h"
#include "util/logging.h"

namespace phocus {

namespace {

/// Distance in [0,1] combining visual (1 - cos⁺) and EXIF terms.
double ContextDistance(double cosine, const std::vector<ExifMetadata>* exif,
                       std::uint32_t a, std::uint32_t b,
                       const ContextSimilarityOptions& options) {
  const double visual = 1.0 - std::min(1.0, std::max(0.0, cosine));
  if (options.exif_weight <= 0.0 || exif == nullptr) return visual;
  const double meta = ExifMetadata::Distance((*exif)[a], (*exif)[b]);
  return (1.0 - options.exif_weight) * visual + options.exif_weight * meta;
}

double PairDistance(const std::vector<Embedding>& embeddings,
                    const std::vector<ExifMetadata>* exif, std::uint32_t a,
                    std::uint32_t b, const ContextSimilarityOptions& options) {
  return ContextDistance(CosineSimilarity(embeddings[a], embeddings[b]), exif,
                         a, b, options);
}

/// The context's distance scale: 1/max pairwise distance when
/// renormalizing, else 1.
double ContextScale(double max_distance,
                    const ContextSimilarityOptions& options) {
  return (options.context_normalize && max_distance > 0.0)
             ? 1.0 / max_distance
             : 1.0;
}

/// SIM of a pair at distance `d` in a context of distance scale `scale`.
float ScaledSimilarity(double d, double scale,
                       const ContextSimilarityOptions& options) {
  double sim = 1.0 - std::min(1.0, d * scale);
  if (sim < options.min_similarity) sim = 0.0;
  return static_cast<float>(sim);
}

}  // namespace

double RawSimilarity(const std::vector<Embedding>& embeddings,
                     const std::vector<ExifMetadata>* exif, std::uint32_t a,
                     std::uint32_t b,
                     const ContextSimilarityOptions& options) {
  if (a == b) return 1.0;
  const double sim = 1.0 - PairDistance(embeddings, exif, a, b, options);
  return sim >= options.min_similarity ? sim : 0.0;
}

std::vector<float> SubsetSimilarityMatrix(
    const std::vector<Embedding>& embeddings,
    const std::vector<ExifMetadata>* exif,
    const std::vector<std::uint32_t>& members,
    const ContextSimilarityOptions& options) {
  const std::size_t m = members.size();
  for (std::uint32_t id : members) {
    PHOCUS_CHECK(id < embeddings.size(), "member photo id out of range");
  }
  if (options.exif_weight > 0.0) {
    PHOCUS_CHECK(exif != nullptr && exif->size() == embeddings.size(),
                 "EXIF metadata required when exif_weight > 0");
  }
  std::vector<float> matrix(m * m, 0.0f);

  // First pass: raw distances + the context's max pairwise distance.
  std::vector<double> distance(m * m, 0.0);
  double max_distance = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = i + 1; j < m; ++j) {
      const double d =
          PairDistance(embeddings, exif, members[i], members[j], options);
      distance[i * m + j] = d;
      distance[j * m + i] = d;
      max_distance = std::max(max_distance, d);
    }
  }
  const double scale = ContextScale(max_distance, options);

  for (std::size_t i = 0; i < m; ++i) {
    matrix[i * m + i] = 1.0f;
    for (std::size_t j = i + 1; j < m; ++j) {
      const float sim = ScaledSimilarity(distance[i * m + j], scale, options);
      matrix[i * m + j] = sim;
      matrix[j * m + i] = sim;
    }
  }
  return matrix;
}

SparseSimilarity SubsetSimilarityAbove(
    const RowMatrix& vectors, const std::vector<ExifMetadata>* exif,
    double tau, const ContextSimilarityOptions& options) {
  const std::size_t m = vectors.rows;
  PHOCUS_CHECK(tau > 0.0 && tau <= 1.0, "tau must be in (0, 1]");
  PHOCUS_CHECK(options.exif_weight >= 0.0 && options.exif_weight <= 1.0,
               "exif_weight must be in [0, 1]");
  if (options.exif_weight > 0.0) {
    PHOCUS_CHECK(exif != nullptr && exif->size() == m,
                 "EXIF metadata required when exif_weight > 0");
  }
  // Every distance lies in [0, 1], so the max is at most 1 and the scale at
  // least 1 (a few ulps below in the worst rounding): SIM(i, j) <= 1 − d.
  // A kept pair therefore has d <= 1 − τ; the margin covers the float
  // rounding of SIM and τ with room to spare.
  constexpr double kKeepMargin = 1e-6;
  const double keep_below = 1.0 - tau + kKeepMargin;
  struct Candidate {
    std::uint32_t first;
    std::uint32_t second;
    double distance;
  };
  struct Tile {
    std::vector<Candidate> kept;
    double max_distance = 0.0;
  };
  const std::vector<Tile> tiles = SweepPairs<Tile>(
      vectors,
      [&](Tile& tile, std::size_t i, std::size_t j, double cosine) {
        const auto a = static_cast<std::uint32_t>(i);
        const auto b = static_cast<std::uint32_t>(j);
        const double d = ContextDistance(cosine, exif, a, b, options);
        tile.max_distance = std::max(tile.max_distance, d);
        if (d <= keep_below) tile.kept.push_back({a, b, d});
      });
  double max_distance = 0.0;
  std::size_t kept = 0;
  for (const Tile& tile : tiles) {
    max_distance = std::max(max_distance, tile.max_distance);
    kept += tile.kept.size();
  }
  const double scale = ContextScale(max_distance, options);
  const float tau_f = static_cast<float>(tau);
  auto keep = [&](float s) { return s >= tau_f && s > 0.0f; };

  // The tiles gathered into one list in (first, second) order, as
  // AllPairsAbove gathers its output. Measured on the plan_cold benchmark,
  // reading the tiles in place instead left glibc's dynamic mmap threshold
  // low, so later large blocks were mapped and trimmed again: session loads
  // took ~30% longer and solves slowed.
  std::vector<Candidate> candidates;
  candidates.reserve(kept);
  for (const Tile& tile : tiles) {
    candidates.insert(candidates.end(), tile.kept.begin(), tile.kept.end());
  }

  // Fill the CSR arrays in place, without per-row vectors. Candidates come
  // in (first, second) order, so each row fills in ascending order.
  SparseSimilarity out;
  out.offsets.assign(m + 1, 0);
  for (const Candidate& c : candidates) {
    if (!keep(ScaledSimilarity(c.distance, scale, options))) continue;
    ++out.offsets[c.first + 1];
    ++out.offsets[c.second + 1];
  }
  std::partial_sum(out.offsets.begin(), out.offsets.end(),
                   out.offsets.begin());
  out.indices.resize(out.offsets[m]);
  out.values.resize(out.offsets[m]);
  std::vector<std::uint32_t> next(out.offsets.begin(), out.offsets.end() - 1);
  for (const Candidate& c : candidates) {
    const float s = ScaledSimilarity(c.distance, scale, options);
    if (!keep(s)) continue;
    out.indices[next[c.first]] = c.second;
    out.values[next[c.first]++] = s;
    out.indices[next[c.second]] = c.first;
    out.values[next[c.second]++] = s;
  }
  return out;
}

}  // namespace phocus
