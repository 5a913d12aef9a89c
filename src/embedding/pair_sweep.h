#ifndef PHOCUS_EMBEDDING_PAIR_SWEEP_H_
#define PHOCUS_EMBEDDING_PAIR_SWEEP_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "embedding/vector_ops.h"
#include "util/thread_pool.h"

/// \file pair_sweep.h
/// The exhaustive O(m²) pair sweep shared by the τ-sparsified contextual
/// SIM (SubsetSimilarityAbove) and the §4.3 exact baseline (AllPairsAbove).

namespace phocus {

/// Calls `visit(tile, i, j, cosine)` for every pair i < j of `vectors`.
/// `cosine` is CosineSimilarity(vectors[i], vectors[j]) bit for bit (its
/// expression and zero-norm rule: a product of float norms is zero only
/// when one of them is), with each norm computed once per call, so a pair
/// costs one Dot.
///
/// Rows are split into contiguous tiles, each with its own `Tile` state;
/// a tile visits its rows in (i asc, j asc) order, and the tiles come back
/// in row order, so folding them in order reproduces the serial sweep for
/// any thread count. Several tiles per worker compensate for the triangle's
/// shrinking rows; a sweep too small to pay for a fan-out is one tile and
/// runs on the calling thread.
template <typename Tile, typename Visit>
std::vector<Tile> SweepPairs(const std::vector<Embedding>& vectors,
                             const Visit& visit) {
  constexpr std::size_t kMinPairsPerTile = 4096;
  const std::size_t m = vectors.size();
  if (m < 2) return {};
  std::vector<double> norms(m);
  for (std::size_t i = 0; i < m; ++i) norms[i] = Norm(vectors[i]);
  const std::size_t pairs = m * (m - 1) / 2;
  const std::size_t max_tiles =
      std::min(m - 1, ThreadPool::Global().num_threads() * 8);
  const std::size_t tiles =
      std::clamp<std::size_t>(pairs / kMinPairsPerTile, 1, max_tiles);
  const std::size_t rows_per_tile = (m - 1 + tiles - 1) / tiles;
  std::vector<Tile> out(tiles);
  auto sweep_tile = [&](std::size_t tile) {
    const std::size_t row_begin = tile * rows_per_tile;
    const std::size_t row_end = std::min(m - 1, row_begin + rows_per_tile);
    Tile& state = out[tile];
    for (std::size_t i = row_begin; i < row_end; ++i) {
      for (std::size_t j = i + 1; j < m; ++j) {
        const double norms_product = norms[i] * norms[j];
        const double cosine = norms_product == 0.0
                                  ? 0.0
                                  : Dot(vectors[i], vectors[j]) / norms_product;
        visit(state, i, j, cosine);
      }
    }
  };
  if (tiles == 1) {
    sweep_tile(0);
  } else {
    ThreadPool::Global().ParallelFor(tiles, sweep_tile);
  }
  return out;
}

}  // namespace phocus

#endif  // PHOCUS_EMBEDDING_PAIR_SWEEP_H_
